package experiments

import (
	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/workloads/wl"
)

// Fig6 reproduces Figure 6: speedup on sqldb read_only as a function of
// the profiling duration, for OCOLOS (online) and offline BOLT given the
// same amount of profile. Short profiles hurt both; past a knee, more
// profiling buys little. Durations are simulated time; our requests are
// ~1000× shorter than Sysbench transactions, so the knee appears around
// 0.2–1 ms where the paper's sits around 0.1–1 s.
func Fig6(cfg Config) error {
	cfg.defaults()
	w, err := Workload("sqldb")
	if err != nil {
		return err
	}
	const input = "read_only"
	durations := []float64{20e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3}
	if cfg.Quick {
		durations = []float64{20e-6, 100e-6, 500e-6, 2e-3}
	}

	orig, err := cfg.MeasureOriginal(w, input)
	if err != nil {
		return err
	}
	cfg.printf("Figure 6: speedup vs profiling duration (sqldb %s)\n", input)
	cfg.printf("%12s %10s %12s %10s\n", "profile (ms)", "samples", "OCOLOS", "BOLT")

	for _, dur := range durations {
		// OCOLOS online with this profiling window.
		threads := cfg.threads(w.Threads)
		d, err := w.NewDriver(input, threads)
		if err != nil {
			return err
		}
		p, err := proc.Load(w.Binary, proc.Options{Threads: threads, Handler: d})
		if err != nil {
			return err
		}
		ctl, err := core.New(p, w.Binary, core.Options{})
		if err != nil {
			return err
		}
		p.RunFor(cfg.warm())
		raw := ctl.Profile(dur)
		samples := len(raw.Samples)
		// With no usable profile OCOLOS leaves C0 running: speedup 1.0.
		ocoSpeed := 1.0
		bs, err := ctl.BuildOptimized(raw)
		if err == nil {
			if _, err := ctl.Replace(bs.Result.Binary); err != nil {
				return err
			}
			p.RunFor(cfg.warm())
			ocoSpeed = wl.Measure(p, d, cfg.window()) / orig
			if err := p.Fault(); err != nil {
				return err
			}
		}

		// Offline BOLT with the same amount of profiling data.
		boltSpeed := 1.0
		raw2, err := profileFor(cfg, w, input, dur)
		if err != nil {
			return err
		}
		prof, err := bolt.ConvertProfile(raw2, w.Binary)
		if err == nil {
			if res, err := bolt.Optimize(w.Binary, prof, bolt.Options{}); err == nil {
				t, err := cfg.MeasureBinary(w, res.Binary, input)
				if err != nil {
					return err
				}
				boltSpeed = t / orig
			}
		}
		cfg.printf("%12.3f %10d %11.2fx %9.2fx\n", dur*1e3, samples, ocoSpeed, boltSpeed)
	}
	return nil
}

// profileFor records a profile of exactly dur simulated seconds.
func profileFor(cfg Config, w *wl.Workload, input string, dur float64) (*perf.RawProfile, error) {
	threads := cfg.threads(w.Threads)
	d, err := w.NewDriver(input, threads)
	if err != nil {
		return nil, err
	}
	p, err := proc.Load(w.Binary, proc.Options{Threads: threads, Handler: d})
	if err != nil {
		return nil, err
	}
	p.RunFor(cfg.warm())
	raw := perf.Record(p, dur, perf.RecorderOptions{})
	return raw, p.Fault()
}
