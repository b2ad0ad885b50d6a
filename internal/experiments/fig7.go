package experiments

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/perf"
	"repro/internal/proc"
)

// Fig7 reproduces Figure 7: sqldb read_only throughput over time across
// the five regions of an OCOLOS deployment — (1) warm-up on the original
// binary, (2) perf LBR recording, (3) perf2bolt + BOLT running in the
// background and competing for CPU, (4) the stop-the-world code
// replacement, (5) optimized steady state. 95th-percentile request
// latency is reported per region.
//
// The background pipeline's CPU contention in region 3 is modeled as a
// fractional cycle tax on every core (perf2bolt uses 4 threads and BOLT
// one, on a 16-core machine; we charge 25%). Its duration is the
// simulated analog of the paper's Table II costs, scaled to our request
// length.
func Fig7(cfg Config) error {
	cfg.defaults()
	w, err := Workload("sqldb")
	if err != nil {
		return err
	}
	const input = "read_only"
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

	slice := cfg.window() / 8 // reporting granularity
	type sample struct {
		t, tput, p95, max float64
		region            int
	}
	var series []sample
	region := 1
	toMS := 1e3 / p.Cfg.ClockHz
	record := func(tput float64) {
		series = append(series, sample{
			t:      p.Seconds(),
			tput:   tput,
			p95:    d.LatencyPercentile(0.95) * toMS,
			max:    d.LatencyPercentile(1.0) * toMS,
			region: region,
		})
		d.ResetWindow()
	}
	runSlices := func(n int, tax float64) {
		for i := 0; i < n; i++ {
			before := d.Completed()
			t0 := p.Seconds()
			p.RunFor(slice)
			if tax > 0 {
				for _, th := range p.Threads {
					th.Core.AddStall(tax*slice*p.Cfg.ClockHz, cpu.BucketBackEnd)
				}
			}
			dt := p.Seconds() - t0
			record(float64(d.Completed()-before) / dt)
		}
	}

	// Region 1: warm-up.
	runSlices(8, 0)
	// Region 2: perf LBR recording (attached while serving continues).
	region = 2
	rec := perf.Attach(p, perf.RecorderOptions{})
	runSlices(8, 0)
	rawProf := rec.Stop()
	// Region 3: background perf2bolt + BOLT (CPU contention tax).
	region = 3
	bs, err := ctl.BuildOptimized(rawProf)
	if err != nil {
		return err
	}
	runSlices(6, 0.25)
	// Region 4: stop-the-world replacement.
	region = 4
	rs, err := ctl.Replace(bs.Result.Binary)
	if err != nil {
		return err
	}
	runSlices(2, 0)
	// Region 5: optimized steady state.
	region = 5
	runSlices(10, 0)
	if err := p.Fault(); err != nil {
		return err
	}

	cfg.printf("Figure 7: sqldb %s throughput timeline (pause %.1f ms simulated)\n", input, rs.PauseSeconds*1e3)
	cfg.printf("%10s %8s %14s %10s %10s\n", "t (ms)", "region", "tput (req/s)", "p95 (ms)", "max (ms)")
	names := []string{"", "warmup", "perf", "perf2bolt+bolt", "replace", "optimized"}
	var regTput [6]float64
	var regN [6]int
	for _, s := range series {
		cfg.printf("%10.3f %8d %14.0f %10.4f %10.4f\n", s.t*1e3, s.region, s.tput, s.p95, s.max)
		regTput[s.region] += s.tput
		regN[s.region]++
	}
	cfg.printf("region means:\n")
	for r := 1; r <= 5; r++ {
		if regN[r] > 0 {
			cfg.printf("  %-16s %12.0f req/s\n", names[r], regTput[r]/float64(regN[r]))
		}
	}
	cfg.printf("replacement: %d call sites, %d vtable slots, %d funcs on stack, pause %.2f ms\n",
		rs.CallSitesPatched, rs.VTableSlotsPatched, rs.FuncsOnStack, rs.PauseSeconds*1e3)
	return nil
}
