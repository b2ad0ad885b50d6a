package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/perf"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/kvcache"
	"repro/internal/workloads/wl"
)

// driftTenants is the profile-ingest / drift-bound workload (§IV-C's
// daily pattern): multi-tenant caches whose hot tenant turns three
// times. perf.Stream and profile.Store take continuous writes beside
// per-scan reads (Window, DecayedSummary, Divergence), and every
// re-optimization presents the layout cache with a fingerprint it has
// not seen — misses and puts, the mirror image of wave_replicas
// (service i starts with tenant i hot and turns to i+1, i+2, i+3, so no
// two services ever present the same profile of the same binary). The
// binary is tiny, which keeps the round itself out of the way.
type driftTenants struct {
	guest *wl.Workload
	hot   []wl.Generator // hot[k] = the input with tenant k hot
}

const (
	driftTenantsN  = 4
	driftTurns     = 3
	driftBatchSize = 256
)

func (w *driftTenants) services(e *env) int { return int(e.pick(3, 2)) }

func (w *driftTenants) windows(e *env) map[string]float64 {
	// Policy and stream period as experiments.phaseTunings(quick).
	return map[string]float64{
		"warm_ms":      0.4,
		"profile_ms":   1.2,
		"settle_ms":    0.4,
		"measure_ms":   0.6,
		"dwell_ms":     1,
		"min_dwell_ms": 0.5,
		"cooldown_ms":  1.0,
	}
}

func (w *driftTenants) build(e *env) error {
	g, err := kvcache.Build(kvcache.MultiTenant(driftTenantsN))
	if err != nil {
		return err
	}
	w.guest = e.seededWorkload(g)
	w.hot = nil
	for k := 0; k < driftTenantsN; k++ {
		gen, err := kvcache.TenantGenerator(fmt.Sprintf("hot%d", k), driftTenantsN)
		if err != nil {
			return err
		}
		w.hot = append(w.hot, e.seeded(gen))
	}
	return nil
}

// newFleet stands up the drifting fleet with n warmed services, service
// i serving with tenant i hot.
func (w *driftTenants) newFleet(e *env, n int) (*wave, error) {
	win := w.windows(e)
	ms := func(k string) float64 { return win[k] / 1e3 }
	wv := &wave{reg: telemetry.NewRegistry()}
	cfg := fleet.Config{
		Workers: e.workers, Shards: 2, MaxPauses: 1, SkipGate: true,
		Timing:     fleet.TimingConfig{ProfileDur: ms("profile_ms"), Warm: ms("settle_ms"), Window: ms("measure_ms")},
		Robustness: fleet.RobustnessConfig{MaxRounds: 1},
		Metrics:    wv.reg,
		Tracer:     trace.New(trace.Options{}),
		JitterSeed: int64(e.seed),
		Drift: fleet.DriftConfig{
			Enabled: true,
			Policy:  profile.ReoptPolicy{MinDivergence: 0.35, MinDwell: ms("min_dwell_ms"), Cooldown: ms("cooldown_ms")},
			Stream:  perf.RecorderOptions{PeriodCycles: 8_000, OverheadCycles: 400},
		},
	}
	if e.tr != nil {
		wv.ft = newFleetTrace(cfg.Tracer, wv.reg)
		cfg.Cache.Layout = wv.ft.cache
	}
	var err error
	if wv.m, err = fleet.NewManager(cfg); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		s, err := wv.m.AddService(fleet.ServicePlan{
			Name: fmt.Sprintf("mt-kv-%d", i), Workload: w.guest, Input: fmt.Sprintf("hot%d", i%driftTenantsN), Threads: 1,
			Core: core.Options{NoChargePause: true},
		})
		if err != nil {
			return nil, err
		}
		s.Proc.RunFor(ms("warm_ms"))
	}
	return wv, nil
}

// turn moves every service's hot tenant on by one and serves the new
// phase on the old layout long enough for the continuous sampler to see
// it and the dwell guard to pass. It returns each service's stale
// throughput.
func (w *driftTenants) turn(e *env, services []*fleet.Service, turn int) []float64 {
	win := w.windows(e)
	stale := make([]float64, len(services))
	for i, s := range services {
		s.Driver.SetGenerator(w.hot[(i+turn)%driftTenantsN])
		s.Proc.RunFor(win["dwell_ms"] / 1e3)
		stale[i] = wl.Measure(s.Proc, s.Driver, win["measure_ms"]/1e3)
	}
	return stale
}

// batch is what the fleet's profiling daemon pushes a service: its own
// most recent samples, stamped with the store's current time. (A batch
// with older timestamps or another layout's addresses would break the
// store's time-sorted ring and poison the window the next round is
// built from.)
func (w *driftTenants) batch(e *env, s *fleet.Service) []profile.TimedSample {
	st := s.ProfileStore()
	raw := st.Window(w.windows(e)["profile_ms"] / 1e3)
	if n := len(raw.Samples); n > driftBatchSize {
		raw.Samples = raw.Samples[n-driftBatchSize:]
	}
	batch := make([]profile.TimedSample, len(raw.Samples))
	for j, smp := range raw.Samples {
		batch[j] = profile.TimedSample{At: st.Now(), Records: smp.Records}
	}
	return batch
}

func (w *driftTenants) rep(r *rep) error {
	e := r.e
	wv, err := w.newFleet(e, w.services(e))
	if err != nil {
		return err
	}
	m, ft := wv.m, wv.ft
	measure := w.windows(e)["measure_ms"] / 1e3
	services := m.Services()
	inst0 := totalInst(services)

	err = r.timed(func() error {
		if err := runWave(e, m, ft); err != nil {
			return err
		}
		for turn := 1; turn <= driftTurns; turn++ {
			sp := e.tr.begin("guest")
			stale := w.turn(e, services, turn)
			sp.end()

			sp = e.tr.begin("ingest")
			for _, s := range services {
				batch := w.batch(e, s)
				err := m.IngestProfile(s.Name, batch)
				r.check(err == nil && len(batch) > 0, "%s: turn %d: ingest of %d samples: %v", s.Name, turn, len(batch), err)
			}
			sp.end()

			sp = e.tr.begin("scan")
			scan := m.Scan(fleet.ScanOptions{Drift: true})
			sp.end()
			fired := 0
			for _, sr := range scan {
				r.check(sr.Optimize, "%s: turn %d did not trigger (%s, score %.3f)", sr.Service.Name, turn, sr.DriftReason, sr.DriftScore)
				if sr.Optimize {
					fired++
					r.count("profile.drift_score", sr.DriftScore/float64(driftTurns*len(services)))
				}
			}
			r.check(fired == len(services), "turn %d: %d of %d services re-optimized", turn, fired, len(services))

			sp = e.tr.begin("optimize")
			t0 := services[0].Proc.Seconds()
			m.Optimize(scan, fleet.WaveOptions{})
			r.count("profile.reconverge_sim_ms", 1e3*(services[0].Proc.Seconds()-t0)/driftTurns)
			sp.end()
			ft.graft(sp, e.workers)

			sp = e.tr.begin("guest")
			for i, s := range services {
				rec := wl.MeasureStats(s.Proc, s.Driver, measure)
				r.p99us = append(r.p99us, simMicros(rec.P99))
				if stale[i] > 0 {
					r.speedups = append(r.speedups, rec.Throughput/stale[i])
				}
			}
			sp.end()
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.guestInst = totalInst(services) - inst0
	r.boltRuns = int(wv.reg.Counter("core_bolt_invocations_total").Value())
	fleetResults(r, services, 1+driftTurns)
	for _, s := range services {
		r.check(s.Reopts() == driftTurns, "%s: %d drift re-optimizations, want %d", s.Name, s.Reopts(), driftTurns)
	}
	r.count("profile.recovered_ratio", geomean(r.speedups))
	fleetCounters(r, wv)
	runtime.KeepAlive(m)
	return nil
}
