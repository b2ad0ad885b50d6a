package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/perf"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/wl"
)

// waveReplicas is the cache-hit / fleet-bound workload (§V, "optimize
// once, deploy everywhere"): one fleet wave over replicas of three
// binaries, so all but three builds hit or coalesce in the layout cache
// and the per-service cost is fingerprinting, the entry Clone, the
// replacement, lifecycle transitions and the flusher/journal/telemetry
// path. It is the only workload with two workers, so the only one where
// parallel efficiency shows.
type waveReplicas struct {
	guests map[string]*wl.Workload
}

// wavePlans: replicas per binary at full scale and in the smoke run.
var wavePlans = []struct {
	plan
	replicas, smoke int
}{
	{plan{"sqldb", "read_only", 1}, 12, 2},
	{plan{"docdb", "read_update", 1}, 8, 1},
	{plan{"kvcache", "set10_get90", 1}, 4, 1},
}

func (w *waveReplicas) windows(e *env) map[string]float64 {
	return map[string]float64{
		"warm_ms":    0.9, // untimed, past sqldb/docdb start-up
		"profile_ms": 0.2,
		"settle_ms":  0.05,
		"measure_ms": 0.1,
		"post_ms":    0.1, // untimed post-wave window for req_p99_sim_us
	}
}

func (w *waveReplicas) build(e *env) error {
	w.guests = map[string]*wl.Workload{}
	for _, wp := range wavePlans {
		g, err := buildGuest(wp.guest)
		if err != nil {
			return err
		}
		w.guests[wp.guest] = e.seededWorkload(g)
	}
	return nil
}

// waveOpts are the knobs the layer probes vary around the workload's
// own configuration.
type waveOpts struct {
	serial   bool
	noObs    bool // no Tracer, no Metrics
	record   bool // under a recording replay session (which forces serial)
	replicas int  // 0 = the plan's count; n = at most n per binary
}

// wave is a manager with its warmed replicas: the untimed part of a
// repetition.
type wave struct {
	m          *fleet.Manager
	ft         *fleetTrace
	reg        *telemetry.Registry
	addSeconds []float64 // host time of each AddService
}

func (w *waveReplicas) newWave(e *env, o waveOpts) (*wave, error) {
	win := w.windows(e)
	cfg := fleet.Config{
		Workers: e.workers, Shards: 2, MaxPauses: 1, SkipGate: true,
		Timing:     fleet.TimingConfig{ProfileDur: win["profile_ms"] / 1e3, Warm: win["settle_ms"] / 1e3, Window: win["measure_ms"] / 1e3},
		Robustness: fleet.RobustnessConfig{MaxRounds: 1},
		JitterSeed: int64(e.seed),
	}
	wv := &wave{}
	if !o.noObs {
		wv.reg = telemetry.NewRegistry()
		cfg.Metrics = wv.reg
		cfg.Tracer = trace.New(trace.Options{})
	}
	if o.record {
		cfg.Replay = replay.NewRecorder(0)
	}
	if e.tr != nil {
		wv.ft = newFleetTrace(cfg.Tracer, wv.reg)
		cfg.Cache.Layout = wv.ft.cache
	}
	var err error
	if wv.m, err = fleet.NewManager(cfg); err != nil {
		return nil, err
	}
	for _, wp := range wavePlans {
		n := wp.replicas
		if e.smoke {
			n = wp.smoke
		}
		if o.replicas > 0 && n > o.replicas {
			n = o.replicas
		}
		for i := 0; i < n; i++ {
			var s *fleet.Service
			wv.addSeconds = append(wv.addSeconds, once(func() {
				s, err = wv.m.AddService(fleet.ServicePlan{
					Name: fmt.Sprintf("%s-%02d", wp.guest, i), Workload: w.guests[wp.guest],
					Input: wp.input, Threads: wp.threads,
					// Sample densely: the profiling window is a fifth of a
					// simulated millisecond.
					Core: core.Options{Perf: perf.RecorderOptions{PeriodCycles: 4_000}},
				})
			}))
			if err != nil {
				return nil, err
			}
			s.Proc.RunFor(win["warm_ms"] / 1e3)
		}
	}
	return wv, nil
}

// runWave is the timed region: Manager.Run, or on the traced pass the
// Scan and Optimize it consists of with a span around each.
func runWave(e *env, m *fleet.Manager, ft *fleetTrace) error {
	if e.tr == nil {
		_, err := m.Run()
		return err
	}
	sp := e.tr.begin("scan")
	scan := m.Scan(fleet.ScanOptions{})
	sp.end()
	sp = e.tr.begin("optimize")
	m.Optimize(scan, fleet.WaveOptions{})
	sp.end()
	ft.graft(sp, e.workers)
	return nil
}

func (w *waveReplicas) rep(r *rep) error {
	e := r.e
	wv, err := w.newWave(e, waveOpts{})
	if err != nil {
		return err
	}
	m, reg := wv.m, wv.reg
	services := m.Services()
	inst0 := totalInst(services)
	err = r.timed(func() error { return runWave(e, m, wv.ft) })
	if err != nil {
		return err
	}
	r.guestInst = totalInst(services) - inst0
	r.boltRuns = int(reg.Counter("core_bolt_invocations_total").Value())
	fleetResults(r, services, 1)
	post := w.windows(e)["post_ms"] / 1e3
	for _, s := range services {
		if st := s.Status(); st.Speedup > 0 {
			r.speedups = append(r.speedups, st.Speedup)
		}
		r.p99us = append(r.p99us, simMicros(wl.MeasureStats(s.Proc, s.Driver, post).P99))
	}
	fleetCounters(r, wv)
	runtime.KeepAlive(m)
	return nil
}
