package main

import (
	"runtime"

	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/wl"
)

// churnReopt is the control-path-bound workload: continuous
// optimization (§IV-C) with the input rotated every round, so every
// round re-BOLTs a bolted binary against a different profile and
// replaces a running optimized version. The simulated windows are
// short on purpose — bolt, core, ptrace and unwind do most of the host
// work, and the guest spends its time re-decoding and re-forming
// superblocks after each code write instead of in steady state.
type churnReopt struct {
	guests map[string]*wl.Workload
	mixes  map[string][]wl.Generator
}

const churnRounds = 6

// churnPlans lists each service with the inputs its rounds rotate
// through.
var churnPlans = []struct {
	plan
	mixes []string
}{
	{plan{"sqldb", "diurnal_day", 1}, []string{"diurnal_day", "diurnal_night"}},
	{plan{"docdb", "read95_insert5", 1}, []string{"read95_insert5", "read_update", "scan95_insert5"}},
	{plan{"loopsim", "steady", 1}, []string{"steady", "bursty", "sweep"}},
}

func (w *churnReopt) windows(e *env) map[string]float64 {
	return map[string]float64{
		"warm_ms":    1e3 * e.pick(0.0009, 0.0009), // past sqldb/docdb start-up (first request at 0.85 ms)
		"profile_ms": 1e3 * e.pick(0.0002, 0.0002),
		"serve_ms":   1e3 * e.pick(0.0001, 0.0001),
		"rounds":     e.pick(churnRounds, 2),
	}
}

func (w *churnReopt) build(e *env) error {
	w.guests = map[string]*wl.Workload{}
	w.mixes = map[string][]wl.Generator{}
	for _, cp := range churnPlans {
		g, err := buildGuest(cp.guest)
		if err != nil {
			return err
		}
		w.guests[cp.guest] = g
		for _, in := range cp.mixes {
			d, err := g.NewDriver(in, cp.threads)
			if err != nil {
				return err
			}
			w.mixes[cp.guest] = append(w.mixes[cp.guest], e.seeded(d.Generator()))
		}
	}
	return nil
}

func (w *churnReopt) rep(r *rep) error {
	e := r.e
	win := w.windows(e)
	warm, profile, serve, rounds := win["warm_ms"]/1e3, win["profile_ms"]/1e3, win["serve_ms"]/1e3, int(win["rounds"])
	reg := telemetry.NewRegistry()
	var lives []*live
	err := r.timed(func() error {
		for _, cp := range churnPlans {
			// Tracer and registry attached as a fleet-owned controller
			// has them; no layout cache, so every round pays for BOLT.
			l, err := launch(e, w.guests[cp.guest], cp.plan, core.Options{
				Bolt:    bolt.Options{AllowReBolt: true},
				Metrics: reg,
				Tracer:  trace.New(trace.Options{}),
			})
			if err != nil {
				return err
			}
			lives = append(lives, l)
			mixes := w.mixes[cp.guest]
			last := mixes[(rounds-1)%len(mixes)]
			l.d.SetGenerator(last)
			l.run(e, warm)
			before := l.measure(e, serve)
			var after wl.WindowStats
			committed := 0
			for i := 0; i < rounds; i++ {
				l.d.SetGenerator(mixes[i%len(mixes)])
				rr, err := l.round(e, profile)
				r.check(err == nil, "%s: round %d: %v", cp.guest, i+1, err)
				if err != nil {
					break
				}
				committed++
				after = l.measure(e, serve)
				r.pauses = append(r.pauses, rr.PauseSeconds)
				r.p99us = append(r.p99us, simMicros(after.P99))
			}
			if before.Throughput > 0 && after.Throughput > 0 {
				r.speedups = append(r.speedups, after.Throughput/before.Throughput)
			}
			rs, err := l.revert(e)
			r.check(err == nil, "%s: revert: %v", cp.guest, err)
			if err == nil {
				r.pauses = append(r.pauses, rs.PauseSeconds)
			}
			l.run(e, serve)
			r.check(committed == rounds, "%s: %d of %d rounds committed", cp.guest, committed, rounds)
			r.check(l.p.Fault() == nil, "%s: fault: %v", cp.guest, l.p.Fault())
		}
		return nil
	})
	r.boltRuns = int(reg.Counter("core_bolt_invocations_total").Value())
	countLives(r, lives, rounds*len(churnPlans))
	runtime.KeepAlive(lives)
	return err
}
