package main

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/workloads/wl"
)

// paperRound is the simulator-bound workload: the paper's Fig. 5 /
// Table I experiment on its five services, one after another, each
// under a bare controller (no tracer, registry or cache — what
// ocolos-run attaches).
type paperRound struct {
	guests map[string]*wl.Workload
}

var paperPlans = []plan{
	{"sqldb", "read_only", 2},
	{"docdb", "read_update", 2},
	{"kvcache", "set10_get90", 2},
	{"rtlsim", "dhrystone", 1},
	{"loopsim", "steady", 2},
}

func (w *paperRound) windows(e *env) map[string]float64 {
	return map[string]float64{
		"warm_ms":    1e3 * e.pick(0.001, 0.0009), // past sqldb/docdb start-up (first request at 0.85 ms)
		"measure_ms": 1e3 * e.pick(0.0004, 0.0001),
		"profile_ms": 1e3 * e.pick(0.001, 0.0003),
		"settle_ms":  1e3 * e.pick(0.0002, 0.0001),
	}
}

func (w *paperRound) build(e *env) error {
	w.guests = map[string]*wl.Workload{}
	for _, pl := range paperPlans {
		g, err := buildGuest(pl.guest)
		if err != nil {
			return err
		}
		w.guests[pl.guest] = g
	}
	return nil
}

func (w *paperRound) rep(r *rep) error {
	e := r.e
	win := w.windows(e)
	warm, window, profile, settle := win["warm_ms"]/1e3, win["measure_ms"]/1e3, win["profile_ms"]/1e3, win["settle_ms"]/1e3
	var lives []*live
	err := r.timed(func() error {
		for _, pl := range paperPlans {
			l, err := launch(e, w.guests[pl.guest], pl, core.Options{})
			if err != nil {
				return err
			}
			lives = append(lives, l)
			l.run(e, warm)
			before := l.measure(e, window)
			rr, err := l.round(e, profile)
			r.check(err == nil, "%s: round: %v", pl.guest, err)
			if err != nil {
				continue
			}
			l.run(e, settle)
			after := l.measure(e, window)

			r.boltRuns++
			r.pauses = append(r.pauses, rr.PauseSeconds)
			r.p99us = append(r.p99us, simMicros(after.P99))
			if before.Throughput > 0 {
				r.speedups = append(r.speedups, after.Throughput/before.Throughput)
			}
			r.check(l.ctl.Version() == 1 && rr.Replace.BytesInjected > 0,
				"%s: round committed nothing (version %d, %d bytes)", pl.guest, l.ctl.Version(), rr.Replace.BytesInjected)
			r.check(l.p.Fault() == nil, "%s: fault: %v", pl.guest, l.p.Fault())
			r.check(after.Requests > 0, "%s: served no requests after the round", pl.guest)
		}
		return nil
	})
	countLives(r, lives, len(lives))
	runtime.KeepAlive(lives)
	return err
}
