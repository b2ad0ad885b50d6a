package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/workloads/docdb"
	"repro/internal/workloads/kvcache"
	"repro/internal/workloads/loopsim"
	"repro/internal/workloads/rtlsim"
	"repro/internal/workloads/sqldb"
	"repro/internal/workloads/wl"
)

// buildGuest assembles one of the five paper workloads at evaluation
// scale. It always builds from scratch (no cache), so set-up time is
// the real cost of producing the binary.
func buildGuest(name string) (*wl.Workload, error) {
	switch name {
	case "sqldb":
		return sqldb.Build(sqldb.Full())
	case "docdb":
		return docdb.Build(docdb.Full())
	case "kvcache":
		return kvcache.Build(kvcache.Full())
	case "rtlsim":
		return rtlsim.Build(rtlsim.Full())
	case "loopsim":
		return loopsim.Build(loopsim.Full())
	}
	return nil, fmt.Errorf("bench: unknown guest %q", name)
}

// plan names one service of a single-controller workload.
type plan struct {
	guest   string
	input   string
	threads int
}

// live is one running service under its own controller, as ocolos-run
// stands one up.
type live struct {
	p      *proc.Process
	d      *wl.Driver
	ctl    *core.Controller
	tracer *trace.Tracer // traced pass only: the source of the verify stage's time

	verifySeen float64
}

// loadGuest starts a process for the plan under a seeded driver.
func loadGuest(e *env, w *wl.Workload, pl plan, opts proc.Options) (*proc.Process, *wl.Driver, error) {
	d, err := w.NewDriver(pl.input, pl.threads)
	if err != nil {
		return nil, nil, err
	}
	d.SetGenerator(e.seeded(d.Generator()))
	opts.Threads, opts.Handler = pl.threads, d
	p, err := proc.Load(w.Binary, opts)
	return p, d, err
}

// launch loads the guest and attaches a controller. On the traced pass
// a program tracer is attached as well, because the verify stage is
// only visible through it.
func launch(e *env, w *wl.Workload, pl plan, opts core.Options) (*live, error) {
	sp := e.tr.begin("load")
	defer sp.end()
	p, d, err := loadGuest(e, w, pl, proc.Options{})
	if err != nil {
		return nil, err
	}
	return attach(e, w, pl, p, d, opts)
}

func attach(e *env, w *wl.Workload, pl plan, p *proc.Process, d *wl.Driver, opts core.Options) (*live, error) {
	l := &live{p: p, d: d}
	if e.tr != nil && opts.Tracer == nil {
		opts.Tracer = trace.New(trace.Options{})
	}
	l.tracer = opts.Tracer
	opts.Service = pl.guest
	var err error
	l.ctl, err = core.New(p, w.Binary, opts)
	return l, err
}

func (l *live) run(e *env, seconds float64) {
	sp := e.tr.begin("guest")
	l.p.RunFor(seconds)
	sp.end()
}

func (l *live) measure(e *env, seconds float64) wl.WindowStats {
	sp := e.tr.begin("guest")
	ws := wl.MeasureStats(l.p, l.d, seconds)
	sp.end()
	return ws
}

// round runs one optimization round. Untraced it is the program's own
// OptimizeRound; traced, the benchmark calls the same stages in the
// same order with a span around each, and grafts the sub-stage times
// the program reports (perf2bolt and bolt from BuildStats, verify from
// the tracer).
func (l *live) round(e *env, profile float64) (*core.RoundReport, error) {
	if e.tr == nil {
		return l.ctl.OptimizeRound(profile)
	}
	l.ctl.StartRound(l.ctl.Version() + 1)
	sp := e.tr.begin("profile")
	raw := l.ctl.Profile(profile)
	sp.end()

	sp = e.tr.begin("round") // BuildOptimized outside its two stages
	bs, err := l.ctl.BuildOptimized(raw)
	sp.end()
	if err != nil {
		l.ctl.EndRound(err)
		return nil, err
	}
	sp.graft("perf2bolt", bs.Perf2BoltSeconds)
	sp.graft("bolt", bs.BoltSeconds)

	sp = e.tr.begin("replace")
	rs, err := l.ctl.Replace(bs.Result.Binary)
	sp.end()
	l.ctl.EndRound(err)
	if err != nil {
		return nil, err
	}
	sp.graft("verify", l.newVerifySeconds())
	return &core.RoundReport{Version: rs.Version, Build: bs, Replace: rs, PauseSeconds: rs.PauseSeconds}, nil
}

func (l *live) revert(e *env) (*core.ReplaceStats, error) {
	sp := e.tr.begin("replace")
	rs, err := l.ctl.Revert()
	sp.end()
	if err == nil {
		sp.graft("verify", l.newVerifySeconds())
	}
	return rs, err
}

// newVerifySeconds returns the verify-span time the tracer has
// accumulated since the previous call.
func (l *live) newVerifySeconds() float64 {
	total := sumSpans(l.tracer.Tree(""), "verify")
	d := total - l.verifySeen
	l.verifySeen = total
	return d
}

// sumSpans totals the Seconds of every span with the given name in a
// tracer forest.
func sumSpans(nodes []*trace.SpanNode, name string) float64 {
	sum := 0.0
	for _, n := range nodes {
		if n.Name == name {
			sum += n.Seconds
		}
		sum += sumSpans(n.Children, name)
	}
	return sum
}

// simMicros converts a latency in core cycles to simulated µs.
func simMicros(cycles float64) float64 {
	return cycles * cpu.DefaultConfig().SecondsPerCycle() * 1e6
}

// countProcess adds one service's exact counters to the repetition:
// what its replacements did and how the trace engine fared.
func countProcess(r *rep, p *proc.Process, ctl *core.Controller) {
	for _, rs := range ctl.Reports {
		r.count("core.bytes_injected", float64(rs.BytesInjected))
		r.count("core.call_sites_patched", float64(rs.CallSitesPatched))
		r.count("core.osr_frames_mapped", float64(rs.OSRFramesMapped))
		r.count("core.funcs_on_stack", float64(rs.FuncsOnStack))
	}
	sb := p.SuperblockStats()
	r.count("proc.super_formed", float64(sb.Formed))
	r.count("proc.super_invalidated", float64(sb.Invalidated))
}

// countLives is countProcess over single-controller services, plus the
// journal volume per round where a tracer is attached.
func countLives(r *rep, lives []*live, rounds int) {
	events := 0
	for _, l := range lives {
		r.guestInst += l.p.Stats().Instructions
		countProcess(r, l.p, l.ctl)
		events += l.tracer.Journal().Len()
	}
	if rounds > 0 {
		r.count("trace.events_per_round", float64(events)/float64(rounds))
	}
}
