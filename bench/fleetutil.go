package main

import (
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/layout"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// timedCache is the traced pass's decorator around the fleet's layout
// cache: it measures how long lookups take apart from the BOLT runs
// they trigger — fingerprint comparison, and a coalesced waiter's wait
// for the leader. It forwards Do, so single-flight is preserved.
type timedCache struct {
	inner   *layout.Memory
	total   atomic.Int64 // ns inside Do
	compute atomic.Int64 // ns inside the compute callbacks Do ran
}

func (c *timedCache) Get(k layout.Key) (*layout.Entry, bool) { return c.inner.Get(k) }
func (c *timedCache) Put(k layout.Key, e *layout.Entry)      { c.inner.Put(k, e) }
func (c *timedCache) Stats() layout.Stats                    { return c.inner.Stats() }

func (c *timedCache) Do(k layout.Key, compute func() (*layout.Entry, error)) (*layout.Entry, layout.Outcome, error) {
	t0 := time.Now()
	e, out, err := c.inner.Do(k, func() (*layout.Entry, error) {
		c0 := time.Now()
		e, err := compute()
		c.compute.Add(int64(time.Since(c0)))
		return e, err
	})
	c.total.Add(int64(time.Since(t0)))
	return e, out, err
}

// waitSeconds is the time spent in lookups outside compute.
func (c *timedCache) waitSeconds() float64 {
	return float64(c.total.Load()-c.compute.Load()) / 1e9
}

// fleetTrace decomposes the fleet's opaque calls on the traced pass
// through the two public seams there are: the stage spans the program
// records itself (read back through Tracer.Tree) and the cache
// decorator. Both only report durations, so what is grafted is
// worker-time divided by the lanes that ran — the wall-clock share of
// each stage if the lanes were evenly busy.
type fleetTrace struct {
	tracer *trace.Tracer
	cache  *timedCache
	seen   map[string]float64
}

func newFleetTrace(tracer *trace.Tracer, reg *telemetry.Registry) *fleetTrace {
	return &fleetTrace{tracer: tracer, cache: &timedCache{inner: layout.NewMemory(0, reg)}, seen: map[string]float64{}}
}

// fleetStages are the program's span names worth a bucket; "measure"
// (settle + measurement window) is guest execution.
var fleetStages = []string{"round", "profile", "perf2bolt", "bolt", "replace", "verify", "measure"}

// graft hangs the stage time accumulated since the previous call under
// sp, which spans one Manager.Optimize call that ran on the given
// number of lanes.
func (ft *fleetTrace) graft(sp openSpan, lanes int) {
	if ft == nil {
		return
	}
	forest := ft.tracer.Tree("")
	delta := map[string]float64{}
	for _, name := range fleetStages {
		total := sumSpans(forest, name)
		delta[name] = (total - ft.seen[name]) / float64(lanes)
		ft.seen[name] = total
	}
	wait := ft.cache.waitSeconds()
	delta["cache"] = (wait - ft.seen["cache"]) / float64(lanes)
	ft.seen["cache"] = wait

	// The round span covers its stages; grafting it keeps the nesting so
	// its self time (transitions, pause-semaphore waits, KeyFor and the
	// entry Clone, which sit outside any stage span) is visible in the
	// span file. The cache wait happens inside the round too.
	round := sp.graft("round", delta["round"])
	round.graft("profile", delta["profile"])
	round.graft("perf2bolt", delta["perf2bolt"])
	round.graft("bolt", delta["bolt"])
	round.graft("cache", delta["cache"])
	round.graft("replace", delta["replace"]).graft("verify", delta["verify"])
	round.graft("guest", delta["measure"])
}

// fleetResults folds the services' lifecycle records into the
// repetition: the terminal state each must have reached, and the pause
// of every round.
func fleetResults(r *rep, services []*fleet.Service, wantRounds int) {
	for _, s := range services {
		st := s.Status()
		r.check(st.State == fleet.Steady, "%s: ended %s (%s)", s.Name, st.State, st.LastErr)
		r.check(len(st.Rounds) == wantRounds, "%s: %d rounds, want %d", s.Name, len(st.Rounds), wantRounds)
		r.check(s.Proc.Fault() == nil, "%s: fault: %v", s.Name, s.Proc.Fault())
		for _, rd := range st.Rounds {
			r.pauses = append(r.pauses, rd.PauseSeconds)
		}
	}
}

func totalInst(services []*fleet.Service) uint64 {
	var n uint64
	for _, s := range services {
		n += s.Proc.Stats().Instructions
	}
	return n
}

// fleetCounters records the fleet's exact counters for a repetition:
// cache outcomes, peak concurrent pauses, journal volume, and what the
// services' controllers and processes counted.
func fleetCounters(r *rep, wv *wave) {
	m := wv.m
	if cs, ok := m.CacheStats(); ok {
		r.check(int(cs.Misses) == r.boltRuns, "cache misses %d but %d BOLT runs", cs.Misses, r.boltRuns)
		r.count("layout.hit_rate", cs.HitRate())
		// Hit versus coalesced depends on which worker arrives first, so
		// only their sum repeats exactly.
		r.note("layout.coalesced", float64(cs.Coalesced))
	}
	r.count("fleet.peak_pauses", float64(m.PeakPauses()))
	rounds := 0
	for _, s := range m.Services() {
		rounds += len(s.Rounds())
		countProcess(r, s.Proc, s.Ctl)
	}
	if rounds > 0 {
		r.count("trace.events_per_round", float64(m.Config().Tracer.Journal().Len())/float64(rounds))
	}
}
