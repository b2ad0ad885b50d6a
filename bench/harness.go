package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/workloads/wl"
)

// env is what every workload sees of the run: the seed, the scale, how
// many goroutines may generate load, and the span recorder (nil on the
// untraced run that produces the end-to-end metrics).
type env struct {
	seed    uint64
	smoke   bool // tiny windows, for the tier-1 test
	workers int  // min(2, nproc); GOMAXPROCS is pinned to it
	tr      *recorder
}

// seqOffset is how far -seed shifts every driver's request sequence.
// The guest sees only the generated requests; the same seed gives the
// same requests.
func (e *env) seqOffset() uint64 { return wl.SplitMix64(e.seed) >> 40 }

// seeded wraps a generator so sequence number n draws request
// n + f(seed).
func (e *env) seeded(gen wl.Generator) wl.Generator {
	off := e.seqOffset()
	return func(tid int, seq uint64) wl.Request { return gen(tid, seq+off) }
}

// seededWorkload returns a copy of w whose drivers draw seeded request
// sequences — the seam for drivers the fleet layer builds itself.
func (e *env) seededWorkload(w *wl.Workload) *wl.Workload {
	c := *w
	c.NewDriver = func(input string, threads int) (*wl.Driver, error) {
		d, err := w.NewDriver(input, threads)
		if err != nil {
			return nil, err
		}
		d.SetGenerator(e.seeded(d.Generator()))
		return d, nil
	}
	return &c
}

// pick returns the full-scale simulated window, or the smoke one.
func (e *env) pick(full, smoke float64) float64 {
	if e.smoke {
		return smoke
	}
	return full
}

// workload is one benchmark workload: build makes its guest binaries
// (set-up, run several times), rep runs one repetition of identical
// work, calling r.timed around the measured region.
type workload interface {
	build(e *env) error
	rep(r *rep) error
	// windows names every simulated window the repetition uses, for the
	// run's metadata.
	windows(e *env) map[string]float64
}

// rep collects one repetition's measurements: host costs of the timed
// region (filled by timed) and the simulated results and outcome checks
// the workload reports.
type rep struct {
	e *env

	wall, cpu  float64 // seconds
	allocBytes uint64
	liveBytes  uint64

	guestInst uint64    // guest instructions retired inside the timed region
	speedups  []float64 // per service: throughput after ÷ before
	pauses    []float64 // simulated seconds, one per committed replacement
	p99us     []float64 // simulated µs, one per post-optimization window
	boltRuns  int
	attempted int
	failures  []string
	// counts are workload-specific simulated counters that must repeat
	// exactly (superblocks formed, bytes injected, cache hits, ...).
	counts map[string]float64
	// notes are observations that may legitimately differ between
	// repetitions (which worker reached the cache first).
	notes map[string]float64
}

// check counts one operation against its expected outcome.
func (r *rep) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *rep) count(name string, v float64) {
	if r.counts == nil {
		r.counts = map[string]float64{}
	}
	r.counts[name] += v
}

func (r *rep) note(name string, v float64) {
	if r.notes == nil {
		r.notes = map[string]float64{}
	}
	r.notes[name] += v
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timed measures fn: wall, process CPU, bytes allocated, and — after a
// collection with everything fn built still referenced by the caller —
// the live heap. The collection before the region keeps one
// repetition's garbage out of the next one's time.
func (r *rep) timed(fn func() error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	root := r.e.tr.begin("rep")
	t0 := time.Now()
	err := fn()
	r.wall = time.Since(t0).Seconds()
	root.end()
	r.cpu = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.liveBytes = m1.HeapAlloc
	return err
}

// calibrate times a fixed pure-Go integer kernel: the machine-speed
// reference taken before and after each workload, so a run on a slowed
// or contended host is marked instead of believed.
func calibrate() float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		var acc uint64
		for j := 0; j < 12_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += x >> 3
		}
		calibSink = acc
		if d := time.Since(t0).Seconds(); best == 0 || d < best {
			best = d
		}
	}
	return best * 1e3
}

var calibSink uint64
