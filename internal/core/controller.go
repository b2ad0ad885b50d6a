// Package core implements OCOLOS itself: online profile-guided code layout
// optimization of a running process (§IV, §V of the paper).
//
// A Controller attaches to a live simulated process and, per optimization
// round: samples LBR profiles with perf (step 1), runs perf2bolt + the
// BOLT-style optimizer in the background to produce an optimized binary
// (step 2), then pauses the target (step 3), injects the new code C_{i+1}
// at a fresh address range (step 4), updates code pointers — v-table
// slots, direct calls in stack-live C0 functions, return addresses and
// thread PCs — (step 5), and resumes (step 6).
//
// Design principles from §IV are honored literally:
//
//  1. C0 instruction addresses are never moved; C0 bytes are only patched
//     in place (direct-call immediates).
//  2. C1 runs in the common case: v-tables and stack-live C0 call sites
//     steer execution into the optimized code.
//  3. Fixed costs only: the function-pointer-creation hook (the
//     wrapFuncPtrCreation analog, §IV-C2) is the one standing
//     instrumentation, and it enforces the invariant that function
//     pointers always refer to C0, which is what makes continuous
//     optimization (C_i → C_{i+1} with dead-code GC) safe.
package core

import (
	"fmt"
	"time"

	"repro/internal/bolt"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/obj"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Region layout for injected code versions. Versions reuse a ring of
// versionSlots address slots, version v taking slot (v-1) mod
// versionSlots. A slot is a text region at textBase(v) (the version's jump
// tables at roOffset inside it) and a copies area at copiesArea(v) for the
// stack-live copies made while replacing version v-1. Each round maps the
// incoming version's slot and garbage-collects the outgoing one's, so at
// most two slots are live and a slot is reused only long after its version
// was collected. A reused slot can meet cache, TLB and BTB state left by
// the version that last held it: the timing model does not shoot it down.
// Each copied function instance gets its own fixed-width window so that
// the hot and cold spans of one instance shift by a single delta (keeping
// every PC-relative branch valid) without colliding with another.
const (
	versionSlots     = 16 // above the last version any shipped scenario reaches
	versionStride    = 0x1000_0000
	firstTextBase    = 0x2000_0000
	roOffset         = 0x0C00_0000 // per-version jump-table area
	copiesAreaBase   = 0x1000_0000_0000
	copiesAreaStride = 0x0010_0000_0000 // per slot
	copyWindow       = 0x1000_0000      // per copied instance
)

// Pause model: replacement work converted into simulated stop-the-world
// time (§VI-C2) — a few MiB of scattered single-threaded writes, scaled
// down ~25x from the paper's measured 669 ms over 24.6 MiB.
const (
	pauseBaseSeconds          = 2e-3
	pauseSecondsPerMiB        = 0.022
	pauseSecondsPerCallSite   = 8e-6
	pauseSecondsPerVTableSlot = 1.5e-6
	pauseSecondsPerFrame      = 2e-5
)

// pauseSeconds computes the simulated pause for a replacement.
func pauseSeconds(bytes uint64, sites, slots, frames int) float64 {
	return pauseBaseSeconds +
		pauseSecondsPerMiB*float64(bytes)/(1<<20) +
		pauseSecondsPerCallSite*float64(sites) +
		pauseSecondsPerVTableSlot*float64(slots) +
		pauseSecondsPerFrame*float64(frames)
}

// Options configures a controller.
type Options struct {
	Perf perf.RecorderOptions
	Bolt bolt.Options // TextBase is managed per round by the controller

	// Ablation switches (§IV-B discussion).
	NoPatchVTables    bool // leave v-tables pointing at C0
	NoPatchStackCalls bool // do not patch direct calls in stack-live C0 funcs
	PatchAllCalls     bool // patch direct calls in *all* C0 functions
	NoFuncPtrHook     bool // skip wrapFuncPtrCreation (single-round only)

	// Trampolines redirects *all* invocations of moved functions: the
	// first instruction of each moved function's C0 body is overwritten
	// with a jump to its optimized version (§IV-B's security/debugging
	// mode — "via trampoline instructions at the start of C0 functions").
	// Instruction addresses are still preserved; only future entries
	// bounce. Trampolines are rewritten each round and removed when a
	// function falls back to C0 (and on Revert).
	Trampolines bool

	// AllowJumpTables lifts the -fno-jump-tables requirement (§IV-D calls
	// the restriction "not fundamental ... with a little extra support
	// from BOLT"): the optimizer emits each version's jump tables into
	// that version's own region and OCOLOS injects them alongside the
	// code, so C0's tables are never touched and the new code reads its
	// own relocated tables.
	AllowJumpTables bool

	// NoOSR disables on-stack replacement of frames parked mid-function:
	// every live frame of the outgoing version drains through copy-based
	// migration (the pre-OSR behavior). Ablation and benchmark switch.
	NoOSR bool

	// ParallelPatch models parallelized pointer patching (§IV-D: "if
	// OCOLOS updated v-tables in parallel with patching direct calls that
	// should reduce the end-to-end replacement time"): the scattered-write
	// components of the pause are divided by the parallelism factor.
	ParallelPatch bool

	// NoChargePause leaves the modeled stop-the-world time off the
	// target's cores. By default a replacement charges it, so throughput
	// and latency measurements include the pause; runs that only check
	// semantics or fleet behavior can set this.
	NoChargePause bool

	// Metrics, when non-nil, receives the controller's operational
	// metrics: rounds, per-stage host latencies, pause seconds, bytes
	// injected/freed, and per-stage error counts. The fleet manager
	// shares one registry across every controller it owns.
	Metrics *telemetry.Registry

	// Tracer, when non-nil, receives a hierarchical span per pipeline
	// stage (profile, perf2bolt, bolt, replace, verify) plus journal
	// events for rollbacks, verify failures, reverts, and injected
	// faults. Stage spans parent under the current round span
	// (StartRound/EndRound) when one is open, else under the root span
	// installed with SetTraceRoot.
	Tracer *trace.Tracer

	// Service labels this controller's spans and journal events when the
	// controller creates root-level spans itself (no SetTraceRoot); the
	// fleet manager instead installs a per-service root span that carries
	// the name.
	Service string

	// FaultHook, when non-nil, is installed on every tracee the controller
	// attaches during Replace: it runs before each debugger operation and
	// can fail it (see ptrace.Tracee.FaultHook). The fault-sweep harness
	// uses it to abort a replacement at every possible point and assert
	// the transactional rollback restores the target exactly.
	FaultHook func(op string, n int) error

	// Replay, when active, records or replays the controller's
	// nondeterminism sources: perf sampling deadlines are routed through
	// the session, FaultHook decisions are journaled (and journal-fed on
	// replay), and every replace commit/rollback emits a StateHash
	// checkpoint. See internal/replay and docs/replay.md.
	Replay *replay.Session

	// Clock supplies the controller's host-time reads (stage-latency
	// windows); nil means the host's real clock. When Replay is active
	// the controller wraps it in the session's journaling clock, so
	// wall-clock-dependent windows (Profile's start instant) land in the
	// journal and replay identically instead of re-reading host time.
	Clock replay.Clock

	// LayoutCache, when non-nil, short-circuits BuildOptimized: the
	// (binary, quantized profile, optimizer options) fingerprint is
	// looked up first and only a miss runs perf2bolt + BOLT, with
	// single-flight coalescing when the cache supports it. The fleet
	// manager shares one cache across every controller it owns so one
	// service's layout is reused fleet-wide ("optimize once, deploy
	// everywhere", §V); tests inject recording fakes through the same
	// seam. Cache decisions are journaled by an active Replay session.
	LayoutCache layout.Cache
}

// patchParallelism is the modeled fan-out of ParallelPatch.
const patchParallelism = 4

// callSite is a pre-parsed direct call in C0 (§IV: OCOLOS parses the
// original binary offline to shorten the stop-the-world window).
type callSite struct {
	addr   uint64 // address of the CALL instruction
	callee string
}

// Controller drives online optimization of one process.
type Controller struct {
	p    *proc.Process
	orig *obj.Binary
	opts Options

	res       resolver
	version   int                   // current optimized version; 0 = none
	curBin    *obj.Binary           // binary of the current version
	c0Entry   map[string]uint64     // name → C0 entry
	curOf     map[string]uint64     // name → preferred entry right now
	callSites map[string][]callSite // C0 call sites by function
	patched   map[uint64]string     // patched C0 site → callee name
	fptrMap   map[uint64]uint64     // optimized entry → C0 entry
	tramps    map[string]bool       // functions with a live C0 trampoline
	jtables   map[uint64][]uint64   // live relocated jump tables by address

	// osrFromC0 is the live OSR relation of the current layout: for every
	// function currently moved off C0, the C0 unified offset → current-
	// layout unified offset map of its mappable points, composed across
	// rounds. It is what lets a frame migrate between *any* two layouts by
	// pivoting through the immortal C0 image (fell-cold and Revert paths).
	osrFromC0 map[string]map[uint64]uint64

	tracer *trace.Tracer
	troot  *trace.Span // root span stage spans parent under (may be nil)
	tround *trace.Span // current round span, between StartRound and EndRound

	// clock is Options.Clock (or the wall), session-wrapped when a
	// replay session is active.
	clock replay.Clock
	// src, when attached, serves Profile from streamed windows instead
	// of a one-shot pull (AttachProfileSource).
	src profile.Source

	// Reports accumulates one entry per replacement round.
	Reports []ReplaceStats
}

// New attaches a controller to a running process. The binary must be the
// one the process was loaded from and must have been compiled with the
// -fno-jump-tables analog (§IV-D); the function-pointer hook is installed
// immediately so the C0 invariant holds for every pointer the program
// ever creates.
func New(p *proc.Process, orig *obj.Binary, opts Options) (*Controller, error) {
	if !orig.NoJumpTables && !opts.AllowJumpTables {
		return nil, fmt.Errorf("core: target binary %s has jump tables; OCOLOS requires -fno-jump-tables (§IV-D) unless AllowJumpTables is set", orig.Name)
	}
	if orig.Bolted {
		return nil, fmt.Errorf("core: target binary %s is already bolted", orig.Name)
	}
	if opts.Clock == nil {
		opts.Clock = replay.Wall{}
	}
	if opts.Replay.Active() {
		// Route the controller's nondeterminism through the session: fault
		// decisions (journaled when firing, journal-fed on replay), perf
		// sampling deadlines (always journaled — they are what makes two
		// profiles of the same window differ), and the clock behind the
		// stage-latency windows (Profile's start instant used to be a bare
		// time.Now() in the record path, so window timing replayed from
		// host time instead of the journal).
		opts.FaultHook = opts.Replay.FaultHook(opts.FaultHook)
		opts.Perf.NextDeadline = opts.Replay.PerfDeadline(opts.Perf.DeadlineFunc())
		opts.Clock = opts.Replay.Clock(opts.Clock)
	}
	c := &Controller{
		p:         p,
		orig:      orig,
		opts:      opts,
		c0Entry:   make(map[string]uint64, len(orig.Funcs)),
		curOf:     make(map[string]uint64, len(orig.Funcs)),
		callSites: make(map[string][]callSite, len(orig.Funcs)),
		patched:   make(map[uint64]string),
		fptrMap:   make(map[uint64]uint64),
		tramps:    make(map[string]bool),
		jtables:   make(map[uint64][]uint64),
		osrFromC0: make(map[string]map[uint64]uint64),
		tracer:    opts.Tracer,
		clock:     opts.Clock,
	}
	for _, f := range orig.Funcs {
		c.c0Entry[f.Name] = f.Addr
		c.curOf[f.Name] = f.Addr
		c.res.add(f.Addr, f.Addr+f.Size, f.Name, f.Addr, 0)
	}
	c.res.sort()
	if err := c.parseCallSites(); err != nil {
		return nil, err
	}
	if !opts.NoFuncPtrHook {
		c.p.SetFuncPtrHook(func(v uint64) uint64 {
			if c0, ok := c.fptrMap[v]; ok {
				return c0
			}
			return v
		})
	}
	return c, nil
}

// parseCallSites decodes every C0 function, verifies it is unwindable,
// and records its direct calls.
func (c *Controller) parseCallSites() error {
	for _, f := range c.orig.Funcs {
		raw, err := c.orig.Bytes(f.Addr, int(f.Size))
		if err != nil {
			return err
		}
		insts, err := isa.DecodeAll(raw)
		if err != nil {
			return fmt.Errorf("core: decoding %s: %w", f.Name, err)
		}
		// Unwindability ABI: every function must establish a frame first
		// (the -fno-omit-frame-pointer analog); OCOLOS's stack crawling
		// depends on it the way the real system depends on libunwind
		// having usable unwind info.
		if len(insts) == 0 || insts[0].Op != isa.ENTER {
			return fmt.Errorf("core: function %s does not start with ENTER; target must keep frame pointers", f.Name)
		}
		for i, in := range insts {
			if in.Op != isa.CALL {
				continue
			}
			pc := f.Addr + uint64(i)*isa.InstBytes
			tgt := uint64(int64(pc) + isa.InstBytes + in.Imm)
			callee := c.orig.FuncAt(tgt)
			if callee == nil {
				return fmt.Errorf("core: %s: call at %#x targets non-entry %#x", f.Name, pc, tgt)
			}
			c.callSites[f.Name] = append(c.callSites[f.Name], callSite{addr: pc, callee: callee.Name})
		}
	}
	return nil
}

// Version returns the current optimized code version (0 before the first
// replacement).
func (c *Controller) Version() int { return c.version }

// CurrentBinary returns the binary of the running optimized version (nil
// before the first replacement).
func (c *Controller) CurrentBinary() *obj.Binary { return c.curBin }

// inputBin returns the binary of the running code: the current optimized
// version, or C0 before the first replacement and after a Revert.
func (c *Controller) inputBin() *obj.Binary {
	if c.curBin != nil {
		return c.curBin
	}
	return c.orig
}

// Whereis resolves a code address against the controller's live code
// map: the function name and code version (0 = the immortal C0 image)
// of the span containing addr. Stack-live copies resolve to their
// function's name under the version that made the copy. It answers the
// observability question "which layout is this thread executing?"
// without exposing the resolver itself.
func (c *Controller) Whereis(addr uint64) (name string, version int, ok bool) {
	s, ok := c.res.at(addr)
	if !ok {
		return "", 0, false
	}
	return s.name, s.version, true
}

// SetTraceRoot installs the span under which the controller's round and
// stage spans nest — the fleet manager passes each service's root span
// here so one tracer can hold many controllers' trees.
func (c *Controller) SetTraceRoot(root *trace.Span) { c.troot = root }

// StartRound opens the span bracketing one optimization round. Stage
// spans started before the matching EndRound parent under it. Callers
// that drive the stages individually (the fleet lifecycle) bracket them
// explicitly; OptimizeRound does it internally.
func (c *Controller) StartRound(round int) *trace.Span {
	sp := c.tracer.Start(c.troot, "round", trace.Int("round", round))
	if c.troot == nil {
		sp.SetService(c.opts.Service)
	}
	sp.SetRound(round)
	c.tround = sp
	return sp
}

// EndRound closes the current round span with the round's outcome.
func (c *Controller) EndRound(err error) {
	c.tround.End(err)
	c.tround = nil
}

// startSpan opens a stage span under the current round (or root) span.
func (c *Controller) startSpan(name string, attrs ...trace.Attr) *trace.Span {
	parent := c.tround
	if parent == nil {
		parent = c.troot
	}
	sp := c.tracer.Start(parent, name, attrs...)
	if parent == nil {
		sp.SetService(c.opts.Service)
	}
	return sp
}

// versionSlot returns the address slot of version v ≥ 1.
func versionSlot(v int) uint64 { return uint64((v - 1) % versionSlots) }

// textBase returns the injection base for version v ≥ 1.
func textBase(v int) uint64 { return firstTextBase + versionSlot(v)*versionStride }

// copiesArea returns the base of the copies area for version v ≥ 1.
func copiesArea(v int) uint64 { return copiesAreaBase + (versionSlot(v)+1)*copiesAreaStride }

// ShouldOptimize is the first profiling stage (§V, following DMon's
// TopDown methodology): a cheap counter measurement deciding whether the
// target suffers enough front-end stalls for code layout optimization to
// pay off. It returns the decision and the measured breakdown; Figure 9
// shows the same two features separating winners from losers.
func (c *Controller) ShouldOptimize(seconds float64) (bool, cpu.TopDown) {
	td := perf.MeasureTopDown(c.p, seconds).TopDown()
	return td.FrontEnd > 0.25 && td.Retiring < 0.5, td
}

// AttachProfileSource supersedes the pull-based Profile(seconds) shape:
// with a source attached (the fleet wires each service's streaming
// profile.Store here), Profile serves the source's trailing window
// instead of running a one-shot perf.Record pull. Pass nil to detach
// and return to pull profiling.
func (c *Controller) AttachProfileSource(src profile.Source) { c.src = src }

// Profile produces the round's LBR profile (step 1 of Figure 4a): the
// trailing window of the attached streaming source when one is attached
// and has samples, else a one-shot pull of the given simulated duration
// (the pre-streaming behavior, and the fallback for a source whose
// window is empty — e.g. immediately after a replacement epoch).
func (c *Controller) Profile(seconds float64) *perf.RawProfile {
	sp := c.startSpan("profile")
	t0 := c.clock.Now()
	var raw *perf.RawProfile
	streamed := false
	if c.src != nil {
		raw = c.src.Window(seconds)
		streamed = len(raw.Samples) > 0
	}
	if !streamed {
		raw = perf.Record(c.p, seconds, c.opts.Perf)
	}
	c.observeStage("profile", c.clock.Now().Sub(t0).Seconds())
	sp.SetAttrs(append(raw.TraceAttrs(), trace.Bool("streamed", streamed))...)
	sp.End(nil)
	return raw
}

// BuildStats reports the background pipeline costs (Table II).
type BuildStats struct {
	Perf2BoltSeconds float64 // host time of profile conversion
	BoltSeconds      float64 // host time of the optimizer
	Result           *bolt.Result

	// CacheHit reports that the layout came out of Options.LayoutCache
	// (including the single-flight coalesced path) instead of a fresh
	// perf2bolt + BOLT run; LayoutKey is the content-addressed key of
	// the lookup ("" when no cache is configured).
	CacheHit  bool
	LayoutKey string
}

// boltOptions derives the per-round optimizer options for the next
// version.
func (c *Controller) boltOptions() bolt.Options {
	bo := c.opts.Bolt
	bo.TextBase = textBase(c.version + 1)
	// Functions that fall cold this round are pinned back at C0: their
	// current homes (if in C_i) are garbage-collected during replacement.
	bo.PinBase = c.c0Entry
	if c.opts.AllowJumpTables {
		// Each version's jump tables live inside its own region (and are
		// collected with it); C0's tables are never overwritten.
		bo.ROBase = textBase(c.version+1) + roOffset
	}
	return bo
}

// BuildOptimized converts the raw profile and runs the optimizer against
// the *currently running* code version (step 2). For rounds ≥ 2 this
// requires Options.Bolt.AllowReBolt, reproducing the real BOLT's refusal
// and this implementation's extension past it (§IV-C).
//
// With a layout cache configured, the (binary, quantized-profile,
// options) fingerprint is consulted first: a hit reuses the cached
// layout — the expensive pipeline never runs — and concurrent misses on
// one key coalesce into a single BOLT run. The round's perf2bolt/bolt
// stage spans are emitted either way, carrying cache_hit so a trace
// shows which services paid for the layout and which reused it. Hits,
// coalesced lookups and the miss that filled the entry all return the
// cached result itself: one image per layout, shared by every controller
// that injects it and read-only to all of them (layout.Entry).
func (c *Controller) BuildOptimized(raw *perf.RawProfile) (*BuildStats, error) {
	input := c.inputBin()
	bo := c.boltOptions()
	if c.opts.LayoutCache == nil {
		res, stats, err := c.runBoltPipeline(input, raw, bo, "")
		if err != nil {
			return nil, err
		}
		stats.Result = res
		return stats, nil
	}

	key := layout.KeyFor(input, raw, bo)
	var stats *BuildStats
	entry, outcome, err := layout.Do(c.opts.LayoutCache, key, func() (*layout.Entry, error) {
		res, st, err := c.runBoltPipeline(input, raw, bo, key.String())
		if err != nil {
			return nil, err
		}
		stats = st
		return &layout.Entry{Result: res}, nil
	})
	// The lookup outcome is part of the wave's decision sequence: journal
	// it (and on replay, verify the re-executed wave reaches the same
	// decision) before acting on it.
	if rerr := c.opts.Replay.CacheEvent(key.String(), string(outcome)); rerr != nil {
		return nil, rerr
	}
	if err != nil {
		return nil, err
	}
	if stats == nil {
		// Hit or coalesced: this controller never ran the pipeline. Emit
		// the stage spans so every round's trace keeps the same shape,
		// marked as cache reuse.
		sp := c.startSpan("perf2bolt", trace.Bool("cache_hit", true))
		sp.End(nil)
		bsp := c.startSpan("bolt", trace.Bool("cache_hit", true),
			trace.String("cache_key", key.String()))
		bsp.SetAttrs(entry.Result.TraceAttrs()...)
		bsp.End(nil)
		stats = &BuildStats{CacheHit: true}
	}
	stats.LayoutKey = key.String()
	stats.Result = entry.Result
	return stats, nil
}

// runBoltPipeline is the uncached build: profile conversion plus the
// optimizer, bracketed by stage spans and latency metrics. It returns
// the result separately from the stats so the cache can store the one
// and the caller keep the other.
func (c *Controller) runBoltPipeline(input *obj.Binary, raw *perf.RawProfile, bo bolt.Options, cacheKey string) (*bolt.Result, *BuildStats, error) {
	sp := c.startSpan("perf2bolt")
	t0 := time.Now()
	prof, err := bolt.ConvertProfile(raw, input)
	if err != nil {
		sp.End(err)
		return nil, nil, err
	}
	sp.SetAttrs(prof.TraceAttrs()...)
	sp.End(nil)
	t1 := time.Now()
	attrs := []trace.Attr{}
	if cacheKey != "" {
		attrs = append(attrs, trace.Bool("cache_hit", false), trace.String("cache_key", cacheKey))
	}
	bsp := c.startSpan("bolt", attrs...)
	res, err := bolt.Optimize(input, prof, bo)
	if err != nil {
		bsp.End(err)
		return nil, nil, err
	}
	bsp.SetAttrs(res.TraceAttrs()...)
	bsp.End(nil)
	t2 := time.Now()
	c.observeStage("perf2bolt", t1.Sub(t0).Seconds())
	c.observeStage("bolt", t2.Sub(t1).Seconds())
	c.opts.Metrics.Counter("core_bolt_invocations_total").Inc()
	return res, &BuildStats{
		Perf2BoltSeconds: t1.Sub(t0).Seconds(),
		BoltSeconds:      t2.Sub(t1).Seconds(),
	}, nil
}

// RoundReport is the consolidated record of one optimization round
// (profile → build → replace), the unit Tables I/II and the fleet layer
// consume.
type RoundReport struct {
	Version      int           // code version now live (C_version)
	Build        *BuildStats   // background pipeline costs (Table II)
	Replace      *ReplaceStats // stop-the-world replacement stats (Table I)
	PauseSeconds float64       // simulated stop-the-world time of the round
	WallSeconds  float64       // host wall time of the whole round
}

// OptimizeRound performs a complete optimization round: profile for the
// given simulated duration, build the optimized binary against the
// running version, and replace the code of the running process
// (C_i → C_{i+1}). Per-stage host latencies, pause time, and byte counts
// are published to Options.Metrics when a registry is configured.
func (c *Controller) OptimizeRound(profileSeconds float64) (*RoundReport, error) {
	start := time.Now()
	c.StartRound(c.version + 1)
	raw := c.Profile(profileSeconds)
	build, err := c.BuildOptimized(raw)
	if err != nil {
		c.countError("build")
		c.EndRound(err)
		return nil, err
	}
	rs, err := c.Replace(build.Result.Binary)
	if err != nil {
		c.countError("replace")
		c.EndRound(err)
		return nil, err
	}
	c.EndRound(nil)
	if m := c.opts.Metrics; m != nil {
		m.Counter("core_rounds_total").Inc()
	}
	return &RoundReport{
		Version:      rs.Version,
		Build:        build,
		Replace:      rs,
		PauseSeconds: rs.PauseSeconds,
		WallSeconds:  time.Since(start).Seconds(),
	}, nil
}

// observeStage records one stage's host latency into the metrics
// registry, if any.
func (c *Controller) observeStage(stage string, seconds float64) {
	c.opts.Metrics.HistogramVec("core_stage_seconds", "stage").With(stage).Observe(seconds)
}

// countError bumps the per-stage error counter, if a registry is set.
func (c *Controller) countError(stage string) {
	c.opts.Metrics.CounterVec("core_errors_total", "stage").With(stage).Inc()
}
