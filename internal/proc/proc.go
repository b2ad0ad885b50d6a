// Package proc implements the simulated process: an address space loaded
// from an obj.Binary, threads with in-memory stacks, an interpreter for
// the ISA that reports timing events to per-thread cpu.Cores, a
// round-robin scheduler, and the syscall surface workloads use to receive
// requests and publish results.
//
// The process also exposes the two hook points OCOLOS relies on:
//
//   - SetFuncPtrHook installs the wrapFuncPtrCreation analog (§IV-C2):
//     every FPTR instruction's result value passes through the hook.
//   - The debugger facade used by internal/ptrace: Pause/Resume, direct
//     memory access, and register access.
package proc

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obj"
)

// Memory layout constants for loader-managed regions. The heap sits
// clear of the regions internal/core maps for optimized code: a ring of 16
// version slots, each a text and jump-table region at
// 0x2000_0000 + slot·0x1000_0000 and a stack-live copies area at
// 0x1000_0000_0000 + (slot+1)·0x10_0000_0000, all far below the thread
// stacks under StackTop.
const (
	HeapBase  = 0x0800_0000_0000
	StackTop  = 0x7000_0000_0000
	StackSize = 1 << 20 // per thread
	StackGap  = 1 << 21 // distance between thread stacks
)

// SyscallHandler services SYS instructions. It may read and write the
// calling thread's registers and the process memory. Returning an error
// faults the thread.
type SyscallHandler interface {
	Syscall(p *Process, t *Thread, num int64) error
}

// SyscallFunc adapts a function to the SyscallHandler interface.
type SyscallFunc func(p *Process, t *Thread, num int64) error

// Syscall implements SyscallHandler.
func (f SyscallFunc) Syscall(p *Process, t *Thread, num int64) error { return f(p, t, num) }

// Options configures process creation.
type Options struct {
	Threads int         // number of threads (each gets its own core)
	Config  *cpu.Config // nil = cpu.DefaultConfig()
	Handler SyscallHandler

	// DBI emulates running under a dynamic binary instrumentation
	// framework (Pin/DynamoRIO, §I): translated code runs near-natively,
	// but every direct control transfer pays a small chaining cost and
	// every indirect transfer (indirect call, return, jump table) pays a
	// code-cache lookup. OCOLOS's whole point is avoiding this recurring
	// cost; the "dbi" experiment quantifies the difference.
	DBI bool

	// SchedQuantum, when set, overrides the fixed scheduler quantum per
	// pick: it receives the thread ID and the proposed quantum (the
	// Quantum constant) and returns the instruction budget to run. The
	// default nil keeps the deterministic round-robin; chaos tests and
	// the record/replay layer inject perturbed or journal-fed sources.
	SchedQuantum func(tid, proposed int) int

	// DisableSuperblocks tells the trace engine (trace.go) never to
	// splice: every trace stays one basic block. Timing is identical
	// either way (the engine is cycle-exact); the switch exists for
	// measuring what splicing is worth and for bisecting engine bugs.
	DisableSuperblocks bool
}

// Fixed costs (cycles) charged outside the core model, by Step and the
// trace engine alike.
const (
	// syscallCost is the kernel entry/exit overhead of one SYS.
	syscallCost = 150
	// funcPtrHookCost is charged per FPTR while a hook is installed — the
	// run-time cost of the wrapFuncPtrCreation instrumentation.
	funcPtrHookCost = 12
	// DBI cost model, roughly Pin-like: direct branches are chained after
	// warmup, indirect transfers hash into the code cache every time.
	dbiDirectCost   = 1.5
	dbiIndirectCost = 25
)

func (o *Options) defaults() {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.Config == nil {
		o.Config = cpu.DefaultConfig()
	}
}

// Process is a running simulated process.
type Process struct {
	Bin     *obj.Binary
	Mem     *mem.AddressSpace
	Threads []*Thread
	Shared  *cpu.Shared
	Cfg     *cpu.Config

	opts    Options
	handler SyscallHandler

	fptrHook func(uint64) uint64

	heapCursor uint64
	paused     bool
	fault      error

	// regions are address windows mapped into the target by the debugger
	// agent (the mmap analog OCOLOS's LD_PRELOAD library uses to create
	// each code version's home). Together with the binary image, heap, and
	// thread stacks they define which addresses the ptrace layer will
	// touch; everything else is reported as unmapped.
	regions []Region

	// Trace cache (trace.go; see docs/perf.md), the only decoded form of
	// guest code: Step decodes straight from memory. traces maps a start
	// PC to its one-block trace; tracePg indexes every trace, one-block or
	// spliced, by each code page it was decoded from — spliced traces
	// span pages, so one store can invalidate a trace registered on
	// several. A page is armed as a code page in Mem exactly while its
	// tracePg list is non-empty, so only a store into one of those pages
	// (or its unmapping) reaches dropTraces; no other store calls out.
	traces  map[uint64]*trace
	tracePg map[uint64][]*trace

	spliceEnabled bool
	decoded       uint64 // one-block traces decoded
	superFormed   uint64
	superInval    uint64
	superInsts    uint64

	// sampleHooks run after every scheduler quantum with the thread that
	// just ran (AddSampleHook); internal/perf polls LBR sample deadlines
	// from one.
	sampleHooks []*sampleHook
}

type sampleHook struct{ fn func(t *Thread) }

// Load creates a process from a binary: its address space maps the
// binary's page image copy-on-write (obj.Binary.Image), and threads are
// created halted at the entry function with their thread index in R0.
func Load(bin *obj.Binary, opts Options) (*Process, error) {
	opts.defaults()
	if bin.Entry == 0 {
		return nil, fmt.Errorf("proc: binary %s has no entry point", bin.Name)
	}
	p := &Process{
		Bin:        bin,
		Mem:        bin.Image().Map(),
		Shared:     cpu.NewShared(opts.Config),
		Cfg:        opts.Config,
		opts:       opts,
		handler:    opts.Handler,
		heapCursor: HeapBase,
		traces:     make(map[uint64]*trace),
		tracePg:    make(map[uint64][]*trace),

		spliceEnabled: !opts.DisableSuperblocks,
	}
	p.Mem.SetCodeWatch(p.dropTraces)

	for i := 0; i < opts.Threads; i++ {
		p.StartThread(bin.Entry)
	}
	return p, nil
}

// StartThread creates a new runnable thread at pc with its own core and
// stack and the thread index in R0, appends it to p.Threads, and returns
// it. The scheduler picks it up on its next pass; perf recorders attached
// earlier arm it lazily at its first quantum.
func (p *Process) StartThread(pc uint64) *Thread {
	id := len(p.Threads)
	stackHi := uint64(StackTop - id*StackGap)
	t := &Thread{
		ID:      id,
		PC:      pc,
		Core:    cpu.NewCore(id, p.Cfg, p.Shared),
		StackHi: stackHi,
		StackLo: stackHi - StackSize,
		proc:    p,
	}
	t.Regs[isa.SP] = stackHi
	t.Regs[isa.R0] = uint64(id)
	p.Threads = append(p.Threads, t)
	return t
}

// dropTraces invalidates every trace decoded from the given page: it is
// Mem's code watch, called on the first store into the page since it was
// armed (indexTrace) and when the page is unmapped. Traces are marked
// invalid (the executor checks the flag after every op that
// can store, so a trace invalidated by its own store stops immediately)
// and one-block traces are unregistered so the next lookup re-decodes
// from current bytes. A spliced trace may still sit, now invalid, in
// other pages' lists; it is skipped on later drops and its head's hot
// pointer is cleared lazily at dispatch.
func (p *Process) dropTraces(pg uint64) {
	for _, tr := range p.tracePg[pg] {
		if !tr.valid {
			continue
		}
		tr.valid = false
		if tr.spliced {
			p.superInval++
		} else {
			delete(p.traces, tr.start)
		}
	}
	delete(p.tracePg, pg)
}

// Region is one agent-mapped address window.
type Region struct {
	Addr, Size uint64
}

// End returns the exclusive end of the region.
func (r Region) End() uint64 { return r.Addr + r.Size }

// MapRegion registers [addr, addr+size) as a valid target window (the
// agent's mmap). Pages are still allocated lazily on first write.
func (p *Process) MapRegion(addr, size uint64) {
	if size == 0 {
		return
	}
	p.regions = append(p.regions, Region{Addr: addr, Size: size})
}

// UnmapRegion removes every registered region fully contained in
// [addr, addr+size) and returns the removed set (the agent's munmap; the
// transaction journal re-registers them on rollback). Page contents are
// not touched — callers release memory through Mem.Unmap.
func (p *Process) UnmapRegion(addr, size uint64) []Region {
	end := addr + size
	var removed []Region
	kept := p.regions[:0]
	for _, r := range p.regions {
		if r.Addr >= addr && r.End() <= end {
			removed = append(removed, r)
		} else {
			kept = append(kept, r)
		}
	}
	p.regions = kept
	return removed
}

// Regions returns the agent-mapped windows in registration order.
func (p *Process) Regions() []Region { return append([]Region(nil), p.regions...) }

// RangeMapped reports whether every byte of [addr, addr+n) falls inside
// the target's mapped image: a binary section, the heap, a thread stack,
// or an agent-mapped region. The ptrace layer refuses to read or write
// through anything else, making the debugger a real error boundary.
func (p *Process) RangeMapped(addr, n uint64) bool {
	if n == 0 {
		return true
	}
	end := addr + n
	if end < addr {
		return false // wrapped
	}
	for addr < end {
		next, ok := p.coveredUntil(addr)
		if !ok {
			return false
		}
		addr = next
	}
	return true
}

// coveredUntil returns the exclusive end of a mapped interval containing
// addr, or ok=false when addr is unmapped.
func (p *Process) coveredUntil(addr uint64) (uint64, bool) {
	for _, s := range p.Bin.Sections {
		if addr >= s.Addr && addr < s.End() {
			return s.End(), true
		}
	}
	if addr >= HeapBase && addr < p.heapCursor {
		return p.heapCursor, true
	}
	for _, t := range p.Threads {
		if addr >= t.StackLo && addr < t.StackHi {
			return t.StackHi, true
		}
	}
	for _, r := range p.regions {
		if addr >= r.Addr && addr < r.End() {
			return r.End(), true
		}
	}
	return 0, false
}

// SetFuncPtrHook installs (or clears, with nil) the function-pointer
// creation hook. While installed, every FPTR result is translated by fn
// and each creation site pays funcPtrHookCost cycles.
func (p *Process) SetFuncPtrHook(fn func(uint64) uint64) { p.fptrHook = fn }

// Alloc bump-allocates n bytes of heap, 16-byte aligned.
func (p *Process) Alloc(n uint64) uint64 {
	addr := (p.heapCursor + 15) &^ 15
	p.heapCursor = addr + n
	return addr
}

// Pause stops the scheduler (ptrace attach). Running Run* calls return at
// the next quantum boundary, leaving all threads at instruction
// boundaries.
func (p *Process) Pause() { p.paused = true }

// Resume clears the pause flag.
func (p *Process) Resume() { p.paused = false }

// Paused reports whether the process is stopped.
func (p *Process) Paused() bool { return p.paused }

// Fault returns the first thread fault, if any.
func (p *Process) Fault() error { return p.fault }

// Halted reports whether every thread has halted.
func (p *Process) Halted() bool {
	for _, t := range p.Threads {
		if !t.Halted {
			return false
		}
	}
	return true
}

// Stats aggregates counters across all threads' cores.
func (p *Process) Stats() cpu.Stats {
	var s cpu.Stats
	for _, t := range p.Threads {
		s.Add(t.Core.StatsSnapshot())
	}
	return s
}

// AddSampleHook registers fn to run after every scheduler quantum and
// returns a function that removes exactly this registration — safe no
// matter what hooks were added or removed in between.
func (p *Process) AddSampleHook(fn func(t *Thread)) (remove func()) {
	h := &sampleHook{fn: fn}
	p.sampleHooks = append(p.sampleHooks, h)
	return func() {
		for i, e := range p.sampleHooks {
			if e == h {
				// Copy-on-write splice: a hook removing itself while
				// sample() iterates must not disturb the live slice.
				p.sampleHooks = append(p.sampleHooks[:i:i], p.sampleHooks[i+1:]...)
				return
			}
		}
	}
}

// sample dispatches the end-of-quantum hooks in registration order.
func (p *Process) sample(t *Thread) {
	for _, h := range p.sampleHooks {
		h.fn(t)
	}
}

// Seconds returns the elapsed simulated time: the maximum across cores
// (cores advance in near-lockstep under the round-robin scheduler).
func (p *Process) Seconds() float64 {
	var max float64
	for _, t := range p.Threads {
		if s := t.Core.Seconds(); s > max {
			max = s
		}
	}
	return max
}

// MaxRSS returns the peak resident set size of the address space.
func (p *Process) MaxRSS() uint64 { return p.Mem.MaxResidentBytes() }
