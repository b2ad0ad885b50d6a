// Package diffcheck is the differential layout-equivalence harness: the
// executable form of OCOLOS's central safety claim that code layout
// optimization never changes program semantics (§III; BOLT makes the
// same guarantee offline). In the spirit of record-and-replay checking
// (rr, O'Callahan et al. 2017), it runs the same workload twice — once
// with the compiler-default layout and once with a BOLT-reordered layout,
// or with a mid-run OCOLOS code replacement — and diffs everything a
// layout change must not perturb:
//
//   - the syscall stream (request/response order and values) and the
//     checksums the guest publishes via SysEmit,
//   - final memory of every global past the v-table area (v-table slots
//     legitimately move to the optimized entries),
//   - per-function retired-instruction "work" counts, excluding only the
//     instructions a layout pass may add or remove (NOP padding eliminated
//     by the peephole, JMPs dropped or added by block reordering —
//     conditional branches, calls and returns must retire identically),
//   - halt/fault state and completed-request counts.
//
// Runs are single-threaded: the round-robin scheduler interleaves threads
// by instruction count, so multi-threaded final states are layout-
// dependent by construction and carry no equivalence signal.
package diffcheck

import (
	"fmt"
	"sort"

	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/workloads/wl"
)

// Trace is the observable footprint of one run.
type Trace struct {
	Name    string
	Insts   uint64  // total retired instructions (informational, not compared)
	Seconds float64 // simulated seconds (informational)

	// Work counts retired instructions per function, excluding NOP and
	// JMP (the only opcodes BOLT may legitimately add or delete). Nil
	// when attribution was skipped (mid-run replacement executes code
	// regions the original binary cannot name).
	Work map[string]uint64

	GlobalsHash  uint64 // FNV-1a over every global's final bytes
	GlobalsBytes uint64 // size of the hashed region

	Emitted     []uint64 // SysEmit checksums, in order
	Completed   uint64   // requests finished
	Syscalls    uint64   // total syscalls
	SyscallHash uint64   // order-sensitive digest of the syscall stream

	Halted  bool
	Fault   error
	Version int // optimized-code version at exit (0 for static runs)
}

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// recorder wraps the workload driver and digests the semantically
// meaningful part of the syscall stream: the request values handed to the
// guest (SysRecv results) and the values the guest hands back (SysSend
// responses, SysEmit checksums). SysNow results and SysAlloc addresses
// are deliberately not digested — time is layout-dependent by design.
type recorder struct {
	inner proc.SyscallHandler
	hash  uint64
	count uint64
}

func newRecorder(inner proc.SyscallHandler) *recorder {
	return &recorder{inner: inner, hash: fnvOffset}
}

// Syscall implements proc.SyscallHandler.
func (r *recorder) Syscall(p *proc.Process, t *proc.Thread, num int64) error {
	r.count++
	r.hash = fnvWord(r.hash, uint64(num))
	switch num {
	case proc.SysSend, proc.SysEmit:
		r.hash = fnvWord(r.hash, t.Regs[0])
	}
	var err error
	if r.inner != nil {
		err = r.inner.Syscall(p, t, num)
	} else {
		err = fmt.Errorf("diffcheck: syscall %d from a handler-less program", num)
	}
	if num == proc.SysRecv {
		for i := 0; i < 4; i++ {
			r.hash = fnvWord(r.hash, t.Regs[i])
		}
	}
	return err
}

// CapRequests wraps a generator so each thread serves at most n requests
// and then reports NoMoreWork, turning an open-ended server workload into
// a finite, deterministic run.
func CapRequests(gen wl.Generator, n uint64) wl.Generator {
	return func(tid int, seq uint64) wl.Request {
		if seq >= n {
			return wl.Request{Op: wl.NoMoreWork}
		}
		return gen(tid, seq)
	}
}

// countsWork reports whether an opcode must retire the same number of
// times under every layout. NOPs are deleted by the peephole pass; JMPs
// are added and removed as block reordering changes which successor falls
// through. Everything else — including JCC (reordering may invert the
// condition but the branch still retires) — is layout-invariant.
func countsWork(op isa.Op) bool { return op != isa.NOP && op != isa.JMP }

// maxInstFactor bounds a checked run relative to the caller's budget so a
// corrupted binary that spins forever is reported instead of hanging.
const defaultMaxInst = 200_000_000

// runEvent is one scheduled mid-run intervention: fn fires once when at
// instructions have retired and returns the optimized-code version live
// afterwards. The fault-sweep harness schedules several (one per
// continuous-optimization round); Midrun schedules one.
type runEvent struct {
	at uint64
	fn func(p *proc.Process) (int, error)
}

// runner executes one single-threaded run and collects its Trace.
type runner struct {
	bin       *obj.Binary
	handler   proc.SyscallHandler
	attribute bool
	maxInst   uint64

	// postLoad runs after the process is created, before execution; the
	// negative tests use it to model a botched pointer patch.
	postLoad func(p *proc.Process)
	// events are mid-run interventions, fired in order of their trigger
	// instruction counts.
	events []runEvent
}

func (r *runner) run(name string) (*Trace, error) {
	rec := newRecorder(r.handler)
	p, err := proc.Load(r.bin, proc.Options{Threads: 1, Handler: rec})
	if err != nil {
		return nil, err
	}
	if r.postLoad != nil {
		r.postLoad(p)
	}
	maxInst := r.maxInst
	if maxInst == 0 {
		maxInst = defaultMaxInst
	}
	pending := append([]runEvent(nil), r.events...)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })

	tr := &Trace{Name: name}
	if r.attribute {
		tr.Work = make(map[string]uint64)
	}
	t := p.Threads[0]
	for !t.Halted && tr.Insts < maxInst {
		for len(pending) > 0 && tr.Insts >= pending[0].at {
			ev := pending[0]
			pending = pending[1:]
			v, err := ev.fn(p)
			if err != nil {
				return nil, fmt.Errorf("diffcheck: mid-run replacement: %w", err)
			}
			tr.Version = v
		}
		if t.Halted { // an event advanced the process to completion
			break
		}
		if r.attribute {
			in, err := isa.Decode(p.Mem.CodeSlice(t.PC))
			if err == nil && countsWork(in.Op) {
				f, _, _ := r.bin.Lookup(t.PC)
				name := "<unmapped>"
				if f != nil {
					name = f.Name
				}
				tr.Work[name]++
			}
		}
		if !p.Step(t) {
			break
		}
		tr.Insts++
	}
	tr.Seconds = p.Seconds()
	tr.Halted = p.Halted()
	tr.Fault = p.Fault()
	tr.GlobalsHash, tr.GlobalsBytes = globalsHash(p)
	if d, ok := r.handler.(*wl.Driver); ok {
		tr.Completed = d.Completed()
		tr.Emitted = append([]uint64(nil), d.Emitted()...)
	}
	tr.Syscalls = rec.count
	tr.SyscallHash = rec.hash
	return tr, nil
}

// globalsHash digests the final bytes of the .data section past the
// v-table area. V-tables are laid out first at the data base and their
// slots are the one part of data a layout optimizer may rewrite (to the
// optimized entry points), so they are excluded; every byte after them
// must be layout-invariant.
func globalsHash(p *proc.Process) (uint64, uint64) {
	data := p.Bin.Section(obj.SecData)
	if data == nil {
		return 0, 0
	}
	start := data.Addr
	for _, vt := range p.Bin.VTables {
		if end := vt.Addr + 8*uint64(len(vt.Slots)); end > start {
			start = end
		}
	}
	if start >= data.End() {
		return 0, 0
	}
	n := data.End() - start
	h := uint64(fnvOffset)
	buf := make([]byte, 64*1024)
	for off := uint64(0); off < n; {
		chunk := uint64(len(buf))
		if off+chunk > n {
			chunk = n - off
		}
		p.Mem.Read(start+off, buf[:chunk])
		h = fnvBytes(h, buf[:chunk])
		off += chunk
	}
	return h, n
}

// Compare returns a list of human-readable divergences between two
// traces, nil when the runs are architecturally equivalent.
func Compare(a, b *Trace) []string {
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if a.Halted != b.Halted {
		add("halted: %s=%v vs %s=%v", a.Name, a.Halted, b.Name, b.Halted)
	}
	if (a.Fault == nil) != (b.Fault == nil) {
		add("fault: %s=%v vs %s=%v", a.Name, a.Fault, b.Name, b.Fault)
	}
	if a.Completed != b.Completed {
		add("completed requests: %s=%d vs %s=%d", a.Name, a.Completed, b.Name, b.Completed)
	}
	if a.Syscalls != b.Syscalls {
		add("syscall count: %s=%d vs %s=%d", a.Name, a.Syscalls, b.Name, b.Syscalls)
	}
	if a.SyscallHash != b.SyscallHash {
		add("syscall stream digest: %s=%#x vs %s=%#x", a.Name, a.SyscallHash, b.Name, b.SyscallHash)
	}
	if len(a.Emitted) != len(b.Emitted) {
		add("emitted checksums: %s has %d vs %s has %d", a.Name, len(a.Emitted), b.Name, len(b.Emitted))
	} else {
		for i := range a.Emitted {
			if a.Emitted[i] != b.Emitted[i] {
				add("emitted[%d]: %s=%#x vs %s=%#x", i, a.Name, a.Emitted[i], b.Name, b.Emitted[i])
				break
			}
		}
	}
	if a.GlobalsBytes != b.GlobalsBytes {
		add("globals region size: %s=%d vs %s=%d", a.Name, a.GlobalsBytes, b.Name, b.GlobalsBytes)
	} else if a.GlobalsHash != b.GlobalsHash {
		add("final globals diverge (hash %#x vs %#x)", a.GlobalsHash, b.GlobalsHash)
	}
	if a.Work != nil && b.Work != nil {
		names := make(map[string]bool, len(a.Work))
		for n := range a.Work {
			names[n] = true
		}
		for n := range b.Work {
			names[n] = true
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			if a.Work[n] != b.Work[n] {
				add("work count for %s: %s=%d vs %s=%d", n, a.Name, a.Work[n], b.Name, b.Work[n])
			}
		}
	}
	return diffs
}

// Hooks lets tests sabotage a run: MutateBinary corrupts the binary
// before it is loaded (a bad relocation), PostLoad corrupts the live
// process before it runs (a botched pointer patch).
type Hooks struct {
	MutateBinary func(bin *obj.Binary) error
	PostLoad     func(p *proc.Process)
}

// Baseline runs the target with the compiler-default layout.
func Baseline(t Target) (*Trace, error) { return runStatic(t, false, Hooks{}) }

// Bolted profiles the target, builds the BOLT-reordered binary offline,
// and runs that layout from the start.
func Bolted(t Target) (*Trace, error) { return runStatic(t, true, Hooks{}) }

func runStatic(t Target, bolted bool, hooks Hooks) (*Trace, error) {
	w, d, err := t.load()
	if err != nil {
		return nil, err
	}
	bin := w.Binary
	name := t.Name + "/baseline"
	if bolted {
		if bin, err = BoltBinary(t); err != nil {
			return nil, err
		}
		name = t.Name + "/bolted"
	}
	if hooks.MutateBinary != nil {
		if err := hooks.MutateBinary(bin); err != nil {
			return nil, err
		}
	}
	r := &runner{bin: bin, handler: d, attribute: true, maxInst: t.maxInst()}
	if hooks.PostLoad != nil {
		r.postLoad = hooks.PostLoad
	}
	return r.run(name)
}

// BoltBinary produces the offline-optimized layout for a target: it runs
// a throwaway profiling process on the uncapped request stream, converts
// the LBR samples, and re-links with BOLT defaults.
func BoltBinary(t Target) (*obj.Binary, error) {
	w, err := t.Build()
	if err != nil {
		return nil, err
	}
	d, err := w.NewDriver(t.Input, 1)
	if err != nil {
		return nil, err
	}
	p, err := proc.Load(w.Binary, proc.Options{Threads: 1, Handler: d})
	if err != nil {
		return nil, err
	}
	raw := perf.Record(p, profileSeconds, perf.RecorderOptions{PeriodCycles: 2000})
	if err := p.Fault(); err != nil {
		return nil, fmt.Errorf("diffcheck: profiling run faulted: %w", err)
	}
	prof, err := bolt.ConvertProfile(raw, w.Binary)
	if err != nil {
		return nil, err
	}
	res, err := bolt.Optimize(w.Binary, prof, bolt.Options{})
	if err != nil {
		return nil, err
	}
	return res.Binary, nil
}

// profileSeconds is the simulated profiling window for the offline
// BoltBinary pass, which samples an uncapped request stream (matches the
// windows internal/core's own tests use).
const profileSeconds = 0.0005

// Midrun runs the target with the OCOLOS controller attached and triggers
// one full optimization round (profile → BOLT → stop-the-world code
// replacement via internal/core) after switchAt retired instructions,
// profiling for profileWindow simulated seconds (size it well below the
// run's remaining duration or the stream drains before replacement).
// Per-function attribution is skipped: after replacement the process
// executes C1 code the original binary cannot name. The returned trace
// must still match the baseline on every other axis.
func Midrun(t Target, switchAt uint64, profileWindow float64) (*Trace, error) {
	w, d, err := t.load()
	if err != nil {
		return nil, err
	}
	var ctrl *core.Controller
	var attachErr error
	r := &runner{
		bin:     w.Binary,
		handler: d,
		maxInst: t.maxInst(),
		postLoad: func(p *proc.Process) {
			ctrl, attachErr = core.New(p, w.Binary, core.Options{
				Perf:          perf.RecorderOptions{PeriodCycles: 2000},
				NoChargePause: true,
			})
		},
		events: []runEvent{{at: switchAt, fn: func(p *proc.Process) (int, error) {
			if attachErr != nil {
				return 0, attachErr
			}
			if _, err := ctrl.OptimizeRound(profileWindow); err != nil {
				return 0, err
			}
			return ctrl.Version(), nil
		}}},
	}
	return r.run(t.Name + "/midrun")
}

// Check is the one-call equivalence oracle for a target: baseline vs
// offline-BOLTed, then baseline vs mid-run replacement. It returns the
// divergence list (nil means the layouts are equivalent).
func Check(t Target) ([]string, error) {
	base, err := Baseline(t)
	if err != nil {
		return nil, err
	}
	if !base.Halted || base.Fault != nil {
		return nil, fmt.Errorf("diffcheck: baseline run bad: halted=%v fault=%v", base.Halted, base.Fault)
	}
	bolted, err := Bolted(t)
	if err != nil {
		return nil, err
	}
	diffs := Compare(base, bolted)
	mid, err := Midrun(t, base.Insts/3, base.Seconds/8)
	if err != nil {
		return nil, err
	}
	if mid.Version == 0 {
		diffs = append(diffs, "mid-run replacement never happened (version still 0)")
	}
	diffs = append(diffs, Compare(base, mid)...)
	return diffs, nil
}
