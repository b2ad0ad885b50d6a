// The fault-sweep harness is the exhaustive robustness check for
// transactional code replacement: it counts every tracee operation a
// continuous-optimization scenario performs, then re-runs the scenario
// once per operation with that exact operation forced to fail, asserting
// after each injected fault that the rollback restored the target's
// memory, page residency, registers, and the controller's state
// bit-identically — and that the run still finishes with the
// never-optimized baseline's output. One sweep proves there is no point
// inside a replacement where a failure can leave the target torn
// (docs/robustness.md).

package diffcheck

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/obj"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/replay"
	"repro/internal/trace"
)

// ErrInjected is the sentinel failure the sweep's fault hook returns; it
// surfaces from ptrace operations wrapped, so errors.Is finds it.
var ErrInjected = errors.New("diffcheck: injected tracee fault")

// FaultScenario describes a continuous-optimization run to sweep: a
// binary (with an optional workload handler) that executes rounds of
// profile → build → replace at fixed instruction counts.
type FaultScenario struct {
	Name string
	Bin  *obj.Binary
	// NewHandler builds a fresh syscall handler per run (drivers are
	// stateful, and the sweep runs the scenario many times); nil for
	// self-contained programs that make no syscalls.
	NewHandler func() (proc.SyscallHandler, error)
	MaxInst    uint64 // run cap (0 = harness default)

	// SwitchAt are the retired-instruction counts at which optimization
	// rounds trigger; two or more entries make the scenario exercise
	// continuous optimization (stack-live copies, dead-version GC).
	SwitchAt []uint64
	// ProfileWindow is the simulated profiling duration per round.
	ProfileWindow float64

	// NoOSR disables on-stack replacement in the controller, forcing
	// every parked frame through copy-based migration (the ablation the
	// OSR benchmark compares against).
	NoOSR bool

	// MetaExtra is appended to a recorded run's session-meta event:
	// callers record whatever identifies how the scenario was built
	// (generator seed, workload target) so a shipped journal names its
	// own reconstruction recipe.
	MetaExtra trace.Attrs
}

// ScenarioFromTarget adapts a workload target into a sweepable scenario:
// the binary is built once, and every run gets a fresh capped driver so
// request streams replay identically.
func ScenarioFromTarget(t Target) (*FaultScenario, error) {
	w, err := t.Build()
	if err != nil {
		return nil, err
	}
	return &FaultScenario{
		Name: t.Name,
		Bin:  w.Binary,
		NewHandler: func() (proc.SyscallHandler, error) {
			d, err := w.NewDriver(t.Input, 1)
			if err != nil {
				return nil, err
			}
			if t.Requests > 0 {
				d.SetGenerator(CapRequests(d.Generator(), t.Requests))
			}
			return d, nil
		},
		MaxInst: t.MaxInst,
	}, nil
}

// SweepRun is the outcome of one scenario execution.
type SweepRun struct {
	Trace      *Trace
	Ops        int  // tracee operations begun across all rounds
	Committed  int  // rounds that committed
	RolledBack int  // rounds that failed and were rolled back
	FaultHit   bool // the injected fault index was reached

	// Tracer holds the run's spans and event journal; CheckJournal
	// cross-checks it against the sweep's own bookkeeping.
	Tracer *trace.Tracer
	// InjectedOp is the tracee-local operation index the fault fired at
	// (the hook's per-attach counter, which is what the controller's
	// rollback event records), -1 if no fault fired.
	InjectedOp int

	// OSRFramesMapped and OSRFallbacks total the controller's on-stack
	// replacement outcomes across every round of the run (committed and
	// rolled back alike report through ctl.Reports only on commit).
	OSRFramesMapped int
	OSRFallbacks    int

	// RollbackDiffs lists every way a rollback failed to restore the
	// pre-replace state exactly; empty on a correct transaction.
	RollbackDiffs []string

	// Session is the run's record/replay session (nil for a plain Run):
	// the recording of this run's nondeterminism, or the re-recording
	// produced while replaying a shipped journal.
	Session *replay.Session
}

// Baseline runs the scenario's program with no controller attached — the
// never-optimized reference every sweep run must match.
func (sc *FaultScenario) Baseline() (*Trace, error) {
	h, err := sc.handler()
	if err != nil {
		return nil, err
	}
	r := &runner{bin: sc.Bin, handler: h, maxInst: sc.MaxInst}
	return r.run(sc.Name + "/baseline")
}

func (sc *FaultScenario) handler() (proc.SyscallHandler, error) {
	if sc.NewHandler == nil {
		return nil, nil
	}
	return sc.NewHandler()
}

// Ops executes the scenario fault-free and returns the total tracee
// operation count — the sweep's index space. Every round must commit;
// a scenario whose rounds cannot land without faults is mis-sized.
func (sc *FaultScenario) Ops() (int, error) {
	sr, err := sc.Run(-1)
	if err != nil {
		return 0, err
	}
	if sr.Committed != len(sc.SwitchAt) {
		return 0, fmt.Errorf("diffcheck: scenario %s: %d/%d rounds committed fault-free (rolled back %d)",
			sc.Name, sr.Committed, len(sc.SwitchAt), sr.RolledBack)
	}
	return sr.Ops, nil
}

// Run executes the scenario with the faultAt-th tracee operation
// (counting across every round, attempts and verifier reads included)
// forced to fail; faultAt < 0 injects nothing. A faulted round is rolled
// back and the run continues — later rounds still fire, modeling a
// transient fault the fleet layer would absorb.
func (sc *FaultScenario) Run(faultAt int) (*SweepRun, error) {
	return sc.run(faultAt, nil)
}

// RunRecorded executes the scenario under a recording replay session:
// the returned run's Session holds the journal that replays this exact
// execution — fault decision, perf sample timing, and replace
// checkpoints included. Failing sweep tests dump it as their repro.
func (sc *FaultScenario) RunRecorded(faultAt int) (*SweepRun, error) {
	sess := replay.NewRecorder(0)
	if err := sess.Meta(sc.metaAttrs(faultAt)...); err != nil {
		return nil, err
	}
	return sc.run(faultAt, sess)
}

// ReplayJournal re-executes a recorded scenario run from its journal
// alone: the fault fires where the journal says it fired (no live fault
// hook runs), perf deadlines are journal-fed, and every recorded
// checkpoint is re-verified against the recomputed StateHash. The
// scenario must be built the same way as at record time; the meta event
// is cross-checked so drift surfaces as a divergence, not silence.
func (sc *FaultScenario) ReplayJournal(events []trace.Event) (*SweepRun, error) {
	meta, err := replay.MetaOf(events)
	if err != nil {
		return nil, err
	}
	faultAt, ok := meta.Int("fault_at")
	if !ok {
		return nil, fmt.Errorf("diffcheck: journal meta has no fault_at")
	}
	sess, err := replay.NewReplayer(events)
	if err != nil {
		return nil, err
	}
	if err := sess.Meta(sc.metaAttrs(int(faultAt))...); err != nil {
		return nil, err
	}
	sr, err := sc.run(int(faultAt), sess)
	if err != nil {
		return sr, err
	}
	if err := sess.Finish(); err != nil {
		return sr, err
	}
	// The live hook never ran: reconstruct the sweep bookkeeping from the
	// replayed fault decision itself.
	for _, e := range sess.Events() {
		if e.Type == trace.EvFaultDecision {
			sr.FaultHit = true
			if n, ok := e.Attrs.Int("op_index"); ok {
				sr.InjectedOp = int(n)
			}
		}
	}
	return sr, nil
}

// metaAttrs is the session-meta identity of one recorded run: enough to
// re-derive the scenario (with MetaExtra naming its build recipe) plus
// the fault index being swept.
func (sc *FaultScenario) metaAttrs(faultAt int) []trace.Attr {
	attrs := trace.Attrs{
		trace.String("kind", "faultsweep"),
		trace.String("scenario", sc.Name),
		trace.Int("fault_at", faultAt),
		trace.String("switch_at", fmt.Sprint(sc.SwitchAt)),
		trace.Float("profile_window", sc.ProfileWindow),
		trace.Int("max_inst", int(sc.MaxInst)),
	}
	if sc.NoOSR {
		// Only recorded when set, so journals from before the OSR stage
		// (and from default-configured runs) keep their meta shape.
		attrs = append(attrs, trace.Bool("no_osr", true))
	}
	return append(attrs, sc.MetaExtra...)
}

func (sc *FaultScenario) run(faultAt int, sess *replay.Session) (*SweepRun, error) {
	sr := &SweepRun{Tracer: trace.New(trace.Options{}), InjectedOp: -1, Session: sess}
	var ctl *core.Controller
	var attachErr error
	hook := func(op string, n int) error {
		i := sr.Ops
		sr.Ops++
		if faultAt >= 0 && i == faultAt {
			sr.FaultHit = true
			sr.InjectedOp = n
			return ErrInjected
		}
		return nil
	}

	round := func(p *proc.Process) (int, error) {
		if attachErr != nil {
			return 0, attachErr
		}
		raw := ctl.Profile(sc.ProfileWindow)
		build, err := ctl.BuildOptimized(raw)
		if err != nil {
			return 0, err
		}
		before := replaceFingerprint(p, ctl)
		if _, err := ctl.Replace(build.Result.Binary); err != nil {
			var rf *replay.RecordedFault
			if !errors.Is(err, ErrInjected) && !errors.As(err, &rf) {
				return 0, err // a real bug (or a replay divergence), not the injected fault
			}
			sr.RolledBack++
			sr.RollbackDiffs = append(sr.RollbackDiffs, before.diff(replaceFingerprint(p, ctl))...)
			return ctl.Version(), nil
		}
		sr.Committed++
		return ctl.Version(), nil
	}

	h, err := sc.handler()
	if err != nil {
		return sr, err
	}
	r := &runner{
		bin:     sc.Bin,
		handler: h,
		maxInst: sc.MaxInst,
		postLoad: func(p *proc.Process) {
			ctl, attachErr = core.New(p, sc.Bin, core.Options{
				Perf:          perf.RecorderOptions{PeriodCycles: 2000},
				Bolt:          bolt.Options{AllowReBolt: true},
				NoChargePause: true,
				NoOSR:         sc.NoOSR,
				FaultHook:     hook,
				Tracer:        sr.Tracer,
				Service:       sc.Name,
				Replay:        sess,
			})
		},
	}
	for _, at := range sc.SwitchAt {
		r.events = append(r.events, runEvent{at: at, fn: round})
	}
	// Error paths still return sr: a failing recorded run's journal is the
	// repro its test dumps, so the session must survive the failure.
	tr, err := r.run(fmt.Sprintf("%s/fault@%d", sc.Name, faultAt))
	if err != nil {
		return sr, err
	}
	sr.Trace = tr
	if ctl != nil {
		for _, rep := range ctl.Reports {
			sr.OSRFramesMapped += rep.OSRFramesMapped
			sr.OSRFallbacks += rep.OSRFallbacks
		}
	}
	return sr, nil
}

// CheckJournal cross-checks the run's event journal and span tree
// against the sweep's own bookkeeping, returning one string per
// discrepancy (empty when the observability layer told the truth). A
// faulted run must have journaled the injection, exactly one rollback
// whose op_index is the tracee operation the fault fired at, and a
// "replace" span closed with error status; a clean run must show none
// of those.
func (sr *SweepRun) CheckJournal() []string {
	var out []string
	j := sr.Tracer.Journal()
	faults := j.ByType(trace.EvFaultInjected)
	rollbacks := j.ByType(trace.EvRollback)
	errReplace := spansWithErr(sr.Tracer.Tree(""), "replace")

	if !sr.FaultHit {
		if len(faults) != 0 {
			out = append(out, fmt.Sprintf("clean run journaled %d fault_injected event(s)", len(faults)))
		}
		if len(rollbacks) != 0 {
			out = append(out, fmt.Sprintf("clean run journaled %d rollback event(s)", len(rollbacks)))
		}
		if len(errReplace) != 0 {
			out = append(out, fmt.Sprintf("clean run has %d error-status replace span(s)", len(errReplace)))
		}
		return out
	}

	if len(faults) != 1 {
		out = append(out, fmt.Sprintf("want 1 fault_injected event, journal has %d", len(faults)))
	} else if idx, ok := faults[0].Attrs.Int("op_index"); !ok || int(idx) != sr.InjectedOp {
		out = append(out, fmt.Sprintf("fault_injected op_index = %d (present %v), injected at %d", idx, ok, sr.InjectedOp))
	}
	if len(rollbacks) != sr.RolledBack {
		out = append(out, fmt.Sprintf("want %d rollback event(s), journal has %d", sr.RolledBack, len(rollbacks)))
	}
	for _, rb := range rollbacks {
		if idx, ok := rb.Attrs.Int("op_index"); !ok || int(idx) != sr.InjectedOp {
			out = append(out, fmt.Sprintf("rollback op_index = %d (present %v), fault injected at op %d", idx, ok, sr.InjectedOp))
		}
		if rb.Stage != "replace" {
			out = append(out, fmt.Sprintf("rollback event attributed to stage %q, want replace", rb.Stage))
		}
		if len(faults) == 1 && rb.Seq <= faults[0].Seq {
			out = append(out, fmt.Sprintf("rollback seq %d not after fault_injected seq %d", rb.Seq, faults[0].Seq))
		}
	}
	if len(errReplace) != sr.RolledBack {
		out = append(out, fmt.Sprintf("want %d error-status replace span(s), tree has %d", sr.RolledBack, len(errReplace)))
	}
	for _, n := range errReplace {
		if !errContains(n.Err, ErrInjected) {
			out = append(out, fmt.Sprintf("replace span error %q does not carry the injected fault", n.Err))
		}
	}
	return out
}

// spansWithErr walks a span tree collecting closed spans of the given
// name that ended with error status.
func spansWithErr(nodes []*trace.SpanNode, name string) []*trace.SpanNode {
	var out []*trace.SpanNode
	for _, n := range nodes {
		if n.Name == name && !n.Open && n.Err != "" {
			out = append(out, n)
		}
		out = append(out, spansWithErr(n.Children, name)...)
	}
	return out
}

func errContains(msg string, sentinel error) bool {
	return msg != "" && strings.Contains(msg, sentinel.Error())
}

// replaceFingerprint digests everything a rolled-back Replace must leave
// untouched: every mapped range and its contents, total page residency,
// every thread's registers, and the controller's own state hash.
type fingerprint struct {
	ranges   [][2]uint64
	memHash  uint64
	resident uint64
	regsHash uint64
	ctlHash  uint64
}

func replaceFingerprint(p *proc.Process, ctl *core.Controller) fingerprint {
	fp := fingerprint{
		ranges:   p.Mem.MappedRanges(),
		resident: p.Mem.ResidentBytes(),
		ctlHash:  ctl.StateHash(),
	}
	h := uint64(fnvOffset)
	buf := make([]byte, 64*1024)
	for _, r := range fp.ranges {
		h = fnvWord(h, r[0])
		h = fnvWord(h, r[1])
		for off := r[0]; off < r[1]; {
			n := uint64(len(buf))
			if off+n > r[1] {
				n = r[1] - off
			}
			p.Mem.Read(off, buf[:n])
			h = fnvBytes(h, buf[:n])
			off += n
		}
	}
	fp.memHash = h
	h = fnvOffset
	for _, t := range p.Threads {
		h = fnvWord(h, t.PC)
		for _, g := range t.Regs {
			h = fnvWord(h, g)
		}
		h = fnvWord(h, uint64(t.CmpVal))
	}
	fp.regsHash = h
	return fp
}

// diff lists how another fingerprint deviates from this (pre-replace)
// one.
func (fp fingerprint) diff(after fingerprint) []string {
	var out []string
	if len(fp.ranges) != len(after.ranges) {
		out = append(out, fmt.Sprintf("mapped ranges: %d before vs %d after rollback", len(fp.ranges), len(after.ranges)))
	} else {
		for i := range fp.ranges {
			if fp.ranges[i] != after.ranges[i] {
				out = append(out, fmt.Sprintf("mapped range %d: %#x before vs %#x after rollback", i, fp.ranges[i], after.ranges[i]))
				break
			}
		}
	}
	if fp.memHash != after.memHash {
		out = append(out, "memory contents differ after rollback")
	}
	if fp.resident != after.resident {
		out = append(out, fmt.Sprintf("resident bytes: %d before vs %d after rollback", fp.resident, after.resident))
	}
	if fp.regsHash != after.regsHash {
		out = append(out, "thread registers differ after rollback")
	}
	if fp.ctlHash != after.ctlHash {
		out = append(out, "controller state differs after rollback")
	}
	return out
}
