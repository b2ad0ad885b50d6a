// Package unwind walks the call stacks of a stopped process — the
// libunwind analog OCOLOS uses to find return addresses and the set of
// stack-live functions (§IV-C1).
//
// The ABI guarantees a frame-pointer chain: ENTER pushes the caller's FP
// and points FP at the saved slot, so [FP] is the saved FP and [FP+8] the
// return address. A zero FP terminates the chain (thread entry).
package unwind

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/ptrace"
)

// ErrTruncated reports a walk that hit the maxFrames bound: the returned
// frames are valid but the chain continues past them. A caller computing a
// stack-live set MUST NOT treat the partial list as complete.
var ErrTruncated = errors.New("unwind: stack deeper than frame bound")

// ErrCorrupt reports a frame-pointer chain that stopped growing upward:
// the returned frames up to the corruption are valid, everything beyond is
// unknowable.
var ErrCorrupt = errors.New("unwind: frame-pointer chain corrupt")

// Frame is one stack frame.
type Frame struct {
	PC      uint64 // instruction address: thread PC for frame 0, return address otherwise
	RetSlot uint64 // memory address holding the return address (0 for frame 0)
	FP      uint64 // frame pointer value for this frame
}

// Walker is the read-only debugger surface the unwinder needs. Both
// *ptrace.Tracee and *ptrace.Txn (the journaled transaction view used
// during code replacement) satisfy it.
type Walker interface {
	GetRegs(tid int) (ptrace.Regs, error)
	PeekData(addr uint64) (uint64, error)
	Threads() int
}

// maxFrames bounds runaway walks over corrupted stacks.
const maxFrames = 4096

// Stack unwinds thread tid of the stopped tracee. The first frame is the
// thread's current PC; subsequent frames carry return addresses and the
// stack slots they were read from (so a code-replacement pass can rewrite
// them).
//
// A walk that cannot reach the outermost frame returns the frames it
// found alongside a typed error — ErrTruncated when the chain exceeds the
// frame bound, ErrCorrupt when a saved FP stops growing upward. Callers
// that only inspect individual frames may accept the partial list;
// callers deriving a complete stack-live set must treat either error as
// fatal, because unseen frames can keep unseen functions live.
func Stack(t Walker, tid int) ([]Frame, error) {
	regs, err := t.GetRegs(tid)
	if err != nil {
		return nil, err
	}
	frames := []Frame{{PC: regs.PC, FP: regs.GPR[isa.FP]}}
	fp := regs.GPR[isa.FP]
	for fp != 0 {
		if len(frames) > maxFrames {
			return frames, fmt.Errorf("unwind: thread %d: %d frames: %w", tid, len(frames), ErrTruncated)
		}
		savedFP, err := t.PeekData(fp)
		if err != nil {
			return nil, err
		}
		if savedFP == 0 {
			// Outermost frame: its ENTER pushed the thread's initial zero
			// FP and no caller ever pushed a return address — the slot
			// above it is off the top of the stack, which the hardened
			// tracee refuses to read.
			break
		}
		retSlot := fp + 8
		ra, err := t.PeekData(retSlot)
		if err != nil {
			return nil, err
		}
		if ra == 0 {
			break
		}
		frames = append(frames, Frame{PC: ra, RetSlot: retSlot, FP: savedFP})
		if savedFP <= fp {
			// The chain must grow upward; a non-monotonic saved FP means
			// the stack bytes are not a well-formed chain.
			return frames, fmt.Errorf("unwind: thread %d: saved FP %#x <= FP %#x: %w", tid, savedFP, fp, ErrCorrupt)
		}
		fp = savedFP
	}
	return frames, nil
}

// AllStacks unwinds every thread. On a truncated or corrupt walk the
// partial stacks collected so far (including the failing thread's) are
// returned with the error.
func AllStacks(t Walker) ([][]Frame, error) {
	out := make([][]Frame, t.Threads())
	for tid := 0; tid < t.Threads(); tid++ {
		frames, err := Stack(t, tid)
		out[tid] = frames
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
