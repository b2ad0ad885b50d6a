package unwind

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/ptrace"
)

// deepWalker fabricates a well-formed frame-pointer chain that grows
// upward forever: [fp] = fp+16 and [fp+8] a non-zero return address.
type deepWalker struct{ base uint64 }

func (w deepWalker) GetRegs(tid int) (ptrace.Regs, error) {
	var r ptrace.Regs
	r.PC = 0x1000
	r.GPR[isa.FP] = w.base
	return r, nil
}

func (w deepWalker) PeekData(addr uint64) (uint64, error) {
	if (addr-w.base)%16 == 8 {
		return 0x2000, nil // return-address slot
	}
	return addr + 16, nil // saved FP, endless upward chain
}

func (w deepWalker) Threads() int { return 1 }

func TestStackTruncationReturnsTypedError(t *testing.T) {
	w := deepWalker{base: 0x1_0000}
	frames, err := Stack(w, 0)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("endless chain: err = %v, want ErrTruncated", err)
	}
	if len(frames) != maxFrames+1 {
		t.Fatalf("got %d partial frames, want %d", len(frames), maxFrames+1)
	}
	for i, fr := range frames[1:] {
		if fr.PC != 0x2000 || fr.RetSlot == 0 {
			t.Fatalf("partial frame %d malformed: %+v", i+1, fr)
		}
	}

	// AllStacks must propagate the error and still hand back the partial
	// stacks for diagnostics.
	stacks, err := AllStacks(w)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("AllStacks err = %v, want ErrTruncated", err)
	}
	if len(stacks) != 1 || len(stacks[0]) != maxFrames+1 {
		t.Fatal("AllStacks dropped the partial frames")
	}
}

func TestStackCorruptChainReturnsTypedError(t *testing.T) {
	pr, _ := nestedProgram(t)
	pr.RunUntilHalt(50000) // park inside fc's spin loop
	if pr.Halted() {
		t.Fatal("program finished before pause")
	}
	tr := ptrace.Attach(pr)
	defer tr.Detach()

	clean, err := Stack(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) != 4 {
		t.Fatalf("baseline walk found %d frames, want 4", len(clean))
	}

	// Clobber fc's saved-FP slot with its own FP: non-zero, but the chain
	// no longer grows upward.
	if err := tr.PokeData(clean[0].FP, clean[0].FP); err != nil {
		t.Fatal(err)
	}
	frames, err := Stack(tr, 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt chain: err = %v, want ErrCorrupt", err)
	}
	// The valid prefix is still returned: fc's frame plus the frame read
	// through the (intact) return-address slot.
	if len(frames) != 2 {
		t.Fatalf("got %d partial frames, want 2: %+v", len(frames), frames)
	}
	if f, _, _ := pr.Bin.Lookup(frames[1].PC); f == nil || f.Name != "fb" {
		t.Errorf("partial frame 1 not in fb: %+v", frames[1])
	}

	// A stack-live set computed from a corrupt walk would be incomplete;
	// AllStacks must refuse rather than silently under-report.
	if _, err := AllStacks(tr); !errors.Is(err, ErrCorrupt) {
		t.Errorf("AllStacks err = %v, want ErrCorrupt", err)
	}
}
