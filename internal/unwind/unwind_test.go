package unwind

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/build"
	"repro/internal/isa"
	"repro/internal/proc"
	"repro/internal/ptrace"
)

// nestedProgram: main → fa → fb → fc, where fc spins on global "gate"
// until it becomes 1, then everyone returns and main stores a result.
func nestedProgram(t *testing.T) (*proc.Process, map[string]uint64) {
	t.Helper()
	p := build.NewProgram("nested")
	p.Global("gate", 8)
	p.Global("out", 8)

	fc := p.Func("fc")
	fc.Prologue(16)
	fc.LoadGlobalAddr(isa.R1, "gate")
	spin := fc.Label("spin")
	fc.Ld(isa.R2, isa.R1, 0)
	fc.CmpI(isa.R2, 1)
	fc.If(isa.NE, func() { fc.Goto(spin) }, nil)
	fc.MovI(isa.R0, 7)
	fc.EpilogueRet()

	fb := p.Func("fb")
	fb.Prologue(16)
	fb.Call("fc")
	fb.AddI(isa.R0, isa.R0, 10)
	fb.EpilogueRet()

	fa := p.Func("fa")
	fa.Prologue(16)
	fa.Call("fb")
	fa.AddI(isa.R0, isa.R0, 100)
	fa.EpilogueRet()

	m := p.Func("main")
	m.Prologue(16)
	m.Call("fa")
	m.LoadGlobalAddr(isa.R3, "out")
	m.St(isa.R3, 0, isa.R0)
	m.Halt()
	p.SetEntry("main")

	prog, err := p.Program()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := asm.Assemble(prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := proc.Load(bin, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pr, asm.DataSymbols(prog, asm.Options{})
}

func TestUnwindNestedCalls(t *testing.T) {
	pr, _ := nestedProgram(t)
	pr.RunUntilHalt(50000) // park inside fc's spin loop
	if pr.Halted() {
		t.Fatal("program finished before pause")
	}
	tr := ptrace.Attach(pr)
	defer tr.Detach()

	frames, err := Stack(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("got %d frames, want 4 (fc,fb,fa,main): %+v", len(frames), frames)
	}
	bin := pr.Bin
	wantOrder := []string{"fc", "fb", "fa", "main"}
	for i, fr := range frames {
		f, _, _ := bin.Lookup(fr.PC)
		if f == nil || f.Name != wantOrder[i] {
			t.Errorf("frame %d: PC %#x in %v, want %s", i, fr.PC, f, wantOrder[i])
		}
		if i > 0 && fr.RetSlot == 0 {
			t.Errorf("frame %d missing return slot", i)
		}
	}
}

func TestPokeReleasesSpinAndResume(t *testing.T) {
	pr, syms := nestedProgram(t)
	pr.RunUntilHalt(50000)
	tr := ptrace.Attach(pr)
	if err := tr.PokeData(syms["gate"], 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.PeekData(syms["gate"]); v != 1 {
		t.Fatal("poke did not land")
	}
	if tr.PokeCount != 1 || tr.PokeBytes != 8 {
		t.Errorf("poke accounting: %d/%d", tr.PokeCount, tr.PokeBytes)
	}
	tr.Detach()
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	if got := pr.Mem.ReadWord(syms["out"]); got != 117 {
		t.Errorf("out = %d, want 117", got)
	}
}

func TestDetachedTraceeRejectsOps(t *testing.T) {
	pr, _ := nestedProgram(t)
	pr.RunUntilHalt(1000)
	tr := ptrace.Attach(pr)
	tr.Detach()
	if _, err := tr.GetRegs(0); err == nil {
		t.Error("GetRegs after detach should fail")
	}
	if err := tr.PokeData(0x1000, 1); err == nil {
		t.Error("PokeData after detach should fail")
	}
}

func TestSetRegs(t *testing.T) {
	pr, _ := nestedProgram(t)
	pr.RunUntilHalt(50000)
	tr := ptrace.Attach(pr)
	defer tr.Detach()
	regs, err := tr.GetRegs(0)
	if err != nil {
		t.Fatal(err)
	}
	regs.GPR[isa.R9] = 0xCAFE
	if err := tr.SetRegs(0, regs); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.GetRegs(0)
	if got.GPR[isa.R9] != 0xCAFE {
		t.Error("SetRegs did not stick")
	}
	if _, err := tr.GetRegs(99); err == nil {
		t.Error("bad tid accepted")
	}
}

// TestReturnAddressRewrite reproduces the b_{i,i+1} mechanism of §IV-C1:
// while fb is on the stack, copy its code to a fresh address, rewrite the
// return address in fc's caller frame to the copy, and let execution
// return into the copy. The tail of fb (add, LEAVE, RET) has no
// PC-relative instructions, so the copy needs no fixups.
func TestReturnAddressRewrite(t *testing.T) {
	pr, syms := nestedProgram(t)
	pr.RunUntilHalt(50000)
	tr := ptrace.Attach(pr)

	bin := pr.Bin
	fb := bin.FuncByName("fb")
	frames, err := Stack(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	// frames[1] is the fb frame (return address into fb).
	fr := frames[1]
	if f, _, _ := bin.Lookup(fr.PC); f == nil || f.Name != "fb" {
		t.Fatalf("frame 1 not in fb")
	}

	// Copy fb's code to a fresh region via the agent (mmap it first — the
	// hardened tracee refuses writes outside the target's mapped image).
	copyBase := uint64(0x2000_0000)
	if err := tr.Map(copyBase, 1<<20); err != nil {
		t.Fatal(err)
	}
	code := make([]byte, fb.Size)
	if err := tr.ReadMem(fb.Addr, code); err != nil {
		t.Fatal(err)
	}
	if err := tr.AgentWrite(copyBase, code); err != nil {
		t.Fatal(err)
	}
	if tr.AgentBytes != fb.Size {
		t.Errorf("agent accounting: %d", tr.AgentBytes)
	}

	// Redirect the return address into the copy at the same offset.
	newRA := copyBase + (fr.PC - fb.Addr)
	if err := tr.PokeData(fr.RetSlot, newRA); err != nil {
		t.Fatal(err)
	}

	// Release the spin and finish.
	if err := tr.PokeData(syms["gate"], 1); err != nil {
		t.Fatal(err)
	}
	tr.Detach()
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	if got := pr.Mem.ReadWord(syms["out"]); got != 117 {
		t.Errorf("out = %d, want 117 (execution should return into the copy)", got)
	}
}
