package bolt

import (
	"encoding/binary"
	"testing"

	"repro/internal/asm"
	"repro/internal/build"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/perf"
	"repro/internal/proc"
)

// toyProgram builds a program with a strongly biased hot path:
// main loops `iters` times calling hotA; hotA's condition is true 15/16 of
// the time (then-path calls hotB), else-path calls coldC. A checksum lands
// in global "out".
func toyProgram(iters int64) (*build.ProgramBuilder, string) {
	p := build.NewProgram("toy")
	p.SetNoJumpTables(true)
	out := p.Global("out", 8)

	hotB := p.Func("hotB")
	hotB.MulI(isa.R0, isa.R0, 3)
	hotB.AddI(isa.R0, isa.R0, 1)
	hotB.Ret()

	coldC := p.Func("coldC")
	coldC.PadCode(40) // cold bulk
	coldC.AddI(isa.R0, isa.R0, 1000)
	coldC.Ret()

	// deadF is never called: it must stay pinned in .bolt.org.text.
	deadF := p.Func("deadF")
	deadF.PadCode(20)
	deadF.Ret()

	hotA := p.Func("hotA")
	hotA.Prologue(16)
	// Never-taken error path: guaranteed cold blocks for splitting.
	hotA.CmpI(isa.R0, -1)
	hotA.If(isa.EQ, func() {
		hotA.PadCode(30)
		hotA.Call("deadF")
		hotA.EpilogueRet()
	}, nil)
	hotA.AndI(isa.R1, isa.R0, 15)
	hotA.CmpI(isa.R1, 15)
	hotA.If(isa.NE, func() { // hot path (15/16)
		hotA.Call("hotB")
	}, func() { // cold path
		hotA.Call("coldC")
	})
	hotA.EpilogueRet()

	m := p.Func("main")
	m.Prologue(16)
	m.MovI(isa.R7, 0) // i
	m.MovI(isa.R8, 0) // acc
	m.While(func() { m.CmpI(isa.R7, iters) }, isa.LT, func() {
		m.Mov(isa.R0, isa.R7)
		m.Call("hotA")
		m.Add(isa.R8, isa.R8, isa.R0)
		m.AddI(isa.R7, isa.R7, 1)
	})
	m.LoadGlobalAddr(isa.R3, "out")
	m.St(isa.R3, 0, isa.R8)
	m.Halt()
	p.SetEntry("main")
	return p, out
}

// runToCompletion loads and runs a binary, returning the word at outAddr.
func runToCompletion(t *testing.T, bin *obj.Binary, outAddr uint64) uint64 {
	t.Helper()
	pr, err := proc.Load(bin, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatalf("%s faulted: %v", bin.Name, err)
	}
	if !pr.Halted() {
		t.Fatalf("%s did not halt", bin.Name)
	}
	return pr.Mem.ReadWord(outAddr)
}

// profileBinary runs the binary under perf and converts the profile.
func profileBinary(t *testing.T, bin *obj.Binary, seconds float64) *Profile {
	t.Helper()
	pr, err := proc.Load(bin, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := perf.Record(pr, seconds, perf.RecorderOptions{PeriodCycles: 5000})
	if len(raw.Samples) == 0 {
		t.Fatal("no LBR samples collected")
	}
	prof, err := ConvertProfile(raw, bin)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func buildToy(t *testing.T, iters int64) (*obj.Binary, uint64) {
	t.Helper()
	p, _ := toyProgram(iters)
	prog, err := p.Program()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := asm.Assemble(prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return bin, asm.DataSymbols(prog, asm.Options{})["out"]
}

func TestOptimizePreservesSemantics(t *testing.T) {
	bin, outAddr := buildToy(t, 30000)
	want := runToCompletion(t, bin, outAddr)

	prof := profileBinary(t, bin, 0.002)
	res, err := Optimize(bin, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Binary.Validate(); err != nil {
		t.Fatal(err)
	}
	got := runToCompletion(t, res.Binary, outAddr)
	if got != want {
		t.Errorf("bolted output %d != original %d", got, want)
	}
}

// TestOptimizeKeepsZeroFillData: the optimized binary keeps the input's
// .data extent, zero-fill tail included, and its v-table slots point at
// the moved functions.
func TestOptimizeKeepsZeroFillData(t *testing.T) {
	p, _ := toyProgram(30000)
	p.Global("heap", 1<<20)
	p.VTable("vt", "hotB", "coldC")
	prog, err := p.Program()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := asm.Assemble(prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := bin.Section(obj.SecData)
	if in.Zero < 1<<20 {
		t.Fatalf("input .data has a %d-byte zero-fill tail", in.Zero)
	}
	res, err := Optimize(bin, profileBinary(t, bin, 0.002), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Binary.Section(obj.SecData)
	if out.Addr != in.Addr || out.End() != in.End() || out.Zero < 1<<20 {
		t.Errorf("optimized .data [%#x,%#x) with %d zero-fill, input [%#x,%#x)",
			out.Addr, out.End(), out.Zero, in.Addr, in.End())
	}
	raw, err := res.Binary.Bytes(res.Binary.VTables[0].Addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"hotB", "coldC"} {
		slot := binary.LittleEndian.Uint64(raw[8*i:])
		if want := res.Binary.FuncByName(name).Addr; slot != want {
			t.Errorf("vt slot %d = %#x, want %s at %#x", i, slot, name, want)
		}
	}
	if res.Binary.FuncByName("hotB").Addr == bin.FuncByName("hotB").Addr {
		t.Error("hotB did not move, so the slot rewrite is untested")
	}
}

func TestOptimizeLayoutFacts(t *testing.T) {
	bin, _ := buildToy(t, 30000)
	prof := profileBinary(t, bin, 0.002)
	res, err := Optimize(bin, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ob := res.Binary

	if !ob.Bolted {
		t.Error("output not marked bolted")
	}
	if res.FuncsReordered < 3 { // main, hotA, hotB at least
		t.Errorf("only %d functions reordered", res.FuncsReordered)
	}

	// Hot functions moved to the new text base; cold ones pinned.
	main := ob.FuncByName("main")
	if main == nil || main.Addr < DefaultTextBase {
		t.Errorf("main not moved: %+v", main)
	}
	hotA := ob.FuncByName("hotA")
	if hotA == nil || hotA.Addr < DefaultTextBase || !hotA.Optimized {
		t.Errorf("hotA not moved/optimized: %+v", hotA)
	}

	// AddrMap maps original entries to new ones.
	origMain := bin.FuncByName("main")
	if ob.AddrMap[origMain.Addr] != main.Addr {
		t.Error("AddrMap wrong for main")
	}

	// hotA was split: its cold-path call to coldC is in the cold section.
	if hotA.ColdSize == 0 {
		t.Error("hotA has no cold part despite a cold else-branch")
	}
	if cs := ob.Section(obj.SecColdText); cs == nil {
		t.Error("no cold text section")
	}

	// Original section preserved as .bolt.org.text for pinned functions.
	if ob.Section(obj.SecOrgText) == nil {
		t.Error("no org text section")
	}

	// The hot path in hotA is now fallthrough: its hot fragment should
	// contain no taken unconditional JMP back into itself for the common
	// case. Weak check: hot part shrank relative to the original (cold
	// blocks exiled).
	origA := bin.FuncByName("hotA")
	if hotA.Size >= origA.Size {
		t.Errorf("hotA hot part %d >= original %d", hotA.Size, origA.Size)
	}
}

func TestC3OrdersCallerBeforeCallee(t *testing.T) {
	bin, _ := buildToy(t, 30000)
	prof := profileBinary(t, bin, 0.002)
	res, err := Optimize(bin, prof, Options{FuncOrder: OrderC3})
	if err != nil {
		t.Fatal(err)
	}
	ob := res.Binary
	main, hotA, hotB := ob.FuncByName("main"), ob.FuncByName("hotA"), ob.FuncByName("hotB")
	if !(main.Addr < hotA.Addr && hotA.Addr < hotB.Addr) {
		t.Errorf("C3 order main=%#x hotA=%#x hotB=%#x; want caller before callee",
			main.Addr, hotA.Addr, hotB.Addr)
	}
}

func TestReBoltRefusedWithoutOptIn(t *testing.T) {
	bin, _ := buildToy(t, 30000)
	prof := profileBinary(t, bin, 0.002)
	res, err := Optimize(bin, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Optimize(res.Binary, prof, Options{}); err != ErrAlreadyBolted {
		t.Errorf("re-bolt error = %v, want ErrAlreadyBolted", err)
	}
}

func TestReBoltWithOptIn(t *testing.T) {
	bin, outAddr := buildToy(t, 30000)
	want := runToCompletion(t, bin, outAddr)
	prof := profileBinary(t, bin, 0.002)
	res, err := Optimize(bin, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Re-profile the bolted binary and optimize again at a fresh base.
	prof2 := profileBinary(t, res.Binary, 0.002)
	res2, err := Optimize(res.Binary, prof2, Options{AllowReBolt: true, TextBase: 0x3000_0000})
	if err != nil {
		t.Fatal(err)
	}
	got := runToCompletion(t, res2.Binary, outAddr)
	if got != want {
		t.Errorf("re-bolted output %d != original %d", got, want)
	}
}

func TestAblationOptions(t *testing.T) {
	bin, outAddr := buildToy(t, 30000)
	want := runToCompletion(t, bin, outAddr)
	prof := profileBinary(t, bin, 0.002)
	for _, opts := range []Options{
		{NoReorderBlocks: true},
		{NoSplit: true},
		{FuncOrder: OrderPH},
		{FuncOrder: OrderNone},
	} {
		res, err := Optimize(bin, prof, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if got := runToCompletion(t, res.Binary, outAddr); got != want {
			t.Errorf("%+v: output %d != %d", opts, got, want)
		}
	}
}

func TestJumpTableFunctionsPreserved(t *testing.T) {
	// A program using a jump table: the function is moved but its block
	// layout (and table) must stay consistent.
	p := build.NewProgram("jt")
	out := p.Global("out", 8)
	_ = out
	m := p.Func("main")
	m.Prologue(16)
	m.MovI(isa.R7, 0)
	m.MovI(isa.R8, 0)
	m.While(func() { m.CmpI(isa.R7, 20000) }, isa.LT, func() {
		m.AndI(isa.R1, isa.R7, 3)
		m.Switch(isa.R1, []func(){
			func() { m.AddI(isa.R8, isa.R8, 1) },
			func() { m.AddI(isa.R8, isa.R8, 3) },
			func() { m.AddI(isa.R8, isa.R8, 5) },
			func() { m.AddI(isa.R8, isa.R8, 7) },
		}, func() { m.AddI(isa.R8, isa.R8, 100) })
		m.AddI(isa.R7, isa.R7, 1)
	})
	m.LoadGlobalAddr(isa.R3, "out")
	m.St(isa.R3, 0, isa.R8)
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
	outAddr := asm.DataSymbols(prog, asm.Options{})["out"]
	want := runToCompletion(t, bin, outAddr)

	prof := profileBinary(t, bin, 0.002)
	res, err := Optimize(bin, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := runToCompletion(t, res.Binary, outAddr); got != want {
		t.Errorf("jump-table program: bolted %d != original %d", got, want)
	}
}

func TestProfileShapesMatchBias(t *testing.T) {
	bin, _ := buildToy(t, 30000)
	prof := profileBinary(t, bin, 0.002)
	hotB := bin.FuncByName("hotB")
	coldC := bin.FuncByName("coldC")
	fpB, fpC := prof.Funcs[hotB.Addr], prof.Funcs[coldC.Addr]
	if fpB == nil {
		t.Fatal("hotB not profiled")
	}
	wB := fpB.Weight()
	var wC uint64
	if fpC != nil {
		wC = fpC.Weight()
	}
	if wB < wC*4 {
		t.Errorf("profile weights: hotB=%d coldC=%d; expected strong bias", wB, wC)
	}
}

func TestPerfRecorderOverheadCharged(t *testing.T) {
	bin, _ := buildToy(t, 1<<40)
	pr, err := proc.Load(bin, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr.RunFor(0.001)
	ipcBefore := pr.Stats().IPC()
	before := pr.Stats()
	raw := perf.Record(pr, 0.002, perf.RecorderOptions{})
	during := pr.Stats().Sub(before)
	if raw.Seconds <= 0 || len(raw.Samples) == 0 {
		t.Fatal("recording produced nothing")
	}
	if during.IPC() >= ipcBefore {
		t.Errorf("profiling overhead not visible: IPC %.3f -> %.3f", ipcBefore, during.IPC())
	}
}

// TestPeepholeShrinksHotCode: padding NOPs vanish from relocated code but
// semantics hold; the ablation switch restores them.
func TestPeepholeShrinksHotCode(t *testing.T) {
	bin, outAddr := buildToy(t, 30000)
	want := runToCompletion(t, bin, outAddr)
	prof := profileBinary(t, bin, 0.002)

	with, err := Optimize(bin, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Optimize(bin, prof, Options{NoPeephole: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.NewTextBytes >= without.NewTextBytes {
		t.Errorf("peephole did not shrink code: %d vs %d bytes",
			with.NewTextBytes, without.NewTextBytes)
	}
	if got := runToCompletion(t, with.Binary, outAddr); got != want {
		t.Errorf("peephole output %d != original %d", got, want)
	}
	// No NOPs survive in moved functions.
	for _, f := range with.Binary.Funcs {
		if !f.Optimized {
			continue
		}
		raw, err := with.Binary.Bytes(f.Addr, int(f.Size))
		if err != nil {
			t.Fatal(err)
		}
		insts, err := isa.DecodeAll(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range insts {
			if in.Op == isa.NOP {
				t.Fatalf("NOP survived peephole in %s", f.Name)
			}
		}
	}
}
