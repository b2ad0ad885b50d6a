package proc

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/build"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obj"
)

// assembleOrDie builds a binary from a ProgramBuilder.
func assembleOrDie(t *testing.T, p *build.ProgramBuilder) *obj.Binary {
	t.Helper()
	b, err := p.Assemble(asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func loadOrDie(t *testing.T, b *obj.Binary, opts Options) *Process {
	t.Helper()
	p, err := Load(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestArithmeticAndGlobals(t *testing.T) {
	p := build.NewProgram("sum")
	p.Global("out", 8)
	f := p.Func("main")
	f.MovI(isa.R1, 0) // i
	f.MovI(isa.R2, 0) // sum
	f.While(func() { f.CmpI(isa.R1, 11) }, isa.LT, func() {
		f.Add(isa.R2, isa.R2, isa.R1)
		f.AddI(isa.R1, isa.R1, 1)
	})
	f.LoadGlobalAddr(isa.R3, "out")
	f.St(isa.R3, 0, isa.R2)
	f.Halt()
	p.SetEntry("main")

	bin := assembleOrDie(t, p)
	pr := loadOrDie(t, bin, Options{})
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	syms := asm.DataSymbols(mustProg(t, p), asm.Options{})
	if got := pr.Mem.ReadWord(syms["out"]); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if pr.Stats().Instructions == 0 || pr.Seconds() <= 0 {
		t.Error("no cycles accounted")
	}
}

// TestZeroFillLoadsLikeExplicitZeros: a .data zero-fill tail loads into
// the same memory image as the same section with its zeros spelled out —
// same words, same resident pages, same mapped extent.
func TestZeroFillLoadsLikeExplicitZeros(t *testing.T) {
	p := build.NewProgram("zf")
	p.Global("init", 8, []byte{1, 2, 3})
	p.Global("heap", 3*mem.PageSize+24)
	f := p.Func("main")
	f.Halt()
	p.SetEntry("main")
	sparse := assembleOrDie(t, p)
	sec := sparse.Section(obj.SecData)
	if sec.Zero == 0 {
		t.Fatal("assembler emitted no zero-fill tail")
	}
	explicit := sparse.Clone()
	ed := explicit.Section(obj.SecData)
	ed.Data = append(ed.Data, make([]byte, ed.Zero)...)
	ed.Zero = 0
	if ed.End() != sec.End() {
		t.Fatalf("twins end at %#x and %#x", ed.End(), sec.End())
	}

	a, b := loadOrDie(t, sparse, Options{}), loadOrDie(t, explicit, Options{})
	for addr := sec.Addr; addr < sec.End(); addr += 8 {
		if wa, wb := a.Mem.ReadWord(addr), b.Mem.ReadWord(addr); wa != wb {
			t.Fatalf("word at %#x: zero-fill %#x, explicit %#x", addr, wa, wb)
		}
	}
	if a.Mem.ResidentBytes() != b.Mem.ResidentBytes() {
		t.Errorf("resident bytes: zero-fill %d, explicit %d", a.Mem.ResidentBytes(), b.Mem.ResidentBytes())
	}
	for _, pr := range []*Process{a, b} {
		if !pr.RangeMapped(sec.End()-1, 1) {
			t.Error("last byte of .data not mapped")
		}
		if pr.RangeMapped(sec.End(), 1) {
			t.Error("byte past .data mapped")
		}
	}
}

func mustProg(t *testing.T, p *build.ProgramBuilder) *asm.Program {
	t.Helper()
	prog, err := p.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestRecursionAndStack(t *testing.T) {
	p := build.NewProgram("fact")
	p.Global("out", 8)
	// fact(n): if n<=1 return 1; return n*fact(n-1)
	f := p.Func("fact")
	f.Prologue(16)
	f.CmpI(isa.R0, 1)
	f.If(isa.LE, func() {
		f.MovI(isa.R0, 1)
		f.EpilogueRet()
	}, nil)
	f.St(isa.FP, -8, isa.R0) // save n
	f.AddI(isa.R0, isa.R0, -1)
	f.Call("fact")
	f.Ld(isa.R1, isa.FP, -8)
	f.Mul(isa.R0, isa.R0, isa.R1)
	f.EpilogueRet()

	m := p.Func("main")
	m.MovI(isa.R0, 10)
	m.Call("fact")
	m.LoadGlobalAddr(isa.R1, "out")
	m.St(isa.R1, 0, isa.R0)
	m.Halt()
	p.SetEntry("main")

	bin := assembleOrDie(t, p)
	pr := loadOrDie(t, bin, Options{})
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	syms := asm.DataSymbols(mustProg(t, p), asm.Options{})
	if got := pr.Mem.ReadWord(syms["out"]); got != 3628800 {
		t.Errorf("10! = %d, want 3628800", got)
	}
}

func TestVirtualDispatch(t *testing.T) {
	p := build.NewProgram("virt")
	p.Global("out", 8)
	p.VTable("vt", "ma", "mb")
	ma := p.Func("ma")
	ma.MovI(isa.R0, 111)
	ma.Ret()
	mb := p.Func("mb")
	mb.MovI(isa.R0, 222)
	mb.Ret()
	m := p.Func("main")
	// object on stack: [vtable]
	m.Prologue(16)
	m.LoadGlobalAddr(isa.R1, "vt")
	m.St(isa.FP, -8, isa.R1)
	m.AddI(isa.R2, isa.FP, -8) // obj ptr
	m.VCall(isa.R2, isa.R6, 1) // slot 1 = mb
	m.LoadGlobalAddr(isa.R3, "out")
	m.St(isa.R3, 0, isa.R0)
	m.Halt()
	p.SetEntry("main")

	bin := assembleOrDie(t, p)
	pr := loadOrDie(t, bin, Options{})
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	syms := asm.DataSymbols(mustProg(t, p), asm.Options{})
	if got := pr.Mem.ReadWord(syms["out"]); got != 222 {
		t.Errorf("vcall result = %d, want 222", got)
	}
}

func TestFuncPtrAndHook(t *testing.T) {
	p := build.NewProgram("fp")
	p.Global("out", 8)
	a := p.Func("fa")
	a.MovI(isa.R0, 1)
	a.Ret()
	b := p.Func("fb")
	b.MovI(isa.R0, 2)
	b.Ret()
	m := p.Func("main")
	m.FuncPtr(isa.R4, "fa")
	m.CallR(isa.R4)
	m.LoadGlobalAddr(isa.R3, "out")
	m.St(isa.R3, 0, isa.R0)
	m.Halt()
	p.SetEntry("main")

	bin := assembleOrDie(t, p)
	syms := asm.DataSymbols(mustProg(t, p), asm.Options{})

	// Without hook: calls fa.
	pr := loadOrDie(t, bin, Options{})
	pr.RunUntilHalt(0)
	if got := pr.Mem.ReadWord(syms["out"]); got != 1 {
		t.Fatalf("without hook: %d", got)
	}

	// With a hook that redirects fa's address to fb: calls fb.
	pr2 := loadOrDie(t, bin, Options{})
	faAddr := bin.FuncByName("fa").Addr
	fbAddr := bin.FuncByName("fb").Addr
	pr2.SetFuncPtrHook(func(v uint64) uint64 {
		if v == faAddr {
			return fbAddr
		}
		return v
	})
	pr2.RunUntilHalt(0)
	if err := pr2.Fault(); err != nil {
		t.Fatal(err)
	}
	if got := pr2.Mem.ReadWord(syms["out"]); got != 2 {
		t.Errorf("with hook: %d, want 2", got)
	}
	// Hook cost was charged.
	if pr2.Stats().Cycles <= pr.Stats().Cycles {
		t.Error("hook cost not charged")
	}
}

func TestJumpTableDispatch(t *testing.T) {
	p := build.NewProgram("jt") // jump tables allowed
	p.Global("out", 8)
	m := p.Func("main")
	m.MovI(isa.R1, 2) // select case 2
	m.Switch(isa.R1, []func(){
		func() { m.MovI(isa.R2, 10) },
		func() { m.MovI(isa.R2, 20) },
		func() { m.MovI(isa.R2, 30) },
	}, func() { m.MovI(isa.R2, 99) })
	m.LoadGlobalAddr(isa.R3, "out")
	m.St(isa.R3, 0, isa.R2)
	m.Halt()
	p.SetEntry("main")

	bin := assembleOrDie(t, p)
	if len(bin.JumpTables) != 1 {
		t.Fatal("expected a jump table")
	}
	pr := loadOrDie(t, bin, Options{})
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	syms := asm.DataSymbols(mustProg(t, p), asm.Options{})
	if got := pr.Mem.ReadWord(syms["out"]); got != 30 {
		t.Errorf("switch picked %d, want 30", got)
	}
}

func TestSyscalls(t *testing.T) {
	p := build.NewProgram("sys")
	m := p.Func("main")
	m.MovI(isa.R0, 64)
	m.Sys(SysAlloc)
	m.Mov(isa.R5, isa.R0) // keep buffer
	m.MovI(isa.R0, 7)
	m.Sys(SysEmit)
	m.Sys(SysNow)
	m.Halt()
	p.SetEntry("main")
	bin := assembleOrDie(t, p)

	var emitted []uint64
	handler := SyscallFunc(func(pr *Process, t *Thread, num int64) error {
		switch num {
		case SysAlloc:
			AllocSyscall(pr, t)
		case SysEmit:
			emitted = append(emitted, t.Regs[0])
		case SysNow:
			NowSyscall(t)
		}
		return nil
	})
	pr := loadOrDie(t, bin, Options{Handler: handler})
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != 1 || emitted[0] != 7 {
		t.Errorf("emitted = %v", emitted)
	}
}

func TestFaults(t *testing.T) {
	// Divide by zero.
	p := build.NewProgram("div0")
	m := p.Func("main")
	m.MovI(isa.R1, 5)
	m.MovI(isa.R2, 0)
	m.Div(isa.R0, isa.R1, isa.R2)
	m.Halt()
	p.SetEntry("main")
	pr := loadOrDie(t, assembleOrDie(t, p), Options{})
	pr.RunUntilHalt(0)
	if pr.Fault() == nil {
		t.Error("divide by zero not faulted")
	}

	// Jumping into zeroed memory faults on decode.
	p2 := build.NewProgram("wild")
	m2 := p2.Func("main")
	m2.MovI(isa.R1, 0x10000)
	m2.CallR(isa.R1)
	m2.Halt()
	p2.SetEntry("main")
	pr2 := loadOrDie(t, assembleOrDie(t, p2), Options{})
	pr2.RunUntilHalt(0)
	if pr2.Fault() == nil {
		t.Error("wild jump not faulted")
	}

	// SYS without a handler faults.
	p3 := build.NewProgram("nosys")
	m3 := p3.Func("main")
	m3.Sys(SysRecv)
	m3.Halt()
	p3.SetEntry("main")
	pr3 := loadOrDie(t, assembleOrDie(t, p3), Options{})
	pr3.RunUntilHalt(0)
	if pr3.Fault() == nil {
		t.Error("handlerless SYS not faulted")
	}
	// The syscall never dispatched, so its kernel-entry cost must not be
	// booked: a faulting process would otherwise distort TopDown deltas.
	if st := pr3.Stats(); st.BEStallCycles != 0 {
		t.Errorf("handlerless SYS booked %.0f back-end stall cycles, want 0", st.BEStallCycles)
	}
}

func TestUnmapInvalidatesDecodedCode(t *testing.T) {
	// A caller jumps to code written outside the loader at 0x500000; after
	// mem.Unmap the re-run must fault on decode, and a partial unmap
	// (zeroed-but-mapped bytes) must fault exactly like a full-page unmap.
	const victim = 0x500000
	newVictimProc := func() *Process {
		p := build.NewProgram("unmapvictim")
		m := p.Func("main")
		m.MovI(isa.R1, victim)
		m.CallR(isa.R1)
		m.Halt()
		p.SetEntry("main")
		pr := loadOrDie(t, assembleOrDie(t, p), Options{})
		pr.Mem.Write(victim, isa.EncodeAll([]isa.Inst{
			{Op: isa.MOVI, Rd: isa.R2, Imm: 7},
			{Op: isa.RET},
		}))
		return pr
	}
	rerun := func(pr *Process) {
		t0 := pr.Threads[0]
		t0.Halted = false
		t0.PC = pr.Bin.Entry
		pr.RunUntilHalt(0)
	}

	// Partial unmap: only the victim's first instruction, head of a page.
	prA := newVictimProc()
	prA.RunUntilHalt(0)
	if err := prA.Fault(); err != nil {
		t.Fatal(err)
	}
	if got := prA.Threads[0].Regs[isa.R2]; got != 7 {
		t.Fatalf("victim did not run: R2 = %d", got)
	}
	prA.Mem.Unmap(victim, isa.InstBytes)
	rerun(prA)
	if prA.Fault() == nil {
		t.Fatal("zeroed-but-mapped code executed stale decode")
	}

	// Full-page unmap of the same victim.
	prB := newVictimProc()
	prB.RunUntilHalt(0)
	prB.Mem.Unmap(victim, mem.PageSize)
	rss := prB.Mem.ResidentBytes()
	rerun(prB)
	if prB.Fault() == nil {
		t.Fatal("fully-unmapped code executed stale decode")
	}
	if a, b := prA.Fault().Error(), prB.Fault().Error(); a != b {
		t.Errorf("partial and full unmap fault differently:\n  partial: %s\n  full:    %s", a, b)
	}
	if prB.Mem.Resident(victim) || prB.Mem.ResidentBytes() != rss {
		t.Errorf("faulting fetch brought the released page back: resident %v, RSS %d → %d",
			prB.Mem.Resident(victim), rss, prB.Mem.ResidentBytes())
	}

	// The same full-page case through the reference executor.
	prC := newVictimProc()
	prC.RunUntilHalt(0)
	prC.Mem.Unmap(victim, mem.PageSize)
	rss = prC.Mem.ResidentBytes()
	t0 := prC.Threads[0]
	t0.Halted = false
	t0.PC = prC.Bin.Entry
	for prC.Step(t0) {
	}
	if prC.Fault() == nil || prC.Fault().Error() != prB.Fault().Error() {
		t.Errorf("Step faults differently from the engine:\n  step:   %v\n  engine: %v", prC.Fault(), prB.Fault())
	}
	if prC.Mem.Resident(victim) || prC.Mem.ResidentBytes() != rss {
		t.Errorf("Step's faulting fetch brought the released page back: resident %v, RSS %d → %d",
			prC.Mem.Resident(victim), rss, prC.Mem.ResidentBytes())
	}
}

func TestUnmapStraddlingPageBoundary(t *testing.T) {
	// The victim straddles a page boundary: MOVI's immediate sits in the
	// tail of one page, RET at the head of the next. An unmap covering the
	// boundary zeroes the immediate (the MOVI must re-decode with the new
	// value) and RET's opcode (which must fault).
	const head = 0x500ff0 // last slot of the first victim page
	const tail = 0x501000 // first slot of the next page
	p := build.NewProgram("straddle")
	m := p.Func("main")
	m.MovI(isa.R1, head)
	m.CallR(isa.R1)
	m.Halt()
	p.SetEntry("main")
	pr := loadOrDie(t, assembleOrDie(t, p), Options{})
	pr.Mem.Write(head, isa.EncodeAll([]isa.Inst{
		{Op: isa.MOVI, Rd: isa.R2, Imm: 7},
		{Op: isa.RET},
	}))
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	if got := pr.Threads[0].Regs[isa.R2]; got != 7 {
		t.Fatalf("victim did not run: R2 = %d", got)
	}

	pr.Mem.Unmap(head+8, isa.InstBytes) // covers imm of MOVI + opcode of RET
	t0 := pr.Threads[0]
	t0.Halted = false
	t0.PC = pr.Bin.Entry
	t0.Regs[isa.R2] = 99
	pr.RunUntilHalt(0)
	if pr.Fault() == nil {
		t.Fatal("zeroed RET opcode did not fault")
	}
	if !strings.Contains(pr.Fault().Error(), "0x501000") {
		t.Errorf("fault not at the zeroed RET: %v", pr.Fault())
	}
	if got := t0.Regs[isa.R2]; got != 0 {
		t.Errorf("MOVI executed stale immediate: R2 = %d, want 0", got)
	}
}

func TestSelfModifyingCodeInvalidation(t *testing.T) {
	// main loops twice over a MOVI that external code rewrites between
	// runs; the re-run must execute the new bytes, not a stale trace.
	p := build.NewProgram("smc")
	p.Global("out", 8)
	m := p.Func("main")
	m.MovI(isa.R2, 111) // instruction to patch (index 0)
	m.LoadGlobalAddr(isa.R3, "out")
	m.St(isa.R3, 0, isa.R2)
	m.Halt()
	p.SetEntry("main")
	bin := assembleOrDie(t, p)
	pr := loadOrDie(t, bin, Options{})

	pr.RunUntilHalt(0)
	syms := asm.DataSymbols(mustProg(t, p), asm.Options{})
	if got := pr.Mem.ReadWord(syms["out"]); got != 111 {
		t.Fatalf("first run: %d", got)
	}

	// Patch the MOVI imm to 222 and restart thread 0 at entry.
	var buf [isa.InstBytes]byte
	patched := isa.Inst{Op: isa.MOVI, Rd: isa.R2, Imm: 222}
	patched.Encode(buf[:])
	pr.Mem.Write(bin.Entry, buf[:])
	t0 := pr.Threads[0]
	t0.Halted = false
	t0.PC = bin.Entry
	pr.RunUntilHalt(0)
	if got := pr.Mem.ReadWord(syms["out"]); got != 222 {
		t.Errorf("after patch: %d, want 222", got)
	}
}

func TestMultiThread(t *testing.T) {
	p := build.NewProgram("mt")
	p.Global("counters", 8*4)
	m := p.Func("main")
	// Each thread (id in R0) bumps counters[id] 1000 times.
	m.LoadGlobalAddr(isa.R3, "counters")
	m.ShlI(isa.R4, isa.R0, 3)
	m.Add(isa.R3, isa.R3, isa.R4)
	m.MovI(isa.R1, 0)
	m.While(func() { m.CmpI(isa.R1, 1000) }, isa.LT, func() {
		m.Ld(isa.R5, isa.R3, 0)
		m.AddI(isa.R5, isa.R5, 1)
		m.St(isa.R3, 0, isa.R5)
		m.AddI(isa.R1, isa.R1, 1)
	})
	m.Halt()
	p.SetEntry("main")
	bin := assembleOrDie(t, p)
	pr := loadOrDie(t, bin, Options{Threads: 4})
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	syms := asm.DataSymbols(mustProg(t, p), asm.Options{})
	for i := uint64(0); i < 4; i++ {
		if got := pr.Mem.ReadWord(syms["counters"] + i*8); got != 1000 {
			t.Errorf("counter %d = %d", i, got)
		}
	}
	// Cores advanced in near-lockstep.
	lo, hi := pr.Threads[0].Core.Cycles(), pr.Threads[0].Core.Cycles()
	for _, th := range pr.Threads {
		c := th.Core.Cycles()
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi > lo*1.5+1000 {
		t.Errorf("cores diverged: %f vs %f", lo, hi)
	}
}

func TestPauseResume(t *testing.T) {
	p := build.NewProgram("loop")
	m := p.Func("main")
	m.MovI(isa.R1, 0)
	m.While(func() { m.CmpI(isa.R1, 1<<40) }, isa.LT, func() {
		m.AddI(isa.R1, isa.R1, 1)
	})
	m.Halt()
	p.SetEntry("main")
	pr := loadOrDie(t, assembleOrDie(t, p), Options{})

	pr.RunUntilHalt(100000)
	if pr.Halted() {
		t.Fatal("loop ended too early")
	}
	pr.Pause()
	n := pr.RunUntilHalt(0)
	if n != 0 {
		t.Errorf("paused process executed %d instructions", n)
	}
	pr.Resume()
	if n := pr.RunUntilHalt(1000); n == 0 {
		t.Error("resumed process did not run")
	}
	// Thread state is inspectable at an instruction boundary.
	if pr.Threads[0].PC%isa.InstBytes != 0 {
		t.Error("paused PC not at instruction boundary")
	}
}

func TestRunFor(t *testing.T) {
	p := build.NewProgram("timed")
	m := p.Func("main")
	m.MovI(isa.R1, 0)
	m.While(func() { m.CmpI(isa.R1, 1<<40) }, isa.LT, func() {
		m.AddI(isa.R1, isa.R1, 1)
	})
	m.Halt()
	p.SetEntry("main")
	pr := loadOrDie(t, assembleOrDie(t, p), Options{})
	pr.RunFor(1e-4) // 100 microseconds at 2.1 GHz ≈ 210k cycles
	if s := pr.Seconds(); s < 1e-4 || s > 2e-4 {
		t.Errorf("RunFor(1e-4) advanced %g seconds", s)
	}
}

func BenchmarkInterpreter(b *testing.B) {
	p := build.NewProgram("bench")
	m := p.Func("main")
	m.MovI(isa.R1, 0)
	m.While(func() { m.CmpI(isa.R1, 1<<40) }, isa.LT, func() {
		m.AddI(isa.R2, isa.R2, 7)
		m.XorI(isa.R2, isa.R2, 13)
		m.AddI(isa.R1, isa.R1, 1)
	})
	m.Halt()
	p.SetEntry("main")
	bin, err := p.Assemble(asm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pr, err := Load(bin, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	pr.RunUntilHalt(uint64(b.N))
}

// TestDBITaxModel: running under the modeled DBI framework must cost
// cycles, and indirect-heavy code must suffer more than branch-light code
// (the Pin cost profile of §I).
func TestDBITaxModel(t *testing.T) {
	buildBin := func() *obj.Binary {
		p := build.NewProgram("dbi")
		leaf := p.Func("leaf")
		leaf.Prologue(0)
		leaf.AddI(isa.R0, isa.R0, 1)
		leaf.EpilogueRet()
		m := p.Func("main")
		m.Prologue(16)
		m.MovI(isa.R1, 0)
		m.While(func() { m.CmpI(isa.R1, 20000) }, isa.LT, func() {
			m.FuncPtr(isa.R6, "leaf")
			m.CallR(isa.R6) // indirect call + return per iteration
			m.AddI(isa.R1, isa.R1, 1)
		})
		m.Halt()
		p.SetEntry("main")
		bin, err := p.Assemble(asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return bin
	}
	run := func(dbi bool) float64 {
		pr, err := Load(buildBin(), Options{DBI: dbi})
		if err != nil {
			t.Fatal(err)
		}
		pr.RunUntilHalt(0)
		if err := pr.Fault(); err != nil {
			t.Fatal(err)
		}
		return pr.Seconds()
	}
	native := run(false)
	underDBI := run(true)
	if underDBI <= native*1.2 {
		t.Errorf("indirect-heavy code under DBI %.6fs vs native %.6fs; expected a big tax", underDBI, native)
	}
}
