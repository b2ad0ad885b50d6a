package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bolt"
	"repro/internal/build"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/progtest"
)

// genProgram builds a deterministic random program and assembles it.
func genProgram(t *testing.T, seed int64, iters int64) (*obj.Binary, uint64) {
	t.Helper()
	prog, outAddr, err := progtest.Generate(progtest.Options{
		Funcs:     12,
		MainIters: iters,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := asm.Assemble(prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return bin, outAddr
}

// plainRun executes the binary to completion without OCOLOS.
func plainRun(t *testing.T, bin *obj.Binary, outAddr uint64) uint64 {
	t.Helper()
	pr, err := proc.Load(bin, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	return pr.Mem.ReadWord(outAddr)
}

func newController(t *testing.T, bin *obj.Binary, opts Options) (*proc.Process, *Controller) {
	t.Helper()
	pr, err := proc.Load(bin, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Perf.PeriodCycles == 0 {
		opts.Perf.PeriodCycles = 2000
	}
	c, err := New(pr, bin, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pr, c
}

func TestSingleRoundPreservesSemantics(t *testing.T) {
	bin, outAddr := genProgram(t, 11, 60000)
	want := plainRun(t, bin, outAddr)

	pr, c := newController(t, bin, Options{})
	pr.RunFor(0.0003) // let it warm up
	if pr.Halted() {
		t.Fatal("program finished before replacement")
	}
	rr, err := c.OptimizeRound(0.0005)
	if err != nil {
		t.Fatal(err)
	}
	rs, bs := rr.Replace, rr.Build
	if rs.BytesInjected == 0 {
		t.Error("nothing injected")
	}
	if bs.Result.FuncsReordered == 0 {
		t.Error("no functions reordered")
	}
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	if got := pr.Mem.ReadWord(outAddr); got != want {
		t.Errorf("checksum after replacement %d != %d", got, want)
	}
	if rs.PauseSeconds <= 0 {
		t.Error("pause time not modeled")
	}
}

func TestExecutionSteersIntoC1(t *testing.T) {
	bin, outAddr := genProgram(t, 12, 1<<30)
	_ = outAddr
	pr, c := newController(t, bin, Options{})
	pr.RunFor(0.0003)
	if _, err := c.OptimizeRound(0.0005); err != nil {
		t.Fatal(err)
	}
	// Sample where execution happens now.
	raw := perf.Record(pr, 0.0005, perf.RecorderOptions{PeriodCycles: 2000})
	var inC1, total int
	for _, s := range raw.Samples {
		for _, r := range s.Records {
			total++
			if r.From >= firstTextBase {
				inC1++
			}
		}
	}
	if total == 0 {
		t.Fatal("no samples after replacement")
	}
	if frac := float64(inC1) / float64(total); frac < 0.5 {
		t.Errorf("only %.1f%% of branches execute in optimized code", frac*100)
	}
}

func TestVTableSlotsPointIntoC1(t *testing.T) {
	bin, _ := genProgram(t, 13, 1<<30)
	pr, c := newController(t, bin, Options{})
	pr.RunFor(0.0003)
	rr, err := c.OptimizeRound(0.0005)
	if err != nil {
		t.Fatal(err)
	}
	rs := rr.Replace
	if len(bin.VTables) == 0 {
		t.Fatal("test program has no vtables")
	}
	patched := 0
	for _, vt := range bin.VTables {
		for i := range vt.Slots {
			v := pr.Mem.ReadWord(vt.Addr + uint64(i)*8)
			if v >= firstTextBase {
				patched++
			}
		}
	}
	if patched == 0 && rs.VTableSlotsPatched > 0 {
		t.Error("vtable slots reported patched but none point into C1")
	}
}

func TestContinuousOptimizationSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("continuous property test in -short mode")
	}
	for seed := int64(21); seed <= 26; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			bin, outAddr := genProgram(t, seed, 150000)
			want := plainRun(t, bin, outAddr)

			pr, c := newController(t, bin, Options{
				Bolt: bolt.Options{AllowReBolt: true},
			})
			pr.RunFor(0.0002)
			for round := 0; round < 3; round++ {
				if pr.Halted() {
					t.Fatalf("program ended before round %d", round)
				}
				if _, err := c.OptimizeRound(0.0004); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				pr.RunFor(0.0004)
				if err := pr.Fault(); err != nil {
					t.Fatalf("fault after round %d: %v", round, err)
				}
			}
			if c.Version() != 3 {
				t.Fatalf("version = %d, want 3", c.Version())
			}
			pr.RunUntilHalt(0)
			if err := pr.Fault(); err != nil {
				t.Fatal(err)
			}
			if got := pr.Mem.ReadWord(outAddr); got != want {
				t.Errorf("seed %d: checksum after 3 rounds %d != %d", seed, got, want)
			}
		})
	}
}

func TestGarbageCollectionBoundsMemory(t *testing.T) {
	bin, _ := genProgram(t, 31, 1<<30)
	pr, c := newController(t, bin, Options{Bolt: bolt.Options{AllowReBolt: true}})
	pr.RunFor(0.0002)

	if _, err := c.OptimizeRound(0.0004); err != nil {
		t.Fatal(err)
	}
	var freed uint64
	residents := []uint64{pr.Mem.ResidentBytes()}
	for round := 0; round < 5; round++ {
		pr.RunFor(0.0002)
		rr, err := c.OptimizeRound(0.0004)
		if err != nil {
			t.Fatal(err)
		}
		rs := rr.Replace
		freed += rs.BytesFreed
		residents = append(residents, pr.Mem.ResidentBytes())
	}
	if freed == 0 {
		t.Error("GC freed nothing across continuous rounds")
	}
	// Memory must plateau, not grow linearly with rounds: without GC each
	// round would leak a whole code version (tens of KiB); with GC the
	// resident set settles after the first couple of rounds (modulo a page
	// or two of stack-live copies).
	versionSize := residents[1] // includes one live optimized version
	last := residents[len(residents)-1]
	mid := residents[2]
	if last > mid+2*4096 {
		t.Errorf("resident still growing after settling: %v", residents)
	}
	if last > versionSize*3 {
		t.Errorf("resident %d is several versions deep (%v); GC ineffective", last, residents)
	}
	// The outgoing version's region is actually unmapped.
	if got := pr.Mem.LoadByte(textBase(1) + 64); got != 0 {
		t.Error("version-1 text still mapped after GC")
	}
}

func TestRevert(t *testing.T) {
	bin, outAddr := genProgram(t, 41, 150000)
	want := plainRun(t, bin, outAddr)

	pr, c := newController(t, bin, Options{Bolt: bolt.Options{AllowReBolt: true}})
	pr.RunFor(0.0002)
	if _, err := c.OptimizeRound(0.0004); err != nil {
		t.Fatal(err)
	}
	pr.RunFor(0.0003)
	rs, err := c.Revert()
	if err != nil {
		t.Fatal(err)
	}
	if rs.BytesInjected != 0 {
		t.Error("revert should inject nothing")
	}
	// Execution continues correctly back in C0.
	pr.RunFor(0.0005)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	raw := perf.Record(pr, 0.0004, perf.RecorderOptions{PeriodCycles: 2000})
	var inOpt, total int
	for _, s := range raw.Samples {
		for _, r := range s.Records {
			total++
			// Copies of stack-live functions may still drain; steady-state
			// execution should be overwhelmingly in C0.
			if r.From >= firstTextBase {
				inOpt++
			}
		}
	}
	if total > 0 && float64(inOpt)/float64(total) > 0.2 {
		t.Errorf("%.1f%% of branches still in optimized regions after revert", 100*float64(inOpt)/float64(total))
	}
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	if got := pr.Mem.ReadWord(outAddr); got != want {
		t.Errorf("checksum after revert %d != %d", got, want)
	}
}

func TestJumpTableBinaryRejected(t *testing.T) {
	p := build.NewProgram("jt")
	m := p.Func("main")
	m.MovI(isa.R1, 1)
	m.Switch(isa.R1, []func(){
		func() { m.Nop() },
		func() { m.Nop() },
	}, nil)
	m.Halt()
	p.SetEntry("main")
	bin, err := p.Assemble(asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := proc.Load(bin, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(pr, bin, Options{}); err == nil {
		t.Error("binary with jump tables accepted (§IV-D requires -fno-jump-tables)")
	}
}

func TestAblationsSingleRound(t *testing.T) {
	for _, opts := range []Options{
		{NoPatchVTables: true},
		{NoPatchStackCalls: true},
		{PatchAllCalls: true},
		{NoFuncPtrHook: true},
	} {
		bin, outAddr := genProgram(t, 51, 80000)
		want := plainRun(t, bin, outAddr)
		pr, c := newController(t, bin, opts)
		pr.RunFor(0.0003)
		if _, err := c.OptimizeRound(0.0004); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		pr.RunUntilHalt(0)
		if err := pr.Fault(); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if got := pr.Mem.ReadWord(outAddr); got != want {
			t.Errorf("%+v: checksum %d != %d", opts, got, want)
		}
	}
}

func TestContinuousRequiresHookAndVTables(t *testing.T) {
	bin, _ := genProgram(t, 61, 1<<30)
	pr, c := newController(t, bin, Options{NoFuncPtrHook: true, Bolt: bolt.Options{AllowReBolt: true}})
	pr.RunFor(0.0002)
	if _, err := c.OptimizeRound(0.0004); err != nil {
		t.Fatal(err)
	}
	pr.RunFor(0.0002)
	if _, err := c.OptimizeRound(0.0004); err == nil {
		t.Error("second round without func-ptr hook should be refused")
	}
}

func TestReplaceStatsPopulated(t *testing.T) {
	bin, _ := genProgram(t, 71, 1<<30)
	pr, c := newController(t, bin, Options{})
	pr.RunFor(0.0003)
	rr, err := c.OptimizeRound(0.0005)
	if err != nil {
		t.Fatal(err)
	}
	rs, bs := rr.Replace, rr.Build
	if rs.FuncsOnStack == 0 {
		t.Error("no functions on stack at replacement time")
	}
	if rs.CallSitesPatched == 0 && rs.VTableSlotsPatched == 0 {
		t.Error("no pointers patched at all")
	}
	if bs.Perf2BoltSeconds <= 0 || bs.BoltSeconds <= 0 {
		t.Error("pipeline timings missing")
	}
	if len(c.Reports) != 1 {
		t.Error("report not recorded")
	}
	_ = pr
}

// procLoad is a test convenience.
func procLoad(bin *obj.Binary) (*proc.Process, error) {
	return proc.Load(bin, proc.Options{Threads: 1})
}

func TestShouldOptimizeGate(t *testing.T) {
	// A branchy, code-heavy program is worth optimizing...
	bin, _ := genProgram(t, 95, 1<<30)
	pr, c := newController(t, bin, Options{})
	pr.RunFor(0.0004)
	go1, td1 := c.ShouldOptimize(0.0004)
	if td1.FrontEnd <= 0 {
		t.Error("no TopDown data measured")
	}
	_ = go1 // small random programs may or may not pass the gate

	// ...a tight arithmetic loop is not.
	p2 := build.NewProgram("tight")
	m := p2.Func("main")
	m.Prologue(16)
	m.MovI(isa.R1, 0)
	m.While(func() { m.CmpI(isa.R1, 1<<40) }, isa.LT, func() {
		m.MulI(isa.R2, isa.R2, 3)
		m.AddI(isa.R1, isa.R1, 1)
	})
	m.Halt()
	p2.SetEntry("main")
	p2.SetNoJumpTables(true)
	bin2, err := p2.Assemble(asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := proc.Load(bin2, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(pr2, bin2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr2.RunFor(0.0003)
	goAhead, td := c2.ShouldOptimize(0.0004)
	if goAhead {
		t.Errorf("tight loop classified as front-end bound: %v", td)
	}
}

// TestContinuousMultithreaded: several threads, several rounds — every
// thread's stack gets crawled, live instances copied, PCs rewritten, and
// all threads still compute the right checksum.
func TestContinuousMultithreaded(t *testing.T) {
	if testing.Short() {
		t.Skip("multithreaded continuous run in -short mode")
	}
	bin, outAddr := genProgram(t, 97, 120000)
	want := plainRun(t, bin, outAddr)

	pr, err := proc.Load(bin, proc.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(pr, bin, Options{Bolt: bolt.Options{AllowReBolt: true}})
	if err != nil {
		t.Fatal(err)
	}
	pr.RunFor(0.0002)
	for round := 0; round < 3; round++ {
		if pr.Halted() {
			t.Fatalf("ended before round %d", round)
		}
		rr, err := c.OptimizeRound(0.0004)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		rs := rr.Replace
		if round > 0 && rs.StackFuncsCopied == 0 {
			t.Logf("round %d: no stack-live copies (threads may all sit in C0)", round)
		}
		pr.RunFor(0.0004)
		if err := pr.Fault(); err != nil {
			t.Fatalf("fault after round %d: %v", round, err)
		}
	}
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	if got := pr.Mem.ReadWord(outAddr); got != want {
		t.Errorf("checksum %d != %d", got, want)
	}
	for _, th := range pr.Threads {
		if !th.Halted {
			t.Errorf("thread %d never finished", th.ID)
		}
	}
}

// TestHeapSurvivesContinuousOptimization runs a guest that allocates heap
// through SysAlloc and keeps a sentinel there through more rounds than the
// ring has address slots, then reverts to C0. Each round writes the
// incoming version into its slot and garbage-collects the outgoing one's,
// so the heap must lie outside every slot: one that started at textBase(3)
// had version 3's text written over it and then unmapped.
func TestHeapSurvivesContinuousOptimization(t *testing.T) {
	const sentinel = 0x5EE_D5EE_D5EE_D5EE
	p := build.NewProgram("heapguest")
	p.SetNoJumpTables(true)
	heap := p.Global("heap", 8)
	out := p.Global("out", 8)

	leaf := p.Func("leaf")
	leaf.Prologue(0)
	leaf.AndI(isa.R1, isa.R0, 7)
	leaf.CmpI(isa.R1, 3)
	leaf.If(isa.LT, func() { leaf.MulI(isa.R0, isa.R0, 5) }, func() { leaf.XorI(isa.R0, isa.R0, 0x55) })
	leaf.EpilogueRet()

	mix := p.Func("mix")
	mix.Prologue(16)
	mix.Call("leaf")
	mix.AddI(isa.R0, isa.R0, 1)
	mix.Call("leaf")
	mix.EpilogueRet()

	m := p.Func("main")
	m.Prologue(32)
	m.MovI(isa.R0, 64)
	m.Sys(proc.SysAlloc)
	m.Mov(isa.R9, isa.R0)
	m.LoadGlobalAddr(isa.R1, heap)
	m.St(isa.R1, 0, isa.R9)
	m.MovI(isa.R2, sentinel)
	m.St(isa.R9, 0, isa.R2)
	m.MovI(isa.R7, 0)
	m.While(func() { m.CmpI(isa.R7, 1<<40) }, isa.LT, func() {
		m.Mov(isa.R0, isa.R7)
		m.Call("mix")
		m.LoadGlobalAddr(isa.R1, out)
		m.St(isa.R1, 0, isa.R0)
		m.AddI(isa.R7, isa.R7, 1)
	})
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
	heapAddr := asm.DataSymbols(prog, asm.Options{})[heap]

	pr, err := proc.Load(bin, proc.Options{Handler: proc.SyscallFunc(func(p *proc.Process, th *proc.Thread, num int64) error {
		proc.AllocSyscall(p, th)
		return nil
	})})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(pr, bin, Options{Bolt: bolt.Options{AllowReBolt: true}, Perf: perf.RecorderOptions{PeriodCycles: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	pr.RunFor(0.0002)
	block := pr.Mem.ReadWord(heapAddr)
	if block == 0 || pr.Mem.ReadWord(block) != sentinel {
		t.Fatalf("guest did not set up its heap block (at %#x)", block)
	}
	for round := 1; round <= versionSlots+4; round++ {
		var err error
		if round < versionSlots+4 {
			_, err = c.OptimizeRound(0.0004)
		} else {
			_, err = c.Revert()
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		pr.RunFor(0.0002)
		if err := pr.Fault(); err != nil {
			t.Fatalf("fault after round %d: %v", round, err)
		}
		if got := pr.Mem.ReadWord(block); got != sentinel {
			t.Fatalf("after round %d (version region %#x), heap block %#x holds %#x, want %#x",
				round, textBase(c.Version()), block, got, uint64(sentinel))
		}
	}
}
