package perf

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/build"
	"repro/internal/isa"
	"repro/internal/proc"
)

// loopProcess runs a branchy endless loop.
func loopProcess(t *testing.T) *proc.Process {
	t.Helper()
	p := build.NewProgram("loop")
	m := p.Func("main")
	m.Prologue(16)
	m.MovI(isa.R1, 0)
	m.While(func() { m.CmpI(isa.R1, 1<<40) }, isa.LT, func() {
		m.AndI(isa.R2, isa.R1, 7)
		m.CmpI(isa.R2, 3)
		m.If(isa.EQ, func() { m.AddI(isa.R3, isa.R3, 1) }, nil)
		m.AddI(isa.R1, isa.R1, 1)
	})
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
	return pr
}

func TestRecordCollectsSamples(t *testing.T) {
	pr := loopProcess(t)
	raw := Record(pr, 0.001, RecorderOptions{PeriodCycles: 10_000})
	if len(raw.Samples) == 0 || raw.Branches() == 0 {
		t.Fatal("no samples")
	}
	if raw.Seconds <= 0 {
		t.Error("duration not recorded")
	}
	// Each sample holds at most the LBR depth.
	for _, s := range raw.Samples {
		if len(s.Records) == 0 || len(s.Records) > 32 {
			t.Fatalf("sample with %d records", len(s.Records))
		}
	}
	// Records point into the text section.
	for _, r := range raw.Samples[0].Records {
		if r.From < 0x400000 || r.From > 0x500000 {
			t.Fatalf("branch record outside text: %#x", r.From)
		}
	}
}

func TestRecorderDetachesCleanly(t *testing.T) {
	pr := loopProcess(t)
	rec := Attach(pr, RecorderOptions{})
	pr.RunFor(0.0005)
	raw := rec.Stop()
	if len(raw.Samples) == 0 {
		t.Fatal("no samples before stop")
	}
	// After Stop, LBR recording is off.
	for _, th := range pr.Threads {
		if th.Core.LBREnabled {
			t.Error("LBR still enabled after Stop")
		}
	}
}

func TestNestedHooksCompose(t *testing.T) {
	pr := loopProcess(t)
	outerCalls := 0
	pr.AddSampleHook(func(*proc.Thread) { outerCalls++ })
	rec := Attach(pr, RecorderOptions{})
	pr.RunFor(0.0003)
	rec.Stop()
	if outerCalls == 0 {
		t.Error("pre-existing sample hook was not chained")
	}
	before := outerCalls
	pr.RunFor(0.0001)
	if outerCalls == before {
		t.Error("pre-existing hook gone after recorder Stop")
	}
}

func TestNoDuplicateRecordsAcrossSamples(t *testing.T) {
	// A loop with a long straight-line body retires far fewer than 32
	// branches per short period, so the LBR ring never wraps between PMIs:
	// if the recorder read the ring without draining it, consecutive
	// samples would repeat the same records and the profile would hold
	// more branch records than branches the program retired.
	p := build.NewProgram("slowloop")
	m := p.Func("main")
	m.Prologue(16)
	m.MovI(isa.R1, 0)
	m.While(func() { m.CmpI(isa.R1, 1<<40) }, isa.LT, func() {
		for i := 0; i < 200; i++ {
			m.AddI(isa.R2, isa.R2, 1)
		}
		m.AddI(isa.R1, isa.R1, 1)
	})
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
	before := pr.Stats()
	rec := Attach(pr, RecorderOptions{PeriodCycles: 1_000})
	pr.RunFor(0.0005)
	raw := rec.Stop()
	taken := pr.Stats().Sub(before).TakenBranches
	if len(raw.Samples) < 2 {
		t.Fatalf("want back-to-back samples, got %d", len(raw.Samples))
	}
	if uint64(raw.Branches()) > taken {
		t.Errorf("profile holds %d records but only %d branches retired (ring not drained?)",
			raw.Branches(), taken)
	}
}

func TestAttachChainStop(t *testing.T) {
	// attach → chain another hook → stop: the recorder must remove only
	// its own registration, not clobber the hook chained after it.
	pr := loopProcess(t)
	earlyCalls, lateCalls := 0, 0
	pr.AddSampleHook(func(*proc.Thread) { earlyCalls++ })
	rec := Attach(pr, RecorderOptions{})
	removeLate := pr.AddSampleHook(func(*proc.Thread) { lateCalls++ })
	pr.RunFor(0.0003)
	rec.Stop()
	if earlyCalls == 0 || lateCalls == 0 {
		t.Fatalf("hooks not called before stop: early=%d late=%d", earlyCalls, lateCalls)
	}
	e0, l0 := earlyCalls, lateCalls
	pr.RunFor(0.0001)
	if earlyCalls == e0 {
		t.Error("hook registered before attach clobbered by recorder Stop")
	}
	if lateCalls == l0 {
		t.Error("hook chained after attach clobbered by recorder Stop")
	}
	removeLate()
}

func TestThreadStartedAfterAttach(t *testing.T) {
	pr := loopProcess(t)
	rec := Attach(pr, RecorderOptions{PeriodCycles: 5_000})
	pr.RunFor(0.0002)
	// A thread created mid-session must be armed lazily, not panic on a
	// slice sized at Attach time.
	pr.StartThread(pr.Bin.Entry)
	pr.RunFor(0.0003)
	raw := rec.Stop()
	if len(raw.Samples) == 0 {
		t.Fatal("no samples")
	}
	for _, th := range pr.Threads {
		if th.Core.LBREnabled {
			t.Error("LBR still enabled after Stop")
		}
	}
}

func TestOverheadScalesWithPeriod(t *testing.T) {
	run := func(period float64) float64 {
		pr := loopProcess(t)
		pr.RunFor(0.0005)
		before := pr.Stats()
		Record(pr, 0.001, RecorderOptions{PeriodCycles: period})
		d := pr.Stats().Sub(before)
		return d.IPC()
	}
	fast := run(5_000)   // heavy sampling
	slow := run(100_000) // light sampling
	if fast >= slow {
		t.Errorf("heavier sampling should cost IPC: %f vs %f", fast, slow)
	}
}

func TestMeasureTopDown(t *testing.T) {
	pr := loopProcess(t)
	pr.RunFor(0.0005)
	st := MeasureTopDown(pr, 0.0005)
	if st.Instructions == 0 {
		t.Fatal("no instructions measured")
	}
	td := st.TopDown()
	sum := td.Retiring + td.FrontEnd + td.BadSpec + td.BackEnd
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("TopDown sums to %f", sum)
	}
}
