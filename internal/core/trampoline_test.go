package core

import (
	"testing"

	"repro/internal/bolt"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/workloads/sqldb"
)

// TestTrampolinesPreserveSemantics: the redirect-all mode (§IV-B) must
// not change program results, including across continuous rounds where
// trampolines are retargeted or removed.
func TestTrampolinesPreserveSemantics(t *testing.T) {
	bin, outAddr := genProgram(t, 81, 150000)
	want := plainRun(t, bin, outAddr)

	pr, c := newController(t, bin, Options{
		Trampolines: true,
		Bolt:        bolt.Options{AllowReBolt: true},
	})
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
		if rs.TrampolinesWritten == 0 {
			t.Errorf("round %d: no trampolines written", round)
		}
		pr.RunFor(0.0003)
		if err := pr.Fault(); err != nil {
			t.Fatalf("fault after round %d: %v", round, err)
		}
	}
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	if got := pr.Mem.ReadWord(outAddr); got != want {
		t.Errorf("checksum with trampolines %d != %d", got, want)
	}
}

// TestTrampolinesSteerWithoutVTables: with v-table patching disabled,
// trampolines alone must still pull execution into the optimized code —
// every call through a stale C0 pointer bounces at the function entry.
func TestTrampolinesSteerWithoutVTables(t *testing.T) {
	bin, _ := genProgram(t, 82, 1<<30)
	pr, c := newController(t, bin, Options{Trampolines: true, NoPatchVTables: true, NoPatchStackCalls: true})
	pr.RunFor(0.0003)
	if _, err := c.OptimizeRound(0.0005); err != nil {
		t.Fatal(err)
	}
	pr.RunFor(0.0003)
	raw := perf.Record(pr, 0.0005, perf.RecorderOptions{PeriodCycles: 2000})
	var inOpt, total int
	for _, s := range raw.Samples {
		for _, r := range s.Records {
			total++
			if r.From >= firstTextBase {
				inOpt++
			}
		}
	}
	if total == 0 {
		t.Fatal("no samples")
	}
	if frac := float64(inOpt) / float64(total); frac < 0.5 {
		t.Errorf("only %.1f%% of branches in optimized code despite trampolines", frac*100)
	}
}

// TestTrampolinesRetireFuncPtrResidue: sqldb reaches agg_reduce only
// through a function pointer, which the C0 invariant keeps aimed at the
// original body. By default that body keeps executing after replacement;
// with trampolines (§IV-B redirect-all) every such call bounces to C1 at
// the entry, so no branch executes inside the C0 body past offset 0.
func TestTrampolinesRetireFuncPtrResidue(t *testing.T) {
	residue := func(opts Options) int {
		w, err := sqldb.Build(sqldb.Small())
		if err != nil {
			t.Fatal(err)
		}
		d, err := w.NewDriver("read_only", 4)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := proc.Load(w.Binary, proc.Options{Threads: 4, Handler: d})
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(pr, w.Binary, opts)
		if err != nil {
			t.Fatal(err)
		}
		pr.RunFor(0.002)
		if _, err := c.OptimizeRound(0.004); err != nil {
			t.Fatal(err)
		}
		pr.RunFor(0.002)
		raw := perf.Record(pr, 0.003, perf.RecorderOptions{})
		if err := pr.Fault(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, s := range raw.Samples {
			for _, r := range s.Records {
				// off > 0 skips the trampoline's own bounce jump.
				if f, off, _ := w.Binary.Lookup(r.From); f != nil && f.Name == "agg_reduce" && off > 0 {
					n++
				}
			}
		}
		return n
	}
	if n := residue(Options{}); n == 0 {
		t.Error("default mode: no branch in agg_reduce's C0 body; the test no longer exercises a stale pointer")
	}
	if n := residue(Options{Trampolines: true}); n != 0 {
		t.Errorf("trampolines: %d branches still execute in agg_reduce's C0 body", n)
	}
}

// TestTrampolinesRemovedOnRevert: after Revert, C0 entries hold their
// original bytes again and execution completes correctly.
func TestTrampolinesRemovedOnRevert(t *testing.T) {
	bin, outAddr := genProgram(t, 83, 120000)
	want := plainRun(t, bin, outAddr)

	pr, c := newController(t, bin, Options{Trampolines: true})
	pr.RunFor(0.0002)
	if _, err := c.OptimizeRound(0.0004); err != nil {
		t.Fatal(err)
	}
	// Some entry was trampolined.
	trampolined := false
	for name, c0 := range c.c0Entry {
		if c.curOf[name] != c0 {
			got := make([]byte, 16)
			pr.Mem.Read(c0, got)
			orig, _ := bin.Bytes(c0, 16)
			if string(got) != string(orig) {
				trampolined = true
			}
		}
	}
	if !trampolined {
		t.Fatal("no entry was trampolined")
	}
	if _, err := c.Revert(); err != nil {
		t.Fatal(err)
	}
	// All entries restored.
	for _, c0 := range c.c0Entry {
		got := make([]byte, 16)
		pr.Mem.Read(c0, got)
		orig, _ := bin.Bytes(c0, 16)
		if string(got) != string(orig) {
			t.Fatalf("entry %#x not restored after revert", c0)
		}
	}
	pr.RunUntilHalt(0)
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	if got := pr.Mem.ReadWord(outAddr); got != want {
		t.Errorf("checksum after revert %d != %d", got, want)
	}
}

// TestParallelPatchShortensPause: the §IV-D optimization reduces modeled
// replacement time without changing behavior.
func TestParallelPatchShortensPause(t *testing.T) {
	bin, outAddr := genProgram(t, 84, 120000)
	want := plainRun(t, bin, outAddr)

	run := func(opts Options) (float64, uint64) {
		pr, c := newController(t, bin, opts)
		pr.RunFor(0.0002)
		rr, err := c.OptimizeRound(0.0004)
		if err != nil {
			t.Fatal(err)
		}
		rs := rr.Replace
		pr.RunUntilHalt(0)
		if err := pr.Fault(); err != nil {
			t.Fatal(err)
		}
		return rs.PauseSeconds, pr.Mem.ReadWord(outAddr)
	}
	serialPause, out1 := run(Options{PatchAllCalls: true})
	parallelPause, out2 := run(Options{PatchAllCalls: true, ParallelPatch: true})
	if out1 != want || out2 != want {
		t.Errorf("outputs %d/%d != %d", out1, out2, want)
	}
	if parallelPause >= serialPause {
		t.Errorf("parallel patching pause %.4f >= serial %.4f", parallelPause, serialPause)
	}
}
