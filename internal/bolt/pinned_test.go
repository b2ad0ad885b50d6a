package bolt_test

import (
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/obj"
	"repro/internal/progtest"
	"repro/internal/workloads/sqldb"
)

// checkPinned compares relocation with the identity lift on every function
// of bin and returns how many of them were split, and how many own a jump
// table.
func checkPinned(t *testing.T, bin *obj.Binary) (split, jtOwners int) {
	t.Helper()
	owners := make(map[string]bool)
	for _, jt := range bin.JumpTables {
		owners[jt.Owner] = true
	}
	for _, fn := range bin.Funcs {
		_, perr, diff := bolt.PinnedVsLift(bin, fn)
		if diff != nil {
			t.Fatalf("%s: %v", bin.Name, diff)
		}
		if perr != nil {
			t.Fatalf("%s: %v", bin.Name, perr)
		}
		if fn.ColdSize > 0 {
			split++
		}
		if owners[fn.Name] {
			jtOwners++
		}
	}
	return split, jtOwners
}

// TestPinnedRelocationOracle: on every function of the paper guests, of
// each input of a three-round sqldb re-BOLT chain, and of generated
// programs with and without jump tables, relocating the function from its
// input bytes gives the fragment the identity lift gives.
func TestPinnedRelocationOracle(t *testing.T) {
	for _, g := range goldenGuests {
		w, err := g.build()
		if err != nil {
			t.Fatal(err)
		}
		checkPinned(t, w.Binary)
	}

	// Each round re-BOLTs the last round's output, whose functions that
	// were split this round are pinned and joined if they fall cold.
	w, err := sqldb.Build(sqldb.Full())
	if err != nil {
		t.Fatal(err)
	}
	p := loadGuest(t, w, "read_only")
	c, err := core.New(p, w.Binary, core.Options{Bolt: bolt.Options{AllowReBolt: true}})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []*obj.Binary{w.Binary}
	for round := 1; round < 3; round++ {
		rr, err := c.OptimizeRound(0.001)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		inputs = append(inputs, rr.Build.Result.Binary)
		p.RunFor(0.0005)
	}
	split := 0
	for _, in := range inputs {
		s, _ := checkPinned(t, in)
		split += s
	}
	if split == 0 {
		t.Error("no split function in the re-BOLT chain's inputs")
	}

	for _, jumpTables := range []bool{false, true} {
		owners := 0
		for seed := int64(200); seed < 206; seed++ {
			prog, _, err := progtest.Generate(progtest.Options{Funcs: 9, MainIters: 10, Seed: seed, JumpTables: jumpTables})
			if err != nil {
				t.Fatal(err)
			}
			bin, err := asm.Assemble(prog, asm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, o := checkPinned(t, bin)
			owners += o
		}
		if jumpTables && owners == 0 {
			t.Error("no generated program owns a jump table")
		}
	}
}

// TestOptimizePinnedAllocation bounds what Optimize allocates when it
// moves nothing: with MinRecords above every profile count, every
// function is relocated from its input bytes, so the allocation is the
// output image plus per-function bookkeeping. Lifting every function into
// a CFG and re-encoding it cost 8-9x the output code bytes.
func TestOptimizePinnedAllocation(t *testing.T) {
	const maxRatio = 2.5
	for _, g := range goldenGuests {
		w, err := g.build()
		if err != nil {
			t.Fatal(err)
		}
		bin := w.Binary
		prof := &bolt.Profile{Funcs: map[uint64]*bolt.FuncProfile{bin.Entry: {Entry: bin.Entry, Records: 1}}}
		opts := bolt.Options{MinRecords: 2}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := bolt.Optimize(bin, prof, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.FuncsReordered != 0 {
			t.Fatalf("%s: %d functions moved", g.name, res.FuncsReordered)
		}
		var code uint64
		for _, s := range res.Binary.Sections {
			if s.Name == obj.SecText || s.Name == obj.SecOrgText || s.Name == obj.SecColdText {
				code += uint64(len(s.Data))
			}
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		ratio := float64(alloc) / float64(code)
		t.Logf("%s: allocated %d bytes for %d code bytes (%.2fx)", g.name, alloc, code, ratio)
		if ratio > maxRatio {
			t.Errorf("%s: allocated %.2fx the output code bytes, want at most %.1fx", g.name, ratio, maxRatio)
		}
	}
}
