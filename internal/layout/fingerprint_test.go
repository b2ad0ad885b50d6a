package layout

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bolt"
	"repro/internal/cpu"
	"repro/internal/obj"
	"repro/internal/perf"
	"repro/internal/progtest"
)

// profileOf builds a raw profile with the given per-edge branch counts.
func profileOf(edges map[cpu.BranchRecord]uint64) *perf.RawProfile {
	raw := &perf.RawProfile{Seconds: 0.001}
	for rec, n := range edges {
		recs := make([]cpu.BranchRecord, n)
		for i := range recs {
			recs[i] = rec
		}
		raw.Samples = append(raw.Samples, perf.Sample{Records: recs})
	}
	return raw
}

var (
	edgeA = cpu.BranchRecord{From: 0x100, To: 0x200}
	edgeB = cpu.BranchRecord{From: 0x300, To: 0x400}
	edgeC = cpu.BranchRecord{From: 0x500, To: 0x600}
)

// TestProfileFingerprintQuantization is the cache's reuse premise:
// profiles that differ only by sampling jitter fingerprint identically,
// profiles with genuinely different hot paths do not.
func TestProfileFingerprintQuantization(t *testing.T) {
	base := ProfileFingerprint(profileOf(map[cpu.BranchRecord]uint64{
		edgeA: 1000, edgeB: 500, edgeC: 100,
	}))

	// ±5% per-edge jitter: every edge stays in its log2 bucket.
	perturbed := ProfileFingerprint(profileOf(map[cpu.BranchRecord]uint64{
		edgeA: 1040, edgeB: 480, edgeC: 104,
	}))
	if perturbed != base {
		t.Errorf("perturbed profile fingerprint diverged: %s vs %s", perturbed, base)
	}

	// An edge ~2^10 colder than the hottest is below the drop threshold
	// and must not change the summary.
	withNoise := ProfileFingerprint(profileOf(map[cpu.BranchRecord]uint64{
		edgeA: 1000, edgeB: 500, edgeC: 100,
		{From: 0x700, To: 0x800}: 1,
	}))
	if withNoise != base {
		t.Errorf("sub-threshold edge changed the fingerprint: %s vs %s", withNoise, base)
	}

	// Swapped hot set: same edges, different shape — must miss.
	divergent := ProfileFingerprint(profileOf(map[cpu.BranchRecord]uint64{
		edgeA: 100, edgeB: 500, edgeC: 1000,
	}))
	if divergent == base {
		t.Error("divergent hot shape collided with the base fingerprint")
	}

	// 16× thinner profile at identical shape: the total-volume term must
	// separate it (MinRecords is an absolute threshold).
	thin := ProfileFingerprint(profileOf(map[cpu.BranchRecord]uint64{
		edgeA: 62, edgeB: 31, edgeC: 6,
	}))
	if thin == base {
		t.Error("an order-of-magnitude thinner profile collided with the base")
	}

	if empty := ProfileFingerprint(&perf.RawProfile{}); empty == base {
		t.Error("empty profile collided with the base")
	}
}

// TestBinaryFingerprintContentAddressed: identical images (built twice
// from the same seed) share a fingerprint; a different program does not.
func TestBinaryFingerprintContentAddressed(t *testing.T) {
	gen := func(seed int64) string {
		prog, _, err := progtest.Generate(progtest.Options{Funcs: 8, MainIters: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		bin, err := asm.Assemble(prog, asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return BinaryFingerprint(bin)
	}
	if gen(7) != gen(7) {
		t.Error("same program built twice fingerprinted differently")
	}
	if gen(7) == gen(8) {
		t.Error("different programs collided")
	}
}

// TestBinaryFingerprintAllocs: fingerprinting a binary allocates the
// same whatever its function count. Every name goes through hash.Hash's
// Write, where a []byte(name) conversion escapes, so str must copy into
// a buffer it reuses.
func TestBinaryFingerprintAllocs(t *testing.T) {
	allocs := func(funcs int) float64 {
		prog, _, err := progtest.Generate(progtest.Options{Funcs: funcs, MainIters: 100, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		bin, err := asm.Assemble(prog, asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { BinaryFingerprint(bin) })
	}
	if few, many := allocs(8), allocs(128); many > few {
		t.Errorf("BinaryFingerprint allocates %.0f times on 128 functions, %.0f on 8", many, few)
	}
}

// TestBinaryFingerprintZeroFill: zero-fill is hashed by size, so a
// section with a zero-fill tail and its twin with the zeros spelled out
// share a key, while a different total size or a nonzero byte in the
// tail separates them.
func TestBinaryFingerprintZeroFill(t *testing.T) {
	prog, _, err := progtest.Generate(progtest.Options{Funcs: 8, MainIters: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	prog.Globals = append(prog.Globals,
		&asm.Global{Name: "zf_init", Size: 8, Init: []byte{9}},
		&asm.Global{Name: "zf_heap", Size: 1 << 16})
	sparse, err := asm.Assemble(prog, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	explicit := func(extra uint64) *obj.Binary {
		b := sparse.Clone()
		d := b.Section(obj.SecData)
		d.Data = append(d.Data, make([]byte, d.Zero+extra)...)
		d.Zero = 0
		return b
	}
	if sparse.Section(obj.SecData).Zero < 1<<16 {
		t.Fatal("assembler emitted no zero-fill tail")
	}
	base := BinaryFingerprint(sparse)
	if got := BinaryFingerprint(explicit(0)); got != base {
		t.Errorf("explicit-zeros twin fingerprinted %s, zero-fill %s", got, base)
	}
	if BinaryFingerprint(explicit(8)) == base {
		t.Error("a larger section fingerprinted like the original")
	}
	grown := sparse.Clone()
	grown.Section(obj.SecData).Zero += 8
	if BinaryFingerprint(grown) == base {
		t.Error("a larger zero-fill tail fingerprinted like the original")
	}
	dirty := explicit(0)
	d := dirty.Section(obj.SecData)
	d.Data[len(d.Data)-100] = 1
	if BinaryFingerprint(dirty) == base {
		t.Error("a nonzero byte in the tail fingerprinted like the original")
	}
}

// TestOptionsFingerprint: layout-affecting knobs separate keys; map
// iteration order of the pin table does not.
func TestOptionsFingerprint(t *testing.T) {
	base := bolt.Options{TextBase: 0x2000_0000, MinRecords: 8,
		PinBase: map[string]uint64{"a": 1, "b": 2, "c": 3}}
	same := bolt.Options{TextBase: 0x2000_0000, MinRecords: 8,
		PinBase: map[string]uint64{"c": 3, "b": 2, "a": 1}}
	if OptionsFingerprint(base) != OptionsFingerprint(same) {
		t.Error("equal options fingerprinted differently")
	}
	diff := base
	diff.MinRecords = 16
	if OptionsFingerprint(base) == OptionsFingerprint(diff) {
		t.Error("MinRecords change did not separate the keys")
	}
	diff = base
	diff.TextBase = 0x3000_0000
	if OptionsFingerprint(base) == OptionsFingerprint(diff) {
		t.Error("TextBase change did not separate the keys")
	}
}
