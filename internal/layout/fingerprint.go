package layout

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"repro/internal/bolt"
	"repro/internal/cpu"
	"repro/internal/obj"
	"repro/internal/perf"
)

// fpWriter accumulates length-prefixed fields into a sha256, so two
// different field sequences can never collide by concatenation.
type fpWriter struct {
	h       hash.Hash
	scratch [8]byte
	buf     []byte // reused by str: a []byte(s) passed to Write escapes
}

func newFP() *fpWriter { return &fpWriter{h: sha256.New()} }

func (w *fpWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:], v)
	w.h.Write(w.scratch[:])
}

func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf[:0], s...)
	w.h.Write(w.buf)
}

func (w *fpWriter) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.h.Write(b)
}

func (w *fpWriter) bool(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

// sum renders the digest in its short printable form. 96 bits is far
// beyond what a fleet's worth of distinct images/profiles can collide.
func (w *fpWriter) sum() string {
	return hex.EncodeToString(w.h.Sum(nil)[:12])
}

// BinaryFingerprint content-addresses an obj image: every section's
// memory image plus the symbol metadata the optimizer reads (function
// table, block spans, v-tables, jump tables, entry, flags). A section is
// hashed as its name, address and total size (zero-fill included) and
// its bytes up to the last nonzero one, so zero-fill is hashed by size
// and two representations of the same memory (explicit trailing zeros or
// a zero-fill tail) get the same key. Two binaries with equal
// fingerprints produce identical optimizer inputs, so a layout computed
// for one is byte-for-byte valid for the other — the "identical binaries
// across the fleet" premise of optimize-once.
func BinaryFingerprint(b *obj.Binary) string {
	w := newFP()
	w.u64(b.Entry)
	w.bool(b.Bolted)
	w.bool(b.NoJumpTables)
	secs := append([]*obj.Section(nil), b.Sections...)
	sort.Slice(secs, func(i, j int) bool {
		if secs[i].Name != secs[j].Name {
			return secs[i].Name < secs[j].Name
		}
		return secs[i].Addr < secs[j].Addr
	})
	for _, s := range secs {
		w.str(s.Name)
		w.u64(s.Addr)
		w.u64(s.End() - s.Addr)
		w.bytes(bytes.TrimRight(s.Data, "\x00"))
	}
	w.u64(uint64(len(b.Funcs)))
	for _, f := range b.Funcs { // sorted by Addr per obj contract
		w.str(f.Name)
		w.u64(f.Addr)
		w.u64(f.Size)
		w.u64(f.ColdAddr)
		w.u64(f.ColdSize)
		w.u64(uint64(len(f.Blocks)))
		for _, blk := range f.Blocks {
			w.u64(uint64(blk.Off))
			w.u64(uint64(blk.Size))
		}
	}
	w.u64(uint64(len(b.VTables)))
	for _, vt := range b.VTables {
		w.str(vt.Name)
		w.u64(vt.Addr)
		for _, slot := range vt.Slots {
			w.u64(slot)
		}
	}
	w.u64(uint64(len(b.JumpTables)))
	for _, jt := range b.JumpTables {
		w.str(jt.Name)
		w.u64(jt.Addr)
		for _, t := range jt.Targets {
			w.u64(t)
		}
	}
	return w.sum()
}

// Profile quantization constants: edges are normalized against the
// hottest edge and bucketed on a log2 scale, so counts within ~√2 of
// each other land in the same bucket; edges colder than the hottest by
// more than dropBelowBucket doublings are dropped from the summary
// entirely. Together these make the fingerprint a function of the
// profile's hot *shape*, not its sampling noise.
const dropBelowBucket = -8

// EdgeCounts aggregates a raw LBR profile into per-edge record counts
// plus the total record volume — the histogram both the fingerprint
// below and the drift detector's divergence score (internal/profile)
// are computed from, so the two always agree on what "the profile's
// edges" are.
func EdgeCounts(raw *perf.RawProfile) (counts map[cpu.BranchRecord]uint64, total uint64) {
	counts = make(map[cpu.BranchRecord]uint64)
	for _, s := range raw.Samples {
		for _, r := range s.Records {
			counts[r]++
			total++
		}
	}
	return counts, total
}

// ProfileFingerprint summarizes a raw LBR profile as a quantized,
// normalized hot-branch histogram and hashes it. Two profiles of the
// same code whose per-edge frequencies differ only by sampling jitter
// (different sample phases, slightly different window alignment)
// quantize to the same fingerprint and hit the same cache entry;
// profiles with genuinely different hot paths (another input mix,
// another phase of the workload) diverge.
func ProfileFingerprint(raw *perf.RawProfile) string {
	counts, total := EdgeCounts(raw)
	w := newFP()
	if total == 0 {
		w.u64(0)
		return w.sum()
	}
	var max uint64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	type edge struct {
		rec    cpu.BranchRecord
		bucket int64
	}
	edges := make([]edge, 0, len(counts))
	for rec, c := range counts {
		b := int64(math.Round(math.Log2(float64(c) / float64(max))))
		if b < dropBelowBucket {
			continue
		}
		edges = append(edges, edge{rec: rec, bucket: b})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].rec.From != edges[j].rec.From {
			return edges[i].rec.From < edges[j].rec.From
		}
		return edges[i].rec.To < edges[j].rec.To
	})
	// Order-of-magnitude of the total volume: the optimizer's absolute
	// hotness threshold (MinRecords) means a 10× thinner profile can
	// legitimately choose a different hot set even at identical shape.
	w.u64(uint64(math.Round(math.Log2(float64(total)))))
	w.u64(uint64(len(edges)))
	for _, e := range edges {
		w.u64(e.rec.From)
		w.u64(e.rec.To)
		w.u64(uint64(e.bucket))
	}
	return w.sum()
}

// OptionsFingerprint hashes every optimizer knob that changes the
// emitted layout or its link addresses, including the pin map. Two
// optimization requests with equal binary, profile, and options
// fingerprints are interchangeable.
func OptionsFingerprint(o bolt.Options) string {
	w := newFP()
	w.u64(o.TextBase)
	w.u64(o.ROBase)
	w.str(string(o.FuncOrder))
	w.u64(o.MinRecords)
	w.bool(o.NoReorderBlocks)
	w.bool(o.NoSplit)
	w.bool(o.NoPeephole)
	w.bool(o.AllowReBolt)
	names := make([]string, 0, len(o.PinBase))
	for n := range o.PinBase {
		names = append(names, n)
	}
	sort.Strings(names)
	w.u64(uint64(len(names)))
	for _, n := range names {
		w.str(n)
		w.u64(o.PinBase[n])
	}
	return w.sum()
}

// KeyFor derives the full content-addressed cache key for one
// optimization request.
func KeyFor(bin *obj.Binary, raw *perf.RawProfile, opts bolt.Options) Key {
	return Key{
		Binary:  BinaryFingerprint(bin),
		Profile: ProfileFingerprint(raw),
		Opts:    OptionsFingerprint(opts),
	}
}
