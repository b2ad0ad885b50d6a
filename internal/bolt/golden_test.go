package bolt_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
	"testing"

	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/workloads/docdb"
	"repro/internal/workloads/kvcache"
	"repro/internal/workloads/loopsim"
	"repro/internal/workloads/rtlsim"
	"repro/internal/workloads/sqldb"
	"repro/internal/workloads/wl"
)

// goldenGuests are the five paper guests, each profiled on one input.
var goldenGuests = []struct {
	name, input string
	build       func() (*wl.Workload, error)
}{
	{"sqldb", "read_only", func() (*wl.Workload, error) { return sqldb.Build(sqldb.Full()) }},
	{"docdb", "read_update", func() (*wl.Workload, error) { return docdb.Build(docdb.Full()) }},
	{"kvcache", "set10_get90", func() (*wl.Workload, error) { return kvcache.Build(kvcache.Full()) }},
	{"rtlsim", "dhrystone", func() (*wl.Workload, error) { return rtlsim.Build(rtlsim.Full()) }},
	{"loopsim", "steady", func() (*wl.Workload, error) { return loopsim.Build(loopsim.Full()) }},
}

// Golden digests of the optimizer's output. They pin every emitted byte,
// the function/v-table/jump-table maps, the AddrMap, the OSRMap and the
// layout decision record: a change to the optimizer, emitter or linker
// that is meant to be a pure refactor must leave all of them unchanged.
// Only a change that alters layouts on purpose may re-record them.
var (
	goldenOffline = map[string]string{
		"sqldb":   "73fa0fffdf59759d5330c8a4c6c4518a52db39cbf5bbd3a592f72570efd64871",
		"docdb":   "f9ff3a8b6d3f16b4e2d8a40ad399ed53b4358ba73406ae7224fc08dcd0c9adba",
		"kvcache": "2632eedb60e94c0e395ba337ee5653e9ad1d07fb539b364be004466cb6edb1b5",
		"rtlsim":  "44e0d88430cc24127b64b3d234a01452cb18ca1022e3af9491b5c14434f376d8",
		"loopsim": "cd82c1eabe9ff84d0be5a43f8e2754da167391d493eba561eede4c198eec4eaa",
	}
	// goldenReBolt are the three rounds of a continuous-optimization chain
	// on sqldb: each round re-BOLTs the image the previous one injected.
	goldenReBolt = []string{
		"dbbb4d4b1f742ba117c72192059453731b664720788f1bb2ce8061cff3921b63",
		"b51d3c0f1a18c44d9e6d5b3da607e426f4b949818bc84b478c340329292c1b42",
		"a4d45895dbeec7eb989f207432bb8245d52caa4ec0c5922dad010d5389b23f8f",
	}
)

// resultDigest hashes one optimization result: the binary's layout
// fingerprint plus the maps the fingerprint leaves out (AddrMap, OSRMap,
// OrgRanges) and the decision record (Layout).
func resultDigest(res *bolt.Result) string {
	h := sha256.New()
	h.Write([]byte(layout.BinaryFingerprint(res.Binary)))
	b := res.Binary
	for _, k := range sortedKeys(b.AddrMap) {
		u64(h, k, b.AddrMap[k])
	}
	h.Write([]byte("osr"))
	for _, k := range sortedKeys(b.OSRMap) {
		u64(h, k, uint64(len(b.OSRMap[k])))
		for _, p := range b.OSRMap[k] {
			u64(h, p.OldOff, p.NewOff, uint64(p.Kind))
		}
	}
	h.Write([]byte("org"))
	for _, r := range b.OrgRanges {
		h.Write([]byte(r.Name))
		u64(h, r.Lo, r.Hi)
	}
	h.Write([]byte("layout"))
	u64(h, uint64(len(res.Layout.FuncOrder)))
	u64(h, res.Layout.FuncOrder...)
	for _, k := range sortedKeys(res.Layout.BlockOrder) {
		u64(h, k, uint64(len(res.Layout.BlockOrder[k])))
		for _, bi := range res.Layout.BlockOrder[k] {
			u64(h, uint64(bi))
		}
	}
	u64(h, uint64(res.FuncsReordered), uint64(res.FuncsSplit), res.NewTextBytes)
	return hex.EncodeToString(h.Sum(nil))
}

func u64(h hash.Hash, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// loadGuest starts w under its input's driver and runs a short warm-up.
func loadGuest(t *testing.T, w *wl.Workload, input string) *proc.Process {
	t.Helper()
	d, err := w.NewDriver(input, w.Threads)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Load(d, w.Threads)
	if err != nil {
		t.Fatal(err)
	}
	p.RunFor(0.0005)
	return p
}

// TestGoldenOptimizeDigest BOLTs each paper guest from a profile recorded
// in a fixed short window and compares the result with its golden digest.
func TestGoldenOptimizeDigest(t *testing.T) {
	for _, g := range goldenGuests {
		t.Run(g.name, func(t *testing.T) {
			w, err := g.build()
			if err != nil {
				t.Fatal(err)
			}
			p := loadGuest(t, w, g.input)
			raw := perf.Record(p, 0.001, perf.RecorderOptions{})
			if err := p.Fault(); err != nil {
				t.Fatal(err)
			}
			prof, err := bolt.ConvertProfile(raw, w.Binary)
			if err != nil {
				t.Fatal(err)
			}
			res, err := bolt.Optimize(w.Binary, prof, bolt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.FuncsReordered == 0 || res.FuncsSplit == 0 {
				t.Fatalf("moved %d, split %d functions: the window is too short to exercise the emitter",
					res.FuncsReordered, res.FuncsSplit)
			}
			if got, want := resultDigest(res), goldenOffline[g.name]; got != want {
				t.Errorf("digest %s, golden %s", got, want)
			}
		})
	}
}

// TestGoldenReBoltChainDigest runs three continuous-optimization rounds on
// sqldb, each re-BOLTing the image the last one injected, and compares
// every round's result with its golden digest.
func TestGoldenReBoltChainDigest(t *testing.T) {
	w, err := sqldb.Build(sqldb.Full())
	if err != nil {
		t.Fatal(err)
	}
	p := loadGuest(t, w, "read_only")
	c, err := core.New(p, w.Binary, core.Options{Bolt: bolt.Options{AllowReBolt: true}})
	if err != nil {
		t.Fatal(err)
	}
	for round, want := range goldenReBolt {
		rr, err := c.OptimizeRound(0.001)
		if err != nil {
			t.Fatalf("round %d: %v", round+1, err)
		}
		res := rr.Build.Result
		if res.FuncsSplit == 0 {
			t.Fatalf("round %d: no function split", round+1)
		}
		if got := resultDigest(res); got != want {
			t.Errorf("round %d: digest %s, golden %s", round+1, got, want)
		}
		p.RunFor(0.0005)
	}
	if err := p.Fault(); err != nil {
		t.Fatal(err)
	}
}
