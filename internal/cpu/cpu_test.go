package cpu

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

func newTestCore() *Core {
	cfg := DefaultConfig()
	return NewCore(0, cfg, NewShared(cfg))
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := newCache(32*1024, 8, 64)
	if c.access(0x400000) {
		t.Error("cold access should miss")
	}
	if !c.access(0x400000) || !c.access(0x400030) {
		t.Error("same line should hit")
	}
	if c.access(0x400040) {
		t.Error("next line should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Tiny cache: 2 sets x 2 ways, 64B lines = 256 bytes.
	c := newCache(256, 2, 64)
	// All these map to set 0 (line addr multiples of 2*64).
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.access(a)
	c.access(b)
	c.access(a) // a most recent
	c.access(d) // evicts b
	if !c.probe(a) {
		t.Error("a should survive (MRU)")
	}
	if c.probe(b) {
		t.Error("b should be evicted (LRU)")
	}
	if !c.probe(d) {
		t.Error("d should be present")
	}
}

func TestCacheCapacityThrash(t *testing.T) {
	c := newCache(32*1024, 8, 64)
	// Touch 64 KiB of lines twice: second pass still misses everywhere
	// because the working set is 2x capacity (LRU thrash).
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 64*1024; addr += 64 {
			c.access(addr)
		}
	}
	if c.misses < c.accesses*9/10 {
		t.Errorf("thrash should miss nearly always: %d/%d", c.misses, c.accesses)
	}
	// A working set half the capacity hits on the second pass.
	c2 := newCache(32*1024, 8, 64)
	for addr := uint64(0); addr < 16*1024; addr += 64 {
		c2.access(addr)
	}
	m1 := c2.misses
	for addr := uint64(0); addr < 16*1024; addr += 64 {
		c2.access(addr)
	}
	if c2.misses != m1 {
		t.Errorf("fitting working set should fully hit on pass 2 (%d new misses)", c2.misses-m1)
	}
}

func TestGshareLearnsBias(t *testing.T) {
	g := newGshare(12)
	pc := uint64(0x400040)
	for i := 0; i < 100; i++ {
		g.update(pc, true)
	}
	if !g.predict(pc) {
		t.Error("always-taken branch should predict taken")
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	g := newGshare(12)
	pc := uint64(0x400080)
	// Alternating T/N/T/N is history-predictable.
	for i := 0; i < 4096; i++ {
		g.update(pc, i%2 == 0)
	}
	correct := 0
	for i := 0; i < 1000; i++ {
		if g.predict(pc) == (i%2 == 0) {
			correct++
		}
		g.update(pc, i%2 == 0)
	}
	if correct < 950 {
		t.Errorf("alternating pattern predicted %d/1000", correct)
	}
}

func TestRAS(t *testing.T) {
	r := newRAS(4)
	r.push(1)
	r.push(2)
	if v, ok := r.pop(); !ok || v != 2 {
		t.Errorf("pop = %d,%v", v, ok)
	}
	if v, ok := r.pop(); !ok || v != 1 {
		t.Errorf("pop = %d,%v", v, ok)
	}
	if _, ok := r.pop(); ok {
		t.Error("underflow should report not-ok")
	}
	// Overflow wraps: deepest entries lost.
	for i := 1; i <= 6; i++ {
		r.push(uint64(i))
	}
	for want := 6; want >= 3; want-- {
		if v, ok := r.pop(); !ok || v != uint64(want) {
			t.Errorf("pop = %d,%v want %d", v, ok, want)
		}
	}
	if _, ok := r.pop(); ok {
		t.Error("entries beyond depth should be lost")
	}
}

func TestBTB(t *testing.T) {
	b := newBTB(16, 4) // 4 sets of 4 ways
	if _, hit := b.predictUpdate(0x400000, 0x500000); hit {
		t.Error("cold BTB should miss")
	}
	if tgt, hit := b.predictUpdate(0x400000, 0x600000); !hit || tgt != 0x500000 {
		t.Errorf("predictUpdate = %#x,%v, want the stored 0x500000 and a hit", tgt, hit)
	}
	if tgt, hit := b.predictUpdate(0x400000, 0x600000); !hit || tgt != 0x600000 {
		t.Errorf("predictUpdate = %#x,%v, want the retarget 0x600000 stored", tgt, hit)
	}

	// Four PCs of one set (a set is every fourth 16-byte slot), then the
	// oldest, pc[0], retargeted: that makes pc[1] the least recent, so a
	// fifth PC evicts pc[1] and keeps pc[0].
	b = newBTB(16, 4)
	var pc [5]uint64
	for i := range pc {
		pc[i] = 0x400000 + uint64(i)*4*16
	}
	for _, p := range pc[:4] {
		b.predictUpdate(p, p+1)
	}
	b.predictUpdate(pc[0], 0x700000)
	if _, hit := b.predictUpdate(pc[4], pc[4]+1); hit {
		t.Error("fifth PC of a 4-way set should miss")
	}
	for _, p := range []uint64{pc[0], pc[2], pc[3], pc[4]} {
		if _, hit := b.predictUpdate(p, p+1); !hit {
			t.Errorf("PC %#x was evicted; only the least recent pc[1] should be", p)
		}
	}
	if _, hit := b.predictUpdate(pc[1], pc[1]+1); hit {
		t.Error("the least recent PC should have been evicted")
	}
}

func TestLBRRing(t *testing.T) {
	l := newLBR(4)
	for i := 1; i <= 6; i++ {
		l.record(uint64(i), uint64(i*10))
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	// Oldest-first: 3,4,5,6.
	for i, want := range []uint64{3, 4, 5, 6} {
		if snap[i].From != want {
			t.Errorf("snap[%d].From = %d, want %d", i, snap[i].From, want)
		}
	}
}

func TestFetchSequentialIsCheap(t *testing.T) {
	c := newTestCore()
	c.Fetch(0x400000)
	after := c.Cycles()
	c.Fetch(0x400010) // same 64B line
	c.Fetch(0x400020)
	if c.Cycles() != after {
		t.Error("same-line fetches should be free")
	}
	// The cold next line was prefetched into the L2 only (a single
	// next-line prefetcher cannot outrun DRAM latency), so fetching it
	// costs an L2 hit — cheaper than the cold miss but not free.
	c.Fetch(0x400040)
	l2Cost := c.Cycles() - after
	if l2Cost <= 0 || l2Cost > c.Config().L2Lat {
		t.Errorf("prefetched-to-L2 next line cost %.1f, want (0,%v]", l2Cost, c.Config().L2Lat)
	}
	// Once the stream is L2-resident, the prefetcher hides it fully.
	c.lastFetchLine = 0
	c.Fetch(0x400040) // L1i hit now
	c.Fetch(0x400080) // was streamed into L1i from L2
	if c.Cycles() != after+l2Cost {
		t.Error("L2-resident sequential stream should fetch for free")
	}
	c.Fetch(0x402000) // far line: genuine cold miss
	if c.Cycles() <= after+l2Cost+c.Config().L2Lat {
		t.Error("non-sequential cold fetch should cost more than an L2 hit")
	}
}

func TestFetchHotLoopNoStalls(t *testing.T) {
	c := newTestCore()
	// Warm a small loop, then re-fetch: no front-end stalls.
	for pass := 0; pass < 2; pass++ {
		for pc := uint64(0x400000); pc < 0x400400; pc += 16 {
			c.Fetch(pc)
		}
		c.lastFetchLine, c.lastFetchPage = 0, 0
	}
	before := c.StatsSnapshot().FEStallCycles
	c.lastFetchLine, c.lastFetchPage = 0, 0
	for pc := uint64(0x400000); pc < 0x400400; pc += 16 {
		c.Fetch(pc)
	}
	if c.StatsSnapshot().FEStallCycles != before {
		t.Error("warm loop fetch should not stall")
	}
}

func TestFetchGeometryDerivedFromConfig(t *testing.T) {
	// 128 B lines: the second fetch lands in the same (wider) line and must
	// coalesce. With a hardcoded 64 B shift the line path re-runs there and
	// its next-line prefetch streams 0x400080 into the L1i early, hiding the
	// demand miss the real geometry pays.
	cfg := DefaultConfig()
	cfg.LineBytes = 128
	c := NewCore(0, cfg, NewShared(cfg))
	c.Fetch(0x400000)
	c.Fetch(0x400040) // same 128 B line: must coalesce
	c.Fetch(0x400080) // new line: demand miss, filled from the L2 prefetch
	if got := c.Stats.L1iMisses; got != 2 {
		t.Errorf("L1iMisses = %d, want 2 (line shift not derived from LineBytes?)", got)
	}

	// 2 KiB pages: the second fetch is on a new page and must pay an iTLB
	// lookup; a hardcoded 4 KiB shift would coalesce it away.
	cfg2 := DefaultConfig()
	cfg2.PageBytes = 2048
	c2 := NewCore(0, cfg2, NewShared(cfg2))
	c2.Fetch(0x400000)
	c2.Fetch(0x400800) // next 2 KiB page
	if got := c2.Stats.ITLBMisses; got != 2 {
		t.Errorf("ITLBMisses = %d, want 2 (page shift not derived from PageBytes?)", got)
	}
}

func TestBranchMispredictCharged(t *testing.T) {
	c := newTestCore()
	pc, tgt := uint64(0x400040), uint64(0x400400)
	// Train taken (long enough for the global history to saturate so the
	// same table index is reinforced).
	for i := 0; i < 50; i++ {
		c.Branch(pc, tgt, true, BrCond, 0)
	}
	base := c.Stats.Mispredicts
	c.Branch(pc, pc+16, false, BrCond, 0) // surprise not-taken
	if c.Stats.Mispredicts != base+1 {
		t.Error("surprise direction should mispredict")
	}
}

func TestCallRetRASPredicted(t *testing.T) {
	c := newTestCore()
	callPC, fn := uint64(0x400040), uint64(0x410000)
	ret := callPC + 16
	// Warm the BTB for the call.
	c.Branch(callPC, fn, true, BrCall, ret)
	c.Branch(fn+32, ret, true, BrRet, 0)
	m := c.Stats.Mispredicts
	c.Branch(callPC, fn, true, BrCall, ret)
	c.Branch(fn+32, ret, true, BrRet, 0)
	if c.Stats.Mispredicts != m {
		t.Error("matched call/ret pair should not mispredict")
	}
	// A return with an empty RAS mispredicts.
	c2 := newTestCore()
	c2.Branch(fn, ret, true, BrRet, 0)
	if c2.Stats.Mispredicts != 1 {
		t.Error("RAS underflow should mispredict")
	}
}

func TestIndirectTargetPrediction(t *testing.T) {
	c := newTestCore()
	pc := uint64(0x400040)
	c.Branch(pc, 0x500000, true, BrCallInd, pc+16) // cold: mispredict
	if c.Stats.Mispredicts != 1 {
		t.Fatal("cold indirect should mispredict")
	}
	c.Branch(pc, 0x500000, true, BrCallInd, pc+16) // same target: hit
	if c.Stats.Mispredicts != 1 {
		t.Error("repeated indirect target should predict")
	}
	c.Branch(pc, 0x600000, true, BrCallInd, pc+16) // new target
	if c.Stats.Mispredicts != 2 {
		t.Error("changed indirect target should mispredict")
	}
}

func TestLBROnlyWhenEnabled(t *testing.T) {
	c := newTestCore()
	c.Branch(0x400000, 0x400100, true, BrJump, 0)
	if len(c.LBRSnapshot()) != 0 {
		t.Error("LBR recorded while disabled")
	}
	c.LBREnabled = true
	c.Branch(0x400100, 0x400200, true, BrJump, 0)
	c.Branch(0x400200, 0x400210, false, BrCond, 0) // not taken: not recorded
	snap := c.LBRSnapshot()
	if len(snap) != 1 || snap[0].From != 0x400100 {
		t.Errorf("LBR snapshot = %v", snap)
	}
}

func TestMemHierarchyCosts(t *testing.T) {
	c := newTestCore()
	c.Mem(0x10000000, false) // cold: DRAM
	cold := c.StatsSnapshot().BEStallCycles
	if cold < c.Config().MemLat {
		t.Errorf("cold load cost %.0f < DRAM latency", cold)
	}
	c.Mem(0x10000000, false) // L1 hit: free
	if c.StatsSnapshot().BEStallCycles != cold {
		t.Error("L1 hit should be free")
	}
}

func TestDRAMContention(t *testing.T) {
	cfg := DefaultConfig()
	d := newDRAM(cfg)
	// Sparse accesses: near base latency.
	lat1 := d.latency(cfg.MemLat, 1e6)
	if lat1 > cfg.MemLat*1.2 {
		t.Errorf("idle DRAM latency %.0f", lat1)
	}
	// Hammer: one access per cycle >> peak → latency inflates.
	d2 := newDRAM(cfg)
	var last float64
	for i := 0; i < 200000; i++ {
		last = d2.latency(cfg.MemLat, float64(i))
	}
	if last < cfg.MemLat*2 {
		t.Errorf("saturated DRAM latency %.0f should inflate well above base %.0f", last, cfg.MemLat)
	}
}

func TestDRAMIdleGapDecaysCleanly(t *testing.T) {
	// Regression: the time-scaled EMA update used alpha*dt unclamped, so a
	// gap longer than the EMA horizon (dt > 1/alpha) overshot past the
	// instantaneous rate to a negative estimate that got floored to 0.
	// With the coefficient clamped at 1, a long-idle access must land the
	// estimate exactly on the instantaneous rate 1/dt — small but nonzero
	// — and latency must stay monotone under a resumed hammer.
	cfg := DefaultConfig()
	d := newDRAM(cfg)
	// Saturate: one access per cycle far above peakPerCycle.
	for i := 0; i < 100000; i++ {
		d.latency(cfg.MemLat, float64(i))
	}
	if d.Utilization() < 0.5 {
		t.Fatalf("hammer did not saturate: util %.3f", d.Utilization())
	}
	// One access after an idle gap much longer than the EMA horizon.
	gap := 10 / cfg.MemEMAAlpha // dt with alpha*dt = 10 >> 1
	now := 99999 + gap          // last hammer access was at cycle 99999
	lat := d.latency(cfg.MemLat, now)
	want := 1 / gap
	if math.Abs(d.rateEMA-want) > want*1e-6 {
		t.Errorf("post-gap rateEMA = %g, want instantaneous rate %g", d.rateEMA, want)
	}
	if lat > cfg.MemLat*1.2 {
		t.Errorf("post-gap latency %.1f should be near base %.1f", lat, cfg.MemLat)
	}
	// Resume hammering: the estimate must rise from its small positive
	// value, never having been zeroed or gone negative.
	prevUtil := d.Utilization()
	if prevUtil <= 0 {
		t.Errorf("post-gap utilization %.6f should be positive", prevUtil)
	}
	for i := 0; i < 1000; i++ {
		d.latency(cfg.MemLat, now+float64(i)+1)
		if d.rateEMA < 0 {
			t.Fatalf("rateEMA went negative: %g", d.rateEMA)
		}
	}
	if d.Utilization() <= prevUtil {
		t.Errorf("resumed hammer should raise utilization (%.6f -> %.6f)", prevUtil, d.Utilization())
	}
}

func TestTopDownBucketsSum(t *testing.T) {
	c := newTestCore()
	for i := 0; i < 100; i++ {
		c.Fetch(uint64(0x400000 + i*16))
		c.Retire(false)
	}
	c.Branch(0x400000, 0x500000, true, BrJump, 0)
	c.Mem(0x20000000, false)
	td := c.StatsSnapshot().TopDown()
	sum := td.Retiring + td.FrontEnd + td.BadSpec + td.BackEnd
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("TopDown buckets sum to %f", sum)
	}
	s := c.StatsSnapshot()
	total := s.RetireCycles + s.FEStallCycles + s.BadSpecCycles + s.BEStallCycles
	if math.Abs(total-s.Cycles) > 1e-6 {
		t.Errorf("attributed cycles %.2f != total %.2f", total, s.Cycles)
	}
}

func TestStatsSubAdd(t *testing.T) {
	c := newTestCore()
	c.Fetch(0x400000)
	c.Retire(false)
	snap := c.StatsSnapshot()
	c.Fetch(0x400040)
	c.Retire(true)
	cur := c.StatsSnapshot()
	delta := cur.Sub(snap)
	if delta.Instructions != 1 {
		t.Errorf("delta instructions = %d", delta.Instructions)
	}
	var agg Stats
	agg.Add(snap)
	agg.Add(delta)
	if agg.Instructions != cur.Instructions || math.Abs(agg.Cycles-cur.Cycles) > 1e-9 {
		t.Error("Add(Sub) does not reconstruct totals")
	}
}

func TestMPKIHelpers(t *testing.T) {
	s := Stats{Instructions: 2000, L1iMisses: 10, ITLBMisses: 4, TakenBranches: 300, Mispredicts: 6}
	if s.L1iMPKI() != 5 || s.ITLBMPKI() != 2 || s.TakenPKI() != 150 || s.MispredictPKI() != 3 {
		t.Errorf("MPKI helpers wrong: %v %v %v %v", s.L1iMPKI(), s.ITLBMPKI(), s.TakenPKI(), s.MispredictPKI())
	}
	var zero Stats
	if zero.IPC() != 0 || zero.L1iMPKI() != 0 {
		t.Error("zero stats should not divide by zero")
	}
}

// TestSetIndexReach: a set index is key & (sets-1), which reaches every
// allocated set only when the set count is a power of two. Two default
// structures are not, and behave smaller than configured: the L3 (20,480
// sets, mask 0x4fff) reaches 8,192 sets, so it holds 8 MiB, not 20; the
// L2 TLB (192 sets, mask 0xbf) reaches 128, so it holds 1,024 entries,
// not 1,536. Fixing the index changes simulated numbers, so the
// deviations are pinned here at their current values until the model's
// fidelity pass changes them on purpose.
func TestSetIndexReach(t *testing.T) {
	c := newTestCore()
	reach := func(mask uint64) int { return 1 << bits.OnesCount64(mask) }
	cases := []struct {
		name       string
		mask       uint64
		ways, size int // size = allocated ways across all sets
		reachable  int // 0 = every allocated set
	}{
		{"L1i", c.l1i.setMask, c.l1i.ways, len(c.l1i.tags), 0},
		{"L1d", c.l1d.setMask, c.l1d.ways, len(c.l1d.tags), 0},
		{"L2", c.l2.setMask, c.l2.ways, len(c.l2.tags), 0},
		{"L3", c.sh.l3.setMask, c.sh.l3.ways, len(c.sh.l3.blocks) * blockSets * c.sh.l3.ways, 8192},
		{"iTLB", c.itlb.setMask, c.itlb.ways, len(c.itlb.tags), 0},
		{"L2 TLB", c.l2tlb.setMask, c.l2tlb.ways, len(c.l2tlb.tags), 128},
		{"BTB", c.btb.setMask, c.btb.ways, len(c.btb.tags), 0},
	}
	for _, tc := range cases {
		sets := tc.size / tc.ways
		want := tc.reachable
		if want == 0 {
			want = sets
		}
		if got := reach(tc.mask); got != want {
			t.Errorf("%s: %d of %d allocated sets reachable (mask %#x), want %d", tc.name, got, sets, tc.mask, want)
		}
	}
}

// TestSharedL3AllocatesOnTouch pins what a process holds for the shared
// L3: no tags until an access reaches it, then exactly the 256-set blocks
// the accesses landed in, and under DefaultConfig never more than the 32
// of its 80 blocks that contain a set the index reaches (0x4fff reaches
// sets 0-4095 and 16384-20479).
func TestSharedL3AllocatesOnTouch(t *testing.T) {
	cfg := DefaultConfig()
	sh := NewShared(cfg)
	c := NewCore(0, cfg, sh)
	l3 := sh.l3
	if len(l3.blocks) != 80 {
		t.Fatalf("default L3 has %d blocks, want 80 (20,480 sets of 256)", len(l3.blocks))
	}
	check := func(when string, want map[int]bool) {
		t.Helper()
		held := 0
		for i, b := range l3.blocks {
			if b != nil {
				held++
			}
			if (b != nil) != want[i] {
				t.Fatalf("%s: block %d held = %v, want %v", when, i, b != nil, want[i])
			}
		}
		if held > 32 {
			t.Fatalf("%s: %d blocks held, more than the 32 the set index reaches", when, held)
		}
	}
	want := map[int]bool{}
	check("fresh", want)

	// A line's first touch misses the L1d and L2 and so reaches the L3;
	// a repeat lands in a block its first touch already allocated.
	rng := rand.New(rand.NewSource(1))
	line := uint64(cfg.LineBytes)
	for i := 0; i < 20; i++ {
		addr := uint64(rng.Intn(1<<22))*line + uint64(rng.Intn(cfg.LineBytes))
		c.Mem(addr, rng.Intn(4) == 0)
		want[int(addr/line&l3.setMask)/blockSets] = true
		check("random stream", want)
	}
	if len(want) < 10 || len(want) == 32 {
		t.Fatalf("the random stream touched %d blocks: pick one that touches some, not all", len(want))
	}
	for l := uint64(0); l < 1<<15; l++ {
		c.Mem(l*line, false)
		want[int(l&l3.setMask)/blockSets] = true
	}
	check("sweep", want)
	if len(want) != 32 {
		t.Fatalf("a sweep of 2^15 lines touched %d blocks, want all 32 reachable", len(want))
	}
}

// Config returns the core's configuration.
func (c *Core) Config() *Config { return c.cfg }

// LBRSnapshot returns the LBR ring oldest-first (what a perf PMI reads).
func (c *Core) LBRSnapshot() []BranchRecord { return c.lbr.Snapshot() }

// Utilization returns the current estimated DRAM utilization in [0,1).
func (d *dramModel) Utilization() float64 {
	u := d.rateEMA / d.peakPerCycle
	if u > 0.95 {
		u = 0.95
	}
	return u
}
