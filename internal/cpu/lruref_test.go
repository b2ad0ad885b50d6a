package cpu

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The reference model: the stamp-LRU cache and BTB the recency-ordered
// ones in cache.go replaced, their code kept verbatim (renamed) as the
// oracle they are checked against. A set's ways here are an unordered
// tag→stamp map; eviction picks the minimum stamp wherever it sits.

// refCache is a set-associative cache model: tags only, true-LRU via access
// stamps. Lookups return hit/miss and insert on miss (allocate-on-miss,
// no writeback modeling — timing only).
type refCache struct {
	sets     int
	ways     int
	shift    uint // log2(line or page size)
	setMask  uint64
	tags     []uint64 // sets*ways, 0 = invalid (tag stored +1)
	stamps   []uint64
	clock    uint64
	accesses uint64
	misses   uint64
}

// newRefCache builds a cache of capacity bytes with the given associativity
// and granularity (line size for caches, page size for TLBs).
func newRefCache(capacityBytes, ways, granuleBytes int) *refCache {
	lines := capacityBytes / granuleBytes
	if lines < ways {
		ways = lines
	}
	sets := lines / ways
	if sets == 0 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < granuleBytes {
		shift++
	}
	return &refCache{
		sets:    sets,
		ways:    ways,
		shift:   shift,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*ways),
		stamps:  make([]uint64, sets*ways),
	}
}

// access looks addr up, inserting on miss. Returns true on hit. Hits are
// swapped into way 0 — move-to-front — making "hit in way 0" one compare
// and one stamp write, with zero observable difference in hit/miss
// behavior or eviction decisions.
func (c *refCache) access(addr uint64) bool {
	c.clock++
	c.accesses++
	key := addr >> c.shift
	set := int(key&c.setMask) * c.ways
	tag := key + 1
	tags := c.tags[set : set+c.ways]
	stamps := c.stamps[set : set+c.ways : set+c.ways]
	if tags[0] == tag { // MRU fast path
		stamps[0] = c.clock
		return true
	}
	for w := 1; w < len(tags); w++ {
		if tags[w] == tag {
			tags[w], tags[0] = tags[0], tag
			stamps[w] = stamps[0]
			stamps[0] = c.clock
			return true
		}
	}
	c.misses++
	lruIdx := 0
	lruStamp := stamps[0]
	for w := 1; w < len(stamps); w++ {
		if s := stamps[w]; s < lruStamp {
			lruStamp = s
			lruIdx = w
		}
	}
	tags[lruIdx] = tag
	stamps[lruIdx] = c.clock
	return false
}

// probe reports whether addr is present without updating LRU or inserting.
func (c *refCache) probe(addr uint64) bool {
	key := addr >> c.shift
	set := int(key&c.setMask) * c.ways
	tag := key + 1
	tags := c.tags[set : set+c.ways]
	if tags[0] == tag { // MRU fast path (see access)
		return true
	}
	for w := 1; w < len(tags); w++ {
		if tags[w] == tag {
			return true
		}
	}
	return false
}

// refBTB is a branch target buffer: like refCache but each entry also
// stores the last observed target, enabling indirect-branch target
// prediction.
type refBTB struct {
	sets    int
	ways    int
	setMask uint64
	tags    []uint64
	targets []uint64
	stamps  []uint64
	clock   uint64
}

func newRefBTB(entries, ways int) *refBTB {
	if entries < ways {
		ways = entries
	}
	sets := entries / ways
	if sets == 0 {
		sets = 1
	}
	return &refBTB{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*ways),
		targets: make([]uint64, sets*ways),
		stamps:  make([]uint64, sets*ways),
	}
}

// predictUpdate returns the prediction that was stored for pc and
// records the actual target, refreshing recency once; like the caches,
// hits move to way 0 so repeated branches resolve on the first compare.
func (b *refBTB) predictUpdate(pc, target uint64) (uint64, bool) {
	b.clock++
	key := pc >> 4
	set := int(key&b.setMask) * b.ways
	tag := key + 1
	tags := b.tags[set : set+b.ways]
	targets := b.targets[set : set+b.ways : set+b.ways]
	stamps := b.stamps[set : set+b.ways : set+b.ways]
	if tags[0] == tag { // MRU fast path
		pred := targets[0]
		targets[0] = target
		stamps[0] = b.clock
		return pred, true
	}
	for w := 1; w < len(tags); w++ {
		if tags[w] == tag {
			pred := targets[w]
			tags[w], tags[0] = tags[0], tag
			targets[w], targets[0] = targets[0], target
			stamps[w] = stamps[0]
			stamps[0] = b.clock
			return pred, true
		}
	}
	lruIdx := 0
	lruStamp := stamps[0]
	for w := 1; w < len(stamps); w++ {
		if s := stamps[w]; s < lruStamp {
			lruStamp = s
			lruIdx = w
		}
	}
	tags[lruIdx] = tag
	targets[lruIdx] = target
	stamps[lruIdx] = b.clock
	return 0, false
}

// lruGeom is one set-associative shape both models are built with: the
// cache as newCacheEntries(entries, ways, granule), the blocked L3 cache
// over the same capacity, the BTB as newBTB(entries, ways). corpus is
// the name prefix of its fuzz seed files.
type lruGeom struct {
	name, corpus           string
	entries, ways, granule int
}

// lruGeoms is indexed by the first byte of a fuzz input modulo its
// length, so new geometries go at the end (TestLRUCorpusGeometry).
var lruGeoms = []lruGeom{
	{"direct-mapped", "direct-mapped", 64, 1, 64},
	{"2-way", "2-way", 64, 2, 64},
	{"4-way", "4-way", 32, 4, 64},
	{"8-way", "8-way", 512, 8, 64},
	{"iTLB (fully associative)", "itlb", 64, 64, 4096},
	// 1,000 sets span four 256-set blocks, the last one partly; the mask
	// 0x3e7 reaches 256 sets, 64 in each block.
	{"L3 shape, 1,000 sets", "l3-1000", 4000, 4, 64},
}

// defaultL3Geom is the default L3, checked on the seeded streams only: a
// fuzz op's 16-bit line can put at most eight lines in one of its 16-way
// sets (the mask 0x4fff leaves bits 12, 13 and 15 free), so fuzzing it
// would never evict. The 1,000-set shape covers eviction across blocks.
var defaultL3Geom = lruGeom{"default L3 (20,480 x 16)", "", 20480 * 16, 16, 64}

// lines is the span, in granules, the seeded streams are sized by: the
// capacity the set index reaches (2^popcount(sets-1) sets, all of them
// when the set count is a power of two), capped so the default L3 stays
// a fast test. At the cap the random stream still reaches every block
// the default L3's mask reaches.
func (g lruGeom) lines() int {
	return min(1<<bits.OnesCount(uint(g.entries/g.ways-1))*g.ways, 5120)
}

// period is the smallest power of two at least the set count: a stride
// of it, unlike one of the set count, maps every access to one set
// whether or not the set count is a power of two.
func (g lruGeom) period() int { return 1 << bits.Len(uint(g.entries/g.ways-1)) }

// lruOp is one access of an oracle stream. The cache pair looks up (or,
// with probe set, only probes) addr; the BTB pair resolves a branch at
// the PC of addr's line with the given actual target.
type lruOp struct {
	addr, target uint64
	probe        bool
}

// lruPair is one geometry's reference cache, the two caches checked
// against it, and a reference/new BTB, advanced in lockstep.
type lruPair struct {
	g       lruGeom
	ref     *refCache
	got     *cache
	gotL3   *blockedCache
	refB    *refBTB
	gotB    *btb
	nthStep int
}

func newLRUPair(g lruGeom) *lruPair {
	return &lruPair{
		g:     g,
		ref:   newRefCache(g.entries*g.granule, g.ways, g.granule),
		got:   newCacheEntries(g.entries, g.ways, g.granule),
		gotL3: newBlockedCache(g.entries*g.granule, g.ways, g.granule),
		refB:  newRefBTB(g.entries, g.ways),
		gotB:  newBTB(g.entries, g.ways),
	}
}

// blockedSet returns key's set of c as the layout promises it — set s at
// offset (s % blockSets) * ways of block s / blockSets — without
// allocating: a block never touched reads as zeroed ways.
func blockedSet(c *blockedCache, key uint64) []uint64 {
	set := key & c.setMask
	b := c.blocks[set/blockSets]
	if b == nil {
		return make([]uint64, c.ways)
	}
	i := int(set%blockSets) * c.ways
	return b.tags[i : i+c.ways]
}

// counts returns c's accesses and misses: the sums of its blocks'.
func (c *blockedCache) counts() (accesses, misses uint64) {
	for _, b := range c.blocks {
		if b != nil {
			accesses += b.accesses
			misses += b.misses
		}
	}
	return accesses, misses
}

// step applies op to every model and fails on the first difference from
// the reference: the hit/miss result, the predicted target and hit flag,
// the counters, and the touched set's contents. The blocked L3 cache has
// no probe (nothing probes the L3), so a probe op leaves it alone.
func (p *lruPair) step(t testing.TB, op lruOp) {
	t.Helper()
	p.nthStep++
	if op.probe {
		if r, g := p.ref.probe(op.addr), p.got.probe(op.addr); r != g {
			t.Fatalf("%s op %d: probe(%#x) = %v, reference %v", p.g.name, p.nthStep, op.addr, g, r)
		}
	} else {
		r, g, l3 := p.ref.access(op.addr), p.got.access(op.addr), p.gotL3.access(op.addr)
		if r != g || r != l3 {
			t.Fatalf("%s op %d: access(%#x) = %v, blocked L3 %v, reference %v", p.g.name, p.nthStep, op.addr, g, l3, r)
		}
	}
	l3a, l3m := p.gotL3.counts()
	if p.ref.accesses != p.got.accesses || p.ref.misses != p.got.misses ||
		p.ref.accesses != l3a || p.ref.misses != l3m {
		t.Fatalf("%s op %d: accesses/misses %d/%d, blocked L3 %d/%d, reference %d/%d", p.g.name, p.nthStep,
			p.got.accesses, p.got.misses, l3a, l3m, p.ref.accesses, p.ref.misses)
	}
	key := op.addr >> p.got.shift
	set := int(key&p.got.setMask) * p.got.ways
	r := setOf(p.ref.tags[set:set+p.ref.ways], nil)
	if g := setOf(p.got.tags[set:set+p.got.ways], nil); !equalSets(r, g) {
		t.Fatalf("%s op %d: cache set %d holds %v, reference %v", p.g.name, p.nthStep, set/p.got.ways, g, r)
	}
	if g := setOf(blockedSet(p.gotL3, key), nil); !equalSets(r, g) {
		t.Fatalf("%s op %d: blocked L3 set %d holds %v, reference %v", p.g.name, p.nthStep, set/p.got.ways, g, r)
	}

	pc := key << 4
	rt, rh := p.refB.predictUpdate(pc, op.target)
	gt, gh := p.gotB.predictUpdate(pc, op.target)
	if rt != gt || rh != gh {
		t.Fatalf("%s op %d: predictUpdate(%#x, %#x) = %#x,%v, reference %#x,%v", p.g.name, p.nthStep,
			pc, op.target, gt, gh, rt, rh)
	}
	set = int(key&p.gotB.setMask) * p.gotB.ways
	r = setOf(p.refB.tags[set:set+p.refB.ways], p.refB.targets[set:set+p.refB.ways])
	if g := setOf(p.gotB.tags[set:set+p.gotB.ways], p.gotB.targets[set:set+p.gotB.ways]); !equalSets(r, g) {
		t.Fatalf("%s op %d: BTB set %d holds %v, reference %v", p.g.name, p.nthStep, set/p.gotB.ways, g, r)
	}
}

// setOf returns a set's valid entries as sorted (tag, target) pairs, so
// two sets compare equal whatever order their ways are kept in.
func setOf(tags, targets []uint64) [][2]uint64 {
	s := make([][2]uint64, 0, len(tags))
	for w, tag := range tags {
		if tag == 0 {
			continue
		}
		e := [2]uint64{tag, 0}
		if targets != nil {
			e[1] = targets[w]
		}
		s = append(s, e)
	}
	slices.SortFunc(s, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	return s
}

func equalSets(a, b [][2]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lruStreams are the seeded access patterns of the oracle, in units of
// one granule (line or page) of g, sized by g.lines(): each returns the
// ops of one stream.
var lruStreams = map[string]func(g lruGeom, rng *rand.Rand) []lruOp{
	// A forward walk over twice the capacity: every line once, in order.
	"sequential": func(g lruGeom, rng *rand.Rand) []lruOp {
		var ops []lruOp
		for i := 0; i < 2*g.lines(); i++ {
			ops = append(ops, lruOp{addr: uint64(i * g.granule), target: uint64(i)})
		}
		return ops
	},
	// Loops over a body a little smaller, then a little larger, than the
	// capacity, so the second shape thrashes true LRU.
	"loops": func(g lruGeom, rng *rand.Rand) []lruOp {
		var ops []lruOp
		n := g.lines()
		for _, body := range []int{n - n/4, n + 1 + rng.Intn(n/4+1)} {
			for rep := 0; rep < 4; rep++ {
				for i := 0; i < body; i++ {
					ops = append(ops, lruOp{addr: uint64(i*g.granule + rng.Intn(g.granule)), target: uint64(i)})
				}
			}
		}
		return ops
	},
	// Strides of one, two and a set period's worth of granules (the last
	// two map every access to one set), wrapping at half and at twice the
	// capacity.
	"strides": func(g lruGeom, rng *rand.Rand) []lruOp {
		var ops []lruOp
		n, sets := g.lines(), g.period()
		for _, span := range []int{n / 2, 2 * n} {
			for _, stride := range []int{1, 2, sets, 3 * sets} {
				for i := 0; i < 3*n; i++ {
					line := (i * stride) % span
					ops = append(ops, lruOp{addr: uint64(line * g.granule), target: uint64(rng.Intn(4))})
				}
			}
		}
		return ops
	},
	// ways+1 lines of one set, round-robin, interleaved with re-touches
	// of the most recent one: LRU misses on every new line.
	"thrash": func(g lruGeom, rng *rand.Rand) []lruOp {
		var ops []lruOp
		sets := g.period()
		for i := 0; i < 20*(g.ways+1); i++ {
			line := (i % (g.ways + 1)) * sets
			ops = append(ops, lruOp{addr: uint64(line * g.granule), target: uint64(i % 3)})
			if rng.Intn(3) == 0 {
				ops = append(ops, lruOp{addr: uint64(line * g.granule), target: uint64(i % 3)})
			}
		}
		return ops
	},
	// Random lines over four times the capacity, hot lines more likely,
	// now and then a probe, and branch sites that are sometimes retargeted.
	"random": func(g lruGeom, rng *rand.Rand) []lruOp {
		var ops []lruOp
		n := g.lines()
		targets := make([]uint64, 4*n)
		for i := range targets {
			targets[i] = uint64(rng.Intn(1 << 20))
		}
		for i := 0; i < 50*n; i++ {
			line := rng.Intn(4 * n)
			if rng.Intn(2) == 0 {
				line = rng.Intn(n/2 + 1)
			}
			if rng.Intn(8) == 0 {
				targets[line] = uint64(rng.Intn(1 << 20))
			}
			ops = append(ops, lruOp{
				addr:   uint64(line*g.granule + rng.Intn(g.granule)),
				target: targets[line],
				probe:  rng.Intn(10) == 0,
			})
		}
		return ops
	},
}

// TestLRUMatchesReference drives the recency-ordered cache, blocked L3
// cache and BTB and the stamp-LRU reference with the same seeded
// streams, on every geometry, and requires the same observable behaviour
// after every op.
func TestLRUMatchesReference(t *testing.T) {
	for _, g := range append(slices.Clone(lruGeoms), defaultL3Geom) {
		for name, stream := range lruStreams {
			for seed := int64(1); seed <= 3; seed++ {
				p := newLRUPair(g)
				for _, op := range stream(g, rand.New(rand.NewSource(seed))) {
					p.step(t, op)
				}
				if p.got.misses == 0 || p.got.misses == p.got.accesses && name != "sequential" {
					t.Errorf("%s/%s seed %d: %d misses in %d accesses: the stream does not exercise both outcomes",
						g.name, name, seed, p.got.misses, p.got.accesses)
				}
			}
		}
	}
}

// FuzzLRUMatchesReference is TestLRUMatchesReference over arbitrary
// streams: the first byte picks the geometry, then every three bytes are
// one op — a line number (two bytes, little-endian), and a byte whose low
// bit asks for a probe and whose high bits are the branch target. The
// seed corpus (testdata/fuzz/FuzzLRUMatchesReference) holds a thrash and
// a random stream for every geometry.
func FuzzLRUMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g := lruGeoms[int(data[0])%len(lruGeoms)]
		p := newLRUPair(g)
		for in := data[1:]; len(in) >= 3; in = in[3:] {
			line := binary.LittleEndian.Uint16(in)
			p.step(t, lruOp{
				addr:   uint64(line) * uint64(g.granule),
				target: uint64(in[2] >> 1),
				probe:  in[2]&1 == 1,
			})
		}
	})
}

// TestLRUCorpusGeometry checks that every committed fuzz seed still
// selects the geometry its file name says (its first byte modulo
// len(lruGeoms)), and that every geometry has a thrash and a random seed.
func TestLRUCorpusGeometry(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLRUMatchesReference")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string]bool{}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil || data == "" {
			t.Fatalf("%s: not a one-[]byte fuzz input: %q", f.Name(), lines[len(lines)-1])
		}
		g := lruGeoms[int(data[0])%len(lruGeoms)]
		kind := f.Name()[strings.LastIndexByte(f.Name(), '-')+1:]
		if want := g.corpus + "-" + kind; f.Name() != want {
			t.Errorf("%s selects geometry %q, whose seeds are named %s", f.Name(), g.name, want)
		}
		seeds[f.Name()] = true
	}
	for _, g := range lruGeoms {
		for _, kind := range []string{"thrash", "random"} {
			if !seeds[g.corpus+"-"+kind] {
				t.Errorf("geometry %q has no %s seed %s-%s", g.name, kind, g.corpus, kind)
			}
		}
	}
}

// refFrontEnd is Core.fetchLine's full path — no warm return — over
// reference caches. The L3 and DRAM are left out: on a fetch-only stream
// nothing the L1i, L2 or TLBs decide depends on them.
type refFrontEnd struct {
	l1i, l2, itlb, l2tlb *refCache
	lastLine, lastPage   uint64
	lineShift, pageShift uint
	lineBytes            uint64
}

func (f *refFrontEnd) fetch(pc uint64) {
	line := pc>>f.lineShift + 1
	if line == f.lastLine {
		return
	}
	f.lastLine = line
	if page := pc>>f.pageShift + 1; page != f.lastPage {
		f.lastPage = page
		if !f.itlb.access(pc) {
			f.l2tlb.access(pc)
		}
	}
	if !f.l1i.access(pc) {
		f.l2.access(pc)
	}
	next := pc + f.lineBytes
	if !f.l1i.probe(next) {
		if f.l2.probe(next) {
			f.l1i.access(next)
		} else {
			f.l2.access(next)
		}
	}
}

// sameCache fails unless got and ref agree on both counters and on the
// contents of every set.
func sameCache(t *testing.T, name string, got *cache, ref *refCache) {
	t.Helper()
	if got.accesses != ref.accesses || got.misses != ref.misses {
		t.Fatalf("%s: accesses/misses %d/%d, reference %d/%d", name, got.accesses, got.misses, ref.accesses, ref.misses)
	}
	for set := 0; set < len(got.tags); set += got.ways {
		r, g := setOf(ref.tags[set:set+ref.ways], nil), setOf(got.tags[set:set+got.ways], nil)
		if !equalSets(r, g) {
			t.Fatalf("%s: set %d holds %v, reference %v", name, set/got.ways, g, r)
		}
	}
}

// TestFetchMatchesReference checks the whole front end — Fetch and
// fetchLine's way-0 warm return included — against the full path over
// the stamp-LRU reference: a code-like fetch stream (forward walks, jumps
// across three pages, loops back to the same line) must leave the L1i,
// L2, iTLB and L2 TLB with the same counters and contents after every
// fetch. The L1i access count is the only state a warm fetch changes, so
// this is where a warm return that forgets it shows.
func TestFetchMatchesReference(t *testing.T) {
	cfg := tinyConfig()
	c := NewCore(0, cfg, NewShared(cfg))
	f := &refFrontEnd{
		l1i:       newRefCache(cfg.L1iKiB*1024, cfg.L1iWays, cfg.LineBytes),
		l2:        newRefCache(cfg.L2KiB*1024, cfg.L2Ways, cfg.LineBytes),
		itlb:      newRefCache(cfg.ITLBEntries*cfg.PageBytes, cfg.ITLBEntries, cfg.PageBytes),
		l2tlb:     newRefCache(cfg.L2TLBEntries*cfg.PageBytes, 8, cfg.PageBytes),
		lineShift: log2up(cfg.LineBytes),
		pageShift: log2up(cfg.PageBytes),
		lineBytes: uint64(cfg.LineBytes),
	}
	rng := rand.New(rand.NewSource(7))
	jump := func() uint64 {
		return 0x400000 + uint64(rng.Intn(3))*uint64(cfg.PageBytes) + uint64(rng.Intn(24))*f.lineBytes
	}
	pc, warm := jump(), 0
	for i := 0; i < 20_000; i++ {
		switch r := rng.Intn(16); {
		case r == 0:
			pc = jump()
		case r == 1:
			// A taken branch back into the line being fetched: the next
			// fetch pays a lookup again, as Branch arranges.
			c.lastFetchLine, f.lastLine = 0, 0
		default:
			pc += 16
		}
		key := pc >> c.l1i.shift
		if c.lastFetchLine != key+1 && pc>>c.pageShift+1 == c.lastFetchPage &&
			c.l1i.tags[int(key&c.l1i.setMask)*c.l1i.ways] == key+1 &&
			c.l1i.tags[int((key+1)&c.l1i.setMask)*c.l1i.ways] == key+2 {
			warm++
		}
		c.Fetch(pc)
		f.fetch(pc)
		sameCache(t, "l1i", c.l1i, f.l1i)
		sameCache(t, "l2", c.l2, f.l2)
		sameCache(t, "itlb", c.itlb, f.itlb)
		sameCache(t, "l2tlb", c.l2tlb, f.l2tlb)
	}
	if warm == 0 || warm == int(c.l1i.accesses) {
		t.Errorf("%d of %d L1i accesses took the warm return: the stream does not exercise both paths", warm, c.l1i.accesses)
	}
}
