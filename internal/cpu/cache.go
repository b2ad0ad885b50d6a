package cpu

// cache is a set-associative cache model: tags only, true LRU. Each set's
// ways are kept in recency order — way 0 is the most recently used, the
// last way the least — so the LRU victim is always the last way and no
// per-way stamp or clock is needed. Lookups return hit/miss and insert on
// miss (allocate-on-miss, no writeback modeling — timing only).
type cache struct {
	ways     int
	shift    uint // log2(line or page size)
	setMask  uint64
	tags     []uint64 // sets*ways, 0 = invalid (tag stored +1)
	accesses uint64
	misses   uint64
}

// newCache builds a cache of capacity bytes with the given associativity
// and granularity (line size for caches, page size for TLBs).
//
// The set index is key & (sets-1), which reaches every set only when
// sets is a power of two; otherwise only 2^popcount(sets-1) sets are ever
// used. The default L3 (20,480 sets) therefore behaves as 8 MiB and the
// L2 TLB (192 sets) as 1,024 entries. TestSetIndexReach pins both; a fix
// changes simulated numbers and belongs with the model-fidelity work.
//
// The tags are one array allocated up front. The shared L3, the one
// structure large enough for that to matter, is a blockedCache instead:
// the same geometry and index, its tags allocated per block on touch.
func newCache(capacityBytes, ways, granuleBytes int) *cache {
	ways, sets := geometry(capacityBytes/granuleBytes, ways)
	return &cache{
		ways:    ways,
		shift:   log2up(granuleBytes),
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*ways),
	}
}

// geometry returns the ways and sets of a structure of lines entries:
// ways is clamped to lines, and there is at least one set.
func geometry(lines, ways int) (int, int) {
	if lines < ways {
		ways = lines
	}
	sets := lines / ways
	if sets == 0 {
		sets = 1
	}
	return ways, sets
}

// newCacheEntries builds a cache with a fixed entry count (for TLBs/BTBs
// sized in entries rather than bytes).
func newCacheEntries(entries, ways, granuleBytes int) *cache {
	return newCache(entries*granuleBytes, ways, granuleBytes)
}

// access looks addr up, inserting on miss. Returns true on hit. This is
// the single hottest function of the whole simulator. A hit in way 0
// changes nothing; a hit in way w moves it to the front, shifting ways
// 0..w-1 down by one; a miss shifts the whole set, dropping the least
// recent line off the end, and inserts at the front.
func (c *cache) access(addr uint64) bool {
	c.accesses++
	key := addr >> c.shift
	set := int(key&c.setMask) * c.ways
	tag := key + 1
	tags := c.tags[set : set+c.ways]
	if tags[0] == tag {
		return true
	}
	for w := 1; w < len(tags); w++ {
		if tags[w] == tag {
			toFront(tags, w, tag)
			return true
		}
	}
	c.misses++
	toFront(tags, len(tags)-1, tag)
	return false
}

// toFront makes v the most recent entry of a recency-ordered set by
// shifting s[0..w-1] down one way, overwriting s[w]. A loop, not copy:
// copy calls runtime.memmove, which on sets this short measured no
// better and keeps access from being call-free (docs/perf.md).
func toFront(s []uint64, w int, v uint64) {
	s = s[:w+1]
	for i := len(s) - 1; i > 0; i-- {
		s[i] = s[i-1]
	}
	s[0] = v
}

// blockSets is how many L3 sets are allocated at a time (32 KiB of tags
// at 16 ways). The size decides when blocks appear, not only how much
// they hold: with 256-set blocks every block a bench replica ever
// touches is allocated in its untimed warm-up, while 64-set blocks moved
// allocation into the timed wave (docs/perf.md).
const blockShift = 8
const blockSets = 1 << blockShift

// blockedCache is the shared L3: a cache whose sets sit in fixed-size
// blocks, each a cache of blockSets sets allocated on the first access
// that lands in it, the way guest pages are. The default L3 is 2.6 MB of
// tags; the set index reaches 8,192 of its 20,480 sets and a guest
// touches fewer. Block set/blockSets holds set, and its own index,
// key & setMask % blockSets, is set % blockSets. An unallocated block
// reads exactly like a zeroed one, so nothing the model computes depends
// on when a block appeared.
type blockedCache struct {
	ways    int
	shift   uint
	setMask uint64
	blocks  []*cache // sets/blockSets rounded up; nil = never touched
}

func newBlockedCache(capacityBytes, ways, granuleBytes int) *blockedCache {
	ways, sets := geometry(capacityBytes/granuleBytes, ways)
	return &blockedCache{
		ways:    ways,
		shift:   log2up(granuleBytes),
		setMask: uint64(sets - 1),
		blocks:  make([]*cache, (sets+blockSets-1)/blockSets),
	}
}

// access is cache.access on the block that holds addr's set, allocating
// the block if this is its first touch.
func (c *blockedCache) access(addr uint64) bool {
	i := (addr >> c.shift & c.setMask) >> blockShift
	b := c.blocks[i]
	if b == nil {
		b = &cache{
			ways:    c.ways,
			shift:   c.shift,
			setMask: c.setMask & (blockSets - 1),
			tags:    make([]uint64, blockSets*c.ways),
		}
		c.blocks[i] = b
	}
	return b.access(addr)
}

// probe reports whether addr is present without updating LRU or inserting.
func (c *cache) probe(addr uint64) bool {
	key := addr >> c.shift
	set := int(key&c.setMask) * c.ways
	tag := key + 1
	for _, t := range c.tags[set : set+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// btb is a branch target buffer: like cache but each entry also stores the
// last observed target, enabling indirect-branch target prediction. Both
// slices are kept in the same recency order as a cache set's tags.
type btb struct {
	ways    int
	setMask uint64
	tags    []uint64
	targets []uint64
}

func newBTB(entries, ways int) *btb {
	ways, sets := geometry(entries, ways)
	return &btb{
		ways:    ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*ways),
		targets: make([]uint64, sets*ways),
	}
}

// predictUpdate returns the target stored for pc (and whether pc was
// present) and records the actual target, making pc the most recent
// entry of its set. Branch PCs are distinct per 16-byte instruction, so
// the PC itself is the key.
func (b *btb) predictUpdate(pc, target uint64) (uint64, bool) {
	key := pc >> 4
	set := int(key&b.setMask) * b.ways
	tag := key + 1
	tags := b.tags[set : set+b.ways]
	targets := b.targets[set : set+b.ways : set+b.ways]
	if tags[0] == tag {
		pred := targets[0]
		targets[0] = target
		return pred, true
	}
	for w := 1; w < len(tags); w++ {
		if tags[w] == tag {
			pred := targets[w]
			toFront(tags, w, tag)
			toFront(targets, w, target)
			return pred, true
		}
	}
	toFront(tags, len(tags)-1, tag)
	toFront(targets, len(targets)-1, target)
	return 0, false
}
