package cpu

// BranchKind classifies control transfers for prediction modeling.
type BranchKind uint8

const (
	BrCond      BranchKind = iota // conditional branch (JCC)
	BrJump                        // unconditional direct jump (JMP)
	BrCall                        // direct call
	BrCallInd                     // indirect call (CALLR)
	BrRet                         // return
	BrJumpTable                   // indirect jump through a table (JTBL)
)

// Shared holds structures shared by all cores of the simulated socket.
type Shared struct {
	l3 *blockedCache
}

// NewShared builds the shared level of the hierarchy. The L3 holds no
// tags until it is first accessed: each 256-set block of them is
// allocated on the first access that lands in it, so a process pays
// for the sets its guest touches, not for the whole configured size.
func NewShared(cfg *Config) *Shared {
	return &Shared{l3: newBlockedCache(cfg.L3KiB*1024, cfg.L3Ways, cfg.LineBytes)}
}

// Core models the timing of one hardware core. The process scheduler
// creates one Core per simulated hardware context and reports
// architectural events to it; the Core answers with cycle costs.
type Core struct {
	ID  int
	cfg *Config

	l1i   *cache
	l1d   *cache
	l2    *cache
	itlb  *cache
	l2tlb *cache
	sh    *Shared
	btb   *btb
	dir   *gshare
	ras   *ras
	dram  *dramModel

	// LBR facility. Recording is off until perf enables it.
	lbr        *lbrRing
	LBREnabled bool

	// Stats holds the hardware counters. The float cycle fields
	// (Cycles, RetireCycles, FEStallCycles, BadSpecCycles,
	// BEStallCycles) are derived lazily at read points, not per event —
	// read them through StatsSnapshot (or use Cycles()) instead of the
	// raw fields.
	Stats Stats

	// Cycle accounting keeps integer event counts separate from float
	// stall accumulators so that a straight-line run of event-free
	// instructions can be charged in O(1) (RetireBulk): total cycles are
	// derived as Instructions*retireCost + divOps*DivLat + the four
	// stall sums, with a fixed summation order so the derived value is
	// bit-identical however retirements were grouped.
	divOps        uint64
	stallRet      float64 // extra cycles charged to the Retiring bucket
	stallFE       float64 // front-end stalls (fetch misses, taken-branch bubbles)
	stallBS       float64 // bad speculation (mispredict penalties)
	stallBE       float64 // back-end stalls (data-cache misses, syscalls), excluding DivLat
	lastFetchLine uint64  // +1 encoding; 0 = none
	lastFetchPage uint64

	// Precomputed per-event constants: line/page index shifts derived
	// from the configured geometry, the per-slot retire cost, and a
	// table mapping TopDown buckets to their accumulator fields.
	lineShift  uint
	pageShift  uint
	retireCost float64
	bucketAcc  [4]*float64

	// l1dTags aliases the L1d's tag array so the inline MemFast reaches
	// it with one indirection fewer.
	l1dTags []uint64
}

// NewCore builds a core attached to the shared hierarchy.
func NewCore(id int, cfg *Config, sh *Shared) *Core {
	c := &Core{
		ID:    id,
		cfg:   cfg,
		l1i:   newCache(cfg.L1iKiB*1024, cfg.L1iWays, cfg.LineBytes),
		l1d:   newCache(cfg.L1dKiB*1024, cfg.L1dWays, cfg.LineBytes),
		l2:    newCache(cfg.L2KiB*1024, cfg.L2Ways, cfg.LineBytes),
		itlb:  newCacheEntries(cfg.ITLBEntries, cfg.ITLBEntries, cfg.PageBytes),
		l2tlb: newCacheEntries(cfg.L2TLBEntries, 8, cfg.PageBytes),
		sh:    sh,
		btb:   newBTB(cfg.BTBEntries, cfg.BTBWays),
		dir:   newGshare(cfg.GshareBits),
		ras:   newRAS(cfg.RASDepth),
		dram:  newDRAM(cfg),
		lbr:   newLBR(cfg.LBREntries),

		lineShift:  log2up(cfg.LineBytes),
		pageShift:  log2up(cfg.PageBytes),
		retireCost: 1 / cfg.IssueWidth,
	}
	c.bucketAcc = [4]*float64{
		BucketRetiring: &c.stallRet,
		BucketFrontEnd: &c.stallFE,
		BucketBadSpec:  &c.stallBS,
		BucketBackEnd:  &c.stallBE,
	}
	c.l1dTags = c.l1d.tags
	return c
}

// log2up returns the smallest s with 1<<s >= n (the same granule rounding
// the cache models use).
func log2up(n int) uint {
	s := uint(0)
	for 1<<s < n {
		s++
	}
	return s
}

// Config returns the core's configuration.
func (c *Core) Config() *Config { return c.cfg }

// Cycles returns the core's elapsed cycle count, derived from the
// integer event counters and the stall accumulators. The summation order
// is fixed (and mirrored by StatsSnapshot) so the result does not depend
// on how retirements were grouped into bulk charges.
func (c *Core) Cycles() float64 {
	return (float64(c.Stats.Instructions)*c.retireCost + c.stallRet) +
		c.stallFE + c.stallBS +
		(float64(c.divOps)*c.cfg.DivLat + c.stallBE)
}

// Seconds returns the core's elapsed simulated time.
func (c *Core) Seconds() float64 { return c.Cycles() / c.cfg.ClockHz }

// LBRSnapshot returns the LBR ring oldest-first (what a perf PMI reads).
func (c *Core) LBRSnapshot() []BranchRecord { return c.lbr.Snapshot() }

// LBRDrain returns the ring contents oldest-first and clears the ring, the
// way a PMI handler consumes it: the next drain only sees branches retired
// after this one.
func (c *Core) LBRDrain() []BranchRecord { return c.lbr.drain() }

// StatsSnapshot returns the counters with the lazily-derived float cycle
// fields synced. The per-event paths (Fetch/Retire/Branch/Mem/AddStall)
// deliberately do not rewrite the Stats cycle fields on every event; the
// derivation here uses the same summation order as Cycles() so the two
// agree bit-for-bit.
func (c *Core) StatsSnapshot() Stats {
	s := c.Stats
	s.RetireCycles = float64(s.Instructions)*c.retireCost + c.stallRet
	s.FEStallCycles = c.stallFE
	s.BadSpecCycles = c.stallBS
	s.BEStallCycles = float64(c.divOps)*c.cfg.DivLat + c.stallBE
	s.Cycles = s.RetireCycles + s.FEStallCycles + s.BadSpecCycles + s.BEStallCycles
	return s
}

// AddStall charges extra cycles to the given TopDown bucket; the process
// layer uses it for perf sampling overhead and syscall costs.
func (c *Core) AddStall(cycles float64, bucket Bucket) {
	if int(bucket) < len(c.bucketAcc) {
		*c.bucketAcc[bucket] += cycles
	} else {
		c.stallBE += cycles
	}
}

// Fetch charges the front-end cost of fetching the instruction at pc.
// Sequential fetches within one cache line are free after the first; a new
// line pays an L1i lookup and, on a new page, an iTLB lookup. The same-line
// fast path is kept small enough to inline into the interpreter loop.
func (c *Core) Fetch(pc uint64) {
	line := pc>>c.lineShift + 1
	if line == c.lastFetchLine {
		return
	}
	c.fetchLine(pc, line)
}

// fetchLine is the new-line slow path of Fetch.
func (c *Core) fetchLine(pc, line uint64) {
	c.lastFetchLine = line

	// Warm-stream fast path: same page as the last fetch, and both the
	// demand line and its prefetch-next line sit in their sets' way 0
	// (the most recent position). Then the full path below would charge
	// nothing and change nothing but the L1i's access count — replicate
	// exactly that and return. Any condition that fails falls through to
	// the full model.
	l1i := c.l1i
	key := pc >> l1i.shift
	set := int(key&l1i.setMask) * l1i.ways
	nset := int((key+1)&l1i.setMask) * l1i.ways
	if pc>>c.pageShift+1 == c.lastFetchPage &&
		l1i.tags[set] == key+1 && l1i.tags[nset] == key+2 {
		l1i.accesses++
		return
	}

	var stall float64
	page := pc>>c.pageShift + 1
	if page != c.lastFetchPage {
		c.lastFetchPage = page
		if !c.itlb.access(pc) {
			c.Stats.ITLBMisses++
			if c.l2tlb.access(pc) {
				stall += c.cfg.L2TLBLat
			} else {
				c.Stats.L2TLBMisses++
				stall += c.cfg.PageWalkLat
			}
		}
	}
	if !c.l1i.access(pc) {
		c.Stats.L1iMisses++
		if c.l2.access(pc) {
			stall += c.cfg.L2Lat
		} else if c.sh.l3.access(pc) {
			stall += c.cfg.L3Lat
		} else {
			stall += c.dram.latency(c.cfg.MemLat, c.Cycles())
			c.Stats.MemAccesses++
		}
	}
	// Next-line instruction prefetch: sequential fetch streams hide the
	// next line's miss, so compact code layouts fetch nearly for free
	// while scattered hot chunks (whose next line is cold padding) waste
	// the prefetch — the effect profile-guided layout exploits. The
	// prefetcher is not magic: it can fully hide an L2-resident stream,
	// but a longer-latency fill only gets as far as the L2 by the time
	// the demand fetch arrives (a single next-line prefetcher cannot keep
	// up with L3/DRAM latency at fetch bandwidth).
	next := pc + uint64(c.cfg.LineBytes)
	if !c.l1i.probe(next) {
		if c.l2.probe(next) {
			c.l1i.access(next) // stream from L2: fully hidden
		} else {
			c.l2.access(next) // long fill lands in L2, not L1i
		}
	}
	if stall > 0 {
		c.stallFE += stall
	}
}

// Retire charges the base retirement cost of one instruction. Both the
// retire-slot cost and the divider latency are folded lazily from the
// integer counters (see Cycles), so retiring is two integer adds.
func (c *Core) Retire(isDiv bool) {
	c.Stats.Instructions++
	if isDiv {
		c.divOps++
	}
}

// Branch models a control transfer: pc is the branch instruction, target
// the actual destination, taken whether the transfer redirects fetch
// (conditional fall-through is not taken). Calls also pass the return
// address for RAS modeling.
func (c *Core) Branch(pc, target uint64, taken bool, kind BranchKind, retAddr uint64) {
	var stall float64
	var misp bool

	switch kind {
	case BrCond:
		c.Stats.CondBranches++
		pred := c.dir.predict(pc)
		c.dir.update(pc, taken)
		if pred != taken {
			misp = true
		}
		if taken {
			stall += c.btbCost(pc, target)
		}
	case BrJump, BrCall:
		// Static target: direction always known; BTB still needed to
		// redirect fetch without a bubble.
		stall += c.btbCost(pc, target)
		if kind == BrCall {
			c.ras.push(retAddr)
		}
	case BrCallInd, BrJumpTable:
		predTarget, hit := c.btb.predictUpdate(pc, target)
		if !hit {
			c.Stats.BTBMisses++
			misp = true
		} else if predTarget != target {
			misp = true
		} else {
			stall += c.cfg.TakenBubble
		}
		if kind == BrCallInd {
			c.ras.push(retAddr)
		}
	case BrRet:
		pred, ok := c.ras.pop()
		if !ok || pred != target {
			misp = true
		} else {
			stall += c.cfg.TakenBubble
		}
	}

	if misp {
		c.Stats.Mispredicts++
		c.stallBS += c.cfg.MispredictPenalty
	}
	if taken {
		c.Stats.TakenBranches++
		c.lastFetchLine = 0 // fetch redirected: next fetch pays a lookup
		if c.LBREnabled {
			c.lbr.record(pc, target)
		}
	}
	if stall > 0 {
		c.stallFE += stall
	}
}

// btbCost returns the front-end bubble for a taken branch with a static
// target: a small redirect bubble on BTB hit, a bigger one on miss.
func (c *Core) btbCost(pc, target uint64) float64 {
	predTarget, hit := c.btb.predictUpdate(pc, target)
	if hit && predTarget == target {
		return c.cfg.TakenBubble
	}
	c.Stats.BTBMisses++
	return c.cfg.BTBMissPenalty
}

// Mem charges the back-end cost of a data access at addr.
func (c *Core) Mem(addr uint64, store bool) {
	if c.l1d.access(addr) {
		return
	}
	c.Stats.L1dMisses++
	var stall float64
	if c.l2.access(addr) {
		stall = c.cfg.L2Lat
	} else if c.sh.l3.access(addr) {
		stall = c.cfg.L3Lat
	} else {
		stall = c.dram.latency(c.cfg.MemLat, c.Cycles())
		c.Stats.MemAccesses++
	}
	// Stores retire without waiting; charge a fraction for store-buffer
	// pressure. Loads stall the pipeline (no OoO hiding modeled beyond the
	// issue width).
	if store {
		stall *= 0.3
	}
	c.stallBE += stall
}

// DRAMUtilization exposes the bandwidth model state (for diagnostics).
func (c *Core) DRAMUtilization() float64 { return c.dram.Utilization() }
