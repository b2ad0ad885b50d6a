package cpu

// Block-level cycle accounting and the inline warm paths.
//
// The trace engine (internal/proc/trace.go) charges each straight-line
// run of event-free instructions with one RetireBulk instead of one
// Retire per instruction. That is only exact because of how the Core
// represents cycles (see Core.Cycles): the retire-slot cost and divider
// latency are folded lazily from integer counters, so a bulk charge of
// n instructions is bit-identical to n individual Retire calls no matter
// how the run is split. Everything that depends on dynamic
// microarchitectural state (cache, TLB, predictors, DRAM queue) still
// goes through the per-event paths, each behind a call-free warm path
// below where measurement showed one pays (docs/perf.md). The front end
// has no twin: Fetch is the one entry, an inlined same-line check in
// front of fetchLine's own way-0 warm path.

// SameFetchLine reports whether a and b share an instruction cache line,
// i.e. whether a fetch of b immediately after a is free. The trace
// engine uses it to precompute which ops in a trace are fetch points.
func (c *Core) SameFetchLine(a, b uint64) bool {
	return a>>c.lineShift == b>>c.lineShift
}

// MemFast performs Mem(addr, store) when addr hits the L1d's way 0 —
// the only Mem case that charges no stall, making the store/load
// distinction moot. Returns false, having changed nothing, when the
// caller must take the full Mem path. Call-free so it inlines into the
// trace engine's hot loop.
func (c *Core) MemFast(addr uint64) bool {
	l1d := c.l1d
	key := addr >> l1d.shift
	set := int(key&l1d.setMask) * l1d.ways
	if c.l1dTags[set] != key+1 {
		return false
	}
	l1d.accesses++
	return true
}

// The Branch*Fast family below are inline warm paths for the branch
// kinds a trace executes on its planned path. Each replicates
// Branch's exact effects for one kind under preconditions that make the
// outcome fixed (BTB way-0 hit with an unchanged target, RAS top
// agreeing with the actual return target), returns false having changed
// nothing otherwise, and bails to the full path whenever the LBR is
// recording (taken branches would need a ring append).

// BranchJumpFast is Branch(pc, target, true, BrJump, 0) for a BTB way-0
// hit whose stored target already matches: a correctly predicted taken
// jump costing only the redirect bubble.
func (c *Core) BranchJumpFast(pc, target uint64) bool {
	b := c.btb
	key := pc >> 4
	set := int(key&b.setMask) * b.ways
	if c.LBREnabled || b.tags[set] != key+1 || b.targets[set] != target {
		return false
	}
	c.Stats.TakenBranches++
	c.lastFetchLine = 0
	c.stallFE += c.cfg.TakenBubble
	return true
}

// BranchCallFast is Branch(pc, target, true, BrCall, retAddr) under the
// same BTB preconditions as BranchJumpFast, plus the RAS push.
func (c *Core) BranchCallFast(pc, target, retAddr uint64) bool {
	b := c.btb
	key := pc >> 4
	set := int(key&b.setMask) * b.ways
	if c.LBREnabled || b.tags[set] != key+1 || b.targets[set] != target {
		return false
	}
	r := c.ras
	r.stack[r.pos] = retAddr
	r.pos++
	if r.pos == len(r.stack) {
		r.pos = 0
	}
	if r.top < len(r.stack) {
		r.top++
	}
	c.Stats.TakenBranches++
	c.lastFetchLine = 0
	c.stallFE += c.cfg.TakenBubble
	return true
}

// BranchRetFast is Branch(pc, target, true, BrRet, 0) when the RAS top
// predicts the actual target: pop, bubble, no mispredict.
func (c *Core) BranchRetFast(pc, target uint64) bool {
	r := c.ras
	if c.LBREnabled || r.top == 0 {
		return false
	}
	pos := r.pos - 1
	if pos < 0 {
		pos = len(r.stack) - 1
	}
	if r.stack[pos] != target {
		return false // underflow-free mispredict: full path
	}
	r.pos = pos
	r.top--
	c.Stats.TakenBranches++
	c.lastFetchLine = 0
	c.stallFE += c.cfg.TakenBubble
	return true
}

// BranchCondNotTakenFast is Branch(pc, target, false, BrCond, 0) in
// full: a not-taken conditional only touches the direction predictor
// (and the mispredict accounting), so there are no preconditions and no
// fallback — it always completes.
func (c *Core) BranchCondNotTakenFast(pc uint64) {
	g := c.dir
	idx := ((pc >> 4) ^ g.history) & g.mask
	cnt := g.table[idx]
	if cnt > 0 {
		g.table[idx] = cnt - 1
	}
	g.history = (g.history << 1) & g.mask
	c.Stats.CondBranches++
	if cnt >= 2 {
		c.Stats.Mispredicts++
		c.stallBS += c.cfg.MispredictPenalty
	}
}

// RetireBulk charges the retirement of n instructions, divs of which
// are divider ops, in O(1). Exactly equivalent to n Retire calls by
// construction: both paths only bump the integer counters that Cycles()
// folds lazily.
func (c *Core) RetireBulk(n, divs uint64) {
	c.Stats.Instructions += n
	c.divOps += divs
}
