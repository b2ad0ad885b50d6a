package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/ptrace"
	"repro/internal/trace"
	"repro/internal/unwind"
)

// ReplaceStats reports one replacement round (Tables I and II inputs).
type ReplaceStats struct {
	Version            int
	BytesInjected      uint64
	BytesCopied        uint64 // stack-live b_{i,i+1} copies
	BytesFreed         uint64 // dead code GC'd
	VTableSlotsPatched int
	CallSitesPatched   int
	TrampolinesWritten int
	FuncsOnStack       int
	StackFuncsCopied   int
	RetAddrsUpdated    int
	ThreadPCsUpdated   int
	OSRFramesMapped    int     // frames transferred in place between layouts
	OSRFallbacks       int     // frames considered for OSR that degrade to copies
	PauseSeconds       float64 // simulated stop-the-world time
	HostSeconds        float64 // wall time of the controller's work
}

// Replace injects the optimized binary's code into the paused target and
// redirects code pointers to it (steps 3-6 of Figure 4a). It is also the
// continuous-optimization path: when an optimized version is already
// running, stack-live functions of the outgoing version are copied
// (b_{i,i+1}, §IV-C1), return addresses and thread PCs are rewritten, and
// the dead version is garbage-collected.
//
// Replace is transactional: every target mutation goes through a write
// journal (ptrace.Txn) and every controller-map mutation is covered by a
// snapshot. On any mid-stream error — or a pre-resume verifier failure —
// the journal replays its undos in reverse while the target is still
// paused and the controller restores its snapshot, so the round either
// commits fully or leaves target and controller bit-identical to their
// pre-call state (docs/robustness.md).
func (c *Controller) Replace(nb *obj.Binary) (*ReplaceStats, error) {
	return c.replace(nb)
}

// Revert restores execution to C0 (§VI-C4: "we can always revert to C0
// code"): all patched pointers go back to original addresses and every
// optimized region becomes dead and is collected. Stack-live optimized
// functions are copied so in-flight invocations drain safely.
//
// At version 0 there is nothing to revert and Revert is a cheap no-op: no
// pause is charged, no version is consumed, and no report is appended.
func (c *Controller) Revert() (*ReplaceStats, error) {
	if c.version == 0 {
		return &ReplaceStats{}, nil
	}
	return c.replace(nil)
}

func (c *Controller) replace(nb *obj.Binary) (*ReplaceStats, error) {
	start := time.Now()
	newVersion := c.version + 1
	sp := c.startSpan("replace", trace.Int("version", newVersion))

	if newVersion > 1 {
		if c.opts.NoFuncPtrHook {
			err := fmt.Errorf("core: continuous optimization requires the function-pointer hook (§IV-C2)")
			sp.End(err)
			return nil, err
		}
		if c.opts.NoPatchVTables {
			err := fmt.Errorf("core: continuous optimization requires v-table patching")
			sp.End(err)
			return nil, err
		}
	}

	snap := c.snapshot()
	tr := ptrace.Attach(c.p)
	tr.FaultHook = c.wrapFaultHook(sp)
	defer tr.Detach()
	x := ptrace.Begin(tr)

	stats, nr, newCur, dead, osr, err := c.applyReplace(x, nb, newVersion)
	verifyFailed := false
	if err == nil {
		vsp := c.tracer.Start(sp, "verify")
		verr := c.verifyResumeSafety(x, nr, newCur, dead, nb, osr)
		vsp.End(verr)
		if verr != nil {
			err = verr
			verifyFailed = true
		}
	}
	if err != nil {
		// The failing tracee op is the last one begun: the op counter
		// advances before the operation runs, and the rollback below
		// bypasses the counter, so OpCount()-1 still names it.
		sp.EventErr(trace.EvRollback, err, trace.Int("op_index", tr.OpCount()-1))
		if verifyFailed {
			sp.EventErr(trace.EvVerifyFail, err)
		}
		rbErr := x.Rollback()
		c.restore(snap)
		if m := c.opts.Metrics; m != nil {
			m.Counter("core_txn_rollbacks_total").Inc()
			if verifyFailed {
				m.Counter("core_verify_failures_total").Inc()
			}
		}
		if rbErr != nil {
			err = fmt.Errorf("core: replace failed (%v) and rollback failed: %w", err, rbErr)
			sp.End(err)
			return nil, err
		}
		// Round boundary: the rollback must land on the identical controller
		// state in record and replay, or the session diverged.
		if cerr := c.opts.Replay.Checkpoint("replace_rollback", c.StateHash(),
			trace.Int("version", c.version)); cerr != nil {
			sp.End(cerr)
			return nil, cerr
		}
		sp.End(err)
		return nil, err
	}
	x.Commit()

	// Commit the controller: resolver, current binary, preferred entries,
	// version. The map mutations (jtables, patched, tramps, fptrMap) were
	// applied in-stream and stand.
	c.res = *nr
	c.curBin = nb
	c.curOf = newCur
	c.osrFromC0 = osr.fromC0
	c.version = newVersion

	// Charge the stop-the-world pause to the target. Parallel patching
	// spreads the scattered pointer writes over several workers (§IV-D).
	// The verifier runs on the controller's side of the ptrace channel, so
	// the transaction machinery adds nothing to the pause model.
	sites := stats.CallSitesPatched + stats.TrampolinesWritten
	slots := stats.VTableSlotsPatched
	frames := stats.RetAddrsUpdated + stats.ThreadPCsUpdated + stats.OSRFramesMapped
	if c.opts.ParallelPatch {
		sites = (sites + patchParallelism - 1) / patchParallelism
		slots = (slots + patchParallelism - 1) / patchParallelism
		frames = (frames + patchParallelism - 1) / patchParallelism
	}
	stats.PauseSeconds = pauseSeconds(
		stats.BytesInjected+stats.BytesCopied, sites, slots, frames)
	if !c.opts.NoChargePause {
		for _, t := range c.p.Threads {
			t.Core.AddStall(stats.PauseSeconds*c.p.Cfg.ClockHz, cpu.BucketBackEnd)
		}
	}
	stats.HostSeconds = time.Since(start).Seconds()
	c.Reports = append(c.Reports, *stats)
	c.observeStage("replace", stats.HostSeconds)
	if m := c.opts.Metrics; m != nil {
		m.Histogram("core_pause_seconds").Observe(stats.PauseSeconds)
		m.Counter("core_bytes_injected_total").Add(float64(stats.BytesInjected))
		m.Counter("core_bytes_freed_total").Add(float64(stats.BytesFreed))
		if nb == nil {
			m.Counter("core_reverts_total").Inc()
		}
		if stats.OSRFramesMapped > 0 {
			m.CounterVec("core_osr_frames_total", "outcome").With("mapped").Add(float64(stats.OSRFramesMapped))
		}
		if stats.OSRFallbacks > 0 {
			m.CounterVec("core_osr_frames_total", "outcome").With("fallback").Add(float64(stats.OSRFallbacks))
		}
	}
	if nb == nil {
		sp.Event(trace.EvRevert, trace.Int("bytes_freed", int(stats.BytesFreed)))
	}
	sp.SetAttrs(
		trace.Int("bytes_injected", int(stats.BytesInjected)),
		trace.Int("vtable_slots", stats.VTableSlotsPatched),
		trace.Int("call_sites", stats.CallSitesPatched),
		trace.Int("osr_frames_mapped", stats.OSRFramesMapped),
		trace.Float("pause_seconds", stats.PauseSeconds),
	)
	// Round boundary: a committed replacement (or revert) must produce the
	// identical controller state hash under replay.
	if cerr := c.opts.Replay.Checkpoint("replace_commit", c.StateHash(),
		trace.Int("version", c.version)); cerr != nil {
		sp.End(cerr)
		return nil, cerr
	}
	sp.End(nil)
	return stats, nil
}

// wrapFaultHook interposes on the configured fault hook so every fault it
// injects is journaled (with the tracee-local op index) before the
// transaction unwinds.
func (c *Controller) wrapFaultHook(sp *trace.Span) func(op string, n int) error {
	hook := c.opts.FaultHook
	if hook == nil {
		return nil
	}
	return func(op string, n int) error {
		err := hook(op, n)
		if err != nil {
			sp.EventErr(trace.EvFaultInjected, err,
				trace.String("op", op), trace.Int("op_index", n))
		}
		return err
	}
}

// applyReplace performs every mutation of one replacement round through
// the journaled transaction — injection, stack-live copies, pointer
// patching, trampolines, and dead-version GC — and returns the stats,
// the new resolver, the new preferred-entry map, and the address ranges
// garbage-collected this round (for the verifier's dead-pointer check).
// It may mutate the controller's maps freely: the caller holds a snapshot.
func (c *Controller) applyReplace(x *ptrace.Txn, nb *obj.Binary, newVersion int) (*ReplaceStats, *resolver, map[string]uint64, [][2]uint64, *osrOutcome, error) {
	stats := &ReplaceStats{Version: newVersion}
	fail := func(err error) (*ReplaceStats, *resolver, map[string]uint64, [][2]uint64, *osrOutcome, error) {
		return nil, nil, nil, nil, nil, err
	}

	inputBin := c.inputBin()

	// New preferred entry per function: the optimized location when the
	// round moved it, the C0 location otherwise (functions that fell cold
	// fall back to C0 — which always exists, design principle #1).
	newCur := make(map[string]uint64, len(c.c0Entry))
	for name, e := range c.c0Entry {
		newCur[name] = e
	}
	if nb != nil {
		for _, oldE := range sortedKeys(nb.AddrMap) {
			newE := nb.AddrMap[oldE]
			f := inputBin.FuncAt(oldE)
			if f == nil {
				return fail(fmt.Errorf("core: AddrMap key %#x is not a function entry of %s", oldE, inputBin.Name))
			}
			newCur[f.Name] = newE
			c.fptrMap[newE] = c.c0Entry[f.Name]
		}
	}

	// Inject the new code (bulk copy through the in-process agent, §V).
	// The agent mmaps the version's region first, so the tracee's mapped-
	// address checks hold for the fresh range. With AllowJumpTables, the
	// version's relocated jump tables ride along and are registered so
	// stack-live copies can relocate them again.
	sections := []string{obj.SecText, obj.SecColdText}
	if c.opts.AllowJumpTables {
		sections = append(sections, obj.SecROData)
		if nb != nil {
			for _, jt := range nb.JumpTables {
				c.jtables[jt.Addr] = append([]uint64(nil), jt.Targets...)
			}
		}
	}
	if nb != nil {
		if err := x.Map(textBase(newVersion), versionStride); err != nil {
			return fail(err)
		}
		for _, secName := range sections {
			if sec := nb.Section(secName); sec != nil {
				if err := x.AgentWrite(sec.Addr, sec.Data); err != nil {
					return fail(err)
				}
				stats.BytesInjected += uint64(len(sec.Data))
			}
		}
	}

	// Crawl all stacks (libunwind analog).
	stacks, err := unwind.AllStacks(x)
	if err != nil {
		return fail(err)
	}

	// The frame-pointer chain misses one return address when a thread is
	// paused between a CALL and the callee's ENTER (PC exactly at a
	// function entry) or between LEAVE and RET (frame already popped). In
	// both states the hidden return address sits at [SP]; synthesize a
	// frame for it so liveness classification and relocation see it.
	for tid := range stacks {
		regs, err := x.GetRegs(tid)
		if err != nil {
			return fail(err)
		}
		ra, slot, err := c.hiddenRetAddr(x, tid, regs, &c.res)
		if err != nil {
			return fail(err)
		}
		if slot != 0 {
			if _, ok := c.res.at(ra); ok {
				stacks[tid] = append(stacks[tid], unwind.Frame{PC: ra, RetSlot: slot})
			}
		}
	}

	// On-stack replacement: transfer frames parked at mappable points
	// directly between layouts. Runs before liveness classification so an
	// instance whose every frame was transferred needs no stack-live copy.
	osr, osrMapped, err := c.applyOSR(x, nb, stacks, stats)
	if err != nil {
		return fail(err)
	}

	liveC0 := make(map[string]bool)
	liveOldEntry := make(map[uint64]bool) // live instance entries, outgoing version
	for tid, frames := range stacks {
		for fi, fr := range frames {
			if osrMapped[[2]int{tid, fi}] {
				continue // already transferred off the outgoing code
			}
			s, ok := c.res.at(fr.PC)
			if !ok {
				return fail(fmt.Errorf("core: stack address %#x in unknown code", fr.PC))
			}
			if s.version == 0 {
				liveC0[s.name] = true
			} else {
				liveOldEntry[s.entry] = true
			}
		}
	}
	stats.FuncsOnStack = len(liveC0) + len(liveOldEntry)

	// Copy stack-live function instances of the outgoing version so their
	// frames stay executable after GC (the b_{i,i+1} mechanism, §IV-C1).
	// Each instance gets its own copy window; all of its spans (hot plus
	// exiled cold) shift by one per-instance delta, so every PC-relative
	// branch inside it — including hot→cold — stays valid. Direct calls
	// are retargeted to the new preferred entries.
	type copied struct {
		oldLo, oldHi uint64
		delta        int64
		name         string
		entry        uint64
	}
	var copies []copied
	if c.version >= 1 && len(liveOldEntry) > 0 {
		if err := x.Map(copiesArea(newVersion), copiesAreaStride); err != nil {
			return fail(err)
		}
		entries := make([]uint64, 0, len(liveOldEntry))
		for e := range liveOldEntry {
			entries = append(entries, e)
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
		for k, entry := range entries {
			var spans []span
			for _, s := range c.res.versionSpans(c.version) {
				if s.entry == entry {
					spans = append(spans, s)
				}
			}
			if len(spans) == 0 {
				return fail(fmt.Errorf("core: live instance %#x has no spans", entry))
			}
			minLo, maxHi := spans[0].lo, spans[0].hi
			for _, s := range spans {
				if s.lo < minLo {
					minLo = s.lo
				}
				if s.hi > maxHi {
					maxHi = s.hi
				}
			}
			if maxHi-minLo > copyWindow {
				return fail(fmt.Errorf("core: instance %#x spans %#x bytes, exceeds copy window", entry, maxHi-minLo))
			}
			winBase := copiesArea(newVersion) + uint64(k)*copyWindow
			delta := int64(winBase) - int64(minLo)
			// Jump tables the instance references are relocated into the
			// upper half of its copy window (their old homes are about to
			// be garbage-collected with the outgoing version).
			tableCursor := winBase + copyWindow/2
			for _, s := range spans {
				buf := make([]byte, s.hi-s.lo)
				if err := x.ReadMem(s.lo, buf); err != nil {
					return fail(err)
				}
				if err := c.retargetCopy(x, buf, s.lo, delta, newCur, spans, &tableCursor); err != nil {
					return fail(err)
				}
				if err := x.AgentWrite(uint64(int64(s.lo)+delta), buf); err != nil {
					return fail(err)
				}
				stats.BytesCopied += uint64(len(buf))
				copies = append(copies, copied{oldLo: s.lo, oldHi: s.hi, delta: delta, name: s.name, entry: s.entry})
			}
		}
		stats.StackFuncsCopied = len(liveOldEntry)
	}
	relocate := func(addr uint64) (uint64, bool) {
		for _, cp := range copies {
			if addr >= cp.oldLo && addr < cp.oldHi {
				return uint64(int64(addr) + cp.delta), true
			}
		}
		return addr, false
	}

	// Rewrite return addresses and thread PCs that point into copied code.
	// The register files are kept for the v-table register rewrite below.
	regsOf := make([]ptrace.Regs, len(stacks))
	for tid, frames := range stacks {
		regs, err := x.GetRegs(tid)
		if err != nil {
			return fail(err)
		}
		if pc, ok := relocate(regs.PC); ok && !osrMapped[[2]int{tid, 0}] {
			regs.PC = pc
			if err := x.SetRegs(tid, regs); err != nil {
				return fail(err)
			}
			stats.ThreadPCsUpdated++
		}
		regsOf[tid] = regs
		for fi, fr := range frames {
			if fr.RetSlot == 0 || osrMapped[[2]int{tid, fi}] {
				continue
			}
			if ra, ok := relocate(fr.PC); ok {
				if err := x.PokeData(fr.RetSlot, ra); err != nil {
					return fail(err)
				}
				stats.RetAddrsUpdated++
			}
		}
	}

	// Patch v-table slots to the new preferred entries. A thread paused
	// between a slot load and its CALLR holds the outgoing entry in a
	// register: aim that register where the slot now points.
	if !c.opts.NoPatchVTables {
		moved := make(map[uint64]uint64)
		for _, vt := range c.orig.VTables {
			for i := range vt.Slots {
				slotAddr := vt.Addr + uint64(i)*8
				v, err := x.PeekData(slotAddr)
				if err != nil {
					return fail(err)
				}
				s, ok := c.res.at(v)
				if !ok {
					return fail(fmt.Errorf("core: vtable %s slot %d holds unknown code address %#x", vt.Name, i, v))
				}
				want := newCur[s.name]
				if v != want {
					if err := x.PokeData(slotAddr, want); err != nil {
						return fail(err)
					}
					stats.VTableSlotsPatched++
					if s.version != 0 {
						moved[v] = want
					}
				}
			}
		}
		for tid, regs := range regsOf {
			hit := false
			for r, v := range regs.GPR {
				if want, ok := moved[v]; ok {
					regs.GPR[r], hit = want, true
				}
			}
			if hit {
				if err := x.SetRegs(tid, regs); err != nil {
					return fail(err)
				}
			}
		}
	}

	// Patch direct calls in C0. Default: stack-live functions only (§IV-B
	// found patching all functions does not help — they are cold — and
	// slows replacement; PatchAllCalls reproduces that ablation).
	// Previously patched sites are always re-patched so no reference to
	// the outgoing version survives.
	patchSet := make(map[string]bool)
	switch {
	case c.opts.PatchAllCalls:
		for name := range c.callSites {
			patchSet[name] = true
		}
	case !c.opts.NoPatchStackCalls || newVersion > 1:
		for name := range liveC0 {
			patchSet[name] = true
		}
	}
	patchSite := func(site callSite) error {
		want := newCur[site.callee]
		imm := int64(want) - int64(site.addr+isa.InstBytes)
		cur, err := x.PeekData(site.addr + 8)
		if err != nil {
			return err
		}
		if int64(cur) == imm {
			return nil
		}
		if err := x.PokeData(site.addr+8, uint64(imm)); err != nil {
			return err
		}
		stats.CallSitesPatched++
		return nil
	}
	for _, name := range sortedKeys(patchSet) {
		for _, site := range c.callSites[name] {
			if err := patchSite(site); err != nil {
				return fail(err)
			}
			c.patched[site.addr] = site.callee
		}
	}
	for _, addr := range sortedKeys(c.patched) {
		if err := patchSite(callSite{addr: addr, callee: c.patched[addr]}); err != nil {
			return fail(err)
		}
	}

	// Trampoline mode: every moved function's C0 entry bounces to the new
	// version; functions falling back to C0 get their original entry
	// instruction restored. Done while still paused, so no thread ever
	// observes a torn instruction.
	if c.opts.Trampolines {
		for _, name := range sortedKeys(c.c0Entry) {
			c0 := c.c0Entry[name]
			target := newCur[name]
			switch {
			case target != c0:
				jmp := isa.Inst{Op: isa.JMP, Imm: int64(target) - int64(c0+isa.InstBytes)}
				var buf [isa.InstBytes]byte
				jmp.Encode(buf[:])
				if err := x.AgentWrite(c0, buf[:]); err != nil {
					return fail(err)
				}
				c.tramps[name] = true
				stats.TrampolinesWritten++
			case c.tramps[name]:
				orig, err := c.orig.Bytes(c0, isa.InstBytes)
				if err != nil {
					return fail(err)
				}
				if err := x.AgentWrite(c0, orig); err != nil {
					return fail(err)
				}
				delete(c.tramps, name)
				stats.TrampolinesWritten++
			}
		}
	}

	// Garbage-collect the outgoing version (§IV-C): its code is now
	// unreachable — v-tables, C0 calls, return addresses and PCs all point
	// at C_{i+1}, copies, or C0, and function pointers were never allowed
	// to reference it. The whole text region and copies area of the dead
	// version are unmapped through the transaction (so a rollback can
	// resurrect them), returning the pages to the system.
	var dead [][2]uint64
	if c.version >= 1 {
		for _, s := range c.res.versionSpans(c.version) {
			stats.BytesFreed += s.hi - s.lo
		}
		gcText := textBase(c.version)
		gcCopies := copiesArea(c.version)
		if err := x.Unmap(gcText, versionStride); err != nil {
			return fail(err)
		}
		if err := x.Unmap(gcCopies, copiesAreaStride); err != nil {
			return fail(err)
		}
		dead = [][2]uint64{
			{gcText, gcText + versionStride},
			{gcCopies, gcCopies + copiesAreaStride},
		}
		// Drop jump-table registrations that lived in the dead regions.
		for addr := range c.jtables {
			if (addr >= gcText && addr < gcText+versionStride) ||
				(addr >= gcCopies && addr < gcCopies+copiesAreaStride) {
				delete(c.jtables, addr)
			}
		}
	}

	// Rebuild the resolver: C0 + incoming version + copies.
	nr := &resolver{}
	for _, s := range c.res.versionSpans(0) {
		nr.spans = append(nr.spans, s)
	}
	if nb != nil {
		for _, f := range nb.Funcs {
			if !f.Optimized {
				continue // pinned functions alias C0 spans
			}
			nr.add(f.Addr, f.Addr+f.Size, f.Name, f.Addr, newVersion)
			if f.ColdSize > 0 {
				nr.add(f.ColdAddr, f.ColdAddr+f.ColdSize, f.Name, f.Addr, newVersion)
			}
		}
	}
	for _, cp := range copies {
		nr.add(uint64(int64(cp.oldLo)+cp.delta), uint64(int64(cp.oldHi)+cp.delta),
			cp.name, uint64(int64(cp.entry)+cp.delta), newVersion)
	}
	nr.sort()
	return stats, nr, newCur, dead, osr, nil
}

// hiddenRetAddr detects the two pause states whose return address the
// frame-pointer chain cannot see (PC exactly at a function entry, or at a
// RET with the frame already popped) and reads it from [SP]. It returns
// slot 0 when the thread has no hidden return address — including the
// empty-stack case where SP still sits at the thread's stack top and
// there is nothing to read. res says where function entries are:
// applyReplace passes the live resolver, the verifier the new one (after
// patching, a thread paused at a moved function's entry sits at the new
// version's entry address, which only the new resolver knows).
func (c *Controller) hiddenRetAddr(x *ptrace.Txn, tid int, regs ptrace.Regs, res *resolver) (ra, slot uint64, err error) {
	sp := regs.GPR[isa.SP]
	if sp+8 > c.p.Threads[tid].StackHi {
		return 0, 0, nil
	}
	var instBuf [isa.InstBytes]byte
	if err := x.ReadMem(regs.PC, instBuf[:]); err != nil {
		return 0, 0, err
	}
	in, derr := isa.Decode(instBuf[:])
	atEntry := false
	if s, ok := res.at(regs.PC); ok && regs.PC == s.entry {
		atEntry = true
	}
	if !atEntry && (derr != nil || in.Op != isa.RET) {
		return 0, 0, nil
	}
	ra, err = x.PeekData(sp)
	if err != nil {
		return 0, 0, err
	}
	return ra, sp, nil
}

// retargetCopy rewrites the position-dependent operands of a copied code
// blob (read from oldBase, about to be written at oldBase+delta):
//
//   - direct-call immediates are re-aimed at the callee's new preferred
//     entry (intra-function PC-relative branches need no fixup because
//     every span of the instance moves by the same delta);
//   - jump tables are relocated into the instance's copy window (their
//     old homes are garbage-collected with the outgoing version), with
//     every entry shifted by the instance delta.
func (c *Controller) retargetCopy(x *ptrace.Txn, buf []byte, oldBase uint64, delta int64, newCur map[string]uint64, spans []span, tableCursor *uint64) error {
	inSpans := func(addr uint64) bool {
		for _, s := range spans {
			if addr >= s.lo && addr < s.hi {
				return true
			}
		}
		return false
	}
	n := len(buf) / isa.InstBytes
	for i := 0; i < n; i++ {
		in, err := isa.Decode(buf[i*isa.InstBytes:])
		if err != nil {
			return fmt.Errorf("core: decoding copied code at %#x: %w", oldBase+uint64(i)*isa.InstBytes, err)
		}
		oldPC := oldBase + uint64(i)*isa.InstBytes
		switch in.Op {
		case isa.CALL:
			tgt := uint64(int64(oldPC) + isa.InstBytes + in.Imm)
			s, ok := c.res.at(tgt)
			if !ok {
				return fmt.Errorf("core: copied call at %#x targets unknown code %#x", oldPC, tgt)
			}
			want, ok := newCur[s.name]
			if !ok {
				return fmt.Errorf("core: no entry for function %s", s.name)
			}
			newPC := uint64(int64(oldPC) + delta)
			in.Imm = int64(want) - int64(newPC+isa.InstBytes)
			in.Encode(buf[i*isa.InstBytes:])
		case isa.JTBL:
			oldT := uint64(in.Imm)
			entries, ok := c.jtables[oldT]
			if !ok {
				return fmt.Errorf("core: copied jump table %#x at %#x is not registered", oldT, oldPC)
			}
			shifted := make([]uint64, len(entries))
			raw := make([]byte, len(entries)*8)
			for j, e := range entries {
				if !inSpans(e) {
					return fmt.Errorf("core: jump table %#x entry %#x escapes the copied instance", oldT, e)
				}
				shifted[j] = uint64(int64(e) + delta)
				for b := 0; b < 8; b++ {
					raw[j*8+b] = byte(shifted[j] >> (8 * b))
				}
			}
			newT := *tableCursor
			*tableCursor += uint64(len(raw)+63) &^ 63
			if err := x.AgentWrite(newT, raw); err != nil {
				return err
			}
			c.jtables[newT] = shifted
			in.Imm = int64(newT)
			in.Encode(buf[i*isa.InstBytes:])
		}
	}
	return nil
}
