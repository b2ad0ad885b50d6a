package core

import (
	"repro/internal/bolt"
	"repro/internal/obj"
	"repro/internal/ptrace"
	"repro/internal/unwind"
)

// On-stack replacement (OSR) transfers a thread frame parked inside an
// outgoing code version directly to the equivalent point of the target
// layout, instead of letting the frame drain through a stack-live copy.
// BOLT only reorders basic blocks — it never changes the instructions or
// the frame layout — so two layouts of one function are state-equivalent
// at every block boundary the optimizer registered as mappable: the
// function entry, loop headers (backward-branch targets), call sites, and
// return points (the instruction after a CALL). The "à la carte" OSR map
// of those points is produced per round by internal/bolt
// (obj.Binary.OSRMap); everything here is offset arithmetic against it.
//
// Frames parked anywhere else are simply left to the pre-existing
// copy-based migration — fallback is a counted outcome, never an error.

// osrRewrite records one on-stack-replaced frame: where the frame's
// stored PC lives (slot 0 = the thread's live PC register), what it held,
// and the offset arithmetic that justified the rewrite. The pre-resume
// verifier re-derives every field against the OSR maps before the target
// is allowed to run.
type osrRewrite struct {
	tid, frame int
	slot       uint64 // return-address slot; 0 → thread PC (registers)
	oldPC      uint64
	newPC      uint64
	name       string
	entry      uint64 // input-binary entry keying the OSR-map lookup (forward only)
	oldOff     uint64 // unified offset of oldPC in the frame's layout
	viaOff     uint64 // input-layout offset fed into the incoming OSR map (forward only)
	newOff     uint64 // unified offset of newPC in the target layout
	toC0       bool   // target is the immortal C0 image (revert / fell-cold)
}

// osrOutcome bundles what the OSR stage hands back to replace(): the
// rewrites performed (for the verifier) and the composed C0→new-layout
// relation, which becomes c.osrFromC0 if — and only if — the round
// commits. A rollback therefore never has to undo it.
type osrOutcome struct {
	rewrites []osrRewrite
	fromC0   map[string]map[uint64]uint64
}

// osrAddrAt maps a unified offset back to an address in f's layout (the
// inverse of bolt.UnifiedOff): offsets past the hot size live in the
// exiled cold fragment.
func osrAddrAt(f *obj.Func, off uint64) uint64 {
	if off < f.Size {
		return f.Addr + off
	}
	return f.ColdAddr + (off - f.Size)
}

// composeFromC0 computes the C0-offset → incoming-layout-offset OSR
// relation that describes the round being applied: nb's per-round map
// composed onto the live relation (identity for functions currently at
// C0 — round one, or functions that were cold until now). A revert
// returns the empty relation: after it, the current layout *is* C0.
// Points whose image is not mappable in the new layout drop out of the
// relation — a frame parked there in some future round falls back to a
// copy, which is always sound.
func (c *Controller) composeFromC0(nb *obj.Binary) map[string]map[uint64]uint64 {
	out := make(map[string]map[uint64]uint64)
	if nb == nil {
		return out
	}
	for oldE, pts := range nb.OSRMap {
		f := c.inputBin().FuncAt(oldE)
		if f == nil {
			continue
		}
		m := make(map[uint64]uint64, len(pts))
		if prev := c.osrFromC0[f.Name]; prev != nil {
			for c0Off, curOff := range prev {
				if p, ok := nb.OSRPointAt(oldE, curOff); ok {
					m[c0Off] = p.NewOff
				}
			}
		} else {
			for _, p := range pts {
				m[p.OldOff] = p.NewOff
			}
		}
		out[f.Name] = m
	}
	return out
}

// invertFromC0 finds the smallest C0 offset whose image under the live
// relation is curOff. The relation need not be injective (a call site
// and a loop header can collapse onto one block start), but every
// preimage of a mappable point is state-equivalent to it by
// construction, so any choice is sound and the smallest is
// deterministic.
func (c *Controller) invertFromC0(name string, curOff uint64) (uint64, bool) {
	var best uint64
	found := false
	for c0Off, v := range c.osrFromC0[name] {
		if v == curOff && (!found || c0Off < best) {
			best, found = c0Off, true
		}
	}
	return best, found
}

// osrDecide classifies one parked frame. It returns (nil, false) when the
// frame is outside OSR's scope this round (code that is not changing),
// (nil, true) when the frame was considered but sits at no mappable point
// (it degrades to copy-based migration), and a rewrite when the frame can
// be transferred in place.
func (c *Controller) osrDecide(nb *obj.Binary, fr unwind.Frame) (*osrRewrite, bool) {
	s, ok := c.res.at(fr.PC)
	if !ok {
		return nil, false // the liveness pass reports unknown code addresses
	}
	// entry and viaOff key the incoming OSR map: the function's input-
	// layout entry and the frame's offset in that layout.
	var entry, oldOff, viaOff uint64
	if s.version == 0 {
		// A frame on the immortal C0 image is never at risk, but if its
		// function moves this round we transfer it anyway: function
		// pointers always aim at C0, so without OSR a thread parked in a
		// hot loop here would keep executing the stale layout until the
		// loop returned.
		if nb == nil {
			return nil, false
		}
		inf := c.inputBin().FuncByName(s.name)
		if inf == nil {
			return nil, false
		}
		if _, moved := nb.AddrMap[inf.Addr]; !moved {
			return nil, false
		}
		c0f := c.orig.FuncByName(s.name)
		if c0f == nil || fr.PC < c0f.Addr || fr.PC >= c0f.Addr+c0f.Size {
			return nil, false
		}
		entry, oldOff = inf.Addr, fr.PC-c0f.Addr
		// Pivot the C0 offset through the live relation first (identity
		// while the input layout is C0 itself).
		viaOff = oldOff
		if prev := c.osrFromC0[s.name]; prev != nil {
			v, ok := prev[oldOff]
			if !ok {
				return nil, true
			}
			viaOff = v
		}
	} else {
		if s.version != c.version {
			return nil, false
		}
		inf := c.inputBin().FuncAt(s.entry)
		if inf == nil {
			// A stack-live copy from an earlier round: its ad-hoc layout is
			// in no OSR map, so it keeps draining through the copy mechanism.
			return nil, true
		}
		if oldOff, ok = bolt.UnifiedOff(inf, fr.PC); !ok {
			return nil, true
		}
		if nb == nil || nb.AddrMap[s.entry] == 0 {
			// Revert, or the function fell cold this round: its preferred
			// entry goes back to C0, so transfer the frame there by
			// inverting the live C0→current relation.
			c0Off, ok := c.invertFromC0(s.name, oldOff)
			c0f := c.orig.FuncByName(s.name)
			if !ok || c0f == nil || c0Off >= c0f.Size {
				return nil, true
			}
			return &osrRewrite{oldPC: fr.PC, newPC: c0f.Addr + c0Off, name: s.name,
				oldOff: oldOff, newOff: c0Off, toC0: true}, true
		}
		entry, viaOff = s.entry, oldOff
	}
	p, ok := nb.OSRPointAt(entry, viaOff)
	nf := nb.FuncByName(s.name)
	if !ok || nf == nil {
		return nil, true
	}
	return &osrRewrite{oldPC: fr.PC, newPC: osrAddrAt(nf, p.NewOff), name: s.name,
		entry: entry, oldOff: oldOff, viaOff: viaOff, newOff: p.NewOff}, true
}

// applyOSR is the on-stack-replacement stage of a replacement round. It
// runs while the target is paused, after the incoming code is injected
// and the stacks (including synthesized hidden frames) are crawled, but
// before liveness classification — an instance whose every frame was
// transferred needs no stack-live copy at all. Each rewrite goes through
// the journaled transaction (SetRegs for a thread's live PC, PokeData for
// a return-address slot), so a rollback restores every frame
// bit-identically; each decision — mapped or fallback — is journaled by
// an active replay session in deterministic stack order. The returned set
// marks rewritten frames by (tid, frame index) so the later passes leave
// them alone.
func (c *Controller) applyOSR(x *ptrace.Txn, nb *obj.Binary, stacks [][]unwind.Frame, stats *ReplaceStats) (*osrOutcome, map[[2]int]bool, error) {
	out := &osrOutcome{fromC0: c.composeFromC0(nb)}
	mapped := make(map[[2]int]bool)
	if c.opts.NoOSR {
		return out, mapped, nil
	}
	for tid, frames := range stacks {
		for fi, fr := range frames {
			rw, considered := c.osrDecide(nb, fr)
			if !considered {
				continue
			}
			outcome := "fallback"
			var newPC uint64
			if rw != nil {
				outcome = "mapped"
				newPC = rw.newPC
			}
			if err := c.opts.Replay.OSREvent(tid, fi, fr.PC, outcome, newPC); err != nil {
				return nil, nil, err
			}
			if rw == nil {
				stats.OSRFallbacks++
				continue
			}
			rw.tid, rw.frame = tid, fi
			if fr.RetSlot == 0 {
				regs, err := x.GetRegs(tid)
				if err != nil {
					return nil, nil, err
				}
				regs.PC = rw.newPC
				if err := x.SetRegs(tid, regs); err != nil {
					return nil, nil, err
				}
			} else {
				rw.slot = fr.RetSlot
				if err := x.PokeData(fr.RetSlot, rw.newPC); err != nil {
					return nil, nil, err
				}
			}
			stats.OSRFramesMapped++
			mapped[[2]int{tid, fi}] = true
			out.rewrites = append(out.rewrites, *rw)
		}
	}
	return out, mapped, nil
}
