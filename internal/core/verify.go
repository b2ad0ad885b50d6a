package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/ptrace"
	"repro/internal/unwind"
)

// verifyResumeSafety runs after every mutation of a replacement round and
// before the target is resumed. It re-reads the patched state through the
// transaction and asserts the invariants a safe resume depends on:
//
//   - every patched direct call decodes to a CALL whose target is the
//     callee's current preferred entry;
//   - every v-table slot holds a known function entry (and, when v-table
//     patching is on, the preferred one);
//   - every thread PC, every return address on every stack (including the
//     synthesized hidden frames), and every trampoline target lands in
//     code the new resolver knows;
//   - no live pointer references the address ranges being garbage-
//     collected this round;
//   - no general-purpose register holds the entry of a function instance
//     being garbage-collected (replace re-aims a register still holding
//     an outgoing entry loaded from a v-table slot). Only entries count:
//     a register may hold any data, and a hash can fall in a dead range;
//   - every registered jump-table entry still points into a live span;
//   - every OSR-rewritten frame (see osr.go) holds exactly the new PC it
//     was given, that PC decodes to a live instruction of the same
//     function, and the offset arithmetic that justified the transfer
//     re-derives from the OSR maps.
//
// Any violation aborts the round: the caller rolls the journal back while
// the target is still paused, so a bug in the patching logic degrades to a
// skipped round instead of a resumed process running through torn state.
// All reads go through the tracee in deterministic (sorted) order, so the
// fault sweep exercises verifier reads too.
func (c *Controller) verifyResumeSafety(x *ptrace.Txn, nr *resolver, newCur map[string]uint64, dead [][2]uint64, nb *obj.Binary, osr *osrOutcome) error {
	inDead := func(addr uint64) bool {
		for _, d := range dead {
			if addr >= d[0] && addr < d[1] {
				return true
			}
		}
		return false
	}
	checkCode := func(what string, addr uint64) (span, error) {
		if inDead(addr) {
			return span{}, fmt.Errorf("core: verify: %s %#x references garbage-collected code", what, addr)
		}
		s, ok := nr.at(addr)
		if !ok {
			return span{}, fmt.Errorf("core: verify: %s %#x is not in any live code span", what, addr)
		}
		return s, nil
	}

	// Patched direct-call sites decode to CALLs aimed at preferred entries.
	for _, addr := range sortedKeys(c.patched) {
		callee := c.patched[addr]
		var buf [isa.InstBytes]byte
		if err := x.ReadMem(addr, buf[:]); err != nil {
			return err
		}
		in, err := isa.Decode(buf[:])
		if err != nil || in.Op != isa.CALL {
			return fmt.Errorf("core: verify: patched site %#x does not decode to a CALL", addr)
		}
		tgt := uint64(int64(addr) + isa.InstBytes + in.Imm)
		want, ok := newCur[callee]
		if !ok {
			return fmt.Errorf("core: verify: patched site %#x calls unknown function %s", addr, callee)
		}
		if tgt != want {
			return fmt.Errorf("core: verify: patched call %#x→%s targets %#x, want %#x", addr, callee, tgt, want)
		}
		if _, err := checkCode("patched call target", tgt); err != nil {
			return err
		}
	}

	// V-table slots hold live, known function entries.
	for _, vt := range c.orig.VTables {
		for i := range vt.Slots {
			v, err := x.PeekData(vt.Addr + uint64(i)*8)
			if err != nil {
				return err
			}
			s, err := checkCode(fmt.Sprintf("vtable %s slot %d", vt.Name, i), v)
			if err != nil {
				return err
			}
			if !c.opts.NoPatchVTables {
				if want := newCur[s.name]; v != want {
					return fmt.Errorf("core: verify: vtable %s slot %d holds %#x, want preferred entry %#x of %s",
						vt.Name, i, v, want, s.name)
				}
			}
			if v != s.entry {
				return fmt.Errorf("core: verify: vtable %s slot %d holds %#x, mid-function of %s", vt.Name, i, v, s.name)
			}
		}
	}

	// Trampolines decode to JMPs into the preferred entry.
	for _, name := range sortedKeys(c.tramps) {
		c0 := c.c0Entry[name]
		var buf [isa.InstBytes]byte
		if err := x.ReadMem(c0, buf[:]); err != nil {
			return err
		}
		in, err := isa.Decode(buf[:])
		if err != nil || in.Op != isa.JMP {
			return fmt.Errorf("core: verify: trampoline for %s at %#x does not decode to a JMP", name, c0)
		}
		tgt := uint64(int64(c0) + isa.InstBytes + in.Imm)
		if want := newCur[name]; tgt != want {
			return fmt.Errorf("core: verify: trampoline for %s jumps to %#x, want %#x", name, tgt, want)
		}
		if _, err := checkCode("trampoline target", tgt); err != nil {
			return err
		}
	}

	// Thread PCs, every return address reachable by a fresh unwind, and
	// the hidden [SP] return addresses all resolve to live code.
	stacks, err := unwind.AllStacks(x)
	if err != nil {
		return err
	}
	for tid, frames := range stacks {
		for i, fr := range frames {
			what := fmt.Sprintf("thread %d frame %d return address", tid, i)
			if i == 0 {
				what = fmt.Sprintf("thread %d PC", tid)
			}
			if _, err := checkCode(what, fr.PC); err != nil {
				return err
			}
		}
		regs, err := x.GetRegs(tid)
		if err != nil {
			return err
		}
		// c.res is still the outgoing resolver: its spans off C0 are
		// exactly the code being collected.
		for r, v := range regs.GPR {
			if s, ok := c.res.at(v); ok && s.version != 0 && v == s.entry {
				return fmt.Errorf("core: verify: thread %d register r%d holds %#x, the entry of garbage-collected %s", tid, r, v, s.name)
			}
		}
		ra, slot, err := c.hiddenRetAddr(x, tid, regs, nr)
		if err != nil {
			return err
		}
		if slot != 0 {
			if _, err := checkCode(fmt.Sprintf("thread %d hidden return address", tid), ra); err != nil {
				return err
			}
		}
	}

	// Every OSR-rewritten frame landed where the decision said it would,
	// on an address that decodes and that the OSR maps justify.
	if osr != nil {
		if err := c.verifyOSRRewrites(x, nr, nb, osr); err != nil {
			return err
		}
	}

	// Registered jump tables only reference live spans.
	for _, addr := range sortedKeys(c.jtables) {
		if inDead(addr) {
			return fmt.Errorf("core: verify: jump table %#x lives in garbage-collected code", addr)
		}
		for j, e := range c.jtables[addr] {
			if _, err := checkCode(fmt.Sprintf("jump table %#x entry %d", addr, j), e); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyOSRRewrites re-derives every on-stack replacement performed this
// round. For each rewrite it re-reads the rewritten location through the
// transaction and checks the landing point against the OSR maps: a
// forward transfer must match the incoming binary's registered mappable
// point (pivoted through the live C0 relation when the frame sat on C0),
// and a transfer onto C0 must invert through the live relation onto the
// exact C0 address written. Note c.osrFromC0 still holds the *old*
// relation here — the new one is only installed on commit — which is
// precisely the relation the decisions were made against.
func (c *Controller) verifyOSRRewrites(x *ptrace.Txn, nr *resolver, nb *obj.Binary, osr *osrOutcome) error {
	for _, rw := range osr.rewrites {
		var got uint64
		if rw.slot == 0 {
			regs, err := x.GetRegs(rw.tid)
			if err != nil {
				return err
			}
			got = regs.PC
		} else {
			v, err := x.PeekData(rw.slot)
			if err != nil {
				return err
			}
			got = v
		}
		if got != rw.newPC {
			return fmt.Errorf("core: verify: OSR frame %d/%d holds %#x, want %#x", rw.tid, rw.frame, got, rw.newPC)
		}
		s, ok := nr.at(rw.newPC)
		if !ok {
			return fmt.Errorf("core: verify: OSR target %#x of thread %d frame %d is not in any live code span", rw.newPC, rw.tid, rw.frame)
		}
		if s.name != rw.name {
			return fmt.Errorf("core: verify: OSR target %#x is in %s, want %s", rw.newPC, s.name, rw.name)
		}
		var buf [isa.InstBytes]byte
		if err := x.ReadMem(rw.newPC, buf[:]); err != nil {
			return err
		}
		if _, err := isa.Decode(buf[:]); err != nil {
			return fmt.Errorf("core: verify: OSR target %#x does not decode: %v", rw.newPC, err)
		}
		if rw.toC0 {
			if s.version != 0 {
				return fmt.Errorf("core: verify: OSR transfer to C0 landed in version %d", s.version)
			}
			c0f := c.orig.FuncByName(rw.name)
			if c0f == nil || rw.newOff >= c0f.Size || c0f.Addr+rw.newOff != rw.newPC {
				return fmt.Errorf("core: verify: OSR transfer to C0 of %s: %#x is not offset %#x", rw.name, rw.newPC, rw.newOff)
			}
			if m := c.osrFromC0[rw.name]; m == nil || m[rw.newOff] != rw.oldOff {
				return fmt.Errorf("core: verify: OSR transfer of %s to C0 offset %#x is not an equivalent point of offset %#x", rw.name, rw.newOff, rw.oldOff)
			}
			continue
		}
		if nb == nil {
			return fmt.Errorf("core: verify: forward OSR rewrite of %s without an incoming binary", rw.name)
		}
		p, ok := nb.OSRPointAt(rw.entry, rw.viaOff)
		if !ok || p.NewOff != rw.newOff {
			return fmt.Errorf("core: verify: OSR point %#x of %s does not map to offset %#x", rw.viaOff, rw.name, rw.newOff)
		}
		nf := nb.FuncByName(rw.name)
		if nf == nil || osrAddrAt(nf, rw.newOff) != rw.newPC {
			return fmt.Errorf("core: verify: OSR target %#x is not offset %#x of the incoming %s", rw.newPC, rw.newOff, rw.name)
		}
		if s.version == 0 || s.entry != nf.Addr {
			return fmt.Errorf("core: verify: OSR target %#x resolves to instance %#x v%d, want the incoming %s", rw.newPC, s.entry, s.version, rw.name)
		}
		if rw.oldOff != rw.viaOff {
			if m := c.osrFromC0[rw.name]; m == nil || m[rw.oldOff] != rw.viaOff {
				return fmt.Errorf("core: verify: OSR pivot of %s C0 offset %#x through %#x is not in the live relation", rw.name, rw.oldOff, rw.viaOff)
			}
		}
	}
	return nil
}
