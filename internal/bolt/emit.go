package bolt

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/obj"
)

// emitFunc encodes one lifted function with the chosen hot/cold block
// layout into fragments, performing the branch fixups the new adjacency
// requires:
//
//   - a JMP whose target became the next block is deleted
//   - a JCC whose taken target became the next block is inverted, making
//     the hot edge a fallthrough (the taken-branch reduction of Figure 2)
//   - a block whose fallthrough moved away gains a JMP
//
// Branches within a fragment are encoded final; hot↔cold branches, calls,
// FPTRs and JTBLs become relocations the linker resolves to the final
// addresses; jump tables become block references.
//
// Alongside the fragments, emitFunc collects the function's OSR map: the
// mappable points — entry, loop headers (backward-edge targets), CALL
// sites, and the return points after them — as old→new unified offsets.
// These are exactly the points where the live register/spill state is
// identical in both layouts (reordering never touches instructions inside
// a block, and deleted NOPs carry no state), so a parked frame can be
// transferred between layouts there with no state reconstruction.
func emitFunc(cfg *CFG, hotOrder, coldOrder []int, bin *obj.Binary, peephole bool) (*asm.Fragment, *asm.Fragment, []obj.OSRPoint, error) {
	fn := cfg.Fn
	if len(hotOrder) == 0 || hotOrder[0] != 0 {
		return nil, nil, nil, fmt.Errorf("bolt: %s: layout must start with the entry block", fn.Name)
	}

	layouts := [2][]int{hotOrder, coldOrder}
	names := [2]string{fn.Name, fn.Name + asm.ColdSuffix}

	// Pass 1: per-block emitted instruction counts given adjacency.
	type plan struct {
		count   int  // emitted instructions
		dropJmp bool // trailing JMP removed
		invert  bool // trailing JCC inverted (branch to FallTo instead)
		addJmp  int  // block to JMP to after body (-1 none)
		frag    int  // 0 hot / 1 cold
		index   int  // index of the block's first instruction in its fragment
	}
	plans := make([]plan, len(cfg.Blocks))
	for li, order := range layouts {
		for i, bi := range order {
			next := -1 // physically next block
			if i+1 < len(order) {
				next = order[i+1]
			}
			b := cfg.Blocks[bi]
			n := len(b.Insts)
			if peephole {
				// Peephole: alignment/padding NOPs are deleted from
				// relocated code (§II-C's "small peephole optimizations").
				n = 0
				for _, in := range b.Insts {
					if in.Op != isa.NOP {
						n++
					}
				}
			}
			p := &plans[bi]
			*p = plan{count: n, addJmp: -1, frag: li}
			switch term := b.Terminator(); term.Op {
			case isa.JMP:
				if b.CondTarget == next {
					p.dropJmp = true
					p.count--
				}
			case isa.JCC:
				if b.FallTo < 0 {
					return nil, nil, nil, fmt.Errorf("bolt: %s: JCC without fallthrough", fn.Name)
				}
				switch {
				case b.FallTo == next:
					// keep as-is
				case b.CondTarget == next:
					p.invert = true
				default:
					p.addJmp = b.FallTo
					p.count++
				}
			case isa.RET, isa.HALT, isa.JTBL:
				// no fixup
			default:
				if b.FallTo >= 0 && b.FallTo != next {
					p.addJmp = b.FallTo
					p.count++
				}
			}
		}
	}

	// Pass 2: block start indexes.
	var fragLen [2]int
	for li, order := range layouts {
		idx := 0
		for _, bi := range order {
			plans[bi].index = idx
			idx += plans[bi].count
		}
		fragLen[li] = idx
	}
	ref := func(bi int) asm.Ref {
		p := &plans[bi]
		return asm.Ref{Frag: names[p.frag], Index: p.index}
	}
	// newOff maps an emitted instruction index to its unified offset in the
	// new layout (cold instructions continue past the hot fragment).
	newOff := func(li, idx int) uint64 {
		if li == 1 {
			idx += fragLen[0]
		}
		return uint64(idx) * isa.InstBytes
	}
	blockNewOff := func(bi int) uint64 {
		p := &plans[bi]
		return newOff(p.frag, p.index)
	}

	// OSR points: the entry, then every backward-edge target (loop
	// header). CALL sites and their return points are added during pass 3,
	// where the emitted index of each CALL is known.
	osr := []obj.OSRPoint{{OldOff: 0, NewOff: blockNewOff(0), Kind: obj.OSREntry}}
	for _, order := range layouts {
		for _, bi := range order {
			b := cfg.Blocks[bi]
			tgts := b.JTTargets
			if b.CondTarget >= 0 {
				tgts = append([]int{b.CondTarget}, b.JTTargets...)
			}
			for _, t := range tgts {
				if cfg.Blocks[t].Off <= b.Off {
					osr = append(osr, obj.OSRPoint{
						OldOff: uint64(cfg.Blocks[t].Off),
						NewOff: blockNewOff(t),
						Kind:   obj.OSRLoopHeader,
					})
				}
			}
		}
	}

	// Pass 3: encode.
	frags := [2]*asm.Fragment{}
	for li, order := range layouts {
		if li == 1 && len(order) == 0 {
			continue
		}
		frag := &asm.Fragment{
			Name:   names[li],
			Code:   make([]byte, fragLen[li]*isa.InstBytes),
			Blocks: make([]int, 0, len(order)),
		}
		k := 0 // emitted instruction index
		// branch points the JMP/JCC at index k to block bi: encoded final
		// inside this fragment, a relocation into the other one.
		branch := func(in *isa.Inst, bi int) {
			if r := ref(bi); r.Frag == frag.Name {
				in.Imm = int64(r.Index-k-1) * isa.InstBytes
			} else {
				frag.Relocs = append(frag.Relocs, asm.Reloc{At: k, Sym: r.Frag, Index: r.Index})
			}
		}
		reloc := func(sym string) { frag.Relocs = append(frag.Relocs, asm.Reloc{At: k, Sym: sym}) }
		put := func(in isa.Inst) {
			in.Encode(frag.Code[k*isa.InstBytes:])
			k++
		}
		for _, bi := range order {
			b := cfg.Blocks[bi]
			p := &plans[bi]
			if p.count > 0 {
				frag.Blocks = append(frag.Blocks, k)
			}
			nInsts := len(b.Insts)
			if p.dropJmp {
				nInsts--
			}
			for j := 0; j < nInsts; j++ {
				in := b.Insts[j]
				if peephole && in.Op == isa.NOP {
					continue
				}
				origPC := b.Addr + uint64(j)*isa.InstBytes
				isLast := j == len(b.Insts)-1
				switch in.Op {
				case isa.JMP:
					if !isLast {
						return nil, nil, nil, fmt.Errorf("bolt: %s: JMP mid-block", fn.Name)
					}
					branch(&in, b.CondTarget)
				case isa.JCC:
					if !isLast {
						return nil, nil, nil, fmt.Errorf("bolt: %s: JCC mid-block", fn.Name)
					}
					if p.invert {
						in.Cond = in.Cond.Negate()
						branch(&in, b.FallTo)
					} else {
						branch(&in, b.CondTarget)
					}
				case isa.CALL:
					calleeAddr := uint64(int64(origPC) + isa.InstBytes + in.Imm)
					callee := bin.FuncAt(calleeAddr)
					if callee == nil {
						return nil, nil, nil, fmt.Errorf("bolt: %s: call at %#x targets non-entry %#x", fn.Name, origPC, calleeAddr)
					}
					reloc(callee.Name)
					// A CALL always has a following emitted instruction in
					// its fragment: its block either falls through to the
					// physically next block or gains a fixup JMP, so the
					// return point after the CALL is a valid OSR target.
					callOld := uint64(b.Off) + uint64(j)*isa.InstBytes
					osr = append(osr,
						obj.OSRPoint{OldOff: callOld, NewOff: newOff(li, k), Kind: obj.OSRCallSite},
						obj.OSRPoint{OldOff: callOld + isa.InstBytes, NewOff: newOff(li, k+1), Kind: obj.OSRRetPoint})
				case isa.FPTR:
					callee := bin.FuncAt(uint64(in.Imm))
					if callee == nil {
						return nil, nil, nil, fmt.Errorf("bolt: %s: FPTR at %#x targets non-entry %#x", fn.Name, origPC, uint64(in.Imm))
					}
					reloc(callee.Name)
				case isa.JTBL:
					jt := jumpTableAt(bin, uint64(in.Imm))
					if jt == nil {
						return nil, nil, nil, fmt.Errorf("bolt: %s: unknown jump table %#x", fn.Name, uint64(in.Imm))
					}
					reloc(jt.Name)
				}
				put(in)
			}
			if p.addJmp >= 0 {
				in := isa.Inst{Op: isa.JMP}
				branch(&in, p.addJmp)
				put(in)
			}
		}
		frags[li] = frag
	}

	// Attach the function's jump tables to the hot fragment with re-derived
	// block references.
	for _, jt := range ownedJumpTables(bin, fn) {
		t := asm.JTable{Name: jt.Name}
		for _, tgt := range jt.Targets {
			off, _ := UnifiedOff(fn, tgt)
			bi := cfg.BlockAt(off)
			if bi < 0 {
				return nil, nil, nil, fmt.Errorf("bolt: %s: jump table %s target %#x unmapped", fn.Name, jt.Name, tgt)
			}
			t.Entries = append(t.Entries, ref(bi))
		}
		frags[0].JTs = append(frags[0].JTs, t)
	}

	// Deduplicate OSR points by old offset (a block start can be both a
	// loop header and a call site; first insertion wins — all candidates
	// for one offset are state-equivalent targets) and sort for binary
	// search.
	seen := make(map[uint64]bool, len(osr))
	pts := osr[:0]
	for _, p := range osr {
		if seen[p.OldOff] {
			continue
		}
		seen[p.OldOff] = true
		pts = append(pts, p)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].OldOff < pts[j].OldOff })

	return frags[0], frags[1], pts, nil
}

func jumpTableAt(bin *obj.Binary, addr uint64) *obj.JumpTable {
	for _, jt := range bin.JumpTables {
		if jt.Addr == addr {
			return jt
		}
	}
	return nil
}
