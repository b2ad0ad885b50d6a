package bolt

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/obj"
)

// relocate emits a function the optimizer does not move straight from its
// input bytes, without lifting it into a CFG: the lite mode of Lightning
// BOLT, which leaves such code in place and patches only its references to
// moved code. Its fragment is exactly what emitFunc makes of the lifted
// function's identity layout without peephole: a split function's cold
// range is joined after its hot one, a JMP to the next instruction is
// dropped, block starts are the CFG's leaders, and calls, function
// pointers and jump tables become relocations. It rejects every function
// BuildCFG rejects.
//
// Each instruction is decoded once, with no per-instruction allocation.
// When nothing moves relative to the rest of the function (no cold range,
// no dropped JMP), the fragment borrows the input bytes.
func relocate(bin *obj.Binary, fn *obj.Func) (*asm.Fragment, error) {
	c, err := readFunc(bin, fn)
	if err != nil {
		return nil, err
	}
	n := c.n
	const leader, drop = 1, 2
	mark := make([]byte, n+1) // mark[n] is a sentinel
	mark[0], mark[c.nHot] = leader, leader
	var drops []int // dropped instruction indexes, ascending
	frag := &asm.Fragment{Name: fn.Name}
	reloc := func(i int, sym string) {
		frag.Relocs = append(frag.Relocs, asm.Reloc{At: i - len(drops), Sym: sym})
	}
	for i := 0; i < n; i++ {
		in, err := c.decode(i)
		if err != nil {
			return nil, err
		}
		switch in.Op {
		case isa.JMP, isa.JCC:
			ti, err := c.target(i, in.Imm)
			if err != nil {
				return nil, err
			}
			mark[ti] |= leader
			if in.Op == isa.JMP && ti == i+1 {
				mark[i] |= drop
				drops = append(drops, i)
			}
		case isa.CALL:
			tgt := uint64(int64(c.pc(i)) + isa.InstBytes + in.Imm)
			callee := bin.FuncAt(tgt)
			if callee == nil {
				return nil, fmt.Errorf("bolt: %s: call at %#x targets non-entry %#x", fn.Name, c.pc(i), tgt)
			}
			reloc(i, callee.Name)
		case isa.FPTR:
			callee := bin.FuncAt(uint64(in.Imm))
			if callee == nil {
				return nil, fmt.Errorf("bolt: %s: FPTR at %#x targets non-entry %#x", fn.Name, c.pc(i), uint64(in.Imm))
			}
			reloc(i, callee.Name)
		case isa.JTBL:
			jt := jumpTableAt(bin, uint64(in.Imm))
			if jt == nil {
				return nil, fmt.Errorf("bolt: %s: unknown jump table %#x", fn.Name, uint64(in.Imm))
			}
			reloc(i, jt.Name)
		}
		switch in.Op {
		case isa.JMP, isa.JCC, isa.RET, isa.HALT, isa.JTBL:
			mark[i+1] |= leader
		}
		if i == c.nHot-1 || i == n-1 { // a code range ends here
			if in.Op == isa.JCC {
				return nil, fmt.Errorf("bolt: %s: conditional branch falls off a code range", fn.Name)
			}
			if !in.Terminates() {
				return nil, fmt.Errorf("bolt: %s: code range ends without terminator", fn.Name)
			}
		}
	}

	// newIdx maps an input instruction index to its emitted index.
	newIdx := func(i int) int { return i - sort.SearchInts(drops, i) }
	for _, jt := range ownedJumpTables(bin, fn) {
		t := asm.JTable{Name: jt.Name, Entries: make([]asm.Ref, len(jt.Targets))}
		for k, tgt := range jt.Targets {
			ti, ok := c.index(tgt)
			if !ok {
				return nil, fmt.Errorf("bolt: %s: jump table target %#x outside function", fn.Name, tgt)
			}
			mark[ti] |= leader
			t.Entries[k] = asm.Ref{Frag: fn.Name, Index: newIdx(ti)}
		}
		frag.JTs = append(frag.JTs, t)
	}

	// Block starts: every leader but a block that is only a dropped JMP.
	nb := 0
	for _, m := range mark[:n] {
		if m == leader {
			nb++
		}
	}
	frag.Blocks = make([]int, 0, nb)
	for i, m := range mark[:n] {
		if m == leader {
			frag.Blocks = append(frag.Blocks, newIdx(i))
		}
	}

	if len(drops) == 0 && c.cold == nil {
		frag.Code = c.hot[:n*isa.InstBytes]
		return frag, nil
	}
	// The code moves relative to itself: copy it, skipping dropped JMPs,
	// and re-aim every branch.
	frag.Code = make([]byte, (n-len(drops))*isa.InstBytes)
	for i, k := 0, 0; i < n; i++ {
		if mark[i]&drop != 0 {
			continue
		}
		dst := frag.Code[k*isa.InstBytes : (k+1)*isa.InstBytes]
		k++
		copy(dst, c.word(i))
		if op := isa.OpOf(dst); op == isa.JMP || op == isa.JCC {
			ti, _ := c.target(i, isa.ImmOf(dst))
			isa.SetImm(dst, int64(newIdx(ti)-k)*isa.InstBytes)
		}
	}
	return frag, nil
}
