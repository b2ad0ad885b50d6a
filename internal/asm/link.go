package asm

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/obj"
)

// ColdSuffix marks a fragment holding the exiled cold part of a split
// function: fragment "f" + fragment "f"+ColdSuffix together form function f.
const ColdSuffix = "#cold"

// FuncAlign is the alignment of function entry addresses (a cache line).
const FuncAlign = 64

// Placement assigns one fragment an address in a section.
type Placement struct {
	Frag      *Fragment
	Addr      uint64
	Section   string // obj.SecText, obj.SecOrgText, or obj.SecColdText
	Optimized bool   // layout chosen by an optimizer
}

// VTableSpec describes a v-table to be materialized in the data section.
type VTableSpec struct {
	Name  string
	Off   uint64   // byte offset of slot 0 within the data section
	Slots []string // function (fragment) names
}

// LinkInput is everything the linker needs to produce a binary.
type LinkInput struct {
	Name  string
	Entry string // entry function name ("" for libraries/tests)

	Placements []Placement

	// Data is the pre-laid-out .data section image (globals) and DataZero
	// the count of zero bytes that follow it. Data may be nil.
	Data     []byte
	DataZero uint64
	DataBase uint64

	VTables []VTableSpec

	// ROBase is where jump tables are allocated (the .rodata section).
	ROBase uint64

	Bolted       bool
	NoJumpTables bool
	AddrMap      map[uint64]uint64
}

// Link copies every fragment to its placement address, resolves its
// relocations, materializes jump tables and v-tables, and returns a
// validated binary.
func Link(in LinkInput) (*obj.Binary, error) {
	// Symbol table: fragment name → placement. Cold fragments are address
	// targets for branches but not call targets; include them anyway (a
	// name can only be referenced by the matching operand kind). The same
	// pass sizes each code section from its placements' extent, so its
	// image is allocated once, at its final size.
	type codeSection struct {
		lo, hi uint64
		data   []byte
	}
	secs := make(map[string]*codeSection)
	frags := make(map[string]*Placement, len(in.Placements))
	for i := range in.Placements {
		p := &in.Placements[i]
		if _, dup := frags[p.Frag.Name]; dup {
			return nil, fmt.Errorf("asm: duplicate fragment %s", p.Frag.Name)
		}
		if p.Addr%isa.InstBytes != 0 {
			return nil, fmt.Errorf("asm: fragment %s at unaligned address %#x", p.Frag.Name, p.Addr)
		}
		if err := p.Frag.Validate(); err != nil {
			return nil, err
		}
		frags[p.Frag.Name] = p
		end := p.Addr + p.Frag.Size()
		if si := secs[p.Section]; si == nil {
			secs[p.Section] = &codeSection{lo: p.Addr, hi: end}
		} else {
			si.lo, si.hi = min(si.lo, p.Addr), max(si.hi, end)
		}
	}
	for _, si := range secs {
		si.data = make([]byte, si.hi-si.lo)
	}

	refAddr := func(r Ref) (uint64, error) {
		p, ok := frags[r.Frag]
		if !ok {
			return 0, fmt.Errorf("asm: unresolved fragment ref %q", r.Frag)
		}
		if r.Index < 0 || uint64(r.Index)*isa.InstBytes >= p.Frag.Size() {
			return 0, fmt.Errorf("asm: ref %s[%d] out of range", r.Frag, r.Index)
		}
		return p.Addr + uint64(r.Index)*isa.InstBytes, nil
	}

	// Allocate jump tables in .rodata, in deterministic placement order.
	type jtLoc struct {
		addr    uint64
		entries []Ref
		owner   string
	}
	jts := make(map[string]*jtLoc)
	var jtOrder []string
	roCursor := in.ROBase
	for _, p := range in.Placements {
		for _, jt := range p.Frag.JTs {
			if _, dup := jts[jt.Name]; dup {
				return nil, fmt.Errorf("asm: duplicate jump table %s", jt.Name)
			}
			jts[jt.Name] = &jtLoc{addr: roCursor, entries: jt.Entries, owner: p.Frag.Name}
			jtOrder = append(jtOrder, jt.Name)
			roCursor += uint64(len(jt.Entries)) * 8
		}
	}

	// Copy each fragment into its section's image and patch its
	// relocations there, in placement order (a later placement overwrites
	// an earlier one it overlaps).
	for _, p := range in.Placements {
		si := secs[p.Section]
		code := si.data[p.Addr-si.lo:]
		copy(code, p.Frag.Code)
		for _, r := range p.Frag.Relocs {
			at := r.At * isa.InstBytes
			next := p.Addr + uint64(at) + isa.InstBytes
			var imm int64
			switch op := isa.OpOf(code[at:]); op {
			case isa.JMP, isa.JCC:
				t, err := refAddr(Ref{Frag: r.Sym, Index: r.Index})
				if err != nil {
					return nil, fmt.Errorf("asm: %s inst %d: %w", p.Frag.Name, r.At, err)
				}
				imm = int64(t - next)
			case isa.CALL, isa.FPTR:
				sp, ok := frags[r.Sym]
				if !ok {
					return nil, fmt.Errorf("asm: %s inst %d: undefined function %q", p.Frag.Name, r.At, r.Sym)
				}
				imm = int64(sp.Addr)
				if op == isa.CALL {
					imm = int64(sp.Addr - next)
				}
			case isa.JTBL:
				loc, ok := jts[r.Sym]
				if !ok {
					return nil, fmt.Errorf("asm: %s inst %d: undefined jump table %q", p.Frag.Name, r.At, r.Sym)
				}
				imm = int64(loc.addr)
			}
			isa.SetImm(code[at:], imm)
		}
	}

	b := &obj.Binary{
		Name:         in.Name,
		Bolted:       in.Bolted,
		NoJumpTables: in.NoJumpTables,
		AddrMap:      in.AddrMap,
	}

	// Materialize code sections.
	for _, name := range []string{obj.SecText, obj.SecOrgText, obj.SecColdText} {
		if si := secs[name]; si != nil {
			b.Sections = append(b.Sections, &obj.Section{Name: name, Addr: si.lo, Data: si.data})
		}
	}

	// .rodata: jump tables.
	if len(jtOrder) > 0 {
		ro := make([]byte, roCursor-in.ROBase)
		for _, name := range jtOrder {
			loc := jts[name]
			targets := make([]uint64, len(loc.entries))
			for i, e := range loc.entries {
				t, err := refAddr(e)
				if err != nil {
					return nil, fmt.Errorf("asm: jump table %s entry %d: %w", name, i, err)
				}
				targets[i] = t
				binary.LittleEndian.PutUint64(ro[loc.addr-in.ROBase+uint64(i)*8:], t)
			}
			b.JumpTables = append(b.JumpTables, &obj.JumpTable{
				Name: name, Addr: loc.addr, Targets: targets, Owner: loc.owner,
			})
		}
		b.Sections = append(b.Sections, &obj.Section{Name: obj.SecROData, Addr: in.ROBase, Data: ro})
	}

	// .data: caller-provided image with v-table slots filled in. Only the
	// bytes up to the last nonzero one are materialized; the rest of the
	// section becomes its zero-fill tail. in.Data is never written.
	if in.Data != nil || in.DataZero > 0 || len(in.VTables) > 0 {
		size := uint64(len(in.Data)) + in.DataZero
		n := uint64(len(bytes.TrimRight(in.Data, "\x00")))
		for _, vt := range in.VTables {
			need := vt.Off + uint64(len(vt.Slots))*8
			n = max(n, need)
			size = max(size, need)
		}
		data := make([]byte, n)
		copy(data, in.Data)
		for _, vt := range in.VTables {
			slots := make([]uint64, len(vt.Slots))
			for i, fn := range vt.Slots {
				sp, ok := frags[fn]
				if !ok {
					return nil, fmt.Errorf("asm: vtable %s slot %d: undefined function %q", vt.Name, i, fn)
				}
				slots[i] = sp.Addr
				binary.LittleEndian.PutUint64(data[vt.Off+uint64(i)*8:], sp.Addr)
			}
			b.VTables = append(b.VTables, &obj.VTable{Name: vt.Name, Addr: in.DataBase + vt.Off, Slots: slots})
		}
		data = bytes.TrimRight(data, "\x00")
		b.Sections = append(b.Sections, &obj.Section{
			Name: obj.SecData, Addr: in.DataBase, Data: data, Zero: size - uint64(len(data)),
		})
	}

	// Function symbols: hot fragments become functions; cold fragments
	// attach to their owners.
	b.Funcs = make([]*obj.Func, 0, len(in.Placements))
	for _, p := range in.Placements {
		if isColdName(p.Frag.Name) {
			continue
		}
		f := &obj.Func{
			Name:      p.Frag.Name,
			Addr:      p.Addr,
			Size:      p.Frag.Size(),
			Blocks:    p.Frag.BlockSpans(),
			Optimized: p.Optimized,
		}
		if cp, ok := frags[p.Frag.Name+ColdSuffix]; ok {
			f.ColdAddr = cp.Addr
			f.ColdSize = cp.Frag.Size()
		}
		b.Funcs = append(b.Funcs, f)
	}
	b.SortFuncs()

	if in.Entry != "" {
		sp, ok := frags[in.Entry]
		if !ok {
			return nil, fmt.Errorf("asm: undefined entry function %q", in.Entry)
		}
		b.Entry = sp.Addr
	}

	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

func isColdName(name string) bool {
	return len(name) > len(ColdSuffix) && name[len(name)-len(ColdSuffix):] == ColdSuffix
}

// SequentialPlacement lays fragments out back to back from base with
// FuncAlign alignment, in the given order, all in the same section.
func SequentialPlacement(frags []*Fragment, base uint64, section string, optimized bool) []Placement {
	ps := make([]Placement, 0, len(frags))
	addr := align(base, FuncAlign)
	for _, f := range frags {
		ps = append(ps, Placement{Frag: f, Addr: addr, Section: section, Optimized: optimized})
		addr = align(addr+f.Size(), FuncAlign)
	}
	return ps
}

func align(x, a uint64) uint64 { return (x + a - 1) &^ (a - 1) }
