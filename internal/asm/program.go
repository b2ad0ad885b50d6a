package asm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obj"
)

// Default section base addresses for compiler-produced binaries. The
// optimizer places its new .text at a disjoint, higher base (see
// internal/bolt), mirroring how BOLT appends a new text segment.
const (
	DefaultTextBase   = 0x0040_0000
	DefaultRODataBase = 0x0800_0000
	DefaultDataBase   = 0x0C00_0000
)

// AInst is a source-level instruction: an isa.Inst whose control/data
// operands may be symbolic.
type AInst struct {
	isa.Inst
	TargetLabel string // JMP/JCC: block label within the same function
	Callee      string // CALL/FPTR: function name
	DataSym     string // MOVI: global or v-table name (address materialized)
	JTName      string // JTBL: jump table name
}

// Block is a basic block. If Fall is non-empty, control falls through to
// the named block; the assembler inserts a JMP when the layout does not
// place that block next. Blocks whose last instruction terminates need no
// Fall.
type Block struct {
	Label string
	Insts []AInst
	Fall  string
}

// SrcJT is a jump table at source level: an ordered list of block labels.
type SrcJT struct {
	Name   string
	Labels []string
}

// Func is a function: Blocks[0] is the entry block.
type Func struct {
	Name       string
	Blocks     []*Block
	JumpTables []SrcJT
}

// Global is a named chunk of the .data section.
type Global struct {
	Name string
	Size uint64
	Init []byte // optional; zero-filled beyond len(Init)
}

// VTable is a source-level v-table: an ordered list of function names.
type VTable struct {
	Name  string
	Slots []string
}

// Program is a whole source program.
type Program struct {
	Name    string
	Entry   string // entry function name
	Funcs   []*Func
	Globals []*Global
	VTables []*VTable

	// NoJumpTables asserts the program contains no jump tables (the
	// -fno-jump-tables analog OCOLOS requires, §IV-D). Assemble fails if a
	// function declares one anyway.
	NoJumpTables bool
}

// Lower converts a function to a fragment, resolving block labels to
// instruction indexes and inserting fall-through jumps where needed.
// dataSyms maps global/v-table names to addresses for MOVI materialization.
func (fn *Func) Lower(dataSyms map[string]uint64) (*Fragment, error) {
	if len(fn.Blocks) == 0 {
		return nil, fmt.Errorf("asm: function %s has no blocks", fn.Name)
	}
	frag := &Fragment{Name: fn.Name}

	// First pass: compute where each block starts, accounting for inserted
	// fall-through jumps.
	starts := make(map[string]int, len(fn.Blocks))
	needJmp := make([]bool, len(fn.Blocks))
	idx := 0
	for bi, blk := range fn.Blocks {
		if _, dup := starts[blk.Label]; dup {
			return nil, fmt.Errorf("asm: function %s: duplicate label %q", fn.Name, blk.Label)
		}
		starts[blk.Label] = idx
		n := len(blk.Insts)
		last := lastInst(blk)
		switch {
		case blk.Fall != "":
			if last != nil && last.Terminates() {
				return nil, fmt.Errorf("asm: function %s block %s: terminator plus fall-through", fn.Name, blk.Label)
			}
			if bi+1 >= len(fn.Blocks) || fn.Blocks[bi+1].Label != blk.Fall {
				needJmp[bi] = true
				n++
			}
			// n may legitimately be 0 here: an empty pass-through block
			// whose fall target is adjacent. Its label aliases the next
			// block's first instruction.
		default:
			if last == nil || !last.Terminates() {
				return nil, fmt.Errorf("asm: function %s block %s: no terminator and no fall-through", fn.Name, blk.Label)
			}
		}
		idx += n
	}

	ref := func(label string) (*Ref, error) {
		s, ok := starts[label]
		if !ok {
			return nil, fmt.Errorf("asm: function %s: undefined label %q", fn.Name, label)
		}
		return &Ref{Frag: fn.Name, Index: s}, nil
	}

	// Second pass: emit. Empty pass-through blocks produce no span.
	for bi, blk := range fn.Blocks {
		if len(blk.Insts) > 0 || needJmp[bi] {
			frag.Blocks = append(frag.Blocks, starts[blk.Label])
		}
		for _, ai := range blk.Insts {
			fi := FInst{I: ai.Inst}
			switch ai.Op {
			case isa.JMP, isa.JCC:
				r, err := ref(ai.TargetLabel)
				if err != nil {
					return nil, err
				}
				fi.Target = r
			case isa.CALL, isa.FPTR:
				if ai.Callee == "" {
					return nil, fmt.Errorf("asm: function %s: %s without callee", fn.Name, ai.Op)
				}
				fi.Callee = ai.Callee
			case isa.JTBL:
				fi.JT = ai.JTName
			case isa.MOVI:
				if ai.DataSym != "" {
					addr, ok := dataSyms[ai.DataSym]
					if !ok {
						return nil, fmt.Errorf("asm: function %s: undefined data symbol %q", fn.Name, ai.DataSym)
					}
					fi.I.Imm = int64(addr)
				}
			}
			frag.Insts = append(frag.Insts, fi)
		}
		if needJmp[bi] {
			r, err := ref(blk.Fall)
			if err != nil {
				return nil, err
			}
			frag.Insts = append(frag.Insts, FInst{I: isa.Inst{Op: isa.JMP}, Target: r})
		}
	}

	for _, jt := range fn.JumpTables {
		t := JTable{Name: jt.Name}
		for _, label := range jt.Labels {
			r, err := ref(label)
			if err != nil {
				return nil, err
			}
			t.Entries = append(t.Entries, *r)
		}
		frag.JTs = append(frag.JTs, t)
	}
	return frag, nil
}

func lastInst(b *Block) *isa.Inst {
	if len(b.Insts) == 0 {
		return nil
	}
	return &b.Insts[len(b.Insts)-1].Inst
}

// Options configures assembly.
type Options struct {
	TextBase   uint64
	RODataBase uint64
	DataBase   uint64
}

func (o *Options) defaults() {
	if o.TextBase == 0 {
		o.TextBase = DefaultTextBase
	}
	if o.RODataBase == 0 {
		o.RODataBase = DefaultRODataBase
	}
	if o.DataBase == 0 {
		o.DataBase = DefaultDataBase
	}
}

// Assemble lowers and links the program with functions in source order —
// the "compiler default layout" against which all profile-guided layouts
// are compared.
func Assemble(p *Program, opts Options) (*obj.Binary, error) {
	opts.defaults()

	// Lay out .data: v-tables first, then globals, 8-byte aligned. Only
	// the initialized extent (v-tables and globals with Init) is
	// allocated; the rest of the section is zero-fill.
	dataSyms := make(map[string]uint64)
	var vspecs []VTableSpec
	var cursor, initEnd uint64
	for _, vt := range p.VTables {
		dataSyms[vt.Name] = opts.DataBase + cursor
		vspecs = append(vspecs, VTableSpec{Name: vt.Name, Off: cursor, Slots: vt.Slots})
		cursor += uint64(len(vt.Slots)) * 8
		initEnd = cursor
	}
	for _, g := range p.Globals {
		cursor = align(cursor, 8)
		if _, dup := dataSyms[g.Name]; dup {
			return nil, fmt.Errorf("asm: duplicate data symbol %q", g.Name)
		}
		if uint64(len(g.Init)) > g.Size {
			return nil, fmt.Errorf("asm: global %q init larger than size", g.Name)
		}
		dataSyms[g.Name] = opts.DataBase + cursor
		if len(g.Init) > 0 {
			initEnd = cursor + uint64(len(g.Init))
		}
		cursor += g.Size
	}
	data := make([]byte, initEnd)
	for _, g := range p.Globals {
		if len(g.Init) > 0 {
			copy(data[dataSyms[g.Name]-opts.DataBase:], g.Init)
		}
	}

	// Lower functions.
	frags := make([]*Fragment, 0, len(p.Funcs))
	for _, fn := range p.Funcs {
		if p.NoJumpTables && len(fn.JumpTables) > 0 {
			return nil, fmt.Errorf("asm: program %s declared NoJumpTables but %s has one", p.Name, fn.Name)
		}
		frag, err := fn.Lower(dataSyms)
		if err != nil {
			return nil, err
		}
		frags = append(frags, frag)
	}

	return Link(LinkInput{
		Name:         p.Name,
		Entry:        p.Entry,
		Placements:   SequentialPlacement(frags, opts.TextBase, obj.SecText, false),
		Data:         data,
		DataZero:     cursor - initEnd,
		DataBase:     opts.DataBase,
		VTables:      vspecs,
		ROBase:       opts.RODataBase,
		NoJumpTables: p.NoJumpTables,
	})
}

// DataSymbols recomputes the data-symbol layout Assemble uses, letting
// callers (tests, drivers) find global addresses without re-assembling.
func DataSymbols(p *Program, opts Options) map[string]uint64 {
	opts.defaults()
	syms := make(map[string]uint64)
	var cursor uint64
	for _, vt := range p.VTables {
		syms[vt.Name] = opts.DataBase + cursor
		cursor += uint64(len(vt.Slots)) * 8
	}
	for _, g := range p.Globals {
		cursor = align(cursor, 8)
		syms[g.Name] = opts.DataBase + cursor
		cursor += g.Size
	}
	return syms
}
