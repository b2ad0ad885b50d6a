// Package asm provides the program intermediate representation, the
// assembler that lowers it, and the fragment linker that places laid-out
// code into an obj.Binary.
//
// A fragment is object code: encoded instruction bytes plus relocations
// for the operands only the linker can resolve. Two producers share the
// fragment linker:
//
//   - the compiler path (build DSL → Program IR → fragments), which lays
//     functions out in source order, and
//   - the BOLT-style optimizer, which lifts an existing binary's hot
//     functions into CFGs, reorders blocks and functions, splits hot/cold
//     code and re-emits them at a new base, and relocates every function
//     it does not move straight from its input bytes.
package asm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/obj"
)

// Ref names one instruction inside a fragment: the target of a branch or a
// jump-table entry. Cross-fragment refs are allowed (hot→cold split parts
// of one function branch to each other).
type Ref struct {
	Frag  string // fragment name
	Index int    // instruction index within the fragment
}

// Reloc is an operand the linker resolves: the Imm of instruction At is
// patched from the final address of Sym. The instruction's opcode says
// how:
//
//	JMP, JCC → instruction Index of fragment Sym, PC-relative
//	CALL     → function Sym, PC-relative
//	FPTR     → function Sym, absolute
//	JTBL     → jump table Sym, absolute
//
// A branch within its own fragment is encoded final and needs none.
type Reloc struct {
	At    int
	Sym   string
	Index int
}

// JTable is a jump table owned by a fragment: entries are instruction
// references, encoded as absolute addresses in .rodata at link time.
type JTable struct {
	Name    string
	Entries []Ref
}

// Fragment is a contiguous run of instructions to be placed at a single
// address: a whole function, or the hot or cold part of a split function.
// Code may be borrowed from another binary's image: the linker copies it
// and never writes it.
type Fragment struct {
	Name   string
	Code   []byte  // encoded instructions
	Relocs []Reloc // ascending At
	JTs    []JTable
	Blocks []int // instruction indexes that start basic blocks (Blocks[0]==0)
}

// Size returns the fragment's encoded size in bytes.
func (f *Fragment) Size() uint64 { return uint64(len(f.Code)) }

// BlockSpans converts the block-start index list into byte spans for the
// symbol table.
func (f *Fragment) BlockSpans() []obj.BlockSpan {
	spans := make([]obj.BlockSpan, len(f.Blocks))
	for i, start := range f.Blocks {
		end := len(f.Code) / isa.InstBytes
		if i+1 < len(f.Blocks) {
			end = f.Blocks[i+1]
		}
		spans[i] = obj.BlockSpan{Off: uint32(start * isa.InstBytes), Size: uint32((end - start) * isa.InstBytes)}
	}
	return spans
}

// Validate checks internal consistency: whole instructions, a sane block
// list, and relocations in order on instructions that have a relocatable
// operand.
func (f *Fragment) Validate() error {
	n := len(f.Code) / isa.InstBytes
	if len(f.Code)%isa.InstBytes != 0 {
		return fmt.Errorf("asm: fragment %s: %d code bytes is not whole instructions", f.Name, len(f.Code))
	}
	if len(f.Blocks) == 0 || f.Blocks[0] != 0 {
		return fmt.Errorf("asm: fragment %s: block list must start at 0", f.Name)
	}
	prev := -1
	for _, b := range f.Blocks {
		if b <= prev || b >= n {
			return fmt.Errorf("asm: fragment %s: bad block start %d", f.Name, b)
		}
		prev = b
	}
	prev = -1
	for _, r := range f.Relocs {
		if r.At <= prev || r.At >= n {
			return fmt.Errorf("asm: fragment %s: relocation at %d out of order or range", f.Name, r.At)
		}
		prev = r.At
		switch op := isa.OpOf(f.Code[r.At*isa.InstBytes:]); op {
		case isa.JMP, isa.JCC, isa.CALL, isa.FPTR, isa.JTBL:
		default:
			return fmt.Errorf("asm: fragment %s inst %d: %s has no relocatable operand", f.Name, r.At, op)
		}
	}
	return nil
}
