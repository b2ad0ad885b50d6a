package bolt

import (
	"fmt"
	"sort"

	"repro/internal/isa"
	"repro/internal/obj"
)

// BB is a reconstructed basic block.
type BB struct {
	Index int
	// Off is the block's unified byte offset: offsets in [0, Size) address
	// the function's hot range; offsets >= Size address the exiled cold
	// range of a previously split function (re-BOLT support).
	Off   uint32
	Addr  uint64 // original absolute address of the block start
	Insts []isa.Inst

	// Successors by block index; -1 = none.
	CondTarget int   // JMP/JCC target
	FallTo     int   // fallthrough successor
	JTTargets  []int // JTBL targets

	Count uint64 // execution count (attached from profile)
}

// Terminator returns the block's last instruction.
func (b *BB) Terminator() isa.Inst {
	return b.Insts[len(b.Insts)-1]
}

// CFG is the reconstructed control-flow graph of one function, the MIR
// analog BOLT lifts machine code into. Split functions (hot + cold
// ranges) are decoded as one unified instruction stream, which is what
// lets this implementation re-optimize already-bolted binaries — the
// capability §IV-C reports the real BOLT lacks.
type CFG struct {
	Fn     *obj.Func
	Blocks []*BB
	// HasJumpTable marks functions dispatching through JTBL; BOLT keeps
	// their block layout intact (our simplification of BOLT's jump-table
	// rewriting) but can still move the function.
	HasJumpTable bool

	offs []uint32 // sorted block start (unified) offsets
}

// UnifiedOff maps an absolute address inside the function to its unified
// offset; ok is false when addr is outside the function.
func UnifiedOff(fn *obj.Func, addr uint64) (uint64, bool) {
	if addr >= fn.Addr && addr < fn.Addr+fn.Size {
		return addr - fn.Addr, true
	}
	if fn.ColdSize > 0 && addr >= fn.ColdAddr && addr < fn.ColdAddr+fn.ColdSize {
		return fn.Size + (addr - fn.ColdAddr), true
	}
	return 0, false
}

// funcCode is a function's input code as one unified instruction stream:
// the hot range, then the exiled cold range of a split function.
type funcCode struct {
	fn        *obj.Func
	hot, cold []byte
	nHot, n   int // instructions in the hot range, in both ranges
}

// readFunc reads fn's code ranges out of the binary image (borrowing it).
func readFunc(bin *obj.Binary, fn *obj.Func) (*funcCode, error) {
	hot, err := bin.Bytes(fn.Addr, int(fn.Size))
	if err != nil {
		return nil, fmt.Errorf("bolt: reading %s: %w", fn.Name, err)
	}
	c := &funcCode{fn: fn, hot: hot, nHot: len(hot) / isa.InstBytes}
	if c.nHot == 0 {
		return nil, fmt.Errorf("bolt: function %s is empty", fn.Name)
	}
	if fn.ColdSize > 0 {
		if c.cold, err = bin.Bytes(fn.ColdAddr, int(fn.ColdSize)); err != nil {
			return nil, fmt.Errorf("bolt: reading %s cold part: %w", fn.Name, err)
		}
	}
	c.n = c.nHot + len(c.cold)/isa.InstBytes
	return c, nil
}

// word returns the encoding of instruction i.
func (c *funcCode) word(i int) []byte {
	if i < c.nHot {
		return c.hot[i*isa.InstBytes:]
	}
	return c.cold[(i-c.nHot)*isa.InstBytes:]
}

// decode decodes instruction i.
func (c *funcCode) decode(i int) (isa.Inst, error) {
	in, err := isa.Decode(c.word(i))
	if err != nil {
		return in, fmt.Errorf("bolt: decoding %s: at %#x: %w", c.fn.Name, c.pc(i), err)
	}
	return in, nil
}

// pc maps instruction index i to its original absolute address.
func (c *funcCode) pc(i int) uint64 {
	if i < c.nHot {
		return c.fn.Addr + uint64(i)*isa.InstBytes
	}
	return c.fn.ColdAddr + uint64(i-c.nHot)*isa.InstBytes
}

// index maps an address to the index of the instruction starting there;
// ok is false when no instruction of the function does.
func (c *funcCode) index(addr uint64) (int, bool) {
	off, ok := UnifiedOff(c.fn, addr)
	if !ok || off%isa.InstBytes != 0 {
		return 0, false
	}
	return int(off) / isa.InstBytes, true
}

// target resolves the JMP/JCC at index i with displacement imm to the
// index of the instruction it branches to.
func (c *funcCode) target(i int, imm int64) (int, error) {
	ti, ok := c.index(uint64(int64(c.pc(i)) + isa.InstBytes + imm))
	if !ok {
		return 0, fmt.Errorf("bolt: %s: branch at %#x leaves function", c.fn.Name, c.pc(i))
	}
	return ti, nil
}

// ownedJumpTables returns the jump tables fn dispatches through.
func ownedJumpTables(bin *obj.Binary, fn *obj.Func) []*obj.JumpTable {
	var jts []*obj.JumpTable
	for _, jt := range bin.JumpTables {
		if jt.Owner == fn.Name {
			jts = append(jts, jt)
		}
	}
	return jts
}

// BuildCFG disassembles the function from the binary image and
// reconstructs basic blocks: leaders are the entry, branch targets, and
// fallthrough points after control flow, exactly as a binary lifter finds
// them.
func BuildCFG(bin *obj.Binary, fn *obj.Func) (*CFG, error) {
	c, err := readFunc(bin, fn)
	if err != nil {
		return nil, err
	}
	n := c.n
	insts := make([]isa.Inst, n)
	for i := range insts {
		if insts[i], err = c.decode(i); err != nil {
			return nil, err
		}
	}
	jts := ownedJumpTables(bin, fn)

	// Leaders.
	leader := make([]bool, n+1) // leader[n] is a sentinel
	leader[0], leader[c.nHot], leader[n] = true, true, true
	for i, in := range insts {
		switch in.Op {
		case isa.JMP, isa.JCC:
			ti, err := c.target(i, in.Imm)
			if err != nil {
				return nil, err
			}
			leader[ti], leader[i+1] = true, true
		case isa.RET, isa.HALT, isa.JTBL:
			leader[i+1] = true
		}
	}
	for _, jt := range jts {
		for _, tgt := range jt.Targets {
			ti, ok := c.index(tgt)
			if !ok {
				return nil, fmt.Errorf("bolt: %s: jump table target %#x outside function", fn.Name, tgt)
			}
			leader[ti] = true
		}
	}

	// Blocks.
	cfg := &CFG{Fn: fn, HasJumpTable: len(jts) > 0}
	for i := 0; i < n; {
		start := i
		for i++; !leader[i]; i++ {
		}
		cfg.Blocks = append(cfg.Blocks, &BB{
			Index:      len(cfg.Blocks),
			Off:        uint32(start * isa.InstBytes),
			Addr:       c.pc(start),
			Insts:      insts[start:i],
			CondTarget: -1,
			FallTo:     -1,
		})
		cfg.offs = append(cfg.offs, uint32(start*isa.InstBytes))
	}

	// Successors. Physical fallthrough exists only within one range, so a
	// block ending at the hot/cold boundary must terminate (guaranteed by
	// how fragments are emitted); we still guard against it. Branch and
	// jump-table targets were checked above and start blocks.
	blockOf := func(addr uint64) int {
		off, _ := UnifiedOff(fn, addr)
		return cfg.BlockAt(off)
	}
	hotColdBoundary := -1
	if c.nHot < n {
		hotColdBoundary = cfg.BlockAt(uint64(c.nHot) * isa.InstBytes)
	}
	for bi, b := range cfg.Blocks {
		term := b.Terminator()
		fallOK := bi+1 < len(cfg.Blocks) && bi+1 != hotColdBoundary
		switch term.Op {
		case isa.JMP, isa.JCC:
			b.CondTarget = blockOf(uint64(int64(b.Addr) + int64(len(b.Insts))*isa.InstBytes + term.Imm))
			if term.Op == isa.JMP {
				break
			}
			if !fallOK {
				return nil, fmt.Errorf("bolt: %s: conditional branch falls off a code range", fn.Name)
			}
			b.FallTo = bi + 1
		case isa.RET, isa.HALT:
		case isa.JTBL:
			seen := make(map[int]bool)
			for _, jt := range jts {
				if uint64(term.Imm) != jt.Addr {
					continue
				}
				for _, tgt := range jt.Targets {
					if bidx := blockOf(tgt); !seen[bidx] {
						seen[bidx] = true
						b.JTTargets = append(b.JTTargets, bidx)
					}
				}
			}
		default:
			if !fallOK {
				return nil, fmt.Errorf("bolt: %s: code range ends without terminator", fn.Name)
			}
			b.FallTo = bi + 1
		}
	}
	return cfg, nil
}

// BlockAt maps a unified byte offset to its block index, or -1.
func (c *CFG) BlockAt(off uint64) int {
	i := sort.Search(len(c.offs), func(i int) bool { return uint64(c.offs[i]) > off })
	if i == 0 {
		return -1
	}
	b := c.Blocks[i-1]
	if off >= uint64(b.Off)+uint64(len(b.Insts))*isa.InstBytes {
		return -1
	}
	return i - 1
}

// AttachProfile copies block counts from a function profile.
func (c *CFG) AttachProfile(fp *FuncProfile) {
	if fp == nil {
		return
	}
	for bi, cnt := range fp.BlockCount {
		if bi >= 0 && bi < len(c.Blocks) {
			c.Blocks[bi].Count += cnt
		}
	}
}
