package build

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// bblock is a basic block under construction. fall names an explicit
// fall-through target; when empty and the block does not end in a
// terminator, control falls to the next block in emission order.
type bblock struct {
	label string
	insts []asm.AInst
	fall  string
	term  bool
}

// FuncBuilder emits one function. Plain instruction methods append to the
// current basic block; the structured constructs (If, While, Switch) and
// the label/branch primitives split blocks the way a compiler back-end
// would.
type FuncBuilder struct {
	p      *ProgramBuilder
	name   string
	blocks []*bblock
	cur    *bblock
	nlab   int
	jts    []asm.SrcJT
}

// autoLabel mints a fresh compiler-internal label. User labels never
// start with a dot, so the namespaces cannot collide.
func (f *FuncBuilder) autoLabel(kind string) string {
	f.nlab++
	return fmt.Sprintf(".%s%d", kind, f.nlab)
}

// emit appends one instruction, opening a fresh anonymous block if the
// previous one ended with a terminator.
func (f *FuncBuilder) emit(ai asm.AInst) {
	if f.cur == nil {
		f.cur = &bblock{label: f.autoLabel("b")}
	}
	f.cur.insts = append(f.cur.insts, ai)
}

// close ends the current block. term marks a terminator ending; fall
// names an explicit fall-through target ("" = sequential).
func (f *FuncBuilder) close(term bool, fall string) {
	if f.cur == nil {
		return
	}
	f.cur.term = term
	f.cur.fall = fall
	f.blocks = append(f.blocks, f.cur)
	f.cur = nil
}

// startBlock begins a new block with the given label, falling into it
// from the current block.
func (f *FuncBuilder) startBlock(label string) {
	f.close(false, "")
	f.cur = &bblock{label: label}
}

// finish lowers the builder state into an asm.Func. Idempotent: it does
// not consume the builder.
func (f *FuncBuilder) finish() (*asm.Func, error) {
	blocks := f.blocks
	if f.cur != nil {
		blocks = append(append([]*bblock(nil), blocks...), f.cur)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("build: function %s is empty", f.name)
	}
	fn := &asm.Func{Name: f.name, JumpTables: f.jts}
	for i, b := range blocks {
		ab := &asm.Block{Label: b.label, Insts: b.insts}
		switch {
		case b.term:
			// no fall-through
		case b.fall != "":
			ab.Fall = b.fall
		case i+1 < len(blocks):
			ab.Fall = blocks[i+1].label
		default:
			return nil, fmt.Errorf("build: function %s falls off the end (missing Ret/Halt/Goto)", f.name)
		}
		fn.Blocks = append(fn.Blocks, ab)
	}
	return fn, nil
}

// inst is shorthand for a plain instruction with no symbolic operands.
func inst(op isa.Op, rd, rs1, rs2 uint8, imm int64) asm.AInst {
	return asm.AInst{Inst: isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}}
}

// --- Plain instructions -------------------------------------------------

// Nop emits a single NOP.
func (f *FuncBuilder) Nop() { f.emit(inst(isa.NOP, 0, 0, 0, 0)) }

// PadCode emits n NOPs — inline cold padding, the raw material the
// optimizer's peephole pass deletes from relocated code.
func (f *FuncBuilder) PadCode(n int) {
	for i := 0; i < n; i++ {
		f.Nop()
	}
}

// MovI sets rd to an immediate.
func (f *FuncBuilder) MovI(rd uint8, imm int64) { f.emit(inst(isa.MOVI, rd, 0, 0, imm)) }

// Mov copies rs into rd.
func (f *FuncBuilder) Mov(rd, rs uint8) { f.emit(inst(isa.MOV, rd, rs, 0, 0)) }

// Register-register ALU ops.
func (f *FuncBuilder) Add(rd, rs1, rs2 uint8) { f.emit(inst(isa.ADD, rd, rs1, rs2, 0)) }
func (f *FuncBuilder) Mul(rd, rs1, rs2 uint8) { f.emit(inst(isa.MUL, rd, rs1, rs2, 0)) }
func (f *FuncBuilder) Div(rd, rs1, rs2 uint8) { f.emit(inst(isa.DIV, rd, rs1, rs2, 0)) }
func (f *FuncBuilder) Mod(rd, rs1, rs2 uint8) { f.emit(inst(isa.MOD, rd, rs1, rs2, 0)) }
func (f *FuncBuilder) Xor(rd, rs1, rs2 uint8) { f.emit(inst(isa.XOR, rd, rs1, rs2, 0)) }

// Register-immediate ALU ops.
func (f *FuncBuilder) AddI(rd, rs uint8, imm int64) { f.emit(inst(isa.ADDI, rd, rs, 0, imm)) }
func (f *FuncBuilder) MulI(rd, rs uint8, imm int64) { f.emit(inst(isa.MULI, rd, rs, 0, imm)) }
func (f *FuncBuilder) AndI(rd, rs uint8, imm int64) { f.emit(inst(isa.ANDI, rd, rs, 0, imm)) }
func (f *FuncBuilder) XorI(rd, rs uint8, imm int64) { f.emit(inst(isa.XORI, rd, rs, 0, imm)) }
func (f *FuncBuilder) ShlI(rd, rs uint8, imm int64) { f.emit(inst(isa.SHLI, rd, rs, 0, imm)) }
func (f *FuncBuilder) ShrI(rd, rs uint8, imm int64) { f.emit(inst(isa.SHRI, rd, rs, 0, imm)) }

// Ld loads the word at [base+off] into rd.
func (f *FuncBuilder) Ld(rd, base uint8, off int64) { f.emit(inst(isa.LD, rd, base, 0, off)) }

// St stores src at [base+off].
func (f *FuncBuilder) St(base uint8, off int64, src uint8) { f.emit(inst(isa.ST, 0, base, src, off)) }

// Cmp records rs1-rs2 in the flags for a following conditional.
func (f *FuncBuilder) Cmp(rs1, rs2 uint8) { f.emit(inst(isa.CMP, 0, rs1, rs2, 0)) }

// CmpI records rs1-imm in the flags for a following conditional.
func (f *FuncBuilder) CmpI(rs1 uint8, imm int64) { f.emit(inst(isa.CMPI, 0, rs1, 0, imm)) }

// Sys invokes the process syscall handler with the given call number.
func (f *FuncBuilder) Sys(num int64) { f.emit(inst(isa.SYS, 0, 0, 0, num)) }

// Prologue establishes a frame with the given local size — the ENTER the
// unwindability ABI demands as the first instruction of every function
// the OCOLOS controller may need to crawl past.
func (f *FuncBuilder) Prologue(frame int64) { f.emit(inst(isa.ENTER, 0, 0, 0, frame)) }

// EpilogueRet tears the frame down and returns.
func (f *FuncBuilder) EpilogueRet() {
	f.emit(inst(isa.LEAVE, 0, 0, 0, 0))
	f.Ret()
}

// Ret returns (no frame teardown — for frameless leaves).
func (f *FuncBuilder) Ret() {
	f.emit(inst(isa.RET, 0, 0, 0, 0))
	f.close(true, "")
}

// Halt stops the current thread.
func (f *FuncBuilder) Halt() {
	f.emit(inst(isa.HALT, 0, 0, 0, 0))
	f.close(true, "")
}

// --- Symbolic operands --------------------------------------------------

// Call emits a direct call to the named function.
func (f *FuncBuilder) Call(name string) {
	f.emit(asm.AInst{Inst: isa.Inst{Op: isa.CALL}, Callee: name})
}

// CallR calls through the code address in rs (virtual dispatch and
// function pointers both end here).
func (f *FuncBuilder) CallR(rs uint8) { f.emit(inst(isa.CALLR, 0, rs, 0, 0)) }

// FuncPtr materializes the named function's address into rd — the single
// function-pointer creation site the OCOLOS hook instruments (§IV-C2).
func (f *FuncBuilder) FuncPtr(rd uint8, name string) {
	f.emit(asm.AInst{Inst: isa.Inst{Op: isa.FPTR, Rd: rd}, Callee: name})
}

// LoadGlobalAddr materializes the address of a global or v-table into rd.
func (f *FuncBuilder) LoadGlobalAddr(rd uint8, sym string) {
	f.emit(asm.AInst{Inst: isa.Inst{Op: isa.MOVI, Rd: rd}, DataSym: sym})
}

// VCall performs a virtual call: obj points at an object whose first word
// is the v-table address; slot selects the method. scratch is clobbered.
func (f *FuncBuilder) VCall(obj, scratch uint8, slot int64) {
	f.Ld(scratch, obj, 0)
	f.Ld(scratch, scratch, slot*8)
	f.CallR(scratch)
}

// --- Labels and branches ------------------------------------------------

// Label starts a new basic block here under the given name and returns
// the name, for Goto/BranchIf from either direction.
func (f *FuncBuilder) Label(name string) string {
	f.startBlock(name)
	return name
}

// LabelNamed is Label for pre-chosen (forward-referenced) names.
func (f *FuncBuilder) LabelNamed(name string) { f.startBlock(name) }

// Goto jumps unconditionally to a label.
func (f *FuncBuilder) Goto(label string) {
	f.emit(asm.AInst{Inst: isa.Inst{Op: isa.JMP}, TargetLabel: label})
	f.close(true, "")
}

// BranchIf branches to the label when the condition holds for the last
// Cmp/CmpI; otherwise control falls through. It ends the current block,
// as a conditional branch does in any compiler's CFG.
func (f *FuncBuilder) BranchIf(c isa.Cond, label string) {
	f.emit(asm.AInst{Inst: isa.Inst{Op: isa.JCC, Cond: c}, TargetLabel: label})
	f.close(false, "")
}

// --- Structured control flow --------------------------------------------

// If runs then when the condition holds for the preceding Cmp/CmpI, els
// (which may be nil) otherwise. Lowered the way -O2 lays it out: branch
// over the then-block on the negated condition, so the then-path is the
// fall-through.
func (f *FuncBuilder) If(c isa.Cond, then, els func()) {
	join := f.autoLabel("join")
	if els == nil {
		f.BranchIf(c.Negate(), join)
		then()
		f.startBlock(join)
		return
	}
	elseLbl := f.autoLabel("else")
	f.BranchIf(c.Negate(), elseLbl)
	then()
	f.close(false, join) // skip the else-block (JMP inserted at link)
	f.cur = &bblock{label: elseLbl}
	els()
	f.startBlock(join)
}

// While emits a loop: cond() must emit a Cmp/CmpI; the loop body runs
// while c holds for it.
func (f *FuncBuilder) While(cond func(), c isa.Cond, body func()) {
	head := f.autoLabel("loop")
	exit := f.autoLabel("endloop")
	f.startBlock(head)
	cond()
	f.BranchIf(c.Negate(), exit)
	body()
	f.Goto(head)
	f.cur = &bblock{label: exit}
}

// Switch dispatches on idx: cases[idx] runs for 0 ≤ idx < len(cases), def
// otherwise (def may be nil). With jump tables allowed it lowers to a
// bounds check plus a JTBL through a .rodata table — the construct that
// forces the -fno-jump-tables analog; under SetNoJumpTables(true) it
// lowers to the compare chain -fno-jump-tables produces.
func (f *FuncBuilder) Switch(idx uint8, cases []func(), def func()) {
	join := f.autoLabel("sjoin")
	defLbl := f.autoLabel("sdef")
	caseLbls := make([]string, len(cases))
	for i := range cases {
		caseLbls[i] = f.autoLabel("case")
	}
	if !f.p.noJT {
		jtName := fmt.Sprintf("%s.jt%d", f.name, len(f.jts))
		f.CmpI(idx, 0)
		f.BranchIf(isa.LT, defLbl)
		f.CmpI(idx, int64(len(cases)))
		f.BranchIf(isa.GE, defLbl)
		f.emit(asm.AInst{Inst: isa.Inst{Op: isa.JTBL, Rs1: idx}, JTName: jtName})
		f.close(true, "")
		f.jts = append(f.jts, asm.SrcJT{Name: jtName, Labels: caseLbls})
	} else {
		for i := range cases {
			f.CmpI(idx, int64(i))
			f.BranchIf(isa.EQ, caseLbls[i])
		}
		f.Goto(defLbl)
	}
	for i, body := range cases {
		f.close(false, "")
		f.cur = &bblock{label: caseLbls[i]}
		body()
		f.close(false, join)
	}
	f.cur = &bblock{label: defLbl}
	if def != nil {
		def()
	}
	f.startBlock(join)
}
