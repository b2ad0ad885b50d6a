// Package isa defines the synthetic instruction set executed by the
// simulated machine.
//
// The ISA is a small fixed-width RISC-style instruction set designed to
// expose every flavour of code pointer that OCOLOS (MICRO 2022, §III-B)
// must handle when it replaces code in a running process:
//
//   - PC-relative direct calls (CALL) and branches (JMP, JCC)
//   - indirect calls through registers (CALLR), fed by v-table loads or
//     programmer-created function pointers
//   - function-pointer creation sites (FPTR), the hook point for the
//     wrapFuncPtrCreation instrumentation of §IV-C2
//   - jump tables (JTBL) whose targets are compile-time constants, the
//     construct that forces -fno-jump-tables in §IV-D
//   - return addresses pushed on a real, in-memory stack (CALL/RET), so a
//     debugger can unwind frames the way libunwind does
//
// Every instruction is exactly 16 bytes (InstBytes) so that code occupies
// real space in the simulated address space, streams through the modeled
// L1i/iTLB, and can be copied byte-for-byte during code replacement.
package isa

import (
	"encoding/binary"
	"fmt"
)

// InstBytes is the size of every encoded instruction in bytes.
const InstBytes = 16

// Op identifies an instruction opcode.
type Op uint8

// Opcodes. The zero value is deliberately invalid so that executing
// zero-filled memory faults immediately.
const (
	BAD Op = iota
	NOP
	HALT // stop the current thread

	// Data movement and arithmetic. Rd <- Rs1 op Rs2 (register forms) or
	// Rd <- Rs1 op Imm (immediate forms).
	MOVI // Rd <- Imm
	MOV  // Rd <- Rs1
	ADD
	SUB
	MUL
	DIV // divide; DIV by zero faults
	MOD
	AND
	OR
	XOR
	SHL
	SHR
	ADDI
	MULI
	ANDI
	ORI
	XORI
	SHLI
	SHRI

	// Memory. Addresses are Rs1+Imm. LD/ST move 8-byte words; LDB/STB
	// single bytes.
	LD  // Rd <- mem[Rs1+Imm]
	ST  // mem[Rs1+Imm] <- Rs2
	LDB // Rd <- zeroext(mem8[Rs1+Imm])
	STB // mem8[Rs1+Imm] <- low8(Rs2)

	// Compare: records Rs1-Rs2 (or Rs1-Imm) in the thread's flag state for
	// a subsequent JCC.
	CMP
	CMPI

	// Control flow. All relative offsets are byte offsets from the address
	// of the *next* instruction (PC+16), as with x86 rel32.
	JMP  // PC-relative unconditional jump
	JCC  // PC-relative conditional jump; condition in Cond field
	CALL // PC-relative direct call: push return address, jump
	// CALLR calls through a register holding an absolute code address:
	// virtual dispatch and programmer function pointers both end here.
	CALLR
	RET // pop return address into PC

	// JTBL implements a jump table: the table lives at absolute address
	// Imm (a compile-time constant, as emitted for dense switches) and
	// holds absolute 8-byte code addresses; Rs1 is the index.
	JTBL

	// FPTR materializes a function's absolute address into Rd. This is the
	// single place where programs create function pointers, and thus the
	// site OCOLOS's compiler pass instruments (§IV-C2): the process may
	// install a translation hook that rewrites the produced value.
	FPTR

	// Stack frames. ENTER pushes FP, sets FP=SP, then subtracts Imm from
	// SP; LEAVE undoes it. Making frame setup a single instruction keeps
	// the FP chain unwindable at every instruction boundary.
	ENTER
	LEAVE
	PUSH // push Rs1
	POP  // pop into Rd

	// SYS invokes the process's syscall handler. The call number is Imm;
	// arguments and results use the normal argument registers.
	SYS

	opCount // sentinel
)

var opNames = [...]string{
	BAD: "bad", NOP: "nop", HALT: "halt",
	MOVI: "movi", MOV: "mov",
	ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", MOD: "mod",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
	ADDI: "addi", MULI: "muli", ANDI: "andi", ORI: "ori", XORI: "xori",
	SHLI: "shli", SHRI: "shri",
	LD: "ld", ST: "st", LDB: "ldb", STB: "stb",
	CMP: "cmp", CMPI: "cmpi",
	JMP: "jmp", JCC: "jcc", CALL: "call", CALLR: "callr", RET: "ret",
	JTBL: "jtbl", FPTR: "fptr",
	ENTER: "enter", LEAVE: "leave", PUSH: "push", POP: "pop",
	SYS: "sys",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o > BAD && o < opCount }

// Cond is a branch condition evaluated against the flags set by CMP/CMPI.
type Cond uint8

// Conditions compare the recorded (Rs1 - Rs2) value with zero, signed.
const (
	EQ Cond = iota
	NE
	LT
	LE
	GT
	GE
	condCount
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

// String implements fmt.Stringer.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Negate returns the logically opposite condition.
func (c Cond) Negate() Cond {
	switch c {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	return c
}

// Holds reports whether the condition is satisfied for a CMP result d
// (the difference Rs1-Rs2, clamped into an int64).
func (c Cond) Holds(d int64) bool {
	switch c {
	case EQ:
		return d == 0
	case NE:
		return d != 0
	case LT:
		return d < 0
	case LE:
		return d <= 0
	case GT:
		return d > 0
	case GE:
		return d >= 0
	}
	return false
}

// Register indices. The machine has 16 general-purpose registers.
const (
	R0 = iota // argument/return 0
	R1
	R2
	R3
	R4
	R5 // arguments r0..r5
	R6 // caller-saved temporaries r6..r12
	R7
	R8
	R9
	R10
	R11
	R12
	FP // r13: frame pointer
	SP // r14: stack pointer
	RZ // r15: always reads zero; writes discarded

	NumRegs = 16
)

// Inst is a decoded instruction.
type Inst struct {
	Op   Op
	Rd   uint8
	Rs1  uint8
	Rs2  uint8
	Cond Cond  // only meaningful for JCC
	Imm  int64 // immediate / displacement / PC-relative offset
}

// IsCtrl reports whether the instruction can change the PC.
func (in Inst) IsCtrl() bool {
	switch in.Op {
	case JMP, JCC, CALL, CALLR, RET, JTBL, HALT:
		return true
	}
	return false
}

// Terminates reports whether control never falls through to the next
// instruction (used by CFG reconstruction).
func (in Inst) Terminates() bool {
	switch in.Op {
	case JMP, RET, JTBL, HALT:
		return true
	}
	return false
}

// String implements fmt.Stringer.
func (in Inst) String() string {
	switch in.Op {
	case NOP, HALT, RET, LEAVE:
		return in.Op.String()
	case MOVI, FPTR:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, in.Imm)
	case MOV:
		return fmt.Sprintf("mov r%d, r%d", in.Rd, in.Rs1)
	case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	case ADDI, MULI, ANDI, ORI, XORI, SHLI, SHRI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case LD, LDB:
		return fmt.Sprintf("%s r%d, [r%d%+d]", in.Op, in.Rd, in.Rs1, in.Imm)
	case ST, STB:
		return fmt.Sprintf("%s [r%d%+d], r%d", in.Op, in.Rs1, in.Imm, in.Rs2)
	case CMP:
		return fmt.Sprintf("cmp r%d, r%d", in.Rs1, in.Rs2)
	case CMPI:
		return fmt.Sprintf("cmpi r%d, %d", in.Rs1, in.Imm)
	case JMP, CALL:
		return fmt.Sprintf("%s %+d", in.Op, in.Imm)
	case JCC:
		return fmt.Sprintf("j%s %+d", in.Cond, in.Imm)
	case CALLR:
		return fmt.Sprintf("callr r%d", in.Rs1)
	case JTBL:
		return fmt.Sprintf("jtbl r%d, [%#x]", in.Rs1, uint64(in.Imm))
	case ENTER:
		return fmt.Sprintf("enter %d", in.Imm)
	case PUSH:
		return fmt.Sprintf("push r%d", in.Rs1)
	case POP:
		return fmt.Sprintf("pop r%d", in.Rd)
	case SYS:
		return fmt.Sprintf("sys %d", in.Imm)
	}
	return fmt.Sprintf("%s rd=%d rs1=%d rs2=%d imm=%d", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
}

// Encode writes the instruction into dst, which must be at least InstBytes
// long. Layout: [op u8][rd u8][rs1 u8][rs2 u8][cond u8][pad 3][imm i64 LE].
func (in Inst) Encode(dst []byte) {
	_ = dst[InstBytes-1]
	dst[0] = byte(in.Op)
	dst[1] = in.Rd
	dst[2] = in.Rs1
	dst[3] = in.Rs2
	dst[4] = byte(in.Cond)
	dst[5], dst[6], dst[7] = 0, 0, 0
	binary.LittleEndian.PutUint64(dst[8:], uint64(in.Imm))
}

// OpOf returns the opcode of the instruction encoded at src, and ImmOf
// its Imm field, without decoding or validating the rest.
func OpOf(src []byte) Op     { return Op(src[0]) }
func ImmOf(src []byte) int64 { return int64(binary.LittleEndian.Uint64(src[8:InstBytes])) }

// SetImm rewrites the Imm field of the instruction encoded at dst and
// leaves its other bytes as they are: how a linker patches a relocation.
func SetImm(dst []byte, imm int64) {
	binary.LittleEndian.PutUint64(dst[8:InstBytes], uint64(imm))
}

// Decode reads an instruction from src, which must be at least InstBytes
// long. It returns an error for undefined opcodes, register indices, or
// conditions so that executing data or zeroed memory faults.
func Decode(src []byte) (Inst, error) {
	_ = src[InstBytes-1]
	in := Inst{
		Op:   Op(src[0]),
		Rd:   src[1],
		Rs1:  src[2],
		Rs2:  src[3],
		Cond: Cond(src[4]),
		Imm:  int64(binary.LittleEndian.Uint64(src[8:])),
	}
	if !in.Op.Valid() {
		return Inst{}, fmt.Errorf("isa: invalid opcode %d", src[0])
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return Inst{}, fmt.Errorf("isa: %s: register index out of range", in.Op)
	}
	if in.Op == JCC && in.Cond >= condCount {
		return Inst{}, fmt.Errorf("isa: jcc: invalid condition %d", src[4])
	}
	return in, nil
}

// EncodeAll encodes a sequence of instructions into a fresh byte slice.
func EncodeAll(insts []Inst) []byte {
	out := make([]byte, len(insts)*InstBytes)
	for i, in := range insts {
		in.Encode(out[i*InstBytes:])
	}
	return out
}

// DecodeAll decodes len(b)/InstBytes instructions.
func DecodeAll(b []byte) ([]Inst, error) {
	n := len(b) / InstBytes
	out := make([]Inst, 0, n)
	for i := 0; i < n; i++ {
		in, err := Decode(b[i*InstBytes:])
		if err != nil {
			return nil, fmt.Errorf("at offset %d: %w", i*InstBytes, err)
		}
		out = append(out, in)
	}
	return out, nil
}
