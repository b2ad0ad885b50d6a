package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: NOP},
		{Op: HALT},
		{Op: MOVI, Rd: R3, Imm: -42},
		{Op: ADD, Rd: R0, Rs1: R1, Rs2: R2},
		{Op: LD, Rd: R6, Rs1: SP, Imm: 8},
		{Op: ST, Rs1: FP, Rs2: R0, Imm: -16},
		{Op: JCC, Cond: GE, Imm: -320},
		{Op: CALL, Imm: 1 << 30},
		{Op: CALLR, Rs1: R7},
		{Op: JTBL, Rs1: R2, Imm: 0x10000000},
		{Op: FPTR, Rd: R4, Imm: 0x400000},
		{Op: ENTER, Imm: 64},
		{Op: LEAVE},
		{Op: SYS, Imm: 3},
		{Op: MOVI, Rd: R0, Imm: math.MaxInt64},
		{Op: MOVI, Rd: R0, Imm: math.MinInt64},
	}
	for _, want := range cases {
		var buf [InstBytes]byte
		want.Encode(buf[:])
		got, err := Decode(buf[:])
		if err != nil {
			t.Fatalf("Decode(%v): %v", want, err)
		}
		if got != want {
			t.Errorf("round trip: got %v, want %v", got, want)
		}
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	var zero [InstBytes]byte
	if _, err := Decode(zero[:]); err == nil {
		t.Error("Decode of zeroed memory should fail (opcode 0)")
	}
	bad := Inst{Op: ADD, Rd: R0, Rs1: R1, Rs2: R2}
	var buf [InstBytes]byte
	bad.Encode(buf[:])
	buf[0] = byte(opCount) // undefined opcode
	if _, err := Decode(buf[:]); err == nil {
		t.Error("Decode of undefined opcode should fail")
	}
	bad.Encode(buf[:])
	buf[2] = NumRegs // register out of range
	if _, err := Decode(buf[:]); err == nil {
		t.Error("Decode with register index 16 should fail")
	}
	jcc := Inst{Op: JCC, Imm: 16}
	jcc.Encode(buf[:])
	buf[4] = byte(condCount)
	if _, err := Decode(buf[:]); err == nil {
		t.Error("Decode of JCC with invalid condition should fail")
	}
}

// TestEncodeDecodeQuick property-tests the codec over random valid
// instructions: decode(encode(x)) == x.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, cond uint8, imm int64) bool {
		in := Inst{
			Op:  Op(op%uint8(opCount-1)) + 1, // valid non-BAD opcode
			Rd:  rd % NumRegs,
			Rs1: rs1 % NumRegs,
			Rs2: rs2 % NumRegs,
			Imm: imm,
		}
		if in.Op == JCC {
			in.Cond = Cond(cond % uint8(condCount))
		}
		var buf [InstBytes]byte
		in.Encode(buf[:])
		out, err := Decode(buf[:])
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestConds(t *testing.T) {
	cases := []struct {
		c    Cond
		d    int64
		want bool
	}{
		{EQ, 0, true}, {EQ, 1, false},
		{NE, 0, false}, {NE, -1, true},
		{LT, -1, true}, {LT, 0, false},
		{LE, 0, true}, {LE, 1, false},
		{GT, 1, true}, {GT, 0, false},
		{GE, 0, true}, {GE, -1, false},
	}
	for _, c := range cases {
		if got := c.c.Holds(c.d); got != c.want {
			t.Errorf("%v.Holds(%d) = %v, want %v", c.c, c.d, got, c.want)
		}
	}
}

func TestClassifiers(t *testing.T) {
	for _, op := range []Op{JMP, RET, JTBL, HALT} {
		if !(Inst{Op: op}).Terminates() {
			t.Errorf("%v should terminate a block", op)
		}
	}
	for _, op := range []Op{JCC, CALL, ADD, SYS} {
		if (Inst{Op: op}).Terminates() {
			t.Errorf("%v should fall through", op)
		}
	}
	for _, op := range []Op{JMP, JCC, CALL, CALLR, RET, JTBL, HALT} {
		if !(Inst{Op: op}).IsCtrl() {
			t.Errorf("%v should be control flow", op)
		}
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	prog := []Inst{
		{Op: ENTER, Imm: 32},
		{Op: MOVI, Rd: R0, Imm: 7},
		{Op: ADDI, Rd: R0, Rs1: R0, Imm: 1},
		{Op: LEAVE},
		{Op: RET},
	}
	b := EncodeAll(prog)
	if len(b) != len(prog)*InstBytes {
		t.Fatalf("EncodeAll length = %d, want %d", len(b), len(prog)*InstBytes)
	}
	out, err := DecodeAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(prog) {
		t.Fatalf("DecodeAll count = %d, want %d", len(out), len(prog))
	}
	for i := range prog {
		if out[i] != prog[i] {
			t.Errorf("inst %d: got %v, want %v", i, out[i], prog[i])
		}
	}
}

func TestStrings(t *testing.T) {
	// Smoke-test String() renders every opcode without panicking.
	for op := BAD + 1; op < opCount; op++ {
		in := Inst{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 4}
		if in.String() == "" {
			t.Errorf("empty String for %v", op)
		}
	}
	if BAD.String() != "bad" || Op(200).String() == "" {
		t.Error("Op.String misbehaves on edge values")
	}
}

func TestNegate(t *testing.T) {
	pairs := [][2]Cond{{EQ, NE}, {LT, GE}, {LE, GT}}
	for _, p := range pairs {
		if p[0].Negate() != p[1] || p[1].Negate() != p[0] {
			t.Errorf("Negate(%v) != %v", p[0], p[1])
		}
	}
	// Property: for every condition and every sign of difference, exactly
	// one of (c, !c) holds.
	for c := EQ; c < condCount; c++ {
		for _, d := range []int64{-5, 0, 7} {
			if c.Holds(d) == c.Negate().Holds(d) {
				t.Errorf("%v and its negation agree on %d", c, d)
			}
		}
	}
}
