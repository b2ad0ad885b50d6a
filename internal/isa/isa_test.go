package isa

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// FuzzDecode checks Decode on arbitrary 16-byte words, the form guest
// memory hands the executors: it never panics, it rejects exactly the
// words with an undefined opcode, an out-of-range register index or a
// JCC with an undefined condition, and a decoded word re-encodes to the
// same bytes (the three pad bytes aside), which decode to the same Inst.
// The seed corpus (testdata/fuzz/FuzzDecode) holds one valid encoding
// per opcode, a zero word and the rejects of TestDecodeRejectsInvalid.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var word [InstBytes]byte
		copy(word[:], data)
		in, err := Decode(word[:])
		bad := !Op(word[0]).Valid() ||
			word[1] >= NumRegs || word[2] >= NumRegs || word[3] >= NumRegs ||
			Op(word[0]) == JCC && Cond(word[4]) >= condCount
		if bad != (err != nil) {
			t.Fatalf("Decode(% x): err = %v, want rejected = %v", word, err, bad)
		}
		if err != nil {
			return
		}
		var re [InstBytes]byte
		in.Encode(re[:])
		copy(word[5:8], re[5:8])
		if re != word {
			t.Fatalf("Decode(% x) = %v re-encodes to % x", word, in, re)
		}
		if again, err := Decode(re[:]); err != nil || again != in {
			t.Fatalf("%v re-encoded decodes to %v, %v", in, again, err)
		}
	})
}

// TestDecodeCorpus checks that FuzzDecode's committed seeds still say
// what their names say: valid-<op> decodes to that opcode, the rest are
// rejected, and every opcode has a valid seed.
func TestDecodeCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeded := map[Op]bool{}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil || len(data) != InstBytes {
			t.Fatalf("%s: not a one-word fuzz input: %q", f.Name(), lines[len(lines)-1])
		}
		in, err := Decode([]byte(data))
		name, valid := strings.CutPrefix(f.Name(), "valid-")
		switch {
		case !valid && err == nil:
			t.Errorf("%s decodes to %v, want an error", f.Name(), in)
		case valid && (err != nil || in.Op.String() != name):
			t.Errorf("%s decodes to %v, %v", f.Name(), in, err)
		case valid:
			seeded[in.Op] = true
		}
	}
	for op := NOP; op < opCount; op++ {
		if !seeded[op] {
			t.Errorf("no valid-%s seed", op)
		}
	}
}

// TestSetImmKeepsOtherBytes: a linker patches an encoded instruction's
// Imm with SetImm and reads it back with ImmOf and OpOf; every other byte,
// pad included, stays as it was.
func TestSetImmKeepsOtherBytes(t *testing.T) {
	in := Inst{Op: JCC, Rd: 1, Rs1: 2, Rs2: 3, Cond: NE, Imm: 48}
	buf := make([]byte, InstBytes)
	in.Encode(buf)
	buf[6] = 0xAA // a nonzero pad byte
	SetImm(buf, -0x1234_5678_9abc)
	if OpOf(buf) != JCC || ImmOf(buf) != -0x1234_5678_9abc || buf[6] != 0xAA {
		t.Fatalf("op %v imm %d pad %#x after SetImm", OpOf(buf), ImmOf(buf), buf[6])
	}
	got, err := Decode(buf)
	in.Imm = -0x1234_5678_9abc
	if err != nil || got != in {
		t.Fatalf("decoded %+v (err %v), want %+v", got, err, in)
	}
}
