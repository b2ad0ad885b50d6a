package bolt

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzPinnedRelocation from pinnedCases")

// Layout of the relocation harness binary: a one-instruction callee, the
// function "f" under test, f's exiled cold range, and one jump table.
const (
	hCallee   = 0x40_0000
	hFunc     = 0x40_0040
	hCold     = 0x60_0000
	hTable    = 0x80_0000
	hMaxInsts = 32
)

// harnessBinary turns a byte string into a binary whose function f has
// one instruction per 16-byte word of body (at most hMaxInsts): the last
// cold%(n+1) of them form f's cold range. Each word is decoded leniently
// so that most words are valid instructions and most operands land near
// code that exists:
//
//	byte 0        opcode, mod 64 (some are invalid)
//	bytes 1-3     registers, mod 16
//	byte 4        JCC condition, mod 16 (some are invalid)
//	JMP, JCC      target is instruction i+1+int8(byte 8) of f, plus
//	              byte 9 mod 16 bytes (misaligned when nonzero)
//	CALL, FPTR    byte 8 mod 3 picks the callee, f itself, or a non-entry
//	JTBL          byte 8 odd names no table
//	others        Imm is bytes 8-15
//
// Bit k < 63 of jtMask makes instruction k of f a target of f's jump
// table; bit 63 adds a misaligned target. With no bit set, the table
// belongs to the callee instead. Pad bytes 5-7 stay zero: they are no
// part of an instruction, and the lift re-encodes them as zero.
func harnessBinary(body []byte, cold int, jtMask uint64) *obj.Binary {
	n := min(len(body)/isa.InstBytes, hMaxInsts)
	nCold := int(uint(cold) % uint(n+1))
	nHot := n - nCold
	// pcOf maps an instruction index of f, extended past both ends, to its
	// address.
	pcOf := func(i int) uint64 {
		if i < nHot || nCold == 0 {
			return uint64(hFunc + int64(i)*isa.InstBytes)
		}
		return uint64(hCold + int64(i-nHot)*isa.InstBytes)
	}
	code := make([]byte, n*isa.InstBytes)
	for i := range n {
		w := body[i*isa.InstBytes:]
		in := isa.Inst{
			Op: isa.Op(w[0] % 64), Rd: w[1] % 16, Rs1: w[2] % 16, Rs2: w[3] % 16,
			Cond: isa.Cond(w[4] % 16), Imm: int64(binary.LittleEndian.Uint64(w[8:])),
		}
		next := int64(pcOf(i)) + isa.InstBytes
		callees := [3]int64{hCallee, hFunc, hCallee + isa.InstBytes}
		switch in.Op {
		case isa.JMP, isa.JCC:
			in.Imm = int64(pcOf(i+1+int(int8(w[8])))) + int64(w[9]%16) - next
		case isa.CALL:
			in.Imm = callees[w[8]%3] - next
		case isa.FPTR:
			in.Imm = callees[w[8]%3]
		case isa.JTBL:
			in.Imm = hTable + int64(w[8]%2)*8
		}
		in.Encode(code[i*isa.InstBytes:])
	}

	text := make([]byte, hFunc-hCallee+max(nHot, 1)*isa.InstBytes)
	isa.Inst{Op: isa.RET}.Encode(text)
	copy(text[hFunc-hCallee:], code)
	f := &obj.Func{Name: "f", Addr: hFunc, Size: uint64(nHot * isa.InstBytes)}
	bin := &obj.Binary{
		Name:     "harness",
		Sections: []*obj.Section{{Name: obj.SecText, Addr: hCallee, Data: text}},
		Funcs:    []*obj.Func{{Name: "callee", Addr: hCallee, Size: isa.InstBytes}, f},
	}
	if nCold > 0 {
		f.ColdAddr, f.ColdSize = hCold, uint64(nCold*isa.InstBytes)
		bin.Sections = append(bin.Sections, &obj.Section{Name: obj.SecColdText, Addr: hCold, Data: code[nHot*isa.InstBytes:]})
	}
	jt := &obj.JumpTable{Name: "tbl", Addr: hTable, Owner: "f"}
	for k := range 63 {
		if jtMask>>k&1 != 0 {
			jt.Targets = append(jt.Targets, pcOf(k))
		}
	}
	if jtMask>>63 != 0 {
		jt.Targets = append(jt.Targets, hFunc+8)
	}
	if len(jt.Targets) == 0 {
		jt.Owner, jt.Targets = "callee", []uint64{hCallee}
	}
	ro := make([]byte, 8*len(jt.Targets))
	for k, t := range jt.Targets {
		binary.LittleEndian.PutUint64(ro[8*k:], t)
	}
	bin.Sections = append(bin.Sections, &obj.Section{Name: obj.SecROData, Addr: hTable, Data: ro})
	bin.JumpTables = []*obj.JumpTable{jt}
	bin.SortFuncs()
	return bin
}

// words builds a harness body: each op becomes one word whose byte 8 is
// the following sel (see harnessBinary), or 0.
func words(ops ...any) []byte {
	var body []byte
	for _, o := range ops {
		switch o := o.(type) {
		case isa.Op:
			w := make([]byte, isa.InstBytes)
			w[0] = byte(o)
			body = append(body, w...)
		case int:
			body[len(body)-isa.InstBytes+8] = byte(int8(o))
		}
	}
	return body
}

// pinnedCases are hand-built harness inputs. insts is the number of
// instructions the relocated fragment must have; a case with reject set
// must fail on both paths, relocation with an error containing reject.
// Each is also a seed of FuzzPinnedRelocation.
type pinnedCase struct {
	name   string
	body   []byte
	cold   int
	jtMask uint64
	insts  int
	reject string
}

var pinnedCases = []pinnedCase{
	{name: "jmp-to-next-dropped", body: words(isa.ADDI, isa.JMP, 0, isa.RET), insts: 2},
	// The hot range ends in a JMP to the cold range's first instruction,
	// which the join drops; the JCC into the cold range is re-aimed.
	{name: "join-drops-jmp-to-cold", body: words(isa.CMPI, isa.JCC, 1, isa.JMP, 0, isa.ADDI, isa.RET), cold: 2, insts: 4},
	{name: "join-keeps-jmp", body: words(isa.CMPI, isa.JCC, 1, isa.JMP, 2, isa.ADDI, isa.RET, isa.RET), cold: 3, insts: 6},
	{name: "jump-table-owner", body: words(isa.CMPI, isa.JTBL, isa.ADDI, isa.RET, isa.ADDI, isa.RET), jtMask: 1<<2 | 1<<4, insts: 6},
	// The body TestPinnedAtPinBase pins away from its own address.
	{name: "pin-base", body: words(isa.CMPI, isa.JCC, 3, isa.CALL, isa.FPTR, isa.JMP, -5, isa.JTBL, isa.RET, isa.ADDI, isa.RET), jtMask: 1<<6 | 1<<7, insts: 9},
	{name: "call-and-fptr", body: words(isa.CALL, isa.FPTR, isa.CALL, 1, isa.FPTR, 1, isa.RET), insts: 5},
	{name: "reject-branch-leaves-function", body: words(isa.JMP, 10, isa.RET), reject: "leaves function"},
	{name: "reject-jump-table-target-outside", body: words(isa.JTBL, isa.RET), jtMask: 1 << 5, reject: "outside function"},
	{name: "reject-jcc-off-the-end", body: words(isa.CMPI, isa.JCC, -2), reject: "falls off"},
	{name: "reject-jcc-off-the-hot-range", body: words(isa.CMPI, isa.JCC, 0, isa.RET), cold: 1, reject: "falls off"},
	{name: "reject-fall-off-the-end", body: words(isa.ADDI, isa.ADDI), reject: "without terminator"},
	{name: "reject-fall-off-the-hot-range", body: words(isa.ADDI, isa.RET), cold: 1, reject: "without terminator"},
	{name: "reject-undecodable", body: words(isa.ADDI, isa.Op(63), isa.RET), reject: "decoding"},
	{name: "reject-empty", reject: "is empty"},
	{name: "reject-call-non-entry", body: words(isa.CALL, 2, isa.RET), reject: "non-entry"},
}

// TestPinnedRelocationCases: on each hand-built case, relocation and the
// identity lift agree; the kept, dropped and rejected counts are the ones
// the case names; and code that does not move relative to itself is
// borrowed from the input, not copied.
func TestPinnedRelocationCases(t *testing.T) {
	for _, c := range pinnedCases {
		t.Run(c.name, func(t *testing.T) {
			bin := harnessBinary(c.body, c.cold, c.jtMask)
			fn := bin.FuncByName("f")
			frag, perr, diff := PinnedVsLift(bin, fn)
			if diff != nil {
				t.Fatal(diff)
			}
			if c.reject != "" {
				if perr == nil || !strings.Contains(perr.Error(), c.reject) {
					t.Fatalf("error %v, want one saying %q", perr, c.reject)
				}
				return
			}
			if perr != nil {
				t.Fatal(perr)
			}
			if got := len(frag.Code) / isa.InstBytes; got != c.insts {
				t.Errorf("%d instructions, want %d", got, c.insts)
			}
			moves := fn.ColdSize > 0 || frag.Size() != fn.Size
			text := bin.Section(obj.SecText).Data
			borrowed := &frag.Code[0] == &text[fn.Addr-hCallee]
			if borrowed == moves {
				t.Errorf("code moves relative to itself = %v, borrowed = %v", moves, borrowed)
			}
		})
	}
}

// TestPinnedAtPinBase pins f away from its own address while its callee
// moves: the linker must patch the borrowed bytes' CALL, FPTR and JTBL
// operands and leave every byte else, and f's jump table must follow f.
func TestPinnedAtPinBase(t *testing.T) {
	i := slices.IndexFunc(pinnedCases, func(c pinnedCase) bool { return c.name == "pin-base" })
	c := pinnedCases[i]
	bin := harnessBinary(c.body, c.cold, c.jtMask)
	in := bin.FuncByName("f")
	text := bytes.Clone(bin.Sections[0].Data)
	prof := &Profile{Funcs: map[uint64]*FuncProfile{hCallee: newFuncProfile(hCallee)}}
	prof.Funcs[hCallee].Records = 100
	const pin = 0x50_0000
	res, err := Optimize(bin, prof, Options{PinBase: map[string]uint64{"f": pin}})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Binary
	callee := out.AddrMap[hCallee]
	if f := out.FuncByName("f"); f == nil || f.Addr != pin || f.Size != in.Size {
		t.Fatalf("f linked as %+v, want %d bytes at %#x", f, in.Size, uint64(pin))
	}
	if callee == 0 || callee == hCallee {
		t.Fatalf("callee did not move: AddrMap %v", out.AddrMap)
	}
	tbl := out.JumpTables[0]
	for off := uint64(0); off < in.Size; off += isa.InstBytes {
		want := instAt(t, bin, in, off)
		pc := pin + off
		switch want.Op {
		case isa.CALL:
			want.Imm = int64(callee) - int64(pc+isa.InstBytes)
		case isa.FPTR:
			want.Imm = int64(callee)
		case isa.JTBL:
			want.Imm = int64(tbl.Addr)
		}
		raw, err := out.Bytes(pc, isa.InstBytes)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := isa.Decode(raw); got != want {
			t.Errorf("+%#x: %v, want %v", off, got, want)
		}
	}
	for k, tgt := range tbl.Targets {
		if want := pin + bin.JumpTables[0].Targets[k] - hFunc; tgt != want {
			t.Errorf("jump table entry %d: %#x, want %#x", k, tgt, want)
		}
	}
	if !bytes.Equal(bin.Sections[0].Data, text) {
		t.Error("linking patched the input's bytes")
	}
}

// FuzzPinnedRelocation: on any harness binary, relocation and the identity
// lift both reject f, or both emit the same fragment.
func FuzzPinnedRelocation(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, cold int, jtMask uint64) {
		bin := harnessBinary(body, cold, jtMask)
		if _, _, diff := PinnedVsLift(bin, bin.FuncByName("f")); diff != nil {
			t.Fatal(diff)
		}
	})
}

// TestPinnedRelocationCorpus: the committed seed corpus of
// FuzzPinnedRelocation is pinnedCases, one file each. Rewrite it with
// -update-corpus after editing the cases.
func TestPinnedRelocationCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzPinnedRelocation")
	for _, c := range pinnedCases {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nint(%d)\nuint64(%d)\n", c.body, c.cold, c.jtMask)
		path := filepath.Join(dir, c.name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s is stale or missing (err %v); rerun with -update-corpus", path, err)
		}
	}
}
