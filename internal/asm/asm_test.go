package asm

import (
	"encoding/binary"
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
)

// smallProgram: main calls helper through a conditional; helper is also in
// a v-table and a jump table.
func smallProgram() *Program {
	return &Program{
		Name:  "small",
		Entry: "main",
		Funcs: []*Func{
			{
				Name: "main",
				Blocks: []*Block{
					{Label: "entry", Insts: []AInst{
						{Inst: isa.Inst{Op: isa.ENTER, Imm: 16}},
						{Inst: isa.Inst{Op: isa.MOVI, Rd: isa.R0, Imm: 1}},
						{Inst: isa.Inst{Op: isa.CMPI, Rs1: isa.R0, Imm: 0}},
						{Inst: isa.Inst{Op: isa.JCC, Cond: isa.EQ}, TargetLabel: "skip"},
					}, Fall: "docall"},
					{Label: "docall", Insts: []AInst{
						{Inst: isa.Inst{Op: isa.CALL}, Callee: "helper"},
					}, Fall: "skip"},
					{Label: "skip", Insts: []AInst{
						{Inst: isa.Inst{Op: isa.MOVI, Rd: isa.R6}, DataSym: "gcounter"},
						{Inst: isa.Inst{Op: isa.LEAVE}},
						{Inst: isa.Inst{Op: isa.HALT}},
					}},
				},
			},
			{
				Name: "helper",
				Blocks: []*Block{
					{Label: "entry", Insts: []AInst{
						{Inst: isa.Inst{Op: isa.ADDI, Rd: isa.R0, Rs1: isa.R0, Imm: 1}},
						{Inst: isa.Inst{Op: isa.RET}},
					}},
				},
			},
		},
		Globals: []*Global{{Name: "gcounter", Size: 8}},
		VTables: []*VTable{{Name: "vt0", Slots: []string{"helper", "main"}}},
	}
}

func TestAssembleValidates(t *testing.T) {
	b, err := Assemble(smallProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Entry != b.FuncByName("main").Addr {
		t.Error("entry address mismatch")
	}
	if b.FuncByName("main").Addr%FuncAlign != 0 || b.FuncByName("helper").Addr%FuncAlign != 0 {
		t.Error("functions not cache-line aligned")
	}
}

func TestCallAndBranchResolution(t *testing.T) {
	b, err := Assemble(smallProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	main := b.FuncByName("main")
	helper := b.FuncByName("helper")
	code, err := b.Bytes(main.Addr, int(main.Size))
	if err != nil {
		t.Fatal(err)
	}
	insts, err := isa.DecodeAll(code)
	if err != nil {
		t.Fatal(err)
	}
	// Find the CALL and check its PC-relative target.
	found := false
	for i, in := range insts {
		if in.Op == isa.CALL {
			pc := main.Addr + uint64(i)*isa.InstBytes
			if tgt := uint64(int64(pc) + isa.InstBytes + in.Imm); tgt != helper.Addr {
				t.Errorf("CALL resolves to %#x, want %#x", tgt, helper.Addr)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no CALL in main")
	}
	// JCC at index 3 targets the "skip" block; blocks metadata gives spans.
	jcc := insts[3]
	if jcc.Op != isa.JCC {
		t.Fatalf("inst 3 is %v", jcc)
	}
	tgt := uint64(int64(main.Addr+3*isa.InstBytes) + isa.InstBytes + jcc.Imm)
	// "skip" is the third block.
	skipAddr := main.Addr + uint64(main.Blocks[2].Off)
	if tgt != skipAddr {
		t.Errorf("JCC resolves to %#x, want %#x", tgt, skipAddr)
	}
}

func TestFallthroughJmpInsertion(t *testing.T) {
	// Reorder blocks so "docall" is last: entry falls to docall which is no
	// longer adjacent, forcing a JMP.
	p := smallProgram()
	mainFn := p.Funcs[0]
	mainFn.Blocks = []*Block{mainFn.Blocks[0], mainFn.Blocks[2], mainFn.Blocks[1]}
	b, err := Assemble(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	main := b.FuncByName("main")
	code, _ := b.Bytes(main.Addr, int(main.Size))
	insts, _ := isa.DecodeAll(code)
	// entry block got a trailing JMP to docall, and docall got one to skip.
	var jmps int
	for _, in := range insts {
		if in.Op == isa.JMP {
			jmps++
		}
	}
	if jmps != 2 {
		t.Errorf("expected 2 inserted JMPs, found %d", jmps)
	}
	// Size grew by the two jumps versus the straight-line layout.
	b2, _ := Assemble(smallProgram(), Options{})
	if main.Size != b2.FuncByName("main").Size+2*isa.InstBytes {
		t.Errorf("reordered main size %d, want %d",
			main.Size, b2.FuncByName("main").Size+2*isa.InstBytes)
	}
}

func TestVTableMaterialization(t *testing.T) {
	b, err := Assemble(smallProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.VTables) != 1 {
		t.Fatal("missing v-table")
	}
	vt := b.VTables[0]
	if vt.Slots[0] != b.FuncByName("helper").Addr || vt.Slots[1] != b.FuncByName("main").Addr {
		t.Error("v-table slots wrong")
	}
	// The .data image holds the same values.
	raw, err := b.Bytes(vt.Addr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(raw) != vt.Slots[0] {
		t.Error(".data image does not match v-table slot 0")
	}
	// Global symbol address was baked into the MOVI.
	syms := DataSymbols(smallProgram(), Options{})
	main := b.FuncByName("main")
	code, _ := b.Bytes(main.Addr, int(main.Size))
	insts, _ := isa.DecodeAll(code)
	found := false
	for _, in := range insts {
		if in.Op == isa.MOVI && in.Rd == isa.R6 {
			if uint64(in.Imm) != syms["gcounter"] {
				t.Errorf("MOVI imm %#x, want %#x", in.Imm, syms["gcounter"])
			}
			found = true
		}
	}
	if !found {
		t.Error("global MOVI not found")
	}
}

// TestZeroFillData: only the initialized extent of .data is materialized;
// zero globals after it become the section's zero-fill tail, while the
// section's size and every data symbol's address are unchanged.
func TestZeroFillData(t *testing.T) {
	p := smallProgram()
	p.Globals = []*Global{
		{Name: "heap", Size: 1 << 20},
		{Name: "gcounter", Size: 8, Init: []byte{5, 6, 7}},
		{Name: "tail", Size: 4096},
	}
	b, err := Assemble(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	syms := DataSymbols(p, Options{})
	vtSize := uint64(16) // vt0: two slots
	want := map[string]uint64{
		"vt0":      DefaultDataBase,
		"heap":     DefaultDataBase + vtSize,
		"gcounter": DefaultDataBase + vtSize + 1<<20,
		"tail":     DefaultDataBase + vtSize + 1<<20 + 8,
	}
	for name, addr := range want {
		if syms[name] != addr {
			t.Errorf("DataSymbols[%s] = %#x, want %#x", name, syms[name], addr)
		}
	}
	data := b.Section(obj.SecData)
	if got, want := uint64(len(data.Data)), syms["gcounter"]+3-DefaultDataBase; got != want {
		t.Errorf("len(Data) = %d, want the initialized extent %d", got, want)
	}
	if end := syms["tail"] + 4096; data.End() != end {
		t.Errorf("End = %#x, want %#x", data.End(), end)
	}
	raw, err := b.Bytes(syms["gcounter"], 8)
	if err != nil || raw[0] != 5 || raw[2] != 7 || raw[3] != 0 {
		t.Errorf("gcounter reads %v, %v", raw, err)
	}
}

// TestLinkTrimsAndGrowsData: Link trims trailing zeros of the caller's
// image into Zero and grows Data into the tail for a v-table placed
// there, keeping the total size.
func TestLinkTrimsAndGrowsData(t *testing.T) {
	frag, err := smallProgram().Funcs[1].Lower(nil)
	if err != nil {
		t.Fatal(err)
	}
	in := LinkInput{
		Name:       "link",
		Placements: SequentialPlacement([]*Fragment{frag}, DefaultTextBase, obj.SecText, false),
		Data:       []byte{1, 0, 0, 0},
		DataZero:   60,
		DataBase:   DefaultDataBase,
	}
	b, err := Link(in)
	if err != nil {
		t.Fatal(err)
	}
	if d := b.Section(obj.SecData); len(d.Data) != 1 || d.Zero != 63 {
		t.Errorf("trimmed .data: %d bytes + %d zero, want 1 + 63", len(d.Data), d.Zero)
	}
	in.VTables = []VTableSpec{{Name: "vt", Off: 32, Slots: []string{"helper"}}}
	if b, err = Link(in); err != nil {
		t.Fatal(err)
	}
	d := b.Section(obj.SecData)
	// The slot's high bytes are zero, so they are trimmed into the tail too.
	if len(d.Data) <= 32 || len(d.Data) > 40 || d.Data[len(d.Data)-1] == 0 || d.End() != DefaultDataBase+64 {
		t.Errorf(".data with a v-table in the tail: %d bytes, End %#x", len(d.Data), d.End())
	}
	if raw, _ := b.Bytes(DefaultDataBase+32, 8); binary.LittleEndian.Uint64(raw) != b.FuncByName("helper").Addr {
		t.Error("v-table slot in the tail not written")
	}
	if in.Data[1] != 0 || len(in.Data) != 4 {
		t.Error("Link wrote to the caller's data image")
	}
}

func TestJumpTables(t *testing.T) {
	p := &Program{
		Name:  "jt",
		Entry: "f",
		Funcs: []*Func{{
			Name: "f",
			Blocks: []*Block{
				{Label: "entry", Insts: []AInst{
					{Inst: isa.Inst{Op: isa.JTBL, Rs1: isa.R0}, JTName: "tbl"},
				}},
				{Label: "a", Insts: []AInst{{Inst: isa.Inst{Op: isa.HALT}}}},
				{Label: "b", Insts: []AInst{{Inst: isa.Inst{Op: isa.HALT}}}},
			},
			JumpTables: []SrcJT{{Name: "tbl", Labels: []string{"a", "b", "a"}}},
		}},
	}
	b, err := Assemble(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.JumpTables) != 1 {
		t.Fatal("missing jump table")
	}
	jt := b.JumpTables[0]
	f := b.FuncByName("f")
	wantA := f.Addr + uint64(f.Blocks[1].Off)
	wantB := f.Addr + uint64(f.Blocks[2].Off)
	if jt.Targets[0] != wantA || jt.Targets[1] != wantB || jt.Targets[2] != wantA {
		t.Errorf("jump table targets %#x, want [%#x %#x %#x]", jt.Targets, wantA, wantB, wantA)
	}
	// .rodata image matches.
	raw, err := b.Bytes(jt.Addr, 24)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(raw[8:]) != wantB {
		t.Error(".rodata image mismatch")
	}
	// The JTBL instruction's Imm is the table address.
	code, _ := b.Bytes(f.Addr, isa.InstBytes)
	in, _ := isa.Decode(code)
	if uint64(in.Imm) != jt.Addr {
		t.Errorf("JTBL imm %#x, want %#x", in.Imm, jt.Addr)
	}

	// NoJumpTables must reject this program.
	p.NoJumpTables = true
	if _, err := Assemble(p, Options{}); err == nil {
		t.Error("NoJumpTables program with a jump table assembled")
	}
}

func TestLowerErrors(t *testing.T) {
	cases := []*Func{
		// No terminator, no fall-through.
		{Name: "f", Blocks: []*Block{{Label: "e", Insts: []AInst{{Inst: isa.Inst{Op: isa.NOP}}}}}},
		// Undefined branch label.
		{Name: "f", Blocks: []*Block{{Label: "e", Insts: []AInst{
			{Inst: isa.Inst{Op: isa.JMP}, TargetLabel: "nope"}}}}},
		// Duplicate labels.
		{Name: "f", Blocks: []*Block{
			{Label: "e", Insts: []AInst{{Inst: isa.Inst{Op: isa.RET}}}},
			{Label: "e", Insts: []AInst{{Inst: isa.Inst{Op: isa.RET}}}}}},
		// Terminator plus fall-through.
		{Name: "f", Blocks: []*Block{
			{Label: "e", Insts: []AInst{{Inst: isa.Inst{Op: isa.RET}}}, Fall: "x"},
			{Label: "x", Insts: []AInst{{Inst: isa.Inst{Op: isa.RET}}}}}},
		// Call without callee.
		{Name: "f", Blocks: []*Block{{Label: "e", Insts: []AInst{
			{Inst: isa.Inst{Op: isa.CALL}}, {Inst: isa.Inst{Op: isa.RET}}}}}},
	}
	for i, fn := range cases {
		if _, err := fn.Lower(nil); err == nil {
			t.Errorf("case %d: Lower accepted invalid function", i)
		}
	}
}

func TestLinkErrors(t *testing.T) {
	frag := &Fragment{
		Name:   "f",
		Code:   code(isa.Inst{Op: isa.CALL}, isa.Inst{Op: isa.RET}),
		Relocs: []Reloc{{At: 0, Sym: "missing"}},
		Blocks: []int{0},
	}
	_, err := Link(LinkInput{
		Name:       "t",
		Placements: []Placement{{Frag: frag, Addr: DefaultTextBase, Section: obj.SecText}},
	})
	if err == nil {
		t.Error("undefined callee not caught")
	}

	// Duplicate fragments.
	ret := &Fragment{Name: "g", Code: code(isa.Inst{Op: isa.RET}), Blocks: []int{0}}
	_, err = Link(LinkInput{
		Name: "t",
		Placements: []Placement{
			{Frag: ret, Addr: DefaultTextBase, Section: obj.SecText},
			{Frag: ret, Addr: DefaultTextBase + 64, Section: obj.SecText},
		},
	})
	if err == nil {
		t.Error("duplicate fragment not caught")
	}

	// Unaligned placement.
	_, err = Link(LinkInput{
		Name:       "t",
		Placements: []Placement{{Frag: ret, Addr: DefaultTextBase + 3, Section: obj.SecText}},
	})
	if err == nil {
		t.Error("unaligned placement not caught")
	}
}

func TestColdFragmentAttachment(t *testing.T) {
	hot := &Fragment{
		Name:   "f",
		Code:   code(isa.Inst{Op: isa.JCC, Cond: isa.EQ}, isa.Inst{Op: isa.RET}),
		Relocs: []Reloc{{At: 0, Sym: "f" + ColdSuffix, Index: 0}},
		Blocks: []int{0},
	}
	cold := &Fragment{
		Name:   "f" + ColdSuffix,
		Code:   code(isa.Inst{Op: isa.RET}),
		Blocks: []int{0},
	}
	b, err := Link(LinkInput{
		Name:  "t",
		Entry: "f",
		Placements: []Placement{
			{Frag: hot, Addr: 0x400000, Section: obj.SecText},
			{Frag: cold, Addr: 0x600000, Section: obj.SecColdText},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := b.FuncByName("f")
	if f.ColdAddr != 0x600000 || f.ColdSize != isa.InstBytes {
		t.Errorf("cold range not attached: %+v", f)
	}
	// The cross-fragment JCC resolves into the cold section.
	code, _ := b.Bytes(0x400000, isa.InstBytes)
	in, _ := isa.Decode(code)
	if tgt := uint64(int64(0x400000) + isa.InstBytes + in.Imm); tgt != 0x600000 {
		t.Errorf("cross-fragment branch resolves to %#x", tgt)
	}
	// Only one function symbol (cold part is not its own function).
	if len(b.Funcs) != 1 {
		t.Errorf("%d function symbols, want 1", len(b.Funcs))
	}
}

func TestLinkMoreErrors(t *testing.T) {
	ret := &Fragment{Name: "g", Code: code(isa.Inst{Op: isa.RET}), Blocks: []int{0}}

	// Undefined entry symbol.
	if _, err := Link(LinkInput{
		Name:       "t",
		Entry:      "missing",
		Placements: []Placement{{Frag: ret, Addr: DefaultTextBase, Section: obj.SecText}},
	}); err == nil {
		t.Error("undefined entry not caught")
	}

	// V-table slot referencing an unknown function.
	if _, err := Link(LinkInput{
		Name:       "t",
		Placements: []Placement{{Frag: ret, Addr: DefaultTextBase, Section: obj.SecText}},
		VTables:    []VTableSpec{{Name: "vt", Off: 0, Slots: []string{"nope"}}},
		DataBase:   DefaultDataBase,
	}); err == nil {
		t.Error("undefined vtable slot not caught")
	}

	// Duplicate jump-table names across fragments.
	jtbl := code(isa.Inst{Op: isa.JTBL, Rs1: isa.R0})
	j1 := &Fragment{Name: "a", Code: jtbl, Relocs: []Reloc{{At: 0, Sym: "tbl"}},
		Blocks: []int{0}, JTs: []JTable{{Name: "tbl", Entries: []Ref{{Frag: "a", Index: 0}}}}}
	j2 := &Fragment{Name: "b", Code: jtbl, Relocs: []Reloc{{At: 0, Sym: "tbl"}},
		Blocks: []int{0}, JTs: []JTable{{Name: "tbl", Entries: []Ref{{Frag: "b", Index: 0}}}}}
	if _, err := Link(LinkInput{
		Name: "t",
		Placements: []Placement{
			{Frag: j1, Addr: DefaultTextBase, Section: obj.SecText},
			{Frag: j2, Addr: DefaultTextBase + 64, Section: obj.SecText},
		},
		ROBase: DefaultRODataBase,
	}); err == nil {
		t.Error("duplicate jump table not caught")
	}

	// Ref to out-of-range instruction.
	bad := &Fragment{Name: "h", Code: code(isa.Inst{Op: isa.JMP}),
		Relocs: []Reloc{{At: 0, Sym: "h", Index: 99}}, Blocks: []int{0}}
	if _, err := Link(LinkInput{
		Name:       "t",
		Placements: []Placement{{Frag: bad, Addr: DefaultTextBase, Section: obj.SecText}},
	}); err == nil {
		t.Error("out-of-range ref not caught")
	}
}

func TestFragmentValidateErrors(t *testing.T) {
	ret := code(isa.Inst{Op: isa.RET})
	cases := map[string]*Fragment{
		"block list not starting at 0": {Code: ret, Blocks: []int{1}},
		"partial instruction":          {Code: append(code(isa.Inst{Op: isa.RET}), 0), Blocks: []int{0}},
		"relocation on a RET":          {Code: ret, Relocs: []Reloc{{At: 0, Sym: "g"}}, Blocks: []int{0}},
		"relocation past the end":      {Code: code(isa.Inst{Op: isa.CALL}), Relocs: []Reloc{{At: 1, Sym: "g"}}, Blocks: []int{0}},
		"relocations out of order": {
			Code:   code(isa.Inst{Op: isa.CALL}, isa.Inst{Op: isa.CALL}),
			Relocs: []Reloc{{At: 1, Sym: "g"}, {At: 0, Sym: "g"}},
			Blocks: []int{0},
		},
	}
	for name, f := range cases {
		f.Name = "x"
		if err := f.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// code encodes instructions into a fragment's Code.
func code(insts ...isa.Inst) []byte { return isa.EncodeAll(insts) }
