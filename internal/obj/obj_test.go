package obj

import (
	"bytes"
	"sync"
	"testing"
)

// testBinary builds a small two-section binary with two functions, a
// v-table, and a jump table.
func testBinary() *Binary {
	text := make([]byte, 0x100)
	data := make([]byte, 0x40)
	b := &Binary{
		Name:  "t",
		Entry: 0x400000,
		Sections: []*Section{
			{Name: SecText, Addr: 0x400000, Data: text},
			{Name: SecData, Addr: 0x500000, Data: data},
		},
		Funcs: []*Func{
			{Name: "main", Addr: 0x400000, Size: 0x80,
				Blocks: []BlockSpan{{0, 0x30}, {0x30, 0x50}}},
			{Name: "helper", Addr: 0x400080, Size: 0x80,
				Blocks: []BlockSpan{{0, 0x80}}},
		},
		VTables: []*VTable{
			{Name: "vt", Addr: 0x500000, Slots: []uint64{0x400080}},
		},
		JumpTables: []*JumpTable{
			{Name: "jt", Addr: 0x500020, Targets: []uint64{0x400030, 0x400080}, Owner: "main"},
		},
	}
	b.SortFuncs()
	return b
}

func TestValidateOK(t *testing.T) {
	if err := testBinary().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	b := testBinary()
	b.Sections = append(b.Sections, &Section{Name: "x", Addr: 0x400010, Data: make([]byte, 8)})
	if err := b.Validate(); err == nil {
		t.Error("overlapping sections not caught")
	}

	b = testBinary()
	b.VTables[0].Slots[0] = 0x400084 // mid-function, not an entry
	if err := b.Validate(); err == nil {
		t.Error("vtable slot at non-entry not caught")
	}

	b = testBinary()
	b.Funcs[0].Blocks[1].Size = 1 // blocks no longer cover function
	if err := b.Validate(); err == nil {
		t.Error("block coverage mismatch not caught")
	}

	b = testBinary()
	b.Entry = 0x400004
	if err := b.Validate(); err == nil {
		t.Error("bad entry not caught")
	}

	b = testBinary()
	b.JumpTables[0].Targets[0] = 0x700000
	if err := b.Validate(); err == nil {
		t.Error("jump table target outside functions not caught")
	}
}

func TestLookup(t *testing.T) {
	b := testBinary()
	f, off, cold := b.Lookup(0x400084)
	if f == nil || f.Name != "helper" || off != 4 || cold {
		t.Errorf("Lookup(0x400084) = %v,%d,%v", f, off, cold)
	}
	f, off, _ = b.Lookup(0x400000)
	if f == nil || f.Name != "main" || off != 0 {
		t.Errorf("Lookup(entry) = %v,%d", f, off)
	}
	if f, _, _ := b.Lookup(0x399999); f != nil {
		t.Error("Lookup below text should fail")
	}
	if f, _, _ := b.Lookup(0x400100); f != nil {
		t.Error("Lookup past last function should fail")
	}
}

func TestLookupColdRange(t *testing.T) {
	b := testBinary()
	b.Funcs[0].ColdAddr = 0x600000
	b.Funcs[0].ColdSize = 0x20
	b.Sections = append(b.Sections, &Section{Name: SecColdText, Addr: 0x600000, Data: make([]byte, 0x20)})
	f, off, cold := b.Lookup(0x600010)
	if f == nil || f.Name != "main" || off != 0x10 || !cold {
		t.Errorf("cold Lookup = %v,%d,%v", f, off, cold)
	}
}

func TestFuncByNameAndAt(t *testing.T) {
	b := testBinary()
	if f := b.FuncByName("helper"); f == nil || f.Addr != 0x400080 {
		t.Error("FuncByName failed")
	}
	if f := b.FuncByName("nope"); f != nil {
		t.Error("FuncByName should return nil for unknown")
	}
	if f := b.FuncAt(0x400080); f == nil || f.Name != "helper" {
		t.Error("FuncAt failed")
	}
	if f := b.FuncAt(0x400081); f != nil {
		t.Error("FuncAt mid-function should return nil")
	}
}

// TestFuncByNameConcurrent: a binary is shared by every replica of a
// fleet, and replacement looks functions up by name from concurrent
// waves, so FuncByName must only read. Run under -race.
func TestFuncByNameConcurrent(t *testing.T) {
	b := testBinary()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if f := b.FuncByName("helper"); f == nil || f.Addr != 0x400080 {
				t.Error("FuncByName failed")
			}
		}()
	}
	wg.Wait()

	// A hand-built binary nobody indexed still resolves, by scanning.
	hand := &Binary{Funcs: []*Func{{Name: "f", Addr: 0x10}}}
	if f := hand.FuncByName("f"); f == nil || f.Addr != 0x10 {
		t.Error("FuncByName on an unindexed binary failed")
	}
}

// zeroFillBinary is testBinary with a .data of 4 initialized bytes
// followed by a 0x1000-byte zero-fill tail.
func zeroFillBinary() *Binary {
	b := testBinary()
	b.Sections[1].Data = []byte{1, 2, 3, 4}
	b.Sections[1].Zero = 0x1000
	return b
}

func TestZeroFillTail(t *testing.T) {
	b := zeroFillBinary()
	s := b.Section(SecData)
	if s.End() != 0x501004 {
		t.Fatalf("End = %#x, want %#x", s.End(), 0x501004)
	}
	if !s.Contains(0x500004) || !s.Contains(0x501003) || s.Contains(0x501004) {
		t.Error("Contains wrong at the Data/tail boundary or the end")
	}
	if b.SectionFor(0x500800) != s {
		t.Error("address in the tail not mapped to its section")
	}

	inData, err := b.Bytes(0x500001, 3)
	if err != nil || !bytes.Equal(inData, []byte{2, 3, 4}) {
		t.Fatalf("Bytes inside Data = %v, %v", inData, err)
	}
	across, err := b.Bytes(0x500002, 6)
	if err != nil || !bytes.Equal(across, []byte{3, 4, 0, 0, 0, 0}) {
		t.Fatalf("Bytes across the boundary = %v, %v", across, err)
	}
	across[0] = 0xFF
	if s.Data[2] != 3 {
		t.Error("a padded read aliases the section")
	}
	tail, err := b.Bytes(0x500ff0, 0x14)
	if err != nil || !bytes.Equal(tail, make([]byte, 0x14)) {
		t.Fatalf("Bytes in the tail = %v, %v", tail, err)
	}
	if _, err := b.Bytes(0x501000, 5); err == nil {
		t.Error("overrun past the zero-fill tail not caught")
	}

	if c := b.Clone().Section(SecData); c.Zero != 0x1000 || !bytes.Equal(c.Data, s.Data) {
		t.Errorf("Clone lost the tail: %d data bytes, Zero %d", len(c.Data), c.Zero)
	}
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Section(SecData); d.Zero != 0x1000 || !bytes.Equal(d.Data, s.Data) {
		t.Errorf("round trip lost the tail: %d data bytes, Zero %d", len(d.Data), d.Zero)
	}
}

func TestValidateCatchesZeroFillOverlap(t *testing.T) {
	b := zeroFillBinary()
	b.Sections = append(b.Sections, &Section{Name: "x", Addr: 0x500100, Data: make([]byte, 8)})
	if err := b.Validate(); err == nil {
		t.Error("section overlapping only the zero-fill tail not caught")
	}
	b.Sections[2].Addr = 0x501004
	if err := b.Validate(); err != nil {
		t.Errorf("section right after the tail rejected: %v", err)
	}
}

func TestBytes(t *testing.T) {
	b := testBinary()
	b.Sections[0].Data[5] = 0xAA
	got, err := b.Bytes(0x400004, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 0xAA {
		t.Error("Bytes returned wrong data")
	}
	if _, err := b.Bytes(0x4000FE, 4); err == nil {
		t.Error("overrun not caught")
	}
	if _, err := b.Bytes(0x900000, 1); err == nil {
		t.Error("unmapped address not caught")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := testBinary()
	b.Bolted = true
	b.AddrMap = map[uint64]uint64{0x400000: 0x20000000}
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != b.Name || got.Entry != b.Entry || !got.Bolted {
		t.Error("header fields lost")
	}
	if len(got.Funcs) != 2 || got.FuncByName("main") == nil {
		t.Error("functions lost")
	}
	if got.AddrMap[0x400000] != 0x20000000 {
		t.Error("AddrMap lost")
	}
	if err := got.Validate(); err != nil {
		t.Errorf("decoded binary invalid: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeBinary(bytes.NewReader([]byte("not a binary at all"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestClone(t *testing.T) {
	b := testBinary()
	c := b.Clone()
	c.Sections[0].Data[0] = 0xFF
	c.Funcs[0].Size = 1
	c.VTables[0].Slots[0] = 0
	if b.Sections[0].Data[0] == 0xFF || b.Funcs[0].Size == 1 || b.VTables[0].Slots[0] == 0 {
		t.Error("Clone shares storage with original")
	}
}

// TestImage: a binary's image is built once, from its initialized bytes
// only (the zero-fill tail stays unmapped), and a Clone builds its own.
func TestImage(t *testing.T) {
	b := zeroFillBinary()
	img := b.Image()
	if b.Image() != img {
		t.Error("a second Image call built a second image")
	}
	as := img.Map()
	if got := as.LoadByte(0x500001); got != 2 {
		t.Errorf("image reads %d at .data+1, want 2", got)
	}
	if as.Resident(0x501000) {
		t.Error("the page holding only zero-fill tail is mapped")
	}
	c := b.Clone()
	c.Section(SecData).Data[1] = 0xEE
	if c.Image() == img || c.Image().Map().LoadByte(0x500001) != 0xEE {
		t.Error("a Clone shares its source's image")
	}
	if got := img.Map().LoadByte(0x500001); got != 2 {
		t.Errorf("editing a Clone changed the source's image: %d", got)
	}
}

func TestStats(t *testing.T) {
	b := testBinary()
	st := b.Stats()
	if st.Funcs != 2 || st.VTables != 1 || st.TextBytes != 0x100 || st.JumpTables != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestOrgRanges(t *testing.T) {
	b := testBinary()
	b.OrgRanges = []OrgRange{
		{Lo: 0x700000, Hi: 0x700100, Name: "main", Entry: 0x700000},
	}
	r, ok := b.OrgLookup(0x700080)
	if !ok || r.Name != "main" || r.Entry != 0x700000 {
		t.Errorf("OrgLookup = %+v, %v", r, ok)
	}
	if _, ok := b.OrgLookup(0x700100); ok {
		t.Error("end-exclusive boundary resolved")
	}
	if _, ok := b.OrgLookup(0x123); ok {
		t.Error("miss resolved")
	}
	// Survives serialization and cloning.
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.OrgRanges) != 1 || got.OrgRanges[0].Name != "main" {
		t.Error("OrgRanges lost in serialization")
	}
	c := b.Clone()
	c.OrgRanges[0].Name = "x"
	if b.OrgRanges[0].Name != "main" {
		t.Error("Clone shares OrgRanges storage")
	}
}
