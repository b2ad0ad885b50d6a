package mem

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestByteAndWord(t *testing.T) {
	as := NewAddressSpace()
	if got := as.LoadByte(0x1234); got != 0 {
		t.Errorf("untouched memory reads %d, want 0", got)
	}
	as.StoreByte(0x1234, 0xAB)
	if got := as.LoadByte(0x1234); got != 0xAB {
		t.Errorf("LoadByte = %#x, want 0xAB", got)
	}
	as.WriteWord(0x2000, 0xDEADBEEFCAFEF00D)
	if got := as.ReadWord(0x2000); got != 0xDEADBEEFCAFEF00D {
		t.Errorf("ReadWord = %#x", got)
	}
}

func TestWordAcrossPageBoundary(t *testing.T) {
	as := NewAddressSpace()
	addr := uint64(PageSize - 3) // straddles page 0 and 1
	as.WriteWord(addr, 0x1122334455667788)
	if got := as.ReadWord(addr); got != 0x1122334455667788 {
		t.Errorf("straddling ReadWord = %#x", got)
	}
	// Bytes land on both pages.
	if as.LoadByte(PageSize-3) != 0x88 || as.LoadByte(PageSize) != 0x55 {
		t.Error("straddling word bytes misplaced")
	}
}

func TestBulkReadWrite(t *testing.T) {
	as := NewAddressSpace()
	src := make([]byte, 3*PageSize+17)
	for i := range src {
		src[i] = byte(i * 7)
	}
	base := uint64(0x400000 + 100)
	as.Write(base, src)
	dst := make([]byte, len(src))
	as.Read(base, dst)
	if !bytes.Equal(src, dst) {
		t.Error("bulk round trip mismatch")
	}
}

func TestReadWriteQuick(t *testing.T) {
	as := NewAddressSpace()
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		base := 0x10000 + uint64(off)
		as.Write(base, data)
		out := make([]byte, len(data))
		as.Read(base, out)
		return bytes.Equal(data, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRSSAccounting(t *testing.T) {
	as := NewAddressSpace()
	if as.ResidentBytes() != 0 {
		t.Fatal("fresh address space should have zero RSS")
	}
	as.StoreByte(0, 1)
	as.StoreByte(PageSize*10, 1)
	if got := as.ResidentBytes(); got != 2*PageSize {
		t.Errorf("RSS = %d, want %d", got, 2*PageSize)
	}
	// Reads of unmapped memory must not allocate.
	_ = as.LoadByte(PageSize * 100)
	_ = as.ReadWord(PageSize * 200)
	if got := as.ResidentBytes(); got != 2*PageSize {
		t.Errorf("read allocated pages: RSS = %d", got)
	}
	as.Unmap(0, PageSize)
	if got := as.ResidentBytes(); got != PageSize {
		t.Errorf("after Unmap RSS = %d, want %d", got, PageSize)
	}
	if got := as.MaxResidentBytes(); got != 2*PageSize {
		t.Errorf("max RSS = %d, want %d", got, 2*PageSize)
	}
}

func TestUnmapZeroesAndFrees(t *testing.T) {
	as := NewAddressSpace()
	data := make([]byte, 4*PageSize)
	for i := range data {
		data[i] = 0xFF
	}
	base := uint64(PageSize) // page-aligned
	as.Write(base, data)
	rss := as.ResidentBytes()
	// Unmap an unaligned interior range: [base+100, base+2*PageSize+200)
	as.Unmap(base+100, 2*PageSize+100)
	// Fully covered page (page 2) freed.
	if as.ResidentBytes() >= rss {
		t.Error("Unmap freed no pages")
	}
	// Partial head/tail zeroed, surrounding bytes intact.
	if as.LoadByte(base+99) != 0xFF {
		t.Error("byte before unmapped range was clobbered")
	}
	if as.LoadByte(base+100) != 0 {
		t.Error("head of unmapped range not zeroed")
	}
	if as.LoadByte(base+2*PageSize+199) != 0 {
		t.Error("tail of unmapped range not zeroed")
	}
	if as.LoadByte(base+2*PageSize+200) != 0xFF {
		t.Error("byte after unmapped range was clobbered")
	}
}

func TestWriteWatch(t *testing.T) {
	as := NewAddressSpace()
	var gotAddr uint64
	var gotN int
	var calls int
	as.SetWriteWatch(func(addr uint64, n int) { gotAddr, gotN = addr, n; calls++ })
	as.StoreByte(0x100, 1)
	if gotAddr != 0x100 || gotN != 1 {
		t.Errorf("watch saw (%#x,%d)", gotAddr, gotN)
	}
	as.WriteWord(0x200, 5)
	if gotAddr != 0x200 || gotN != 8 {
		t.Errorf("watch saw (%#x,%d)", gotAddr, gotN)
	}
	as.Write(0x300, make([]byte, 100))
	if gotAddr != 0x300 || gotN != 100 {
		t.Errorf("watch saw (%#x,%d)", gotAddr, gotN)
	}
	if calls != 3 {
		t.Errorf("watch called %d times, want 3", calls)
	}
	// Reads must not fire the watch.
	_ = as.ReadWord(0x200)
	if calls != 3 {
		t.Error("read fired write watch")
	}
}

func TestMappedRanges(t *testing.T) {
	as := NewAddressSpace()
	as.StoreByte(0, 1)
	as.StoreByte(PageSize, 1)   // adjacent: coalesces with page 0
	as.StoreByte(PageSize*5, 1) // separate
	ranges := as.MappedRanges()
	want := [][2]uint64{{0, 2 * PageSize}, {PageSize * 5, PageSize * 6}}
	if len(ranges) != len(want) {
		t.Fatalf("got %v", ranges)
	}
	for i := range want {
		if ranges[i] != want[i] {
			t.Errorf("range %d = %v, want %v", i, ranges[i], want[i])
		}
	}
}

func TestCodeSlice(t *testing.T) {
	as := NewAddressSpace()
	as.WriteWord(0x400000, 0x0102030405060708)
	s := as.CodeSlice(0x400000)
	if len(s) != PageSize {
		t.Errorf("CodeSlice at page start has len %d", len(s))
	}
	if s[0] != 0x08 {
		t.Errorf("CodeSlice[0] = %#x", s[0])
	}
	s2 := as.CodeSlice(0x400000 + PageSize - 16)
	if len(s2) != 16 {
		t.Errorf("CodeSlice near page end has len %d", len(s2))
	}
}

// TestCodeSliceUnmapped pins that fetching from a page that was never
// mapped, or was released, reads zeros to the end of the page and
// allocates nothing: a stray jump must not grow RSS.
func TestCodeSliceUnmapped(t *testing.T) {
	as := NewAddressSpace()
	as.WriteWord(0x400000, 0x0102030405060708)
	as.Unmap(0x400000, PageSize)
	for _, addr := range []uint64{0x400000, 0x400ff0, 0x6000_0000_0000 + 0x230} {
		s := as.CodeSlice(addr)
		if want := PageSize - int(addr%PageSize); len(s) != want {
			t.Errorf("CodeSlice(%#x) has len %d, want %d", addr, len(s), want)
		}
		for i, b := range s {
			if b != 0 {
				t.Fatalf("CodeSlice(%#x)[%d] = %#x, want 0", addr, i, b)
			}
		}
		if as.Resident(addr) {
			t.Errorf("CodeSlice(%#x) made its page resident", addr)
		}
	}
	if got := as.ResidentBytes(); got != 0 {
		t.Errorf("ResidentBytes = %d after fetching unmapped pages, want 0", got)
	}
	if got := as.MaxResidentBytes(); got != PageSize {
		t.Errorf("MaxResidentBytes = %d, want %d (the one page written)", got, PageSize)
	}
}

func BenchmarkReadWord(b *testing.B) {
	as := NewAddressSpace()
	as.Write(0x400000, make([]byte, 1<<20))
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += as.ReadWord(0x400000 + uint64(i*8)&(1<<20-1))
	}
	_ = sink
}

func TestUnmapPageAlignedSubPage(t *testing.T) {
	// Regression: a page-aligned range smaller than a page must be zeroed
	// (neither branch of the old head/tail logic covered this).
	as := NewAddressSpace()
	as.Write(0x20000000, []byte{1, 2, 3, 4})
	as.Unmap(0x20000000, 0x110)
	if as.LoadByte(0x20000000) != 0 || as.LoadByte(0x20000003) != 0 {
		t.Error("page-aligned sub-page Unmap did not zero the range")
	}
}

func TestUnmapHugeSparseRange(t *testing.T) {
	// Unmapping a multi-GiB range must walk the page table, not the range.
	as := NewAddressSpace()
	as.StoreByte(0x1000_0000_0000, 7)
	as.StoreByte(0x1000_4000_0000, 8)
	as.StoreByte(0x2000_0000_0000, 9)            // outside
	as.Unmap(0x1000_0000_0000, 0x0010_0000_0000) // 64 GiB
	if as.LoadByte(0x1000_0000_0000) != 0 || as.LoadByte(0x1000_4000_0000) != 0 {
		t.Error("sparse range not unmapped")
	}
	if as.LoadByte(0x2000_0000_0000) != 9 {
		t.Error("page outside range was dropped")
	}
	if as.ResidentBytes() != PageSize {
		t.Errorf("resident = %d, want one page", as.ResidentBytes())
	}
}

func TestUnmapStraddlingPartialPages(t *testing.T) {
	as := NewAddressSpace()
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = 0xAB
	}
	as.Write(PageSize, data)
	// Unaligned head in page 1, full page 2, unaligned tail in page 3.
	as.Unmap(PageSize+100, 2*PageSize)
	if as.LoadByte(PageSize+99) != 0xAB || as.LoadByte(PageSize+100) != 0 {
		t.Error("head handling wrong")
	}
	if as.LoadByte(2*PageSize+5) != 0 {
		t.Error("full middle page not freed")
	}
	if as.LoadByte(3*PageSize+99) != 0 || as.LoadByte(3*PageSize+100) != 0xAB {
		t.Error("tail handling wrong")
	}
}

// cowBase is where the copy-on-write tests' image starts: four pages of
// distinct bytes, with one untouched page on either side.
const cowBase = 0x400000

func cowImage() (*Image, []byte) {
	src := make([]byte, 4*PageSize)
	for i := range src {
		src[i] = byte(i*13 + 1)
	}
	as := NewAddressSpace()
	as.Write(cowBase, src)
	return as.Freeze(), src
}

// cowWindow reads the image's pages and one page either side.
func cowWindow(as *AddressSpace) []byte {
	b := make([]byte, 6*PageSize)
	as.Read(cowBase-PageSize, b)
	return b
}

// TestCopyOnWriteIsolation maps one image into two address spaces and
// writes through one of them in every way the program writes memory.
// After each write, the other address space and the image still hold the
// original bytes, and the writer reads, counts and maps exactly what a
// private load (every page copied up front) given the same write does.
func TestCopyOnWriteIsolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		// fresh counts the untouched pages outside the image the op
		// writes; -1 marks an Unmap, which releases pages.
		fresh int
		op    func(as *AddressSpace)
	}{
		{"WriteWord", 0, func(as *AddressSpace) { as.WriteWord(cowBase+8, 0x1122334455667788) }},
		{"WriteWord straddling", 0, func(as *AddressSpace) { as.WriteWord(cowBase+PageSize-4, 0x1122334455667788) }},
		{"StoreByte", 0, func(as *AddressSpace) { as.StoreByte(cowBase+PageSize+5, 0xEE) }},
		{"Write straddling", 0, func(as *AddressSpace) { as.Write(cowBase+2*PageSize-3, []byte{1, 2, 3, 4, 5, 6}) }},
		{"Write past the image", 1, func(as *AddressSpace) { as.Write(cowBase+4*PageSize-2, []byte{7, 7, 7, 7}) }},
		{"Unmap partial head and tail", -1, func(as *AddressSpace) { as.Unmap(cowBase+100, 2*PageSize) }},
		{"Unmap within one page", -1, func(as *AddressSpace) { as.Unmap(cowBase+3*PageSize+8, 16) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img, src := cowImage()
			a, b := img.Map(), img.Map()
			private := NewAddressSpace()
			private.Write(cowBase, src)
			want := cowWindow(b)
			requireSameResidency(t, "before the write", a, private)

			// Read first, so the one-entry cache holds the shared page
			// the write must not go through.
			for off := uint64(0); off < 4*PageSize; off += PageSize {
				a.ReadWord(cowBase + off + 8)
			}
			before := a.ResidentBytes()
			tc.op(a)
			tc.op(private)

			if got := cowWindow(a); !bytes.Equal(got, cowWindow(private)) {
				t.Error("the writer reads differently from a private load given the same write")
			}
			requireSameResidency(t, "after the write", a, private)
			if grown := int(a.ResidentBytes()-before) / PageSize; tc.fresh >= 0 && grown != tc.fresh {
				t.Errorf("the write grew RSS by %d pages, want %d: a first write to a shared page counts nothing", grown, tc.fresh)
			}
			if !bytes.Equal(cowWindow(b), want) {
				t.Error("the write showed through in the other address space")
			}
			if !bytes.Equal(cowWindow(img.Map()), want) {
				t.Error("the write changed the image")
			}
		})
	}
}

func requireSameResidency(t *testing.T, when string, got, want *AddressSpace) {
	t.Helper()
	if got.ResidentBytes() != want.ResidentBytes() || got.MaxResidentBytes() != want.MaxResidentBytes() {
		t.Errorf("%s: resident %d max %d, private load %d max %d", when,
			got.ResidentBytes(), got.MaxResidentBytes(), want.ResidentBytes(), want.MaxResidentBytes())
	}
	if g, w := fmt.Sprint(got.MappedRanges()), fmt.Sprint(want.MappedRanges()); g != w {
		t.Errorf("%s: MappedRanges %s, private load %s", when, g, w)
	}
	for addr := uint64(cowBase - PageSize); addr < cowBase+5*PageSize; addr += PageSize {
		if got.Resident(addr) != want.Resident(addr) {
			t.Errorf("%s: Resident(%#x) = %v, private load %v", when, addr, got.Resident(addr), want.Resident(addr))
		}
	}
}

// TestMapSharesPages pins what makes the image worth having: every
// address space mapped from it reads the image's own pages until it
// writes one.
func TestMapSharesPages(t *testing.T) {
	img, _ := cowImage()
	a, b := img.Map(), img.Map()
	if &a.CodeSlice(cowBase)[0] != &b.CodeSlice(cowBase)[0] {
		t.Fatal("two maps of one image read different pages")
	}
	a.StoreByte(cowBase, 0)
	if &a.CodeSlice(cowBase)[0] == &b.CodeSlice(cowBase)[0] {
		t.Fatal("a written page is still shared")
	}
	if &a.CodeSlice(cowBase + PageSize)[0] != &b.CodeSlice(cowBase + PageSize)[0] {
		t.Error("a write copied a page it did not touch")
	}
}
