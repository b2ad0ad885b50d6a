// Package mem implements the sparse, paged address space of a simulated
// process.
//
// Pages are 4 KiB and allocated lazily on first touch, which lets the
// simulator account for resident set size (max RSS) the way Table I of the
// OCOLOS paper does: injecting an optimized code region C1 grows RSS by the
// size of the new code, and garbage-collecting a dead code version Ci
// shrinks it back.
//
// A loaded binary's pages come from an Image, which every address space
// mapping it shares until it writes a page, the way Linux maps a file's
// text: the first store to a shared page (an OCOLOS ptrace poke, say)
// copies it. RSS counts a shared page in every address space that maps
// it, as Table I's per-process max RSS does.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageSize is the size of a memory page in bytes.
const PageSize = 4096

const pageShift = 12

// AddressSpace is a sparse 64-bit byte-addressable memory. Pages mapped
// from an Image are shared, read-only, until the first write to them
// gives this address space a private copy; they count as resident from
// the moment they are mapped.
//
// It is not safe for concurrent use; the process scheduler serializes
// accesses (the simulation models multiple cores but steps them from one
// goroutine).
type AddressSpace struct {
	pages map[uint64]entry

	// lastIdx/lastData cache the most recently touched page to
	// short-circuit the map lookup on the common sequential access
	// pattern; lastShared is its entry's shared bit.
	lastIdx    uint64
	lastData   *[PageSize]byte
	lastShared bool

	resident    int // pages currently allocated
	maxResident int // high-water mark

	// writeWatch, if set, is invoked after every store with the written
	// range. The process layer uses it to invalidate its decoded traces
	// when code is overwritten (self-modifying code / OCOLOS patching).
	writeWatch func(addr uint64, n int)
}

// entry is one page-table slot. A shared page belongs to an Image and is
// never written: writablePage replaces it with a private copy first.
type entry struct {
	p      *[PageSize]byte
	shared bool
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make(map[uint64]entry)}
}

// Image is a read-only set of pages that any number of address spaces
// map copy-on-write: the page cache of a binary's file.
type Image struct{ pages map[uint64]*[PageSize]byte }

// Freeze returns the pages of as as an Image. as must not be used
// afterwards.
func (as *AddressSpace) Freeze() *Image {
	img := &Image{pages: make(map[uint64]*[PageSize]byte, len(as.pages))}
	for idx, e := range as.pages {
		img.pages[idx] = e.p
	}
	return img
}

// Map returns a new address space holding every page of img, shared.
// It only reads img, so concurrent Maps of one Image are safe.
func (img *Image) Map() *AddressSpace {
	n := len(img.pages)
	as := &AddressSpace{pages: make(map[uint64]entry, n), resident: n, maxResident: n}
	for idx, p := range img.pages {
		as.pages[idx] = entry{p: p, shared: true}
	}
	return as
}

// SetWriteWatch registers fn to be called after every store. A nil fn
// removes the watch.
func (as *AddressSpace) SetWriteWatch(fn func(addr uint64, n int)) {
	as.writeWatch = fn
}

// page returns the page for writing. Its hit path stays small enough to
// inline; everything else is writablePage's.
func (as *AddressSpace) page(idx uint64) *[PageSize]byte {
	if idx == as.lastIdx && as.lastData != nil && !as.lastShared {
		return as.lastData
	}
	return as.writablePage(idx)
}

// writablePage allocates an untouched page and replaces a shared one with
// a private copy. Either way the page stays resident exactly once. It is
// kept out of line so that page inlines.
//
//go:noinline
func (as *AddressSpace) writablePage(idx uint64) *[PageSize]byte {
	e, ok := as.pages[idx]
	if !ok || e.shared {
		p := new([PageSize]byte)
		if ok {
			*p = *e.p
		} else {
			as.resident++
			as.maxResident = max(as.maxResident, as.resident)
		}
		e = entry{p: p}
		as.pages[idx] = e
	}
	as.lastIdx, as.lastData, as.lastShared = idx, e.p, false
	return e.p
}

// peekPage returns the page for reading without allocating; nil if
// unmapped.
func (as *AddressSpace) peekPage(idx uint64) *[PageSize]byte {
	if idx == as.lastIdx && as.lastData != nil {
		return as.lastData
	}
	e := as.pages[idx]
	if e.p != nil {
		as.lastIdx, as.lastData, as.lastShared = idx, e.p, e.shared
	}
	return e.p
}

// LoadByte returns the byte at addr (0 for untouched memory, without
// allocating a page).
func (as *AddressSpace) LoadByte(addr uint64) byte {
	p := as.peekPage(addr >> pageShift)
	if p == nil {
		return 0
	}
	return p[addr&(PageSize-1)]
}

// StoreByte stores one byte at addr.
func (as *AddressSpace) StoreByte(addr uint64, v byte) {
	as.page(addr >> pageShift)[addr&(PageSize-1)] = v
	if as.writeWatch != nil {
		as.writeWatch(addr, 1)
	}
}

// ReadWord reads a little-endian 8-byte word at addr. The fast path handles
// words that do not straddle a page boundary.
func (as *AddressSpace) ReadWord(addr uint64) uint64 {
	off := addr & (PageSize - 1)
	if off <= PageSize-8 {
		p := as.peekPage(addr >> pageShift)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[off:])
	}
	var buf [8]byte
	as.Read(addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteWord stores a little-endian 8-byte word at addr.
func (as *AddressSpace) WriteWord(addr uint64, v uint64) {
	off := addr & (PageSize - 1)
	if off <= PageSize-8 {
		binary.LittleEndian.PutUint64(as.page(addr >> pageShift)[off:], v)
		if as.writeWatch != nil {
			as.writeWatch(addr, 8)
		}
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	as.Write(addr, buf[:])
}

// Read copies len(dst) bytes starting at addr into dst.
func (as *AddressSpace) Read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - off
		if uint64(len(dst)) < n {
			n = uint64(len(dst))
		}
		p := as.peekPage(addr >> pageShift)
		if p == nil {
			for i := uint64(0); i < n; i++ {
				dst[i] = 0
			}
		} else {
			copy(dst[:n], p[off:off+n])
		}
		dst = dst[n:]
		addr += n
	}
}

// Write copies src into memory starting at addr.
func (as *AddressSpace) Write(addr uint64, src []byte) {
	start, total := addr, len(src)
	for len(src) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - off
		if uint64(len(src)) < n {
			n = uint64(len(src))
		}
		copy(as.page(addr >> pageShift)[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
	if as.writeWatch != nil && total > 0 {
		as.writeWatch(start, total)
	}
}

// zeroPage is what CodeSlice shows for an unmapped page. It is shared by
// every address space and never written.
var zeroPage [PageSize]byte

// CodeSlice returns a direct view of the page bytes containing addr,
// limited to the remainder of that page. Callers (the instruction fetch
// path) use it to decode without copying, and must not write through it.
// An unmapped page reads as zeros without being allocated, so a jump into
// released code faults on decode without bringing the page back into RSS.
// The slice is at least InstBytes long when addr is 16-byte aligned.
func (as *AddressSpace) CodeSlice(addr uint64) []byte {
	p := as.peekPage(addr >> pageShift)
	if p == nil {
		p = &zeroPage
	}
	return p[addr&(PageSize-1):]
}

// Unmap releases all pages fully contained in [addr, addr+size) and zeroes
// the partially covered head/tail so reads return 0. It is used by the
// continuous-optimization garbage collector to reclaim dead code versions
// (§IV-C). Large sparse ranges are handled by scanning the page table
// rather than the range.
func (as *AddressSpace) Unmap(addr, size uint64) {
	if size == 0 {
		return
	}
	end := addr + size
	firstFull := (addr + PageSize - 1) >> pageShift
	lastFull := end >> pageShift // exclusive

	if lastFull > firstFull {
		if lastFull-firstFull > uint64(len(as.pages)) {
			// Sparse fast path: walk the page table instead of the range.
			for idx := range as.pages {
				if idx >= firstFull && idx < lastFull {
					delete(as.pages, idx)
					as.resident--
				}
			}
		} else {
			for idx := firstFull; idx < lastFull; idx++ {
				if _, ok := as.pages[idx]; ok {
					delete(as.pages, idx)
					as.resident--
				}
			}
		}
	}

	// Zero the partially covered head and tail.
	zero := func(lo, hi uint64) {
		for lo < hi {
			pageEnd := (lo &^ (PageSize - 1)) + PageSize
			stop := hi
			if pageEnd < stop {
				stop = pageEnd
			}
			if _, ok := as.pages[lo>>pageShift]; ok {
				p := as.writablePage(lo >> pageShift)
				for i := lo; i < stop; i++ {
					p[i&(PageSize-1)] = 0
				}
			}
			lo = stop
		}
	}
	headEnd := firstFull << pageShift
	if headEnd > end {
		headEnd = end
	}
	if addr < headEnd {
		zero(addr, headEnd)
	}
	tailStart := lastFull << pageShift
	if tailStart < addr {
		tailStart = addr
	}
	if tailStart < end {
		zero(tailStart, end)
	}

	as.lastData = nil
	if as.writeWatch != nil {
		as.writeWatch(addr, int(size))
	}
}

// Resident reports whether the page containing addr is allocated. The
// debugger layer uses it to journal exactly which pages a write brought
// into existence, so a transactional rollback can release them again.
func (as *AddressSpace) Resident(addr uint64) bool {
	return as.peekPage(addr>>pageShift) != nil
}

// ResidentBytes returns the current resident set size in bytes.
func (as *AddressSpace) ResidentBytes() uint64 { return uint64(as.resident) * PageSize }

// MaxResidentBytes returns the peak resident set size in bytes (max RSS).
func (as *AddressSpace) MaxResidentBytes() uint64 { return uint64(as.maxResident) * PageSize }

// MappedRanges returns the mapped regions as sorted [start, end) pairs,
// coalescing adjacent pages. Mainly for debugging and tests.
func (as *AddressSpace) MappedRanges() [][2]uint64 {
	idxs := make([]uint64, 0, len(as.pages))
	for idx := range as.pages {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	var out [][2]uint64
	for _, idx := range idxs {
		start := idx << pageShift
		if n := len(out); n > 0 && out[n-1][1] == start {
			out[n-1][1] = start + PageSize
		} else {
			out = append(out, [2]uint64{start, start + PageSize})
		}
	}
	return out
}

// String summarizes the address space.
func (as *AddressSpace) String() string {
	return fmt.Sprintf("mem: %d pages resident (%.1f MiB), max %.1f MiB",
		as.resident,
		float64(as.ResidentBytes())/(1<<20),
		float64(as.MaxResidentBytes())/(1<<20))
}
