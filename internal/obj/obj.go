// Package obj defines the binary ("executable") format produced by the
// assembler/linker and consumed by the loader, the BOLT-style optimizer,
// and the OCOLOS controller.
//
// A Binary is a bag of sections (code and data bytes at fixed virtual
// addresses) plus the symbol-level metadata real tools get from ELF symbol
// tables: function ranges, basic-block spans, v-table locations, and
// jump-table locations. BOLT-style tools re-discover control flow by
// disassembling the section bytes; the metadata only anchors function
// boundaries, exactly as symbol tables do for the real BOLT.
package obj

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/mem"
)

// Canonical section names.
const (
	SecText     = ".text"          // code, as laid out by the compiler
	SecOrgText  = ".bolt.org.text" // original code, renamed by BOLT (§II-D)
	SecColdText = ".text.cold"     // exiled cold blocks of hot functions
	SecROData   = ".rodata"        // jump tables and constants
	SecData     = ".data"          // globals and v-tables
)

// Section is a contiguous address range at a fixed address: Data holds
// its initialized bytes and Zero counts the zero bytes that follow them,
// the way ELF separates a segment's file size from its memory size
// (.bss). Code sections and .rodata are fully materialized (Zero is 0);
// the linker moves the trailing zeros of .data into Zero, so a large
// zero-initialized global costs no bytes in the image.
type Section struct {
	Name string
	Addr uint64
	Data []byte
	Zero uint64 // zero-fill bytes after Data
}

// End returns the first address past the section, zero-fill included.
func (s *Section) End() uint64 { return s.Addr + uint64(len(s.Data)) + s.Zero }

// Contains reports whether addr falls inside the section.
func (s *Section) Contains(addr uint64) bool { return addr >= s.Addr && addr < s.End() }

// BlockSpan records one basic block of a function as a byte range relative
// to the function start.
type BlockSpan struct {
	Off  uint32 // byte offset from function entry
	Size uint32 // bytes
}

// Func is a function symbol.
type Func struct {
	Name string
	Addr uint64 // entry address
	Size uint64 // bytes of the contiguous (hot) part

	// Blocks are the basic-block spans of the contiguous part, in layout
	// order. The first span is always the entry block (offset 0).
	Blocks []BlockSpan

	// ColdAddr/ColdSize describe the exiled cold part after hot/cold
	// splitting (zero if the function was not split).
	ColdAddr uint64
	ColdSize uint64

	// Optimized marks functions whose layout was chosen by an optimizer
	// (BOLT reordered its blocks and/or moved it). Informational.
	Optimized bool
}

// OrgRange records an address range a function occupied before it was
// moved by an optimizer.
type OrgRange struct {
	Lo, Hi uint64
	Name   string
	Entry  uint64 // the old entry address within [Lo,Hi)
}

// OrgLookup resolves addr against the OrgRanges table, returning the
// function name and old entry.
func (b *Binary) OrgLookup(addr uint64) (*OrgRange, bool) {
	for i := range b.OrgRanges {
		r := &b.OrgRanges[i]
		if addr >= r.Lo && addr < r.Hi {
			return r, true
		}
	}
	return nil, false
}

// OSRKind classifies why a point inside a function is safe for on-stack
// replacement. All kinds share the property that the live register/spill
// state at the point is identical across layouts, so transferring a frame
// needs no state reconstruction ("OSR à la carte").
type OSRKind uint8

const (
	// OSREntry is the function entry (offset 0 in both layouts).
	OSREntry OSRKind = iota
	// OSRLoopHeader is the target of a backward edge: a loop header a
	// parked thread re-reaches every iteration.
	OSRLoopHeader
	// OSRCallSite is a CALL instruction (a thread stopped exactly on it
	// has not yet pushed the callee frame).
	OSRCallSite
	// OSRRetPoint is the instruction after a CALL: the return address a
	// suspended caller frame holds while the callee runs.
	OSRRetPoint
)

// String names the kind for journals and test failures.
func (k OSRKind) String() string {
	switch k {
	case OSREntry:
		return "entry"
	case OSRLoopHeader:
		return "loop_header"
	case OSRCallSite:
		return "call"
	case OSRRetPoint:
		return "ret_point"
	}
	return fmt.Sprintf("OSRKind(%d)", uint8(k))
}

// OSRPoint maps one mappable program point of a function from the input
// layout to the optimized layout. Offsets are unified byte offsets from
// the function entry: offsets below the hot size address the hot range,
// larger offsets continue into the cold range (hotSize + coldOffset),
// mirroring bolt's unified CFG addressing.
type OSRPoint struct {
	OldOff uint64
	NewOff uint64
	Kind   OSRKind
}

// OSRPointAt returns the OSR point for the given input-layout entry
// address and unified old offset, if one exists. Points are sorted by
// OldOff, so a binary search suffices.
func (b *Binary) OSRPointAt(entry, oldOff uint64) (OSRPoint, bool) {
	pts := b.OSRMap[entry]
	i := sort.Search(len(pts), func(i int) bool { return pts[i].OldOff >= oldOff })
	if i < len(pts) && pts[i].OldOff == oldOff {
		return pts[i], true
	}
	return OSRPoint{}, false
}

// VTable is a virtual-method table in the data section: Slots entries of
// 8 bytes each, holding absolute function entry addresses.
type VTable struct {
	Name  string
	Addr  uint64
	Slots []uint64 // link-time target addresses (loader writes these to memory)
}

// JumpTable is a table of absolute code addresses in .rodata used by a
// JTBL instruction.
type JumpTable struct {
	Name    string
	Addr    uint64
	Targets []uint64 // absolute code addresses
	// Owner is the name of the function whose JTBL references this table.
	Owner string
}

// Binary is a complete executable image.
type Binary struct {
	Name  string
	Entry uint64 // address of the entry function

	Sections   []*Section
	Funcs      []*Func // sorted by Addr
	VTables    []*VTable
	JumpTables []*JumpTable

	// Bolted marks a binary produced by the BOLT-style optimizer. Like the
	// real BOLT (§IV-C), the optimizer refuses to process a Bolted binary
	// unless explicitly told to.
	Bolted bool

	// NoJumpTables records that the binary was compiled with the
	// -fno-jump-tables analog, a requirement for OCOLOS code replacement
	// (§IV-D).
	NoJumpTables bool

	// AddrMap, present on optimized binaries, maps original function entry
	// addresses to optimized entry addresses. OCOLOS uses it to patch
	// v-tables and calls; it is also the translation table behind the
	// wrapFuncPtrCreation invariant.
	AddrMap map[uint64]uint64

	// OrgRanges symbolizes the *previous* homes of moved functions — the
	// BAT (BOLT Address Translation) analog. Profilers use it to attribute
	// samples taken in old code (which keeps executing in the live process
	// under OCOLOS) to the right function, at function granularity.
	OrgRanges []OrgRange

	// OSRMap, present on optimized binaries, lists the mappable OSR
	// points of each reordered function, keyed by the function's entry
	// address in the *input* binary and sorted by OldOff. A frame parked
	// mid-function in the old layout can be migrated in place iff its
	// unified offset appears here; anything else falls back to copy-based
	// migration.
	OSRMap map[uint64][]OSRPoint

	byName map[string]*Func // built by SortFuncs

	imageOnce sync.Once
	image     *mem.Image // built by Image; Clone does not copy it
}

// Image returns the binary's sections as a loader maps them, built on the
// first call: every process loaded from b shares these pages until it
// writes one (proc.Load). The sections must not change afterwards.
func (b *Binary) Image() *mem.Image {
	b.imageOnce.Do(func() {
		as := mem.NewAddressSpace()
		for _, s := range b.Sections {
			writeSparse(as, s.Addr, s.Data)
		}
		b.image = as.Freeze()
	})
	return b.image
}

// writeSparse copies a section's initialized bytes into memory, skipping
// page-sized all-zero runs so they do not inflate RSS before the program
// touches them. A section's zero-fill tail (Section.Zero) is not
// passed here at all: huge zero-initialized data (document stores, scan
// arrays) is never written, and its pages read as zero until first
// touched — the way a real loader maps BSS. The skip still serves images
// that spell their zeros out, so both forms load to the same resident
// pages.
func writeSparse(m *mem.AddressSpace, addr uint64, data []byte) {
	const chunk = mem.PageSize
	for off := 0; off < len(data); {
		n := chunk - int(addr+uint64(off))%chunk
		if off+n > len(data) {
			n = len(data) - off
		}
		piece := data[off : off+n]
		if !allZero(piece) {
			m.Write(addr+uint64(off), piece)
		}
		off += n
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Section returns the section with the given name, or nil.
func (b *Binary) Section(name string) *Section {
	for _, s := range b.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// SectionFor returns the section containing addr, or nil.
func (b *Binary) SectionFor(addr uint64) *Section {
	for _, s := range b.Sections {
		if s.Contains(addr) {
			return s
		}
	}
	return nil
}

// Bytes returns n bytes at addr from whichever section contains the range,
// or an error if the range is not fully inside one section. A range inside
// Data aliases the section; one that reaches into the zero-fill tail is
// served as a zero-padded copy.
func (b *Binary) Bytes(addr uint64, n int) ([]byte, error) {
	s := b.SectionFor(addr)
	if s == nil {
		return nil, fmt.Errorf("obj: address %#x not in any section of %s", addr, b.Name)
	}
	if addr+uint64(n) > s.End() {
		return nil, fmt.Errorf("obj: range [%#x,+%d) overruns section %s", addr, n, s.Name)
	}
	off := addr - s.Addr
	if end := off + uint64(n); end <= uint64(len(s.Data)) {
		return s.Data[off:end], nil
	}
	out := make([]byte, n)
	if off < uint64(len(s.Data)) {
		copy(out, s.Data[off:])
	}
	return out, nil
}

// SortFuncs sorts the function table by entry address and rebuilds the
// name index. Producers must call it after assembling the table; after
// that the binary is safe for concurrent readers.
func (b *Binary) SortFuncs() {
	sort.Slice(b.Funcs, func(i, j int) bool { return b.Funcs[i].Addr < b.Funcs[j].Addr })
	b.byName = make(map[string]*Func, len(b.Funcs))
	for _, f := range b.Funcs {
		b.byName[f.Name] = f
	}
}

// FuncByName returns the function with the given name, or nil. It never
// writes to the binary: a binary that SortFuncs has not indexed (built by
// hand) is scanned linearly.
func (b *Binary) FuncByName(name string) *Func {
	if b.byName != nil {
		return b.byName[name]
	}
	for _, f := range b.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FuncAt returns the function whose hot range starts exactly at addr, or
// nil.
func (b *Binary) FuncAt(addr uint64) *Func {
	i := sort.Search(len(b.Funcs), func(i int) bool { return b.Funcs[i].Addr >= addr })
	if i < len(b.Funcs) && b.Funcs[i].Addr == addr {
		return b.Funcs[i]
	}
	return nil
}

// Lookup symbolizes addr: it returns the function containing addr (hot or
// cold range) and the byte offset from that range's start. The second
// result is true when addr falls in the cold range.
func (b *Binary) Lookup(addr uint64) (f *Func, off uint64, cold bool) {
	// Hot ranges: binary search on sorted entry addresses.
	i := sort.Search(len(b.Funcs), func(i int) bool { return b.Funcs[i].Addr > addr })
	if i > 0 {
		cand := b.Funcs[i-1]
		if addr < cand.Addr+cand.Size {
			return cand, addr - cand.Addr, false
		}
	}
	// Cold ranges are few; scan.
	for _, f := range b.Funcs {
		if f.ColdSize > 0 && addr >= f.ColdAddr && addr < f.ColdAddr+f.ColdSize {
			return f, addr - f.ColdAddr, true
		}
	}
	return nil, 0, false
}

// TextBytes returns the total code bytes across all code sections.
func (b *Binary) TextBytes() uint64 {
	var n uint64
	for _, s := range b.Sections {
		if s.Name == SecText || s.Name == SecOrgText || s.Name == SecColdText {
			n += uint64(len(s.Data))
		}
	}
	return n
}

// Validate performs structural sanity checks: sections must not overlap,
// functions must be inside code sections, v-table slots and jump-table
// targets must point at function entries or inside functions.
func (b *Binary) Validate() error {
	secs := make([]*Section, len(b.Sections))
	copy(secs, b.Sections)
	sort.Slice(secs, func(i, j int) bool { return secs[i].Addr < secs[j].Addr })
	for i := 1; i < len(secs); i++ {
		if secs[i].Addr < secs[i-1].End() {
			return fmt.Errorf("obj: sections %s and %s overlap", secs[i-1].Name, secs[i].Name)
		}
	}
	for _, f := range b.Funcs {
		s := b.SectionFor(f.Addr)
		if s == nil || (s.Name != SecText && s.Name != SecOrgText && s.Name != SecColdText) {
			return fmt.Errorf("obj: function %s at %#x not in a code section", f.Name, f.Addr)
		}
		if f.Addr+f.Size > s.End() {
			return fmt.Errorf("obj: function %s overruns section %s", f.Name, s.Name)
		}
		var covered uint64
		for bi, blk := range f.Blocks {
			if bi == 0 && blk.Off != 0 {
				return fmt.Errorf("obj: function %s: first block at offset %d", f.Name, blk.Off)
			}
			covered += uint64(blk.Size)
		}
		if len(f.Blocks) > 0 && covered != f.Size {
			return fmt.Errorf("obj: function %s: blocks cover %d of %d bytes", f.Name, covered, f.Size)
		}
	}
	for _, vt := range b.VTables {
		for i, slot := range vt.Slots {
			if fn, _, _ := b.Lookup(slot); fn == nil || fn.Addr != slot {
				return fmt.Errorf("obj: vtable %s slot %d (%#x) is not a function entry", vt.Name, i, slot)
			}
		}
	}
	for _, jt := range b.JumpTables {
		for i, tgt := range jt.Targets {
			if fn, _, _ := b.Lookup(tgt); fn == nil {
				return fmt.Errorf("obj: jump table %s target %d (%#x) is not in any function", jt.Name, i, tgt)
			}
		}
	}
	if b.Entry != 0 {
		if f := b.FuncAt(b.Entry); f == nil {
			return fmt.Errorf("obj: entry %#x is not a function entry", b.Entry)
		}
	}
	return nil
}

// Stats summarizes the binary for characterization tables (Table I).
type Stats struct {
	Funcs      int
	VTables    int
	TextBytes  uint64
	JumpTables int
}

// Stats returns summary statistics.
func (b *Binary) Stats() Stats {
	return Stats{
		Funcs:      len(b.Funcs),
		VTables:    len(b.VTables),
		TextBytes:  b.TextBytes(),
		JumpTables: len(b.JumpTables),
	}
}

// String implements fmt.Stringer.
func (b *Binary) String() string {
	st := b.Stats()
	return fmt.Sprintf("%s: %d funcs, %d vtables, .text %.2f MiB, bolted=%v",
		b.Name, st.Funcs, st.VTables, float64(st.TextBytes)/(1<<20), b.Bolted)
}
