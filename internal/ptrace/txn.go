// Txn is the write journal that makes a replacement round transactional
// (the torn-state hazard OSR literature treats as the central correctness
// problem of live code-version transfer): every mutation of the target —
// memory writes, register writes, region map/unmap — records enough of
// the old state to be undone, and Rollback replays the undos in reverse
// while the target is still paused, leaving its memory (contents *and*
// page residency) and registers bit-identical to the pre-transaction
// state. Either Commit or Rollback must be called before Detach.
package ptrace

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/proc"
)

// undoKind discriminates journal entries.
type undoKind int

const (
	undoWrite undoKind = iota // restore old bytes, release fresh pages
	undoRegs                  // restore a thread's register file
	undoMap                   // unregister a region mapped by the txn
	undoUnmap                 // re-register regions and restore page contents
)

// savedSpan is one contiguous run of pre-unmap page contents.
type savedSpan struct {
	addr uint64
	data []byte
}

type undoRec struct {
	kind undoKind

	addr  uint64
	old   []byte   // pre-write bytes (undoWrite) — nil for undoMap
	fresh []uint64 // page indexes this write allocated, released on undo

	tid  int
	regs Regs

	size    uint64        // region size (undoMap)
	regions []proc.Region // regions removed by the unmap (undoUnmap)
	spans   []savedSpan   // resident contents released by the unmap
}

// Txn journals every mutation issued through it against one Tracee.
type Txn struct {
	tr     *Tracee
	undos  []undoRec
	closed bool
}

// Begin opens a transaction over an attached tracee.
func Begin(tr *Tracee) *Txn {
	return &Txn{tr: tr}
}

// ---- read-only passthroughs -------------------------------------------

// GetRegs reads thread tid's registers.
func (x *Txn) GetRegs(tid int) (Regs, error) { return x.tr.GetRegs(tid) }

// PeekData reads one word at addr.
func (x *Txn) PeekData(addr uint64) (uint64, error) { return x.tr.PeekData(addr) }

// ReadMem bulk-reads target memory.
func (x *Txn) ReadMem(addr uint64, b []byte) error { return x.tr.ReadMem(addr, b) }

// Threads returns the tracee's thread count.
func (x *Txn) Threads() int { return x.tr.Threads() }

// ---- journaled mutations ----------------------------------------------

// snapshotRange captures the bytes and page residency of [addr, addr+n)
// before a write, so the undo can restore contents and release any pages
// the write allocated.
func (x *Txn) snapshotRange(addr uint64, n uint64) undoRec {
	rec := undoRec{kind: undoWrite, addr: addr, old: make([]byte, n)}
	m := x.tr.p.Mem
	m.Read(addr, rec.old)
	for pg := addr / mem.PageSize; pg <= (addr+n-1)/mem.PageSize; pg++ {
		if !m.Resident(pg * mem.PageSize) {
			rec.fresh = append(rec.fresh, pg)
		}
	}
	return rec
}

// PokeData journals and performs a one-word write.
func (x *Txn) PokeData(addr uint64, v uint64) error {
	rec := x.snapshotRange(addr, 8)
	if err := x.tr.PokeData(addr, v); err != nil {
		return err
	}
	x.undos = append(x.undos, rec)
	return nil
}

// AgentWrite journals and performs a bulk write.
func (x *Txn) AgentWrite(addr uint64, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	rec := x.snapshotRange(addr, uint64(len(b)))
	if err := x.tr.AgentWrite(addr, b); err != nil {
		return err
	}
	x.undos = append(x.undos, rec)
	return nil
}

// SetRegs journals and performs a register write.
func (x *Txn) SetRegs(tid int, r Regs) error {
	old, err := x.tr.rawGetRegs(tid)
	if err != nil {
		return err
	}
	if err := x.tr.SetRegs(tid, r); err != nil {
		return err
	}
	x.undos = append(x.undos, undoRec{kind: undoRegs, tid: tid, regs: old})
	return nil
}

// Map journals and performs a region registration.
func (x *Txn) Map(addr, size uint64) error {
	if err := x.tr.Map(addr, size); err != nil {
		return err
	}
	x.undos = append(x.undos, undoRec{kind: undoMap, addr: addr, size: size})
	return nil
}

// Unmap journals and performs a region release. The resident contents of
// the range are saved first (dead code regions are sparse — only pages
// that actually exist are copied), so rollback can resurrect the region
// exactly.
func (x *Txn) Unmap(addr, size uint64) error {
	p := x.tr.p
	rec := undoRec{kind: undoUnmap, addr: addr, size: size}
	end := addr + size
	for _, r := range p.Mem.MappedRanges() {
		lo, hi := r[0], r[1]
		if lo < addr {
			lo = addr
		}
		if hi > end {
			hi = end
		}
		if lo >= hi {
			continue
		}
		data := make([]byte, hi-lo)
		p.Mem.Read(lo, data)
		rec.spans = append(rec.spans, savedSpan{addr: lo, data: data})
	}
	// Peek at which regions the unmap will drop without mutating yet: the
	// tracee op below may be failed by the fault hook.
	for _, r := range p.Regions() {
		if r.Addr >= addr && r.End() <= end {
			rec.regions = append(rec.regions, r)
		}
	}
	if err := x.tr.Unmap(addr, size); err != nil {
		return err
	}
	x.undos = append(x.undos, rec)
	return nil
}

// ---- resolution --------------------------------------------------------

// Commit discards the journal; the transaction's effects stand.
func (x *Txn) Commit() {
	x.undos = nil
	x.closed = true
}

// Rollback replays the journal in reverse, restoring target memory,
// page residency, registers, and region registrations to their
// pre-transaction state. It bypasses the fault hook — undo must not fail
// — and is idempotent once the transaction is closed.
func (x *Txn) Rollback() error {
	if x.closed {
		return nil
	}
	p := x.tr.p
	for i := len(x.undos) - 1; i >= 0; i-- {
		rec := x.undos[i]
		switch rec.kind {
		case undoWrite:
			p.Mem.Write(rec.addr, rec.old)
			for _, pg := range rec.fresh {
				p.Mem.Unmap(pg*mem.PageSize, mem.PageSize)
			}
		case undoRegs:
			if err := x.tr.rawSetRegs(rec.tid, rec.regs); err != nil {
				return fmt.Errorf("ptrace: rollback: %w", err)
			}
		case undoMap:
			p.UnmapRegion(rec.addr, rec.size)
		case undoUnmap:
			for _, r := range rec.regions {
				p.MapRegion(r.Addr, r.Size)
			}
			for _, s := range rec.spans {
				p.Mem.Write(s.addr, s.data)
			}
		}
	}
	x.undos = nil
	x.closed = true
	return nil
}
