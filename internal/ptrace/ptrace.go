// Package ptrace is the debugger API over a simulated process, mirroring
// the subset of Linux ptrace that OCOLOS uses (§IV): attach/stop the
// target, peek/poke its memory, and read/adjust per-thread register state.
//
// Two memory-write paths are provided, matching the paper's
// "Efficient Code Copying" discussion (§V): PokeData writes one word per
// call (the real PTRACE_POKEDATA, a syscall plus context switches per
// 8 bytes — prohibitively slow for MiBs of code), while AgentWrite models
// the LD_PRELOAD agent doing a bulk memcpy from inside the target.
//
// The tracee is a hard error boundary: every operation validates its
// target address against the process's mapped image (binary sections,
// heap, thread stacks, agent-mapped regions) and fails descriptively
// instead of silently reading zeros or conjuring pages, and every
// operation first consults FaultHook so tests can inject a failure at any
// exact point of a replacement. The Txn layer (txn.go) builds an undo
// journal on top of these guarantees.
package ptrace

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/proc"
)

// Tracee is an attached process.
type Tracee struct {
	p        *proc.Process
	attached bool

	// FaultHook, when non-nil, runs before every tracee operation with the
	// operation name ("peek", "poke", "read", "write", "getregs",
	// "setregs", "map", "unmap") and its index on this tracee. A non-nil
	// return fails the operation before it touches the target — the fault
	// injection surface the transactional-replacement sweep drives.
	FaultHook func(op string, n int) error
	opCount   int

	// PokeCount and PokeBytes record traffic through the slow word-by-word
	// path; AgentBytes through the in-process agent path. The OCOLOS
	// controller reports these in its replacement cost breakdown.
	PokeCount  uint64
	PokeBytes  uint64
	AgentBytes uint64
}

// Attach stops the target process (all threads halt at instruction
// boundaries) and returns a Tracee handle.
func Attach(p *proc.Process) *Tracee {
	p.Pause()
	return &Tracee{p: p, attached: true}
}

// Detach resumes the target.
func (t *Tracee) Detach() {
	if t.attached {
		t.p.Resume()
		t.attached = false
	}
}

// OpCount returns how many operations this tracee has begun (including
// ones failed by the hook or an unmapped address).
func (t *Tracee) OpCount() int { return t.opCount }

// begin runs the per-operation preamble: the attachment check, then the
// fault hook. Every public operation calls it exactly once.
func (t *Tracee) begin(op string) error {
	if !t.attached {
		return fmt.Errorf("ptrace: %s: not attached", op)
	}
	n := t.opCount
	t.opCount++
	if t.FaultHook != nil {
		if err := t.FaultHook(op, n); err != nil {
			return fmt.Errorf("ptrace: %s (op %d): %w", op, n, err)
		}
	}
	return nil
}

// checkMapped validates a target address range.
func (t *Tracee) checkMapped(op string, addr, n uint64) error {
	if !t.p.RangeMapped(addr, n) {
		return fmt.Errorf("ptrace: %s at %#x (+%d): address not mapped in target (image, heap, stacks, or agent regions)", op, addr, n)
	}
	return nil
}

// Regs is the register file of one thread, as GETREGS returns it.
type Regs struct {
	PC  uint64
	GPR [isa.NumRegs]uint64
	Cmp int64
}

// GetRegs reads thread tid's registers.
func (t *Tracee) GetRegs(tid int) (Regs, error) {
	if err := t.begin("getregs"); err != nil {
		return Regs{}, err
	}
	return t.rawGetRegs(tid)
}

// rawGetRegs reads registers without the hook preamble (rollback path).
func (t *Tracee) rawGetRegs(tid int) (Regs, error) {
	if tid < 0 || tid >= len(t.p.Threads) {
		return Regs{}, fmt.Errorf("ptrace: no thread %d", tid)
	}
	th := t.p.Threads[tid]
	return Regs{PC: th.PC, GPR: th.Regs, Cmp: th.CmpVal}, nil
}

// SetRegs writes thread tid's registers.
func (t *Tracee) SetRegs(tid int, r Regs) error {
	if err := t.begin("setregs"); err != nil {
		return err
	}
	return t.rawSetRegs(tid, r)
}

// rawSetRegs writes registers without the hook preamble (rollback path).
func (t *Tracee) rawSetRegs(tid int, r Regs) error {
	if tid < 0 || tid >= len(t.p.Threads) {
		return fmt.Errorf("ptrace: no thread %d", tid)
	}
	th := t.p.Threads[tid]
	th.PC = r.PC
	th.Regs = r.GPR
	th.CmpVal = r.Cmp
	return nil
}

// Threads returns the number of threads in the tracee.
func (t *Tracee) Threads() int { return len(t.p.Threads) }

// PeekData reads one word at addr.
func (t *Tracee) PeekData(addr uint64) (uint64, error) {
	if err := t.begin("peek"); err != nil {
		return 0, err
	}
	if err := t.checkMapped("peek", addr, 8); err != nil {
		return 0, err
	}
	return t.p.Mem.ReadWord(addr), nil
}

// PokeData writes one word at addr — the slow per-word path.
func (t *Tracee) PokeData(addr uint64, v uint64) error {
	if err := t.begin("poke"); err != nil {
		return err
	}
	if err := t.checkMapped("poke", addr, 8); err != nil {
		return err
	}
	t.p.Mem.WriteWord(addr, v)
	t.PokeCount++
	t.PokeBytes += 8
	return nil
}

// ReadMem bulk-reads target memory (process_vm_readv analog).
func (t *Tracee) ReadMem(addr uint64, b []byte) error {
	if err := t.begin("read"); err != nil {
		return err
	}
	if err := t.checkMapped("read", addr, uint64(len(b))); err != nil {
		return err
	}
	t.p.Mem.Read(addr, b)
	return nil
}

// AgentWrite bulk-writes target memory through the in-process agent (the
// LD_PRELOAD library's memcpy), the fast path OCOLOS uses for code
// injection.
func (t *Tracee) AgentWrite(addr uint64, b []byte) error {
	if err := t.begin("write"); err != nil {
		return err
	}
	if err := t.checkMapped("write", addr, uint64(len(b))); err != nil {
		return err
	}
	t.p.Mem.Write(addr, b)
	t.AgentBytes += uint64(len(b))
	return nil
}

// Map registers [addr, addr+size) as a valid target window — the agent
// calling mmap to create a code version's home. Pages stay lazy; only the
// validity map changes.
func (t *Tracee) Map(addr, size uint64) error {
	if err := t.begin("map"); err != nil {
		return err
	}
	t.p.MapRegion(addr, size)
	return nil
}

// Unmap releases [addr, addr+size): agent-mapped regions fully inside the
// range are unregistered and the backing pages are returned to the system
// (the continuous-optimization GC's munmap, §IV-C).
func (t *Tracee) Unmap(addr, size uint64) error {
	if err := t.begin("unmap"); err != nil {
		return err
	}
	t.p.UnmapRegion(addr, size)
	t.p.Mem.Unmap(addr, size)
	return nil
}
