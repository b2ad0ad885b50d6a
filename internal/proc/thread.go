package proc

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// Thread is one simulated thread. Each thread runs on its own core (the
// evaluation machine has more hardware contexts than any workload uses
// threads, so pinning is a faithful simplification).
type Thread struct {
	ID     int
	PC     uint64
	Regs   [isa.NumRegs]uint64
	CmpVal int64 // flags: last CMP/CMPI difference
	Halted bool

	Core    *cpu.Core
	StackLo uint64
	StackHi uint64

	proc *Process

	// Resume point: set when a quantum runs dry mid-trace so the next
	// quantum re-enters the trace at the exact op instead of dispatching
	// at the cut point. Consumed (and re-validated) by runQuantum.
	resume   *trace
	resumeAt int
}

// Reg reads a register (RZ reads zero).
func (t *Thread) Reg(i uint8) uint64 {
	// No RZ branch: Regs[RZ] starts at zero and every write goes through
	// SetReg, which discards RZ stores — so the slot holds zero forever
	// and a plain read is correct on the hottest path in the simulator.
	// The mask is a no-op (decode rejects register numbers >= NumRegs)
	// that elides the bounds check.
	return t.Regs[i&(isa.NumRegs-1)]
}

// SetReg writes a register (writes to RZ are discarded).
func (t *Thread) SetReg(i uint8, v uint64) {
	if i != isa.RZ {
		t.Regs[i&(isa.NumRegs-1)] = v // no-op mask; see Reg
	}
}

// String summarizes the thread state.
func (t *Thread) String() string {
	return fmt.Sprintf("thread %d: PC=%#x SP=%#x halted=%v", t.ID, t.PC, t.Regs[isa.SP], t.Halted)
}
