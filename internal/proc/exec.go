package proc

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// Step executes one instruction on t, charging its core. A false return
// means the thread cannot run (halted or faulted).
func (p *Process) Step(t *Thread) bool {
	if t.Halted {
		return false
	}
	pc := t.PC
	if pc%isa.InstBytes != 0 {
		p.faultThread(t, fmt.Errorf("proc: misaligned PC %#x", pc))
		return false
	}
	in, err := isa.Decode(p.Mem.CodeSlice(pc))
	if err != nil {
		p.faultThread(t, fmt.Errorf("proc: at PC %#x: %w", pc, err))
		return false
	}
	c := t.Core
	c.Fetch(pc)

	next := pc + isa.InstBytes

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		c.Retire(false)
		t.Halted = true
		return false

	case isa.MOVI:
		t.SetReg(in.Rd, uint64(in.Imm))
	case isa.MOV:
		t.SetReg(in.Rd, t.Reg(in.Rs1))
	case isa.ADD:
		t.SetReg(in.Rd, t.Reg(in.Rs1)+t.Reg(in.Rs2))
	case isa.SUB:
		t.SetReg(in.Rd, t.Reg(in.Rs1)-t.Reg(in.Rs2))
	case isa.MUL:
		t.SetReg(in.Rd, t.Reg(in.Rs1)*t.Reg(in.Rs2))
	case isa.DIV:
		d := int64(t.Reg(in.Rs2))
		if d == 0 {
			p.faultThread(t, fmt.Errorf("proc: divide by zero at PC %#x", pc))
			return false
		}
		t.SetReg(in.Rd, uint64(int64(t.Reg(in.Rs1))/d))
	case isa.MOD:
		d := int64(t.Reg(in.Rs2))
		if d == 0 {
			p.faultThread(t, fmt.Errorf("proc: modulo by zero at PC %#x", pc))
			return false
		}
		t.SetReg(in.Rd, uint64(int64(t.Reg(in.Rs1))%d))
	case isa.AND:
		t.SetReg(in.Rd, t.Reg(in.Rs1)&t.Reg(in.Rs2))
	case isa.OR:
		t.SetReg(in.Rd, t.Reg(in.Rs1)|t.Reg(in.Rs2))
	case isa.XOR:
		t.SetReg(in.Rd, t.Reg(in.Rs1)^t.Reg(in.Rs2))
	case isa.SHL:
		t.SetReg(in.Rd, t.Reg(in.Rs1)<<(t.Reg(in.Rs2)&63))
	case isa.SHR:
		t.SetReg(in.Rd, t.Reg(in.Rs1)>>(t.Reg(in.Rs2)&63))
	case isa.ADDI:
		t.SetReg(in.Rd, t.Reg(in.Rs1)+uint64(in.Imm))
	case isa.MULI:
		t.SetReg(in.Rd, t.Reg(in.Rs1)*uint64(in.Imm))
	case isa.ANDI:
		t.SetReg(in.Rd, t.Reg(in.Rs1)&uint64(in.Imm))
	case isa.ORI:
		t.SetReg(in.Rd, t.Reg(in.Rs1)|uint64(in.Imm))
	case isa.XORI:
		t.SetReg(in.Rd, t.Reg(in.Rs1)^uint64(in.Imm))
	case isa.SHLI:
		t.SetReg(in.Rd, t.Reg(in.Rs1)<<(uint64(in.Imm)&63))
	case isa.SHRI:
		t.SetReg(in.Rd, t.Reg(in.Rs1)>>(uint64(in.Imm)&63))

	case isa.LD:
		addr := t.Reg(in.Rs1) + uint64(in.Imm)
		c.Mem(addr, false)
		t.SetReg(in.Rd, p.Mem.ReadWord(addr))
	case isa.ST:
		addr := t.Reg(in.Rs1) + uint64(in.Imm)
		c.Mem(addr, true)
		p.Mem.WriteWord(addr, t.Reg(in.Rs2))
	case isa.LDB:
		addr := t.Reg(in.Rs1) + uint64(in.Imm)
		c.Mem(addr, false)
		t.SetReg(in.Rd, uint64(p.Mem.LoadByte(addr)))
	case isa.STB:
		addr := t.Reg(in.Rs1) + uint64(in.Imm)
		c.Mem(addr, true)
		p.Mem.StoreByte(addr, byte(t.Reg(in.Rs2)))

	case isa.CMP:
		t.CmpVal = int64(t.Reg(in.Rs1)) - int64(t.Reg(in.Rs2))
	case isa.CMPI:
		t.CmpVal = int64(t.Reg(in.Rs1)) - in.Imm

	case isa.JMP:
		target := uint64(int64(next) + in.Imm)
		c.Retire(false)
		c.Branch(pc, target, true, cpu.BrJump, 0)
		p.dbiTax(c, false)
		t.PC = target
		return true
	case isa.JCC:
		taken := in.Cond.Holds(t.CmpVal)
		target := next
		if taken {
			target = uint64(int64(next) + in.Imm)
		}
		c.Retire(false)
		c.Branch(pc, target, taken, cpu.BrCond, 0)
		if taken {
			p.dbiTax(c, false)
		}
		t.PC = target
		return true
	case isa.CALL:
		target := uint64(int64(next) + in.Imm)
		sp := t.Regs[isa.SP] - 8
		t.Regs[isa.SP] = sp
		c.Mem(sp, true)
		p.Mem.WriteWord(sp, next)
		c.Retire(false)
		c.Branch(pc, target, true, cpu.BrCall, next)
		p.dbiTax(c, false)
		t.PC = target
		return true
	case isa.CALLR:
		target := t.Reg(in.Rs1)
		sp := t.Regs[isa.SP] - 8
		t.Regs[isa.SP] = sp
		c.Mem(sp, true)
		p.Mem.WriteWord(sp, next)
		c.Retire(false)
		c.Branch(pc, target, true, cpu.BrCallInd, next)
		p.dbiTax(c, true)
		t.PC = target
		return true
	case isa.RET:
		sp := t.Regs[isa.SP]
		c.Mem(sp, false)
		target := p.Mem.ReadWord(sp)
		t.Regs[isa.SP] = sp + 8
		c.Retire(false)
		c.Branch(pc, target, true, cpu.BrRet, 0)
		p.dbiTax(c, true)
		t.PC = target
		return true
	case isa.JTBL:
		idx := t.Reg(in.Rs1)
		slot := uint64(in.Imm) + idx*8
		c.Mem(slot, false)
		target := p.Mem.ReadWord(slot)
		c.Retire(false)
		c.Branch(pc, target, true, cpu.BrJumpTable, 0)
		p.dbiTax(c, true)
		t.PC = target
		return true

	case isa.FPTR:
		v := uint64(in.Imm)
		if p.fptrHook != nil {
			v = p.fptrHook(v)
			c.AddStall(funcPtrHookCost, cpu.BucketRetiring)
		}
		t.SetReg(in.Rd, v)

	case isa.ENTER:
		sp := t.Regs[isa.SP] - 8
		c.Mem(sp, true)
		p.Mem.WriteWord(sp, t.Regs[isa.FP])
		t.Regs[isa.FP] = sp
		t.Regs[isa.SP] = sp - uint64(in.Imm)
	case isa.LEAVE:
		fp := t.Regs[isa.FP]
		c.Mem(fp, false)
		t.Regs[isa.FP] = p.Mem.ReadWord(fp)
		t.Regs[isa.SP] = fp + 8
	case isa.PUSH:
		sp := t.Regs[isa.SP] - 8
		t.Regs[isa.SP] = sp
		c.Mem(sp, true)
		p.Mem.WriteWord(sp, t.Reg(in.Rs1))
	case isa.POP:
		sp := t.Regs[isa.SP]
		c.Mem(sp, false)
		t.SetReg(in.Rd, p.Mem.ReadWord(sp))
		t.Regs[isa.SP] = sp + 8

	case isa.SYS:
		if p.handler == nil {
			// Fault before charging syscallCost: a syscall that never
			// dispatched must not book back-end stall cycles.
			p.faultThread(t, fmt.Errorf("proc: SYS %d with no handler at PC %#x", in.Imm, pc))
			return false
		}
		c.AddStall(syscallCost, cpu.BucketBackEnd)
		if err := p.handler.Syscall(p, t, in.Imm); err != nil {
			p.faultThread(t, err)
			return false
		}
		if t.Halted { // handler may halt the thread
			c.Retire(false)
			return false
		}

	default:
		p.faultThread(t, fmt.Errorf("proc: unimplemented op %v at PC %#x", in.Op, pc))
		return false
	}

	c.Retire(in.Op == isa.DIV || in.Op == isa.MOD)
	t.PC = next
	return true
}

func (p *Process) faultThread(t *Thread, err error) {
	t.Halted = true
	if p.fault == nil {
		p.fault = fmt.Errorf("thread %d: %w", t.ID, err)
	}
}

// dbiTax charges the DBI framework's per-transfer overhead (Options.DBI).
func (p *Process) dbiTax(c *cpu.Core, indirect bool) {
	if !p.opts.DBI {
		return
	}
	if indirect {
		c.AddStall(dbiIndirectCost, cpu.BucketRetiring)
	} else {
		c.AddStall(dbiDirectCost, cpu.BucketRetiring)
	}
}
