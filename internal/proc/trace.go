package proc

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// The trace engine: the one executor the scheduler runs (docs/perf.md).
// Step (exec.go) decodes and dispatches one instruction at a time and
// stays the reference semantics; everything here exists to retire the
// same instructions with the same cpu.Core events in less host time.
//
// Code is decoded once into a flat op form and executed as traces. The
// unit of decoding is the one-block trace: a straight-line run ending at
// the first control transfer, SYS, undecodable word or page boundary,
// every terminator an exit. Once a one-block trace is hot, the splicer
// concatenates the already-decoded ops of the blocks along the profiled
// path into a longer trace with a plan — which way each conditional
// goes, where a RET folds onto a spliced CALL, whether the last branch
// loops back to the head — and the same loop runs it, leaving at the
// first op that goes against the plan.
//
// Two pre-computations make re-execution cheap:
//
//   - fetch points: an op needs a front-end Fetch only at the trace
//     head, after a planned-taken branch, or on a static line crossing.
//     Every other op is proven at build time to sit on the line the core
//     just fetched, where Fetch is a no-op — so the call is skipped, and
//     a fetch point is one flag on its op.
//   - pure runs: a maximal streak of event-free, fault-free ops (ALU
//     bar the divider, CMP) is charged with one cpu.RetireBulk,
//     bit-identical to per-op Retire by construction
//     (internal/cpu/blockacct.go). The proof above lets a run span line
//     crossings: each interior fetch point first flushes the retires
//     pending so far, so the DRAM model behind a missing Fetch sees the
//     true cycle count, then calls cpu.Core.Fetch in place.
//
// Everything else goes through the per-event calls Step makes, in the
// same order — Fetch directly, Mem and Branch behind the warm paths that
// measurably pay (cpu.MemFast, cpu.Branch*Fast; docs/perf.md) —
// so cpu.Stats stays bit-identical to Step (internal/diffcheck's
// cycle-exact golden gate). Correctness under code writes: every page a
// trace was decoded from is write-protected in Mem as a code page, so the
// first store into it faults into Mem's code watch, which invalidates the
// page's traces; the executor re-checks valid after every op that can
// store, so a trace overwriting itself stops at the next instruction
// boundary — exactly where Step would first see the new bytes.

const (
	// spliceHeat is how many dispatches make a one-block trace hot
	// enough to try splicing from it. Each failed attempt doubles the
	// bar (up to spliceMaxBackoff doublings), so a block that can never
	// head a trace stops paying for the walk.
	spliceHeat       = 64
	spliceMaxBackoff = 16
	// spliceMaxOps and spliceMaxBlocks bound a spliced trace.
	spliceMaxOps    = 96
	spliceMaxBlocks = 16
)

// cont says how execution continues after a control op that goes the
// planned way. The zero value is what every one-block terminator has.
type cont uint8

const (
	contExit cont = iota // leave the trace
	contNext             // proceed to the next op
	contLoop             // planned back edge to the trace head
)

// op is one decoded instruction. It holds no pointers.
type op struct {
	in      isa.Inst
	pc      uint64
	target  uint64 // taken target: static for JMP/JCC/CALL, the spliced CALL's return address for a folded RET
	run     uint16 // pure ops starting here, chargeable as one bulk retire
	cont    cont
	fetch   bool // fetch point: not proven to sit on the line just fetched
	planned bool // control op: the trace continues at target (JCC: assumes taken)
}

// follow returns the index execution continues at after the control op
// e, at index i, went the planned way.
func (e *op) follow(i int) int {
	if e.cont == contLoop {
		return 0
	}
	return i + 1
}

// trace is a decoded run of ops. One-block traces live in Process.traces
// by start PC and carry the dispatch profile; a spliced trace hangs off
// its head block's hot pointer and may span pages.
type trace struct {
	start   uint64
	ops     []op
	valid   bool
	spliced bool

	// Exit inline caches: the one-block traces last reached by a taken
	// and a not-taken exit. Only hints — chain validates before trusting.
	succTaken, succFall *trace

	// Dispatch profile of a one-block trace, fixed bins on the trace
	// itself so the hot path pays a plain increment: heat counts
	// dispatches since the last splice attempt, fails the attempts that
	// found nothing to splice, takenCnt/fallCnt the terminating JCC's
	// edges. hot caches the spliced trace headed here.
	heat, takenCnt, fallCnt uint32
	fails                   uint8
	hot                     *trace
}

// SuperblockStats reports splicer activity for diagnostics and tests.
type SuperblockStats struct {
	Formed      uint64 // traces spliced
	Invalidated uint64 // spliced traces dropped by the code watch
	Insts       uint64 // instructions retired inside spliced traces
}

// SuperblockStats returns the current splicer counters.
func (p *Process) SuperblockStats() SuperblockStats {
	return SuperblockStats{Formed: p.superFormed, Invalidated: p.superInval, Insts: p.superInsts}
}

// DecodedTraces returns how many one-block traces have been decoded so
// far, re-decodes after invalidation included.
func (p *Process) DecodedTraces() uint64 { return p.decoded }

// pureOp reports whether op is event-free and cannot fault: no memory
// traffic, no control transfer, no syscall, no hook, no divider — only
// registers and flags.
func pureOp(op isa.Op) bool {
	switch op {
	case isa.NOP, isa.MOVI, isa.MOV, isa.ADD, isa.SUB, isa.MUL,
		isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR,
		isa.ADDI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI,
		isa.CMP, isa.CMPI:
		return true
	}
	return false
}

// traceAt returns the valid one-block trace starting at pc, decoding it
// from guest memory on a miss. Invalidated traces are removed from the
// map, so a hit is always valid. A decode error on the first instruction
// is the caller's to raise (identical to what Step would report); an
// error later just ends the block before the bad word, so the fault
// surfaces — or doesn't — exactly when execution reaches it.
func (p *Process) traceAt(pc uint64) (*trace, error) {
	if tr := p.traces[pc]; tr != nil {
		return tr, nil
	}
	if pc%isa.InstBytes != 0 {
		return nil, fmt.Errorf("proc: misaligned PC %#x", pc)
	}
	// Blocks never span pages, so one view of the rest of pc's page
	// serves both passes: the first sizes the block, so ops is allocated
	// once, exactly, and the second fills it.
	code := p.Mem.CodeSlice(pc)
	n := 0
	for off := 0; off < len(code); off += isa.InstBytes {
		in, err := isa.Decode(code[off:])
		if err != nil {
			if n == 0 {
				return nil, fmt.Errorf("proc: at PC %#x: %w", pc, err)
			}
			break
		}
		n++
		if in.IsCtrl() || in.Op == isa.SYS {
			break
		}
	}
	tr := &trace{start: pc, valid: true, ops: make([]op, n)}
	for i := range tr.ops {
		o := &tr.ops[i]
		o.pc = pc + uint64(i)*isa.InstBytes
		o.in, _ = isa.Decode(code[i*isa.InstBytes:])
		switch o.in.Op {
		case isa.JMP, isa.JCC, isa.CALL:
			o.target = uint64(int64(o.pc+isa.InstBytes) + o.in.Imm)
		}
	}
	p.plan(tr)
	p.traces[pc] = tr
	p.indexTrace(tr)
	p.decoded++
	return tr, nil
}

// indexTrace registers tr under every code page its ops were decoded
// from, so a store into any of them invalidates it: a page's first trace
// arms it in Mem as a code page, whose next write calls dropTraces.
func (p *Process) indexTrace(tr *trace) {
	for i := range tr.ops {
		pg := tr.ops[i].pc / mem.PageSize
		if i > 0 && pg == tr.ops[i-1].pc/mem.PageSize {
			continue
		}
		// tr appends itself, so on a page it already visited it is last.
		if l := p.tracePg[pg]; len(l) == 0 || l[len(l)-1] != tr {
			if len(l) == 0 {
				p.Mem.WatchCode(pg)
			}
			p.tracePg[pg] = append(l, tr)
		}
	}
}

// plan precomputes tr's fetch points and pure-run lengths. An op is a
// fetch point iff it heads the trace, follows a branch the plan takes
// (which redirects fetch), or statically crosses a cache line.
func (p *Process) plan(tr *trace) {
	c := p.Threads[0].Core // geometry is config-wide; any core works
	ops := tr.ops
	for i := range ops {
		e := &ops[i]
		e.run = 0
		e.fetch = true
		if i > 0 {
			prev := &ops[i-1]
			e.fetch = prev.planned && prev.cont != contExit || !c.SameFetchLine(prev.pc, e.pc)
		}
	}
	for i := len(ops) - 1; i >= 0; i-- {
		if e := &ops[i]; pureOp(e.in.Op) {
			e.run = 1
			if i+1 < len(ops) {
				e.run += ops[i+1].run
			}
		}
	}
}

// splice tries to build a longer trace from head along the profiled hot
// path: it concatenates the decoded ops of the one-block traces the path
// visits and marks how each control op is planned to continue. Returns
// nil, raising head's bar for the next attempt, when there is nothing to
// splice; a later, warmer state (successors decoded, edge counters
// filled in) can still succeed.
func (p *Process) splice(head *trace) *trace {
	sb := &trace{start: head.start, valid: true, spliced: true}
	blocks := 0
	// Static call stack: a spliced CALL records its return address, so a
	// matching RET can continue the trace there instead of exiting — with
	// a run-time check that the guest's stack agrees (exec's RET case).
	var calls []uint64

walk:
	for cur := head; cur != nil && blocks < spliceMaxBlocks; {
		blocks++
		next := cur.ops[len(cur.ops)-1].pc + isa.InstBytes
		// Without a terminator the block ended at the page boundary (fall
		// through into the next page's block) or before an undecodable
		// word (stop; the fault surfaces when execution gets there).
		viaCtrl := false
		for _, o := range cur.ops {
			if len(sb.ops) >= spliceMaxOps || o.in.Op == isa.SYS || o.in.Op == isa.HALT {
				// SYS and HALT stay with their one-block trace: the handler
				// may rewrite anything. The trace ends just before.
				break walk
			}
			o.cont = contNext
			stop := false
			switch o.in.Op {
			case isa.JMP:
				o.planned = true
			case isa.CALL:
				o.planned = true
				calls = append(calls, o.pc+isa.InstBytes)
			case isa.JCC:
				// No edge profile: both directions side-exit.
				stop = cur.takenCnt == 0 && cur.fallCnt == 0
				o.planned = !stop && cur.takenCnt >= cur.fallCnt
			case isa.RET:
				// Call/return folding onto a CALL spliced earlier; with
				// none, the target is dynamic and the trace ends.
				if stop = len(calls) == 0; !stop {
					o.target, o.planned = calls[len(calls)-1], true
					calls = calls[:len(calls)-1]
				}
			case isa.CALLR, isa.JTBL:
				stop = true // dynamic target
			}
			if stop {
				o.cont = contExit
			}
			sb.ops = append(sb.ops, o)
			if stop {
				break walk
			}
			if o.in.IsCtrl() {
				viaCtrl = true
				if o.planned {
					next = o.target
				}
			}
		}
		if !viaCtrl && next%mem.PageSize != 0 {
			break
		}
		if next == sb.start {
			if viaCtrl {
				sb.ops[len(sb.ops)-1].cont = contLoop
			}
			break
		}
		// Revisited blocks are spliced again (bounded by spliceMaxOps /
		// spliceMaxBlocks): an inner loop simply unrolls into the trace.
		cur = p.traces[next] // nil (not yet decoded) ends the walk
	}

	// Only worth it when the trace extends past its head block or loops
	// back to it; otherwise the one-block trace already does the work.
	n := len(sb.ops)
	if n < 2 || (blocks == 1 && sb.ops[n-1].cont != contLoop) {
		head.heat = 0
		if head.fails < spliceMaxBackoff {
			head.fails++
		}
		return nil
	}
	// A trailing control op planned to continue has nothing to continue
	// into: demote it to an exit.
	if last := &sb.ops[n-1]; last.cont == contNext && last.in.IsCtrl() {
		last.cont = contExit
	}
	p.plan(sb)
	p.indexTrace(sb)
	head.hot = sb
	p.superFormed++
	return sb
}

// promote picks what a dispatch of the one-block trace blk executes: the
// spliced trace headed there when one exists (trying to form it once blk
// is hot enough), otherwise blk itself.
func (p *Process) promote(blk *trace) *trace {
	if !p.spliceEnabled {
		return blk
	}
	if hot := blk.hot; hot != nil {
		if hot.valid {
			return hot
		}
		blk.hot = nil
		return blk
	}
	blk.heat++
	if blk.heat >= spliceHeat<<blk.fails {
		if hot := p.splice(blk); hot != nil {
			return hot
		}
	}
	return blk
}

// chain resolves an exit hint: reuse the cached one-block trace if it
// still matches, otherwise consult the map and refresh the hint. Returns
// nil on a cold target; runQuantum decodes it.
func (p *Process) chain(slot **trace, target uint64) *trace {
	if b := *slot; b != nil && b.valid && b.start == target {
		return b
	}
	b := p.traces[target]
	*slot = b
	return b
}

// runQuantum executes up to budget instructions on t and returns how
// many completed — the count a per-Step quantum loop would report (HALT,
// faults, and halting syscalls are not counted). A quantum that ran dry
// mid-trace left (trace, op index) on the thread; it is re-entered there
// while the trace is valid and the PC unmoved — a code write, a debugger
// or Step may have changed either in between — so no block is ever
// decoded at a PC the scheduler merely cut at. Re-entry first makes the
// Fetch Step makes at that instruction: a no-op when the line is still
// live, and exact when Step or a debugger moved the front end meanwhile.
func (p *Process) runQuantum(t *Thread, budget int) int {
	run, at := t.resume, t.resumeAt
	t.resume = nil
	if run != nil {
		if !run.valid || run.ops[at].pc != t.PC {
			run = nil
		} else {
			t.Core.Fetch(t.PC)
		}
	}
	total := 0
	var blk *trace // one-block trace at t.PC, when the last exit's hint resolved
	for total < budget && !t.Halted {
		if run == nil {
			if blk == nil || !blk.valid || blk.start != t.PC {
				var err error
				if blk, err = p.traceAt(t.PC); err != nil {
					p.faultThread(t, err)
					return total
				}
			}
			run, at = p.promote(blk), 0
		}
		n, next := p.exec(t, run, at, budget-total)
		total += n
		if run.spliced {
			p.superInsts += uint64(n)
		}
		run, blk = nil, next
	}
	return total
}

// exec runs tr from op index i until it exits, the budget runs out, the
// thread halts or faults, or the trace is invalidated under its own
// feet. It returns the number of completed instructions and the
// one-block trace at the exit target if the exit's hint resolved. t.PC
// is synced on every way out, never per instruction. Event order is
// instruction-for-instruction that of Step; the only differences are
// skipped no-op Fetches, bulk-charged retires and the cpu warm paths,
// all bit-exact by construction.
func (p *Process) exec(t *Thread, tr *trace, i, budget int) (int, *trace) {
	c := t.Core
	ops := tr.ops
	n := 0
	for n < budget {
		e := &ops[i]

		// Pure run: execute the streak's register effects, fetching in
		// place at line crossings, then charge the whole streak with one
		// bulk retire.
		if r := int(e.run); r > 0 {
			m := min(r, budget-n)
			run := ops[i : i+m]
			charged := 0
			for j := range run {
				o := &run[j]
				if o.fetch {
					// Fetch can reach the DRAM model, which reads Cycles():
					// the retired count must be current.
					c.RetireBulk(uint64(j-charged), 0)
					charged = j
					c.Fetch(o.pc)
				}
				in := &o.in
				switch in.Op {
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
				case isa.CMP:
					t.CmpVal = int64(t.Reg(in.Rs1)) - int64(t.Reg(in.Rs2))
				case isa.CMPI:
					t.CmpVal = int64(t.Reg(in.Rs1)) - in.Imm
				} // NOP: nothing to do
			}
			c.RetireBulk(uint64(m-charged), 0)
			n += m
			i += m
			if i == len(ops) {
				t.PC = ops[i-1].pc + isa.InstBytes
				return n, nil
			}
			continue
		}

		if e.fetch {
			c.Fetch(e.pc)
		}
		in := &e.in
		next := e.pc + isa.InstBytes
		// stored: the op may have written memory (or run a hook), so the
		// trace's validity is re-checked before the next op.
		stored := false
		switch in.Op {
		case isa.DIV:
			d := int64(t.Reg(in.Rs2))
			if d == 0 {
				t.PC = e.pc
				p.faultThread(t, fmt.Errorf("proc: divide by zero at PC %#x", e.pc))
				return n, nil
			}
			t.SetReg(in.Rd, uint64(int64(t.Reg(in.Rs1))/d))
			c.RetireBulk(0, 1) // the divider's share; the shared tail retires the slot
		case isa.MOD:
			d := int64(t.Reg(in.Rs2))
			if d == 0 {
				t.PC = e.pc
				p.faultThread(t, fmt.Errorf("proc: modulo by zero at PC %#x", e.pc))
				return n, nil
			}
			t.SetReg(in.Rd, uint64(int64(t.Reg(in.Rs1))%d))
			c.RetireBulk(0, 1)

		case isa.LD:
			addr := t.Reg(in.Rs1) + uint64(in.Imm)
			if !c.MemFast(addr) {
				c.Mem(addr, false)
			}
			t.SetReg(in.Rd, p.Mem.ReadWord(addr))
		case isa.LDB:
			addr := t.Reg(in.Rs1) + uint64(in.Imm)
			if !c.MemFast(addr) {
				c.Mem(addr, false)
			}
			t.SetReg(in.Rd, uint64(p.Mem.LoadByte(addr)))
		case isa.LEAVE:
			fp := t.Regs[isa.FP]
			if !c.MemFast(fp) {
				c.Mem(fp, false)
			}
			t.Regs[isa.FP] = p.Mem.ReadWord(fp)
			t.Regs[isa.SP] = fp + 8
		case isa.POP:
			sp := t.Regs[isa.SP]
			if !c.MemFast(sp) {
				c.Mem(sp, false)
			}
			t.SetReg(in.Rd, p.Mem.ReadWord(sp))
			t.Regs[isa.SP] = sp + 8

		case isa.ST:
			addr := t.Reg(in.Rs1) + uint64(in.Imm)
			if !c.MemFast(addr) {
				c.Mem(addr, true)
			}
			p.Mem.WriteWord(addr, t.Reg(in.Rs2))
			stored = true
		case isa.STB:
			addr := t.Reg(in.Rs1) + uint64(in.Imm)
			if !c.MemFast(addr) {
				c.Mem(addr, true)
			}
			p.Mem.StoreByte(addr, byte(t.Reg(in.Rs2)))
			stored = true
		case isa.PUSH:
			sp := t.Regs[isa.SP] - 8
			t.Regs[isa.SP] = sp
			if !c.MemFast(sp) {
				c.Mem(sp, true)
			}
			p.Mem.WriteWord(sp, t.Reg(in.Rs1))
			stored = true
		case isa.ENTER:
			sp := t.Regs[isa.SP] - 8
			if !c.MemFast(sp) {
				c.Mem(sp, true)
			}
			p.Mem.WriteWord(sp, t.Regs[isa.FP])
			t.Regs[isa.FP] = sp
			t.Regs[isa.SP] = sp - uint64(in.Imm)
			stored = true

		case isa.FPTR:
			v := uint64(in.Imm)
			if p.fptrHook != nil {
				v = p.fptrHook(v) // arbitrary code: re-check like a store
				c.AddStall(funcPtrHookCost, cpu.BucketRetiring)
				stored = true
			}
			t.SetReg(in.Rd, v)

		// Control ops. One that goes against the plan, or whose plan is to
		// leave, exits to the actual target through the matching hint;
		// otherwise the plan says where in the trace to continue.
		case isa.JMP:
			c.Retire(false)
			if !c.BranchJumpFast(e.pc, e.target) {
				c.Branch(e.pc, e.target, true, cpu.BrJump, 0)
			}
			p.dbiTax(c, false)
			n++
			if e.cont == contExit {
				t.PC = e.target
				return n, p.chain(&tr.succTaken, e.target)
			}
			i = e.follow(i)
			continue
		case isa.JCC:
			taken := in.Cond.Holds(t.CmpVal)
			c.Retire(false)
			n++
			if taken {
				tr.takenCnt++
				c.Branch(e.pc, e.target, true, cpu.BrCond, 0)
				p.dbiTax(c, false)
				if !e.planned || e.cont == contExit {
					t.PC = e.target
					return n, p.chain(&tr.succTaken, e.target)
				}
			} else {
				tr.fallCnt++
				c.BranchCondNotTakenFast(e.pc)
				if e.planned || e.cont == contExit {
					t.PC = next
					return n, p.chain(&tr.succFall, next)
				}
			}
			i = e.follow(i)
			continue
		case isa.CALL:
			sp := t.Regs[isa.SP] - 8
			t.Regs[isa.SP] = sp
			if !c.MemFast(sp) {
				c.Mem(sp, true)
			}
			p.Mem.WriteWord(sp, next)
			c.Retire(false)
			if !c.BranchCallFast(e.pc, e.target, next) {
				c.Branch(e.pc, e.target, true, cpu.BrCall, next)
			}
			p.dbiTax(c, false)
			n++
			// The return-address push is a store: it can invalidate the
			// trace (a stack aimed at a code page), so re-check.
			if e.cont == contExit || !tr.valid {
				t.PC = e.target
				return n, p.chain(&tr.succTaken, e.target)
			}
			i = e.follow(i)
			continue
		case isa.CALLR:
			target := t.Reg(in.Rs1)
			sp := t.Regs[isa.SP] - 8
			t.Regs[isa.SP] = sp
			if !c.MemFast(sp) {
				c.Mem(sp, true)
			}
			p.Mem.WriteWord(sp, next)
			c.Retire(false)
			c.Branch(e.pc, target, true, cpu.BrCallInd, next)
			p.dbiTax(c, true)
			t.PC = target
			return n + 1, p.chain(&tr.succTaken, target)
		case isa.RET:
			sp := t.Regs[isa.SP]
			if !c.MemFast(sp) {
				c.Mem(sp, false)
			}
			target := p.Mem.ReadWord(sp)
			t.Regs[isa.SP] = sp + 8
			c.Retire(false)
			if !c.BranchRetFast(e.pc, target) {
				c.Branch(e.pc, target, true, cpu.BrRet, 0)
			}
			p.dbiTax(c, true)
			n++
			// Call/return folding: continue in the trace only if the guest
			// really returns where the spliced CALL said it would.
			if e.cont == contExit || target != e.target {
				t.PC = target
				return n, p.chain(&tr.succTaken, target)
			}
			i = e.follow(i)
			continue
		case isa.JTBL:
			slot := uint64(in.Imm) + t.Reg(in.Rs1)*8
			if !c.MemFast(slot) {
				c.Mem(slot, false)
			}
			target := p.Mem.ReadWord(slot)
			c.Retire(false)
			c.Branch(e.pc, target, true, cpu.BrJumpTable, 0)
			p.dbiTax(c, true)
			t.PC = target
			return n + 1, p.chain(&tr.succTaken, target)

		case isa.HALT:
			c.Retire(false)
			t.PC = e.pc
			t.Halted = true
			return n, nil
		case isa.SYS:
			// The handler sees the SYS PC, the way Step leaves it.
			t.PC = e.pc
			if p.handler == nil {
				p.faultThread(t, fmt.Errorf("proc: SYS %d with no handler at PC %#x", in.Imm, e.pc))
				return n, nil
			}
			c.AddStall(syscallCost, cpu.BucketBackEnd)
			if err := p.handler.Syscall(p, t, in.Imm); err != nil {
				p.faultThread(t, err)
				return n, nil
			}
			c.Retire(false)
			if t.Halted {
				return n, nil
			}
			// SYS always ends its trace: the handler may have rewritten
			// code, started threads, or paused the process.
			t.PC = next
			return n + 1, nil

		default:
			t.PC = e.pc
			p.faultThread(t, fmt.Errorf("proc: unimplemented op %v at PC %#x", in.Op, e.pc))
			return n, nil
		}

		// Shared tail of the non-control ops.
		c.Retire(false)
		n++
		i++
		if i == len(ops) || (stored && !tr.valid) {
			// Fell off the end (page boundary, undecodable word, splice
			// limit) or the trace no longer describes the code.
			t.PC = next
			return n, nil
		}
	}
	// Budget exhausted mid-trace: record the exact op so the next quantum
	// re-enters here instead of decoding a block at the cut point.
	t.PC = ops[i].pc
	t.resume, t.resumeAt = tr, i
	return n, nil
}
