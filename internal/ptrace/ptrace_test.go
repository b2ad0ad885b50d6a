package ptrace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/build"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/proc"
)

func spinProcess(t *testing.T) *proc.Process {
	t.Helper()
	pr, err := proc.Load(spinBinary(t), proc.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	pr.RunUntilHalt(10000)
	return pr
}

func spinBinary(t *testing.T) *obj.Binary {
	t.Helper()
	p := build.NewProgram("spin")
	m := p.Func("main")
	m.Prologue(16)
	m.MovI(isa.R1, 0)
	m.While(func() { m.CmpI(isa.R1, 1<<40) }, isa.LT, func() {
		m.AddI(isa.R1, isa.R1, 1)
	})
	m.Halt()
	p.SetEntry("main")
	bin, err := p.Assemble(asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestAttachStopsTarget(t *testing.T) {
	pr := spinProcess(t)
	tr := Attach(pr)
	if !pr.Paused() {
		t.Fatal("attach did not stop the target")
	}
	if n := pr.RunUntilHalt(0); n != 0 {
		t.Errorf("stopped target executed %d instructions", n)
	}
	tr.Detach()
	if pr.Paused() {
		t.Error("detach did not resume")
	}
	if n := pr.RunUntilHalt(1000); n == 0 {
		t.Error("target did not run after detach")
	}
	// Double detach is harmless.
	tr.Detach()
}

func TestPeekPokeAndBulk(t *testing.T) {
	pr := spinProcess(t)
	tr := Attach(pr)
	defer tr.Detach()

	// Scratch space must be mapped first (the agent's mmap): the hardened
	// tracee refuses to conjure pages at arbitrary addresses.
	if err := tr.Map(0x9000_0000, 1<<24); err != nil {
		t.Fatal(err)
	}
	if err := tr.PokeData(0x9000_0000, 0xABCD); err != nil {
		t.Fatal(err)
	}
	if v, err := tr.PeekData(0x9000_0000); err != nil || v != 0xABCD {
		t.Errorf("peek = %#x, %v", v, err)
	}

	src := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := tr.AgentWrite(0x9010_0000, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := tr.ReadMem(0x9010_0000, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Error("bulk round trip mismatch")
	}

	// Accounting distinguishes the slow and fast paths.
	if tr.PokeCount != 1 || tr.PokeBytes != 8 {
		t.Errorf("poke accounting %d/%d", tr.PokeCount, tr.PokeBytes)
	}
	if tr.AgentBytes != uint64(len(src)) {
		t.Errorf("agent accounting %d", tr.AgentBytes)
	}
}

func TestUnmappedAddressesFailDescriptively(t *testing.T) {
	pr := spinProcess(t)
	tr := Attach(pr)
	defer tr.Detach()

	const bad = uint64(0x9000_0000)
	checks := []struct {
		name string
		call func() error
	}{
		{"poke", func() error { return tr.PokeData(bad, 1) }},
		{"peek", func() error { _, err := tr.PeekData(bad); return err }},
		{"write", func() error { return tr.AgentWrite(bad, []byte{1}) }},
		{"read", func() error { return tr.ReadMem(bad, make([]byte, 8)) }},
	}
	for _, c := range checks {
		err := c.call()
		if err == nil {
			t.Fatalf("%s at unmapped %#x succeeded", c.name, bad)
		}
		if !strings.Contains(err.Error(), "not mapped") || !strings.Contains(err.Error(), "0x90000000") {
			t.Errorf("%s error not descriptive: %v", c.name, err)
		}
	}
	if tr.PokeCount != 0 || tr.PokeBytes != 0 || tr.AgentBytes != 0 {
		t.Error("failed operations were charged to traffic accounting")
	}

	// A range straddling the end of a mapped region fails even though it
	// starts mapped.
	if err := tr.Map(0xA000_0000, 16); err != nil {
		t.Fatal(err)
	}
	if err := tr.AgentWrite(0xA000_0000, make([]byte, 32)); err == nil {
		t.Error("write straddling end of mapped region succeeded")
	}
	// Image, heap, and stack addresses remain valid.
	if _, err := tr.PeekData(pr.Bin.Entry); err != nil {
		t.Errorf("peek at binary entry: %v", err)
	}
	sp := pr.Threads[0].StackHi - 8
	if _, err := tr.PeekData(sp); err != nil {
		t.Errorf("peek in thread stack: %v", err)
	}
	// Unmap makes the window invalid again.
	if err := tr.Unmap(0xA000_0000, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.PeekData(0xA000_0000); err == nil {
		t.Error("peek after unmap succeeded")
	}
}

func TestFaultHookInjectsFailures(t *testing.T) {
	pr := spinProcess(t)
	tr := Attach(pr)
	defer tr.Detach()
	if err := tr.Map(0x9000_0000, 1<<20); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	var ops []string
	failAt := -1
	tr.FaultHook = func(op string, n int) error {
		ops = append(ops, op)
		if n == failAt {
			return boom
		}
		return nil
	}

	if err := tr.PokeData(0x9000_0000, 7); err != nil {
		t.Fatal(err)
	}
	failAt = tr.OpCount()
	err := tr.PokeData(0x9000_0008, 8)
	if !errors.Is(err, boom) {
		t.Fatalf("injected fault not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "poke") {
		t.Errorf("fault error does not name the op: %v", err)
	}
	// The failed poke must not have touched memory.
	if v, _ := tr.PeekData(0x9000_0008); v != 0 {
		t.Errorf("failed poke wrote %#x", v)
	}
	want := []string{"poke", "poke", "peek"}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Errorf("hook saw ops %v, want %v", ops, want)
	}
}

func TestThreadsAndRegs(t *testing.T) {
	pr := spinProcess(t)
	tr := Attach(pr)
	defer tr.Detach()
	if tr.Threads() != 2 {
		t.Fatalf("threads = %d", tr.Threads())
	}
	r0, err := tr.GetRegs(0)
	if err != nil {
		t.Fatal(err)
	}
	if r0.PC%isa.InstBytes != 0 {
		t.Error("PC not at instruction boundary")
	}
	if r0.GPR[isa.SP] == 0 {
		t.Error("SP not initialized")
	}
	if _, err := tr.GetRegs(2); err == nil {
		t.Error("out-of-range tid accepted")
	}
	if err := tr.SetRegs(-1, r0); err == nil {
		t.Error("negative tid accepted")
	}
}

func TestDetachedOperationsAllFail(t *testing.T) {
	pr := spinProcess(t)
	tr := Attach(pr)
	tr.Detach()
	if _, err := tr.PeekData(0x1000); err == nil {
		t.Error("PeekData after detach")
	}
	if err := tr.SetRegs(0, Regs{}); err == nil {
		t.Error("SetRegs after detach")
	}
	if err := tr.ReadMem(0x1000, make([]byte, 8)); err == nil {
		t.Error("ReadMem after detach")
	}
	if err := tr.AgentWrite(0x1000, []byte{1}); err == nil {
		t.Error("AgentWrite after detach")
	}
}
