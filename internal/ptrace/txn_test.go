package ptrace

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/proc"
)

// fingerprint captures everything a rollback promises to restore: memory
// contents of every resident range, page residency itself, register files,
// and the agent-region registry.
type fingerprint struct {
	ranges   [][2]uint64
	contents map[uint64][]byte
	regs     []Regs
	regions  string
	resident uint64
}

func snapshotTarget(t *testing.T, tr *Tracee) fingerprint {
	t.Helper()
	p := tr.p
	fp := fingerprint{
		ranges:   p.Mem.MappedRanges(),
		contents: make(map[uint64][]byte),
		resident: p.Mem.ResidentBytes(),
	}
	for _, r := range fp.ranges {
		b := make([]byte, r[1]-r[0])
		p.Mem.Read(r[0], b)
		fp.contents[r[0]] = b
	}
	for tid := 0; tid < tr.Threads(); tid++ {
		r, err := tr.rawGetRegs(tid)
		if err != nil {
			t.Fatal(err)
		}
		fp.regs = append(fp.regs, r)
	}
	for _, r := range p.Regions() {
		fp.regions += string(rune(r.Addr)) + string(rune(r.Size))
	}
	return fp
}

func requireSame(t *testing.T, want, got fingerprint) {
	t.Helper()
	if len(want.ranges) != len(got.ranges) {
		t.Fatalf("mapped ranges: %d != %d\nwant %x\ngot  %x", len(want.ranges), len(got.ranges), want.ranges, got.ranges)
	}
	for i := range want.ranges {
		if want.ranges[i] != got.ranges[i] {
			t.Fatalf("range %d: %x != %x", i, want.ranges[i], got.ranges[i])
		}
	}
	for base, wb := range want.contents {
		gb := got.contents[base]
		for i := range wb {
			if wb[i] != gb[i] {
				t.Fatalf("byte at %#x differs: %#x != %#x", base+uint64(i), wb[i], gb[i])
			}
		}
	}
	if want.resident != got.resident {
		t.Fatalf("resident bytes: %d != %d", want.resident, got.resident)
	}
	for tid := range want.regs {
		if want.regs[tid] != got.regs[tid] {
			t.Fatalf("thread %d regs differ", tid)
		}
	}
	if want.regions != got.regions {
		t.Fatal("agent regions differ")
	}
}

func TestTxnRollbackRestoresEverything(t *testing.T) {
	pr := spinProcess(t)
	tr := Attach(pr)
	defer tr.Detach()
	// A pre-existing scratch region outside the transaction, with one
	// resident page.
	if err := tr.Map(0xB000_0000, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := tr.PokeData(0xB000_0000, 0x1122); err != nil {
		t.Fatal(err)
	}

	before := snapshotTarget(t, tr)
	x := Begin(tr)

	// Overwrite existing code bytes and the resident scratch word.
	if err := x.PokeData(pr.Bin.Entry, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if err := x.PokeData(0xB000_0000, 0x3344); err != nil {
		t.Fatal(err)
	}
	// Write into a never-touched page of the scratch region: the page is
	// allocated by the write and must be released by the undo.
	if err := x.AgentWrite(0xB000_9000, []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	// Map a new region and dirty it.
	if err := x.Map(0xC000_0000, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := x.AgentWrite(0xC000_0000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Unmap the pre-existing region entirely (resident page included).
	if err := x.Unmap(0xB000_0000, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Registers.
	r0, err := x.GetRegs(0)
	if err != nil {
		t.Fatal(err)
	}
	r0.PC = pr.Bin.Entry
	r0.GPR[isa.R5] = 0xF00D
	if err := x.SetRegs(0, r0); err != nil {
		t.Fatal(err)
	}

	if len(x.undos) != 7 {
		t.Errorf("journal holds %d records, want 7", len(x.undos))
	}
	if err := x.Rollback(); err != nil {
		t.Fatal(err)
	}
	requireSame(t, before, snapshotTarget(t, tr))

	// Rollback is idempotent once closed.
	if err := x.Rollback(); err != nil {
		t.Fatal(err)
	}
	requireSame(t, before, snapshotTarget(t, tr))
}

// TestTxnPokeCopiesSharedPage: two processes loaded from one binary share
// its text, so a Txn poke into it is the first write to a shared page. It
// gives the poked process a private copy, journals no fresh page and
// moves no residency count; neither the poke nor its rollback shows in
// the other process or in the binary's image.
func TestTxnPokeCopiesSharedPage(t *testing.T) {
	bin := spinBinary(t)
	text := bin.Section(obj.SecText)
	requireText := func(who string, m *mem.AddressSpace) {
		t.Helper()
		got := make([]byte, len(text.Data))
		m.Read(text.Addr, got)
		if !bytes.Equal(got, text.Data) {
			t.Fatalf("%s: text differs from the binary's", who)
		}
	}
	pr, err := proc.Load(bin, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := proc.Load(bin, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := Attach(pr)
	defer tr.Detach()
	before := snapshotTarget(t, tr)
	otherRSS := other.Mem.ResidentBytes()

	x := Begin(tr)
	if err := x.PokeData(bin.Entry, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if fresh := x.undos[0].fresh; len(fresh) != 0 {
		t.Errorf("the poke journaled fresh pages %v; the shared page was resident", fresh)
	}
	if got := pr.Mem.ResidentBytes(); got != before.resident {
		t.Errorf("the poke moved RSS %d -> %d", before.resident, got)
	}
	if v, _ := tr.PeekData(bin.Entry); v != 0xDEAD {
		t.Errorf("poked word reads %#x", v)
	}
	requireText("the other process after the poke", other.Mem)

	if err := x.Rollback(); err != nil {
		t.Fatal(err)
	}
	requireSame(t, before, snapshotTarget(t, tr))
	requireText("the other process after the rollback", other.Mem)
	requireText("the image after the rollback", bin.Image().Map())
	if got := other.Mem.ResidentBytes(); got != otherRSS {
		t.Errorf("the other process's RSS moved %d -> %d", otherRSS, got)
	}
}

func TestTxnCommitKeepsEffects(t *testing.T) {
	pr := spinProcess(t)
	tr := Attach(pr)
	defer tr.Detach()
	x := Begin(tr)
	if err := x.Map(0x9000_0000, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := x.PokeData(0x9000_0000, 77); err != nil {
		t.Fatal(err)
	}
	x.Commit()
	if err := x.Rollback(); err != nil { // no-op after commit
		t.Fatal(err)
	}
	if v, err := tr.PeekData(0x9000_0000); err != nil || v != 77 {
		t.Errorf("committed write lost: %v %v", v, err)
	}
}

func TestTxnFaultMidStreamRollsBackCleanly(t *testing.T) {
	pr := spinProcess(t)
	tr := Attach(pr)
	defer tr.Detach()
	before := snapshotTarget(t, tr)

	boom := errors.New("boom")
	x := Begin(tr)
	if err := x.Map(0x9000_0000, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := x.AgentWrite(0x9000_0000, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	// Fail the next op through the hook: the op must not be journaled and
	// the rollback must still restore the pre-transaction state exactly —
	// including bypassing the hook itself.
	tr.FaultHook = func(op string, n int) error { return boom }
	if err := x.PokeData(pr.Bin.Entry, 1); !errors.Is(err, boom) {
		t.Fatalf("hook did not fail the poke: %v", err)
	}
	if len(x.undos) != 2 {
		t.Errorf("failed op was journaled: %d records", len(x.undos))
	}
	if err := x.Rollback(); err != nil {
		t.Fatal(err)
	}
	tr.FaultHook = nil
	requireSame(t, before, snapshotTarget(t, tr))
}
