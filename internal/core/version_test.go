package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/bolt"
	"repro/internal/isa"
	"repro/internal/proc"
)

// TestVersionRegionsDisjoint walks the ring of address slots: no slot's
// text, jump tables or copies area may overlap C0, the heap, the thread
// stacks or another slot's regions, and the last slot's copies area ends
// below the stacks. Versions past the ring reuse its slots in order, so
// consecutive versions (the only two a round has mapped at once) never
// share one.
func TestVersionRegionsDisjoint(t *testing.T) {
	type region struct {
		name   string
		lo, hi uint64
	}
	// The thread stacks: 64 GiB below proc.StackTop, room for 32,768
	// threads at proc.StackGap.
	const stackFloor = proc.StackTop - 0x0010_0000_0000
	if asm.DefaultDataBase >= firstTextBase {
		t.Fatalf("C0's data at %#x is not below the first version's text", asm.DefaultDataBase)
	}
	regions := []region{
		{"C0", 0, firstTextBase},
		{"heap", proc.HeapBase, copiesAreaBase},
		{"stacks", stackFloor, proc.StackTop},
	}
	for v := 1; v <= versionSlots; v++ {
		regions = append(regions,
			region{fmt.Sprintf("version %d text", v), textBase(v), textBase(v) + roOffset},
			region{fmt.Sprintf("version %d rodata", v), textBase(v) + roOffset, textBase(v) + versionStride},
			region{fmt.Sprintf("version %d copies", v), copiesArea(v), copiesArea(v) + copiesAreaStride})
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i].lo < regions[j].lo })
	for i := 1; i < len(regions); i++ {
		if a, b := regions[i-1], regions[i]; b.lo < a.hi {
			t.Errorf("%s [%#x, %#x) overlaps %s [%#x, %#x)", a.name, a.lo, a.hi, b.name, b.lo, b.hi)
		}
	}
	if end := copiesArea(versionSlots) + copiesAreaStride; end > stackFloor {
		t.Errorf("slot %d's copies area ends at %#x, in the stacks from %#x", versionSlots, end, stackFloor)
	}
	for v := 1; v <= 3*versionSlots; v++ {
		ring := (v-1)%versionSlots + 1
		if textBase(v) != textBase(ring) || copiesArea(v) != copiesArea(ring) {
			t.Errorf("version %d does not reuse version %d's slot", v, ring)
		}
		if textBase(v) == textBase(v+1) || copiesArea(v) == copiesArea(v+1) {
			t.Errorf("versions %d and %d share a slot", v, v+1)
		}
	}
}

// TestVTableEntryInRegisterFollowsItsSlot parks a thread between a
// v-table load and its CALLR, with the loaded entry in the running
// version's code, then runs a round and a Revert. Each garbage-collects
// the code the register points into, so each must re-aim the register
// where the v-table slot now points, or the CALLR jumps into unmapped
// memory.
func TestVTableEntryInRegisterFollowsItsSlot(t *testing.T) {
	bin, _ := genProgram(t, 5, 1<<30)
	pr, c := newController(t, bin, Options{Bolt: bolt.Options{AllowReBolt: true}})
	pr.RunFor(0.0003)
	if _, err := c.OptimizeRound(0.0005); err != nil {
		t.Fatal(err)
	}
	// parkAtCallR single-steps the thread until its next instruction is a
	// CALLR through a register holding an entry of the running version.
	parkAtCallR := func() {
		th := pr.Threads[0]
		for i := 0; i < 1_000_000; i++ {
			if in, err := isa.Decode(pr.Mem.CodeSlice(th.PC)); err == nil && in.Op == isa.CALLR {
				target := th.Reg(in.Rs1)
				if s, ok := c.res.at(target); ok && s.version == c.version && s.entry == target {
					return
				}
			}
			if !pr.Step(th) {
				t.Fatalf("thread stopped while stepping: %v", pr.Fault())
			}
		}
		t.Fatalf("no CALLR through an entry of version %d", c.version)
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"round 2", func() error {
			build, err := c.BuildOptimized(c.Profile(0.0005))
			if err == nil {
				parkAtCallR()
				_, err = c.Replace(build.Result.Binary)
			}
			return err
		}},
		{"revert", func() error {
			parkAtCallR()
			_, err := c.Revert()
			return err
		}},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		pr.RunFor(0.0002)
		if err := pr.Fault(); err != nil {
			t.Fatalf("after %s: %v", s.name, err)
		}
	}
}
