package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/bolt"
	"repro/internal/proc"
)

// TestVersionRegionsDisjoint walks every code version the controller
// accepts: no version's text, jump tables or copies area may overlap C0,
// the heap, the thread stacks or another version's regions. The first
// refused version's copies area must reach the stacks, so the bound is
// the largest safe one.
func TestVersionRegionsDisjoint(t *testing.T) {
	type region struct {
		name   string
		lo, hi uint64
	}
	if asm.DefaultDataBase >= firstTextBase {
		t.Fatalf("C0's data at %#x is not below the first version's text", asm.DefaultDataBase)
	}
	regions := []region{
		{"C0", 0, firstTextBase},
		{"heap", proc.HeapBase, copiesAreaBase},
		{"stacks", stackFloor, proc.StackTop},
	}
	for v := 1; v <= maxVersion; v++ {
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
	if next := copiesArea(maxVersion + 1); next+copiesAreaStride <= stackFloor {
		t.Errorf("version %d's copies area [%#x, %#x) fits too: the bound is not the largest safe version",
			maxVersion+1, next, next+copiesAreaStride)
	}
	if err := versionFits(maxVersion); err != nil {
		t.Error(err)
	}
	if versionFits(maxVersion+1) == nil {
		t.Errorf("version %d accepted", maxVersion+1)
	}
}

// TestRoundPastVersionBoundRefused: at the last version the address space
// holds, a further round (or a Replace, or a Revert) fails before it runs
// the guest or injects anything, and leaves the process and controller as
// they were.
func TestRoundPastVersionBoundRefused(t *testing.T) {
	bin, _ := genProgram(t, 307, 150000)
	pr, c := newController(t, bin, Options{Bolt: bolt.Options{AllowReBolt: true}})
	pr.RunFor(0.0003)
	build, err := c.BuildOptimized(c.Profile(0.0004))
	if err != nil {
		t.Fatal(err)
	}
	c.version = maxVersion
	ctlBefore := c.StateHash()
	_, memBefore := targetFingerprint(t, c)
	steps := []struct {
		name string
		run  func() error
	}{
		{"OptimizeRound", func() error { _, err := c.OptimizeRound(0.0004); return err }},
		{"Replace", func() error { _, err := c.Replace(build.Result.Binary); return err }},
		{"Revert", func() error { _, err := c.Revert(); return err }},
	}
	for _, s := range steps {
		if err := s.run(); err == nil {
			t.Errorf("%s past version %d succeeded", s.name, maxVersion)
		}
		if c.Version() != maxVersion {
			t.Errorf("%s: version %d, want %d", s.name, c.Version(), maxVersion)
		}
		if c.StateHash() != ctlBefore {
			t.Errorf("%s: controller state changed", s.name)
		}
		if _, memAfter := targetFingerprint(t, c); memAfter != memBefore {
			t.Errorf("%s: target process changed", s.name)
		}
	}
}
