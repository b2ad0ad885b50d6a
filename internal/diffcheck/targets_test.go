package diffcheck

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/workloads"
	"repro/internal/workloads/wl"
)

// Targets returns one diffcheck target per guest in the workloads
// registry, at the small (test) scale. Adding a guest there means adding
// its target here (docs/testing.md); TestTargetsCoverEveryGuest checks.
func Targets() []Target {
	ts := []Target{
		{Name: "kvcache", Input: "set10_get90", Requests: 600},
		{Name: "sqldb", Input: "point_select", Requests: 250},
		{Name: "docdb", Input: "read95_insert5", Requests: 300},
		{Name: "rtlsim", Input: "dhrystone", Requests: 400},
		{Name: "loopsim", Input: "steady", Requests: 150},
		{Name: "compilersim", Input: "tu:3"}, // batch: one translation unit, natural halt
	}
	for i := range ts {
		name := ts[i].Name
		ts[i].Build = func() (*wl.Workload, error) { return workloads.Build(name, true) }
	}
	return ts
}

// TargetByName finds a target in Targets.
func TargetByName(name string) (Target, error) {
	for _, t := range Targets() {
		if t.Name == name {
			return t, nil
		}
	}
	return Target{}, fmt.Errorf("diffcheck: no target %q", name)
}

// BoltedWith is Bolted with sabotage hooks, for the negative tests.
func BoltedWith(t Target, hooks Hooks) (*Trace, error) { return runStatic(t, true, hooks) }

func TestTargetsCoverEveryGuest(t *testing.T) {
	var names []string
	for _, tgt := range Targets() {
		names = append(names, tgt.Name)
	}
	want := workloads.Names()
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("targets %v, guests %v", names, want)
	}
}
