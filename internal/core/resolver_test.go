package core

import "testing"

func testResolver() *resolver {
	r := &resolver{}
	r.add(0x400000, 0x400100, "main", 0x400000, 0)
	r.add(0x400100, 0x400200, "f", 0x400100, 0)
	r.add(0x20000000, 0x20000080, "f", 0x20000000, 1) // optimized hot
	r.add(0x28000000, 0x28000040, "f", 0x20000000, 1) // optimized cold
	r.sort()
	return r
}

func TestResolverLookup(t *testing.T) {
	r := testResolver()
	if s, ok := r.at(0x400150); !ok || s.name != "f" || s.version != 0 {
		t.Errorf("at(0x400150) = %+v, %v", s, ok)
	}
	if s, ok := r.at(0x28000010); !ok || s.name != "f" || s.version != 1 || s.entry != 0x20000000 {
		t.Errorf("cold span lookup = %+v, %v", s, ok)
	}
	if _, ok := r.at(0x400200); ok {
		t.Error("end-exclusive boundary resolved")
	}
	if _, ok := r.at(0x300000); ok {
		t.Error("hole resolved")
	}
}

func TestResolverVersionSpans(t *testing.T) {
	r := testResolver()
	if got := len(r.versionSpans(1)); got != 2 {
		t.Errorf("versionSpans(1) = %d spans, want 2 (hot+cold)", got)
	}
}

func TestResolverRejectsOverlap(t *testing.T) {
	r := &resolver{}
	r.add(0x400000, 0x400100, "a", 0x400000, 0)
	r.add(0x4000F0, 0x400200, "b", 0x4000F0, 0)
	defer func() {
		if recover() == nil {
			t.Error("overlapping spans not detected")
		}
	}()
	r.sort()
}

func TestResolverIgnoresEmptySpans(t *testing.T) {
	r := &resolver{}
	r.add(0x400100, 0x400100, "z", 0x400100, 0) // empty: dropped
	r.sort()
	if len(r.spans) != 0 {
		t.Error("empty span retained")
	}
}
