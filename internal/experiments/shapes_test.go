package experiments

import (
	"io"
	"testing"

	"repro/internal/core"
)

// TestPaperShapes pins the qualitative results of Figure 5 (quick mode):
// which workloads win, roughly by how much, and the orderings between
// configurations. These are the claims the reproduction stands on, so
// they are enforced as a regression test.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute shape regression in -short mode")
	}
	cfg := Config{Quick: true, Out: io.Discard}

	speedup := func(wl, input string) float64 {
		w, err := Workload(wl)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := cfg.MeasureOriginal(w, input)
		if err != nil {
			t.Fatal(err)
		}
		oco, _, _, err := cfg.OCOLOSRun(w, input, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return oco / orig
	}

	// The front-end-bound database mix wins big (paper: 1.41×).
	if s := speedup("sqldb", "read_only"); s < 1.2 || s > 1.6 {
		t.Errorf("sqldb read_only speedup %.2f outside [1.2, 1.6]", s)
	}
	// The chip simulator is the biggest winner (paper: up to 2.2×).
	if s := speedup("rtlsim", "dhrystone"); s < 1.8 || s > 2.9 {
		t.Errorf("rtlsim dhrystone speedup %.2f outside [1.8, 2.9]", s)
	}
	// The tiny key-value cache barely moves (paper: ~1.05×).
	if s := speedup("kvcache", "set10_get90"); s < 0.97 || s > 1.15 {
		t.Errorf("kvcache speedup %.2f outside [0.97, 1.15]", s)
	}
	// The memory-bound scan mix gets no benefit (paper: a regression; our
	// DRAM model bounds it at ≈1.0 — see DESIGN.md deviations).
	if s := speedup("docdb", "scan95_insert5"); s < 0.9 || s > 1.1 {
		t.Errorf("docdb scan95 speedup %.2f outside [0.9, 1.1]", s)
	}

	// Configuration ordering on sqldb read_only: compiler PGO with the
	// same oracle profile trails BOLT (§VI-B).
	w, err := Workload("sqldb")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := cfg.MeasureOriginal(w, "read_only")
	if err != nil {
		t.Fatal(err)
	}
	boltBin, err := cfg.OracleBolt(w, "read_only")
	if err != nil {
		t.Fatal(err)
	}
	boltT, err := cfg.MeasureBinary(w, boltBin, "read_only")
	if err != nil {
		t.Fatal(err)
	}
	pgoBin, err := cfg.OraclePGO(w, "read_only")
	if err != nil {
		t.Fatal(err)
	}
	pgoT, err := cfg.MeasureBinary(w, pgoBin, "read_only")
	if err != nil {
		t.Fatal(err)
	}
	if !(pgoT > orig) {
		t.Errorf("PGO (%.0f) should beat original (%.0f)", pgoT, orig)
	}
	if !(boltT > pgoT) {
		t.Errorf("BOLT (%.0f) should beat PGO (%.0f) — the mapping-loss effect", boltT, pgoT)
	}
}
