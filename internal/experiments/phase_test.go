package experiments

import (
	"encoding/csv"
	"os"
	"strings"
	"testing"
)

// TestPhaseExperiment is the acceptance gate for the drift subsystem's
// end-to-end story: after each hot-tenant turn the drift arm must
// re-optimize back to ≥95% of its post-initial-wave level, while the
// no-drift ablation stays structurally stale — zero re-optimizations,
// still serving the turn-0 layout.
func TestPhaseExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("two full drift timelines in -short mode")
	}
	const turns, tenants = 2, 3
	res, err := RunPhase(true, turns, tenants)
	if err != nil {
		t.Fatal(err)
	}

	opt := res.Optimized["drift"]
	if opt <= 0 {
		t.Fatal("drift arm has no optimized level")
	}
	for turn := 1; turn <= turns; turn++ {
		rec, ok := res.Recovered[turn]
		if !ok {
			t.Fatalf("turn %d never re-optimized", turn)
		}
		if ratio := rec / opt; ratio < 0.95 {
			t.Errorf("turn %d recovered to only %.1f%% of the optimized level", turn, 100*ratio)
		}
		if _, ok := res.Stale[turn]; !ok {
			t.Errorf("turn %d has no ablation measurement", turn)
		}
	}

	reopts := 0
	for _, pt := range res.Points {
		switch {
		case pt.Arm == "no_drift" && pt.Reopts != 0:
			t.Errorf("ablation point %+v counts re-optimizations", pt)
		case pt.Arm == "drift" && pt.Event == "reoptimized":
			reopts = pt.Reopts
			if pt.DriftScore <= 0 {
				t.Errorf("reoptimized point %+v carries no drift score", pt)
			}
		}
	}
	if reopts != turns {
		t.Errorf("drift arm finished with %d reopts, want %d", reopts, turns)
	}

	// The CSV artifact round-trips: header plus one line per point.
	path := t.TempDir() + "/phase.csv"
	if err := WritePhaseCSV(res, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(res.Points)+1 {
		t.Errorf("csv has %d rows, want %d points + header", len(rows), len(res.Points))
	}
	if got := strings.Join(rows[0], ","); got != "arm,turn,event,sim_s,throughput,drift_score,reopts" {
		t.Errorf("csv header %q", got)
	}
}
