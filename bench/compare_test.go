package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	tight := []float64{100, 100.5, 101, 100.2, 99.8}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same within bound", tight, []float64{102, 102.5, 103, 102.2, 101.8}, "lower", 0.08, "same"},
		{"worse beyond bound", tight, []float64{112, 112.5, 113, 112.2, 111.8}, "lower", 0.08, "worse"},
		{"better beyond bound", tight, []float64{80, 80.5, 81, 80.2, 79.8}, "lower", 0.08, "better"},
		{"higher is better: drop is worse", tight, []float64{80, 80.5, 81, 80.2, 79.8}, "higher", 0.08, "worse"},
		{"higher is better: rise is better", tight, []float64{120, 121, 119, 120.5, 120}, "higher", 0.08, "better"},
		{"wide spread, overlapping", []float64{90, 100, 110, 120, 80}, []float64{95, 105, 115, 125, 85}, "lower", 0.08, "unresolved"},
		{"wide spread, every run worse", []float64{90, 100, 110, 120, 80}, []float64{130, 150, 170, 190, 125}, "lower", 0.08, "worse"},
		{"wide spread, every run better", []float64{90, 100, 110, 120, 80}, []float64{30, 50, 70, 79, 25}, "lower", 0.08, "better"},
		{"exact counters equal", []float64{6, 6, 6}, []float64{6, 6, 6}, "lower", 0.01, "same"},
		{"both zero", []float64{0, 0}, []float64{0, 0}, "lower", 0.1, "same"},
	} {
		if got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func writeRuns(t *testing.T, path, workload string, repMS []float64) {
	t.Helper()
	var buf bytes.Buffer
	for _, v := range repMS {
		rp := report{Workload: workload, Result: result{Correct: true, Attempted: 1, Metrics: map[string]value{
			"rep_ms_p50": {v, "ms"}, "bolt_runs": {6, "count/rep"}, "not_a_metric": {1, "x"},
		}}}
		line, err := json.Marshal(rp)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	smoke, _ := json.Marshal(report{Workload: workload, Smoke: true, Result: result{Metrics: map[string]value{"rep_ms_p50": {1, "ms"}}}})
	buf.Write(append(smoke, '\n'))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	writeRuns(t, a, "churn_reopt", []float64{500, 502, 498})
	writeRuns(t, b, "churn_reopt", []float64{600, 603, 597}) // +20 %: inside rep_ms_p50's 25 % bound
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 { // header + the two metrics both sides have and the benchmark defines
		t.Fatalf("got %d lines:\n%s", len(lines), out.String())
	}
	for _, want := range []string{"churn_reopt", "rep_ms_p50", "+20.00%", "25%", "same", "(3)"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("row %q lacks %q", lines[1], want)
		}
	}
	if !strings.Contains(lines[2], "bolt_runs") || !strings.Contains(lines[2], "same") {
		t.Errorf("row %q", lines[2])
	}

	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(&out, a, empty); err == nil {
		t.Error("comparing against a file with no runs must fail")
	}
	if err := compareFiles(&out, a, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("a missing file must fail")
	}
}
