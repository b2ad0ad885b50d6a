package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
		if w.why == "" || len(w.why) > 200 {
			t.Errorf("workload %q: its why is empty or over 200 characters", w.name)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("metric name %q is malformed or repeated", d.name)
			}
			seen[d.name] = true
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s: unit %q is malformed", d.name, d.unit)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: better = %q", d.name, d.better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if _, ok := metricByName(endToEnd, "setup_s"); !ok {
		t.Error("setup_s must be an end-to-end metric")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's caps", len(perLayer), len(endToEnd))
	}
	for _, b := range spanBuckets {
		if _, ok := metricByName(perLayer, "span."+b+"_ms"); !ok {
			t.Errorf("span bucket %q has no per-layer metric", b)
		}
	}
}

// TestSpecMatchesTables holds BENCHMARK.json to the benchmark's own
// tables, both directions.
func TestSpecMatchesTables(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, declared []specMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(declared), len(defs))
		}
		byName := map[string]specMetric{}
		for _, m := range declared {
			byName[m.Name] = m
			if _, ok := metricByName(defs, m.Name); !ok {
				t.Errorf("%s: BENCHMARK.json declares %s, which the benchmark does not emit", kind, m.Name)
			}
		}
		for _, d := range defs {
			m, ok := byName[d.name]
			if !ok {
				t.Errorf("%s: the benchmark emits %s, which BENCHMARK.json does not declare", kind, d.name)
				continue
			}
			if m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s: BENCHMARK.json has %s/%s, the benchmark %s/%s", d.name, m.Unit, m.Better, d.unit, d.better)
			}
			if (m.Bound == nil) != (d.bound == 0) || (m.Bound != nil && *m.Bound != d.bound) {
				t.Errorf("%s: bound differs between BENCHMARK.json and the benchmark (%v)", d.name, d.bound)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", s.RunSeconds)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Errorf("paths = %v", s.Paths)
	}
}

func emitted(rp *report) []string {
	var names []string
	for k := range rp.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func declared(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := map[string]bool{}, map[string]bool{}
	for _, n := range got {
		g[n] = true
	}
	for _, n := range want {
		w[n] = true
		if !g[n] {
			t.Errorf("%s: %s is declared but was not emitted", what, n)
		}
	}
	for _, n := range got {
		if !w[n] {
			t.Errorf("%s: %s was emitted but is not declared", what, n)
		}
	}
}

// TestSmokeEmitsDeclaredNames runs every workload in smoke mode (two
// repetitions, tiny windows): the untraced run must emit exactly the
// end-to-end names, pass its own output check, and measure something.
func TestSmokeEmitsDeclaredNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, wd := range workloads {
		name := wd.name
		rp, err := run(runConfig{workload: name, seed: 3, smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameNames(t, name, emitted(rp), declared(endToEnd))
		if !rp.Result.Correct || rp.Result.Attempted < 1 || rp.Result.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", name, rp.Result.Correct, rp.Result.Attempted, rp.Result.Failed, rp.Failures)
		}
		for _, n := range []string{"setup_s", "rep_ms_p50", "guest_mips", "cpu_ms_per_rep", "alloc_mb_per_rep", "live_heap_mb", "bolt_runs"} {
			if rp.Result.Metrics[n].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, n, rp.Result.Metrics[n].Value)
			}
		}
		if rp.Result.Metrics["ok_ratio"].Value != 1 {
			t.Errorf("%s: ok_ratio = %v", name, rp.Result.Metrics["ok_ratio"].Value)
		}
		if rp.Reps != 2 || rp.GOMAXPROCS < 1 || rp.GOMAXPROCS > 2 || len(rp.Windows) == 0 {
			t.Errorf("%s: reps=%d GOMAXPROCS=%d windows=%v", name, rp.Reps, rp.GOMAXPROCS, rp.Windows)
		}
	}
}

// TestSmokeTracedEmitsDeclaredNames runs the traced pass once (the layer
// probes are the same whichever workload is traced): it must emit
// exactly the per-layer names, and its stage buckets must sum to the
// traced repetition.
func TestSmokeTracedEmitsDeclaredNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	rp, err := run(runConfig{workload: "churn_reopt", seed: 3, smoke: true, trace: true, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "traced churn_reopt", emitted(rp), declared(perLayer))
	if !rp.Result.Correct {
		t.Errorf("failures: %v", rp.Failures)
	}
	m := rp.Result.Metrics
	sum := 0.0
	for _, b := range spanBuckets {
		sum += m["span."+b+"_ms"].Value
	}
	if sum <= 0 || m["span.bolt_ms"].Value <= 0 || m["span.guest_ms"].Value <= 0 || m["span.verify_ms"].Value <= 0 {
		t.Errorf("stage buckets: sum %v, bolt %v, guest %v, verify %v", sum, m["span.bolt_ms"].Value, m["span.guest_ms"].Value, m["span.verify_ms"].Value)
	}
	if m["proc.super_formed"].Value <= 0 || m["core.bytes_injected"].Value <= 0 || m["trace.events_per_round"].Value <= 0 {
		t.Errorf("the traced repetition's counters are empty: %v %v %v",
			m["proc.super_formed"].Value, m["core.bytes_injected"].Value, m["trace.events_per_round"].Value)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(runConfig{workload: "nope"}); err == nil {
		t.Error("an unknown workload must be an error")
	}
}
