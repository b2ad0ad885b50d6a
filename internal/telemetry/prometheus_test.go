package telemetry

import (
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exact exposition of a fixed
// registry: TYPE lines per family, label rendering, summary quantiles,
// _sum/_count, and the snapshot's stable ordering.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("core_rounds_total").Add(3)
	r.Gauge("fleet_services").Set(5)
	h := r.Histogram("fleet_pause_seconds")
	h.Observe(0.25)
	h.Observe(0.75)
	v := r.CounterVec("fleet_stage_errors_total", "stage")
	v.With("Replacing").Add(2)
	v.With("Profiling").Inc()
	hv := r.HistogramVec("core_stage_seconds", "stage")
	hv.With("bolt").Observe(2)
	v.With(`q"u\o`).Inc()

	want := strings.Join([]string{
		`# TYPE core_rounds_total counter`,
		`core_rounds_total 3`,
		`# TYPE core_stage_seconds summary`,
		`core_stage_seconds{stage="bolt",quantile="0.5"} 2`,
		`core_stage_seconds{stage="bolt",quantile="0.95"} 2`,
		`core_stage_seconds{stage="bolt",quantile="1"} 2`,
		`core_stage_seconds_sum{stage="bolt"} 2`,
		`core_stage_seconds_count{stage="bolt"} 1`,
		`# TYPE fleet_pause_seconds summary`,
		`fleet_pause_seconds{quantile="0.5"} 0.75`,
		`fleet_pause_seconds{quantile="0.95"} 0.75`,
		`fleet_pause_seconds{quantile="1"} 0.75`,
		`fleet_pause_seconds_sum 1`,
		`fleet_pause_seconds_count 2`,
		`# TYPE fleet_services gauge`,
		`fleet_services 5`,
		`# TYPE fleet_stage_errors_total counter`,
		`fleet_stage_errors_total{stage="Profiling"} 1`,
		`fleet_stage_errors_total{stage="Replacing"} 2`,
		`fleet_stage_errors_total{stage="q\"u\\o"} 1`,
	}, "\n") + "\n"

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusEmpty(t *testing.T) {
	var b strings.Builder
	if err := NewRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("empty registry exposition = %q", b.String())
	}
	var nilReg *Registry
	if err := nilReg.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry exposition err=%v out=%q", err, b.String())
	}
}
