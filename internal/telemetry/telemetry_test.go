package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentCounters hammers one counter, one gauge, and one
// histogram from many goroutines; totals must be exact (run under
// -race in CI).
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("rounds_total")
			g := r.Gauge("inflight")
			h := r.Histogram("latency")
			for j := 0; j < perWorker; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(id))
			}
		}(i)
	}
	wg.Wait()

	if got := r.Counter("rounds_total").Value(); got != workers*perWorker {
		t.Errorf("counter = %v, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
	if got := r.Histogram("latency").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %v, want %d", got, workers*perWorker)
	}
}

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Add(-10) // ignored
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..100 observed in a scrambled order.
	for i := 0; i < 100; i++ {
		h.Observe(float64((i*37)%100 + 1))
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d", got)
	}
	if got := h.Sum(); got != 5050 {
		t.Errorf("sum = %v, want 5050", got)
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	// Ceil nearest-rank: index ⌈p·(n-1)⌉ of the sorted samples.
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 51}, {0.95, 96}, {1, 100},
	} {
		if got := h.Quantile(tc.p); got != tc.want {
			t.Errorf("q(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Out-of-range p clamps instead of panicking.
	if got := h.Quantile(2); got != 100 {
		t.Errorf("q(2) = %v, want 100", got)
	}
	if got := h.Quantile(-1); got != 1 {
		t.Errorf("q(-1) = %v, want 1", got)
	}
}

// TestQuantileCeilNearestRank pins the ceil semantics on small sample
// sets — the truncation bug returned 1 for the median of [1,2].
func TestQuantileCeilNearestRank(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{"median-of-two", []float64{1, 2}, 0.5, 2},
		{"median-of-two-reversed-insert", []float64{2, 1}, 0.5, 2},
		{"median-of-three", []float64{3, 1, 2}, 0.5, 2},
		{"median-of-four", []float64{4, 1, 3, 2}, 0.5, 3},
		{"p25-of-four", []float64{10, 20, 30, 40}, 0.25, 20},
		{"p75-of-four", []float64{10, 20, 30, 40}, 0.75, 40},
		{"p95-of-two", []float64{1, 2}, 0.95, 2},
		{"p0-of-two", []float64{1, 2}, 0, 1},
		{"single", []float64{7}, 0.5, 7},
		{"single-max", []float64{7}, 1, 7},
		{"exact-rank", []float64{1, 2, 3, 4, 5}, 0.5, 3},
	} {
		var h Histogram
		for _, v := range tc.samples {
			h.Observe(v)
		}
		if got := h.Quantile(tc.p); got != tc.want {
			t.Errorf("%s: q(%v) over %v = %v, want %v", tc.name, tc.p, tc.samples, got, tc.want)
		}
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Error("empty histogram must read as zeros")
	}
}

// TestSeriesRendering pins Point.Series, the one place series names are
// rendered with inlined labels now that the deprecated Label helper is
// gone. The format is load-bearing: the human-readable report keys on
// it.
func TestSeriesRendering(t *testing.T) {
	if got := (Point{Name: "x_total"}).Series(); got != "x_total" {
		t.Errorf("bare name mangled: %q", got)
	}
	p := Point{Name: "x_total", Labels: []LabelPair{
		{Key: "service", Value: "db"}, {Key: "stage", Value: "replace"},
	}}
	if got := p.Series(); got != "x_total{service=db,stage=replace}" {
		t.Errorf("labeled name = %q", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("stage_errors_total", "stage")
	v.With("profile").Inc()
	v.With("replace").Add(2)
	v.With("profile").Inc()

	if got := v.With("profile").Value(); got != 2 {
		t.Errorf("profile series = %v, want 2", got)
	}
	// Same name returns the same family; children are shared.
	if got := r.CounterVec("stage_errors_total", "stage").With("replace").Value(); got != 2 {
		t.Errorf("replace series = %v, want 2", got)
	}

	pts := r.Snapshot()
	if len(pts) != 2 {
		t.Fatalf("snapshot has %d points, want 2", len(pts))
	}
	// Children sorted by label value; Series() renders the flat name the
	// deprecated Label convention produced.
	if pts[0].Series() != "stage_errors_total{stage=profile}" ||
		pts[1].Series() != "stage_errors_total{stage=replace}" {
		t.Errorf("series = %q, %q", pts[0].Series(), pts[1].Series())
	}
	if pts[0].Labels[0] != (LabelPair{"stage", "profile"}) {
		t.Errorf("labels = %+v", pts[0].Labels)
	}
}

func TestGaugeAndHistogramVec(t *testing.T) {
	r := NewRegistry()
	r.Gauge("inflight").Set(3)
	hv := r.HistogramVec("stage_seconds", "service", "stage")
	hv.With("db", "replace").Observe(1)
	hv.With("db", "replace").Observe(3)

	pts := r.Snapshot()
	if len(pts) != 2 {
		t.Fatalf("snapshot has %d points", len(pts))
	}
	if pts[0].Kind != KindGauge || pts[0].Value != 3 {
		t.Errorf("gauge point: %+v", pts[0])
	}
	h := pts[1]
	if h.Kind != KindHistogram || h.Count != 2 || h.Value != 4 || h.Max != 3 {
		t.Errorf("histogram point: %+v", h)
	}
	if h.Series() != "stage_seconds{service=db,stage=replace}" {
		t.Errorf("series = %q", h.Series())
	}
}

func TestVecMisuse(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("v_total", "a", "b")
	// Wrong arity.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong With arity should panic")
			}
		}()
		r.CounterVec("v_total", "a", "b").With("only-one")
	}()
	// Same name, different keys.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("key-set mismatch should panic")
			}
		}()
		r.CounterVec("v_total", "a")
	}()
	// Same name, different vector type.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("type mismatch should panic")
			}
		}()
		r.HistogramVec("v_total", "a", "b")
	}()
}

func TestNilRegistryVecsAreSinks(t *testing.T) {
	var r *Registry
	r.CounterVec("a", "k").With("v").Inc()
	r.HistogramVec("c", "k").With("v").Observe(1)
	if pts := r.Snapshot(); pts != nil {
		t.Errorf("nil registry snapshot = %v", pts)
	}
}

func TestConcurrentVecs(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			stage := "even"
			if id%2 == 1 {
				stage = "odd"
			}
			for j := 0; j < perWorker; j++ {
				r.CounterVec("vec_total", "stage").With(stage).Inc()
				r.HistogramVec("vec_seconds", "stage").With(stage).Observe(1)
			}
		}(i)
	}
	wg.Wait()
	v := r.CounterVec("vec_total", "stage")
	if got := v.With("even").Value() + v.With("odd").Value(); got != workers*perWorker {
		t.Errorf("vec total = %v, want %d", got, workers*perWorker)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("reusing a counter name as a gauge should panic")
		}
	}()
	r.Gauge("m")
}

func TestNilRegistryIsASink(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(2)
	r.Histogram("z").Observe(3)
	if pts := r.Snapshot(); pts != nil {
		t.Errorf("nil registry snapshot = %v, want nil", pts)
	}
}

func TestSnapshotAndReport(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_gauge").Set(7)
	r.Histogram("c_hist").Observe(1)
	r.Histogram("c_hist").Observe(3)

	pts := r.Snapshot()
	if len(pts) != 3 {
		t.Fatalf("snapshot has %d points", len(pts))
	}
	// Sorted by name.
	if pts[0].Name != "a_gauge" || pts[1].Name != "b_total" || pts[2].Name != "c_hist" {
		t.Errorf("snapshot order: %v %v %v", pts[0].Name, pts[1].Name, pts[2].Name)
	}
	if pts[2].Count != 2 || pts[2].Mean != 2 || pts[2].Max != 3 {
		t.Errorf("histogram point: %+v", pts[2])
	}

	var b strings.Builder
	r.WriteReport(&b)
	out := b.String()
	for _, want := range []string{"a_gauge", "b_total", "c_hist", "count=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
