package docdb

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/perf"
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
	if _, err := w.NewDriver("bogus", 1); err == nil {
		t.Error("unknown input accepted")
	}
}

// TestScanMixIsBackEndBound verifies the precondition for the paper's
// scan95_insert5 anomaly: the scan-heavy mix is memory bound, not
// front-end bound, so layout optimization has nothing to attack.
func TestScanMixIsBackEndBound(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation-scale run in -short mode")
	}
	w, err := Build(Full())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := w.NewDriver("scan95_insert5", 4)
	pr, err := w.Load(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	pr.RunFor(0.002)
	td := perf.MeasureTopDown(pr, 0.003).TopDown()
	t.Logf("docdb scan95_insert5 TopDown: %v", td)
	if td.BackEnd < 0.5 {
		t.Errorf("back-end share %.1f%% too low for the scan anomaly", td.BackEnd*100)
	}
	if td.FrontEnd > 0.25 {
		t.Errorf("front-end share %.1f%% too high for a scan mix", td.FrontEnd*100)
	}

	// The read-heavy mix, by contrast, is front-end heavy.
	d2, _ := w.NewDriver("read95_insert5", 4)
	pr2, err := w.Load(d2, 4)
	if err != nil {
		t.Fatal(err)
	}
	pr2.RunFor(0.002)
	td2 := perf.MeasureTopDown(pr2, 0.003).TopDown()
	t.Logf("docdb read95_insert5 TopDown: %v", td2)
	if td2.FrontEnd < 0.2 {
		t.Errorf("read mix front-end share %.1f%% too low", td2.FrontEnd*100)
	}
}
