package experiments

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

func TestRegistryCoversDesignIndex(t *testing.T) {
	// The per-experiment index in DESIGN.md promises these names.
	want := []string{"fig1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "tab1", "tab2", "ablate", "dbi", "recover", "stagger", "fleet", "phase"}
	for _, name := range want {
		if Registry[name] == nil {
			t.Errorf("experiment %q missing from registry", name)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d entries, DESIGN.md indexes %d", len(Registry), len(want))
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Names() not sorted")
		}
	}
}

func TestFig1Prints(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1(Config{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Broadwell", "Zen 2", "32 K"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
	// Intel's line is flat at 32 KiB — the figure's whole point.
	for _, p := range Fig1Data {
		if p.Vendor == "Intel" && p.KiB != 32 {
			t.Errorf("Intel %s has %d KiB; the paper's Figure 1 shows a flat 32", p.Uarch, p.KiB)
		}
	}
}

func TestFitPlaneRecoversKnownModel(t *testing.T) {
	// Points generated from speedup = 0.9 + 2*FE - 0.5*Retiring.
	var pts []Fig9Point
	for _, fe := range []float64{0.1, 0.3, 0.5, 0.7} {
		for _, ret := range []float64{0.1, 0.2, 0.4} {
			pts = append(pts, Fig9Point{FrontEnd: fe, Retiring: ret, Speedup: 0.9 + 2*fe - 0.5*ret})
		}
	}
	w0, w1, w2 := fitPlane(pts)
	if math.Abs(w0-0.9) > 1e-6 || math.Abs(w1-2) > 1e-6 || math.Abs(w2+0.5) > 1e-6 {
		t.Errorf("fit = (%f, %f, %f), want (0.9, 2, -0.5)", w0, w1, w2)
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if _, err := Workload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWorkloadCache(t *testing.T) {
	a, err := Workload("kvcache")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Workload("kvcache")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("workload not cached")
	}
}

func TestCSVWriters(t *testing.T) {
	dir := t.TempDir()
	rows := []Fig5Row{{Workload: "w", Input: "i", Original: 100, OCOLOS: 1.4, BoltOr: 1.41, PGOOr: 1.2, BoltAvg: 1.3}}
	p5 := dir + "/fig5.csv"
	if err := WriteFig5CSV(rows, p5); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "1.4000") || !strings.Contains(string(b), "workload,input") {
		t.Errorf("fig5 csv content: %s", b)
	}

	pts := []Fig9Point{{Workload: "w", Input: "i", FrontEnd: 0.4, Retiring: 0.2, Speedup: 1.4}}
	p9 := dir + "/fig9.csv"
	if err := WriteFig9CSV(pts, p9); err != nil {
		t.Fatal(err)
	}
	b, err = os.ReadFile(p9)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "0.4000") {
		t.Errorf("fig9 csv content: %s", b)
	}
}

// TestFig5Summary pins the summary line's arithmetic on fixture rows:
// both leads are differences of means, in points of the original
// binary's throughput.
func TestFig5Summary(t *testing.T) {
	rows := []Fig5Row{
		{OCOLOS: 1.5, BoltOr: 1.6, BoltAvg: 1.2},
		{OCOLOS: 1.1, BoltOr: 1.2, BoltAvg: 1.0},
	}
	want := "means: OCOLOS 1.300x, BOLT-oracle 1.400x (gap 10.0 points); OCOLOS vs BOLT-avg +20.0 points"
	if got := fig5Summary(rows); got != want {
		t.Errorf("fig5Summary =\n%s\nwant\n%s", got, want)
	}
}
