package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose: helpers must not reorder the caller's slice
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("even-length median = %v, want 2.5", got)
	}
	if median(nil) != 0 || iqrPct(nil) != 0 {
		t.Error("empty input must yield 0")
	}
	if got := iqrPct(xs); !near(got, 100*2.0/3) {
		t.Errorf("iqrPct = %v", got)
	}
}

func TestHighPercentile(t *testing.T) {
	few := make([]float64, 19)
	for i := range few {
		few[i] = float64(i)
	}
	if pct, v := highPercentile(few); pct != 50 || !near(v, 9) {
		t.Errorf("19 samples: p%v = %v, want the median", pct, v)
	}
	many := make([]float64, 40)
	for i := range many {
		many[i] = float64(i + 1)
	}
	// Ten samples (31..40) must lie beyond the reported value.
	if pct, v := highPercentile(many); !near(pct, 75) || !near(v, 30) {
		t.Errorf("40 samples: p%v = %v, want p75 = 30", pct, v)
	}
}

func TestGeomeanMeanSame(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if geomean(nil) != 0 || geomean([]float64{2, 0}) != 0 {
		t.Error("geomean of nothing, or of a non-positive value, must be 0")
	}
	if got := mean([]float64{1, 2, 6}); !near(got, 3) {
		t.Errorf("mean = %v", got)
	}
	if !sameWithin([]float64{1, 1 + 1e-12, 1}, 1e-9) || sameWithin([]float64{1, 1.001}, 1e-9) {
		t.Error("sameWithin misjudged")
	}
	if !sameWithin([]float64{0, 0}, 1e-9) {
		t.Error("zeros are the same")
	}
}
