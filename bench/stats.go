package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. It copies before sorting; an
// empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrPct is the interquartile range as a percentage of the median — the
// spread figure the comparer weighs a delta against.
func iqrPct(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return 100 * (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// highPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, and that percentile's value. Below 20
// samples no percentile above the median qualifies, so it degrades to
// the median.
func highPercentile(xs []float64) (pct, value float64) {
	n := len(xs)
	if n < 20 {
		return 50, median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := n - 11 // ten samples lie strictly beyond s[idx]
	return 100 * float64(idx+1) / float64(n), s[idx]
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sameWithin reports whether every value equals the first to the given
// relative tolerance — the check behind the "exact" simulated metrics.
func sameWithin(xs []float64, rel float64) bool {
	for _, x := range xs[1:] {
		if math.Abs(x-xs[0]) > rel*math.Max(math.Abs(x), math.Abs(xs[0])) {
			return false
		}
	}
	return true
}
