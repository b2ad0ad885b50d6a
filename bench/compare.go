package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// perLayerThreshold stands in for a bound when comparing per-layer
// metrics, which have none: the 10 % the ROADMAP names for "any tracked
// number". Their verdicts are information, not a gate.
const perLayerThreshold = 0.10

// verdict classifies side B against side A for one metric.
//
//	unresolved  the spread between runs of one side is wider than the
//	            bound and the two sides' runs overlap
//	worse       B's median is worse than A's by more than the bound (or
//	            every run of B is worse than every run of A)
//	better      the mirror image
//	same        the medians differ by no more than the bound
func verdict(a, b []float64, better string, bound float64) string {
	sign := 1.0 // worseBy > 0 means B is worse
	if better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return "same"
		}
		return "unresolved"
	}
	worseBy := sign * (mb - ma) / math.Abs(ma)
	spread := math.Max(quantile(a, 0.75)-quantile(a, 0.25), quantile(b, 0.75)-quantile(b, 0.25)) / math.Abs(ma)

	minA, maxA := quantile(a, 0), quantile(a, 1)
	minB, maxB := quantile(b, 0), quantile(b, 1)
	// Every run of B beyond every run of A, in one direction or the other.
	allWorse, allBetter := minB > maxA, maxB < minA
	if better == "higher" {
		allWorse, allBetter = allBetter, allWorse
	}
	switch {
	case spread > bound && !allWorse && !allBetter:
		return "unresolved"
	case spread > bound && allWorse:
		return "worse"
	case spread > bound && allBetter:
		return "better"
	case worseBy > bound:
		return "worse"
	case worseBy < -bound:
		return "better"
	}
	return "same"
}

// loadRuns reads a runs.jsonl file into workload → trace flag → metric
// → one value per run. Smoke runs are skipped: their windows differ.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rp report
		if err := json.Unmarshal(sc.Bytes(), &rp); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rp.Smoke {
			continue
		}
		if out[rp.Workload] == nil {
			out[rp.Workload] = map[string][]float64{}
		}
		for name, v := range rp.Result.Metrics {
			out[rp.Workload][name] = append(out[rp.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, for every (workload, metric) both files have,
// each side's median and quartiles, the delta against the metric's
// bound, and the verdict — one workload per row.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tdelta\tbound\tverdict\n")
	rows := 0
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			for _, wd := range workloads {
				wl := wd.name
				xa, xb := a[wl][d.name], b[wl][d.name]
				if len(xa) == 0 || len(xb) == 0 {
					continue
				}
				bound, shown := d.bound, fmt.Sprintf("%.0f%%", 100*d.bound)
				if bound == 0 {
					bound, shown = perLayerThreshold, "-"
				}
				delta := "n/a"
				if ma := median(xa); ma != 0 {
					delta = fmt.Sprintf("%+.2f%%", 100*(median(xb)-ma)/math.Abs(ma))
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", wl, d.name, d.unit,
					summary(xa), summary(xb), delta, shown, verdict(xa, xb, d.better, bound))
				rows++
			}
		}
	}
	if rows == 0 {
		return fmt.Errorf("no (workload, metric) pair appears in both %s and %s", pathA, pathB)
	}
	return tw.Flush()
}

func summary(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
}
