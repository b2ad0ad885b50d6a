package experiments

import (
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/workloads/wl"
)

// Fig9Point is one workload/input in the TopDown classification plane.
type Fig9Point struct {
	Workload string
	Input    string
	FrontEnd float64 // TopDown front-end share of the original binary
	Retiring float64
	Speedup  float64 // measured OCOLOS speedup
}

// Fig9 reproduces Figure 9: the TopDown front-end share and retiring
// share of the *original* binary predict which workloads OCOLOS will
// speed up. A linear model fit on (FrontEnd, Retiring) classifies
// benefit-vs-no-benefit; the paper uses the same two TopDown features.
func Fig9(cfg Config) error {
	cfg.defaults()
	pts, err := fig9Points(cfg)
	if err != nil {
		return err
	}
	if cfg.CSVDir != "" {
		if err := WriteFig9CSV(pts, cfg.CSVDir+"/fig9.csv"); err != nil {
			return err
		}
	}
	cfg.printf("Figure 9: TopDown features of the original binary vs measured OCOLOS speedup\n")
	cfg.printf("%-9s %-17s %10s %10s %9s\n", "bench", "input", "FE-lat %", "retire %", "speedup")
	for _, p := range pts {
		cfg.printf("%-9s %-17s %10.1f %10.1f %8.2fx\n",
			p.Workload, p.Input, p.FrontEnd*100, p.Retiring*100, p.Speedup)
	}

	// Least-squares fit: speedup ≈ w0 + w1*FE + w2*Retiring.
	w0, w1, w2 := fitPlane(pts)
	correct := 0
	for _, p := range pts {
		pred := w0 + w1*p.FrontEnd + w2*p.Retiring
		if (pred > 1.05) == (p.Speedup > 1.05) {
			correct++
		}
	}
	cfg.printf("linear model speedup ≈ %.2f %+.2f*FE %+.2f*Retiring classifies %d/%d correctly (threshold 1.05x)\n",
		w0, w1, w2, correct, len(pts))

	// §VI-C4's safety net: even if the a-priori classification is wrong,
	// OCOLOS can always revert to C0. Demonstrate on the worst performer.
	worst := pts[0]
	for _, p := range pts {
		if p.Speedup < worst.Speedup {
			worst = p
		}
	}
	w, err := Workload(worst.Workload)
	if err != nil {
		return err
	}
	orig, err := cfg.MeasureOriginal(w, worst.Input)
	if err != nil {
		return err
	}
	threads := cfg.threads(w.Threads)
	d, err := w.NewDriver(worst.Input, threads)
	if err != nil {
		return err
	}
	p, err := proc.Load(w.Binary, proc.Options{Threads: threads, Handler: d})
	if err != nil {
		return err
	}
	ctl, err := core.New(p, w.Binary, core.Options{})
	if err != nil {
		return err
	}
	p.RunFor(cfg.warm())
	if _, err := ctl.OptimizeRound(cfg.profileDur()); err != nil {
		return err
	}
	p.RunFor(cfg.warm() / 2)
	if _, err := ctl.Revert(); err != nil {
		return err
	}
	p.RunFor(cfg.warm())
	reverted := wl.Measure(p, d, cfg.window())
	if err := p.Fault(); err != nil {
		return err
	}
	cfg.printf("worst performer %s/%s (%.2fx): after Revert, %.2fx of original — losses are always recoverable (§VI-C4)\n",
		worst.Workload, worst.Input, worst.Speedup, reverted/orig)
	return nil
}

// fig9Points measures the scatter.
func fig9Points(cfg Config) ([]Fig9Point, error) {
	cfg.defaults()
	var pts []Fig9Point
	for _, name := range ServerWorkloads() {
		w, err := Workload(name)
		if err != nil {
			return nil, err
		}
		inputs := w.Inputs
		if cfg.Quick && len(inputs) > 2 {
			inputs = inputs[:2]
		}
		for _, input := range inputs {
			// TopDown of the original (the DMon-style first-stage check).
			d, err := w.NewDriver(input, cfg.threads(w.Threads))
			if err != nil {
				return nil, err
			}
			p, err := proc.Load(w.Binary, proc.Options{Threads: cfg.threads(w.Threads), Handler: d})
			if err != nil {
				return nil, err
			}
			p.RunFor(cfg.warm())
			td := perf.MeasureTopDown(p, cfg.window()).TopDown()
			if err := p.Fault(); err != nil {
				return nil, err
			}

			orig, err := cfg.MeasureOriginal(w, input)
			if err != nil {
				return nil, err
			}
			ocoT, _, _, err := cfg.OCOLOSRun(w, input, core.Options{})
			if err != nil {
				return nil, err
			}
			pts = append(pts, Fig9Point{
				Workload: name, Input: input,
				FrontEnd: td.FrontEnd, Retiring: td.Retiring,
				Speedup: ocoT / orig,
			})
		}
	}
	return pts, nil
}

// fitPlane solves the 3-parameter least squares via normal equations.
func fitPlane(pts []Fig9Point) (w0, w1, w2 float64) {
	// Build X^T X and X^T y for X rows [1, FE, Ret].
	var a [3][3]float64
	var b [3]float64
	for _, p := range pts {
		x := [3]float64{1, p.FrontEnd, p.Retiring}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				a[i][j] += x[i] * x[j]
			}
			b[i] += x[i] * p.Speedup
		}
	}
	// Gaussian elimination.
	for i := 0; i < 3; i++ {
		// Pivot.
		piv := i
		for r := i + 1; r < 3; r++ {
			if abs(a[r][i]) > abs(a[piv][i]) {
				piv = r
			}
		}
		a[i], a[piv] = a[piv], a[i]
		b[i], b[piv] = b[piv], b[i]
		if abs(a[i][i]) < 1e-12 {
			return 1, 0, 0 // degenerate: fall back to "no benefit anywhere"
		}
		for r := 0; r < 3; r++ {
			if r == i {
				continue
			}
			f := a[r][i] / a[i][i]
			for cix := 0; cix < 3; cix++ {
				a[r][cix] -= f * a[i][cix]
			}
			b[r] -= f * b[i]
		}
	}
	return b[0] / a[0][0], b[1] / a[1][1], b[2] / a[2][2]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
