package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/diffcheck"
	"repro/internal/workloads/wl"
)

// tracedReps is how many repetitions run under the span recorder.
const tracedReps = 3

// runTraced is the traced pass. It runs a few untraced repetitions as
// the reference, the traced repetitions under the in-memory recorder,
// and the layer probes, and emits every per-layer metric. End-to-end
// metrics never come from here.
func runTraced(cfg runConfig, e *env, w workload, rp *report) error {
	refFloor, nTraced := 5, tracedReps
	if cfg.smoke {
		refFloor, nTraced = 2, 2
	}
	if _, err := setUp(e, w, 1); err != nil {
		return err
	}
	rp.CalibMS[0] = calibrate()
	ref, wall, err := timedReps(e, w, cfg.seconds/4, refFloor)
	if err != nil {
		return err
	}
	rp.TimedWallS = wall

	rec := newRecorder()
	te := *e
	te.tr = rec
	var traced []*rep
	for i := 0; i < nTraced; i++ {
		rec.rep = i
		r, err := oneRep(&te, w)
		if err != nil {
			return fmt.Errorf("traced repetition %d: %w", i, err)
		}
		traced = append(traced, r)
	}
	rp.CalibMS[1] = calibrate()

	t0 := time.Now()
	att, fails := verifyReps(ref)
	tAtt, tFails := verifyReps(traced)
	vAtt, vFails, err := verifyOutputs(e, w)
	if err != nil {
		return err
	}
	att, fails = att+tAtt+vAtt, append(append(fails, tFails...), vFails...)
	verifySeconds := time.Since(t0).Seconds()

	m, err := probes(e)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}

	// Stage decomposition: median self time per bucket over the traced
	// repetitions.
	perBucket := map[string][]float64{}
	var tracedWall []float64
	for i, r := range traced {
		self := selfTimes(rec.spans, i)
		for _, b := range spanBuckets {
			perBucket[b] = append(perBucket[b], self[b]*1e3)
		}
		tracedWall = append(tracedWall, r.wall*1e3)
	}
	for _, b := range spanBuckets {
		m["span."+b+"_ms"] = median(perBucket[b])
	}
	// The traced repetition's exact counters; a workload without the
	// layer (no cache, no drift) reports 0.
	for k, v := range traced[0].counts {
		m[k] = v
	}
	for k, v := range traced[0].notes {
		m[k] = v
	}

	fillReport(rp, ref, att, fails)
	m["harness.calib_ms"] = (rp.CalibMS[0] + rp.CalibMS[1]) / 2
	m["harness.reps"] = float64(len(ref))
	m["harness.rep_ms_phi"] = rp.RepMSPhi[1]
	m["harness.rep_ms_iqr_pct"] = rp.RepIQRPct
	m["harness.trace_overhead_pct"] = 100 * (median(tracedWall)/median(rp.RepMS) - 1)
	m["harness.verify_s"] = verifySeconds

	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok && !workloadScoped[d.name] {
			return fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		rp.Result.Metrics[d.name] = value{v, d.unit}
	}
	if cfg.out != "" {
		return writeSpans(cfg, rec)
	}
	return nil
}

func writeSpans(cfg runConfig, rec *recorder) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// verifyOutputs is the part of the output check that needs its own
// runs: on paper_round, diffcheck's equivalence oracle (baseline vs
// offline-BOLTed vs replaced mid-run: syscall streams, globals, work
// counts) on single-threaded twins of the five services, same binaries
// and seeded inputs.
func verifyOutputs(e *env, w workload) (attempted int, fails []string, err error) {
	pw, ok := w.(*paperRound)
	if !ok {
		return 0, nil, nil
	}
	for _, pl := range paperPlans {
		g := e.seededWorkload(pw.guests[pl.guest])
		t := diffcheck.Target{
			Name: pl.guest, Input: pl.input, Requests: 150,
			Build: func() (*wl.Workload, error) { return g, nil },
		}
		if pl.guest == "rtlsim" {
			t.Requests = 40 // one request is a whole simulated circuit cycle
		}
		div, err := diffcheck.Check(t)
		if err != nil {
			return 0, nil, fmt.Errorf("diffcheck %s: %w", pl.guest, err)
		}
		attempted++
		if len(div) > 0 {
			fails = append(fails, fmt.Sprintf("diffcheck %s: %d divergences, first: %s", pl.guest, len(div), div[0]))
		}
	}
	return attempted, fails, nil
}
