package experiments

import (
	"fmt"

	"repro/internal/bam"
	"repro/internal/bolt"
	"repro/internal/obj"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/workloads/wl"
)

// Fig10 reproduces Figure 10: a from-scratch compiler build under BAM.
// For each number of profiled compiler executions k, two series are
// reported: the *ideal* build time (the k-profile BOLTed compiler
// available from the very start, no overheads) and the *actual BAM* build
// time (profiled runs are slower, the optimized binary arrives only after
// the background pipeline finishes). The original build and the
// full-profile BOLT build bound the plot from above and below.
func Fig10(cfg Config) error {
	cfg.defaults()
	w, err := Workload("compilersim")
	if err != nil {
		return err
	}
	njobs, slots := 192, 16
	ks := []int{1, 2, 3, 5, 8, 16, 32, 64, 128, 192}
	if cfg.Quick {
		njobs, slots = 64, 8
		ks = []int{1, 2, 4, 8, 16, 32, 64}
	}

	run := makeJobRunner(w)
	orig, err := bam.RunBaseline(w.Binary, slots, njobs, run)
	if err != nil {
		return err
	}

	// Pipeline wall time: measured against one job's duration (the paper's
	// perf2bolt+BOLT takes a couple of compiler-execution times).
	oneJob, err := run(w.Binary, false)
	if err != nil {
		return err
	}
	pipeline := 1.5 * oneJob.Seconds

	// Lower bound: profile every TU, optimize, rebuild from scratch.
	lower, err := idealBuild(cfg, w, njobs, njobs, slots, run)
	if err != nil {
		return err
	}

	cfg.printf("Figure 10: compilersim build, %d TUs, -j%d (times in simulated ms)\n", njobs, slots)
	cfg.printf("original build:        %8.3f ms\n", orig.MakespanSeconds*1e3)
	cfg.printf("BOLT full profile:     %8.3f ms (lower bound, %.2fx)\n",
		lower*1e3, orig.MakespanSeconds/lower)
	cfg.printf("%8s %12s %12s %10s %10s\n", "k", "ideal (ms)", "BAM (ms)", "ideal spd", "BAM spd")

	for _, k := range ks {
		ideal, err := idealBuild(cfg, w, k, njobs, slots, run)
		if err != nil {
			return err
		}
		res, err := bam.Run(bam.Config{
			Target:          w.Binary,
			ProfileRuns:     k,
			Slots:           slots,
			PipelineSeconds: pipeline,
		}, njobs, run)
		if err != nil {
			return err
		}
		cfg.printf("%8d %12.3f %12.3f %9.2fx %9.2fx\n",
			k, ideal*1e3, res.MakespanSeconds*1e3,
			orig.MakespanSeconds/ideal, orig.MakespanSeconds/res.MakespanSeconds)
	}
	return nil
}

// makeJobRunner returns a RunJob that compiles one TU per invocation,
// cycling TU identities.
func makeJobRunner(w *wl.Workload) bam.RunJob {
	tu := 0
	return func(bin *obj.Binary, profile bool) (bam.JobResult, error) {
		input := fmt.Sprintf("tu:%d", tu)
		tu++
		d, err := w.NewDriver(input, 1)
		if err != nil {
			return bam.JobResult{}, err
		}
		p, err := proc.Load(bin, proc.Options{Threads: 1, Handler: d})
		if err != nil {
			return bam.JobResult{}, err
		}
		var rec *perf.Recorder
		if profile {
			rec = perf.Attach(p, perf.RecorderOptions{PeriodCycles: 3000, OverheadCycles: 600})
		}
		p.RunUntilHalt(0)
		if err := p.Fault(); err != nil {
			return bam.JobResult{}, err
		}
		jr := bam.JobResult{Seconds: p.Seconds()}
		if rec != nil {
			jr.Raw = rec.Stop()
		}
		return jr, nil
	}
}

// idealBuild measures the build time when a binary optimized from the
// first k TUs' profiles is available from the very start (no profiling
// overhead, no pipeline wait) — the green curve of Figure 10.
func idealBuild(cfg Config, w *wl.Workload, k, njobs, slots int, run bam.RunJob) (float64, error) {
	var agg perf.RawProfile
	for i := 0; i < k; i++ {
		d, err := w.NewDriver(fmt.Sprintf("tu:%d", i), 1)
		if err != nil {
			return 0, err
		}
		p, err := proc.Load(w.Binary, proc.Options{Threads: 1, Handler: d})
		if err != nil {
			return 0, err
		}
		rec := perf.Attach(p, perf.RecorderOptions{PeriodCycles: 3000, OverheadCycles: 600})
		p.RunUntilHalt(0)
		if err := p.Fault(); err != nil {
			return 0, err
		}
		raw := rec.Stop()
		agg.Samples = append(agg.Samples, raw.Samples...)
	}
	prof, err := bolt.ConvertProfile(&agg, w.Binary)
	if err != nil {
		return 0, err
	}
	res, err := bolt.Optimize(w.Binary, prof, bolt.Options{})
	if err != nil {
		return 0, err
	}
	out, err := bam.RunBaseline(res.Binary, slots, njobs, run)
	if err != nil {
		return 0, err
	}
	return out.MakespanSeconds, nil
}
