package experiments

import (
	"repro/internal/core"
	"repro/internal/obj"
	"repro/internal/proc"
	"repro/internal/workloads/wl"
)

// DBI quantifies the argument of §I: dynamic binary instrumentation
// frameworks (Pin, DynamoRIO) could in principle deliver an optimized
// code layout too, but their recurring cost — chaining on direct
// transfers and code-cache lookups on every indirect call/return — eats
// the layout gains, while OCOLOS pays a one-time replacement cost and
// then runs at native speed.
//
// Four configurations on sqldb read_only:
//
//	original              — native, original layout
//	DBI + original layout — what plain Pin execution costs
//	DBI + BOLT layout     — a hypothetical Pin-based online optimizer
//	OCOLOS                — one-time cost, native speed after
func DBI(cfg Config) error {
	cfg.defaults()
	w, err := Workload("sqldb")
	if err != nil {
		return err
	}
	const input = "read_only"
	threads := cfg.threads(w.Threads)

	measure := func(bin *obj.Binary, dbi bool) (float64, error) {
		d, err := w.NewDriver(input, threads)
		if err != nil {
			return 0, err
		}
		p, err := proc.Load(bin, proc.Options{Threads: threads, Handler: d, DBI: dbi})
		if err != nil {
			return 0, err
		}
		p.RunFor(cfg.warm())
		tput := wl.Measure(p, d, cfg.window())
		return tput, p.Fault()
	}

	orig, err := measure(w.Binary, false)
	if err != nil {
		return err
	}
	dbiOrig, err := measure(w.Binary, true)
	if err != nil {
		return err
	}
	boltBin, err := cfg.OracleBolt(w, input)
	if err != nil {
		return err
	}
	dbiBolt, err := measure(boltBin, true)
	if err != nil {
		return err
	}
	oco, _, _, err := cfg.OCOLOSRun(w, input, core.Options{})
	if err != nil {
		return err
	}

	cfg.printf("DBI comparison (sqldb %s), normalized to native original\n", input)
	cfg.printf("%-28s %9s\n", "configuration", "speedup")
	cfg.printf("%-28s %8.2fx\n", "original (native)", 1.0)
	cfg.printf("%-28s %8.2fx\n", "DBI, original layout", dbiOrig/orig)
	cfg.printf("%-28s %8.2fx\n", "DBI, BOLT layout", dbiBolt/orig)
	cfg.printf("%-28s %8.2fx\n", "OCOLOS (native, online)", oco/orig)
	cfg.printf("the DBI framework's recurring per-transfer cost offsets the layout win (§I)\n")
	return nil
}
