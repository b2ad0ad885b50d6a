package experiments

import (
	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/perf"
)

// Fig3 reproduces Figure 3: the input sensitivity of offline BOLT. The
// sqldb workload always *runs* read_only, but BOLT's profile comes from
// each training input in turn (plus all inputs aggregated). OCOLOS, which
// always profiles the current input, should track the best bar.
func Fig3(cfg Config) error {
	cfg.defaults()
	w, err := Workload("sqldb")
	if err != nil {
		return err
	}
	const runInput = "read_only"

	orig, err := cfg.MeasureOriginal(w, runInput)
	if err != nil {
		return err
	}

	cfg.printf("Figure 3: sqldb throughput running %s, BOLTed with profiles from each training input\n", runInput)
	cfg.printf("%-22s %14s %9s\n", "training input", "tput (req/s)", "vs orig")
	cfg.printf("%-22s %14.0f %8.2fx\n", "original (no PGO)", orig, 1.0)

	best := 0.0
	var agg perf.RawProfile
	for _, train := range w.Inputs {
		raw, err := cfg.ProfileInput(w, train)
		if err != nil {
			return err
		}
		agg.Samples = append(agg.Samples, raw.Samples...)
		prof, err := bolt.ConvertProfile(raw, w.Binary)
		if err != nil {
			return err
		}
		res, err := bolt.Optimize(w.Binary, prof, bolt.Options{})
		if err != nil {
			return err
		}
		tput, err := cfg.MeasureBinary(w, res.Binary, runInput)
		if err != nil {
			return err
		}
		if tput > best {
			best = tput
		}
		cfg.printf("%-22s %14.0f %8.2fx\n", train, tput, tput/orig)
	}

	// Aggregated profile of all inputs.
	prof, err := bolt.ConvertProfile(&agg, w.Binary)
	if err != nil {
		return err
	}
	res, err := bolt.Optimize(w.Binary, prof, bolt.Options{})
	if err != nil {
		return err
	}
	allT, err := cfg.MeasureBinary(w, res.Binary, runInput)
	if err != nil {
		return err
	}
	cfg.printf("%-22s %14.0f %8.2fx\n", "all (aggregated)", allT, allT/orig)

	// OCOLOS profiles the running input online.
	ocoT, _, _, err := cfg.OCOLOSRun(w, runInput, core.Options{})
	if err != nil {
		return err
	}
	cfg.printf("%-22s %14.0f %8.2fx   <- online, always current input\n", "OCOLOS", ocoT, ocoT/orig)
	cfg.printf("best training input achieves %.2fx; OCOLOS at %.1f%% of best\n",
		best/orig, 100*ocoT/best)
	return nil
}
