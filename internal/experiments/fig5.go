package experiments

import (
	"fmt"

	"repro/internal/core"
)

// Fig5Row is one benchmark/input row of the headline figure.
type Fig5Row struct {
	Workload string
	Input    string
	Original float64 // req/s
	OCOLOS   float64 // normalized to Original
	BoltOr   float64
	PGOOr    float64
	BoltAvg  float64
}

// Fig5 reproduces Figure 5: throughput of OCOLOS vs offline BOLT with an
// oracle profile, compiler PGO with the same oracle profile, and offline
// BOLT with an average-case profile, all normalized to the original
// binary, across every benchmark input.
func Fig5(cfg Config) error {
	cfg.defaults()
	rows, err := fig5Rows(cfg)
	if err != nil {
		return err
	}
	if cfg.CSVDir != "" {
		if err := WriteFig5CSV(rows, cfg.CSVDir+"/fig5.csv"); err != nil {
			return err
		}
	}
	cfg.printf("Figure 5: normalized throughput (1.00 = original binary)\n")
	cfg.printf("%-9s %-17s %12s %8s %9s %8s %9s\n",
		"bench", "input", "orig req/s", "OCOLOS", "BOLT-or", "PGO-or", "BOLT-avg")
	for _, r := range rows {
		cfg.printf("%-9s %-17s %12.0f %7.2fx %8.2fx %7.2fx %8.2fx\n",
			r.Workload, r.Input, r.Original, r.OCOLOS, r.BoltOr, r.PGOOr, r.BoltAvg)
	}
	cfg.printf("%s\n", fig5Summary(rows))
	return nil
}

// fig5Summary is the figure's closing line: the mean normalized
// throughput of OCOLOS and of oracle BOLT, the oracle's lead over OCOLOS,
// and OCOLOS's lead over average-case BOLT, both in percentage points of
// the original binary's throughput.
func fig5Summary(rows []Fig5Row) string {
	var sumO, sumB, sumA float64
	for _, r := range rows {
		sumO += r.OCOLOS
		sumB += r.BoltOr
		sumA += r.BoltAvg
	}
	n := float64(len(rows))
	return fmt.Sprintf("means: OCOLOS %.3fx, BOLT-oracle %.3fx (gap %.1f points); OCOLOS vs BOLT-avg %+.1f points",
		sumO/n, sumB/n, 100*(sumB-sumO)/n, 100*(sumO/n-sumA/n))
}

// fig5Rows computes the figure's data.
func fig5Rows(cfg Config) ([]Fig5Row, error) {
	cfg.defaults()
	var rows []Fig5Row
	for _, name := range ServerWorkloads() {
		w, err := Workload(name)
		if err != nil {
			return nil, err
		}
		// The average-case binary is shared across the workload's inputs.
		avgBin, err := cfg.AverageBolt(w)
		if err != nil {
			return nil, err
		}
		for _, input := range w.Inputs {
			orig, err := cfg.MeasureOriginal(w, input)
			if err != nil {
				return nil, err
			}
			ocoT, _, _, err := cfg.OCOLOSRun(w, input, core.Options{})
			if err != nil {
				return nil, err
			}
			oracleBin, err := cfg.OracleBolt(w, input)
			if err != nil {
				return nil, err
			}
			boltT, err := cfg.MeasureBinary(w, oracleBin, input)
			if err != nil {
				return nil, err
			}
			pgoBin, err := cfg.OraclePGO(w, input)
			if err != nil {
				return nil, err
			}
			pgoT, err := cfg.MeasureBinary(w, pgoBin, input)
			if err != nil {
				return nil, err
			}
			avgT, err := cfg.MeasureBinary(w, avgBin, input)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig5Row{
				Workload: name,
				Input:    input,
				Original: orig,
				OCOLOS:   ocoT / orig,
				BoltOr:   boltT / orig,
				PGOOr:    pgoT / orig,
				BoltAvg:  avgT / orig,
			})
		}
	}
	return rows, nil
}
