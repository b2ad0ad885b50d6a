package experiments

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obj"
	"repro/internal/proc"
)

// MicroRow is one configuration's front-end counters for Figure 8.
type MicroRow struct {
	Input  string
	Config string // original / OCOLOS / BOLT
	cpu.Stats
}

// Fig8 reproduces Figure 8: front-end microarchitectural events per
// kilo-instruction (L1i MPKI, iTLB MPKI, taken branches, mispredicted
// branches) for every sqldb input under the original binary, OCOLOS, and
// offline BOLT.
func Fig8(cfg Config) error {
	cfg.defaults()
	w, err := Workload("sqldb")
	if err != nil {
		return err
	}
	inputs := w.Inputs
	if cfg.Quick {
		inputs = inputs[:3]
	}

	cfg.printf("Figure 8: front-end events per kilo-instruction, sqldb\n")
	cfg.printf("%-17s %-9s %9s %9s %9s %9s %7s\n",
		"input", "config", "L1i", "iTLB", "taken", "misp", "IPC")

	measureStats := func(bin *obj.Binary, input string) (cpu.Stats, error) {
		d, err := w.NewDriver(input, cfg.threads(w.Threads))
		if err != nil {
			return cpu.Stats{}, err
		}
		p, err := proc.Load(bin, proc.Options{Threads: cfg.threads(w.Threads), Handler: d})
		if err != nil {
			return cpu.Stats{}, err
		}
		p.RunFor(cfg.warm())
		before := p.Stats()
		p.RunFor(cfg.window())
		return p.Stats().Sub(before), p.Fault()
	}

	for _, input := range inputs {
		orig, err := measureStats(w.Binary, input)
		if err != nil {
			return err
		}
		printRow := func(config string, s cpu.Stats) {
			cfg.printf("%-17s %-9s %9.2f %9.3f %9.1f %9.2f %7.2f\n",
				input, config, s.L1iMPKI(), s.ITLBMPKI(), s.TakenPKI(), s.MispredictPKI(), s.IPC())
		}
		printRow("original", orig)

		// OCOLOS: steady-state counters after one replacement round.
		_, _, p, err := cfg.OCOLOSRun(w, input, core.Options{})
		if err != nil {
			return err
		}
		before := p.Stats()
		p.RunFor(cfg.window())
		printRow("OCOLOS", p.Stats().Sub(before))

		boltBin, err := cfg.OracleBolt(w, input)
		if err != nil {
			return err
		}
		bs, err := measureStats(boltBin, input)
		if err != nil {
			return err
		}
		printRow("BOLT", bs)
	}
	return nil
}
