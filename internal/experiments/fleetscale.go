package experiments

import (
	"encoding/csv"
	"fmt"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/internal/workloads/wl"
)

// FleetScale reproduces the §V deployment story at fleet scale: a
// GWP-style profiler continuously watches a mixed tier of services, and
// OCOLOS acts as the actuator. Replicas of the database, document store,
// and cache run under one fleet.Manager; the TopDown scan picks the
// front-end-bound ones, the worker pool drives them through concurrent
// optimization rounds with staggered replacement pauses, and the
// regression guard sends losers back to C0. The output is the
// per-service outcome table plus the fleet-wide telemetry the paper
// argues a production rollout needs.
func FleetScale(cfg Config) error {
	cfg.defaults()

	specs := []struct{ name, input string }{
		{"sqldb", "read_only"}, {"docdb", "read_update"}, {"kvcache", "set10_get90"},
	}
	build := Workload
	if cfg.Quick {
		// Quick mode swaps in small-scale builds so the bench variant of
		// this experiment stays in the seconds range.
		build = func(name string) (*wl.Workload, error) { return workloads.Build(name, true) }
	}

	metrics := telemetry.NewRegistry()
	mc := fleet.Config{
		Workers:   4,
		MaxPauses: 1,
		Timing: fleet.TimingConfig{
			ProfileDur: cfg.profileDur(),
			Warm:       cfg.warm(),
			Window:     cfg.window(),
		},
		Robustness: fleet.RobustnessConfig{
			MaxRounds:   2,
			RevertBelow: 1.0,
		},
		Metrics: metrics,
	}
	if cfg.Quick {
		// Small-scale services sit below the TopDown gate and their
		// windows are far smaller than a realistic pause, so quick mode
		// forces the lifecycle and keeps the pause off the timeline.
		mc.SkipGate = true
		mc.Timing = fleet.TimingConfig{ProfileDur: 0.0008, Warm: 0.0003, Window: 0.0004}
	}
	m, err := fleet.NewManager(mc)
	if err != nil {
		return err
	}

	const replicas = 2
	for _, sp := range specs {
		w, err := build(sp.name)
		if err != nil {
			return err
		}
		for i := 0; i < replicas; i++ {
			plan := fleet.ServicePlan{
				Name:     fmt.Sprintf("%s/%s#%d", w.Name, sp.input, i),
				Workload: w,
				Input:    sp.input,
				Threads:  cfg.threads(2),
			}
			if cfg.Quick {
				plan.Core = core.Options{NoChargePause: true}
			}
			s, err := m.AddService(plan)
			if err != nil {
				return err
			}
			s.Proc.RunFor(m.Config().Timing.Warm)
		}
	}

	rep, err := m.Run()
	if err != nil {
		return err
	}

	cfg.printf("Fleet deployment (§V): %d services, %d workers, pauses staggered %d at a time\n\n",
		len(rep), m.Config().Workers, m.Config().MaxPauses)
	fleet.WriteStatusTable(cfg.Out, rep)

	var steady, reverted, totalRounds int
	var pause, gain float64
	for _, s := range rep {
		totalRounds += len(s.Rounds)
		pause += s.PauseSeconds
		switch s.State {
		case fleet.Steady:
			steady++
			gain += s.Speedup
		case fleet.Reverted:
			reverted++
		}
	}
	cfg.printf("\n%d steady / %d reverted, %d optimization rounds, %.1f ms total pause",
		steady, reverted, totalRounds, pause*1e3)
	if steady > 0 {
		cfg.printf(", mean steady-state speedup %.2fx", gain/float64(steady))
	}
	cfg.printf("\npeak concurrent pauses: %d (budget %d)\n", m.PeakPauses(), m.Config().MaxPauses)

	if cfg.CSVDir != "" {
		if err := WriteFleetCSV(rep, cfg.CSVDir+"/fleet.csv"); err != nil {
			return err
		}
		cfg.printf("wrote %s/fleet.csv\n", cfg.CSVDir)
	}
	return nil
}

// WriteFleetCSV saves the fleet outcome table in a plot-ready form.
func WriteFleetCSV(rep []fleet.ServiceStatus, path string) error {
	return writeCSV(path, [][]string{{
		"service", "state", "selected", "frontend_share", "rounds", "speedup", "pause_s", "retries",
	}}, func(w *csv.Writer) error {
		for _, s := range rep {
			if err := w.Write([]string{
				s.Name, s.State.String(),
				fmt.Sprintf("%v", s.Selected),
				fmt.Sprintf("%.4f", s.FrontEnd),
				fmt.Sprintf("%d", len(s.Rounds)),
				fmt.Sprintf("%.4f", s.Speedup),
				fmt.Sprintf("%.6f", s.PauseSeconds),
				fmt.Sprintf("%d", s.Retries),
			}); err != nil {
				return err
			}
		}
		return nil
	})
}
