package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/obj"
)

// Stagger reproduces the operational guidance of §IV-D: code replacement
// pauses are scheduled, so a load-balanced tier should rotate them across
// replicas instead of replacing everywhere at once. Four sqldb replicas
// serve the same mix; one deployment replaces all replicas in the same
// window, the other staggers one replacement per window. Fleet-level
// throughput per window shows the difference: the staggered rollout never
// loses more than one replica's capacity, while the simultaneous one
// craters for a full window.
func Stagger(cfg Config) error {
	cfg.defaults()
	const replicas = 4
	const input = "read_only"

	run := func(staggered bool) ([]float64, error) {
		w, err := Workload("sqldb")
		if err != nil {
			return nil, err
		}
		var svcs []*fleet.Service
		for i := 0; i < replicas; i++ {
			s, err := fleet.NewService(fleet.ServicePlan{
				Name:     fmt.Sprintf("r%d", i),
				Workload: w,
				Input:    input,
				Threads:  cfg.threads(4),
			})
			if err != nil {
				return nil, err
			}
			svcs = append(svcs, s)
		}
		// Profile every replica and build its optimized binary up front
		// (the background pipeline runs while serving; here we only put
		// the *pauses* on the measured timeline).
		binaries := make([]*obj.Binary, len(svcs))
		for i, s := range svcs {
			raw := s.Ctl.Profile(cfg.profileDur() / 2)
			bs, err := s.Ctl.BuildOptimized(raw)
			if err != nil {
				return nil, err
			}
			binaries[i] = bs.Result.Binary
		}

		// Replicas advance against a shared wall clock so a replica's
		// stop-the-world pause (which advances its local time without
		// serving) shows up as lost fleet capacity in that window.
		slice := cfg.window() * 2
		var series []float64
		wall := 0.0
		for _, s := range svcs {
			if t := s.Proc.Seconds(); t > wall {
				wall = t
			}
		}
		completed := func() uint64 {
			var c uint64
			for _, s := range svcs {
				c += s.Driver.Completed()
			}
			return c
		}
		window := func() error {
			before := completed()
			wall += slice
			for _, s := range svcs {
				if dt := wall - s.Proc.Seconds(); dt > 0 {
					s.Proc.RunFor(dt)
				}
				if err := s.Proc.Fault(); err != nil {
					return err
				}
			}
			series = append(series, float64(completed()-before)/slice)
			return nil
		}
		// Warm-up windows.
		for i := 0; i < 2; i++ {
			if err := window(); err != nil {
				return nil, err
			}
		}
		// Rollout: replacement pauses land on the timeline.
		if staggered {
			for i, s := range svcs {
				if _, err := s.Ctl.Replace(binaries[i]); err != nil {
					return nil, err
				}
				if err := window(); err != nil {
					return nil, err
				}
			}
		} else {
			for i, s := range svcs {
				if _, err := s.Ctl.Replace(binaries[i]); err != nil {
					return nil, err
				}
			}
			for i := 0; i < replicas; i++ {
				if err := window(); err != nil {
					return nil, err
				}
			}
		}
		// Optimized steady state.
		for i := 0; i < 2; i++ {
			if err := window(); err != nil {
				return nil, err
			}
		}
		return series, nil
	}

	simul, err := run(false)
	if err != nil {
		return err
	}
	stag, err := run(true)
	if err != nil {
		return err
	}

	base := (simul[0] + simul[1]) / 2
	cfg.printf("Staggered rollout across a %d-replica tier (§IV-D), fleet req/s per window (1.00 = warm fleet)\n", replicas)
	cfg.printf("%8s %14s %14s\n", "window", "simultaneous", "staggered")
	n := len(simul)
	if len(stag) < n {
		n = len(stag)
	}
	minSim, minStag := 1.0, 1.0
	for i := 0; i < n; i++ {
		s, g := simul[i]/base, stag[i]/base
		if s < minSim {
			minSim = s
		}
		if g < minStag {
			minStag = g
		}
		cfg.printf("%8d %13.2f %13.2f\n", i, s, g)
	}
	cfg.printf("worst fleet capacity: simultaneous %.0f%%, staggered %.0f%% — rotate replacements behind the load balancer\n",
		minSim*100, minStag*100)
	return nil
}
