// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) against the simulated substrate. Each experiment is a
// function that runs the measurement and prints paper-style rows/series;
// the Registry maps experiment names (fig3, fig5, …, tab1, tab2) to
// runners for cmd/experiments.
package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/obj"
	"repro/internal/perf"
	"repro/internal/pgo"
	"repro/internal/proc"
	"repro/internal/workloads"
	"repro/internal/workloads/wl"
)

// Config controls measurement durations and output.
type Config struct {
	// Quick shrinks durations and thread counts for CI/bench runs; the
	// full setting is what cmd/experiments uses by default.
	Quick bool
	Out   io.Writer
	// CSVDir, when set, makes the figure experiments also write
	// plot-ready CSVs (fig5.csv, fig9.csv) into this directory.
	CSVDir string
}

func (c *Config) defaults() {
	if c.Out == nil {
		c.Out = os.Stdout
	}
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// Simulated durations (seconds). The paper profiles for 60 s and measures
// steady state; our requests are ~1000× shorter than MySQL transactions,
// so all windows scale down accordingly (documented in EXPERIMENTS.md).
func (c Config) warm() float64 {
	if c.Quick {
		return 0.0012
	}
	return 0.003
}
func (c Config) profileDur() float64 {
	if c.Quick {
		return 0.002
	}
	return 0.005
}
func (c Config) window() float64 {
	if c.Quick {
		return 0.002
	}
	return 0.005
}
func (c Config) threads(def int) int {
	if c.Quick && def > 4 {
		return 4
	}
	return def
}

// buildCache memoizes workload construction across experiments.
var buildCache = map[string]*wl.Workload{}

// Workload builds (or returns the cached) evaluation-scale workload.
func Workload(name string) (*wl.Workload, error) {
	if w, ok := buildCache[name]; ok {
		return w, nil
	}
	w, err := workloads.Build(name, false)
	if err != nil {
		return nil, err
	}
	buildCache[name] = w
	return w, nil
}

// ServerWorkloads are the Figure 5 benchmarks (compilersim is batch-only).
func ServerWorkloads() []string { return []string{"sqldb", "docdb", "kvcache", "rtlsim"} }

// measureBinary runs the given binary under the workload's driver and
// returns steady-state throughput plus the measurement-window counters.
func measureBinary(w *wl.Workload, bin *obj.Binary, input string, threads int, warm, window float64) (float64, *proc.Process, *wl.Driver, error) {
	d, err := w.NewDriver(input, threads)
	if err != nil {
		return 0, nil, nil, err
	}
	p, err := proc.Load(bin, proc.Options{Threads: threads, Handler: d})
	if err != nil {
		return 0, nil, nil, err
	}
	p.RunFor(warm)
	tput := wl.Measure(p, d, window)
	if err := p.Fault(); err != nil {
		return 0, nil, nil, fmt.Errorf("%s/%s: %w", bin.Name, input, err)
	}
	return tput, p, d, nil
}

// MeasureOriginal measures the unmodified binary.
func (c Config) MeasureOriginal(w *wl.Workload, input string) (float64, error) {
	t, _, _, err := measureBinary(w, w.Binary, input, c.threads(w.Threads), c.warm(), c.window())
	return t, err
}

// ProfileInput records an LBR profile of the workload running the input.
func (c Config) ProfileInput(w *wl.Workload, input string) (*perf.RawProfile, error) {
	d, err := w.NewDriver(input, c.threads(w.Threads))
	if err != nil {
		return nil, err
	}
	p, err := proc.Load(w.Binary, proc.Options{Threads: c.threads(w.Threads), Handler: d})
	if err != nil {
		return nil, err
	}
	p.RunFor(c.warm())
	raw := perf.Record(p, c.profileDur(), perf.RecorderOptions{})
	if err := p.Fault(); err != nil {
		return nil, err
	}
	return raw, nil
}

// OracleBolt produces the offline-BOLT binary using a profile of the same
// input it will run (the "BOLT oracle input" bar of Figure 5).
func (c Config) OracleBolt(w *wl.Workload, input string) (*obj.Binary, error) {
	raw, err := c.ProfileInput(w, input)
	if err != nil {
		return nil, err
	}
	prof, err := bolt.ConvertProfile(raw, w.Binary)
	if err != nil {
		return nil, err
	}
	res, err := bolt.Optimize(w.Binary, prof, bolt.Options{})
	if err != nil {
		return nil, err
	}
	return res.Binary, nil
}

// AverageBolt aggregates profiles across all of the workload's inputs
// before optimizing (the "BOLT average-case input" bar).
func (c Config) AverageBolt(w *wl.Workload) (*obj.Binary, error) {
	var agg perf.RawProfile
	for _, input := range w.Inputs {
		raw, err := c.ProfileInput(w, input)
		if err != nil {
			return nil, err
		}
		agg.Samples = append(agg.Samples, raw.Samples...)
		agg.Seconds += raw.Seconds
	}
	prof, err := bolt.ConvertProfile(&agg, w.Binary)
	if err != nil {
		return nil, err
	}
	res, err := bolt.Optimize(w.Binary, prof, bolt.Options{})
	if err != nil {
		return nil, err
	}
	return res.Binary, nil
}

// OraclePGO produces the compiler-PGO binary from an oracle profile.
func (c Config) OraclePGO(w *wl.Workload, input string) (*obj.Binary, error) {
	raw, err := c.ProfileInput(w, input)
	if err != nil {
		return nil, err
	}
	prof, err := bolt.ConvertProfile(raw, w.Binary)
	if err != nil {
		return nil, err
	}
	return pgo.Optimize(w.Binary, prof, pgo.Options{})
}

// MeasureBinary measures an optimized binary under the workload's driver.
func (c Config) MeasureBinary(w *wl.Workload, bin *obj.Binary, input string) (float64, error) {
	t, _, _, err := measureBinary(w, bin, input, c.threads(w.Threads), c.warm(), c.window())
	return t, err
}

// OCOLOSRun attaches OCOLOS to a live process on the input, performs one
// optimization round, and returns steady-state throughput after
// replacement, the controller (for its reports) and the process.
func (c Config) OCOLOSRun(w *wl.Workload, input string, opts core.Options) (float64, *core.Controller, *proc.Process, error) {
	threads := c.threads(w.Threads)
	d, err := w.NewDriver(input, threads)
	if err != nil {
		return 0, nil, nil, err
	}
	p, err := proc.Load(w.Binary, proc.Options{Threads: threads, Handler: d})
	if err != nil {
		return 0, nil, nil, err
	}
	ctl, err := core.New(p, w.Binary, opts)
	if err != nil {
		return 0, nil, nil, err
	}
	p.RunFor(c.warm())
	if _, err := ctl.OptimizeRound(c.profileDur()); err != nil {
		return 0, nil, nil, err
	}
	p.RunFor(c.warm()) // settle into the optimized steady state
	tput := wl.Measure(p, d, c.window())
	if err := p.Fault(); err != nil {
		return 0, nil, nil, err
	}
	return tput, ctl, p, nil
}

// Runner executes one experiment.
type Runner func(Config) error

// Registry maps experiment names to runners.
var Registry = map[string]Runner{
	"fig1":    Fig1,
	"fig3":    Fig3,
	"fig5":    Fig5,
	"fig6":    Fig6,
	"fig7":    Fig7,
	"fig8":    Fig8,
	"fig9":    Fig9,
	"fig10":   Fig10,
	"tab1":    Tab1,
	"tab2":    Tab2,
	"ablate":  Ablate,
	"dbi":     DBI,
	"recover": Recover,
	"stagger": Stagger,
	"fleet":   FleetScale,
	"phase":   Phase,
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
