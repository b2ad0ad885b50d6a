// Command bench is the repository's benchmark: four workloads of
// identical, seeded repetitions whose host-time metrics are the median
// repetition, plus a traced pass that measures every layer from outside
// through the public functions of internal/*. See README.md.
//
//	go run ./bench -workload paper_round [-seed 1] [-seconds 20] [-trace 0|1] [-out DIR]
//	go run ./bench -compare A/runs.jsonl B/runs.jsonl
//	go run ./bench -smoke -workload churn_reopt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// minReps is the floor on timed repetitions per run: a median of fewer
// is not steady enough on a two-core box (README, noise study).
const minReps = 15

// setups is how many times a run performs set-up; setup_s is their
// median.
const setups = 3

var processStart = time.Now()

// workloads is the benchmark's workload table, in BENCHMARK.json's order;
// why is the one-line reason recorded there.
var workloads = []struct {
	name, why string
	new       func() workload
}{
	{"paper_round", "simulator-bound: the paper's five services through one optimization round each, so proc/cpu/mem/isa do most of the host work",
		func() workload { return &paperRound{} }},
	{"churn_reopt", "control-path-bound: continuous optimization with the input rotated every round, so bolt/core/ptrace/unwind lead and the guest re-decodes after every code write",
		func() workload { return &churnReopt{} }},
	{"wave_replicas", "cache-hit/fleet-bound: a two-worker wave over replicas of three binaries, so all but three builds reuse a cached layout",
		func() workload { return &waveReplicas{} }},
	{"drift_tenants", "profile-ingest/drift-bound: hot-tenant turns drive stream ingest, drift scans and cache misses on a tiny binary",
		func() workload { return &driftTenants{} }},
}

func newWorkload(name string) (workload, error) {
	var names []string
	for _, d := range workloads {
		if d.name == name {
			return d.new(), nil
		}
		names = append(names, d.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// result is the contract's last-line object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is one run's full record, appended to <out>/runs.jsonl: the
// result plus everything needed to compare runs programmatically.
type report struct {
	Workload   string             `json:"workload"`
	Trace      int                `json:"trace"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Smoke      bool               `json:"smoke,omitempty"`
	GoVersion  string             `json:"go_version"`
	GitSHA     string             `json:"git_sha"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Windows    map[string]float64 `json:"windows_sim_ms"`
	Reps       int                `json:"reps"`
	TimedWallS float64            `json:"timed_wall_s"`
	TotalWallS float64            `json:"total_wall_s"`
	CalibMS    [2]float64         `json:"calib_ms"` // before, after
	Noisy      bool               `json:"noisy"`
	RepMS      []float64          `json:"rep_ms"`
	RepMSPhi   [2]float64         `json:"rep_ms_phi"` // percentile, value
	RepIQRPct  float64            `json:"rep_ms_iqr_pct"`
	Failures   []string           `json:"failures,omitempty"`
	Result     result             `json:"result"`
}

func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper_round | churn_reopt | wave_replicas | drift_tenants")
		seed    = flag.Uint64("seed", 1, "offsets every driver's request sequence")
		seconds = flag.Float64("seconds", 20, "how long to measure")
		traced  = flag.Int("trace", 0, "1 = traced pass (per-layer metrics), 0 = untraced (end-to-end metrics)")
		out     = flag.String("out", "", "directory for runs.jsonl and the traced pass's spans (default: write nothing)")
		smoke   = flag.Bool("smoke", false, "two repetitions at tiny windows (the tier-1 test's mode)")
		compare = flag.Bool("compare", false, "compare two runs.jsonl files given as arguments")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A/runs.jsonl B/runs.jsonl")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
		return
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *traced != 0, smoke: *smoke, out: *out}
	rep, err := run(cfg)
	if err != nil {
		fatal("%v", err)
	}
	printReport(rep)
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fatal("%v", err)
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		// A fast-but-wrong change must not post a number without the
		// failure being seen.
		for i, f := range rep.Failures {
			if i == 10 {
				fmt.Fprintf(os.Stderr, "bench: ... and %d more\n", len(rep.Failures)-i)
				break
			}
			fmt.Fprintln(os.Stderr, "bench: check failed:", f)
		}
		os.Exit(2)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	out      string // directory for runs.jsonl and spans; "" = write nothing
}

// run executes one benchmark run and returns its report.
func run(cfg runConfig) (*report, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	if workers > 2 {
		workers = 2
	}
	runtime.GOMAXPROCS(workers)
	e := &env{seed: cfg.seed, smoke: cfg.smoke, workers: workers}
	rp := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		GoVersion: runtime.Version(), GitSHA: gitSHA(), GOMAXPROCS: workers, NumCPU: runtime.NumCPU(),
		Windows: w.windows(e),
	}
	if cfg.trace {
		rp.Trace = 1
		return rp, runTraced(cfg, e, w, rp)
	}
	return rp, runUntraced(cfg, e, w, rp)
}

// oneRep runs a single repetition of w.
func oneRep(e *env, w workload) (*rep, error) {
	r := &rep{e: e}
	if err := w.rep(r); err != nil {
		return nil, err
	}
	return r, nil
}

// setUp builds the workload's binaries and runs one discarded warm-up
// repetition, n times; it returns the seconds each took. The first also
// carries the process's start-up.
func setUp(e *env, w workload, n int) ([]float64, error) {
	var took []float64
	t0 := processStart
	for i := 0; i < n; i++ {
		if err := w.build(e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if _, err := oneRep(e, w); err != nil {
			return nil, fmt.Errorf("warm-up repetition: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
		t0 = time.Now()
	}
	return took, nil
}

// timedReps repeats w until both the time budget and the repetition
// floor are met.
func timedReps(e *env, w workload, seconds float64, floor int) ([]*rep, float64, error) {
	var reps []*rep
	t0 := time.Now()
	for len(reps) < floor || time.Since(t0).Seconds() < seconds {
		r, err := oneRep(e, w)
		if err != nil {
			return nil, 0, fmt.Errorf("repetition %d: %w", len(reps), err)
		}
		reps = append(reps, r)
	}
	return reps, time.Since(t0).Seconds(), nil
}

func runUntraced(cfg runConfig, e *env, w workload, rp *report) error {
	nSetups, floor, seconds := setups, minReps, cfg.seconds
	if cfg.smoke {
		nSetups, floor, seconds = 1, 2, 0
	}
	setup, err := setUp(e, w, nSetups)
	if err != nil {
		return err
	}
	rp.CalibMS[0] = calibrate()
	reps, wall, err := timedReps(e, w, seconds, floor)
	if err != nil {
		return err
	}
	rp.CalibMS[1] = calibrate()
	rp.TimedWallS = wall

	att, fails := verifyReps(reps)
	vAtt, vFails, err := verifyOutputs(e, w)
	if err != nil {
		return err
	}
	att, fails = att+vAtt, append(fails, vFails...)

	m := endToEndMetrics(reps)
	m["setup_s"] = median(setup)
	m["ok_ratio"] = float64(att-len(fails)) / float64(att)
	fillReport(rp, reps, att, fails)
	for _, d := range endToEnd {
		rp.Result.Metrics[d.name] = value{m[d.name], d.unit}
	}
	return nil
}

// fillReport records what both passes share: repetition statistics, the
// noise verdict and the outcome counts.
func fillReport(rp *report, reps []*rep, attempted int, fails []string) {
	for _, r := range reps {
		rp.RepMS = append(rp.RepMS, r.wall*1e3)
	}
	rp.Reps = len(reps)
	rp.RepMSPhi[0], rp.RepMSPhi[1] = highPercentile(rp.RepMS)
	rp.RepIQRPct = iqrPct(rp.RepMS)
	lo, hi := rp.CalibMS[0], rp.CalibMS[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	rp.Noisy = lo > 0 && hi/lo > 1.10
	rp.Failures = fails
	rp.TotalWallS = time.Since(processStart).Seconds()
	rp.Result = result{Correct: len(fails) == 0, Attempted: attempted, Failed: len(fails), Metrics: map[string]value{}}
}

// endToEndMetrics reduces the repetitions to metrics by name: medians
// for host costs, and the first repetition's simulated results
// (verifyReps checks that all repetitions agree on those).
func endToEndMetrics(reps []*rep) map[string]float64 {
	var wall, mips, cpu, alloc, live []float64
	for _, r := range reps {
		wall = append(wall, r.wall*1e3)
		mips = append(mips, float64(r.guestInst)/r.wall/1e6)
		cpu = append(cpu, r.cpu*1e3)
		alloc = append(alloc, float64(r.allocBytes)/1e6)
		live = append(live, float64(r.liveBytes)/1e6)
	}
	m := simulated(reps[0])
	m["rep_ms_p50"] = median(wall)
	m["guest_mips"] = median(mips)
	m["cpu_ms_per_rep"] = median(cpu)
	m["alloc_mb_per_rep"] = median(alloc)
	m["live_heap_mb"] = median(live)
	return m
}

// simulated is one repetition's simulated results; at a fixed seed and
// GOMAXPROCS they repeat exactly.
func simulated(r *rep) map[string]float64 {
	m := map[string]float64{
		"speedup_x":      geomean(r.speedups),
		"pause_sim_ms":   mean(r.pauses) * 1e3,
		"req_p99_sim_us": median(r.p99us),
		"bolt_runs":      float64(r.boltRuns),
		"guest_inst":     float64(r.guestInst),
	}
	for k, v := range r.counts {
		m[k] = v
	}
	return m
}

// verifyReps is the output check behind ok_ratio: every operation's
// expected outcome, and every simulated result identical on every
// repetition of the run.
func verifyReps(reps []*rep) (attempted int, fails []string) {
	for i, r := range reps {
		attempted += r.attempted
		for _, f := range r.failures {
			fails = append(fails, fmt.Sprintf("rep %d: %s", i, f))
		}
	}
	sims := make([]map[string]float64, len(reps))
	for i, r := range reps {
		sims[i] = simulated(r)
	}
	names := make([]string, 0, len(sims[0]))
	for k := range sims[0] {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		attempted++
		xs := make([]float64, len(reps))
		for i := range sims {
			xs[i] = sims[i][k]
		}
		if !sameWithin(xs, 1e-9) {
			fails = append(fails, fmt.Sprintf("simulated result %s differs between repetitions: %v", k, xs))
		}
	}
	return attempted, fails
}

func printReport(rp *report) {
	w := os.Stderr
	fmt.Fprintf(w, "%s seed=%d trace=%d reps=%d timed=%.1fs total=%.1fs GOMAXPROCS=%d %s sha=%s\n",
		rp.Workload, rp.Seed, rp.Trace, rp.Reps, rp.TimedWallS, rp.TotalWallS, rp.GOMAXPROCS, rp.GoVersion, rp.GitSHA)
	fmt.Fprintf(w, "  rep_ms: p50 %.1f  p%.0f %.1f  iqr %.2f%%   calib_ms %.2f → %.2f  noisy=%v\n",
		median(rp.RepMS), rp.RepMSPhi[0], rp.RepMSPhi[1], rp.RepIQRPct, rp.CalibMS[0], rp.CalibMS[1], rp.Noisy)
	names := make([]string, 0, len(rp.Result.Metrics))
	for k := range rp.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := rp.Result.Metrics[k]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, v.Value, v.Unit)
	}
}

func appendReport(dir string, rp *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rp)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
