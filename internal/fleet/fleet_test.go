package fleet

import (
	"strings"
	"testing"

	"repro/internal/layout"
	"repro/internal/profile"
	"repro/internal/workloads/kvcache"
	"repro/internal/workloads/sqldb"
	"repro/internal/workloads/wl"
)

func TestFleetScanAndOptimize(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fleet run in -short mode")
	}
	// A front-end-bound database and a cache that does not need help.
	db, err := sqldb.Build(sqldb.Full())
	if err != nil {
		t.Fatal(err)
	}
	kv, err := kvcache.Build(kvcache.Full())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Robustness: RobustnessConfig{MaxRounds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddService(ServicePlan{Name: "db", Workload: db, Input: "read_only", Threads: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddService(ServicePlan{Name: "kv", Workload: kv, Input: "set10_get90", Threads: 4}); err != nil {
		t.Fatal(err)
	}

	// Warm and scan.
	for _, s := range m.Services() {
		s.Proc.RunFor(0.002)
	}
	scan := m.Scan(ScanOptions{Window: 0.002})
	if len(scan) != 2 {
		t.Fatal("scan lost services")
	}
	// The database ranks first (highest front-end share) and is selected;
	// the cache is not.
	if scan[0].Service.Name != "db" || !scan[0].Optimize {
		t.Errorf("db not selected: %+v", scan[0])
	}
	if scan[1].Service.Name != "kv" || scan[1].Optimize {
		t.Errorf("kv should be skipped: %+v", scan[1])
	}

	m.Optimize(scan, WaveOptions{})
	rep := m.Snapshot()
	speedups := map[string]float64{}
	for _, sr := range rep {
		speedups[sr.Name] = sr.Speedup
	}
	if speedups["db"] < 1.15 {
		t.Errorf("db speedup %.2f too low", speedups["db"])
	}
	if speedups["kv"] != 1.0 {
		t.Errorf("kv was optimized despite the gate: %.2f", speedups["kv"])
	}
	for _, sr := range rep {
		if sr.State != Steady {
			t.Errorf("%s ended %s, want Steady", sr.Name, sr.State)
		}
	}
	if v := m.Services()[1].Ctl.Version(); v != 0 {
		t.Errorf("gated kv advanced to version %d", v)
	}
}

func TestFleetRevertSafetyNet(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fleet run in -short mode")
	}
	db, err := sqldb.Build(sqldb.Full())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Robustness: RobustnessConfig{MaxRounds: 1, RevertBelow: 99}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.AddService(ServicePlan{Name: "db", Workload: db, Input: "read_only", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Proc.RunFor(0.002)
	// Absurd revert threshold: even a good speedup gets reverted, proving
	// the safety net restores ~original throughput.
	m.Optimize(m.Scan(ScanOptions{Window: 0.002}), WaveOptions{})
	if st := s.State(); st != Reverted {
		t.Fatalf("service ended %s, want Reverted", st)
	}
	if s.Ctl.Version() < 2 {
		t.Error("revert should have advanced the version counter")
	}
	rep := m.Snapshot()[0]
	s.Proc.RunFor(0.002)
	if rep.Baseline <= 0 {
		t.Fatalf("no baseline recorded: %+v", rep)
	}
	if ratio := wl.Measure(s.Proc, s.Driver, 0.003) / rep.Baseline; ratio < 0.85 || ratio > 1.15 {
		t.Errorf("reverted service at %.2fx of baseline; want ≈1.0", ratio)
	}
}

func TestScanDeterministicOrder(t *testing.T) {
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Identical replicas added out of name order: their TopDown shares
	// tie exactly, so the scan must fall back to name order.
	for _, name := range []string{"r2", "r0", "r1"} {
		s, err := m.AddService(ServicePlan{Name: name, Workload: db, Input: "read_only", Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.Proc.RunFor(0.0004)
	}
	scan := m.Scan(ScanOptions{Window: 0.0004})
	var got []string
	for _, r := range scan {
		got = append(got, r.Service.Name)
	}
	want := "r0,r1,r2"
	if strings.Join(got, ",") != want {
		t.Errorf("scan order %v, want %s", got, want)
	}
	for i := 1; i < len(scan); i++ {
		if scan[i].TopDown != scan[0].TopDown {
			t.Errorf("identical replicas diverged in TopDown: %+v vs %+v",
				scan[0].TopDown, scan[i].TopDown)
		}
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 4 || cfg.MaxPauses != 1 || cfg.Robustness.MaxRounds != 2 ||
		cfg.Robustness.MaxRetries != 2 || cfg.Robustness.ConvergeGain != 0.02 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if cfg.Timing.ProfileDur <= 0 || cfg.Timing.Warm <= 0 || cfg.Timing.Window <= 0 ||
		cfg.Robustness.RetryBackoff <= 0 || cfg.Clock == nil || cfg.JitterSeed == 0 {
		t.Errorf("unset durations/sources not defaulted: %+v", cfg)
	}
	for _, bad := range []Config{
		{Workers: -1},
		{MaxPauses: -2},
		{Robustness: RobustnessConfig{MaxRounds: -1}},
		{Robustness: RobustnessConfig{MaxRetries: -3}},
		{Timing: TimingConfig{ProfileDur: -0.1}},
		{Timing: TimingConfig{Warm: -0.1}},
		{Timing: TimingConfig{Window: -0.1}},
		{Robustness: RobustnessConfig{RevertBelow: -1}},
		{Robustness: RobustnessConfig{RetryBackoff: -1}},
		// Nonsense combos Validate must refuse, not silently resolve:
		// an injected cache alongside "disable the cache", a quarantine
		// bar the retry budget can never reach, and drift policies with
		// out-of-range or negative hysteresis.
		{Cache: CacheConfig{Layout: layout.NewMemory(1, nil), Disable: true}},
		{Robustness: RobustnessConfig{MaxRetries: 3, QuarantineAfter: 2}},
		{Drift: DriftConfig{Enabled: true, Policy: profile.ReoptPolicy{MinDivergence: 1.5}}},
		{Drift: DriftConfig{Enabled: true, Policy: profile.ReoptPolicy{MinDivergence: -0.5}}},
		{Drift: DriftConfig{Enabled: true, Policy: profile.ReoptPolicy{MinDwell: -1}}},
		{Drift: DriftConfig{Enabled: true, Policy: profile.ReoptPolicy{Cooldown: -1}}},
	} {
		if _, err := NewManager(bad); err == nil {
			t.Errorf("config %+v accepted, want error", bad)
		}
	}
	// Negative ConvergeGain is the documented "never converge early"
	// sentinel, not an error.
	if _, err := NewManager(Config{Robustness: RobustnessConfig{ConvergeGain: -1}}); err != nil {
		t.Errorf("negative ConvergeGain rejected: %v", err)
	}
	// Drift defaults flow from the timing block: the policy window tracks
	// the profiling duration unless pinned.
	dcfg, err := Config{Drift: DriftConfig{Enabled: true}}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if dcfg.Drift.Policy.MinDivergence != 0.35 || dcfg.Drift.Policy.Window != dcfg.Timing.ProfileDur {
		t.Errorf("drift defaults not filled: %+v", dcfg.Drift.Policy)
	}
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService(ServicePlan{Name: "x"}); err == nil {
		t.Error("service without workload accepted")
	}
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(ServicePlan{Workload: db, Input: "read_only"}); err == nil {
		t.Error("service without name accepted")
	}
	// Threads <= 0 falls back to the workload default.
	s, err := NewService(ServicePlan{Name: "x", Workload: db, Input: "read_only"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Plan.Threads != db.Threads {
		t.Errorf("threads %d, want workload default %d", s.Plan.Threads, db.Threads)
	}
}

func TestRunEmptyManager(t *testing.T) {
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Error("Run on an empty fleet should error")
	}
}
