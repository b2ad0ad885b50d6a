package fleet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workloads/sqldb"
)

func TestTransitionTable(t *testing.T) {
	all := []State{Idle, Profiling, Building, Replacing, Measuring, Steady, Reverted, Failed, Quarantined}
	type edge struct{ from, to State }
	legal := map[edge]bool{
		{Idle, Profiling}:        true,
		{Idle, Steady}:           true,
		{Profiling, Building}:    true,
		{Profiling, Reverted}:    true,
		{Profiling, Failed}:      true,
		{Building, Replacing}:    true,
		{Building, Reverted}:     true,
		{Building, Failed}:       true,
		{Replacing, Measuring}:   true,
		{Replacing, Reverted}:    true,
		{Replacing, Failed}:      true,
		{Replacing, Quarantined}: true, // replace-rollback circuit breaker
		{Measuring, Profiling}:   true, // next optimization round
		{Measuring, Steady}:      true,
		{Measuring, Reverted}:    true,
		{Measuring, Failed}:      true,
		{Steady, Profiling}:      true, // drift-triggered re-optimization
	}
	for _, from := range all {
		for _, to := range all {
			want := legal[edge{from, to}]
			if got := CanTransition(from, to); got != want {
				t.Errorf("CanTransition(%s, %s) = %v, want %v", from, to, got, want)
			}
		}
	}
	for _, s := range all {
		term := s == Steady || s == Reverted || s == Failed || s == Quarantined
		if s.Terminal() != term {
			t.Errorf("%s.Terminal() = %v, want %v", s, s.Terminal(), term)
		}
		if s.String() == "" {
			t.Errorf("state %d has no name", int(s))
		}
	}
	if CanTransition(State(99), Idle) {
		t.Error("unknown state should have no edges")
	}
}

func TestIllegalTransitionRecorded(t *testing.T) {
	s := &Service{Name: "x", state: Idle}
	if err := s.transition(Building); err == nil {
		t.Fatal("Idle → Building accepted")
	}
	if s.State() != Idle {
		t.Errorf("illegal transition moved the state to %s", s.State())
	}
	if s.Err() == nil {
		t.Error("illegal transition not recorded on the service")
	}
	// Steady is terminal for the wave but re-enterable by drift; the other
	// terminal states stay closed.
	s2 := &Service{Name: "y", state: Failed}
	if err := s2.transition(Profiling); err == nil {
		t.Error("terminal state accepted an exit edge")
	}
	s3 := &Service{Name: "z", state: Steady}
	if err := s3.transition(Profiling); err != nil {
		t.Errorf("Steady → Profiling (drift re-entry) rejected: %v", err)
	}
}

// recClock is the tests' replay.Clock: host-time reads, and backoff
// sleeps recorded instead of waited. One instance serves a whole
// (possibly concurrent) wave.
type recClock struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (c *recClock) Now() time.Time { return time.Now() }

func (c *recClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
}

// faultFleet stands up a one-service manager over a small sqldb with the
// given fault hook and drives a full wave, returning the service and the
// metrics registry for assertions.
func faultFleet(t *testing.T, maxRounds int, hook func(s *Service, stage State) error) (*Service, *telemetry.Registry) {
	t.Helper()
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Workers: 1,
		Robustness: RobustnessConfig{
			MaxRounds:    maxRounds,
			ConvergeGain: -1, // always run to the round cap
			MaxRetries:   1,
			RetryBackoff: time.Microsecond,
		},
		Clock:     &recClock{},
		SkipGate:  true,
		Timing:    TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002},
		Metrics:   reg,
		FaultHook: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.AddService(ServicePlan{
		Name: "svc", Workload: db, Input: "read_only", Threads: 1,
		Core: core.Options{NoChargePause: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Proc.RunFor(0.0002)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return s, reg
}

func TestInjectedFaults(t *testing.T) {
	boom := errors.New("injected fault")
	cases := []struct {
		name string
		// fail reports whether the hook should fault this attempt.
		fail func(s *Service, stage State) bool
		want State
		// wantRounds is the number of completed rounds recorded.
		wantRounds int
	}{
		// Faults before any replacement leave nothing to undo: Failed.
		{"profiling", func(s *Service, st State) bool { return st == Profiling }, Failed, 0},
		{"building", func(s *Service, st State) bool { return st == Building }, Failed, 0},
		{"replacing", func(s *Service, st State) bool { return st == Replacing }, Failed, 0},
		// A fault after the replacement landed rolls back to C0.
		{"measuring", func(s *Service, st State) bool { return st == Measuring }, Reverted, 0},
		// ... unless the revert itself keeps faulting.
		{"revert", func(s *Service, st State) bool { return st == Measuring || st == Reverted }, Failed, 0},
		// A fault in a later round reverts the earlier rounds' work.
		{"second-round-profiling",
			func(s *Service, st State) bool { return st == Profiling && s.Ctl.Version() >= 1 },
			Reverted, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, reg := faultFleet(t, 2, func(s *Service, stage State) error {
				if tc.fail(s, stage) {
					return boom
				}
				return nil
			})
			if got := s.State(); got != tc.want {
				t.Fatalf("ended %s, want %s", got, tc.want)
			}
			if !s.State().Terminal() {
				t.Error("service wedged in a non-terminal state")
			}
			if s.Err() == nil {
				t.Error("fault not recorded on the service")
			}
			if got := len(s.Rounds()); got != tc.wantRounds {
				t.Errorf("recorded %d rounds, want %d", got, tc.wantRounds)
			}
			wantCounter := "fleet_failures_total"
			if tc.want == Reverted {
				wantCounter = "fleet_reverts_total"
			}
			if v := reg.Counter(wantCounter).Value(); v != 1 {
				t.Errorf("%s = %v, want 1", wantCounter, v)
			}
		})
	}
}

func TestRetryBackoffRecovers(t *testing.T) {
	boom := errors.New("transient build fault")
	clk := &recClock{}
	attempts := 0
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{
		Workers: 1,
		Robustness: RobustnessConfig{
			MaxRounds:    1,
			MaxRetries:   2,
			RetryBackoff: 4 * time.Millisecond,
		},
		Clock:    clk,
		Jitter:   func() float64 { return 0 }, // pin: assert the pure doubling base
		SkipGate: true,
		Timing:   TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002},
		FaultHook: func(s *Service, stage State) error {
			if stage != Building {
				return nil
			}
			attempts++
			if attempts <= 2 {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.AddService(ServicePlan{
		Name: "svc", Workload: db, Input: "read_only", Threads: 1,
		Core: core.Options{NoChargePause: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Proc.RunFor(0.0002)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != Steady {
		t.Fatalf("ended %s, want Steady after retries: %v", got, s.Err())
	}
	if len(s.Rounds()) != 1 {
		t.Errorf("recorded %d rounds, want 1", len(s.Rounds()))
	}
	rep := m.Snapshot()[0]
	if rep.Retries != 2 {
		t.Errorf("report retries = %d, want 2", rep.Retries)
	}
	// Backoff doubles per attempt.
	if sleeps := clk.sleeps; len(sleeps) != 2 || sleeps[0] != 4*time.Millisecond || sleeps[1] != 8*time.Millisecond {
		t.Errorf("backoff sleeps = %v, want [4ms 8ms]", sleeps)
	}
}
