package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workloads/docdb"
	"repro/internal/workloads/sqldb"
)

// TestConcurrentFleet is the race-detector workout for the whole
// subsystem: 8 clean services run 2 optimization rounds each on the
// worker pool while one service per lifecycle stage (plus one whose
// revert itself faults) is fault-injected. Every service must end in a
// terminal state — never wedged — and the pause-stagger semaphore must
// hold.
func TestConcurrentFleet(t *testing.T) {
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := docdb.Build(docdb.Small())
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected fault")
	// Which stage each fault-* service trips on; the hook is called from
	// several workers at once, so it only reads this map.
	faultAt := map[string]State{
		"fault-profiling": Profiling,
		"fault-building":  Building,
		"fault-replacing": Replacing,
		"fault-measuring": Measuring,
	}
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Workers:   6,
		MaxPauses: 2,
		Robustness: RobustnessConfig{
			MaxRounds:    2,
			ConvergeGain: -1, // run both rounds even if round 2 gains nothing
			MaxRetries:   1,
			RetryBackoff: time.Microsecond,
		},
		Clock:    &recClock{},
		SkipGate: true, // small-scale workloads sit below the TopDown gate
		Timing:   TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002},
		Metrics:  reg,
		FaultHook: func(s *Service, stage State) error {
			if faultAt[s.Name] == stage && stage != Idle {
				return boom
			}
			if s.Name == "fault-revert" && (stage == Measuring || stage == Reverted) {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var clean []string
	for i := 0; i < 4; i++ {
		clean = append(clean, fmt.Sprintf("sql%d", i), fmt.Sprintf("doc%d", i))
	}
	add := func(name string) {
		w, input := db, "read_only"
		if strings.HasPrefix(name, "doc") {
			w, input = doc, "read_update"
		}
		s, err := m.AddService(ServicePlan{
			Name: name, Workload: w, Input: input, Threads: 1,
			// The default 2ms pause would swamp these sub-millisecond
			// windows; this test is about lifecycle, not pause cost.
			Core: core.Options{NoChargePause: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Proc.RunFor(0.0002)
	}
	for _, name := range clean {
		add(name)
	}
	for name := range faultAt {
		add(name)
	}
	add("fault-revert")

	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string]*Service{}
	for _, s := range m.Services() {
		byName[s.Name] = s
		if !s.State().Terminal() {
			t.Errorf("%s wedged in non-terminal state %s", s.Name, s.State())
		}
	}
	for _, name := range clean {
		s := byName[name]
		if got := s.State(); got != Steady {
			t.Errorf("%s ended %s, want Steady: %v", name, got, s.Err())
			continue
		}
		if got := len(s.Rounds()); got != 2 {
			t.Errorf("%s completed %d rounds, want 2", name, got)
		}
		if v := s.Ctl.Version(); v != 2 {
			t.Errorf("%s is on code version %d, want 2", name, v)
		}
		if err := s.Err(); err != nil {
			t.Errorf("%s recorded error despite clean run: %v", name, err)
		}
	}
	wantTerminal := map[string]State{
		"fault-profiling": Failed,   // nothing replaced yet → nothing to undo
		"fault-building":  Failed,   //
		"fault-replacing": Failed,   //
		"fault-measuring": Reverted, // optimized code was live → rolled back
		"fault-revert":    Failed,   // the rollback itself kept faulting
	}
	for name, want := range wantTerminal {
		s := byName[name]
		if got := s.State(); got != want {
			t.Errorf("%s ended %s, want %s", name, got, want)
		}
		if s.Err() == nil {
			t.Errorf("%s has no recorded fault", name)
		}
	}

	// The stop-the-world stagger: pauses happened, but never more than
	// MaxPauses at once.
	if peak := m.PeakPauses(); peak < 1 || peak > m.Config().MaxPauses {
		t.Errorf("peak concurrent pauses %d, want in [1, %d]", peak, m.Config().MaxPauses)
	}

	// Telemetry cross-check: 8 clean services × 2 rounds; every fault
	// service aborts its round before it is recorded.
	if v := reg.Counter("fleet_rounds_total").Value(); v != 16 {
		t.Errorf("fleet_rounds_total = %v, want 16", v)
	}
	if v := reg.Counter("fleet_steady_total").Value(); v != 8 {
		t.Errorf("fleet_steady_total = %v, want 8", v)
	}
	if v := reg.Counter("fleet_reverts_total").Value(); v != 1 {
		t.Errorf("fleet_reverts_total = %v, want 1", v)
	}
	if v := reg.Counter("fleet_failures_total").Value(); v != 4 {
		t.Errorf("fleet_failures_total = %v, want 4", v)
	}

	// The report covers the whole fleet and agrees with the services.
	if len(rep) != len(clean)+5 {
		t.Fatalf("report has %d services, want %d", len(rep), len(clean)+5)
	}
	for _, sr := range rep {
		if sr.State != byName[sr.Name].State() {
			t.Errorf("report state %s for %s disagrees with service %s",
				sr.State, sr.Name, byName[sr.Name].State())
		}
		if !sr.Selected {
			t.Errorf("%s not marked selected despite SkipGate", sr.Name)
		}
	}
}
