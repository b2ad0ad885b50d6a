package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/sqldb"
)

var errTransient = errors.New("transient fault")

// TestSnapshotAndTraceAfterWave runs a small two-service wave with a
// tracer attached and asserts the snapshot records the outcome, that it
// JSON-encodes with named states, and that every service got a root span
// with transition events and round/stage spans beneath it.
func TestSnapshotAndTraceAfterWave(t *testing.T) {
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{})
	m, err := NewManager(Config{
		Robustness: RobustnessConfig{MaxRounds: 1},
		SkipGate:   true, Tracer: tr,
		Metrics: telemetry.NewRegistry(),
		Timing:  TimingConfig{ProfileDur: 0.0008, Warm: 0.0003, Window: 0.0004},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"svc-b", "svc-a"} {
		s, err := m.AddService(ServicePlan{Name: name, Workload: db, Input: "read_only", Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.Proc.RunFor(0.0004)
	}

	pre := m.Snapshot()
	if len(pre) != 2 || pre[0].Name != "svc-a" || pre[1].Name != "svc-b" {
		t.Fatalf("pre-wave snapshot = %+v", pre)
	}
	for _, st := range pre {
		if st.State != Idle || st.Speedup != 1 || st.Version != 0 || st.AddedAt.IsZero() {
			t.Errorf("pre-wave status %s = %+v", st.Name, st)
		}
	}

	m.Optimize(m.Scan(ScanOptions{}), WaveOptions{})

	for _, st := range m.Snapshot() {
		if !st.State.Terminal() {
			t.Errorf("%s ended non-terminal: %s", st.Name, st.State)
		}
		if len(st.Rounds) == 0 {
			t.Errorf("%s recorded no rounds", st.Name)
			continue
		}
		if st.Version != st.Rounds[len(st.Rounds)-1].Version {
			t.Errorf("%s version %d != last round %d", st.Name, st.Version, st.Rounds[len(st.Rounds)-1].Version)
		}
		if !st.UpdatedAt.After(st.AddedAt) {
			t.Errorf("%s updated_at not advanced: %v vs %v", st.Name, st.UpdatedAt, st.AddedAt)
		}

		// JSON shape: named state, stable keys.
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var dec map[string]any
		if err := json.Unmarshal(b, &dec); err != nil {
			t.Fatal(err)
		}
		if dec["state"] != st.State.String() {
			t.Errorf("state encoded as %v, want %q", dec["state"], st.State)
		}
		for _, key := range []string{"name", "version", "speedup", "rollbacks", "added_at", "updated_at"} {
			if _, ok := dec[key]; !ok {
				t.Errorf("snapshot JSON missing %q: %s", key, b)
			}
		}

		// Per-service span tree: root → round → stages.
		roots := tr.Tree(st.Name)
		if len(roots) != 1 || roots[0].Name != "service" {
			t.Fatalf("%s: roots = %+v", st.Name, roots)
		}
		if roots[0].Open {
			t.Errorf("%s: root span still open after terminal state", st.Name)
		}
		var round *trace.SpanNode
		for _, ch := range roots[0].Children {
			if ch.Name == "round" {
				round = ch
			}
		}
		if round == nil {
			t.Fatalf("%s: no round span under root", st.Name)
		}
		stageNames := map[string]bool{}
		for _, ch := range round.Children {
			stageNames[ch.Name] = true
		}
		for _, want := range []string{"profile", "perf2bolt", "bolt", "replace", "measure"} {
			if !stageNames[want] {
				t.Errorf("%s: round missing %q stage span (have %v)", st.Name, want, stageNames)
			}
		}

		// Transition events follow the lifecycle in order.
		var seq []string
		for _, e := range tr.Journal().ByService(st.Name) {
			if e.Type == trace.EvTransition {
				v, _ := e.Attrs.Get("to")
				seq = append(seq, v.(string))
			}
		}
		if len(seq) < 5 || seq[0] != "Profiling" || !State.Terminal(stateByName(t, seq[len(seq)-1])) {
			t.Errorf("%s: transition sequence %v", st.Name, seq)
		}
	}

	// The text table is a pure view over Snapshot: a header, then one row
	// per service carrying its name, state and speedup.
	snap := m.Snapshot()
	var buf bytes.Buffer
	WriteStatusTable(&buf, snap)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(snap) {
		t.Fatalf("table has %d lines, want header + %d services:\n%s", len(lines), len(snap), buf.String())
	}
	for i, st := range snap {
		row := lines[1+i]
		if !strings.HasPrefix(row, st.Name) || !strings.Contains(row, st.State.String()) ||
			!strings.Contains(row, fmt.Sprintf("%.2fx", st.Speedup)) {
			t.Errorf("table row %d diverges from snapshot %+v: %q", i, st, row)
		}
	}
}

func stateByName(t *testing.T, name string) State {
	t.Helper()
	for s := Idle; s <= Quarantined; s++ {
		if s.String() == name {
			return s
		}
	}
	t.Fatalf("unknown state %q", name)
	return Idle
}

// TestRetryAndBackoffEvents injects a transient profiling fault and
// asserts the retry and backoff journal events carry the stage and wait.
func TestRetryAndBackoffEvents(t *testing.T) {
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{})
	fails := 0
	m, err := NewManager(Config{
		Robustness: RobustnessConfig{MaxRounds: 1, MaxRetries: 2},
		SkipGate:   true, Tracer: tr,
		Timing: TimingConfig{ProfileDur: 0.0008, Warm: 0.0003, Window: 0.0004},
		Clock:  &recClock{},
		FaultHook: func(s *Service, stage State) error {
			if stage == Profiling && fails < 1 {
				fails++
				return errTransient
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.AddService(ServicePlan{Name: "flaky", Workload: db, Input: "read_only", Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Proc.RunFor(0.0004)
	m.Optimize(m.Scan(ScanOptions{}), WaveOptions{})

	j := tr.Journal()
	faults := j.ByType(trace.EvFaultInjected)
	retries := j.ByType(trace.EvRetry)
	backoffs := j.ByType(trace.EvBackoff)
	if len(faults) != 1 || len(retries) != 1 || len(backoffs) != 1 {
		t.Fatalf("events: faults=%d retries=%d backoffs=%d, want 1/1/1",
			len(faults), len(retries), len(backoffs))
	}
	if v, _ := retries[0].Attrs.Get("stage"); v != "Profiling" {
		t.Errorf("retry stage = %v", v)
	}
	if sec, ok := backoffs[0].Attrs.Get("seconds"); !ok || sec.(float64) <= 0 {
		t.Errorf("backoff seconds = %v", sec)
	}
	if retries[0].Service != "flaky" {
		t.Errorf("retry event service = %q", retries[0].Service)
	}
}
