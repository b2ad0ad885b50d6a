package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// stageOfSpan maps each stage span the controller and manager open to
// the lifecycle state whose work it is.
var stageOfSpan = map[string]State{
	"profile":   Profiling,
	"perf2bolt": Building,
	"bolt":      Building,
	"replace":   Replacing,
	"verify":    Replacing,
	"measure":   Measuring,
}

// TestJournalProgramOrder: every trace write of a wave lands at its
// program point, so per service the journal's Seq order is program
// order — in a concurrent wave exactly as in a serial one. Twelve
// replicas (one with an injected Building retry) run once on four
// workers and once serially; each run's per-service journal must read
// transition → X before anything stage X emits, fault → retry → backoff
// back to back, and the root span's end last; and the two runs must
// produce the same per-service event sequence (one write path).
func TestJournalProgramOrder(t *testing.T) {
	const n, flaky = 12, "replica-ca"
	sequences := map[string]map[string][]string{}
	for _, in := range []struct {
		name string
		wave WaveOptions
	}{
		{"workers4", WaveOptions{}},
		{"serial", WaveOptions{Serial: true}},
	} {
		tr := trace.New(trace.Options{})
		var injected atomic.Bool
		m, svcs := homogeneousFleet(t, n, Config{
			Workers: 4, Tracer: tr, Metrics: telemetry.NewRegistry(),
			FaultHook: func(s *Service, stage State) error {
				if s.Name == flaky && stage == Building && injected.CompareAndSwap(false, true) {
					return errors.New("transient build fault")
				}
				return nil
			},
		})
		m.Optimize(m.Scan(ScanOptions{}), in.wave)

		seqs := map[string][]string{}
		for _, s := range svcs {
			if st := s.State(); st != Steady {
				t.Fatalf("%s: %s ended %s, want Steady: %v", in.name, s.Name, st, s.Err())
			}
			events := tr.Journal().ByService(s.Name)
			cur, retries := Idle, 0
			for i, e := range events {
				if i > 0 && e.Seq <= events[i-1].Seq {
					t.Fatalf("%s: %s: journal not in Seq order at %d", in.name, s.Name, e.Seq)
				}
				sig := fmt.Sprintf("%s/%s", e.Type, e.Stage)
				switch e.Type {
				case trace.EvTransition:
					to, _ := e.Attrs.Get("to")
					cur = stateByName(t, to.(string))
					sig += "→" + cur.String()
				case trace.EvSpanStart, trace.EvSpanEnd:
					if want, ok := stageOfSpan[e.Stage]; ok && want != cur {
						t.Errorf("%s: %s: seq %d %s %q journaled while the service reads %s, want %s",
							in.name, s.Name, e.Seq, e.Type, e.Stage, cur, want)
					}
				case trace.EvFaultInjected, trace.EvRetry, trace.EvBackoff:
					stage, _ := e.Attrs.Get("stage")
					sig += ":" + stage.(string)
					if stage != cur.String() {
						t.Errorf("%s: %s: seq %d %s of stage %v journaled while the service reads %s",
							in.name, s.Name, e.Seq, e.Type, stage, cur)
					}
				}
				if e.Type == trace.EvRetry {
					retries++
					if i == 0 || i+1 >= len(events) || events[i-1].Type != trace.EvFaultInjected ||
						events[i+1].Type != trace.EvBackoff {
						t.Errorf("%s: %s: retry at seq %d not bracketed by its fault and backoff", in.name, s.Name, e.Seq)
					}
				}
				seqs[s.Name] = append(seqs[s.Name], sig)
			}
			if (retries == 1) != (s.Name == flaky) {
				t.Errorf("%s: %s journaled %d retries (only %s has one injected)", in.name, s.Name, retries, flaky)
			}
			if last := events[len(events)-1]; last.Type != trace.EvSpanEnd || last.Stage != "service" {
				t.Errorf("%s: %s: last event is seq %d %s %q, want the root span_end",
					in.name, s.Name, last.Seq, last.Type, last.Stage)
			}
		}
		sequences[in.name] = seqs
	}
	for name, serial := range sequences["serial"] {
		if conc := sequences["workers4"][name]; !reflect.DeepEqual(conc, serial) {
			t.Errorf("%s: concurrent and serial waves journal different sequences:\n  workers4 %v\n  serial   %v",
				name, conc, serial)
		}
	}
}
