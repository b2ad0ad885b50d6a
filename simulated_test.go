package repro_test

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fleet"
	"repro/internal/proc"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/internal/workloads/wl"
)

var update = flag.Bool("update", false, "rewrite testdata/simulated.txt from this run")

const simulatedTable = "testdata/simulated.txt"

// TestSimulatedOutputs runs short seeded scenarios through the whole
// system and compares what they simulate (every cpu.Stats field, the
// requests served, the pause and the BOLT runs) with the committed table
// in testdata/simulated.txt, one line per scenario and field. Host time
// moves none of these numbers, so the table holds exactly; a change that
// means to move one rewrites the table with
//
//	go test -run TestSimulatedOutputs . -update
//
// and the table's diff lists what moved.
func TestSimulatedOutputs(t *testing.T) {
	var got []string
	for _, sc := range []struct {
		name string
		run  func(t *testing.T, rec func(field string, v any))
	}{
		{"sqldb_round", sqldbRound},
		{"wave_cache_hit", waveCacheHit},
	} {
		sc.run(t, func(field string, v any) {
			got = append(got, fmt.Sprintf("%s %s %s", sc.name, field, formatSim(v)))
		})
	}
	if *update {
		if err := os.WriteFile(simulatedTable, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(simulatedTable)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		key, val := splitRow(line)
		want[key] = val
		order = append(order, key)
	}
	seen := map[string]bool{}
	for _, line := range got {
		key, val := splitRow(line)
		seen[key] = true
		if w, ok := want[key]; !ok {
			t.Errorf("%s = %s: not in %s", key, val, simulatedTable)
		} else if w != val {
			t.Errorf("%s = %s, table has %s", key, val, w)
		}
	}
	for _, key := range order {
		if !seen[key] {
			t.Errorf("%s: in %s but no longer recorded", key, simulatedTable)
		}
	}
}

// splitRow splits a table line into its "scenario field" key and value.
func splitRow(line string) (key, val string) {
	i := strings.LastIndexByte(line, ' ')
	return line[:i], line[i+1:]
}

// formatSim prints a number exactly: floats in their shortest
// round-tripping form.
func formatSim(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// recordProcess records every cpu.Stats field of p, summed over its
// threads, and the requests d's guest served.
func recordProcess(rec func(string, any), prefix string, p *proc.Process, d *wl.Driver) {
	s := reflect.ValueOf(p.Stats())
	for i := 0; i < s.NumField(); i++ {
		rec(prefix+"cpu."+s.Type().Field(i).Name, s.Field(i).Interface())
	}
	rec(prefix+"requests", d.Completed())
}

func pauseCycles(seconds float64) float64 { return seconds * cpu.DefaultConfig().ClockHz }

// sqldbRound: one OCOLOS round on two-thread sqldb read_only at test
// scale, between a warm-up and a settle window.
func sqldbRound(t *testing.T, rec func(string, any)) {
	w, err := workloads.Build("sqldb", true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.NewDriver("read_only", 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proc.Load(w.Binary, proc.Options{Threads: 2, Handler: d})
	if err != nil {
		t.Fatal(err)
	}
	p.RunFor(0.0005)
	reg := telemetry.NewRegistry()
	c, err := core.New(p, w.Binary, core.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := c.OptimizeRound(0.001)
	if err != nil {
		t.Fatal(err)
	}
	p.RunFor(0.0005)
	if err := p.Fault(); err != nil {
		t.Fatal(err)
	}
	recordProcess(rec, "", p, d)
	rec("pause_cycles", pauseCycles(rr.PauseSeconds))
	rec("bolt_runs", reg.Counter("core_bolt_invocations_total").Value())
}

// waveCacheHit: a one-worker fleet wave over two sqldb replicas loaded
// from one binary, so the second round is a layout-cache hit and the two
// processes share the binary's image.
func waveCacheHit(t *testing.T, rec func(string, any)) {
	w, err := workloads.Build("sqldb", true)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m, err := fleet.NewManager(fleet.Config{
		Workers: 1, SkipGate: true, Metrics: reg,
		Timing:     fleet.TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002},
		Robustness: fleet.RobustnessConfig{MaxRounds: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s, err := m.AddService(fleet.ServicePlan{
			Name: fmt.Sprintf("replica%d", i), Workload: w, Input: "read_only", Threads: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Proc.RunFor(0.0002)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Services() {
		st := s.Status()
		rec(s.Name+".state", st.State)
		recordProcess(rec, s.Name+".", s.Proc, s.Driver)
		for _, r := range st.Rounds {
			rec(s.Name+".pause_cycles", pauseCycles(r.PauseSeconds))
		}
	}
	cs, _ := m.CacheStats()
	rec("cache_hits", cs.Hits)
	rec("cache_misses", cs.Misses)
	rec("bolt_runs", reg.Counter("core_bolt_invocations_total").Value())
}
