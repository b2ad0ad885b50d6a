package repro_test

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fleet"
	"repro/internal/obj"
	"repro/internal/perf"
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
		{"loopsim_osr", loopsimOSR},
		{"sqldb_rebolt", sqldbRebolt},
		{"sqldb_soak", sqldbSoak},
		{"wave_workers", waveWorkers},
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

// loadGuest loads the named guest at test scale with the given threads,
// driven by its input's generator.
func loadGuest(t *testing.T, name, input string, threads int) (*obj.Binary, *proc.Process, *wl.Driver) {
	w, err := workloads.Build(name, true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.NewDriver(input, threads)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proc.Load(w.Binary, proc.Options{Threads: threads, Handler: d})
	if err != nil {
		t.Fatal(err)
	}
	return w.Binary, p, d
}

func pauseCycles(seconds float64) float64 { return seconds * cpu.DefaultConfig().ClockHz }

// sqldbRound: one OCOLOS round on two-thread sqldb read_only at test
// scale, between a warm-up and a settle window.
func sqldbRound(t *testing.T, rec func(string, any)) {
	bin, p, d := loadGuest(t, "sqldb", "read_only", 2)
	p.RunFor(0.0005)
	reg := telemetry.NewRegistry()
	c, err := core.New(p, bin, core.Options{Metrics: reg})
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
	sqldbWave(t, rec, 2, 1, 1)
}

// sqldbWave runs a fleet wave with the given workers and round cap over
// replicas of test-scale sqldb read_only loaded from one binary, and
// records each replica's state, cpu.Stats, requests and round pauses, then
// the layout-cache hits and misses and the BOLT runs. Hits count the
// coalesced lookups too: with two workers, whether a lookup finds the
// layout cached or waits for the replica building it is host timing.
func sqldbWave(t *testing.T, rec func(string, any), replicas, workers, maxRounds int) {
	w, err := workloads.Build("sqldb", true)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m, err := fleet.NewManager(fleet.Config{
		Workers: workers, SkipGate: true, Metrics: reg,
		Timing:     fleet.TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002},
		Robustness: fleet.RobustnessConfig{MaxRounds: maxRounds},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < replicas; i++ {
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
	rec("cache_hits", cs.Hits+cs.Coalesced)
	rec("cache_misses", cs.Misses)
	rec("bolt_runs", reg.Counter("core_bolt_invocations_total").Value())
}

// loopsimOSR: three OCOLOS rounds on loopsim steady, whose serve loop
// never returns, so every pause parks a frame mid-function and each round
// transfers it by on-stack replacement (or falls back to a copy).
func loopsimOSR(t *testing.T, rec func(string, any)) {
	bin, p, d := loadGuest(t, "loopsim", "steady", 1)
	c, err := core.New(p, bin, core.Options{
		Bolt: bolt.Options{AllowReBolt: true},
		Perf: perf.RecorderOptions{PeriodCycles: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.RunFor(0.0003)
	for r := 1; r <= 3; r++ {
		// Staggered windows keep the pause from landing at one loop offset.
		rr, err := c.OptimizeRound(0.0005 + float64(r)*0.000137)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		pre := fmt.Sprintf("round%d.", r)
		rec(pre+"pause_cycles", pauseCycles(rr.PauseSeconds))
		rec(pre+"osr_mapped", rr.Replace.OSRFramesMapped)
		rec(pre+"osr_fallbacks", rr.Replace.OSRFallbacks)
	}
	p.RunFor(0.0003)
	if err := p.Fault(); err != nil {
		t.Fatal(err)
	}
	recordProcess(rec, "", p, d)
}

// sqldbRebolt: two OCOLOS rounds on sqldb read_only, so the second
// re-BOLTs the running C1 and garbage-collects it through Mem.Unmap.
func sqldbRebolt(t *testing.T, rec func(string, any)) {
	bin, p, d := loadGuest(t, "sqldb", "read_only", 1)
	reg := telemetry.NewRegistry()
	c, err := core.New(p, bin, core.Options{
		Bolt: bolt.Options{AllowReBolt: true}, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.RunFor(0.0003)
	for r := 1; r <= 2; r++ {
		rr, err := c.OptimizeRound(0.0006)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		pre := fmt.Sprintf("round%d.", r)
		rec(pre+"pause_cycles", pauseCycles(rr.PauseSeconds))
		rec(pre+"bytes_injected", rr.Replace.BytesInjected)
		rec(pre+"bytes_freed", rr.Replace.BytesFreed)
		rec(pre+"resident_bytes", p.Mem.ResidentBytes())
		p.RunFor(0.0003)
	}
	if err := p.Fault(); err != nil {
		t.Fatal(err)
	}
	recordProcess(rec, "", p, d)
	rec("max_rss", p.MaxRSS())
	rec("bolt_runs", reg.Counter("core_bolt_invocations_total").Value())
}

// soakRounds is how many rounds sqldbSoak runs: more than core's ring of
// 16 version slots holds, so every slot is reused at least twice.
const soakRounds = 50

// sqldbSoak: continuous optimization of one-thread sqldb read_only for
// soakRounds rounds, then a revert to C0. Staggered profile windows move
// each pause to a different point of the serve loop, so pauses land
// inside stack-live functions and between a v-table load and its call.
// Beyond the pinned rows it asserts that the process never faults, that
// every mapped range lies in C0, the heap, the stacks or one of the
// version slots, and that no OrgRange aliases the running version's code.
func sqldbSoak(t *testing.T, rec func(string, any)) {
	bin, p, d := loadGuest(t, "sqldb", "read_only", 1)
	c, err := core.New(p, bin, core.Options{
		Bolt: bolt.Options{AllowReBolt: true},
		Perf: perf.RecorderOptions{PeriodCycles: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.RunFor(0.0003)
	for r := 1; r <= soakRounds; r++ {
		rr, err := c.OptimizeRound(0.0005 + float64(r%7)*0.000137)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		nb := rr.Build.Result.Binary
		pre := fmt.Sprintf("round%d.", r)
		rec(pre+"osr_mapped", rr.Replace.OSRFramesMapped)
		rec(pre+"osr_fallbacks", rr.Replace.OSRFallbacks)
		rec(pre+"funcs_on_stack", rr.Replace.FuncsOnStack)
		rec(pre+"org_ranges", len(nb.OrgRanges))
		for _, or := range nb.OrgRanges {
			for _, sec := range []*obj.Section{nb.Section(obj.SecText), nb.Section(obj.SecColdText)} {
				if sec != nil && or.Lo < sec.End() && sec.Addr < or.Hi {
					t.Errorf("round %d: OrgRange %s [%#x, %#x) overlaps the running %s", r, or.Name, or.Lo, or.Hi, sec.Name)
				}
			}
		}
		p.RunFor(0.0002)
		if err := p.Fault(); err != nil {
			t.Fatalf("after round %d: %v", r, err)
		}
	}
	rs, err := c.Revert()
	if err != nil {
		t.Fatal(err)
	}
	p.RunFor(0.0002)
	if err := p.Fault(); err != nil {
		t.Fatalf("after the revert: %v", err)
	}
	// The address space core lays out: C0 below the first version slot,
	// the heap, the 64 GiB of thread stacks below proc.StackTop, and 16
	// version slots of text (0x1000_0000 each from 0x2000_0000) and copies
	// areas (0x10_0000_0000 each from 0x1010_0000_0000).
	allowed := [][2]uint64{
		{0, 0x2000_0000},
		{0x2000_0000, 0x2000_0000 + 16*0x1000_0000},
		{proc.HeapBase, 0x1000_0000_0000},
		{0x1010_0000_0000, 0x1010_0000_0000 + 16*0x10_0000_0000},
		{proc.StackTop - 0x10_0000_0000, proc.StackTop},
	}
	mapped := p.Mem.MappedRanges()
	for _, m := range mapped {
		if !slices.ContainsFunc(allowed, func(a [2]uint64) bool { return m[0] >= a[0] && m[1] <= a[1] }) {
			t.Errorf("mapped range [%#x, %#x) lies outside C0, the heap, the stacks and the version slots", m[0], m[1])
		}
	}
	rec("mapped_ranges", len(mapped))
	rec("resident_bytes", p.Mem.ResidentBytes())
	rec("decoded_traces", p.DecodedTraces())
	rec("revert.pause_cycles", pauseCycles(rs.PauseSeconds))
	recordProcess(rec, "", p, d)
}

// waveWorkers: a wave of up to two rounds over four sqldb replicas loaded
// from one binary, run with one worker and again with two. Rounds are
// serialized through the layout cache and the pause budget, so the worker
// count must not move a simulated number: the two runs' rows must match.
func waveWorkers(t *testing.T, rec func(string, any)) {
	run := func(workers int) []string {
		var rows []string
		sqldbWave(t, func(field string, v any) { rows = append(rows, field+" "+formatSim(v)) }, 4, workers, 2)
		return rows
	}
	serial, parallel := run(1), run(2)
	if !slices.Equal(serial, parallel) {
		t.Errorf("one worker and two disagree:\n%s\nvs\n%s", strings.Join(serial, "\n"), strings.Join(parallel, "\n"))
	}
	for _, row := range serial {
		rec(splitRow(row))
	}
}
