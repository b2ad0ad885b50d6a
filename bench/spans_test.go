package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	// rep [0,10] ⊃ profile [1,4], round [4,9] ⊃ {bolt 3 s, replace 1 s ⊃ verify 0.25 s}
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "profile", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "round", Start: 4, End: 9},
		{ID: 4, Parent: 3, Name: "bolt", Start: 4, End: 7, Synth: true},
		{ID: 5, Parent: 3, Name: "replace", Start: 7, End: 8, Synth: true},
		{ID: 6, Parent: 5, Name: "verify", Start: 7, End: 7.25, Synth: true},
		{ID: 7, Name: "rep", Rep: 1, Start: 20, End: 21}, // another repetition: not counted
	}
	got := selfTimes(spans, 0)
	want := map[string]float64{"unattributed": 2, "profile": 3, "round": 1, "bolt": 3, "replace": 0.75, "verify": 0.25}
	sum := 0.0
	for k, v := range got {
		if !near(v, want[k]) {
			t.Errorf("self[%s] = %v, want %v", k, v, want[k])
		}
		sum += v
	}
	if !near(sum, 10) {
		t.Errorf("buckets sum to %v, want the repetition's 10", sum)
	}
	if got := selfTimes(spans, 1); !near(got["unattributed"], 1) {
		t.Errorf("rep 1 = %v", got)
	}
}

func TestUnknownSpanNamesAreUnattributed(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 4},
		{ID: 2, Parent: 1, Name: "optimize", Start: 1, End: 3},
		{ID: 3, Parent: 2, Name: "guest", Start: 1, End: 2},
	}
	got := selfTimes(spans, 0)
	if !near(got["unattributed"], 3) || !near(got["guest"], 1) {
		t.Errorf("got %v", got)
	}
}

func TestRecorderNestingAndGraft(t *testing.T) {
	r := newRecorder()
	r.rep = 2
	root := r.begin("rep")
	st := r.begin("replace")
	st.end()
	st.graft("verify", 0.5).graft("inner", 0.1)
	st.graft("verify", 0.25) // packed after its sibling
	st.graft("nothing", 0)   // a zero duration records nothing
	root.end()

	if len(r.spans) != 5 {
		t.Fatalf("%d spans, want 5", len(r.spans))
	}
	byName := map[string][]span{}
	for _, s := range r.spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Rep != 2 {
			t.Errorf("%s: rep %d, want 2", s.Name, s.Rep)
		}
	}
	rep, replace, verify := byName["rep"][0], byName["replace"][0], byName["verify"]
	if rep.Parent != 0 || replace.Parent != rep.ID || verify[0].Parent != replace.ID || byName["inner"][0].Parent != verify[0].ID {
		t.Errorf("bad nesting: %+v", r.spans)
	}
	if !verify[0].Synth || replace.Synth {
		t.Error("only grafted spans are synthetic")
	}
	if !near(verify[0].dur(), 0.5) || !near(verify[1].Start, verify[0].End) {
		t.Errorf("grafts not packed: %+v", verify)
	}
	if rep.End < replace.End || replace.End < replace.Start {
		t.Error("timestamps out of order")
	}

	var buf bytes.Buffer
	if err := r.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 5 {
		t.Errorf("%d JSONL lines, want 5", n)
	}
	for _, key := range []string{`"name"`, `"start_s"`, `"end_s"`, `"parent"`, `"rep"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("span record lacks %s", key)
		}
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *recorder
	sp := r.begin("x")
	sp.graft("y", 1).graft("z", 1)
	sp.end()
}
