package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeAndOrdering(t *testing.T) {
	tr := New(Options{})
	root := tr.Start(nil, "service", String("name", "db"))
	root.SetService("db")
	round := tr.Start(root, "round")
	round.SetRound(1)
	profile := tr.Start(round, "profile", Int("samples", 42))
	profile.End(nil)
	replace := tr.Start(round, "replace")
	replace.EventErr(EvRollback, errors.New("boom"), Int("op_index", 7))
	replace.End(errors.New("boom"))
	round.End(errors.New("boom"))
	root.End(nil)

	// Inheritance: children carry the root's service and the round span's
	// round number.
	if svc, _ := profile.Identity(); svc != "db" {
		t.Errorf("profile service = %q, want db", svc)
	}
	if _, rnd := replace.Identity(); rnd != 1 {
		t.Errorf("replace round = %d, want 1", rnd)
	}

	trees := tr.Tree("db")
	if len(trees) != 1 || trees[0].Name != "service" {
		t.Fatalf("tree roots = %+v", trees)
	}
	rnode := trees[0].Children[0]
	if rnode.Name != "round" || len(rnode.Children) != 2 {
		t.Fatalf("round node = %+v", rnode)
	}
	if rnode.Children[0].Name != "profile" || rnode.Children[1].Name != "replace" {
		t.Errorf("children out of start order: %s, %s",
			rnode.Children[0].Name, rnode.Children[1].Name)
	}
	if rnode.Children[1].Err != "boom" {
		t.Errorf("replace node error = %q", rnode.Children[1].Err)
	}
	if rnode.Children[0].Open {
		t.Error("ended span reported open")
	}

	// Monotonic order: every span's start seq precedes its end seq, and a
	// child starts after its parent.
	if !(trees[0].StartSeq < rnode.StartSeq && rnode.StartSeq < rnode.Children[0].StartSeq) {
		t.Errorf("start seqs not nested: %d %d %d",
			trees[0].StartSeq, rnode.StartSeq, rnode.Children[0].StartSeq)
	}
	if profile.node().EndSeq <= profile.node().StartSeq {
		t.Error("end seq not after start seq")
	}

	// The journal carries the rollback event with its attributes.
	rb := tr.Journal().ByType(EvRollback)
	if len(rb) != 1 {
		t.Fatalf("rollback events = %d, want 1", len(rb))
	}
	if rb[0].Service != "db" || rb[0].Round != 1 || rb[0].Stage != "replace" || rb[0].Err != "boom" {
		t.Errorf("rollback event = %+v", rb[0])
	}
	if idx, ok := rb[0].Attrs.Int("op_index"); !ok || idx != 7 {
		t.Errorf("op_index = %d (ok=%v), want 7", idx, ok)
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New(Options{})
	s := tr.Start(nil, "x")
	s.End(errors.New("first"))
	s.End(errors.New("second"))
	if roots := tr.Tree(""); len(roots) != 1 || roots[0].Err != "first" {
		t.Errorf("second End overwrote the first: %+v", roots[0])
	}
	if n := len(tr.Journal().ByType(EvSpanEnd)); n != 1 {
		t.Errorf("span_end events = %d, want 1", n)
	}
}

func TestNilTracerAndSpanAreSinks(t *testing.T) {
	var tr *Tracer
	s := tr.Start(nil, "x", Int("a", 1))
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	// All of these must be safe no-ops.
	s.SetService("db")
	s.SetRound(1)
	s.SetAttrs(Int("b", 2))
	s.Event(EvRevert)
	s.End(nil)
	tr.Emit(Event{Type: EvRevert})
	if tr.Journal().Len() != 0 || tr.Tree("") != nil {
		t.Error("nil tracer retained data")
	}
}

func TestJournalRingBound(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 20; i++ {
		j.Append(Event{Type: EvTransition, Stage: fmt.Sprintf("s%d", i)})
	}
	if j.Len() != 8 {
		t.Fatalf("len = %d, want 8", j.Len())
	}
	if j.Dropped() != 12 {
		t.Errorf("dropped = %d, want 12", j.Dropped())
	}
	evs := j.Events()
	// Oldest retained entry is #13 (seq 13), newest is #20.
	if evs[0].Seq != 13 || evs[len(evs)-1].Seq != 20 {
		t.Errorf("retained seqs %d..%d, want 13..20", evs[0].Seq, evs[len(evs)-1].Seq)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq gap: %d → %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestJournalJSONL(t *testing.T) {
	tr := New(Options{})
	s := tr.Start(nil, "replace")
	s.SetService("db")
	s.EventErr(EvVerifyFail, errors.New("bad slot"), String("what", "vtable"), Int("slot", 3))
	s.End(errors.New("bad slot"))

	var b strings.Builder
	if err := tr.Journal().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 { // span_start, verify_fail, span_end
		t.Fatalf("journal lines = %d:\n%s", len(lines), b.String())
	}
	// Every line is valid JSON with the expected shape.
	var ev struct {
		Seq   uint64         `json:"seq"`
		Type  string         `json:"type"`
		Stage string         `json:"stage"`
		Err   string         `json:"err"`
		Attrs map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("line 2 not JSON: %v\n%s", err, lines[1])
	}
	if ev.Type != "verify_fail" || ev.Stage != "replace" || ev.Err != "bad slot" {
		t.Errorf("event line = %+v", ev)
	}
	if ev.Attrs["what"] != "vtable" || ev.Attrs["slot"] != float64(3) {
		t.Errorf("attrs = %v", ev.Attrs)
	}
}

// TestConcurrentSpansAndJournal hammers span starts/ends, attribute
// writes, and journal appends from many goroutines; run under -race in
// CI. Sequence numbers must come out unique and the journal bounded.
func TestConcurrentSpansAndJournal(t *testing.T) {
	tr := New(Options{JournalCap: 256, MaxSpans: 128})
	root := tr.Start(nil, "root")
	root.SetService("svc")

	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := tr.Start(root, "stage", Int("worker", w))
				s.SetRound(i)
				s.SetAttrs(Int("iter", i))
				s.Event(EvTransition, String("to", "next"))
				if i%2 == 0 {
					s.End(nil)
				} else {
					s.End(errors.New("odd"))
				}
				_ = tr.Tree("svc")
			}
		}(w)
	}
	wg.Wait()
	root.End(nil)

	if got := tr.Journal().Len(); got != 256 {
		t.Errorf("journal len = %d, want full ring 256", got)
	}
	evs := tr.Journal().Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("journal out of order: seq %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestJournalWrapRoundTrip serializes a journal whose ring has wrapped
// and parses it back: the retained window must survive the JSONL
// round-trip event-for-event — sequence numbers, types, and attrs —
// because a shipped journal is exactly this dump.
func TestJournalWrapRoundTrip(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append(Event{Type: EvClockRead, Stage: "clock.now",
			Attrs: Attrs{Int("i", i), Float("f", float64(i)/3), Bool("b", i%2 == 0), String("s", fmt.Sprintf("v%d", i))}})
	}
	if j.Len() != 4 || j.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d, want 4/6", j.Len(), j.Dropped())
	}
	var b strings.Builder
	if err := j.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := j.Events()
	if len(got) != len(want) {
		t.Fatalf("round-trip returned %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || got[i].Stage != want[i].Stage {
			t.Errorf("event %d: %+v, want %+v", i, got[i], want[i])
		}
		if got[i].Seq != uint64(7+i) {
			t.Errorf("event %d seq %d, want %d (oldest retained is #7)", i, got[i].Seq, 7+i)
		}
		for _, a := range want[i].Attrs {
			v, ok := got[i].Attrs.Get(a.Key)
			if !ok {
				t.Errorf("event %d lost attr %q", i, a.Key)
				continue
			}
			switch wv := a.Value.(type) {
			case int:
				if n, ok := got[i].Attrs.Int(a.Key); !ok || n != int64(wv) {
					t.Errorf("event %d attr %q = %v, want %d", i, a.Key, v, wv)
				}
			case float64:
				// Integral floats decode as int64 (the documented JSONL
				// normalization); compare numerically.
				gf, gok := v.(float64)
				if gi, ok := v.(int64); ok {
					gf, gok = float64(gi), true
				}
				if !gok || gf != wv {
					t.Errorf("event %d attr %q = %v (%T), want %v", i, a.Key, v, v, wv)
				}
			default:
				if v != a.Value {
					t.Errorf("event %d attr %q = %v (%T), want %v (%T)", i, a.Key, v, v, a.Value, a.Value)
				}
			}
		}
	}
	// Parsing tolerates blank lines and reports the bad line on error.
	if _, err := ReadJSONL(strings.NewReader("\n" + b.String() + "\n")); err != nil {
		t.Errorf("blank lines rejected: %v", err)
	}
	if _, err := ReadJSONL(strings.NewReader("{\"seq\":1}\nnot-json\n")); err == nil {
		t.Error("corrupt line accepted")
	}
}
