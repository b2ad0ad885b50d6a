package replay

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// roundTrip serializes a recorder's journal and parses it back, exactly
// like a shipped artifact.
func roundTrip(t *testing.T, s *Session) []trace.Event {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestNilSessionPassesThrough(t *testing.T) {
	var s *Session
	if s.Active() || s.Recording() || s.Replaying() || s.Mode() != ModeOff {
		t.Error("nil session reports a mode")
	}
	if s.Finish() != nil || s.Journal() != nil {
		t.Error("nil session has state")
	}
	inner := &fakeClock{now: time.Unix(100, 0)}
	if got := s.Clock(inner).Now(); !got.Equal(inner.now) {
		t.Errorf("nil-session clock read %v, want inner %v", got, inner.now)
	}
	if got := s.Jitter(func() float64 { return 0.5 })(); got != 0.5 {
		t.Errorf("nil-session jitter = %v, want 0.5", got)
	}
	if s.SchedQuantum(nil) != nil {
		t.Error("nil session wrapped a nil quantum source")
	}
	called := false
	err := s.Fault("site", nil, func() error { called = true; return nil })
	if err != nil || !called {
		t.Error("nil-session fault did not run the live hook")
	}
	if err := s.Checkpoint("x", 1); err != nil {
		t.Error("nil-session checkpoint errored")
	}
}

type fakeClock struct {
	now    time.Time
	slept  []time.Duration
	stepBy time.Duration
}

func (c *fakeClock) Now() time.Time {
	n := c.now
	c.now = c.now.Add(c.stepBy)
	return n
}
func (c *fakeClock) Sleep(d time.Duration) { c.slept = append(c.slept, d) }

// TestClockJitterRoundTrip records clock reads, sleeps, and jitter
// draws, then replays them: the replayed values must be the recorded
// ones (not the new inner source's), the inner sleep must not run, and
// the re-recorded journal must be byte-identical.
func TestClockJitterRoundTrip(t *testing.T) {
	rec := NewRecorder(0)
	if err := rec.Meta(trace.String("kind", "unit")); err != nil {
		t.Fatal(err)
	}
	inner := &fakeClock{now: time.Unix(1000, 12345), stepBy: time.Second}
	clk := rec.Clock(inner)
	draws := []float64{0.25, 0.75, math.Pi / 4}
	di := 0
	jit := rec.Jitter(func() float64 { d := draws[di]; di++; return d })

	var wantNow []time.Time
	for i := 0; i < 3; i++ {
		wantNow = append(wantNow, clk.Now())
	}
	clk.Sleep(42 * time.Millisecond)
	var wantJit []float64
	for i := 0; i < 3; i++ {
		wantJit = append(wantJit, jit())
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	var recorded bytes.Buffer
	if err := rec.WriteJSONL(&recorded); err != nil {
		t.Fatal(err)
	}

	events := roundTrip(t, rec)
	rp, err := NewReplayer(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Meta(trace.String("kind", "unit")); err != nil {
		t.Fatal(err)
	}
	inner2 := &fakeClock{now: time.Unix(9999, 0), stepBy: time.Hour} // wrong on purpose
	clk2 := rp.Clock(inner2)
	jit2 := rp.Jitter(func() float64 { return -1 }) // wrong on purpose
	for i, want := range wantNow {
		if got := clk2.Now(); !got.Equal(want) {
			t.Errorf("replayed Now %d = %v, want recorded %v", i, got, want)
		}
	}
	clk2.Sleep(42 * time.Millisecond)
	if len(inner2.slept) != 0 {
		t.Error("replay performed a real sleep")
	}
	for i, want := range wantJit {
		if got := jit2(); got != want {
			t.Errorf("replayed jitter %d = %v, want recorded %v (bit-exact)", i, got, want)
		}
	}
	if err := rp.Finish(); err != nil {
		t.Fatal(err)
	}
	var rerecorded bytes.Buffer
	if err := rp.WriteJSONL(&rerecorded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recorded.Bytes(), rerecorded.Bytes()) {
		t.Error("re-recorded journal not byte-identical")
	}
}

// TestSchedQuantumRoundTrip records a perturbing scheduler-quantum
// source and replays its picks from the journal with no live source.
func TestSchedQuantumRoundTrip(t *testing.T) {
	rec := NewRecorder(0)
	src := rec.SchedQuantum(func(tid, proposed int) int { return proposed - tid - 1 })
	if src == nil {
		t.Fatal("recording wrapper for a live source is nil")
	}
	var want []int
	for tid := 0; tid < 3; tid++ {
		want = append(want, src(tid, 10))
	}

	events := roundTrip(t, rec)
	rp, err := NewReplayer(events)
	if err != nil {
		t.Fatal(err)
	}
	src2 := rp.SchedQuantum(nil) // journal-fed: no live source needed
	if src2 == nil {
		t.Fatal("replay wrapper is nil despite a recorded injected policy")
	}
	for tid := 0; tid < 3; tid++ {
		if got := src2(tid, 10); got != want[tid] {
			t.Errorf("replayed quantum for tid %d = %d, want %d", tid, got, want[tid])
		}
	}
	if err := rp.Finish(); err != nil {
		t.Fatal(err)
	}

	// A recorded nil policy replays as nil: the deterministic default
	// needs no journal feed.
	rec2 := NewRecorder(0)
	if rec2.SchedQuantum(nil) != nil {
		t.Error("recording wrapper for a nil source is not nil")
	}
	rp2, err := NewReplayer(roundTrip(t, rec2))
	if err != nil {
		t.Fatal(err)
	}
	if rp2.SchedQuantum(func(tid, proposed int) int { return 1 }) != nil {
		t.Error("replay invented a quantum source the recording did not have")
	}
}

// TestFaultConditionalPeek: only firing faults are recorded, and replay
// consumes a fault decision exactly when the identity matches — every
// other probe returns nil without touching the journal.
func TestFaultConditionalPeek(t *testing.T) {
	boom := errors.New("op 2 failed")
	rec := NewRecorder(0)
	for i := 0; i < 5; i++ {
		ident := trace.Attrs{trace.String("op", "write"), trace.Int("op_index", i)}
		err := rec.Fault("unit.site", ident, func() error {
			if i == 2 {
				return boom
			}
			return nil
		})
		if (err != nil) != (i == 2) {
			t.Fatalf("record fault at %d: %v", i, err)
		}
	}
	if n := len(rec.Events()); n != 1 {
		t.Fatalf("recorded %d events, want 1 (only the firing fault)", n)
	}

	rp, err := NewReplayer(roundTrip(t, rec))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ident := trace.Attrs{trace.String("op", "write"), trace.Int("op_index", i)}
		err := rp.Fault("unit.site", ident, func() error {
			t.Fatal("replay ran the live hook")
			return nil
		})
		if i == 2 {
			var rf *RecordedFault
			if !errors.As(err, &rf) {
				t.Fatalf("replay fault at %d: %v, want RecordedFault", i, err)
			}
			if err.Error() != boom.Error() {
				t.Errorf("recorded fault message %q, want %q verbatim", err.Error(), boom.Error())
			}
		} else if err != nil {
			t.Fatalf("replay injected a fault at %d: %v", i, err)
		}
	}
	if err := rp.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointDivergence: a replayed checkpoint whose recomputed hash
// differs must fail immediately with the diverging seq and both
// payloads, and the error must stick.
func TestCheckpointDivergence(t *testing.T) {
	rec := NewRecorder(0)
	if err := rec.Checkpoint("round", 0xabc, trace.Int("version", 1)); err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(roundTrip(t, rec))
	if err != nil {
		t.Fatal(err)
	}
	err = rp.Checkpoint("round", 0xdef, trace.Int("version", 1))
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("mismatched checkpoint returned %v, want DivergenceError", err)
	}
	if div.Seq != 1 {
		t.Errorf("diverged at seq %d, want 1", div.Seq)
	}
	msg := err.Error()
	for _, want := range []string{"diverged at seq 1", "0xabc", "0xdef"} {
		if !strings.Contains(msg, want) {
			t.Errorf("divergence message %q missing %q", msg, want)
		}
	}
	if rp.Finish() == nil {
		t.Error("divergence did not stick")
	}
}

// TestReplayExhaustionAndUnconsumed covers both length mismatches: an
// execution that asks for more decisions than were recorded, and one
// that ends before consuming the whole journal.
func TestReplayExhaustionAndUnconsumed(t *testing.T) {
	rec := NewRecorder(0)
	if err := rec.Checkpoint("only", 1); err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(roundTrip(t, rec))
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Checkpoint("only", 1); err != nil {
		t.Fatal(err)
	}
	err = rp.Checkpoint("extra", 2)
	var div *DivergenceError
	if !errors.As(err, &div) || div.Seq != 2 {
		t.Errorf("journal exhaustion returned %v, want DivergenceError at seq 2", err)
	}
	if !strings.Contains(err.Error(), "journal exhausted") {
		t.Errorf("exhaustion message: %q", err.Error())
	}

	rec2 := NewRecorder(0)
	rec2.Checkpoint("a", 1)
	rec2.Checkpoint("b", 2)
	rp2, err := NewReplayer(roundTrip(t, rec2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rp2.Checkpoint("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := rp2.Finish(); err == nil || !strings.Contains(err.Error(), "unconsumed") {
		t.Errorf("short run finished clean: %v", err)
	}
}

// TestTruncatedJournalRefused: a ring that wrapped produces a dump the
// replayer must refuse with a clear "journal truncated" error — at
// Finish in record mode, and at construction in replay mode.
func TestTruncatedJournalRefused(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		if err := rec.Checkpoint("cp", uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	err := rec.Finish()
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("overflowing recorder finished clean: %v", err)
	}
	if !strings.Contains(err.Error(), "journal truncated — replay unavailable") {
		t.Errorf("truncation message: %q", err.Error())
	}

	_, err = NewReplayer(roundTrip(t, rec))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated dump accepted by the replayer: %v", err)
	}
	if !strings.Contains(err.Error(), "journal truncated — replay unavailable") {
		t.Errorf("replayer truncation message: %q", err.Error())
	}

	// Gaps in the middle are corruption, not truncation.
	events := []trace.Event{{Seq: 1, Type: trace.EvCheckpoint}, {Seq: 3, Type: trace.EvCheckpoint}}
	if _, err := NewReplayer(events); err == nil || errors.Is(err, ErrTruncated) {
		t.Errorf("gapped journal: %v", err)
	}
	if _, err := NewReplayer(nil); err == nil {
		t.Error("empty journal accepted")
	}
}

// TestMetaMismatch: replaying under a different configuration diverges
// on the very first event.
func TestMetaMismatch(t *testing.T) {
	rec := NewRecorder(0)
	if err := rec.Meta(trace.String("workload", "kvcache"), trace.Int("rounds", 2)); err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(roundTrip(t, rec))
	if err != nil {
		t.Fatal(err)
	}
	err = rp.Meta(trace.String("workload", "sqldb"), trace.Int("rounds", 2))
	var div *DivergenceError
	if !errors.As(err, &div) || div.Seq != 1 {
		t.Fatalf("config drift returned %v, want DivergenceError at seq 1", err)
	}
	meta, err := MetaOf(rp.Events())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := meta.Get("workload"); v != "kvcache" {
		t.Errorf("MetaOf workload = %v", v)
	}
}

// TestDumpArtifact honors OCOLOS_TEST_ARTIFACTS and sanitizes names.
func TestDumpArtifact(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("OCOLOS_TEST_ARTIFACTS", dir)
	rec := NewRecorder(0)
	if err := rec.Checkpoint("cp", 7); err != nil {
		t.Fatal(err)
	}
	path, err := rec.DumpArtifact("suite/TestX case 1")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || strings.ContainsAny(filepath.Base(path), "/: ") {
		t.Errorf("artifact path %q not sanitized into %q", path, dir)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Type != trace.EvCheckpoint || len(data) == 0 {
		t.Errorf("artifact contents: %d events, %d bytes", len(got), len(data))
	}
}
