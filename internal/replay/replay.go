// Package replay is the rr-style deterministic record/replay layer for
// whole optimization sessions (profile → perf2bolt → BOLT → replace →
// rollback). The simulated substrate is deterministic by construction —
// round-robin scheduling, cycle-driven perf sampling, seeded workload
// generators — so only the *injected* nondeterminism needs recording:
// wall-clock reads and backoff sleeps (fleet), jitter draws (retry
// backoff), perf sampling deadlines, non-default scheduler quantum
// choices, and fault-hook decisions. A Session in record mode journals
// each such decision as a typed trace.Event; in replay mode it feeds the
// recorded decisions back in order, re-recording as it goes, so a
// faithful replay yields a byte-identical journal. StateHash checkpoints
// at every replace/rollback boundary make divergence fail fast with the
// exact sequence number and both event payloads.
//
// The decision sources are plain func/interface seams (perf.NextDeadline,
// proc.SchedQuantum, core/fleet fault hooks, fleet.Clock), so the
// instrumented packages never import replay types they don't need; a nil
// *Session is a valid pass-through everywhere. See docs/replay.md.
package replay

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/trace"
)

// Mode is a session's direction.
type Mode int

const (
	// ModeOff: no session; every wrapper passes through to its inner source.
	ModeOff Mode = iota
	// ModeRecord: decisions run live and are journaled.
	ModeRecord
	// ModeReplay: decisions are fed back from the recorded journal.
	ModeReplay
)

// DefaultCap bounds a recording session's journal. Recorded events are
// only the actual nondeterministic decisions (a few hundred per round,
// dominated by perf sampling deadlines), so the default is generous; a
// session that still overflows produces a truncated dump the replayer
// refuses with ErrTruncated.
const DefaultCap = 1 << 17

// ErrTruncated marks a journal whose oldest events were evicted by the
// recorder's ring before the dump — replay needs the complete prefix.
var ErrTruncated = errors.New("replay: journal truncated — replay unavailable")

// DivergenceError reports the first point where a replayed execution
// asked for a decision the recording does not contain (or contains
// differently). Want is the recorded event, Got what the execution
// produced; Seq is where the journals fork.
type DivergenceError struct {
	Seq  uint64
	Want trace.Event // recorded (zero Event when the journal was exhausted)
	Got  trace.Event // what the replayed execution produced
}

func (e *DivergenceError) Error() string {
	if e.Want.Type == 0 && e.Want.Seq == 0 {
		return fmt.Sprintf("replay: diverged at seq %d: journal exhausted, but execution asked for %s",
			e.Seq, fmtEvent(e.Got))
	}
	return fmt.Sprintf("replay: diverged at seq %d: recorded %s, got %s",
		e.Seq, fmtEvent(e.Want), fmtEvent(e.Got))
}

func fmtEvent(e trace.Event) string {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Sprintf("%+v", e)
	}
	return string(b)
}

// RecordedFault is the error a replaying fault hook returns in place of
// the live hook's error: its message is the recorded message verbatim,
// so error matching on message content behaves identically under replay.
type RecordedFault struct{ Msg string }

func (e *RecordedFault) Error() string { return e.Msg }

// Session records or replays one optimization session's nondeterminism.
// A nil *Session (or ModeOff) passes every decision through live. All
// methods are safe for concurrent use, but meaningful replay requires
// the decisions themselves to arrive in a deterministic order — the
// fleet manager serializes its wave (Workers=1) while a session is
// active for exactly that reason.
type Session struct {
	mode Mode

	mu  sync.Mutex
	out *trace.Journal // recorded (or re-recorded) decisions
	in  []trace.Event  // replay input
	pos int            // next replay event
	err error          // sticky first divergence
}

// NewRecorder returns a recording session (cap <= 0 means DefaultCap).
func NewRecorder(cap int) *Session {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Session{mode: ModeRecord, out: trace.NewJournal(cap)}
}

// NewReplayer returns a session that replays the given recorded events.
// The journal must be complete (first seq 1 — a ring that wrapped has
// evicted the prefix replay needs) and contiguous.
func NewReplayer(events []trace.Event) (*Session, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("replay: empty journal")
	}
	if events[0].Seq != 1 {
		return nil, fmt.Errorf("%w (first recorded seq %d; the %d earlier events were evicted by the recorder's ring)",
			ErrTruncated, events[0].Seq, events[0].Seq-1)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			return nil, fmt.Errorf("replay: corrupt journal: seq %d follows seq %d at index %d",
				events[i].Seq, events[i-1].Seq, i)
		}
	}
	// The re-record journal must hold every event or byte-identity breaks.
	return &Session{mode: ModeReplay, in: events, out: trace.NewJournal(len(events))}, nil
}

// Load parses a journal dump (the -record output) into events.
func Load(r io.Reader) ([]trace.Event, error) { return trace.ReadJSONL(r) }

// LoadFile reads and parses a journal dump from disk.
func LoadFile(path string) ([]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Mode returns the session's direction (ModeOff on nil).
func (s *Session) Mode() Mode {
	if s == nil {
		return ModeOff
	}
	return s.mode
}

// Active reports whether the session records or replays.
func (s *Session) Active() bool { return s.Mode() != ModeOff }

// Recording reports record mode.
func (s *Session) Recording() bool { return s.Mode() == ModeRecord }

// Replaying reports replay mode.
func (s *Session) Replaying() bool { return s.Mode() == ModeReplay }

// Journal returns the session's output journal: the recording in record
// mode, the re-recording in replay mode.
func (s *Session) Journal() *trace.Journal {
	if s == nil {
		return nil
	}
	return s.out
}

// Events returns the output journal's events.
func (s *Session) Events() []trace.Event { return s.Journal().Events() }

// WriteJSONL dumps the output journal as JSONL.
func (s *Session) WriteJSONL(w io.Writer) error { return s.Journal().WriteJSONL(w) }

// Finish validates the session end state. In record mode it fails if
// the ring evicted events (the dump would be unreplayable); in replay
// mode it fails on a sticky divergence or on recorded decisions the
// execution never consumed (the run ended short of the recording).
func (s *Session) Finish() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.mode == ModeRecord {
		if d := s.out.Dropped(); d > 0 {
			return fmt.Errorf("%w (recorder ring evicted %d events; raise the journal cap)", ErrTruncated, d)
		}
		return nil
	}
	if s.mode == ModeReplay && s.pos < len(s.in) {
		return fmt.Errorf("replay: execution ended with %d recorded decisions unconsumed (next: %s)",
			len(s.in)-s.pos, fmtEvent(s.in[s.pos]))
	}
	return nil
}

// step records one decision or replays the next recorded one. e carries
// the decision's identity (type, stage, service, and identity attrs the
// replaying execution recomputes); live computes the payload attrs in
// record mode and is not called during replay. The returned attrs are
// identity+payload — recorded values in replay mode.
func (s *Session) step(e trace.Event, live func() trace.Attrs) (trace.Attrs, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	switch s.mode {
	case ModeRecord:
		if live != nil {
			e.Attrs = append(e.Attrs, live()...)
		}
		s.out.Append(e)
		return e.Attrs, nil
	case ModeReplay:
		if s.pos >= len(s.in) {
			s.err = &DivergenceError{Seq: uint64(len(s.in)) + 1, Got: e}
			return nil, s.err
		}
		rec := s.in[s.pos]
		if !sameDecision(rec, e) {
			s.err = &DivergenceError{Seq: rec.Seq, Want: rec, Got: e}
			return nil, s.err
		}
		s.pos++
		s.out.Append(rec)
		return rec.Attrs, nil
	}
	return nil, nil
}

// sameDecision reports whether the recorded event rec matches the
// decision identity e: same type/stage/service/err and e's attrs (the
// recomputed identity) as an exact prefix of rec's (identity+payload).
func sameDecision(rec, e trace.Event) bool {
	if rec.Type != e.Type || rec.Stage != e.Stage || rec.Service != e.Service || rec.Err != e.Err {
		return false
	}
	if len(e.Attrs) > len(rec.Attrs) {
		return false
	}
	for i, a := range e.Attrs {
		if rec.Attrs[i].Key != a.Key || !attrValueEqual(rec.Attrs[i].Value, a.Value) {
			return false
		}
	}
	return true
}

// attrValueEqual compares attr values across a JSON round-trip: the
// constructors store int64/float64/string/bool and Attrs.UnmarshalJSON
// decodes integral numbers as int64, so a numeric cross-check is the
// only normalization needed.
func attrValueEqual(a, b any) bool {
	if a == b {
		return true
	}
	af, aok := asFloat(a)
	bf, bok := asFloat(b)
	return aok && bok && af == bf
}

func asFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case int64:
		return float64(n), true
	case float64:
		return n, true
	}
	return 0, false
}

// Meta journals the session header: the config identity the replayer
// uses to reconstruct the run. All attrs are identity — a replay started
// with a different configuration diverges on its first event.
func (s *Session) Meta(attrs ...trace.Attr) error {
	if !s.Active() {
		return nil
	}
	_, err := s.step(trace.Event{Type: trace.EvSessionMeta, Stage: "session"}, func() trace.Attrs {
		return attrs
	})
	if s.Replaying() && err == nil {
		// Re-check identity: meta attrs are recomputed by the replayer from
		// the recorded meta itself, so a mismatch means config drift.
		return s.verifyLast(attrs)
	}
	return err
}

// verifyLast compares attrs against the most recently replayed event.
func (s *Session) verifyLast(attrs trace.Attrs) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.in[s.pos-1]
	if len(attrs) != len(rec.Attrs) {
		s.err = &DivergenceError{Seq: rec.Seq, Want: rec,
			Got: trace.Event{Type: rec.Type, Stage: rec.Stage, Attrs: attrs}}
		return s.err
	}
	for i, a := range attrs {
		if rec.Attrs[i].Key != a.Key || !attrValueEqual(rec.Attrs[i].Value, a.Value) {
			s.err = &DivergenceError{Seq: rec.Seq, Want: rec,
				Got: trace.Event{Type: rec.Type, Stage: rec.Stage, Attrs: attrs}}
			return s.err
		}
	}
	return nil
}

// MetaOf returns the session-meta attrs heading a recorded journal.
func MetaOf(events []trace.Event) (trace.Attrs, error) {
	if len(events) == 0 || events[0].Type != trace.EvSessionMeta {
		return nil, fmt.Errorf("replay: journal does not start with a session_meta event")
	}
	return events[0].Attrs, nil
}

// Checkpoint journals a named state-hash checkpoint. Everything is
// identity: in replay mode the execution recomputes the hash, and any
// mismatch surfaces immediately as a DivergenceError.
func (s *Session) Checkpoint(name string, hash uint64, extra ...trace.Attr) error {
	if !s.Active() {
		return nil
	}
	attrs := trace.Attrs{trace.String("name", name), trace.String("state_hash", fmt.Sprintf("%#x", hash))}
	attrs = append(attrs, extra...)
	_, err := s.step(trace.Event{Type: trace.EvCheckpoint, Stage: "checkpoint", Attrs: attrs}, nil)
	return err
}

// Fault records or replays one fault-injection decision at the named
// site. Only firing faults are journaled (the rr discipline: record the
// deviation, not every non-event), so in replay mode the next recorded
// event is consumed exactly when its identity matches this site — and
// the recorded error is returned as a *RecordedFault without running
// any live hook, which is what lets a failure reproduce from its
// journal alone.
func (s *Session) Fault(site string, identity trace.Attrs, live func() error) error {
	if !s.Active() {
		if live != nil {
			return live()
		}
		return nil
	}
	if s.Recording() {
		var err error
		if live != nil {
			err = live()
		}
		if err != nil {
			s.mu.Lock()
			if s.err == nil {
				attrs := append(append(trace.Attrs{}, identity...), trace.String("fault_err", err.Error()))
				s.out.Append(trace.Event{Type: trace.EvFaultDecision, Stage: site, Attrs: attrs})
			}
			s.mu.Unlock()
		}
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.pos < len(s.in) {
		rec := s.in[s.pos]
		if rec.Type == trace.EvFaultDecision && rec.Stage == site &&
			sameDecision(rec, trace.Event{Type: rec.Type, Stage: site, Attrs: identity}) {
			s.pos++
			s.out.Append(rec)
			msg, _ := rec.Attrs.Get("fault_err")
			str, _ := msg.(string)
			return &RecordedFault{Msg: str}
		}
	}
	return nil
}

// ArtifactDir is where failing tests dump their journals: the
// OCOLOS_TEST_ARTIFACTS environment variable when set, else a stable
// directory under the system temp dir.
func ArtifactDir() string {
	if d := os.Getenv("OCOLOS_TEST_ARTIFACTS"); d != "" {
		return d
	}
	return filepath.Join(os.TempDir(), "ocolos-artifacts")
}

// DumpArtifact writes the session's journal to ArtifactDir()/name.jsonl
// and returns the path; failing replay-based tests call this so every CI
// failure ships its own repro.
func (s *Session) DumpArtifact(name string) (string, error) {
	dir := ArtifactDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name = strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ':
			return '-'
		}
		return r
	}, name)
	path := filepath.Join(dir, name+".jsonl")
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		return "", err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
