package trace

import (
	"sort"
	"sync"
	"time"
)

// Options configures a tracer.
type Options struct {
	// JournalCap bounds the event journal (DefaultJournalCap if 0).
	JournalCap int
	// MaxSpans bounds how many spans the tracer retains for tree dumps
	// (DefaultMaxSpans if 0). Spans past the cap still function — they
	// time themselves and journal their start/end — but are not retained.
	MaxSpans int
}

// DefaultMaxSpans bounds span retention when Options.MaxSpans is unset.
const DefaultMaxSpans = 8192

// Tracer hands out spans and owns the journal. Safe for concurrent use;
// a nil *Tracer is a valid no-op sink.
type Tracer struct {
	journal *Journal

	mu       sync.Mutex
	nextID   uint64
	spans    []*Span
	maxSpans int
}

// New returns a tracer with a fresh journal.
func New(o Options) *Tracer {
	if o.MaxSpans <= 0 {
		o.MaxSpans = DefaultMaxSpans
	}
	return &Tracer{journal: NewJournal(o.JournalCap), maxSpans: o.MaxSpans}
}

// Journal returns the tracer's event journal (nil on a nil tracer).
func (t *Tracer) Journal() *Journal {
	if t == nil {
		return nil
	}
	return t.journal
}

// Emit appends an event to the journal, assigning its sequence number.
func (t *Tracer) Emit(e Event) Event {
	if t == nil {
		return e
	}
	return t.journal.Append(e)
}

// Span is one timed operation in the tree. Identity fields (ID, Name,
// parent) are immutable after Start; the rest is guarded by mu.
type Span struct {
	tracer *Tracer
	parent *Span
	ID     uint64
	Name   string

	mu       sync.Mutex
	service  string
	round    int
	attrs    Attrs
	start    time.Time
	startSeq uint64
	end      time.Time
	endSeq   uint64
	ended    bool
	err      error
}

// Start opens a span under parent (nil parent makes a root span). The
// span inherits the parent's service and round and journals an
// EvSpanStart. Start on a nil tracer returns nil, and every method on a
// nil span is a no-op, so call sites never need to guard.
func (t *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tracer: t, parent: parent, Name: name, attrs: attrs, start: time.Now()}
	if parent != nil {
		s.service, s.round = parent.Identity()
	}
	t.mu.Lock()
	t.nextID++
	s.ID = t.nextID
	if len(t.spans) < t.maxSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
	e := t.Emit(Event{Type: EvSpanStart, Service: s.service, Round: s.round, Stage: name, Span: s.ID})
	s.mu.Lock()
	s.startSeq = e.Seq
	s.mu.Unlock()
	return s
}

// Identity returns the span's service and round.
func (s *Span) Identity() (service string, round int) {
	if s == nil {
		return "", 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.service, s.round
}

// SetService names the service the span (and its future children)
// belongs to; used on root spans, which have no parent to inherit from.
func (s *Span) SetService(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.service = name
	s.mu.Unlock()
}

// SetRound tags the span with an optimization-round number.
func (s *Span) SetRound(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.round = n
	s.mu.Unlock()
}

// SetAttrs appends attributes to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// End closes the span with its error status and journals an EvSpanEnd
// carrying the duration. Idempotent: only the first End takes effect.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = time.Now()
	s.err = err
	service, round, name, id := s.service, s.round, s.Name, s.ID
	dur := s.end.Sub(s.start).Seconds()
	s.mu.Unlock()

	e := Event{Type: EvSpanEnd, Service: service, Round: round, Stage: name, Span: id,
		Attrs: Attrs{Float("seconds", dur)}}
	if err != nil {
		e.Err = err.Error()
	}
	stored := s.tracer.Emit(e)
	s.mu.Lock()
	s.endSeq = stored.Seq
	s.mu.Unlock()
}

// Event journals a typed event attributed to this span (service, round,
// and stage come from the span).
func (s *Span) Event(typ EventType, attrs ...Attr) {
	s.EventErr(typ, nil, attrs...)
}

// EventErr journals a typed event with an error status.
func (s *Span) EventErr(typ EventType, err error, attrs ...Attr) {
	if s == nil {
		return
	}
	service, round := s.Identity()
	e := Event{Type: typ, Service: service, Round: round, Stage: s.Name, Span: s.ID, Attrs: attrs}
	if err != nil {
		e.Err = err.Error()
	}
	s.tracer.Emit(e)
}

// SpanNode is the exported form of one span for tree dumps (the
// /trace endpoint's payload).
type SpanNode struct {
	ID       uint64      `json:"id"`
	Parent   uint64      `json:"parent,omitempty"`
	Name     string      `json:"name"`
	Service  string      `json:"service,omitempty"`
	Round    int         `json:"round,omitempty"`
	StartSeq uint64      `json:"start_seq"`
	EndSeq   uint64      `json:"end_seq,omitempty"`
	Seconds  float64     `json:"seconds"`
	Open     bool        `json:"open,omitempty"`
	Err      string      `json:"err,omitempty"`
	Attrs    Attrs       `json:"attrs,omitempty"`
	Children []*SpanNode `json:"children,omitempty"`
}

// node snapshots one span (without children).
func (s *Span) node() *SpanNode {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := &SpanNode{
		ID:       s.ID,
		Name:     s.Name,
		Service:  s.service,
		Round:    s.round,
		StartSeq: s.startSeq,
		EndSeq:   s.endSeq,
		Open:     !s.ended,
		Attrs:    append(Attrs(nil), s.attrs...),
	}
	if s.parent != nil {
		n.Parent = s.parent.ID
	}
	if s.ended {
		n.Seconds = s.end.Sub(s.start).Seconds()
		if s.err != nil {
			n.Err = s.err.Error()
		}
	} else {
		n.Seconds = time.Since(s.start).Seconds()
	}
	return n
}

// Tree returns the retained span forest for one service ("" = every
// service), children ordered by start sequence. A span whose parent was
// not retained (or belongs to another service) surfaces as a root.
func (t *Tracer) Tree(service string) []*SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()

	nodes := make(map[uint64]*SpanNode, len(spans))
	var ordered []*SpanNode
	for _, s := range spans {
		svc, _ := s.Identity()
		if service != "" && svc != service {
			continue
		}
		n := s.node()
		nodes[n.ID] = n
		ordered = append(ordered, n)
	}
	var roots []*SpanNode
	for _, n := range ordered {
		if p, ok := nodes[n.Parent]; ok {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes(roots)
	for _, n := range ordered {
		sortNodes(n.Children)
	}
	return roots
}

func sortNodes(ns []*SpanNode) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].StartSeq < ns[j].StartSeq })
}
