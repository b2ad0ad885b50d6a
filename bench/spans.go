package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one record of the benchmark's own in-memory recorder. Spans
// the benchmark opens itself carry real timestamps; spans grafted from
// durations the program reports (BuildStats, Tracer.Tree, which carry
// no start times) are marked Synth and packed after their parent's
// start — only their duration is a measurement.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Name   string  `json:"name"`
	Rep    int     `json:"rep"`
	Start  float64 `json:"start_s"` // seconds since the recorder was created
	End    float64 `json:"end_s"`
	Synth  bool    `json:"synth,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is driven from
// the benchmark's single driving goroutine, so the open-span stack
// needs no lock. A nil recorder is a no-op: the untraced run calls the
// same code with tracing off.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int // indices into spans of the currently open spans
	rep   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() float64 { return time.Since(r.epoch).Seconds() }

// openSpan is the handle begin returns. Its methods are no-ops on the
// zero value, which is what a nil recorder hands out.
type openSpan struct {
	r   *recorder
	idx int
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) openSpan {
	if r == nil {
		return openSpan{}
	}
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1]].ID
	}
	t := r.now()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Rep: r.rep, Start: t, End: t})
	r.stack = append(r.stack, len(r.spans)-1)
	return openSpan{r, len(r.spans) - 1}
}

// end closes the span, which must be the innermost open one.
func (o openSpan) end() {
	if o.r == nil {
		return
	}
	o.r.spans[o.idx].End = o.r.now()
	o.r.stack = o.r.stack[:len(o.r.stack)-1]
}

// graft records a child of this span from a duration the program
// measured itself (BuildStats, a Tracer span); it may be called after
// end. Grafted siblings are packed one after another from the parent's
// start.
func (o openSpan) graft(name string, seconds float64) openSpan {
	if o.r == nil || seconds <= 0 {
		return openSpan{}
	}
	r := o.r
	parent := r.spans[o.idx]
	start := parent.Start
	for _, s := range r.spans {
		if s.Parent == parent.ID && s.Synth && s.End > start {
			start = s.End
		}
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent.ID, Name: name, Rep: r.rep,
		Start: start, End: start + seconds, Synth: true})
	return openSpan{r, len(r.spans) - 1}
}

func (r *recorder) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// spanBuckets are the stage names the per-layer span metrics report.
// "round" is a round's self time: what it does outside its stage spans
// (key fingerprinting, the cached entry's Clone, lifecycle transitions,
// pause-semaphore waits); "cache" is the part of that the cache
// decorator saw (lookup, or a coalesced waiter's wait). Self time of any
// span with another name — the repetition root, a wave's scheduling and
// the baseline window the fleet measures before a round opens — lands
// in "unattributed".
var spanBuckets = []string{
	"profile", "perf2bolt", "bolt", "replace", "verify", "round",
	"cache", "guest", "scan", "ingest", "load", "unattributed",
}

// selfTimes returns, per bucket, the self time (own duration minus the
// durations of direct children) summed over the spans of one
// repetition, in seconds. By construction the buckets sum to the
// duration of the repetition's root spans.
func selfTimes(spans []span, rep int) map[string]float64 {
	children := map[int]float64{}
	for _, s := range spans {
		if s.Rep == rep && s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	known := map[string]bool{}
	for _, b := range spanBuckets {
		known[b] = true
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.Rep != rep {
			continue
		}
		b := s.Name
		if !known[b] {
			b = "unattributed"
		}
		out[b] += s.dur() - children[s.ID]
	}
	return out
}
