// Package telemetry is the metrics registry the orchestration layer
// publishes into: the data-center systems §V of the paper positions
// OCOLOS behind (Google-Wide Profiling, DMon) are driven by fleet-wide
// metrics pipelines, and a continuous optimizer that cannot report its
// rounds, pauses, speedups, and reverts cannot be operated. The registry
// is deliberately small — counters, gauges, and histograms keyed by a
// flat metric name — and safe for concurrent use by every controller and
// fleet worker in the process.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Kind discriminates the metric types a registry holds.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Counter is a monotonically increasing value.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add increases the counter; negative deltas are ignored so the counter
// stays monotonic.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a value that can move in both directions.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add shifts the gauge by delta (either sign).
func (g *Gauge) Add(delta float64) {
	g.mu.Lock()
	g.v += delta
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram records a distribution of observations. All samples are
// retained (the fleet's cardinality is small — rounds, pauses, stage
// latencies), which makes quantiles exact rather than bucketed.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sum     float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Quantile returns the p-th quantile (0 ≤ p ≤ 1) by ceil nearest rank
// over the exact sample set (0 when empty): the sorted sample at index
// ⌈p·(n-1)⌉, i.e. the smallest retained observation at or above the
// requested rank. Truncating instead of ceiling here underreported every
// quantile that fell between ranks (p=0.5 over [1,2] came back 1).
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	tmp := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	if len(tmp) == 0 {
		return 0
	}
	sort.Float64s(tmp)
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	idx := int(math.Ceil(p * float64(len(tmp)-1)))
	if idx > len(tmp)-1 {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid sink: every lookup returns a
// working metric that simply is not registered anywhere, so callers can
// publish unconditionally.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// lookup returns the metric under name, creating it with mk on first
// use. Reusing a name with a different type panics: that is a
// programming error, not an operational condition.
func lookup[T any](r *Registry, name string, mk func() *T) *T {
	if r == nil {
		return mk()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		t, ok := m.(*T)
		if !ok {
			panic(fmt.Sprintf("telemetry: metric %q reused as a different type (have %T)", name, m))
		}
		return t
	}
	t := mk()
	r.metrics[name] = t
	r.order = append(r.order, name)
	return t
}

// Counter returns (creating if needed) the counter with the given name.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns (creating if needed) the gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns (creating if needed) the histogram with the given
// name.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(r, name, func() *Histogram { return &Histogram{} })
}

// ---- structured metric vectors ----------------------------------------

// LabelPair is one label key/value on a metric series.
type LabelPair struct {
	Key, Value string
}

// vec is the shared machinery behind the typed vectors: one metric
// family (a base name plus a fixed, ordered label-key set) fanning out to
// child metrics per label-value tuple.
type vec[M any] struct {
	name string
	keys []string

	mu       sync.Mutex
	children map[string]*M
	values   map[string][]string
}

// childKey joins a value tuple into a map key. 0x1f (unit separator)
// cannot appear in sane label values and keeps distinct tuples distinct.
func childKey(values []string) string { return strings.Join(values, "\x1f") }

// with returns (creating if needed) the child metric for the given label
// values, which must match the vector's key count.
func (v *vec[M]) with(mk func() *M, values []string) *M {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("telemetry: metric %q has label keys %v; got %d value(s) %v",
			v.name, v.keys, len(values), values))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.children == nil {
		v.children = make(map[string]*M)
		v.values = make(map[string][]string)
	}
	k := childKey(values)
	if m, ok := v.children[k]; ok {
		return m
	}
	m := mk()
	v.children[k] = m
	v.values[k] = append([]string(nil), values...)
	return m
}

// series returns every child with its label pairs, sorted by value tuple
// so snapshots and exposition are stable.
func (v *vec[M]) series() []struct {
	labels []LabelPair
	m      *M
} {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]struct {
		labels []LabelPair
		m      *M
	}, 0, len(keys))
	for _, k := range keys {
		vals := v.values[k]
		labels := make([]LabelPair, len(v.keys))
		for i, lk := range v.keys {
			labels[i] = LabelPair{Key: lk, Value: vals[i]}
		}
		out = append(out, struct {
			labels []LabelPair
			m      *M
		}{labels, v.children[k]})
	}
	v.mu.Unlock()
	return out
}

// CounterVec is a counter family keyed by a fixed set of labels.
type CounterVec struct{ v vec[Counter] }

// With returns the counter for the given label values (in key order).
func (c *CounterVec) With(values ...string) *Counter {
	return c.v.with(func() *Counter { return &Counter{} }, values)
}

// HistogramVec is a histogram family keyed by a fixed set of labels.
type HistogramVec struct{ v vec[Histogram] }

// With returns the histogram for the given label values (in key order).
func (h *HistogramVec) With(values ...string) *Histogram {
	return h.v.with(func() *Histogram { return &Histogram{} }, values)
}

// checkKeys panics when a vector name is reused with a different label
// schema — the vector analog of lookup's type check.
func checkKeys(name string, have, want []string) {
	if len(have) == len(want) {
		same := true
		for i := range have {
			if have[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	panic(fmt.Sprintf("telemetry: metric %q reused with label keys %v (have %v)", name, want, have))
}

// CounterVec returns (creating if needed) the counter vector with the
// given name and label keys. Label ordering is fixed at first use.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	v := lookup(r, name, func() *CounterVec { return &CounterVec{v: vec[Counter]{name: name, keys: keys}} })
	checkKeys(name, v.v.keys, keys)
	return v
}

// HistogramVec returns (creating if needed) the histogram vector with
// the given name and label keys.
func (r *Registry) HistogramVec(name string, keys ...string) *HistogramVec {
	v := lookup(r, name, func() *HistogramVec { return &HistogramVec{v: vec[Histogram]{name: name, keys: keys}} })
	checkKeys(name, v.v.keys, keys)
	return v
}

// ---- snapshots ---------------------------------------------------------

// Point is one series' snapshot. Name is the base metric name; Labels
// carries the label pairs for vector children (nil for plain metrics).
// Value holds the counter/gauge value; the distribution fields are
// populated for histograms only.
type Point struct {
	Name   string
	Labels []LabelPair
	Kind   Kind
	Value  float64 // counter/gauge value; histogram sum

	Count               int
	Mean, P50, P95, Max float64
}

// Series renders the full series name with labels inlined, e.g.
// "fleet_rounds_total{service=sqldb,stage=replace}". Labels render in
// the vector's declared key order. (This rendering was once a
// standalone Label helper that call sites used to smash labels into
// flat metric names; the structured vectors replaced it and the
// rendering now exists only here, for report output.)
func (p Point) Series() string {
	if len(p.Labels) == 0 {
		return p.Name
	}
	var b strings.Builder
	b.WriteString(p.Name)
	b.WriteByte('{')
	for i, l := range p.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// point builds one Point from a scalar metric.
func point(name string, labels []LabelPair, m any) Point {
	switch m := m.(type) {
	case *Counter:
		return Point{Name: name, Labels: labels, Kind: KindCounter, Value: m.Value()}
	case *Gauge:
		return Point{Name: name, Labels: labels, Kind: KindGauge, Value: m.Value()}
	case *Histogram:
		return Point{
			Name:   name,
			Labels: labels,
			Kind:   KindHistogram,
			Value:  m.Sum(),
			Count:  m.Count(),
			Mean:   m.Mean(),
			P50:    m.Quantile(0.50),
			P95:    m.Quantile(0.95),
			Max:    m.Quantile(1),
		}
	}
	panic(fmt.Sprintf("telemetry: unknown metric type %T", m))
}

// Snapshot returns every series' current state, sorted by base name and
// then by label values — a stable order for reports, exposition, and
// golden tests. Vector families expand to one Point per child series.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	metrics := make([]any, len(names))
	for i, n := range names {
		metrics[i] = r.metrics[n]
	}
	r.mu.Unlock()
	sort.Sort(&pointSorter{names, metrics})

	out := make([]Point, 0, len(names))
	for i, name := range names {
		switch m := metrics[i].(type) {
		case *CounterVec:
			for _, s := range m.v.series() {
				out = append(out, point(name, s.labels, s.m))
			}
		case *HistogramVec:
			for _, s := range m.v.series() {
				out = append(out, point(name, s.labels, s.m))
			}
		default:
			out = append(out, point(name, nil, m))
		}
	}
	return out
}

type pointSorter struct {
	names   []string
	metrics []any
}

func (s *pointSorter) Len() int           { return len(s.names) }
func (s *pointSorter) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s *pointSorter) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.metrics[i], s.metrics[j] = s.metrics[j], s.metrics[i]
}

// WriteReport renders a human-readable dump of every series, one line
// each, sorted by name — the format cmd/fleetd emits.
func (r *Registry) WriteReport(w io.Writer) {
	for _, p := range r.Snapshot() {
		switch p.Kind {
		case KindHistogram:
			fmt.Fprintf(w, "%-52s count=%-5d mean=%-12.6g p50=%-12.6g p95=%-12.6g max=%.6g\n",
				p.Series(), p.Count, p.Mean, p.P50, p.P95, p.Max)
		default:
			fmt.Fprintf(w, "%-52s %.6g\n", p.Series(), p.Value)
		}
	}
}
