package profile

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cpu"
	"repro/internal/perf"
	"repro/internal/replay"
)

// StoreOptions configures one service's sample store.
type StoreOptions struct {
	// Service names the store's owner in journal events and stats.
	Service string
	// Capacity bounds the sample ring (default 8192 snapshots). When the
	// ring is full the oldest snapshot is dropped and counted.
	Capacity int
	// HalfLife is the decay half-life (simulated seconds) of the rolling
	// edge-weight accumulator behind Stats and DecayedSummary (default
	// 0.01 s — a few profiling windows at this repo's time scale). The
	// windowed snapshots that feed optimization rounds are not decayed;
	// the accumulator is the long-horizon view reporting surfaces read.
	HalfLife float64
	// Replay journals external batch ingests (EvProfileIngest). The
	// in-process streaming path needs no journaling: sample arrival is a
	// deterministic function of the simulated execution.
	Replay *replay.Session
}

func (o *StoreOptions) defaults() {
	if o.Capacity == 0 {
		o.Capacity = 8192
	}
	if o.HalfLife == 0 {
		o.HalfLife = 0.01
	}
}

// Store is a per-service bounded ring of timestamped LBR snapshots plus
// a time-decayed edge-weight accumulator. It is the fleet-side half of
// the streaming ingest API: perf.Streamer (in-process) and the control
// plane's POST /profile (external) both land here, optimization rounds
// read trailing windows back out through the Source interface, and the
// drift tracker compares those windows against the layout's build
// profile. All methods are safe for concurrent use.
type Store struct {
	opts StoreOptions

	mu      sync.Mutex
	ring    []TimedSample // ring[head:] are held, oldest first; at most opts.Capacity
	head    int           // first held slot; compacted once it reaches opts.Capacity
	now     float64       // max sample timestamp seen
	epoch   float64       // Window floor: set at each code replacement
	dropped uint64        // snapshots evicted by the capacity bound
	total   uint64        // records ever ingested

	// Decayed edge accumulator. Weights are stored inflated by
	// 2^((at-decayT0)/HalfLife) at ingest time, so decay is O(1) per
	// ingest (pure accumulation) and the true weight is recovered by one
	// global deflation at read time; the basis is re-zeroed when the
	// inflation factor approaches the float64 exponent range.
	decay   map[cpu.BranchRecord]float64
	decayT0 float64
}

// NewStore builds an empty store.
func NewStore(opts StoreOptions) *Store {
	opts.defaults()
	return &Store{opts: opts, decay: make(map[cpu.BranchRecord]float64)}
}

// Ingest absorbs one in-process LBR snapshot taken at the given
// simulated time. It is perf.Streamer's sink.
func (s *Store) Ingest(sample perf.Sample, at float64) {
	s.mu.Lock()
	s.ingestLocked(TimedSample{At: at, Records: sample.Records})
	s.mu.Unlock()
}

// IngestBatch absorbs one externally pushed batch (POST /profile). The
// batch is journaled through the replay session: external pushes are
// environment input, so a recorded session that contains them only
// replays against a harness re-supplying identical batches.
func (s *Store) IngestBatch(batch []TimedSample) error {
	samples, branches := 0, 0
	for _, ts := range batch {
		if len(ts.Records) == 0 {
			continue
		}
		samples++
		branches += len(ts.Records)
	}
	if err := s.opts.Replay.ProfileIngest(s.opts.Service, samples, branches, BatchDigest(batch)); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ts := range batch {
		if len(ts.Records) == 0 {
			continue
		}
		s.ingestLocked(ts)
	}
	return nil
}

func (s *Store) ingestLocked(ts TimedSample) {
	if ts.At > s.now {
		s.now = ts.At
	}
	// Eviction advances head instead of shifting the ring, so an ingest
	// into a full ring is O(1) amortized: the evicted slot is zeroed to
	// release its Records, and the held window is moved to the front once
	// per Capacity evictions. The first eviction fixes the backing array
	// at 2×Capacity, which head+Capacity never outgrows.
	if len(s.ring)-s.head >= s.opts.Capacity {
		if cap(s.ring) != 2*s.opts.Capacity {
			s.ring = append(make([]TimedSample, 0, 2*s.opts.Capacity), s.ring...)
		}
		s.ring[s.head] = TimedSample{}
		s.head++
		s.dropped++
		if s.head >= s.opts.Capacity {
			n := copy(s.ring, s.ring[s.head:])
			clear(s.ring[n:])
			s.ring = s.ring[:n]
			s.head = 0
		}
	}
	s.ring = append(s.ring, ts)
	s.total += uint64(len(ts.Records))

	// Accumulate into the decayed view, re-zeroing the inflation basis
	// before the factor can overflow float64's exponent.
	if ts.At-s.decayT0 > 512*s.opts.HalfLife {
		s.rebaseDecayLocked(ts.At)
	}
	inflate := math.Exp2((ts.At - s.decayT0) / s.opts.HalfLife)
	for _, r := range ts.Records {
		s.decay[r] += inflate
	}
}

// rebaseDecayLocked moves the decay basis to newT0, deflating every
// stored weight so read-time values are unchanged. Weights that have
// decayed to nothing are dropped, bounding the map at the edge set that
// is still warm.
func (s *Store) rebaseDecayLocked(newT0 float64) {
	deflate := math.Exp2((s.decayT0 - newT0) / s.opts.HalfLife)
	for rec, w := range s.decay {
		w *= deflate
		if w < 1e-12 {
			delete(s.decay, rec)
			continue
		}
		s.decay[rec] = w
	}
	s.decayT0 = newT0
}

// Now returns the stream clock: the latest sample timestamp ingested.
func (s *Store) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Epoch marks a code-replacement boundary: samples older than this
// instant profiled the outgoing layout (their addresses may not even
// exist in the new one), so Window never reaches back past it.
func (s *Store) Epoch() {
	s.mu.Lock()
	s.epoch = s.now
	s.mu.Unlock()
}

// Window returns the snapshots from the trailing window of the given
// simulated duration, floored at the last Epoch mark. The returned
// profile's Seconds is the span actually covered.
func (s *Store) Window(seconds float64) *perf.RawProfile {
	s.mu.Lock()
	defer s.mu.Unlock()
	from := s.now - seconds
	if s.epoch > from {
		from = s.epoch
	}
	// The ring is sorted by arrival; timestamps are monotone per source
	// and near-monotone across sources, so binary search on At is exact
	// enough — equal-time samples are kept, earlier stragglers skipped.
	held := s.ring[s.head:]
	i := sort.Search(len(held), func(i int) bool { return held[i].At >= from })
	raw := &perf.RawProfile{}
	for _, ts := range held[i:] {
		raw.Samples = append(raw.Samples, perf.Sample{Records: ts.Records})
	}
	if len(held) > i {
		raw.Seconds = s.now - held[i].At
	}
	if raw.Seconds == 0 && len(raw.Samples) > 0 {
		raw.Seconds = seconds
	}
	return raw
}

// DecayedSummary reduces the decayed edge accumulator to a normalized
// Summary — the long-horizon "what has been hot lately" view (no
// fingerprint: it never corresponds to one raw profile).
func (s *Store) DecayedSummary() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Sum in sorted edge order: float addition is not associative, and
	// the rendered weights (and any TopEdges tie-break they feed) should
	// not wobble in the last ulp with map iteration order.
	edges := make([]cpu.BranchRecord, 0, len(s.decay))
	for rec := range s.decay {
		edges = append(edges, rec)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	var total float64
	for _, rec := range edges {
		total += s.decay[rec]
	}
	sum := Summary{Edges: make(map[cpu.BranchRecord]float64, len(s.decay))}
	if total == 0 {
		return sum
	}
	for _, rec := range edges {
		sum.Edges[rec] = s.decay[rec] / total
	}
	sum.Total = s.total
	return sum
}

// StoreStats is the observable state of one store (GET /profile).
type StoreStats struct {
	Service string  `json:"service"`
	Samples int     `json:"samples"`
	Records uint64  `json:"records_total"`
	Dropped uint64  `json:"samples_dropped"`
	Now     float64 `json:"now"`
	Epoch   float64 `json:"epoch"`
}

// Stats snapshots the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Service: s.opts.Service,
		Samples: len(s.ring) - s.head,
		Records: s.total,
		Dropped: s.dropped,
		Now:     s.now,
		Epoch:   s.epoch,
	}
}

// String aids debugging.
func (s *Store) String() string {
	st := s.Stats()
	return fmt.Sprintf("profile.Store{%s: %d samples, %d records, now=%.4f}",
		st.Service, st.Samples, st.Records, st.Now)
}
