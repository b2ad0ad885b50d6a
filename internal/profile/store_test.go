package profile

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/perf"
	"repro/internal/replay"
	"repro/internal/trace"
)

func ingestAt(s *Store, at float64, edges ...cpu.BranchRecord) {
	s.Ingest(perf.Sample{Records: edges}, at)
}

func TestStoreWindowTrailing(t *testing.T) {
	s := NewStore(StoreOptions{Service: "svc"})
	for i := 1; i <= 10; i++ {
		ingestAt(s, float64(i)*0.001, edge(uint64(i), uint64(i)+1))
	}
	if now := s.Now(); now != 0.010 {
		t.Fatalf("Now = %v, want 0.010", now)
	}
	raw := s.Window(0.0045)
	// Trailing 4.5 ms from t=10 ms reaches back to 5.5 ms: samples 6..10.
	if len(raw.Samples) != 5 {
		t.Fatalf("window holds %d samples, want 5", len(raw.Samples))
	}
	if raw.Samples[0].Records[0].From != 6 {
		t.Errorf("window starts at sample %d, want 6", raw.Samples[0].Records[0].From)
	}
	if raw.Seconds <= 0 {
		t.Error("window Seconds not set")
	}
	// A window wider than the stream returns everything.
	if all := s.Window(1); len(all.Samples) != 10 {
		t.Errorf("wide window holds %d samples, want 10", len(all.Samples))
	}
}

func TestStoreEpochFloorsWindow(t *testing.T) {
	s := NewStore(StoreOptions{Service: "svc"})
	ingestAt(s, 0.001, edge(1, 2))
	ingestAt(s, 0.002, edge(3, 4))
	s.Epoch() // code replaced: pre-epoch samples profile dead addresses
	if raw := s.Window(1); len(raw.Samples) != 1 {
		// The epoch equals the last sample's stamp, so only that sample
		// (equal-time, same layout boundary) may serve.
		t.Fatalf("post-epoch window holds %d samples", len(raw.Samples))
	}
	ingestAt(s, 0.003, edge(5, 6))
	raw := s.Window(1)
	var seen []uint64
	for _, sm := range raw.Samples {
		seen = append(seen, sm.Records[0].From)
	}
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 5 {
		t.Errorf("post-epoch window = %v, want [3 5]", seen)
	}
}

func TestStoreCapacityEviction(t *testing.T) {
	s := NewStore(StoreOptions{Service: "svc", Capacity: 4})
	for i := 0; i < 6; i++ {
		ingestAt(s, float64(i)*0.001, edge(uint64(i), 1))
	}
	st := s.Stats()
	if st.Samples != 4 || st.Dropped != 2 || st.Records != 6 {
		t.Fatalf("stats = %+v, want 4 held / 2 dropped / 6 total", st)
	}
	if raw := s.Window(1); raw.Samples[0].Records[0].From != 2 {
		t.Errorf("oldest surviving sample is %d, want 2", raw.Samples[0].Records[0].From)
	}
}

// TestStoreRingWraps: ingest into a full ring evicts the oldest sample
// without shifting the ring, and the held window stays exactly the last
// Capacity samples, in order, across many compactions.
func TestStoreRingWraps(t *testing.T) {
	const capacity = 64
	s := NewStore(StoreOptions{Service: "svc", Capacity: capacity})
	const n = 3*capacity + 7
	for i := 0; i < n; i++ {
		ingestAt(s, float64(i)*0.001, edge(uint64(i), 1))
	}
	raw := s.Window(1e9)
	if len(raw.Samples) != capacity {
		t.Fatalf("window holds %d samples, want %d", len(raw.Samples), capacity)
	}
	for i, sm := range raw.Samples {
		if want := uint64(n - capacity + i); sm.Records[0].From != want {
			t.Fatalf("window[%d] is sample %d, want %d", i, sm.Records[0].From, want)
		}
	}
	if st := s.Stats(); st.Samples != capacity || st.Dropped != 2*capacity+7 {
		t.Errorf("stats = %+v, want %d held / %d dropped", st, capacity, 2*capacity+7)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := cap(s.ring); c > 2*capacity {
		t.Errorf("ring backing array grew to %d (capacity %d)", c, capacity)
	}
	for i, ts := range s.ring[:s.head] {
		if ts.Records != nil {
			t.Fatalf("evicted slot %d still holds its records", i)
		}
	}
}

func TestDecayedSummaryFavorsRecent(t *testing.T) {
	s := NewStore(StoreOptions{Service: "svc", HalfLife: 0.001})
	old, recent := edge(1, 2), edge(3, 4)
	// Equal raw volume, but the old edge is 10 half-lives stale: its
	// decayed weight should be ~2^-10 of the recent one.
	for i := 0; i < 8; i++ {
		ingestAt(s, 0.000, old)
	}
	for i := 0; i < 8; i++ {
		ingestAt(s, 0.010, recent)
	}
	sum := s.DecayedSummary()
	if sum.Total != 16 {
		t.Fatalf("Total = %d, want 16", sum.Total)
	}
	wOld, wNew := sum.Edges[old], sum.Edges[recent]
	if wNew < 0.99 || wOld > 0.01 {
		t.Errorf("weights old=%v new=%v: decay not applied", wOld, wNew)
	}
	ratio := wOld / wNew
	if math.Abs(ratio-math.Exp2(-10)) > 1e-6 {
		t.Errorf("old/new ratio %v, want 2^-10", ratio)
	}
}

func TestDecayRebaseKeepsWeights(t *testing.T) {
	// Jumping far past the rebase threshold (512 half-lives) must re-zero
	// the inflation basis without disturbing relative weights.
	s := NewStore(StoreOptions{Service: "svc", HalfLife: 0.001})
	ingestAt(s, 0.0, edge(1, 2))
	ingestAt(s, 1.0, edge(3, 4)) // 1000 half-lives later
	ingestAt(s, 1.0, edge(3, 4))
	sum := s.DecayedSummary()
	if w := sum.Edges[edge(3, 4)]; math.Abs(w-1) > 1e-9 {
		t.Errorf("recent weight %v, want ~1 (stale edge fully decayed)", w)
	}
	if _, alive := sum.Edges[edge(1, 2)]; alive {
		t.Error("fully decayed edge still in the summary")
	}
}

func TestIngestBatchJournalsAndReplays(t *testing.T) {
	batch := []TimedSample{
		{At: 0.001, Records: []cpu.BranchRecord{edge(1, 2)}},
		{At: 0.002, Records: []cpu.BranchRecord{edge(3, 4), edge(5, 6)}},
		{At: 0.003}, // empty snapshot: skipped, not journaled
	}
	rec := replay.NewRecorder(0)
	s := NewStore(StoreOptions{Service: "svc", Replay: rec})
	if err := s.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Samples != 2 || st.Records != 3 {
		t.Fatalf("stats after batch = %+v, want 2 samples / 3 records", st)
	}
	events := rec.Journal().Events()
	if len(events) != 1 || events[0].Type != trace.EvProfileIngest {
		t.Fatalf("journal = %+v, want one EvProfileIngest", events)
	}

	// Replaying the identical batch verifies against the journal; a
	// different batch is a divergence, refused before touching the store.
	rp, err := replay.NewReplayer(events)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(StoreOptions{Service: "svc", Replay: rp})
	if err := s2.IngestBatch(batch); err != nil {
		t.Fatalf("identical batch diverged: %v", err)
	}
	rp2, err := replay.NewReplayer(events)
	if err != nil {
		t.Fatal(err)
	}
	s3 := NewStore(StoreOptions{Service: "svc", Replay: rp2})
	tampered := []TimedSample{{At: 0.001, Records: []cpu.BranchRecord{edge(9, 9)}}}
	if err := s3.IngestBatch(tampered); err == nil {
		t.Fatal("tampered batch replayed without divergence")
	}
	if st := s3.Stats(); st.Samples != 0 {
		t.Error("diverged batch still landed in the store")
	}
}

func TestStoreWithoutSessionIngests(t *testing.T) {
	s := NewStore(StoreOptions{Service: "svc"}) // nil replay session
	if err := s.IngestBatch([]TimedSample{{At: 0.001, Records: []cpu.BranchRecord{edge(1, 2)}}}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Samples != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
