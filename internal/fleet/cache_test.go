package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/obj"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/sqldb"
	"repro/internal/workloads/wl"
)

// homogeneousFleet builds n replicas of one sqldb image under a manager
// tuned for fast waves, all sharing one workload build (the "identical
// binaries across the fleet" deployment shape).
func homogeneousFleet(t *testing.T, n int, cfg Config) (*Manager, []*Service) {
	t.Helper()
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Robustness.MaxRounds == 0 {
		cfg.Robustness.MaxRounds = 1
	}
	cfg.SkipGate = true
	cfg.Timing = TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002}
	cfg.Robustness.RetryBackoff = time.Microsecond
	cfg.Clock = &recClock{}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svcs := make([]*Service, 0, n)
	for i := 0; i < n; i++ {
		s, err := m.AddService(ServicePlan{
			Name:     "replica-" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Workload: db, Input: "read_only", Threads: 1,
			Core: core.Options{NoChargePause: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Proc.RunFor(0.0002)
		svcs = append(svcs, s)
	}
	return m, svcs
}

// TestHomogeneousWaveHitsCache is the tentpole's payoff: a wave of
// identical replicas performs one BOLT run and serves everyone else
// from the layout cache (hit or single-flight coalesce).
func TestHomogeneousWaveHitsCache(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-service wave in -short mode")
	}
	const n = 16
	reg := telemetry.NewRegistry()
	m, svcs := homogeneousFleet(t, n, Config{Workers: 4, Metrics: reg})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range svcs {
		if st := s.State(); !st.Terminal() || st == Failed {
			t.Errorf("%s ended %s", s.Name, st)
		}
		if v := s.Ctl.Version(); v < 1 {
			t.Errorf("%s still at version %d: cached layout never landed", s.Name, v)
		}
	}
	stats, ok := m.CacheStats()
	if !ok {
		t.Fatal("cache disabled despite default config")
	}
	if stats.Requests() != n {
		t.Errorf("cache requests = %d, want %d (one per replica round)", stats.Requests(), n)
	}
	if stats.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 BOLT run for identical replicas", stats.Misses)
	}
	if hr := stats.HitRate(); hr < 0.9 {
		t.Errorf("hit rate = %.3f, want > 0.9 for a homogeneous fleet", hr)
	}
	if bolts := reg.Counter("core_bolt_invocations_total").Value(); bolts != float64(stats.Misses) {
		t.Errorf("bolt invocations = %v, want %d (one per miss)", bolts, stats.Misses)
	}
	// The shared layout must be applied, not just accounted: replicas on
	// the cached code keep (or improve) their throughput. The Small
	// config over micro windows yields only marginal wins, so this
	// asserts no-regression rather than a speedup floor.
	for _, st := range m.Snapshot() {
		if st.Speedup < 0.95 {
			t.Errorf("%s at %.2fx of baseline on the cached layout", st.Name, st.Speedup)
		}
	}
}

// fillRecorder is a layout.Memory that remembers every entry it hands
// out, with a pristine copy of each image taken when its BOLT run filled
// it. Embedding keeps Memory's single-flight Do, so coalescing still
// happens.
type fillRecorder struct {
	*layout.Memory
	mu     sync.Mutex
	filled map[*obj.Binary]*obj.Binary // cached image → copy taken at fill
}

func (r *fillRecorder) Do(k layout.Key, compute func() (*layout.Entry, error)) (*layout.Entry, layout.Outcome, error) {
	e, outcome, err := r.Memory.Do(k, compute)
	if err == nil && outcome == layout.Miss {
		r.mu.Lock()
		r.filled[e.Result.Binary] = e.Result.Binary.Clone()
		r.mu.Unlock()
	}
	return e, outcome, err
}

// TestCacheHitSharesImmutableImage pins the sharing contract behind
// layout.Entry: every replica a cached layout lands on runs from the one
// cached image (no per-hit copy), and nothing a replica does afterwards
// (replacement, a re-BOLT from that image, a revert) writes to it.
func TestCacheHitSharesImmutableImage(t *testing.T) {
	const n = 4
	rc := &fillRecorder{Memory: layout.NewMemory(0, nil), filled: map[*obj.Binary]*obj.Binary{}}
	// MaxRounds 2 makes the services re-BOLT-capable; a ConvergeGain no
	// round can reach ends every wave after one round.
	m, svcs := homogeneousFleet(t, n, Config{
		Workers:    4,
		Cache:      CacheConfig{Layout: rc},
		Robustness: RobustnessConfig{MaxRounds: 2, ConvergeGain: 1},
	})
	unchanged := func(when string) {
		t.Helper()
		for bin, pristine := range rc.filled {
			if got, want := layout.BinaryFingerprint(bin), layout.BinaryFingerprint(pristine); got != want {
				t.Errorf("%s: cached image %p changed: fingerprint %s, filled as %s", when, bin, got, want)
			}
		}
	}
	// onCachedImage checks that every replica runs a cached image, and
	// that the code it runs is that image's code as filled.
	onCachedImage := func(when string) {
		t.Helper()
		for _, s := range svcs {
			pristine, ok := rc.filled[s.Ctl.CurrentBinary()]
			if !ok {
				t.Errorf("%s: %s runs version %d from a binary that is not a cached image",
					when, s.Name, s.Ctl.Version())
				continue
			}
			for _, name := range []string{obj.SecText, obj.SecColdText} {
				sec := pristine.Section(name)
				if sec == nil {
					continue
				}
				live := make([]byte, len(sec.Data))
				s.Proc.Mem.Read(sec.Addr, live)
				if !bytes.Equal(live, sec.Data) {
					t.Errorf("%s: %s's %s differs from the cached image as filled", when, s.Name, name)
				}
			}
		}
	}

	m.Optimize(m.Scan(ScanOptions{}), WaveOptions{})
	if len(rc.filled) != 1 {
		t.Fatalf("first wave filled %d cache entries, want 1", len(rc.filled))
	}
	onCachedImage("first wave")
	shared := svcs[0].Ctl.CurrentBinary()
	for _, s := range svcs[1:] {
		if s.Ctl.CurrentBinary() != shared {
			t.Errorf("%s does not share %s's image", s.Name, svcs[0].Name)
		}
	}
	unchanged("first wave")

	// A second round re-BOLTs from the shared image.
	m.Optimize(m.Scan(ScanOptions{}), WaveOptions{})
	for _, s := range svcs {
		if v, st := s.Ctl.Version(), s.State(); v != 2 || st != Steady {
			t.Fatalf("%s at version %d, %s after the second wave, want 2, steady (%v)", s.Name, v, st, s.Err())
		}
	}
	if len(rc.filled) < 2 {
		t.Fatalf("second wave filled no new cache entry")
	}
	onCachedImage("second wave")
	unchanged("second wave")

	if _, err := svcs[0].Ctl.Revert(); err != nil {
		t.Fatal(err)
	}
	if b := svcs[0].Ctl.CurrentBinary(); b != nil {
		t.Fatalf("%s still runs an optimized image after Revert", svcs[0].Name)
	}
	unchanged("revert")
}

// TestWaveNoCacheAblation: Config.Cache.Disable is the redundant-work
// baseline — every replica pays its own BOLT run.
func TestWaveNoCacheAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-service wave in -short mode")
	}
	const n = 4
	reg := telemetry.NewRegistry()
	m, _ := homogeneousFleet(t, n, Config{Workers: 2, Metrics: reg, Cache: CacheConfig{Disable: true}})
	m.Optimize(m.Scan(ScanOptions{}), WaveOptions{})
	if stats, ok := m.CacheStats(); ok || stats.Requests() != 0 {
		t.Errorf("cacheless wave touched a cache: %+v", stats)
	}
	if bolts := reg.Counter("core_bolt_invocations_total").Value(); bolts != n {
		t.Errorf("bolt invocations = %v, want %d without the cache", bolts, n)
	}
}

// TestNoLayoutCacheConfig: Config.Cache.Disable disables the cache
// fleet-wide and CacheStats reports it.
func TestNoLayoutCacheConfig(t *testing.T) {
	m, err := NewManager(Config{Cache: CacheConfig{Disable: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.CacheStats(); ok {
		t.Error("CacheStats ok on a cacheless fleet")
	}
}

// TestDeprecatedShimsRemoved pins the deprecation schedule's end state:
// the one-release compatibility shims (Manager.ScanWindow,
// Service.Throughput) are gone, and the struct-options API is the only
// surface. If someone reintroduces a shim, this fails until the
// deprecation doc is revisited.
func TestDeprecatedShimsRemoved(t *testing.T) {
	for _, c := range []struct {
		recv   reflect.Type
		method string
	}{
		{reflect.TypeOf(&Manager{}), "ScanWindow"},
		{reflect.TypeOf(&Service{}), "Throughput"},
	} {
		if _, ok := c.recv.MethodByName(c.method); ok {
			t.Errorf("deprecated shim %s.%s still exists; it was scheduled for removal", c.recv, c.method)
		}
	}
	// The replacement surface still works.
	m, svcs := homogeneousFleet(t, 2, Config{})
	if via := m.Scan(ScanOptions{Window: 0.0004}); len(via) != 2 {
		t.Fatalf("Scan lost services: %d", len(via))
	}
	if tp := wl.Measure(svcs[0].Proc, svcs[0].Driver, 0.0004); tp <= 0 {
		t.Errorf("Measure = %v, want > 0", tp)
	}
}

// TestServicesDeterministicOrder: the sharded table still iterates in
// sorted name order wherever the fleet is enumerated.
func TestServicesDeterministicOrder(t *testing.T) {
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		if _, err := m.AddService(ServicePlan{Name: name, Workload: db, Input: "read_only", Threads: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"alpha", "beta", "mid", "omega", "zeta"}
	svcs := m.Services()
	snap := m.Snapshot()
	if len(svcs) != len(want) || len(snap) != len(want) {
		t.Fatalf("lost services: %d / %d", len(svcs), len(snap))
	}
	for i, name := range want {
		if svcs[i].Name != name {
			t.Errorf("Services()[%d] = %s, want %s", i, svcs[i].Name, name)
		}
		if snap[i].Name != name {
			t.Errorf("Snapshot()[%d] = %s, want %s", i, snap[i].Name, name)
		}
	}
}

// TestInjectedCacheViaCoreOptions: a caller-supplied layout.Cache (here
// the layout.Memory used as a plain dependency) reaches the controller
// through ServicePlan.Core.LayoutCache and is actually consulted.
func TestInjectedCacheViaCoreOptions(t *testing.T) {
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	injected := layout.NewMemory(4, nil)
	m, err := NewManager(Config{
		Cache:      CacheConfig{Layout: injected},
		SkipGate:   true,
		Robustness: RobustnessConfig{MaxRounds: 1},
		Timing:     TimingConfig{ProfileDur: 0.0004, Warm: 0.00015, Window: 0.0002},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.AddService(ServicePlan{
		Name: "svc", Workload: db, Input: "read_only", Threads: 1,
		Core: core.Options{NoChargePause: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Proc.RunFor(0.0002)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if st := injected.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Errorf("injected cache unused: %+v", st)
	}
}

func cacheWaveMeta() []trace.Attr {
	return []trace.Attr{trace.String("kind", "fleet-cache-wave")}
}

// TestCacheHitWaveReplayRoundTrip records a two-replica wave whose
// second service is served from the layout cache, then re-executes it
// from the serialized journal. Cache decisions are journaled as
// replayable events, so the replayed wave must re-derive the same
// key/outcome sequence, reach the same versions, and re-record a
// byte-identical journal.
func TestCacheHitWaveReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("record/replay wave in -short mode")
	}
	run := func(sess *replay.Session) (*Manager, []*Service) {
		m, svcs := homogeneousFleet(t, 2, Config{Replay: sess})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m, svcs
	}

	rec := replay.NewRecorder(0)
	if err := rec.Meta(cacheWaveMeta()...); err != nil {
		t.Fatal(err)
	}
	m, svcs := run(rec)
	if stats, _ := m.CacheStats(); stats.Misses != 1 || stats.Hits != 1 {
		t.Fatalf("recorded wave cache stats = %+v, want 1 miss + 1 hit", stats)
	}
	if err := rec.Finish(); err != nil {
		t.Fatalf("recording incomplete: %v", err)
	}
	var recorded bytes.Buffer
	if err := rec.WriteJSONL(&recorded); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(recorded.String(), `"cache_decision"`); n != 2 {
		t.Errorf("journal has %d cache_decision events, want 2", n)
	}

	events, err := replay.Load(bytes.NewReader(recorded.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := replay.NewReplayer(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Meta(cacheWaveMeta()...); err != nil {
		t.Fatal(err)
	}
	m2, svcs2 := run(sess)
	if err := sess.Finish(); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if stats, _ := m2.CacheStats(); stats.Misses != 1 || stats.Hits != 1 {
		t.Errorf("replayed wave cache stats = %+v, want 1 miss + 1 hit", stats)
	}
	for i := range svcs {
		if svcs2[i].State() != svcs[i].State() || svcs2[i].Ctl.Version() != svcs[i].Ctl.Version() {
			t.Errorf("%s replayed to %s v%d, recorded %s v%d", svcs[i].Name,
				svcs2[i].State(), svcs2[i].Ctl.Version(), svcs[i].State(), svcs[i].Ctl.Version())
		}
	}
	var rerecorded bytes.Buffer
	if err := sess.WriteJSONL(&rerecorded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recorded.Bytes(), rerecorded.Bytes()) {
		t.Errorf("re-recorded journal is not byte-identical (%d vs %d bytes)",
			recorded.Len(), rerecorded.Len())
	}
}
