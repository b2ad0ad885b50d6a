// Package fleet is the data-center deployment layer §V sketches: systems
// like Google-Wide Profiling continuously profile every service in the
// fleet, and OCOLOS plugs in as the actuator. The Manager scans TopDown
// counters across services, ranks the front-end-bound ones (Figure 9's
// criterion), and drives each selected service through an explicit
// lifecycle —
//
//	Idle → Profiling → Building → Replacing → Measuring
//	     → (next round | Steady | Reverted | Failed)
//
// — on a bounded worker pool, so many services are optimized
// concurrently while a global semaphore staggers their stop-the-world
// replacement pauses (§IV-D's operational guidance). Each service loops
// C_i → C_{i+1} (continuous optimization with dead-code GC, §IV-C) until
// its round-over-round gain converges, its regression guard trips a
// revert to C0 (§VI-C4), or a persistent fault parks it in a terminal
// state. Transient stage errors are retried with exponential backoff,
// and everything the fleet does is published into a telemetry.Registry.
//
// At fleet scale the manager is sharded: services hash into
// Config.Shards independent lock domains with per-shard work queues, so
// Snapshot, Scan, and the HTTP control plane read one shard at a time
// without stalling in-flight replacements, and the shared worker budget
// drains every shard's queue concurrently. All selected services share
// one content-addressed layout.Cache — identical binaries with
// statistically identical profiles reuse a single BOLT run per round
// ("optimize once, deploy everywhere", §V). Every trace-journal and
// telemetry write of a wave happens inline, at its program point, on
// the worker that caused it — serial, concurrent and replayed waves
// share that one write path — so a service's journal events are in
// program order in every wave.
package fleet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/layout"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/wl"
)

// TimingConfig groups the simulated-duration knobs of the lifecycle.
type TimingConfig struct {
	// ProfileDur is the simulated LBR profiling window per round
	// (default 4 ms). With drift streaming enabled it is also the
	// trailing store window a round's profile is served from.
	ProfileDur float64
	// Warm is the simulated settle time before each measurement
	// (default 2 ms).
	Warm float64
	// Window is the simulated throughput-measurement window, also used
	// by Scan's TopDown pass (default 3 ms).
	Window float64
}

// RobustnessConfig groups the convergence, regression-guard, retry, and
// quarantine knobs.
type RobustnessConfig struct {
	// MaxRounds caps optimization rounds per service per wave (default 2).
	MaxRounds int
	// ConvergeGain stops a service's loop once a round improves
	// throughput over the previous round by less than this fraction
	// (default 0.02, i.e. < 1.02x round-over-round gain → Steady).
	// Negative means never converge early: always run MaxRounds.
	ConvergeGain float64
	// RevertBelow reverts a service to C0 when its cumulative speedup
	// over baseline falls below this factor (0 = never revert on
	// regression; §VI-C4's safety net).
	RevertBelow float64
	// MaxRetries is how many times a failed lifecycle stage is retried
	// before the service gives up and reverts/fails (default 2).
	MaxRetries int
	// QuarantineAfter is the replace circuit-breaker threshold: after
	// this many consecutive transactional rollbacks (Replace calls that
	// failed and were undone) the service is pinned at its last good
	// version in the Quarantined state instead of being reverted or
	// failed. Default MaxRetries+1, i.e. one exhausted Replacing stage
	// trips the breaker; Validate rejects explicit values at or below
	// MaxRetries (the breaker would trip before a single stage's retry
	// budget could run).
	QuarantineAfter int
	// RetryBackoff is the host-time backoff before the first retry; it
	// doubles per attempt (default 5 ms).
	RetryBackoff time.Duration
}

// CacheConfig groups the fleet-wide layout-cache knobs.
type CacheConfig struct {
	// Layout is the fleet-wide content-addressed cache of BOLT layouts
	// shared by every controller the manager creates; identical binaries
	// with statistically identical profiles reuse one BOLT run. Nil
	// means the manager builds a layout.Memory wired into Metrics; set
	// Disable to run without any cache.
	Layout layout.Cache
	// Disable turns the fleet layout cache off entirely: every service
	// pays its own perf2bolt+BOLT pipeline (ablation baseline).
	// Supplying Layout and Disable together fails Validate.
	Disable bool
}

// DriftConfig groups the streaming-ingest and drift re-optimization
// knobs. When Enabled, every added service gets a bounded profile.Store
// fed by a continuous perf.Streamer, its controller serves optimization
// rounds from the store's trailing window (AttachProfileSource), and
// drift scans (Scan with ScanOptions.Drift) may send Steady services
// back around the lifecycle when the live profile has diverged from the
// one their layout was built from.
type DriftConfig struct {
	Enabled bool
	// Policy is the re-optimization hysteresis (divergence threshold,
	// dwell, cooldown, per-shard budget); zero fields take the
	// profile.ReoptPolicy defaults.
	Policy profile.ReoptPolicy
	// Stream tunes the continuous sampler attached to each service
	// (period, overhead); zero fields take the perf defaults.
	Stream perf.RecorderOptions
}

// Config carries the manager's named knobs with validated defaults,
// grouped by concern (timing, robustness, caching, drift).
type Config struct {
	// Workers bounds how many services run their lifecycle concurrently
	// (default 4). The budget is global: it is shared across all shard
	// queues, never multiplied by Shards.
	Workers int
	// MaxPauses bounds how many services may sit in a stop-the-world
	// replacement (or revert) pause at the same instant, staggering
	// pauses across the fleet (default 1; see docs/fleet.md).
	MaxPauses int
	// Shards is the number of independent lock domains the service
	// table is split into (default 4). Services hash to a shard by name;
	// readers (Snapshot, Scan, the control plane) and the wave's
	// dispatchers each touch one shard at a time, so a thousand-service
	// fleet never serializes on a single manager mutex.
	Shards int

	// Timing groups the simulated profiling/settle/measure durations.
	Timing TimingConfig
	// Robustness groups convergence, regression, retry, and quarantine.
	Robustness RobustnessConfig
	// Cache groups the fleet-wide layout-cache knobs.
	Cache CacheConfig
	// Drift groups streaming profile ingestion and drift-triggered
	// re-optimization.
	Drift DriftConfig

	// SkipGate optimizes every service regardless of the TopDown scan
	// verdict (tests and force-rollouts).
	SkipGate bool

	// Metrics receives the fleet's counters, gauges, and histograms; it
	// is also wired into every controller the manager creates. Nil means
	// metrics are discarded.
	Metrics *telemetry.Registry

	// Tracer receives one root span per service plus every lifecycle
	// event (transitions, retries, backoffs, quarantine trips) and the
	// per-round stage spans of every controller the manager creates. Nil
	// means tracing is discarded.
	Tracer *trace.Tracer

	// FaultHook, when non-nil, runs before every stage attempt; a
	// non-nil return is treated as that stage failing. Tests use it to
	// inject faults at each lifecycle stage. The stage is Profiling,
	// Building, Replacing, or Measuring for forward work, and Reverted
	// for the revert action itself.
	FaultHook func(s *Service, stage State) error

	// Clock supplies every wall-clock read and backoff sleep the fleet
	// performs (service added/updated timestamps, pause-wait timing);
	// nil means the host's real clock. The record/replay layer swaps in
	// a journaling clock so timestamps replay deterministically; tests
	// pass one that records backoff waits without waiting.
	Clock replay.Clock

	// JitterSeed seeds the retry-backoff jitter source (default 1), so a
	// fleet's backoff schedule is a pure function of its config.
	JitterSeed int64
	// Jitter overrides the seeded jitter source with a custom [0,1)
	// draw; tests pin it to observe exact schedules.
	Jitter func() float64

	// Replay, when active, records or replays the wave's nondeterminism:
	// clock reads, sleeps, jitter draws, stage-fault decisions, and —
	// through each service's controller — perf deadlines, tracee fault
	// decisions, and replace checkpoints. An active session serializes
	// the wave (Workers and MaxPauses are forced to 1): replay needs a
	// deterministic decision order, the same limitation rr has.
	Replay *replay.Session
}

// Validate rejects configurations that are internally contradictory —
// not merely unset (zero fields default) but nonsensical in
// combination. It runs on the explicit values, before defaulting.
func (c Config) Validate() error {
	if c.Workers < 0 || c.MaxPauses < 0 || c.Shards < 0 ||
		c.Robustness.MaxRounds < 0 || c.Robustness.MaxRetries < 0 ||
		c.Robustness.QuarantineAfter < 0 {
		return fmt.Errorf("fleet: negative count in config: %+v", c)
	}
	if c.Timing.ProfileDur < 0 || c.Timing.Warm < 0 || c.Timing.Window < 0 ||
		c.Robustness.RevertBelow < 0 || c.Robustness.RetryBackoff < 0 {
		return fmt.Errorf("fleet: negative duration/threshold in config: %+v", c)
	}
	if c.Cache.Disable && c.Cache.Layout != nil {
		return fmt.Errorf("fleet: Cache.Disable set but a Cache.Layout was supplied — pick one")
	}
	if q := c.Robustness.QuarantineAfter; q > 0 {
		r := c.Robustness.MaxRetries
		if r == 0 {
			r = 2 // the MaxRetries default
		}
		// The quarantine breaker counts consecutive replace rollbacks, and
		// one Replacing stage already rolls back up to 1+MaxRetries times:
		// a threshold inside a single stage's retry budget is dead config —
		// the breaker trips on the first exhausted stage regardless, so the
		// number expresses an intent the retry policy contradicts.
		if q <= r {
			return fmt.Errorf("fleet: QuarantineAfter=%d trips inside one stage's retry budget (MaxRetries=%d); use at least MaxRetries+1 or 0 for the default", q, r)
		}
	}
	if d := c.Drift; d.Enabled {
		if d.Policy.MinDivergence < 0 || d.Policy.MinDivergence > 1 {
			return fmt.Errorf("fleet: Drift.Policy.MinDivergence=%v outside [0,1] (total-variation distance)", d.Policy.MinDivergence)
		}
		if d.Policy.MinDwell < 0 || d.Policy.Cooldown < 0 || d.Policy.Window < 0 {
			return fmt.Errorf("fleet: negative drift hysteresis in config: %+v", d.Policy)
		}
	}
	return nil
}

// withDefaults validates the config and fills unset fields.
func (c Config) withDefaults() (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.MaxPauses == 0 {
		c.MaxPauses = 1
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Timing.ProfileDur == 0 {
		c.Timing.ProfileDur = 0.004
	}
	if c.Timing.Warm == 0 {
		c.Timing.Warm = 0.002
	}
	if c.Timing.Window == 0 {
		c.Timing.Window = 0.003
	}
	if c.Robustness.MaxRounds == 0 {
		c.Robustness.MaxRounds = 2
	}
	if c.Robustness.ConvergeGain == 0 {
		c.Robustness.ConvergeGain = 0.02
	}
	if c.Robustness.MaxRetries == 0 {
		c.Robustness.MaxRetries = 2
	}
	if c.Robustness.QuarantineAfter == 0 {
		c.Robustness.QuarantineAfter = c.Robustness.MaxRetries + 1
	}
	if c.Robustness.RetryBackoff == 0 {
		c.Robustness.RetryBackoff = 5 * time.Millisecond
	}
	if c.Drift.Enabled {
		c.Drift.Policy = c.Drift.Policy.WithDefaults()
		if c.Drift.Policy.Window == 0 {
			c.Drift.Policy.Window = c.Timing.ProfileDur
		}
	}
	if c.Clock == nil {
		c.Clock = replay.Wall{}
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	if c.Replay.Active() {
		// Recording is only meaningful over a deterministic decision order;
		// a one-worker, one-pause wave is exactly that (Scan order is
		// already deterministic).
		c.Workers = 1
		c.MaxPauses = 1
	}
	return c, nil
}

// backoffJitterFrac scales the jitter added to each retry backoff:
// sleep = backoff * (1 + frac*jitter), jitter drawn from [0,1).
const backoffJitterFrac = 0.5

// seededJitter returns a locked, seeded [0,1) source.
func seededJitter(seed int64) func() float64 {
	var mu sync.Mutex
	r := rand.New(rand.NewSource(seed))
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return r.Float64()
	}
}

// ServicePlan names everything needed to stand up one managed service,
// replacing NewService's positional (name, w, input, threads, opts)
// signature.
type ServicePlan struct {
	Name     string
	Workload *wl.Workload
	Input    string
	// Threads is the worker-thread count; 0 means the workload default.
	Threads int
	// Core configures the service's controller. The manager fills in
	// AllowReBolt (multi-round fleets need it) and its Metrics registry.
	Core core.Options
	// Clock supplies the service's record timestamps (added/updated);
	// nil means the host clock. The manager injects its own (possibly
	// record/replay) clock.
	Clock replay.Clock
}

// Service is one managed process with its lifecycle record.
type Service struct {
	Name   string
	Plan   ServicePlan
	Proc   *proc.Process
	Driver *wl.Driver
	Ctl    *core.Controller

	mu        sync.Mutex
	state     State
	rounds    []RoundResult
	retries   int
	rollbacks int // consecutive transactional replace rollbacks
	scanned   bool
	selected  bool
	topdown   cpu.TopDown
	baseline  wl.WindowStats
	lastErr   error
	root      *trace.Span // per-service trace root, nil without a tracer
	clock     replay.Clock
	addedAt   time.Time
	updatedAt time.Time

	// Streaming-ingest state, wired by AddService when Config.Drift is
	// enabled: the bounded sample store the controller's profile windows
	// are served from, the always-attached sampler feeding it, the drift
	// tracker holding the layout's build-profile baseline, and how many
	// times drift sent the service back around the loop.
	store    *profile.Store
	streamer *perf.Streamer
	tracker  *profile.Tracker
	reopts   int
}

// NewService loads a workload instance under a fresh controller.
func NewService(plan ServicePlan) (*Service, error) {
	if plan.Workload == nil {
		return nil, fmt.Errorf("fleet: service %q has no workload", plan.Name)
	}
	if plan.Name == "" {
		return nil, fmt.Errorf("fleet: service for workload %s has no name", plan.Workload.Name)
	}
	if plan.Threads <= 0 {
		plan.Threads = plan.Workload.Threads
	}
	d, err := plan.Workload.NewDriver(plan.Input, plan.Threads)
	if err != nil {
		return nil, err
	}
	p, err := proc.Load(plan.Workload.Binary, proc.Options{Threads: plan.Threads, Handler: d})
	if err != nil {
		return nil, err
	}
	ctl, err := core.New(p, plan.Workload.Binary, plan.Core)
	if err != nil {
		return nil, err
	}
	if plan.Clock == nil {
		plan.Clock = replay.Wall{}
	}
	now := plan.Clock.Now()
	return &Service{Name: plan.Name, Plan: plan, Proc: p, Driver: d, Ctl: ctl,
		state: Idle, clock: plan.Clock, addedAt: now, updatedAt: now}, nil
}

// now reads the service clock, falling back to the wall clock for
// hand-built Service literals (tests) that never went through
// NewService.
func (s *Service) now() time.Time {
	if s.clock == nil {
		return time.Now()
	}
	return s.clock.Now()
}

// rootSpan returns the service's trace root span (nil-safe sink when no
// tracer is configured).
func (s *Service) rootSpan() *trace.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root
}

// setRoot installs the service's root span and points the controller's
// stage spans under it.
func (s *Service) setRoot(sp *trace.Span) {
	s.mu.Lock()
	s.root = sp
	s.mu.Unlock()
	s.Ctl.SetTraceRoot(sp)
}

// ProfileStore returns the service's streaming sample store (nil when
// drift ingestion is disabled).
func (s *Service) ProfileStore() *profile.Store { return s.store }

// Reopts returns how many times drift detection sent the service back
// around the optimization loop from Steady.
func (s *Service) Reopts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reopts
}

// State returns the service's current lifecycle state.
func (s *Service) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Err returns the most recent stage error recorded for the service (nil
// if it never failed).
func (s *Service) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Rollbacks returns the service's consecutive transactional replace
// rollbacks (reset to zero by every committed replacement).
func (s *Service) Rollbacks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rollbacks
}

// Rounds returns a copy of the completed optimization rounds.
func (s *Service) Rounds() []RoundResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RoundResult(nil), s.rounds...)
}

// mgrShard is one lock domain of the service table. Every shard owns a
// disjoint, name-hashed subset of the fleet; readers and wave
// dispatchers lock one shard at a time, so contention on any shard
// (say, a snapshot racing a thousand-service wave) never stalls the
// other shards.
type mgrShard struct {
	mu       sync.Mutex
	services []*Service
}

// snapshot copies the shard's service list under its own lock.
func (sh *mgrShard) snapshot() []*Service {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]*Service(nil), sh.services...)
}

// Manager owns the fleet: the shared config, the pause-stagger
// semaphore, the sharded service table, and the fleet-wide layout
// cache.
type Manager struct {
	cfg      Config
	pauseSem chan struct{}
	clock    replay.Clock   // cfg.Clock, session-wrapped
	jitter   func() float64 // backoff jitter source, session-wrapped
	cache    layout.Cache   // fleet-wide layout cache, nil when disabled

	shards []*mgrShard

	pmu       sync.Mutex // pause accounting, separate from shard locks
	inPause   int
	peakPause int
}

// NewManager validates the config and returns an empty manager. The base
// metric families are registered eagerly so a scrape taken before (or
// without) any optimization wave still exposes every fleet metric name.
func NewManager(cfg Config) (*Manager, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	registerBaseMetrics(cfg.Metrics)
	jitter := cfg.Jitter
	if jitter == nil {
		jitter = seededJitter(cfg.JitterSeed)
	}
	cache := cfg.Cache.Layout
	if cache == nil && !cfg.Cache.Disable {
		cache = layout.NewMemory(0, cfg.Metrics)
	}
	shards := make([]*mgrShard, cfg.Shards)
	for i := range shards {
		shards[i] = &mgrShard{}
	}
	return &Manager{
		cfg:      cfg,
		pauseSem: make(chan struct{}, cfg.MaxPauses),
		clock:    cfg.Replay.Clock(cfg.Clock),
		jitter:   cfg.Replay.Jitter(jitter),
		cache:    cache,
		shards:   shards,
	}, nil
}

// shardIndex hashes a service name to its lock domain.
func (m *Manager) shardIndex(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(m.shards)))
}

// CacheStats snapshots the layout-cache counters; ok is false when the
// cache is disabled.
func (m *Manager) CacheStats() (stats layout.Stats, ok bool) {
	if m.cache == nil {
		return layout.Stats{}, false
	}
	return m.cache.Stats(), true
}

// registerBaseMetrics creates the fleet's metric families at their zero
// values (the registry is a nil-safe sink when metrics are discarded).
func registerBaseMetrics(r *telemetry.Registry) {
	r.Counter("fleet_rounds_total")
	r.Counter("fleet_steady_total")
	r.Counter("fleet_reverts_total")
	r.Counter("fleet_failures_total")
	r.Counter("fleet_quarantines_total")
	r.Gauge("fleet_services")
	r.Gauge("fleet_selected")
	r.Gauge("fleet_quarantined")
	r.Gauge("fleet_pauses_peak")
	r.CounterVec("fleet_stage_errors_total", "stage")
	r.CounterVec("fleet_retries_total", "stage")
	r.Histogram("fleet_speedup")
	r.Histogram("fleet_pause_seconds")
	r.Histogram("fleet_pause_wait_seconds")
}

// Config returns the manager's effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// AddService builds a service from the plan, wires it into the
// manager's metrics registry and multi-round bolt settings, and adopts
// it.
func (m *Manager) AddService(plan ServicePlan) (*Service, error) {
	if plan.Core.Metrics == nil {
		plan.Core.Metrics = m.cfg.Metrics
	}
	if plan.Core.Tracer == nil {
		plan.Core.Tracer = m.cfg.Tracer
	}
	if plan.Core.Service == "" {
		plan.Core.Service = plan.Name
	}
	if plan.Core.Replay == nil {
		plan.Core.Replay = m.cfg.Replay
	}
	if plan.Clock == nil {
		plan.Clock = m.clock
	}
	if plan.Core.LayoutCache == nil {
		plan.Core.LayoutCache = m.cache
	}
	if m.cfg.Robustness.MaxRounds > 1 || m.cfg.Drift.Enabled {
		// Continuous optimization — and any drift-triggered re-entry —
		// re-optimizes an already-bolted binary, which the real BOLT
		// refuses (§IV-C); the extension past that refusal is opt-in at
		// the bolt layer.
		plan.Core.Bolt.AllowReBolt = true
	}
	s, err := NewService(plan)
	if err != nil {
		return nil, err
	}
	if m.cfg.Drift.Enabled {
		s.store = profile.NewStore(profile.StoreOptions{Service: s.Name, Replay: m.cfg.Replay})
		s.tracker = profile.NewTracker()
		// The continuous sampler streams into the store for the life of
		// the service; its sample timing goes through the same replay
		// seam as one-shot profiling windows.
		sopts := m.cfg.Drift.Stream
		if m.cfg.Replay.Active() {
			sopts.NextDeadline = m.cfg.Replay.PerfDeadline(sopts.DeadlineFunc())
		}
		s.streamer = perf.Stream(s.Proc, sopts, s.store.Ingest)
		s.Ctl.AttachProfileSource(s.store)
	}
	m.Add(s)
	return s, nil
}

// Add adopts an existing service into its name-hashed shard.
func (m *Manager) Add(s *Service) {
	sh := m.shards[m.shardIndex(s.Name)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.services = append(sh.services, s)
}

// Services returns the managed services in deterministic name order.
// (The table is sharded, so insertion order is not meaningful; sorting
// by name makes every fleet-wide iteration — snapshots, reports, replay
// checkpoints — reproducible regardless of shard layout.)
func (m *Manager) Services() []*Service {
	var out []*Service
	for _, sh := range m.shards {
		out = append(out, sh.snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScanResult is the first-stage verdict for one service.
type ScanResult struct {
	Service  *Service
	TopDown  cpu.TopDown
	Optimize bool
	// Drift marks a verdict produced by a drift scan (ScanOptions.Drift):
	// Optimize then means "the live profile diverged from the layout's
	// build profile and every hysteresis guard passed", DriftScore is the
	// total-variation divergence, and DriftReason explains the verdict
	// (profile.ReasonDrift on trigger).
	Drift       bool
	DriftScore  float64
	DriftReason string
}

// ScanOptions configures a fleet scan. The zero value scans with the
// manager's configured window, so Scan(ScanOptions{}) is the common
// fleet pass.
type ScanOptions struct {
	// Window is the simulated TopDown measurement window per service;
	// 0 means Config.Timing.Window.
	Window float64
	// Drift switches the scan to drift mode: instead of TopDown-gating
	// Idle services, the scan walks Steady services with streaming
	// stores, scores each live window against its layout's build profile
	// and selects the ones whose drift verdict fired. Requires
	// Config.Drift.Enabled.
	Drift bool
}

// Scan runs the first-stage TopDown check on every service (the
// DMon/GWP-style fleet profiling pass) and ranks candidates by front-end
// share, the feature Figure 9 shows predicts benefit. Order is
// deterministic: front-end share descending, then service name ascending
// on ties, so fleet schedules are reproducible. Only one shard's lock is
// held at a time while gathering the fleet, so a scan never stalls
// another shard's in-flight replacements.
func (m *Manager) Scan(opts ScanOptions) []ScanResult {
	if opts.Drift {
		return m.driftScan(opts)
	}
	if opts.Window == 0 {
		opts.Window = m.cfg.Timing.Window
	}
	services := m.Services()
	out := make([]ScanResult, 0, len(services))
	for _, s := range services {
		optimize, td := s.Ctl.ShouldOptimize(opts.Window)
		r := ScanResult{Service: s, TopDown: td, Optimize: optimize}
		s.mu.Lock()
		s.scanned = true
		s.selected = r.Optimize || m.cfg.SkipGate
		s.topdown = td
		s.mu.Unlock()
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TopDown.FrontEnd != out[j].TopDown.FrontEnd {
			return out[i].TopDown.FrontEnd > out[j].TopDown.FrontEnd
		}
		return out[i].Service.Name < out[j].Service.Name
	})
	return out
}

// driftScan is Scan's drift mode: every Steady service with a streaming
// store has its live trailing window summarized and checked against the
// profile its current layout was built from. Verdicts are journaled
// through the replay session (EvDriftDecision) before being acted on —
// the score is recomputed bit-exactly on replay from the replayed sample
// stream, so a drift-triggered wave replays byte-identically. Order is
// deterministic: divergence score descending, then name ascending.
func (m *Manager) driftScan(opts ScanOptions) []ScanResult {
	pol := m.cfg.Drift.Policy
	var out []ScanResult
	for _, s := range m.Services() {
		if s.State() != Steady || s.store == nil || s.tracker == nil {
			continue
		}
		live := profile.Summarize(s.store.Window(pol.Window))
		dec := s.tracker.Check(live, s.store.Now(), pol)
		if dec.Reason == profile.ReasonNoBaseline && live.Total > 0 {
			// The post-replace settle window was too short to baseline the
			// layout (or the service went Steady unoptimized): adopt this
			// scan's live window so the next scan has something to diverge
			// from. Never a trigger by itself.
			s.tracker.Rebase(live, s.store.Now())
		}
		if err := dec.Journal(m.cfg.Replay, s.Name); err != nil {
			// The session diverged; the sticky error surfaces at the next
			// checkpoint. Withhold the trigger so a diverged replay cannot
			// launch a wave the recording never ran.
			dec.Trigger = false
		}
		s.mu.Lock()
		s.scanned = true
		s.selected = dec.Trigger
		td := s.topdown
		s.mu.Unlock()
		s.rootSpan().Event(trace.EvDriftDecision,
			trace.Float("score", dec.Score),
			trace.Bool("trigger", dec.Trigger),
			trace.String("reason", dec.Reason))
		out = append(out, ScanResult{
			Service:     s,
			TopDown:     td,
			Optimize:    dec.Trigger,
			Drift:       true,
			DriftScore:  dec.Score,
			DriftReason: dec.Reason,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].DriftScore != out[j].DriftScore {
			return out[i].DriftScore > out[j].DriftScore
		}
		return out[i].Service.Name < out[j].Service.Name
	})
	return out
}

// Run is the whole fleet pass: scan every service, then drive each
// selected one through its optimization lifecycle on the worker pool.
// Per-service outcomes (including faults) land in the returned snapshot,
// not in the error return, which is reserved for fleet-level misuse.
func (m *Manager) Run() ([]ServiceStatus, error) {
	if len(m.Services()) == 0 {
		return nil, fmt.Errorf("fleet: no services added")
	}
	scan := m.Scan(ScanOptions{})
	m.Optimize(scan, WaveOptions{})
	// Round boundary for the whole wave: every service's terminal state
	// and controller hash must match the recording exactly.
	if r := m.cfg.Replay; r.Active() {
		for _, s := range m.Services() {
			if err := r.Checkpoint("service_final", s.Ctl.StateHash(),
				trace.String("service", s.Name), trace.String("state", s.State().String()),
				trace.Int("version", s.Ctl.Version())); err != nil {
				return nil, err
			}
		}
	}
	return m.Snapshot(), nil
}

// WaveOptions configures one optimization wave.
type WaveOptions struct {
	// Serial drives the wave one service at a time in scan order,
	// bypassing the shard queues and the worker budget. It is forced
	// automatically while a record/replay session is active: replay
	// needs a deterministic decision order.
	Serial bool
}

// Optimize drives every scan-selected service (every scanned service
// when SkipGate is set) through the lifecycle concurrently: selected
// services split into their name-hashed shard queues, each queue drains
// independently, and the global Config.Workers budget bounds how many
// lifecycles run at once across all shards. Unselected services
// transition Idle → Steady untouched. When the scan carries drift
// verdicts, at most Config.Drift.Policy.ShardBudget triggered services
// per shard are driven and the rest are demoted to "budget" — a
// fleet-wide phase turn must not become a fleet-wide pause storm. It
// blocks until the whole wave reaches a terminal state.
func (m *Manager) Optimize(scan []ScanResult, wave WaveOptions) {
	pol := m.cfg.Drift.Policy
	budgetUsed := make(map[int]int)
	var selected []*Service
	for _, r := range scan {
		s := r.Service
		if s.rootSpan() == nil {
			sp := m.cfg.Tracer.Start(nil, "service",
				trace.Float("frontend_share", r.TopDown.FrontEnd))
			sp.SetService(s.Name)
			s.setRoot(sp)
		}
		if r.Drift {
			// Drift verdicts re-enter Steady services; non-triggered ones
			// simply stay Steady — there is nothing to transition. Triggered
			// ones are driven up to the per-shard re-opt budget, in scan
			// order (divergence score descending), and the overflow is
			// demoted with a journaled "budget" verdict so record/replay
			// agree on exactly which services ran.
			if !r.Optimize {
				continue
			}
			shard := m.shardIndex(s.Name)
			if pol.ShardBudget >= 0 && budgetUsed[shard] >= pol.ShardBudget {
				s.mu.Lock()
				s.selected = false
				s.mu.Unlock()
				dec := profile.Decision{Score: r.DriftScore, Reason: profile.ReasonBudget}
				dec.Journal(m.cfg.Replay, s.Name)
				s.rootSpan().Event(trace.EvDriftDecision,
					trace.Float("score", dec.Score),
					trace.Bool("trigger", false),
					trace.String("reason", dec.Reason))
				continue
			}
			budgetUsed[shard]++
			selected = append(selected, s)
			continue
		}
		if r.Optimize || m.cfg.SkipGate {
			selected = append(selected, s)
		} else if s.State() == Idle {
			// Not worth a round: the service stays on its current code.
			s.transition(Steady)
		}
	}
	if m.cfg.Metrics != nil {
		m.cfg.Metrics.Gauge("fleet_services").Set(float64(len(scan)))
		m.cfg.Metrics.Gauge("fleet_selected").Set(float64(len(selected)))
	}

	if wave.Serial || m.cfg.Replay.Active() {
		// One service at a time in scan order, so the replay journal sees
		// every decision in a deterministic order.
		for _, s := range selected {
			m.drive(s)
		}
		return
	}

	// Per-shard queues drain independently; the token channel is the
	// global concurrency budget shared across them, so a hot shard can't
	// exceed Workers and a cold shard never waits on a foreign lock.
	queues := make([][]*Service, len(m.shards))
	for _, s := range selected {
		i := m.shardIndex(s.Name)
		queues[i] = append(queues[i], s)
	}
	tokens := make(chan struct{}, m.cfg.Workers)
	var wg sync.WaitGroup
	for _, q := range queues {
		if len(q) == 0 {
			continue
		}
		wg.Add(1)
		go func(q []*Service) {
			defer wg.Done()
			var swg sync.WaitGroup
			for _, s := range q {
				tokens <- struct{}{}
				swg.Add(1)
				go func(s *Service) {
					defer swg.Done()
					defer func() { <-tokens }()
					m.drive(s)
				}(s)
			}
			swg.Wait()
		}(q)
	}
	wg.Wait()
}

// acquirePause takes a slot in the global stop-the-world budget,
// blocking while MaxPauses other services are mid-replacement, and
// reports the wait into the stagger histogram.
func (m *Manager) acquirePause() {
	t0 := m.clock.Now()
	m.pauseSem <- struct{}{}
	m.pmu.Lock()
	m.inPause++
	if m.inPause > m.peakPause {
		m.peakPause = m.inPause
	}
	peak := m.peakPause
	m.pmu.Unlock()
	if mt := m.cfg.Metrics; mt != nil {
		mt.Histogram("fleet_pause_wait_seconds").Observe(m.clock.Now().Sub(t0).Seconds())
		mt.Gauge("fleet_pauses_peak").Set(float64(peak))
	}
}

func (m *Manager) releasePause() {
	m.pmu.Lock()
	m.inPause--
	m.pmu.Unlock()
	<-m.pauseSem
}

// PeakPauses reports the maximum number of services that were ever
// simultaneously inside a stop-the-world pause — never more than
// Config.MaxPauses.
func (m *Manager) PeakPauses() int {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	return m.peakPause
}
