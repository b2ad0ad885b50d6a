package profile

import (
	"math"
	"sync"

	"repro/internal/replay"
)

// ReoptPolicy is the drift detector's hysteresis: every guard that has
// to pass before a Steady service is sent back around the optimization
// loop. The zero value takes all defaults.
type ReoptPolicy struct {
	// MinDivergence is the total-variation score (Divergence, in [0,1])
	// the live window must reach against the layout's build profile
	// before a re-optimization can fire (default 0.35). Uniform sampling
	// noise on a stationary workload scores far below it; a hot-set swap
	// scores far above.
	MinDivergence float64
	// MinDwell is the minimum simulated time a service must sit Steady
	// before drift may re-trigger it (default 0.002 s): a layout gets to
	// serve at least one settle period before being judged stale.
	MinDwell float64
	// Cooldown is the minimum simulated time between drift-triggered
	// re-optimizations of one service (default 0.004 s), so an oscillating
	// workload cannot thrash the fleet with stop-the-world pauses.
	Cooldown float64
	// ShardBudget caps how many drift-triggered services one shard may
	// re-optimize per wave (default 4; <0 = unlimited). Keeps a
	// fleet-wide phase turn from turning into a fleet-wide pause storm.
	ShardBudget int
	// Window is the trailing sample window scored against the baseline;
	// 0 means the fleet's profiling duration.
	Window float64
}

// WithDefaults fills unset policy fields.
func (p ReoptPolicy) WithDefaults() ReoptPolicy {
	if p.MinDivergence == 0 {
		p.MinDivergence = 0.35
	}
	if p.MinDwell == 0 {
		p.MinDwell = 0.002
	}
	if p.Cooldown == 0 {
		p.Cooldown = 0.004
	}
	if p.ShardBudget == 0 {
		p.ShardBudget = 4
	}
	return p
}

// Decision is one drift verdict for one service.
type Decision struct {
	// Score is the total-variation divergence of the live window against
	// the layout's build profile.
	Score float64 `json:"score"`
	// Trigger reports that re-optimization should fire.
	Trigger bool `json:"trigger"`
	// Reason explains the verdict: "drift" on trigger, else which guard
	// held it back ("no_baseline", "no_samples", "fingerprint_match",
	// "below_threshold", "dwell", "cooldown"; the wave may later add
	// "budget").
	Reason string `json:"reason"`
}

// Reason values for Decision and the drift journal events.
const (
	ReasonDrift       = "drift"
	ReasonNoBaseline  = "no_baseline"
	ReasonNoSamples   = "no_samples"
	ReasonFingerprint = "fingerprint_match"
	ReasonBelow       = "below_threshold"
	ReasonDwell       = "dwell"
	ReasonCooldown    = "cooldown"
	ReasonBudget      = "budget"
)

// Tracker is one service's drift state: the summary of the profile its
// current layout was built from, when it last went Steady, and when it
// last re-optimized. The fleet manager rebases it every time a new
// layout lands and consults Check on every drift scan.
type Tracker struct {
	mu        sync.Mutex
	baseline  Summary
	hasBase   bool
	steadyAt  float64
	lastReopt float64
	lastScore float64
}

// NewTracker returns an empty tracker (no baseline: drift never fires
// until a layout lands and Rebase is called).
func NewTracker() *Tracker { return &Tracker{} }

// Rebase installs the build profile of the layout that just landed as
// the drift baseline.
func (t *Tracker) Rebase(base Summary, now float64) {
	t.mu.Lock()
	t.baseline = base
	t.hasBase = base.Total > 0
	t.steadyAt = now
	t.mu.Unlock()
}

// Clear drops the baseline (the service reverted to C0: there is no
// built layout left to go stale).
func (t *Tracker) Clear() {
	t.mu.Lock()
	t.baseline = Summary{}
	t.hasBase = false
	t.mu.Unlock()
}

// MarkReopt records the instant a drift-triggered re-optimization
// started; the cooldown guard counts from here.
func (t *Tracker) MarkReopt(now float64) {
	t.mu.Lock()
	t.lastReopt = now
	t.mu.Unlock()
}

// LastScore returns the most recent divergence score Check computed.
func (t *Tracker) LastScore() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastScore
}

// Check scores the live windowed summary against the baseline and runs
// the hysteresis guards in a fixed order (score first, so every verdict
// carries it; then fingerprint, threshold, dwell, cooldown). The
// fingerprint guard is what makes the ±40%-noise band structurally
// quiet: if the quantized fingerprints still collide, the layout cache
// would serve the identical layout back, so re-optimizing cannot help
// whatever the raw weights say.
func (t *Tracker) Check(live Summary, now float64, p ReoptPolicy) Decision {
	p = p.WithDefaults()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.hasBase {
		return Decision{Reason: ReasonNoBaseline}
	}
	if live.Total == 0 {
		return Decision{Reason: ReasonNoSamples}
	}
	d := Decision{Score: Divergence(live, t.baseline)}
	t.lastScore = d.Score
	switch {
	case live.FP == t.baseline.FP:
		d.Reason = ReasonFingerprint
	case d.Score < p.MinDivergence:
		d.Reason = ReasonBelow
	case now-t.steadyAt < p.MinDwell:
		d.Reason = ReasonDwell
	case t.lastReopt > 0 && now-t.lastReopt < p.Cooldown:
		d.Reason = ReasonCooldown
	default:
		d.Trigger = true
		d.Reason = ReasonDrift
	}
	return d
}

// Journal writes the decision to the replay session as an
// EvDriftDecision with the score bit-exact, so a replayed drift scan
// must recompute the identical verdict.
func (d Decision) Journal(sess *replay.Session, service string) error {
	return sess.DriftEvent(service, math.Float64bits(d.Score), d.Trigger, d.Reason)
}
