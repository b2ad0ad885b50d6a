package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// MarshalJSON renders lifecycle states by name, so snapshots read as
// "Steady" rather than an enum ordinal.
func (s State) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the state names MarshalJSON produces, so
// /services documents round-trip through consumers.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for st := Idle; st <= Quarantined; st++ {
		if st.String() == name {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("fleet: unknown state %q", name)
}

// ServiceStatus is the one record of a managed service's outcome: what
// Run returns, what WriteStatusTable prints, and what the control plane's
// /services endpoint serves, with JSON field names stable across
// releases.
type ServiceStatus struct {
	Name     string `json:"name"`
	State    State  `json:"state"`
	Selected bool   `json:"selected"`
	// FrontEnd is the TopDown front-end share from the scan (Figure 9's
	// selection feature).
	FrontEnd float64 `json:"frontend_share"`
	// Version is the optimized code version the service serves on (0 =
	// original code, including after a revert).
	Version   int           `json:"version"`
	Rounds    []RoundResult `json:"rounds,omitempty"`
	Retries   int           `json:"retries"`
	Rollbacks int           `json:"rollbacks"`
	// Baseline is the pre-optimization steady-state throughput.
	Baseline float64 `json:"baseline_throughput"`
	// Speedup is the last round's speedup vs baseline (1.0 before any
	// round lands and after a revert).
	Speedup float64 `json:"speedup"`
	// PauseSeconds is the total simulated stop-the-world time.
	PauseSeconds float64 `json:"pause_seconds"`
	// OSRFramesMapped/OSRFallbacks total the on-stack-replacement
	// outcomes across all rounds: frames transferred between layouts in
	// place vs frames left to copy-based migration.
	OSRFramesMapped int `json:"osr_frames_mapped"`
	OSRFallbacks    int `json:"osr_fallbacks"`
	// DriftScore is the latest divergence the drift detector computed for
	// this service (0 until the first drift scan after a layout lands).
	DriftScore float64 `json:"drift_score"`
	// Reopts counts drift-triggered re-optimizations: completed trips back
	// around the loop from Steady.
	Reopts    int       `json:"reopts"`
	LastErr   string    `json:"last_error,omitempty"`
	AddedAt   time.Time `json:"added_at"`
	UpdatedAt time.Time `json:"updated_at"`
}

// Status snapshots one service under its lock.
func (s *Service) Status() ServiceStatus {
	s.mu.Lock()
	st := ServiceStatus{
		Name:      s.Name,
		State:     s.state,
		Selected:  s.selected,
		FrontEnd:  s.topdown.FrontEnd,
		Rounds:    append([]RoundResult(nil), s.rounds...),
		Retries:   s.retries,
		Rollbacks: s.rollbacks,
		Baseline:  s.baseline.Throughput,
		Speedup:   1,
		Reopts:    s.reopts,
		AddedAt:   s.addedAt,
		UpdatedAt: s.updatedAt,
	}
	if s.lastErr != nil {
		st.LastErr = s.lastErr.Error()
	}
	s.mu.Unlock()
	if s.tracker != nil {
		st.DriftScore = s.tracker.LastScore()
	}
	for _, rr := range st.Rounds {
		st.PauseSeconds += rr.PauseSeconds
		st.OSRFramesMapped += rr.OSRFramesMapped
		st.OSRFallbacks += rr.OSRFallbacks
	}
	if n := len(st.Rounds); n > 0 && st.State != Reverted {
		st.Version = st.Rounds[n-1].Version
		st.Speedup = st.Rounds[n-1].Speedup
	}
	return st
}

// Snapshot captures the whole fleet, sorted by service name. It is safe
// to call at any time, including mid-wave: each service is snapshotted
// under its own lock. Every reporting surface — Run's result, the text
// table, the control plane's JSON endpoint — is this slice.
func (m *Manager) Snapshot() []ServiceStatus {
	services := m.Services()
	out := make([]ServiceStatus, 0, len(services))
	for _, s := range services {
		out = append(out, s.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteStatusTable renders the per-service table cmd/fleetd and the
// fleet experiment print.
func WriteStatusTable(w io.Writer, services []ServiceStatus) {
	fmt.Fprintf(w, "%-24s %-10s %4s %7s %8s %9s %4s %8s %7s\n",
		"service", "state", "sel", "rounds", "speedup", "pause_ms", "osr", "retries", "FE%")
	for _, s := range services {
		sel := "-"
		if s.Selected {
			sel = "yes"
		}
		fmt.Fprintf(w, "%-24s %-10s %4s %7d %7.2fx %9.2f %4d %8d %6.1f%%\n",
			s.Name, s.State, sel, len(s.Rounds), s.Speedup,
			s.PauseSeconds*1e3, s.OSRFramesMapped, s.Retries, s.FrontEnd*100)
		if s.LastErr != "" {
			fmt.Fprintf(w, "%-24s   last error: %s\n", "", s.LastErr)
		}
	}
}
