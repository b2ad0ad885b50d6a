package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/layout"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ControlPlane is the fleet's live HTTP surface: Prometheus metrics,
// the service snapshot, span trees / the event journal, streaming
// profile ingestion, and a health probe. Every endpoint but /profile is
// read-only, and all are safe to serve while an optimization wave is
// running: snapshots take per-service locks, the registry, tracer, and
// profile stores are internally synchronized.
//
//	GET  /metrics             Prometheus text exposition (format 0.0.4)
//	GET  /services            JSON array of ServiceStatus
//	GET  /trace?service=X     span tree JSON ("" = all services)
//	GET  /trace?format=jsonl  event journal, one JSON event per line
//	GET  /cache               layout-cache stats (hits, misses, coalesced, hit rate)
//	GET  /profile?service=X   streaming-profile status ("" = all services; &top=N edges)
//	POST /profile             ingest {"service": ..., "samples": [...]} LBR batches
//	GET  /healthz             "ok"
type ControlPlane struct {
	m      *Manager
	reg    *telemetry.Registry
	tracer *trace.Tracer
}

// NewControlPlane wires the fleet's observable state into an HTTP
// handler set. Any of the three sources may be nil; the corresponding
// endpoints then serve empty documents rather than erroring.
func NewControlPlane(m *Manager, reg *telemetry.Registry, tracer *trace.Tracer) *ControlPlane {
	return &ControlPlane{m: m, reg: reg, tracer: tracer}
}

// Handler returns the control plane's route table.
func (cp *ControlPlane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", cp.getOnly(cp.metrics))
	mux.HandleFunc("/services", cp.getOnly(cp.services))
	mux.HandleFunc("/trace", cp.getOnly(cp.trace))
	mux.HandleFunc("/cache", cp.getOnly(cp.cache))
	mux.HandleFunc("/profile", cp.profile)
	mux.HandleFunc("/healthz", cp.getOnly(cp.healthz))
	return mux
}

func (cp *ControlPlane) getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func (cp *ControlPlane) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := cp.reg.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (cp *ControlPlane) services(w http.ResponseWriter, r *http.Request) {
	var snap []ServiceStatus
	if cp.m != nil {
		snap = cp.m.Snapshot()
	}
	if snap == nil {
		snap = []ServiceStatus{}
	}
	writeJSON(w, snap)
}

func (cp *ControlPlane) trace(w http.ResponseWriter, r *http.Request) {
	service := r.URL.Query().Get("service")
	switch format := r.URL.Query().Get("format"); format {
	case "", "tree":
		tree := cp.tracer.Tree(service)
		if tree == nil {
			tree = []*trace.SpanNode{}
		}
		writeJSON(w, tree)
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		if cp.tracer == nil {
			return
		}
		j := cp.tracer.Journal()
		if service != "" {
			for _, e := range j.ByService(service) {
				b, err := json.Marshal(e)
				if err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				w.Write(append(b, '\n'))
			}
			return
		}
		if err := j.WriteJSONL(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want tree or jsonl)", format), http.StatusBadRequest)
	}
}

// CacheStatus is the /cache document: the layout cache's counters plus
// the derived hit rate, or enabled=false when the fleet runs cacheless.
type CacheStatus struct {
	Enabled bool         `json:"enabled"`
	Stats   layout.Stats `json:"stats"`
	HitRate float64      `json:"hit_rate"`
}

func (cp *ControlPlane) cache(w http.ResponseWriter, r *http.Request) {
	var doc CacheStatus
	if cp.m != nil {
		if stats, ok := cp.m.CacheStats(); ok {
			doc = CacheStatus{Enabled: true, Stats: stats, HitRate: stats.HitRate()}
		}
	}
	writeJSON(w, doc)
}

// ProfilePush is the POST /profile request body: one batch of
// timestamped LBR samples for one service.
type ProfilePush struct {
	Service string                `json:"service"`
	Samples []profile.TimedSample `json:"samples"`
}

// profile serves the streaming-profile surface: GET returns store
// status (one service or all), POST ingests an external sample batch.
func (cp *ControlPlane) profile(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		cp.profileStatus(w, r)
	case http.MethodPost:
		cp.profileIngest(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (cp *ControlPlane) profileStatus(w http.ResponseWriter, r *http.Request) {
	if cp.m == nil {
		writeJSON(w, []ProfileStatus{})
		return
	}
	top := 10
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad top %q", v), http.StatusBadRequest)
			return
		}
		top = n
	}
	if name := r.URL.Query().Get("service"); name != "" {
		st, err := cp.m.ProfileStatus(name, top)
		if err != nil {
			http.Error(w, err.Error(), profileErrStatus(err))
			return
		}
		writeJSON(w, st)
		return
	}
	writeJSON(w, cp.m.ProfileStatuses(top))
}

// maxProfilePush bounds a POST /profile body: the endpoint takes bytes
// from outside the process, so an unbounded decode is a memory-exhaustion
// handle. 8 MiB holds about one full default-capacity store (8192
// samples of 32 LBR records) in this JSON encoding.
const maxProfilePush = 8 << 20

func (cp *ControlPlane) profileIngest(w http.ResponseWriter, r *http.Request) {
	var push ProfilePush
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxProfilePush)).Decode(&push); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad profile push: %v", err), status)
		return
	}
	if push.Service == "" {
		http.Error(w, "profile push missing service", http.StatusBadRequest)
		return
	}
	if cp.m == nil {
		http.Error(w, ErrUnknownService.Error(), http.StatusNotFound)
		return
	}
	if err := cp.m.IngestProfile(push.Service, push.Samples); err != nil {
		http.Error(w, err.Error(), profileErrStatus(err))
		return
	}
	records := 0
	for _, ts := range push.Samples {
		records += len(ts.Records)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]int{"samples": len(push.Samples), "records": records})
}

// profileErrStatus maps the manager's profile-API sentinels to HTTP:
// an unknown service is 404, a service without a store is 409 (the
// request is well-formed; the fleet's configuration conflicts with it).
func profileErrStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownService):
		return http.StatusNotFound
	case errors.Is(err, ErrNoProfileStore):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func (cp *ControlPlane) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
