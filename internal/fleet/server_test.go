package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads/sqldb"
)

// newTestPlane stands up a one-service fleet, runs a one-round wave,
// and returns the control plane handler over its live state.
func newTestPlane(t *testing.T) (http.Handler, *Manager, *trace.Tracer) {
	t.Helper()
	db, err := sqldb.Build(sqldb.Small())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{})
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Robustness: RobustnessConfig{MaxRounds: 1},
		SkipGate:   true, Tracer: tr, Metrics: reg,
		Timing: TimingConfig{ProfileDur: 0.0008, Warm: 0.0003, Window: 0.0004},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.AddService(ServicePlan{Name: "svc", Workload: db, Input: "read_only", Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Proc.RunFor(0.0004)
	m.Optimize(m.Scan(ScanOptions{}), WaveOptions{})
	return NewControlPlane(m, reg, tr).Handler(), m, tr
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestControlPlaneHealthz(t *testing.T) {
	h, _, _ := newTestPlane(t)
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

func TestControlPlaneMetrics(t *testing.T) {
	h, _, _ := newTestPlane(t)
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE fleet_rounds_total counter",
		"fleet_services 1",
		"# TYPE core_stage_seconds summary",
		`core_stage_seconds{stage="profile",quantile="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestControlPlaneServices(t *testing.T) {
	h, m, _ := newTestPlane(t)
	rec := get(t, h, "/services")
	if rec.Code != http.StatusOK {
		t.Fatalf("services status = %d", rec.Code)
	}
	var got []ServiceStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("services not JSON: %v\n%s", err, rec.Body.String())
	}
	want := m.Snapshot()
	if len(got) != len(want) || got[0].Name != "svc" || got[0].Version != want[0].Version {
		t.Errorf("services = %+v, want %+v", got, want)
	}
	// State round-trips by name in the raw document.
	if !strings.Contains(rec.Body.String(), `"state": "`+want[0].State.String()+`"`) {
		t.Errorf("state not named in %s", rec.Body.String())
	}
}

func TestControlPlaneTrace(t *testing.T) {
	h, _, tr := newTestPlane(t)

	rec := get(t, h, "/trace?service=svc")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace status = %d", rec.Code)
	}
	var tree []*trace.SpanNode
	if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(tree) != 1 || tree[0].Name != "service" || len(tree[0].Children) == 0 {
		t.Errorf("trace tree = %s", rec.Body.String())
	}

	// Unknown service: empty tree, not an error.
	rec = get(t, h, "/trace?service=nope")
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("unknown-service trace = %d %q", rec.Code, rec.Body.String())
	}

	// JSONL journal: one event per line, count matches the journal.
	rec = get(t, h, "/trace?format=jsonl")
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if want := tr.Journal().Len(); len(lines) != want {
		t.Errorf("jsonl has %d lines, journal %d", len(lines), want)
	}
	var ev trace.Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("jsonl line not JSON: %v", err)
	}
	if ev.Seq == 0 {
		t.Errorf("first event has no sequence number: %+v", ev)
	}

	rec = get(t, h, "/trace?format=yaml")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad format status = %d", rec.Code)
	}
}

func TestControlPlaneRejectsNonGet(t *testing.T) {
	h, _, _ := newTestPlane(t)
	for _, path := range []string{"/metrics", "/services", "/trace", "/healthz"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader("x")))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, rec.Code)
		}
		if allow := rec.Header().Get("Allow"); allow != http.MethodGet {
			t.Errorf("POST %s Allow = %q", path, allow)
		}
	}
}

func TestControlPlaneEmptySources(t *testing.T) {
	h := NewControlPlane(nil, nil, nil).Handler()
	if rec := get(t, h, "/metrics"); rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Errorf("nil metrics = %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/services"); rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("nil services = %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/trace"); rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("nil trace = %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("nil healthz = %d", rec.Code)
	}
}

// newDriftPlane stands up a drift-enabled fleet (streaming stores on)
// behind the control plane; the service runs briefly so the continuous
// sampler has streamed a few windows into its store.
func newDriftPlane(t *testing.T) (http.Handler, *Manager) {
	t.Helper()
	m, err := NewManager(driftConfig(telemetry.NewRegistry(), nil))
	if err != nil {
		t.Fatal(err)
	}
	addSQLService(t, m, "svc", nil)
	return NewControlPlane(m, nil, nil).Handler(), m
}

func TestControlPlaneProfileGet(t *testing.T) {
	h, _ := newDriftPlane(t)

	// All services: a JSON array with one entry.
	rec := get(t, h, "/profile")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /profile = %d", rec.Code)
	}
	var all []ProfileStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &all); err != nil {
		t.Fatalf("profile list not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(all) != 1 || all[0].Service != "svc" || all[0].Samples == 0 {
		t.Errorf("profile list = %+v, want one streaming svc entry", all)
	}

	// One service, edge list capped by top.
	rec = get(t, h, "/profile?service=svc&top=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /profile?service=svc = %d: %s", rec.Code, rec.Body.String())
	}
	var one ProfileStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatalf("profile doc not JSON: %v", err)
	}
	if one.Service != "svc" || len(one.TopEdges) > 1 {
		t.Errorf("profile doc = %+v, want svc with at most 1 edge", one)
	}

	if rec = get(t, h, "/profile?top=x"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad top = %d, want 400", rec.Code)
	}
	if rec = get(t, h, "/profile?service=nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown service = %d, want 404", rec.Code)
	}
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

func TestControlPlaneProfilePost(t *testing.T) {
	h, m := newDriftPlane(t)
	before, err := m.ProfileStatus("svc", 0)
	if err != nil {
		t.Fatal(err)
	}

	push := `{"service": "svc", "samples": [
		{"at": 0.010, "records": [{"from": 256, "to": 512}]},
		{"at": 0.011, "records": [{"from": 256, "to": 512}, {"from": 768, "to": 1024}]}
	]}`
	rec := post(t, h, "/profile", push)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /profile = %d: %s", rec.Code, rec.Body.String())
	}
	var ack map[string]int
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatalf("ack not JSON: %v", err)
	}
	if ack["samples"] != 2 || ack["records"] != 3 {
		t.Errorf("ack = %v, want 2 samples / 3 records", ack)
	}
	after, err := m.ProfileStatus("svc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if after.Samples != before.Samples+2 || after.Records != before.Records+3 {
		t.Errorf("store did not absorb the push: %+v -> %+v", before.StoreStats, after.StoreStats)
	}

	if rec = post(t, h, "/profile", `{"samples": []}`); rec.Code != http.StatusBadRequest {
		t.Errorf("push without service = %d, want 400", rec.Code)
	}
	if rec = post(t, h, "/profile", `{not json`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed push = %d, want 400", rec.Code)
	}
	if rec = post(t, h, "/profile", `{"service": "nope", "samples": []}`); rec.Code != http.StatusNotFound {
		t.Errorf("push to unknown service = %d, want 404", rec.Code)
	}
	// A body past the size limit is refused before it is decoded into
	// memory, and nothing of it reaches the store.
	huge := `{"service": "svc", "samples": [{"at": 0.012, "records": [` +
		strings.Repeat(`{"from": 256, "to": 512},`, maxProfilePush/24) + `{"from": 256, "to": 512}]}]}`
	if rec = post(t, h, "/profile", huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized push (%d bytes) = %d, want 413", len(huge), rec.Code)
	}
	if st, _ := m.ProfileStatus("svc", 0); st.Samples != after.Samples || st.Records != after.Records {
		t.Errorf("rejected pushes reached the store: %+v -> %+v", after.StoreStats, st.StoreStats)
	}

	del := httptest.NewRecorder()
	h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/profile", nil))
	if del.Code != http.StatusMethodNotAllowed || del.Header().Get("Allow") != "GET, POST" {
		t.Errorf("DELETE /profile = %d Allow=%q, want 405 with GET, POST", del.Code, del.Header().Get("Allow"))
	}
}

// TestControlPlaneProfileDriftDisabled: the fleet exists but runs
// without streaming stores — the well-formed requests conflict with the
// configuration, which is a 409, not a 404.
func TestControlPlaneProfileDriftDisabled(t *testing.T) {
	h, _, _ := newTestPlane(t)
	if rec := get(t, h, "/profile"); rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("driftless GET /profile = %d %q, want empty list", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/profile?service=svc"); rec.Code != http.StatusConflict {
		t.Errorf("driftless GET ?service = %d, want 409", rec.Code)
	}
	if rec := post(t, h, "/profile", `{"service": "svc", "samples": []}`); rec.Code != http.StatusConflict {
		t.Errorf("driftless POST = %d, want 409", rec.Code)
	}

	// No manager at all: list is empty, a push has nowhere to land.
	bare := NewControlPlane(nil, nil, nil).Handler()
	if rec := get(t, bare, "/profile"); rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("nil-manager GET /profile = %d %q", rec.Code, rec.Body.String())
	}
	if rec := post(t, bare, "/profile", `{"service": "svc", "samples": []}`); rec.Code != http.StatusNotFound {
		t.Errorf("nil-manager POST /profile = %d, want 404", rec.Code)
	}
}
