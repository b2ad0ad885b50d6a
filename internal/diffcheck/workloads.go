package diffcheck

import "repro/internal/workloads/wl"

// Target names one workload/input pair the harness can check. Server
// workloads get a request cap so the run is finite; batch workloads
// (Requests == 0) halt on their own.
type Target struct {
	Name  string
	Input string
	// Requests caps the request stream per thread (0 = batch workload).
	Requests uint64
	// MaxInst overrides the runaway-execution bound (0 = default).
	MaxInst uint64
	// Build assembles the workload at test scale.
	Build func() (*wl.Workload, error)
}

func (t Target) maxInst() uint64 { return t.MaxInst }

// load builds the workload and a single-threaded driver whose request
// stream is capped at t.Requests.
func (t Target) load() (*wl.Workload, *wl.Driver, error) {
	w, err := t.Build()
	if err != nil {
		return nil, nil, err
	}
	d, err := w.NewDriver(t.Input, 1)
	if err != nil {
		return nil, nil, err
	}
	if t.Requests > 0 {
		d.SetGenerator(CapRequests(d.Generator(), t.Requests))
	}
	return w, d, nil
}
