// Package workloads is the one table of guest programs: each name maps to
// the package that builds it at evaluation (full) or test (small) scale.
// It is not in wl because every guest package imports wl.
package workloads

import (
	"fmt"

	"repro/internal/workloads/compilersim"
	"repro/internal/workloads/docdb"
	"repro/internal/workloads/kvcache"
	"repro/internal/workloads/loopsim"
	"repro/internal/workloads/rtlsim"
	"repro/internal/workloads/sqldb"
	"repro/internal/workloads/wl"
)

// Names lists the guests Build knows, in the paper's order.
func Names() []string {
	return []string{"sqldb", "docdb", "kvcache", "rtlsim", "loopsim", "compilersim"}
}

// Build assembles the named guest at test scale when small is set, else
// at evaluation scale.
func Build(name string, small bool) (*wl.Workload, error) {
	switch name {
	case "sqldb":
		return build(small, sqldb.Full, sqldb.Small, sqldb.Build)
	case "docdb":
		return build(small, docdb.Full, docdb.Small, docdb.Build)
	case "kvcache":
		return build(small, kvcache.Full, kvcache.Small, kvcache.Build)
	case "rtlsim":
		return build(small, rtlsim.Full, rtlsim.Small, rtlsim.Build)
	case "loopsim":
		return build(small, loopsim.Full, loopsim.Small, loopsim.Build)
	case "compilersim":
		return build(small, compilersim.Full, compilersim.Small, compilersim.Build)
	}
	return nil, fmt.Errorf("workloads: unknown guest %q (have %v)", name, Names())
}

func build[S any](small bool, full, test func() S, b func(S) (*wl.Workload, error)) (*wl.Workload, error) {
	if small {
		return b(test())
	}
	return b(full())
}
