package experiments

import (
	"repro/internal/bolt"
	"repro/internal/core"
)

// Ablate quantifies the design choices §IV-B calls out and the optimizer
// passes behind them, on sqldb read_only:
//
//   - patching all C0 direct calls instead of only stack-live functions
//     (the paper found it does not improve performance — cold functions
//     don't run — but lengthens the pause)
//   - disabling v-table patching (most steering lost)
//   - disabling stack-live call patching
//   - disabling the function-pointer hook (single round only)
//   - BOLT pass ablations: Pettis-Hansen vs C3 function order, no
//     hot/cold splitting, no basic-block reordering
func Ablate(cfg Config) error {
	cfg.defaults()
	w, err := Workload("sqldb")
	if err != nil {
		return err
	}
	const input = "read_only"
	orig, err := cfg.MeasureOriginal(w, input)
	if err != nil {
		return err
	}
	cfg.printf("Ablations on sqldb %s (speedup vs original; pause in simulated ms)\n", input)
	cfg.printf("%-34s %9s %11s\n", "configuration", "speedup", "pause (ms)")

	runCase := func(label string, opts core.Options) error {
		t, ctl, _, err := cfg.OCOLOSRun(w, input, opts)
		if err != nil {
			return err
		}
		pause := ctl.Reports[0].PauseSeconds * 1e3
		cfg.printf("%-34s %8.2fx %11.2f\n", label, t/orig, pause)
		return nil
	}

	cases := []struct {
		label string
		opts  core.Options
	}{
		{"OCOLOS default", core.Options{}},
		{"patch ALL C0 calls", core.Options{PatchAllCalls: true}},
		{"no v-table patching", core.Options{NoPatchVTables: true}},
		{"no stack-live call patching", core.Options{NoPatchStackCalls: true}},
		{"no function-pointer hook", core.Options{NoFuncPtrHook: true}},
		{"function order: Pettis-Hansen", core.Options{Bolt: bolt.Options{FuncOrder: bolt.OrderPH}}},
		{"function order: none", core.Options{Bolt: bolt.Options{FuncOrder: bolt.OrderNone}}},
		{"no hot/cold splitting", core.Options{Bolt: bolt.Options{NoSplit: true}}},
		{"no block reordering", core.Options{Bolt: bolt.Options{NoReorderBlocks: true}}},
		{"no peephole (keep padding)", core.Options{Bolt: bolt.Options{NoPeephole: true}}},
		{"no split + no block reorder", core.Options{Bolt: bolt.Options{NoSplit: true, NoReorderBlocks: true}}},
		{"trampolines (redirect all)", core.Options{Trampolines: true}},
		{"parallel pointer patching", core.Options{ParallelPatch: true}},
	}
	for _, c := range cases {
		if err := runCase(c.label, c.opts); err != nil {
			return err
		}
	}
	return nil
}
