package diffcheck

import (
	"testing"

	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/workloads/loopsim"
	"repro/internal/workloads/wl"
)

// osrArm runs full-scale loopsim/steady, whose main never returns, through
// three optimization rounds with or without on-stack replacement. It
// returns the frames mapped and fallbacks, the throughput after, and the
// share of main's single-stepped samples still on the original C0 image.
func osrArm(t *testing.T, noOSR bool) (mapped, fallbacks int, rps, c0Share float64) {
	w, err := loopsim.Build(loopsim.Full())
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.NewDriver("steady", 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := w.Load(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := core.New(pr, w.Binary, core.Options{
		NoOSR: noOSR,
		Bolt:  bolt.Options{AllowReBolt: true},
		Perf:  perf.RecorderOptions{PeriodCycles: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	pr.RunFor(0.0003) // warm up: park the serve loop mid-flight
	for r := 0; r < 3; r++ {
		// Stagger the profile windows so the pause does not resonate with
		// the loop period and land every round at the same loop offset.
		rep, err := ctl.OptimizeRound(0.0005 + float64(r)*0.000137)
		if err != nil {
			t.Fatalf("round %d (noOSR=%v): %v", r, noOSR, err)
		}
		if rs := rep.Replace; rs != nil {
			mapped += rs.OSRFramesMapped
			fallbacks += rs.OSRFallbacks
		}
		pr.RunFor(0.0002)
		if err := pr.Fault(); err != nil {
			t.Fatalf("round %d (noOSR=%v): %v", r, noOSR, err)
		}
	}
	rps = wl.Measure(pr, d, 0.0005)
	th := pr.Threads[0]
	inC0, inMain := 0, 0
	for i := 0; i < 4000 && !th.Halted; i++ {
		if name, ver, ok := ctl.Whereis(th.PC); ok && name == "main" {
			inMain++
			if ver == 0 {
				inC0++
			}
		}
		pr.Step(th)
	}
	if err := pr.Fault(); err != nil || inMain == 0 {
		t.Fatalf("post-round (noOSR=%v): fault %v, %d samples in main", noOSR, err, inMain)
	}
	return mapped, fallbacks, rps, float64(inC0) / float64(inMain)
}

// TestOSRMovesParkedMainOffC0 is the OSR ablation: with on-stack
// replacement the loop-parked main leaves the C0 image entirely; with
// core.Options.NoOSR no frame transfers and main keeps running C0.
func TestOSRMovesParkedMainOffC0(t *testing.T) {
	mapped, _, rps, c0 := osrArm(t, false)
	noMapped, noFallbacks, noRPS, noC0 := osrArm(t, true)
	t.Logf("throughput: OSR %.2f req/s, NoOSR %.2f req/s", rps, noRPS)
	if mapped < 1 || c0 != 0 {
		t.Errorf("OSR arm: %d frames mapped, main on C0 for %.2f of its samples; want ≥ 1 and 0", mapped, c0)
	}
	if noMapped != 0 || noFallbacks != 0 || noC0 != 1 {
		t.Errorf("NoOSR arm: %d mapped, %d fallbacks, main on C0 for %.2f; want 0, 0 and 1", noMapped, noFallbacks, noC0)
	}
}
