package cpu

import (
	"math/rand"
	"reflect"
	"testing"
)

// tinyConfig shrinks every structure so random streams evict, reorder
// ways and wrap rings constantly (the warm paths must decline about as
// often as they succeed) and a deep comparison of two cores is cheap.
func tinyConfig() *Config {
	cfg := DefaultConfig()
	cfg.L1iKiB, cfg.L1iWays = 2, 2
	cfg.L1dKiB, cfg.L1dWays = 1, 2
	cfg.L2KiB, cfg.L2Ways = 4, 4
	cfg.L3KiB, cfg.L3Ways = 16, 4
	cfg.ITLBEntries, cfg.L2TLBEntries = 2, 8
	cfg.BTBEntries, cfg.BTBWays = 16, 2
	cfg.GshareBits, cfg.RASDepth, cfg.LBREntries = 6, 4, 8
	return cfg
}

// TestWarmPathContract is the direct guard of the contract every cpu
// warm path promises the trace engine (blockacct.go): XFast either
// performs exactly what the full per-event path would, or returns false
// having changed nothing; and RetireBulk(n, d) is n Retire calls. Twin
// cores consume the same seeded random event stream — one through
// XFast-then-fallback, one through the full path only — and their
// complete state (every cache and BTB way in recency order, every access
// count, predictor entry, ring slot and accumulator) must be equal after
// every event, with the LBR off and on.
func TestWarmPathContract(t *testing.T) {
	for _, lbr := range []bool{false, true} {
		cfg := tinyConfig()
		fast := NewCore(0, cfg, NewShared(cfg))
		ref := NewCore(0, cfg, NewShared(cfg))
		fast.LBREnabled, ref.LBREnabled = lbr, lbr

		rng := rand.New(rand.NewSource(42))
		line := uint64(cfg.LineBytes)
		// A few dozen code lines over three pages, and as many data lines:
		// small enough to hit, large enough to thrash the tiny caches.
		pc := func() uint64 {
			return 0x400000 + uint64(rng.Intn(3))*uint64(cfg.PageBytes) + uint64(rng.Intn(12))*line + uint64(rng.Intn(4))*16
		}
		// Fetch mostly walks forward from where it last was, as code does.
		cur := pc()
		walk := func() uint64 {
			if cur += 16; rng.Intn(6) == 0 {
				cur = pc()
			}
			return cur
		}
		addr := func() uint64 { return 0x7000_0000 + uint64(rng.Intn(40))*line + uint64(rng.Intn(8))*8 }
		// Direct branches come from a few static sites with fixed targets
		// (so the BTB can predict them), now and then retargeted.
		var sites [24][2]uint64
		for i := range sites {
			sites[i] = [2]uint64{pc(), pc()}
		}
		site := func() (uint64, uint64) {
			s := sites[rng.Intn(len(sites))]
			if rng.Intn(8) == 0 {
				s[1] = pc()
			}
			return s[0], s[1]
		}
		var calls []uint64 // return addresses of calls still open, so RETs can predict

		took := map[string]int{}
		declined := map[string]int{}
		var ev int
		var what string
		same := func(when string) {
			t.Helper()
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("lbr=%v event %d (%s) %s: cores diverged\nfast: %+v\nref:  %+v",
					lbr, ev, what, when, fast.StatsSnapshot(), ref.StatsSnapshot())
			}
		}
		// try runs one warm path on the fast core. A decline must have
		// left it equal to the reference, which has not seen the event yet.
		try := func(name string, ok bool) bool {
			what = name
			if ok {
				took[name]++
			} else {
				declined[name]++
				same("declined, so must have changed nothing")
			}
			return ok
		}

		for ev = 0; ev < 12_000; ev++ {
			switch rng.Intn(10) {
			case 0, 1, 2:
				// Fetch has no warm twin; it runs on both cores to move the
				// L1i, iTLB and the L2/L3 the Mem warm path shares.
				what = "Fetch"
				p := walk()
				fast.Fetch(p)
				ref.Fetch(p)
			case 3, 4:
				a, store := addr(), rng.Intn(3) == 0
				if !try("MemFast", fast.MemFast(a)) {
					fast.Mem(a, store)
				}
				ref.Mem(a, store)
			case 5:
				p, tgt := site()
				if !try("BranchJumpFast", fast.BranchJumpFast(p, tgt)) {
					fast.Branch(p, tgt, true, BrJump, 0)
				}
				ref.Branch(p, tgt, true, BrJump, 0)
			case 6:
				p, tgt := site()
				if !try("BranchCallFast", fast.BranchCallFast(p, tgt, p+16)) {
					fast.Branch(p, tgt, true, BrCall, p+16)
				}
				ref.Branch(p, tgt, true, BrCall, p+16)
				calls = append(calls, p+16)
			case 7:
				// Mostly return where the matching call said; sometimes not
				// (a mispredict), sometimes with the RAS already empty.
				p, tgt := pc(), pc()
				if n := len(calls); n > 0 && rng.Intn(4) != 0 {
					tgt, calls = calls[n-1], calls[:n-1]
				}
				if !try("BranchRetFast", fast.BranchRetFast(p, tgt)) {
					fast.Branch(p, tgt, true, BrRet, 0)
				}
				ref.Branch(p, tgt, true, BrRet, 0)
			case 8:
				// Conditionals and indirects: not-taken has a total warm
				// path; the rest only have the full one, and keep the
				// predictors the other warm paths read moving.
				p, tgt := pc(), pc()
				switch rng.Intn(3) {
				case 0:
					what = "BranchCondNotTakenFast"
					took[what]++
					fast.BranchCondNotTakenFast(p)
					ref.Branch(p, p+16, false, BrCond, 0)
				case 1:
					what = "Branch(cond taken)"
					fast.Branch(p, tgt, true, BrCond, 0)
					ref.Branch(p, tgt, true, BrCond, 0)
				case 2:
					what = "Branch(indirect call)"
					fast.Branch(p, tgt, true, BrCallInd, p+16)
					ref.Branch(p, tgt, true, BrCallInd, p+16)
					calls = append(calls, p+16)
				}
			case 9:
				what = "RetireBulk"
				n := uint64(rng.Intn(20))
				d := uint64(rng.Intn(int(n) + 1))
				fast.RetireBulk(n, d)
				for i := uint64(0); i < n; i++ {
					ref.Retire(i < d)
				}
			}
			same("applied")
			if fast.Cycles() != ref.Cycles() || fast.StatsSnapshot() != ref.StatsSnapshot() {
				t.Fatalf("lbr=%v event %d (%s): derived cycles differ on equal state", lbr, ev, what)
			}
		}

		// The stream must have driven every warm path both ways, or the
		// equalities above prove nothing about it.
		if took["MemFast"] == 0 || declined["MemFast"] == 0 {
			t.Errorf("lbr=%v: MemFast taken %d times, declined %d: stream does not exercise it", lbr, took["MemFast"], declined["MemFast"])
		}
		for _, name := range []string{"BranchJumpFast", "BranchCallFast", "BranchRetFast"} {
			if declined[name] == 0 {
				t.Errorf("lbr=%v: %s never declined", lbr, name)
			}
			// Taken branches append to the LBR ring, which no warm path
			// does: with the LBR recording they must always decline.
			if (took[name] == 0) != lbr {
				t.Errorf("lbr=%v: %s took the warm path %d times", lbr, name, took[name])
			}
		}
	}
}
