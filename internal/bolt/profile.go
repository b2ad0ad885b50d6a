// Package bolt is the offline post-link optimizer: the BOLT analog
// (§II-D). It converts raw LBR profiles to block-level profiles
// (perf2bolt), lifts a binary's hot functions back into CFGs, reorders
// basic blocks, splits hot/cold code, reorders functions (Pettis-Hansen
// or C3), and emits a new binary whose optimized .text lives at a higher
// address range, while every other function is relocated from its input
// bytes and stays pinned at its original address in .bolt.org.text.
package bolt

import (
	"fmt"

	"repro/internal/obj"
	"repro/internal/perf"
	"repro/internal/trace"
)

// Profile is the block-level profile perf2bolt produces.
type Profile struct {
	// Funcs is keyed by original function entry address.
	Funcs map[uint64]*FuncProfile
	// TotalBranches is the number of LBR records aggregated.
	TotalBranches uint64
}

// TraceAttrs summarizes the aggregation as span attributes for the
// perf2bolt stage span.
func (p *Profile) TraceAttrs() []trace.Attr {
	return []trace.Attr{
		trace.Int("profiled_funcs", len(p.Funcs)),
		trace.Int("total_branches", int(p.TotalBranches)),
	}
}

// FuncProfile is the profile of one function, block indexes referring to
// the function's reconstructed CFG.
type FuncProfile struct {
	Entry uint64
	// BlockCount estimates per-block execution counts.
	BlockCount map[int]uint64
	// Edge counts control-flow edges between blocks (taken branches and
	// observed fallthroughs combined).
	Edge map[[2]int]uint64
	// Calls counts outgoing calls by callee entry address.
	Calls map[uint64]uint64
	// Records is the number of LBR records that touched this function.
	Records uint64
}

func newFuncProfile(entry uint64) *FuncProfile {
	return &FuncProfile{
		Entry:      entry,
		BlockCount: make(map[int]uint64),
		Edge:       make(map[[2]int]uint64),
		Calls:      make(map[uint64]uint64),
	}
}

// Weight returns the function's total profile mass.
func (fp *FuncProfile) Weight() uint64 {
	var w uint64
	for _, c := range fp.BlockCount {
		w += c
	}
	if w == 0 {
		w = fp.Records
	}
	return w
}

// ConvertProfile is the perf2bolt analog: it aggregates raw LBR samples
// against the binary into block-level per-function profiles. Like the
// real tool it does work proportional to the sampled control flow — the
// fallthrough path between consecutive LBR records is re-walked over the
// decoded CFG (this is why perf2bolt dominates the pipeline cost in the
// paper's Table II).
func ConvertProfile(raw *perf.RawProfile, bin *obj.Binary) (*Profile, error) {
	p := &Profile{Funcs: make(map[uint64]*FuncProfile)}
	cfgs := make(map[uint64]*CFG)

	cfgFor := func(f *obj.Func) *CFG {
		if c, ok := cfgs[f.Addr]; ok {
			return c
		}
		c, err := BuildCFG(bin, f)
		if err != nil {
			// Functions that cannot be decoded are skipped, as perf2bolt
			// skips functions it cannot disassemble.
			c = nil
		}
		cfgs[f.Addr] = c
		return c
	}
	profFor := func(entry uint64) *FuncProfile {
		fp, ok := p.Funcs[entry]
		if !ok {
			fp = newFuncProfile(entry)
			p.Funcs[entry] = fp
		}
		return fp
	}

	// resolve symbolizes an address: first against the binary's current
	// function ranges, then against OrgRanges (the BAT analog) for code
	// still executing in a function's previous home. isOrg marks the
	// latter: such samples are attributable at function granularity only,
	// since the old block layout differs from the current one.
	resolve := func(addr uint64) (fn *obj.Func, isOrg, isEntry bool) {
		if f, off, cold := bin.Lookup(addr); f != nil {
			return f, false, off == 0 && !cold
		}
		if r, ok := bin.OrgLookup(addr); ok {
			if f := bin.FuncByName(r.Name); f != nil {
				return f, true, addr == r.Entry
			}
		}
		return nil, false, false
	}

	for _, sample := range raw.Samples {
		recs := sample.Records
		for i, r := range recs {
			p.TotalBranches++
			fromFn, fromOrg, _ := resolve(r.From)
			toFn, toOrg, toEntry := resolve(r.To)
			if fromFn != nil {
				profFor(fromFn.Addr).Records++
			}
			switch {
			case fromFn == nil || toFn == nil:
				// Branch in unknown code (library/injected): skip.
			case fromFn == toFn && !fromOrg && !toOrg:
				cfg := cfgFor(fromFn)
				if cfg != nil {
					fromOff, ok1 := UnifiedOff(fromFn, r.From)
					toOff, ok2 := UnifiedOff(fromFn, r.To)
					if ok1 && ok2 {
						fb := cfg.BlockAt(fromOff)
						tb := cfg.BlockAt(toOff)
						if fb >= 0 && tb >= 0 {
							fp := profFor(fromFn.Addr)
							fp.Edge[[2]int{fb, tb}]++
							fp.BlockCount[tb]++
						}
					}
				}
			case toEntry && fromFn != toFn:
				// Call (or tail transfer) to g's entry (current or old home
				// — the call count belongs to the function either way).
				profFor(fromFn.Addr).Calls[toFn.Addr]++
				profFor(toFn.Addr).BlockCount[0]++
			default:
				// Return into the middle of the caller, an exotic transfer,
				// or a same-function branch in an old (org) home whose
				// block layout we cannot map; attribute a touch.
				profFor(toFn.Addr).Records++
			}

			// Fallthrough inference: between this record's target and the
			// next record's source the program executed sequentially. Only
			// meaningful against the current layout (org homes differ).
			if i+1 >= len(recs) {
				continue
			}
			nf := recs[i+1].From
			if toFn == nil || toOrg {
				continue
			}
			endFn, _, _ := bin.Lookup(nf)
			if endFn != toFn {
				continue
			}
			cfg := cfgFor(toFn)
			if cfg == nil {
				continue
			}
			startOff, ok1 := UnifiedOff(toFn, r.To)
			endOff, ok2 := UnifiedOff(toFn, nf)
			if !ok1 || !ok2 || endOff < startOff {
				continue
			}
			start := cfg.BlockAt(startOff)
			end := cfg.BlockAt(endOff)
			if start < 0 || end < 0 {
				continue
			}
			fp := profFor(toFn.Addr)
			// Walk the fallthrough chain from start to end.
			for b, steps := start, 0; b >= 0 && steps < len(cfg.Blocks)+1; b, steps = cfg.Blocks[b].FallTo, steps+1 {
				fp.BlockCount[b]++
				if b == end {
					break
				}
				if next := cfg.Blocks[b].FallTo; next >= 0 {
					fp.Edge[[2]int{b, next}]++
				}
			}
		}
	}
	return p, nil
}

// HotFunctions returns the entry addresses of functions whose profile has
// at least minRecords records, i.e. the set BOLT will move and optimize.
func (p *Profile) HotFunctions(minRecords uint64) map[uint64]bool {
	hot := make(map[uint64]bool)
	for entry, fp := range p.Funcs {
		if fp.Records >= minRecords {
			hot[entry] = true
		}
	}
	return hot
}

func (p *Profile) String() string {
	return fmt.Sprintf("bolt profile: %d branches over %d functions", p.TotalBranches, len(p.Funcs))
}
