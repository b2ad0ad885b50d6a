package bolt

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/obj"
	"repro/internal/trace"
)

// DefaultTextBase is where the optimized .text is linked — a disjoint,
// higher address range than any original section, so injected code never
// collides with C0 (Figure 4b).
const DefaultTextBase = 0x2000_0000

// ErrAlreadyBolted is returned when the input binary was already produced
// by this optimizer. Like the real BOLT (§IV-C), re-optimizing requires an
// explicit opt-in (Options.AllowReBolt, our implementation of the paper's
// planned extension).
var ErrAlreadyBolted = errors.New("bolt: input binary is already bolted (set AllowReBolt to re-optimize)")

// Options configures an optimization run.
type Options struct {
	// TextBase is the link base of the new hot .text section.
	TextBase uint64
	// FuncOrder selects the function layout algorithm (default C3).
	FuncOrder FuncOrderAlgo
	// NoReorderBlocks disables basic-block reordering (ablation).
	NoReorderBlocks bool
	// NoSplit disables hot/cold splitting (ablation).
	NoSplit bool
	// NoPeephole disables NOP/padding elimination in moved functions
	// (ablation).
	NoPeephole bool
	// MinRecords is the minimum LBR records for a function to be treated
	// as hot (moved + optimized). Functions below stay pinned.
	MinRecords uint64
	// AllowReBolt permits optimizing an already-bolted binary: the
	// continuous-optimization enabler the paper leaves as future work.
	AllowReBolt bool
	// PinBase overrides where unmoved functions are pinned, keyed by
	// function name. The OCOLOS controller uses it during continuous
	// optimization to pin functions that fell cold back at their C0
	// addresses — their C_i homes are about to be garbage-collected, while
	// C0 is immortal (design principle #1).
	PinBase map[string]uint64

	// ROBase relocates the emitted .rodata (jump tables). The default (0)
	// reuses the input binary's rodata base, which is right for offline
	// use; the OCOLOS controller instead emits each version's tables into
	// that version's region so the injected code never aliases the live
	// process's original tables — the "extra support from BOLT" §IV-D says
	// would lift the jump-table restriction.
	ROBase uint64
}

func (o *Options) defaults() {
	if o.TextBase == 0 {
		o.TextBase = DefaultTextBase
	}
	if o.FuncOrder == "" {
		o.FuncOrder = OrderC3
	}
	if o.MinRecords == 0 {
		o.MinRecords = 8
	}
}

// Layout records the decisions the optimizer made: the hot-function
// layout order and each hot function's basic-block order, keyed by the
// input binary's entry addresses. The emitted Binary already embodies
// these decisions; carrying them separately is what lets a fleet-wide
// layout cache store, compare, and audit "the layout" as a value
// independent of the bytes it was linked into.
type Layout struct {
	// FuncOrder is the hot-function layout order (input entry addresses),
	// as chosen by the function-ordering algorithm.
	FuncOrder []uint64
	// BlockOrder maps each reordered function's input entry address to
	// its chosen basic-block order (indices into the input CFG's blocks,
	// before hot/cold splitting).
	BlockOrder map[uint64][]int
}

// Result carries the optimized binary plus the statistics Table I reports.
type Result struct {
	Binary *obj.Binary
	// Layout is the decision record behind Binary: function order and
	// per-function block orders.
	Layout *Layout
	// FuncsReordered is the number of functions moved to the new .text.
	FuncsReordered int
	// FuncsSplit is how many of them had cold blocks exiled.
	FuncsSplit int
	// NewTextBytes is the size of the injected code (hot + cold sections).
	NewTextBytes uint64
}

// TraceAttrs summarizes the layout result as span attributes, so every
// round's bolt span records what the optimizer actually moved.
func (r *Result) TraceAttrs() []trace.Attr {
	return []trace.Attr{
		trace.Int("funcs_reordered", r.FuncsReordered),
		trace.Int("funcs_split", r.FuncsSplit),
		trace.Int("new_text_bytes", int(r.NewTextBytes)),
	}
}

// Optimize runs the full pipeline: reconstruct CFGs, attach the profile,
// reorder blocks, split hot/cold, reorder functions, and re-link. The
// input binary is not modified.
func Optimize(bin *obj.Binary, prof *Profile, opts Options) (*Result, error) {
	opts.defaults()
	if bin.Bolted && !opts.AllowReBolt {
		return nil, ErrAlreadyBolted
	}
	if prof == nil || len(prof.Funcs) == 0 {
		return nil, fmt.Errorf("bolt: empty profile")
	}

	// Hot set: profiled functions that decode cleanly.
	hot := prof.HotFunctions(opts.MinRecords)
	cfgs := make(map[uint64]*CFG, len(bin.Funcs))
	for _, fn := range bin.Funcs {
		cfg, err := BuildCFG(bin, fn)
		if err != nil {
			return nil, err
		}
		cfg.AttachProfile(prof.Funcs[fn.Addr])
		cfgs[fn.Addr] = cfg
	}

	sizeOf := make(map[uint64]uint64, len(hot))
	for entry := range hot {
		if fn := bin.FuncAt(entry); fn != nil {
			sizeOf[entry] = fn.Size
		} else {
			delete(hot, entry) // profile mentions unknown code
		}
	}

	hotOrder := OrderFunctions(prof, hot, sizeOf, opts.FuncOrder)

	res := &Result{Layout: &Layout{
		FuncOrder:  hotOrder,
		BlockOrder: make(map[uint64][]int, len(hotOrder)),
	}}
	var hotFrags, coldFrags []*asm.Fragment
	osrMap := make(map[uint64][]obj.OSRPoint, len(hotOrder))
	for _, entry := range hotOrder {
		cfg := cfgs[entry]
		fp := prof.Funcs[entry]
		var order []int
		if opts.NoReorderBlocks || cfg.HasJumpTable {
			order = identityOrder(len(cfg.Blocks))
		} else {
			order = ReorderBlocks(cfg, fp)
		}
		res.Layout.BlockOrder[entry] = order
		hotBlocks, coldBlocks := order, []int(nil)
		if !opts.NoSplit && !cfg.HasJumpTable {
			hotBlocks, coldBlocks = SplitBlocks(cfg, order)
		}
		hf, cf, pts, err := emitFunc(cfg, hotBlocks, coldBlocks, bin, !opts.NoPeephole)
		if err != nil {
			return nil, err
		}
		osrMap[entry] = pts
		hotFrags = append(hotFrags, hf)
		if cf != nil {
			coldFrags = append(coldFrags, cf)
			res.FuncsSplit++
		}
		res.FuncsReordered++
	}

	// Unmoved functions: re-emit in place (identity layout) so their calls
	// resolve to the new locations of moved callees.
	var pinned []asm.Placement
	for _, fn := range bin.Funcs {
		if hot[fn.Addr] {
			continue
		}
		cfg := cfgs[fn.Addr]
		hf, _, _, err := emitFunc(cfg, identityOrder(len(cfg.Blocks)), nil, bin, false)
		if err != nil {
			return nil, err
		}
		pinAddr := fn.Addr
		if a, ok := opts.PinBase[fn.Name]; ok {
			pinAddr = a
		}
		if pinAddr == fn.Addr && hf.Size() > fn.Size {
			return nil, fmt.Errorf("bolt: pinned function %s grew from %d to %d bytes", fn.Name, fn.Size, hf.Size())
		}
		pinned = append(pinned, asm.Placement{Frag: hf, Addr: pinAddr, Section: obj.SecOrgText})
	}

	// Place hot fragments at the new base, cold fragments after them.
	placements := asm.SequentialPlacement(hotFrags, opts.TextBase, obj.SecText, true)
	var hotEnd uint64 = opts.TextBase
	for _, p := range placements {
		if end := p.Addr + p.Frag.Size(); end > hotEnd {
			hotEnd = end
		}
	}
	coldBase := (hotEnd + 0xFFFF) &^ 0xFFFF // 64 KiB gap/alignment
	placements = append(placements, asm.SequentialPlacement(coldFrags, coldBase, obj.SecColdText, true)...)
	placements = append(placements, pinned...)

	// V-tables: symbolic slots from the original binary. The linker copies
	// the initialized .data prefix and keeps its zero-fill tail.
	dataSec := bin.Section(obj.SecData)
	var data []byte
	var dataZero, dataBase uint64
	var vspecs []asm.VTableSpec
	if dataSec != nil {
		data, dataZero, dataBase = dataSec.Data, dataSec.Zero, dataSec.Addr
	}
	for _, vt := range bin.VTables {
		spec := asm.VTableSpec{Name: vt.Name, Off: vt.Addr - dataBase}
		for i, slot := range vt.Slots {
			f := bin.FuncAt(slot)
			if f == nil {
				return nil, fmt.Errorf("bolt: vtable %s slot %d (%#x) is not a function entry", vt.Name, i, slot)
			}
			spec.Slots = append(spec.Slots, f.Name)
		}
		vspecs = append(vspecs, spec)
	}

	// Entry symbol.
	entryName := ""
	if f := bin.FuncAt(bin.Entry); f != nil {
		entryName = f.Name
	}

	roBase := opts.ROBase
	if roBase == 0 {
		roBase = asm.DefaultRODataBase
		if ro := bin.Section(obj.SecROData); ro != nil {
			roBase = ro.Addr
		}
	}

	out, err := asm.Link(asm.LinkInput{
		Name:         bin.Name + ".bolt",
		Entry:        entryName,
		Placements:   placements,
		Data:         data,
		DataZero:     dataZero,
		DataBase:     dataBase,
		VTables:      vspecs,
		ROBase:       roBase,
		Bolted:       true,
		NoJumpTables: bin.NoJumpTables,
	})
	if err != nil {
		return nil, err
	}

	// AddrMap: original entry → optimized entry for every moved function.
	// OrgRanges (the BAT analog) symbolize every old home of moved code so
	// profiles taken while old instances still execute remain attributable:
	// inherit the input's table, then add the ranges vacated this round.
	out.AddrMap = make(map[uint64]uint64, len(hotOrder))
	out.OSRMap = osrMap
	out.OrgRanges = append(out.OrgRanges, bin.OrgRanges...)
	for _, entry := range hotOrder {
		fn := bin.FuncAt(entry)
		nf := out.FuncByName(fn.Name)
		if nf == nil {
			return nil, fmt.Errorf("bolt: moved function %s lost during link", fn.Name)
		}
		for _, p := range osrMap[entry] {
			if p.OldOff >= fn.Size+fn.ColdSize || p.NewOff >= nf.Size+nf.ColdSize {
				return nil, fmt.Errorf("bolt: %s: OSR point %+v outside function", fn.Name, p)
			}
		}
		out.AddrMap[entry] = nf.Addr
		out.OrgRanges = append(out.OrgRanges, obj.OrgRange{
			Lo: fn.Addr, Hi: fn.Addr + fn.Size, Name: fn.Name, Entry: fn.Addr,
		})
		if fn.ColdSize > 0 {
			out.OrgRanges = append(out.OrgRanges, obj.OrgRange{
				Lo: fn.ColdAddr, Hi: fn.ColdAddr + fn.ColdSize, Name: fn.Name, Entry: fn.Addr,
			})
		}
	}

	for _, s := range out.Sections {
		if s.Name == obj.SecText || s.Name == obj.SecColdText {
			res.NewTextBytes += uint64(len(s.Data))
		}
	}
	res.Binary = out
	return res, nil
}

// MovedFunctions lists original→new entry pairs sorted by original
// address (for reports and the OCOLOS patcher).
func MovedFunctions(addrMap map[uint64]uint64) [][2]uint64 {
	out := make([][2]uint64, 0, len(addrMap))
	for o, n := range addrMap {
		out = append(out, [2]uint64{o, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
