package bolt

import (
	"bytes"
	"fmt"

	"repro/internal/asm"
	"repro/internal/obj"
)

// PinnedVsLift relocates fn on the pinned path and lifts it through the
// reference: emitFunc of its CFG's identity layout, without peephole. It
// returns the pinned fragment (nil when relocation fails), the pinned
// path's error, and a non-nil diff when the two paths disagree: one fails
// and the other does not, or their fragments differ in code bytes,
// relocations (callee, table and branch symbols), jump tables or block
// starts.
func PinnedVsLift(bin *obj.Binary, fn *obj.Func) (pinned *asm.Fragment, perr, diff error) {
	pinned, perr = relocate(bin, fn)
	cfg, lerr := BuildCFG(bin, fn)
	var lifted, cold *asm.Fragment
	if lerr == nil {
		lifted, cold, _, lerr = emitFunc(cfg, identityOrder(len(cfg.Blocks)), nil, bin, false)
	}
	switch {
	case (perr == nil) != (lerr == nil):
		return pinned, perr, fmt.Errorf("%s: pinned error %v, lift error %v", fn.Name, perr, lerr)
	case perr != nil:
		return nil, perr, nil
	case cold != nil:
		return pinned, nil, fmt.Errorf("%s: identity lift made a cold fragment", fn.Name)
	case !bytes.Equal(pinned.Code, lifted.Code):
		return pinned, nil, fmt.Errorf("%s: code differs:\npinned % x\nlifted % x", fn.Name, pinned.Code, lifted.Code)
	}
	p := fmt.Sprint(pinned.Name, pinned.Relocs, pinned.JTs, pinned.Blocks)
	if l := fmt.Sprint(lifted.Name, lifted.Relocs, lifted.JTs, lifted.Blocks); p != l {
		return pinned, nil, fmt.Errorf("%s: fragments differ:\npinned %s\nlifted %s", fn.Name, p, l)
	}
	return pinned, nil, nil
}
