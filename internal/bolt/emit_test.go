package bolt

import (
	"testing"

	"repro/internal/asm"
)

// TestEmitFuncSizesFragmentsExactly: emitFunc knows each fragment's
// length before it emits a single instruction, so every fragment it
// returns is allocated once at its final size (cap == len). An append
// that outgrows the allocation would show here as cap > len.
func TestEmitFuncSizesFragmentsExactly(t *testing.T) {
	bin, _ := buildToy(t, 30000)
	prof := profileBinary(t, bin, 0.002)
	var split, peepholed bool
	for _, fn := range bin.Funcs {
		cfg, err := BuildCFG(bin, fn)
		if err != nil {
			t.Fatal(err)
		}
		cfg.AttachProfile(prof.Funcs[fn.Addr])
		order := ReorderBlocks(cfg, prof.Funcs[fn.Addr])
		hot, cold := SplitBlocks(cfg, order)
		layouts := []struct {
			name      string
			hot, cold []int
		}{{"unsplit", order, nil}, {"split", hot, cold}}
		for _, l := range layouts {
			for _, peephole := range []bool{false, true} {
				hf, cf, _, err := emitFunc(cfg, l.hot, l.cold, bin, peephole)
				if err != nil {
					t.Fatalf("%s %s peephole=%v: %v", fn.Name, l.name, peephole, err)
				}
				size := uint64(0)
				for _, f := range []*asm.Fragment{hf, cf} {
					if f == nil {
						continue
					}
					size += f.Size()
					if cap(f.Code) != len(f.Code) {
						t.Errorf("%s %s peephole=%v: fragment %s has len %d, cap %d",
							fn.Name, l.name, peephole, f.Name, len(f.Code), cap(f.Code))
					}
				}
				split = split || cf != nil
				if peephole && size < fn.Size {
					peepholed = true
				}
			}
		}
	}
	if !split || !peepholed {
		t.Fatalf("coverage: some layout split = %v, some peephole dropped NOPs = %v", split, peepholed)
	}
}
