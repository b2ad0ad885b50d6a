package diffcheck

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/proc"
)

// referenceRun is the scheduler's quantum loop on top of proc.Step, the
// per-instruction reference interpreter: the oracle side of the
// cycle-exact equivalence gate.
func referenceRun(p *proc.Process, maxInst uint64) uint64 {
	var executed uint64
	for !p.Paused() && p.Fault() == nil {
		ran := false
		for _, t := range p.Threads {
			if t.Halted {
				continue
			}
			ran = true
			for i := 0; i < proc.Quantum; i++ {
				if !p.Step(t) {
					break
				}
				executed++
			}
		}
		if !ran || (maxInst > 0 && executed >= maxInst) {
			break
		}
	}
	return executed
}

// TestCycleExactEngineEquivalence pins the trace engine — with splicing
// on ("super"), with every trace held to one block ("block"), with the
// scheduler cutting quanta at seeded random lengths ("perturbed"), and
// with Step running the thread through one loop iteration between
// seeded random engine quanta ("interleaved") — to the Step reference
// interpreter: every workload must retire the same instructions AND end
// with the same cpu.Core, to the bit. This is the gate that makes engine
// work a pure wall-clock matter — any model drift (an event reordered, a
// stall charged twice, a float added in a different order) shows up as a
// Stats mismatch here, and a skipped or extra warm fetch, which only
// moves the L1i's access count (cache sets keep recency by way order,
// and a way-0 hit reorders nothing), as a Core mismatch. The splicing run must actually
// exercise spliced traces (formation plus in-trace retirement), so the
// gate cannot silently pass by never entering what it pins; and the
// perturbed run must decode and splice exactly what the fixed-quantum
// run does, because a quantum that runs dry mid-trace resumes there and
// never decodes a block at the cut point. The interleaved run resumes
// those traces after Step has moved the front end under them.
func TestCycleExactEngineEquivalence(t *testing.T) {
	type result struct {
		stats   cpu.Stats
		cores   []*cpu.Core
		n       uint64
		sb      proc.SuperblockStats
		decoded uint64
	}
	for _, tgt := range Targets() {
		tgt := tgt
		t.Run(tgt.Name, func(t *testing.T) {
			t.Parallel()
			run := func(mode string) result {
				w, d, err := tgt.load()
				if err != nil {
					t.Fatal(err)
				}
				opts := proc.Options{Threads: 1, Handler: d}
				switch mode {
				case "block":
					opts.DisableSuperblocks = true
				case "perturbed":
					rng := rand.New(rand.NewSource(1))
					opts.SchedQuantum = func(_, proposed int) int { return 1 + rng.Intn(proposed) }
				}
				p, err := proc.Load(w.Binary, opts)
				if err != nil {
					t.Fatal(err)
				}
				var n uint64
				switch mode {
				case "reference":
					n = referenceRun(p, defaultMaxInst)
				case "interleaved":
					rng := rand.New(rand.NewSource(1))
					th := p.Threads[0]
					for !th.Halted && p.Fault() == nil && n < defaultMaxInst {
						n += p.RunUntilHalt(uint64(1 + rng.Intn(300)))
						for cut, k := th.PC, 0; k < 512 && p.Step(th); k++ {
							if n++; th.PC == cut {
								break
							}
						}
					}
				default:
					n = p.RunUntilHalt(defaultMaxInst)
				}
				if err := p.Fault(); err != nil {
					t.Fatal(err)
				}
				var cores []*cpu.Core
				for _, th := range p.Threads {
					cores = append(cores, th.Core)
				}
				return result{p.Stats(), cores, n, p.SuperblockStats(), p.DecodedTraces()}
			}
			ref := run("reference")
			var fixed result
			for _, mode := range []string{"super", "block", "perturbed", "interleaved"} {
				got := run(mode)
				if got.n != ref.n {
					t.Errorf("%s run executed %d instructions, reference %d", mode, got.n, ref.n)
				}
				if got.stats != ref.stats {
					t.Errorf("%s run diverged from reference interpreter:\n"+
						"  golden quad %s: insts=%d cycles=%v L1iMisses=%d mispredicts=%d\n"+
						"  golden quad ref: insts=%d cycles=%v L1iMisses=%d mispredicts=%d\n"+
						"  full %s: %+v\n  full ref: %+v",
						mode,
						mode, got.stats.Instructions, got.stats.Cycles, got.stats.L1iMisses, got.stats.Mispredicts,
						ref.stats.Instructions, ref.stats.Cycles, ref.stats.L1iMisses, ref.stats.Mispredicts,
						mode, got.stats, ref.stats)
				} else if !reflect.DeepEqual(got.cores, ref.cores) {
					t.Errorf("%s run left a different cpu.Core than the reference interpreter (equal Stats)", mode)
				}
				switch mode {
				case "super":
					fixed = got
					if got.sb.Formed == 0 || got.sb.Insts == 0 {
						t.Errorf("splicer never exercised on %s: %+v", tgt.Name, got.sb)
					}
				case "block":
					if got.sb.Formed != 0 || got.sb.Insts != 0 {
						t.Errorf("DisableSuperblocks run still spliced: %+v", got.sb)
					}
				case "perturbed":
					if got.decoded != fixed.decoded || got.sb.Formed != fixed.sb.Formed {
						t.Errorf("perturbed quanta decoded %d one-block traces and spliced %d, fixed quanta %d and %d: a cut point was decoded as a block",
							got.decoded, got.sb.Formed, fixed.decoded, fixed.sb.Formed)
					}
				}
			}
		})
	}
}
