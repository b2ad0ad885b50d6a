// Command ocolos-run launches a benchmark workload in the simulated
// machine and optimizes it online with OCOLOS, printing throughput before
// and after each replacement round — the end-to-end tool the paper's
// Figure 4a describes.
//
// Usage:
//
//	ocolos-run -workload sqldb -input read_only [-threads 8]
//	           [-profile-ms 5] [-rounds 1] [-revert]
//	           [-record out.jsonl | -replay journal.jsonl]
//
// With -rounds > 1, continuous optimization (§IV-C) re-profiles the
// optimized process and replaces C_i with C_{i+1}, garbage-collecting the
// dead version. -revert restores C0 at the end (§VI-C4).
//
// -record journals every nondeterministic decision of the session
// (perf sampling deadlines, scheduler policy, fault decisions) plus
// state-hash checkpoints at each round boundary. -replay re-executes a
// recorded session from the journal alone — the workload flags are read
// from the journal's own meta header — verifies every checkpoint, and
// requires the re-recorded journal to be byte-identical (docs/replay.md).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/proc"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/wl"
)

func main() {
	workload := flag.String("workload", "sqldb", strings.Join(workloads.Names(), " | "))
	input := flag.String("input", "read_only", "workload input mix")
	threads := flag.Int("threads", 0, "worker threads (0 = workload default)")
	profileMS := flag.Float64("profile-ms", 5, "LBR profiling duration per round (simulated ms)")
	rounds := flag.Int("rounds", 1, "optimization rounds (>1 = continuous optimization)")
	revert := flag.Bool("revert", false, "revert to C0 after the last round")
	tramp := flag.Bool("trampolines", false, "redirect ALL invocations via C0 entry trampolines (§IV-B)")
	parallel := flag.Bool("parallel-patch", false, "model parallelized pointer patching (§IV-D)")
	record := flag.String("record", "", "write the session's nondeterminism journal to FILE (JSONL)")
	rp := flag.String("replay", "", "re-execute a recorded session from FILE (other workload flags are ignored)")
	flag.Parse()

	var err error
	if *rp != "" {
		err = replaySession(*rp)
	} else {
		cfg := runConfig{workload: *workload, input: *input, threads: *threads,
			profileMS: *profileMS, rounds: *rounds, revert: *revert, tramp: *tramp, parallel: *parallel}
		err = run(cfg, *record)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocolos-run:", err)
		os.Exit(1)
	}
}

// runConfig is the complete identity of one session: what -record
// stores in the journal's meta header and -replay reads back.
type runConfig struct {
	workload, input string
	threads         int
	profileMS       float64
	rounds          int
	revert          bool
	tramp           bool
	parallel        bool
}

func (c runConfig) metaAttrs() []trace.Attr {
	return []trace.Attr{
		trace.String("kind", "ocolos-run"),
		trace.String("workload", c.workload),
		trace.String("input", c.input),
		trace.Int("threads", c.threads),
		trace.Int("profile_ms_bits", int(math.Float64bits(c.profileMS))),
		trace.Int("rounds", c.rounds),
		trace.Bool("revert", c.revert),
		trace.Bool("trampolines", c.tramp),
		trace.Bool("parallel_patch", c.parallel),
	}
}

func configFromMeta(meta trace.Attrs) (runConfig, error) {
	kindAny, _ := meta.Get("kind")
	if kind, _ := kindAny.(string); kind != "ocolos-run" {
		return runConfig{}, fmt.Errorf("journal was recorded by %q, not ocolos-run", kindAny)
	}
	var c runConfig
	wAny, _ := meta.Get("workload")
	c.workload, _ = wAny.(string)
	iAny, _ := meta.Get("input")
	c.input, _ = iAny.(string)
	th, _ := meta.Int("threads")
	c.threads = int(th)
	bits, ok := meta.Int("profile_ms_bits")
	if !ok {
		return runConfig{}, fmt.Errorf("journal meta has no profile_ms_bits")
	}
	c.profileMS = math.Float64frombits(uint64(bits))
	r, _ := meta.Int("rounds")
	c.rounds = int(r)
	rev, _ := meta.Get("revert")
	c.revert, _ = rev.(bool)
	tr, _ := meta.Get("trampolines")
	c.tramp, _ = tr.(bool)
	pp, _ := meta.Get("parallel_patch")
	c.parallel, _ = pp.(bool)
	return c, nil
}

// run executes one session, optionally recording it to recordPath.
func run(cfg runConfig, recordPath string) error {
	var sess *replay.Session
	if recordPath != "" {
		sess = replay.NewRecorder(0)
	}
	if err := drive(cfg, sess); err != nil {
		return err
	}
	if sess != nil {
		if err := sess.Finish(); err != nil {
			return err
		}
		f, err := os.Create(recordPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sess.WriteJSONL(f); err != nil {
			return err
		}
		fmt.Printf("recorded %d events to %s\n", len(sess.Events()), recordPath)
	}
	return nil
}

// replaySession re-executes a recorded session from its journal alone
// and verifies it was bit-identical: every checkpoint hash matches, all
// recorded decisions are consumed, and the re-recorded journal equals
// the input byte for byte.
func replaySession(path string) error {
	original, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, err := replay.Load(bytes.NewReader(original))
	if err != nil {
		return err
	}
	meta, err := replay.MetaOf(events)
	if err != nil {
		return err
	}
	cfg, err := configFromMeta(meta)
	if err != nil {
		return err
	}
	sess, err := replay.NewReplayer(events)
	if err != nil {
		return err
	}
	if err := drive(cfg, sess); err != nil {
		return err
	}
	if err := sess.Finish(); err != nil {
		return err
	}
	var rerecorded bytes.Buffer
	if err := sess.WriteJSONL(&rerecorded); err != nil {
		return err
	}
	if !bytes.Equal(original, rerecorded.Bytes()) {
		return fmt.Errorf("replay verified all checkpoints but re-recorded journal is not byte-identical (%d vs %d bytes)",
			len(original), rerecorded.Len())
	}
	fmt.Printf("replay OK: %d events re-executed bit-identically from %s\n", len(events), path)
	return nil
}

// checkpoint marks a round boundary: the controller state hash plus the
// measured throughput (bit-exact) are identity, so a replay that drifts
// in either fails right here.
func checkpoint(sess *replay.Session, name string, ctl *core.Controller, round int, tput float64) error {
	return sess.Checkpoint(name, ctl.StateHash(),
		trace.Int("round", round),
		trace.Int("version", ctl.Version()),
		trace.Int("throughput_bits", int(math.Float64bits(tput))))
}

func drive(cfg runConfig, sess *replay.Session) error {
	w, err := experiments.Workload(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.threads <= 0 {
		cfg.threads = w.Threads
	}
	if err := sess.Meta(cfg.metaAttrs()...); err != nil {
		return err
	}
	d, err := w.NewDriver(cfg.input, cfg.threads)
	if err != nil {
		return err
	}
	p, err := proc.Load(w.Binary, proc.Options{
		Threads:      cfg.threads,
		Handler:      d,
		SchedQuantum: sess.SchedQuantum(nil),
	})
	if err != nil {
		return err
	}
	opts := core.Options{Trampolines: cfg.tramp, ParallelPatch: cfg.parallel, Replay: sess}
	if cfg.rounds > 1 {
		opts.Bolt = bolt.Options{AllowReBolt: true}
	}
	ctl, err := core.New(p, w.Binary, opts)
	if err != nil {
		return err
	}

	fmt.Printf("%s %s: %d threads, %s\n", cfg.workload, cfg.input, cfg.threads, w.Binary)
	p.RunFor(0.003)
	base := wl.Measure(p, d, 0.004)
	fmt.Printf("original steady state: %.0f req/s\n", base)
	if base == 0 {
		return fmt.Errorf("%s %s completed no requests in the baseline window, so there is no throughput to optimize: "+
			"ocolos-run needs a request-serving workload (compilersim is a batch guest; `experiments fig10` runs it under BAM)",
			cfg.workload, cfg.input)
	}
	if err := checkpoint(sess, "baseline", ctl, 0, base); err != nil {
		return err
	}

	for r := 1; r <= cfg.rounds; r++ {
		rr, err := ctl.OptimizeRound(cfg.profileMS / 1e3)
		if err != nil {
			return err
		}
		rs, bs := rr.Replace, rr.Build
		p.RunFor(0.003)
		t := wl.Measure(p, d, 0.004)
		fmt.Printf("round %d: C%d live — %.0f req/s (%.2fx)\n", r, ctl.Version(), t, t/base)
		fmt.Printf("  perf2bolt %.1f ms host, bolt %.1f ms host, pause %.2f ms simulated\n",
			bs.Perf2BoltSeconds*1e3, bs.BoltSeconds*1e3, rs.PauseSeconds*1e3)
		fmt.Printf("  injected %d KiB, %d call sites + %d vtable slots patched, %d funcs on stack, GC freed %d KiB\n",
			rs.BytesInjected/1024, rs.CallSitesPatched, rs.VTableSlotsPatched,
			rs.FuncsOnStack, rs.BytesFreed/1024)
		if rs.OSRFramesMapped > 0 || rs.OSRFallbacks > 0 {
			fmt.Printf("  OSR: %d frames transferred in place, %d fell back to copies\n",
				rs.OSRFramesMapped, rs.OSRFallbacks)
		}
		if err := checkpoint(sess, "round", ctl, r, t); err != nil {
			return err
		}
	}

	if cfg.revert {
		if _, err := ctl.Revert(); err != nil {
			return err
		}
		p.RunFor(0.003)
		t := wl.Measure(p, d, 0.004)
		fmt.Printf("reverted to C0: %.0f req/s (%.2fx)\n", t, t/base)
		if err := checkpoint(sess, "revert", ctl, cfg.rounds, t); err != nil {
			return err
		}
	}
	return p.Fault()
}
