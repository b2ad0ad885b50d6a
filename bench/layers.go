package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/bolt"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fleet"
	"repro/internal/isa"
	"repro/internal/layout"
	"repro/internal/perf"
	"repro/internal/proc"
	"repro/internal/profile"
	"repro/internal/ptrace"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/unwind"
	"repro/internal/workloads/wl"
)

// The layer probes measure each layer from outside, by timing calls
// into its public functions on inputs captured from the real workloads
// (raw profiles, binaries, LBR records, a paused process). They are the
// same whichever workload the traced pass was asked for; the
// workload-specific per-layer numbers (spans, exact counters) come from
// the traced repetitions instead.

// perCall runs fn in batches until the budget is spent (three batches
// at least) and returns the median seconds per call.
func perCall(budget time.Duration, batch int, fn func()) float64 {
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(batch))
	}
	return median(samples)
}

// budget shrinks a probe's time budget on the smoke run.
func (fx *fixture) budget(d time.Duration) time.Duration {
	if fx.e.smoke {
		return d / 8
	}
	return d
}

// once times a single call.
func once(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

type metrics map[string]float64

// probes runs every layer probe and returns the metrics by name.
func probes(e *env) (metrics, error) {
	// The probes drive the program directly, outside any repetition: no
	// spans.
	pe := *e
	pe.tr = nil
	m := metrics{}
	fx := &fixture{e: &pe}
	for _, step := range []func(metrics) error{
		fx.sqldbChain, fx.docdbCapture, fx.boltPasses, fx.layoutAndObj, fx.engines,
		fx.loopsimReplace, fx.cpuModel, fx.profileStore, fx.eventSinks, fx.fleetWaves, fx.fleetDrift,
	} {
		// Each probe starts from a collected heap, so none pays to mark
		// what the traced repetitions or an earlier probe left behind.
		runtime.GC()
		if err := step(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// fixture holds what earlier probes capture for later ones.
type fixture struct {
	e *env

	sqldb, docdb *wl.Workload
	sqRaw        *perf.RawProfile // sqldb ×4 on C0
	sqRaw1       *perf.RawProfile // the same service on C1
	sqRes        *bolt.Result
	dcRaw        *perf.RawProfile
	records      []cpu.BranchRecord // the recorded LBR stream
}

// hostPerInst times run, which advances the process, and returns host
// ns per guest instruction retired and the counter deltas.
func hostPerInst(p *proc.Process, run func()) (float64, cpu.Stats) {
	s0 := p.Stats()
	t := once(run)
	d := p.Stats().Sub(s0)
	if d.Instructions == 0 {
		return 0, d
	}
	return t * 1e9 / float64(d.Instructions), d
}

func mips(nsPerInst float64) float64 {
	if nsPerInst == 0 {
		return 0
	}
	return 1e3 / nsPerInst
}

// sqldbChain follows one sqldb ×4 service through two rounds and a
// revert, measuring core, perf, ptrace, unwind and the simulated
// counters on the way, and captures the profiles the bolt, layout and
// profile probes reuse.
func (fx *fixture) sqldbChain(m metrics) error {
	e := fx.e
	g, err := buildGuest("sqldb")
	if err != nil {
		return err
	}
	fx.sqldb = g
	pl := plan{"sqldb", "read_only", 4}
	p, d, err := loadGuest(e, g, pl, proc.Options{})
	if err != nil {
		return err
	}
	var l *live
	m["core.new_ms.sqldb"] = 1e3 * once(func() {
		l, err = attach(e, g, pl, p, d, core.Options{Bolt: bolt.Options{AllowReBolt: true}})
	})
	if err != nil {
		return err
	}
	p.RunFor(0.0009)

	const w = 0.0004
	steady, before := hostPerInst(p, func() { p.RunFor(w) })
	m["proc.mips.sqldb"] = mips(steady)
	m["cpu.ipc_before"], m["cpu.l1i_mpki_before"], m["cpu.taken_pki_before"] = before.IPC(), before.L1iMPKI(), before.TakenPKI()
	sb := p.SuperblockStats()
	m["proc.super_inst_share.sqldb"] = float64(sb.Insts) / float64(p.Stats().Instructions)

	// Sampling cost in host time per guest instruction: plain, recorded
	// and streamed windows alternated, the median of each compared.
	var plain, recorded, streamed []float64
	var raw *perf.RawProfile
	for i := 0; i < 3; i++ {
		ns, _ := hostPerInst(p, func() { p.RunFor(w) })
		plain = append(plain, ns)
		ns, _ = hostPerInst(p, func() { raw = perf.Record(p, w, perf.RecorderOptions{}) })
		recorded = append(recorded, ns)
		ns, _ = hostPerInst(p, func() {
			st := perf.Stream(p, perf.RecorderOptions{}, func(perf.Sample, float64) {})
			p.RunFor(w)
			st.Stop()
		})
		streamed = append(streamed, ns)
	}
	m["perf.record_overhead_pct"] = 100 * (median(recorded)/median(plain) - 1)
	m["perf.stream_overhead_pct"] = 100 * (median(streamed)/median(plain) - 1)
	m["perf.samples_per_sim_ms"] = float64(len(raw.Samples)) / (raw.Seconds * 1e3)

	fx.sqRaw = l.ctl.Profile(0.001)
	for _, s := range fx.sqRaw.Samples {
		fx.records = append(fx.records, s.Records...)
	}

	// The debugger surface, on the paused process.
	tr := ptrace.Attach(p)
	m["unwind.all_stacks_us"] = 1e6 * perCall(fx.budget(20*time.Millisecond), 10, func() { _, err = unwind.AllStacks(tr) })
	if err != nil {
		return fmt.Errorf("unwind: %w", err)
	}
	scratch := p.Alloc(8 * 1024)
	const pokes = 1000
	i := uint64(0)
	m["ptrace.raw_poke_ns"] = 1e9 * perCall(fx.budget(10*time.Millisecond), pokes, func() {
		err = tr.PokeData(scratch+8*(i%pokes), i)
		i++
	})
	var txnPoke, rollback []float64
	for n := 0; n < 5 && err == nil; n++ {
		x := ptrace.Begin(tr)
		txnPoke = append(txnPoke, once(func() {
			for j := uint64(0); j < pokes && err == nil; j++ {
				err = x.PokeData(scratch+8*j, j)
			}
		})/pokes)
		rollback = append(rollback, once(func() {
			if rerr := x.Rollback(); rerr != nil {
				err = rerr
			}
		}))
	}
	m["ptrace.txn_poke_ns"] = 1e9 * median(txnPoke)
	m["ptrace.rollback_us_per_kwrite"] = 1e6 * median(rollback)
	tr.Detach()
	if err != nil {
		return fmt.Errorf("ptrace: %w", err)
	}

	// Round 1, stage by stage.
	bs, err := l.ctl.BuildOptimized(fx.sqRaw)
	if err != nil {
		return err
	}
	fx.sqRes = bs.Result
	m["core.replace_ms.sqldb"] = 1e3 * once(func() { _, err = l.ctl.Replace(bs.Result.Binary) })
	if err != nil {
		return err
	}
	const short = 0.0002
	first, _ := hostPerInst(p, func() { p.RunFor(short) })
	p.RunFor(0.0003)
	settled, after := hostPerInst(p, func() { p.RunFor(w) })
	m["proc.post_replace_slowdown_x"] = first / settled
	m["cpu.ipc_after"], m["cpu.l1i_mpki_after"], m["cpu.taken_pki_after"] = after.IPC(), after.L1iMPKI(), after.TakenPKI()

	// Round 2 replaces a running optimized version.
	fx.sqRaw1 = l.ctl.Profile(0.0005)
	bs2, err := l.ctl.BuildOptimized(fx.sqRaw1)
	if err != nil {
		return err
	}
	// Re-BOLTing a bolted binary needs the controller's pin map, so its
	// time is the controller's own measurement of the optimizer call.
	m["bolt.rebolt_ms"] = 1e3 * bs2.BoltSeconds
	m["core.rereplace_ms.sqldb"] = 1e3 * once(func() { _, err = l.ctl.Replace(bs2.Result.Binary) })
	if err != nil {
		return err
	}
	p.RunFor(short)
	m["core.revert_ms.sqldb"] = 1e3 * once(func() { _, err = l.ctl.Revert() })
	if err != nil {
		return err
	}
	p.RunFor(short)
	return p.Fault()
}

func (fx *fixture) docdbCapture(m metrics) error {
	g, err := buildGuest("docdb")
	if err != nil {
		return err
	}
	fx.docdb = g
	var p *proc.Process
	m["proc.load_ms.docdb"] = 1e3 * once(func() {
		p, _, err = loadGuest(fx.e, g, plan{"docdb", "read_update", 2}, proc.Options{})
	})
	if err != nil {
		return err
	}
	p.RunFor(0.0009)
	ns, _ := hostPerInst(p, func() { p.RunFor(0.0004) })
	m["proc.mips.docdb"] = mips(ns)
	fx.dcRaw = perf.Record(p, 0.0006, perf.RecorderOptions{})
	return p.Fault()
}

// boltPasses times the optimizer's passes one by one on the sqldb
// capture, as Optimize runs them.
func (fx *fixture) boltPasses(m metrics) error {
	bin := fx.sqldb.Binary
	var prof *bolt.Profile
	var err error
	budget := fx.budget(40 * time.Millisecond)
	m["bolt.convert_ms"] = 1e3 * perCall(budget, 1, func() { prof, err = bolt.ConvertProfile(fx.sqRaw, bin) })
	if err != nil {
		return err
	}
	cfgs := map[uint64]*bolt.CFG{}
	m["bolt.cfg_ms"] = 1e3 * perCall(budget, 1, func() {
		for _, fn := range bin.Funcs {
			cfg, cerr := bolt.BuildCFG(bin, fn)
			if cerr != nil {
				err = cerr
				return
			}
			cfg.AttachProfile(prof.Funcs[fn.Addr])
			cfgs[fn.Addr] = cfg
		}
	})
	if err != nil {
		return err
	}
	hot := map[uint64]bool{}
	sizeOf := map[uint64]uint64{}
	for _, entry := range fx.sqRes.Layout.FuncOrder {
		hot[entry] = true
		sizeOf[entry] = bin.FuncAt(entry).Size
	}
	m["bolt.hot_funcs"] = float64(len(hot))
	orders := map[uint64][]int{}
	m["bolt.reorder_ms"] = 1e3 * perCall(budget/2, 1, func() {
		for entry := range hot {
			orders[entry] = bolt.ReorderBlocks(cfgs[entry], prof.Funcs[entry])
		}
	})
	m["bolt.split_ms"] = 1e3 * perCall(budget/2, 1, func() {
		for entry := range hot {
			bolt.SplitBlocks(cfgs[entry], orders[entry])
		}
	})
	m["bolt.funcorder_ms"] = 1e3 * perCall(budget/2, 1, func() { bolt.OrderFunctions(prof, hot, sizeOf, bolt.OrderC3) })
	m["bolt.optimize_ms"] = 1e3 * perCall(3*budget, 1, func() { _, err = bolt.Optimize(bin, prof, bolt.Options{}) })
	if err != nil {
		return err
	}
	m["bolt.emit_ms"] = m["bolt.optimize_ms"] - m["bolt.cfg_ms"] - m["bolt.reorder_ms"] - m["bolt.split_ms"] - m["bolt.funcorder_ms"]

	dprof, err := bolt.ConvertProfile(fx.dcRaw, fx.docdb.Binary)
	if err != nil {
		return err
	}
	m["bolt.optimize_ms.docdb"] = 1e3 * perCall(4*budget, 1, func() { _, err = bolt.Optimize(fx.docdb.Binary, dprof, bolt.Options{}) })
	return err
}

func (fx *fixture) layoutAndObj(m metrics) error {
	budget := fx.budget(30 * time.Millisecond)
	sq, dc := fx.sqldb.Binary, fx.docdb.Binary
	m["layout.binary_fp_ms.sqldb"] = 1e3 * perCall(budget, 1, func() { layout.BinaryFingerprint(sq) })
	m["layout.binary_fp_ms.docdb"] = 1e3 * perCall(budget, 1, func() { layout.BinaryFingerprint(dc) })
	m["layout.profile_fp_ms"] = 1e3 * perCall(budget, 1, func() { layout.ProfileFingerprint(fx.sqRaw) })
	var key layout.Key
	m["layout.key_ms"] = 1e3 * perCall(budget, 1, func() { key = layout.KeyFor(sq, fx.sqRaw, bolt.Options{}) })
	mem := layout.NewMemory(0, nil)
	mem.Put(key, &layout.Entry{Result: fx.sqRes})
	var err error
	m["layout.hit_us"] = 1e6 * perCall(fx.budget(10*time.Millisecond), 1000, func() {
		_, _, err = mem.Do(key, func() (*layout.Entry, error) { return nil, fmt.Errorf("bench: hit path ran compute") })
	})
	if err != nil {
		return err
	}
	// What a cache hit hands out: a private copy of the cached image.
	m["obj.clone_ms.sqldb"] = 1e3 * perCall(budget, 1, func() { fx.sqRes.Binary.Clone() })
	m["obj.clone_ms.docdb"] = 1e3 * perCall(budget, 1, func() { dc.Clone() })

	// Function by function: the section itself has padding between them.
	n := 0
	perPass := perCall(budget, 1, func() {
		n = 0
		for _, fn := range sq.Funcs {
			code, berr := sq.Bytes(fn.Addr, int(fn.Size))
			if berr != nil {
				err = berr
				return
			}
			insts, derr := isa.DecodeAll(code)
			if derr != nil {
				err = derr
				return
			}
			n += len(insts)
		}
	})
	if err != nil || n == 0 {
		return fmt.Errorf("isa: decoding sqldb's functions: %d instructions, %v", n, err)
	}
	m["isa.decode_ns_per_inst"] = 1e9 * perPass / float64(n)
	return nil
}

// engines measures guest instructions per host second on each paper
// workload at its paper_round thread count, and on sqldb under the two
// slower engines.
func (fx *fixture) engines(m metrics) error {
	const w = 0.0004
	start := func(pl plan, opts proc.Options) (*proc.Process, error) {
		g := fx.sqldb
		if pl.guest != "sqldb" {
			var err error
			if g, err = buildGuest(pl.guest); err != nil {
				return nil, err
			}
		}
		p, _, err := loadGuest(fx.e, g, pl, opts)
		return p, err
	}
	for _, pl := range paperPlans[2:] { // sqldb and docdb are measured on their chains
		p, err := start(pl, proc.Options{})
		if err != nil {
			return err
		}
		p.RunFor(0.0002)
		ns, _ := hostPerInst(p, func() { p.RunFor(w) })
		m["proc.mips."+pl.guest] = mips(ns)
		if err := p.Fault(); err != nil {
			return err
		}
	}
	p, err := start(plan{"sqldb", "read_only", 2}, proc.Options{DisableSuperblocks: true})
	if err != nil {
		return err
	}
	p.RunFor(0.0009)
	ns, _ := hostPerInst(p, func() { p.RunFor(w) })
	m["proc.mips_block.sqldb"] = mips(ns)

	p, err = start(plan{"sqldb", "read_only", 1}, proc.Options{})
	if err != nil {
		return err
	}
	p.RunFor(0.0009)
	t := p.Threads[0]
	const steps = 300_000
	ns, _ = hostPerInst(p, func() {
		for i := 0; i < steps && p.Step(t); i++ {
		}
	})
	m["proc.mips_legacy.sqldb"] = mips(ns)
	return p.Fault()
}

// loopsimReplace times a replacement that has to transfer frames parked
// in a loop that never returns (OSR).
func (fx *fixture) loopsimReplace(m metrics) error {
	g, err := buildGuest("loopsim")
	if err != nil {
		return err
	}
	l, err := launch(fx.e, g, plan{"loopsim", "steady", 2}, core.Options{})
	if err != nil {
		return err
	}
	l.p.RunFor(0.0002)
	bs, err := l.ctl.BuildOptimized(l.ctl.Profile(0.0005))
	if err != nil {
		return err
	}
	m["core.replace_ms.loopsim"] = 1e3 * once(func() { _, err = l.ctl.Replace(bs.Result.Binary) })
	if err != nil {
		return err
	}
	l.p.RunFor(0.0002)
	return l.p.Fault()
}

// cpuModel feeds a bare cpu.Core the recorded sqldb LBR stream, one
// event class at a time.
func (fx *fixture) cpuModel(m metrics) error {
	recs := fx.records
	if len(recs) == 0 {
		return fmt.Errorf("cpu: no recorded branches")
	}
	if len(recs) > 1<<16 {
		recs = recs[:1<<16]
	}
	cfg := cpu.DefaultConfig()
	c := cpu.NewCore(0, cfg, cpu.NewShared(cfg))
	n := float64(len(recs))
	budget := fx.budget(20 * time.Millisecond)
	m["cpu.fetch_ns"] = 1e9 * perCall(budget, 1, func() {
		for _, r := range recs {
			c.Fetch(r.To)
		}
	}) / n
	m["cpu.branch_ns"] = 1e9 * perCall(budget, 1, func() {
		for _, r := range recs {
			c.Branch(r.From, r.To, true, cpu.BrCond, 0)
		}
	}) / n
	// Data addresses are not recorded; spread the stream over a 16 MiB
	// heap window so the model's caches and TLBs see hits and misses.
	m["cpu.mem_ns"] = 1e9 * perCall(budget, 1, func() {
		for i, r := range recs {
			c.Mem(proc.HeapBase+(wl.SplitMix64(r.To)&(1<<24-1))&^7, i&7 == 0)
		}
	}) / n
	m["cpu.retire_ns"] = 1e9 * perCall(budget, 1, func() {
		for i := range recs {
			c.Retire(i&63 == 0)
		}
	}) / n
	return nil
}

// profileStore times the streaming store's write and read paths on a
// full default-capacity ring of real samples.
func (fx *fixture) profileStore(m metrics) error {
	samples := fx.sqRaw.Samples
	if len(samples) == 0 {
		return fmt.Errorf("profile: empty capture")
	}
	const capacity = 8192
	st := profile.NewStore(profile.StoreOptions{Service: "probe", Capacity: capacity})
	at := 0.0
	next := func() (perf.Sample, float64) {
		at += 1e-6
		return samples[int(at*1e6)%len(samples)], at
	}
	for i := 0; i < capacity; i++ {
		st.Ingest(next())
	}
	budget := fx.budget(20 * time.Millisecond)
	m["profile.ingest_ns"] = 1e9 * perCall(budget, 256, func() { st.Ingest(next()) })
	batch := make([]profile.TimedSample, driftBatchSize)
	var err error
	m["profile.ingest_batch_us"] = 1e6 * perCall(budget, 1, func() {
		for i := range batch {
			s, t := next()
			batch[i] = profile.TimedSample{At: t, Records: s.Records}
		}
		err = st.IngestBatch(batch)
	})
	if err != nil {
		return err
	}
	var raw *perf.RawProfile
	m["profile.window_us"] = 1e6 * perCall(budget, 1, func() { raw = st.Window(1) })
	m["profile.decayed_summary_us"] = 1e6 * perCall(budget, 1, func() { st.DecayedSummary() })
	var live profile.Summary
	m["profile.summarize_us"] = 1e6 * perCall(budget, 1, func() { live = profile.Summarize(raw) })
	base := profile.Summarize(fx.sqRaw1)
	m["profile.divergence_us"] = 1e6 * perCall(budget, 1, func() { profile.Divergence(live, base) })
	tk := profile.NewTracker()
	tk.Rebase(base, 0)
	pol := profile.ReoptPolicy{}.WithDefaults()
	m["profile.check_ns"] = 1e9 * perCall(budget, 1, func() { tk.Check(live, at, pol) })
	return nil
}

// eventSinks times the three event systems' hot-path writes.
func (fx *fixture) eventSinks(m metrics) error {
	budget := fx.budget(10 * time.Millisecond)
	tr := trace.New(trace.Options{})
	root := tr.Start(nil, "root")
	m["trace.span_ns"] = 1e9 * perCall(budget, 256, func() {
		sp := tr.Start(root, "stage", trace.String("service", "probe"), trace.Int("round", 1),
			trace.Bool("cache_hit", true), trace.Float("seconds", 0.5))
		sp.End(nil)
	})
	j := trace.NewJournal(0)
	ev := trace.Event{Type: trace.EvTransition, Service: "probe", Stage: "Profiling",
		Attrs: trace.Attrs{trace.String("from", "Idle"), trace.String("to", "Profiling")}}
	m["trace.journal_append_ns"] = 1e9 * perCall(budget, 256, func() { j.Append(ev) })
	var err error
	m["trace.write_jsonl_us_per_kevent"] = 1e6 * perCall(2*budget, 1, func() { err = j.WriteJSONL(io.Discard) }) * 1000 / float64(j.Len())
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	ctr := reg.CounterVec("probe_total", "stage").With("bolt")
	m["telemetry.counter_inc_ns"] = 1e9 * perCall(budget, 1024, ctr.Inc)
	h := reg.HistogramVec("probe_seconds", "stage").With("bolt")
	x := 0.0
	m["telemetry.observe_ns"] = 1e9 * perCall(budget, 1024, func() { x += 1e-6; h.Observe(x) })
	sess := replay.NewRecorder(0)
	m["replay.record_ns"] = 1e9 * perCall(budget, 256, func() { err = sess.CacheEvent("probe-key", "hit") })
	return err
}

// probeReplicas is how many replicas of each binary the fleet probes
// stand up: enough for hits and coalescing, small enough to repeat.
const probeReplicas = 2

// fleetWaves runs the wave in four configurations — serial or two
// workers, observed or not, recorded or not — three times each,
// alternating, and reports the ratios between the best of each. These
// are single-digit-percent effects measured on a fraction of a second of
// work: read them as coarse.
func (fx *fixture) fleetWaves(m metrics) error {
	e := fx.e
	w := &waveReplicas{}
	if err := w.build(e); err != nil {
		return err
	}
	variants := []struct {
		name string
		o    waveOpts
	}{
		{"serial", waveOpts{serial: true, replicas: probeReplicas}},
		{"recorded", waveOpts{serial: true, record: true, replicas: probeReplicas}},
		{"parallel", waveOpts{replicas: probeReplicas}},
		{"unobserved", waveOpts{noObs: true, replicas: probeReplicas}},
	}
	best := map[string]float64{}
	var scanPer, addPer []float64
	var observed *wave // the last two-worker observed wave, kept for the reads below
	rounds := 3
	if e.smoke {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		for _, v := range variants {
			wv, err := w.newWave(e, v.o)
			if err != nil {
				return err
			}
			mgr := wv.m
			addPer = append(addPer, wv.addSeconds...)
			n := float64(len(mgr.Services()))
			var scan []fleet.ScanResult
			runtime.GC()
			ts := once(func() { scan = mgr.Scan(fleet.ScanOptions{}) })
			to := once(func() { mgr.Optimize(scan, fleet.WaveOptions{Serial: v.o.serial}) })
			for _, s := range mgr.Services() {
				if st := s.State(); st != fleet.Steady {
					return fmt.Errorf("fleet probe %s: %s ended %s: %v", v.name, s.Name, st, s.Err())
				}
			}
			if b, ok := best[v.name]; !ok || to < b {
				best[v.name] = to
			}
			if v.name == "parallel" {
				scanPer = append(scanPer, ts/n)
				observed = wv
			}
		}
	}
	m["fleet.wave_ms_per_service"] = 1e3 * best["parallel"] / float64(len(observed.m.Services()))
	m["fleet.snapshot_us"] = 1e6 * perCall(fx.budget(5*time.Millisecond), 10, func() { observed.m.Snapshot() })
	m["fleet.add_service_ms"] = 1e3 * median(addPer)
	m["fleet.scan_ms_per_service"] = 1e3 * median(scanPer)
	m["fleet.parallel_x"] = best["serial"] / best["parallel"]
	m["fleet.observability_overhead_pct"] = 100 * (best["parallel"]/best["unobserved"] - 1)
	m["replay.recording_overhead_pct"] = 100 * (best["recorded"]/best["serial"] - 1)
	var err error
	m["telemetry.prometheus_ms"] = 1e3 * perCall(fx.budget(10*time.Millisecond), 1, func() { err = observed.reg.WritePrometheus(io.Discard) })
	return err
}

// fleetDrift times a drift scan and an external profile push on a small
// drifting fleet after one hot-tenant turn.
func (fx *fixture) fleetDrift(m metrics) error {
	e := fx.e
	w := &driftTenants{}
	if err := w.build(e); err != nil {
		return err
	}
	df, err := w.newFleet(e, probeReplicas)
	if err != nil {
		return err
	}
	mgr := df.m
	if _, err := mgr.Run(); err != nil {
		return err
	}
	services := mgr.Services()
	w.turn(e, services, 1)
	var push []float64
	for _, s := range services {
		batch := w.batch(e, s)
		push = append(push, once(func() { err = mgr.IngestProfile(s.Name, batch) }))
		if err != nil {
			return err
		}
	}
	m["fleet.ingest_profile_us"] = 1e6 * median(push)
	m["fleet.drift_scan_ms_per_service"] = 1e3 * once(func() { mgr.Scan(fleet.ScanOptions{Drift: true}) }) / float64(len(services))
	return nil
}
