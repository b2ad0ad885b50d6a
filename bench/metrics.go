package main

import "strings"

// metricDef is the benchmark's own statement of one metric; the tier-1
// test holds BENCHMARK.json to this table, name for name.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the parent's median a later change may lose; 0 for per-layer metrics
}

// endToEnd are the metrics a user of the system would see, the same
// names on all four workloads. Each bound is at least three times the
// widest spread (interquartile range over ten seeds, as a share of the
// median) the metric showed on any workload — README.md has the study.
// For the host-time metrics that spread is this box's speed moving for
// tens of seconds at a time; for the simulated ones, which repeat
// exactly at one seed, it is how far the value moves from seed to seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rep_ms_p50", "ms", "lower", 0.25},
	{"guest_mips", "Minst/s", "higher", 0.25},
	{"cpu_ms_per_rep", "ms", "lower", 0.25},
	{"alloc_mb_per_rep", "MB", "lower", 0.04},
	{"live_heap_mb", "MB", "lower", 0.03},
	{"speedup_x", "ratio", "higher", 0.25},
	{"pause_sim_ms", "sim_ms", "lower", 0.12},
	{"req_p99_sim_us", "sim_us", "lower", 0.25},
	{"bolt_runs", "count/rep", "lower", 0.01},
	{"ok_ratio", "ratio", "higher", 0.01},
}

func metricByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayer are the single-layer metrics the traced pass emits, named
// <layer>.<metric>. They carry no bound: they explain an end-to-end
// movement, they do not gate one. README.md says for each which
// end-to-end metric it should move, on which workload.
var perLayer = layerDefs(
	"isa.decode_ns_per_inst ns lower",

	"cpu.fetch_ns ns lower", "cpu.branch_ns ns lower", "cpu.mem_ns ns lower", "cpu.retire_ns ns lower",
	"cpu.ipc_before ratio higher", "cpu.ipc_after ratio higher",
	"cpu.l1i_mpki_before 1/kinst lower", "cpu.l1i_mpki_after 1/kinst lower",
	"cpu.taken_pki_before 1/kinst lower", "cpu.taken_pki_after 1/kinst lower",

	"proc.mips.sqldb Minst/s higher", "proc.mips.docdb Minst/s higher", "proc.mips.kvcache Minst/s higher",
	"proc.mips.rtlsim Minst/s higher", "proc.mips.loopsim Minst/s higher",
	"proc.mips_block.sqldb Minst/s higher", "proc.mips_legacy.sqldb Minst/s higher",
	"proc.super_inst_share.sqldb ratio higher",
	"proc.super_formed count lower", "proc.super_invalidated count lower",
	"proc.post_replace_slowdown_x ratio lower", "proc.load_ms.docdb ms lower",

	"perf.record_overhead_pct % lower", "perf.stream_overhead_pct % lower", "perf.samples_per_sim_ms 1/sim_ms higher",

	"bolt.convert_ms ms lower", "bolt.cfg_ms ms lower", "bolt.reorder_ms ms lower", "bolt.split_ms ms lower",
	"bolt.funcorder_ms ms lower", "bolt.optimize_ms ms lower", "bolt.emit_ms ms lower", "bolt.rebolt_ms ms lower",
	"bolt.optimize_ms.docdb ms lower", "bolt.hot_funcs count higher",

	"obj.clone_ms.sqldb ms lower", "obj.clone_ms.docdb ms lower",

	"layout.binary_fp_ms.sqldb ms lower", "layout.binary_fp_ms.docdb ms lower", "layout.profile_fp_ms ms lower",
	"layout.key_ms ms lower", "layout.hit_us us lower", "layout.hit_rate ratio higher", "layout.coalesced count lower",

	"ptrace.txn_poke_ns ns lower", "ptrace.raw_poke_ns ns lower", "ptrace.rollback_us_per_kwrite us lower",
	"unwind.all_stacks_us us lower",

	"core.new_ms.sqldb ms lower", "core.replace_ms.sqldb ms lower", "core.replace_ms.loopsim ms lower",
	"core.rereplace_ms.sqldb ms lower", "core.revert_ms.sqldb ms lower",
	"core.bytes_injected bytes lower", "core.call_sites_patched count lower",
	"core.osr_frames_mapped count higher", "core.funcs_on_stack count lower",

	"span.profile_ms ms lower", "span.perf2bolt_ms ms lower", "span.bolt_ms ms lower", "span.replace_ms ms lower",
	"span.verify_ms ms lower", "span.round_ms ms lower", "span.cache_ms ms lower", "span.guest_ms ms lower", "span.scan_ms ms lower",
	"span.ingest_ms ms lower", "span.load_ms ms lower", "span.unattributed_ms ms lower",

	"profile.ingest_ns ns lower", "profile.ingest_batch_us us lower", "profile.window_us us lower",
	"profile.decayed_summary_us us lower", "profile.summarize_us us lower", "profile.divergence_us us lower",
	"profile.check_ns ns lower", "profile.drift_score ratio higher", "profile.reconverge_sim_ms sim_ms lower",
	"profile.recovered_ratio ratio higher",

	"trace.span_ns ns lower", "trace.journal_append_ns ns lower", "trace.write_jsonl_us_per_kevent us lower",
	"trace.events_per_round count lower",
	"telemetry.counter_inc_ns ns lower", "telemetry.observe_ns ns lower", "telemetry.prometheus_ms ms lower",
	"replay.record_ns ns lower", "replay.recording_overhead_pct % lower",

	"fleet.add_service_ms ms lower", "fleet.scan_ms_per_service ms lower", "fleet.wave_ms_per_service ms lower",
	"fleet.drift_scan_ms_per_service ms lower", "fleet.ingest_profile_us us lower", "fleet.snapshot_us us lower",
	"fleet.parallel_x ratio higher", "fleet.peak_pauses count lower", "fleet.observability_overhead_pct % lower",

	"harness.calib_ms ms lower", "harness.reps count higher", "harness.rep_ms_phi ms lower",
	"harness.rep_ms_iqr_pct % lower", "harness.trace_overhead_pct % lower", "harness.verify_s s lower",
)

// workloadScoped are exact counters read off the traced repetition
// itself; a workload without the layer (no cache, no fleet, no drift)
// does not produce them and reports 0.
var workloadScoped = map[string]bool{
	"layout.hit_rate": true, "layout.coalesced": true, "fleet.peak_pauses": true,
	"profile.drift_score": true, "profile.reconverge_sim_ms": true, "profile.recovered_ratio": true,
}

// layerDefs parses "name unit better" triples.
func layerDefs(specs ...string) []metricDef {
	defs := make([]metricDef, len(specs))
	for i, s := range specs {
		f := strings.Fields(s)
		defs[i] = metricDef{name: f[0], unit: f[1], better: f[2]}
	}
	return defs
}
