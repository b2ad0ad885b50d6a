#!/usr/bin/env sh
# Benchmark runner, two sections:
#
# 1. Interpreter throughput: runs BenchmarkStep in its three modes —
#    the trace engine with splicing on ("super"), with splicing off
#    ("block"), and the per-instruction Step reference ("legacy") — and
#    writes BENCH_proc.json with each mode's simulated-instructions-
#    per-second plus the ratios between them, all measured in the same
#    run. The benchmark is invoked COUNT separate times — each
#    invocation measures the modes back to back, so they share
#    machine-noise conditions — and the best run per mode is kept:
#    wall-clock noise on shared machines only ever slows a run down.
#    See docs/perf.md.
#
# 2. Fleet wave: drives FLEET_SERVICES (default 1000) mixed-workload
#    replicas through one sharded optimization wave under the race
#    detector and writes BENCH_fleet.json — wave wall time, BOLT
#    invocations, and the layout-cache hit rate that keeps invocations
#    far below the service count. See docs/fleet.md. Skip with
#    SKIP_FLEET=1 (the interpreter section is the fast one).
#
# 3. Replacement cost: runs the loopsim service (whose serve loop never
#    returns) through REPLACE_ROUNDS optimization rounds with on-stack
#    replacement on and off, and writes BENCH_replace.json — per-arm
#    pause time, stack-copy traffic, OSR frame outcomes, and the share
#    of main's execution still parked on the original image (1.0 means
#    the optimized layout never took effect). See docs/robustness.md.
#    Skip with SKIP_REPLACE=1.
#
# 4. Drift re-convergence: runs the phase-shifting multi-tenant cache
#    through two hot-tenant turns with the drift detector on and off,
#    and writes BENCH_drift.json — per-turn stale and recovered
#    throughput, the detector's divergence score, and the simulated
#    time each re-convergence took. See docs/profiling.md. Skip with
#    SKIP_DRIFT=1.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-8}"
OUT="${OUT:-BENCH_proc.json}"
FLEET_OUT="${FLEET_OUT:-BENCH_fleet.json}"
FLEET_SERVICES="${FLEET_SERVICES:-1000}"
REPLACE_OUT="${REPLACE_OUT:-BENCH_replace.json}"
REPLACE_ROUNDS="${REPLACE_ROUNDS:-3}"
DRIFT_OUT="${DRIFT_OUT:-BENCH_drift.json}"

raw=""
i=1
while [ "$i" -le "$COUNT" ]; do
    echo "== run $i/$COUNT: go test -bench BenchmarkStep -benchtime $BENCHTIME"
    run=$(go test -run '^$' -bench 'BenchmarkStep' -benchtime "$BENCHTIME" -count 1 .)
    echo "$run"
    raw="$raw
$run"
    i=$((i + 1))
done

# Benchmark lines end with: <ns/op> ns/op <inst/s> inst/s
super=$(echo "$raw" | awk '/^BenchmarkStep\/super/  {if ($(NF-1)+0 > best) best = $(NF-1)+0} END {print best}')
block=$(echo "$raw" | awk '/^BenchmarkStep\/block/  {if ($(NF-1)+0 > best) best = $(NF-1)+0} END {print best}')
legacy=$(echo "$raw" | awk '/^BenchmarkStep\/legacy/ {if ($(NF-1)+0 > best) best = $(NF-1)+0} END {print best}')

if [ -z "$super" ] || [ -z "$block" ] || [ -z "$legacy" ] ||
    [ "$super" = 0 ] || [ "$block" = 0 ] || [ "$legacy" = 0 ]; then
    echo "bench.sh: failed to parse benchmark output" >&2
    exit 1
fi

speedup=$(awk "BEGIN {printf \"%.2f\", $block / $legacy}")
super_vs_block=$(awk "BEGIN {printf \"%.2f\", $super / $block}")
super_vs_legacy=$(awk "BEGIN {printf \"%.2f\", $super / $legacy}")

cat > "$OUT" <<EOF
{
  "benchmark": "BenchmarkStep",
  "benchtime": "$BENCHTIME",
  "count": $COUNT,
  "baseline_legacy_ips": $legacy,
  "block_engine_ips": $block,
  "superblock_ips": $super,
  "speedup": $speedup,
  "superblock_speedup_vs_block": $super_vs_block,
  "superblock_speedup_vs_legacy": $super_vs_legacy
}
EOF

echo "== $OUT"
cat "$OUT"

if [ "${SKIP_FLEET:-0}" != 1 ]; then
    echo "== fleet wave benchmark: $FLEET_SERVICES services, -race"
    FLEET_BENCH_OUT="$FLEET_OUT" FLEET_BENCH_SERVICES="$FLEET_SERVICES" \
        go test -race -run TestFleetWaveBench -count 1 -timeout 60m ./internal/fleet
    echo "== $FLEET_OUT"
    cat "$FLEET_OUT"
fi

if [ "${SKIP_REPLACE:-0}" != 1 ]; then
    echo "== replacement benchmark: loopsim OSR ablation, $REPLACE_ROUNDS rounds"
    REPLACE_BENCH_OUT="$REPLACE_OUT" REPLACE_BENCH_ROUNDS="$REPLACE_ROUNDS" \
        go test -run TestReplaceBench -count 1 ./internal/diffcheck
    echo "== $REPLACE_OUT"
    cat "$REPLACE_OUT"
fi

if [ "${SKIP_DRIFT:-0}" != 1 ]; then
    echo "== drift benchmark: phase-shifting mt-kvcache, drift vs no-drift ablation"
    DRIFT_BENCH_OUT="$DRIFT_OUT" \
        go test -run TestDriftBench -count 1 -timeout 30m ./internal/experiments
    echo "== $DRIFT_OUT"
    cat "$DRIFT_OUT"
fi
