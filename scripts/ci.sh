#!/usr/bin/env sh
# Tier-1 gate: vet, build, and test (with the race detector) the whole
# module. Every PR must pass this before merge; see docs/testing.md.
set -eu

cd "$(dirname "$0")/.."

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Replay-based tests (fault sweep, fleet quarantine) dump the journal of
# any failing run here; upload_journals preserves them outside the
# cleaned-up tmpdir so a red CI run ships its own repros
# (docs/replay.md).
export OCOLOS_TEST_ARTIFACTS="${OCOLOS_TEST_ARTIFACTS:-$tmpdir/artifacts}"
mkdir -p "$OCOLOS_TEST_ARTIFACTS"
upload_journals() {
    if ls "$OCOLOS_TEST_ARTIFACTS"/*.jsonl >/dev/null 2>&1; then
        keep=$(mktemp -d "${TMPDIR:-/tmp}/ocolos-repro.XXXXXX")
        cp "$OCOLOS_TEST_ARTIFACTS"/*.jsonl "$keep/"
        echo "repro journals preserved in $keep:"
        ls "$keep"
    fi
}

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi
# One statement of ISA semantics per executor: Step and the trace engine.
[ "$(cat $(ls internal/proc/*.go | grep -v _test.go) | grep -c 'case isa\.ADD:')" -le 2 ] || { echo "internal/proc executes isa.ADD in more than two places (Step + the trace engine)"; exit 1; }
# One front-end entry in the timing model: Core.Fetch, no fetch twins.
[ "$(cat $(ls internal/cpu/*.go | grep -v _test.go) | grep -c '^func (c \*Core) Fetch')" -le 1 ] || { echo "internal/cpu declares more than one Core.Fetch* method (Fetch is the one front-end entry)"; exit 1; }
# One copy of each optimized image: a layout-cache hit shares the cached
# binary, so the controller never copies one (layout.Entry's contract).
if cat $(ls internal/core/*.go | grep -v _test.go) | grep -q '\.Clone()'; then
    echo "non-test internal/core calls .Clone(); the cached image is the one copy (layout.Entry)"; exit 1
fi
# One write-fault path in guest memory: the code watch that invalidates
# decoded traces is called where a write faults on a code page
# (writablePage) and where Unmap releases one, never once per store.
[ "$(cat $(ls internal/mem/*.go | grep -v _test.go) | grep -c 'codeWatch(')" -le 2 ] || { echo "non-test internal/mem calls codeWatch( in more than two places (writablePage + Unmap); a store must not call out"; exit 1; }
# One benchmark track: bench/ (run by BENCHMARK.json), no second harness.
if [ -e scripts/bench.sh ] || ls BENCH_*.json >/dev/null 2>&1 || grep -rq --include='*_test.go' '_BENCH_' .; then
    echo "a second benchmark track is back (scripts/bench.sh, a root BENCH_*.json or a *_test.go reading a *_BENCH_* env var); measure in bench/"; exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# The timing model's warm paths stay inlinable (docs/perf.md): a warm
# path the inliner rejects costs more than the event it elides, and a
# new call inside one is the usual way it stops inlining.
echo "== go build -gcflags=-m ./internal/cpu (warm paths inline)"
inlined=$(go build -gcflags=-m ./internal/cpu 2>&1 | sed -n 's/.*: can inline //p')
for fn in '(*Core).Fetch' '(*Core).MemFast' '(*Core).BranchJumpFast' '(*Core).BranchRetFast' \
    '(*Core).BranchCondNotTakenFast' '(*Core).RetireBulk' '(*Core).Retire' '(*lbrRing).record'; do
    echo "$inlined" | grep -qxF "$fn" || { echo "$fn no longer inlines (go build -gcflags=-m ./internal/cpu)"; exit 1; }
done
# Guest memory's page lookups inline too: writablePage, the write-fault
# path (copy-on-write and code pages), stays out of line so that page does (docs/perf.md "Shared
# image pages": with writablePage inlined, page did not inline, and
# wave_replicas' guest_mips was about 7 % lower).
echo "== go build -gcflags=-m ./internal/mem (page lookups inline)"
inlined=$(go build -gcflags=-m ./internal/mem 2>&1 | sed -n 's/.*: can inline //p')
for fn in '(*AddressSpace).page' '(*AddressSpace).peekPage'; do
    echo "$inlined" | grep -qxF "$fn" || { echo "$fn no longer inlines (go build -gcflags=-m ./internal/mem)"; exit 1; }
done

# The one full pass, under the race detector. It already runs every
# named gate the docs point at — the tracee-fault/quarantine waves and
# TestJournalProgramOrder (docs/fleet.md), the exhaustive fault and OSR
# sweeps (docs/robustness.md), TestSingleFlight, and the cycle-exact
# engine gate (docs/perf.md) — so none of them is re-run below; a red
# pass ships its repro journals.
echo "== go test -race ./..."
go test -race ./... || { upload_journals; exit 1; }

# The fleet manager and telemetry registry are the concurrency-heavy
# packages, and obj/layout/profile/mem/proc hold state goroutines share
# (binaries every replica reads, cache entries, the profile store ring,
# the image pages every process of a binary maps): run them twice more
# under the race detector to shake out scheduling-dependent
# interleavings (-short skips the full-scale single-service runs already
# covered above).
echo "== go test -race -count=2 -short ./internal/fleet ./internal/telemetry ./internal/obj ./internal/layout ./internal/profile ./internal/mem ./internal/proc"
go test -race -count=2 -short ./internal/fleet ./internal/telemetry ./internal/obj ./internal/layout ./internal/profile ./internal/mem ./internal/proc

# Timing-model oracle (see docs/testing.md): fuzz the recency-ordered
# cache and BTB against the stamp-LRU reference they replaced, beyond the
# committed seed corpus the ./... pass already ran.
echo "== go test -run '^\$' -fuzz FuzzLRUMatchesReference -fuzztime 10s ./internal/cpu"
go test -run '^$' -fuzz FuzzLRUMatchesReference -fuzztime 10s ./internal/cpu

# Decode oracle: both executors decode guest memory through isa.Decode,
# so fuzz it on arbitrary words beyond its committed seed corpus.
echo "== go test -run '^\$' -fuzz FuzzDecode -fuzztime 10s ./internal/isa"
go test -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/isa

# Pinned-relocation oracle: the optimizer relocates functions it does not
# move straight from their bytes; fuzz that path against lifting the
# function into a CFG and re-emitting it in its own order.
echo "== go test -run '^\$' -fuzz FuzzPinnedRelocation -fuzztime 10s ./internal/bolt"
go test -run '^$' -fuzz FuzzPinnedRelocation -fuzztime 10s ./internal/bolt

# Transactional-replacement gate (see docs/robustness.md): the sampled
# fault sweep proves every injected tracee fault rolls back
# bit-identically to the baseline (-short samples indices — a different
# code path from the exhaustive sweep the ./... pass ran).
echo "== go test -short -run TestFaultSweep ./internal/diffcheck"
go test -short -run TestFaultSweep ./internal/diffcheck || { upload_journals; exit 1; }

# Benchmark smoke (see bench/README.md): every workload through the
# traced pass, the mode the benchmark's per-layer run uses. The tier-1
# tests trace only churn_reopt, so a traced run that fails on another
# workload shows here, with its output.
echo "== go run ./bench -smoke -trace 1 (every workload)"
go build -o "$tmpdir/bench" ./bench
for w in paper_round churn_reopt wave_replicas drift_tenants; do
    "$tmpdir/bench" -smoke -trace 1 -workload "$w" >"$tmpdir/bench.out" 2>"$tmpdir/bench.err" ||
        { cat "$tmpdir/bench.err"; echo "bench -smoke -trace 1 -workload $w exited nonzero"; exit 1; }
    tail -n 1 "$tmpdir/bench.out" | grep -q '"correct":true' ||
        { cat "$tmpdir/bench.err"; echo "bench -smoke -trace 1 -workload $w did not report \"correct\":true"; exit 1; }
done

# Control-plane smoke (see docs/observability.md): boot the real fleetd
# with an ephemeral-port HTTP control plane and a minimal wave, scrape
# /healthz and /metrics while it runs, then shut it down with SIGTERM
# and require a clean exit.
echo "== fleetd -serve smoke"
go build -o "$tmpdir/fleetd" ./cmd/fleetd
"$tmpdir/fleetd" -serve 127.0.0.1:0 -replicas 1 -rounds 1 >"$tmpdir/log" 2>&1 &
fleetd_pid=$!
addr=
for _ in $(seq 1 100); do
    addr=$(sed -n 's,.*serving control plane on http://,,p' "$tmpdir/log")
    [ -n "$addr" ] && break
    kill -0 "$fleetd_pid" 2>/dev/null || { cat "$tmpdir/log"; echo "fleetd exited before serving"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { cat "$tmpdir/log"; echo "fleetd never printed its address"; exit 1; }
curl -sf "http://$addr/healthz" | grep -q '^ok$' || { echo "/healthz failed"; exit 1; }
curl -sf "http://$addr/metrics" >"$tmpdir/metrics" || { echo "/metrics failed"; exit 1; }
grep -q '^fleet_services ' "$tmpdir/metrics" || { cat "$tmpdir/metrics"; echo "fleet_services missing from /metrics"; exit 1; }
curl -sf "http://$addr/services" >/dev/null || { echo "/services failed"; exit 1; }
curl -sf "http://$addr/cache" | grep -q '"enabled": true' || { echo "/cache failed"; exit 1; }
kill -TERM "$fleetd_pid"
wait "$fleetd_pid" || { cat "$tmpdir/log"; echo "fleetd did not exit cleanly"; exit 1; }
echo "control plane smoke OK ($addr)"

# Drift smoke (see docs/profiling.md): boot fleetd with streaming
# profiles and the drift watch on, run the initial wave, then push an
# external LBR batch through POST /profile whose hot set diverges from
# the layout's build profile. The watch must score the divergence, fire
# a re-optimization round, and surface it as a reopt count on
# /services — the whole streamed-ingest → drift → re-opt path, over the
# real HTTP control plane.
echo "== fleetd drift smoke"
"$tmpdir/fleetd" -serve 127.0.0.1:0 -drift -drift-every 100ms -replicas 1 -rounds 1 \
    >"$tmpdir/driftlog" 2>&1 &
drift_pid=$!
for _ in $(seq 1 300); do
    grep -q 'drift watch scanning' "$tmpdir/driftlog" && break
    kill -0 "$drift_pid" 2>/dev/null || { cat "$tmpdir/driftlog"; echo "fleetd exited before the drift watch"; exit 1; }
    sleep 0.1
done
grep -q 'drift watch scanning' "$tmpdir/driftlog" ||
    { cat "$tmpdir/driftlog"; echo "drift watch never started"; exit 1; }
addr=$(sed -n 's,.*serving control plane on http://,,p' "$tmpdir/driftlog")

# The live store tells us a genuinely hot edge of the service's current
# layout and the stream clock; concentrating the pushed profile on that
# one edge moves most of the profile mass (high total-variation score)
# while keeping every address resolvable by perf2bolt.
svc_path='sqldb/read_only%230' # sqldb/read_only#0, URL-encoded
doc=$(curl -sf "http://$addr/profile?service=$svc_path&top=5") ||
    { cat "$tmpdir/driftlog"; echo "GET /profile failed"; exit 1; }
from=$(echo "$doc" | sed -n 's/.*"from": \([0-9][0-9]*\).*/\1/p' | head -1)
to=$(echo "$doc" | sed -n 's/.*"to": \([0-9][0-9]*\).*/\1/p' | head -1)
now=$(echo "$doc" | sed -n 's/.*"now": \([0-9.e+-]*\),*/\1/p' | head -1)
[ -n "$from" ] && [ -n "$to" ] && [ -n "$now" ] ||
    { echo "$doc"; echo "could not parse /profile status"; exit 1; }
body=$(awk -v f="$from" -v t="$to" -v n="$now" 'BEGIN {
    printf "{\"service\": \"sqldb/read_only#0\", \"samples\": [{\"at\": %.6f, \"records\": [", n + 0.0025
    for (i = 0; i < 64; i++) printf "%s{\"from\": %s, \"to\": %s}", (i ? "," : ""), f, t
    printf "]}]}"
}')
curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "http://$addr/profile" >/dev/null ||
    { cat "$tmpdir/driftlog"; echo "POST /profile failed"; exit 1; }

reopted=
for _ in $(seq 1 300); do
    if curl -sf "http://$addr/services" | grep -q '"reopts": [1-9]'; then
        reopted=1
        break
    fi
    kill -0 "$drift_pid" 2>/dev/null || { cat "$tmpdir/driftlog"; echo "fleetd died mid-drift-watch"; exit 1; }
    sleep 0.1
done
[ -n "$reopted" ] ||
    { cat "$tmpdir/driftlog"; curl -sf "http://$addr/services"; echo "drift push never produced a re-opt round"; exit 1; }
kill -TERM "$drift_pid"
wait "$drift_pid" || { cat "$tmpdir/driftlog"; echo "fleetd did not exit cleanly after the drift watch"; exit 1; }
echo "drift smoke OK"

echo "CI OK"
