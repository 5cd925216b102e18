#!/usr/bin/env bash
# Offline CI gate: build, test, lint — exactly what the tier-1 check runs,
# plus clippy with warnings denied and the opt-in bench harness compile.
#
# Everything here works without network access: the workspace vendors its
# few external dependencies under vendor/ (see the workspace Cargo.toml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q (workspace)"
cargo test --workspace -q --offline

# The benchmark is a crate of its own, outside the workspace: run its
# unit tests too, so the harness behind the perf gates stays correct.
echo "==> cargo test (benchmark harness, perfbench/)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy -D warnings (all targets)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# `--all-targets` skips the Criterion benches, which need the opt-in
# `bench-harness` feature: lint them with the feature on.
echo "==> cargo clippy -D warnings (feature-gated benches)"
cargo clippy -p tcm-bench --benches --features bench-harness --offline -- -D warnings

# Debug builds always run the DRAM protocol checker; this release-mode
# pass force-enables it via TCM_VERIFY so the optimized build is also
# checked (the checker is observation-only, results are bit-identical).
echo "==> cargo test --release with the protocol checker forced on"
TCM_VERIFY=1 cargo test -q --release --offline -p tcm-sim -p tcm-dram

# The goldens in the build the benchmark measures: the fat-LTO release
# profile, with the protocol checker on. Speed work on the per-request
# kernels must hold every fingerprint in this build too, not only in
# the debug build of the workspace test leg.
echo "==> release-build goldens (tests/golden_fingerprints.rs)"
TCM_VERIFY=1 cargo test --release --offline --test golden_fingerprints

# Fault-injection smoke: every chaos fault class at a fixed seed must be
# caught by exactly its mapped detector, and the zero-fault control must
# finish clean and bit-identical to a run without the chaos layer.
echo "==> chaos smoke campaign"
cargo run --release -q -p tcm-serve --bin tcm-run --offline -- --chaos-smoke

# The same campaign on a sharded 2x2 multi-controller machine: all ten
# fault classes (including the coordination kinds, which only exist
# there), faults addressed to the last controller/channel to prove
# topology-aware routing, and a clean control pinning 1-vs-3-host
# bit-identity under the armed detectors.
echo "==> chaos smoke campaign (2x2 topology, 3 intra-cell hosts)"
cargo run --release -q -p tcm-serve --bin tcm-run --offline -- \
    --chaos-smoke --topology 2x2 --intra-hosts 3

# Multi-controller smoke: the paper lineup on a 2x2 topology (TCM cells
# coordinated by the meta-controller), with the protocol checker on and
# each cell's controller phase sharded across two host threads — the
# sharding is required to be bit-identical to sequential stepping, which
# tests/golden_fingerprints.rs and tests/determinism.rs pin exactly.
echo "==> multi-controller topology smoke (2x2, sharded, verified)"
cargo run --release -q -p tcm-serve --bin tcm-run --offline -- \
    --topology 2x2 --threads 8 --cycles 1200000 \
    --intra-hosts 2 --verify >/dev/null

# Telemetry trace smoke: run one TCM cell with tracing and metrics
# enabled and validate the emitted schemas — JSONL event lines, the
# Perfetto-loadable Chrome array, and the tcm-metrics-v1 document.
echo "==> telemetry trace smoke (jsonl + chrome + metrics schema)"
TRACE_TMP=$(mktemp -d)
SERVE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP" "$SERVE_TMP"' EXIT
cargo run --release -q -p tcm-serve --bin tcm-run --offline -- \
    --workload A --cycles 1200000 --policies tcm \
    --trace "$TRACE_TMP/trace.jsonl" \
    --metrics-json "$TRACE_TMP/metrics.json" >/dev/null
cargo run --release -q -p tcm-serve --bin tcm-run --offline -- \
    --workload A --cycles 1200000 --policies tcm \
    --trace "$TRACE_TMP/trace.chrome" --trace-format chrome >/dev/null
python3 - "$TRACE_TMP" <<'PY'
import json
import sys

tmp = sys.argv[1]

# JSONL: every line is a flat JSON object with an "event" tag; the
# quantum horizon guarantees boundary + clustering + service events.
kinds = set()
with open(f"{tmp}/trace.jsonl") as f:
    for n, line in enumerate(f, 1):
        obj = json.loads(line)
        if "event" not in obj:
            sys.exit(f"trace.jsonl:{n}: missing 'event' tag")
        if obj["event"] != "cell_begin" and "cycle" not in obj:
            sys.exit(f"trace.jsonl:{n}: missing 'cycle'")
        kinds.add(obj["event"])
for required in ("cell_begin", "quantum_boundary", "cluster_assignment",
                 "shuffle_applied", "request_serviced", "bank_activate"):
    if required not in kinds:
        sys.exit(f"trace.jsonl: no {required!r} events (got {sorted(kinds)})")

# Chrome trace: one JSON array of instant/metadata/counter events.
with open(f"{tmp}/trace.chrome") as f:
    entries = json.load(f)
phases = {e.get("ph") for e in entries}
if not {"i", "M", "C"} <= phases:
    sys.exit(f"trace.chrome: expected i/M/C phases, got {sorted(phases)}")
if not any(e.get("ph") == "M" and e.get("name") == "process_name"
           for e in entries):
    sys.exit("trace.chrome: missing process_name metadata")

# Metrics document: schema + the headline TCM observables.
with open(f"{tmp}/metrics.json") as f:
    doc = json.load(f)
if doc.get("schema") != "tcm-metrics-v1":
    sys.exit(f"metrics.json: unexpected schema {doc.get('schema')!r}")
if not doc.get("cells"):
    sys.exit("metrics.json: no cells")
cell = doc["cells"][0]
if "row_hit_rate" not in cell["gauges"]:
    sys.exit("metrics.json: missing row_hit_rate gauge")
if "queue_depth" not in cell["histograms"]:
    sys.exit("metrics.json: missing queue_depth histogram")
for cluster in ("latency", "bandwidth"):
    if f"bw_share{{cluster={cluster}}}" not in cell["series"]:
        sys.exit(f"metrics.json: missing bw_share series for {cluster}")
print(f"trace smoke ok: {len(kinds)} event kinds, "
      f"{len(entries)} chrome entries, "
      f"{len(cell['counters'])} counters / {len(cell['series'])} series")
PY

# Service smoke: the daemon's crash-recovery and drain SLOs end to end,
# with real signals. One daemon is SIGTERM-drained after finishing a
# grid (must exit 0 and remove its socket); a second running the same
# grid is SIGKILLed mid-sweep and restarted on the same state directory
# — the WAL re-admits the job and the merged result file must be
# byte-identical to the uninterrupted daemon's.
echo "==> tcm-serve smoke (SIGKILL recovery, SIGTERM drain)"
SERVE_BIN=target/release/tcm-run
SOCK="$SERVE_TMP/sock"
# Sized so the sweep takes a couple of seconds: the kill below must
# land mid-run, not after a finished job (the engine clears ~150M
# sim-cycles/sec, so a small grid would finish before the signal).
GRID=(--policies fr-fcfs,tcm --workloads random:5:4:0.75 --seeds 0,17
      --cycles 30000000)

wait_for_socket() {
    for _ in $(seq 200); do
        [[ -S "$SOCK" ]] && return 0
        sleep 0.05
    done
    echo "daemon socket $SOCK never appeared" >&2
    return 1
}

# Reference: an uninterrupted daemon runs the grid, then drains on
# SIGTERM. `set -e` gates the exit-0 contract on the `wait`.
"$SERVE_BIN" serve --socket "$SOCK" --state-dir "$SERVE_TMP/ref" --workers 1 &
SERVE_PID=$!
wait_for_socket
"$SERVE_BIN" client --socket "$SOCK" submit "${GRID[@]}" --watch >/dev/null
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
if [[ -e "$SOCK" ]]; then
    echo "drained daemon left its socket behind" >&2
    exit 1
fi

# Crash: the same grid, but the daemon takes a real `kill -9` mid-sweep.
"$SERVE_BIN" serve --socket "$SOCK" --state-dir "$SERVE_TMP/crash" --workers 1 &
SERVE_PID=$!
wait_for_socket
"$SERVE_BIN" client --socket "$SOCK" submit "${GRID[@]}" >/dev/null
sleep 0.4 # let the worker get well into the sweep
kill -KILL "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true # exits 137: that is the point
rm -f "$SOCK"

# Restart on the same state directory: the WAL re-admits job 1, the
# checkpoint restores whatever cells survived, and the result must be
# byte-identical to the uninterrupted run.
"$SERVE_BIN" serve --socket "$SOCK" --state-dir "$SERVE_TMP/crash" --workers 1 &
SERVE_PID=$!
wait_for_socket
"$SERVE_BIN" client --socket "$SOCK" watch 1 >/dev/null
cmp "$SERVE_TMP/ref/job-1.result.json" "$SERVE_TMP/crash/job-1.result.json"
"$SERVE_BIN" client --socket "$SOCK" drain >/dev/null
wait "$SERVE_PID"
echo "serve smoke ok: recovery byte-identical, both drains exited 0"

# Metrics smoke: the daemon's whole observability surface end to end —
# Prometheus exposition over the socket and via --metrics-file, the
# `top --once` dashboard snapshot, and the recovery counters after a
# real `kill -9` restart.
echo "==> tcm-serve metrics smoke (exposition, top --once, kill -9 counters)"
SOCK="$SERVE_TMP/msock"
MDIR="$SERVE_TMP/mstate"
MFLAGS=(--socket "$SOCK" --state-dir "$MDIR" --workers 1
        --metrics-file "$SERVE_TMP/scrape.prom")
"$SERVE_BIN" serve "${MFLAGS[@]}" &
SERVE_PID=$!
wait_for_socket
"$SERVE_BIN" client --socket "$SOCK" submit --policies fr-fcfs,tcm \
    --workloads random:5:4:0.75 --seeds 0 --cycles 2000000 --watch >/dev/null
"$SERVE_BIN" client --socket "$SOCK" metrics > "$SERVE_TMP/exposition.txt"
"$SERVE_BIN" top --socket "$SOCK" --once > "$SERVE_TMP/top.txt"
grep -q "tcm-serve top" "$SERVE_TMP/top.txt"
grep -q "done" "$SERVE_TMP/top.txt"
[[ -s "$SERVE_TMP/scrape.prom" ]] # startup republish happened
grep -q "tcm_serve_uptime_seconds" "$SERVE_TMP/scrape.prom"
python3 - "$SERVE_TMP/exposition.txt" <<'PY'
import sys

families = {}   # name -> type
samples = {}    # full key (name{labels}) -> float
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            if kind not in ("counter", "gauge", "histogram"):
                sys.exit(f"line {n}: unknown TYPE {kind!r}")
            families[name] = kind
            continue
        if line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
        base = key.split("{")[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in families:
                base = base[: -len(suffix)]
        if base not in families:
            sys.exit(f"line {n}: sample {key!r} has no # TYPE header")

for required, kind in (
    ("tcm_serve_jobs_submitted_total", "counter"),
    ("tcm_serve_jobs_completed_total", "counter"),
    ("tcm_serve_cells_completed_total", "counter"),
    ("tcm_serve_wal_appended_records_total", "counter"),
    ("tcm_serve_queue_depth", "gauge"),
    ("tcm_serve_queue_capacity", "gauge"),
    ("tcm_serve_workers", "gauge"),
    ("tcm_serve_uptime_seconds", "gauge"),
    ("tcm_serve_job_duration_ms", "histogram"),
):
    if families.get(required) != kind:
        sys.exit(f"{required}: expected {kind}, got {families.get(required)!r}")

if samples['tcm_serve_jobs_completed_total{state="done"}'] != 1.0:
    sys.exit("expected exactly one done job")
if samples["tcm_serve_cells_completed_total"] != 2.0:
    sys.exit("expected 2 completed cells (2 policies x 1 seed)")
if samples['tcm_serve_job_duration_ms_count{state="done"}'] < 1.0:
    sys.exit("job latency histogram is empty")

# Histogram buckets must be cumulative and end at +Inf == _count.
buckets = [
    (k, v) for k, v in samples.items()
    if k.startswith('tcm_serve_job_duration_ms_bucket{state="done"')
]
values = [v for _, v in buckets]
if values != sorted(values):
    sys.exit("histogram buckets are not cumulative")
inf = [v for k, v in buckets if 'le="+Inf"' in k]
if inf != [samples['tcm_serve_job_duration_ms_count{state="done"}']]:
    sys.exit("+Inf bucket does not equal _count")
print(f"metrics smoke ok: {len(families)} families, {len(samples)} samples")
PY

# kill -9 mid-sweep, restart on the same state dir: the scrape must now
# carry the recovery story (replayed WAL jobs, re-admissions).
"$SERVE_BIN" client --socket "$SOCK" submit "${GRID[@]}" >/dev/null
sleep 0.4
kill -KILL "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
rm -f "$SOCK"
"$SERVE_BIN" serve "${MFLAGS[@]}" &
SERVE_PID=$!
wait_for_socket
"$SERVE_BIN" client --socket "$SOCK" watch 2 >/dev/null
"$SERVE_BIN" client --socket "$SOCK" metrics > "$SERVE_TMP/exposition2.txt"
python3 - "$SERVE_TMP/exposition2.txt" <<'PY'
import sys
samples = {}
with open(sys.argv[1]) as f:
    for line in f:
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.rstrip("\n").rpartition(" ")
        samples[key] = float(value)
if samples.get("tcm_serve_wal_replayed_jobs_total", 0) < 1:
    sys.exit("restarted daemon replayed no WAL jobs")
if samples.get("tcm_serve_jobs_readmitted_total", 0) < 1:
    sys.exit("restarted daemon re-admitted no jobs")
print("restart counters ok: WAL replay visible in the scrape")
PY
"$SERVE_BIN" client --socket "$SOCK" drain >/dev/null
wait "$SERVE_PID"
echo "metrics smoke ok: exposition valid, top rendered, recovery counted"

echo "==> bench harness compiles (feature-gated)"
cargo build --benches -p tcm-bench --features bench-harness --offline

# Times the fixed paper-lineup sweep on both request-queue builds and
# validates the JSON schema of BENCH_hotpath.json. Absolute numbers are
# NOT gated — machines differ — only the record's shape and consistency.
echo "==> bench smoke run (schema validation)"
scripts/bench.sh --smoke

# The committed record must carry the multi-vs-flat gap so the windowed
# engine's cost is tracked release-over-release, not eyeballed. (The
# smoke run above validates its own scratch record; this checks the
# committed one that ships with the repo.)
echo "==> committed BENCH_hotpath.json records the multi-engine gap"
python3 - <<'PY'
import json
with open("BENCH_hotpath.json") as f:
    committed = json.load(f)
ratio = committed.get("multi_over_flat_ratio")
if not isinstance(ratio, float) or not ratio > 0.0:
    raise SystemExit(
        f"BENCH_hotpath.json: multi_over_flat_ratio {ratio!r} missing or "
        f"not a positive float — regenerate with scripts/bench.sh")
print(f"multi_over_flat_ratio recorded: {ratio:.3f}")
PY

echo "All checks passed."
