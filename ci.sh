#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
#
# Usage: ./ci.sh [--release]
#
# The workspace flag matters: the repo root is both the `mega-mmap`
# meta-crate and the workspace root, so a bare `cargo test` would only
# run the root package's suites.
set -euo pipefail
cd "$(dirname "$0")"

PROFILE=()
if [[ "${1:-}" == "--release" ]]; then
    PROFILE=(--release)
elif [[ $# -gt 0 ]]; then
    echo "usage: $0 [--release]" >&2
    exit 2
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets "${PROFILE[@]}" -- -D warnings

echo "==> mm-lint (workspace invariants, deny-by-default)"
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root .

echo "==> mm-lint deny (licenses + duplicate versions)"
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root . deny

echo "==> mm-lint --check-allow (no stale allowlist entries)"
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root . --check-allow

echo "==> mm-lint graph (lock graph clean + committed artifact up to date)"
# Regenerates results/lock_graph.{json,dot} and fails on any non-allowlisted
# lock-order violation, rank cycle, or hold-across-I/O finding. The second
# run plus git-diff pins both determinism and artifact freshness: a PR that
# changes the lock structure must commit the regenerated graph.
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root . graph
cp results/lock_graph.json /tmp/lock_graph.ci.a.json
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root . graph
diff -q /tmp/lock_graph.ci.a.json results/lock_graph.json
git diff --exit-code -- results/lock_graph.json results/lock_graph.dot \
    || { echo "results/lock_graph.{json,dot} out of date; commit the regenerated graph" >&2; exit 1; }

echo "==> cargo test"
cargo test -q --workspace "${PROFILE[@]}"

echo "==> stage-out oracles (dirty index vs model; counting backend: no sync per pass)"
# Both also run in the workspace pass above; naming them here keeps a
# rename or a filtered-out test from silently dropping the two checks the
# incremental stage-out rests on.
cargo test -q -p megammap-tiered "${PROFILE[@]}" --test dirty_index dirty_index_matches_model
cargo test -q -p megammap "${PROFILE[@]}" --lib stager::tests::background_pass_writes_only_dirty_bytes_and_never_syncs
cargo test -q -p megammap "${PROFILE[@]}" --lib stager::tests::journaled_vector_syncs_before_every_truncate

echo "==> loom model checks (resource / dlock / page merge)"
cargo test -q -p megammap-sim --features loom-model "${PROFILE[@]}" --test loom_resource
cargo test -q -p megammap-cluster --features loom-model "${PROFILE[@]}" --test loom_dlock
cargo test -q -p megammap-tiered --features loom-model "${PROFILE[@]}" --test loom_page

echo "==> loom model checks (commit-vs-writeback / drain / ownership races)"
cargo test -q -p megammap --features loom-model "${PROFILE[@]}" --lib loom_

if rustup component list 2>/dev/null | grep -q "^miri.*(installed)"; then
    echo "==> miri (pagebuf + rangeset unit tests)"
    cargo miri test -p megammap pagebuf::
    cargo miri test -p megammap-tiered rangeset::
else
    echo "==> miri unavailable (component not installed); skipping"
fi

echo "==> trace determinism (byte-identical trace_json + metrics_csv)"
cargo test -q -p megammap "${PROFILE[@]}" --test trace_determinism

echo "==> mm_trace smoke run (deterministic Perfetto trace)"
cargo build -q -p megammap-bench "${PROFILE[@]}" --bin mm_trace
if [[ "${1:-}" == "--release" ]]; then
    MM_TRACE_BIN=target/release/mm_trace
else
    MM_TRACE_BIN=target/debug/mm_trace
fi
"$MM_TRACE_BIN" > /tmp/mm_trace.ci.a.txt
cp results/mm_trace.perfetto.json /tmp/mm_trace.ci.a.json
"$MM_TRACE_BIN" > /tmp/mm_trace.ci.b.txt
diff -q /tmp/mm_trace.ci.a.txt /tmp/mm_trace.ci.b.txt
diff -q /tmp/mm_trace.ci.a.json results/mm_trace.perfetto.json
python3 -c "import json,sys; d=json.load(open('results/mm_trace.perfetto.json')); sys.exit(0 if d['traceEvents'] else 1)" \
    || { echo "mm_trace emitted an empty or invalid Perfetto trace" >&2; exit 1; }

echo "==> mm_report determinism (byte-identical stdout under real concurrency)"
cargo build -q -p megammap-bench "${PROFILE[@]}" --bin mm_report
if [[ "${1:-}" == "--release" ]]; then
    MM_REPORT_BIN=target/release/mm_report
else
    MM_REPORT_BIN=target/debug/mm_report
fi
# Guards the report's filtering of order-dependent quantities (histogram
# sums, modeled lock waits): only conserved counters may reach stdout.
"$MM_REPORT_BIN" > /tmp/mm_report.ci.a.txt 2> /dev/null
"$MM_REPORT_BIN" > /tmp/mm_report.ci.b.txt 2> /dev/null
diff -q /tmp/mm_report.ci.a.txt /tmp/mm_report.ci.b.txt

echo "==> mm_chaos scenario matrix (fault runs must bit-match fault-free runs)"
cargo build -q -p megammap-chaos "${PROFILE[@]}" --bin mm_chaos
if [[ "${1:-}" == "--release" ]]; then
    MM_CHAOS_BIN=target/release/mm_chaos
else
    MM_CHAOS_BIN=target/debug/mm_chaos
fi
# Same seed twice: every scenario must pass AND stdout must be
# byte-identical (the whole point of virtual-clock fault injection).
"$MM_CHAOS_BIN" > /tmp/mm_chaos.ci.a.txt 2> /dev/null
"$MM_CHAOS_BIN" > /tmp/mm_chaos.ci.b.txt 2> /dev/null
diff -q /tmp/mm_chaos.ci.a.txt /tmp/mm_chaos.ci.b.txt

echo "==> mm_serve QoS scenario (deterministic double run + verdict)"
cargo build -q -p megammap-serve "${PROFILE[@]}" --bin mm_serve
if [[ "${1:-}" == "--release" ]]; then
    MM_SERVE_BIN=target/release/mm_serve
else
    MM_SERVE_BIN=target/debug/mm_serve
fi
# Same seed twice: exit 0 means the QoS verdict passed (interactive fault
# p99 strictly better than --no-qos, budgets held); stdout must be
# byte-identical across the runs (stderr may carry timing diagnostics).
"$MM_SERVE_BIN" > /tmp/mm_serve.ci.a.txt 2> /dev/null
"$MM_SERVE_BIN" > /tmp/mm_serve.ci.b.txt 2> /dev/null
diff -q /tmp/mm_serve.ci.a.txt /tmp/mm_serve.ci.b.txt

echo "==> mm_serve telemetry overhead (< 2% on the serving fast path)"
"$MM_SERVE_BIN" --overhead-check

echo "==> mm_scope observatory (same-seed double run, byte-identical report)"
# The contention/hot-spot report is deterministic by construction
# (barrier-serialized, virtual-time counters only); the binary itself
# exits non-zero unless the seeded hot page tops the heavy-hitter sketch.
cargo build -q --release -p megammap-bench --bin mm_scope
target/release/mm_scope > /tmp/mm_scope.ci.a.txt 2> /dev/null
target/release/mm_scope > /tmp/mm_scope.ci.b.txt 2> /dev/null
diff -q /tmp/mm_scope.ci.a.txt /tmp/mm_scope.ci.b.txt

echo "==> lock-graph cross-check (observed lock edges ⊆ static graph)"
# The static analyzer claims to over-approximate runtime lock nesting;
# this makes the claim falsifiable. mm_scope re-runs with edge observation
# on (stdout is unchanged — verified against the double-run capture above)
# and mm-lint asserts every dynamically observed edge is in the static
# graph. A miss means a summary-builder soundness bug (severed call chain).
target/release/mm_scope --emit-lock-edges /tmp/mm_scope.ci.edges.json > /tmp/mm_scope.ci.c.txt 2> /dev/null
diff -q /tmp/mm_scope.ci.a.txt /tmp/mm_scope.ci.c.txt
cargo run -q -p mm-lint "${PROFILE[@]}" -- --root . crosscheck /tmp/mm_scope.ci.edges.json

echo "==> mm_ann search sweep (deterministic double run + recall floors)"
cargo build -q -p megammap-ann "${PROFILE[@]}" --bin mm_ann
if [[ "${1:-}" == "--release" ]]; then
    MM_ANN_BIN=target/release/mm_ann
else
    MM_ANN_BIN=target/debug/mm_ann
fi
# Exit 0 means the recall floors held (flat recall@10 >= 0.90 at the
# default config, PQ recall@10 >= 0.85 at the smallest pcache cap) and the
# smallest cap showed the flat-thrashes-while-PQ-sustains contrast; stdout
# must be byte-identical across the two runs (virtual time + conserved
# counters only).
"$MM_ANN_BIN" > /tmp/mm_ann.ci.a.txt 2> /dev/null
"$MM_ANN_BIN" > /tmp/mm_ann.ci.b.txt 2> /dev/null
diff -q /tmp/mm_ann.ci.a.txt /tmp/mm_ann.ci.b.txt

echo "==> cargo bench --no-run (benches must compile)"
cargo bench --workspace --no-run

echo "==> bench gate (mm_bench --compare against the committed baseline)"
# Wall-clock floors are only comparable across release builds, so this
# stage always builds mm_bench in release regardless of the CI profile.
# The compare gates: fault path +10% (narrow, wide and the sketch's
# eviction path alone), one background stage-out pass +10%, pcache hit
# +15%, fault p99 +20%, queue-delay p99 +20%, ann PQ search p99 +20%, ann
# PQ bytes-faulted per query +20%, telemetry overhead <= 2% absolute (re-measured with the
# contention profiler compiled in and enabled), weak-scaling efficiency
# >= 0.5 at the largest scale_path point, and the ann_path recall floors
# (flat >= 0.90, PQ >= 0.85).
BASELINE=$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1 || true)
if [[ -z "$BASELINE" ]]; then
    echo "no committed BENCH_<date>.json baseline; skipping bench gate" >&2
else
    cargo build -q --release -p megammap-bench --bin mm_bench
    MM_BENCH_OUT=/tmp/mm_bench.ci.json target/release/mm_bench > /dev/null
    target/release/mm_bench --compare "$BASELINE" /tmp/mm_bench.ci.json
fi

echo "CI gate passed."
