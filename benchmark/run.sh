#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
#
# With --workload: one workload in one process; the last line of standard
# output is the result object (see README.md). Without: every workload in
# turn, each in a process of its own. Exits non-zero if the build fails or
# any output check fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One malloc arena: with glibc's per-thread arenas the peak resident set
# depends on which arena each short-lived process thread happens to get
# (±15 % between identical runs); with one it repeats within 1 %.
export MALLOC_ARENA_MAX=1

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/mm-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
status=0
for w in kmeans_seq gs_tiered rand_read rand_update share_2node; do
    "$bin" --workload "$w" "$@" || status=1
done
exit $status
