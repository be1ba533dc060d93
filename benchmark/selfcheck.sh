#!/usr/bin/env bash
# Two sets of three runs of the same build, per workload, at the run length
# BENCHMARK.json fixes. The sets alternate (A1 B1 A2 B2 A3 B3), each run
# with a seed of its own, so that slow drift of the host lands on both
# alike. Prints, per workload and end-to-end metric, both medians, their
# relative difference and the spread of the six runs (interquartile distance
# over median) as a markdown table, and fails if a difference exceeds the
# metric's bound in BENCHMARK.json.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec python3 - <<'EOF'
import json
import statistics
import subprocess
import sys

RUNS_PER_SET = 3
spec = json.load(open("BENCHMARK.json"))


def run(workload, seed):
    out = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output check failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


bad = 0
print("| workload | metric | median A | median B | B vs A | spread | bound |")
print("|---|---|---|---|---|---|---|")
for w in (w["name"] for w in spec["workloads"]):
    sets = ([], [])
    for i in range(RUNS_PER_SET):
        for s in (0, 1):
            sets[s].append(run(w, 1 + 2 * i + s))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = ([r[name] for r in runs] for runs in sets)
        ma, mb = statistics.median(a), statistics.median(b)
        diff = (mb - ma) / ma
        q1, _, q3 = statistics.quantiles(a + b, n=4)
        flag = "" if abs(diff) <= bound else " DISAGREE"
        bad += bool(flag)
        print(f"| `{w}` | `{name}` | {ma:.6g} | {mb:.6g} | {diff:+.2%} | "
              f"{(q3 - q1) / statistics.median(a + b):.2%} | {bound:.0%}{flag} |", flush=True)
sys.exit(1 if bad else 0)
EOF
