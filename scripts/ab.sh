#!/usr/bin/env bash
# Same-host A/B of the repository benchmark: the working tree against a
# base revision, in interleaved pairs.
#
#   scripts/ab.sh <base-rev> [workload] [pairs] [seconds]
#
# The base revision is checked out as a detached git worktree under
# target/ab/base, and each tree builds perfbench into its own
# CARGO_TARGET_DIR (target/ab/target-base, target/ab/target-head), so
# neither build invalidates the other. Each pair runs
# `perfbench/run.py --workload <workload> --seed <pair> --seconds <seconds>`
# once per tree; the tree that goes first alternates between pairs, so a
# drifting host penalises both sides alike.
#
# For every end-to-end metric BENCHMARK.json declares, the summary gives
# the base and head medians, the median of the per-pair head/base ratios,
# the base runs' interquartile range (absolute and as a fraction of the
# base median), and how many pairs head won in the metric's better
# direction. A run that exits non-zero, prints no result line, or reports
# `"correct": false` counts as failed, and its pair is left out.
#
# Defaults: workload fig9_matrix, 10 pairs, 10 seconds per run. Remove the
# worktree afterwards with `git worktree remove target/ab/base`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ "$1" = "-h" ] || [ "$1" = "--help" ]; then
    sed -n '2,23p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
base_rev=$1
workload=${2:-fig9_matrix}
pairs=${3:-10}
seconds=${4:-10}

root=$(pwd)
ab="$root/target/ab"
mkdir -p "$ab"
rev=$(git rev-parse --verify "$base_rev^{commit}")
if [ -d "$ab/base" ]; then
    git -C "$ab/base" checkout -q --detach "$rev"
else
    git worktree add -q --detach "$ab/base" "$rev"
fi
echo "base $(git -C "$ab/base" log --oneline -1)" >&2
echo "head $(git log --oneline -1) + working tree" >&2

out="$ab/results-$workload"
rm -rf "$out"
mkdir -p "$out"

# run <tree-name> <tree-root> <pair>: one benchmark run; its last stdout
# line (the result JSON, or nothing on failure) goes to the results dir.
run() {
    local name=$1 tree=$2 pair=$3
    local log="$out/$name-$pair.log"
    echo "pair $pair: $name" >&2
    if CARGO_TARGET_DIR="$ab/target-$name" python3 "$tree/perfbench/run.py" \
        --workload "$workload" --seed "$pair" --seconds "$seconds" >"$log"; then
        tail -n 1 "$log" >"$out/$name-$pair.json"
    else
        : >"$out/$name-$pair.json"
    fi
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run base "$ab/base" "$pair"
        run head "$root" "$pair"
    else
        run head "$root" "$pair"
        run base "$ab/base" "$pair"
    fi
done

python3 - "$out" "$pairs" "$root/BENCHMARK.json" "$workload" <<'PY'
import json, statistics, sys

out, pairs, spec, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
metrics = json.load(open(spec))["end_to_end"]

def load(name, pair):
    try:
        r = json.loads(open(f"{out}/{name}-{pair}.json").read())
    except (OSError, ValueError):
        return None
    return r if r.get("correct") is True else None

runs = [(load("base", p), load("head", p)) for p in range(1, pairs + 1)]
failed = {side: sum(r[i] is None for r in runs) for i, side in enumerate(("base", "head"))}
ok = [(b, h) for b, h in runs if b and h]

def quartiles(v):
    q = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else [v[0]] * 3
    return q[0], q[2]

print(f"{workload}: {len(ok)} of {pairs} pairs usable; failed runs: "
      f"base {failed['base']}, head {failed['head']}")
if not ok:
    sys.exit(1)
print(f"{'metric':<12} {'base med':>12} {'head med':>12} {'ratio med':>10} "
      f"{'base IQR':>12} {'IQR/med':>8} {'wins':>6}")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    base = [b["metrics"][name]["value"] for b, _ in ok]
    head = [h["metrics"][name]["value"] for _, h in ok]
    ratios = [h / b for b, h in zip(base, head) if b]
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    q1, q3 = quartiles(base)
    med = statistics.median(base)
    print(f"{name:<12} {med:>12.4g} {statistics.median(head):>12.4g} "
          f"{statistics.median(ratios) if ratios else float('nan'):>10.3f} "
          f"{q3 - q1:>12.4g} {(q3 - q1) / med if med else float('nan'):>8.3f} "
          f"{wins:>3}/{len(ok):<2}")
PY
