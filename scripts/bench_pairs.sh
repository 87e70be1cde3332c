#!/usr/bin/env bash
# Alternated parent/change pairs of one benchmark workload.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SEED0 [--smoke]
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository (the same
# one twice is an A/A run). Each side runs through its own
# `benchmark/run.sh` single-run form,
#   run.sh --workload WORKLOAD --seed N --seconds 10 --trace 0
# built into its own `benchmark/target`. Pair i uses seed SEED0 + i for
# both sides, and the side that runs first alternates from pair to pair.
# `--smoke` passes `--smoke --seconds 1` instead: shrunken inputs, a check
# that the loop works, not a measurement.
#
# For every end-to-end metric of BENCHMARK.json it prints both medians,
# the parent's quartiles, each pair's change/parent ratio, the pairs the
# change won (ties count for neither side), and a verdict: "better" or
# "worse" when there are at least ten pairs, one side wins at least 9 of
# 10 of them and the medians differ by more than the parent's quartile
# spread, "unresolved" otherwise (never "unchanged").
#
# Every run's result object is kept in a temporary directory, removed on
# exit. Building rewrites a checkout's `benchmark/Cargo.lock` when it is
# stale; each checkout's lock is put back as it was found. Exits non-zero
# if a run fails or reports a failed operation.
set -euo pipefail

usage() {
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SEED0 [--smoke]" >&2
    exit 2
}
[ $# -eq 5 ] || [ $# -eq 6 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seed0=$5
run_args=(--seconds 10)
if [ $# -eq 6 ]; then
    [ "$6" = --smoke ] || usage
    run_args=(--smoke --seconds 1)
fi
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[[ $seed0 =~ ^[0-9]+$ ]] || usage
for dir in "$parent" "$change"; do
    [ -f "$dir/benchmark/run.sh" ] || { echo "$dir: no benchmark/run.sh" >&2; exit 2; }
done

tmp=$(mktemp -d)
# The locks as found, restored on any exit.
cp "$parent/benchmark/Cargo.lock" "$tmp/parent.lock"
cp "$change/benchmark/Cargo.lock" "$tmp/change.lock"
restore() {
    cp "$tmp/parent.lock" "$parent/benchmark/Cargo.lock"
    cp "$tmp/change.lock" "$change/benchmark/Cargo.lock"
    rm -rf "$tmp"
}
trap restore EXIT

# One run of one side: its result object goes on a line of $tmp/SIDE.jsonl.
run() {
    local side=$1 dir=$2 seed=$3 line
    line=$(CARGO_TARGET_DIR="$dir/benchmark/target" bash "$dir/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" "${run_args[@]}" --trace 0 | tail -1)
    echo "$line" >> "$tmp/$side.jsonl"
    echo "pair seed $seed $side: $line" >&2
}

for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
done

python3 - "$parent/BENCHMARK.json" "$tmp/parent.jsonl" "$tmp/change.jsonl" "$workload" <<'EOF'
import json, sys

spec, parent_file, change_file, workload = sys.argv[1:]
end_to_end = json.load(open(spec))["end_to_end"]
parent = [json.loads(l) for l in open(parent_file)]
change = [json.loads(l) for l in open(change_file)]

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

failed = 0
for side, docs in (("parent", parent), ("change", change)):
    bad = sum(1 for d in docs if not d["correct"] or d["failed"])
    ops = sum(d["failed"] for d in docs)
    print(f"{side}: {len(docs)} runs, {bad} incorrect or failing, {ops} failed operations")
    failed += bad

n = len(parent)
print(f"\n{workload}, {n} pairs (ratio = change / parent)")
for metric in end_to_end:
    name, lower = metric["name"], metric["better"] == "lower"
    p = [d["metrics"][name]["value"] for d in parent]
    c = [d["metrics"][name]["value"] for d in change]
    p_med, c_med = quantile(p, 0.5), quantile(c, 0.5)
    q1, q3 = quantile(p, 0.25), quantile(p, 0.75)
    ratios = [b / a if a else float("nan") for a, b in zip(p, c)]
    wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    losses = sum(1 for a, b in zip(p, c) if (b > a if lower else b < a))
    # Fewer than ten pairs resolve nothing.
    gap = n >= 10 and abs(c_med - p_med) > q3 - q1
    if gap and wins * 10 >= 9 * n:
        verdict = "better"
    elif gap and losses * 10 >= 9 * n:
        verdict = "worse"
    else:
        verdict = "unresolved"
    print(f"  {name} ({metric['unit']}): parent {p_med:.4g} (quartiles {q1:.4g}-{q3:.4g})"
          f" -> change {c_med:.4g}, median ratio {quantile(ratios, 0.5):.3f},"
          f" won {wins}/{n}, bound {metric['bound']:.0%}: {verdict}")
    print("    pair ratios: " + " ".join(f"{r:.3f}" for r in ratios))
sys.exit(1 if failed else 0)
EOF
