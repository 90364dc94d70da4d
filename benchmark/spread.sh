#!/usr/bin/env bash
# The acceptance test of the benchmark itself: run every workload ten
# times, each time with another seed, and print for each end-to-end
# metric the distance between the first and third quartile of its ten
# values as a share of their median (Python's statistics.quantiles).
# Every spread but setup_s's must stay within the metric's bound in
# BENCHMARK.json; aim for a third of it.
#
#   benchmark/spread.sh [--runs N] [--first-seed S] [--workload NAME]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=10
first_seed=1
workloads=(la_episode server_replay fabric_families ensemble_whatif)
while (($#)); do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --first-seed) first_seed="$2"; shift 2 ;;
        --workload) workloads=("$2"); shift 2 ;;
        *) echo "spread.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

lines="$here/out/spread.jsonl"
mkdir -p "$here/out"
: > "$lines"
for w in "${workloads[@]}"; do
    for ((i = 0; i < runs; i++)); do
        seed=$((first_seed + i))
        "$here/run.sh" --workload "$w" --seed "$seed" --out "$here/out/spread/$w-$seed" |
            tail -n 1 | sed "s/^{/{\"workload\": \"$w\", /" >> "$lines"
    done
done

python3 - "$lines" "$here/../BENCHMARK.json" <<'PY'
import json, statistics, sys
runs = [json.loads(line) for line in open(sys.argv[1])]
bounds = {m["name"]: m["bound"] for m in json.load(open(sys.argv[2]))["end_to_end"]}
print(f"{'workload':<18} {'metric':<20} {'median':>14} {'spread':>8} {'bound':>6}")
for w in dict.fromkeys(r["workload"] for r in runs):
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs if r["workload"] == w]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = "" if spread <= bound / 3 else " > bound/3" if spread <= bound else " > BOUND"
        print(f"{w:<18} {name:<20} {median:>14.6g} {spread:>7.1%} {bound:>6.0%}{flag}")
    failed = sum(r["failed"] for r in runs if r["workload"] == w)
    print(f"{w:<18} failed operations: {failed}")
PY
