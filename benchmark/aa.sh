#!/usr/bin/env bash
# A/A check: run the full benchmark (untraced and traced pass of every
# workload) twice on this commit with the same seed, then require every
# end-to-end metric to agree within its bound and every exact per-layer
# count to be identical. Prints the spread seen per metric.
#
#   benchmark/aa.sh [--seed N] [--smoke]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

for side in a b; do
    "$here/run.sh" --workload all --out "$here/out/aa-$side" "$@" >/dev/null
    "$here/run.sh" --workload all --out "$here/out/aa-$side" --traced "$@" >/dev/null
done
bin="${CARGO_TARGET_DIR:-$here/target}/release/airshed-benchmark"
"$bin" compare "$here/out/aa-a" "$here/out/aa-b" "$root/BENCHMARK.json"
