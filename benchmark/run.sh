#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--traced | --trace 0|1] [--smoke] [--out DIR]
#
# Prints every metric by name with its unit, writes one result JSON per
# workload under --out (default benchmark/out), and exits non-zero on any
# failed check (11-45: which check, see README; 2: usage or I/O; 3: no
# repository around the benchmark; 4: release profiles differ). The last line of standard output is the result object the
# driver of BENCHMARK.json reads. --smoke runs two units per metric.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A standalone workspace does not inherit the root's [profile.release];
# if the two differ, a later LTO or codegen change would go unmeasured.
release_profile() {
    awk '/^\[/ { on = ($0 == "[profile.release]"); next } on && NF && $1 !~ /^#/' "$1"
}
if [[ ! -f "$root/Cargo.toml" ]]; then
    echo "run.sh: $root/Cargo.toml is missing: the benchmark builds the airshed crates from source" >&2
    exit 3
fi
if [[ "$(release_profile "$here/Cargo.toml")" != "$(release_profile "$root/Cargo.toml")" ]]; then
    echo "run.sh: [profile.release] in benchmark/Cargo.toml differs from the root Cargo.toml" >&2
    exit 4
fi

workload=all
args=()
out="$here/out"
while (($#)); do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/airshed-benchmark"

if [[ "$workload" == all ]]; then
    workloads=(la_episode server_replay fabric_families ensemble_whatif)
else
    workloads=("$workload")
fi
status=0
for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --out "$out" "${args[@]}" || status=$?
done
exit "$status"
