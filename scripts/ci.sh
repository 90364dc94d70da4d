#!/usr/bin/env bash
# CI gate: formatting, release build, the whole workspace's test suite
# (every crate's unit tests and doctests included), the benchmark
# package's build and tests, a warning-free clippy pass (all targets),
# the one-arithmetic, one-pricing-machine, one-observer, one-virtual-timeline,
# fabric-routes-batches, one-job-executor, one-shard-loop, one-lock-policy,
# one-cost-fold and one-graph word checks,
# the one-way-to-a-plan-set, one-bounded-memo, one-codec and
# one-metrics-table checks, the
# no-fault-injection check and the large-budget fabric simulation, the
# one-feature-probe and
# chemistry `// SAFETY:` checks, the large-budget
# hostile-input property of every decoder, a 2-thread smoke run, the
# large-budget lane proptests of transport and chemistry, the paper-grid
# smoke runs and the LA thread-count sweep (bit-identical, full stop), an
# observability smoke run (the trace must be loadable JSON with spans for
# every phase), a serve-batch smoke (plan-memo rows present, with hits),
# the CLI thread-count invariance checks (--threads 1 == 3 == 8), a
# smoke run of all four benchmark workloads, the fabric / ensemble /
# oracle / optimizer smokes, the flag table's help golden and bad-input
# refusals, warning-free rustdoc, and the tracked line counts.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q --offline"
cargo test --workspace -q --offline

echo "==> benchmark package builds and tests against this workspace"
# benchmark/ is a workspace of its own; an API deletion here must not
# silently break what it compiles against.
# --locked: benchmark/Cargo.lock is part of the yardstick, so no
# dependency edge of a crate the `airshed` facade pulls in may move.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> one arithmetic: no rounding strategy, backend kind or cross-backend tolerance"
# The words of the switch this tree no longer has. benchmark/ keeps
# `within_simd_tolerance` until it follows the library (ROADMAP item 2).
if git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' \
    | xargs grep -nE '\b(Madd|Unfused|BackendKind|within_[a-z_]*tolerance)\b'; then
    echo "one arithmetic FAILED: the names above are back" >&2
    exit 1
fi
echo "one arithmetic OK"

echo "==> one pricing machine: no refit loop, and an untraced shard is untraced"
# The virtual machine charges with the profile the oracle is built from,
# so a refit is the identity (EXPERIMENTS.md, "Online recalibration").
# These are the names of the loop that carried it.
if git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' \
    | xargs grep -nE '\b(Recalibrated|apply_recalibration|fit_comm\w*|CommFit|fitted_rate)\b'; then
    echo "one pricing machine FAILED: the names above are back" >&2
    exit 1
fi
# A shard runs jobs on its caller's Obs; building its own sink is what
# made every untraced cold job trace.
if awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } /SpanSink/ { print FILENAME ":" FNR ": " $0; found = 1 } END { exit !found }' \
    crates/fabric/src/shard.rs; then
    echo "one pricing machine FAILED: fabric::shard builds its own observer" >&2
    exit 1
fi
echo "one pricing machine OK"

echo "==> one observer: Obs is a sink or nothing"
# A run observes through Option<Arc<SpanSink>> and nothing else, and the
# performance oracle is a fold over a profile's replay inside
# validate_profile. These are the names of the second ways: the
# collector trait and its no-op, and the live oracle hooked into hours.
observers="$(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' | xargs awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /(^|[^[:alnum:]_])(Collector|NoopCollector|with_oracle|HourReport|Oracle::new)([^[:alnum:]_]|$)/ {
        print FILENAME ":" FNR ": " $0 }')"
if [ -n "$observers" ]; then
    echo "$observers"
    echo "one observer FAILED: the names above are back" >&2
    exit 1
fi
echo "one observer OK"

echo "==> one virtual timeline: the charge loop reports each charged node"
# plan::charge_hours, the one loop that charges a machine, hands every
# node its virtual (start, end) as the machine charges it, and the trace
# rows, the oracle's residuals and the timeline Gantt all derive from
# that observer. These are the names of the
# second copy: the machine's own event list and the switch that turned
# it on, the driver's export cursor, and the oracle's zip of graph nodes
# against those events.
timeline="$(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' | xargs awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && (/(^|[^[:alnum:]_])(TraceEvent|trace_mark|observe_hour)([^[:alnum:]_]|$)/ \
        || /airshed_machine::trace|\.trace\.enable\(/) {
        print FILENAME ":" FNR ": " $0 }')"
if [ -n "$timeline" ]; then
    echo "$timeline"
    echo "one virtual timeline FAILED: the names above are back" >&2
    exit 1
fi
echo "one virtual timeline OK"

echo "==> fabric routes batches: no ensemble wrapper, no private job queue"
# Ensemble members reach the fabric as serve_batch jobs, and a shard's
# jobs run on a ScenarioServer. These are the names of the
# second copies: the surrogate-pruning wrapper with its outcome and
# counter, the plan edge that copied RedistPlan field for field, and the
# shard's hand-written queue and its imports of the ensemble layers.
routes="$(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' | xargs awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /(^|[^[:alnum:]_])(serve_ensemble|EnsembleFabricOutcome|fabric_surrogate_hits|PlanEdge)([^[:alnum:]_]|$)/ {
        print FILENAME ":" FNR ": " $0 }')
$(git ls-files 'crates/fabric/src/*.rs' | xargs awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
    /airshed_core::(ensemble|surrogate)/ \
        || (FILENAME ~ /shard\.rs$/ && /(^|[^[:alnum:]_])(Condvar|VecDeque)([^[:alnum:]_]|$)/) {
        print FILENAME ":" FNR ": " $0 }')"
if [ -n "${routes//$'\n'/}" ]; then
    echo "$routes"
    echo "fabric routes batches FAILED: the lines above are back" >&2
    exit 1
fi
echo "fabric routes batches OK"

echo "==> one job executor: a fabric shard is a ScenarioServer behind one socket"
# Every fabric job, on a shard or in `fabric --local`, runs on the
# scenario server's workers, and the shard only turns the job's events
# into frames. These are the names of the second and third copies of
# the executor: the hourly runner, the single-flight profile store and
# its fetch, the job queue and the panic guard.
executor="$({ git ls-files 'crates/fabric/src/*.rs'; echo src/bin/airshed/service.rs; } | xargs awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /(^|[^[:alnum:]_])(run_hourly|get_or_run|ProfileStore|BoundedQueue|catch_unwind)([^[:alnum:]_]|$)/ {
        print FILENAME ":" FNR ": " $0 }')"
if [ -n "$executor" ]; then
    echo "$executor"
    echo "one job executor FAILED: the names above are back" >&2
    exit 1
fi
echo "one job executor OK"

echo "==> one shard loop: the shard is a pure step, and the simulation runs it"
# fabric::shard's ShardCore takes no lock, and run_shard's one loop owns
# the socket, so non-test shard.rs names no Mutex (the shared writer and
# job table were the second and third owners). The simulation drives
# the real ShardCore, so it builds none of the frames a shard sends (a
# `Msg::X { .. }` pattern reads them).
loop_words="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } /(^|[^[:alnum:]_])Mutex([^[:alnum:]_]|$)/ {
        print FILENAME ":" FNR ": " $0 }' crates/fabric/src/shard.rs)
$(awk -v v='Msg::(Hello|Heartbeat|Progress|Calibrated|Completed)[[:space:]]*[{]' '
    $0 ~ v && $0 !~ (v "[^}]*[.][.][[:space:]]*[}]") { print FILENAME ":" FNR ": " $0 }' tests/fabric_sim.rs)"
if [ -n "${loop_words//$'\n'/}" ]; then
    echo "$loop_words"
    echo "one shard loop FAILED: the lines above are back" >&2
    exit 1
fi
echo "one shard loop OK"

echo "==> one lock policy: a poisoned serving lock is recovered, not unwrapped"
# No lock on the serving path guards data a panic can leave
# half-written, so each one recovers with PoisonError::into_inner.
# An unwrapped lock or condvar wait, on one line or split over two, is
# the policy this replaced.
locks="$(git ls-files 'crates/server/src/*.rs' 'crates/fabric/src/*.rs' | xargs awk '
    FNR == 1 { prev = "" }
    /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
    /\.(lock\(\)|wait(_timeout)?\([^()]*\))\.unwrap\(\)/ \
        || (prev ~ /\.(lock\(\)|wait(_timeout)?\([^()]*\))$/ && /^[[:space:]]*\.unwrap\(\)/) {
        print FILENAME ":" FNR ": " $0 }
    { prev = $0 }')"
if [ -n "$locks" ]; then
    echo "$locks"
    echo "one lock policy FAILED: the unwraps above are back" >&2
    exit 1
fi
echo "one lock policy OK"

echo "==> one cost fold: the machine is a scalar clock charged by one loop"
# plan::charge_hours is the one loop that charges a machine per plan
# node — live hours, replays (a Placement's units), the oracle and the
# timeline — pricing each through plan::Prices, so there is no second
# copy of the rule to keep in step. These are the names of the copy:
# per-node clocks, the plan-step instruction set, the group doors, the
# unused graph fold, the residual between the two, and the second walk
# over a collected node vector (its execute_with, priced and
# stage_durations, and the step_seconds it priced a node with).
fold="$(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' | xargs awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && (/(^|[^[:alnum:]_])(NodeClocks|PlanStep|compute_group|communicate_group|cost_of|GraphCost|pricing_mare|execute_with|step_seconds|stage_durations)([^[:alnum:]_]|$)/ \
        || /(fn |\.)priced[(<]/) {
        print FILENAME ":" FNR ": " $0 }')"
if [ -n "$fold" ]; then
    echo "$fold"
    echo "one cost fold FAILED: the names above are back" >&2
    exit 1
fi
# Machine::charge(label, category, seconds) is called from that loop
# alone in the workspace's non-test code (benchmark/ and vendor/ aside):
# exactly one three-argument .charge( call, its arguments counted across
# lines so a call rustfmt wraps is counted too.
charges="$(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' | xargs awk '
    function scan(s,   i, ch) {
        for (i = 1; i <= length(s); i++) {
            ch = substr(s, i, 1)
            if (ch == "(") depth++
            else if (ch == ")" && --depth == 0) {
                if (commas + (last != ",") == 3) print at
                active = 0
                return
            } else if (depth == 1 && ch == ",") commas++
            if (depth == 1 && ch !~ /[[:space:]]/) last = ch
        }
    }
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\//; active = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    active { scan($0); next }
    (i = index($0, ".charge(")) {
        active = 1; depth = 1; commas = 0; last = "("
        at = FILENAME ":" FNR ": " $0
        scan(substr($0, i + 8))
    }')"
if [ "$(printf '%s' "$charges" | grep -c .)" -ne 1 ]; then
    echo "$charges"
    echo "one cost fold FAILED: a machine is charged outside plan::charge_hours" >&2
    exit 1
fi
echo "one cost fold OK"

echo "==> replay copies nothing: one allocation-free node walk"
# Every per-node fold (the heaviest node, Work::charged) walks a layout's
# items in place with Layout::node_sums (hpf::dist; core::plan calls it
# ItemLayout). Layout::per_node, the walk collected into a vector, is
# the reference tests and doc examples read, so a non-test call outside
# hpf/src/dist.rs is a copy back on a pricing path.
copies="$(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/\|^crates/hpf/src/dist\.rs$' | xargs awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// && /\.per_node\(/ { print FILENAME ":" FNR ": " $0 }')"
if [ -n "$copies" ]; then
    echo "$copies"
    echo "replay copies nothing FAILED: per_node is back on a pricing path" >&2
    exit 1
fi
# The allocation gate, with its P x layout (x machine) table in the log:
# a replay allocates the same at every P and layout, folding a Placement
# allocates its units vector alone, a replay from a built placement
# allocates only the machine's comm log and the report, a placement
# keeps its units and no plan set at every P, and a charged graph
# charges again without allocating.
cargo test --release --offline -p airshed-core --test replay_allocations -- --nocapture
echo "replay copies nothing OK"
# The surrogate's allocation gate, with its table in the log: a hit
# through ScenarioServer::what_if allocates only its answer, and a fit's
# allocation calls do not grow with the cells.
cargo test --release --offline -p airshed-core --test surrogate_allocations -- --nocapture
echo "surrogate allocates its answer OK"

echo "==> one graph for §5 and §6, and charge is the machine's only door"
# Figures 9, 12 and 13 fold the hour's node order: stage prices come
# from taskpar::hourly_stage_durations (plan::Prices for the main loop,
# Work::subgroup_seconds for the I/O stages), PopExp's from the
# machine's comm_cost/comm_phase_seconds, and core::taskpar is the one
# place a pipeline is scheduled. These are the ways back to
# pricing by hand, each a pattern over non-test lines (the loc.sh rule).
non_test() { # <awk regex> <files...>
    local re="$1"
    shift
    awk -v re="$re" '
        FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && !/^[[:space:]]*\/\// && $0 ~ re { print FILENAME ":" FNR ": " $0 }' "$@"
}
end='([^[:alnum:]_]|$)'
doors="$(non_test "fn (compute|sequential|communicate)$end" crates/machine/src/sim.rs)"
if [ -n "$doors" ]; then
    echo "$doors"
    echo "one graph FAILED: Machine has a door beside charge again" >&2
    exit 1
fi
# The legacy oracle is gone from the tests too, so this one reads every file.
if git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' \
    | xargs grep -nE 'io_node_seconds|fn [[:alnum:]_]*_legacy\b'; then
    echo "one graph FAILED: a second stage pricing or a legacy oracle is back" >&2
    exit 1
fi
fields="$(non_test "\\.(latency|byte_cost|copy_cost|rate)$end" \
    $(git ls-files 'crates/popexp/*.rs'))
$(non_test "\\.(latency|byte_cost|copy_cost)$end" $(git ls-files 'crates/core/src/plan/*.rs'))"
if [ -n "${fields//$'\n'/}" ]; then
    echo "$fields"
    echo "one graph FAILED: the lines above price with MachineProfile's fields by hand" >&2
    exit 1
fi
schedules="$(non_test "(^|[^[:alnum:]_])schedule\\(" \
    $(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/\|^crates/hpf/src/pipeline\.rs$'))"
if [ "$(printf '%s' "$schedules" | grep -c .)" -gt 1 ]; then
    echo "$schedules"
    echo "one graph FAILED: the pipeline is scheduled in more than one place" >&2
    exit 1
fi
echo "one graph OK"

echo "==> one serving price: admission, the report and the router price alike"
# Serving prices a job with PricedModel::hour_price of the plan it runs,
# memoized beside its family's model, so one plan has one price in
# admission, in the worker's report and in the router. A direct
# layout_cost or predict call in the server or the fabric is a second
# price beside it (the closed form is for Figures 6/7 and validate).
prices="$(non_test "layout_cost\\(|\\.predict\\(" \
    $(git ls-files 'crates/server/src/*.rs' 'crates/fabric/src/*.rs'))"
if [ -n "$prices" ]; then
    echo "$prices"
    echo "one serving price FAILED: the lines above price beside PricedModel" >&2
    exit 1
fi
echo "one serving price OK"

echo "==> one way to get a plan set: HourPlans::shared outside driver.rs"
# A plan set is derived once per process (the memo in core::driver);
# planning one directly anywhere else in non-test code re-derives it per
# call. Tests and benchmark/ may (the miss path is their reference).
direct="$(git ls-files '*.rs' \
    | grep -v '^vendor/\|^benchmark/\|^crates/core/src/driver\.rs$' | xargs awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /HourPlans::(with_layouts|new)\(/ { print FILENAME ":" FNR ": " $0 }')"
if [ -n "$direct" ]; then
    echo "$direct"
    echo "plan sets FAILED: the lines above plan directly; use HourPlans::shared" >&2
    exit 1
fi
echo "plan sets OK"

echo "==> one bounded memo: the plan, price and placement memos are ShardedLrus"
# Every memo of a pure function is an airshed_core::memo::ShardedLru
# (least recently used out, at most 32 entries a shard). A hash map, a
# queue or one of the old hand-written memo types in these three files
# is a second eviction policy beside it.
memos="$(non_test "(^|[^[:alnum:]_])(HashMap|VecDeque|PlanMemo|Placements)$end|plan_memo\\(" \
    crates/core/src/driver.rs crates/core/src/predict.rs crates/server/src/cache.rs)"
if [ -n "$memos" ]; then
    echo "$memos"
    echo "one bounded memo FAILED: the lines above keep a memo beside ShardedLru" >&2
    exit 1
fi
echo "one bounded memo OK"

echo "==> one accounting record: a report carries the machine's own comm-step rows"
# The Figure 5 rows are declared once, as the machine's
# accounting::CommStepRecord, and a RunReport carries them with the
# static dataset and machine names the profiles already hold. These are
# the names of the second copies: the report's own row type, the
# exporter-side pid namespace the trace merger now owns alone, and the
# totals nothing outside tests read.
records="$(non_test "(^|[^[:alnum:]_])(CommStepSummary|pid_base|speedup_vs|total_for)$end" \
    $(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/'))
$(non_test "pub (dataset|machine): String" crates/core/src/report.rs)"
if [ -n "${records//$'\n'/}" ]; then
    echo "$records"
    echo "one accounting record FAILED: the lines above keep a second copy of the record" >&2
    exit 1
fi
echo "one accounting record OK"

echo "==> one codec: bytes meet numbers only in core::codec"
# Every wire, checkpoint and cache layout is declared once with
# `codec!` (crates/core/src/codec.rs); a second hand-rolled framing, or
# an enc_*/dec_* pair written beside a declaration, is a second copy.
framing="$(git ls-files '*.rs' \
    | grep -v '^vendor/\|^benchmark/\|^crates/core/src/codec\.rs$' | xargs awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /(to|from)_le_bytes/ { print FILENAME ":" FNR ": " $0 }')"
if [ -n "$framing" ]; then
    echo "$framing"
    echo "one codec FAILED: the lines above turn numbers into bytes outside core::codec" >&2
    exit 1
fi
if grep -nE 'fn (enc|dec)_' crates/fabric/src/proto.rs; then
    echo "one codec FAILED: hand-written codec functions are back in fabric::proto" >&2
    exit 1
fi
echo "one codec OK"

echo "==> one metrics table: every exported family is a metrics! row"
# Each counter, gauge and histogram is declared once, as a row of a
# `metrics!` list (crates/core/src/obs/metrics.rs), and written by
# core::obs::prom::render. A hand-written renderer, or a snapshot filled
# in field by field beside the registry, is a second copy of the list.
tables="$(git ls-files '*.rs' \
    | grep -v '^vendor/\|^benchmark/\|^crates/core/src/obs/' | xargs awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && !/^[[:space:]]*\/\// \
        && (/PromWriter::new|\.header\(|\.sample\(/ \
            || (/MetricsSnapshot[[:space:]]*\{/ \
                && !/(->|impl|for|struct)[[:space:]]+MetricsSnapshot/)) {
        print FILENAME ":" FNR ": " $0 }')"
if [ -n "$tables" ]; then
    echo "$tables"
    echo "one metrics table FAILED: the lines above render or snapshot metrics by hand" >&2
    exit 1
fi
# A family is named once: a second string literal of an exported name is
# a second declaration of it.
twice="$(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' | xargs awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { while (match($0, /"airshed_(server|fabric|ensemble)_[a-z_]*"|"airshed_copy_bytes_total"/)) {
        print substr($0, RSTART, RLENGTH); $0 = substr($0, RSTART + RLENGTH) } }' | sort | uniq -d)"
if [ -n "$twice" ]; then
    echo "$twice"
    echo "one metrics table FAILED: the family names above are declared more than once" >&2
    exit 1
fi
echo "one metrics table OK"

echo "==> one ownership rule: every layout view derives from hpf::dist::Layout"
# BLOCK, CYCLIC and CYCLIC(b) are declared once, as hpf::dist::Layout,
# and its one rule gives the owned runs, their extent, the owner of an
# index, the per-node work walk and the host-pool partition. These are
# the names of the second copies: the per-dimension enum with its
# converter, the block-range helper, a plan-level layout enum and a
# walk or partition written beside it.
rules="$(non_test "(^|[^[:alnum:]_])(DimDist|block_ranges)$end|enum ItemLayout$end|fn (node_sums|partition)$end" \
    $(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/\|^crates/hpf/src/dist\.rs$'))"
if [ -n "$rules" ]; then
    echo "$rules"
    echo "one ownership rule FAILED: the lines above lay out items outside hpf::dist" >&2
    exit 1
fi
echo "one ownership rule OK"

echo "==> fabric carries no fault injection: failure paths are simulated"
# The front-end is a state machine driven by a seeded simulation
# (tests/fabric_sim.rs), so the product has no wire fault layer. These
# are the names of the one it had: the plan, its actions, the writer
# that applied them, and the shard option and flag that carried it.
faults="$(non_test "(^|[^[:alnum:]_])(FaultPlan|FaultAction|FaultyWriter)$end|\"--fault\"|pub fault:" \
    $(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/'))"
if [ -n "$faults" ]; then
    echo "$faults"
    echo "fault injection FAILED: the lines above put it back in the product" >&2
    exit 1
fi
echo "no fault injection OK"

echo "==> one feature probe, and every chemistry unsafe says why"
# airshed-simd detects each CPU feature once (fma_available,
# avx512_available); a second probe is a second dispatch rule. And every
# non-test `unsafe` of the chemistry has a `// SAFETY:` comment ending on
# the line above it.
probes="$(non_test 'is_x86_feature_detected!' \
    $(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/\|^crates/simd/src/lib\.rs$'))"
if [ -n "$probes" ]; then
    echo "$probes"
    echo "feature probe FAILED: CPU features are probed outside crates/simd/src/lib.rs" >&2
    exit 1
fi
unjustified="$(git ls-files 'crates/chem/src/*.rs' | xargs awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\//; comment = 0; safety = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    /^[[:space:]]*\/\// { safety = safety || /^[[:space:]]*\/\/ SAFETY:/; comment = 1; next }
    !in_tests && /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ && !(comment && safety) {
        print FILENAME ":" FNR ": " $0 }
    { comment = 0; safety = 0 }')"
if [ -n "$unjustified" ]; then
    echo "$unjustified"
    echo "unsafe FAILED: the lines above have no // SAFETY: comment ending on the line before" >&2
    exit 1
fi
echo "feature probe and unsafe OK"

echo "==> every decoder under the hostile-input property, large budget"
# `cargo test` runs 24 seeded values per type; once here, 1 500 —
# round trip, every prefix refused, seeded flips and inflated counts
# typed errors, and the allocation bound under a counting allocator.
cargo test --release --offline -p airshed-fabric --test codec -- \
    --ignored every_codec_type_round_trips_and_refuses_hostile_bytes_soak

echo "==> the fabric front-end under the seeded simulation, large budget"
# `cargo test` runs 96 seeded cases; once here, 22 000 — delay, drops,
# stalls mid-frame, kills, zombies, severs and steals against the real
# Frontend, Router and ShardCore, every step checked; a failure names
# its seed.
cargo test --release --offline --test fabric_sim -- \
    --ignored seeded_interleavings_keep_every_contract_soak

echo "==> host-thread smoke test (2 threads)"
cargo run --release --bin airshed -- run \
    --dataset tiny:60 --hours 1 --threads 2 --no-map

echo "==> four-RHS solver proptests, large case budget"
# `cargo test` runs 48 random systems; once here, 20 000 — every lane of
# the lockstep BiCGSTAB bit-identical to the scalar solve.
cargo test --release --offline -p airshed-transport --test proptest_transport -- \
    --ignored lanes_match_the_scalar_solver_bit_for_bit_soak

echo "==> paper-grid smoke test (LA, NE)"
cargo run --release --bin airshed -- run \
    --dataset la --hours 1 --no-map
cargo run --release --bin airshed -- run \
    --dataset ne --hours 1 --no-map

echo "==> chemistry lane proptests, large case budget"
# `cargo test` runs 40 random cell streams; once here, 4 000 — every
# cell out of the lanes bit-identical to the scalar integrator, whatever
# its lane and neighbours, through the dispatched stream and through
# each instantiation the host runs (portable and avx2 at four lanes,
# avx512 at eight).
cargo test --release --offline -p airshed-chem --test proptest_chem -- \
    --ignored stream_lanes_are_the_scalar_integrator_bit_for_bit_soak

echo "==> LA sweep (serial == rayon(n) == simd(n), n = 1, 2, 8)"
# Independent lanes on the paper's grid at P = 1, 4, 16: any thread
# count under any of the three names gives serial's state, summaries and
# work vectors, bit for bit.
cargo test --release --offline --test backend_determinism -- \
    --ignored la_serial_rayon_and_simd_are_bit_identical

echo "==> observability smoke test (--trace-out / --metrics-out)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run --release --bin airshed -- run \
    --dataset tiny:60 --hours 1 --threads 2 --no-map \
    --trace-out "$trace_dir/trace.json" --metrics-out "$trace_dir/metrics.prom"
python3 - "$trace_dir/trace.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
missing = {"hour", "inputhour", "pretrans", "transport",
           "chemistry", "aerosol", "outputhour"} - names
assert not missing, f"trace lacks phase spans: {sorted(missing)}"
print(f"trace OK: {len(doc['traceEvents'])} events, phases covered")
PY
grep -q 'airshed_phase_seconds_count{phase="transport"}' "$trace_dir/metrics.prom"
echo "metrics OK: phase histogram present"

echo "==> serve-batch smoke (plan sets derived once, then shared)"
# 32 jobs over a handful of placements: the Prometheus snapshot must
# carry the plan-memo rows beside result and profile, with hits.
cargo run --release -q --bin airshed -- serve-batch \
    --dataset tiny:60 --workers 2 --threads 2 --clients 4 --budget 2e4 \
    --metrics-out "$trace_dir/serve.prom" | grep "plan memo"
plan_hits="$(awk '/^airshed_server_cache_events_total\{cache="plan",outcome="hit"\}/ { print $2 }' \
    "$trace_dir/serve.prom")"
[ -n "$plan_hits" ] && [ "${plan_hits%.*}" -gt 0 ] || {
    echo "serve-batch smoke FAILED: plan hit counter missing or zero ($plan_hits)" >&2
    exit 1
}
grep -q 'airshed_server_cache_entries{cache="plan"}' "$trace_dir/serve.prom"
echo "serve-batch OK: $plan_hits plan-memo hits"

echo "==> thread-count invariance at the CLI (--threads 1 == 3 == 8)"
# One transport kernel, one chemistry kernel and one arithmetic, no
# lane's result depending on its neighbours: the printed report may
# differ in its "host backend" line and nowhere else.
report() {
    cargo run --release -q --bin airshed -- run \
        --dataset tiny:60 --hours 2 --no-map --threads "$1" "${@:2}" \
        | grep -v '^  host backend:'
}
report 1 > "$trace_dir/threads1.txt"
report 3 > "$trace_dir/threads3.txt"
report 8 --trace-out "$trace_dir/t8.json" > "$trace_dir/threads8.txt"
cmp "$trace_dir/threads1.txt" "$trace_dir/threads3.txt"
cmp "$trace_dir/threads1.txt" "$trace_dir/threads8.txt"
# ... and 8 threads have work: min(threads, layers x ceil(species/4)) =
# min(8, 5 x 9) transport pool tasks per half step, where BLOCK over
# the 5 layers alone could fill 5.
python3 - "$trace_dir/t8.json" <<'PY'
import json, sys
spans = [e for e in json.load(open(sys.argv[1]))["traceEvents"]
         if e.get("ph") == "X" and e["name"] == "transport" and e["pid"] == 1]
tasks = sum("seq" in e["args"] for e in spans)
half_steps = len(spans) - tasks
assert half_steps > 0 and tasks == 8 * half_steps, \
    f"{tasks} transport pool tasks over {half_steps} half steps, expected 8 each"
print(f"transport items OK: {tasks} pool tasks = 8 x {half_steps} half steps")
PY

echo "==> benchmark smoke (all four workloads, two units per metric)"
# Proves the one measurement harness *runs* against this tree, not only
# that it compiles: every unit is fingerprint-checked and a non-zero
# exit names the failing check (benchmark/README.md).
bash benchmark/run.sh --workload all --smoke --out "$trace_dir/bench"

echo "==> fabric multi-process smoke (1 front-end + 2 shards, kill one mid-run)"
# Single-process reference fingerprints for the same 16-job batch ...
cargo run --release -q --bin airshed -- fabric --local \
    --jobs 16 --dataset tiny:60 --hours 3 --out "$trace_dir/fabric_ref.txt"
# ... the same batch on two healthy shards: bit-identical, and each of
# the 4 numerics keys runs once, so 12 of the 16 jobs are answered from
# a resident profile — an exact count, whichever shard a key lands on ...
cargo run --release -q --bin airshed -- fabric \
    --shards 2 --jobs 16 --dataset tiny:60 --hours 3 \
    --out "$trace_dir/fabric_calm.txt" --metrics-out "$trace_dir/fab_calm.prom"
cmp "$trace_dir/fabric_ref.txt" "$trace_dir/fabric_calm.txt"
profile_hits="$(awk '/^airshed_fabric_shard_profile_hits_total\{/ { n += $2 } END { print n + 0 }' \
    "$trace_dir/fab_calm.prom")"
[ "$profile_hits" -eq 12 ] || {
    echo "fabric smoke FAILED: $profile_hits profile hits, expected 12" >&2
    exit 1
}
echo "fabric OK: 16/16 reports bit-identical, 4 numerics runs + 12 profile hits"
# ... then the drill: two shard processes, shard 1 hard-exits after
# 4 completed hours, its jobs must fail over (resuming from streamed
# checkpoints) and every report must still arrive bit-identical — with
# per-process traces on, proving tracing costs no fidelity.
fabric_out="$(cargo run --release -q --bin airshed -- fabric \
    --shards 2 --jobs 16 --dataset tiny:60 --hours 3 \
    --kill-shard 1 --kill-after-hours 4 --out "$trace_dir/fabric_run.txt" \
    --trace-out "$trace_dir/fab.json" --metrics-out "$trace_dir/fab.prom")"
echo "$fabric_out"
cmp "$trace_dir/fabric_ref.txt" "$trace_dir/fabric_run.txt"
echo "$fabric_out" | grep -q "jobs/s sustained"
echo "fabric OK: 16/16 reports bit-identical to single-process after shard kill"

echo "==> distributed trace merge (stitch frontend + shard traces)"
# The killed shard hard-exited without flushing a trace; trace-merge
# must skip it and still stitch the frontend with the surviving shard.
cargo run --release -q --bin airshed -- trace-merge --frontend "$trace_dir/fab.json"
python3 - "$trace_dir/fab.merged.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
procs = {e["pid"]: e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"}
namespaces = {pid // 16 for pid in procs}
assert len(namespaces) >= 2, f"merged trace has one process namespace: {procs}"
counters = {e["name"] for e in events if e.get("ph") == "C"}
assert "redist_local" in counters, f"copy-bytes counter track missing: {sorted(counters)}"
flows = [e for e in events if e.get("ph") in ("s", "f")]
assert flows, "no flow arrows in the merged trace"
print(f"merged trace OK: {len(events)} events, {len(namespaces)} process"
      f" namespaces, {len(flows)} flow endpoints, copy counters present")
PY
# Fleet latency-anatomy histograms and copy counters in the frontend metrics.
grep -q 'airshed_fabric_job_stage_seconds_count{stage="end_to_end"}' "$trace_dir/fab.prom"
grep -q 'airshed_fabric_copy_bytes_total{kind="redist_local"}' "$trace_dir/fab.prom"
grep -q 'airshed_fabric_ctx_mismatches_total 0' "$trace_dir/fab.prom"
echo "fabric metrics OK: latency anatomy + copy bytes + zero ctx mismatches"

echo "==> ensemble + surrogate smoke (shared-input dedup, two-tier what-if)"
# A small sweep with dedup: the Prometheus snapshot must show nonzero
# dedup savings, and the what-if batch must exercise both tiers — the
# surrogate hit (simulator not invoked) and the exact fallback.
ensemble_out="$(cargo run --release -q --bin airshed -- ensemble \
    --dataset tiny:60 --members 5 --hours 2 --nodes 8 --threads 2 \
    --queries 0.9,2.0 --metrics-out "$trace_dir/ensemble.prom")"
echo "$ensemble_out"
echo "$ensemble_out" | grep -q "surrogate hit"
echo "$ensemble_out" | grep -q "exact fallback"
saved_bytes="$(grep '^airshed_ensemble_dedup_saved_bytes_total' "$trace_dir/ensemble.prom" | awk '{print $2}')"
[ -n "$saved_bytes" ] && [ "${saved_bytes%.*}" -gt 0 ] || {
    echo "ensemble smoke FAILED: dedup counter not positive ($saved_bytes)" >&2
    exit 1
}
echo "ensemble OK: dedup saved $saved_bytes bytes, both what-if tiers exercised"

echo "==> docs link check (README.md, docs/*.md)"
bash scripts/check_links.sh

echo "==> flag table: help text against the golden, bad input named and refused"
# The usage text is rendered from the flag and command tables
# (src/bin/airshed/flags.rs); the golden is the hand-written string of
# the binary before them, so a table edit that moves a byte shows here.
cargo run --release -q --bin airshed -- help | cmp - tests/golden/airshed_help.txt
cargo run --release -q --bin airshed -- validate --help | cmp - tests/golden/airshed_help.txt
refused() { # <flag the message must name> <command line...>
    local flag="$1" err
    shift
    if err="$(cargo run --release -q --bin airshed -- "$@" 2>&1 >/dev/null)"; then
        echo "flag table FAILED: 'airshed $*' was accepted" >&2
        exit 1
    fi
    case "$err" in
        *panicked*) echo "flag table FAILED: 'airshed $*' panicked: $err" >&2; exit 1 ;;
        *"$flag"*) ;;
        *) echo "flag table FAILED: 'airshed $*' does not name $flag: $err" >&2; exit 1 ;;
    esac
}
refused --hours run --hours x
refused --emis run --emis nan --dataset tiny:40 --hours 1 --no-map
refused --shards gridinfo --shards 3 --members 50
refused --backend run --backend serial
echo "flag table OK: help byte-identical, four bad command lines refused by name"

echo "==> performance-oracle smoke (airshed validate)"
cargo run --release --bin airshed -- validate --help >/dev/null
cargo run --release --bin airshed -- validate \
    --grid tiny:60 --hours 1 --nodes 4,16 --json "$trace_dir/validate.json" \
    | grep -q "predicted vs measured"
python3 - "$trace_dir/validate.json" <<'PY'
import json, sys
v = json.load(open(sys.argv[1]))
assert [r["p"] for r in v["rows"]] == [4, 16], v["rows"]
assert all(r["predicted"]["total"] > 0 and r["measured"]["total"] > 0 for r in v["rows"])
phases = {r["phase"] for r in v["residuals"]}
assert {"transport", "chemistry", "D_Trans->D_Chem"} <= phases, phases
assert not {"pricing_mare", "recalibrated", "drift"} & set(v), sorted(v)
PY
echo "validate OK: tables printed, JSON has its per-node rows and residuals and no refit"

echo "==> plan optimizer smoke (both grids, predicted <= default)"
# cmd_plan asserts chosen <= default internally and prints "plan OK"
# only after that check; grep makes a silent regression fail the gate.
cargo run --release --bin airshed -- plan --optimize \
    --grid la --nodes 16 --hours 1 | grep "plan OK"
cargo run --release --bin airshed -- plan --optimize \
    --grid ne --nodes 16 --hours 1 | grep "plan OK"
echo "plan OK: optimizer never predicts worse than the default on either grid"

echo "==> cargo doc --workspace --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> scripts/loc.sh (tracked line counts)"
bash scripts/loc.sh

echo "==> CI passed"
