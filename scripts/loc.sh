#!/usr/bin/env bash
# Lines of Rust this repository maintains (vendored shims and the
# benchmark package excluded) — the ROADMAP's two tracked numbers: the
# total, and the non-test lines (what precedes the first `#[cfg(test)]`
# of every file outside a `tests/` directory).
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' | xargs awk '
    FNR == 1 { in_tests = FILENAME ~ /(^|\/)tests\// }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    { total++; if (!in_tests) non_test++ }
    END { printf "total %d\nnon-test %d\n", total, non_test }'
