#!/usr/bin/env bash
# Lines of Rust this repository maintains (vendored shims and the
# benchmark package excluded) — the ROADMAP's tracked line count.
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' | xargs cat | wc -l
