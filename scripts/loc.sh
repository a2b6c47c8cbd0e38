#!/usr/bin/env bash
# The ROADMAP's per-crate line count as one table: every `*.rs` under
# each crate (sources, tests and benches alike), then `crates/` as a
# whole. CHANGES.md quotes these numbers; verify.sh prints them last.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    lines=$(find "$crate" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    printf '%-12s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' "crates/" "$total"
