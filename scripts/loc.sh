#!/usr/bin/env bash
# The ROADMAP's per-crate line count as one table, two columns: every
# `*.rs` under each crate (sources, tests and benches alike), and the
# non-test lines — each `src/**/*.rs` up to its first `#[cfg(test)]`
# line, which is what the ROADMAP's non-test targets count. Then
# `crates/` as a whole. CHANGES.md quotes these numbers; verify.sh
# prints them last.
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-12s %6s %8s\n' "crate" "all" "non-test"
total=0
total_src=0
for crate in crates/*/; do
    lines=$(find "$crate" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    src=$(find "${crate}src" -name '*.rs' -print0 \
        | xargs -0 awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }')
    printf '%-12s %6d %8d\n' "$(basename "$crate")" "$lines" "$src"
    total=$((total + lines))
    total_src=$((total_src + src))
done
printf '%-12s %6d %8d\n' "crates/" "$total" "$total_src"
