#!/usr/bin/env bash
# The ROADMAP's per-crate line count as one table, three columns: every
# `*.rs` under each crate (sources, tests and benches alike), the
# non-test lines — each `src/**/*.rs` up to its first `#[cfg(test)]`
# line, which is what the ROADMAP's non-test targets count — and the
# `pub` declarations in those same lines (`pub fn|struct|enum|trait|
# const|type|static|mod|use`; `pub(crate)` and `pub` fields are not
# counted), the size of each crate's public seam. Then `crates/` as a
# whole. CHANGES.md quotes these numbers; verify.sh prints them last.
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-12s %6s %8s %5s\n' "crate" "all" "non-test" "pub"
total=0
total_src=0
total_pub=0
for crate in crates/*/; do
    lines=$(find "$crate" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    read -r src pub < <(find "${crate}src" -name '*.rs' -print0 \
        | xargs -0 awk '
            FNR == 1 { live = 1 }
            /^#\[cfg\(test\)\]/ { live = 0 }
            live { n++ }
            live && /^[ \t]*pub[ \t]+(fn|struct|enum|trait|const|type|static|mod|use)[ \t]/ { p++ }
            END { print n + 0, p + 0 }')
    printf '%-12s %6d %8d %5d\n' "$(basename "$crate")" "$lines" "$src" "$pub"
    total=$((total + lines))
    total_src=$((total_src + src))
    total_pub=$((total_pub + pub))
done
printf '%-12s %6d %8d %5d\n' "crates/" "$total" "$total_src" "$total_pub"
