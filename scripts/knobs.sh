#!/usr/bin/env bash
# The knob table CHANGES.md quotes, counted instead of by hand: every
# independently settable value is a configuration the tests and the
# benchmarks have to cover. Public fields of the five config structs,
# distinct flags in `ic-prio help`, `env::var` reads in the workspace's
# Rust sources, and cargo `[features]` entries. verify.sh prints it
# beside scripts/loc.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

# Public fields of `pub struct $1` in file $2; a struct that is not in
# that file (it moved, or was renamed) is an error, not a row of 0.
fields() {
    awk -v s="pub struct $1 {" '
        index($0, s) == 1 { inside = 1; found = 1; next }
        inside && /^}/     { exit }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { if (!found) exit 1; print n + 0 }' "$2" \
        || { echo "knobs.sh: no \`pub struct $1\` in $2" >&2; return 1; }
}

row() { printf '%-16s %4d\n' "$1" "$2"; }
# A plain assignment, so `set -e` sees a failed count (an argument's
# command substitution would swallow it).
struct_row() { local n; n=$(fields "$1" "$2"); row "$1" "$n"; }

struct_row ServerConfig crates/ic-net/src/server.rs
struct_row WorkerConfig crates/ic-net/src/worker.rs
struct_row RecoveryConfig crates/ic-net/src/recovery.rs
struct_row FedConfig crates/ic-net/src/peers.rs
struct_row FedOptions crates/ic-fed/src/runtime.rs
row "ic-prio flags" "$(cargo run -q --offline --release -p ic-cli -- help 2>&1 \
    | grep -o -- '--[a-z][a-z0-9-]*' | sort -u | wc -l)"
row "env::var reads" "$(grep -rn 'env::var' --include='*.rs' crates src tests examples | wc -l)"
row "cargo features" "$(find . -name Cargo.toml -not -path './target/*' -not -path './.bench_build/*' \
    -not -path './bench/*' -print0 | xargs -0 awk '
        /^\[features\]/ { inside = 1; next }
        /^\[/           { inside = 0 }
        inside && /^[a-zA-Z0-9_-]+ *=/ { n++ }
        END { print n + 0 }')"
