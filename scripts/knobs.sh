#!/usr/bin/env bash
# The knob table CHANGES.md quotes, counted instead of by hand: every
# independently settable value is a configuration the tests and the
# benchmarks have to cover. Public fields of the four config structs,
# distinct flags in `ic-prio help`, `env::var` reads in the workspace's
# Rust sources, and cargo `[features]` entries. verify.sh prints it
# beside scripts/loc.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

# Public fields of `pub struct $1` in file $2.
fields() {
    awk -v s="pub struct $1 {" '
        index($0, s) == 1 { inside = 1; next }
        inside && /^}/     { exit }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$2"
}

row() { printf '%-16s %4d\n' "$1" "$2"; }

row ServerConfig   "$(fields ServerConfig crates/ic-net/src/server.rs)"
row WorkerConfig   "$(fields WorkerConfig crates/ic-net/src/worker.rs)"
row RecoveryConfig "$(fields RecoveryConfig crates/ic-net/src/recovery.rs)"
row FedConfig      "$(fields FedConfig crates/ic-net/src/reactor.rs)"
row "ic-prio flags" "$(cargo run -q --offline --release -p ic-cli -- help 2>&1 \
    | grep -o -- '--[a-z][a-z0-9-]*' | sort -u | wc -l)"
row "env::var reads" "$(grep -rn 'env::var' --include='*.rs' crates src tests examples | wc -l)"
row "cargo features" "$(find . -name Cargo.toml -not -path './target/*' -not -path './.bench_build/*' \
    -not -path './bench/*' -print0 | xargs -0 awk '
        /^\[features\]/ { inside = 1; next }
        /^\[/           { inside = 0 }
        inside && /^[a-zA-Z0-9_-]+ *=/ { n++ }
        END { print n + 0 }')"
