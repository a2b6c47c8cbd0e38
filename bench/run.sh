#!/usr/bin/env bash
# The one command of the end-to-end benchmark: build `ic-prio` and the
# `ic-e2e` load generator in release mode from source, then run it.
#
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bench/run.sh --suite [--runs <r>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
#   bench/run.sh --compare <a.json> <b.json>
#   bench/run.sh --smoke
#
# No arguments means `--suite`. See bench/README.md.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Both packages build into one target directory (the driver's, if it
# set one), so `ic-e2e` finds `ic-prio` next to itself. A relative
# CARGO_TARGET_DIR is relative to where the driver started us: here.
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p ic-cli --bin ic-prio >&2
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2

if [ "$#" -eq 0 ]; then
    set -- --suite
fi
exec "$target/release/ic-e2e" "$@"
