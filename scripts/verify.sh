#!/usr/bin/env bash
# One-shot offline verification gate: formatting, lints, build, tests,
# and the machine-checked paper-claims audit. Every step runs with
# --offline; the workspace has zero external dependencies, so nothing
# here ever touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."

# Wait up to 10 s for a server to write its --port-file, or fail.
wait_for_port() { # <file> <who>
    for _ in $(seq 1 100); do
        [ -s "$1" ] && return
        sleep 0.1
    done
    echo "$2 never wrote its port file"
    exit 1
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (rustdoc: no broken or ambiguous intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release"
# Plain `cargo build` would build only the umbrella package; the
# workspace flag pulls in ic-cli (the `ic-prio` binary) and friends.
cargo build --offline --workspace --release

echo "==> experiments (regenerate the 25 paper artifacts and run their checks)"
# The harness exits 1 on any failed check. Its last line must also
# count every artifact, so a run that drops one fails here too.
experiments_out="$(./target/release/experiments)" || { echo "$experiments_out"; exit 1; }
experiments_last="$(tail -n 1 <<< "$experiments_out")"
[ "$experiments_last" = "summary: 25/25 artifacts reproduced" ] \
    || { echo "experiments: expected 'summary: 25/25 artifacts reproduced', got '$experiments_last'"; exit 1; }

echo "==> cargo test"
cargo test --offline --workspace --quiet

echo "==> ic-lint (no unwrap/expect/panic/narrowing in protocol code)"
# The lint walks four `src/` trees on its own; hold the number of files
# it says it scanned against `find`, so a file moved into a
# subdirectory (src/machine/) can never drop out of the gate unseen.
lint_out="$(./target/release/ic-lint)" || { echo "$lint_out"; exit 1; }
echo "$lint_out"
scanned="$(sed -n 's/^ic-lint: scanned \([0-9]*\) files.*/\1/p' <<< "$lint_out")"
expected="$(find crates/ic-net/src crates/ic-sim/src crates/ic-fed/src crates/ic-check/src \
    -name '*.rs' | wc -l)"
[ "$scanned" = "$expected" ] \
    || { echo "ic-lint scanned ${scanned:-no} files, find sees $expected"; exit 1; }

echo "==> ic-prio check (model-check the server core)"
# Exhaustive interleaving exploration of the shipped server core (lease
# machine, connection table and codec, fed encoded frames) against
# deployed worker sessions, every IC05xx invariant checked at every
# reachable state: two workers over a 6-node mesh, once plain and once
# with the speculative-steal path enabled, then three workers over a
# 10-node mesh and four over a 15-node one (30 736 states, ~1.3 s), so
# the connection table is walked at three and at four connections.
# Each must be clean and must say the depth bound cut no path short.
check_out="$(./target/release/ic-prio check --family mesh:3 --workers 2 --depth 48 --json)"
grep -q '"clean": true' <<< "$check_out"
grep -q '"exhaustive": true' <<< "$check_out"
check_out="$(./target/release/ic-prio check --family mesh:3 --workers 2 --depth 48 --steal --json)"
grep -q '"clean": true' <<< "$check_out"
grep -q '"exhaustive": true' <<< "$check_out"
check_out="$(./target/release/ic-prio check --family mesh:4 --workers 3 --depth 48 --json)"
grep -q '"clean": true' <<< "$check_out"
grep -q '"exhaustive": true' <<< "$check_out"
check_out="$(./target/release/ic-prio check --family mesh:5 --workers 4 --depth 48 --json)"
grep -q '"clean": true' <<< "$check_out"
grep -q '"exhaustive": true' <<< "$check_out"
# The crash/restart transition: kill the server at every reachable
# state, rebuild from the trace prefix, and demand the rebuilt machine
# agree with the live one (IC07xx) and pass the IC05xx scan itself.
# Keyed on the restore fold, the crash search is exhaustive at three
# workers over a 10-node mesh (~0.2 s), and with the steal path at
# mesh:3 x 2; both must say so.
crash_out="$(./target/release/ic-prio check --family mesh:4 --workers 3 --depth 48 --crash --json)"
grep -q '"clean": true' <<< "$crash_out"
grep -q '"exhaustive": true' <<< "$crash_out"
crash_out="$(./target/release/ic-prio check --family mesh:3 --workers 2 --depth 48 --crash --steal --json)"
grep -q '"clean": true' <<< "$crash_out"
grep -q '"exhaustive": true' <<< "$crash_out"

echo "==> every ic-bench [[bench]] target has a bench smoke line"
# A bench target earns its place by writing rows that bench-check gates,
# so each one needs a `cargo bench ... --bench <name>` line in the smoke
# below. Only `[[bench]]` sections count: `[package]` and `[[bin]]`
# carry `name =` lines too.
bench_targets="$(awk '/^\[/ { in_bench = ($0 == "[[bench]]") }
    in_bench && /^name *=/ { gsub(/^name *= *"|"$/, ""); print }' crates/ic-bench/Cargo.toml)"
[ -n "$bench_targets" ] || { echo "no [[bench]] target in crates/ic-bench/Cargo.toml"; exit 1; }
for target in $bench_targets; do
    grep -Eq "^[^#]*cargo bench .*--bench $target( |\$)" scripts/verify.sh || {
        echo "bench target '$target' is not run by scripts/verify.sh (no 'cargo bench ... --bench $target' line)"
        exit 1
    }
done

echo "==> bench smoke (eligibility + check groups, machine-readable report)"
# A tiny-budget run of the eligibility and model-checker benches proves
# the bench binaries, the merged JSON report (IC_BENCH_APPEND), and the
# validator stay wired together. bench-check exits nonzero on malformed
# JSON or a missing bench group; the numbers themselves are not gated
# (5 ms budgets are noise).
mkdir -p target/verify
# Absolute path: cargo runs bench binaries from the package directory.
IC_BENCH_MS=5 IC_BENCH_JSON="$PWD/target/verify/BENCH.json" \
    cargo bench --offline -p ic-bench --bench eligibility > /dev/null
IC_BENCH_MS=5 IC_BENCH_JSON="$PWD/target/verify/BENCH.json" IC_BENCH_APPEND=1 \
    cargo bench --offline -p ic-bench --bench check > /dev/null
# The three scale groups are ordinary harness closures (one warm-up,
# five timed runs each); the first non-flag argument is the harness's
# name filter, which is how the smoke picks the 1000-worker rows.
# Pure-coordinator scale smoke: a 1000-worker fleet stepped straight
# through the LeaseMachine (no sockets), proving the indexed lease
# table sustains its step rate.
IC_BENCH_JSON="$PWD/target/verify/BENCH.json" IC_BENCH_APPEND=1 \
    timeout 120 cargo bench --offline -p ic-bench --bench machine -- 1000w > /dev/null
# Reactor scale smoke: the 1000-worker loopback fleet (healthy + flaky
# + severing mix) through the event-driven server, recording completed
# tasks per second of whole-run wall time. `timeout` bounds a reactor
# hang; each run itself asserts full completion and fault recovery.
IC_BENCH_JSON="$PWD/target/verify/BENCH.json" IC_BENCH_APPEND=1 \
    timeout 120 cargo bench --offline -p ic-bench --bench net -- 1000w > /dev/null
# Federation smoke: the 300-node mesh as a 1-, 2- and 4-shard
# federation, every shard and worker in one loop on one virtual clock,
# recording the protocol's CPU per whole run (about 1 ms a run; the
# three rows together take well under a second).
IC_BENCH_JSON="$PWD/target/verify/BENCH.json" IC_BENCH_APPEND=1 \
    timeout 120 cargo bench --offline -p ic-bench --bench fed > /dev/null
# Recovery replay and the WAL's flush discipline are not measured
# here: `bench/` (the next stage) reports them with repetitions and
# quartiles (`recovery.replay_events_per_s`, `span.replay_ms`,
# `wal.record_ns_per_event`, ...).
# Structural validation (every row well-formed and `iters >= 5`), plus
# a regression gate for the `net` group's throughput records against
# the committed baseline: a fresh smoke run whose tasks/sec fall more
# than 2x below BENCH.json fails (the smoke only measures the
# 1000-worker fleet, so only that id is compared; full-report
# regenerations also gate the 10k id, at the stricter 1.2x, below). A
# key that finds no shared record to compare fails too.
./target/release/bench-check target/verify/BENCH.json \
    envelope exec-state build check machine net fed \
    --baseline BENCH.json --max-regress net=2.0
# When the committed BENCH.json itself changed, gate its net group
# against the last committed version: a regeneration that loses more
# than 20% of its rate on any shared net record is rejected.
if ! git diff --quiet HEAD -- BENCH.json 2> /dev/null; then
    git show HEAD:BENCH.json > target/verify/BENCH.baseline.json
    ./target/release/bench-check BENCH.json \
        envelope exec-state build check machine net fed \
        --baseline target/verify/BENCH.baseline.json --max-regress net=1.2
fi

echo "==> bench/run.sh --smoke (real-process end-to-end benchmark on tiny dags)"
# The BENCHMARK.json harness end to end: build `ic-prio` and the
# `ic-e2e` load generator from source (into .bench_build, its own
# target directory), then drive every workload — pingpong, paced,
# saturate with and without the WAL, SIGKILL -> recover — against real
# `ic-prio serve` processes on mesh:40 / butterfly:4. The numbers are
# not gated here (`bench/run.sh --compare` does that against the
# BENCHMARK.json bounds); the run itself fails on an incomplete dag, a
# trace that does not audit, or a recovery that loses work. `timeout`
# covers the cold build plus the ~6 s of measurement.
timeout 900 bash bench/run.sh --smoke > /dev/null

echo "==> differential oracle (one lease protocol over the indexed and the scan table: byte-identical effects, pinned digest, wrong tables rejected)"
IC_DIFF_CASES=96 cargo test --release --offline -q -p ic-check --test differential

echo "==> ic-prio audit --claims"
./target/release/ic-prio audit --claims

echo "==> ic-prio sim | audit --schedule (trace round trip)"
# End-to-end through the trace pipeline: simulate a freshly written dag
# (a virtual-time client fleet stepping the lease machine, so the trace
# is the machine's own), record it, and replay-audit it. The audit must
# exit 0 (warnings such as IC0404 are advisory; any IC04xx error fails
# here).
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cat > "$tmpdir/tasks.dag" <<'DAG'
build_a -> test_a
build_b -> test_b
test_a -> package
test_b -> package
DAG
./target/release/ic-prio sim "$tmpdir/tasks.dag" --clients 3 --seed 11 \
    --trace "$tmpdir/run.jsonl" > /dev/null
./target/release/ic-prio audit --schedule "$tmpdir/run.jsonl" --json \
    | grep -q '"ok": true'

echo "==> ic-prio serve | work | audit --schedule (live localhost round trip)"
# The real thing: a TCP server on an ephemeral localhost port, three
# workers (one of them dying mid-run to force a lease reallocation),
# and a replay-audit of the streamed trace. `timeout` bounds every
# long-running step so a protocol hang fails fast instead of wedging CI.
timeout 60 ./target/release/ic-prio serve --family mesh:8 --policy optimal \
    --listen 127.0.0.1:0 --expect 3 --lease-ms 300 \
    --trace "$tmpdir/serve.jsonl" --port-file "$tmpdir/port" --json \
    > "$tmpdir/serve.json" &
serve_pid=$!
wait_for_port "$tmpdir/port" "server"
addr="$(tr -d '[:space:]' < "$tmpdir/port")"
timeout 60 ./target/release/ic-prio work --connect "$addr" --id drone-1 \
    --mean-ms 2 > /dev/null &
timeout 60 ./target/release/ic-prio work --connect "$addr" --id drone-2 \
    --mean-ms 2 --speed 2 > /dev/null &
timeout 60 ./target/release/ic-prio work --connect "$addr" --id deserter \
    --mean-ms 2 --die-after 2 > /dev/null
wait "$serve_pid"
grep -q '"completions": 36' "$tmpdir/serve.json"
./target/release/ic-prio audit --schedule "$tmpdir/serve.jsonl" --json \
    | grep -q '"ok": true'

echo "==> ic-prio serve | 2 x work --mean-ms 3000 (a quiet server stays quiet)"
# The paper's regime: workers compute for seconds and the server waits.
# Over about 2 s of their service the server may spend at most 5 % of
# one core (it reads ~1.5 %, one idle worker asking every 25 ms
# included); a reactor that spins while nothing is owed fails here.
# The server is one thread, so the first field of its
# /proc/<pid>/schedstat is its time on CPU in ns; `$!` is the `timeout`
# wrapper, so the server is that process's child.
timeout 60 ./target/release/ic-prio serve --family mesh:2 --listen 127.0.0.1:0 \
    --expect 2 --lease-ms 60000 --port-file "$tmpdir/qport" --json \
    > "$tmpdir/quiet.json" &
quiet_pid=$!
wait_for_port "$tmpdir/qport" "server"
addr="$(tr -d '[:space:]' < "$tmpdir/qport")"
timeout 60 ./target/release/ic-prio work --connect "$addr" --id calm-1 \
    --mean-ms 3000 > /dev/null &
timeout 60 ./target/release/ic-prio work --connect "$addr" --id calm-2 \
    --mean-ms 3000 > /dev/null &
server_pid="$(pgrep -P "$quiet_pid")"
sleep 0.5
cpu0="$(cut -d' ' -f1 "/proc/$server_pid/schedstat")"
wall0="$(date +%s%N)"
sleep 2
cpu1="$(cut -d' ' -f1 "/proc/$server_pid/schedstat")"
wall1="$(date +%s%N)"
quiet_pct="$(( (cpu1 - cpu0) * 1000 / (wall1 - wall0) ))"
echo "quiet server: $(( (cpu1 - cpu0) / 1000 )) us on CPU in $(( (wall1 - wall0) / 1000 )) us (${quiet_pct} per mille of a core)"
[ "$quiet_pct" -le 50 ] || { echo "a quiet server must stay under 5 % of a core"; exit 1; }
wait
grep -q '"completions": 3' "$tmpdir/quiet.json"

echo "==> ic-prio serve | work --sever-after | audit --schedule (reconnect round trip)"
# Resumable leases over real processes: the lone worker severs its TCP
# socket mid-lease (the process stays up) and reconnects with its
# resume token. The server must count one resume and zero
# reallocations, and the trace — resume event included — must replay
# clean. Generous lease so only a real resume can explain the clean run.
timeout 60 ./target/release/ic-prio serve --family outtree:2:3 --policy optimal \
    --listen 127.0.0.1:0 --expect 1 --lease-ms 5000 \
    --trace "$tmpdir/resume.jsonl" --port-file "$tmpdir/rport" --json \
    > "$tmpdir/resume.json" &
serve_pid=$!
wait_for_port "$tmpdir/rport" "server"
addr="$(tr -d '[:space:]' < "$tmpdir/rport")"
timeout 60 ./target/release/ic-prio work --connect "$addr" --id comeback \
    --mean-ms 2 --sever-after 2 --json > "$tmpdir/work.json"
wait "$serve_pid"
grep -q '"completions": 15' "$tmpdir/resume.json"
grep -q '"resumes": 1' "$tmpdir/resume.json"
grep -q '"failures": 0' "$tmpdir/resume.json"
grep -q '"resumes": 1' "$tmpdir/work.json"
./target/release/ic-prio audit --schedule "$tmpdir/resume.jsonl" --json \
    | grep -q '"ok": true'

echo "==> ic-prio serve | kill -9 | recover | serve --resume-from | audit (crash recovery round trip)"
# The write-ahead-log round trip over real processes: the server is
# SIGKILLed mid-run (at least one completion on disk), `recover` dry-runs
# the reconstruction, and `serve --resume-from` restarts from the same
# file on a fresh ephemeral port. A new worker joins the recovered run,
# the dead worker's outstanding lease falls back to expiry ->
# reallocation, and the concatenated trace must replay audit-clean as
# one run. Survivors that resume with their tokens on the same port are
# the next stage.
timeout 60 ./target/release/ic-prio serve --family mesh:8 --policy optimal \
    --listen 127.0.0.1:0 --expect 1 --lease-ms 1000 \
    --trace "$tmpdir/wal.jsonl" --port-file "$tmpdir/cport" --json \
    > "$tmpdir/crashed.json" &
crash_pid=$!
wait_for_port "$tmpdir/cport" "server"
addr="$(tr -d '[:space:]' < "$tmpdir/cport")"
# The worker dies with the server (its stderr complaint is expected).
timeout 60 ./target/release/ic-prio work --connect "$addr" --id phoenix \
    --mean-ms 30 --json > "$tmpdir/cwork.json" 2> /dev/null &
work_pid=$!
# Kill -9 as soon as at least one completion is flushed to the WAL.
for _ in $(seq 1 300); do
    grep -q '"type":"complete"' "$tmpdir/wal.jsonl" 2> /dev/null && break
    sleep 0.02
done
grep -q '"type":"complete"' "$tmpdir/wal.jsonl" \
    || { echo "no completion reached the WAL before the kill"; exit 1; }
# $crash_pid is the `timeout` wrapper, which cannot forward SIGKILL —
# kill its child (the server itself) so the crash is a real SIGKILL.
pkill -KILL -P "$crash_pid" 2> /dev/null || kill -9 "$crash_pid" 2> /dev/null || true
wait "$crash_pid" 2> /dev/null || true
kill "$work_pid" 2> /dev/null || true
wait "$work_pid" 2> /dev/null || true
# The same crash torn between the last `}` and its `\n`: the WAL's
# intact lines without the final newline, resumed from below.
printf '%s' "$(head -n "$(wc -l < "$tmpdir/wal.jsonl")" "$tmpdir/wal.jsonl")" \
    > "$tmpdir/eol.jsonl"
# Dry run: the trace alone carries enough to rebuild the state.
./target/release/ic-prio recover "$tmpdir/wal.jsonl" --json \
    | grep -q '"ok": true'
# Restart from the WAL; the recovered server appends to the same file.
timeout 60 ./target/release/ic-prio serve --family mesh:8 --policy optimal \
    --listen 127.0.0.1:0 --expect 1 --lease-ms 1000 \
    --resume-from "$tmpdir/wal.jsonl" --port-file "$tmpdir/cport2" --json \
    > "$tmpdir/recovered.json" &
wait_for_port "$tmpdir/cport2" "recovered server"
addr2="$(tr -d '[:space:]' < "$tmpdir/cport2")"
timeout 60 ./target/release/ic-prio work --connect "$addr2" --id phoenix2 \
    --json > "$tmpdir/cwork2.json"
wait
grep -q '"resumed_from"' "$tmpdir/recovered.json"
grep -q '"completions": 36' "$tmpdir/recovered.json"
# Crash prefix + recovered suffix: one file, one run, audit-clean.
./target/release/ic-prio audit --schedule "$tmpdir/wal.jsonl" --json \
    | grep -q '"ok": true'
# The newline-less copy: the first appended event must start a line of
# its own, or the stitched WAL no longer audits.
timeout 60 ./target/release/ic-prio serve --family mesh:8 --policy optimal \
    --listen 127.0.0.1:0 --expect 1 --lease-ms 1000 \
    --resume-from "$tmpdir/eol.jsonl" --port-file "$tmpdir/cport3" --json \
    > "$tmpdir/eol.json" &
wait_for_port "$tmpdir/cport3" "server resumed from a newline-less WAL"
timeout 60 ./target/release/ic-prio work \
    --connect "$(tr -d '[:space:]' < "$tmpdir/cport3")" --id phoenix3 \
    --json > "$tmpdir/cwork3.json"
wait
grep -q '"completions": 36' "$tmpdir/eol.json"
./target/release/ic-prio audit --schedule "$tmpdir/eol.jsonl" --json \
    | grep -q '"ok": true'

echo "==> ic-prio serve | kill -9 | fresh serve on the same port (bad-resume -> fresh hello)"
# The worker's other way back: the server is SIGKILLed and restarted
# *fresh* (no --resume-from) on the same address. The surviving
# `--retry-ms` worker redials with its resume token, which the new run
# never issued: the server answers `error{bad-resume}`, and the worker
# registers afresh and serves the whole new run.
timeout 60 ./target/release/ic-prio serve --family mesh:8 --listen 127.0.0.1:0 \
    --expect 1 --lease-ms 1000 --trace "$tmpdir/lost.jsonl" \
    --port-file "$tmpdir/fport" --json > /dev/null &
lost_pid=$!
wait_for_port "$tmpdir/fport" "server"
addr="$(tr -d '[:space:]' < "$tmpdir/fport")"
# Its stderr complaint about the lost connection is expected.
timeout 60 ./target/release/ic-prio work --connect "$addr" --id stray \
    --mean-ms 30 --retry-ms 20 --json > "$tmpdir/fwork.json" 2> /dev/null &
stray_pid=$!
for _ in $(seq 1 300); do
    grep -q '"type":"complete"' "$tmpdir/lost.jsonl" 2> /dev/null && break
    sleep 0.02
done
grep -q '"type":"complete"' "$tmpdir/lost.jsonl" \
    || { echo "no completion reached the trace before the kill"; exit 1; }
pkill -KILL -P "$lost_pid" 2> /dev/null || kill -9 "$lost_pid" 2> /dev/null || true
wait "$lost_pid" 2> /dev/null || true
timeout 60 ./target/release/ic-prio serve --family mesh:8 --listen "$addr" \
    --expect 1 --lease-ms 1000 --json > "$tmpdir/fresh.json"
wait "$stray_pid"
grep -q '"completions": 36' "$tmpdir/fresh.json"
grep -q '"resumes": 0' "$tmpdir/fwork.json"

echo "==> ic-prio serve | kill -9 | serve --resume-from on the same port (token resume)"
# What recovery is for: two workers keep running through a server
# SIGKILL, redial the same address with their resume tokens, and
# reclaim their slots and leases from the restarted server. `a`
# registers first and `b` redials first (5 ms vs 150 ms): the order in
# which a restored server that re-issued the crashed run's tokens handed
# `b` the token `a` still held, and the two then forfeited each other's
# leases forever. The run must finish with no lost lease and both
# workers resumed.
timeout 60 ./target/release/ic-prio serve --family mesh:400 --listen 127.0.0.1:0 \
    --expect 2 --batch 64 --lease-ms 500 \
    --trace "$tmpdir/same.jsonl" --port-file "$tmpdir/sport" --json > /dev/null &
same_pid=$!
wait_for_port "$tmpdir/sport" "server"
addr="$(tr -d '[:space:]' < "$tmpdir/sport")"
# Their stderr complaints about the lost connection are expected.
timeout 90 ./target/release/ic-prio work --connect "$addr" --id a --batch 64 \
    --mean-ms 0 --retry-ms 150 > /dev/null 2>&1 &
sleep 0.2 # --expect 2 holds allocation until `b` registers too
timeout 90 ./target/release/ic-prio work --connect "$addr" --id b --batch 64 \
    --mean-ms 0 --retry-ms 5 > /dev/null 2>&1 &
# Kill -9 once a few thousand of the 80 200 completions are on disk.
for _ in $(seq 1 1000); do
    done_n="$(grep -c '"type":"complete"' "$tmpdir/same.jsonl" 2> /dev/null)" || done_n=0
    [ "$done_n" -ge 3000 ] && break
    sleep 0.01
done
pkill -KILL -P "$same_pid" 2> /dev/null || kill -9 "$same_pid" 2> /dev/null || true
wait "$same_pid" 2> /dev/null || true
killed_at="$(grep -c '"type":"complete"' "$tmpdir/same.jsonl")" || killed_at=0
echo "killed with $killed_at of 80200 completions in the WAL"
[ "$killed_at" -lt 80200 ] || { echo "the run finished before the kill"; exit 1; }
timeout 60 ./target/release/ic-prio serve --family mesh:400 --listen "$addr" \
    --expect 2 --batch 64 --lease-ms 500 \
    --resume-from "$tmpdir/same.jsonl" --json > "$tmpdir/same.json"
wait
grep -q '"completions": 80200' "$tmpdir/same.json"
grep -q '"failures": 0' "$tmpdir/same.json"
grep -q '"resumes": 2' "$tmpdir/same.json"
./target/release/ic-prio audit --schedule "$tmpdir/same.jsonl" --json \
    | grep -q '"ok": true'

echo "==> ic-prio serve --shard | work | merge | audit (two-shard federation round trip)"
# The federation over real processes: a 66-node mesh split across two
# shard servers (shard 1 dials shard 0), two workers per shard with
# one dying mid-run to force a lease reallocation, and the shard link
# severed once mid-run (--sever-link-after) to force a peer redial +
# backlog replay. The per-shard traces must merge into one global
# trace (IC06xx clean) that replays audit-clean (IC04xx clean).
timeout 90 ./target/release/ic-prio serve --family mesh:11 --shard 0/2 \
    --listen 127.0.0.1:0 --expect 2 --lease-ms 300 \
    --trace "$tmpdir/shard0.jsonl" --port-file "$tmpdir/fport0" --json \
    > "$tmpdir/fed0.json" &
shard0_pid=$!
wait_for_port "$tmpdir/fport0" "shard 0"
addr0="$(tr -d '[:space:]' < "$tmpdir/fport0")"
timeout 90 ./target/release/ic-prio serve --family mesh:11 --shard 1/2 \
    --peers "0=$addr0" --sever-link-after 2 \
    --listen 127.0.0.1:0 --expect 2 --lease-ms 300 \
    --trace "$tmpdir/shard1.jsonl" --port-file "$tmpdir/fport1" --json \
    > "$tmpdir/fed1.json" &
shard1_pid=$!
wait_for_port "$tmpdir/fport1" "shard 1"
addr1="$(tr -d '[:space:]' < "$tmpdir/fport1")"
timeout 90 ./target/release/ic-prio work --connect "$addr0" --id f0-steady \
    --mean-ms 2 > /dev/null &
timeout 90 ./target/release/ic-prio work --connect "$addr0" --id f0-mortal \
    --mean-ms 2 --die-after 2 > /dev/null &
timeout 90 ./target/release/ic-prio work --connect "$addr1" --id f1-steady \
    --mean-ms 2 > /dev/null &
timeout 90 ./target/release/ic-prio work --connect "$addr1" --id f1-backup \
    --mean-ms 2 > /dev/null
wait "$shard0_pid"
wait "$shard1_pid"
./target/release/ic-prio merge "$tmpdir/shard0.jsonl" "$tmpdir/shard1.jsonl" \
    --out "$tmpdir/merged.jsonl" --json | grep -q '"ok": true'
./target/release/ic-prio audit --schedule "$tmpdir/merged.jsonl" --json \
    | grep -q '"ok": true'

echo "==> ic-prio fed, twice (the in-process federation is deterministic)"
# The whole federation in one process on one virtual clock: four
# shards, a worker per shard dying mid-run and shard 0's links severed
# once. Two runs with the same flags must write the same merged trace,
# byte for byte. Federation over TCP is the round trip above.
for run in a b; do
    timeout 60 ./target/release/ic-prio fed --family mesh:11 --shards 4 --flaky \
        --sever-link-after 3 --seed 5 --merged "$tmpdir/fed-$run.jsonl" > /dev/null
done
cmp "$tmpdir/fed-a.jsonl" "$tmpdir/fed-b.jsonl"

echo "==> ic-prio fed --lease-ms 1 (a worker heartbeats inside a 1 ms lease)"
# Every 5 ms compute outlasts the lease, so the run drains only if each
# worker's heartbeat lands before the lease's deadline.
timeout 20 ./target/release/ic-prio fed --family mesh:11 --lease-ms 1 --mean-ms 5 \
    > "$tmpdir/fed-1ms.txt"
grep -q 'audit passed' "$tmpdir/fed-1ms.txt"

# Keep the audited traces where CI can pick them up as artifacts.
cp "$tmpdir/serve.jsonl" target/verify/serve-trace.jsonl
cp "$tmpdir/resume.jsonl" target/verify/resume-trace.jsonl
cp "$tmpdir/wal.jsonl" target/verify/recovered-trace.jsonl
cp "$tmpdir/merged.jsonl" target/verify/merged-trace.jsonl

echo "==> scripts/loc.sh (lines of Rust per crate)"
scripts/loc.sh

echo "==> scripts/knobs.sh (config fields, CLI flags, env reads, cargo features)"
scripts/knobs.sh

echo "verify: all green"
