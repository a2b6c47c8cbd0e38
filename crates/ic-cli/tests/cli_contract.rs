//! The `ic-prio` command-line contract, pinned against the built
//! binary: which invocations are usage errors, what the first stderr
//! line says, that every flag `help` lists is exercised by a row, and
//! which `data` keys each `serve` mode reports.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output, Stdio};

fn prio(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ic-prio"));
    cmd.args(args);
    cmd
}

/// `(arguments, exit code, first stderr line)`. Values are validated
/// before any file or socket is touched, so no fixture files exist
/// (the `cannot read` rows name files that are not there). Flags are
/// read in argument order, so a typed error about a later flag shows
/// the earlier ones were accepted.
const USAGE_CONTRACT: &[(&str, i32, &str)] = &[
    ("", 2, "usage:"),
    ("help", 0, "usage:"),
    ("bogus", 2, "usage:"),
    ("order", 2, "usage:"),
    ("order t.dag --bogus x", 2, "usage:"),
    ("order t.dag --policy", 2, "usage:"),
    ("order t.dag --policy turbo", 2, "error: unknown policy \"turbo\""),
    ("order t.dag --policy turbo --json", 2, "error: unknown policy \"turbo\""),
    ("stats t.dag --bogus", 2, "usage:"),
    ("check t.dag", 2, "usage:"),
    ("check --bogus x", 2, "usage:"),
    ("check --family", 2, "usage:"),
    ("check --family mesh:3 --workers x", 2, "error: --workers takes a positive integer"),
    ("check --family mesh:3 --depth x", 2, "error: --depth takes a positive integer"),
    ("check --family mesh:3 --max-states x", 2, "error: --max-states takes a positive integer"),
    ("check --workers 2", 2, "error: check --family <spec> is required in model-checker mode"),
    ("check --family mesh:3 --steal --crash --workers x", 2, "error: --workers takes a positive integer"),
    ("sim t.dag --bogus x", 2, "usage:"),
    ("sim t.dag --clients", 2, "usage:"),
    ("sim t.dag --clients x", 2, "error: --clients takes a positive integer"),
    ("sim t.dag --seed x", 2, "error: --seed takes an integer"),
    ("sim t.dag --policy turbo", 2, "error: unknown sim policy \"turbo\""),
    ("audit --bogus", 2, "usage:"),
    ("audit --deny", 2, "usage:"),
    ("audit --claims --deny nope", 2, "error: unknown --deny code \"nope\""),
    ("audit --schedule t.jsonl", 2, "error: cannot read t.jsonl: No such file or directory (os error 2)"),
    ("audit --dag t.dag --order o.txt", 2, "error: cannot read t.dag: No such file or directory (os error 2)"),
    ("recover", 2, "error: recover takes a trace file"),
    ("recover x.jsonl --bogus", 2, "usage:"),
    ("merge", 2, "error: merge needs at least one shard trace"),
    ("merge --out", 2, "usage:"),
    ("merge a --deny nope", 2, "error: unknown --deny code \"nope\""),
    ("serve", 2, "error: serve needs exactly one of --dag or --family"),
    ("serve --dag t.dag --family mesh:3", 2, "error: serve needs exactly one of --dag or --family"),
    ("serve --bogus x", 2, "usage:"),
    ("serve --family mesh:3 --trace", 2, "usage:"),
    ("serve --family mesh:3 --lease-ms x", 2, "error: --lease-ms takes a positive integer"),
    ("serve --family mesh:3 --expect x", 2, "error: --expect takes an integer"),
    ("serve --family mesh:3 --batch x", 2, "error: --batch takes a positive integer"),
    ("serve --family mesh:3 --steal-after x", 2, "error: --steal-after takes milliseconds"),
    ("serve --family mesh:3 --min-proto x", 2, "usage:"),
    ("serve --family mesh:3 --min-proto 2", 2, "usage:"),
    ("serve --family mesh:3 --poll-timeout x", 2, "usage:"),
    ("serve --family mesh:3 --shards x", 2, "usage:"),
    ("serve --family mesh:3 --listen 127.0.0.1:0 --port-file p --lease-ms x", 2, "error: --lease-ms takes a positive integer"),
    ("serve --family mesh:3 --seed x", 2, "error: --seed takes an integer"),
    ("serve --family mesh:3 --sever-link-after x", 2, "error: --sever-link-after takes an integer"),
    (
        "serve --family mesh:3 --resume-from a --trace b",
        2,
        "error: --resume-from appends to the recovered trace itself and is incompatible with --trace and --shard",
    ),
    ("serve --family mesh:3 --peers 0=x", 2, "error: --peers needs --shard i/N"),
    ("serve --family mesh:3 --shard 2/2", 2, "error: --shard takes i/N with i < N"),
    ("serve --family mesh:3 --shard 0/2 --cut auto", 2, "usage:"),
    ("serve --family mesh:3 --replicate-cut", 2, "usage:"),
    ("serve --family mesh:3 --shard 0/2 --peers junk", 2, "error: --peers entry \"junk\" is not shard=addr"),
    ("serve --family mesh:3 --shard 0/2 --peers 7=127.0.0.1:1", 2, "error: --peers shard 7 is not one of the 2 shards"),
    ("serve --family mesh:3 --shard 0/2 --peers 0=127.0.0.1:1", 2, "error: --peers names this shard (0) itself"),
    ("serve --family mesh:3 --shard 0/3 --peers 1=127.0.0.1:1,1=127.0.0.1:2", 2, "error: --peers names shard 1 twice"),
    ("serve --family mesh:3 --shard 1/2", 2, "error: --shard 1/2 dials every lower shard and --peers lacks shard 0"),
    ("serve --family mesh:3 --policy turbo", 2, "error: unknown serve policy \"turbo\""),
    ("fed", 2, "error: fed needs exactly one of --dag or --family"),
    ("fed --bogus x", 2, "usage:"),
    ("fed --family mesh:3 --shards", 2, "usage:"),
    ("fed --family mesh:3 --replicate-cut", 2, "usage:"),
    ("fed --family mesh:3 --shards x", 2, "error: --shards takes a positive integer"),
    ("fed --family mesh:3 --workers x", 2, "error: --workers takes a positive integer"),
    ("fed --family mesh:3 --mean-ms x", 2, "error: --mean-ms takes an integer"),
    ("fed --family mesh:3 --sever-link-after x", 2, "error: --sever-link-after takes an integer"),
    ("fed --family mesh:3 --lease-ms x", 2, "error: --lease-ms takes a positive integer"),
    ("fed --family mesh:3 --seed x", 2, "error: --seed takes an integer"),
    ("fed --family mesh:3 --trace-dir d --merged m --seed x", 2, "error: --seed takes an integer"),
    ("work", 2, "error: work needs --connect <addr>"),
    ("work --id w", 2, "error: work needs --connect <addr>"),
    ("work --bogus x", 2, "usage:"),
    ("work --connect", 2, "usage:"),
    ("work --connect a --batch x", 2, "error: --batch takes a positive integer"),
    ("work --connect a --proto 2", 2, "usage:"),
    ("work --connect a --no-reconnect x", 2, "usage:"),
    ("work --connect a --seed x", 2, "error: --seed takes an integer"),
    ("work --connect a --speed x", 2, "error: --speed takes a positive finite number"),
    ("work --connect a --speed inf", 2, "error: --speed takes a positive finite number"),
    ("work --connect a --mean-ms x", 2, "error: --mean-ms takes an integer"),
    ("work --connect a --retry-ms x", 2, "error: --retry-ms takes positive milliseconds"),
    ("work --connect a --flaky x", 2, "error: --flaky takes a probability in [0, 1]"),
    ("work --connect a --die-after x", 2, "error: --die-after takes an integer"),
    ("work --connect a --stall-after x", 2, "error: --stall-after takes an integer"),
    ("work --connect a --sever-after x", 2, "error: --sever-after takes an integer"),
];

#[test]
fn usage_errors_keep_their_exit_code_and_first_stderr_line() {
    for &(args, code, first) in USAGE_CONTRACT {
        let argv: Vec<&str> = args.split_whitespace().collect();
        let out: Output = prio(&argv).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "ic-prio {args}");
        assert_eq!(stderr.lines().next(), Some(first), "ic-prio {args}");
    }
}

/// Every `--flag` the usage text lists appears in a contract row, so
/// a flag cannot exist unexercised.
#[test]
fn every_flag_in_help_is_exercised_by_a_contract_row() {
    let out = prio(&["help"]).output().unwrap();
    let help = String::from_utf8_lossy(&out.stderr);
    let flag_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-';
    let listed: BTreeSet<&str> = help
        .match_indices("--")
        .map(|(i, _)| &help[i..])
        .map(|rest| &rest[..rest.find(|c| !flag_char(c)).unwrap_or(rest.len())])
        .filter(|flag| flag.len() > 2)
        .collect();
    assert!(listed.contains("--sever-link-after"), "{listed:?}");
    let exercised: BTreeSet<&str> = USAGE_CONTRACT
        .iter()
        .flat_map(|(args, ..)| args.split_whitespace())
        .collect();
    let unexercised: Vec<_> = listed.difference(&exercised).collect();
    assert!(
        unexercised.is_empty(),
        "no contract row for {unexercised:?}"
    );
}

/// Run `serve <mode flags>` to completion against one `work` process
/// and return the key set of the `--json` envelope's `data` object.
fn serve_data_keys(dir: &Path, mode: &[&str]) -> BTreeSet<String> {
    let port = dir.join("port");
    let _ = std::fs::remove_file(&port);
    let mut args = vec!["serve", "--family", "mesh:3", "--expect", "1", "--json"];
    args.extend(["--port-file", port.to_str().unwrap()]);
    args.extend(mode);
    let mut server = prio(&args).stdout(Stdio::piped()).spawn().unwrap();
    let addr = loop {
        match std::fs::read_to_string(&port) {
            Ok(t) if t.ends_with('\n') => break t.trim().to_string(),
            _ => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
        let exited = server.try_wait().unwrap();
        assert!(exited.is_none(), "serve {mode:?} exited before listening");
    };
    let work = prio(&["work", "--connect", &addr, "--mean-ms", "1"])
        .output()
        .unwrap();
    assert!(work.status.success(), "work against serve {mode:?}");
    let out = server.wait_with_output().unwrap();
    assert!(out.status.success(), "serve {mode:?}");
    let envelope = ic_sim::json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    let Some(ic_sim::json::Json::Obj(data)) = envelope.get("data") else {
        panic!("serve {mode:?} printed no data object");
    };
    data.iter().map(|(k, _)| k.clone()).collect()
}

/// The `data` key set of each serve mode is exactly `before`, or —
/// once the three modes share one report renderer — exactly `before`
/// plus every key of `added` (the additive rows; nothing in between).
#[test]
fn serve_modes_report_a_pinned_data_key_set() {
    let dir = std::env::temp_dir().join(format!("ic-cli-contract-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let trace = trace.to_str().unwrap();
    let common = "addr policy completions failures allocations resumes steals revokes workers \
                  makespan registry";
    let check = |mode: &[&str], before: &str, added: &str| {
        let set = |s: &str| {
            s.split_whitespace()
                .map(String::from)
                .collect::<BTreeSet<_>>()
        };
        let (got, before, added) = (serve_data_keys(&dir, mode), set(before), set(added));
        let after = &before | &added;
        assert!(got == before || got == after, "serve {mode:?}: {got:?}");
    };
    check(
        &["--trace", trace],
        &format!("{common} reallocations late_workers"),
        "",
    );
    // A crash after the first completion: the WAL is the header, one
    // allocation and its completion, so no lease is outstanding.
    let text = std::fs::read_to_string(trace).unwrap();
    let wal: Vec<&str> = text.lines().take(3).collect();
    assert!(wal[2].contains("\"type\":\"complete\""), "{}", wal[2]);
    std::fs::write(trace, format!("{}\n", wal.join("\n"))).unwrap();
    check(
        &["--resume-from", trace],
        &format!(
            "{common} resumed_from events_replayed recovered_completions tasks_rearmed \
             workers_awaited torn_tail"
        ),
        "reallocations late_workers",
    );
    check(
        &["--shard", "0/1"],
        "addr shard shards local_nodes cut_edges completions remote_completions failures \
         peer_tx peer_rx peer_reconnects workers makespan registry",
        "policy reallocations allocations resumes steals revokes late_workers",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A WAL torn inside its header — a server killed between the header's
/// batch-size writes — is refused with a `cannot resume` error line,
/// not a panic, whether the cut falls at `BATCH_BYTES` or inside a
/// number.
#[test]
fn serve_refuses_to_resume_from_a_torn_header() {
    let dag = ic_families::mesh::out_mesh(100);
    let line = ic_sim::trace::TraceHeader::for_run(&dag, 2, 0, "ic-optimal").to_json_line();
    let line = line.as_bytes();
    let batch = ic_sim::FileSink::BATCH_BYTES;
    let digits = |i: usize| line[i - 1].is_ascii_digit() && line[i].is_ascii_digit();
    let mid_number = (batch + 1..line.len()).find(|&i| digits(i)).unwrap();
    let dir = std::env::temp_dir().join(format!("ic-cli-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("wal.jsonl");
    let wal = wal.to_str().unwrap();
    for cut in [batch, mid_number] {
        std::fs::write(wal, &line[..cut]).unwrap();
        let out = prio(&["serve", "--family", "mesh:100", "--resume-from", wal])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "cut at {cut}: {stderr}");
        assert!(stderr.starts_with("error: cannot resume from "), "{stderr}");
        assert!(stderr.contains("line 1"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
