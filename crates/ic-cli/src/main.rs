//! `ic-prio` — compute IC-scheduling priorities for a task dag.
//!
//! ```text
//! ic-prio order <file> [--policy auto|greedy|fifo] [--json]
//! ic-prio stats <file> [--json]
//! ic-prio check <file> <order-file> [--json]
//! ic-prio check --family <spec> [--workers N] [--depth D] [--max-states N]
//!          [--steal] [--crash] [--json]
//! ic-prio sim (<file> | --family <spec>) [--policy P] [--clients N] [--seed S]
//!          [--trace out.jsonl] [--json]
//! ic-prio audit --claims [--json]
//! ic-prio audit --dag <file> [--order <order-file>] [--deny orphans] [--json]
//! ic-prio audit --family <spec> [--deny <code-name>] [--json]
//! ic-prio audit --schedule <trace.jsonl> [--deny <code-name>] [--json]
//! ic-prio serve (--dag <file> | --family <spec>) [--policy optimal|fifo|...]
//!          [--listen addr] [--trace out.jsonl | --resume-from trace.jsonl]
//!          [--lease-ms N] [--expect N]
//!          [--batch N] [--steal-after MS]
//!          [--shard i/N --peers S=addr,... [--sever-link-after N]]
//!          [--port-file p] [--seed S] [--json]
//! ic-prio recover <trace.jsonl> [--json]
//! ic-prio fed (--dag <file> | --family <spec>) [--shards N]
//!          [--workers K] [--mean-ms N] [--flaky] [--sever-link-after N]
//!          [--trace-dir DIR] [--merged out.jsonl] [--lease-ms N] [--seed S]
//!          [--json]
//! ic-prio merge <shard.jsonl>... [--out merged.jsonl] [--deny <code-name>]
//!          [--json]
//! ic-prio work --connect <addr> [--id s] [--speed f] [--mean-ms N] [--batch N]
//!          [--retry-ms N]
//!          [--flaky p | --die-after K | --stall-after K | --sever-after K]
//!          [--seed S] [--json]
//! ic-prio dot <file>
//! ic-prio export <file>
//! ```
//!
//! Exit codes: `0` success, `1` the command ran but found problems,
//! `2` usage, file, or parse errors.

use std::process::ExitCode;

use ic_cli::commands::{self, load, read, OrderPolicy};
use ic_cli::flags::worker_flag;
use ic_cli::output::CmdOutput;
use ic_cli::{CliError, Flags};

const USAGE_EXIT: u8 = 2;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ic-prio order <file> [--policy auto|greedy|fifo] [--json]\n  \
         ic-prio stats <file> [--json]\n  ic-prio check <file> <order-file> [--json]\n  \
         ic-prio check --family <spec> [--workers N] [--depth D] [--max-states N]\n              \
         [--steal] [--crash] [--json]\n  \
         ic-prio sim (<file> | --family <spec>) [--policy fifo|lifo|random|greedy|maxout|mindepth]\n              \
         [--clients N] [--seed S] [--trace out.jsonl] [--json]\n  \
         ic-prio audit --claims [--json]\n  \
         ic-prio audit --dag <file> [--order <order-file>] [--deny orphans] [--json]\n  \
         ic-prio audit --family <spec> [--deny <code-name>] [--json]\n  \
         ic-prio audit --schedule <trace.jsonl> [--deny <code-name>] [--json]\n  \
         ic-prio serve (--dag <file> | --family mesh:11|outtree:2:5|butterfly:3)\n              \
         [--policy optimal|fifo|lifo|random|greedy|maxout|mindepth] [--listen addr]\n              \
         [--trace out.jsonl | --resume-from trace.jsonl] [--lease-ms N] [--expect N]\n              \
         [--batch N] [--steal-after MS] [--port-file p] [--seed S]\n              \
         [--shard i/N --peers S=addr,... [--sever-link-after N]]\n              \
         [--json]\n  \
         ic-prio recover <trace.jsonl> [--json]\n  \
         ic-prio fed (--dag <file> | --family <spec>) [--shards N]\n              \
         [--workers K] [--mean-ms N] [--flaky] [--sever-link-after N] [--trace-dir DIR]\n              \
         [--merged out.jsonl] [--lease-ms N] [--seed S] [--json]\n  \
         ic-prio merge <shard.jsonl>... [--out merged.jsonl] [--deny <code-name>] [--json]\n  \
         ic-prio work --connect <addr> [--id s] [--speed f] [--mean-ms N] [--batch N]\n              \
         [--retry-ms N]\n              \
         [--flaky p | --die-after K | --stall-after K | --sever-after K] [--seed S] [--json]\n  \
         ic-prio dot <file>\n  ic-prio export <file>"
    );
    ExitCode::from(USAGE_EXIT)
}

/// A bare usage error: the usage text with no explanatory line.
const BARE: CliError = CliError::Usage(None);

/// Resolve a `--deny` name to a diagnostic code. `orphans` is the
/// ergonomic alias for IC0003; any `ICxxxx` code name from the table
/// works too (e.g. `EnvelopeDeparture`).
fn deny_code(name: &str) -> Result<&'static str, CliError> {
    if name == "orphans" {
        return Ok(ic_audit::diag::UNREACHABLE_NODE);
    }
    ic_audit::diag::CODE_TABLE
        .iter()
        .find(|(code, table_name, _)| *code == name || *table_name == name)
        .map(|(code, _, _)| *code)
        .ok_or_else(|| CliError::usage(format!("unknown --deny code {name:?}")))
}

fn order(mut flags: Flags<'_>) -> Result<CmdOutput, CliError> {
    let path = flags.positional().ok_or(BARE)?;
    let policy = match *flags.rest() {
        [] => OrderPolicy::Auto,
        ["--policy", p] => OrderPolicy::from_flag(p)
            .ok_or_else(|| CliError::usage(format!("unknown policy {p:?}")))?,
        _ => return Err(BARE),
    };
    Ok(commands::order(&load(path)?, policy))
}

/// Two modes share the verb: the positional form `check <file>
/// <order-file>` validates a priority order; the flag form `check
/// --family ...` model-checks the lease protocol by exhaustive
/// interleaving exploration.
fn check(mut flags: Flags<'_>) -> Result<CmdOutput, CliError> {
    if flags.rest().first().is_some_and(|a| a.starts_with("--")) {
        return model_check(flags);
    }
    let (Some(path), Some(order_path), []) = (flags.positional(), flags.positional(), flags.rest())
    else {
        return Err(BARE);
    };
    Ok(commands::check(&load(path)?, &read(order_path)?)?)
}

fn model_check(mut flags: Flags<'_>) -> Result<CmdOutput, CliError> {
    let (steal, crash) = (flags.switch("--steal"), flags.switch("--crash"));
    let mut family = None;
    let (mut workers, mut depth, mut max_states) = (2usize, 48usize, 200_000usize);
    for pair in flags.pairs() {
        let (flag, v) = pair?;
        match flag {
            "--family" => family = Some(v.str()),
            "--workers" => workers = v.positive()?,
            "--depth" => depth = v.positive()?,
            "--max-states" => max_states = v.positive()?,
            _ => return Err(BARE),
        }
    }
    let spec = family.ok_or_else(|| {
        CliError::usage("check --family <spec> is required in model-checker mode")
    })?;
    Ok(commands::model_check(
        spec, workers, depth, max_states, steal, crash,
    )?)
}

fn sim(mut flags: Flags<'_>) -> Result<CmdOutput, CliError> {
    let first = flags.positional().ok_or(BARE)?;
    let (path, family) = if first == "--family" {
        (None, Some(flags.positional().ok_or(BARE)?))
    } else {
        (Some(first), None)
    };
    let (mut policy_flag, mut clients, mut seed) = ("greedy", 4usize, 0x1C5EEDu64);
    let mut trace_path = None;
    for pair in flags.pairs() {
        let (flag, v) = pair?;
        match flag {
            "--policy" => policy_flag = v.str(),
            "--clients" => clients = v.positive()?,
            "--seed" => seed = v.int()?,
            "--trace" => trace_path = Some(v.str()),
            _ => return Err(BARE),
        }
    }
    let policy = commands::sim_policy_from_flag(policy_flag, seed)
        .ok_or_else(|| CliError::usage(format!("unknown sim policy {policy_flag:?}")))?;
    let nd = match (path, family) {
        (Some(path), _) => load(path)?,
        (None, Some(spec)) => commands::named_family_dag(spec).map_err(CliError::usage)?.1,
        (None, None) => unreachable!("sim takes exactly one of <file> or --family"),
    };
    let (out, trace) = commands::sim_run(&nd, &policy, clients, seed);
    if let Some(tp) = trace_path {
        std::fs::write(tp, trace.to_jsonl()).map_err(|e| format!("cannot write {tp}: {e}"))?;
    }
    Ok(out)
}

fn audit(mut flags: Flags<'_>) -> Result<CmdOutput, CliError> {
    let mut deny = Vec::new();
    for (_, name) in flags.take_pairs(&["--deny"])? {
        deny.push(deny_code(name)?);
    }
    Ok(match *flags.rest() {
        ["--claims"] => commands::audit_claims(),
        ["--dag", path] => commands::audit_dag_text(&read(path)?, None, &deny)?,
        ["--dag", path, "--order", order_path] => {
            commands::audit_dag_text(&read(path)?, Some(&read(order_path)?), &deny)?
        }
        ["--family", spec] => commands::audit_family(spec, &deny)?,
        ["--schedule", path] => commands::audit_trace_text(&read(path)?, &deny)?,
        _ => return Err(BARE),
    })
}

fn recover(mut flags: Flags<'_>) -> Result<CmdOutput, CliError> {
    let path = flags
        .positional()
        .ok_or_else(|| CliError::usage("recover takes a trace file"))?;
    if !flags.rest().is_empty() {
        return Err(BARE);
    }
    Ok(commands::recover_run(path)?)
}

fn merge(mut flags: Flags<'_>) -> Result<CmdOutput, CliError> {
    let (mut deny, mut out_path) = (Vec::new(), None);
    for (flag, value) in flags.take_pairs(&["--out", "--deny"])? {
        match flag {
            "--out" => out_path = Some(value),
            _ => deny.push(deny_code(value)?),
        }
    }
    if flags.rest().is_empty() {
        return Err(CliError::usage("merge needs at least one shard trace"));
    }
    let mut texts = Vec::new();
    for &p in flags.rest() {
        texts.push((p.to_string(), read(p)?));
    }
    Ok(commands::merge_run(&texts, out_path, &deny)?)
}

fn work(flags: Flags<'_>) -> Result<CmdOutput, CliError> {
    let mut cfg = ic_net::WorkerConfig::default();
    let mut connect = None;
    for pair in flags.pairs() {
        let (flag, v) = pair?;
        match flag {
            _ if worker_flag(&mut cfg, flag, v)? => {}
            "--connect" => connect = Some(v.str()),
            _ => return Err(BARE),
        }
    }
    let addr = connect.ok_or_else(|| CliError::usage("work needs --connect <addr>"))?;
    Ok(commands::work_run(addr, &cfg)?)
}

/// Dispatch the verb. Every subcommand but `dot`/`export` (raw text)
/// takes `--json` and renders one [`CmdOutput`] envelope.
fn run<'a>(mut args: impl Iterator<Item = &'a str>) -> Result<ExitCode, CliError> {
    let verb = args.next().ok_or(BARE)?;
    let mut flags = Flags::new(args);
    let json = flags.switch("--json");
    let out = match verb {
        "order" => order(flags)?,
        "stats" => match (flags.positional(), flags.rest()) {
            (Some(path), []) => commands::stats_report(&load(path)?),
            _ => return Err(BARE),
        },
        "check" => check(flags)?,
        "sim" => sim(flags)?,
        "audit" => audit(flags)?,
        "serve" => commands::serve(flags)?,
        "recover" => recover(flags)?,
        "fed" => commands::fed(flags)?,
        "merge" => merge(flags)?,
        "work" => work(flags)?,
        "dot" | "export" => {
            let nd = load(flags.positional().ok_or(BARE)?)?;
            let render = if verb == "dot" {
                commands::dot
            } else {
                commands::export
            };
            print!("{}", render(&nd));
            return Ok(ExitCode::SUCCESS);
        }
        "--help" | "-h" | "help" => {
            usage();
            return Ok(ExitCode::SUCCESS);
        }
        _ => return Err(BARE),
    };
    print!("{}", out.render(json));
    Ok(ExitCode::from(out.exit_code()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args.iter().map(String::as_str)) {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            if let Some(msg) = msg {
                eprintln!("error: {msg}");
            }
            usage()
        }
        Err(CliError::Fatal(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(USAGE_EXIT)
        }
    }
}
