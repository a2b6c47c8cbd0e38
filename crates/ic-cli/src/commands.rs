//! The tool's commands, as pure functions returning a [`CmdOutput`]
//! envelope (so they are unit-testable without process plumbing).
//!
//! Functions returning `Result<CmdOutput, String>` reserve the `Err`
//! arm for parse/usage errors that prevent the command from running —
//! the binary maps those to exit code `2`, while a `CmdOutput` with
//! findings exits `1`. The two launcher verbs, [`serve`] and [`fed`],
//! whose whole input is their flags, read them with the shared
//! [`Flags`] reader themselves and so return a [`CliError`].

use std::fmt::Write as _;

use ic_audit::report::json_string;
use ic_check::sim::{simulate_traced, ClientProfile, SimConfig};
use ic_dag::dot::{to_dot, DotOptions};
use ic_dag::stats::stats;
use ic_sched::heuristics::{schedule_with, Policy};
use ic_sched::quality::{area_under, summarize};
use ic_sim::trace::MemorySink;
use ic_sim::Trace;

use crate::flags::{server_flag, CliError, Flags};
use crate::output::{json_num_array, json_str_array, CmdOutput};
use crate::parse::NamedDag;

/// How to choose the priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Exact IC-optimal (or, failing that, exact minimum-regret)
    /// schedule when the dag is small enough; greedy lookahead
    /// otherwise.
    Auto,
    /// Force the greedy one-step-lookahead heuristic.
    Greedy,
    /// Plain FIFO (Condor DAGMan's order) — for comparison.
    Fifo,
}

impl OrderPolicy {
    /// Parse a `--policy` value.
    pub fn from_flag(s: &str) -> Option<OrderPolicy> {
        match s {
            "auto" => Some(OrderPolicy::Auto),
            "greedy" => Some(OrderPolicy::Greedy),
            "fifo" => Some(OrderPolicy::Fifo),
            _ => None,
        }
    }
}

/// Parse a `sim --policy` value into a server allocation policy.
/// `random` draws from `seed`.
pub fn sim_policy_from_flag(s: &str, seed: u64) -> Option<Policy> {
    match s {
        "fifo" => Some(Policy::Fifo),
        "lifo" => Some(Policy::Lifo),
        "random" => Some(Policy::Random(seed)),
        "greedy" => Some(Policy::GreedyEligibility),
        "maxout" => Some(Policy::MaxOutDegree),
        "mindepth" => Some(Policy::MinDepth),
        _ => None,
    }
}

/// Exhaustive machinery is engaged up to this many tasks.
pub const EXACT_LIMIT: usize = 22;

/// The best priority order this build can find for `dag`, and how it
/// was found: the exact IC-optimal schedule up to [`EXACT_LIMIT`]
/// tasks, else (none existing) the exact minimum-regret one; greedy
/// lookahead above the limit.
fn best_order(dag: &ic_dag::Dag) -> (ic_sched::Schedule, String) {
    let n = dag.num_nodes();
    if n > EXACT_LIMIT {
        let how = format!("greedy lookahead ({n} tasks > exact limit {EXACT_LIMIT})");
        return (schedule_with(dag, &Policy::GreedyEligibility), how);
    }
    // Both exact searches fail only above 64 nodes.
    match ic_sched::optimal::find_ic_optimal(dag).expect("within the exact limit") {
        Some(s) => (s, "exact IC-optimal".to_string()),
        None => {
            let (r, s) =
                ic_sched::almost::min_regret_schedule(dag).expect("within the exact limit");
            let how = format!("exact minimum-regret (regret {r}; no IC-optimal schedule exists)");
            (s, how)
        }
    }
}

/// `order`: compute and report a priority order.
pub fn order(nd: &NamedDag, policy: OrderPolicy) -> CmdOutput {
    let dag = &nd.dag;
    let n = dag.num_nodes();
    let (schedule, how) = match policy {
        OrderPolicy::Fifo => (schedule_with(dag, &Policy::Fifo), "FIFO".to_string()),
        OrderPolicy::Greedy => (
            schedule_with(dag, &Policy::GreedyEligibility),
            "greedy lookahead".to_string(),
        ),
        OrderPolicy::Auto => best_order(dag),
    };

    let profile = schedule.profile(dag);
    let summary = summarize(&profile);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} tasks, {} dependencies — {how}",
        n,
        dag.num_arcs()
    );
    let _ = writeln!(
        out,
        "# eligibility: area {}, peak {}, interior minimum {}",
        summary.area, summary.peak, summary.min_interior
    );
    if n <= EXACT_LIMIT {
        if let Ok(env) = ic_sched::optimal::optimal_envelope(dag) {
            let _ = writeln!(
                out,
                "# envelope area {} (this order: {})",
                area_under(&env),
                summary.area
            );
        }
    }
    let _ = writeln!(out, "# profile: {profile:?}");
    for (i, &v) in schedule.order().iter().enumerate() {
        let _ = writeln!(out, "{i:>4}  {}", nd.name(v));
    }

    let data = format!(
        "{{\"how\": {}, \"order\": {}, \"profile\": {}}}",
        json_string(&how),
        json_str_array(schedule.order().iter().map(|&v| nd.name(v))),
        json_num_array(profile.iter().copied()),
    );
    CmdOutput::success("order", out).with_data(data)
}

/// `stats`: structural summary plus sources and sinks.
pub fn stats_report(nd: &NamedDag) -> CmdOutput {
    let dag = &nd.dag;
    let mut out = String::new();
    let _ = writeln!(out, "{}", stats(dag));
    let _ = writeln!(out, "sources: {}", join_names(nd, dag.sources()));
    let _ = writeln!(out, "sinks:   {}", join_names(nd, dag.sinks()));
    let data = format!(
        "{{\"nodes\": {}, \"arcs\": {}, \"sources\": {}, \"sinks\": {}}}",
        dag.num_nodes(),
        dag.num_arcs(),
        json_str_array(dag.sources().map(|v| nd.name(v).to_string())),
        json_str_array(dag.sinks().map(|v| nd.name(v).to_string())),
    );
    CmdOutput::success("stats", out).with_data(data)
}

/// `check`: validate a proposed order (task names, one per line) and
/// report its profile against the exact envelope where feasible.
/// Unknown task names are parse errors (`Err`); coverage and
/// precedence violations are IC0101 findings.
pub fn check(nd: &NamedDag, order_text: &str) -> Result<CmdOutput, String> {
    let dag = &nd.dag;
    let mut ids = Vec::new();
    for (i, raw) in order_text.lines().enumerate() {
        let name = raw.trim();
        if name.is_empty() || name.starts_with('#') {
            continue;
        }
        match nd.by_name.get(name) {
            Some(&v) => ids.push(v),
            None => return Err(format!("line {}: unknown task {name:?}", i + 1)),
        }
    }
    let diags = ic_audit::order::audit_order(dag, &ids);
    if !diags.is_empty() {
        let out = CmdOutput::success("check", "invalid order\n")
            .with_data("{\"valid\": false}")
            .with_diagnostics(diags);
        return Ok(out);
    }
    let schedule = ic_sched::Schedule::new_unchecked(ids);
    let profile = schedule.profile(dag);
    let mut out = String::new();
    let _ = writeln!(out, "valid order over {} tasks", dag.num_nodes());
    let _ = writeln!(out, "profile: {profile:?}");
    let mut optimal = String::from("null");
    let mut regret = String::from("null");
    if dag.num_nodes() <= EXACT_LIMIT {
        let opt = ic_sched::optimal::is_ic_optimal(dag, &schedule).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "IC-optimal: {opt}");
        optimal = opt.to_string();
        if !opt {
            let r = ic_sched::almost::regret(dag, &schedule).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "regret vs envelope: {r}");
            regret = r.to_string();
        }
    }
    let data = format!(
        "{{\"valid\": true, \"profile\": {}, \"ic_optimal\": {optimal}, \"regret\": {regret}}}",
        json_num_array(profile.iter().copied()),
    );
    Ok(CmdOutput::success("check", out).with_data(data))
}

/// `check --family ...`: model-check the lease protocol by exhaustive
/// interleaving exploration (see the `ic-check` crate). A violation
/// surfaces as an error-severity diagnostic with its `IC05xx` code and
/// the minimized counterexample in the text body, flipping the exit
/// code to `1`. With `crash` the crash/restart transition is checked
/// instead: the server is killed at every reachable prefix, rebuilt
/// from its trace, and the rebuilt machine must agree with the live
/// one (`IC07xx` codes on divergence).
pub fn model_check(
    spec: &str,
    workers: usize,
    depth: usize,
    max_states: usize,
    steal: bool,
    crash: bool,
) -> Result<CmdOutput, String> {
    if !(1..=8).contains(&workers) {
        return Err("--workers takes 1..=8 for exhaustive exploration".to_string());
    }
    let (label, dag, _) = crate::parse::family_dag(spec)?;
    if dag.num_nodes() > 16 {
        return Err(format!(
            "family {label} has {} nodes; exhaustive checking caps at 16 \
             (use a smaller instance)",
            dag.num_nodes()
        ));
    }
    let mut fleet = ic_check::FleetSpec::of(workers);
    if steal {
        fleet = fleet.with_steal();
    }
    let cfg = ic_check::CheckConfig {
        max_depth: depth,
        max_states,
        minimize: true,
    };
    let checker = if crash {
        ic_check::check_crash
    } else {
        ic_check::check
    };
    let outcome = checker(
        &dag,
        &Policy::Fifo,
        &fleet,
        &cfg,
        ic_net::machine::SeededBugs::default(),
    );
    let stats = outcome.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} {label} with {workers} worker(s): {} states, {} transitions \
         ({} visited-pruned, {} slept), {} complete runs, deepest {}",
        if crash {
            "crash-checked"
        } else {
            "model-checked"
        },
        stats.states,
        stats.transitions,
        stats.visited_pruned,
        stats.sleep_pruned,
        stats.complete_runs,
        stats.deepest
    );
    if !stats.exhaustive() {
        let _ = writeln!(
            out,
            "bounded: exploration truncated by {}",
            if stats.state_capped {
                "--max-states"
            } else {
                "--depth"
            }
        );
    }
    let data = format!(
        "{{\"family\": \"{label}\", \"workers\": {workers}, \"crash\": {crash}, \
         \"states\": {}, \
         \"transitions\": {}, \"visited_pruned\": {}, \"sleep_pruned\": {}, \
         \"complete_runs\": {}, \"deepest\": {}, \"exhaustive\": {}, \"clean\": {}}}",
        stats.states,
        stats.transitions,
        stats.visited_pruned,
        stats.sleep_pruned,
        stats.complete_runs,
        stats.deepest,
        stats.exhaustive(),
        outcome.is_clean(),
    );
    match outcome {
        ic_check::CheckOutcome::Clean(_) => {
            let _ = writeln!(out, "all invariants hold on every explored state");
            Ok(CmdOutput::success("check", out).with_data(data))
        }
        ic_check::CheckOutcome::Violation(v) => {
            let _ = writeln!(out, "counterexample ({} events):", v.trace.len());
            for (i, ev) in v.trace.iter().enumerate() {
                let _ = writeln!(out, "  {:>3}. {ev}", i + 1);
            }
            Ok(CmdOutput::success("check", out)
                .with_data(data)
                .with_diagnostics(vec![v.diag.clone()]))
        }
    }
}

/// `export`: re-serialize to the canonical edge-list format (stable,
/// diffable; round-trips through [`crate::parse_dag`]).
pub fn export(nd: &NamedDag) -> String {
    ic_dag::serialize::to_edge_list(&nd.dag)
}

/// `dot`: Graphviz output.
pub fn dot(nd: &NamedDag) -> String {
    to_dot(
        &nd.dag,
        &DotOptions {
            name: "tasks".to_string(),
            ..DotOptions::default()
        },
    )
}

/// `sim`: run a simulated client fleet against the lease machine
/// (`ic_check::sim`) and report its trace-derived metrics. Returns the
/// envelope and the full execution trace (the binary writes it out
/// under `--trace`).
pub fn sim_run(nd: &NamedDag, policy: &Policy, clients: usize, seed: u64) -> (CmdOutput, Trace) {
    let cfg = SimConfig {
        clients: ClientProfile {
            num_clients: clients,
            ..ClientProfile::default()
        },
        seed,
        ..SimConfig::default()
    };
    let mut sink = MemorySink::new();
    let r = simulate_traced(&nd.dag, policy, &cfg, &mut sink);
    let trace = sink.into_trace().expect("simulate_traced records a header");

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} tasks, {} client(s), policy {}, seed {seed}",
        nd.dag.num_nodes(),
        clients,
        policy.name()
    );
    let _ = writeln!(out, "makespan:     {:.3}", r.makespan);
    let _ = writeln!(out, "utilization:  {:.3}", r.utilization);
    let _ = writeln!(out, "idle time:    {:.3}", r.idle_time);
    let _ = writeln!(out, "mean pool:    {:.3}", r.mean_pool());
    let _ = writeln!(out, "gridlock:     {}", r.gridlock_events);
    let _ = writeln!(out, "unsatisfied:  {}", r.unsatisfied_at_batch);
    let _ = writeln!(out, "failures:     {}", r.failures);
    let _ = writeln!(out, "events:       {}", trace.events.len());

    let data = format!(
        "{{\"policy\": {}, \"clients\": {clients}, \"seed\": \"{seed}\", \
         \"makespan\": {}, \"utilization\": {}, \"idle_time\": {}, \"mean_pool\": {}, \
         \"gridlock\": {}, \"unsatisfied_at_batch\": {}, \"failures\": {}, \"events\": {}}}",
        json_string(policy.name()),
        r.makespan,
        r.utilization,
        r.idle_time,
        r.mean_pool(),
        r.gridlock_events,
        r.unsatisfied_at_batch,
        r.failures,
        trace.events.len(),
    );
    (CmdOutput::success("sim", out).with_data(data), trace)
}

/// `audit --claims`: machine-check the whole paper-claims registry.
pub fn audit_claims() -> CmdOutput {
    let report = ic_audit::run_all_claims();
    let clean = report.is_clean();
    CmdOutput {
        command: "audit",
        ok: clean,
        text: report.render_text(),
        data: Some(report.render_json()),
        diagnostics: Vec::new(),
    }
}

/// `audit --dag`: run the structural passes on a raw edge-list file
/// and, when an order file is supplied, the order and envelope passes
/// too. Codes listed in `deny` are escalated to errors. `Err` means
/// the file did not parse.
pub fn audit_dag_text(
    dag_text: &str,
    order_text: Option<&str>,
    deny: &[&'static str],
) -> Result<CmdOutput, String> {
    let raw = crate::parse::parse_raw(dag_text).map_err(|e| e.to_string())?;
    let mut diags = ic_audit::graph::audit_edges(raw.names.len(), &raw.arcs);
    let structurally_clean = diags
        .iter()
        .all(|d| d.severity != ic_audit::Severity::Error);

    let mut data = None;
    if structurally_clean {
        // The edge list is a dag; build it once for the lattice count
        // and (when an order is supplied) the order passes.
        let nd = crate::parse::parse_dag(dag_text).expect("structurally clean");
        // Size of the down-set lattice (the schedule-state space), when
        // small enough to walk: `null` past the cap or the 64-node
        // bitmask limit. A 64-node antichain has 2^64 states, so the
        // count must be bounded, not merely computed.
        const STATE_CAP: u64 = 1 << 20;
        let states = ic_dag::ideals::IdealEnumerator::new(&nd.dag)
            .ok()
            .and_then(|en| en.count_up_to(STATE_CAP));
        data = Some(format!(
            "{{\"nodes\": {}, \"arcs\": {}, \"states\": {}}}",
            nd.dag.num_nodes(),
            raw.arcs.len(),
            states.map_or_else(|| "null".to_string(), |c| c.to_string()),
        ));
        if let Some(order_text) = order_text {
            let mut order = Vec::new();
            let mut unknown = false;
            for (i, line) in order_text.lines().enumerate() {
                let name = line.trim();
                if name.is_empty() || name.starts_with('#') {
                    continue;
                }
                match nd.by_name.get(name) {
                    Some(&v) => order.push(v),
                    None => {
                        unknown = true;
                        diags.push(ic_audit::Diagnostic::error(
                            ic_audit::diag::NOT_A_TOPOLOGICAL_ORDER,
                            format!("line {}: unknown task {name:?}", i + 1),
                        ));
                    }
                }
            }
            if !unknown {
                let order_diags = ic_audit::order::audit_order(&nd.dag, &order);
                let order_ok = order_diags.is_empty();
                diags.extend(order_diags);
                if order_ok {
                    if let Some(gap) = ic_audit::order::audit_envelope(&nd.dag, &order) {
                        diags.extend(gap);
                    }
                }
            }
        }
    }

    let mut out = finish_audit(diags, deny);
    if data.is_some() {
        out.data = data;
    }
    Ok(out)
}

/// `audit --schedule`: replay a JSONL execution trace (IC0401–IC0405).
/// `Err` means the trace did not parse.
pub fn audit_trace_text(jsonl: &str, deny: &[&'static str]) -> Result<CmdOutput, String> {
    let trace = Trace::from_jsonl(jsonl).map_err(|e| e.to_string())?;
    let diags = ic_audit::audit_trace(&trace);
    let data = format!(
        "{{\"nodes\": {}, \"clients\": {}, \"policy\": {}, \"events\": {}}}",
        trace.header.nodes,
        trace.header.clients,
        json_string(&trace.header.policy),
        trace.events.len(),
    );
    let mut out = finish_audit(diags, deny);
    out.data = Some(data);
    Ok(out)
}

/// Apply `--deny` escalations, render the diagnostic summary, and
/// compute the verdict.
fn finish_audit(mut diags: Vec<ic_audit::Diagnostic>, deny: &[&'static str]) -> CmdOutput {
    for code in deny {
        ic_audit::diag::deny(&mut diags, code);
    }
    let clean = diags
        .iter()
        .all(|d| d.severity != ic_audit::Severity::Error);
    let text = format!(
        "{} diagnostic(s), audit {}\n",
        diags.len(),
        if clean { "passed" } else { "FAILED" }
    );
    CmdOutput::success("audit", text).with_diagnostics(diags)
}

pub use crate::parse::{family_dag, named_family_dag};

/// `audit --family`: generate a paper-family instance, serialize it,
/// and run the structural passes on the edge list; when the family
/// carries a closed-form IC-optimal schedule, audit that schedule as
/// an order too (topology + envelope). `Err` means the spec is bad.
pub fn audit_family(spec: &str, deny: &[&'static str]) -> Result<CmdOutput, String> {
    let (_, dag, sched) = family_dag(spec)?;
    let text = ic_dag::serialize::to_edge_list(&dag);
    let order_text = sched.map(|s| {
        let names = ic_dag::serialize::edge_list_names(&dag);
        s.order()
            .iter()
            .map(|v| names[v.index()].as_str())
            .collect::<Vec<_>>()
            .join("\n")
    });
    audit_dag_text(&text, order_text.as_deref(), deny)
}

/// Resolve a `serve --policy` flag into an allocation policy. The sim
/// heuristics all work; `optimal` uses the family's closed-form
/// schedule when one is known, and `best_order` otherwise.
pub fn serve_policy(
    dag: &ic_dag::Dag,
    flag: &str,
    seed: u64,
    family_schedule: Option<ic_sched::Schedule>,
) -> Result<Box<dyn ic_sched::policy::AllocationPolicy>, String> {
    if flag == "optimal" {
        return Ok(Box::new(
            family_schedule.unwrap_or_else(|| best_order(dag).0),
        ));
    }
    sim_policy_from_flag(flag, seed)
        .map(|p| Box::new(p) as Box<dyn ic_sched::policy::AllocationPolicy>)
        .ok_or_else(|| format!("unknown serve policy {flag:?}"))
}

/// Read a file named on the command line.
pub fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Fatal(format!("cannot read {path}: {e}")))
}

/// Read and parse an edge-list dag file.
pub fn load(path: &str) -> Result<NamedDag, CliError> {
    crate::parse_dag(&read(path)?).map_err(|e| CliError::Fatal(format!("{path}: {e}")))
}

/// The dag a launcher verb runs on: exactly one of `--dag <file>` or
/// `--family <spec>`, with the family's closed-form schedule when it
/// has one.
fn dag_source(
    verb: &str,
    path: Option<&str>,
    family: Option<&str>,
) -> Result<(String, ic_dag::Dag, Option<ic_sched::Schedule>), CliError> {
    match (path, family) {
        (Some(path), None) => Ok((path.to_string(), load(path)?.dag, None)),
        (None, Some(spec)) => family_dag(spec).map_err(CliError::usage),
        _ => Err(CliError::usage(format!(
            "{verb} needs exactly one of --dag or --family"
        ))),
    }
}

/// Parse `--shard i/N` into `(i, N)`; `i < N`, `N > 0`.
fn parse_shard_spec(spec: &str) -> Option<(u64, u64)> {
    let (i, n) = spec.split_once('/')?;
    let i: u64 = i.parse().ok()?;
    let n: u64 = n.parse().ok()?;
    (i < n).then_some((i, n))
}

/// Parse `--peers 0=host:port,2=host:port` into `(shard, addr)` pairs
/// for shard `i` of `n`: each id another shard's, none twice, and every
/// lower shard present — those are the links this shard dials, and one
/// without an address would never come up. Higher shards dial us, so
/// their entries are optional.
fn parse_peers(spec: &str, i: u64, n: u64) -> Result<Vec<(u64, String)>, String> {
    let mut peers: Vec<(u64, String)> = Vec::new();
    for entry in spec.split(',').filter(|s| !s.is_empty()) {
        let (shard, addr) = entry
            .split_once('=')
            .ok_or_else(|| format!("--peers entry {entry:?} is not shard=addr"))?;
        let shard: u64 = shard
            .parse()
            .map_err(|_| format!("--peers shard {shard:?} is not an integer"))?;
        if shard >= n {
            return Err(format!(
                "--peers shard {shard} is not one of the {n} shards"
            ));
        }
        if shard == i {
            return Err(format!("--peers names this shard ({i}) itself"));
        }
        if peers.iter().any(|(s, _)| *s == shard) {
            return Err(format!("--peers names shard {shard} twice"));
        }
        peers.push((shard, addr.to_string()));
    }
    match (0..i).find(|j| !peers.iter().any(|(s, _)| s == j)) {
        Some(j) => Err(format!(
            "--shard {i}/{n} dials every lower shard and --peers lacks shard {j}"
        )),
        None => Ok(peers),
    }
}

/// `serve`: run the live TCP task server until the dag drains, in one
/// of three modes chosen by its flags:
///
/// * fresh (the default) — serve the whole dag; `--trace` creates the
///   JSONL write-ahead trace (flushed per lease-affecting event);
/// * `--resume-from <trace>` — replay a crashed server's trace as a
///   write-ahead log (`ic_net::recovery`), open the resume window for
///   surviving v2 workers, and **append** to the same file, so the
///   concatenated trace audits clean as one run;
/// * `--shard i/N` — serve ONE shard of a federated computation: the
///   global dag is partitioned exactly as every peer partitions it
///   (the cutter [`ic_fed::Partition::auto`] picks for the dag, same
///   shard count), this server takes sub-dag `i`
///   and exchanges v3 `remote-done` notifications with its peers for
///   the cut edges.
///
/// Whatever the mode, the path is bind → `--port-file` (the hook
/// scripts use to find an ephemeral port) → [`ic_net::Driver::tcp`] →
/// [`ic_net::Reactor`] → trace sink (create / append / none) →
/// `run_until_drain` → `finish` → the one report renderer.
pub fn serve(mut flags: Flags<'_>) -> Result<CmdOutput, CliError> {
    let replicate = flags.switch("--replicate-cut");
    let (mut dag_path, mut family, mut trace, mut resume_from) = (None, None, None, None);
    let (mut policy, mut listen) = ("optimal", "127.0.0.1:0");
    let (mut port_file, mut shard_spec, mut peers_spec) = (None, None, None);
    let mut sever_link_after = None;
    let mut net_cfg = ic_net::ServerConfig::default();
    for pair in flags.pairs() {
        let (flag, v) = pair?;
        match flag {
            _ if server_flag(&mut net_cfg, flag, v)? => {}
            "--dag" => dag_path = Some(v.str()),
            "--family" => family = Some(v.str()),
            "--policy" => policy = v.str(),
            "--listen" => listen = v.str(),
            "--trace" => trace = Some(v.str()),
            "--resume-from" => resume_from = Some(v.str()),
            "--port-file" => port_file = Some(v.str()),
            "--shard" => shard_spec = Some(v.str()),
            "--peers" => peers_spec = Some(v.str()),
            "--sever-link-after" => sever_link_after = Some(v.int()?),
            _ => return Err(CliError::Usage(None)),
        }
    }
    let (dag_label, dag, family_schedule) = dag_source("serve", dag_path, family)?;
    if resume_from.is_some() && (shard_spec.is_some() || trace.is_some()) {
        return Err(CliError::usage(
            "--resume-from appends to the recovered trace itself \
             and is incompatible with --trace and --shard",
        ));
    }
    let shard = match shard_spec {
        Some(spec) => {
            let (i, n) = parse_shard_spec(spec)
                .ok_or_else(|| CliError::usage("--shard takes i/N with i < N"))?;
            let peers = parse_peers(peers_spec.unwrap_or(""), i, n).map_err(CliError::usage)?;
            let (part, mut plans) = fed_plans(&dag, n, replicate);
            let idx = usize::try_from(i)
                .ok()
                .filter(|&idx| idx < plans.len())
                .ok_or_else(|| format!("no plan for shard {i}"))?;
            Some((i, n, peers, plans.swap_remove(idx), part.cut_size()))
        }
        None if replicate || peers_spec.is_some() => {
            return Err(CliError::usage("--replicate-cut/--peers need --shard i/N"));
        }
        None => None,
    };
    // A shard serves its sub-dag; a family's closed-form global
    // schedule projects onto it order-preservingly.
    let (dag, schedule) = match &shard {
        Some((.., plan, _)) => (
            &plan.dag,
            family_schedule.and_then(|s| plan.schedule_from_global(s.order())),
        ),
        None => (&dag, family_schedule),
    };
    let policy = serve_policy(dag, policy, net_cfg.seed, schedule).map_err(CliError::usage)?;
    let policy = policy.as_ref();
    let recovery = match resume_from {
        Some(wal) => {
            let rcfg = ic_net::RecoveryConfig::default();
            let replayed = ic_net::Recovery::replay(dag, policy, net_cfg.clone(), rcfg, wal);
            Some(replayed.map_err(|e| format!("cannot resume from {wal}: {e}"))?)
        }
        None => None,
    };
    let recovered = recovery.as_ref().map(|r| r.report().clone());

    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    if let Some(pf) = port_file {
        std::fs::write(pf, format!("{addr}\n")).map_err(|e| format!("cannot write {pf}: {e}"))?;
    }
    let driver = ic_net::Driver::tcp(listener).map_err(|e| format!("cannot serve: {e}"))?;
    let mut reactor = match recovery {
        Some(recovery) => recovery.into_reactor(driver),
        None => ic_net::Reactor::new(dag, policy, net_cfg, driver),
    };
    if let Some((_, _, peers, plan, _)) = &shard {
        let mut fed_cfg = plan.fed_config(peers.clone());
        fed_cfg.sever_link_after = sever_link_after;
        reactor.set_fed(plan.meta(), fed_cfg);
    }

    let trace_path = resume_from.or(trace);
    let mut file = match (resume_from, trace) {
        (Some(p), _) => {
            Some(ic_sim::FileSink::append(p).map_err(|e| format!("cannot append to {p}: {e}"))?)
        }
        (None, Some(p)) => {
            Some(ic_sim::FileSink::create(p).map_err(|e| format!("cannot create {p}: {e}"))?)
        }
        (None, None) => None,
    };
    let mut null = ic_sim::trace::NullSink;
    let sink: &mut dyn ic_sim::trace::TraceSink = match file.as_mut() {
        Some(file) => file,
        None => &mut null,
    };
    let report = reactor.run_until_drain(sink).map_err(|e| e.to_string())?;
    if let (Some(file), Some(p)) = (file, trace_path) {
        file.finish()
            .map_err(|e| format!("cannot flush {p}: {e}"))?;
    }

    let (tasks, policy) = (dag.num_nodes(), policy.name());
    let what = match (&shard, resume_from) {
        (Some((i, n, _, plan, cut)), _) => format!(
            "shard {i}/{n} of {dag_label}: {tasks} local task(s) ({} stub(s), \
             {} replica(s), cut {cut}) on {addr}",
            plan.stubs.len(),
            plan.replicas.len(),
        ),
        (None, Some(wal)) => format!("resumed {dag_label} ({tasks} tasks) on {addr} from {wal}"),
        (None, None) => format!("served {dag_label} ({tasks} tasks) on {addr}"),
    };
    let mut text = format!("# {what}, policy {policy}\n");
    let mut data = String::new();
    if let (Some(rec), Some(wal)) = (&recovered, resume_from) {
        let _ = writeln!(
            text,
            "recovered:    {} events, {} completions, {} leases re-armed, \
             {} worker(s) awaited",
            rec.events_replayed, rec.completions, rec.tasks_rearmed, rec.workers_awaited
        );
        if let Some(torn) = &rec.torn_tail {
            let _ = writeln!(
                text,
                "# warning [IC0700]: dropped torn trace line {} (crash mid-write)",
                torn.line
            );
        }
        let _ = write!(
            data,
            ", \"resumed_from\": {}, \"events_replayed\": {}, \"recovered_completions\": {}, \
             \"tasks_rearmed\": {}, \"workers_awaited\": {}, \"torn_tail\": {}",
            json_string(wal),
            rec.events_replayed,
            rec.completions,
            rec.tasks_rearmed,
            rec.workers_awaited,
            rec.torn_tail.is_some(),
        );
    }
    let common = serve_report(&report, &addr.to_string(), &policy, &mut text);
    if let Some((i, n, _, _, cut)) = &shard {
        let (tx, rx, remote) = (report.peer_tx, report.peer_rx, report.remote_completions);
        let _ = writeln!(text, "remote completions: {remote}");
        let _ = writeln!(text, "peer frames:        {tx} sent, {rx} received");
        let _ = writeln!(text, "peer reconnects:    {}", report.peer_reconnects);
        let _ = write!(
            data,
            ", \"shard\": {i}, \"shards\": {n}, \"local_nodes\": {tasks}, \"cut_edges\": {cut}, \
             \"remote_completions\": {remote}, \"peer_tx\": {tx}, \"peer_rx\": {rx}, \
             \"peer_reconnects\": {}",
            report.peer_reconnects,
        );
    }
    if report.late_workers > 0 && trace_path.is_some() {
        let _ = writeln!(
            text,
            "# warning: {} worker(s) registered after the trace header was written; \
             their parameters are missing from the header, so the trace replays order \
             but not timing. Pass --expect {} to hold the header for all workers.",
            report.late_workers, report.workers_registered
        );
    }
    Ok(CmdOutput::success("serve", text).with_data(format!("{{{common}{data}}}")))
}

/// Render a [`ic_net::ServeReport`] — the lines appended to `text` and
/// the returned `data` fields (no braces) are what every serve mode
/// reports alike.
fn serve_report(
    report: &ic_net::ServeReport,
    addr: &str,
    policy: &str,
    text: &mut String,
) -> String {
    let _ = writeln!(text, "completions:  {}", report.completions);
    let _ = writeln!(text, "failures:     {}", report.failures);
    let _ = writeln!(text, "allocations:  {}", report.allocations);
    let _ = writeln!(text, "resumes:      {}", report.resumes);
    let _ = writeln!(text, "steals:       {}", report.steals);
    let _ = writeln!(text, "revokes:      {}", report.revokes);
    let _ = writeln!(text, "workers:      {}", report.workers_registered);
    let _ = writeln!(text, "makespan:     {:.3}s", report.makespan);
    format!(
        "\"addr\": {}, \"policy\": {}, \"completions\": {}, \"failures\": {}, \
         \"reallocations\": {}, \"allocations\": {}, \"resumes\": {}, \"steals\": {}, \
         \"revokes\": {}, \"workers\": {}, \"late_workers\": {}, \"makespan\": {}",
        json_string(addr),
        json_string(policy),
        report.completions,
        report.failures,
        report.failures,
        report.allocations,
        report.resumes,
        report.steals,
        report.revokes,
        report.workers_registered,
        report.late_workers,
        report.makespan,
    )
}

/// A policy stand-in whose name matches the trace header's, for the
/// read-only `recover` dry run: the rebuilt machine never allocates,
/// so only [`ic_sched::policy::AllocationPolicy::name`] matters.
struct HeaderPolicy(String);

impl ic_sched::policy::AllocationPolicy for HeaderPolicy {
    fn name(&self) -> String {
        self.0.clone()
    }

    fn choose(
        &self,
        _ctx: &ic_sched::policy::PolicyContext<'_, '_>,
        _pool: &[ic_dag::NodeId],
    ) -> usize {
        0
    }
}

/// `recover`: dry-run a crash recovery. Everything needed is in the
/// trace itself — the header carries the dag, policy name, and seed —
/// so the verb reads the header, builds the dag, streams the events
/// into the rebuild, and prints the reconstructed state as JSON
/// without binding a socket or modifying the file (a torn tail is
/// reported, not truncated). The file is read once, a line at a time.
pub fn recover_run(path: &str) -> Result<CmdOutput, String> {
    let unreadable = |e: std::io::Error| format!("cannot read {path}: {e}");
    let file = std::fs::File::open(path).map_err(unreadable)?;
    let (header, mut lines) = ic_sim::trace::TraceStream::open(std::io::BufReader::new(file))
        .map_err(unreadable)?
        .map_err(|e| format!("{path}: [IC0704] {e}"))?;
    let dag = ic_dag::builder::from_arcs(header.nodes, &header.arcs)
        .map_err(|e| format!("{path}: header dag does not build: {e}"))?;
    let policy = HeaderPolicy(header.policy.clone());
    let cfg = ic_net::ServerConfig::builder().seed(header.seed).build();
    let rcfg = ic_net::RecoveryConfig::default();
    let recovery = ic_net::Recovery::replay_stream(&dag, &policy, cfg, rcfg, &header, &mut lines)
        .map_err(|e| format!("{path}: {e}"))?;
    let report = recovery.report();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# recovery dry run over {path} ({} tasks, policy {})",
        header.nodes, header.policy
    );
    let _ = writeln!(out, "events replayed:  {}", report.events_replayed);
    let _ = writeln!(out, "completions:      {}", report.completions);
    let _ = writeln!(out, "leases re-armed:  {}", report.tasks_rearmed);
    let _ = writeln!(out, "workers awaited:  {}", report.workers_awaited);
    let _ = writeln!(
        out,
        "run complete:     {}",
        recovery.machine().is_complete()
    );
    let mut diags = Vec::new();
    if let Some(torn) = &report.torn_tail {
        diags.push(ic_audit::diag::Diagnostic::warning(
            ic_audit::diag::RECOVERY_TORN_TAIL,
            format!(
                "line {} is torn (crash mid-write) and would be truncated \
                 before a live resume: {}",
                torn.line, torn.message
            ),
        ));
    }
    Ok(CmdOutput::success("recover", out)
        .with_data(recovery.state_json())
        .with_diagnostics(diags))
}

/// `work`: run one worker against a server until drained (or until its
/// fault plan kills it — a planned death still exits 0; the point of
/// `--flaky` is that the *server* must survive it).
pub fn work_run(connect: &str, cfg: &ic_net::WorkerConfig) -> Result<CmdOutput, String> {
    let report = ic_net::run_worker(connect, cfg)
        .map_err(|e| format!("worker cannot serve {connect}: {e}"))?;
    let out = format!(
        "# worker {} ({}) on {connect}\ncompleted: {}\nresumes: {}\n{}\n",
        report.worker,
        cfg.id,
        report.completed,
        report.resumes,
        if report.died {
            "exited: by fault plan"
        } else {
            "exited: drained"
        }
    );
    let data = format!(
        "{{\"worker\": {}, \"id\": {}, \"completed\": {}, \"resumes\": {}, \"died\": {}}}",
        report.worker,
        json_string(&cfg.id),
        report.completed,
        report.resumes,
        report.died,
    );
    Ok(CmdOutput::success("work", out).with_data(data))
}

/// Partition `dag` with the cutter [`ic_fed::Partition::auto`] picks
/// for it and plan every shard's sub-dag — the computation every
/// member of a federation repeats identically.
fn fed_plans(
    dag: &ic_dag::Dag,
    shards: u64,
    replicate: bool,
) -> (ic_fed::Partition, Vec<ic_fed::ShardPlan>) {
    let part = ic_fed::Partition::auto(dag, shards);
    let mode = if replicate {
        ic_fed::CutMode::Replicate
    } else {
        ic_fed::CutMode::Notify
    };
    let plans = ic_fed::plan(dag, &part, mode);
    (part, plans)
}

/// `fed`: run a whole federation in this process on one virtual clock
/// — one shard server plus its worker population per shard — then
/// merge the per-shard traces and audit the merged global trace. The
/// exit code reflects the audit verdict, so this is also the CI
/// round-trip driver.
/// `--flaky` makes one worker per shard die after 3 tasks;
/// `--sever-link-after N` severs shard 0's peer links once after N
/// sends; `--trace-dir` and `--merged` keep the per-shard and merged
/// traces.
pub fn fed(mut flags: Flags<'_>) -> Result<CmdOutput, CliError> {
    let (replicate, flaky) = (flags.switch("--replicate-cut"), flags.switch("--flaky"));
    let (mut dag_path, mut family) = (None, None);
    let (mut trace_dir, mut merged_out, mut sever_link_after) = (None, None, None);
    let (mut shards, mut workers_per_shard, mut mean_ms) = (2u64, 3usize, 1u64);
    let (mut lease_ms, mut seed) = (400u64, 0x1C5EEDu64);
    for pair in flags.pairs() {
        let (flag, v) = pair?;
        match flag {
            "--dag" => dag_path = Some(v.str()),
            "--family" => family = Some(v.str()),
            "--trace-dir" => trace_dir = Some(v.str()),
            "--merged" => merged_out = Some(v.str()),
            "--shards" => shards = v.positive()?,
            "--workers" => workers_per_shard = v.positive()?,
            "--mean-ms" => mean_ms = v.int()?,
            "--sever-link-after" => sever_link_after = Some(v.int()?),
            "--lease-ms" => lease_ms = v.positive()?,
            "--seed" => seed = v.int()?,
            _ => return Err(CliError::Usage(None)),
        }
    }
    let (dag_label, dag, _) = dag_source("fed", dag_path, family)?;
    let (part, plans) = fed_plans(&dag, shards, replicate);
    let fed_opts = ic_fed::FedOptions {
        server: ic_net::ServerConfig::builder()
            .lease_ms(lease_ms)
            .backoff_base_ms(5)
            .wait_ms(5)
            .seed(seed)
            .build(),
        sever_link_after,
    };
    let workers: Vec<Vec<ic_net::WorkerConfig>> = (0..plans.len())
        .map(|s| {
            (0..workers_per_shard)
                .map(|w| {
                    let fault = if flaky && w + 1 == workers_per_shard {
                        ic_net::FaultPlan::DieAfter(3)
                    } else {
                        ic_net::FaultPlan::None
                    };
                    ic_net::WorkerConfig::builder()
                        .id(format!("s{s}w{w}"))
                        .mean_ms(mean_ms)
                        .seed(seed ^ ((s as u64) << 8) ^ w as u64)
                        .batch(2)
                        .fault(fault)
                        .build()
                })
                .collect()
        })
        .collect();
    let run = ic_fed::run_federation(&plans, &fed_opts, &workers)
        .map_err(|e| format!("federation failed: {e}"))?;

    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        for (s, t) in run.traces.iter().enumerate() {
            let p = format!("{dir}/shard-{s}.jsonl");
            std::fs::write(&p, t.to_jsonl()).map_err(|e| format!("cannot write {p}: {e}"))?;
        }
    }

    let merged = ic_audit::merge_traces(&run.traces);
    let mut diags = merged.diags;
    let mut merged_events = 0usize;
    if let Some(t) = &merged.trace {
        merged_events = t.events.len();
        diags.extend(ic_audit::audit_trace(t));
        if let Some(p) = merged_out {
            std::fs::write(p, t.to_jsonl()).map_err(|e| format!("cannot write {p}: {e}"))?;
        }
    }
    let clean = diags
        .iter()
        .all(|d| d.severity != ic_audit::Severity::Error);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# federated {dag_label}: {} task(s) across {} shard(s), cut {} ({} mode)",
        dag.num_nodes(),
        shards,
        part.cut_size(),
        if replicate { "replicate" } else { "notify" },
    );
    for (s, r) in run.reports.iter().enumerate() {
        let _ = writeln!(
            out,
            "shard {s}: {} completion(s), {} remote, {} peer frame(s) out, \
             {} in, {} reconnect(s)",
            r.completions, r.remote_completions, r.peer_tx, r.peer_rx, r.peer_reconnects
        );
    }
    let _ = writeln!(
        out,
        "merged: {merged_events} event(s), audit {}",
        if clean { "passed" } else { "FAILED" }
    );
    let completions: usize = run.reports.iter().map(|r| r.completions).sum();
    let data = format!(
        "{{\"shards\": {}, \"cut_edges\": {}, \"replicate\": {}, \"completions\": {}, \
         \"merged_events\": {merged_events}, \"audit_clean\": {clean}}}",
        shards,
        part.cut_size(),
        replicate,
        completions,
    );
    Ok(CmdOutput::success("fed", out)
        .with_diagnostics(diags)
        .with_data(data))
}

/// `merge`: interleave per-shard federation traces into one global
/// trace, audit it, and optionally write it out. `Err` means an input
/// did not parse.
pub fn merge_run(
    inputs: &[(String, String)],
    out_path: Option<&str>,
    deny: &[&'static str],
) -> Result<CmdOutput, String> {
    let mut traces = Vec::with_capacity(inputs.len());
    for (path, text) in inputs {
        traces.push(Trace::from_jsonl(text).map_err(|e| format!("{path}: {e}"))?);
    }
    let merged = ic_audit::merge_traces(&traces);
    let mut diags = merged.diags;
    let mut data = format!("{{\"shards\": {}, \"merged\": false}}", traces.len());
    if let Some(t) = &merged.trace {
        diags.extend(ic_audit::audit_trace(t));
        if let Some(p) = out_path {
            std::fs::write(p, t.to_jsonl()).map_err(|e| format!("cannot write {p}: {e}"))?;
        }
        data = format!(
            "{{\"shards\": {}, \"merged\": true, \"nodes\": {}, \"clients\": {}, \
             \"events\": {}}}",
            traces.len(),
            t.header.nodes,
            t.header.clients,
            t.events.len(),
        );
    }
    let mut out = finish_audit(diags, deny);
    out.data = Some(data);
    Ok(out)
}

fn join_names(nd: &NamedDag, it: impl Iterator<Item = ic_dag::NodeId>) -> String {
    it.map(|v| nd.name(v).to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_dag;
    use ic_audit::diag::UNREACHABLE_NODE;

    fn pipeline() -> NamedDag {
        parse_dag("build_a -> test_a\nbuild_b -> test_b\ntest_a -> package\ntest_b -> package\n")
            .unwrap()
    }

    #[test]
    fn order_auto_reports_exact_on_small_dags() {
        let nd = pipeline();
        let out = order(&nd, OrderPolicy::Auto);
        assert!(out.ok);
        assert!(out.text.contains("exact IC-optimal"), "{}", out.text);
        assert!(out.text.contains("package"));
        // Every task appears exactly once.
        for name in ["build_a", "build_b", "test_a", "test_b", "package"] {
            assert!(out.text.matches(name).count() >= 1, "{name}");
        }
        let json = out.render_json();
        assert!(json.contains("\"command\": \"order\""), "{json}");
        assert!(json.contains("\"profile\": [2,"), "{json}");
    }

    #[test]
    fn order_fifo_and_greedy_work() {
        let nd = pipeline();
        assert!(order(&nd, OrderPolicy::Fifo).text.contains("FIFO"));
        assert!(order(&nd, OrderPolicy::Greedy).text.contains("greedy"));
    }

    #[test]
    fn order_reports_min_regret_on_non_admitting_dags() {
        // The unary-chain tree admits no IC-optimal schedule.
        let mut text = String::from("r -> u\nu -> v\nr -> w\n");
        for i in 0..5 {
            text.push_str(&format!("v -> v{i}\n"));
        }
        text.push_str("w -> w0\nw -> w1\n");
        let nd = parse_dag(&text).unwrap();
        let out = order(&nd, OrderPolicy::Auto);
        assert!(out.text.contains("minimum-regret"), "{}", out.text);
    }

    #[test]
    fn stats_lists_sources_and_sinks() {
        let nd = pipeline();
        let out = stats_report(&nd);
        assert!(out.text.contains("5 nodes"));
        assert!(out.text.contains("build_a"));
        assert!(out.text.contains("package"));
        assert!(out.render_json().contains("\"sources\": [\"build_a\""));
    }

    #[test]
    fn check_accepts_valid_orders() {
        let nd = pipeline();
        let out = check(&nd, "build_a\nbuild_b\ntest_a\ntest_b\npackage\n").unwrap();
        assert!(out.ok);
        assert!(out.text.contains("valid order"));
        assert!(out.text.contains("IC-optimal: true"));
        assert!(out.render_json().contains("\"ic_optimal\": true"));
    }

    #[test]
    fn check_flags_bad_orders_with_ic0101() {
        let nd = pipeline();
        // Dependency violation: a finding, not a parse error.
        let out = check(&nd, "test_a\nbuild_a\nbuild_b\ntest_b\npackage\n").unwrap();
        assert!(!out.ok);
        assert_eq!(out.exit_code(), 1);
        assert!(out
            .diagnostics
            .iter()
            .all(|d| d.code == ic_audit::diag::NOT_A_TOPOLOGICAL_ORDER));
        // Unknown task: a parse error.
        assert!(check(&nd, "ship_it\n")
            .unwrap_err()
            .contains("unknown task"));
        // Missing tasks: a finding.
        assert!(!check(&nd, "build_a\n").unwrap().ok);
    }

    #[test]
    fn check_reports_regret_for_suboptimal_orders() {
        // Two disjoint Lambdas: interleaving the pairs is suboptimal.
        let nd = parse_dag("a -> s1\nb -> s1\nc -> s2\nd -> s2\n").unwrap();
        let out = check(&nd, "a\nc\nb\nd\ns1\ns2\n").unwrap();
        assert!(out.ok, "suboptimal is informational");
        assert!(out.text.contains("IC-optimal: false"), "{}", out.text);
        assert!(out.text.contains("regret"), "{}", out.text);
    }

    #[test]
    fn export_round_trips() {
        let nd = pipeline();
        let text = export(&nd);
        let again = parse_dag(&text).unwrap();
        assert_eq!(again.dag.num_nodes(), nd.dag.num_nodes());
        assert_eq!(again.dag.num_arcs(), nd.dag.num_arcs());
        assert!(ic_dag::iso::are_isomorphic(&again.dag, &nd.dag));
        // Idempotent after the first round.
        assert_eq!(export(&again), text);
    }

    #[test]
    fn dot_renders() {
        let nd = pipeline();
        let text = dot(&nd);
        assert!(text.contains("digraph"));
        assert!(text.contains("package"));
    }

    #[test]
    fn audit_claims_passes_and_renders_both_formats() {
        let out = audit_claims();
        assert!(out.ok, "{}", out.text);
        assert!(out.text.contains("claims hold"));
        let json = out.render_json();
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"passed\": true"));
    }

    #[test]
    fn audit_dag_flags_structural_defects() {
        let out = audit_dag_text("a -> b\nb -> a\n", None, &[]).unwrap();
        assert!(!out.ok);
        assert!(out.render_text().contains("IC0001"));
        let out = audit_dag_text("a -> b\na -> b\n", None, &[]).unwrap();
        assert!(!out.ok);
        assert!(out.render_text().contains("IC0002"));
        let out = audit_dag_text("a -> b\nnode lone\n", None, &[]).unwrap();
        assert!(out.ok, "isolated nodes are warnings");
        assert!(out.render_text().contains("IC0003"));
    }

    #[test]
    fn deny_orphans_escalates_ic0003() {
        let out = audit_dag_text("a -> b\nnode lone\n", None, &[UNREACHABLE_NODE]).unwrap();
        assert!(!out.ok, "denied orphans fail the audit");
        assert_eq!(out.exit_code(), 1);
        assert!(out.render_json().contains("\"severity\": \"error\""));
    }

    #[test]
    fn audit_dag_checks_orders() {
        let dag = "a -> s1\nb -> s1\nc -> s2\nd -> s2\n";
        let out = audit_dag_text(dag, Some("a\nb\nc\nd\ns1\ns2\n"), &[]).unwrap();
        assert!(out.ok, "{}", out.render_text());
        let out = audit_dag_text(dag, Some("s1\na\nb\nc\nd\ns2\n"), &[]).unwrap();
        assert!(!out.ok);
        assert!(out.render_text().contains("IC0101"));
        let out = audit_dag_text(dag, Some("a\nc\nb\nd\ns1\ns2\n"), &[]).unwrap();
        assert!(!out.ok);
        assert!(out.render_json().contains("IC0102"));
        let out = audit_dag_text(dag, Some("a\nmystery\n"), &[]).unwrap();
        assert!(!out.ok);
        assert!(out.render_text().contains("unknown task"));
    }

    #[test]
    fn audit_dag_rejects_syntax_errors() {
        assert!(audit_dag_text("a -> \n", None, &[]).is_err());
    }

    #[test]
    fn audit_dag_reports_the_lattice_size() {
        // Diamond: 6 down-sets.
        let out = audit_dag_text("a -> b\na -> c\nb -> d\nc -> d\n", None, &[]).unwrap();
        assert!(out.ok);
        let data = out.data.as_deref().unwrap();
        assert!(data.contains("\"nodes\": 4"), "{data}");
        assert!(data.contains("\"arcs\": 4"), "{data}");
        assert!(data.contains("\"states\": 6"), "{data}");

        // 21 isolated nodes: 2^21 down-sets, past the reporting cap.
        let big: String = (0..21).fold(String::new(), |mut s, i| {
            use std::fmt::Write;
            let _ = writeln!(s, "node n{i}");
            s
        });
        let out = audit_dag_text(&big, None, &[]).unwrap();
        assert!(out.ok);
        assert!(
            out.data.as_deref().unwrap().contains("\"states\": null"),
            "{:?}",
            out.data
        );

        // A structurally broken edge list reports no dag data.
        let out = audit_dag_text("a -> b\nb -> a\n", None, &[]).unwrap();
        assert!(out.data.is_none());
    }

    #[test]
    fn sim_produces_an_auditable_trace() {
        let nd = pipeline();
        let (out, trace) = sim_run(&nd, &Policy::GreedyEligibility, 2, 42);
        assert!(out.ok);
        assert!(out.text.contains("makespan"));
        assert!(out.render_json().contains("\"seed\": \"42\""));
        let jsonl = trace.to_jsonl();
        let audited = audit_trace_text(&jsonl, &[]).unwrap();
        assert!(audited.ok, "{}", audited.render_text());
        assert!(audited.render_json().contains("\"command\": \"audit\""));
    }

    #[test]
    fn audit_trace_flags_defects_and_rejects_garbage() {
        let nd = pipeline();
        let (_, trace) = sim_run(&nd, &Policy::Fifo, 1, 7);
        let mut lines: Vec<&str> = Vec::new();
        let jsonl = trace.to_jsonl();
        lines.extend(jsonl.lines());
        // Drop the first allocation line: its completion dangles.
        let alloc = lines.iter().position(|l| l.contains("\"alloc\"")).unwrap();
        lines.remove(alloc);
        let broken = lines.join("\n");
        let out = audit_trace_text(&broken, &[]).unwrap();
        assert!(!out.ok);
        assert!(out.render_text().contains("IC040"), "{}", out.render_text());
        // Garbage is a parse error, not a finding.
        assert!(audit_trace_text("not json\n", &[]).is_err());
    }

    #[test]
    fn policy_flag_parsing() {
        assert_eq!(OrderPolicy::from_flag("auto"), Some(OrderPolicy::Auto));
        assert_eq!(OrderPolicy::from_flag("fifo"), Some(OrderPolicy::Fifo));
        assert_eq!(OrderPolicy::from_flag("greedy"), Some(OrderPolicy::Greedy));
        assert_eq!(OrderPolicy::from_flag("bogus"), None);
        assert_eq!(sim_policy_from_flag("lifo", 0), Some(Policy::Lifo));
        assert_eq!(sim_policy_from_flag("random", 9), Some(Policy::Random(9)));
        assert_eq!(sim_policy_from_flag("bogus", 0), None);
    }

    #[test]
    fn family_specs_parse_and_bad_ones_do_not() {
        let (label, mesh, sched) = family_dag("mesh:11").unwrap();
        assert_eq!(label, "mesh:11");
        assert_eq!(mesh.num_nodes(), 66);
        assert!(sched.is_some());
        assert!(family_dag("butterfly:3").is_ok());
        assert!(family_dag("outtree:2:4").is_ok());
        for bad in ["mesh", "mesh:0", "mesh:x", "nope:3", "mesh:3:4", ""] {
            assert!(family_dag(bad).is_err(), "{bad:?}");
        }
    }

    /// Oversized specs are rejected from the closed-form node count
    /// before construction — these must error instantly, not attempt a
    /// billion-node (or usize-overflowing) allocation.
    #[test]
    fn oversized_family_specs_are_rejected_before_construction() {
        for big in [
            "outtree:10:9",
            "intree:10:9",
            "outtree:2:64",
            "mesh:100000",
            "inmesh:18446744073709551615",
            "butterfly:40",
            "butterfly:200",
        ] {
            let err = family_dag(big).unwrap_err();
            assert!(err.contains("caps"), "{big:?}: {err}");
        }
        // Boundary: 1447·1448/2 ≤ 2^20 builds, 1448·1449/2 > 2^20 does not.
        assert!(family_dag("mesh:1447").is_ok());
        assert!(family_dag("mesh:1448").is_err());
    }

    #[test]
    fn serve_policy_resolves_optimal_and_heuristics() {
        let nd = pipeline();
        let p = serve_policy(&nd.dag, "optimal", 0, None).unwrap();
        assert_eq!(p.name(), "SCHEDULE");
        let p = serve_policy(&nd.dag, "fifo", 0, None).unwrap();
        assert_eq!(p.name(), "FIFO");
        assert!(serve_policy(&nd.dag, "bogus", 0, None).is_err());
    }

    #[test]
    fn serve_and_work_complete_a_family_over_localhost() {
        let dir = std::env::temp_dir().join(format!("ic-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let trace_file = dir.join("trace.jsonl");
        let n = family_dag("outtree:2:3").unwrap().1.num_nodes();

        let (serve_out, work_out) = std::thread::scope(|s| {
            let pf = port_file.clone();
            let worker = s.spawn(move || {
                let addr = loop {
                    match std::fs::read_to_string(&pf) {
                        Ok(t) if !t.trim().is_empty() => break t.trim().to_string(),
                        _ => std::thread::sleep(std::time::Duration::from_millis(5)),
                    }
                };
                let wcfg = ic_net::WorkerConfig::builder()
                    .id("cli-worker")
                    .mean_ms(1)
                    .build();
                work_run(&addr, &wcfg).unwrap()
            });
            let args = [
                "--family",
                "outtree:2:3",
                "--lease-ms",
                "300",
                "--expect",
                "1",
                "--seed",
                "5",
                "--trace",
                trace_file.to_str().unwrap(),
                "--port-file",
                port_file.to_str().unwrap(),
            ];
            let serve_out = serve(Flags::new(args.into_iter())).unwrap();
            (serve_out, worker.join().unwrap())
        });

        assert!(serve_out.ok);
        assert!(
            serve_out.text.contains(&format!("completions:  {n}")),
            "{}",
            serve_out.text
        );
        assert!(work_out.ok);
        assert!(work_out.text.contains("drained"), "{}", work_out.text);

        // The streamed trace parses and replays clean.
        let trace_text = std::fs::read_to_string(&trace_file).unwrap();
        let audit = audit_trace_text(&trace_text, &[]).unwrap();
        assert!(audit.ok, "{}", audit.render_text());
        std::fs::remove_dir_all(&dir).ok();
    }
}
