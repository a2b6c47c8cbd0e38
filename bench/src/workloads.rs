//! The five workloads and what one repetition of each does: spawn a
//! fresh server, drive it to drain with the closed-loop client, reap
//! it, and check what it did.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ic_dag::rng::XorShift64;
use ic_sim::json::Json;

use crate::client::{Client, Outcome, Tally};
use crate::dags;
use crate::server::{self, ServeSpec, ServerProc, TraceMode};
use crate::spans::Recorder;

/// One named traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why it exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    pub serve: ServeSpec,
    pub conns: usize,
    /// Seeded 1–3 ms service time per task instead of none.
    pub paced: bool,
    /// Microseconds the client takes to turn a frame around. The
    /// batch-1 workloads answer after 25 us, as any worker across a
    /// link would; answering at once races the server's scan for new
    /// frames, and whether a frame wins (13 us) or lands in the nap
    /// (128 us) then flips from repetition to repetition.
    pub gap_us: u64,
    /// Kill the server mid-run and finish on a restarted one.
    pub crash: bool,
}

/// Sizes give roughly one second per repetition on the 2-core box the
/// bounds were set on, so a ten-second run holds about ten.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "pingpong",
        why: "1 connection, batch 1, the client answers after 25 us: every frame finds the server napping, so the reactor's wake-up and the serial per-event path set the pace",
        serve: ServeSpec {
            family: "mesh:80",
            batch: 1,
            expect: 1,
            lease_ms: None,
            wal: true,
        },
        conns: 1,
        paced: false,
        gap_us: 25,
        crash: false,
    },
    Workload {
        name: "paced",
        why: "2 connections, batch 1, seeded 1-3 ms service on a butterfly: the paper's regime, workers compute and the server mostly naps; only here is efficiency against max(W/P, span) defined",
        serve: ServeSpec {
            family: "butterfly:6",
            batch: 1,
            expect: 2,
            lease_ms: None,
            wal: true,
        },
        conns: 2,
        paced: true,
        gap_us: 25,
        crash: false,
    },
    Workload {
        name: "saturate_wal",
        why: "2 connections, batch 64 pipelined, no service time, WAL on: up to 128 tasks in flight keep the server CPU-bound, so per-task CPU in machine, wire and FileSink moves it",
        serve: ServeSpec {
            family: "mesh:500",
            batch: 64,
            expect: 2,
            lease_ms: None,
            wal: true,
        },
        conns: 2,
        paced: false,
        gap_us: 0,
        crash: false,
    },
    Workload {
        name: "saturate_nowal",
        why: "saturate_wal without --trace (NullSink): the control that bypasses the WAL layer, so a WAL change must leave it flat and a wire or machine change must move it more",
        serve: ServeSpec {
            family: "mesh:500",
            batch: 64,
            expect: 2,
            lease_ms: None,
            wal: false,
        },
        conns: 2,
        paced: false,
        gap_us: 0,
        crash: false,
    },
    Workload {
        name: "crash_recover",
        why: "saturate_wal killed with SIGKILL at a seeded point with 64 leases out, resumed from its WAL on a fresh port, finished and audited: reads of the WAL beside writes",
        serve: ServeSpec {
            family: "mesh:400",
            batch: 64,
            expect: 2,
            lease_ms: Some(500),
            wal: true,
        },
        conns: 2,
        paced: false,
        gap_us: 0,
        crash: true,
    },
];

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The same workload over a dag small enough for a smoke test.
pub fn smoke_sized(mut w: Workload) -> Workload {
    w.serve.family = if w.paced { "butterfly:4" } else { "mesh:40" };
    // A 64-task batch needs a pool 64 wide in the middle of the run.
    if w.crash {
        w.serve.batch = 8;
    }
    w
}

/// Service-time bounds of the paced workload.
const SERVICE_MIN_NS: u64 = 1_000_000;
const SERVICE_MAX_NS: u64 = 3_000_000;

/// Where the binaries and scratch files are.
pub struct Env {
    pub ic_prio: PathBuf,
    /// Fresh per-run directory under `bench/out/`; traces and port
    /// files of every workload land on this one filesystem.
    pub dir: PathBuf,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub nodes: u64,
    pub setup_s: f64,
    pub spawn_to_listen_ms: f64,
    /// First `request` sent → last `ack` received: the dag is done.
    pub makespan_s: f64,
    /// Last `drain` received → server process exited.
    pub drain_ms: f64,
    /// Last `ack` → last `drain`: nothing, or the `wait` retry of the
    /// connection that found the pool empty at the very end.
    pub wait_tail_ms: f64,
    pub server_cpu_s: f64,
    pub server_wall_s: f64,
    pub tally: Tally,
    /// `max(W/P, span) · mean service ÷ makespan` (paced only).
    pub efficiency: Option<f64>,
    /// `SIGKILL` → first `assign` from the restarted server.
    pub recover_ms: Option<f64>,
    /// Events in the audited trace and the audit's wall time.
    pub audit: Option<(u64, Duration)>,
    /// Operations that failed, with what each was.
    pub failures: Vec<String>,
}

impl Rep {
    pub fn tasks_per_s(&self) -> f64 {
        self.nodes as f64 / self.makespan_s
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

fn report_u64(report: &Json, key: &str) -> Option<u64> {
    report.get(key).and_then(Json::as_u64)
}

/// Evenly spaced service times over 1–3 ms in a seeded order: every
/// seed does the same total work, only the order differs.
fn service_times(nodes: usize, rng: &mut XorShift64) -> Vec<u64> {
    let step = (SERVICE_MAX_NS - SERVICE_MIN_NS) as f64 / nodes as f64;
    let mut v: Vec<u64> = (0..nodes)
        .map(|i| SERVICE_MIN_NS + ((i as f64 + 0.5) * step) as u64)
        .collect();
    rng.shuffle(&mut v);
    v
}

/// Start `w`'s server on a fresh trace file.
fn spawn_server(env: &Env, w: &Workload, seed: u64, trace_path: &Path) -> io::Result<ServerProc> {
    let _ = std::fs::remove_file(trace_path);
    let trace_mode = if w.serve.wal {
        TraceMode::Create(trace_path)
    } else {
        TraceMode::Off
    };
    let port_file = env.dir.join(format!("{}.port", w.name));
    ServerProc::spawn(&env.ic_prio, &w.serve, seed, trace_mode, &port_file)
}

fn worker_ids(w: &Workload, prefix: &str) -> Vec<String> {
    (0..w.conns).map(|i| format!("{prefix}{i}")).collect()
}

/// One more sample of `setup_s` and nothing else: spawn → port file
/// complete → every connection welcomed, then the server is killed.
pub fn setup_only(env: &Env, w: &Workload, seed: u64) -> io::Result<f64> {
    let trace_path = env.dir.join(format!("{}.jsonl", w.name));
    let srv = spawn_server(env, w, seed, &trace_path)?;
    let mut rec = Recorder::new(false);
    let ids = worker_ids(w, "bench-");
    Client::connect(srv.addr, &ids, w.serve.batch, srv.pid(), &mut rec)?;
    Ok(secs(srv.spawned_at, Instant::now()))
}

/// Run one repetition of `w`. `audit` asks for `ic-prio audit
/// --schedule` on the trace afterwards (always done after a crash).
pub fn run_rep(
    env: &Env,
    w: &Workload,
    seed: u64,
    rng: &mut XorShift64,
    rec: &mut Recorder,
    audit: bool,
) -> io::Result<Rep> {
    let nodes = dags::node_count(w.serve.family);
    let trace_path = env.dir.join(format!("{}.jsonl", w.name));
    let mut rep = Rep {
        nodes: nodes as u64,
        ..Rep::default()
    };
    let rss_after = (nodes as u64 * 9).div_ceil(10);

    let run_span = rec.begin("run", None, 0, 0);
    let setup_span = rec.begin("setup", run_span, 0, 0);
    let mut srv = spawn_server(env, w, seed, &trace_path)?;
    let s = rec.begin_at("cli.spawn_to_listen", srv.spawned_at, setup_span, 0, 0);
    rec.end_at(s, srv.listening_at);
    let spawn_to_listen = srv.listening_at - srv.spawned_at;
    rep.spawn_to_listen_ms = spawn_to_listen.as_secs_f64() * 1e3;
    let ids = worker_ids(w, "bench-");
    let mut client = Client::connect(srv.addr, &ids, w.serve.batch, srv.pid(), rec)?;
    let welcomed_at = Instant::now();
    rep.setup_s = secs(srv.spawned_at, welcomed_at);
    client.recorder().end_at(setup_span, welcomed_at);
    let serve_span = client.recorder().begin("serve", run_span, 0, 0);
    client.set_serve_span(serve_span);

    client.set_gap(Duration::from_micros(w.gap_us));
    if w.paced {
        client.set_service(service_times(nodes, rng));
    }
    if w.crash {
        let share = 0.40 + 0.20 * rng.gen_f64();
        client.set_crash_after((nodes as f64 * share) as u64);
    } else {
        client.set_rss_after(rss_after);
    }
    let outcome = client.drive();
    let mut tally = std::mem::take(&mut client.tally);
    let held = client.held_tasks();
    drop(client);

    let mut first_exit = None;
    let mut crash_spans = None;
    if w.crash {
        if outcome != Outcome::CrashPoint {
            rep.failures
                .push("the dag finished before the crash point".into());
        } else {
            if held as u64 != w.serve.batch {
                rep.failures
                    .push(format!("{held} leases held at the kill, not one batch"));
            }
            let acks_at_kill = tally.acks_accepted;
            let killed_at = srv.kill()?;
            let exit = srv.reap(Duration::from_secs(10))?;
            let reaped_at = exit.exited_at;
            let port2 = env.dir.join(format!("{}.port2", w.name));
            srv = ServerProc::spawn(
                &env.ic_prio,
                &w.serve,
                seed,
                TraceMode::ResumeFrom(&trace_path),
                &port2,
            )?;
            let ids = worker_ids(w, "bench-r");
            let mut client = Client::connect(srv.addr, &ids, w.serve.batch, srv.pid(), rec)?;
            let connected_at = Instant::now();
            client.set_rss_after(rss_after.saturating_sub(acks_at_kill).max(1));
            client.set_serve_span(serve_span);
            client.drive();
            let later = std::mem::take(&mut client.tally);
            drop(client);
            if let Some(first) = later.first_assign {
                rep.recover_ms = Some(secs(killed_at, first) * 1e3);
                crash_spans = Some((killed_at, reaped_at, connected_at, first));
            }
            tally.absorb(later);
            first_exit = Some((exit, acks_at_kill));
        }
    }

    let (first_request, last_drain, last_ack) =
        match (tally.first_request, tally.last_drain, tally.last_ack) {
            (Some(a), Some(b), Some(c)) => (a, b, c),
            // Dropping `srv` kills the server.
            _ => return Err(io::Error::other("no request, ack or drain was exchanged")),
        };
    let spawned_at = srv.spawned_at;
    let listening_at = srv.listening_at;
    let exit = srv.reap(Duration::from_secs(30))?;

    rep.makespan_s = secs(first_request, last_ack);
    rep.drain_ms = secs(last_drain, exit.exited_at) * 1e3;
    rep.wait_tail_ms = secs(last_ack, last_drain) * 1e3;
    rep.server_cpu_s = exit.cpu_s;
    rep.server_wall_s = secs(spawned_at, exit.exited_at);

    rec.end_at(serve_span, last_drain);
    let d = rec.begin_at("drain", last_drain, run_span, 0, 0);
    rec.end_at(d, exit.exited_at);
    if let Some((killed_at, reaped_at, connected_at, first)) = crash_spans {
        let k = rec.begin_at("kill", killed_at, serve_span, 0, 0);
        rec.end_at(k, reaped_at);
        let r = rec.begin_at("respawn", spawned_at, serve_span, 0, 0);
        rec.end_at(r, listening_at);
        // Seen from outside, replay is what a restart takes beyond a
        // first start of the same dag.
        let replay_from = (spawned_at + spawn_to_listen).min(listening_at);
        let p = rec.begin_at("replay", replay_from, r, 0, 0);
        rec.end_at(p, listening_at);
        let f = rec.begin_at("first_assign", connected_at, serve_span, 0, 0);
        rec.end_at(f, first);
    }

    // Output checks.
    if !exit.ok {
        rep.failures
            .push("the server did not exit with status 0".into());
    }
    if report_u64(&exit.report, "completions") != Some(nodes as u64) {
        rep.failures.push(format!(
            "server reported {:?} completions for {nodes} nodes",
            report_u64(&exit.report, "completions")
        ));
    }
    if tally.acks_accepted != nodes as u64 {
        rep.failures.push(format!(
            "{} accepted acks for {nodes} nodes",
            tally.acks_accepted
        ));
    }
    match tally.server_rss_and_threads {
        Some((_, 1)) => {}
        // `server_cpu_us_per_task` reads the main thread's scheduler
        // statistics; a server that grows threads needs a new reading.
        Some((_, n)) => rep.failures.push(format!(
            "the server runs {n} threads, CPU is counted for one"
        )),
        None => rep
            .failures
            .push("the server's /proc status was not sampled".into()),
    }
    for (count, what) in [
        (tally.acks_rejected, "acks with accepted:false"),
        (tally.error_frames, "error frames"),
        (tally.lost_conns, "connections lost"),
    ] {
        if count > 0 {
            rep.failures.push(format!("{count} {what}"));
        }
    }
    if let Some((first, acks_at_kill)) = first_exit {
        rep.server_cpu_s += first.cpu_s;
        if report_u64(&exit.report, "tasks_rearmed") != Some(w.serve.batch) {
            rep.failures.push(format!(
                "{:?} leases re-armed, not {}",
                report_u64(&exit.report, "tasks_rearmed"),
                w.serve.batch
            ));
        }
        if report_u64(&exit.report, "recovered_completions") != Some(acks_at_kill) {
            rep.failures.push(format!(
                "{:?} completions recovered, {acks_at_kill} acked before the kill",
                report_u64(&exit.report, "recovered_completions")
            ));
        }
    }
    if w.paced {
        let mean_service_s = tally.service_ns as f64 * 1e-9 / nodes as f64;
        let floor = dags::floor_tasks(nodes, dags::span(w.serve.family), w.conns);
        rep.efficiency = Some(floor * mean_service_s / rep.makespan_s);
    }
    if w.serve.wal && (audit || w.crash) {
        let a = rec.begin("audit", run_span, 0, 0);
        let verdict = server::audit(&env.ic_prio, &trace_path)?;
        rec.end(a);
        if !verdict.ok {
            rep.failures
                .push("audit --schedule did not say \"ok\": true".into());
        }
        rep.audit = Some((verdict.events, verdict.wall));
    }
    rec.end(run_span);
    rep.tally = tally;
    Ok(rep)
}
