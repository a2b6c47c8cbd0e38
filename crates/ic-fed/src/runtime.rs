//! Launch a whole federation in one process.
//!
//! [`run_federation`] binds one TCP listener per [`ShardPlan`], serves
//! each through a [`Reactor`] on [`Driver::tcp`] (the same path
//! `ic-prio serve --shard` takes), wires them into a full peer mesh
//! ([`ic_net::FedConfig`]), spawns the requested worker population
//! against each shard, and runs everything under `std::thread::scope`
//! until every shard drains.
//! Each shard's trace (with its federation header metadata) comes back
//! for `ic-audit`'s merge pass. This is both the `ic-prio fed`
//! launcher and the harness the federation benches and end-to-end
//! tests drive.

use std::io;
use std::net::TcpListener;

use ic_net::{run_worker, Driver, Reactor, ServeReport, ServerConfig, WorkerConfig, WorkerReport};
use ic_sched::heuristics::Policy;
use ic_sim::{MemorySink, Trace};

use crate::plan::ShardPlan;

/// Knobs of a federated launch beyond the per-shard [`ServerConfig`].
#[derive(Debug, Clone, Default)]
pub struct FedOptions {
    /// Per-shard server config. `expect_workers` is overridden per
    /// shard with that shard's worker count.
    pub server: ServerConfig,
    /// Test hook: shard 0 severs all its peer links once after this
    /// many `remote-done` sends, exercising reconnect + backlog
    /// replay mid-run.
    pub sever_link_after: Option<usize>,
}

/// Outcome of one federated launch: per-shard serve reports and
/// traces, in shard order.
#[derive(Debug)]
pub struct FedRun {
    /// Each shard server's report (completions, remote completions,
    /// peer frame counts, reconnects).
    pub reports: Vec<ServeReport>,
    /// Each shard's trace, federation metadata in the header — feed
    /// these to `ic_audit::merge_traces`.
    pub traces: Vec<Trace>,
    /// Worker reports, flattened across shards (workers that died as
    /// part of their fault plan are simply absent).
    pub workers: Vec<WorkerReport>,
}

/// Run every shard of `plans` as a live TCP server in this process,
/// with `workers[s]` worker connections against shard `s`, until the
/// whole federation drains. Shards allocate with FIFO (federation
/// semantics do not depend on the local policy; use
/// [`ShardPlan::schedule_from_global`] and a custom driver for
/// priority-list runs).
///
/// # Errors
/// Propagates the first server bind/serve error. Worker I/O errors
/// are swallowed: flaky workers dying mid-run are part of the model.
pub fn run_federation(
    plans: &[ShardPlan],
    opts: &FedOptions,
    workers: &[Vec<WorkerConfig>],
) -> io::Result<FedRun> {
    // Bind every shard first so the full peer address list exists
    // before any server runs. The listeners cross the thread
    // boundary; each thread builds its own policy + reactor.
    let mut listeners = Vec::with_capacity(plans.len());
    let mut addrs = Vec::with_capacity(plans.len());
    for _ in plans {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(listener.local_addr()?);
        listeners.push(listener);
    }

    let results = std::thread::scope(|scope| {
        let mut server_handles = Vec::with_capacity(plans.len());
        for (i, listener) in listeners.into_iter().enumerate() {
            let plan = &plans[i];
            let peers: Vec<(u64, String)> = addrs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(j, a)| (u64::try_from(j).unwrap_or(0), a.to_string()))
                .collect();
            let mut fed = plan.fed_config(peers);
            if i == 0 {
                fed.sever_link_after = opts.sever_link_after;
            }
            let mut cfg = opts.server.clone();
            cfg.expect_workers = workers.get(i).map(Vec::len).unwrap_or(0);
            server_handles.push(scope.spawn(move || {
                let policy = Policy::Fifo;
                let driver = Driver::tcp(listener)?;
                let mut reactor = Reactor::new(&plan.dag, &policy, cfg, driver);
                reactor.set_fed(plan.meta(), fed);
                let mut sink = MemorySink::new();
                let report = reactor.run_until_drain(&mut sink)?;
                let trace = sink.into_trace().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "shard wrote no trace header")
                })?;
                Ok::<(ServeReport, Trace), io::Error>((report, trace))
            }));
        }

        let worker_handles: Vec<_> = workers
            .iter()
            .enumerate()
            .flat_map(|(i, population)| {
                let addr = addrs[i];
                population
                    .iter()
                    .map(move |cfg| scope.spawn(move || run_worker(addr, cfg)))
                    .collect::<Vec<_>>()
            })
            .collect();

        let mut shard_results = Vec::with_capacity(server_handles.len());
        for h in server_handles {
            match h.join() {
                Ok(r) => shard_results.push(r),
                Err(_) => shard_results.push(Err(io::Error::other("shard server panicked"))),
            }
        }
        let mut worker_reports = Vec::new();
        for h in worker_handles {
            if let Ok(Ok(r)) = h.join() {
                worker_reports.push(r);
            }
        }
        (shard_results, worker_reports)
    });

    let (shard_results, worker_reports) = results;
    let mut reports = Vec::with_capacity(shard_results.len());
    let mut traces = Vec::with_capacity(shard_results.len());
    for r in shard_results {
        let (report, trace) = r?;
        reports.push(report);
        traces.push(trace);
    }
    Ok(FedRun {
        reports,
        traces,
        workers: worker_reports,
    })
}
