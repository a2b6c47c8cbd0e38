//! Launch a whole federation in one process, as one loop.
//!
//! [`run_federation`] serves each [`ShardPlan`] through a [`Reactor`]
//! (the code `ic-prio serve --shard` runs over TCP) on an in-process
//! loopback poller, wires the shards into a full peer mesh
//! ([`ic_net::FedConfig`]) by loopback dialing, and runs each requested
//! worker as a [`LoopbackWorker`] (the worker `ic-prio work` runs, on
//! loopback connections), all on one [`ManualClock`]. The loop takes a
//! poll round of every shard and advances every worker until nothing
//! moves, then jumps the clock to the earliest pending wake (a worker's
//! sleep, a shard's timer), so a run is a pure function of its inputs:
//! no socket, no OS scheduler, no real sleep. Each shard's trace (with
//! its federation header metadata) comes back for `ic-audit`'s merge
//! pass.
//! This is both the `ic-prio fed` launcher and the harness the
//! federation bench and end-to-end tests drive.

use std::io;
use std::time::Duration;

use ic_net::{
    loopback, Clock, Driver, LoopbackWorker, ManualClock, Reactor, Round, ServeReport,
    ServerConfig, WorkerConfig,
};
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
}

/// Run every shard of `plans` in this process, with `workers[s]`
/// worker connections against shard `s`, until the whole federation
/// drains. Shards allocate with FIFO (federation semantics do not
/// depend on the local policy; use
/// [`ShardPlan::schedule_from_global`] and a custom driver for
/// priority-list runs).
///
/// # Errors
/// Propagates the first shard's trace or transport error, and returns
/// [`io::ErrorKind::WouldBlock`] when a shard has not drained but no
/// shard or worker can move and nothing is due (a dead fleet). Worker
/// errors are swallowed: flaky workers dying mid-run are part of the
/// model.
pub fn run_federation(
    plans: &[ShardPlan],
    opts: &FedOptions,
    workers: &[Vec<WorkerConfig>],
) -> io::Result<FedRun> {
    let policy = Policy::Fifo;
    let clock = ManualClock::new(0);
    // Every poller exists before any is routed: each can dial them all.
    let (pollers, handles): (Vec<_>, Vec<_>) = plans.iter().map(|_| loopback(1)).unzip();
    let addr = |j: usize| format!("shard-{j}");
    let mut shards = Vec::with_capacity(plans.len());
    for (i, (plan, mut poller)) in plans.iter().zip(pollers).enumerate() {
        let mut peers = Vec::with_capacity(plans.len());
        for (j, handle) in handles.iter().enumerate().filter(|&(j, _)| j != i) {
            poller.route(addr(j), handle.clone());
            peers.push((u64::try_from(j).unwrap_or(u64::MAX), addr(j)));
        }
        let mut fed = plan.fed_config(peers);
        if i == 0 {
            fed.sever_link_after = opts.sever_link_after;
        }
        let mut cfg = opts.server.clone();
        cfg.expect_workers = workers.get(i).map_or(0, Vec::len);
        let driver = Driver::new(Box::new(clock.clone()), Box::new(poller));
        let mut reactor = Reactor::new(&plan.dag, &policy, cfg, driver);
        reactor.set_fed(plan.meta(), fed);
        shards.push((reactor, MemorySink::new()));
    }
    let mut fleet = Vec::new();
    for (population, shard) in workers.iter().zip(&handles) {
        let worker = |cfg| LoopbackWorker::new(cfg, shard.clone());
        fleet.extend(population.iter().map(worker));
    }

    // Each shard's report once it drained, after which it is not polled.
    let mut reports: Vec<Option<ServeReport>> = vec![None; plans.len()];
    while reports.iter().any(Option::is_none) {
        let now = clock.now_us();
        let mut moved = false;
        let live = shards
            .iter_mut()
            .zip(&mut reports)
            .filter(|(_, r)| r.is_none());
        for ((reactor, sink), report) in live {
            match reactor.poll_round(Duration::ZERO, sink)? {
                Round::Idle => {}
                Round::Busy => moved = true,
                Round::Drained(r) => (*report, moved) = (Some(r), true),
            }
        }
        fleet.retain_mut(|worker| {
            let (stepped, live) = worker.advance(now);
            moved |= stepped;
            live
        });
        if moved {
            continue;
        }
        let live = shards.iter().zip(&reports).filter(|(_, r)| r.is_none());
        let reactors = live.filter_map(|((reactor, _), _)| reactor.next_wake_us());
        let sleepers = fleet.iter().filter_map(LoopbackWorker::wake_us);
        let Some(wake) = reactors.chain(sleepers).min() else {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "a shard has not drained and nothing can move it",
            ));
        };
        clock.advance(wake.saturating_sub(now));
    }

    let traces = shards.into_iter().map(|(_, sink)| sink.into_trace());
    let traces = traces
        .collect::<Option<_>>()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "shard wrote no trace header"))?;
    let reports = reports.into_iter().flatten().collect();
    Ok(FedRun { reports, traces })
}
