//! `net` group: the reactor scale harness.
//!
//! One [`Reactor`] over the in-process loopback poller serves 1 000 to
//! 10 000 workers, each a [`LoopbackWorker`] (the worker `ic-prio work`
//! runs, on loopback connections), multiplexed onto a few driver
//! threads. The fault mix is the e2e scale smoke's: mostly healthy
//! workers, a slice failing ~10% of its tasks (`done ok:false` →
//! reallocation), and a slice severing mid-lease once and resuming
//! with its token.
//!
//! Per fleet size `W` of [`FLEETS`] one record goes into the `net`
//! group, `alloc_rate_{W}w`: one iteration is one whole fleet run —
//! reactor and driver threads built, `W` workers registered through
//! the barrier, `2·W` independent tasks served to drain, the run's
//! own assertions checked — and `states` is those `2·W` tasks, so
//! `bench-check` reports completed tasks per second of wall time. A
//! run's other counts (allocations, recovered failures, resumes) go to
//! stdout, from the last iteration.

use std::time::{Duration, Instant};

use ic_bench::harness::Runner;
use ic_net::{
    loopback, Driver, FaultPlan, LoopbackHandle, LoopbackWorker, MonotonicClock, Reactor,
    ServeReport, WorkerConfig,
};
use ic_sim::MemorySink;

/// The two ends of the scale claim: `bench-check --max-regress net=…`
/// compares both rows.
const FLEETS: [usize; 2] = [1000, 10000];

/// Same mix rule as the e2e scale smoke: 2 of every 16 workers
/// misbehave, one by failing ~10% of its tasks and one by severing
/// mid-lease (once) and resuming.
fn plan_of(i: usize) -> FaultPlan {
    match i % 16 {
        7 => FaultPlan::Fail(0.1),
        11 => FaultPlan::SeverAfter(1),
        _ => FaultPlan::None,
    }
}

/// Drive workers `offset, offset+stride, ...` of `total` until drained.
fn drive(handle: &LoopbackHandle, offset: usize, stride: usize, total: usize) {
    let start = Instant::now();
    let mut fleet: Vec<LoopbackWorker> = (offset..total)
        .step_by(stride)
        .map(|i| {
            let cfg = WorkerConfig::builder()
                .id(format!("w{i}"))
                .mean_ms(0)
                .fault(plan_of(i))
                .seed(i as u64 + 1)
                .build();
            LoopbackWorker::new(&cfg, handle.clone())
        })
        .collect();
    while !fleet.is_empty() {
        let mut progressed = false;
        // One clock read per pass over the fleet, not one per worker.
        let now = start.elapsed().as_micros() as u64;
        fleet.retain_mut(|worker| {
            let (moved, live) = worker.advance(now);
            progressed |= moved;
            live
        });
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Run one fleet configuration to drain and check what it must show.
fn run_fleet(workers: usize) -> ServeReport {
    let tasks = workers * 2;
    let dag = ic_dag::builder::from_arcs(tasks, &[]).expect("independent tasks");
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ic_net::ServerConfig::builder()
        .lease_ms(30_000)
        .backoff_base_ms(1)
        .wait_ms(2)
        .expect_workers(workers)
        .batch(1)
        .seed(0x5CA1E)
        .build();
    let clock = MonotonicClock::new();
    let (poller, handle) = loopback(1);
    let driver = Driver::new(Box::new(clock), Box::new(poller));
    let mut reactor = Reactor::new(&dag, &policy, cfg, driver);
    let mut sink = MemorySink::new();

    // One driver thread per spare core, capped at 8: spinning drivers
    // oversubscribing the CPU measure their own scheduler thrash, not
    // the reactor (8 of them on 1 core triple the 10k-worker cost).
    let spare = std::thread::available_parallelism()
        .map(|p| p.get().saturating_sub(1))
        .unwrap_or(1)
        .max(1);
    let drivers = spare.min(8).min(workers);
    let report = std::thread::scope(|s| {
        for d in 0..drivers {
            let handle = handle.clone();
            s.spawn(move || drive(&handle, d, drivers, workers));
        }
        drop(handle);
        reactor.run_until_drain(&mut sink).expect("reactor run")
    });

    // Attribute every server-side `Failed` event to its fleet slice: a
    // healthy worker only "fails" when the harness itself misbehaves.
    let trace = sink.into_trace().expect("trace");
    let slice_of = |client| {
        let worker = trace.header.workers.iter().find(|w| w.client == client);
        let i = worker.and_then(|w| w.id.get(1..)?.parse().ok());
        plan_of(i.unwrap_or(0))
    };
    let healthy_failures = trace
        .events
        .iter()
        .filter(|e| e.kind == ic_sim::EventKind::Failed && slice_of(e.client) == FaultPlan::None)
        .count();
    assert_eq!(healthy_failures, 0, "healthy workers never fail");
    assert_eq!(report.completions, tasks, "fleet completed the dag");
    assert_eq!(report.workers_registered, workers);
    assert!(report.allocations >= tasks);
    assert!(report.resumes > 0, "the severing slice resumed");
    report
}

fn main() {
    let mut r = Runner::from_env();
    for workers in FLEETS {
        let tasks = workers * 2;
        let mut last = None;
        r.bench_states(
            "net",
            &format!("alloc_rate_{workers}w"),
            tasks,
            tasks as u64,
            || last = Some(run_fleet(workers)),
        );
        if let Some(report) = last {
            println!(
                "net: {workers} workers, {tasks} tasks: {} allocations, \
                 {} failures recovered, {} resumes",
                report.allocations, report.failures, report.resumes,
            );
        }
    }
    r.finish();
}
