//! [`LoopbackWorker`]s against a loopback [`Reactor`] on one
//! [`ManualClock`] and one thread, as the in-process federation runs
//! them: one worker per fault kind drains the dag, its trace replays
//! clean, and every run writes the same bytes.

use std::time::Duration;

use ic_audit::{audit_trace, Severity};
use ic_families::mesh::{out_mesh, out_mesh_schedule};
use ic_net::{
    loopback, Clock, Driver, FaultPlan, LoopbackWorker, ManualClock, Reactor, Round, ServeReport,
    ServerConfig, WorkerConfig,
};
use ic_sim::{EventKind, MemorySink, Trace, TraceEvent};

const PLANS: [FaultPlan; 4] = [
    FaultPlan::None,
    FaultPlan::Fail(0.5),
    FaultPlan::DieAfter(1),
    FaultPlan::SeverAfter(1),
];

/// Serve `out_mesh(5)` to one worker per plan until it drains: a poll
/// round, every worker advanced, and when nothing moved the clock
/// jumps to the earliest wake.
fn run() -> (ServeReport, Trace) {
    let (mesh, clock) = (out_mesh(5), ManualClock::new(0));
    let policy = out_mesh_schedule(&mesh);
    let cfg = ServerConfig::builder()
        .lease_ms(50)
        .backoff_base_ms(5)
        .wait_ms(5)
        .expect_workers(PLANS.len())
        .seed(7)
        .build();
    let (poller, handle) = loopback(1);
    let driver = Driver::new(Box::new(clock.clone()), Box::new(poller));
    let mut reactor = Reactor::new(&mesh, &policy, cfg, driver);
    let mut sink = MemorySink::new();
    let mut fleet: Vec<_> = (0u64..)
        .zip(PLANS)
        .map(|(i, fault)| {
            let cfg = WorkerConfig::builder().mean_ms(3).seed(i + 1).fault(fault);
            LoopbackWorker::new(&cfg.id(format!("w{i}")).build(), handle.clone())
        })
        .collect();
    loop {
        let now = clock.now_us();
        let mut moved = match reactor.poll_round(Duration::ZERO, &mut sink).unwrap() {
            Round::Idle => false,
            Round::Busy => true,
            Round::Drained(report) => return (report, sink.into_trace().unwrap()),
        };
        fleet.retain_mut(|worker| {
            let (stepped, live) = worker.advance(now);
            moved |= stepped;
            live
        });
        if !moved {
            let sleepers = fleet.iter().filter_map(LoopbackWorker::wake_us);
            let wake = reactor.next_wake_us().into_iter().chain(sleepers).min();
            clock.advance(wake.expect("something is due") - now);
        }
    }
}

#[test]
fn every_fault_plan_drains_a_mesh_in_the_same_bytes_every_run() {
    let (report, trace) = run();
    assert_eq!(report.registry.completions, 15, "the whole mesh");
    assert_eq!(report.workers_registered, PLANS.len());
    // The failing worker's reports and the dead worker's lease expiry.
    let failed = |id: &str| {
        let w = trace.header.workers.iter().find(|w| w.id == id).unwrap();
        let of_w = |e: &&TraceEvent| e.kind == EventKind::Failed && e.client == w.client;
        trace.events.iter().filter(of_w).count()
    };
    assert!(failed("w1") > 0 && failed("w2") > 0, "both plans fired");
    assert_eq!(failed("w0") + failed("w3"), 0);
    assert_eq!(
        report.registry.resumes, 1,
        "the severing worker resumes once"
    );
    let errors: Vec<_> = audit_trace(&trace)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(errors.is_empty(), "trace must replay clean: {errors:?}");
    assert_eq!(trace.to_jsonl(), run().1.to_jsonl(), "same bytes");
}
