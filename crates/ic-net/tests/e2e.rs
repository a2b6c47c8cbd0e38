//! End-to-end tests over real localhost TCP: a server and a population
//! of worker threads, including workers that die mid-lease, workers
//! that stall silently, and workers whose connections are severed and
//! resumed, must still complete the dag — and the trace the server
//! emits must replay clean under the ic-audit verifier (reallocations
//! tolerated, no IC0401/IC0402/IC0403; resumes and speculative
//! re-leases tolerated, no IC0410-IC0412).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use ic_audit::{audit_trace, Severity};
use ic_dag::builder::from_arcs;
use ic_families::mesh::{out_mesh, out_mesh_schedule};
use ic_net::{
    run_worker, Conn, Decoder, Driver, FaultPlan, Message, Reactor, ServeReport, ServerConfig,
    WorkerConfig, ERR_UNSUPPORTED, PROTO_CURRENT,
};
use ic_sched::policy::AllocationPolicy;
use ic_sim::{MemorySink, Trace};

/// Bind an ephemeral localhost port and build the reactor that will
/// serve `dag` on it — the production path, `Driver::tcp` included.
fn bind<'a>(
    dag: &'a ic_dag::Dag,
    policy: &'a dyn AllocationPolicy,
    cfg: ServerConfig,
) -> (Reactor<'a>, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let driver = Driver::tcp(listener).unwrap();
    (Reactor::new(dag, policy, cfg, driver), addr)
}

fn assert_audit_clean(trace: &Trace) {
    let errors: Vec<_> = audit_trace(trace)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(errors.is_empty(), "trace must replay clean: {errors:?}");
}

/// The acceptance-criteria run: a 66-node evolving out-mesh served to
/// six workers over localhost — two die mid-run, one stalls past its
/// lease — and the dag completes with an audit-clean trace.
#[test]
fn flaky_workers_complete_a_mesh_with_an_audit_clean_trace() {
    let mesh = out_mesh(11); // 66 nodes
    assert!(mesh.num_nodes() >= 60);
    let sched = out_mesh_schedule(&mesh); // the IC-optimal priority list
    let cfg = ServerConfig::builder()
        .lease_ms(300)
        .backoff_base_ms(5)
        .expect_workers(6)
        .wait_ms(5)
        .seed(42)
        .build();
    let (mut server, addr) = bind(&mesh, &sched, cfg);

    let plans = [
        ("steady-a", FaultPlan::None, 1.0),
        ("steady-b", FaultPlan::None, 1.5),
        ("steady-c", FaultPlan::None, 2.0),
        ("dies-early", FaultPlan::DieAfter(2), 1.0),
        ("dies-randomly", FaultPlan::Random(0.3), 1.0),
        ("stalls", FaultPlan::StallAfter(1), 1.0),
    ];

    let mut sink = MemorySink::new();
    let (report, worker_reports) = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(i, (id, fault, speed))| {
                let cfg = WorkerConfig::builder()
                    .id(*id)
                    .speed(*speed)
                    .mean_ms(2)
                    .fault(*fault)
                    .seed(100 + i as u64)
                    .build();
                s.spawn(move || run_worker(addr, &cfg))
            })
            .collect();
        let report = server.run_until_drain(&mut sink).unwrap();
        let worker_reports: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        (report, worker_reports)
    });

    assert_eq!(
        report.registry.completions, 66,
        "every task completes: {report:?}"
    );
    assert!(
        report.registry.failures >= 1,
        "the die-after-2 worker guarantees at least one reallocation: {report:?}"
    );
    assert_eq!(
        report.registry.allocations,
        report.registry.completions + report.registry.failures
    );
    assert_eq!(report.workers_registered, 6);

    let trace = sink.into_trace().expect("header written");
    assert_eq!(trace.header.workers.len(), 6, "all six declared in header");
    // Slots are handed out in connection order, which six racing
    // threads do not fix: look the declarations up by id.
    let declared = |id: &str| trace.header.workers.iter().find(|w| w.id == id);
    assert!(declared("dies-early").is_some());
    assert_eq!(declared("steady-c").map(|w| w.speed), Some(2.0));
    assert_eq!(trace.completion_order().len(), 66);
    assert!(
        worker_reports.iter().filter(|r| r.died).count() >= 2,
        "the deterministic faulty workers died: {worker_reports:?}"
    );
    let steady_total: usize = worker_reports.iter().take(3).map(|r| r.completed).sum();
    assert!(steady_total > 0, "steady workers did work");
    assert_audit_clean(&trace);
}

/// The tentpole acceptance run: a worker whose TCP connection is
/// severed mid-lease reconnects with its resume token and keeps its
/// lease — the run finishes with zero reallocations, the server counts
/// one resume, and the trace (with its `resume` event) replays clean.
#[test]
fn severed_connection_resumes_mid_lease_without_reallocation() {
    let mesh = out_mesh(4); // 10 nodes
    let n = mesh.num_nodes();
    let sched = out_mesh_schedule(&mesh);
    let cfg = ServerConfig::builder()
        // Generous lease: only a *resume* can explain survival, and a
        // failed resume would show up as an expiry/failure instead.
        .lease_ms(5_000)
        .backoff_base_ms(5)
        .expect_workers(1)
        .wait_ms(5)
        .seed(9)
        .build();
    let (mut server, addr) = bind(&mesh, &sched, cfg);

    let mut sink = MemorySink::new();
    let (report, wreport) = std::thread::scope(|s| {
        let h = s.spawn(move || {
            let cfg = WorkerConfig::builder()
                .id("severed")
                .mean_ms(2)
                .fault(FaultPlan::SeverAfter(2))
                .seed(3)
                .build();
            run_worker(addr, &cfg).unwrap()
        });
        let report = server.run_until_drain(&mut sink).unwrap();
        (report, h.join().unwrap())
    });

    assert_eq!(
        report.registry.completions, n as u64,
        "the dag completes: {report:?}"
    );
    assert_eq!(
        report.registry.failures, 0,
        "no spurious reallocations: {report:?}"
    );
    assert_eq!(
        report.registry.resumes, 1,
        "exactly the one reconnect: {report:?}"
    );
    assert_eq!(wreport.resumes, 1, "the worker resumed once: {wreport:?}");
    assert!(!wreport.died);
    assert_eq!(wreport.completed, n);

    let trace = sink.into_trace().unwrap();
    let resumed = trace
        .events
        .iter()
        .filter(|e| e.kind == ic_sim::EventKind::Resumed)
        .count();
    assert_eq!(resumed, 1, "trace records the resume");
    assert_audit_clean(&trace);
}

/// The drain-barrier steal, scripted by hand: with one task left leased
/// to a slow worker, an idle worker is given a speculative duplicate
/// lease after `steal_after`; its completion wins, the straggler's late
/// report is rejected *without a trace event*, and its next heartbeat
/// is answered with `revoke`.
#[test]
fn drain_barrier_steal_first_completion_wins_and_loser_is_revoked() {
    let dag = from_arcs(1, &[]).unwrap();
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder()
        .lease_ms(10_000) // never expires: only the steal can duplicate
        .backoff_base_ms(5)
        .expect_workers(2)
        .wait_ms(5)
        .seed(11)
        .steal_after(30)
        .build();
    let (mut server, addr) = bind(&dag, &policy, cfg);

    let mut sink = MemorySink::new();
    let report: ServeReport = std::thread::scope(|s| {
        s.spawn(|| {
            let open = |id: &str| {
                let mut c = Conn::connect(addr).unwrap();
                c.send(&Message::hello(id, 1.0)).unwrap();
                assert!(matches!(
                    c.recv().unwrap(),
                    Message::Welcome {
                        proto: PROTO_CURRENT,
                        ..
                    }
                ));
                c
            };
            // Register both before requesting: the server holds the
            // trace header (and so all assignments) for `expect = 2`.
            let mut a = open("straggler");
            let mut b = open("thief");
            a.send(&Message::request()).unwrap();
            let Message::Assign { tasks } = a.recv().unwrap() else {
                panic!("straggler expected the only task");
            };
            assert_eq!(tasks, vec![0]);

            // The thief arrives at the drain barrier: the pool is empty
            // but the lease is outstanding. After `steal_after`, its
            // request is answered with a speculative duplicate.
            let stolen = loop {
                b.send(&Message::request()).unwrap();
                match b.recv().unwrap() {
                    Message::Assign { tasks } => break tasks[0],
                    Message::Wait { ms } => std::thread::sleep(Duration::from_millis(ms.max(1))),
                    other => panic!("thief expected assign or wait, got {other:?}"),
                }
            };
            assert_eq!(stolen, 0, "the straggler's task is re-leased");

            // First completion wins...
            b.send(&Message::Done {
                task: stolen,
                ok: true,
            })
            .unwrap();
            assert!(matches!(
                b.recv().unwrap(),
                Message::Ack { accepted: true, .. }
            ));
            // ...the straggler's duplicate report is rejected...
            a.send(&Message::Done { task: 0, ok: true }).unwrap();
            assert!(matches!(
                a.recv().unwrap(),
                Message::Ack {
                    accepted: false,
                    ..
                }
            ));
            // ...and a heartbeat on the lost lease is answered with the
            // `revoke` frame, not an ack.
            a.send(&Message::Heartbeat { task: 0 }).unwrap();
            assert!(matches!(a.recv().unwrap(), Message::Revoke { task: 0 }));

            for c in [&mut a, &mut b] {
                c.send(&Message::request()).unwrap();
                assert!(matches!(c.recv().unwrap(), Message::Drain));
                c.send(&Message::Bye).unwrap();
            }
        });
        server.run_until_drain(&mut sink).unwrap()
    });

    assert_eq!(report.registry.completions, 1);
    assert_eq!(
        report.registry.failures, 0,
        "a steal is not a failure: {report:?}"
    );
    assert_eq!(report.registry.steals, 1, "{report:?}");
    assert_eq!(
        report.registry.revokes, 1,
        "the straggler's lease was revoked"
    );

    let trace = sink.into_trace().unwrap();
    let kind_counts = |want| trace.events.iter().filter(|e| e.kind == want).count();
    assert_eq!(
        kind_counts(ic_sim::EventKind::Speculated),
        1,
        "the steal is in the trace"
    );
    assert_eq!(
        kind_counts(ic_sim::EventKind::Revoked),
        1,
        "so is the revocation"
    );
    // The duplicate completion left no event: one allocation, the
    // thief's idle tick at the barrier, one speculation, one
    // completion, one revocation — nothing else.
    assert_eq!(kind_counts(ic_sim::EventKind::Completed), 1);
    assert_eq!(trace.events.len(), 5, "{:?}", trace.events);
    assert_audit_clean(&trace);
}

/// Batched allocation over the real wire reproduces `ic_sched::batched`
/// exactly: a lone worker requesting `max = 4` and completing each
/// batch before the next request sees precisely the offline
/// batch-schedule rounds.
#[test]
fn batched_allocation_over_tcp_matches_the_offline_batch_schedule() {
    let mesh = out_mesh(4); // 10 nodes
    let policy = ic_sched::heuristics::Policy::Fifo;
    let offline = ic_sched::batched::batches_with(&mesh, 4, &policy);
    let cfg = ServerConfig::builder()
        .lease_ms(5_000)
        .expect_workers(1)
        .wait_ms(5)
        .seed(2)
        .batch(4)
        .build();
    let (mut server, addr) = bind(&mesh, &policy, cfg);

    let mut sink = MemorySink::new();
    let rounds: Vec<Vec<u64>> = std::thread::scope(|s| {
        let h = s.spawn(|| {
            let mut c = Conn::connect(addr).unwrap();
            c.send(&Message::hello("batcher", 1.0)).unwrap();
            assert!(matches!(c.recv().unwrap(), Message::Welcome { .. }));
            let mut rounds = Vec::new();
            loop {
                c.send(&Message::Request { max: 4 }).unwrap();
                match c.recv().unwrap() {
                    Message::Assign { tasks } => {
                        for &t in &tasks {
                            c.send(&Message::Done { task: t, ok: true }).unwrap();
                            assert!(matches!(
                                c.recv().unwrap(),
                                Message::Ack { accepted: true, .. }
                            ));
                        }
                        rounds.push(tasks);
                    }
                    Message::Wait { ms } => std::thread::sleep(Duration::from_millis(ms.max(1))),
                    Message::Drain => break,
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            c.send(&Message::Bye).unwrap();
            rounds
        });
        server.run_until_drain(&mut sink).unwrap();
        h.join().unwrap()
    });

    let want: Vec<Vec<u64>> = offline
        .batches()
        .iter()
        .map(|b| b.iter().map(|v| v.index() as u64).collect())
        .collect();
    assert_eq!(rounds, want, "online rounds replay the offline schedule");
    assert_audit_clean(&sink.into_trace().unwrap());
}

/// Speak the protocol by hand: duplicate and foreign task reports must
/// be acknowledged-but-rejected without corrupting the run or the
/// trace, and heartbeats on a held lease must be accepted.
#[test]
fn duplicate_and_foreign_reports_are_rejected_without_trace_damage() {
    let dag = from_arcs(2, &[]).unwrap(); // two independent tasks
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder()
        .lease_ms(400)
        .backoff_base_ms(5)
        .expect_workers(1)
        .wait_ms(5)
        .seed(7)
        .build();
    let (mut server, addr) = bind(&dag, &policy, cfg);

    let mut sink = MemorySink::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut c = Conn::connect(addr).unwrap();
            let send = |c: &mut Conn, m: &Message| c.send(m).unwrap();
            let recv = |c: &mut Conn| c.recv().unwrap();

            send(&mut c, &Message::hello("manual", 1.0));
            assert!(matches!(recv(&mut c), Message::Welcome { worker: 0, .. }));

            send(&mut c, &Message::request());
            let Message::Assign { tasks } = recv(&mut c) else {
                panic!("expected an assignment");
            };
            let first = tasks[0];
            // A report for a task we don't hold is rejected.
            send(
                &mut c,
                &Message::Done {
                    task: first + 1,
                    ok: true,
                },
            );
            assert!(matches!(
                recv(&mut c),
                Message::Ack {
                    accepted: false,
                    ..
                }
            ));
            // A heartbeat on the held lease is accepted.
            send(&mut c, &Message::Heartbeat { task: first });
            assert!(matches!(recv(&mut c), Message::Ack { accepted: true, .. }));
            // The real report lands...
            send(
                &mut c,
                &Message::Done {
                    task: first,
                    ok: true,
                },
            );
            assert!(matches!(recv(&mut c), Message::Ack { accepted: true, .. }));
            // ...and reporting it again is a duplicate.
            send(
                &mut c,
                &Message::Done {
                    task: first,
                    ok: true,
                },
            );
            assert!(matches!(
                recv(&mut c),
                Message::Ack {
                    accepted: false,
                    ..
                }
            ));

            send(&mut c, &Message::request());
            let Message::Assign { tasks } = recv(&mut c) else {
                panic!("expected the second assignment");
            };
            send(
                &mut c,
                &Message::Done {
                    task: tasks[0],
                    ok: true,
                },
            );
            assert!(matches!(recv(&mut c), Message::Ack { accepted: true, .. }));
            send(&mut c, &Message::request());
            assert!(matches!(recv(&mut c), Message::Drain));
            send(&mut c, &Message::Bye);
        });
        server.run_until_drain(&mut sink).unwrap();
    });

    let trace = sink.into_trace().unwrap();
    // Exactly two allocations and two completions: the rejected reports
    // left no mark on the trace.
    assert_eq!(trace.events.len(), 4);
    assert_audit_clean(&trace);
}

/// A lease that expires is reallocated (with a `Failed` event), and the
/// original worker's late report is rejected — then the rerun completes
/// and the whole Failed→realloc trace audits clean.
#[test]
fn expired_lease_reallocates_and_late_report_is_rejected() {
    let dag = from_arcs(1, &[]).unwrap();
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder()
        .lease_ms(60)
        .backoff_base_ms(1)
        .expect_workers(1)
        .wait_ms(5)
        .seed(7)
        .build();
    let (mut server, addr) = bind(&dag, &policy, cfg);

    let mut sink = MemorySink::new();
    let report: ServeReport = std::thread::scope(|s| {
        s.spawn(|| {
            let mut c = Conn::connect(addr).unwrap();

            c.send(&Message::hello("late", 1.0)).unwrap();
            assert!(matches!(c.recv().unwrap(), Message::Welcome { .. }));
            c.send(&Message::request()).unwrap();
            let Message::Assign { tasks } = c.recv().unwrap() else {
                panic!("expected an assignment");
            };
            let task = tasks[0];
            // Sit on the task well past the lease, without heartbeating.
            std::thread::sleep(Duration::from_millis(250));
            c.send(&Message::Done { task, ok: true }).unwrap();
            assert!(
                matches!(
                    c.recv().unwrap(),
                    Message::Ack {
                        accepted: false,
                        ..
                    }
                ),
                "the lease expired; the late report must be rejected"
            );
            // Ask again: the task comes back to us, and this time we
            // report in time.
            loop {
                c.send(&Message::request()).unwrap();
                match c.recv().unwrap() {
                    Message::Assign { tasks } => {
                        let task = tasks[0];
                        c.send(&Message::Done { task, ok: true }).unwrap();
                        assert!(matches!(
                            c.recv().unwrap(),
                            Message::Ack { accepted: true, .. }
                        ));
                    }
                    Message::Wait { ms } => {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    Message::Drain => break,
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            c.send(&Message::Bye).unwrap();
        });
        server.run_until_drain(&mut sink).unwrap()
    });

    assert_eq!(report.registry.completions, 1);
    assert_eq!(report.registry.failures, 1, "exactly the lease expiry");
    let trace = sink.into_trace().unwrap();
    let fails = trace
        .events
        .iter()
        .filter(|e| e.kind == ic_sim::EventKind::Failed)
        .count();
    assert_eq!(fails, 1, "trace records the expiry");
    assert_audit_clean(&trace);
}

/// A worker that asks for more work while still holding a lease
/// forfeits the leased task: the server records a `Failed` event and
/// the task re-enters the pool to be reallocated, rather than being
/// orphaned by the new lease overwriting the old (which would wedge the
/// run forever).
#[test]
fn request_while_leased_forfeits_the_old_task() {
    let dag = from_arcs(2, &[]).unwrap(); // two independent tasks
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder()
        // Leases never expire on their own here: only the forfeit path
        // can recover the abandoned task.
        .lease_ms(10_000)
        .backoff_base_ms(1)
        .expect_workers(1)
        .wait_ms(5)
        .seed(7)
        .build();
    let (mut server, addr) = bind(&dag, &policy, cfg);

    let mut sink = MemorySink::new();
    let report: ServeReport = std::thread::scope(|s| {
        s.spawn(|| {
            let mut c = Conn::connect(addr).unwrap();

            c.send(&Message::hello("greedy", 1.0)).unwrap();
            assert!(matches!(c.recv().unwrap(), Message::Welcome { .. }));
            c.send(&Message::request()).unwrap();
            let Message::Assign { tasks } = c.recv().unwrap() else {
                panic!("expected an assignment");
            };
            let first = tasks[0];
            // Ask again without completing: the held task is forfeited
            // and the *other* task is assigned (the forfeit is backing
            // off).
            c.send(&Message::request()).unwrap();
            let Message::Assign { tasks } = c.recv().unwrap() else {
                panic!("expected a second assignment");
            };
            let second = tasks[0];
            assert_ne!(
                second, first,
                "the forfeited task must not be re-leased yet"
            );
            c.send(&Message::Done {
                task: second,
                ok: true,
            })
            .unwrap();
            assert!(matches!(
                c.recv().unwrap(),
                Message::Ack { accepted: true, .. }
            ));
            // The forfeited task comes back after its backoff.
            loop {
                c.send(&Message::request()).unwrap();
                match c.recv().unwrap() {
                    Message::Assign { tasks } => {
                        let task = tasks[0];
                        assert_eq!(task, first, "only the forfeited task remains");
                        c.send(&Message::Done { task, ok: true }).unwrap();
                        assert!(matches!(
                            c.recv().unwrap(),
                            Message::Ack { accepted: true, .. }
                        ));
                    }
                    Message::Wait { ms } => std::thread::sleep(Duration::from_millis(ms)),
                    Message::Drain => break,
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            c.send(&Message::Bye).unwrap();
        });
        server.run_until_drain(&mut sink).unwrap()
    });

    assert_eq!(report.registry.completions, 2);
    assert_eq!(report.registry.failures, 1, "exactly the forfeit");
    assert_eq!(report.registry.allocations, 3);
    let trace = sink.into_trace().unwrap();
    let fails = trace
        .events
        .iter()
        .filter(|e| e.kind == ic_sim::EventKind::Failed)
        .count();
    assert_eq!(fails, 1, "trace records the forfeit");
    assert_audit_clean(&trace);
}

/// The reactor at fleet scale: 256 in-process workers — a mix of
/// steady, randomly-dying, and connection-severing clients — against
/// one single-threaded reactor, over real localhost TCP. The dag
/// completes, every worker registers, and the trace replays clean.
#[test]
fn scale_smoke_256_flaky_workers_complete_audit_clean() {
    const WORKERS: usize = 256;
    let mesh = out_mesh(32); // 528 nodes
    let sched = out_mesh_schedule(&mesh);
    let cfg = ServerConfig::builder()
        .lease_ms(2_000)
        .backoff_base_ms(5)
        .expect_workers(WORKERS)
        .wait_ms(5)
        .seed(77)
        .batch(2)
        .build();
    let (mut server, addr) = bind(&mesh, &sched, cfg);

    let mut sink = MemorySink::new();
    let (report, worker_reports) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|i| {
                let fault = match i % 16 {
                    7 => FaultPlan::Random(0.1),
                    11 => FaultPlan::SeverAfter(2),
                    _ => FaultPlan::None,
                };
                let cfg = WorkerConfig::builder()
                    .id(format!("fleet-{i}"))
                    .mean_ms(1)
                    .fault(fault)
                    .seed(1_000 + i as u64)
                    .build();
                s.spawn(move || run_worker(addr, &cfg))
            })
            .collect();
        let report = server.run_until_drain(&mut sink).unwrap();
        let worker_reports: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        (report, worker_reports)
    });

    assert_eq!(
        report.registry.completions, 528,
        "every task completes: {report:?}"
    );
    assert_eq!(report.workers_registered, WORKERS);
    assert_eq!(
        report.registry.allocations,
        report.registry.completions + report.registry.failures
    );
    let completed: usize = worker_reports.iter().map(|r| r.completed).sum();
    assert!(completed >= 528, "completions spread across the fleet");
    let trace = sink.into_trace().expect("header written");
    assert_eq!(trace.header.workers.len(), WORKERS);
    assert_audit_clean(&trace);
}

/// A server killed mid-run leaves a *replayable* trace: the
/// [`ic_sim::FileSink`] buffers whole event lines and the reactor
/// flushes them once per poll round, before that round's replies go
/// out — so everything a client has been told is on disk, and at any
/// instant the bytes there parse as a trace whose only audit error can
/// be the IC0405 truncation finding — never a torn line, never
/// incoherent custody.
#[test]
fn mid_run_trace_snapshot_is_replayable_with_at_most_ic0405() {
    let dag = from_arcs(3, &[]).unwrap(); // three independent tasks
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder()
        .lease_ms(10_000)
        .backoff_base_ms(1)
        .expect_workers(1)
        .wait_ms(5)
        .seed(13)
        .build();
    let (mut server, addr) = bind(&dag, &policy, cfg);

    let dir = std::env::temp_dir().join(format!("ic-net-killsnap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let mut sink = ic_sim::FileSink::create(&path).unwrap();

    let snapshot = std::thread::scope(|s| {
        let path = &path;
        let h = s.spawn(move || {
            let mut c = Conn::connect(addr).unwrap();
            c.send(&Message::hello("snapshooter", 1.0)).unwrap();
            assert!(matches!(c.recv().unwrap(), Message::Welcome { .. }));
            c.send(&Message::request()).unwrap();
            let Message::Assign { tasks } = c.recv().unwrap() else {
                panic!("expected the first assignment");
            };
            let first = tasks[0];
            // Forfeit the held task by asking again: the `Failed`
            // event and the new allocation are flushed with their
            // round, before the `assign` below is transmitted.
            c.send(&Message::request()).unwrap();
            let Message::Assign { tasks } = c.recv().unwrap() else {
                panic!("expected the second assignment");
            };
            let second = tasks[0];
            // One more round trip — not needed for the events above
            // (their reply is proof they were flushed), only so the
            // snapshot is taken with the server at rest.
            c.send(&Message::Heartbeat { task: second }).unwrap();
            assert!(matches!(
                c.recv().unwrap(),
                Message::Ack { accepted: true, .. }
            ));
            // This is what a SIGKILL right now would leave on disk.
            let snapshot = std::fs::read_to_string(path).unwrap();

            // Then the run continues to completion as normal.
            c.send(&Message::Done {
                task: second,
                ok: true,
            })
            .unwrap();
            assert!(matches!(
                c.recv().unwrap(),
                Message::Ack { accepted: true, .. }
            ));
            loop {
                c.send(&Message::request()).unwrap();
                match c.recv().unwrap() {
                    Message::Assign { tasks } => {
                        for t in tasks {
                            c.send(&Message::Done { task: t, ok: true }).unwrap();
                            assert!(matches!(
                                c.recv().unwrap(),
                                Message::Ack { accepted: true, .. }
                            ));
                        }
                    }
                    Message::Wait { ms } => std::thread::sleep(Duration::from_millis(ms.max(1))),
                    Message::Drain => break,
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            c.send(&Message::Bye).unwrap();
            let _ = first;
            snapshot
        });
        server.run_until_drain(&mut sink).unwrap();
        h.join().unwrap()
    });
    sink.finish().unwrap();

    // The mid-run snapshot: parses, and replays with *at most* the
    // truncation finding — no custody or pool-coherence errors.
    let snap = Trace::from_jsonl(&snapshot).expect("snapshot is whole lines");
    assert!(
        snap.events
            .iter()
            .any(|e| e.kind == ic_sim::EventKind::Failed),
        "the flush point (the forfeit) is in the snapshot: {:?}",
        snap.events
    );
    let errors: Vec<_> = audit_trace(&snap)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(
        errors.iter().all(|d| d.code == "IC0405"),
        "only truncation may be reported: {errors:?}"
    );

    // The finished file replays fully clean.
    let full = Trace::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(full.completion_order().len(), 3);
    assert_audit_clean(&full);
    std::fs::remove_dir_all(&dir).ok();
}

/// The recovery acceptance run: a server is killed mid-run — after one
/// completion, with one lease outstanding and one task still pooled —
/// and a second server rebuilds itself from the bytes the first left
/// on disk via [`ic_net::Recovery`]. The surviving worker reconnects
/// with its old resume token, keeps its lease (no re-execution, no
/// expiry), the dag finishes, and the *concatenated* trace — crash
/// prefix plus recovered suffix in one file — replays audit-clean as a
/// single run.
#[test]
fn killed_server_recovers_from_its_wal_and_the_worker_resumes_across_restart() {
    let dag = from_arcs(3, &[]).unwrap(); // three independent tasks
    let policy = ic_sched::Schedule::in_id_order(&dag);
    // The `expect_workers` barrier matters beyond determinism: it puts
    // the worker's id into the trace header, which is what lets the
    // recovered machine match the reconnecting "phoenix" back to its
    // old slot (and lease) by id.
    let cfg = || {
        ServerConfig::builder()
            .lease_ms(10_000)
            .backoff_base_ms(1)
            .expect_workers(1)
            .wait_ms(5)
            .seed(29)
            .build()
    };
    let (mut server, addr) = bind(&dag, &policy, cfg());

    let dir = std::env::temp_dir().join(format!("ic-net-crashwal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let live = dir.join("live.jsonl");
    let wal = dir.join("wal.jsonl");
    let mut sink = ic_sim::FileSink::create(&live).unwrap();

    // Phase 1: complete t0, take a lease on t1, then snapshot the
    // bytes on disk — that snapshot IS the crashed server's WAL (the
    // first run then finishes normally only so its thread can join;
    // everything after the snapshot plays no part below).
    let (snapshot, token) = std::thread::scope(|s| {
        let live = &live;
        let h = s.spawn(move || {
            let mut c = Conn::connect(addr).unwrap();
            c.send(&Message::hello("phoenix", 1.0)).unwrap();
            let Message::Welcome { resume, .. } = c.recv().unwrap() else {
                panic!("expected the registration welcome");
            };
            let token = resume.expect("a welcome carries a resume token");
            c.send(&Message::request()).unwrap();
            let Message::Assign { tasks } = c.recv().unwrap() else {
                panic!("expected the first assignment");
            };
            let t0 = tasks[0];
            c.send(&Message::Done { task: t0, ok: true }).unwrap();
            assert!(matches!(
                c.recv().unwrap(),
                Message::Ack { accepted: true, .. }
            ));
            c.send(&Message::request()).unwrap();
            let Message::Assign { tasks } = c.recv().unwrap() else {
                panic!("expected the second assignment");
            };
            let held = tasks[0];
            // The `assign` itself proves the allocation is on disk
            // (WAL before wire); the heartbeat round trip only puts
            // the server at rest before we look.
            c.send(&Message::Heartbeat { task: held }).unwrap();
            assert!(matches!(
                c.recv().unwrap(),
                Message::Ack { accepted: true, .. }
            ));
            // What a SIGKILL right now would leave behind: one
            // completion, one outstanding lease, one task never
            // allocated.
            let snapshot = std::fs::read_to_string(live).unwrap();

            // Let the first run finish so the scope can join.
            c.send(&Message::Done {
                task: held,
                ok: true,
            })
            .unwrap();
            assert!(matches!(
                c.recv().unwrap(),
                Message::Ack { accepted: true, .. }
            ));
            loop {
                c.send(&Message::request()).unwrap();
                match c.recv().unwrap() {
                    Message::Assign { tasks } => {
                        for t in tasks {
                            c.send(&Message::Done { task: t, ok: true }).unwrap();
                            assert!(matches!(
                                c.recv().unwrap(),
                                Message::Ack { accepted: true, .. }
                            ));
                        }
                    }
                    Message::Wait { ms } => std::thread::sleep(Duration::from_millis(ms.max(1))),
                    Message::Drain => break,
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            c.send(&Message::Bye).unwrap();
            (snapshot, token)
        });
        server.run_until_drain(&mut sink).unwrap();
        h.join().unwrap()
    });
    sink.finish().unwrap();
    std::fs::write(&wal, &snapshot).unwrap();

    // Phase 2: rebuild from the WAL. The report must account for
    // exactly what the crash left: one completion recovered, one lease
    // re-armed, one worker awaited for resume, nothing torn.
    let recovery = ic_net::Recovery::replay(
        &dag,
        &policy,
        cfg(),
        ic_net::RecoveryConfig::default(),
        &wal,
    )
    .unwrap();
    assert_eq!(
        recovery.report().events_replayed,
        3,
        "alloc, complete, alloc"
    );
    assert_eq!(recovery.report().completions, 1, "t0 survives the crash");
    assert_eq!(recovery.report().tasks_rearmed, 1, "the outstanding lease");
    assert_eq!(
        recovery.report().workers_awaited,
        1,
        "phoenix is expected back"
    );
    assert!(recovery.report().torn_tail.is_none(), "whole lines only");

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr2 = listener.local_addr().unwrap();
    let driver = ic_net::Driver::tcp(listener).unwrap();
    let mut reactor = recovery.into_reactor(driver);
    // Append to the SAME file: the crash prefix and the recovered
    // suffix must audit as one run.
    let mut sink2 = ic_sim::FileSink::append(&wal).unwrap();

    let report2 = std::thread::scope(|s| {
        s.spawn(move || {
            let mut c = Conn::connect(addr2).unwrap();
            // The old token against the NEW server: recovery matches
            // the slot by id and hands the held lease straight back.
            c.send(&Message::Hello {
                id: "phoenix".into(),
                speed: 1.0,
                proto: PROTO_CURRENT,
                resume: Some(token),
            })
            .unwrap();
            let Message::Welcome { tasks, .. } = c.recv().unwrap() else {
                panic!("expected the resume welcome");
            };
            assert_eq!(tasks, vec![1], "the crash-surviving lease is restored");
            c.send(&Message::Done { task: 1, ok: true }).unwrap();
            assert!(matches!(
                c.recv().unwrap(),
                Message::Ack { accepted: true, .. }
            ));
            loop {
                c.send(&Message::request()).unwrap();
                match c.recv().unwrap() {
                    Message::Assign { tasks } => {
                        for t in tasks {
                            assert_ne!(t, 0, "t0 completed pre-crash; never re-executed");
                            c.send(&Message::Done { task: t, ok: true }).unwrap();
                            assert!(matches!(
                                c.recv().unwrap(),
                                Message::Ack { accepted: true, .. }
                            ));
                        }
                    }
                    Message::Wait { ms } => std::thread::sleep(Duration::from_millis(ms.max(1))),
                    Message::Drain => break,
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            c.send(&Message::Bye).unwrap();
        });
        reactor.run_until_drain(&mut sink2).unwrap()
    });
    sink2.finish().unwrap();

    // The recovered run's report spans the crash: the replayed
    // completion counts alongside the two done after restart.
    assert_eq!(
        report2.registry.completions, 3,
        "one recovered + two live: {report2:?}"
    );
    assert_eq!(
        report2.registry.failures, 0,
        "no lease expired across the restart"
    );
    assert_eq!(
        report2.registry.resumes, 1,
        "phoenix resumed across the restart"
    );

    // The concatenated file — crash prefix + recovered suffix — parses
    // as ONE run and replays audit-clean, with every task completed
    // exactly once and the cross-restart resume on record.
    let full = Trace::from_jsonl(&std::fs::read_to_string(&wal).unwrap()).unwrap();
    assert_eq!(full.completion_order().len(), 3, "zero completed work lost");
    for task in 0..3u64 {
        let times = full
            .events
            .iter()
            .filter(|e| {
                e.kind == ic_sim::EventKind::Completed
                    && e.task.is_some_and(|t| t.index() as u64 == task)
            })
            .count();
        assert_eq!(times, 1, "t{task} executed exactly once across the crash");
    }
    let resumed = full
        .events
        .iter()
        .filter(|e| e.kind == ic_sim::EventKind::Resumed)
        .count();
    assert_eq!(resumed, 1, "the cross-restart resume is in the trace");
    assert_audit_clean(&full);
    std::fs::remove_dir_all(&dir).ok();
}

/// A connection that opens with anything but `hello` gets a protocol
/// error and is dropped; the server keeps serving real workers.
#[test]
fn non_hello_opening_is_rejected_with_a_protocol_error() {
    let dag = from_arcs(1, &[]).unwrap();
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder().expect_workers(1).wait_ms(5).build();
    let (mut server, addr) = bind(&dag, &policy, cfg);

    let mut sink = MemorySink::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            // Rude connection: demands work without registering.
            let mut c = Conn::connect(addr).unwrap();
            c.send(&Message::request()).unwrap();
            assert!(matches!(c.recv().unwrap(), Message::Error { .. }));
            // A real worker still finishes the dag.
            let worker = WorkerConfig::builder().id("real").build();
            let report = run_worker(addr, &worker).unwrap();
            assert_eq!(report.completed, 1);
            assert!(!report.died);
        });
        server.run_until_drain(&mut sink).unwrap();
    });
    assert_audit_clean(&sink.into_trace().unwrap());
}

/// A `hello` below protocol 2 — `proto` absent (how a peer that
/// predates the field writes it), 0 or 1 — is refused by a default
/// server with the typed `error{unsupported}` frame and a closed
/// connection — never a panic, never a misparse — and the server goes
/// on to serve a current worker normally.
#[test]
fn v1_hello_against_a_v2_only_server_gets_a_typed_error_frame() {
    let dag = from_arcs(1, &[]).unwrap();
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder().expect_workers(1).wait_ms(5).build();
    let (mut server, addr) = bind(&dag, &policy, cfg);

    let mut sink = MemorySink::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            for proto in ["", r#","proto":0"#, r#","proto":1"#] {
                // Framed by hand: the encoder always writes `proto`.
                let body = format!(r#"{{"type":"hello","id":"ancient","speed":1.0{proto}}}"#);
                let mut c = TcpStream::connect(addr).unwrap();
                c.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
                c.write_all(body.as_bytes()).unwrap();
                // One frame, then the server hangs up: read to EOF.
                let mut reply = Vec::new();
                c.read_to_end(&mut reply).unwrap();
                let mut dec = Decoder::new();
                dec.feed(&reply);
                match dec.next_msg().unwrap() {
                    Some(Message::Error { code, msg }) => {
                        assert_eq!(code, ERR_UNSUPPORTED, "typed code, not prose: {msg}");
                    }
                    other => panic!("{body}: expected the unsupported frame, got {other:?}"),
                }
                assert_eq!(dec.pending(), 0, "{body}: nothing after the error frame");
            }
            // A current-protocol worker is still served.
            let worker = WorkerConfig::builder().id("modern").build();
            let report = run_worker(addr, &worker).unwrap();
            assert_eq!(report.completed, 1);
        });
        server.run_until_drain(&mut sink).unwrap();
    });
    let trace = sink.into_trace().unwrap();
    assert_eq!(trace.header.workers.len(), 1, "refused peers took no slot");
    assert_audit_clean(&trace);
}
