//! The injectable-driver contract: a [`Reactor`] over a
//! [`ManualClock`] and the in-process loopback poller is a
//! *deterministic* server — the same scripted client against the same
//! frozen clock produces byte-identical traces, with lease expiry
//! driven through the timer queue by explicit clock advances rather
//! than wall time. This is the property that lets `ic-bench` and the
//! model checker share the production reactor code path. Client and
//! reactor run in lockstep on the test's one thread: a frame goes in,
//! one poll round answers it.

use std::time::Duration;

use ic_net::{
    loopback, Driver, LoopbackConn, ManualClock, Message, Reactor, Round, ServeReport, ServerConfig,
};
use ic_sim::{EventKind, MemorySink};

/// A reactor driven from the test's thread, and its trace.
struct Lockstep<'a> {
    reactor: Reactor<'a>,
    sink: MemorySink,
    /// The report of the round that drained, once one has.
    report: Option<ServeReport>,
}

impl<'a> Lockstep<'a> {
    /// Drive `reactor`, after the round that boots it.
    fn new(reactor: Reactor<'a>) -> Lockstep<'a> {
        let (sink, report) = (MemorySink::new(), None);
        let mut world = Lockstep {
            reactor,
            sink,
            report,
        };
        world.round();
        world
    }

    /// One poll round that waits for nothing.
    fn round(&mut self) {
        let round = self.reactor.poll_round(Duration::ZERO, &mut self.sink);
        if let Round::Drained(report) = round.expect("poll round") {
            self.report = Some(report);
        }
    }

    /// Send `msg`, run the round that answers it, and take the answer.
    fn call(&mut self, conn: &mut LoopbackConn, msg: Message) -> Message {
        conn.send(&msg).unwrap();
        self.round();
        conn.try_recv().unwrap().expect("the round answered")
    }
}

/// One scripted run: a single worker completes a 3-task independent
/// dag, but sits out its first lease — the clock is advanced past the
/// deadline, so the timer queue (not a scan, not wall time) expires it.
/// Returns the run's trace as JSONL plus the serve report.
fn scripted_run(seed: u64) -> (String, ic_net::ServeReport) {
    let dag = ic_dag::builder::from_arcs(3, &[]).expect("independent tasks");
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder()
        .lease_ms(100)
        .backoff_base_ms(0)
        .expect_workers(1)
        .wait_ms(5)
        .seed(seed)
        .build();
    let clock = ManualClock::new(1_000_000);
    let (poller, handle) = loopback(1);
    let driver = Driver::new(Box::new(clock.clone()), Box::new(poller));
    let mut world = Lockstep::new(Reactor::new(&dag, &policy, cfg, driver));

    let mut conn = handle.connect();
    let Message::Welcome { .. } = world.call(&mut conn, Message::hello("deterministic", 1.0))
    else {
        panic!("expected welcome");
    };
    let Message::Assign { .. } = world.call(&mut conn, Message::request()) else {
        panic!("expected the first assignment");
    };
    // Abandon the lease: advance the frozen clock past the deadline
    // and let the reactor's next poll round fire the timer.
    clock.advance(150_000);
    world.round();
    loop {
        match world.call(&mut conn, Message::request()) {
            Message::Assign { tasks } => {
                for t in tasks {
                    let Message::Ack { accepted: true, .. } =
                        world.call(&mut conn, Message::Done { task: t, ok: true })
                    else {
                        panic!("fresh completion must be accepted");
                    };
                }
            }
            Message::Wait { .. } => {}
            Message::Drain => break,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    let report = world.report.expect("the drain ended the run");
    let trace = world.sink.into_trace().expect("header recorded");
    (trace.to_jsonl(), report)
}

#[test]
fn manual_clock_runs_are_byte_identical() {
    let (a, report_a) = scripted_run(42);
    let (b, report_b) = scripted_run(42);
    assert_eq!(a, b, "same script + same frozen clock = same bytes");
    assert_eq!(report_a.completions, 3);
    assert_eq!(report_b.failures, report_a.failures);
    assert!(
        report_a.failures >= 1,
        "the abandoned lease was recovered: {report_a:?}"
    );
    // The frozen clock is the one stamping events: the makespan is
    // exactly the 150 ms we advanced, not wall time.
    assert!(
        (report_a.makespan - 0.15).abs() < 1e-9,
        "makespan from the manual clock: {report_a:?}"
    );

    // The trace carries the recovery, and replays clean.
    let trace = ic_sim::Trace::from_jsonl(&a).unwrap();
    let fails = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Failed)
        .count();
    assert_eq!(fails, report_a.failures);
    let errors: Vec<_> = ic_audit::audit_trace(&trace)
        .into_iter()
        .filter(|d| d.severity == ic_audit::Severity::Error)
        .collect();
    assert!(
        errors.is_empty(),
        "deterministic trace replays clean: {errors:?}"
    );
}

/// A worker resumes on connection B while its old connection A is
/// still open. A's next frame must not drive the slot (a `request`
/// would forfeit the leases B just resumed): A gets an error and is
/// closed, nothing fails, and B's `done` is accepted.
#[test]
fn a_connection_superseded_by_a_resume_no_longer_drives_its_slot() {
    let dag = ic_dag::builder::from_arcs(1, &[]).expect("one task");
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder()
        .lease_ms(60_000)
        .backoff_base_ms(0)
        .expect_workers(1)
        .build();
    let (poller, handle) = loopback(1);
    let driver = Driver::new(Box::new(ManualClock::new(0)), Box::new(poller));
    let mut world = Lockstep::new(Reactor::new(&dag, &policy, cfg, driver));

    let mut a = handle.connect();
    let Message::Welcome { resume, .. } = world.call(&mut a, Message::hello("w", 1.0)) else {
        panic!("expected welcome");
    };
    assert_eq!(world.call(&mut a, Message::request()), Message::assign(0));
    let mut b = handle.connect();
    let hello = Message::Hello {
        id: "w".into(),
        speed: 1.0,
        proto: ic_net::PROTO_CURRENT,
        resume,
    };
    let Message::Welcome { tasks, .. } = world.call(&mut b, hello) else {
        panic!("expected the resume to be welcomed");
    };
    assert_eq!(tasks, vec![0], "the resumed slot holds the lease");
    let a_reply = world.call(&mut a, Message::request());
    let a_after = a.try_recv().map_err(|e| e.kind());
    let b_ack = world.call(&mut b, Message::Done { task: 0, ok: true });
    // Finish the run whichever connection holds the task now.
    if let Message::Assign { tasks } = &a_reply {
        world.call(
            &mut a,
            Message::Done {
                task: tasks[0],
                ok: true,
            },
        );
        world.call(&mut a, Message::request());
    }
    assert_eq!(world.call(&mut b, Message::request()), Message::Drain);
    assert!(world.report.is_some(), "the drain ended the run");

    assert!(
        matches!(&a_reply, Message::Error { msg, .. } if msg.contains("superseded")),
        "the old connection is told it was superseded: {a_reply:?}"
    );
    assert_eq!(
        a_after,
        Err(std::io::ErrorKind::UnexpectedEof),
        "and closed"
    );
    assert_eq!(
        b_ack,
        Message::Ack {
            task: 0,
            accepted: true
        }
    );
    let trace = world.sink.into_trace().expect("header recorded");
    assert!(
        trace.events.iter().all(|e| e.kind != EventKind::Failed),
        "no lease was forfeited: {:?}",
        trace.events
    );
}

/// The reactor exits via `connected() == 0` after draining its last
/// worker — under a frozen clock the drain *grace* can never elapse,
/// so prompt exit here proves the sever-on-drain path.
#[test]
fn drain_exits_promptly_under_a_frozen_clock() {
    let dag = ic_dag::builder::from_arcs(1, &[]).expect("one task");
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder()
        .lease_ms(60_000) // grace would be 60 s of manual time: unreachable
        .expect_workers(1)
        .seed(7)
        .build();
    let clock = ManualClock::new(0);
    let (poller, handle) = loopback(1);
    let driver = Driver::new(Box::new(clock), Box::new(poller));
    let mut world = Lockstep::new(Reactor::new(&dag, &policy, cfg, driver));

    let mut conn = handle.connect();
    let Message::Welcome { .. } = world.call(&mut conn, Message::hello("prompt", 1.0)) else {
        panic!("expected welcome");
    };
    let Message::Assign { tasks } = world.call(&mut conn, Message::request()) else {
        panic!("expected the assignment");
    };
    let done = Message::Done {
        task: tasks[0],
        ok: true,
    };
    let Message::Ack { accepted: true, .. } = world.call(&mut conn, done) else {
        panic!("completion accepted");
    };
    let Message::Drain = world.call(&mut conn, Message::request()) else {
        panic!("expected drain");
    };
    let report = world.report.expect("the drain ended the run");
    assert_eq!(report.completions, 1);
    assert_eq!(report.makespan, 0.0, "no manual time elapsed: {report:?}");
}
