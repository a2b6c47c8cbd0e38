//! `net` group: the reactor scale harness.
//!
//! One [`Reactor`] over the in-process loopback poller serves a fleet
//! of 1 000–10 000 worker connections, multiplexed onto a handful of
//! client driver threads (the client side is event-driven too — one
//! thread per worker would cap the harness far below 10k). The fleet
//! carries the same fault mix as the e2e scale smoke: mostly healthy
//! workers, a slice of *flaky* ones that voluntarily fail ~10% of
//! their tasks (`done ok:false` → reallocation), and a slice of
//! *severing* ones that drop their connection mid-lease after one
//! completion and come straight back with the resume token, as
//! `ic-prio work --sever-after` does (→ a resume, leases intact).
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
    loopback, Driver, LoopbackConn, LoopbackHandle, Message, MonotonicClock, Reactor, ServeReport,
    PROTO_CURRENT,
};
use ic_sim::MemorySink;

/// The two ends of the scale claim: `bench-check --max-regress net=…`
/// compares both rows.
const FLEETS: [usize; 2] = [1000, 10000];

/// Behavioral slice of the fleet a worker belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Mix {
    Healthy,
    Flaky,
    Severing,
}

/// Same mix rule as the e2e scale smoke: 2 of every 16 workers
/// misbehave, one by failing tasks and one by severing mid-lease
/// (once) and resuming.
fn mix_of(i: usize) -> Mix {
    match i % 16 {
        7 => Mix::Flaky,
        11 => Mix::Severing,
        _ => Mix::Healthy,
    }
}

/// One multiplexed worker connection and its protocol state.
struct Client {
    conn: Option<LoopbackConn>,
    id: String,
    mix: Mix,
    /// Resume token from the latest `welcome`; a severing worker spends
    /// it on its one reconnect.
    token: Option<String>,
    rng: u64,
    acks_pending: usize,
    completions: u32,
    /// Registration acknowledged. Until then the client sends
    /// *nothing* beyond its hello: a request racing the welcome would
    /// put two requests in flight, and a request arriving while the
    /// previous one's assign is still in transit forfeits that lease.
    welcomed: bool,
    /// A `request` is outstanding: its `assign` or `wait` is still
    /// to come, so no second one may go out.
    requested: bool,
    /// Earliest instant the next `request` may go out (wait backoff).
    not_before: Instant,
}

impl Client {
    /// Report every task of an `assign` (or of a resume's `welcome`).
    fn report(&mut self, tasks: Vec<u64>) {
        for task in tasks {
            let ok = self.task_succeeds();
            send(self, &Message::Done { task, ok });
            self.acks_pending += 1;
        }
    }

    /// Roll the flaky die: ~10% of reports come back `ok: false`.
    fn task_succeeds(&mut self) -> bool {
        if self.mix != Mix::Flaky {
            return true;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        !(self.rng >> 33).is_multiple_of(10)
    }
}

/// Send on a client's connection if it still has one; the loopback
/// channel is unbounded, so a send only fails once the poller itself
/// is gone — at which point the run is over anyway.
fn send(c: &Client, msg: &Message) {
    if let Some(conn) = c.conn.as_ref() {
        conn.send(msg).expect("loopback send");
    }
}

/// Send a `request` and mark it outstanding.
fn request(c: &mut Client) {
    send(c, &Message::request());
    c.requested = true;
}

/// Drive workers `offset, offset+stride, ...` (up to `total`) against
/// the reactor until each is drained or severed.
fn drive(handle: &LoopbackHandle, offset: usize, stride: usize, total: usize) {
    let mut clients: Vec<Client> = (offset..total)
        .step_by(stride)
        .map(|i| {
            let conn = handle.connect();
            let id = format!("w{i}");
            conn.send(&Message::hello(id.as_str(), 1.0)).expect("hello");
            Client {
                conn: Some(conn),
                id,
                mix: mix_of(i),
                token: None,
                rng: 0x9E37_79B9_7F4A_7C15 ^ (i as u64 + 1),
                acks_pending: 0,
                completions: 0,
                welcomed: false,
                requested: false,
                not_before: Instant::now(),
            }
        })
        .collect();
    let mut live = clients.len();
    while live > 0 {
        let mut progressed = false;
        for c in &mut clients {
            // Pull the message with a scoped borrow so the handlers
            // below are free to mutate (or drop) the connection.
            while c.conn.is_some() {
                let msg = match c.conn.as_mut().map(LoopbackConn::try_recv) {
                    Some(Ok(Some(msg))) => msg,
                    Some(Ok(None)) => break,
                    // The reactor closed the connection (post-drain).
                    _ => {
                        c.conn = None;
                        live -= 1;
                        break;
                    }
                };
                progressed = true;
                match msg {
                    Message::Welcome { resume, tasks, .. } => {
                        c.welcomed = true;
                        c.token = resume;
                        if tasks.is_empty() {
                            request(c);
                        } else {
                            // Resumed: the leases came back with us.
                            c.report(tasks);
                        }
                    }
                    Message::Assign { tasks } => {
                        c.requested = false;
                        if c.mix == Mix::Severing && c.completions >= 1 {
                            // Sever mid-lease, once: drop the connection
                            // without a word and resume on a new one;
                            // the `welcome` hands the leases back.
                            c.mix = Mix::Healthy;
                            c.conn = None;
                            let conn = handle.connect();
                            conn.send(&Message::Hello {
                                id: c.id.clone(),
                                speed: 1.0,
                                proto: PROTO_CURRENT,
                                resume: c.token.take(),
                            })
                            .expect("resume hello");
                            c.conn = Some(conn);
                            c.welcomed = false;
                        } else {
                            c.report(tasks);
                        }
                    }
                    Message::Ack { accepted, .. } => {
                        if accepted {
                            c.completions += 1;
                        }
                        c.acks_pending -= 1;
                        if c.acks_pending == 0 {
                            request(c);
                        }
                    }
                    Message::Wait { ms } => {
                        c.requested = false;
                        c.not_before = Instant::now() + Duration::from_millis(ms.clamp(1, 20));
                    }
                    // Drain — or, with no steals configured, any other
                    // frame (an error) — ends this worker.
                    _ => {
                        c.conn = None;
                        live -= 1;
                    }
                }
            }
            // Waited-out backoff elapsed: ask again.
            if c.conn.is_some()
                && c.welcomed
                && !c.requested
                && c.acks_pending == 0
                && Instant::now() >= c.not_before
            {
                request(c);
                progressed = true;
            }
        }
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
    let (poller, handle) = loopback(64);
    let driver = Driver::new(Box::new(clock), Box::new(poller));
    let mut reactor = Reactor::new(&dag, &policy, cfg, driver);
    let mut sink = MemorySink::new();

    // One driver thread per spare core, capped at 8: the drivers poll
    // their client slices in a busy loop, so oversubscribing the CPU
    // makes the fleet measure its own scheduler thrash instead of the
    // reactor (on a 1-core box, 8 spinning drivers triple the apparent
    // 10k-worker per-allocation cost).
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

    // Attribute every server-side `Failed` event to its fleet slice. A
    // healthy worker only "fails" when the harness itself misbehaves
    // (e.g. two requests in flight forfeiting a freshly granted lease).
    let trace = sink.into_trace().expect("trace");
    let slice_of = |client| {
        let worker = trace.header.workers.iter().find(|w| w.client == client);
        let i = worker.and_then(|w| w.id.get(1..)?.parse().ok());
        mix_of(i.unwrap_or(0))
    };
    let healthy_failures = trace
        .events
        .iter()
        .filter(|e| e.kind == ic_sim::EventKind::Failed && slice_of(e.client) == Mix::Healthy)
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
