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
//! Per fleet size `W` (from `IC_NET_FLEETS`, comma-separated, default
//! `1000,10000`), three raw records go into the `net` group:
//!
//! * `alloc_rate_{W}w` — whole-run wall time with
//!   `states = allocations`, so `bench-check` reports allocations/sec;
//! * `assign_p99_{W}w` — `best_ns` is the p99 request→assign latency,
//!   `mean_ns` the mean, `iters` the sample count;
//! * `drain_{W}w` — time from the last accepted completion to
//!   `run_until_drain` returning (the drain barrier's cost).
//!
//! These are macro-benchmarks: each configuration runs once and is
//! reported through [`Runner::record_raw`], not iterated.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ic_bench::harness::Runner;
use ic_net::{
    loopback, Driver, LoopbackConn, LoopbackHandle, Message, MonotonicClock, Reactor, PROTO_CURRENT,
};
use ic_sim::MemorySink;

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
    /// When the outstanding `request` went out (latency sample start).
    req_at: Option<Instant>,
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

/// What one driver thread measured across its slice of the fleet.
struct DriverStats {
    /// Request→assign latencies, nanoseconds.
    assign_ns: Vec<u64>,
}

/// Drive workers `offset, offset+stride, ...` (up to `total`) against
/// the reactor until each is drained or severed.
fn drive(
    handle: &LoopbackHandle,
    offset: usize,
    stride: usize,
    total: usize,
    t0: Instant,
    last_ack_ns: &AtomicU64,
) -> DriverStats {
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
                req_at: None,
                not_before: t0,
            }
        })
        .collect();
    let mut stats = DriverStats {
        assign_ns: Vec::new(),
    };
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
                            send(c, &Message::request());
                            c.req_at = Some(Instant::now());
                        } else {
                            // Resumed: the leases came back with us.
                            c.report(tasks);
                        }
                    }
                    Message::Assign { tasks } => {
                        if let Some(at) = c.req_at.take() {
                            let ns = u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            stats.assign_ns.push(ns);
                        }
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
                            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            last_ack_ns.fetch_max(ns, Ordering::Relaxed);
                        }
                        c.acks_pending -= 1;
                        if c.acks_pending == 0 {
                            send(c, &Message::request());
                            c.req_at = Some(Instant::now());
                        }
                    }
                    Message::Wait { ms } => {
                        c.req_at = None;
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
                && c.req_at.is_none()
                && c.acks_pending == 0
                && Instant::now() >= c.not_before
            {
                send(c, &Message::request());
                c.req_at = Some(Instant::now());
                progressed = true;
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    stats
}

/// Run one fleet configuration and push its three records.
fn run_fleet(r: &mut Runner, workers: usize) {
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
    let t0 = Instant::now();
    let last_ack_ns = AtomicU64::new(0);
    let (report, mut assign_ns) = std::thread::scope(|s| {
        let joins: Vec<_> = (0..drivers)
            .map(|d| {
                let handle = handle.clone();
                let last_ack_ns = &last_ack_ns;
                s.spawn(move || drive(&handle, d, drivers, workers, t0, last_ack_ns))
            })
            .collect();
        drop(handle);
        let report = reactor.run_until_drain(&mut sink).expect("reactor run");
        let mut assign_ns: Vec<u64> = Vec::new();
        for j in joins {
            assign_ns.extend(j.join().expect("driver thread").assign_ns);
        }
        (report, assign_ns)
    });
    let total = t0.elapsed();

    // Attribute every server-side `Failed` event to its fleet slice. A
    // healthy worker only "fails" when the harness itself misbehaves
    // (e.g. two requests in flight forfeiting a freshly granted lease).
    let trace = sink.into_trace().expect("trace");
    let mut by_mix = [0usize; 3];
    for e in &trace.events {
        if e.kind == ic_sim::EventKind::Failed {
            let i = trace
                .header
                .workers
                .iter()
                .find(|w| w.client == e.client)
                .and_then(|w| w.id.get(1..))
                .and_then(|t| t.parse().ok())
                .unwrap_or(0);
            by_mix[match mix_of(i) {
                Mix::Healthy => 0,
                Mix::Flaky => 1,
                Mix::Severing => 2,
            }] += 1;
        }
    }
    let [healthy, flaky, severing] = by_mix;
    assert_eq!(healthy, 0, "healthy workers never fail");
    assert_eq!(report.completions, tasks, "fleet completed the dag");
    assert_eq!(report.workers_registered, workers);
    assert!(report.allocations >= tasks);
    assert!(report.resumes > 0, "the severing slice resumed");
    assert!(!assign_ns.is_empty());

    assign_ns.sort_unstable();
    let p99 = assign_ns[(assign_ns.len() * 99 / 100).min(assign_ns.len() - 1)];
    let mean = assign_ns.iter().sum::<u64>() / assign_ns.len() as u64;
    let drain_ns = u64::try_from(total.as_nanos())
        .unwrap_or(u64::MAX)
        .saturating_sub(last_ack_ns.load(Ordering::Relaxed));

    let alloc_per_s = report.allocations as f64 / total.as_secs_f64();
    println!(
        "net: {workers} workers, {tasks} tasks: {} allocations ({alloc_per_s:.0}/s), \
         {} failures recovered (healthy {healthy}, flaky {flaky}, severing {severing}), \
         {} resumes, total {:.2?}",
        report.allocations, report.failures, report.resumes, total,
    );
    r.record_raw(
        "net",
        &format!("alloc_rate_{workers}w"),
        Some(tasks),
        Some(u64::try_from(report.allocations).unwrap_or(u64::MAX)),
        total,
        total,
        1,
    );
    r.record_raw(
        "net",
        &format!("assign_p99_{workers}w"),
        Some(tasks),
        None,
        Duration::from_nanos(p99),
        Duration::from_nanos(mean),
        assign_ns.len() as u64,
    );
    r.record_raw(
        "net",
        &format!("drain_{workers}w"),
        Some(tasks),
        None,
        Duration::from_nanos(drain_ns),
        Duration::from_nanos(drain_ns),
        1,
    );
}

fn main() {
    let mut r = Runner::from_env();
    let fleets = std::env::var("IC_NET_FLEETS").unwrap_or_else(|_| "1000,10000".to_string());
    for spec in fleets.split(',') {
        let spec = spec.trim();
        if spec.is_empty() {
            continue;
        }
        let workers: usize = spec
            .parse()
            .unwrap_or_else(|_| panic!("IC_NET_FLEETS: bad fleet size {spec:?}"));
        run_fleet(&mut r, workers.max(16));
    }
    r.finish();
}
