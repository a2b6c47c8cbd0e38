//! `machine` group: pure `LeaseMachine` stepping, no I/O.
//!
//! Where the `net` group measures the whole reactor stack (loopback
//! sockets, timer queue, driver threads), this group isolates the
//! coordinator itself: events go straight into
//! [`LeaseMachine::step`] and the effects are dropped. The point is
//! the lease-table complexity claim — per-event cost must not grow
//! with fleet size — so each record's rate (steps/sec via `states`)
//! should be flat from 1k to 10k workers now that the table is an
//! indexed slab.
//!
//! Per fleet size `W` of [`FLEETS`], over a dag of `2·W` independent
//! tasks (the `net` harness's shape), each iteration on a machine of
//! its own, built inside the timed call:
//!
//! * `hello_{W}w` — registering the whole fleet (`W` hello events,
//!   header written at the barrier); `states` = `W`;
//! * `mix_{W}w` — a full run to drain with the e2e fault mix: the
//!   fleet's registration, then requests and completions from healthy
//!   workers, voluntary failures (1 in 16 workers fails its first
//!   task), mid-lease severs with token resumes (1 in 16), heartbeats,
//!   and a forced lease-expiry sweep each pass. `states` counts every
//!   event stepped, the `W` hellos included. The run is deterministic,
//!   so the count is taken once up front, as `benches/check.rs` does.
//!
//! And one row a layer up, the server's step phase without a poller:
//!
//! * `core_b64` — a [`ServerCore`] serving [`CORE_TASKS`] independent
//!   tasks to one connection at batch 64, fed the bytes a pipelining
//!   worker sends: per batch, one read holding its 64 encoded `done`s
//!   and the next `request`. Each read goes through
//!   [`ServerCore::on_io`] and the output is cleared, as the reactor's
//!   shell would after performing it, its trace handed to a
//!   [`NullSink`] as `serve` without `--trace` does; `states` = tasks.
//! * `core_b64_wal` — the same reads with the trace written through a
//!   [`FileSink`] on `/dev/null` and flushed once per read, as the
//!   shell's round flushes its write-ahead log. Each read's events
//!   share its clock reading, as a live round's do, so the row prices
//!   the trace writer as `serve --trace` runs it.

use ic_bench::harness::Runner;
use ic_dag::builder::from_arcs;
use ic_dag::Dag;
use ic_net::machine::{Effect, Event, LeaseMachine};
use ic_net::{Frame, IoEvent, Message, Output, ServerConfig, ServerCore, PROTO_CURRENT};
use ic_sched::Schedule;
use ic_sim::trace::{FileSink, NullSink, TraceSink};

const LEASE_MS: u64 = 10;

/// 1k → 10k is the span over which the per-event cost must stay flat.
const FLEETS: [usize; 3] = [1000, 4000, 10000];

/// Same misbehavior slices as the `net` fleet harness.
fn is_flaky(i: usize) -> bool {
    i % 16 == 7
}
fn is_severing(i: usize) -> bool {
    i % 16 == 11
}

struct Fleet {
    machine_events: u64,
    now: u64,
}

impl Fleet {
    fn step(&mut self, m: &mut LeaseMachine, ev: Event) -> Vec<Effect> {
        self.machine_events += 1;
        self.now += 1;
        m.step(ev)
    }
}

/// `hello_{W}w`: register the fleet through the barrier.
fn run_hello(dag: &Dag, policy: &Schedule, cfg: &ServerConfig, workers: usize) {
    let mut m = LeaseMachine::new(dag, policy, cfg.clone());
    for i in 0..workers {
        let fx = m.step(Event::Hello {
            id: format!("w{i}"),
            speed: 1.0,
            proto: PROTO_CURRENT,
            resume: None,
            now_us: i as u64,
        });
        std::hint::black_box(&fx);
    }
    assert_eq!(m.num_workers(), workers);
}

/// `mix_{W}w`: full run to drain with the e2e fault mix; returns the
/// events stepped.
fn run_mix(dag: &Dag, policy: &Schedule, cfg: &ServerConfig, workers: usize) -> u64 {
    let mut m = LeaseMachine::new(dag, policy, cfg.clone());
    let mut fleet = Fleet {
        machine_events: 0,
        now: 1,
    };
    let mut epochs = vec![0u64; workers];
    let mut tokens: Vec<Option<String>> = vec![None; workers];
    let mut severed = vec![false; workers];
    let mut failed_once = vec![false; workers];
    for i in 0..workers {
        let now_us = fleet.now;
        let fx = fleet.step(
            &mut m,
            Event::Hello {
                id: format!("w{i}"),
                speed: 1.0,
                proto: PROTO_CURRENT,
                resume: None,
                now_us,
            },
        );
        for f in fx {
            if let Effect::Reply(Message::Welcome { worker, resume, .. }) = f {
                epochs[i] = m.worker_epoch(worker as usize).unwrap_or_default();
                tokens[i] = resume;
            }
        }
    }
    let mut passes = 0usize;
    while !m.is_complete() {
        passes += 1;
        assert!(passes < 64, "mix fleet wedged at {workers} workers");
        for i in 0..workers {
            if m.is_complete() {
                break;
            }
            if severed[i] {
                continue;
            }
            let now_us = fleet.now;
            let fx = fleet.step(
                &mut m,
                Event::Request {
                    worker: i,
                    max: 1,
                    now_us,
                },
            );
            let mut assigned: Option<u64> = None;
            for f in &fx {
                if let Effect::Reply(Message::Assign { tasks }) = f {
                    assigned = tasks.first().copied();
                }
            }
            let Some(task) = assigned else { continue };
            if is_severing(i) && passes == 1 {
                // Hold the lease and drop the connection: the lease
                // survives until the expiry sweep below.
                let now_us = fleet.now;
                fleet.step(
                    &mut m,
                    Event::Sever {
                        worker: i,
                        epoch: epochs[i],
                        now_us,
                    },
                );
                severed[i] = true;
                continue;
            }
            if i % 8 == 0 {
                let now_us = fleet.now;
                fleet.step(
                    &mut m,
                    Event::Heartbeat {
                        worker: i,
                        task,
                        now_us,
                    },
                );
            }
            let ok = !is_flaky(i) || failed_once[i];
            if !ok {
                failed_once[i] = true;
            }
            let now_us = fleet.now;
            fleet.step(
                &mut m,
                Event::Done {
                    worker: i,
                    task,
                    ok,
                    now_us,
                },
            );
        }
        // Pass boundary: jump past the lease deadline so severed
        // workers' leases expire, then resume them with their tokens.
        fleet.now += LEASE_MS * 1_000 + 1;
        for (worker, task) in m.expired(fleet.now) {
            let now_us = fleet.now;
            fleet.step(
                &mut m,
                Event::Expire {
                    worker,
                    task,
                    now_us,
                },
            );
        }
        for i in 0..workers {
            if !severed[i] {
                continue;
            }
            let Some(token) = tokens[i].clone() else {
                continue;
            };
            let now_us = fleet.now;
            let fx = fleet.step(
                &mut m,
                Event::Hello {
                    id: format!("w{i}+"),
                    speed: 1.0,
                    proto: PROTO_CURRENT,
                    resume: Some(token),
                    now_us,
                },
            );
            for f in fx {
                if let Effect::Reply(Message::Welcome { worker, resume, .. }) = f {
                    epochs[i] = m.worker_epoch(worker as usize).unwrap_or_default();
                    tokens[i] = resume;
                }
            }
            severed[i] = false;
        }
    }
    fleet.machine_events
}

/// Tasks of the `core_b64` row: 64 batches of 64.
const CORE_TASKS: usize = 64 * 64;

/// The reads of a `core_b64` run, encoded up front: the `hello`, the
/// first `request`, then per batch its `done`s and the next `request`.
/// The dag is independent and served in id order, so batch `b` is
/// tasks `64b..64b+64`.
fn core_reads() -> Vec<Vec<u8>> {
    let encode = |msgs: &mut dyn Iterator<Item = Message>| {
        let mut bytes = Vec::new();
        for m in msgs {
            Frame::encode_into(&m, &mut bytes);
        }
        bytes
    };
    let request = Message::Request { max: 64 };
    let mut reads = vec![
        encode(&mut std::iter::once(Message::hello("w", 1.0))),
        encode(&mut std::iter::once(request.clone())),
    ];
    for batch in (0..CORE_TASKS as u64).step_by(64) {
        let dones = (batch..batch + 64).map(|task| Message::Done { task, ok: true });
        reads.push(encode(&mut dones.chain([request.clone()])));
    }
    reads
}

/// `core_b64` and `core_b64_wal`: one run to completion, its trace
/// handed to `sink` and flushed once per read; the bytes the core sent.
fn run_core(
    dag: &Dag,
    policy: &Schedule,
    cfg: &ServerConfig,
    reads: &[Vec<u8>],
    sink: &mut dyn TraceSink,
) -> usize {
    let mut core = ServerCore::new(LeaseMachine::new(dag, policy, cfg.clone()), 0);
    core.boot(0);
    core.on_io(0, IoEvent::Open(0));
    let mut sent = 0;
    for (now_us, read) in (1..).zip(reads) {
        core.on_io(now_us, IoEvent::Data(0, read.clone()));
        let out: &mut Output = &mut core.out;
        sent += out.bytes.len();
        out.bytes.clear();
        out.transmit.clear();
        out.timers.clear();
        if let Some(h) = out.header.take() {
            sink.header(&h);
        }
        for ev in out.trace.drain(..) {
            sink.record(&ev);
        }
        sink.flush().expect("the sink takes every write");
    }
    assert!(core.machine().is_complete(), "core_b64 drained");
    sent
}

fn main() {
    let mut r = Runner::from_env();
    let dag = from_arcs(CORE_TASKS, &[]).expect("trivial dag");
    let policy = Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder().batch(64).seed(0x5CA1E).build();
    let reads = core_reads();
    r.bench_states("machine", "core_b64", CORE_TASKS, CORE_TASKS as u64, || {
        run_core(&dag, &policy, &cfg, &reads, &mut NullSink)
    });
    let wal = || FileSink::create("/dev/null").expect("/dev/null opens for writing");
    r.bench_states(
        "machine",
        "core_b64_wal",
        CORE_TASKS,
        CORE_TASKS as u64,
        || run_core(&dag, &policy, &cfg, &reads, &mut wal()),
    );
    for workers in FLEETS {
        let tasks = workers * 2;
        let dag = from_arcs(tasks, &[]).expect("trivial dag");
        let policy = Schedule::in_id_order(&dag);
        let cfg = ServerConfig::builder()
            .lease_ms(LEASE_MS)
            .backoff_base_ms(0)
            .wait_ms(1)
            .expect_workers(workers)
            .seed(0x5CA1E)
            .build();
        r.bench_states(
            "machine",
            &format!("hello_{workers}w"),
            tasks,
            workers as u64,
            || run_hello(&dag, &policy, &cfg, workers),
        );
        let events = run_mix(&dag, &policy, &cfg, workers);
        r.bench_states("machine", &format!("mix_{workers}w"), tasks, events, || {
            run_mix(&dag, &policy, &cfg, workers)
        });
    }
    r.finish();
}
