//! Per-layer timings, taken from outside around public calls of the
//! crates `ic-prio serve` is made of, over the dag shapes the
//! workloads serve. Every number is the median of repeated batches.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ic_dag::rng::XorShift64;
use ic_dag::Dag;
use ic_net::machine::{Effect, Event, LeaseMachine};
use ic_net::{
    loopback, Deadline, Decoder, Driver, Frame, IoEvent, LoopbackConn, Message, MonotonicClock,
    Poller, Reactor, Recovery, RecoveryConfig, ServerConfig, TcpPoller, TimerWheel,
};
use ic_sched::batched::fill_round;
use ic_sched::eligibility::ExecState;
use ic_sched::{AllocationPolicy, Schedule};
use ic_sim::trace::{FileSink, NullSink, Trace, TraceEvent, TraceHeader, TraceReader, TraceSink};

use crate::dags;
use crate::run::Metric;
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self, run_rep, Env};

/// The saturate workloads' dag, for the layers their CPU is spent in.
const BIG: &str = "mesh:500";
/// A smaller mesh for the layers that replay a whole trace per batch.
const MID: &str = "mesh:200";
const SEED: u64 = 1;

/// Run `batch` (which returns how many items it processed) until
/// `slice` is spent, three times at least; the median nanoseconds per
/// item.
fn ns_per_item(slice: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut per_item = Vec::new();
    while per_item.len() < 3 || start.elapsed() < slice {
        let t0 = Instant::now();
        let items = batch();
        per_item.push(t0.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    stats::median(&per_item).unwrap_or(0.0)
}

fn cfg(batch: usize) -> ServerConfig {
    ServerConfig::builder()
        .batch(batch)
        .expect_workers(2)
        .seed(SEED)
        .build()
}

/// What stepping a machine to completion produced.
#[derive(Default)]
struct Stepped {
    tasks: u64,
    effects: u64,
    header: Option<TraceHeader>,
    events: Vec<TraceEvent>,
}

/// Drive a fresh `LeaseMachine` over `dag` to completion with two
/// workers taking turns: `request`, then one `done` per granted task.
/// Effects are dropped unless `keep` collects the trace.
fn step_to_completion(dag: &Dag, policy: &Schedule, batch: usize, keep: bool) -> Stepped {
    let mut m = LeaseMachine::new(dag, policy, cfg(batch));
    let mut out = Stepped::default();
    let mut now_us = 0u64;
    let absorb = |fx: Vec<Effect>, out: &mut Stepped| -> Vec<u64> {
        out.effects += fx.len() as u64;
        let mut granted = Vec::new();
        for e in fx {
            match e {
                Effect::Reply(Message::Assign { tasks }) => granted = tasks,
                Effect::Header(h) if keep => out.header = Some(h),
                Effect::Trace(ev) if keep => out.events.push(ev),
                _ => {}
            }
        }
        granted
    };
    for w in 0..2 {
        let fx = m.step(Event::Hello {
            id: format!("w{w}"),
            speed: 1.0,
            proto: ic_net::PROTO_CURRENT,
            resume: None,
            now_us,
        });
        absorb(fx, &mut out);
    }
    out.effects = 0;
    let mut worker = 0;
    while !m.is_complete() {
        now_us += 3;
        let fx = m.step(Event::Request {
            worker,
            max: batch as u64,
            now_us,
        });
        for task in absorb(fx, &mut out) {
            now_us += 3;
            let fx = m.step(Event::Done {
                worker,
                task,
                ok: true,
                now_us,
            });
            absorb(fx, &mut out);
            out.tasks += 1;
        }
        worker = 1 - worker;
    }
    out
}

/// The frames one connection exchanges per task at `batch`, over
/// `tasks` task ids: request, assign, one done and one ack per task.
fn frame_mix(tasks: u64, batch: u64) -> Vec<Message> {
    let mut mix = Vec::new();
    let mut next = 0;
    while next < tasks {
        let ids: Vec<u64> = (next..tasks.min(next + batch)).collect();
        next += batch;
        mix.push(Message::Request { max: batch });
        mix.push(Message::Assign { tasks: ids.clone() });
        mix.extend(ids.iter().map(|&task| Message::Done { task, ok: true }));
        mix.extend(ids.iter().map(|&task| Message::Ack {
            task,
            accepted: true,
        }));
    }
    mix
}

fn encoded(mix: &[Message]) -> Vec<u8> {
    let mut buf = Vec::new();
    for m in mix {
        Frame::encode_into(m, &mut buf);
    }
    buf
}

/// The closed loop of `crate::client` over two in-process loopback
/// connections, until both are drained.
fn loopback_client(handle: &ic_net::LoopbackHandle, batch: u64) {
    let mut conns: Vec<LoopbackConn> = (0..2).map(|_| handle.connect()).collect();
    let mut pending = [0usize; 2];
    let mut retry_at: [Option<Instant>; 2] = [None; 2];
    for (i, c) in conns.iter().enumerate() {
        c.send(&Message::hello(format!("w{i}"), 1.0))
            .expect("hello");
    }
    let mut live = 2;
    while live > 0 {
        for i in 0..2 {
            if retry_at[i].is_some_and(|t| Instant::now() >= t) {
                retry_at[i] = None;
                let _ = conns[i].send(&Message::Request { max: batch });
            }
            while let Ok(Some(msg)) = conns[i].try_recv() {
                match msg {
                    Message::Welcome { .. } => {
                        let _ = conns[i].send(&Message::Request { max: batch });
                    }
                    Message::Assign { tasks } => {
                        pending[i] = tasks.len();
                        for task in tasks {
                            let _ = conns[i].send(&Message::Done { task, ok: true });
                        }
                    }
                    Message::Ack { .. } => {
                        pending[i] -= 1;
                        if pending[i] == 0 {
                            let _ = conns[i].send(&Message::Request { max: batch });
                        }
                    }
                    Message::Wait { ms } => {
                        retry_at[i] = Some(Instant::now() + Duration::from_millis(ms));
                    }
                    _ => live -= 1,
                }
            }
        }
    }
}

/// One client thread against a `Reactor` over the in-process loopback
/// poller and a `NullSink`: the server without sockets, process or
/// WAL. Microseconds per task.
fn reactor_loopback(spec: &str, batch: usize, slice: Duration) -> f64 {
    let fam = dags::family(spec);
    let nodes = fam.dag.num_nodes() as u64;
    ns_per_item(slice, || {
        let (poller, handle) = loopback(8);
        let driver = Driver::new(Box::new(MonotonicClock::new()), Box::new(poller));
        // The reactor is not `Send`: it stays here, the client moves.
        let mut reactor = Reactor::new(&fam.dag, &fam.schedule, cfg(batch), driver);
        std::thread::scope(|s| {
            s.spawn(move || loopback_client(&handle, batch as u64));
            reactor
                .run_until_drain(&mut NullSink)
                .expect("loopback reactor");
        });
        nodes
    }) / 1e3
}

/// Byte written on a socket → `TcpPoller::poll` in another thread
/// returns its `Data`, in microseconds. Each byte is written one of
/// `gaps_us` after the previous one was seen, in turn. After 25 us the
/// poller has scanned, found nothing and lies in its shortest nap
/// (where `pingpong` lives): the median. Over gaps spread evenly across
/// 1-3 ms it has escalated its naps (where `paced` lives), and whether
/// a byte arrives just before or just after a nap ends decides between
/// 50 us and 1.7 ms: the mean, which is what a worker expects to lose.
/// Writing with no gap would race the scan and measure a coin toss.
fn reactor_wake(gaps_us: &[u64], slice: Duration) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut near = TcpStream::connect(listener.local_addr()?)?;
    near.set_nodelay(true)?;
    let (far, _) = listener.accept()?;
    let mut poller = TcpPoller::new(listener, 8)?;
    poller.adopt(far)?;
    let origin = Instant::now();
    let seen_ns = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut lat = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut events = Vec::new();
            // SeqCst throughout: the two threads hand a timestamp back
            // and forth and nothing here is hot enough to weaken it.
            while !stop.load(Ordering::SeqCst) {
                events.clear();
                if poller.poll(Duration::from_millis(5), &mut events).is_err() {
                    break;
                }

                if events.iter().any(|e| matches!(e, IoEvent::Data(..))) {
                    seen_ns.store(origin.elapsed().as_nanos() as u64, Ordering::SeqCst);
                }
            }
        });
        let start = Instant::now();
        let mut last_seen = 0;
        while lat.len() < 2 * gaps_us.len() || start.elapsed() < slice {
            let gap = Duration::from_micros(gaps_us[lat.len() % gaps_us.len()]);
            let quiet_until = Instant::now() + gap;
            while Instant::now() < quiet_until {
                std::hint::spin_loop();
            }
            let wrote_ns = origin.elapsed().as_nanos() as u64;
            if near.write_all(&[0]).is_err() {
                break;
            }
            let give_up = Instant::now() + Duration::from_secs(1);
            let seen = loop {
                let seen = seen_ns.load(Ordering::SeqCst);
                if seen != last_seen || Instant::now() > give_up {
                    break seen;
                }
                std::hint::spin_loop();
            };
            if seen != last_seen {
                lat.push(seen.saturating_sub(wrote_ns) as f64 / 1e3);
            }
            last_seen = seen;
        }
        stop.store(true, Ordering::SeqCst);
    });
    Ok(if gaps_us.len() == 1 {
        stats::median(&lat).unwrap_or(0.0)
    } else {
        lat.iter().sum::<f64>() / lat.len().max(1) as f64
    })
}

/// Time every layer within about `budget`; the metrics plus the two
/// budget lines with every term named.
pub fn measure(env: &Env, budget: Duration) -> io::Result<(Vec<Metric>, String)> {
    // Two saturate repetitions (about a second each) come out of the
    // budget first; the in-process layers share the rest.
    let slice = budget.saturating_sub(Duration::from_millis(2500)) / 28;
    let slice = slice.max(Duration::from_millis(20));
    let mut out = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: f64| {
        out.push(Metric::single(name, unit, v, 0));
        v
    };

    let build_ms = ns_per_item(slice, || {
        std::hint::black_box(dags::family(BIG).dag.num_nodes());
        1
    }) / 1e6;
    put("families.mesh_build_ms", "ms", build_ms);

    let big = dags::family(BIG);
    let nodes = big.dag.num_nodes() as u64;
    let ranks = || -> Vec<usize> {
        big.dag
            .node_ids()
            .map(|v| {
                big.schedule
                    .static_rank(v)
                    .expect("a schedule ranks every node")
            })
            .collect()
    };
    let exec_ns = put(
        "sched.exec_ns_per_task",
        "ns",
        ns_per_item(slice, || {
            let mut st = ExecState::new(&big.dag);
            assert!(st.enable_rank_index(ranks()));
            while let Some(i) = st.ranked_argmin() {
                let v = st.claim_at(i);
                std::hint::black_box(st.execute_counting(v).expect("claimed"));
            }
            nodes
        }),
    );
    put(
        "sched.fill_round64_ns_per_task",
        "ns",
        ns_per_item(slice, || {
            let mut st = ExecState::new(&big.dag);
            assert!(st.enable_rank_index(ranks()));
            let mut step = 0;
            while st.pool_len() > 0 {
                let round = fill_round(&mut st, &big.dag, &big.schedule, 64, step, None);
                step += round.len();
                for v in round {
                    st.execute_counting(v).expect("claimed");
                }
            }
            nodes
        }),
    );

    put(
        "machine.step_b1_ns_per_task",
        "ns",
        ns_per_item(slice, || {
            step_to_completion(&big.dag, &big.schedule, 1, false).tasks
        }),
    );
    let step_b64_ns = put(
        "machine.step_b64_ns_per_task",
        "ns",
        ns_per_item(slice, || {
            step_to_completion(&big.dag, &big.schedule, 64, false).tasks
        }),
    );
    let b1 = step_to_completion(&big.dag, &big.schedule, 1, false);
    put(
        "machine.effects_per_task_b1",
        "count",
        b1.effects as f64 / b1.tasks as f64,
    );

    let mix1 = frame_mix(nodes, 1);
    let mix64 = frame_mix(nodes, 64);
    let bytes64 = encoded(&mix64);
    put(
        "wire.bytes_per_task_b1",
        "B",
        encoded(&mix1).len() as f64 / nodes as f64,
    );
    put(
        "wire.bytes_per_task_b64",
        "B",
        bytes64.len() as f64 / nodes as f64,
    );
    let mut buf = Vec::with_capacity(1 << 16);
    let encode_ns = put(
        "wire.encode_ns_per_frame",
        "ns",
        ns_per_item(slice, || {
            for m in &mix64 {
                if buf.len() > 1 << 15 {
                    buf.clear();
                }
                Frame::encode_into(m, &mut buf);
            }
            mix64.len() as u64
        }),
    );
    let decode_ns = put(
        "wire.decode_ns_per_frame",
        "ns",
        ns_per_item(slice, || {
            let mut dec = Decoder::new();
            let mut frames = 0;
            // Fed in socket-read-sized chunks, as the reactor is.
            for chunk in bytes64.chunks(1 << 16) {
                dec.feed(chunk);
                while let Ok(Some(msg)) = dec.next_msg() {
                    std::hint::black_box(msg);
                    frames += 1;
                }
            }
            frames
        }),
    );

    let timer_ns = put(
        "timer.schedule_advance_ns_per_lease",
        "ns",
        ns_per_item(slice, || {
            let mut wheel = TimerWheel::new(0);
            let mut fired = Vec::new();
            let mut now_us = 0;
            for task in 0..nodes {
                now_us += 6;
                wheel.schedule(now_us + 500_000, Deadline::Lease { worker: 0, task });
                if task % 64 == 0 {
                    wheel.advance(now_us, &mut fired);
                }
            }
            wheel.advance(now_us + 600_000, &mut fired);
            assert_eq!(fired.len() as u64, nodes);
            nodes
        }),
    );

    // A real trace of the mid-sized mesh, as the machine emits it.
    let mid = dags::family(MID);
    let stepped = step_to_completion(&mid.dag, &mid.schedule, 64, true);
    let trace = Trace {
        header: stepped.header.expect("the barrier was met"),
        events: stepped.events,
    };
    let n_events = trace.events.len() as u64;
    put(
        "wal.encode_ns_per_event",
        "ns",
        ns_per_item(slice, || {
            for ev in &trace.events {
                std::hint::black_box(ev.to_json_line());
            }
            n_events
        }),
    );
    let wal_path = env.dir.join("layer-wal.jsonl");
    let record_ns = put(
        "wal.record_ns_per_event",
        "ns",
        ns_per_item(slice, || {
            // The header write is set-up, not per-event cost.
            let mut sink = FileSink::create(&wal_path).expect("WAL file under bench/out");
            for ev in &trace.events {
                sink.record(ev);
            }
            sink.finish().expect("WAL flush");
            n_events
        }),
    );
    let text = trace.to_jsonl();
    put(
        "wal.bytes_per_task",
        "B",
        (text.len() - trace.header.to_json_line().len()) as f64 / mid.dag.num_nodes() as f64,
    );
    put(
        "wal.read_events_per_s",
        "1/s",
        1e9 / ns_per_item(slice, || {
            let read = TraceReader::read(&text).expect("own trace parses");
            read.trace.events.len() as u64
        }),
    );
    // The crash prefix: header plus the first half of the events.
    let prefix: String =
        text.lines()
            .take(1 + trace.events.len() / 2)
            .fold(String::new(), |mut s, l| {
                s.push_str(l);
                s.push('\n');
                s
            });
    put(
        "recovery.replay_events_per_s",
        "1/s",
        1e9 / ns_per_item(slice, || {
            let r = Recovery::replay_str(
                &mid.dag,
                &mid.schedule,
                cfg(64),
                RecoveryConfig::default(),
                &prefix,
            )
            .expect("own prefix replays");
            r.report().events_replayed as u64
        }),
    );
    put(
        "audit.replay_events_per_s",
        "1/s",
        1e9 / ns_per_item(slice, || {
            let diags = ic_audit::audit_trace(&trace);
            assert!(diags
                .iter()
                .all(|d| d.severity != ic_audit::Severity::Error));
            n_events
        }),
    );

    put(
        "reactor.loopback_b1_us_per_task",
        "us",
        reactor_loopback("mesh:60", 1, slice * 2),
    );
    put(
        "reactor.loopback_b64_us_per_task",
        "us",
        reactor_loopback(MID, 64, slice * 2),
    );
    put(
        "reactor.wake_after_busy_us",
        "us",
        reactor_wake(&[25], slice * 2)?,
    );
    let idle_gaps_us: Vec<u64> = (0..16).map(|i| 1_000 + 125 * i + 62).collect();
    put(
        "reactor.wake_after_idle_us",
        "us",
        reactor_wake(&idle_gaps_us, slice * 4)?,
    );

    // The two process-level controls, one repetition each: what the
    // in-process layers above have to add up to.
    let mut cpu_us = [0.0; 2];
    for (slot, name) in ["saturate_nowal", "saturate_wal"].iter().enumerate() {
        let w = workloads::by_name(name).expect("a built-in workload");
        let mut rng = XorShift64::new(SEED);
        let rep = run_rep(env, &w, SEED, &mut rng, &mut Recorder::new(false), false)?;
        cpu_us[slot] = rep.server_cpu_s * 1e6 / rep.nodes as f64;
    }
    let [nowal_us, wal_us] = cpu_us;
    put("budget.saturate_nowal_cpu_us_per_task", "us", nowal_us);
    put("budget.saturate_wal_cpu_us_per_task", "us", wal_us);
    // Per task at batch 64: one done and one ack frame, plus a 64th of
    // a request and of an assign.
    let per_task = 1.0 + 1.0 / 64.0;
    let setup_us = build_ms * 1e3 / nodes as f64;
    let explained_us =
        (step_b64_ns + per_task * decode_ns + per_task * encode_ns + exec_ns + timer_ns) / 1e3
            + setup_us;
    let residue_pct = (nowal_us - explained_us) / nowal_us * 100.0;
    put("budget.saturate_nowal_residue_pct", "%", residue_pct);
    let wal_delta_us = wal_us - nowal_us;
    let explained_pct = 2.0 * record_ns / 1e3 / wal_delta_us * 100.0;
    put("budget.wal_delta_explained_pct", "%", explained_pct);
    let lines = format!(
        "budget.saturate_nowal_residue_pct = {residue_pct:.1} % of server_cpu_us_per_task {nowal_us:.3} us is left after\n\
         \x20   machine.step_b64_ns_per_task {step_b64_ns:.0} ns\n\
         \x20 + (1 + 1/64) x wire.decode_ns_per_frame {decode_ns:.0} ns\n\
         \x20 + (1 + 1/64) x wire.encode_ns_per_frame {encode_ns:.0} ns\n\
         \x20 + sched.exec_ns_per_task {exec_ns:.0} ns\n\
         \x20 + timer.schedule_advance_ns_per_lease {timer_ns:.0} ns\n\
         \x20 + amortised set-up (families.mesh_build_ms {build_ms:.2} ms / {nodes} tasks) {:.0} ns\n\
         \x20 = {:.3} us explained; the residue is socket syscalls and the connection scan\n\
         budget.wal_delta_explained_pct = {explained_pct:.1} %: 2 x wal.record_ns_per_event {record_ns:.0} ns\n\
         \x20 of the saturate_wal - saturate_nowal CPU/task difference {wal_us:.3} - {nowal_us:.3} = {wal_delta_us:.3} us\n",
        setup_us * 1e3,
        explained_us,
    );
    Ok((out, lines))
}

/// A fixed piece of the server's own work for `crate::host`: `fam`
/// stepped to completion at batch 64, effects dropped.
pub fn step_kernel(fam: &dags::Family) -> u64 {
    step_to_completion(&fam.dag, &fam.schedule, 64, false).tasks
}
