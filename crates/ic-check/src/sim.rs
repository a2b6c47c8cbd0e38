//! The IC server simulation: a virtual-time client fleet that drives
//! the deployed [`LeaseMachine`], so that the §2.2 numbers (gridlock,
//! batch shortfall, ELIGIBLE-pool size) describe the protocol `ic-prio
//! serve` runs. Only the fleet moves the integer-µs clock, and
//! everything stochastic stays on the client side. The rules:
//!
//! * **Time.** A service unit is 10⁶ virtual µs, so trace times and the
//!   makespan come out in service units.
//! * **Server.** `expect_workers(n)` and the run's seed; every other
//!   [`ServerConfig`] field is the deployed default (batch 1, no steal,
//!   25 ms backoff, 25 ms `wait`). The fleet never sends `Expire`,
//!   `Heartbeat` or `Sever`: a lease outlives any service time.
//! * **Start.** At t = 0 client `i` says `hello` as `client-i` with its
//!   speed factor (the header records it), then all request, in order.
//! * **Service.** Drawn when a task is assigned (jitter, then
//!   straggler), scaled by task weight and client speed, plus the
//!   per-arc communication cost.
//! * **Failure.** Drawn when the service ends and reported as
//!   `done{ok:false}`: the task takes the machine's own backoff path.
//! * **After a `done`.** Waiting clients re-request in FIFO order, then
//!   the one that finished. A `wait` while a task sits out its backoff
//!   also schedules the client's poll `wait_ms` later; `drain` ends it.
//! * **Metrics.** [`SimResult::from_trace`] of the emitted trace.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ic_dag::rng::XorShift64;
use ic_dag::{Dag, NodeId};
use ic_net::{Effect, Event, LeaseMachine, Message, ServerConfig, PROTO_CURRENT};
use ic_sched::policy::AllocationPolicy;
use ic_sim::{NullSink, SimResult, Trace, TraceHeader, TraceSink};

/// Stochastic profile of the remote clients.
#[derive(Debug, Clone)]
pub struct ClientProfile {
    /// Number of concurrent clients.
    pub num_clients: usize,
    /// Mean task service time, in service units.
    pub mean_service: f64,
    /// Uniform jitter fraction: service ~ U[mean·(1-j), mean·(1+j)].
    pub jitter: f64,
    /// Probability that a task *straggles*.
    pub straggler_prob: f64,
    /// Multiplier applied to a straggling task's service time.
    pub straggler_factor: f64,
    /// Probability that a task *fails* (client crash or bad result, cf.
    /// \[14\]): the work is lost after the service time.
    pub failure_prob: f64,
    /// Communication cost per dag arc incident to a task (the paper's
    /// future-work thrust 3): inputs arrive over the Internet, results
    /// return, so a task pays `comm_cost_per_arc * (in + out degree)`.
    pub comm_cost_per_arc: f64,
    /// Optional per-client speed factors (length `num_clients`): client
    /// `i` computes in `1 / speed_factors[i]` of the base time.
    pub speed_factors: Option<Vec<f64>>,
}

impl Default for ClientProfile {
    fn default() -> Self {
        ClientProfile {
            num_clients: 4,
            mean_service: 1.0,
            jitter: 0.5,
            straggler_prob: 0.05,
            straggler_factor: 8.0,
            failure_prob: 0.0,
            comm_cost_per_arc: 0.0,
            speed_factors: None,
        }
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The client population.
    pub clients: ClientProfile,
    /// Seed of the clients' draws and of the server.
    pub seed: u64,
    /// Optional per-task compute weights (multipliers on the mean
    /// service time, e.g. coarse-task granularities), one per node.
    pub task_weights: Option<Vec<f64>>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            clients: ClientProfile::default(),
            seed: 0x1C5EED,
            task_weights: None,
        }
    }
}

/// Simulate executing `dag` under `policy` with the clients of `cfg`:
/// [`simulate_traced`] with the trace discarded.
///
/// # Panics
/// If the policy rejects the dag, `num_clients == 0`, or the weights are
/// not one per node or the speeds not one positive factor per client.
pub fn simulate(dag: &Dag, policy: &dyn AllocationPolicy, cfg: &SimConfig) -> SimResult {
    simulate_traced(dag, policy, cfg, &mut NullSink)
}

/// [`simulate`], writing the machine's trace into `sink`; the result is
/// [`SimResult::from_trace`] of exactly that trace.
pub fn simulate_traced(
    dag: &Dag,
    policy: &dyn AllocationPolicy,
    cfg: &SimConfig,
    sink: &mut dyn TraceSink,
) -> SimResult {
    let clients = cfg.clients.num_clients;
    assert!(clients > 0, "need at least one client");
    if let Some(w) = &cfg.task_weights {
        assert_eq!(w.len(), dag.num_nodes(), "task_weights must cover the dag");
    }
    let speeds = cfg.clients.speed_factors.clone();
    let speeds = speeds.unwrap_or_else(|| vec![1.0; clients]);
    let ok = speeds.len() == clients && speeds.iter().all(|&f| f > 0.0);
    assert!(ok, "speed_factors must cover the clients, all positive");
    let server = ServerConfig::builder().expect_workers(clients);
    let header = TraceHeader::for_run(dag, clients, cfg.seed, &policy.name());
    let mut run = Run {
        machine: LeaseMachine::new(dag, policy, server.seed(cfg.seed).build()),
        cfg,
        speeds,
        rng: XorShift64::new(cfg.seed),
        wakes: BinaryHeap::new(),
        polling: vec![false; clients],
        trace: Trace {
            header,
            events: Vec::new(),
        },
    };
    for c in 0..clients {
        run.step(Event::Hello {
            id: format!("client-{c}"),
            speed: run.speeds[c],
            proto: PROTO_CURRENT,
            resume: None,
            now_us: 0,
        });
    }
    let mut waiting: Vec<usize> = (0..clients).filter(|&c| run.request(c, 0)).collect();
    while let Some(Reverse((now, c, task))) = run.wakes.pop() {
        let Some(task) = task else {
            run.polling[c] = false;
            if waiting.contains(&c) && !run.request(c, now) {
                waiting.retain(|&w| w != c);
            }
            continue;
        };
        let p = cfg.clients.failure_prob;
        let ok = !(p > 0.0 && run.rng.gen_f64() < p);
        run.step(Event::Done {
            worker: c,
            task,
            ok,
            now_us: now,
        });
        waiting.push(c);
        waiting.retain(|&w| run.request(w, now));
    }
    sink.header(&run.trace.header);
    run.trace.events.iter().for_each(|ev| sink.record(ev));
    SimResult::from_trace(&run.trace)
}

/// A run in progress. A wake-up is `(at_us, client, Some(task))` when a
/// task's service ends and `(at_us, client, None)` for a poll.
struct Run<'r, 'a, 'd> {
    machine: LeaseMachine<'a, 'd>,
    cfg: &'r SimConfig,
    speeds: Vec<f64>,
    rng: XorShift64,
    wakes: BinaryHeap<Reverse<(u64, usize, Option<u64>)>>,
    /// Whether the client has a poll pending.
    polling: Vec<bool>,
    trace: Trace,
}

impl Run<'_, '_, '_> {
    /// Step the machine, keep its trace, and return its answer.
    fn step(&mut self, ev: Event) -> Option<Message> {
        let mut reply = None;
        for e in self.machine.step(ev) {
            match e {
                Effect::Header(h) => self.trace.header = h,
                Effect::Trace(ev) => self.trace.events.push(ev),
                Effect::Reply(msg) => reply = Some(msg),
            }
        }
        reply
    }

    /// Client `c` asks for work at `now`; returns whether it waits.
    fn request(&mut self, c: usize, now: u64) -> bool {
        let ev = Event::Request {
            worker: c,
            max: 1,
            now_us: now,
        };
        match self.step(ev) {
            Some(Message::Assign { tasks }) => {
                for task in tasks {
                    let v = NodeId::new(usize::try_from(task).unwrap_or(usize::MAX));
                    let due = now + self.service_us(v, c);
                    self.wakes.push(Reverse((due, c, Some(task))));
                }
                false
            }
            Some(Message::Wait { ms }) => {
                if !self.polling[c] && !self.machine.deferred_tasks().is_empty() {
                    self.polling[c] = true;
                    self.wakes.push(Reverse((now + ms * 1_000, c, None)));
                }
                true
            }
            _ => false,
        }
    }

    /// Draw task `v`'s service time on client `c`, in virtual µs.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a service time saturates: negative reads 0, past u64::MAX reads u64::MAX"
    )]
    fn service_us(&mut self, v: NodeId, c: usize) -> u64 {
        let dag = self.machine.exec().dag();
        let arcs = (dag.in_degree(v) + dag.out_degree(v)) as f64;
        let p = &self.cfg.clients;
        let weight = self.cfg.task_weights.as_ref().map_or(1.0, |w| w[v.index()]);
        let jitter = 1.0 + p.jitter * (self.rng.gen_f64() * 2.0 - 1.0);
        let base = p.mean_service * weight * jitter / self.speeds[c];
        let compute = if p.straggler_prob > 0.0 && self.rng.gen_f64() < p.straggler_prob {
            base * p.straggler_factor
        } else {
            base
        };
        ((compute + p.comm_cost_per_arc * arcs) * 1e6).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_dag::builder::from_arcs;
    use ic_sched::heuristics::{schedule_with, Policy};
    use ic_sched::Schedule;
    use ic_sim::{EventKind, MemorySink};

    fn diamond() -> Dag {
        from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    fn quiet_cfg(seed: u64) -> SimConfig {
        SimConfig {
            clients: ClientProfile {
                num_clients: 2,
                mean_service: 1.0,
                jitter: 0.0,
                straggler_prob: 0.0,
                straggler_factor: 1.0,
                failure_prob: 0.0,
                comm_cost_per_arc: 0.0,
                speed_factors: None,
            },
            seed,
            task_weights: None,
        }
    }

    fn traced(dag: &Dag, policy: &dyn AllocationPolicy, cfg: &SimConfig) -> (SimResult, Trace) {
        let mut sink = MemorySink::new();
        let r = simulate_traced(dag, policy, cfg, &mut sink);
        (r, sink.into_trace().expect("header recorded"))
    }

    fn fnv(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The EXPERIMENTS §SIM table without failures — 4 workloads × 7
    /// policies × 16 seeds — pinned against the allocator this fleet
    /// replaced (its own loop over `ExecState` and an `f64` clock): the
    /// same gridlock, batch shortfall, allocation and completion counts
    /// in all 448 runs, and the same total makespan up to µs rounding.
    #[test]
    fn the_sim_table_matches_the_replaced_simulator() {
        use ic_families::{butterfly, diamond, dlt, mesh, trees};
        let d = diamond::diamond_from_out_tree(&trees::complete_out_tree(2, 4)).unwrap();
        let ds = d.ic_schedule().unwrap();
        let m = mesh::out_mesh(10);
        let ms = mesh::out_mesh_schedule(&m);
        let l = dlt::dlt_prefix(16);
        let ls = l.ic_schedule().unwrap();
        let workloads = [
            (d.dag, ds),
            (m, ms),
            (butterfly::butterfly(4), butterfly::butterfly_schedule(4)),
            (l.dag, ls),
        ];
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let (mut makespans, mut runs) = (0.0, 0);
        for (dag, ic) in &workloads {
            let mut policies = vec![ic.clone()];
            policies.extend(Policy::all(99).iter().map(|p| schedule_with(dag, p)));
            for s in &policies {
                for seed in 0..16 {
                    let cfg = SimConfig {
                        clients: ClientProfile {
                            num_clients: 6,
                            jitter: 0.6,
                            straggler_prob: 0.08,
                            straggler_factor: 6.0,
                            ..ClientProfile::default()
                        },
                        seed,
                        task_weights: None,
                    };
                    let r = simulate(dag, s, &cfg);
                    for x in [
                        r.gridlock_events,
                        r.unsatisfied_at_batch,
                        r.allocations,
                        r.completions,
                    ] {
                        fnv(&mut digest, x as u64);
                    }
                    makespans += r.makespan;
                    runs += 1;
                }
            }
        }
        assert_eq!(runs, 448);
        assert_eq!(digest, 0x6660_BA7C_5B79_7832, "got {digest:#018X}");
        assert!(
            (makespans - 10_416.484_420).abs() < 1e-3,
            "makespan sum {makespans:.6}"
        );
    }

    #[test]
    fn completes_all_tasks() {
        let g = diamond();
        let r = simulate(&g, &Schedule::in_id_order(&g), &quiet_cfg(1));
        assert_eq!((r.completions, r.allocations), (4, 4));
        assert!(r.makespan > 0.0);
        assert!(!r.eligible_trace.is_empty());
        assert_eq!(r.eligible_trace.last().unwrap().1, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let a = simulate(&g, &s, &SimConfig::default());
        let b = simulate(&g, &s, &SimConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn chain_dag_serializes() {
        // A pure chain can use only one client; with deterministic unit
        // service the makespan is n.
        let g = from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let r = simulate(&g, &Schedule::in_id_order(&g), &quiet_cfg(7));
        assert!((r.makespan - 5.0).abs() < 1e-9);
        // The second client can never be served: batch shortfall of 1.
        assert_eq!(r.unsatisfied_at_batch, 1);
    }

    #[test]
    fn wide_dag_uses_both_clients() {
        // Two independent chains of length 2: two clients finish in 2.
        let g = from_arcs(4, &[(0, 1), (2, 3)]).unwrap();
        let r = simulate(&g, &Schedule::in_id_order(&g), &quiet_cfg(7));
        assert!((r.makespan - 2.0).abs() < 1e-9);
        assert!(r.utilization > 0.99);
    }

    #[test]
    fn failures_reallocate_and_still_complete() {
        let g = diamond();
        let mut cfg = quiet_cfg(9);
        cfg.clients.failure_prob = 0.4;
        let r = simulate(&g, &Schedule::in_id_order(&g), &cfg);
        assert_eq!(r.completions, 4, "every task eventually completes");
        assert!(r.failures > 0, "seed 9 at 40% should produce failures");
        assert_eq!(r.allocations, r.completions + r.failures);
    }

    /// A failed task sits out the machine's backoff (25 ms, doubling
    /// per failure) before anyone gets it again, and the trace of such
    /// a run replays clean.
    #[test]
    fn a_failed_task_waits_out_the_machine_backoff() {
        let g = ic_families::mesh::out_mesh(6);
        let mut cfg = quiet_cfg(11);
        cfg.clients.num_clients = 3;
        cfg.clients.failure_prob = 0.4;
        let (r, trace) = traced(&g, &Policy::Fifo, &cfg);
        assert!(r.failures > 0);
        let mut fails = vec![0u32; g.num_nodes()];
        let mut failed_at = vec![None; g.num_nodes()];
        for ev in &trace.events {
            let Some(v) = ev.task else { continue };
            match ev.kind {
                EventKind::Failed => {
                    fails[v.index()] += 1;
                    failed_at[v.index()] = Some(ev.time);
                }
                EventKind::Allocated => {
                    if let Some(t) = failed_at[v.index()].take() {
                        let backoff = 0.025 * f64::from(1u32 << (fails[v.index()] - 1).min(6));
                        assert!(ev.time >= t + backoff - 1e-9, "{ev:?} after {t}");
                    }
                }
                _ => {}
            }
        }
        let errors: Vec<_> = ic_audit::audit_trace(&trace)
            .into_iter()
            .filter(|d| d.severity == ic_audit::Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(SimResult::from_trace(&trace), r);
    }

    #[test]
    fn speed_factors_scale_per_client() {
        // On a chain with a single client at speed 2, makespan halves.
        let g = from_arcs(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let s = Schedule::in_id_order(&g);
        let mut base = quiet_cfg(1);
        base.clients.num_clients = 1;
        let slow = simulate(&g, &s, &base);
        base.clients.speed_factors = Some(vec![2.0]);
        let fast = simulate(&g, &s, &base);
        assert!((slow.makespan - 2.0 * fast.makespan).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "speed_factors must cover")]
    fn wrong_speed_factor_length_panics() {
        let g = diamond();
        let mut cfg = quiet_cfg(1);
        cfg.clients.speed_factors = Some(vec![1.0]); // 2 clients expected
        let _ = simulate(&g, &Schedule::in_id_order(&g), &cfg);
    }

    #[test]
    fn comm_cost_lengthens_makespan() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let base = simulate(&g, &s, &quiet_cfg(2));
        let mut cfg = quiet_cfg(2);
        cfg.clients.comm_cost_per_arc = 0.5;
        let comm = simulate(&g, &s, &cfg);
        assert!(comm.makespan > base.makespan);
        assert_eq!(comm.completions, 4);
    }

    #[test]
    fn task_weights_scale_service() {
        let g = from_arcs(2, &[]).unwrap(); // two independent tasks
        let mut cfg = quiet_cfg(1);
        cfg.clients.num_clients = 1; // serial: 1 + 3 units
        cfg.task_weights = Some(vec![1.0, 3.0]);
        let r = simulate(&g, &Schedule::in_id_order(&g), &cfg);
        assert!((r.makespan - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "task_weights must cover")]
    fn wrong_weight_length_panics() {
        let g = diamond();
        let mut cfg = quiet_cfg(1);
        cfg.task_weights = Some(vec![1.0]);
        let _ = simulate(&g, &Schedule::in_id_order(&g), &cfg);
    }

    #[test]
    fn all_policies_complete_on_random_dag() {
        let mut arcs = Vec::new();
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                if (u * 31 + v * 17) % 5 == 0 {
                    arcs.push((u, v));
                }
            }
        }
        let g = from_arcs(12, &arcs).unwrap();
        for p in Policy::all(5) {
            let s = schedule_with(&g, &p);
            let r = simulate(&g, &s, &SimConfig::default());
            assert_eq!(r.completions, 12, "{}", p.name());
            // The same policy can also drive the server dynamically.
            let d = simulate(&g, &p, &SimConfig::default());
            assert_eq!(d.completions, 12, "dynamic {}", p.name());
        }
    }

    #[test]
    fn the_result_is_the_fold_of_the_trace() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let (r, trace) = traced(&g, &s, &SimConfig::default());
        assert_eq!(
            (trace.header.nodes, trace.header.policy.as_str()),
            (4, "SCHEDULE")
        );
        assert_eq!(r, SimResult::from_trace(&trace));
        assert_eq!(r, simulate(&g, &s, &SimConfig::default()));
        assert_eq!(trace.completion_order().len(), 4);
    }

    #[test]
    fn header_records_declared_worker_speeds() {
        let g = diamond();
        let mut cfg = quiet_cfg(5);
        cfg.clients.speed_factors = Some(vec![1.0, 2.5]);
        let (_, trace) = traced(&g, &Schedule::in_id_order(&g), &cfg);
        assert_eq!(trace.header.workers.len(), 2);
        assert_eq!(trace.header.workers[1].speed, 2.5);
        assert_eq!(trace.header.workers[0].id, "client-0");
    }
}
