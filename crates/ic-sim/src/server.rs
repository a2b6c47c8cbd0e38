//! The event-driven server/client simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ic_dag::rng::XorShift64;
use ic_dag::{Dag, NodeId};
use ic_sched::eligibility::ExecState;
use ic_sched::policy::{AllocationPolicy, PolicyContext};

use crate::metrics::{MetricsFold, SimResult};
use crate::trace::{EventKind, NullSink, TraceEvent, TraceHeader, TraceSink, WorkerParams};

/// Stochastic profile of the remote clients.
#[derive(Debug, Clone)]
pub struct ClientProfile {
    /// Number of concurrent clients.
    pub num_clients: usize,
    /// Mean task service time (arbitrary time units).
    pub mean_service: f64,
    /// Uniform jitter fraction: service ~ U[mean·(1-j), mean·(1+j)].
    pub jitter: f64,
    /// Probability that a task *straggles*.
    pub straggler_prob: f64,
    /// Multiplier applied to a straggling task's service time.
    pub straggler_factor: f64,
    /// Probability that an allocated task *fails* (client crash or bad
    /// result, cf. \[14\]): the work is lost after the service time and
    /// the task returns to the ELIGIBLE pool for reallocation.
    pub failure_prob: f64,
    /// Communication cost per dag arc incident to a task (the paper's
    /// future-work thrust 3): every allocation pays
    /// `comm_cost_per_arc * (in_degree + out_degree)` on top of its
    /// compute time — inputs arrive over the Internet, results return.
    pub comm_cost_per_arc: f64,
    /// Optional per-client speed factors (length `num_clients`): client
    /// `i` finishes compute in `1 / speed_factors[i]` of the base time —
    /// the heterogeneous volunteer hardware of real IC platforms.
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
    /// RNG seed (simulations are deterministic given the seed).
    pub seed: u64,
    /// Optional per-task compute weights (multiplier on the mean
    /// service time), e.g. coarse-task granularities. Length must match
    /// the dag when present.
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

/// Totally-ordered f64 for the event queue.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);
impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Simulate executing `dag` under `policy` with the client population
/// of `cfg`. Equivalent to [`simulate_traced`] with the trace
/// discarded.
///
/// All clients request work at time 0 (the paper's batch scenario);
/// whenever a client finishes a task it immediately requests another.
/// The server allocates, among currently ELIGIBLE *unallocated* tasks,
/// the one `policy` chooses — a precomputed [`ic_sched::Schedule`]
/// serves as a static priority list, and any
/// [`ic_sched::AllocationPolicy`] can decide dynamically. A request
/// that finds the pool empty while allocated tasks are still
/// outstanding is a *gridlock event*; the client then idles until an
/// allocation becomes possible.
///
/// ```
/// use ic_dag::builder::from_arcs;
/// use ic_sched::Schedule;
/// use ic_sim::{simulate, SimConfig};
/// let diamond = from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
/// let r = simulate(&diamond, &Schedule::in_id_order(&diamond), &SimConfig::default());
/// assert_eq!(r.completions, 4);
/// assert!(r.makespan > 0.0);
/// ```
///
/// # Panics
/// Panics if the policy rejects the dag (e.g. a `Schedule` that does
/// not cover it) or `num_clients == 0`.
pub fn simulate(dag: &Dag, policy: &dyn AllocationPolicy, cfg: &SimConfig) -> SimResult {
    simulate_traced(dag, policy, cfg, &mut NullSink)
}

/// [`simulate`], additionally streaming the run's execution trace into
/// `sink` (header first, then every event in server order). The
/// returned metrics are the fold of exactly that event stream, so a
/// captured trace reproduces them via [`SimResult::from_trace`].
///
/// # Panics
/// Panics if the policy rejects the dag or `num_clients == 0`.
pub fn simulate_traced(
    dag: &Dag,
    policy: &dyn AllocationPolicy,
    cfg: &SimConfig,
    sink: &mut dyn TraceSink,
) -> SimResult {
    assert!(cfg.clients.num_clients > 0, "need at least one client");
    policy.prepare(dag);
    let n = dag.num_nodes();
    let clients = cfg.clients.num_clients;
    let mut rng = XorShift64::new(cfg.seed);

    if let Some(w) = &cfg.task_weights {
        assert_eq!(w.len(), n, "task_weights must cover the dag");
    }
    if let Some(sp) = &cfg.clients.speed_factors {
        assert_eq!(sp.len(), clients, "speed_factors must cover the clients");
        assert!(
            sp.iter().all(|&f| f > 0.0),
            "speed factors must be positive"
        );
    }

    // The ELIGIBLE-and-unallocated pool lives inside ExecState: claims
    // and returns are O(1) swap-removals, so allocation cost per event
    // no longer scales with the dag.
    let mut st = ExecState::new(dag);

    // Per-client declared service parameters, so replays can rebuild
    // the client population from the header alone.
    let worker_params = (0..clients)
        .map(|c| WorkerParams {
            client: c,
            id: format!("client-{c}"),
            speed: cfg.clients.speed_factors.as_ref().map_or(1.0, |sp| sp[c]),
        })
        .collect();
    sink.header(
        &TraceHeader::for_run(dag, clients, cfg.seed, &policy.name()).with_workers(worker_params),
    );
    let mut fold = MetricsFold::new(n, st.pool_len(), clients);
    let mut step = 0u64;
    // Metrics and sink see the identical stream, in emission order.
    // `pool` is the ELIGIBLE-pool size after the event; a request that
    // found no task (`None`) is the idle event.
    let mut emit = |fold: &mut MetricsFold,
                    kind: EventKind,
                    time: f64,
                    client: usize,
                    task: Option<NodeId>,
                    pool: usize| {
        let ev = match task {
            Some(task) => TraceEvent::on_task(kind, step, time, client, task, Some(pool)),
            None => TraceEvent::idle(step, time, client),
        };
        step += 1;
        fold.apply(&ev);
        sink.record(&ev);
    };

    // Completion events: (time, client, node).
    let mut events: BinaryHeap<Reverse<(Time, usize, NodeId)>> = BinaryHeap::new();
    // Clients waiting for work, with the time they began waiting.
    let mut waiting: Vec<(usize, f64)> = Vec::new();

    let service = |rng: &mut XorShift64, v: NodeId, client: usize| -> f64 {
        let c = &cfg.clients;
        let weight = cfg.task_weights.as_ref().map_or(1.0, |w| w[v.index()]);
        let speed = c.speed_factors.as_ref().map_or(1.0, |sp| sp[client]);
        let base = c.mean_service * weight * (1.0 + c.jitter * (rng.gen_f64() * 2.0 - 1.0)) / speed;
        let compute = if c.straggler_prob > 0.0 && rng.gen_f64() < c.straggler_prob {
            base * c.straggler_factor
        } else {
            base
        };
        compute + c.comm_cost_per_arc * (dag.in_degree(v) + dag.out_degree(v)) as f64
    };

    let mut allocation_steps = 0usize;
    let mut allocate =
        |rng: &mut XorShift64, st: &mut ExecState<'_>, client: usize, now: f64| -> (NodeId, f64) {
            let ctx = PolicyContext {
                dag,
                state: st,
                step: allocation_steps,
                retries: None,
            };
            let i = policy.choose(&ctx, st.pool());
            let v = st.claim_at(i);
            allocation_steps += 1;
            (v, now + service(rng, v, client))
        };

    // Initial batch of requests at t = 0.
    for client in 0..clients {
        if st.pool_len() == 0 {
            emit(&mut fold, EventKind::Idle, 0.0, client, None, 0);
            waiting.push((client, 0.0));
        } else {
            let (v, done) = allocate(&mut rng, &mut st, client, 0.0);
            events.push(Reverse((Time(done), client, v)));
            let pool = st.pool_len();
            emit(&mut fold, EventKind::Allocated, 0.0, client, Some(v), pool);
        }
    }

    while let Some(Reverse((Time(now), client, v))) = events.pop() {
        let outcome = if cfg.clients.failure_prob > 0.0 && rng.gen_f64() < cfg.clients.failure_prob
        {
            // The client lost the task: it returns to the pool (its
            // parents are all executed, so it is still ELIGIBLE).
            let unclaimed = st.unclaim(v).is_ok();
            debug_assert!(
                unclaimed,
                "a lost task was claimed, hence ELIGIBLE and unpooled"
            );
            EventKind::Failed
        } else {
            // Executing a claimed task auto-pools its newly ELIGIBLE
            // children in id order.
            let executed = st.execute_counting(v).is_ok();
            debug_assert!(executed, "simulation executes tasks in a valid order");
            EventKind::Completed
        };
        emit(&mut fold, outcome, now, client, Some(v), st.pool_len());

        // The finishing client requests again, after any already-waiting
        // clients are served (FIFO among clients).
        waiting.push((client, now));
        let mut still_waiting = Vec::new();
        for (cl, since) in waiting.drain(..) {
            if st.pool_len() == 0 {
                // A *fresh* request (made at this instant) hitting an
                // empty pool: the metrics fold counts it as gridlock
                // when allocated work is still outstanding.
                if since == now {
                    emit(&mut fold, EventKind::Idle, now, cl, None, 0);
                }
                still_waiting.push((cl, since));
            } else {
                let (w, done) = allocate(&mut rng, &mut st, cl, now);
                events.push(Reverse((Time(done), cl, w)));
                emit(
                    &mut fold,
                    EventKind::Allocated,
                    now,
                    cl,
                    Some(w),
                    st.pool_len(),
                );
            }
        }
        waiting = still_waiting;
    }

    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_dag::builder::from_arcs;
    use ic_sched::heuristics::{schedule_with, Policy};
    use ic_sched::Schedule;

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

    #[test]
    fn completes_all_tasks() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let r = simulate(&g, &s, &quiet_cfg(1));
        assert_eq!(r.completions, 4);
        assert_eq!(r.allocations, 4);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let a = simulate(&g, &s, &SimConfig::default());
        let b = simulate(&g, &s, &SimConfig::default());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.gridlock_events, b.gridlock_events);
    }

    #[test]
    fn chain_dag_serializes() {
        // A pure chain can use only one client; with deterministic unit
        // service the makespan is n.
        let g = from_arcs(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let s = Schedule::in_id_order(&g);
        let r = simulate(&g, &s, &quiet_cfg(7));
        assert!((r.makespan - 5.0).abs() < 1e-9);
        // The second client can never be served: batch shortfall of 1.
        assert_eq!(r.unsatisfied_at_batch, 1);
    }

    #[test]
    fn wide_dag_uses_both_clients() {
        // Two independent chains of length 2: two clients finish in ~2.
        let g = from_arcs(4, &[(0, 1), (2, 3)]).unwrap();
        let s = Schedule::in_id_order(&g);
        let r = simulate(&g, &s, &quiet_cfg(7));
        assert!((r.makespan - 2.0).abs() < 1e-9);
        assert!(r.utilization > 0.99);
    }

    #[test]
    fn pool_trace_is_recorded() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let r = simulate(&g, &s, &quiet_cfg(3));
        assert!(!r.eligible_trace.is_empty());
        assert_eq!(r.eligible_trace.last().unwrap().1, 0);
    }

    #[test]
    fn failures_requeue_and_still_complete() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let cfg = SimConfig {
            clients: ClientProfile {
                num_clients: 2,
                mean_service: 1.0,
                jitter: 0.0,
                straggler_prob: 0.0,
                straggler_factor: 1.0,
                failure_prob: 0.4,
                comm_cost_per_arc: 0.0,
                speed_factors: None,
            },
            seed: 9,
            task_weights: None,
        };
        let r = simulate(&g, &s, &cfg);
        assert_eq!(r.completions, 4, "every task eventually completes");
        assert!(r.failures > 0, "seed 9 at 40% should produce failures");
        assert_eq!(r.allocations, r.completions + r.failures);
    }

    #[test]
    fn failure_free_runs_have_equal_allocations_and_completions() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let r = simulate(&g, &s, &quiet_cfg(4));
        assert_eq!(r.failures, 0);
        assert_eq!(r.allocations, r.completions);
    }

    #[test]
    fn speed_factors_scale_per_client() {
        // One fast client (4x) vs one slow: on a chain, only the
        // allocation order decides who serves; with a single client at
        // speed 2, makespan halves.
        let g = from_arcs(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let s = Schedule::in_id_order(&g);
        let mut base = quiet_cfg(1);
        base.clients.num_clients = 1;
        let slow = simulate(&g, &s, &base);
        let mut fast_cfg = base.clone();
        fast_cfg.clients.speed_factors = Some(vec![2.0]);
        let fast = simulate(&g, &s, &fast_cfg);
        assert!((slow.makespan - 2.0 * fast.makespan).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "speed_factors must cover")]
    fn wrong_speed_factor_length_panics() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let mut cfg = quiet_cfg(1);
        cfg.clients.speed_factors = Some(vec![1.0]); // 2 clients expected
        let _ = simulate(&g, &s, &cfg);
    }

    #[test]
    fn comm_cost_lengthens_makespan() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let base = simulate(&g, &s, &quiet_cfg(2));
        let mut cfg = quiet_cfg(2);
        cfg.clients.comm_cost_per_arc = 0.5;
        let comm = simulate(&g, &s, &cfg);
        // Diamond: 4 arcs * 2 endpoints = 8 arc-endpoints charged along
        // the critical path; makespan strictly grows.
        assert!(comm.makespan > base.makespan);
        assert_eq!(comm.completions, 4);
    }

    #[test]
    fn task_weights_scale_service() {
        let g = from_arcs(2, &[]).unwrap(); // two independent tasks
        let s = Schedule::in_id_order(&g);
        let mut cfg = quiet_cfg(1);
        cfg.clients.num_clients = 1; // serial, deterministic
        cfg.task_weights = Some(vec![1.0, 3.0]);
        let r = simulate(&g, &s, &cfg);
        // Serial: 1 + 3 time units.
        assert!((r.makespan - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "task_weights must cover")]
    fn wrong_weight_length_panics() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let mut cfg = quiet_cfg(1);
        cfg.task_weights = Some(vec![1.0]);
        let _ = simulate(&g, &s, &cfg);
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
    fn traced_run_metrics_match_trace_fold() {
        use crate::trace::MemorySink;
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let mut sink = MemorySink::new();
        let r = simulate_traced(&g, &s, &SimConfig::default(), &mut sink);
        let trace = sink.into_trace().expect("header recorded");
        assert_eq!(trace.header.nodes, 4);
        assert_eq!(trace.header.policy, "SCHEDULE");
        let refolded = SimResult::from_trace(&trace);
        assert_eq!(r, refolded, "metrics are a pure fold of the trace");
        assert_eq!(trace.completion_order().len(), 4);
    }

    #[test]
    fn traced_and_plain_runs_agree() {
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let plain = simulate(&g, &s, &SimConfig::default());
        let mut sink = crate::trace::MemorySink::new();
        let traced = simulate_traced(&g, &s, &SimConfig::default(), &mut sink);
        assert_eq!(plain, traced);
    }

    #[test]
    fn header_records_declared_worker_speeds() {
        use crate::trace::MemorySink;
        let g = diamond();
        let s = Schedule::in_id_order(&g);
        let mut cfg = quiet_cfg(5);
        cfg.clients.speed_factors = Some(vec![1.0, 2.5]);
        let mut sink = MemorySink::new();
        simulate_traced(&g, &s, &cfg, &mut sink);
        let trace = sink.into_trace().unwrap();
        assert_eq!(trace.header.workers.len(), 2);
        assert_eq!(trace.header.workers[1].speed, 2.5);
        assert_eq!(trace.header.workers[0].id, "client-0");
    }
}
