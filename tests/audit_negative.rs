//! The auditor's negative suite: take *known-good* dags and schedules
//! from the paper families, break them in controlled ways, and assert
//! that `ic-audit` flags each mutation with its **specific** diagnostic
//! code — not merely "something failed". This pins the code table of
//! DESIGN.md: a pass that starts mis-classifying defects fails here
//! even if it still rejects them.

use ic_scheduling::audit::diag::{
    COMPLETION_BEFORE_ALLOCATION, CYCLE_DETECTED, DUPLICATE_ARC, ENVELOPE_DEPARTURE, ENVELOPE_GAP,
    NON_ELIGIBLE_ALLOCATION, NOT_A_TOPOLOGICAL_ORDER, POOL_SIZE_MISMATCH, PRIORITY_CHAIN_BROKEN,
    TRACE_TRUNCATED, UNREACHABLE_NODE,
};
use ic_scheduling::audit::graph::audit_edges;
use ic_scheduling::audit::order::{audit_envelope, audit_order};
use ic_scheduling::audit::{Diagnostic, Severity};
use ic_scheduling::check::sim::{simulate_traced, ClientProfile, SimConfig};
use ic_scheduling::dag::{Dag, NodeId};
use ic_scheduling::families::{butterfly, dlt, matmul, mesh, prefix, primitives, sorting, trees};
use ic_scheduling::sched::heuristics::{schedule_with, Policy};
use ic_scheduling::sched::{AllocationPolicy, Schedule};
use ic_scheduling::sim::{EventKind, MemorySink, Trace};

/// Known-good (dag, IC-optimal schedule) instances, one per family —
/// the fixtures every mutation below starts from.
fn fixtures() -> Vec<(&'static str, Dag, Schedule)> {
    let m = mesh::out_mesh(4);
    let sm = mesh::out_mesh_schedule(&m);
    let im = mesh::in_mesh(4);
    let sim = mesh::in_mesh_schedule(&im).unwrap();
    let it = trees::complete_in_tree(2, 2);
    let sit = trees::in_tree_schedule(&it).unwrap();
    let l4 = dlt::dlt_prefix(4);
    let sl4 = l4.ic_schedule().unwrap();
    let (bit, bstages) = sorting::bitonic_network(4);
    let sbit = sorting::bitonic_schedule(4, &bstages);
    vec![
        ("primitives/w3", primitives::w_dag(3), {
            let g = primitives::w_dag(3);
            primitives::ic_schedule(&g)
        }),
        ("trees/in-tree", it, sit),
        ("mesh/out", m, sm),
        ("mesh/in", im, sim),
        (
            "butterfly",
            butterfly::butterfly(2),
            butterfly::butterfly_schedule(2),
        ),
        (
            "prefix",
            prefix::parallel_prefix(4),
            prefix::prefix_schedule(4),
        ),
        ("dlt", l4.dag, sl4),
        ("sorting/bitonic", bit, sbit),
        ("matmul", matmul::matmul_dag(), matmul::theorem_schedule()),
    ]
}

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

/// Dropping the last step leaves a node unexecuted: IC0101, and only
/// IC0101.
#[test]
fn dropped_step_is_not_a_topological_order() {
    for (name, dag, sched) in fixtures() {
        let mut order = sched.order().to_vec();
        order.pop();
        let diags = audit_order(&dag, &order);
        assert!(!diags.is_empty(), "{name}: mutation not flagged");
        assert!(
            diags.iter().all(|d| d.code == NOT_A_TOPOLOGICAL_ORDER),
            "{name}: wrong codes {:?}",
            codes(&diags)
        );
    }
}

/// Replacing the last step with a repeat of the first executes one node
/// twice and another never: IC0101.
#[test]
fn duplicated_node_is_not_a_topological_order() {
    for (name, dag, sched) in fixtures() {
        let mut order = sched.order().to_vec();
        let n = order.len();
        order[n - 1] = order[0];
        let diags = audit_order(&dag, &order);
        assert!(!diags.is_empty(), "{name}: mutation not flagged");
        assert!(
            diags.iter().all(|d| d.code == NOT_A_TOPOLOGICAL_ORDER),
            "{name}: wrong codes {:?}",
            codes(&diags)
        );
    }
}

/// Moving the final step (always a sink here) to the front executes a
/// dependent before its dependency: IC0101.
#[test]
fn rotated_order_is_not_a_topological_order() {
    for (name, dag, sched) in fixtures() {
        let mut order = sched.order().to_vec();
        let last = order.pop().unwrap();
        order.insert(0, last);
        let diags = audit_order(&dag, &order);
        assert!(!diags.is_empty(), "{name}: mutation not flagged");
        assert_eq!(codes(&diags), vec![NOT_A_TOPOLOGICAL_ORDER], "{name}");
        assert!(
            diags[0].message.contains("before its dependency"),
            "{name}: {}",
            diags[0].message
        );
    }
}

/// For every order-sensitive family there is a swap of two steps that
/// stays a *valid* topological order but dents the eligibility profile:
/// the auditor must then report IC0102 (envelope gap), not IC0101.
#[test]
fn valid_but_suboptimal_swap_is_an_envelope_gap() {
    for (name, dag, sched) in fixtures() {
        if dag.num_nodes() > ic_scheduling::audit::order::EXHAUSTIVE_LIMIT {
            continue;
        }
        let base = sched.order().to_vec();
        let mut found_gap = false;
        'search: for i in 0..base.len() {
            for j in i + 1..base.len() {
                let mut order = base.clone();
                order.swap(i, j);
                if !audit_order(&dag, &order).is_empty() {
                    continue; // not a valid order; covered by IC0101 tests
                }
                let diags = audit_envelope(&dag, &order).expect("within exhaustive limit");
                if !diags.is_empty() {
                    assert_eq!(codes(&diags), vec![ENVELOPE_GAP], "{name}");
                    found_gap = true;
                    break 'search;
                }
            }
        }
        // Families whose *every* valid order is IC-optimal (e.g. pure
        // out-trees) legitimately have no such swap; all fixtures here
        // are order-sensitive.
        assert!(found_gap, "{name}: no valid suboptimal swap found");
    }
}

/// Graph-level mutations on real family edge lists: a duplicated arc is
/// IC0002, a back-arc is IC0001, an extra arc-free node is IC0003.
#[test]
fn graph_mutations_get_structural_codes() {
    for (name, dag, _) in fixtures() {
        let arcs: Vec<(usize, usize)> = dag.arcs().map(|(u, v)| (u.index(), v.index())).collect();
        assert!(audit_edges(dag.num_nodes(), &arcs).is_empty(), "{name}");

        let mut dup = arcs.clone();
        dup.push(arcs[0]);
        assert_eq!(
            codes(&audit_edges(dag.num_nodes(), &dup)),
            vec![DUPLICATE_ARC],
            "{name}"
        );

        let mut cyc = arcs.clone();
        cyc.push((arcs[0].1, arcs[0].0));
        let diags = audit_edges(dag.num_nodes(), &cyc);
        assert!(
            diags.iter().any(|d| d.code == CYCLE_DETECTED),
            "{name}: {:?}",
            codes(&diags)
        );

        assert_eq!(
            codes(&audit_edges(dag.num_nodes() + 1, &arcs)),
            vec![UNREACHABLE_NODE],
            "{name}"
        );
    }
}

/// Reversing a true ▷-chain breaks it: W₁ ▷ W₂ holds (small-over-large,
/// the mesh decomposition), W₂ ▷ W₁ does not — IC0201 with the failing
/// stage named.
#[test]
fn reversed_w_chain_is_broken() {
    let stage = |s: usize| {
        let g = primitives::w_dag(s);
        let sch = primitives::ic_schedule(&g);
        (g, sch)
    };
    let good = vec![stage(1), stage(2), stage(3)];
    assert!(ic_scheduling::audit::claims::audit_priority_chain(&good).is_empty());
    let bad = vec![stage(3), stage(2), stage(1)];
    let diags = ic_scheduling::audit::claims::audit_priority_chain(&bad);
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.code == PRIORITY_CHAIN_BROKEN));
    assert!(diags[0].message.contains("stage 0"), "{}", diags[0].message);
}

/// Feeding a *suboptimal* schedule into the duality pass violates the
/// Theorem 2.2 contract: the reversed-packet schedule is no longer
/// IC-optimal on the dual — IC0301.
#[test]
fn suboptimal_schedule_breaks_duality() {
    // W₃'s IC-optimal schedules execute the sources consecutively
    // left-to-right; starting from the middle source is a valid order
    // whose packet-reversal is *not* IC-optimal on the dual M-dag.
    let g = primitives::w_dag(3);
    let ids: Vec<NodeId> = [1usize, 0, 2, 3, 4, 5, 6]
        .iter()
        .map(|&i| NodeId::new(i))
        .collect();
    let sub = Schedule::new(&g, ids).unwrap();
    let diags = ic_scheduling::audit::claims::audit_duality(&g, &sub);
    assert!(!diags.is_empty(), "expected IC0301");
    assert!(diags
        .iter()
        .all(|d| d.code == ic_scheduling::audit::diag::DUALITY_MISMATCH));

    // The consecutive-source schedule keeps the theorem intact.
    let good = primitives::ic_schedule(&g);
    assert!(ic_scheduling::audit::claims::audit_duality(&g, &good).is_empty());
}

// ---------------------------------------------------------------------
// Trace-replay mutations (IC0401–IC0405): record a known-good run per
// family fixture, break the trace in one controlled way, and pin the
// specific code the replay pass reports.

/// Record the trace of `clients` simulated clients running `policy` on
/// `dag`, each failing a task with probability `failure_prob`.
fn simulated(
    dag: &Dag,
    policy: &dyn AllocationPolicy,
    clients: usize,
    failure_prob: f64,
    seed: u64,
) -> Trace {
    let cfg = SimConfig {
        clients: ClientProfile {
            num_clients: clients,
            failure_prob,
            ..ClientProfile::default()
        },
        seed,
        ..SimConfig::default()
    };
    let mut sink = MemorySink::new();
    simulate_traced(dag, policy, &cfg, &mut sink);
    sink.into_trace().unwrap()
}

/// Record a clean single-client trace of `sched` replayed on `dag`.
fn traced(dag: &Dag, sched: &Schedule) -> Trace {
    simulated(dag, sched, 1, 0.0, SimConfig::default().seed)
}

fn errors(trace: &Trace) -> Vec<Diagnostic> {
    let diags = ic_scheduling::audit::audit_trace(trace);
    diags
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

/// Multi-client stochastic runs of the lease machine may realize
/// sub-envelope orders (IC0404 is a warning for exactly this reason)
/// but never violate a replay invariant.
#[test]
fn clean_simulator_trace_audits_clean() {
    let g = mesh::out_mesh(5);
    let errors = errors(&simulated(&g, &Policy::Fifo, 3, 0.0, 7));
    assert!(errors.is_empty(), "{errors:?}");
}

/// 40% task failure: the trace is full of `fail` → backoff →
/// re-`alloc` sequences, which are legal server behaviour, not
/// violations.
#[test]
fn flaky_run_reallocations_are_tolerated_not_flagged() {
    let g = mesh::out_mesh(6);
    let trace = simulated(&g, &Policy::Fifo, 3, 0.4, 11);
    assert!(
        trace.events.iter().any(|e| e.kind == EventKind::Failed),
        "seed 11 at 40% should produce failures"
    );
    let errors = errors(&trace);
    assert!(errors.is_empty(), "{errors:?}");
}

/// Inflating every recorded pool of a two-client run is IC0403 —
/// reported once: pool checking stops after the first divergence.
#[test]
fn pool_mismatch_is_ic0403_and_reported_once() {
    let g = mesh::out_mesh(4);
    let mut trace = simulated(&g, &Policy::Fifo, 2, 0.0, 3);
    for ev in &mut trace.events {
        if ev.kind == EventKind::Completed {
            ev.pool = ev.pool.map(|p| p + 1);
        }
    }
    let diags = ic_scheduling::audit::audit_trace(&trace);
    let hits = codes(&diags)
        .iter()
        .filter(|&&c| c == POOL_SIZE_MISMATCH)
        .count();
    assert_eq!(hits, 1, "{diags:?}");
}

/// Retargeting an allocation at a task whose parent has not completed
/// is IC0401, on every family fixture.
#[test]
fn non_eligible_allocation_is_ic0401_across_families() {
    for (name, dag, sched) in fixtures() {
        let mut trace = traced(&dag, &sched);
        // Point the first allocation at the last-scheduled task — a
        // sink (or at least a non-source) in every fixture.
        let victim = *sched.order().last().unwrap();
        assert_eq!(
            trace.events[0].kind,
            EventKind::Allocated,
            "{name}: first event is an allocation"
        );
        trace.events[0].task = Some(victim);
        let diags = ic_scheduling::audit::audit_trace(&trace);
        assert!(
            codes(&diags).contains(&NON_ELIGIBLE_ALLOCATION),
            "{name}: {diags:?}"
        );
    }
}

/// Deleting an allocation leaves its completion dangling: IC0402.
#[test]
fn dangling_completion_is_ic0402() {
    for (name, dag, sched) in fixtures() {
        let mut trace = traced(&dag, &sched);
        let i = trace
            .events
            .iter()
            .position(|e| e.kind == EventKind::Allocated)
            .unwrap();
        trace.events.remove(i);
        let diags = ic_scheduling::audit::audit_trace(&trace);
        assert!(
            codes(&diags).contains(&COMPLETION_BEFORE_ALLOCATION),
            "{name}: {diags:?}"
        );
    }
}

/// Inflating a recorded pool size is IC0403 — reported once, at the
/// first divergence.
#[test]
fn inflated_pool_is_ic0403() {
    let (name, dag, sched) = fixtures().remove(2);
    let mut trace = traced(&dag, &sched);
    for ev in &mut trace.events {
        if ev.kind == EventKind::Completed {
            ev.pool = ev.pool.map(|p| p + 2);
        }
    }
    let diags = ic_scheduling::audit::audit_trace(&trace);
    let hits = codes(&diags)
        .iter()
        .filter(|&&c| c == POOL_SIZE_MISMATCH)
        .count();
    assert_eq!(hits, 1, "{name}: {diags:?}");
}

/// Cutting the trace before its last completion is IC0405.
#[test]
fn truncated_trace_is_ic0405() {
    for (name, dag, sched) in fixtures() {
        let mut trace = traced(&dag, &sched);
        let last = trace
            .events
            .iter()
            .rposition(|e| e.kind == EventKind::Completed)
            .unwrap();
        trace.events.truncate(last);
        let diags = ic_scheduling::audit::audit_trace(&trace);
        assert!(
            codes(&diags).contains(&TRACE_TRUNCATED),
            "{name}: {diags:?}"
        );
    }
}

/// A single-client run that leaves the optimal envelope is IC0404 — a
/// warning, including past the exhaustive limit where the envelope
/// comes from the symbolic family certificate.
#[test]
fn sub_envelope_replay_is_ic0404_even_symbolically() {
    // Small (exhaustive) case.
    let g = mesh::out_mesh(4);
    let lifo = schedule_with(&g, &Policy::Lifo);
    let diags = ic_scheduling::audit::audit_trace(&traced(&g, &lifo));
    assert!(codes(&diags).contains(&ENVELOPE_DEPARTURE), "{diags:?}");
    // Large (symbolic) case: 55 nodes.
    let g = mesh::out_mesh(10);
    let lifo = schedule_with(&g, &Policy::Lifo);
    let diags = ic_scheduling::audit::audit_trace(&traced(&g, &lifo));
    assert!(codes(&diags).contains(&ENVELOPE_DEPARTURE), "{diags:?}");
    assert!(diags
        .iter()
        .all(|d| d.severity == ic_scheduling::audit::Severity::Warning));
}

/// IC0003 stays a warning by default and fails the audit only under
/// `--deny orphans` escalation.
#[test]
fn deny_escalates_orphans_to_errors() {
    use ic_scheduling::audit::diag::deny;
    // Node 3 participates in no arc.
    let mut diags = audit_edges(4, &[(0, 1), (1, 2)]);
    assert_eq!(codes(&diags), vec![UNREACHABLE_NODE]);
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    assert_eq!(deny(&mut diags, UNREACHABLE_NODE), 1);
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}
