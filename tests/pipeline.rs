//! End-to-end pipeline tests: families → schedules → simulator and
//! families → schedules → parallel executor → verified results.

use std::sync::atomic::{AtomicUsize, Ordering};

use ic_scheduling::apps::integration::{integrate_adaptive, Rule};
use ic_scheduling::apps::matmul::{multiply_via_dag, Matrix};
use ic_scheduling::apps::scan::scan_parallel;
use ic_scheduling::check::sim::{simulate, ClientProfile, SimConfig};
use ic_scheduling::families::butterfly::{butterfly, butterfly_schedule};
use ic_scheduling::families::diamond::diamond_from_out_tree;
use ic_scheduling::families::dlt::dlt_prefix;
use ic_scheduling::families::mesh::{out_mesh, out_mesh_schedule};
use ic_scheduling::families::trees::complete_out_tree;
use ic_scheduling::sched::heuristics::{schedule_with, Policy};
use ic_scheduling::sched::quality::area_under;

fn cfg(clients: usize, seed: u64) -> SimConfig {
    SimConfig {
        clients: ClientProfile {
            num_clients: clients,
            mean_service: 1.0,
            jitter: 0.5,
            straggler_prob: 0.1,
            straggler_factor: 5.0,
            failure_prob: 0.0,
            comm_cost_per_arc: 0.0,
            speed_factors: None,
        },
        seed,
        task_weights: None,
    }
}

/// The IC-optimal schedule's *eligibility area* dominates heuristics on
/// every workload family (the deterministic counterpart of the
/// simulation comparison).
#[test]
fn ic_optimal_area_dominates_heuristics_on_families() {
    let workloads: Vec<(
        &str,
        ic_scheduling::dag::Dag,
        ic_scheduling::sched::Schedule,
    )> = vec![
        {
            let m = out_mesh(8);
            let s = out_mesh_schedule(&m);
            ("mesh8", m, s)
        },
        {
            let b = butterfly(3);
            let s = butterfly_schedule(3);
            ("butterfly3", b, s)
        },
        {
            let d = diamond_from_out_tree(&complete_out_tree(2, 3)).unwrap();
            let s = d.ic_schedule().unwrap();
            ("diamond", d.dag, s)
        },
        {
            let l = dlt_prefix(8);
            let s = l.ic_schedule().unwrap();
            ("dlt8", l.dag, s)
        },
    ];
    for (name, dag, ic) in workloads {
        let opt_area = area_under(&ic.profile(&dag));
        for p in Policy::all(3) {
            let area = area_under(&schedule_with(&dag, &p).profile(&dag));
            assert!(
                opt_area >= area,
                "{name}: {} area {area} exceeds IC-optimal {opt_area}",
                p.name()
            );
        }
    }
}

/// Simulations complete every task for every (family × policy × seed)
/// combination, and the recorded trace is internally consistent.
#[test]
fn simulator_completes_across_families_and_policies() {
    let l = dlt_prefix(8);
    let ic = l.ic_schedule().unwrap();
    for clients in [1usize, 3, 8] {
        for seed in [1u64, 2] {
            let r = simulate(&l.dag, &ic, &cfg(clients, seed));
            assert_eq!(r.completions, l.dag.num_nodes());
            assert_eq!(r.allocations, l.dag.num_nodes());
            assert!(r.makespan > 0.0);
            assert!(r.utilization > 0.0 && r.utilization <= 1.0);
            assert_eq!(r.eligible_trace.last().unwrap().1, 0);
        }
    }
    let m = out_mesh(6);
    for p in Policy::all(9) {
        let s = schedule_with(&m, &p);
        let r = simulate(&m, &s, &cfg(4, 11));
        assert_eq!(r.completions, m.num_nodes(), "{}", p.name());
    }
}

/// More clients never hurt the makespan (weakly) on a wide workload.
#[test]
fn more_clients_weakly_improve_makespan() {
    let b = butterfly(4);
    let s = butterfly_schedule(4);
    let mk = |clients: usize| {
        // Average a few seeds to smooth stochastic effects.
        (0..6u64)
            .map(|seed| simulate(&b, &s, &cfg(clients, seed)).makespan)
            .sum::<f64>()
            / 6.0
    };
    let (m1, m4, m16) = (mk(1), mk(4), mk(16));
    assert!(m4 < m1, "4 clients should beat 1 ({m4:.2} vs {m1:.2})");
    assert!(m16 <= m4 * 1.05, "16 clients should not lose to 4");
}

/// The executor pipeline computes real results under contention, with
/// schedule-priority selection (smoke across workers).
#[test]
fn executor_pipeline_produces_correct_values() {
    // Scan 1..=100 on several worker counts.
    let xs: Vec<u64> = (1..=100).collect();
    let want: Vec<u64> = xs
        .iter()
        .scan(0u64, |acc, &x| {
            *acc += x;
            Some(*acc)
        })
        .collect();
    for workers in [1usize, 2, 8] {
        let got = scan_parallel(&xs, |a, b| a + b, workers);
        assert_eq!(got, want, "workers = {workers}");
    }
    // Dag-driven matrix multiply in parallel.
    let a = Matrix::from_fn(16, |i, j| (i as f64 - j as f64) * 0.25);
    let b = Matrix::from_fn(16, |i, j| ((i * j) as f64 * 0.01).cos());
    let want = a.multiply_naive(&b);
    let got = multiply_via_dag(&a, &b, 4);
    for i in 0..16 {
        for j in 0..16 {
            assert!((want.get(i, j) - got.get(i, j)).abs() < 1e-10);
        }
    }
}

/// Quadrature through the diamond pipeline converges as the tolerance
/// tightens — and the dag grows accordingly.
#[test]
fn quadrature_converges_with_tolerance() {
    let exact = 2.0; // ∫₀^π sin.
    let mut last_err = f64::INFINITY;
    let mut last_nodes = 0usize;
    for tol in [1e-2, 1e-4, 1e-6] {
        let q = integrate_adaptive(
            f64::sin,
            0.0,
            std::f64::consts::PI,
            tol,
            30,
            Rule::Trapezoid,
        )
        .unwrap();
        let err = (q.value - exact).abs();
        assert!(
            err <= last_err * 1.5,
            "error should shrink: {err} after {last_err}"
        );
        assert!(q.diamond.dag.num_nodes() >= last_nodes);
        last_err = err;
        last_nodes = q.diamond.dag.num_nodes();
    }
    assert!(last_err < 1e-5);
    assert!(last_nodes > 50, "tight tolerance must refine the dag");
}

/// The executor honors priorities: with one worker the execution order
/// *is* the schedule, across families.
#[test]
fn single_worker_follows_family_schedules() {
    let m = out_mesh(5);
    let s = out_mesh_schedule(&m);
    let counter = AtomicUsize::new(0);
    let positions: Vec<AtomicUsize> = (0..m.num_nodes()).map(|_| AtomicUsize::new(0)).collect();
    ic_scheduling::exec::execute(&m, &s, 1, |v| {
        let t = counter.fetch_add(1, Ordering::Relaxed);
        positions[v.index()].store(t, Ordering::Relaxed);
    });
    for (i, &v) in s.order().iter().enumerate() {
        assert_eq!(positions[v.index()].load(Ordering::Relaxed), i);
    }
}
