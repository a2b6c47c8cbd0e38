//! Benches for the IC server simulation (a client fleet stepping the
//! lease machine): per-policy simulation cost across workload families
//! and client populations.

use ic_bench::harness::Runner;
use ic_check::sim::{simulate, ClientProfile, SimConfig};
use ic_families::butterfly::{butterfly, butterfly_schedule};
use ic_families::mesh::{out_mesh, out_mesh_schedule};
use ic_families::prefix::{parallel_prefix, prefix_schedule};
use ic_sched::heuristics::{schedule_with, Policy};

fn cfg(clients: usize) -> SimConfig {
    SimConfig {
        clients: ClientProfile {
            num_clients: clients,
            mean_service: 1.0,
            jitter: 0.5,
            straggler_prob: 0.05,
            straggler_factor: 6.0,
            failure_prob: 0.0,
            comm_cost_per_arc: 0.0,
            speed_factors: None,
        },
        seed: 42,
        task_weights: None,
    }
}

fn bench_policies(r: &mut Runner) {
    let m = out_mesh(20); // 210 tasks
    let ic = out_mesh_schedule(&m);
    r.bench("simulate_by_policy", "mesh20_ic_optimal", || {
        simulate(&m, &ic, &cfg(8))
    });
    for p in [Policy::Fifo, Policy::Lifo, Policy::GreedyEligibility] {
        let s = schedule_with(&m, &p);
        r.bench(
            "simulate_by_policy",
            &format!("mesh20_{}", p.name()),
            || simulate(&m, &s, &cfg(8)),
        );
    }
}

fn bench_workload_scale(r: &mut Runner) {
    for d in [4usize, 6, 8] {
        let bf = butterfly(d);
        let s = butterfly_schedule(d);
        r.bench(
            "simulate_scale",
            &format!("butterfly_{}", bf.num_nodes()),
            || simulate(&bf, &s, &cfg(8)),
        );
    }
    for n in [64usize, 256] {
        let p = parallel_prefix(n);
        let s = prefix_schedule(n);
        r.bench(
            "simulate_scale",
            &format!("prefix_{}", p.num_nodes()),
            || simulate(&p, &s, &cfg(8)),
        );
    }
}

fn bench_client_counts(r: &mut Runner) {
    let m = out_mesh(20);
    let s = out_mesh_schedule(&m);
    for clients in [2usize, 8, 32] {
        r.bench("simulate_clients", &format!("mesh20_{clients}"), || {
            simulate(&m, &s, &cfg(clients))
        });
    }
}

fn main() {
    let mut r = Runner::from_env();
    bench_policies(&mut r);
    bench_workload_scale(&mut r);
    bench_client_counts(&mut r);
    r.finish();
}
