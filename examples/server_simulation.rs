//! The IC server scenario of §2.2, simulated: heterogeneous remote
//! clients pull tasks from the deployed lease machine, which allocates
//! by a schedule's priorities. IC-optimal allocation vs the heuristics.
//!
//! ```text
//! cargo run --example server_simulation
//! ```

use ic_scheduling::check::sim::{simulate, ClientProfile, SimConfig};
use ic_scheduling::families::dlt::dlt_prefix;
use ic_scheduling::sched::heuristics::{schedule_with, Policy};

fn main() {
    // Workload: the 16-input DLT dag (95 tasks).
    let l = dlt_prefix(16);
    let ic = l.ic_schedule().expect("schedulable");
    println!(
        "workload: DLT L_16 — {} tasks, {} dependencies; 6 clients, stragglers enabled\n",
        l.dag.num_nodes(),
        l.dag.num_arcs()
    );

    println!(
        "{:<12} {:>9} {:>10} {:>10} {:>10} {:>8}",
        "policy", "gridlock", "mean pool", "makespan", "idle", "util"
    );
    let seeds: Vec<u64> = (0..10).collect();
    let run = |name: &str, sched: &ic_scheduling::sched::Schedule| {
        let mut acc = (0.0, 0.0, 0.0, 0.0, 0.0);
        for &seed in &seeds {
            let cfg = SimConfig {
                clients: ClientProfile {
                    num_clients: 6,
                    mean_service: 1.0,
                    jitter: 0.6,
                    straggler_prob: 0.1,
                    straggler_factor: 8.0,
                    failure_prob: 0.0,
                    comm_cost_per_arc: 0.0,
                    speed_factors: None,
                },
                seed,
                task_weights: None,
            };
            let r = simulate(&l.dag, sched, &cfg);
            acc.0 += r.gridlock_events as f64;
            acc.1 += r.mean_pool();
            acc.2 += r.makespan;
            acc.3 += r.idle_time;
            acc.4 += r.utilization;
        }
        let k = seeds.len() as f64;
        println!(
            "{:<12} {:>9.2} {:>10.2} {:>10.2} {:>10.2} {:>8.3}",
            name,
            acc.0 / k,
            acc.1 / k,
            acc.2 / k,
            acc.3 / k,
            acc.4 / k
        );
    };
    run("IC-OPTIMAL", &ic);
    for p in Policy::all(77) {
        let s = schedule_with(&l.dag, &p);
        run(p.name(), &s);
    }
    println!(
        "\nA deeper ELIGIBLE pool (mean pool) means fewer gridlocked requests\n\
         and better client utilization; LIFO-style depth-first allocation\n\
         starves the pool. Averages over {} seeds.",
        seeds.len()
    );
}
