//! Experiment SIM: the server simulation — what IC-optimality buys.

use ic_check::sim::{simulate, ClientProfile, SimConfig};
use ic_dag::Dag;
use ic_families::butterfly::{butterfly, butterfly_schedule};
use ic_families::diamond::diamond_from_out_tree;
use ic_families::dlt::dlt_prefix;
use ic_families::mesh::{out_mesh, out_mesh_schedule};
use ic_families::trees::complete_out_tree;
use ic_sched::heuristics::{schedule_with, Policy};
use ic_sched::Schedule;

use crate::report::{table_row, Section};

use super::Ctx;

/// One averaged row of the policy table: label plus the seven metric
/// columns (gridlock, batch-misses, mean pool, makespan, utilization,
/// idle, burst-3).
type PolicyRow = (String, f64, f64, f64, f64, f64, f64, f64);

fn workloads() -> Vec<(&'static str, Dag, Schedule)> {
    let d = diamond_from_out_tree(&complete_out_tree(2, 4)).unwrap();
    let ds = d.ic_schedule().unwrap();
    let m = out_mesh(10);
    let ms = out_mesh_schedule(&m);
    let b = butterfly(4);
    let bs = butterfly_schedule(4);
    let l = dlt_prefix(16);
    let ls = l.ic_schedule().unwrap();
    vec![
        ("diamond(2,4)", d.dag, ds),
        ("mesh(10)", m, ms),
        ("butterfly(4)", b, bs),
        ("DLT L_16", l.dag, ls),
    ]
}

/// §2.2 scenarios, measured: for each workload dag, compare the
/// IC-optimal schedule against the heuristic baselines as *allocation
/// policies* on the lease machine under a simulated client fleet —
/// gridlock events, batch satisfaction, mean ELIGIBLE pool, makespan,
/// utilization. Averages over several seeds.
pub fn sim_comparison(_ctx: &Ctx) -> Section {
    let mut s = Section::new(
        "SIM",
        "IC server simulation: IC-optimal vs heuristic allocation",
    );
    let seeds: Vec<u64> = (0..16).collect();
    let widths = [14usize, 11, 9, 10, 10, 9, 9, 9];
    for (name, dag, ic) in workloads() {
        s.line(format!(
            "  -- workload {name} ({} tasks) --",
            dag.num_nodes()
        ));
        s.line(table_row(
            &[
                "policy".into(),
                "gridlock".into(),
                "batch-".into(),
                "meanpool".into(),
                "makespan".into(),
                "util".into(),
                "idle".into(),
                "burst3".into(),
            ],
            &widths,
        ));
        let mut rows: Vec<PolicyRow> = Vec::new();
        let mut run = |label: String, sched: &Schedule| {
            let mut acc = (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for &seed in &seeds {
                let cfg = SimConfig {
                    clients: ClientProfile {
                        num_clients: 6,
                        mean_service: 1.0,
                        jitter: 0.6,
                        straggler_prob: 0.08,
                        straggler_factor: 6.0,
                        failure_prob: 0.0,
                        comm_cost_per_arc: 0.0,
                        speed_factors: None,
                    },
                    seed,
                    task_weights: None,
                };
                let r = simulate(&dag, sched, &cfg);
                acc.0 += r.gridlock_events as f64;
                acc.1 += r.unsatisfied_at_batch as f64;
                acc.2 += r.mean_pool();
                acc.3 += r.makespan;
                acc.4 += r.utilization;
                acc.5 += r.idle_time;
                acc.6 += r.batch_service_fraction(3);
            }
            let k = seeds.len() as f64;
            rows.push((
                label,
                acc.0 / k,
                acc.1 / k,
                acc.2 / k,
                acc.3 / k,
                acc.4 / k,
                acc.5 / k,
                acc.6 / k,
            ));
        };
        run("IC-OPTIMAL".into(), &ic);
        for p in Policy::all(99) {
            let sched = schedule_with(&dag, &p);
            run(p.name().to_string(), &sched);
        }
        for (label, g, b, mp, mk, u, idle, burst) in &rows {
            s.line(table_row(
                &[
                    label.clone(),
                    format!("{g:.2}"),
                    format!("{b:.1}"),
                    format!("{mp:.2}"),
                    format!("{mk:.2}"),
                    format!("{u:.3}"),
                    format!("{idle:.2}"),
                    format!("{burst:.2}"),
                ],
                &widths,
            ));
        }
        // The headline comparison: IC-optimal's mean pool should be at
        // least as high as every heuristic's, and its gridlock count at
        // most marginally above the best.
        let ic_row = rows[0].clone();
        let best_pool = rows[1..].iter().map(|r| r.3).fold(0.0f64, f64::max);
        s.check(
            &format!(
                "{name}: IC-optimal mean pool {:.2} >= best heuristic {:.2} - 5%",
                ic_row.3, best_pool
            ),
            ic_row.3 >= best_pool * 0.95,
        );
        let min_gridlock = rows[1..].iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        s.check(
            &format!(
                "{name}: IC-optimal gridlock {:.2} <= min heuristic {:.2} + 1",
                ic_row.1, min_gridlock
            ),
            ic_row.1 <= min_gridlock + 1.0,
        );
    }
    s
}
