//! Ablation experiments: the design-choice studies DESIGN.md calls for,
//! beyond the paper's own artifacts.

use ic_check::sim::{simulate, ClientProfile, SimConfig};
use ic_dag::traversal::height;
use ic_families::diamond::diamond_from_out_tree;
use ic_families::mesh::{cluster_stats, coarsen_mesh, out_mesh, out_mesh_schedule};
use ic_families::prefix::parallel_prefix;
use ic_families::sorting::{
    bitonic_comparators, bitonic_network, comparator_schedule, odd_even_comparators,
    odd_even_network,
};
use ic_families::trees::complete_out_tree;
use ic_sched::almost::{greedy_regret_schedule, min_regret_schedule, regret};
use ic_sched::batched::{greedy_batches, min_rounds, optimal_batches};
use ic_sched::heuristics::{schedule_with, Policy};
use ic_sched::optimal::admits_ic_optimal;
use ic_sched::Schedule;

use crate::report::{table_row, Section};

use super::Ctx;

/// AB1 — the batched regimen of \[20\] vs the per-task regimen: minimum
/// rounds across batch widths, and the greedy/optimal gap.
pub fn ab1_batched_scheduling(_ctx: &Ctx) -> Section {
    let mut s = Section::new(
        "AB1",
        "Ablation: batched allocation ([20]) — rounds vs batch width",
    );
    let workloads = [
        (
            "diamond(2,2)",
            diamond_from_out_tree(&complete_out_tree(2, 2)).unwrap().dag,
        ),
        ("mesh(5)", out_mesh(5)),
        ("prefix(4)", parallel_prefix(4)),
    ];
    let widths_hdr = [12usize, 7, 7, 9, 9, 9];
    for (name, dag) in workloads {
        s.line(format!(
            "  -- {name}: {} tasks, height {} --",
            dag.num_nodes(),
            height(&dag)
        ));
        s.line(table_row(
            &[
                "width".to_string(),
                "min".to_string(),
                "opt".to_string(),
                "greedy".to_string(),
                String::new(),
                String::new(),
            ],
            &widths_hdr,
        ));
        let prio: Vec<usize> = (0..dag.num_nodes()).collect();
        for width in [1usize, 2, 4, dag.num_nodes()] {
            let min = min_rounds(&dag, width).unwrap();
            let opt = optimal_batches(&dag, width).unwrap();
            let greedy = greedy_batches(&dag, width, &prio);
            s.line(table_row(
                &[
                    width.to_string(),
                    min.to_string(),
                    opt.num_rounds().to_string(),
                    greedy.num_rounds().to_string(),
                    String::new(),
                    String::new(),
                ],
                &widths_hdr,
            ));
            s.check(
                &format!("{name} width {width}: optimal batches attain the minimum ({min})"),
                opt.num_rounds() == min,
            );
            s.check(
                &format!("{name} width {width}: greedy within 2x of minimum"),
                greedy.num_rounds() <= 2 * min,
            );
        }
        // Unbounded width reaches the height bound ("optimality is
        // always possible within the batched framework").
        s.check(
            &format!("{name}: unbounded width achieves height rounds"),
            min_rounds(&dag, 64).unwrap() == height(&dag),
        );
    }
    s
}

/// AB2 — comparator-count vs IC-schedulability: the bitonic network
/// (pure B-composition) admits IC-optimal schedules; the cheaper
/// odd-even merge network (pass-through wires) does not.
pub fn ab2_network_scope(_ctx: &Ctx) -> Section {
    let mut s = Section::new(
        "AB2",
        "Ablation: comparator count vs IC-optimality (bitonic vs odd-even)",
    );
    s.line(table_row(
        &[
            "n".into(),
            "bitonic".into(),
            "odd-even".into(),
            "saving".into(),
        ],
        &[4, 9, 10, 8],
    ));
    for n in [4usize, 8, 16, 32] {
        let bi: usize = bitonic_comparators(n).iter().map(Vec::len).sum();
        let oe: usize = odd_even_comparators(n).iter().map(Vec::len).sum();
        s.line(table_row(
            &[
                n.to_string(),
                bi.to_string(),
                oe.to_string(),
                format!("{:.0}%", 100.0 * (bi - oe) as f64 / bi as f64),
            ],
            &[4, 9, 10, 8],
        ));
    }
    let (bdag, bstages) = bitonic_network(4);
    s.check(
        "bitonic n=4 paired schedule is IC-optimal",
        ic_sched::optimal::is_ic_optimal(&bdag, &comparator_schedule(4, &bstages)).unwrap(),
    );
    let (odag, _) = odd_even_network(4);
    s.check(
        "odd-even n=4 admits NO IC-optimal schedule (pass-through ΔE=0 steps)",
        !admits_ic_optimal(&odag).unwrap(),
    );
    s.line("  => §5.2's IC-optimality claim is scoped to pure iterated-B networks.".to_string());
    s
}

/// AB3 — "almost optimal" scheduling (§8, future-work thrust 2): exact
/// minimum-regret schedules for dags that admit no IC-optimal schedule.
pub fn ab3_almost_optimal(_ctx: &Ctx) -> Section {
    let mut s = Section::new(
        "AB3",
        "Ablation: minimum-regret scheduling of non-admitting dags (§8 thrust 2)",
    );
    // Two certified non-admitters: the unary-chain tree and the n=4
    // odd-even merge network.
    let unary = {
        let mut arcs = vec![(0u32, 1), (1, 2), (0, 3)];
        for i in 0..5u32 {
            arcs.push((2, 4 + i));
        }
        arcs.push((3, 9));
        arcs.push((3, 10));
        ic_dag::builder::from_arcs(11, &arcs).unwrap()
    };
    let (oe, _) = odd_even_network(4);
    for (name, dag) in [("unary-chain tree", unary), ("odd-even net n=4", oe)] {
        s.check(
            &format!("{name}: admits no IC-optimal schedule"),
            !admits_ic_optimal(&dag).unwrap(),
        );
        let (min, sched) = min_regret_schedule(&dag).unwrap();
        s.check(
            &format!("{name}: exact min regret = {min} > 0, schedule attains it"),
            min > 0 && regret(&dag, &sched).unwrap() == min,
        );
        let greedy = greedy_regret_schedule(&dag);
        let rg = regret(&dag, &greedy).unwrap();
        s.line(format!(
            "  {name}: greedy lookahead regret {rg} (exact minimum {min})"
        ));
        let mut best_heur = u64::MAX;
        for p in Policy::all(7) {
            let r = regret(&dag, &schedule_with(&dag, &p)).unwrap();
            best_heur = best_heur.min(r);
        }
        s.check(
            &format!(
                "{name}: min-regret schedule beats or ties every heuristic (best {best_heur})"
            ),
            min <= best_heur,
        );
    }
    // Sanity: on an admitting dag, the minimum regret is 0.
    let mesh = out_mesh(4);
    let (min, _) = min_regret_schedule(&mesh).unwrap();
    s.check_eq("mesh(4): minimum regret", min, 0);
    s
}

/// AB4 — communication-aware granularity (§8, future-work thrust 3 +
/// the multi-granularity theme): on the simulated fleet, as per-arc
/// communication cost rises, the coarsened mesh overtakes the fine one.
pub fn ab4_comm_granularity(_ctx: &Ctx) -> Section {
    let mut s = Section::new(
        "AB4",
        "Ablation: communication cost vs task granularity (simulated clients)",
    );
    let levels = 12usize;
    let fine = out_mesh(levels);
    let fine_sched = out_mesh_schedule(&fine);
    let b = 3usize;
    let q = coarsen_mesh(levels, b);
    let coarse_sched = Schedule::in_id_order(&q.dag);
    // Coarse tasks carry their whole block's compute.
    let weights: Vec<f64> = q.members.iter().map(|m| m.len() as f64).collect();
    let stats = cluster_stats(&fine, &q);
    s.line(format!(
        "  mesh({levels}): {} fine tasks vs {} coarse (b = {b}); max coarse compute {}, max cross-arcs {}",
        fine.num_nodes(),
        q.dag.num_nodes(),
        stats.iter().map(|&(g, _)| g).max().unwrap(),
        stats.iter().map(|&(_, x)| x).max().unwrap(),
    ));
    s.line(table_row(
        &[
            "comm".into(),
            "fine".into(),
            "coarse".into(),
            "winner".into(),
        ],
        &[6, 9, 9, 8],
    ));
    let run = |dag: &ic_dag::Dag, sched: &Schedule, weights: Option<&Vec<f64>>, comm: f64| -> f64 {
        let mut acc = 0.0;
        for seed in 0..6u64 {
            let cfg = SimConfig {
                clients: ClientProfile {
                    num_clients: 6,
                    mean_service: 1.0,
                    jitter: 0.3,
                    straggler_prob: 0.0,
                    straggler_factor: 1.0,
                    failure_prob: 0.0,
                    comm_cost_per_arc: comm,
                    speed_factors: None,
                },
                seed,
                task_weights: weights.cloned(),
            };
            acc += simulate(dag, sched, &cfg).makespan;
        }
        acc / 6.0
    };
    let mut fine_wins_at_zero = false;
    let mut coarse_wins_at_high = false;
    for comm in [0.0f64, 0.5, 1.0, 2.0, 4.0] {
        let mf = run(&fine, &fine_sched, None, comm);
        let mc = run(&q.dag, &coarse_sched, Some(&weights), comm);
        let winner = if mf < mc { "fine" } else { "coarse" };
        if comm == 0.0 && mf <= mc {
            fine_wins_at_zero = true;
        }
        if comm >= 4.0 && mc < mf {
            coarse_wins_at_high = true;
        }
        s.line(table_row(
            &[
                format!("{comm:.1}"),
                format!("{mf:.1}"),
                format!("{mc:.1}"),
                winner.into(),
            ],
            &[6, 9, 9, 8],
        ));
    }
    s.check(
        "fine granularity wins (or ties) with free communication",
        fine_wins_at_zero,
    );
    s.check(
        "coarse granularity wins under expensive communication",
        coarse_wins_at_high,
    );
    s
}
