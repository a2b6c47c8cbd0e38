//! Property tests of the partitioner and planner over random dags,
//! driven by the workspace's deterministic generators
//! (`ic_dag::testgen`).
//!
//! The two invariants the federation rests on:
//!
//! 1. **Reconstruction** — the union of the per-shard sub-dags (arcs
//!    mapped back through `to_global`) plus the cut-edge list is
//!    exactly the original dag: no arc is lost, none is invented.
//! 2. **Cut soundness** — every cut edge's endpoints live on distinct
//!    shards, and the cut list is *complete*: it contains every
//!    cross-shard arc.
//!
//! Checked for every cutter (including the family-specific ones,
//! whose fallbacks must keep the invariants on non-family shapes),
//! both cut modes, and shard counts 1–4.

use std::collections::BTreeSet;

use ic_dag::testgen::random_dags;
use ic_dag::Dag;
use ic_fed::{plan, Partition};

type Cutter = fn(&Dag, u64) -> Partition;

const CUTTERS: &[(&str, Cutter)] = &[
    ("level", Partition::level_cut),
    ("butterfly", Partition::butterfly_halves),
    ("tree", Partition::tree_subtrees),
    ("auto", Partition::auto),
];

fn arc_set(dag: &Dag) -> BTreeSet<(u64, u64)> {
    dag.arcs()
        .map(|(u, v)| {
            (
                u64::try_from(u.index()).unwrap(),
                u64::try_from(v.index()).unwrap(),
            )
        })
        .collect()
}

/// Cut soundness: the assignment is total and in range, and the cut
/// list is exactly the cross-shard arcs, in arc order.
fn check_cut(dag: &Dag, part: &Partition, label: &str) {
    let shard_of = part.shard_of();
    assert_eq!(
        shard_of.len(),
        dag.num_nodes(),
        "{label}: assignment must cover every node"
    );
    assert!(
        shard_of.iter().all(|&s| s < part.shards()),
        "{label}: every shard index in range"
    );
    let expect: Vec<_> = dag
        .arcs()
        .filter(|&(u, v)| shard_of[u.index()] != shard_of[v.index()])
        .collect();
    assert_eq!(
        part.cut_edges(),
        &expect[..],
        "{label}: cut list must be exactly the cross-shard arcs"
    );
    for &(u, v) in part.cut_edges() {
        assert_ne!(
            shard_of[u.index()],
            shard_of[v.index()],
            "{label}: cut edge ({u:?},{v:?}) endpoints must differ"
        );
    }
}

/// Reconstruction: mapping every shard sub-dag's arcs back to global
/// ids and unioning with the cut edges yields the original arc set —
/// and every global node is owned (non-stub) by exactly one shard.
fn check_reconstruction(dag: &Dag, part: &Partition, label: &str) {
    let plans = plan(dag, part);
    assert_eq!(
        plans.len(),
        usize::try_from(part.shards()).unwrap(),
        "{label}: one plan per shard"
    );
    let global = arc_set(dag);
    let mut owners = vec![0usize; dag.num_nodes()];
    let mut union: BTreeSet<(u64, u64)> = BTreeSet::new();
    for p in &plans {
        assert_eq!(
            p.dag.num_nodes(),
            p.to_global.len(),
            "{label}: local-id map covers the sub-dag"
        );
        assert!(
            p.to_global.windows(2).all(|w| w[0] < w[1]),
            "{label}: local ids follow global order"
        );
        let stubs: BTreeSet<u32> = p.stubs.iter().copied().collect();
        for (local, &g) in p.to_global.iter().enumerate() {
            if !stubs.contains(&u32::try_from(local).unwrap()) {
                owners[usize::try_from(g).unwrap()] += 1;
            }
        }
        for (u, v) in p.dag.arcs() {
            union.insert((p.to_global[u.index()], p.to_global[v.index()]));
        }
    }
    assert!(
        union.is_subset(&global),
        "{label}: no shard may invent an arc"
    );
    let mut reconstructed = union;
    for &(u, v) in part.cut_edges() {
        reconstructed.insert((
            u64::try_from(u.index()).unwrap(),
            u64::try_from(v.index()).unwrap(),
        ));
    }
    assert_eq!(
        reconstructed, global,
        "{label}: sub-dags + cut edges must reconstruct the dag"
    );
    for (node, &n) in owners.iter().enumerate() {
        assert_eq!(
            n, 1,
            "{label}: node {node} must be owned by exactly one shard"
        );
    }
}

#[test]
fn every_cutter_reconstructs_random_dags() {
    for (case, dag) in random_dags(0x1CFED, 40, 24, 30).iter().enumerate() {
        for &(name, cutter) in CUTTERS {
            for shards in 1..=4u64 {
                let label = format!("case {case} cutter {name} shards {shards}");
                let part = cutter(dag, shards);
                check_cut(dag, &part, &label);
                check_reconstruction(dag, &part, &label);
            }
        }
    }
}

#[test]
fn every_cutter_reconstructs_family_instances() {
    use ic_families::butterfly::butterfly;
    use ic_families::mesh::{in_mesh, out_mesh};
    use ic_families::trees::complete_out_tree;

    let instances: Vec<(&str, Dag)> = vec![
        ("out-mesh-8", out_mesh(8)),
        ("in-mesh-6", in_mesh(6)),
        ("butterfly-3", butterfly(3)),
        ("out-tree-2x4", complete_out_tree(2, 4)),
    ];
    for (fam, dag) in &instances {
        for &(name, cutter) in CUTTERS {
            for shards in [2u64, 3] {
                let label = format!("family {fam} cutter {name} shards {shards}");
                let part = cutter(dag, shards);
                check_cut(dag, &part, &label);
                check_reconstruction(dag, &part, &label);
            }
        }
    }
}

#[test]
fn sparse_and_dense_extremes_reconstruct() {
    // Density 0 (no arcs: every partition has an empty cut) and a
    // high density stress the stub bookkeeping from both ends.
    for (tag, density) in [("sparse", 0u32), ("dense", 85u32)] {
        for (case, dag) in random_dags(0xCC0FED, 12, 16, density).iter().enumerate() {
            if density == 0 {
                assert_eq!(dag.num_arcs(), 0);
            }
            for shards in [1u64, 3] {
                let label = format!("{tag} case {case} shards {shards}");
                let part = Partition::level_cut(dag, shards);
                check_cut(dag, &part, &label);
                if density == 0 {
                    assert_eq!(part.cut_size(), 0, "{label}: arc-free dag has no cut");
                }
                check_reconstruction(dag, &part, &label);
            }
        }
    }
}
