//! Wavefront-related computations: out-meshes and in-meshes
//! (§4, Figs. 5–7).
//!
//! The out-mesh is a two-dimensional mesh truncated along its diagonal:
//! a single apex task expands wavefront-by-wavefront, each node feeding
//! its two successors on the next diagonal. The in-mesh (a *pyramid dag*)
//! is its dual. Out-meshes decompose as ▷-linear compositions of W-dags
//! of increasing source counts (Fig. 6), so the diagonal-by-diagonal
//! schedule is IC-optimal; in-meshes follow by duality.
//!
//! Coarsening (Fig. 7) clusters `b × b` blocks of mesh cells: coarse
//! compute grows quadratically in `b` while coarse communication grows
//! only linearly — the economics that make wavefronts IC-friendly.

use std::collections::HashMap;

use ic_dag::{dual, quotient, ChainBuilder, Dag, DagBuilder, NodeId, Quotient};
use ic_sched::{SchedError, Schedule};

use crate::primitives::w_dag;

/// The out-mesh with `levels` diagonals (Fig. 5 left): diagonal `k` has
/// `k + 1` nodes `(r, c)` with `r + c = k`; node `(r, c)` has children
/// `(r + 1, c)` and `(r, c + 1)` when they exist. Ids are
/// diagonal-major: `id(k, r) = k(k+1)/2 + r`, so id order *is* the
/// IC-optimal diagonal schedule.
///
/// ```
/// let m = ic_families::mesh::out_mesh(4);
/// assert_eq!((m.num_nodes(), m.num_sources(), m.num_sinks()), (10, 1, 4));
/// ```
///
/// # Panics
/// Panics if `levels == 0`.
pub fn out_mesh(levels: usize) -> Dag {
    assert!(levels > 0, "a mesh needs at least one diagonal");
    let count = levels * (levels + 1) / 2;
    let mut b = DagBuilder::with_capacity(count);
    // Each label is written into one reused buffer: no heap string per node.
    let mut label = String::new();
    for k in 0..levels {
        for r in 0..=k {
            label.clear();
            label.push('(');
            push_decimal(&mut label, r);
            label.push(',');
            push_decimal(&mut label, k - r);
            label.push(')');
            b.add_node(&label);
        }
    }
    let id = |k: usize, r: usize| NodeId::new(k * (k + 1) / 2 + r);
    for k in 0..levels.saturating_sub(1) {
        for r in 0..=k {
            // (r, c) -> (r+1, c): index r+1 on diagonal k+1.
            b.add_arc(id(k, r), id(k + 1, r + 1)).expect("valid");
            // (r, c) -> (r, c+1): index r on diagonal k+1.
            b.add_arc(id(k, r), id(k + 1, r)).expect("valid");
        }
    }
    b.build().expect("meshes are acyclic")
}

/// Append `x` in decimal; `write!` costs about half again as much on
/// mesh:500's 250 500 numbers.
fn push_decimal(out: &mut String, x: usize) {
    if x >= 10 {
        push_decimal(out, x / 10);
    }
    out.push(char::from(b'0' + (x % 10) as u8));
}

/// The in-mesh (pyramid dag) with `levels` diagonals: the dual of
/// [`out_mesh`].
pub fn in_mesh(levels: usize) -> Dag {
    dual(&out_mesh(levels))
}

/// The `(r, c)` coordinates of every node of `out_mesh(levels)`,
/// indexed by node id.
pub fn mesh_coords(levels: usize) -> Vec<(usize, usize)> {
    let mut coords = Vec::with_capacity(levels * (levels + 1) / 2);
    for k in 0..levels {
        for r in 0..=k {
            coords.push((r, k - r));
        }
    }
    coords
}

/// The IC-optimal schedule of an out-mesh: diagonal by diagonal, each
/// diagonal's nodes consecutively — id order under our numbering.
pub fn out_mesh_schedule(mesh: &Dag) -> Schedule {
    Schedule::in_id_order(mesh)
}

/// The IC-optimal schedule of an in-mesh, by Theorem 2.2 duality:
/// reverse the packets of the dual out-mesh's diagonal schedule.
pub fn in_mesh_schedule(mesh: &Dag) -> Result<Schedule, SchedError> {
    let out = dual(mesh);
    ic_sched::duality::dual_schedule(&out, &out_mesh_schedule(&out))
}

/// Fig. 6: the out-mesh with `levels` diagonals built as the ▷-linear
/// composition `W_1 ⇑ W_2 ⇑ ... ⇑ W_{levels-1}`. Returns the composite,
/// the per-stage maps, and the stage dags — ready for Theorem 2.1.
///
/// # Panics
/// Panics if `levels < 2` (the decomposition needs at least one W-dag).
pub fn out_mesh_as_w_chain(levels: usize) -> (Dag, Vec<Vec<NodeId>>, Vec<Dag>) {
    assert!(levels >= 2, "W-decomposition needs at least two diagonals");
    let stages: Vec<Dag> = (1..levels).map(w_dag).collect();
    let mut chain = ChainBuilder::new(&stages[0]);
    for s in &stages[1..] {
        chain
            .push_full(s)
            .expect("W_k has k+1 sinks = W_{k+1}'s sources");
    }
    let (dag, maps) = chain.finish();
    (dag, maps, stages)
}

/// The full rectangular mesh of `rows × cols` cells: cell `(r, c)` has
/// children `(r+1, c)` and `(r, c+1)` — the general wavefront array of
/// §4 / \[22\] (our triangular [`out_mesh`] is its corner). Ids are
/// diagonal-major (diagonal `k = r + c`, then increasing `r`), so id
/// order is the wavefront schedule.
///
/// # Panics
/// Panics if either dimension is zero.
pub fn rect_mesh(rows: usize, cols: usize) -> Dag {
    assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
    let id_map = rect_mesh_ids(rows, cols);
    let mut b = DagBuilder::with_capacity(rows * cols);
    // Create nodes in id order with (r, c) labels.
    let mut by_id: Vec<(usize, usize)> = vec![(0, 0); rows * cols];
    for (r, row) in id_map.iter().enumerate() {
        for (c, &id) in row.iter().enumerate() {
            by_id[id.index()] = (r, c);
        }
    }
    for &(r, c) in &by_id {
        b.add_node(format!("({r},{c})"));
    }
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                b.add_arc(id_map[r][c], id_map[r + 1][c]).expect("valid");
            }
            if c + 1 < cols {
                b.add_arc(id_map[r][c], id_map[r][c + 1]).expect("valid");
            }
        }
    }
    b.build().expect("meshes are acyclic")
}

/// Node ids of [`rect_mesh`] indexed by `(row, col)` — diagonal-major.
pub fn rect_mesh_ids(rows: usize, cols: usize) -> Vec<Vec<NodeId>> {
    let mut ids = vec![vec![NodeId(0); cols]; rows];
    let mut next = 0usize;
    for k in 0..rows + cols - 1 {
        let r_lo = k.saturating_sub(cols - 1);
        let r_hi = k.min(rows - 1);
        for r in r_lo..=r_hi {
            ids[r][k - r] = NodeId::new(next);
            next += 1;
        }
    }
    ids
}

/// The wavefront (diagonal) schedule of a rectangular mesh — id order
/// under our numbering.
pub fn rect_mesh_schedule(mesh: &Dag) -> Schedule {
    Schedule::in_id_order(mesh)
}

/// The dual of Fig. 6: the in-mesh with `levels` diagonals as the
/// ▷-linear composition `M_{levels-1} ⇑ M_{levels-2} ⇑ ... ⇑ M_1` —
/// M-dags of *decreasing* size (by Theorem 2.3, `W_s ▷ W_t` for
/// `s ≤ t` dualizes to `M_t ▷ M_s`, so larger M-dags take priority).
/// Returns the composite, per-stage maps, and the stage dags.
///
/// # Panics
/// Panics if `levels < 2`.
pub fn in_mesh_as_m_chain(levels: usize) -> (Dag, Vec<Vec<NodeId>>, Vec<Dag>) {
    assert!(levels >= 2, "M-decomposition needs at least two diagonals");
    let stages: Vec<Dag> = (1..levels).rev().map(crate::primitives::m_dag).collect();
    let mut chain = ChainBuilder::new(&stages[0]);
    for s in &stages[1..] {
        chain
            .push_full(s)
            .expect("M_k has k sinks = M_{k-1}'s k sources");
    }
    let (dag, maps) = chain.finish();
    (dag, maps, stages)
}

/// Fig. 7: coarsen an out-mesh by clustering cells into `b × b` blocks
/// (cluster of cell `(r, c)` is `(r / b, c / b)`). The quotient of a
/// `levels`-diagonal mesh with `b | levels` is again an out-mesh, with
/// `levels / b` diagonals.
///
/// # Panics
/// Panics if `b == 0`.
pub fn coarsen_mesh(levels: usize, b: usize) -> Quotient {
    assert!(b > 0);
    let mesh = out_mesh(levels);
    let coords = mesh_coords(levels);
    // Assign contiguous cluster ids in diagonal-major order of blocks,
    // which keeps the quotient's id order equal to its diagonal order.
    let mut ids: HashMap<(usize, usize), u32> = HashMap::new();
    let mut assignment = Vec::with_capacity(coords.len());
    let mut blocks: Vec<(usize, usize)> = coords.iter().map(|&(r, c)| (r / b, c / b)).collect();
    let mut ordered: Vec<(usize, usize)> = blocks.clone();
    ordered.sort_by_key(|&(r, c)| (r + c, r));
    ordered.dedup();
    for (i, blk) in ordered.iter().enumerate() {
        ids.insert(*blk, i as u32);
    }
    for blk in blocks.drain(..) {
        assignment.push(ids[&blk]);
    }
    quotient(&mesh, &assignment).expect("block clustering of a mesh is acyclic")
}

/// Per-cluster statistics of a coarsening: `(granularity, cross_arcs)` —
/// the number of fine tasks absorbed (compute volume) and the number of
/// fine arcs crossing the cluster boundary (communication volume).
/// Backs the §4 claim that compute grows quadratically with block
/// sidelength while communication grows only linearly.
pub fn cluster_stats(fine: &Dag, q: &Quotient) -> Vec<(usize, usize)> {
    let mut cross = vec![0usize; q.num_clusters()];
    for (u, v) in fine.arcs() {
        let (cu, cv) = (q.assignment[u.index()], q.assignment[v.index()]);
        if cu != cv {
            cross[cu as usize] += 1;
            cross[cv as usize] += 1;
        }
    }
    q.members
        .iter()
        .zip(cross)
        .map(|(m, x)| (m.len(), x))
        .collect()
}

/// Registered paper claims for wavefront meshes (Figs. 5\u{2013}7, \u{00a7}4):
/// the diagonal schedule, its Theorem 2.2 dual, and the \u{25b7}-linear
/// W-chain decomposition that Theorem 2.1 composes.
pub fn claims() -> Vec<crate::claims::Claim> {
    use crate::claims::{Claim, Guarantee};
    use crate::primitives::{ic_schedule, w_dag};
    let w_chain: Vec<(Dag, Schedule)> = (1..=5)
        .map(|s| {
            let w = w_dag(s);
            let sch = ic_schedule(&w);
            (w, sch)
        })
        .collect();
    let m = out_mesh(5);
    let sm = out_mesh_schedule(&m);
    let im = in_mesh(5);
    let sim = in_mesh_schedule(&im).expect("in-mesh schedule exists");
    let big = out_mesh(40);
    let sbig = out_mesh_schedule(&big);
    vec![
        Claim::new(
            "mesh/out-mesh-5",
            "Figs. 5\u{2013}7, \u{00a7}4",
            "the diagonal-by-diagonal schedule is IC-optimal; the mesh is the \u{25b7}-linear chain W\u{2081} \u{25b7} W\u{2082} \u{25b7} \u{2026}",
            m,
            sm,
            Guarantee::IcOptimal,
        )
        .with_priority_chain(w_chain),
        Claim::new(
            "mesh/in-mesh-5",
            "\u{00a7}4 + Thm 2.2",
            "the packet-reversed diagonal schedule is IC-optimal on the in-mesh",
            im,
            sim,
            Guarantee::IcOptimal,
        ),
        Claim::new(
            "mesh/out-mesh-40",
            "\u{00a7}4",
            "the diagonal schedule stays a valid execution order at scale (820 nodes)",
            big,
            sbig,
            Guarantee::ValidOrder,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_sched::compose_schedule::{linear_composition_schedule, Stage};
    use ic_sched::optimal::{admits_ic_optimal, is_ic_optimal};
    use ic_sched::priority::is_priority_chain;

    /// 64-bit FNV-1a: pins the serialized mesh without checking it in.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// The labels, ids and arcs `out_mesh` builds, pinned through the
    /// edge list: a faster builder must produce the same dag.
    #[test]
    fn out_mesh_edge_list_is_pinned() {
        let text = ic_dag::serialize::to_edge_list(&out_mesh(40));
        assert_eq!(fnv1a(text.as_bytes()), 0xA165_B8A1_C774_6653);
    }

    #[test]
    fn mesh_counts() {
        let m = out_mesh(4);
        assert_eq!(m.num_nodes(), 10);
        assert_eq!(m.num_sources(), 1);
        assert_eq!(m.num_sinks(), 4);
        assert_eq!(m.num_arcs(), 2 * (1 + 2 + 3));
    }

    #[test]
    fn mesh_degrees() {
        let m = out_mesh(3);
        // Apex has 2 children; interior diagonal nodes 2; last diagonal 0.
        assert_eq!(m.out_degree(NodeId(0)), 2);
        // Middle node of last diagonal has 2 parents; corners have 1.
        assert_eq!(m.in_degree(NodeId(3)), 1);
        assert_eq!(m.in_degree(NodeId(4)), 2);
        assert_eq!(m.in_degree(NodeId(5)), 1);
    }

    #[test]
    fn diagonal_schedule_is_ic_optimal() {
        for levels in 2..=5 {
            let m = out_mesh(levels);
            assert!(
                is_ic_optimal(&m, &out_mesh_schedule(&m)).unwrap(),
                "levels = {levels}"
            );
        }
    }

    #[test]
    fn in_mesh_dual_schedule_is_ic_optimal() {
        for levels in 2..=5 {
            let m = in_mesh(levels);
            let s = in_mesh_schedule(&m).unwrap();
            assert!(is_ic_optimal(&m, &s).unwrap(), "levels = {levels}");
        }
    }

    #[test]
    fn w_chain_reconstructs_the_mesh() {
        for levels in 2..=6 {
            let direct = out_mesh(levels);
            let (composed, _, _) = out_mesh_as_w_chain(levels);
            assert!(
                ic_dag::iso::are_isomorphic(&composed, &direct),
                "levels = {levels}: W-chain must be isomorphic to the mesh"
            );
        }
    }

    #[test]
    fn w_chain_is_priority_linear_and_theorem_2_1_applies() {
        let (composite, maps, stages) = out_mesh_as_w_chain(5);
        let schedules: Vec<Schedule> = stages.iter().map(Schedule::in_id_order).collect();
        let st: Vec<Stage<'_>> = stages
            .iter()
            .zip(&maps)
            .zip(&schedules)
            .map(|((dag, map), schedule)| Stage { dag, map, schedule })
            .collect();
        let pairs: Vec<(&Dag, &Schedule)> = stages.iter().zip(&schedules).collect();
        assert!(is_priority_chain(&pairs), "W_1 ▷ W_2 ▷ ... must hold");
        let sched = linear_composition_schedule(&composite, &st).unwrap();
        assert!(is_ic_optimal(&composite, &sched).unwrap());
    }

    #[test]
    fn rect_mesh_structure() {
        let m = rect_mesh(3, 4);
        assert_eq!(m.num_nodes(), 12);
        // Arcs: down (2*4) + right (3*3).
        assert_eq!(m.num_arcs(), 8 + 9);
        assert_eq!(m.num_sources(), 1);
        assert_eq!(m.num_sinks(), 1);
        assert_eq!(ic_dag::traversal::height(&m), 3 + 4 - 1);
    }

    #[test]
    fn rect_mesh_wavefront_schedule_is_ic_optimal() {
        for (rows, cols) in [(2usize, 2usize), (2, 3), (3, 3), (2, 6), (3, 5)] {
            let m = rect_mesh(rows, cols);
            assert!(
                is_ic_optimal(&m, &rect_mesh_schedule(&m)).unwrap(),
                "{rows}x{cols}"
            );
        }
    }

    #[test]
    fn rect_mesh_degenerate_shapes() {
        // 1 x n is a chain.
        let chain = rect_mesh(1, 5);
        assert_eq!(chain.num_arcs(), 4);
        assert_eq!(ic_dag::traversal::height(&chain), 5);
        // Triangular corner: rect(1,1) is a point.
        assert_eq!(rect_mesh(1, 1).num_nodes(), 1);
    }

    #[test]
    fn rect_mesh_ids_cover_diagonals() {
        let ids = rect_mesh_ids(3, 3);
        // Apex first, anti-diagonal last.
        assert_eq!(ids[0][0], NodeId(0));
        assert_eq!(ids[2][2], NodeId(8));
        // Diagonal k=2 holds ids 3..6.
        let mut diag2: Vec<u32> = vec![ids[0][2].0, ids[1][1].0, ids[2][0].0];
        diag2.sort_unstable();
        assert_eq!(diag2, vec![3, 4, 5]);
    }

    #[test]
    fn m_chain_reconstructs_the_in_mesh() {
        for levels in 2..=6 {
            let direct = in_mesh(levels);
            let (composed, _, _) = in_mesh_as_m_chain(levels);
            assert!(
                ic_dag::iso::are_isomorphic(&composed, &direct),
                "levels = {levels}: M-chain must be isomorphic to the in-mesh"
            );
        }
    }

    #[test]
    fn m_chain_is_priority_linear_and_theorem_2_1_applies() {
        // The dual of the Fig. 6 argument: M_4 ▷ M_3 ▷ M_2 ▷ M_1
        // (larger first, by Theorem 2.3), and the composite schedule is
        // IC-optimal.
        let (composite, maps, stages) = in_mesh_as_m_chain(5);
        let schedules: Vec<Schedule> = stages
            .iter()
            .map(|d| {
                ic_sched::optimal::find_ic_optimal(d)
                    .unwrap()
                    .expect("M-dags admit IC-optimal schedules")
            })
            .collect();
        let pairs: Vec<(&Dag, &Schedule)> = stages.iter().zip(&schedules).collect();
        assert!(is_priority_chain(&pairs), "M_{{s}} ▷ M_{{t}} for s >= t");
        let st: Vec<Stage<'_>> = stages
            .iter()
            .zip(&maps)
            .zip(&schedules)
            .map(|((dag, map), schedule)| Stage { dag, map, schedule })
            .collect();
        let sched = linear_composition_schedule(&composite, &st).unwrap();
        assert!(is_ic_optimal(&composite, &sched).unwrap());
    }

    #[test]
    fn uniform_coarsening_yields_smaller_mesh() {
        let q = coarsen_mesh(6, 2);
        let expected = out_mesh(3);
        assert_eq!(q.dag.num_nodes(), expected.num_nodes());
        assert_eq!(q.dag.num_arcs(), expected.num_arcs());
        assert!(admits_ic_optimal(&q.dag).unwrap());
        // With our diagonal-major cluster numbering the quotient *is*
        // the smaller mesh, arc for arc.
        assert_eq!(q.dag.num_sources(), 1);
        for (u, v) in expected.arcs() {
            assert!(q.dag.has_arc(u, v));
        }
    }

    #[test]
    fn nonuniform_coarsening_still_valid() {
        // b does not divide levels: blocks at the diagonal boundary are
        // ragged but the quotient stays acyclic and schedulable.
        let q = coarsen_mesh(7, 3);
        assert!(admits_ic_optimal(&q.dag).unwrap());
    }

    #[test]
    fn quadratic_compute_linear_communication() {
        // §4: coarse compute ~ b², coarse communication ~ b.
        let levels = 12;
        let fine = out_mesh(levels);
        for b in [2usize, 3, 4] {
            let q = coarsen_mesh(levels, b);
            let stats = cluster_stats(&fine, &q);
            // Interior blocks have granularity exactly b² and boundary
            // arcs exactly 4b (2b in, 2b out).
            let interior: Vec<_> = stats.iter().filter(|&&(g, _)| g == b * b).collect();
            assert!(!interior.is_empty(), "b = {b} should have full blocks");
            for &&(g, x) in &interior {
                assert_eq!(g, b * b);
                assert!(x <= 4 * b, "communication must be linear in b, got {x}");
            }
        }
    }

    #[test]
    fn coords_match_ids() {
        let coords = mesh_coords(4);
        assert_eq!(coords.len(), 10);
        assert_eq!(coords[0], (0, 0));
        assert_eq!(coords[1], (0, 1)); // diagonal 1: r=0 => (0,1)
        assert_eq!(coords[2], (1, 0));
        assert_eq!(coords[9], (3, 0));
    }

    #[test]
    fn single_diagonal_mesh() {
        let m = out_mesh(1);
        assert_eq!(m.num_nodes(), 1);
        assert_eq!(m.num_arcs(), 0);
    }
}
