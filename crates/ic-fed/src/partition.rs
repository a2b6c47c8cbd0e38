//! Family-aware dag partitioning.
//!
//! A [`Partition`] assigns every node of one dag to a shard and
//! records the *cut edges* — arcs whose endpoints land on different
//! shards, which at serve time become `remote-done` notifications
//! between shard servers. The cutters exploit the paper's family
//! structure to keep the cut small:
//!
//! * [`Partition::level_cut`] — contiguous topological-depth bands
//!   balanced by node count. A triangular (out-/in-)mesh's depth
//!   levels are its diagonals, the steps the paper schedules it by, so
//!   this is also the mesh cutter: only the arcs out of each band's
//!   last diagonal are cut. On any other dag it is the generic
//!   fallback;
//! * [`Partition::butterfly_halves`] — column-halves of a butterfly
//!   `B_d`: after the first `log2(shards)` levels the halves are
//!   independent sub-butterflies, so only those early levels are cut;
//! * [`Partition::tree_subtrees`] — whole depth-1 subtrees of a tree,
//!   balanced greedily by subtree size, so only the root arcs are cut;
//! * [`Partition::auto`] — recognize the family via
//!   [`ic_families::symbolic::certify`] and pick the matching cutter.
//!
//! Every cutter produces a *total* assignment: the union of the
//! per-shard sub-dags (plus the cut edges) always reconstructs the
//! original dag exactly — `crates/ic-fed/tests/partition_props.rs`
//! pins that round trip property on random dags.

use std::collections::VecDeque;

use ic_dag::traversal::levels;
use ic_dag::{Dag, NodeId};
use ic_families::symbolic::certify;

/// A shard index (`0..shards`), sized to match the v3 wire frames.
pub type ShardId = u64;

/// A total node→shard assignment plus the derived cut-edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    shard_of: Vec<ShardId>,
    shards: u64,
    cut_edges: Vec<(NodeId, NodeId)>,
}

impl Partition {
    /// Build from an in-range assignment, deriving the cut edges.
    fn assemble(dag: &Dag, shard_of: Vec<ShardId>, shards: u64) -> Partition {
        let cut_edges = dag
            .arcs()
            .filter(|&(u, v)| shard_of[u.index()] != shard_of[v.index()])
            .collect();
        Partition {
            shard_of,
            shards,
            cut_edges,
        }
    }

    /// Per-node shard assignment (`shard_of[node] = shard`).
    pub fn shard_of(&self) -> &[ShardId] {
        &self.shard_of
    }

    /// Number of shards the assignment targets.
    pub fn shards(&self) -> u64 {
        self.shards
    }

    /// Arcs whose endpoints live on different shards, in arc order.
    pub fn cut_edges(&self) -> &[(NodeId, NodeId)] {
        &self.cut_edges
    }

    /// Number of cut edges.
    pub fn cut_size(&self) -> usize {
        self.cut_edges.len()
    }

    /// Contiguous topological-depth bands balanced by node count.
    /// Works for any dag; a band's only remote predecessors are in
    /// earlier bands. On a mesh each band is a run of whole diagonals.
    pub fn level_cut(dag: &Dag, shards: u64) -> Partition {
        let shards = shards.max(1);
        let depth = levels(dag);
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        // Node count per depth level, then greedy contiguous banding.
        let mut per_level = vec![0usize; max_depth + 1];
        for &d in &depth {
            per_level[d] += 1;
        }
        let band_of_level = band_levels(&per_level, shards, dag.num_nodes());
        let shard_of = depth.iter().map(|&d| band_of_level[d]).collect();
        Partition::assemble(dag, shard_of, shards)
    }

    /// Butterfly cutter: split `B_d` (row-major numbering, `(d+1)`
    /// rows of `2^d` columns) by the high bits of the column index.
    /// Only the first `log2(halves)` levels have cross-half arcs, so
    /// the cut is confined to those early levels and each half is an
    /// independent sub-butterfly below them. Falls back to
    /// [`Partition::level_cut`] when the node count is not of the form
    /// `(d+1)·2^d` or `shards` exceeds the column count.
    pub fn butterfly_halves(dag: &Dag, shards: u64) -> Partition {
        let shards = shards.max(1);
        let n = dag.num_nodes();
        let Some(d) = (1usize..=40).find(|&d| (d + 1) << d >= n) else {
            return Partition::level_cut(dag, shards);
        };
        if (d + 1) << d != n {
            return Partition::level_cut(dag, shards);
        }
        let cols = 1usize << d;
        // Round the shard count down to a power of two that divides
        // the columns; the remainder shards stay empty-handed only
        // when `shards` is not a power of two, so fall back then.
        let halves = usize::try_from(shards).unwrap_or(1).min(cols);
        if !halves.is_power_of_two() {
            return Partition::level_cut(dag, shards);
        }
        let shift = d - halves.trailing_zeros() as usize;
        let shard_of = (0..n)
            .map(|i| u64::try_from((i % cols) >> shift).unwrap_or(0))
            .collect();
        Partition::assemble(dag, shard_of, shards)
    }

    /// Tree cutter: assign whole depth-1 subtrees (greedily, largest
    /// first onto the least-loaded shard), leaving only the root arcs
    /// cut. Works on out-trees (single source, unique parents) and,
    /// mirrored, on in-trees (single sink, unique children); any other
    /// shape falls back to [`Partition::level_cut`].
    pub fn tree_subtrees(dag: &Dag, shards: u64) -> Partition {
        let shards = shards.max(1);
        let n = dag.num_nodes();
        if n == 0 {
            return Partition::assemble(dag, Vec::new(), shards);
        }
        let out_tree = dag.num_sources() == 1 && dag.node_ids().all(|v| dag.in_degree(v) <= 1);
        let in_tree = dag.num_sinks() == 1 && dag.node_ids().all(|v| dag.out_degree(v) <= 1);
        let (root, down) = if out_tree {
            let Some(root) = dag.sources().next() else {
                return Partition::level_cut(dag, shards);
            };
            (root, true)
        } else if in_tree {
            let Some(root) = dag.sinks().next() else {
                return Partition::level_cut(dag, shards);
            };
            (root, false)
        } else {
            return Partition::level_cut(dag, shards);
        };

        // Anchor of a node: the root-adjacent node on its unique path
        // to/from the root. BFS outward from each anchor.
        let anchors: Vec<NodeId> = if down {
            dag.children(root).to_vec()
        } else {
            dag.parents(root).to_vec()
        };
        let mut anchor_of: Vec<Option<usize>> = vec![None; n];
        let mut sizes = vec![0usize; anchors.len()];
        for (a, &start) in anchors.iter().enumerate() {
            let mut q = VecDeque::from([start]);
            while let Some(v) = q.pop_front() {
                if anchor_of[v.index()].is_some() {
                    continue;
                }
                anchor_of[v.index()] = Some(a);
                sizes[a] += 1;
                let next = if down {
                    dag.children(v)
                } else {
                    dag.parents(v)
                };
                q.extend(next.iter().copied());
            }
        }
        // Largest subtree first onto the least-loaded shard.
        let mut order: Vec<usize> = (0..anchors.len()).collect();
        order.sort_by_key(|&a| std::cmp::Reverse(sizes[a]));
        let nshards = usize::try_from(shards).unwrap_or(1).max(1);
        let mut load = vec![0usize; nshards];
        let mut shard_of_anchor = vec![0u64; anchors.len()];
        for a in order {
            let (best, _) = load
                .iter()
                .enumerate()
                .min_by_key(|&(_, &l)| l)
                .unwrap_or((0, &0));
            shard_of_anchor[a] = u64::try_from(best).unwrap_or(0);
            load[best] += sizes[a];
        }
        let shard_of = (0..n)
            .map(|i| match anchor_of[i] {
                Some(a) => shard_of_anchor[a],
                None => 0, // the root (and any stray unreachable node)
            })
            .collect();
        Partition::assemble(dag, shard_of, shards)
    }

    /// Recognize the dag as a canonical family instance (via
    /// [`ic_families::symbolic::certify`]) and pick the family's
    /// cutter: butterflies and trees get their own, meshes (whose
    /// diagonals are their depth levels) and unrecognized dags get
    /// [`Partition::level_cut`].
    pub fn auto(dag: &Dag, shards: u64) -> Partition {
        match certify(dag) {
            Some(cert) if cert.family.starts_with("butterfly") => {
                Partition::butterfly_halves(dag, shards)
            }
            Some(cert)
                if cert.family.starts_with("out-tree") || cert.family.starts_with("in-tree") =>
            {
                Partition::tree_subtrees(dag, shards)
            }
            _ => Partition::level_cut(dag, shards),
        }
    }
}

/// Greedy contiguous banding: walk the levels in order, moving to the
/// next band whenever the running node count passes the proportional
/// target, so every band is non-empty and roughly `n / shards` nodes.
fn band_levels(per_level: &[usize], shards: u64, n: usize) -> Vec<ShardId> {
    let nshards = usize::try_from(shards).unwrap_or(1).max(1);
    let mut band = 0usize;
    let mut seen = 0usize;
    let mut out = Vec::with_capacity(per_level.len());
    for (i, &count) in per_level.iter().enumerate() {
        out.push(u64::try_from(band).unwrap_or(0));
        seen += count;
        let levels_left = per_level.len() - i - 1;
        let bands_left = nshards - band - 1;
        // Advance when past the proportional share, but never leave
        // more bands than levels remaining.
        if band + 1 < nshards
            && (seen * nshards >= (band + 1) * n || levels_left <= bands_left)
            && levels_left >= 1
        {
            band += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_dag::builder::from_arcs;
    use ic_families::butterfly::butterfly;
    use ic_families::mesh::{in_mesh, mesh_coords, out_mesh};
    use ic_families::trees::complete_out_tree;

    fn reconstructs(dag: &Dag, p: &Partition) {
        // Every arc is either inside one shard or on the cut list.
        let mut cut = p.cut_edges().to_vec();
        cut.sort_unstable();
        for (u, v) in dag.arcs() {
            let crosses = p.shard_of()[u.index()] != p.shard_of()[v.index()];
            assert_eq!(crosses, cut.binary_search(&(u, v)).is_ok());
        }
        // Every declared shard id is in range and all nodes assigned.
        assert_eq!(p.shard_of().len(), dag.num_nodes());
        assert!(p.shard_of().iter().all(|&s| s < p.shards()));
    }

    #[test]
    fn level_cut_cuts_one_diagonal_per_mesh_boundary() {
        let mesh = out_mesh(11); // 66 nodes, rows 1..=11
        let p = Partition::level_cut(&mesh, 2);
        reconstructs(&mesh, &p);
        // A row-band boundary of an out-mesh cuts the two arcs out of
        // each node on the boundary row: at most 2·(row length).
        assert!(p.cut_size() <= 2 * 11, "cut {} too large", p.cut_size());
        // Both shards are populated and roughly balanced.
        let on0 = p.shard_of().iter().filter(|&&s| s == 0).count();
        assert!((20..=46).contains(&on0), "unbalanced: {on0}/66");
    }

    /// The in-mesh's diagonals are its depth levels too, longest
    /// first: each band is a run of whole diagonals, and one band
    /// boundary cuts at most two arcs per node of a diagonal.
    #[test]
    fn level_cut_bands_an_in_mesh_by_whole_diagonals() {
        let mesh = in_mesh(11);
        let p = Partition::level_cut(&mesh, 2);
        reconstructs(&mesh, &p);
        assert!(p.cut_size() <= 2 * 11, "cut {} too large", p.cut_size());
        // Diagonals numbered from the sources: the longest is step 0.
        let coords = mesh_coords(11);
        let step = |v: usize| 10 - (coords[v].0 + coords[v].1);
        let mut shard_of_step = std::collections::BTreeMap::new();
        for (v, &s) in p.shard_of().iter().enumerate() {
            let first = *shard_of_step.entry(step(v)).or_insert(s);
            assert_eq!(first, s, "diagonal {} is split", step(v));
        }
        let bands: Vec<_> = shard_of_step.values().copied().collect();
        assert!(bands.windows(2).all(|w| w[0] <= w[1]), "bands {bands:?}");
        assert_eq!(bands.first().zip(bands.last()), Some((&0, &1)));
    }

    #[test]
    fn butterfly_halves_confine_the_cut_to_early_levels() {
        let b = butterfly(3); // 32 nodes, 4 rows of 8 columns
        let p = Partition::butterfly_halves(&b, 2);
        reconstructs(&b, &p);
        // Only level-0→1 arcs can cross the column halves of B_3.
        for &(u, _) in p.cut_edges() {
            assert!(u.index() < 8, "cut arc leaves row {}", u.index() / 8);
        }
        let on0 = p.shard_of().iter().filter(|&&s| s == 0).count();
        assert_eq!(on0, 16, "exact half of the butterfly");
    }

    #[test]
    fn tree_subtrees_cut_only_root_arcs() {
        let t = complete_out_tree(3, 3); // 40 nodes
        let p = Partition::tree_subtrees(&t, 3);
        reconstructs(&t, &p);
        // Only arcs out of the root may be cut.
        for &(u, _) in p.cut_edges() {
            assert_eq!(u.index(), 0, "non-root arc cut");
        }
        assert!(p.cut_size() <= 3);
    }

    #[test]
    fn level_cut_handles_arbitrary_dags_and_single_shard_is_cutless() {
        let dag = from_arcs(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)]).unwrap();
        let p = Partition::level_cut(&dag, 3);
        reconstructs(&dag, &p);
        let p1 = Partition::level_cut(&dag, 1);
        assert_eq!(p1.cut_size(), 0);
        assert!(p1.shard_of().iter().all(|&s| s == 0));
    }

    #[test]
    fn auto_picks_the_family_cutter() {
        let mesh = out_mesh(11);
        assert_eq!(
            Partition::auto(&mesh, 2),
            Partition::level_cut(&mesh, 2),
            "canonical mesh routes to the depth-band cutter"
        );
        let mesh = in_mesh(11);
        assert_eq!(Partition::auto(&mesh, 3), Partition::level_cut(&mesh, 3));
        let t = complete_out_tree(2, 4);
        assert_eq!(Partition::auto(&t, 2), Partition::tree_subtrees(&t, 2));
        let b = butterfly(3);
        assert_eq!(Partition::auto(&b, 2), Partition::butterfly_halves(&b, 2));
        let odd = from_arcs(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        assert_eq!(Partition::auto(&odd, 2), Partition::level_cut(&odd, 2));
    }
}
