//! The composition operation `G1 ⇑ G2` (§2.3.1 of the paper).
//!
//! Composition starts from the disjoint sum `G1 + G2`, selects an
//! equal-size set of *sinks* of `G1` and *sources* of `G2`, and pairwise
//! identifies (merges) them. It is the generator of every complex dag
//! family in the paper: out-trees are iterated compositions of the Vee
//! dag, meshes of W-dags, butterfly networks of butterfly blocks,
//! parallel-prefix dags of N-dags, and so on.
//!
//! Because the merged nodes carry arcs *into* them from `G1` and arcs
//! *out of* them into `G2`, composition can never create a cycle.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::builder::DagBuilder;
use crate::dag::{Dag, NodeId};
use crate::error::DagError;

/// The result of a composition: the composite dag plus provenance maps.
#[derive(Debug, Clone)]
pub struct Composition {
    /// The composite dag `G1 ⇑ G2`.
    pub dag: Dag,
    /// `left_map[v]` = composite id of node `v` of `G1` (always the
    /// identity: left ids are preserved).
    pub left_map: Vec<NodeId>,
    /// `right_map[v]` = composite id of node `v` of `G2`. Paired sources
    /// map onto the sink they were merged with; the rest get fresh ids.
    pub right_map: Vec<NodeId>,
}

fn merged_label<'a>(l: &'a str, r: &'a str) -> Cow<'a, str> {
    if r.is_empty() || l == r {
        Cow::Borrowed(l)
    } else if l.is_empty() {
        Cow::Borrowed(r)
    } else {
        Cow::Owned(format!("{l}={r}"))
    }
}

/// Compose `g1 ⇑ g2`, merging each `(sink of g1, source of g2)` pair in
/// `pairing`.
///
/// Validation: every left member must be a sink of `g1`, every right
/// member a source of `g2`, and no node may appear twice.
///
/// ```
/// use ic_dag::{builder::from_arcs, compose, NodeId};
/// // Vee (0 -> 1, 0 -> 2) composed with Lambda (0 -> 2, 1 -> 2):
/// // merge Vee's two sinks with Lambda's two sources => diamond.
/// let vee = from_arcs(3, &[(0, 1), (0, 2)]).unwrap();
/// let lambda = from_arcs(3, &[(0, 2), (1, 2)]).unwrap();
/// let c = compose(&vee, &lambda, &[(NodeId(1), NodeId(0)), (NodeId(2), NodeId(1))]).unwrap();
/// assert_eq!(c.dag.num_nodes(), 4);
/// assert_eq!(c.dag.num_sources(), 1);
/// assert_eq!(c.dag.num_sinks(), 1);
/// ```
pub fn compose(g1: &Dag, g2: &Dag, pairing: &[(NodeId, NodeId)]) -> Result<Composition, DagError> {
    let n1 = g1.num_nodes();
    let n2 = g2.num_nodes();

    // Validate the pairing.
    let mut merged_with: HashMap<NodeId, NodeId> = HashMap::with_capacity(pairing.len());
    // partner[s] = the g2 source merged into g1's sink s.
    let mut partner: Vec<Option<NodeId>> = vec![None; n1];
    for &(s, t) in pairing {
        if s.index() >= n1 {
            return Err(DagError::InvalidNode(s));
        }
        if t.index() >= n2 {
            return Err(DagError::InvalidNode(t));
        }
        if !g1.is_sink(s) {
            return Err(DagError::NotASink(s));
        }
        if !g2.is_source(t) {
            return Err(DagError::NotASource(t));
        }
        if partner[s.index()].replace(t).is_some() {
            return Err(DagError::DuplicateInPairing(s));
        }
        if merged_with.insert(t, s).is_some() {
            return Err(DagError::DuplicateInPairing(t));
        }
    }

    let left_map: Vec<NodeId> = (0..n1).map(NodeId::new).collect();
    let mut right_map: Vec<NodeId> = Vec::with_capacity(n2);
    let mut next = n1;
    for i in 0..n2 {
        let v = NodeId::new(i);
        match merged_with.get(&v) {
            Some(&s) => right_map.push(s),
            None => {
                right_map.push(NodeId::new(next));
                next += 1;
            }
        }
    }

    // Nodes in id order: g1's, each merged with its partner's label,
    // then g2's fresh nodes.
    let mut b = DagBuilder::with_capacity(n1 + n2 - pairing.len());
    for (v, t) in left_map.iter().zip(&partner) {
        let l = g1.label(*v);
        b.add_node(t.map_or(Cow::Borrowed(l), |t| merged_label(l, g2.label(t))));
    }
    for (i, &cid) in right_map.iter().enumerate() {
        if cid.index() >= n1 {
            b.add_node(g2.label(NodeId::new(i)));
        }
    }
    for (u, v) in g1.arcs() {
        b.add_arc(left_map[u.index()], left_map[v.index()])?;
    }
    for (u, v) in g2.arcs() {
        b.add_arc(right_map[u.index()], right_map[v.index()])?;
    }
    let dag = b.build()?;
    Ok(Composition {
        dag,
        left_map,
        right_map,
    })
}

/// Compose `g1 ⇑ g2` merging *all* sinks of `g1` with *all* sources of
/// `g2`, paired in increasing-id order (the "diamond" pattern of Fig. 2).
///
/// Errors with [`DagError::SizeMismatch`] unless
/// `g1.num_sinks() == g2.num_sources()`.
pub fn compose_full(g1: &Dag, g2: &Dag) -> Result<Composition, DagError> {
    let sinks: Vec<NodeId> = g1.sinks().collect();
    let sources: Vec<NodeId> = g2.sources().collect();
    if sinks.len() != sources.len() {
        return Err(DagError::SizeMismatch {
            left_sinks: sinks.len(),
            right_sources: sources.len(),
        });
    }
    let pairing: Vec<(NodeId, NodeId)> = sinks.into_iter().zip(sources).collect();
    compose(g1, g2, &pairing)
}

/// Builds an *iterated* composition `G1 ⇑ G2 ⇑ ... ⇑ Gk`, tracking, for
/// every stage, the map from that stage's original node ids to composite
/// ids. These per-stage maps are exactly what Theorem 2.1's composite
/// schedule construction needs.
///
/// Left-node ids are stable across pushes, so previously recorded maps
/// remain valid as the chain grows.
#[derive(Debug, Clone)]
pub struct ChainBuilder {
    dag: Dag,
    maps: Vec<Vec<NodeId>>,
}

impl ChainBuilder {
    /// Start a chain with its first stage.
    pub fn new(g: &Dag) -> Self {
        ChainBuilder {
            dag: g.clone(),
            maps: vec![(0..g.num_nodes()).map(NodeId::new).collect()],
        }
    }

    /// The composite built so far.
    pub fn current(&self) -> &Dag {
        &self.dag
    }

    /// Map from stage `i`'s original ids to current composite ids.
    pub fn stage_map(&self, i: usize) -> &[NodeId] {
        &self.maps[i]
    }

    /// Compose the current composite with `g`, merging the given
    /// `(composite sink, g source)` pairs.
    pub fn push(&mut self, g: &Dag, pairing: &[(NodeId, NodeId)]) -> Result<(), DagError> {
        let c = compose(&self.dag, g, pairing)?;
        self.dag = c.dag;
        self.maps.push(c.right_map);
        Ok(())
    }

    /// Compose with `g`, merging all current sinks with all of `g`'s
    /// sources in increasing-id order.
    pub fn push_full(&mut self, g: &Dag) -> Result<(), DagError> {
        let sinks: Vec<NodeId> = self.dag.sinks().collect();
        let sources: Vec<NodeId> = g.sources().collect();
        if sinks.len() != sources.len() {
            return Err(DagError::SizeMismatch {
                left_sinks: sinks.len(),
                right_sources: sources.len(),
            });
        }
        let pairing: Vec<(NodeId, NodeId)> = sinks.into_iter().zip(sources).collect();
        self.push(g, &pairing)
    }

    /// Finish, returning the composite dag and all per-stage maps.
    pub fn finish(self) -> (Dag, Vec<Vec<NodeId>>) {
        (self.dag, self.maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_arcs;
    use crate::traversal::{height, is_weakly_connected};

    fn vee() -> Dag {
        from_arcs(3, &[(0, 1), (0, 2)]).unwrap()
    }

    fn lambda() -> Dag {
        from_arcs(3, &[(0, 2), (1, 2)]).unwrap()
    }

    #[test]
    fn vee_up_lambda_is_diamond() {
        let c = compose_full(&vee(), &lambda()).unwrap();
        assert_eq!(c.dag.num_nodes(), 4);
        assert_eq!(c.dag.num_arcs(), 4);
        assert_eq!(c.dag.num_sources(), 1);
        assert_eq!(c.dag.num_sinks(), 1);
        assert!(is_weakly_connected(&c.dag));
        assert_eq!(height(&c.dag), 3);
    }

    #[test]
    fn provenance_maps_are_consistent() {
        let c = compose_full(&vee(), &lambda()).unwrap();
        // Vee's sinks 1, 2 merged with Lambda's sources 0, 1.
        assert_eq!(c.right_map[0], c.left_map[1]);
        assert_eq!(c.right_map[1], c.left_map[2]);
        // Lambda's sink 2 is a fresh node.
        assert_eq!(c.right_map[2], NodeId(3));
        // All of g2's arcs exist under the map.
        let l = lambda();
        for (u, v) in l.arcs() {
            assert!(c
                .dag
                .has_arc(c.right_map[u.index()], c.right_map[v.index()]));
        }
    }

    #[test]
    fn partial_pairing_keeps_unmerged_nodes() {
        // Merge only one sink of the Vee with the source of a 2-path.
        let path = from_arcs(2, &[(0, 1)]).unwrap();
        let c = compose(&vee(), &path, &[(NodeId(1), NodeId(0))]).unwrap();
        assert_eq!(c.dag.num_nodes(), 4);
        assert_eq!(c.dag.num_sinks(), 2); // node 2 of the vee, and the path's end
        assert_eq!(c.dag.num_sources(), 1);
    }

    #[test]
    fn rejects_nonsink_left() {
        let p = from_arcs(2, &[(0, 1)]).unwrap();
        let err = compose(&p, &p, &[(NodeId(0), NodeId(0))]).unwrap_err();
        assert_eq!(err, DagError::NotASink(NodeId(0)));
    }

    #[test]
    fn rejects_nonsource_right() {
        let p = from_arcs(2, &[(0, 1)]).unwrap();
        let err = compose(&p, &p, &[(NodeId(1), NodeId(1))]).unwrap_err();
        assert_eq!(err, DagError::NotASource(NodeId(1)));
    }

    #[test]
    fn rejects_duplicate_pairing() {
        let v = vee();
        let l = lambda();
        let err = compose(&v, &l, &[(NodeId(1), NodeId(0)), (NodeId(1), NodeId(1))]).unwrap_err();
        assert_eq!(err, DagError::DuplicateInPairing(NodeId(1)));
    }

    #[test]
    fn full_composition_size_mismatch() {
        let p = from_arcs(2, &[(0, 1)]).unwrap(); // 1 sink
        let l = lambda(); // 2 sources
        assert!(matches!(
            compose_full(&p, &l).unwrap_err(),
            DagError::SizeMismatch { .. }
        ));
    }

    #[test]
    fn chain_builds_out_tree_from_vees() {
        // V ⇑ V ⇑ V: complete binary out-tree with 7 nodes.
        let v = vee();
        let mut chain = ChainBuilder::new(&v);
        // Merge sink 1 with a new Vee's source.
        chain.push(&v, &[(NodeId(1), NodeId(0))]).unwrap();
        // Merge the composite sink corresponding to original node 2.
        chain.push(&v, &[(NodeId(2), NodeId(0))]).unwrap();
        let (dag, maps) = chain.finish();
        assert_eq!(dag.num_nodes(), 7);
        assert_eq!(dag.num_sources(), 1);
        assert_eq!(dag.num_sinks(), 4);
        assert_eq!(maps.len(), 3);
        // Each stage map must point at nodes with the stage's arity.
        for map in &maps {
            assert_eq!(map.len(), 3);
            let root = map[0];
            assert_eq!(dag.out_degree(root), 2);
        }
    }

    /// 64-bit FNV-1a: pins the serialized composite without checking it in.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// Every label rule of a composite (left only, right only, equal,
    /// joined with `=`, both empty, fresh right nodes) and its arcs,
    /// pinned through the edge list.
    #[test]
    fn composite_edge_list_is_pinned() {
        let mut b1 = DagBuilder::new();
        let root = b1.add_node("root");
        let sinks = ["a", "x", "", "keep", ""].map(|l| b1.add_node(l));
        for v in sinks {
            b1.add_arc(root, v).unwrap();
        }
        let g1 = b1.build().unwrap();

        // Sources `a y named "" "" lone`, then `sink` and an unnamed tail.
        let mut b2 = DagBuilder::new();
        let sources = ["a", "y", "named", "", "", "lone"].map(|l| b2.add_node(l));
        let sink = b2.add_node("sink");
        let tail = b2.add_node("");
        for u in sources {
            b2.add_arc(u, sink).unwrap();
        }
        b2.add_arc(sources[2], tail).unwrap();
        b2.add_arc(sink, tail).unwrap();
        let g2 = b2.build().unwrap();

        // Equal, joined, right only, left only, both empty; `lone` stays fresh.
        let pairing: Vec<_> = sinks.into_iter().zip(sources).collect();
        let c = compose(&g1, &g2, &pairing).unwrap();
        let text = crate::serialize::to_edge_list(&c.dag);
        assert_eq!(fnv1a(text.as_bytes()), 0x6CDA_3B4E_22D7_8575, "{text}");
    }

    #[test]
    fn merged_labels_combine() {
        let mut b1 = DagBuilder::new();
        let r = b1.add_node("root");
        let s = b1.add_node("leaf");
        b1.add_arc(r, s).unwrap();
        let g1 = b1.build().unwrap();

        let mut b2 = DagBuilder::new();
        let src = b2.add_node("start");
        let t = b2.add_node("end");
        b2.add_arc(src, t).unwrap();
        let g2 = b2.build().unwrap();

        let c = compose(&g1, &g2, &[(s, src)]).unwrap();
        assert_eq!(c.dag.label(c.left_map[s.index()]), "leaf=start");
    }
}
