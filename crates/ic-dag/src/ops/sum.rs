//! Disjoint sums of dags (`G1 + G2`, footnote 4 of the paper).

use crate::dag::{Dag, NodeId};

/// The result of [`sum`]: the combined dag plus the id translations for
/// each operand.
#[derive(Debug, Clone)]
pub struct Sum {
    /// The disjoint union `G1 + G2`.
    pub dag: Dag,
    /// `left_map[v]` = id in `dag` of node `v` of `G1` (identity).
    pub left_map: Vec<NodeId>,
    /// `right_map[v]` = id in `dag` of node `v` of `G2` (shifted).
    pub right_map: Vec<NodeId>,
}

/// Disjoint union: node set is the union of (renamed) node sets, arc set
/// the union of arc sets. `G1`'s ids are preserved; `G2`'s are shifted by
/// `G1.num_nodes()`.
pub fn sum(g1: &Dag, g2: &Dag) -> Sum {
    let n1 = g1.num_nodes();
    let n2 = g2.num_nodes();
    let shift = |v: NodeId| NodeId::new(v.index() + n1);

    let splice = |off1: &[u32], flat1: &[NodeId], off2: &[u32], flat2: &[NodeId]| {
        let base = *off1.last().unwrap_or(&0);
        let mut off: Vec<u32> = off1.to_vec();
        off.extend(off2[1..].iter().map(|&o| o + base));
        let mut flat: Vec<NodeId> = flat1.to_vec();
        flat.extend(flat2.iter().map(|&v| shift(v)));
        (off, flat)
    };

    let (children_off, children_flat) = splice(
        &g1.children_off,
        &g1.children_flat,
        &g2.children_off,
        &g2.children_flat,
    );
    let (parents_off, parents_flat) = splice(
        &g1.parents_off,
        &g1.parents_flat,
        &g2.parents_off,
        &g2.parents_flat,
    );
    let mut labels = g1.labels.clone();
    labels.extend(&g2.labels);

    Sum {
        dag: Dag::from_csr(
            children_off,
            children_flat,
            parents_off,
            parents_flat,
            labels,
        ),
        left_map: (0..n1).map(NodeId::new).collect(),
        right_map: (0..n2).map(|i| NodeId::new(i + n1)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_arcs;
    use crate::traversal::is_weakly_connected;

    #[test]
    fn sum_counts() {
        let a = from_arcs(3, &[(0, 1), (0, 2)]).unwrap();
        let b = from_arcs(2, &[(0, 1)]).unwrap();
        let s = sum(&a, &b);
        assert_eq!(s.dag.num_nodes(), 5);
        assert_eq!(s.dag.num_arcs(), 3);
        assert!(!is_weakly_connected(&s.dag));
    }

    #[test]
    fn sum_maps_are_correct() {
        let a = from_arcs(2, &[(0, 1)]).unwrap();
        let b = from_arcs(2, &[(0, 1)]).unwrap();
        let s = sum(&a, &b);
        assert_eq!(s.left_map, vec![NodeId(0), NodeId(1)]);
        assert_eq!(s.right_map, vec![NodeId(2), NodeId(3)]);
        // The shifted arc of b must exist.
        assert!(s.dag.has_arc(NodeId(2), NodeId(3)));
        assert!(s.dag.has_arc(NodeId(0), NodeId(1)));
        assert!(!s.dag.has_arc(NodeId(1), NodeId(2)));
    }

    #[test]
    fn sum_with_empty_is_identity_shaped() {
        let a = from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let e = from_arcs(0, &[]).unwrap();
        let s = sum(&a, &e);
        assert_eq!(s.dag, a);
        let s2 = sum(&e, &a);
        assert_eq!(s2.dag.num_nodes(), 3);
        assert!(s2.dag.has_arc(NodeId(0), NodeId(1)));
    }

    #[test]
    fn sum_preserves_adjacency_of_both_sides() {
        let a = from_arcs(4, &[(0, 1), (0, 2), (1, 3)]).unwrap();
        let b = from_arcs(3, &[(2, 0), (2, 1)]).unwrap();
        let s = sum(&a, &b);
        for (u, v) in a.arcs() {
            assert!(s.dag.has_arc(s.left_map[u.index()], s.left_map[v.index()]));
        }
        for (u, v) in b.arcs() {
            assert!(s
                .dag
                .has_arc(s.right_map[u.index()], s.right_map[v.index()]));
        }
        assert_eq!(s.dag.num_arcs(), a.num_arcs() + b.num_arcs());
    }
}
