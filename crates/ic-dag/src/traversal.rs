//! Traversal utilities: topological orders, levels, reachability,
//! connectivity.

use std::collections::VecDeque;

use crate::dag::{Dag, NodeId};

/// A topological order of the dag: every arc `(u -> v)` has `u` before
/// `v`. Deterministic: among simultaneously-available nodes, smaller ids
/// come first (Kahn's algorithm over a sorted frontier).
///
/// When every arc is forward in id order that walk pops exactly
/// `0, 1, 2, ...`, so it is skipped: `O(n)` instead of `O(m log n)`.
pub fn topological_order(dag: &Dag) -> Vec<NodeId> {
    if dag.ids_are_topological() {
        return dag.node_ids().collect();
    }
    let n = dag.num_nodes();
    let mut indeg: Vec<u32> = (0..n)
        .map(|i| dag.in_degree(NodeId::new(i)) as u32)
        .collect();
    // Min-ordered frontier: a binary heap of Reverse, or since ids only
    // grow, a sorted insertion into a VecDeque works; use a BinaryHeap.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<NodeId>> =
        dag.sources().map(std::cmp::Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(u)) = heap.pop() {
        order.push(u);
        for &v in dag.children(u) {
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                heap.push(std::cmp::Reverse(v));
            }
        }
    }
    debug_assert_eq!(order.len(), n, "dag invariant violated: cycle");
    order
}

/// `levels[v]` = length of the longest path from any source to `v`
/// (sources are level 0). In a computation-dag this is the earliest
/// "parallel step" at which `v` could execute.
pub fn levels(dag: &Dag) -> Vec<usize> {
    let mut lvl = vec![0usize; dag.num_nodes()];
    for &u in &topological_order(dag) {
        for &v in dag.children(u) {
            lvl[v.index()] = lvl[v.index()].max(lvl[u.index()] + 1);
        }
    }
    lvl
}

/// The height of the dag: number of nodes on a longest directed path
/// (0 for the empty dag, 1 for an arcless dag).
pub fn height(dag: &Dag) -> usize {
    if dag.num_nodes() == 0 {
        return 0;
    }
    levels(dag).into_iter().max().unwrap_or(0) + 1
}

/// Nodes reachable from `start` by directed paths (including `start`),
/// as a boolean membership vector.
pub fn reachable_from(dag: &Dag, start: NodeId) -> Vec<bool> {
    let mut seen = vec![false; dag.num_nodes()];
    let mut stack = vec![start];
    seen[start.index()] = true;
    while let Some(u) = stack.pop() {
        for &v in dag.children(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(v);
            }
        }
    }
    seen
}

/// Nodes that reach `end` by directed paths (including `end`): the
/// ancestors of `end`, as a boolean membership vector.
pub fn ancestors_of(dag: &Dag, end: NodeId) -> Vec<bool> {
    let mut seen = vec![false; dag.num_nodes()];
    let mut stack = vec![end];
    seen[end.index()] = true;
    while let Some(u) = stack.pop() {
        for &v in dag.parents(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(v);
            }
        }
    }
    seen
}

/// Is there a directed path from `u` to `v`? (`true` when `u == v`.)
pub fn has_path(dag: &Dag, u: NodeId, v: NodeId) -> bool {
    reachable_from(dag, u)[v.index()]
}

/// Is the dag weakly connected — i.e., connected when arc orientations
/// are ignored (the paper's notion of a *connected* dag, §2.1)?
/// The empty dag is considered connected.
pub fn is_weakly_connected(dag: &Dag) -> bool {
    let n = dag.num_nodes();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    queue.push_back(NodeId(0));
    seen[0] = true;
    let mut count = 1usize;
    while let Some(u) = queue.pop_front() {
        for &v in dag.children(u).iter().chain(dag.parents(u)) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                count += 1;
                queue.push_back(v);
            }
        }
    }
    count == n
}

/// Verify that `order` is a permutation of the dag's nodes that respects
/// every dependency (each node appears after all of its parents).
pub fn is_topological(dag: &Dag, order: &[NodeId]) -> bool {
    let n = dag.num_nodes();
    if order.len() != n {
        return false;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        if v.index() >= n || pos[v.index()] != usize::MAX {
            return false;
        }
        pos[v.index()] = i;
    }
    dag.arcs().all(|(u, v)| pos[u.index()] < pos[v.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_arcs;

    fn diamond() -> Dag {
        from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn topo_order_respects_arcs() {
        let g = diamond();
        let order = topological_order(&g);
        assert!(is_topological(&g, &order));
        assert_eq!(order[0], NodeId(0));
        assert_eq!(order[3], NodeId(3));
    }

    #[test]
    fn topo_order_is_deterministic_smallest_first() {
        let g = diamond();
        assert_eq!(
            topological_order(&g),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn levels_longest_path() {
        // 0 -> 1 -> 3, 0 -> 3: level of 3 must be 2 (longest path).
        let g = from_arcs(4, &[(0, 1), (1, 3), (0, 3), (0, 2)]).unwrap();
        let lvl = levels(&g);
        assert_eq!(lvl, vec![0, 1, 1, 2]);
        assert_eq!(height(&g), 3);
    }

    #[test]
    fn height_edge_cases() {
        assert_eq!(height(&from_arcs(0, &[]).unwrap()), 0);
        assert_eq!(height(&from_arcs(3, &[]).unwrap()), 1);
    }

    #[test]
    fn reachability() {
        let g = from_arcs(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let r = reachable_from(&g, NodeId(0));
        assert_eq!(r, vec![true, true, true, false, false]);
        assert!(has_path(&g, NodeId(0), NodeId(2)));
        assert!(!has_path(&g, NodeId(0), NodeId(4)));
        assert!(has_path(&g, NodeId(3), NodeId(3)));
    }

    #[test]
    fn ancestors() {
        let g = diamond();
        let a = ancestors_of(&g, NodeId(3));
        assert_eq!(a, vec![true, true, true, true]);
        let a1 = ancestors_of(&g, NodeId(1));
        assert_eq!(a1, vec![true, true, false, false]);
    }

    #[test]
    fn weak_connectivity() {
        assert!(is_weakly_connected(&diamond()));
        assert!(!is_weakly_connected(&from_arcs(3, &[(0, 1)]).unwrap()));
        assert!(is_weakly_connected(&from_arcs(0, &[]).unwrap()));
    }

    #[test]
    fn is_topological_rejects_bad_orders() {
        let g = diamond();
        // Wrong length.
        assert!(!is_topological(&g, &[NodeId(0)]));
        // Repeated node.
        assert!(!is_topological(
            &g,
            &[NodeId(0), NodeId(0), NodeId(1), NodeId(2)]
        ));
        // Violates arc 2 -> 3.
        assert!(!is_topological(
            &g,
            &[NodeId(0), NodeId(1), NodeId(3), NodeId(2)]
        ));
    }
}
