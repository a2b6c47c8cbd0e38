//! Incremental dag construction with validation.

use crate::dag::{Dag, Labels, NodeId};
use crate::error::DagError;

/// Builds a [`Dag`] incrementally; [`DagBuilder::build`] validates
/// acyclicity and freezes the structure.
///
/// Parallel arcs are silently deduplicated (the theory works with arc
/// *sets*); self-loops are rejected immediately.
///
/// ```
/// use ic_dag::DagBuilder;
/// let mut b = DagBuilder::new();
/// let u = b.add_node("u");
/// let v = b.add_node("v");
/// b.add_arc(u, v).unwrap();
/// let dag = b.build().unwrap();
/// assert_eq!(dag.num_arcs(), 1);
/// ```
#[derive(Default, Clone)]
pub struct DagBuilder {
    labels: Labels,
    /// Arcs in insertion order, duplicates included; `build` sorts.
    arcs: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// Fresh empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder pre-sized for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        DagBuilder {
            labels: Labels::with_capacity(n),
            arcs: Vec::new(),
        }
    }

    /// Add a node with a human-readable label; returns its id.
    pub fn add_node(&mut self, label: impl AsRef<str>) -> NodeId {
        let id = NodeId::new(self.labels.len());
        self.labels.push(label.as_ref());
        id
    }

    /// Add `n` unlabeled nodes; returns their ids in order.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node("")).collect()
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Add the arc `(u -> v)`. Duplicate arcs are ignored.
    pub fn add_arc(&mut self, u: NodeId, v: NodeId) -> Result<(), DagError> {
        if u.index() >= self.labels.len() {
            return Err(DagError::InvalidNode(u));
        }
        if v.index() >= self.labels.len() {
            return Err(DagError::InvalidNode(v));
        }
        if u == v {
            return Err(DagError::SelfLoop(u));
        }
        self.arcs.push((u, v));
        Ok(())
    }

    /// Validate acyclicity and freeze into an immutable [`Dag`].
    ///
    /// `O(n + m)` plus a sort of each node's child slice: the children
    /// are laid out by a counting sort on the tail, and Kahn's cycle
    /// check runs only when some arc points backward in id order.
    pub fn build(self) -> Result<Dag, DagError> {
        let n = self.labels.len();

        // CSR for children: bucket the arcs by tail, then sort and
        // dedup each bucket in place, compacting as we go.
        let mut children_off = vec![0u32; n + 1];
        for &(u, _) in &self.arcs {
            children_off[u.index() + 1] += 1;
        }
        for i in 0..n {
            children_off[i + 1] += children_off[i];
        }
        let mut cursor: Vec<u32> = children_off[..n].to_vec();
        let mut children_flat = vec![NodeId(0); self.arcs.len()];
        for &(u, v) in &self.arcs {
            children_flat[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
        }
        drop(self.arcs);
        let mut len = 0usize;
        for u in 0..n {
            let (lo, hi) = (children_off[u] as usize, children_off[u + 1] as usize);
            children_flat[lo..hi].sort_unstable();
            let start = len;
            for i in lo..hi {
                let v = children_flat[i];
                if len == start || children_flat[len - 1] != v {
                    children_flat[len] = v;
                    len += 1;
                }
            }
            children_off[u] = u32::try_from(start).expect("arc count fits the u32 offsets");
        }
        children_off[n] = u32::try_from(len).expect("arc count fits the u32 offsets");
        children_flat.truncate(len);
        children_flat.shrink_to_fit();

        // CSR for parents, filled in tail order, so each slice arrives sorted.
        let mut parents_off = vec![0u32; n + 1];
        for &v in &children_flat {
            parents_off[v.index() + 1] += 1;
        }
        for i in 0..n {
            parents_off[i + 1] += parents_off[i];
        }
        let mut cursor: Vec<u32> = parents_off[..n].to_vec();
        let mut parents_flat = vec![NodeId(0); len];
        for u in 0..n {
            let (lo, hi) = (children_off[u] as usize, children_off[u + 1] as usize);
            for &v in &children_flat[lo..hi] {
                parents_flat[cursor[v.index()] as usize] = NodeId::new(u);
                cursor[v.index()] += 1;
            }
        }

        let dag = Dag::from_csr(
            children_off,
            children_flat,
            parents_off,
            parents_flat,
            self.labels,
        );
        if dag.ids_are_topological() {
            return Ok(dag);
        }

        // Kahn's algorithm to detect cycles.
        let mut indeg: Vec<u32> = (0..n)
            .map(|i| dag.in_degree(NodeId::new(i)) as u32)
            .collect();
        let mut queue: Vec<NodeId> = dag.sources().collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &v in dag.children(u) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
        if seen != n {
            return Err(DagError::Cycle);
        }
        Ok(dag)
    }
}

/// Convenience: build a dag from an explicit arc list over `n` nodes.
///
/// ```
/// let diamond = ic_dag::builder::from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
/// assert_eq!(diamond.num_sources(), 1);
/// assert_eq!(diamond.num_sinks(), 1);
/// ```
pub fn from_arcs(n: usize, arcs: &[(u32, u32)]) -> Result<Dag, DagError> {
    let mut b = DagBuilder::new();
    b.add_nodes(n);
    for &(u, v) in arcs {
        b.add_arc(NodeId(u), NodeId(v))?;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeSet, BinaryHeap};

    use super::*;
    use crate::rng::XorShift64;
    use crate::testgen::{random_dags, random_permutation};
    use crate::traversal::topological_order;

    /// The `BTreeSet` build the linear one replaced, kept as its oracle:
    /// arcs sorted and deduplicated by a `BTreeSet`, Kahn's pass always.
    fn reference_build(labels: &[String], arcs: &[(NodeId, NodeId)]) -> Result<Dag, DagError> {
        let n = labels.len();
        let mut set = BTreeSet::new();
        for &(u, v) in arcs {
            for end in [u, v] {
                if end.index() >= n {
                    return Err(DagError::InvalidNode(end));
                }
            }
            if u == v {
                return Err(DagError::SelfLoop(u));
            }
            set.insert((u, v));
        }
        let mut children_off = vec![0u32; n + 1];
        let mut parents_off = vec![0u32; n + 1];
        for &(u, v) in &set {
            children_off[u.index() + 1] += 1;
            parents_off[v.index() + 1] += 1;
        }
        for i in 0..n {
            children_off[i + 1] += children_off[i];
            parents_off[i + 1] += parents_off[i];
        }
        let children_flat: Vec<NodeId> = set.iter().map(|&(_, v)| v).collect();
        let mut cursor: Vec<u32> = parents_off[..n].to_vec();
        let mut parents_flat = vec![NodeId(0); set.len()];
        for &(u, v) in &set {
            parents_flat[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }
        let mut arena = Labels::default();
        for l in labels {
            arena.push(l);
        }
        let dag = Dag::from_csr(
            children_off,
            children_flat,
            parents_off,
            parents_flat,
            arena,
        );
        let mut indeg: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
        let mut queue: Vec<NodeId> = dag.sources().collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &v in dag.children(u) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
        if seen != n {
            return Err(DagError::Cycle);
        }
        Ok(dag)
    }

    /// `topological_order` without its forward-arc shortcut: the
    /// smallest-id-first Kahn walk over a heap.
    fn reference_topological_order(dag: &Dag) -> Vec<NodeId> {
        let mut indeg: Vec<usize> = dag.node_ids().map(|v| dag.in_degree(v)).collect();
        let mut heap: BinaryHeap<_> = dag.sources().map(std::cmp::Reverse).collect();
        let mut order = Vec::new();
        while let Some(std::cmp::Reverse(u)) = heap.pop() {
            order.push(u);
            for &v in dag.children(u) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    heap.push(std::cmp::Reverse(v));
                }
            }
        }
        order
    }

    fn linear_build(labels: &[String], arcs: &[(NodeId, NodeId)]) -> Result<Dag, DagError> {
        let mut b = DagBuilder::new();
        for l in labels {
            b.add_node(l);
        }
        for &(u, v) in arcs {
            b.add_arc(u, v)?;
        }
        b.build()
    }

    /// `testgen` dags as they come and with node ids permuted (so arcs
    /// run backward), arcs shuffled and a quarter duplicated; then the
    /// same lists with up to three random arcs more, which close
    /// cycles, loop, or name a node past the last. Both builds must
    /// give the same `Dag` or the same error, and the walk's order
    /// must match the heap's.
    #[test]
    fn linear_build_matches_the_btreeset_reference() {
        let mut rng = XorShift64::new(0xB17D);
        let (mut built, mut cycles, mut shortcuts) = (0, 0, 0);
        for (i, g) in random_dags(0xD1FF, 150, 24, 25).iter().enumerate() {
            let n = g.num_nodes();
            for perm in [(0..n).collect(), random_permutation(i as u64, n)] {
                let labels: Vec<String> = perm
                    .iter()
                    .map(|&p| ["", "a", "b", "a.1"][p % 4].to_string())
                    .collect();
                let map = |v: NodeId| NodeId::new(perm[v.index()]);
                let mut arcs: Vec<_> = g.arcs().map(|(u, v)| (map(u), map(v))).collect();
                for _ in 0..arcs.len() / 4 {
                    arcs.push(arcs[rng.gen_range(arcs.len())]);
                }
                rng.shuffle(&mut arcs);
                for extra in 0..4 {
                    let got = linear_build(&labels, &arcs);
                    assert_eq!(got, reference_build(&labels, &arcs), "dag {i}, +{extra}");
                    match got {
                        Ok(dag) => {
                            let order = topological_order(&dag);
                            assert_eq!(order, reference_topological_order(&dag), "dag {i}");
                            built += 1;
                            shortcuts += usize::from(dag.ids_are_topological());
                        }
                        Err(e) => cycles += usize::from(e == DagError::Cycle),
                    }
                    let end = |rng: &mut XorShift64| NodeId::new(rng.gen_range(n + 1));
                    arcs.push((end(&mut rng), end(&mut rng)));
                }
            }
        }
        // Every path is taken: the shortcut, Kahn on an acyclic
        // permuted dag, and Kahn finding a cycle.
        assert!(shortcuts > 100 && built - shortcuts > 100 && cycles > 50);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = DagBuilder::new();
        let v = b.add_node("v");
        assert_eq!(b.add_arc(v, v), Err(DagError::SelfLoop(v)));
    }

    #[test]
    fn rejects_invalid_node() {
        let mut b = DagBuilder::new();
        let v = b.add_node("v");
        assert_eq!(
            b.add_arc(v, NodeId(7)),
            Err(DagError::InvalidNode(NodeId(7)))
        );
    }

    #[test]
    fn detects_two_cycle() {
        assert_eq!(
            from_arcs(2, &[(0, 1), (1, 0)]).unwrap_err(),
            DagError::Cycle
        );
    }

    #[test]
    fn detects_long_cycle() {
        assert_eq!(
            from_arcs(4, &[(0, 1), (1, 2), (2, 3), (3, 1)]).unwrap_err(),
            DagError::Cycle
        );
    }

    #[test]
    fn dedupes_parallel_arcs() {
        let mut b = DagBuilder::new();
        let u = b.add_node("u");
        let v = b.add_node("v");
        b.add_arc(u, v).unwrap();
        b.add_arc(u, v).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_arcs(), 1);
    }

    #[test]
    fn adjacency_slices_are_sorted() {
        // Insert arcs out of order; slices must come out sorted by id.
        let g = from_arcs(4, &[(0, 3), (0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(g.children(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(g.parents(NodeId(3)), &[NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn add_nodes_bulk() {
        let mut b = DagBuilder::new();
        let ids = b.add_nodes(5);
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[4], NodeId(4));
    }
}
