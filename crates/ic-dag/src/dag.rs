//! The immutable computation-dag representation.
//!
//! A [`Dag`] is built once (via [`crate::DagBuilder`]) and never mutated;
//! all dag algebra (dual, sum, composition, quotient) produces new dags.
//! Adjacency is stored CSR-style: two flat arrays of neighbor ids indexed
//! by per-node offset ranges, giving `O(1)` slice access to the parents
//! and children of a node and cache-friendly traversal.

use std::fmt;

/// Identifier of a node (task) within one [`Dag`].
///
/// Ids are dense: a dag with `n` nodes uses ids `0..n`. Ids are only
/// meaningful relative to the dag that issued them; the dag-algebra
/// operations return explicit maps between old and new ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index.
    ///
    /// # Panics
    /// Panics if `i` exceeds `u32::MAX`.
    #[inline]
    pub fn new(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An immutable directed acyclic graph modelling a computation.
///
/// * each node represents a task;
/// * an arc `(u -> v)` represents the dependence of task `v` on task `u`.
///
/// Invariants guaranteed by construction:
/// * acyclic (verified when the builder seals);
/// * no self-loops, no parallel arcs;
/// * adjacency slices are sorted by node id.
#[derive(Clone, PartialEq, Eq)]
pub struct Dag {
    /// `children_off[v]..children_off[v+1]` indexes `children_flat`.
    pub(crate) children_off: Vec<u32>,
    pub(crate) children_flat: Vec<NodeId>,
    pub(crate) parents_off: Vec<u32>,
    pub(crate) parents_flat: Vec<NodeId>,
    /// Human-readable labels; empty string when unnamed.
    pub(crate) labels: Labels,
    /// Node-role summary (source/sink counts and bitmasks), computed once
    /// at construction. A pure function of the CSR arrays, so the derived
    /// `PartialEq` stays structural.
    pub(crate) roles: RoleCache,
}

/// Node labels in one arena: label `i` is
/// `text[ends[i - 1]..ends[i]]` (from 0 for the first). One heap block
/// for all the text instead of a `String` per node; offsets are
/// `usize`, so no input can overflow them.
#[derive(Clone, Default, PartialEq, Eq)]
pub(crate) struct Labels {
    text: String,
    ends: Vec<usize>,
}

impl Labels {
    pub(crate) fn with_capacity(n: usize) -> Labels {
        Labels {
            text: String::new(),
            ends: Vec::with_capacity(n),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    pub(crate) fn push(&mut self, label: &str) {
        self.text.push_str(label);
        self.ends.push(self.text.len());
    }

    pub(crate) fn get(&self, i: usize) -> &str {
        let lo = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.text[lo..self.ends[i]]
    }

    /// Append every label of `other`, after this arena's own.
    pub(crate) fn extend(&mut self, other: &Labels) {
        let base = self.text.len();
        self.text.push_str(&other.text);
        self.ends.extend(other.ends.iter().map(|&e| base + e));
    }
}

/// Cached node-role summary of a [`Dag`].
///
/// The bitmask fields are meaningful only when the dag has at most 64
/// nodes (the same cap as the down-set lattice machinery); for larger
/// dags they are zero and the `Option` accessors on [`Dag`] return
/// `None`.
#[derive(Clone, Default, PartialEq, Eq)]
pub(crate) struct RoleCache {
    pub(crate) num_sources: u32,
    pub(crate) num_sinks: u32,
    pub(crate) sources_mask: u64,
    pub(crate) sinks_mask: u64,
}

impl RoleCache {
    fn compute(
        dag_nodes: usize,
        in_deg: impl Fn(usize) -> usize,
        out_deg: impl Fn(usize) -> usize,
    ) -> RoleCache {
        let mut roles = RoleCache::default();
        for i in 0..dag_nodes {
            if in_deg(i) == 0 {
                roles.num_sources += 1;
                if dag_nodes <= 64 {
                    roles.sources_mask |= 1u64 << i;
                }
            }
            if out_deg(i) == 0 {
                roles.num_sinks += 1;
                if dag_nodes <= 64 {
                    roles.sinks_mask |= 1u64 << i;
                }
            }
        }
        roles
    }
}

impl Dag {
    /// Seal CSR arrays into a `Dag`, computing the role cache.
    ///
    /// All construction sites (builder, dual, sum) funnel through here so
    /// the cached counts and masks can never go stale.
    pub(crate) fn from_csr(
        children_off: Vec<u32>,
        children_flat: Vec<NodeId>,
        parents_off: Vec<u32>,
        parents_flat: Vec<NodeId>,
        labels: Labels,
    ) -> Dag {
        let n = labels.len();
        let roles = RoleCache::compute(
            n,
            |i| (parents_off[i + 1] - parents_off[i]) as usize,
            |i| (children_off[i + 1] - children_off[i]) as usize,
        );
        Dag {
            children_off,
            children_flat,
            parents_off,
            parents_flat,
            labels,
            roles,
        }
    }

    /// Number of nodes (tasks).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of arcs (dependencies).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.children_flat.len()
    }

    /// Iterator over all node ids, in increasing order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// The children of `v` (tasks that depend on `v`), sorted by id.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let lo = self.children_off[v.index()] as usize;
        let hi = self.children_off[v.index() + 1] as usize;
        &self.children_flat[lo..hi]
    }

    /// The parents of `v` (tasks `v` depends on), sorted by id.
    #[inline]
    pub fn parents(&self, v: NodeId) -> &[NodeId] {
        let lo = self.parents_off[v.index()] as usize;
        let hi = self.parents_off[v.index() + 1] as usize;
        &self.parents_flat[lo..hi]
    }

    /// Out-degree of `v` — its number of children.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.children(v).len()
    }

    /// In-degree of `v` — its number of parents.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.parents(v).len()
    }

    /// Is `v` a source (parentless node)?
    #[inline]
    pub fn is_source(&self, v: NodeId) -> bool {
        self.in_degree(v) == 0
    }

    /// Is `v` a sink (childless node)?
    #[inline]
    pub fn is_sink(&self, v: NodeId) -> bool {
        self.out_degree(v) == 0
    }

    /// Iterator over the sources, in increasing id order.
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |&v| self.is_source(v))
    }

    /// Iterator over the sinks, in increasing id order.
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |&v| self.is_sink(v))
    }

    /// Iterator over the nonsinks (nodes with at least one child).
    pub fn nonsinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |&v| !self.is_sink(v))
    }

    /// Iterator over the nonsources (nodes with at least one parent).
    pub fn nonsources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |&v| !self.is_source(v))
    }

    /// Number of sources. Cached at construction, `O(1)`.
    #[inline]
    pub fn num_sources(&self) -> usize {
        self.roles.num_sources as usize
    }

    /// Number of sinks. Cached at construction, `O(1)`.
    #[inline]
    pub fn num_sinks(&self) -> usize {
        self.roles.num_sinks as usize
    }

    /// Bitmask over all node ids: `Some` iff the dag fits the 64-node
    /// down-set lattice cap (`1` in every position `0..n`).
    #[inline]
    pub fn full_mask(&self) -> Option<u64> {
        let n = self.num_nodes();
        match n {
            0..=63 => Some((1u64 << n) - 1),
            64 => Some(u64::MAX),
            _ => None,
        }
    }

    /// Bitmask of the sources, cached at construction. `None` when the
    /// dag exceeds 64 nodes.
    #[inline]
    pub fn sources_mask(&self) -> Option<u64> {
        self.full_mask().map(|_| self.roles.sources_mask)
    }

    /// Bitmask of the sinks, cached at construction. `None` when the
    /// dag exceeds 64 nodes.
    #[inline]
    pub fn sinks_mask(&self) -> Option<u64> {
        self.full_mask().map(|_| self.roles.sinks_mask)
    }

    /// Bitmask of the nonsinks (derived from the cached sink mask).
    /// `None` when the dag exceeds 64 nodes.
    #[inline]
    pub fn nonsinks_mask(&self) -> Option<u64> {
        self.full_mask().map(|full| full & !self.roles.sinks_mask)
    }

    /// Bitmask of the nonsources (derived from the cached source mask).
    /// `None` when the dag exceeds 64 nodes.
    #[inline]
    pub fn nonsources_mask(&self) -> Option<u64> {
        self.full_mask().map(|full| full & !self.roles.sources_mask)
    }

    /// Number of nonsinks. In IC-Scheduling Theory this is the length of
    /// the "interesting" portion of a schedule: sinks render nothing
    /// eligible, so only the order of nonsink executions matters.
    pub fn num_nonsinks(&self) -> usize {
        self.num_nodes() - self.num_sinks()
    }

    /// Number of nonsources.
    pub fn num_nonsources(&self) -> usize {
        self.num_nodes() - self.num_sources()
    }

    /// Does the dag contain the arc `(u -> v)`?
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.children(u).binary_search(&v).is_ok()
    }

    /// Iterator over all arcs `(u, v)`, grouped by tail `u`.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids()
            .flat_map(move |u| self.children(u).iter().map(move |&v| (u, v)))
    }

    /// The label of `v` (empty string when unnamed).
    #[inline]
    pub fn label(&self, v: NodeId) -> &str {
        self.labels.get(v.index())
    }

    /// Is every arc `(u -> v)` forward in id order (`u < v`)? Then
    /// `0..n` is a topological order. `O(n)`: child slices are sorted,
    /// so each node's first child decides.
    pub(crate) fn ids_are_topological(&self) -> bool {
        self.node_ids()
            .all(|u| self.children(u).first().is_none_or(|&v| u < v))
    }
}

impl fmt::Debug for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Dag {{ nodes: {}, arcs: {}, sources: {}, sinks: {} }}",
            self.num_nodes(),
            self.num_arcs(),
            self.num_sources(),
            self.num_sinks()
        )?;
        for u in self.node_ids() {
            if !self.is_sink(u) {
                write!(f, "  {u}")?;
                if !self.label(u).is_empty() {
                    write!(f, "({})", self.label(u))?;
                }
                write!(f, " ->")?;
                for v in self.children(u) {
                    write!(f, " {v}")?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::DagBuilder;

    use super::*;

    fn path3() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_node("a");
        let c = b.add_node("b");
        let d = b.add_node("c");
        b.add_arc(a, c).unwrap();
        b.add_arc(c, d).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn node_id_round_trip() {
        let v = NodeId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(format!("{v}"), "42");
        assert_eq!(format!("{v:?}"), "n42");
    }

    #[test]
    fn path_degrees_and_roles() {
        let g = path3();
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_arcs(), 2);
        assert!(g.is_source(a) && !g.is_sink(a));
        assert!(!g.is_source(b) && !g.is_sink(b));
        assert!(!g.is_source(c) && g.is_sink(c));
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(c), 1);
        assert_eq!(g.children(a), &[b]);
        assert_eq!(g.parents(c), &[b]);
        assert_eq!(g.num_nonsinks(), 2);
        assert_eq!(g.num_nonsources(), 2);
    }

    #[test]
    fn arc_queries() {
        let g = path3();
        assert!(g.has_arc(NodeId(0), NodeId(1)));
        assert!(!g.has_arc(NodeId(1), NodeId(0)));
        assert!(!g.has_arc(NodeId(0), NodeId(2)));
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs, vec![(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))]);
    }

    #[test]
    fn labels_are_preserved() {
        let g = path3();
        assert_eq!(g.label(NodeId(0)), "a");
        assert_eq!(g.label(NodeId(1)), "b");
        assert_eq!(g.label(NodeId(2)), "c");
    }

    #[test]
    fn empty_dag() {
        let g = DagBuilder::new().build().unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.sources().count(), 0);
    }

    #[test]
    fn cached_role_masks_match_iterators() {
        // Diamond plus an isolated node: exercises source, sink, both, neither.
        let g = crate::builder::from_arcs(5, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let fold =
            |it: &mut dyn Iterator<Item = NodeId>| it.fold(0u64, |m, v| m | (1u64 << v.index()));
        assert_eq!(g.full_mask(), Some(0b11111));
        assert_eq!(g.sources_mask(), Some(fold(&mut g.sources())));
        assert_eq!(g.sinks_mask(), Some(fold(&mut g.sinks())));
        assert_eq!(g.nonsinks_mask(), Some(fold(&mut g.nonsinks())));
        assert_eq!(g.nonsources_mask(), Some(fold(&mut g.nonsources())));
        assert_eq!(g.num_sources(), 2); // node 0 and the isolated node 4
        assert_eq!(g.num_sinks(), 2); // node 3 and the isolated node 4
    }

    #[test]
    fn role_masks_unavailable_past_the_lattice_cap() {
        let mut b = DagBuilder::new();
        b.add_nodes(65);
        let g = b.build().unwrap();
        assert_eq!(g.full_mask(), None);
        assert_eq!(g.sources_mask(), None);
        assert_eq!(g.nonsinks_mask(), None);
        assert_eq!(g.num_sources(), 65);
    }

    #[test]
    fn isolated_node_is_both_source_and_sink() {
        let mut b = DagBuilder::new();
        let v = b.add_node("lone");
        let g = b.build().unwrap();
        assert!(g.is_source(v));
        assert!(g.is_sink(v));
        assert_eq!(g.num_nonsinks(), 0);
    }
}
