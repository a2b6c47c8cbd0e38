//! Baseline dag-scheduling heuristics.
//!
//! The companion evaluations of IC-Scheduling Theory (\[15\], \[19\] in the
//! paper) compare its schedules against natural heuristics, including
//! the "FIFO" policy used by Condor's DAGMan. These serve as the
//! comparators in our simulator and benchmark harness.
//!
//! Each heuristic is a variant of [`Policy`], which implements
//! [`AllocationPolicy`]; [`schedule_with`] drives any policy to a
//! complete static [`Schedule`], and the lease machine (`ic-net`) asks
//! the same policies task by task, live or against the simulator's
//! virtual-time client fleet (`ic-check`).

use ic_dag::rng::XorShift64;
use ic_dag::traversal::levels;
use ic_dag::{Dag, NodeId};

use crate::eligibility::ExecState;
use crate::policy::{AllocationPolicy, PolicyContext};
use crate::schedule::Schedule;

/// The baseline allocation heuristics, as one enum for easy sweeping
/// ([`Policy::all`]). Custom policies implement [`AllocationPolicy`]
/// directly instead of extending this list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Execute ELIGIBLE nodes in the order they became ELIGIBLE
    /// (Condor DAGMan's dag-scheduling order).
    Fifo,
    /// Execute the most recently ELIGIBLE node first.
    Lifo,
    /// Uniformly random ELIGIBLE node, from the given seed.
    Random(u64),
    /// The ELIGIBLE node with the most children (ties: smaller id).
    MaxOutDegree,
    /// The ELIGIBLE node at the smallest depth (ties: smaller id).
    MinDepth,
    /// One-step lookahead: the ELIGIBLE node that renders the most new
    /// nodes ELIGIBLE immediately (ties: larger out-degree, then smaller
    /// id).
    GreedyEligibility,
}

impl Policy {
    /// Short display name, for report tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fifo => "FIFO",
            Policy::Lifo => "LIFO",
            Policy::Random(_) => "RANDOM",
            Policy::MaxOutDegree => "MAX-OUTDEG",
            Policy::MinDepth => "MIN-DEPTH",
            Policy::GreedyEligibility => "GREEDY",
        }
    }

    /// All policies with a fixed random seed — the standard comparator
    /// set.
    pub fn all(seed: u64) -> Vec<Policy> {
        vec![
            Policy::Fifo,
            Policy::Lifo,
            Policy::Random(seed),
            Policy::MaxOutDegree,
            Policy::MinDepth,
            Policy::GreedyEligibility,
        ]
    }
}

/// Index of the pool entry maximizing `key` (keys are unique per node
/// whenever they end in `-id`, so scan order does not matter).
fn argmax<K: Ord>(pool: &[NodeId], key: impl Fn(NodeId) -> K) -> usize {
    let (mut best_i, mut best) = (0usize, key(pool[0]));
    for (i, &v) in pool.iter().enumerate().skip(1) {
        let k = key(v);
        if k > best {
            best_i = i;
            best = k;
        }
    }
    best_i
}

/// How many children of `v` become ELIGIBLE the moment `v` executes.
fn eligibility_gain(dag: &Dag, st: &ExecState<'_>, v: NodeId) -> i64 {
    dag.children(v)
        .iter()
        .filter(|&&c| {
            // c becomes eligible iff v is its only unexecuted parent.
            dag.parents(c).iter().all(|&p| p == v || st.is_executed(p))
        })
        .count() as i64
}

impl AllocationPolicy for Policy {
    fn name(&self) -> String {
        Policy::name(self).into()
    }

    fn choose(&self, ctx: &PolicyContext<'_, '_>, pool: &[NodeId]) -> usize {
        match *self {
            // The pool is maintained by swap-removal, so positional order
            // no longer encodes arrival order; the per-entry arrival
            // stamp does. Stamps are unique, so both picks are exact.
            Policy::Fifo => argmax(pool, |v| std::cmp::Reverse(ctx.state.pool_seq(v))),
            Policy::Lifo => argmax(pool, |v| ctx.state.pool_seq(v)),
            // Stateless randomness: the stream is a pure function of
            // (seed, step), so the policy replays identically without
            // interior mutability.
            Policy::Random(seed) => {
                let mix = (ctx.step as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                XorShift64::new(seed ^ mix).gen_range(pool.len())
            }
            Policy::MaxOutDegree => argmax(pool, |v| (ctx.dag.out_degree(v) as i64, -(v.0 as i64))),
            Policy::MinDepth => {
                let lvl = levels(ctx.dag);
                argmax(pool, |v| (-(lvl[v.index()] as i64), -(v.0 as i64)))
            }
            Policy::GreedyEligibility => argmax(pool, |v| {
                (
                    eligibility_gain(ctx.dag, ctx.state, v),
                    ctx.dag.out_degree(v) as i64,
                    -(v.0 as i64),
                )
            }),
        }
    }
}

/// Produce the complete schedule that `policy` yields on `dag`: drive
/// the policy over [`ExecState`]'s built-in eligible pool (newly enabled
/// nodes enter in id order; arrival stamps preserve became-ELIGIBLE
/// order) one task at a time.
///
/// # Panics
/// Panics if `policy.choose` returns an out-of-range index or the
/// policy's [`AllocationPolicy::prepare`] rejects the dag.
pub fn schedule_with(dag: &Dag, policy: &dyn AllocationPolicy) -> Schedule {
    policy.prepare(dag);
    let mut st = ExecState::new(dag);
    let mut order = Vec::with_capacity(dag.num_nodes());
    let mut step = 0usize;
    while st.pool_len() > 0 {
        let i = policy.choose(
            &PolicyContext {
                dag,
                state: &st,
                step,
                retries: None,
            },
            st.pool(),
        );
        let v = st.pool()[i];
        st.execute_counting(v)
            .expect("pool holds only ELIGIBLE nodes");
        order.push(v);
        step += 1;
    }
    Schedule::new_unchecked(order)
}

/// FIFO over the ELIGIBLE pool: sources enter in id order; newly
/// ELIGIBLE nodes are appended in id order.
pub fn fifo(dag: &Dag) -> Schedule {
    schedule_with(dag, &Policy::Fifo)
}

/// LIFO over the ELIGIBLE pool: most recently enabled first.
pub fn lifo(dag: &Dag) -> Schedule {
    schedule_with(dag, &Policy::Lifo)
}

/// Uniformly random ELIGIBLE node at every step (seeded, reproducible).
pub fn random(dag: &Dag, seed: u64) -> Schedule {
    schedule_with(dag, &Policy::Random(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_dag::builder::from_arcs;
    use ic_dag::traversal::is_topological;

    fn sample() -> Dag {
        from_arcs(
            8,
            &[
                (0, 2),
                (0, 3),
                (1, 3),
                (1, 4),
                (2, 5),
                (3, 5),
                (3, 6),
                (4, 7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_policies_yield_valid_schedules() {
        let g = sample();
        for p in Policy::all(42) {
            let s = schedule_with(&g, &p);
            assert!(
                is_topological(&g, s.order()),
                "{} produced an invalid order",
                p.name()
            );
            assert_eq!(s.len(), g.num_nodes());
        }
    }

    #[test]
    fn fifo_is_breadth_first_on_a_tree() {
        let t = from_arcs(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]).unwrap();
        let s = fifo(&t);
        assert_eq!(s.order(), &[0, 1, 2, 3, 4, 5, 6].map(NodeId));
    }

    #[test]
    fn lifo_is_depth_first_on_a_tree() {
        let t = from_arcs(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]).unwrap();
        let s = lifo(&t);
        // Root, then the most recently enabled branch fully.
        assert_eq!(s.order()[0], NodeId(0));
        assert_eq!(s.order()[1], NodeId(2));
    }

    #[test]
    fn random_is_reproducible() {
        let g = sample();
        assert_eq!(random(&g, 7).order(), random(&g, 7).order());
    }

    #[test]
    fn random_seeds_differ() {
        let g = sample();
        // Not a hard guarantee for arbitrary seeds, but these two must
        // differ or the (seed, step) mixing is broken.
        assert_ne!(random(&g, 1).order(), random(&g, 0xDEAD_BEEF).order());
    }

    #[test]
    fn max_outdegree_prefers_hubs() {
        // Two sources: node 0 with 3 children, node 1 with 1 child.
        let g = from_arcs(6, &[(0, 2), (0, 3), (0, 4), (1, 5)]).unwrap();
        let s = schedule_with(&g, &Policy::MaxOutDegree);
        assert_eq!(s.order()[0], NodeId(0));
    }

    #[test]
    fn greedy_takes_immediate_enablers() {
        // Source 0 enables nothing immediately (child 3 needs 1 too);
        // source 2 immediately enables its private child 4.
        let g = from_arcs(5, &[(0, 3), (1, 3), (2, 4)]).unwrap();
        let s = schedule_with(&g, &Policy::GreedyEligibility);
        assert_eq!(s.order()[0], NodeId(2));
    }

    #[test]
    fn min_depth_is_levelwise() {
        let g = from_arcs(4, &[(0, 1), (1, 2), (0, 3)]).unwrap();
        let s = schedule_with(&g, &Policy::MinDepth);
        // Level 0: {0}; level 1: {1, 3}; level 2: {2}.
        assert_eq!(s.order(), &[0, 1, 3, 2].map(NodeId));
    }

    #[test]
    fn policy_names_are_distinct() {
        let names: std::collections::HashSet<_> = Policy::all(0).iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn schedule_as_policy_reproduces_itself() {
        let g = sample();
        let s = fifo(&g);
        let replayed = schedule_with(&g, &s);
        assert_eq!(replayed.order(), s.order());
    }
}
