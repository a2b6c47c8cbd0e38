//! The open allocation-policy surface.
//!
//! An [`AllocationPolicy`] answers the one question the IC server asks
//! (§2.2 of the paper): *given the current ELIGIBLE-and-unallocated
//! pool, which task goes to the next client?* The baseline heuristics
//! ([`crate::heuristics::Policy`]) and any precomputed [`Schedule`]
//! implement this trait, so the lease machine behind the live server
//! and the simulator, the schedulers, and the comparison harness accept
//! them interchangeably as `&dyn AllocationPolicy`.

use ic_dag::{Dag, NodeId};

use crate::eligibility::ExecState;
use crate::schedule::Schedule;

/// Everything a policy may inspect when choosing the next task.
pub struct PolicyContext<'d, 's> {
    /// The dag being executed.
    pub dag: &'d Dag,
    /// Execution state so far (which nodes have completed, what is
    /// ELIGIBLE). Note the pool handed to [`AllocationPolicy::choose`]
    /// excludes ELIGIBLE tasks already allocated to other clients.
    pub state: &'s ExecState<'d>,
    /// Number of allocation decisions made so far in this run.
    pub step: usize,
    /// Per-node failure counts (`retries[v.index()]` = how many times
    /// task `v` was allocated and lost), when the driver tracks them —
    /// the live `ic-net` server does; the simulator and the offline
    /// schedulers pass `None`. Lets a policy deprioritize
    /// chronically-failing tasks without changing the trait surface.
    pub retries: Option<&'s [u32]>,
}

/// A (possibly dynamic) rule for allocating ELIGIBLE tasks.
///
/// Implementations must be deterministic functions of `(ctx, pool)` so
/// simulations stay reproducible under a fixed seed; randomized
/// policies derive their stream from the seed and `ctx.step`.
pub trait AllocationPolicy {
    /// Display name, for report tables and trace headers.
    fn name(&self) -> String;

    /// Called once at the start of a run; the default is a no-op.
    /// Implementations validate against the dag here (e.g. a
    /// [`Schedule`] asserts it covers the dag).
    fn prepare(&self, _dag: &Dag) {}

    /// The index into `pool` of the task to allocate next. `pool` lists
    /// the ELIGIBLE-and-unallocated tasks and is never empty; it is the
    /// `O(1)` slice borrowed from [`ExecState::pool`], so its *positional*
    /// order is arbitrary (swap-removal) — policies that care about
    /// arrival order rank entries by [`ExecState::pool_seq`] via
    /// `ctx.state`. The returned index must be in range; the drivers
    /// panic otherwise.
    fn choose(&self, ctx: &PolicyContext<'_, '_>, pool: &[NodeId]) -> usize;

    /// A *static* priority for `v`, if this policy is a pure argmin
    /// over a fixed per-node key: lower wins, and [`Self::choose`]
    /// must return exactly the pooled node with the smallest
    /// `static_rank`. Drivers that observe a total, duplicate-free
    /// ranking over the whole dag may then replace the `O(pool)`
    /// `choose` scan with an indexed structure (see
    /// [`ExecState::enable_rank_index`]) — the unique argmin makes the
    /// substitution exact. The default `None` declares the choice
    /// positional or stateful (FIFO, random, replay), and drivers must
    /// call [`Self::choose`].
    fn static_rank(&self, v: NodeId) -> Option<usize> {
        let _ = v;
        None
    }
}

/// A precomputed schedule acts as a static priority list: among the
/// pool, allocate the task it ranks earliest.
impl AllocationPolicy for Schedule {
    fn name(&self) -> String {
        "SCHEDULE".into()
    }

    fn prepare(&self, dag: &Dag) {
        assert_eq!(self.len(), dag.num_nodes(), "schedule must cover the dag");
    }

    fn choose(&self, ctx: &PolicyContext<'_, '_>, pool: &[NodeId]) -> usize {
        let _ = ctx;
        let (mut best_i, mut best) = (0usize, self.rank(pool[0]));
        for (i, &v) in pool.iter().enumerate().skip(1) {
            if self.rank(v) < best {
                best_i = i;
                best = self.rank(v);
            }
        }
        best_i
    }

    /// A schedule's rank *is* a static priority: distinct positions
    /// for every scheduled node, [`usize::MAX`] off the schedule (a
    /// driver probing for totality rejects the latter, since the tie
    /// would make the argmin positional).
    fn static_rank(&self, v: NodeId) -> Option<usize> {
        Some(self.rank(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_dag::builder::from_arcs;

    #[test]
    fn schedule_policy_follows_its_ranking() {
        let g = from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let s = Schedule::new(&g, vec![NodeId(0), NodeId(2), NodeId(1), NodeId(3)]).unwrap();
        let st = ExecState::new(&g);
        let ctx = PolicyContext {
            dag: &g,
            state: &st,
            step: 0,
            retries: None,
        };
        // Pool {1, 2}: the schedule ranks 2 before 1.
        assert_eq!(s.choose(&ctx, &[NodeId(1), NodeId(2)]), 1);
        assert_eq!(s.choose(&ctx, &[NodeId(2), NodeId(1)]), 0);
    }

    #[test]
    #[should_panic(expected = "schedule must cover the dag")]
    fn short_schedule_fails_prepare() {
        let g = from_arcs(3, &[(0, 1), (0, 2)]).unwrap();
        let s = Schedule::new_unchecked(vec![NodeId(0)]);
        s.prepare(&g);
    }
}
