//! Exhaustive interleaving exploration.
//!
//! [`check`] runs a depth-first enumeration of every fleet
//! interleaving from the initial state, with two prunings:
//!
//! * **Stamps** — a visited set keyed on the full semantic
//!   fingerprint (machine + every worker model). Two paths that
//!   converge on the same state share one future; the second arrival
//!   is cut. Timestamps, token bytes, rng position, and step counters
//!   are excluded from the fingerprint, so states that differ only in
//!   bookkeeping merge.
//! * **Sleep sets** — after exploring action `a` from a state, `a` is
//!   put to sleep in the subtrees of its sibling actions it provably
//!   commutes with, so only one order of an independent pair is
//!   walked. The independence relation is deliberately conservative:
//!   only heartbeats (machine no-ops at the frozen clock) and
//!   `deliver-gone` (which touches nothing but its own slot's
//!   connected flag) on *distinct workers and distinct tasks*
//!   qualify. Every slept order is a pure transposition of an
//!   explored one, so no state — and no violation — is lost.
//!
//! Invariants are checked on the destination of **every transition**
//! (before the visited-set cut), so a violation is detected the first
//! time any path produces it. On violation the explorer re-runs in
//! breadth-first mode chasing the same diagnostic code, which yields
//! a minimum-length counterexample trace.

use std::collections::{HashSet, VecDeque};

use ic_audit::diag::Diagnostic;
use ic_dag::Dag;
use ic_net::machine::SeededBugs;
use ic_net::Effect;
use ic_sched::policy::AllocationPolicy;
use ic_sim::trace::TraceEvent;

use crate::invariants;
use crate::scenario::{Action, Fleet, FleetSpec};

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Maximum events along any single interleaving.
    pub max_depth: usize,
    /// Maximum distinct states to visit before giving up.
    pub max_states: usize,
    /// Re-run breadth-first after a violation to minimize the
    /// counterexample (otherwise the DFS path is reported as-is).
    pub minimize: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_depth: 48,
            max_states: 200_000,
            minimize: true,
        }
    }
}

/// Counters from one exploration.
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions applied (including ones landing on visited states).
    pub transitions: usize,
    /// Transitions skipped because the destination was already
    /// visited.
    pub visited_pruned: usize,
    /// Transitions skipped by the sleep sets.
    pub sleep_pruned: usize,
    /// Deepest interleaving reached.
    pub deepest: usize,
    /// Terminal states reached (dag complete, fleet drained).
    pub complete_runs: usize,
    /// Whether the depth bound truncated any path.
    pub depth_capped: bool,
    /// Whether the state bound stopped the exploration early.
    pub state_capped: bool,
}

impl CheckStats {
    /// Whether every path ran to its natural end within the bounds.
    pub fn exhaustive(&self) -> bool {
        !self.depth_capped && !self.state_capped
    }
}

/// A violated invariant with its (minimized) event trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The invariant that failed, with a stable `IC05xx` code.
    pub diag: Diagnostic,
    /// The event trace reaching the violation, one rendered action
    /// per line.
    pub trace: Vec<String>,
    /// Exploration counters up to detection.
    pub stats: CheckStats,
}

/// The result of a [`check`] run.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// Every reachable state (within bounds) satisfied every
    /// invariant.
    Clean(CheckStats),
    /// Some interleaving violates an invariant.
    Violation(Box<Violation>),
}

impl CheckOutcome {
    /// Whether the exploration finished without a violation.
    pub fn is_clean(&self) -> bool {
        matches!(self, CheckOutcome::Clean(_))
    }

    /// The exploration counters, clean or not.
    pub fn stats(&self) -> &CheckStats {
        match self {
            CheckOutcome::Clean(s) => s,
            CheckOutcome::Violation(v) => &v.stats,
        }
    }
}

/// Model-check the lease protocol: explore every interleaving of
/// `fleet` against `dag` under `policy`, checking all seven `IC05xx`
/// invariants at every state.
pub fn check(
    dag: &Dag,
    policy: &dyn AllocationPolicy,
    fleet: &FleetSpec,
    cfg: &CheckConfig,
    bugs: SeededBugs,
) -> CheckOutcome {
    let mut ctx = Ctx {
        dag,
        spec: fleet,
        cfg,
        visited: HashSet::new(),
        stats: CheckStats::default(),
        path: Vec::new(),
    };
    let root = Fleet::new(dag, policy, fleet, bugs);
    ctx.visited.insert(root.fingerprint());
    ctx.stats.states = 1;
    let found = match invariants::violation(dag, &root) {
        Some(diag) => Some((diag, Vec::new())),
        None => dfs(&mut ctx, &root, 0, &[]).map(|diag| (diag, ctx.path.clone())),
    };
    let Some((diag, dfs_path)) = found else {
        return CheckOutcome::Clean(ctx.stats);
    };
    Minimizer {
        spec: fleet,
        cfg,
        check: |child: &Fleet<'_, '_>, fx: &[Effect], _: &[TraceEvent]| {
            invariants::drain_violation(child, fx).or_else(|| invariants::violation(dag, child))
        },
        key: |fleet: &Fleet<'_, '_>, _: &[TraceEvent]| fleet.fingerprint(),
    }
    .into_violation(root, ctx.stats, diag, dfs_path)
}

struct Ctx<'s, 'd> {
    dag: &'d Dag,
    spec: &'s FleetSpec,
    cfg: &'s CheckConfig,
    visited: HashSet<u64>,
    stats: CheckStats,
    path: Vec<Action>,
}

/// Append the trace events among `fx` to the log written so far.
pub(crate) fn collect_trace(log: &mut Vec<TraceEvent>, fx: &[Effect]) {
    for e in fx {
        if let Effect::Trace(ev) = e {
            log.push(*ev);
        }
    }
}

/// Counterexample minimization, shared by [`check`] and
/// [`crate::check_crash`]. The two explorations differ only in the
/// per-state `check` (given a state, the effects of the transition
/// into it, and the trace log written along the path) and in the
/// visited-set `key` (the crash checker also hashes that log).
pub(crate) struct Minimizer<'s, C, K> {
    pub(crate) spec: &'s FleetSpec,
    pub(crate) cfg: &'s CheckConfig,
    pub(crate) check: C,
    pub(crate) key: K,
}

impl<C, K> Minimizer<'_, C, K>
where
    C: Fn(&Fleet<'_, '_>, &[Effect], &[TraceEvent]) -> Option<Diagnostic>,
    K: Fn(&Fleet<'_, '_>, &[TraceEvent]) -> u64,
{
    /// Package a violation, minimizing the trace breadth-first from
    /// `root` when configured (falls back to the DFS path if the BFS
    /// re-run hits its bounds first).
    pub(crate) fn into_violation(
        self,
        root: Fleet<'_, '_>,
        stats: CheckStats,
        diag: Diagnostic,
        dfs_path: Vec<Action>,
    ) -> CheckOutcome {
        let path = if self.cfg.minimize {
            self.bfs_shortest(root, diag.code).unwrap_or(dfs_path)
        } else {
            dfs_path
        };
        CheckOutcome::Violation(Box::new(Violation {
            diag,
            trace: path.iter().map(|a| a.to_string()).collect(),
            stats,
        }))
    }

    /// Breadth-first search for the shortest path reproducing `code`.
    /// Shares the same action space as the DFS (minus sleep sets,
    /// which only skip redundant orders), so the first hit is a
    /// minimum-length counterexample.
    fn bfs_shortest(&self, root: Fleet<'_, '_>, code: &str) -> Option<Vec<Action>> {
        let mut visited = HashSet::new();
        visited.insert((self.key)(&root, &[]));
        let mut queue = VecDeque::new();
        queue.push_back((root, Vec::<TraceEvent>::new(), Vec::<Action>::new()));
        let mut states = 1usize;
        while let Some((fleet, log, path)) = queue.pop_front() {
            if path.len() >= self.cfg.max_depth {
                continue;
            }
            for a in fleet.enabled(self.spec) {
                let mut child = fleet.clone();
                let fx = child.apply(self.spec, a);
                let mut child_log = log.clone();
                collect_trace(&mut child_log, &fx);
                let mut step_path = path.clone();
                step_path.push(a);
                if let Some(d) = (self.check)(&child, &fx, &child_log) {
                    if d.code == code {
                        return Some(step_path);
                    }
                    continue; // a different violation: don't expand past it
                }
                if visited.insert((self.key)(&child, &child_log)) {
                    states += 1;
                    if states >= self.cfg.max_states {
                        return None;
                    }
                    queue.push_back((child, child_log, step_path));
                }
            }
        }
        None
    }
}

/// Whether `a` only touches its own worker's lease-local state — the
/// precondition for commuting with another worker's lease-local
/// action. Heartbeats never change machine scheduling state at the
/// frozen clock; a `deliver-gone` only flips its own slot's connected
/// flag (workers keep their leases across a sever).
fn lease_local(a: Action) -> bool {
    matches!(a, Action::Beat(..) | Action::DeliverGone(_))
}

/// Conservative independence: both actions lease-local, on distinct
/// workers, touching distinct tasks (if any). Independent pairs fully
/// commute — both orders land on the same state with the same worker
/// views — so exploring one order suffices.
fn independent(a: Action, b: Action) -> bool {
    if a.worker() == b.worker() || !lease_local(a) || !lease_local(b) {
        return false;
    }
    match (a.task(), b.task()) {
        (Some(x), Some(y)) => x != y,
        _ => true,
    }
}

fn dfs(
    ctx: &mut Ctx<'_, '_>,
    fleet: &Fleet<'_, '_>,
    depth: usize,
    sleep: &[Action],
) -> Option<Diagnostic> {
    if ctx.stats.states >= ctx.cfg.max_states {
        ctx.stats.state_capped = true;
        return None;
    }
    if depth >= ctx.cfg.max_depth {
        ctx.stats.depth_capped = true;
        return None;
    }
    ctx.stats.deepest = ctx.stats.deepest.max(depth);
    let mut explored: Vec<Action> = Vec::new();
    for a in fleet.enabled(ctx.spec) {
        if sleep.contains(&a) {
            ctx.stats.sleep_pruned += 1;
            continue;
        }
        let mut child = fleet.clone();
        let fx = child.apply(ctx.spec, a);
        ctx.stats.transitions += 1;
        ctx.path.push(a);
        if let Some(d) = invariants::drain_violation(&child, &fx)
            .or_else(|| invariants::violation(ctx.dag, &child))
        {
            return Some(d);
        }
        let fp = child.fingerprint();
        if !ctx.visited.insert(fp) {
            ctx.stats.visited_pruned += 1;
            ctx.path.pop();
            explored.push(a);
            continue;
        }
        ctx.stats.states += 1;
        if child.terminal() {
            ctx.stats.complete_runs += 1;
        }
        let child_sleep: Vec<Action> = sleep
            .iter()
            .chain(explored.iter())
            .copied()
            .filter(|&b| independent(b, a))
            .collect();
        if let Some(d) = dfs(ctx, &child, depth + 1, &child_sleep) {
            return Some(d);
        }
        ctx.path.pop();
        explored.push(a);
    }
    None
}
