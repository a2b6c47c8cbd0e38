//! Exhaustive interleaving exploration: the one search behind
//! [`check`] and [`crate::check_crash`].
//!
//! The search is a depth-first enumeration of every fleet
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
//! The two checkers differ only in the per-state check and in whether
//! the trace log written along the path is part of the state. `check`
//! scans the `IC05xx` invariants and leaves the log out. `check_crash`
//! rebuilds a machine from the log at every state, so two paths to one
//! fleet state with different logs are different states: the log is
//! hashed into the visited key, and sleep sets are off, because their
//! argument (both orders reach one state) is made for fleet states.
//!
//! Invariants are checked on the destination of **every transition**
//! (before the visited-set cut), so a violation is detected the first
//! time any path produces it. On violation the explorer re-runs in
//! breadth-first mode chasing the same diagnostic code, which yields
//! a minimum-length counterexample trace.

use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

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
    /// Events on the longest path explored (at most `max_depth`).
    pub deepest: usize,
    /// Terminal states reached (dag complete, fleet drained).
    pub complete_runs: usize,
    /// Whether the depth bound cut a path that could go on: some
    /// state at the bound had an enabled action.
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
    let root = Fleet::new(dag, policy, fleet, bugs);
    let invariants = |child: &Fleet<'_, '_>, fx: &[Effect], _: &[TraceEvent]| {
        invariants::drain_violation(child, fx).or_else(|| invariants::violation(dag, child))
    };
    explore(root, fleet, cfg, false, invariants)
}

/// Run the search from `root` with the per-state `check` (given a
/// state, the effects of the transition into it, and the log, which
/// is empty unless `log_in_state`) and package what it finds.
pub(crate) fn explore<C>(
    root: Fleet<'_, '_>,
    spec: &FleetSpec,
    cfg: &CheckConfig,
    log_in_state: bool,
    check: C,
) -> CheckOutcome
where
    C: Fn(&Fleet<'_, '_>, &[Effect], &[TraceEvent]) -> Option<Diagnostic>,
{
    let mut search = Search {
        spec,
        cfg,
        check,
        log_in_state,
        visited: HashSet::new(),
        stats: CheckStats::default(),
        path: Vec::new(),
    };
    search.visited.insert(search.key(&root, &[]));
    search.stats.states = 1;
    let found = (search.check)(&root, &[], &[]).or_else(|| search.dfs(&root, &[], 0, &[]));
    let Some(diag) = found else {
        return CheckOutcome::Clean(search.stats);
    };
    // Minimize breadth-first when configured; fall back to the DFS
    // path if the BFS re-run hits its bounds first.
    let shortest = cfg.minimize.then(|| search.bfs_shortest(root, diag.code));
    let path = shortest.flatten().unwrap_or(search.path);
    CheckOutcome::Violation(Box::new(Violation {
        diag,
        trace: path.iter().map(|a| a.to_string()).collect(),
        stats: search.stats,
    }))
}

/// One run of the search: its inputs, and the visited set, counters
/// and current path it builds.
struct Search<'s, C> {
    spec: &'s FleetSpec,
    cfg: &'s CheckConfig,
    check: C,
    log_in_state: bool,
    visited: HashSet<u64>,
    stats: CheckStats,
    path: Vec<Action>,
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

impl<C> Search<'_, C>
where
    C: Fn(&Fleet<'_, '_>, &[Effect], &[TraceEvent]) -> Option<Diagnostic>,
{
    /// The visited-set key: the fleet's fingerprint, with every log
    /// line hashed in when the log is part of the state.
    fn key(&self, fleet: &Fleet<'_, '_>, log: &[TraceEvent]) -> u64 {
        if !self.log_in_state {
            return fleet.fingerprint();
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        fleet.fingerprint().hash(&mut h);
        for e in log {
            e.to_json_line().hash(&mut h);
        }
        h.finish()
    }

    /// The log after a transition: `log` plus the trace events among
    /// its effects `fx`, or nothing when the log is not part of the
    /// state.
    fn extend(&self, log: &[TraceEvent], fx: &[Effect]) -> Vec<TraceEvent> {
        if !self.log_in_state {
            return Vec::new();
        }
        let mut out = log.to_vec();
        out.extend(fx.iter().filter_map(|e| match e {
            Effect::Trace(ev) => Some(*ev),
            _ => None,
        }));
        out
    }

    fn dfs(
        &mut self,
        fleet: &Fleet<'_, '_>,
        log: &[TraceEvent],
        depth: usize,
        sleep: &[Action],
    ) -> Option<Diagnostic> {
        if self.stats.states >= self.cfg.max_states {
            self.stats.state_capped = true;
            return None;
        }
        self.stats.deepest = self.stats.deepest.max(depth);
        let enabled = fleet.enabled(self.spec);
        if depth >= self.cfg.max_depth {
            self.stats.depth_capped |= !enabled.is_empty();
            return None;
        }
        let mut explored: Vec<Action> = Vec::new();
        for a in enabled {
            if sleep.contains(&a) {
                self.stats.sleep_pruned += 1;
                continue;
            }
            let mut child = fleet.clone();
            let fx = child.apply(self.spec, a);
            let child_log = self.extend(log, &fx);
            self.stats.transitions += 1;
            self.path.push(a);
            if let Some(d) = (self.check)(&child, &fx, &child_log) {
                return Some(d);
            }
            if !self.visited.insert(self.key(&child, &child_log)) {
                self.stats.visited_pruned += 1;
                self.path.pop();
                explored.push(a);
                continue;
            }
            self.stats.states += 1;
            if child.terminal() {
                self.stats.complete_runs += 1;
            }
            // Sleep sets rest on both orders of an independent pair
            // landing on one state; with the log in the state that
            // argument has not been made, so they stay off there.
            let child_sleep: Vec<Action> = sleep
                .iter()
                .chain(explored.iter())
                .copied()
                .filter(|&b| !self.log_in_state && independent(b, a))
                .collect();
            if let Some(d) = self.dfs(&child, &child_log, depth + 1, &child_sleep) {
                return Some(d);
            }
            self.path.pop();
            explored.push(a);
        }
        None
    }

    /// Breadth-first search for the shortest path reproducing `code`.
    /// Shares the same action space as the DFS (minus sleep sets,
    /// which only skip redundant orders), so the first hit is a
    /// minimum-length counterexample.
    fn bfs_shortest(&self, root: Fleet<'_, '_>, code: &str) -> Option<Vec<Action>> {
        let mut visited = HashSet::new();
        visited.insert(self.key(&root, &[]));
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
                let child_log = self.extend(&log, &fx);
                let mut step_path = path.clone();
                step_path.push(a);
                if let Some(d) = (self.check)(&child, &fx, &child_log) {
                    if d.code == code {
                        return Some(step_path);
                    }
                    continue; // a different violation: don't expand past it
                }
                if visited.insert(self.key(&child, &child_log)) {
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
