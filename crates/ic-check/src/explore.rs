//! Exhaustive interleaving exploration: the one search behind
//! [`check`] and [`crate::check_crash`].
//!
//! A depth-first enumeration of every fleet interleaving from the
//! initial state, with two prunings:
//!
//! * **Stamps** — a visited set keyed on the fleet's semantic
//!   fingerprint (`Fleet::fingerprint` says what it hashes); the second path
//!   to a state is cut.
//! * **Sleep sets** — after exploring action `a`, `a` sleeps in the
//!   subtrees of the sibling actions it provably commutes with. Only
//!   heartbeat rounds and `deliver-gone`s of *distinct workers* qualify:
//!   a round's heartbeats are machine no-ops at the frozen clock whose
//!   replies reach only their own worker, and a `deliver-gone` touches
//!   only its own connection and slot. Every slept order is a
//!   transposition of an explored one, so no state is lost.
//!
//! `check` scans the `IC05xx` invariants and carries nothing along a
//! path; `check_crash` carries the restore fold of the path's trace (a
//! `PathState`), hashes it into the visited key, and keeps sleep sets
//! off, because their argument is made for fleet states (DESIGN §4e).
//! Invariants are checked on the destination of **every transition**,
//! before the visited-set cut; on a violation a breadth-first re-run
//! chasing the same code yields a minimum-length counterexample.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

use ic_audit::diag::Diagnostic;
use ic_dag::Dag;
use ic_net::machine::SeededBugs;
use ic_net::Effect;
use ic_sched::policy::AllocationPolicy;

use crate::invariants;
use crate::scenario::{Action, Fleet, FleetSpec};

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Maximum events along any single interleaving.
    pub max_depth: usize,
    /// Maximum distinct states to visit before giving up.
    pub max_states: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_depth: 48,
            max_states: 200_000,
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

/// A violated invariant with its (shortest found) event trace.
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

/// Model-check the server: explore every interleaving of `fleet`
/// against `dag` under `policy`, checking every `IC05xx` invariant on
/// every transition.
pub fn check(
    dag: &Dag,
    policy: &dyn AllocationPolicy,
    fleet: &FleetSpec,
    cfg: &CheckConfig,
    bugs: SeededBugs,
) -> CheckOutcome {
    let root = Fleet::new(dag, policy, fleet, bugs);
    let invariants = |child: &Fleet<'_, '_>, fx: &[Effect], _: &()| {
        let m = child.machine();
        let late = child.late_step;
        late.and_then(|(before, after)| invariants::late_violation(before, after))
            .or_else(|| invariants::drain_violation(m, fx))
            .or_else(|| invariants::violation(dag, m, &child.completions, &child.live()))
    };
    explore(root, (), cfg, invariants)
}

/// What the search carries along a path besides the fleet, and hashes
/// into the visited key beside the fleet's fingerprint.
pub(crate) trait PathState: Clone {
    /// Whether sleep sets may prune (see the module docs).
    const SLEEP_SETS: bool;
    /// The state after a transition with effects `fx`.
    fn after(&self, fx: &[Effect]) -> Self;
    /// Hash what tells two states apart.
    fn fingerprint_into(&self, h: &mut DefaultHasher);
}

/// `check` carries nothing: the fleet is the state.
impl PathState for () {
    const SLEEP_SETS: bool = true;
    fn after(&self, _: &[Effect]) {}
    fn fingerprint_into(&self, _: &mut DefaultHasher) {}
}

/// Run the search from `root` and `state` with the per-state `check`
/// (given a fleet, the effects of the transition into it, and the
/// path state) and package what it finds.
pub(crate) fn explore<S, C>(
    root: Fleet<'_, '_>,
    state: S,
    cfg: &CheckConfig,
    check: C,
) -> CheckOutcome
where
    S: PathState,
    C: Fn(&Fleet<'_, '_>, &[Effect], &S) -> Option<Diagnostic>,
{
    let mut search = Search {
        cfg,
        check,
        state: PhantomData,
        visited: HashSet::new(),
        stats: CheckStats::default(),
        path: Vec::new(),
    };
    search.visited.insert(key(&root, &state));
    search.stats.states = 1;
    let found = (search.check)(&root, &[], &state).or_else(|| search.dfs(&root, &state, 0, &[]));
    let Some(diag) = found else {
        return CheckOutcome::Clean(search.stats);
    };
    // Shorten breadth-first; fall back to the DFS path if the BFS
    // re-run hits its bounds first.
    let shortest = search.bfs_shortest(root, state, diag.code);
    let path = shortest.unwrap_or(search.path);
    CheckOutcome::Violation(Box::new(Violation {
        diag,
        trace: path.iter().map(|a| a.to_string()).collect(),
        stats: search.stats,
    }))
}

/// The visited-set key: the fleet's fingerprint and the path state's.
fn key<S: PathState>(fleet: &Fleet<'_, '_>, state: &S) -> u64 {
    let mut h = DefaultHasher::new();
    fleet.fingerprint().hash(&mut h);
    state.fingerprint_into(&mut h);
    h.finish()
}

/// One run of the search: its inputs, and the visited set, counters
/// and current path it builds.
struct Search<'s, S, C> {
    cfg: &'s CheckConfig,
    check: C,
    state: PhantomData<S>,
    visited: HashSet<u64>,
    stats: CheckStats,
    path: Vec<Action>,
}

/// Conservative independence (see the module docs): heartbeat rounds
/// and `deliver-gone`s of distinct workers. Both orders of such a pair
/// land on the same state, so exploring one suffices.
fn independent(a: Action, b: Action) -> bool {
    use Action::{Beat, DeliverGone};
    match (a, b) {
        (Beat(i) | DeliverGone(i), Beat(j) | DeliverGone(j)) => i != j,
        _ => false,
    }
}

impl<S, C> Search<'_, S, C>
where
    S: PathState,
    C: Fn(&Fleet<'_, '_>, &[Effect], &S) -> Option<Diagnostic>,
{
    fn dfs(
        &mut self,
        fleet: &Fleet<'_, '_>,
        state: &S,
        depth: usize,
        sleep: &[Action],
    ) -> Option<Diagnostic> {
        if self.stats.states >= self.cfg.max_states {
            self.stats.state_capped = true;
            return None;
        }
        self.stats.deepest = self.stats.deepest.max(depth);
        let enabled = fleet.enabled();
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
            let fx = child.apply(a);
            let child_state = state.after(&fx);
            self.stats.transitions += 1;
            self.path.push(a);
            if let Some(d) = (self.check)(&child, &fx, &child_state) {
                return Some(d);
            }
            if !self.visited.insert(key(&child, &child_state)) {
                self.stats.visited_pruned += 1;
                self.path.pop();
                explored.push(a);
                continue;
            }
            self.stats.states += 1;
            if child.terminal() {
                self.stats.complete_runs += 1;
            }
            let child_sleep: Vec<Action> = sleep
                .iter()
                .chain(explored.iter())
                .copied()
                .filter(|&b| S::SLEEP_SETS && independent(b, a))
                .collect();
            if let Some(d) = self.dfs(&child, &child_state, depth + 1, &child_sleep) {
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
    fn bfs_shortest(&self, root: Fleet<'_, '_>, state: S, code: &str) -> Option<Vec<Action>> {
        let mut visited = HashSet::new();
        visited.insert(key(&root, &state));
        let mut queue = VecDeque::new();
        queue.push_back((root, state, Vec::<Action>::new()));
        let mut states = 1usize;
        while let Some((fleet, state, path)) = queue.pop_front() {
            if path.len() >= self.cfg.max_depth {
                continue;
            }
            for a in fleet.enabled() {
                let mut child = fleet.clone();
                let fx = child.apply(a);
                let child_state = state.after(&fx);
                let mut step_path = path.clone();
                step_path.push(a);
                if let Some(d) = (self.check)(&child, &fx, &child_state) {
                    if d.code == code {
                        return Some(step_path);
                    }
                    continue; // a different violation: don't expand past it
                }
                if visited.insert(key(&child, &child_state)) {
                    states += 1;
                    if states >= self.cfg.max_states {
                        return None;
                    }
                    queue.push_back((child, child_state, step_path));
                }
            }
        }
        None
    }
}
