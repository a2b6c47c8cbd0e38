//! Exact exploration counts, pinned.
//!
//! The checker is deterministic, so every counter of a run is a
//! property of its configuration: states, transitions, visited-set
//! and sleep-set prunings, complete runs, the deepest interleaving,
//! and whether the run was exhaustive. These pins hold the search
//! itself fixed. A change to how it walks, keys or prunes the state
//! space moves a number here; a change to the protocol machine does
//! too, and should then say why the counts moved.
//!
//! The `check` rows are EXPERIMENTS §MC's table, the steal run, and
//! the `check` bench's `chain4_faulty`. The crash rows are
//! `check_crash`, which keys its visited set on the restore fold's
//! state; the log-keyed search it replaced keeps its own counts pinned
//! beside its oracle, in `ic-check/src/crash.rs`'s unit tests.

use ic_check::{check, check_crash, CheckConfig, CheckOutcome, CheckStats, FleetSpec, WorkerSpec};
use ic_dag::Dag;
use ic_net::machine::SeededBugs;
use ic_sched::heuristics::Policy;

/// (states, transitions, visited-pruned, slept, complete runs,
/// deepest, exhaustive).
type Counts = (usize, usize, usize, usize, usize, usize, bool);

fn counts(s: &CheckStats) -> Counts {
    (
        s.states,
        s.transitions,
        s.visited_pruned,
        s.sleep_pruned,
        s.complete_runs,
        s.deepest,
        s.exhaustive(),
    )
}

type Checker = fn(
    &Dag,
    &dyn ic_sched::policy::AllocationPolicy,
    &FleetSpec,
    &CheckConfig,
    SeededBugs,
) -> CheckOutcome;

fn run(checker: Checker, dag: &Dag, fleet: &FleetSpec, max_depth: usize) -> Counts {
    let cfg = CheckConfig {
        max_depth,
        ..CheckConfig::default()
    };
    let outcome = checker(dag, &Policy::Fifo, fleet, &cfg, SeededBugs::default());
    assert!(outcome.is_clean(), "the clean machine must pass");
    counts(outcome.stats())
}

fn mesh(n: usize) -> Dag {
    ic_families::mesh::out_mesh(n)
}

#[test]
fn the_mc_table_counts_are_pinned() {
    let rows: [(usize, usize, Counts); 6] = [
        (3, 1, (15, 14, 0, 0, 1, 14, true)),
        (3, 2, (118, 222, 105, 0, 3, 17, true)),
        (3, 3, (498, 1_381, 884, 0, 7, 20, true)),
        (4, 2, (345, 676, 332, 0, 3, 25, true)),
        (4, 3, (1_744, 5_111, 3_368, 0, 7, 28, true)),
        (4, 4, (6_770, 26_134, 19_365, 0, 15, 31, true)),
    ];
    for (n, workers, want) in rows {
        let got = run(check, &mesh(n), &FleetSpec::of(workers), 48);
        assert_eq!(got, want, "mesh:{n} x {workers} workers");
    }
}

#[test]
fn the_steal_counts_are_pinned() {
    let fleet = FleetSpec::of(2).with_steal();
    let got = run(check, &mesh(3), &fleet, 48);
    assert_eq!(got, (146, 274, 129, 0, 1, 16, true));
}

#[test]
fn the_faulty_chain_counts_are_pinned() {
    let fleet = FleetSpec {
        workers: vec![
            WorkerSpec::v2().fails(1).severs(1).expiries(1),
            WorkerSpec::v2(),
        ],
        steal: false,
        batch: 1,
    };
    let got = run(
        check,
        &ic_families::trees::complete_out_tree(1, 3),
        &fleet,
        48,
    );
    assert_eq!(got, (5_607, 13_760, 8_154, 0, 141, 22, true));
}

#[test]
fn the_crash_counts_are_pinned() {
    let got = run(check_crash, &mesh(3), &FleetSpec::of(2), 48);
    assert_eq!(got, (264, 482, 219, 0, 11, 19, true));
    let steal = run(check_crash, &mesh(3), &FleetSpec::of(2).with_steal(), 48);
    assert_eq!(steal, (319, 584, 266, 0, 6, 22, true));
}

/// A depth bound truncates a run only where a state at the bound could
/// go on, and `deepest` counts the events of the paths it checked. The
/// longest plain interleaving of mesh:3 x 2 is 17 events, the longest
/// crash-checked one 19 (under the log key too: `crash.rs`).
#[test]
fn a_depth_bound_truncates_only_paths_that_could_go_on() {
    let fleet = FleetSpec::of(2);
    let plain = |depth| run(check, &mesh(3), &fleet, depth);
    assert_eq!(plain(17), (118, 222, 105, 0, 3, 17, true));
    assert_eq!(plain(16), (116, 218, 103, 0, 1, 16, false));
    assert_eq!(plain(3).5, 3, "3-event paths were checked");
    let crash = run(check_crash, &mesh(3), &fleet, 19);
    assert_eq!(crash, (264, 482, 219, 0, 11, 19, true));
    let crash = run(check_crash, &mesh(3), &fleet, 18);
    assert_eq!(crash, (262, 478, 217, 0, 9, 18, false));
}
