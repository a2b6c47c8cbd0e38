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
        (3, 1, (16, 15, 0, 0, 1, 15, true)),
        (3, 2, (134, 245, 112, 3, 3, 19, true)),
        (3, 3, (647, 1_667, 1_021, 49, 7, 23, true)),
        (4, 2, (361, 699, 339, 3, 3, 27, true)),
        (4, 3, (1_893, 5_397, 3_505, 49, 7, 31, true)),
        (4, 4, (7_894, 28_852, 20_959, 510, 15, 35, true)),
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
    assert_eq!(got, (164, 307, 144, 1, 1, 18, true));
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
    assert_eq!(got, (6_857, 15_868, 9_012, 455, 141, 24, true));
}

#[test]
fn the_crash_counts_are_pinned() {
    let got = run(check_crash, &mesh(3), &FleetSpec::of(2), 48);
    assert_eq!(got, (320, 572, 253, 0, 11, 21, true));
    let steal = run(check_crash, &mesh(3), &FleetSpec::of(2).with_steal(), 48);
    assert_eq!(steal, (378, 690, 313, 0, 6, 24, true));
}

/// A depth bound truncates a run only where a state at the bound could
/// go on, and `deepest` counts the events of the paths it checked. The
/// longest plain interleaving of mesh:3 x 2 is 19 events, the longest
/// crash-checked one 21 (under the log key too: `crash.rs`).
#[test]
fn a_depth_bound_truncates_only_paths_that_could_go_on() {
    let fleet = FleetSpec::of(2);
    let plain = |depth| run(check, &mesh(3), &fleet, depth);
    assert_eq!(plain(19), (134, 245, 112, 3, 3, 19, true));
    assert_eq!(plain(18), (132, 243, 112, 1, 1, 18, false));
    assert_eq!(plain(3).5, 3, "3-event paths were checked");
    let crash = run(check_crash, &mesh(3), &fleet, 21);
    assert_eq!(crash, (320, 572, 253, 0, 11, 21, true));
    let crash = run(check_crash, &mesh(3), &fleet, 20);
    assert_eq!(crash, (318, 568, 251, 0, 9, 20, false));
}
