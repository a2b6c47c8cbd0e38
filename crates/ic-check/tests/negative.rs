//! The negative suite: historical bugs are deliberately re-seeded
//! into the `LeaseMachine` (behind `SeededBugs` runtime flags) and
//! the checker must find each one — with the right stable diagnostic
//! code and a counterexample short enough to read.
//!
//! Each case also re-runs the *same* fleet with the bugs off and
//! demands a clean pass, proving the finding is caused by the seeded
//! bug and not by the scenario.

use ic_check::{check, check_crash, CheckConfig, CheckOutcome, FleetSpec, WorkerSpec};
use ic_dag::Dag;
use ic_net::machine::SeededBugs;
use ic_sched::heuristics::Policy;

/// Run the checker and demand a violation with `code` and a
/// counterexample of at most `max_events` events; then re-run clean.
fn assert_caught(
    dag: &Dag,
    fleet: &FleetSpec,
    bugs: SeededBugs,
    code: &str,
    max_events: usize,
) -> Vec<String> {
    let cfg = CheckConfig::default();
    let outcome = check(dag, &Policy::Fifo, fleet, &cfg, bugs);
    let violation = match outcome {
        CheckOutcome::Violation(v) => v,
        CheckOutcome::Clean(stats) => panic!(
            "expected {code} but the exploration came back clean \
             ({} states, exhaustive: {})",
            stats.states,
            stats.exhaustive()
        ),
    };
    assert_eq!(
        violation.diag.code, code,
        "wrong diagnostic: {}",
        violation.diag
    );
    assert!(
        violation.trace.len() <= max_events,
        "counterexample too long ({} events > {max_events}): {:?}",
        violation.trace.len(),
        violation.trace
    );
    assert!(
        !violation.trace.is_empty(),
        "a seeded bug cannot fire at the initial state"
    );

    let clean = check(dag, &Policy::Fifo, fleet, &cfg, SeededBugs::default());
    assert!(
        clean.is_clean(),
        "the un-seeded machine must pass the same fleet: {:?}",
        match clean {
            CheckOutcome::Violation(v) => format!("{} / {:?}", v.diag, v.trace),
            _ => String::new(),
        }
    );
    violation.trace
}

/// A two-node chain: enough structure for every seeded bug.
fn chain2() -> Dag {
    ic_families::trees::complete_out_tree(1, 1)
}

/// PR 3's lease-overwrite: a request from a worker already holding a
/// lease dropped the old lease without returning the task, leaving it
/// claimed-but-nowhere. The partition invariant (pool ⊎ deferred ⊎
/// leased = ELIGIBLE) catches the orphan as IC0506.
#[test]
fn the_orphan_on_request_bug_is_caught_as_ic0506() {
    let dag = chain2();
    let fleet = FleetSpec {
        workers: vec![WorkerSpec::v2().greedy()],
        steal: false,
        batch: 1,
    };
    let bugs = SeededBugs {
        orphan_on_request: true,
        ..SeededBugs::default()
    };
    let trace = assert_caught(&dag, &fleet, bugs, "IC0506", 20);
    // hello, request (assign), request (orphan): three events suffice.
    assert!(
        trace.len() <= 4,
        "BFS minimization should find the 3-event trigger, got {trace:?}"
    );
}

/// The duplicate-completion bug: a late `done` for an already-executed
/// task emitted a second `Completed` trace event. The speculative
/// steal path makes it reachable with well-behaved workers — the
/// revoked loser's `done` races the winner's. Caught as IC0502.
#[test]
fn the_duplicate_completion_bug_is_caught_as_ic0502() {
    let dag = chain2();
    let fleet = FleetSpec {
        workers: vec![WorkerSpec::v2(), WorkerSpec::v2()],
        steal: true,
        batch: 1,
    };
    let bugs = SeededBugs {
        double_completion_event: true,
        ..SeededBugs::default()
    };
    let trace = assert_caught(&dag, &fleet, bugs, "IC0502", 20);
    // hello×2, request×2 (primary + speculative steal), done×2.
    assert!(
        trace.len() <= 8,
        "expected the 6-event steal race, got {trace:?}"
    );
}

/// The stale-`Gone` bug: a `Gone` from a dead connection, delivered
/// after the worker already resumed on a fresh epoch, was honored and
/// disconnected the resumed slot. The epoch guard exists precisely to
/// refuse it; with the guard bypassed the live-worker/machine
/// agreement fails as IC0504.
#[test]
fn the_stale_gone_bug_is_caught_as_ic0504() {
    let dag = chain2();
    let fleet = FleetSpec {
        workers: vec![WorkerSpec::v2().severs(1)],
        steal: false,
        batch: 1,
    };
    let bugs = SeededBugs {
        honor_stale_gone: true,
        ..SeededBugs::default()
    };
    let trace = assert_caught(&dag, &fleet, bugs, "IC0504", 20);
    // hello, sever, resume, deliver-gone (stale): four events.
    assert!(
        trace.len() <= 5,
        "expected the 4-event stale-Gone race, got {trace:?}"
    );
}

/// The skipped-epoch-bump bug: a slot rebuilt from the trace after a
/// crash kept epoch 0 instead of being bumped past everything the
/// pre-crash run issued, so a stale `Gone` (or stale resume) from
/// before the crash could act on the recovered slot. The crash
/// checker kills the server at every prefix, rebuilds through a
/// `Restorer` built with the bug seeded, and catches the regression as
/// IC0702.
#[test]
fn the_skipped_recovery_epoch_bump_is_caught_as_ic0702() {
    let dag = chain2();
    let fleet = FleetSpec {
        workers: vec![WorkerSpec::v2()],
        steal: false,
        batch: 1,
    };
    let bugs = SeededBugs {
        skip_recovery_epoch_bump: true,
        ..SeededBugs::default()
    };
    let cfg = CheckConfig::default();
    let outcome = check_crash(&dag, &Policy::Fifo, &fleet, &cfg, bugs);
    let violation = match outcome {
        CheckOutcome::Violation(v) => v,
        CheckOutcome::Clean(stats) => panic!(
            "expected IC0702 but the crash exploration came back clean ({} states)",
            stats.states
        ),
    };
    assert_eq!(
        violation.diag.code, "IC0702",
        "wrong diagnostic: {}",
        violation.diag
    );
    // hello, request (first alloc puts a client in the log — the
    // smallest state where a rebuilt slot exists to regress).
    assert!(
        violation.trace.len() <= 3,
        "BFS minimization should find the 2-event trigger, got {:?}",
        violation.trace
    );

    let clean = check_crash(&dag, &Policy::Fifo, &fleet, &cfg, SeededBugs::default());
    assert!(
        clean.is_clean(),
        "the un-seeded restore must pass the same fleet: {:?}",
        match clean {
            CheckOutcome::Violation(v) => format!("{} / {:?}", v.diag, v.trace),
            _ => String::new(),
        }
    );
}

/// All three bugs seeded at once: the checker reports *some* violation
/// (whichever interleaving trips first) rather than wedging.
#[test]
fn all_bugs_at_once_still_produce_a_single_minimal_finding() {
    let dag = chain2();
    let fleet = FleetSpec {
        workers: vec![WorkerSpec::v2().greedy().severs(1), WorkerSpec::v2()],
        steal: true,
        batch: 1,
    };
    let bugs = SeededBugs {
        orphan_on_request: true,
        double_completion_event: true,
        honor_stale_gone: true,
        ..SeededBugs::default()
    };
    let outcome = check(&dag, &Policy::Fifo, &fleet, &CheckConfig::default(), bugs);
    match outcome {
        CheckOutcome::Violation(v) => {
            assert!(v.diag.code.starts_with("IC05"), "unexpected {}", v.diag);
            assert!(v.trace.len() <= 20);
        }
        CheckOutcome::Clean(_) => panic!("three seeded bugs cannot all hide"),
    }
}
