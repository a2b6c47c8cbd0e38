//! Crash/restart model checking: kill the server at every prefix.
//!
//! The recovery story (see `ic_net::recovery`) claims the JSONL trace
//! is a complete write-ahead log: rebuilding a [`LeaseMachine`] from
//! any prefix of it reconstructs the crashed machine's scheduling
//! state exactly. [`check_crash`] turns that claim into a checked
//! invariant. It runs [`crate::check`]'s search carrying, along every
//! path, the [`Restorer`] fold of the trace that path wrote (each
//! transition pushes its new events), and **after every transition**
//! it simulates a server crash: a clone of the fold is finished into
//! a rebuilt machine, which is compared against the live one:
//!
//! | code   | crash-recovery invariant |
//! |--------|--------------------------|
//! | IC0701 | the rebuilt executed set equals the live one — no completed work lost, none invented |
//! | IC0702 | every rebuilt slot's epoch dominates the live epoch and every resume the log records |
//! | IC0704 | rebuilt leases, rebuilt pool ∪ deferred and the rebuilt report's tallies equal the live machine's (resumes: at most); the restore itself parses |
//!
//! The visited key is the fleet's fingerprint plus the fold's state,
//! not the trace: two paths that wrote the same events in different
//! orders but reached equal fleets and equal folds are one state,
//! because they append the same future events and rebuild equal
//! machines (DESIGN §4e). The log-keyed search this replaced stays as
//! a test oracle in this module's unit tests.
//!
//! On top of the live-versus-rebuilt comparison, every rebuilt state
//! is run through the full `IC05xx` invariant scan
//! ([`crate::invariants::violation`]): the rebuilt pool, deferred
//! queue, and lease table must *partition the ELIGIBLE set* computed
//! from scratch, exactly as any live state must. A restore that
//! errors ([`RestoreError`]) on a log the live run just wrote is
//! reported under the error's own `IC07xx` code.
//!
//! The epoch-floor invariant (IC0702) is the load-bearing one for the
//! resume-across-restart path: a recovered slot whose epoch does not
//! exceed everything the pre-crash run issued could honor a stale
//! `Gone` from a connection that died *before* the crash. The seeded
//! bug `SeededBugs::skip_recovery_epoch_bump` reintroduces exactly
//! that (rebuilt slots keep epoch 0) and is pinned to IC0702 by the
//! negative suite.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

use ic_audit::diag::{
    Diagnostic, RECOVERY_CORRUPT_TRACE, RECOVERY_DUPLICATE_COMPLETION, RECOVERY_EPOCH_REGRESSION,
};
use ic_dag::{Dag, NodeId};
use ic_net::machine::{RestoreError, Restorer, SeededBugs};
use ic_net::{Effect, LeaseMachine, ServeReport};
use ic_sched::policy::AllocationPolicy;
use ic_sim::trace::{EventKind, TraceHeader};

use crate::explore::{explore, CheckConfig, CheckOutcome, PathState};
use crate::invariants;
use crate::scenario::{Fleet, FleetSpec};

/// Model-check crash recovery: explore every fleet interleaving and,
/// at every reached state, rebuild a machine from the trace prefix
/// and require it to agree with the live one.
///
/// `bugs` seeds the **rebuild** (not the live run): the live machine
/// always runs clean, so any divergence is the restore path's fault.
pub fn check_crash(
    dag: &Dag,
    policy: &dyn AllocationPolicy,
    fleet: &FleetSpec,
    cfg: &CheckConfig,
    bugs: SeededBugs,
) -> CheckOutcome {
    let root = Fleet::new(dag, policy, fleet, SeededBugs::default());
    let fold = CrashFold::new(dag, policy, fleet, bugs);
    let check = |live: &Fleet<'_, '_>, _: &[Effect], fold: &CrashFold<'_, '_>| {
        fold.crash_violation(dag, live)
    };
    explore(root, fold, cfg, check)
}

/// What the crash search carries along a path: the restore fold of the
/// trace written so far, and every client that trace names with its
/// `Resumed` events (the IC0702 floor).
#[derive(Clone)]
pub(crate) struct CrashFold<'a, 'd> {
    /// The fold, or why it failed.
    restorer: Result<Restorer<'a, 'd>, RestoreError>,
    resumes: BTreeMap<usize, u64>,
}

impl<'a, 'd> CrashFold<'a, 'd> {
    /// The fold of the empty trace behind the live fleet's header.
    pub(crate) fn new(
        dag: &'d Dag,
        policy: &'a dyn AllocationPolicy,
        fleet: &FleetSpec,
        bugs: SeededBugs,
    ) -> Self {
        // The header the live fleet's boot writes: no registration
        // barrier, so no worker declarations and one client.
        let seed = fleet.server_config().seed;
        let header = TraceHeader::for_run(dag, 1, seed, &policy.name());
        CrashFold {
            restorer: Restorer::new(dag, policy, fleet.server_config(), &header, bugs),
            resumes: BTreeMap::new(),
        }
    }

    /// Simulate the crash at this state: finish the fold and compare
    /// the rebuilt machine against the live one.
    pub(crate) fn crash_violation(&self, dag: &Dag, live: &Fleet<'_, '_>) -> Option<Diagnostic> {
        let rebuilt = match &self.restorer {
            Ok(fold) => fold.clone().finish(0),
            Err(e) => return Some(Diagnostic::error(e.code(), format!("restore failed: {e}"))),
        };

        // IC0701: the executed sets must be identical — a completion
        // the log lost would re-run its task; one it invented would
        // skip real work.
        let executed = |m: &LeaseMachine<'_, '_>| -> BTreeSet<NodeId> {
            dag.node_ids()
                .filter(|&v| m.exec().is_executed(v))
                .collect()
        };
        let (was, now) = (executed(live.machine()), executed(&rebuilt));
        if was != now {
            let why = format!("executed set diverged after restore: live {was:?}, rebuilt {now:?}");
            return Some(Diagnostic::error(RECOVERY_DUPLICATE_COMPLETION, why));
        }

        // IC0704: the lease table must survive the crash verbatim
        // (worker, task, speculative-bit triples) …
        let leases = |m: &LeaseMachine<'_, '_>| -> BTreeSet<(usize, NodeId, bool)> {
            m.lease_views()
                .iter()
                .map(|l| (l.worker, l.task, l.speculative))
                .collect()
        };
        let (live_leases, rebuilt_leases) = (leases(live.machine()), leases(&rebuilt));
        if live_leases != rebuilt_leases {
            return Some(Diagnostic::error(
                RECOVERY_CORRUPT_TRACE,
                format!(
                    "lease table diverged after restore: live {live_leases:?}, \
                     rebuilt {rebuilt_leases:?}"
                ),
            ));
        }

        // … and so must the unallocated frontier. Pool and deferred
        // are compared as one set: the split between them is backoff
        // timing, which the crash legitimately resets.
        let frontier = |m: &LeaseMachine<'_, '_>| -> BTreeSet<NodeId> {
            m.exec()
                .pool()
                .iter()
                .copied()
                .chain(m.deferred_tasks())
                .collect()
        };
        let (live_frontier, rebuilt_frontier) = (frontier(live.machine()), frontier(&rebuilt));
        if live_frontier != rebuilt_frontier {
            return Some(Diagnostic::error(
                RECOVERY_CORRUPT_TRACE,
                format!(
                    "pool ∪ deferred diverged after restore: live {live_frontier:?}, \
                     rebuilt {rebuilt_frontier:?}"
                ),
            ));
        }

        // … and so must the report, so that the restarted server's
        // summary spans the crash: every event-derived tally equals
        // the live one. Resumes are a lower bound — a resume that kept
        // no lease wrote no event.
        let (was, now) = (live.machine().summary(0), rebuilt.summary(0));
        let tallies = |r: &ServeReport| {
            let r = &r.registry;
            [
                r.completions,
                r.failures,
                r.allocations,
                r.steals,
                r.revokes,
            ]
        };
        if tallies(&was) != tallies(&now) || now.registry.resumes > was.registry.resumes {
            return Some(Diagnostic::error(
                RECOVERY_CORRUPT_TRACE,
                format!("report diverged after restore: live {was:?}, rebuilt {now:?}"),
            ));
        }

        // IC0702: every rebuilt slot's epoch must dominate (a) the
        // epoch the live machine holds for that slot and (b) one bump
        // per resume the log records for it — otherwise a stale Gone
        // from a pre-crash connection could kill a recovered slot.
        for (&c, &resumes) in &self.resumes {
            let floor = (resumes + 1).max(live.machine().worker_epoch(c).unwrap_or(0));
            match rebuilt.worker_epoch(c) {
                Some(epoch) if epoch >= floor => {}
                got => {
                    return Some(Diagnostic::error(
                        RECOVERY_EPOCH_REGRESSION,
                        format!(
                            "rebuilt slot {c} has epoch {got:?} but the pre-crash run \
                             reached epoch {floor} — a stale Gone could kill a \
                             recovered worker"
                        ),
                    ));
                }
            }
        }

        // Finally the rebuilt state must satisfy the full IC05xx scan
        // on its own terms: pool ⊎ deferred ⊎ leased must partition
        // the ELIGIBLE oracle, multiplicities must hold, and so on.
        // No connection survives the crash, so the live-slot agreement
        // check (IC0504) has no worker to hold to it.
        invariants::violation(dag, &rebuilt, &live.completions, &[])
    }
}

/// The crash search keys on the fold, not on the trace: two paths with
/// equal fleets and equal folds append the same events and rebuild
/// equal machines (DESIGN §4e).
impl PathState for CrashFold<'_, '_> {
    const SLEEP_SETS: bool = false;

    fn after(&self, fx: &[Effect]) -> Self {
        let mut next = self.clone();
        for e in fx {
            let Effect::Trace(ev) = e else { continue };
            *next.resumes.entry(ev.client).or_default() += u64::from(ev.kind == EventKind::Resumed);
            if let Ok(fold) = &mut next.restorer {
                if let Err(e) = fold.push(ev) {
                    next.restorer = Err(e);
                }
            }
        }
        next
    }

    fn fingerprint_into(&self, h: &mut DefaultHasher) {
        if let Ok(fold) = &self.restorer {
            fold.fingerprint_into(h);
        }
        self.resumes.hash(h);
    }
}

#[cfg(test)]
mod tests {
    //! The crash search as it was keyed before the fold key: every
    //! trace line written along the path hashed into the visited key,
    //! so every order of one log is its own state. It stays as the
    //! fold key's oracle: its counts are pinned, and the two keys must
    //! reach the same verdict with the same code.

    use super::*;
    use crate::scenario::WorkerSpec;
    use ic_sched::heuristics::Policy;
    use ic_sim::trace::TraceEvent;

    /// The crash fold plus the log it folded, keyed on the log.
    #[derive(Clone)]
    struct LogKeyed<'a, 'd>(CrashFold<'a, 'd>, Vec<TraceEvent>);

    impl PathState for LogKeyed<'_, '_> {
        const SLEEP_SETS: bool = false;

        fn after(&self, fx: &[Effect]) -> Self {
            let mut log = self.1.clone();
            log.extend(fx.iter().filter_map(|e| match e {
                Effect::Trace(ev) => Some(*ev),
                _ => None,
            }));
            LogKeyed(self.0.after(fx), log)
        }

        fn fingerprint_into(&self, h: &mut DefaultHasher) {
            for e in &self.1 {
                e.to_json_line().hash(h);
            }
        }
    }

    /// [`check_crash`] keyed on the log.
    fn check_crash_log_keyed(
        dag: &Dag,
        fleet: &FleetSpec,
        cfg: &CheckConfig,
        bugs: SeededBugs,
    ) -> CheckOutcome {
        let policy = Policy::Fifo;
        let root = Fleet::new(dag, &policy, fleet, SeededBugs::default());
        let state = LogKeyed(CrashFold::new(dag, &policy, fleet, bugs), Vec::new());
        let check = |live: &Fleet<'_, '_>, _: &[Effect], s: &LogKeyed<'_, '_>| {
            s.0.crash_violation(dag, live)
        };
        explore(root, state, cfg, check)
    }

    /// (states, transitions, visited-pruned, slept, complete runs,
    /// deepest, exhaustive) of a clean run, as `tests/counts.rs` pins
    /// them.
    fn counts(outcome: CheckOutcome) -> (usize, usize, usize, usize, usize, usize, bool) {
        assert!(outcome.is_clean(), "the clean machine must pass");
        let s = outcome.stats();
        let exhaustive = s.exhaustive();
        let (states, transitions, pruned) = (s.states, s.transitions, s.visited_pruned);
        (
            states,
            transitions,
            pruned,
            s.sleep_pruned,
            s.complete_runs,
            s.deepest,
            exhaustive,
        )
    }

    /// The crash checker's counts before the fold key, unchanged.
    #[test]
    fn the_log_keyed_crash_counts_are_pinned() {
        let mesh = ic_families::mesh::out_mesh(3);
        let run = |fleet: &FleetSpec, max_depth| {
            let cfg = CheckConfig {
                max_depth,
                ..CheckConfig::default()
            };
            counts(check_crash_log_keyed(
                &mesh,
                fleet,
                &cfg,
                SeededBugs::default(),
            ))
        };
        let fleet = FleetSpec::of(2);
        assert_eq!(run(&fleet, 48), (22_406, 28_562, 6_157, 0, 4_062, 19, true));
        assert_eq!(run(&fleet, 19), (22_406, 28_562, 6_157, 0, 4_062, 19, true));
        let steal = run(&fleet.with_steal(), 48);
        assert_eq!(steal, (66_302, 84_118, 17_817, 0, 10_368, 22, true));
    }

    /// The two keys agree on every seeded bug of `tests/negative.rs`,
    /// alone and all at once, and on the same fleets run clean (the
    /// clean mesh:3 x 2 runs are the counts above and in `counts.rs`).
    /// A greedy worker's request loop never ends, and the log key
    /// walks its every order: both searches stop at 20 000 states.
    #[test]
    fn the_fold_key_and_the_log_key_agree_on_every_verdict() {
        let chain2 = ic_families::trees::complete_out_tree(1, 1);
        let fleet = |workers: Vec<WorkerSpec>, steal| FleetSpec {
            workers,
            steal,
            batch: 1,
        };
        let bug = |set: fn(&mut SeededBugs)| {
            let mut bugs = SeededBugs::default();
            set(&mut bugs);
            bugs
        };
        let cases = [
            (
                fleet(vec![WorkerSpec::v2().greedy()], false),
                bug(|b| b.orphan_on_request = true),
            ),
            (
                fleet(vec![WorkerSpec::v2(), WorkerSpec::v2()], true),
                bug(|b| b.double_completion_event = true),
            ),
            (
                fleet(vec![WorkerSpec::v2().severs(1)], false),
                bug(|b| b.honor_stale_gone = true),
            ),
            (
                fleet(vec![WorkerSpec::v2()], false),
                bug(|b| b.skip_recovery_epoch_bump = true),
            ),
            (
                fleet(
                    vec![WorkerSpec::v2().greedy().severs(1), WorkerSpec::v2()],
                    true,
                ),
                SeededBugs {
                    orphan_on_request: true,
                    double_completion_event: true,
                    honor_stale_gone: true,
                    skip_recovery_epoch_bump: true,
                },
            ),
        ];
        let verdict = |outcome: CheckOutcome| match outcome {
            CheckOutcome::Clean(_) => None,
            CheckOutcome::Violation(v) => Some(v.diag.code),
        };
        let cfg = CheckConfig {
            max_states: 20_000,
            ..CheckConfig::default()
        };
        let mut found = Vec::new();
        for (fleet, bugs) in &cases {
            for bugs in [*bugs, SeededBugs::default()] {
                let fold = check_crash(&chain2, &Policy::Fifo, fleet, &cfg, bugs);
                let log = check_crash_log_keyed(&chain2, fleet, &cfg, bugs);
                let fold = verdict(fold);
                assert_eq!(fold, verdict(log), "{bugs:?}");
                found.extend(fold);
            }
        }
        // The restore bug, alone and among the others.
        assert_eq!(found, ["IC0702", "IC0702"]);
    }
}
