//! Crash/restart model checking: kill the server at every prefix.
//!
//! The recovery story (see `ic_net::recovery`) claims the JSONL trace
//! is a complete write-ahead log: rebuilding a [`LeaseMachine`] from
//! any prefix of it reconstructs the crashed machine's scheduling
//! state exactly. [`check_crash`] turns that claim into a checked
//! invariant. It runs [`crate::check`]'s search, with the log written
//! along the path as part of the state, and **after every transition**
//! it simulates a server crash: that log is what survives,
//! [`LeaseMachine::restore_with`] rebuilds a machine from it, and the
//! rebuilt machine is compared against the live one:
//!
//! | code   | crash-recovery invariant |
//! |--------|--------------------------|
//! | IC0701 | the rebuilt executed set equals the live one — no completed work lost, none invented |
//! | IC0702 | every rebuilt slot's epoch dominates the live epoch and every resume the log records |
//! | IC0704 | rebuilt leases, rebuilt pool ∪ deferred and the rebuilt report's tallies equal the live machine's (resumes: at most); the restore itself parses |
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

use std::collections::BTreeSet;

use ic_audit::diag::{
    Diagnostic, RECOVERY_CORRUPT_TRACE, RECOVERY_DUPLICATE_COMPLETION, RECOVERY_EPOCH_REGRESSION,
};
use ic_dag::Dag;
use ic_net::machine::{RestoreError, SeededBugs};
use ic_net::{Effect, LeaseMachine, ServeReport};
use ic_sched::policy::AllocationPolicy;
use ic_sim::trace::{EventKind, TraceEvent, TraceHeader};

use crate::explore::{explore, CheckConfig, CheckOutcome};
use crate::invariants;
use crate::scenario::{Fleet, FleetSpec, Phase, WorkerModel, WorkerSpec};

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
    let crash = CrashCtx {
        dag,
        policy,
        spec: fleet,
        bugs,
        header: probe_header(dag, policy, fleet),
    };
    let root = Fleet::new(dag, policy, fleet, SeededBugs::default());
    // What a crash leaves is the log, so the log is part of the state.
    let check =
        |live: &Fleet<'_, '_>, _: &[Effect], log: &[TraceEvent]| crash.crash_violation(live, log);
    explore(root, fleet, cfg, true, check)
}

/// The header the live fleet's boot writes (no registration barrier:
/// empty worker declarations, one anonymous client).
fn probe_header(dag: &Dag, policy: &dyn AllocationPolicy, fleet: &FleetSpec) -> TraceHeader {
    let mut probe = LeaseMachine::new(dag, policy, fleet.server_config());
    for e in probe.boot(0) {
        if let Effect::Header(h) = e {
            return h;
        }
    }
    TraceHeader::for_run(dag, 1, fleet.server_config().seed, &policy.name())
}

/// The rebuild's inputs.
struct CrashCtx<'s, 'a, 'd> {
    dag: &'d Dag,
    policy: &'a dyn AllocationPolicy,
    spec: &'s FleetSpec,
    bugs: SeededBugs,
    header: TraceHeader,
}

impl CrashCtx<'_, '_, '_> {
    /// Simulate the crash at this state: restore from the accumulated
    /// log and compare against the live machine.
    fn crash_violation(&self, live: &Fleet<'_, '_>, events: &[TraceEvent]) -> Option<Diagnostic> {
        let rebuilt = match LeaseMachine::restore_with(
            self.dag,
            self.policy,
            self.spec.server_config(),
            &self.header,
            events,
            0,
            self.bugs,
        ) {
            Ok(m) => m,
            Err(e) => {
                return Some(Diagnostic::error(
                    restore_code(&e),
                    format!("restore from a {}-event log failed: {e}", events.len()),
                ));
            }
        };

        // IC0701: the executed sets must be identical — a completion
        // the log lost would re-run its task; one it invented would
        // skip real work.
        for v in self.dag.node_ids() {
            let live_done = live.machine.exec().is_executed(v);
            let rebuilt_done = rebuilt.exec().is_executed(v);
            if live_done != rebuilt_done {
                return Some(Diagnostic::error(
                    RECOVERY_DUPLICATE_COMPLETION,
                    format!(
                        "task t{} is {} live but {} after restore from {} events",
                        v.index(),
                        if live_done { "executed" } else { "pending" },
                        if rebuilt_done { "executed" } else { "pending" },
                        events.len()
                    ),
                ));
            }
        }

        // IC0704: the lease table must survive the crash verbatim
        // (worker, task, speculative-bit triples) …
        let live_leases: BTreeSet<(usize, u64, bool)> = live
            .machine
            .lease_views()
            .into_iter()
            .map(|l| (l.worker, l.task.index() as u64, l.speculative))
            .collect();
        let rebuilt_leases: BTreeSet<(usize, u64, bool)> = rebuilt
            .lease_views()
            .into_iter()
            .map(|l| (l.worker, l.task.index() as u64, l.speculative))
            .collect();
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
        let frontier = |m: &LeaseMachine<'_, '_>| -> BTreeSet<u64> {
            m.exec()
                .pool()
                .iter()
                .map(|v| v.index() as u64)
                .chain(m.deferred_tasks().into_iter().map(|v| v.index() as u64))
                .collect()
        };
        let live_frontier = frontier(&live.machine);
        let rebuilt_frontier = frontier(&rebuilt);
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
        let (was, now) = (live.machine.summary(0), rebuilt.summary(0));
        let tallies = |r: &ServeReport| {
            [
                r.completions,
                r.failures,
                r.allocations,
                r.steals,
                r.revokes,
            ]
        };
        if tallies(&was) != tallies(&now) || now.resumes > was.resumes {
            return Some(Diagnostic::error(
                RECOVERY_CORRUPT_TRACE,
                format!("report diverged after restore: live {was:?}, rebuilt {now:?}"),
            ));
        }

        // IC0702: every rebuilt slot's epoch must dominate (a) the
        // epoch the live machine holds for that slot and (b) one bump
        // per resume the log records for it — otherwise a stale Gone
        // from a pre-crash connection could kill a recovered slot.
        let clients: BTreeSet<usize> = events.iter().map(|e| e.client).collect();
        for &c in &clients {
            let resumes = events
                .iter()
                .filter(|e| e.kind == EventKind::Resumed && e.client == c)
                .count() as u64;
            let floor = (resumes + 1).max(live.machine.worker_epoch(c).unwrap_or(0));
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
        // All rebuilt workers await recovery (non-Live), so the
        // live-slot agreement check (IC0504) is vacuous here.
        let synthetic = Fleet {
            machine: rebuilt,
            workers: clients
                .iter()
                .map(|&c| severed_model(&self.spec.workers[0], c))
                .collect(),
            completions: completion_counts(self.dag, events),
        };
        invariants::violation(self.dag, &synthetic)
    }
}

/// A placeholder worker model for the synthetic post-crash fleet:
/// severed (awaiting recovery), holding nothing it can act on.
fn severed_model(spec: &WorkerSpec, slot: usize) -> WorkerModel {
    let mut w = WorkerModel::new(spec);
    w.phase = Phase::Severed;
    w.slot = slot;
    w
}

/// `Completed` events per task along the log (feeds the IC0502 scan).
fn completion_counts(dag: &Dag, events: &[TraceEvent]) -> Vec<u32> {
    let mut counts = vec![0u32; dag.num_nodes()];
    for e in events.iter().filter(|e| e.kind == EventKind::Completed) {
        if let Some(c) = e.task.and_then(|task| counts.get_mut(task.index())) {
            *c += 1;
        }
    }
    counts
}

/// Map a [`RestoreError`] onto its stable diagnostic code constant.
fn restore_code(e: &RestoreError) -> &'static str {
    // `RestoreError::code` returns the same strings; going through the
    // named constants keeps the coupling visible to the code table.
    match e {
        RestoreError::DuplicateCompletion { .. } => RECOVERY_DUPLICATE_COMPLETION,
        RestoreError::HeaderMismatch { .. } => ic_audit::diag::RECOVERY_HEADER_MISMATCH,
        RestoreError::Corrupt { .. } | RestoreError::Federated => RECOVERY_CORRUPT_TRACE,
    }
}
