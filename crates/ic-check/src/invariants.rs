//! The safety invariants checked at every explored state.
//!
//! Each check compares the machine's bookkeeping against a
//! *definition-level oracle*: eligibility is recomputed from scratch
//! out of the executed set via
//! [`ic_sched::eligibility::eligible_from_executed`], never read back
//! from the pool the machine maintains incrementally. A violation is
//! reported as an [`ic_audit::diag::Diagnostic`] with a stable
//! `IC05xx` code:
//!
//! | code   | invariant |
//! |--------|-----------|
//! | IC0501 | every leased task is ELIGIBLE given the executed set |
//! | IC0502 | no task's `Completed` trace event fires twice |
//! | IC0503 | per task: at most one primary lease and at most one speculative lease, on distinct workers |
//! | IC0504 | a live resumed worker's slot agrees with the machine (connected, same epoch) |
//! | IC0505 | the recorded pool size equals pool + deferred |
//! | IC0506 | pool ⊎ deferred ⊎ leased partitions the ELIGIBLE set |
//! | IC0507 | a `Drain` reply implies every task executed |
//! | IC0508 | a frame delivered late on a replaced connection leaves the machine as it was |

use std::collections::BTreeSet;

use ic_audit::diag::{
    Diagnostic, MODEL_DUPLICATE_COMPLETION, MODEL_ELIGIBLE_PARTITION_VIOLATION,
    MODEL_EPOCH_REGRESSION, MODEL_LEASE_MULTIPLICITY, MODEL_NON_ELIGIBLE_ALLOCATION,
    MODEL_PREMATURE_DRAIN, MODEL_RECORDED_POOL_MISMATCH, MODEL_SUPERSEDED_STEP,
};
use ic_dag::Dag;
use ic_net::{Effect, LeaseMachine, Message};
use ic_sched::eligibility::eligible_from_executed;

/// Scan the state reached after a transition and return the first
/// violated invariant, if any: the machine `m`, the `Completed` events
/// written per task along the path, and the `(fleet index, slot,
/// epoch)` of every worker whose connection is up.
pub fn violation(
    dag: &Dag,
    m: &LeaseMachine<'_, '_>,
    completions: &[u32],
    live: &[(usize, usize, u64)],
) -> Option<Diagnostic> {
    let executed: Vec<bool> = dag.node_ids().map(|v| m.exec().is_executed(v)).collect();
    let eligible: BTreeSet<u64> = eligible_from_executed(dag, &executed)
        .into_iter()
        .map(|v| v.index() as u64)
        .collect();
    let leases = m.lease_views();

    // IC0501: every allocation was ELIGIBLE under the oracle.
    for l in &leases {
        let t = l.task.index() as u64;
        if !eligible.contains(&t) {
            return Some(Diagnostic::error(
                MODEL_NON_ELIGIBLE_ALLOCATION,
                format!(
                    "task t{t} is leased to worker {} but is not ELIGIBLE \
                     given the executed set ({} executed)",
                    l.worker,
                    m.exec().num_executed()
                ),
            ));
        }
    }

    // IC0502: no task completes twice (counted off the trace stream).
    for (t, &n) in completions.iter().enumerate() {
        if n > 1 {
            return Some(Diagnostic::error(
                MODEL_DUPLICATE_COMPLETION,
                format!("task t{t} emitted {n} Completed trace events"),
            ));
        }
    }

    // IC0503: per-task lease multiplicity — at most one primary, at
    // most one speculative, never the same worker twice.
    for l in &leases {
        let same = leases.iter().filter(|o| o.task == l.task);
        let specs = same.clone().filter(|o| o.speculative).count();
        let primaries = same.clone().count() - specs;
        let same_worker = same.filter(|o| o.worker == l.worker).count();
        if primaries > 1 || specs > 1 || same_worker > 1 {
            return Some(Diagnostic::error(
                MODEL_LEASE_MULTIPLICITY,
                format!(
                    "task t{} holds {primaries} primary and {specs} speculative \
                     leases (worker {} appears {same_worker} times)",
                    l.task.index(),
                    l.worker
                ),
            ));
        }
    }

    // IC0504: a worker whose connection is up must agree with the
    // machine — slot connected, epochs equal. A stale close honored
    // against a resumed slot breaks exactly this.
    for &(i, slot, epoch) in live {
        let (connected, now) = (m.worker_connected(slot), m.worker_epoch(slot));
        if !connected || now != Some(epoch) {
            return Some(Diagnostic::error(
                MODEL_EPOCH_REGRESSION,
                format!(
                    "worker w{i} (slot {slot}) is live at epoch {epoch} but the machine \
                     records epoch {now:?}, connected: {connected}"
                ),
            ));
        }
    }

    // IC0505: the recorded pool (what traces report) must equal
    // pool + deferred.
    let pool: BTreeSet<u64> = m.exec().pool().iter().map(|v| v.index() as u64).collect();
    let deferred: BTreeSet<u64> = m
        .deferred_tasks()
        .into_iter()
        .map(|v| v.index() as u64)
        .collect();
    if m.recorded_pool() != pool.len() + deferred.len() {
        return Some(Diagnostic::error(
            MODEL_RECORDED_POOL_MISMATCH,
            format!(
                "recorded pool is {} but pool has {} and deferred {}",
                m.recorded_pool(),
                pool.len(),
                deferred.len()
            ),
        ));
    }

    // IC0506: pool, deferred, and leased tasks partition ELIGIBLE —
    // pairwise disjoint and jointly exhaustive. A task that silently
    // leaves all three (the PR 3 lease-overwrite bug) is caught here.
    let leased: BTreeSet<u64> = leases.iter().map(|l| l.task.index() as u64).collect();
    let mut union = pool.clone();
    union.extend(&deferred);
    union.extend(&leased);
    // Disjoint exactly when no element was counted twice.
    if union != eligible || union.len() != pool.len() + deferred.len() + leased.len() {
        let lost: Vec<u64> = eligible.difference(&union).copied().collect();
        let extra: Vec<u64> = union.difference(&eligible).copied().collect();
        return Some(Diagnostic::error(
            MODEL_ELIGIBLE_PARTITION_VIOLATION,
            format!(
                "pool {pool:?}, deferred {deferred:?} and leased {leased:?} do not \
                 partition ELIGIBLE: lost {lost:?}, extra {extra:?}"
            ),
        ));
    }

    None
}

/// Check the effects of the transition that just ran: a `Drain` reply
/// is only legal once every task has executed (IC0507).
pub fn drain_violation(m: &LeaseMachine<'_, '_>, fx: &[Effect]) -> Option<Diagnostic> {
    for e in fx {
        if let Effect::Reply(Message::Drain) = e {
            if !m.is_complete() {
                return Some(Diagnostic::error(
                    MODEL_PREMATURE_DRAIN,
                    format!(
                        "Drain replied with only {} tasks executed",
                        m.exec().num_executed()
                    ),
                ));
            }
        }
    }
    None
}

/// A frame delivered late on a connection a resume replaced speaks for
/// no slot: the machine fingerprints around it must agree (IC0508).
pub fn late_violation(before: u64, after: u64) -> Option<Diagnostic> {
    let why = "a frame delivered late on a connection a resume replaced changed the machine";
    (before != after).then(|| Diagnostic::error(MODEL_SUPERSEDED_STEP, why))
}
