//! Diagnostic types and the stable code table.
//!
//! Every pass reports findings as [`Diagnostic`] values with a stable
//! `ICxxxx` code, so downstream tooling (and the negative test suite)
//! can match on the *specific* defect rather than on message text.
//! Codes are grouped by pass family:
//!
//! | range  | pass family |
//! |--------|-------------|
//! | IC00xx | graph structure (raw edge lists) |
//! | IC01xx | execution orders and envelopes |
//! | IC02xx | ▷-priority chains |
//! | IC03xx | Theorem 2.2 duality |
//! | IC04xx | execution-trace replay |
//! | IC05xx | model-checked lease-protocol invariants (`ic-check`) |
//! | IC06xx | federated trace merging (`ic-fed` shard traces) |
//! | IC07xx | crash recovery (trace-as-write-ahead-log replay) |

use std::fmt;

/// How serious a finding is. `Error` diagnostics fail the audit (and
/// the `ic-prio audit` exit code); `Warning`s are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: suspicious but not a claim violation.
    Warning,
    /// A violated invariant or paper claim.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A dag contains a dependency cycle (reported with a witness set).
pub const CYCLE_DETECTED: &str = "IC0001";
/// The same arc appears more than once in the edge list.
pub const DUPLICATE_ARC: &str = "IC0002";
/// A node participates in no arc at all — it cannot contribute to (or
/// draw from) the computation and is usually a construction bug.
pub const UNREACHABLE_NODE: &str = "IC0003";
/// An execution order is not a topological order of its dag (missing
/// nodes, duplicates, or a dependency executed after a dependent).
pub const NOT_A_TOPOLOGICAL_ORDER: &str = "IC0101";
/// The schedule's eligibility profile falls below the optimal envelope
/// (or an asserted closed-form profile / (non-)existence claim fails).
pub const ENVELOPE_GAP: &str = "IC0102";
/// A claimed ▷-linear chain has an adjacent pair without priority.
pub const PRIORITY_CHAIN_BROKEN: &str = "IC0201";
/// A Theorem 2.2 duality claim fails: `dual(dual(G)) ≇ G`, or the
/// reversed-packet schedule is not IC-optimal on the dual dag.
pub const DUALITY_MISMATCH: &str = "IC0301";
/// A trace allocates a task that is not in the ELIGIBLE pool at that
/// point of the replay (an unexecuted parent remains, the task is
/// already allocated, or the id is out of range).
pub const NON_ELIGIBLE_ALLOCATION: &str = "IC0401";
/// A trace completes (or fails) a task that was never allocated — or
/// completes the same task twice.
pub const COMPLETION_BEFORE_ALLOCATION: &str = "IC0402";
/// A recorded ELIGIBLE-pool size disagrees with the size reconstructed
/// by replaying the trace against its dag.
pub const POOL_SIZE_MISMATCH: &str = "IC0403";
/// The traced execution's eligibility profile falls below the optimal
/// envelope (exhaustive for small dags, closed-form for recognized
/// family instances). A warning: multi-client stochastic runs may
/// legitimately realize sub-optimal orders.
pub const ENVELOPE_DEPARTURE: &str = "IC0404";
/// The trace ends before every dag node has completed.
pub const TRACE_TRUNCATED: &str = "IC0405";
/// A `resume` event restores a lease the client does not hold: the
/// task is unallocated, completed, or held by someone else.
pub const RESUME_WITHOUT_LEASE: &str = "IC0410";
/// A `spec` event grants a speculative duplicate lease illegally: the
/// task is not in flight, is already completed, or the client already
/// holds a lease on it.
pub const SPECULATION_WITHOUT_LEASE: &str = "IC0411";
/// A `revoke` event cancels a lease that cannot be a stale duplicate:
/// the task is not completed, or the client holds no lease on it.
pub const REVOKE_WITHOUT_COMPLETION: &str = "IC0412";
/// A speculative lease was granted while unallocated ELIGIBLE tasks
/// remained — stealing should only happen at the drain barrier. A
/// warning: it wastes no correctness, only duplicated work.
pub const SPECULATION_BEFORE_BARRIER: &str = "IC0413";
/// Model checker: the lease machine allocated (leased) a task that is
/// not ELIGIBLE under the definition-level oracle — an unexecuted
/// parent remains, or the task is already executed. This is the
/// paper's core property; a violation breaks IC-optimality outright.
pub const MODEL_NON_ELIGIBLE_ALLOCATION: &str = "IC0501";
/// Model checker: a task completed twice — two `Completed` trace
/// events for the same node, or the executed count exceeds the node
/// count.
pub const MODEL_DUPLICATE_COMPLETION: &str = "IC0502";
/// Model checker: a task's lease multiplicity is illegal — more than
/// one primary (non-speculative) lease, more than one speculative
/// duplicate, or a duplicate pair on one worker.
pub const MODEL_LEASE_MULTIPLICITY: &str = "IC0503";
/// Model checker: a worker slot's registration epoch regressed, or a
/// stale-epoch `Sever` from a superseded connection disturbed a
/// resumed slot.
pub const MODEL_EPOCH_REGRESSION: &str = "IC0504";
/// Model checker: the machine's recorded pool size (pool + backoff
/// queue) disagrees with the oracle reconstruction (ELIGIBLE minus
/// leased tasks).
pub const MODEL_RECORDED_POOL_MISMATCH: &str = "IC0505";
/// Model checker: pool ∪ deferred ∪ leased ≠ the ELIGIBLE set — a
/// task leaked out of every queue (it could never be allocated again)
/// or appears in two places at once.
pub const MODEL_ELIGIBLE_PARTITION_VIOLATION: &str = "IC0506";
/// Model checker: the machine answered `Drain` (or claims completion)
/// while unexecuted tasks remain.
pub const MODEL_PREMATURE_DRAIN: &str = "IC0507";
/// Model checker: a frame delivered late on a connection a resume had
/// replaced changed the machine — a superseded connection drove its slot.
pub const MODEL_SUPERSEDED_STEP: &str = "IC0508";
/// Federated merge: the per-shard federation metadata does not
/// describe one coherent federation — a shard header is missing its
/// `fed` block, shard counts or global node counts disagree, a shard
/// index is duplicated or out of range, or an embedding map does not
/// match its sub-dag.
pub const FEDERATION_METADATA_MISMATCH: &str = "IC0600";
/// Federated merge: a shard consumed a remote completion notification
/// for a task that no shard in the federation ever actually completed
/// — the global history cannot be interleaved causally.
pub const REMOTE_DONE_WITHOUT_COMPLETION: &str = "IC0601";
/// Federated merge: a shard allocated a task before consuming the
/// stub gates of all its remote predecessors — cross-shard eligibility
/// was violated.
pub const REMOTE_ELIGIBILITY_VIOLATION: &str = "IC0602";
/// Federated merge: a task completed on more than one shard. Every
/// node has one owner shard, so the federation diverged.
pub const DIVERGENT_REPLICATED_COMPLETION: &str = "IC0603";
/// Crash recovery: the trace file ends in a torn final line — the
/// crashed process died between the kernel accepting part of a
/// `write(2)` and the rest. A *warning*: the torn line is dropped and
/// recovery proceeds on the intact prefix.
pub const RECOVERY_TORN_TAIL: &str = "IC0700";
/// Crash recovery: the trace prefix completes the same task twice, so
/// it is not the write-ahead log of one legal run and must not be
/// extended.
pub const RECOVERY_DUPLICATE_COMPLETION: &str = "IC0701";
/// Crash recovery: a rebuilt worker slot's epoch does not clear the
/// evidence of pre-crash epochs in the replayed prefix — a stale
/// `Gone` from before the crash could disturb a resumed slot.
pub const RECOVERY_EPOCH_REGRESSION: &str = "IC0702";
/// Crash recovery: the trace header disagrees with the restarted
/// server's launch configuration (different dag, policy, or seed).
pub const RECOVERY_HEADER_MISMATCH: &str = "IC0703";
/// Crash recovery: the trace is corrupt beyond the tolerated torn
/// tail — a malformed non-final line, an event referencing impossible
/// state, or a federated shard trace (unrecoverable by one machine).
pub const RECOVERY_CORRUPT_TRACE: &str = "IC0704";

/// The full code table: `(code, name, one-line meaning)`. Kept in sync
/// with DESIGN.md §"Diagnostic codes" (the negative test suite pins
/// each row).
pub const CODE_TABLE: &[(&str, &str, &str)] = &[
    (
        CYCLE_DETECTED,
        "CycleDetected",
        "the arcs contain a dependency cycle",
    ),
    (
        DUPLICATE_ARC,
        "DuplicateArc",
        "an arc is listed more than once",
    ),
    (
        UNREACHABLE_NODE,
        "UnreachableNode",
        "a node participates in no arc",
    ),
    (
        NOT_A_TOPOLOGICAL_ORDER,
        "NotATopologicalOrder",
        "the order is not a topological order of the dag",
    ),
    (
        ENVELOPE_GAP,
        "EnvelopeGap",
        "the eligibility profile falls below the optimal envelope",
    ),
    (
        PRIORITY_CHAIN_BROKEN,
        "PriorityChainBroken",
        "an adjacent pair of a claimed \u{25b7}-chain lacks priority",
    ),
    (
        DUALITY_MISMATCH,
        "DualityMismatch",
        "a Theorem 2.2 duality property fails",
    ),
    (
        NON_ELIGIBLE_ALLOCATION,
        "NonEligibleAllocation",
        "a trace allocates a task that is not ELIGIBLE",
    ),
    (
        COMPLETION_BEFORE_ALLOCATION,
        "CompletionBeforeAllocation",
        "a trace completes a task that was never allocated",
    ),
    (
        POOL_SIZE_MISMATCH,
        "PoolSizeMismatch",
        "a recorded ELIGIBLE-pool size disagrees with replay",
    ),
    (
        ENVELOPE_DEPARTURE,
        "EnvelopeDeparture",
        "the traced eligibility profile falls below the optimal envelope",
    ),
    (
        TRACE_TRUNCATED,
        "TraceTruncated",
        "the trace ends before the computation completes",
    ),
    (
        RESUME_WITHOUT_LEASE,
        "ResumeWithoutLease",
        "a trace resumes a lease the client does not hold",
    ),
    (
        SPECULATION_WITHOUT_LEASE,
        "SpeculationWithoutLease",
        "a speculative lease duplicates nothing in flight",
    ),
    (
        REVOKE_WITHOUT_COMPLETION,
        "RevokeWithoutCompletion",
        "a revoke cancels a lease that is not a stale duplicate",
    ),
    (
        SPECULATION_BEFORE_BARRIER,
        "SpeculationBeforeBarrier",
        "a speculative lease was granted before the drain barrier",
    ),
    (
        MODEL_NON_ELIGIBLE_ALLOCATION,
        "ModelNonEligibleAllocation",
        "the lease machine leased a task that is not ELIGIBLE",
    ),
    (
        MODEL_DUPLICATE_COMPLETION,
        "ModelDuplicateCompletion",
        "a task completed twice",
    ),
    (
        MODEL_LEASE_MULTIPLICITY,
        "ModelLeaseMultiplicity",
        "a task's lease multiplicity is illegal",
    ),
    (
        MODEL_EPOCH_REGRESSION,
        "ModelEpochRegression",
        "a slot epoch regressed or a stale sever disturbed a resumed slot",
    ),
    (
        MODEL_RECORDED_POOL_MISMATCH,
        "ModelRecordedPoolMismatch",
        "the recorded pool size disagrees with the oracle reconstruction",
    ),
    (
        MODEL_ELIGIBLE_PARTITION_VIOLATION,
        "ModelEligiblePartitionViolation",
        "pool, backoff queue, and leases do not partition the ELIGIBLE set",
    ),
    (
        MODEL_PREMATURE_DRAIN,
        "ModelPrematureDrain",
        "drain was answered while unexecuted tasks remain",
    ),
    (
        MODEL_SUPERSEDED_STEP,
        "ModelSupersededStep",
        "a frame on a connection a resume replaced changed the machine",
    ),
    (
        FEDERATION_METADATA_MISMATCH,
        "FederationMetadataMismatch",
        "per-shard federation metadata is absent or inconsistent",
    ),
    (
        REMOTE_DONE_WITHOUT_COMPLETION,
        "RemoteDoneWithoutCompletion",
        "a shard consumed a remote completion no shard ever performed",
    ),
    (
        REMOTE_ELIGIBILITY_VIOLATION,
        "RemoteEligibilityViolation",
        "a task was allocated before its remote predecessors completed",
    ),
    (
        DIVERGENT_REPLICATED_COMPLETION,
        "DivergentReplicatedCompletion",
        "a task completed on more than one shard",
    ),
    (
        RECOVERY_TORN_TAIL,
        "RecoveryTornTail",
        "the trace ends in a torn final line, dropped before recovery",
    ),
    (
        RECOVERY_DUPLICATE_COMPLETION,
        "RecoveryDuplicateCompletion",
        "the replayed trace prefix completes the same task twice",
    ),
    (
        RECOVERY_EPOCH_REGRESSION,
        "RecoveryEpochRegression",
        "a recovered slot epoch does not clear pre-crash epoch evidence",
    ),
    (
        RECOVERY_HEADER_MISMATCH,
        "RecoveryHeaderMismatch",
        "the trace header disagrees with the restart configuration",
    ),
    (
        RECOVERY_CORRUPT_TRACE,
        "RecoveryCorruptTrace",
        "the trace is corrupt beyond the tolerated torn tail",
    ),
];

/// The human name of a diagnostic code (e.g. `"CycleDetected"`).
pub fn code_name(code: &str) -> &'static str {
    CODE_TABLE
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, name, _)| *name)
        .unwrap_or("Unknown")
}

/// One finding from an audit pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `"IC0101"`.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Specific, instance-level description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
        }
    }
}

/// Escalate every diagnostic carrying `code` to [`Severity::Error`]
/// (the engine behind `ic-prio audit --deny <code-name>`). Returns how
/// many findings were escalated.
pub fn deny(diags: &mut [Diagnostic], code: &str) -> usize {
    let mut n = 0;
    for d in diags.iter_mut() {
        if d.code == code && d.severity != Severity::Error {
            d.severity = Severity::Error;
            n += 1;
        }
    }
    n
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} {}]: {}",
            self.severity,
            self.code,
            code_name(self.code),
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_table_is_complete_and_unique() {
        let codes: Vec<&str> = CODE_TABLE.iter().map(|(c, _, _)| *c).collect();
        assert_eq!(codes.len(), 33);
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), codes.len());
        for c in codes {
            assert_ne!(code_name(c), "Unknown");
        }
    }

    #[test]
    fn deny_escalates_only_matching_warnings() {
        let mut diags = vec![
            Diagnostic::warning(UNREACHABLE_NODE, "node 3"),
            Diagnostic::warning(ENVELOPE_DEPARTURE, "step 2"),
            Diagnostic::error(CYCLE_DETECTED, "a -> a"),
        ];
        assert_eq!(deny(&mut diags, UNREACHABLE_NODE), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[1].severity, Severity::Warning);
        // Already-error findings are not double counted.
        assert_eq!(deny(&mut diags, CYCLE_DETECTED), 0);
    }

    #[test]
    fn display_renders_code_and_name() {
        let d = Diagnostic::error(CYCLE_DETECTED, "a -> b -> a");
        assert_eq!(d.to_string(), "error[IC0001 CycleDetected]: a -> b -> a");
        let w = Diagnostic::warning(UNREACHABLE_NODE, "node 3");
        assert!(w.to_string().starts_with("warning[IC0003"));
    }
}
