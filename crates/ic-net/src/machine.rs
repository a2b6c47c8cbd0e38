//! The pure lease-protocol state machine behind the TCP server.
//!
//! [`LeaseMachine`] is the coordinator of [`crate::server`] with every
//! side effect factored out: one call to [`LeaseMachine::step`] applies
//! one [`Event`] and returns the complete list of [`Effect`]s the
//! caller must perform — trace records to sink, wire frames to send.
//! The machine itself touches no clock, no socket, and no sink:
//!
//! * **time** is a `u64` microsecond count carried *in* each event
//!   (`now_us`), interpreted against whatever epoch the driver chose.
//!   The TCP driver feeds wall-clock micros; the `ic-check` model
//!   checker freezes the clock at zero and drives lease expiry with
//!   explicit [`Event::Expire`] events instead;
//! * **randomness** is the one seeded [`XorShift64`] stream the old
//!   coordinator already used (resume tokens only), so a machine is a
//!   deterministic function of its config and event sequence;
//! * **observability** is the returned effect list: [`Effect::Trace`]
//!   in server order (the JSONL trace replays clean under
//!   `ic-prio audit`), [`Effect::Reply`] for the requesting
//!   connection, [`Effect::Registered`] answering a `hello`, and
//!   [`Effect::Header`] exactly once when the registration barrier is
//!   met.
//!
//! The protocol semantics — leases, exponential-backoff reallocation,
//! resume tokens, epoch-guarded `Gone`, speculative straggler
//! re-lease, duplicate-result resolution — are documented on
//! [`crate::server`] and unchanged here; this module only separates
//! *deciding* from *doing*. Because the machine is `Clone` and its
//! [`LeaseMachine::fingerprint`] hashes exactly the
//! scheduling-relevant state, `ic-check` can DFS-enumerate event
//! interleavings over it directly.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use ic_dag::rng::XorShift64;
use ic_dag::{Dag, NodeId};
use ic_sched::batched::fill_round;
use ic_sched::eligibility::ExecState;
use ic_sched::policy::AllocationPolicy;
pub use ic_sim::trace::FED_CLIENT;
use ic_sim::trace::{EventKind, FedMeta, TraceEvent, TraceHeader, WorkerParams};

use crate::lease_table::{Lease, LeaseTable};
use crate::server::{ServeReport, ServerConfig};
use crate::wire::{Message, ERR_BAD_RESUME, ERR_UNSUPPORTED, PROTO_CURRENT};

/// Trace seconds back to driver microseconds — the inverse of the
/// machine's `t()` timestamping, used when replaying a trace to place
/// the recovered clock origin.
pub(crate) fn micros(t: f64) -> u64 {
    (t.max(0.0) * 1e6) as u64
}

/// One input to the machine. Times are microseconds on the driver's
/// clock; the machine never reads a clock of its own.
///
/// The wire surface maps onto events as follows: `hello` (fresh or
/// with a resume token) is [`Event::Hello`]; `request` is
/// [`Event::Request`] (a `Drain` reply is the machine saying the dag
/// is complete — drain is an *output*, not an input); `done` is
/// [`Event::Done`]; `heartbeat` is [`Event::Heartbeat`]; a dropped
/// connection is [`Event::Sever`]. Lease expiry and the steal timer
/// are not messages at all — the driver turns the passage of time into
/// [`Event::Expire`] events (see [`LeaseMachine::expired`]), and the
/// steal timer is evaluated inside [`Event::Request`] against the
/// event's own `now_us`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A worker registers — fresh, or resuming a slot with a token.
    Hello {
        /// Self-reported worker id (informational).
        id: String,
        /// Self-reported relative speed (recorded in the header).
        speed: f64,
        /// Highest protocol version the worker speaks; below
        /// [`PROTO_CURRENT`] the hello is refused.
        proto: u32,
        /// Resume token from a previous `welcome`, if reconnecting.
        resume: Option<String>,
        /// Event time in driver microseconds.
        now_us: u64,
    },
    /// A registered worker asks for up to `max` tasks.
    Request {
        /// The worker's slot index.
        worker: usize,
        /// Most tasks the worker will accept in one `assign`.
        max: u64,
        /// Event time in driver microseconds.
        now_us: u64,
    },
    /// A worker reports the outcome of a leased task.
    Done {
        /// The worker's slot index.
        worker: usize,
        /// The task id being reported.
        task: u64,
        /// Whether the task succeeded.
        ok: bool,
        /// Event time in driver microseconds.
        now_us: u64,
    },
    /// A worker heartbeats a lease to extend its deadline.
    Heartbeat {
        /// The worker's slot index.
        worker: usize,
        /// The task id being heartbeat.
        task: u64,
        /// Event time in driver microseconds.
        now_us: u64,
    },
    /// A worker's connection is gone (EOF, timeout, `bye`). The slot
    /// keeps its leases — the worker may resume, and expiry is the
    /// fallback if it never does. Carries the registration epoch so a
    /// superseded connection — the worker already resumed on a new
    /// socket — cannot disturb the slot.
    Sever {
        /// The worker's slot index.
        worker: usize,
        /// The registration epoch of the closing connection.
        epoch: u64,
        /// Event time in driver microseconds.
        now_us: u64,
    },
    /// A specific lease's heartbeat deadline has passed. Only a lease
    /// on `(worker, task)` whose recorded deadline is `<= now_us` is
    /// forfeited; otherwise the event is a no-op (the lease was
    /// renewed, resolved, or never existed).
    Expire {
        /// The lease holder's slot index.
        worker: usize,
        /// The leased task id.
        task: u64,
        /// Event time in driver microseconds.
        now_us: u64,
    },
    /// A peer shard of a federated run executed the global task that
    /// maps to *local* node `task` — a stub (remote predecessor) or a
    /// replicated boundary node. Idempotent: duplicates (backlog
    /// replays after a link sever) are ignored, and a notification for
    /// a node whose own remote predecessors are still pending is
    /// queued and retried as completions land. Requires
    /// [`LeaseMachine::set_fed`].
    RemoteDone {
        /// The task's *local* node index.
        task: u64,
        /// Event time in driver microseconds.
        now_us: u64,
    },
}

/// One output of [`LeaseMachine::step`]: something the driver must do,
/// in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Write the trace header (emitted exactly once, before any
    /// [`Effect::Trace`]).
    Header(TraceHeader),
    /// Record a trace event (server order; replays clean under audit).
    Trace(TraceEvent),
    /// Send this frame to the connection that raised the event.
    Reply(Message),
    /// Answer a [`Event::Hello`]: the frame to relay plus the slot and
    /// epoch the connection handler needs for its eventual
    /// [`Event::Sever`]. `worker` is `usize::MAX` when refused.
    Registered {
        /// The `welcome` or typed `error` frame.
        msg: Message,
        /// The slot index granted (or `usize::MAX` if refused).
        worker: usize,
        /// The slot's registration epoch.
        epoch: u64,
    },
}

/// Deliberately re-introducible historical bugs, used by the
/// `ic-check` negative suite to prove the checker catches each one
/// with a stable diagnostic code and a minimal counterexample. All
/// flags default to off; production drivers never set them. (They are
/// runtime flags rather than `#[cfg(test)]` items because the negative
/// suite lives in another crate — the same reasoning that makes
/// [`crate::worker::FaultPlan`] a runtime value.)
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeededBugs {
    /// PR 3's orphaning bug: a request from a worker still holding
    /// leases silently discards them instead of forfeiting them, so
    /// the held tasks — claimed, but on no queue — can never be
    /// reallocated. Caught as IC0506 (eligible-partition violation).
    pub orphan_on_request: bool,
    /// Accept a duplicate `done` for an already-executed task and emit
    /// a second `Completed` trace event. Caught as IC0502.
    pub double_completion_event: bool,
    /// Skip the epoch guard on [`Event::Sever`], so a stale `Gone`
    /// from a superseded connection disturbs the resumed slot. Caught
    /// as IC0504.
    pub honor_stale_gone: bool,
    /// Skip the epoch bump when rebuilding worker slots from a
    /// replayed trace ([`LeaseMachine::restore`]), so a recovered slot
    /// restarts at epoch 0 — at or below epochs that provably existed
    /// before the crash. Caught as IC0702 (epoch regression on
    /// recovery).
    pub skip_recovery_epoch_bump: bool,
}

/// Why a trace prefix cannot rebuild a [`LeaseMachine`]
/// ([`LeaseMachine::restore`]). Each variant maps onto one of the
/// IC07xx recovery diagnostics registered in `ic-audit`.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The trace header disagrees with the launch configuration —
    /// different dag, policy, or seed (IC0703).
    HeaderMismatch {
        /// What disagreed, human-readable.
        reason: String,
    },
    /// The prefix completes the same task twice (IC0701): the trace is
    /// not the history of one legal run and must not be extended.
    DuplicateCompletion {
        /// The task completed twice.
        task: NodeId,
        /// The `step` of the second completion.
        step: u64,
    },
    /// An event references impossible state — an unknown task id, a
    /// completion or failure with no open lease, an allocation of a
    /// non-ELIGIBLE task.
    Corrupt {
        /// The `step` of the offending event.
        step: u64,
        /// What was impossible about it.
        reason: String,
    },
    /// The trace belongs to one shard of a federated run; shard traces
    /// interleave with peer state that a single machine cannot replay.
    Federated,
}

impl RestoreError {
    /// The stable IC07xx diagnostic code for this failure.
    pub fn code(&self) -> &'static str {
        match self {
            RestoreError::HeaderMismatch { .. } => "IC0703",
            RestoreError::DuplicateCompletion { .. } => "IC0701",
            RestoreError::Corrupt { .. } | RestoreError::Federated => "IC0704",
        }
    }
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::HeaderMismatch { reason } => {
                write!(f, "trace header mismatch: {reason}")
            }
            RestoreError::DuplicateCompletion { task, step } => {
                write!(f, "task t{task} completed twice (second at step {step})")
            }
            RestoreError::Corrupt { step, reason } => {
                write!(f, "corrupt trace at step {step}: {reason}")
            }
            RestoreError::Federated => {
                write!(f, "federated shard traces are not recoverable")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Per-worker registration record. The slot outlives its TCP
/// connection: a worker that disconnects mid-lease can reclaim it
/// with the resume token.
#[derive(Debug, Clone)]
struct WorkerSlot {
    id: String,
    speed: f64,
    /// Whether the worker's latest request already saw an empty pool
    /// (suppresses repeated `Idle` events while it polls).
    waiting: bool,
    /// Current resume token (rotated on every resume so a stale token
    /// cannot hijack the slot); `None` only on a crash-recovered slot
    /// nobody has resumed yet.
    token: Option<String>,
    /// Bumped on every resume; a `Sever` carrying an older epoch comes
    /// from a superseded connection and is ignored.
    epoch: u64,
    /// Whether a live connection currently owns the slot.
    connected: bool,
    /// A crash-recovered slot whose worker has not reported back yet.
    /// Its pre-crash resume token is unknowable (tokens never reach
    /// the trace), so during the recovery window a resume `hello`
    /// whose *id* matches reclaims the slot; lease expiry is the
    /// fallback if the worker never returns.
    awaiting_recovery: bool,
}

/// A read-only view of one lease-table entry, for drivers, tests, and
/// the model checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseView {
    /// The holding worker's slot index.
    pub worker: usize,
    /// The leased task.
    pub task: NodeId,
    /// Whether this is a speculative drain-barrier duplicate.
    pub speculative: bool,
}

/// The pure lease-protocol coordinator: all scheduling state, no side
/// effects. See the [module docs](self) for the contract.
#[derive(Clone)]
pub struct LeaseMachine<'a, 'd> {
    dag: &'d Dag,
    policy: &'a dyn AllocationPolicy,
    cfg: ServerConfig,
    /// Execution state; its dense pool holds the ELIGIBLE, unleased,
    /// not-backing-off tasks — allocatable now. Leased and deferred
    /// tasks are *claimed* (ELIGIBLE but out of the pool).
    state: ExecState<'d>,
    /// Failed tasks waiting out their backoff: `(ready_at_us, task)`.
    /// They stay claimed in `state` until promoted back to the pool.
    deferred: Vec<(u64, NodeId)>,
    /// The lease table: a slab with worker, task, and table-order
    /// indices, so the hot per-event lookups are O(1) instead of a
    /// scan over one lease per connected worker (see
    /// [`crate::lease_table`] for the layout and the order-fidelity
    /// argument; `ic-check`'s `reference` module keeps the old
    /// linear-scan machine as the differential oracle).
    leases: LeaseTable,
    /// Resume-token → worker slot, kept in lockstep with each slot's
    /// current token (rotated on every resume), replacing the old
    /// linear token scan of `workers`.
    token_index: HashMap<String, usize>,
    /// Per-node failure counts, surfaced to policies via
    /// [`ic_sched::policy::PolicyContext::retries`].
    failures: Vec<u32>,
    workers: Vec<WorkerSlot>,
    connected: usize,
    late_workers: usize,
    header_written: bool,
    /// Driver time when the header was written; trace timestamps and
    /// the makespan count from here.
    origin_us: u64,
    step: u64,
    allocation_steps: usize,
    completions: usize,
    failure_events: usize,
    resumes: usize,
    steals: usize,
    revokes: usize,
    completed_at_us: Option<u64>,
    /// End of the post-restore resume window: until this driver time,
    /// a resume `hello` whose token misses the index may still reclaim
    /// an [`WorkerSlot::awaiting_recovery`] slot by worker id. Zero on
    /// machines that were never restored.
    recovery_resume_until_us: u64,
    /// Resume-token source, seeded from the config (keeps the machine
    /// deterministic given its inputs).
    rng: XorShift64,
    bugs: SeededBugs,
    /// Federation metadata ([`LeaseMachine::set_fed`]); `None` for a
    /// standalone (single-server) run.
    fed: Option<FedMeta>,
    /// `stub_mask[v]`: node `v` is a stub — a remote predecessor owned
    /// by a peer shard, claimed by [`FED_CLIENT`] at the header and
    /// completed only by that shard's `remote-done`.
    stub_mask: Vec<bool>,
    /// `replica_mask[v]`: node `v` is a replicated boundary task
    /// (`--replicate-cut`): allocatable locally, but a peer's
    /// `remote-done` may win the race and revoke local leases.
    replica_mask: Vec<bool>,
    /// Remote completions that cannot apply yet: arrived before the
    /// header, or for nodes whose own remote predecessors are still
    /// pending (peer messages carry no ordering across shards).
    /// Arrival order is observable (it fixes the order of queued
    /// completions within a drain pass), so the queue stays a `Vec`;
    /// the companion index fields below make membership checks and
    /// readiness sweeps O(1) per event instead of a rescan.
    pending_remote: Vec<NodeId>,
    /// `pending_mask[v]`: `v` is in `pending_remote` (O(1) dedup).
    pending_mask: Vec<bool>,
    /// For each queued node, how many of its parents are still
    /// unexecuted; 0 means ready to apply on the next drain.
    pending_missing: Vec<u32>,
    /// `remote_waiters[p]`: queued nodes waiting on parent `p`; each
    /// execution of `p` decrements their `pending_missing` instead of
    /// the old full readiness rescan.
    remote_waiters: Vec<Vec<NodeId>>,
    /// Queued nodes whose `pending_missing` is 0 — the drain sweep
    /// exits O(1) when this is 0, which is every drain call outside a
    /// federation.
    pending_ready: usize,
    /// Remote completions applied (stub or replica executions driven
    /// by a peer's `remote-done`).
    remote_completions: usize,
}

impl<'a, 'd> LeaseMachine<'a, 'd> {
    /// Build a machine over `dag` allocating through `policy`.
    ///
    /// # Panics
    /// Panics if the policy rejects the dag in
    /// [`AllocationPolicy::prepare`].
    pub fn new(dag: &'d Dag, policy: &'a dyn AllocationPolicy, cfg: ServerConfig) -> Self {
        policy.prepare(dag);
        let mut state = ExecState::new(dag);
        // If the policy is a pure argmin over a total static ranking
        // (a `Schedule`), index the pool by it: allocation then finds
        // the next task in `O(log n)` instead of scanning the pool,
        // which is what keeps 10k-worker fleets allocating like 1k.
        // Partial or absent rankings (FIFO, random) fall back to the
        // policy's own `choose` scan.
        if let Some(ranks) = dag
            .node_ids()
            .map(|v| policy.static_rank(v))
            .collect::<Option<Vec<usize>>>()
        {
            state.enable_rank_index(ranks);
        }
        let failures = vec![0; dag.num_nodes()];
        let rng = XorShift64::new(cfg.seed ^ 0x7EA5_E0CE);
        LeaseMachine {
            dag,
            policy,
            cfg,
            state,
            deferred: Vec::new(),
            leases: LeaseTable::new(dag.num_nodes()),
            token_index: HashMap::new(),
            failures,
            workers: Vec::new(),
            connected: 0,
            late_workers: 0,
            header_written: false,
            origin_us: 0,
            step: 0,
            allocation_steps: 0,
            completions: 0,
            failure_events: 0,
            resumes: 0,
            steals: 0,
            revokes: 0,
            completed_at_us: None,
            recovery_resume_until_us: 0,
            rng,
            bugs: SeededBugs::default(),
            fed: None,
            stub_mask: Vec::new(),
            replica_mask: Vec::new(),
            pending_remote: Vec::new(),
            pending_mask: Vec::new(),
            pending_missing: Vec::new(),
            remote_waiters: Vec::new(),
            pending_ready: 0,
            remote_completions: 0,
        }
    }

    /// The local [`NodeId`] for a raw wire task id, if it names a node
    /// of this dag. Node ids are dense (`0..num_nodes`), so this is a
    /// bounds check, not the old full-dag `node_ids().find` scan.
    fn node_from_raw(&self, task: u64) -> Option<NodeId> {
        u32::try_from(task)
            .ok()
            .map(NodeId)
            .filter(|v| v.index() < self.dag.num_nodes())
    }

    /// Declare this machine one shard of a federated run. Must be
    /// called before [`LeaseMachine::boot`]: the trace header then
    /// carries the metadata, and every stub node is claimed by
    /// [`FED_CLIENT`] right after the header so it can only complete
    /// through a peer's [`Event::RemoteDone`]. Out-of-range stub or
    /// replica ids are ignored defensively.
    pub fn set_fed(&mut self, fed: FedMeta) {
        let n = self.dag.num_nodes();
        self.stub_mask = vec![false; n];
        for &s in &fed.stubs {
            if let Some(slot) = self.stub_mask.get_mut(s as usize) {
                *slot = true;
            }
        }
        self.replica_mask = vec![false; n];
        for &r in &fed.replicas {
            if let Some(slot) = self.replica_mask.get_mut(r as usize) {
                *slot = true;
            }
        }
        self.fed = Some(fed);
    }

    /// Federation metadata, if [`LeaseMachine::set_fed`] was called.
    pub fn fed(&self) -> Option<&FedMeta> {
        self.fed.as_ref()
    }

    /// Start the run: with no registration barrier
    /// (`expect_workers == 0`) the trace header goes out immediately,
    /// before anyone registers. With a barrier this is a no-op — the
    /// header is emitted by the `Hello` that meets the barrier.
    pub fn boot(&mut self, now_us: u64) -> Vec<Effect> {
        let mut fx = Vec::new();
        if self.cfg.expect_workers == 0 && !self.header_written {
            self.write_header(now_us, &mut fx);
        }
        fx
    }

    /// Re-introduce a seeded historical bug (negative testing only).
    #[doc(hidden)]
    pub fn seed_bugs(&mut self, bugs: SeededBugs) {
        self.bugs = bugs;
    }

    /// Rebuild a machine from the replayed prefix of its own trace —
    /// the crash-recovery core behind [`crate::recovery`].
    ///
    /// The trace is the server's write-ahead log: replaying its
    /// `alloc`/`complete`/`fail`/`spec`/`revoke` events against a
    /// fresh machine reconstructs the executed set, the eligible pool,
    /// the backoff queue, and the lease table exactly as the crashed
    /// machine held them. Outstanding leases are re-armed to expire at
    /// `now_us + lease_ms` (reallocation is the fallback for workers
    /// that never return); every rebuilt slot is marked
    /// awaiting-recovery with its epoch bumped past anything the
    /// pre-crash run could have issued (`events + 1` — each epoch bump
    /// that left evidence emitted at least one event); the trace
    /// cursor (`step`, timestamp origin) continues where the prefix
    /// ends, so appended events extend the same audit-clean run.
    ///
    /// The header must match the launch configuration (same dag, same
    /// policy, same seed) — recovery refuses to graft a trace onto a
    /// different run. Pool/backoff *membership* is recovered exactly;
    /// FIFO arrival order within the pool is not observable from the
    /// trace and may differ, which is the same reordering any crash
    /// already inflicts on in-flight work.
    pub fn restore(
        dag: &'d Dag,
        policy: &'a dyn AllocationPolicy,
        cfg: ServerConfig,
        header: &TraceHeader,
        events: &[TraceEvent],
        now_us: u64,
    ) -> Result<Self, RestoreError> {
        Self::restore_with(
            dag,
            policy,
            cfg,
            header,
            events,
            now_us,
            SeededBugs::default(),
        )
    }

    /// [`LeaseMachine::restore`] with seeded bugs active during the
    /// rebuild (the `ic-check` negative suite re-introduces the
    /// skipped epoch bump through this).
    #[doc(hidden)]
    pub fn restore_with(
        dag: &'d Dag,
        policy: &'a dyn AllocationPolicy,
        cfg: ServerConfig,
        header: &TraceHeader,
        events: &[TraceEvent],
        now_us: u64,
        bugs: SeededBugs,
    ) -> Result<Self, RestoreError> {
        if header.fed.is_some() {
            return Err(RestoreError::Federated);
        }
        let mismatch = |reason: String| RestoreError::HeaderMismatch { reason };
        if header.nodes != dag.num_nodes() {
            return Err(mismatch(format!(
                "trace dag has {} nodes, launch dag has {}",
                header.nodes,
                dag.num_nodes()
            )));
        }
        let arcs: Vec<(u32, u32)> = dag.arcs().map(|(u, v)| (u.0, v.0)).collect();
        if header.arcs != arcs {
            return Err(mismatch(format!(
                "trace dag has {} arcs that differ from the launch dag's {}",
                header.arcs.len(),
                arcs.len()
            )));
        }
        if header.policy != policy.name() {
            return Err(mismatch(format!(
                "trace ran policy {:?}, launch requests {:?}",
                header.policy,
                policy.name()
            )));
        }
        if header.seed != cfg.seed {
            return Err(mismatch(format!(
                "trace ran seed {:#x}, launch requests {:#x}",
                header.seed, cfg.seed
            )));
        }

        let mut m = LeaseMachine::new(dag, policy, cfg);
        m.bugs = bugs;
        m.header_written = true;

        // Slots named by the header carry their declared id and speed;
        // clients that only appear in events (late workers) get
        // synthesized ids — their real ids never reached the trace, so
        // they cannot id-match a resume and fall back to lease expiry.
        let declared: HashMap<usize, (String, f64)> = header
            .workers
            .iter()
            .map(|w| (w.client, (w.id.clone(), w.speed)))
            .collect();
        fn ensure_slot(
            workers: &mut Vec<WorkerSlot>,
            declared: &HashMap<usize, (String, f64)>,
            client: usize,
            step: u64,
        ) -> Result<(), RestoreError> {
            if client >= FED_CLIENT {
                return Err(RestoreError::Federated);
            }
            if client > 1 << 20 {
                return Err(RestoreError::Corrupt {
                    step,
                    reason: format!("implausible client index {client}"),
                });
            }
            while workers.len() <= client {
                let i = workers.len();
                let (id, speed) = declared
                    .get(&i)
                    .cloned()
                    .unwrap_or_else(|| (format!("recovered-{i}"), 1.0));
                workers.push(WorkerSlot {
                    id,
                    speed,
                    waiting: false,
                    token: None,
                    epoch: 0,
                    connected: false,
                    awaiting_recovery: true,
                });
            }
            Ok(())
        }
        for i in 0..declared.len() {
            ensure_slot(&mut m.workers, &declared, i, 0)?;
        }
        let deadline = m.lease_deadline(now_us);
        for ev in events {
            let (step, client) = (ev.step, ev.client);
            let corrupt = |reason: String| RestoreError::Corrupt { step, reason };
            ensure_slot(&mut m.workers, &declared, client, step)?;
            let Some(v) = ev.task else {
                m.workers[client].waiting = true;
                continue;
            };
            if v.index() >= dag.num_nodes() {
                return Err(corrupt(format!("unknown task t{v}")));
            }
            // Every outcome closes the lease it names.
            let close = |leases: &mut LeaseTable, what: &str| {
                let id = leases
                    .find(client, v)
                    .ok_or_else(|| corrupt(format!("{what} of {v} without a lease")))?;
                leases.remove(id);
                Ok::<(), RestoreError>(())
            };
            match ev.kind {
                EventKind::Allocated | EventKind::Speculated => {
                    let speculative = ev.kind == EventKind::Speculated;
                    if speculative {
                        m.steals += 1;
                    } else {
                        // A re-allocation of a backed-off task implies
                        // its backoff elapsed before the crash.
                        if let Some(pos) = m.deferred.iter().position(|&(_, d)| d == v) {
                            m.deferred.swap_remove(pos);
                            let unclaimed = m.state.unclaim(v).is_ok();
                            debug_assert!(unclaimed, "deferred tasks are claimed");
                        }
                        m.state.claim(v).map_err(|_| {
                            corrupt(format!("allocated task {v} was not in the pool"))
                        })?;
                        m.allocation_steps += 1;
                    }
                    m.leases.insert(Lease {
                        worker: client,
                        task: v,
                        deadline_us: deadline,
                        granted_us: now_us,
                        speculative,
                    });
                    m.workers[client].waiting = false;
                }
                EventKind::Completed => {
                    if m.state.is_executed(v) {
                        return Err(RestoreError::DuplicateCompletion { task: v, step });
                    }
                    close(&mut m.leases, "completion")?;
                    m.state
                        .execute_counting(v)
                        .map_err(|_| corrupt(format!("completed task {v} was not ELIGIBLE")))?;
                    m.completions += 1;
                }
                EventKind::Failed => {
                    close(&mut m.leases, "failure")?;
                    m.failures[v.index()] += 1;
                    m.failure_events += 1;
                    if !m.leases.has_holder(v) {
                        // Ready immediately: the recovered server's
                        // first request promotes it, which is at least
                        // as late as the original backoff would allow.
                        m.deferred.push((now_us, v));
                    }
                }
                EventKind::Revoked => {
                    close(&mut m.leases, "revocation")?;
                    m.revokes += 1;
                }
                EventKind::Resumed => m.resumes += 1,
                // An idle event names no task: handled above.
                EventKind::Idle => {}
            }
        }

        // Continue the crashed run's trace cursor: appended events get
        // monotone steps, and timestamps that resume where the prefix
        // stopped (`origin` backdated so `now_us` maps to the last
        // recorded time).
        m.step = events.last().map_or(0, |e| e.step + 1);
        let elapsed_us = events.last().map_or(0, |e| micros(e.time));
        m.origin_us = now_us.saturating_sub(elapsed_us);
        m.late_workers = m.workers.len().saturating_sub(header.workers.len());
        // Epochs restart strictly above anything the crashed machine
        // could have issued: every pre-crash epoch bump either emitted
        // a `resume` event or rode a connection that is now dead, and
        // `events + 1` dominates the evidence-bearing bound. The
        // seeded IC0702 bug skips exactly this.
        let epoch = if m.bugs.skip_recovery_epoch_bump {
            0
        } else {
            events.len() as u64 + 1
        };
        for w in &mut m.workers {
            w.epoch = epoch;
        }
        if m.is_complete() {
            m.completed_at_us = Some(now_us);
        }
        Ok(m)
    }

    /// Open the post-restore resume window: until `until_us` (driver
    /// time), a resume `hello` whose token is unknown may reclaim an
    /// awaiting-recovery slot whose worker id matches. After the
    /// window, unresumed slots are served by lease expiry alone.
    pub fn await_resumes(&mut self, until_us: u64) {
        self.recovery_resume_until_us = until_us;
    }

    /// Crash-recovered slots still waiting for their worker to resume.
    pub fn awaiting_resume(&self) -> usize {
        self.workers.iter().filter(|w| w.awaiting_recovery).count()
    }

    /// Apply one event, returning the effects in the order the driver
    /// must perform them.
    pub fn step(&mut self, ev: Event) -> Vec<Effect> {
        let mut fx = Vec::new();
        match ev {
            Event::Hello {
                id,
                speed,
                proto,
                resume,
                now_us,
            } => self.register(id, speed, proto, resume, now_us, &mut fx),
            Event::Request {
                worker,
                max,
                now_us,
            } => {
                let msg = self.allocate_for(worker, max, now_us, &mut fx);
                fx.push(Effect::Reply(msg));
            }
            Event::Done {
                worker,
                task,
                ok,
                now_us,
            } => {
                let accepted = self.report(worker, task, ok, now_us, &mut fx);
                fx.push(Effect::Reply(Message::Ack { task, accepted }));
            }
            Event::Heartbeat {
                worker,
                task,
                now_us,
            } => {
                let deadline = self.lease_deadline(now_us);
                let held = self
                    .node_from_raw(task)
                    .is_some_and(|v| self.leases.renew(worker, v, deadline));
                let msg = if held {
                    Message::Ack {
                        task,
                        accepted: true,
                    }
                } else {
                    // The lease is gone (expired, forfeited, or revoked
                    // after a losing race): tell the worker to abandon
                    // the task instead of finishing doomed work.
                    Message::Revoke { task }
                };
                fx.push(Effect::Reply(msg));
            }
            Event::Sever { worker, epoch, .. } => self.sever(worker, epoch),
            Event::Expire {
                worker,
                task,
                now_us,
            } => {
                let live = self
                    .node_from_raw(task)
                    .and_then(|v| self.leases.find(worker, v))
                    .filter(|&id| self.leases.get(id).deadline_us <= now_us);
                if let Some(id) = live {
                    let lease = self.leases.remove(id);
                    self.lose_lease(lease, now_us, &mut fx);
                }
            }
            Event::RemoteDone { task, now_us } => {
                self.remote_done(task, now_us, &mut fx);
            }
        }
        fx
    }

    /// Every lease whose heartbeat deadline has passed at `now_us`, as
    /// `(worker, task)` pairs ready to feed back as [`Event::Expire`].
    pub fn expired(&self, now_us: u64) -> Vec<(usize, u64)> {
        self.leases
            .iter()
            .filter(|l| l.deadline_us <= now_us)
            .map(|l| (l.worker, l.task.index() as u64))
            .collect()
    }

    /// Whether every task of the dag has executed.
    pub fn is_complete(&self) -> bool {
        self.state.num_executed() == self.dag.num_nodes()
    }

    /// Workers with a live connection right now.
    pub fn connected(&self) -> usize {
        self.connected
    }

    /// Pool size as the trace records it: allocatable now, plus tasks
    /// waiting out a backoff — both are ELIGIBLE and unallocated,
    /// which is what the auditor's replay reconstructs.
    pub fn recorded_pool(&self) -> usize {
        self.state.pool_len() + self.deferred.len()
    }

    /// The execution state (read-only).
    pub fn exec(&self) -> &ExecState<'d> {
        &self.state
    }

    /// The lease table (read-only views, in table order).
    pub fn lease_views(&self) -> Vec<LeaseView> {
        self.leases
            .iter()
            .map(|l| LeaseView {
                worker: l.worker,
                task: l.task,
                speculative: l.speculative,
            })
            .collect()
    }

    /// Tasks parked in the backoff queue (unordered).
    pub fn deferred_tasks(&self) -> Vec<NodeId> {
        self.deferred.iter().map(|&(_, v)| v).collect()
    }

    /// How many workers ever registered.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// A slot's current registration epoch, if the slot exists.
    pub fn worker_epoch(&self, worker: usize) -> Option<u64> {
        self.workers.get(worker).map(|w| w.epoch)
    }

    /// Whether a live connection currently owns the slot.
    pub fn worker_connected(&self, worker: usize) -> bool {
        self.workers.get(worker).is_some_and(|w| w.connected)
    }

    /// A slot's self-declared worker id, if the slot exists.
    pub fn worker_id(&self, worker: usize) -> Option<&str> {
        self.workers.get(worker).map(|w| w.id.as_str())
    }

    /// Failure count of one task (lease expiries, forfeits, reported
    /// failures).
    pub fn failure_count(&self, v: NodeId) -> u32 {
        self.failures.get(v.index()).copied().unwrap_or(0)
    }

    /// Trace events emitted so far.
    pub fn trace_steps(&self) -> u64 {
        self.step
    }

    /// Summarize the run as the driver's [`ServeReport`]; `now_us` is
    /// the fallback makespan endpoint if the dag never completed.
    pub fn summary(&self, now_us: u64) -> ServeReport {
        let end = self.completed_at_us.unwrap_or(now_us);
        let makespan = end.saturating_sub(self.origin_us) as f64 * 1e-6;
        ServeReport {
            completions: self.completions,
            failures: self.failure_events,
            allocations: self.allocation_steps,
            workers_registered: self.workers.len(),
            late_workers: self.late_workers,
            resumes: self.resumes,
            steals: self.steals,
            revokes: self.revokes,
            makespan,
            remote_completions: self.remote_completions,
            peer_tx: 0,
            peer_rx: 0,
            peer_reconnects: 0,
        }
    }

    /// Remote completions applied so far (stub or replica executions
    /// driven by peers' `remote-done` notifications).
    pub fn remote_completions(&self) -> usize {
        self.remote_completions
    }

    /// Remote completions queued, waiting for their own predecessors.
    pub fn pending_remote(&self) -> usize {
        self.pending_remote.len()
    }

    /// Hash the scheduling-relevant state: executed set, pool (in
    /// arrival order — FIFO policies depend on it), backoff queue,
    /// lease table (sorted; grant times and deadlines excluded), slot
    /// states, and failure counts. Token strings, the rng, trace step
    /// counters, and all timestamps are excluded, so two states that
    /// can only diverge in timing or cosmetics collide — exactly what
    /// a frozen-clock model checker wants for its visited set.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }

    /// [`LeaseMachine::fingerprint`] into a caller-chosen hasher.
    pub fn fingerprint_into(&self, h: &mut impl Hasher) {
        self.header_written.hash(h);
        for v in self.dag.node_ids() {
            self.state.is_executed(v).hash(h);
        }
        let mut pool: Vec<NodeId> = self.state.pool().to_vec();
        pool.sort_unstable_by_key(|&v| self.state.pool_seq(v));
        0xA1u8.hash(h);
        for v in &pool {
            v.index().hash(h);
        }
        0xA2u8.hash(h);
        for &(_, v) in &self.deferred {
            v.index().hash(h);
        }
        0xA3u8.hash(h);
        let mut leases: Vec<(usize, usize, bool)> = self
            .leases
            .iter()
            .map(|l| (l.worker, l.task.index(), l.speculative))
            .collect();
        leases.sort_unstable();
        for l in &leases {
            l.hash(h);
        }
        0xA4u8.hash(h);
        for w in &self.workers {
            (w.epoch, w.connected, w.waiting, w.token.is_some()).hash(h);
        }
        0xA5u8.hash(h);
        self.failures.hash(h);
    }

    // ------------------------------------------------------------------
    // Internals (straight ports of the old coordinator, with `Instant`
    // arithmetic replaced by event-supplied microseconds).
    // ------------------------------------------------------------------

    /// Trace timestamp for an event happening at `now_us`.
    fn t(&self, now_us: u64) -> f64 {
        now_us.saturating_sub(self.origin_us) as f64 * 1e-6
    }

    /// Emit the next trace event, stamped with the step counter, the
    /// trace time of `now_us`, and the recorded pool as it stands.
    /// `task` is `None` exactly for [`EventKind::Idle`].
    fn emit(
        &mut self,
        fx: &mut Vec<Effect>,
        kind: EventKind,
        now_us: u64,
        client: usize,
        task: Option<NodeId>,
    ) {
        self.emit_with_pool(fx, kind, now_us, client, task, self.recorded_pool());
    }

    /// [`LeaseMachine::emit`] recording `pool` instead of the current
    /// pool: a batched round claims all its tasks before the first
    /// `alloc` event is written.
    fn emit_with_pool(
        &mut self,
        fx: &mut Vec<Effect>,
        kind: EventKind,
        now_us: u64,
        client: usize,
        task: Option<NodeId>,
        pool: usize,
    ) {
        debug_assert!(self.header_written, "events only after the header");
        let (step, time) = (self.step, self.t(now_us));
        debug_assert_eq!(task.is_none(), kind == EventKind::Idle);
        fx.push(Effect::Trace(match task {
            Some(task) => TraceEvent::on_task(kind, step, time, client, task, Some(pool)),
            None => TraceEvent::idle(step, time, client),
        }));
        self.step += 1;
    }

    /// Write the trace header recording every worker registered so far
    /// with its declared parameters. Called when the registration
    /// barrier is met (or at boot with no barrier); workers joining
    /// later appear in events but not in the header.
    fn write_header(&mut self, now_us: u64, fx: &mut Vec<Effect>) {
        debug_assert!(!self.header_written);
        let params: Vec<WorkerParams> = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| WorkerParams {
                client: i,
                id: w.id.clone(),
                speed: w.speed,
            })
            .collect();
        let clients = self.workers.len().max(self.cfg.expect_workers).max(1);
        let mut header =
            TraceHeader::for_run(self.dag, clients, self.cfg.seed, &self.policy.name())
                .with_workers(params);
        if let Some(fed) = &self.fed {
            header = header.with_fed(fed.clone());
        }
        fx.push(Effect::Header(header));
        self.header_written = true;
        // Serving time starts when serving can actually start.
        self.origin_us = now_us;
        // Claim every stub for the federation: each is a source of the
        // local sub-dag, so it leaves the pool immediately and can only
        // complete through a peer's `remote-done`. The `alloc` events
        // keep the trace's pool accounting exact under replay.
        let stubs: Vec<NodeId> = self
            .dag
            .node_ids()
            .filter(|v| self.stub_mask.get(v.index()).copied().unwrap_or(false))
            .collect();
        for v in stubs {
            if self.state.claim(v).is_err() {
                debug_assert!(false, "stub {v} must be an unexecuted source");
                continue;
            }
            self.emit(fx, EventKind::Allocated, now_us, FED_CLIENT, Some(v));
        }
        // Remote completions that raced ahead of the header apply now.
        self.drain_pending_remote(now_us, fx);
    }

    /// Move deferred tasks whose backoff elapsed back into the pool.
    /// Unclaiming stamps them as the pool's newest arrivals, so FIFO
    /// policies treat a reallocated task as freshly eligible.
    fn promote_deferred(&mut self, now_us: u64) {
        let mut i = 0;
        while i < self.deferred.len() {
            if self.deferred[i].0 <= now_us {
                let (_, v) = self.deferred.swap_remove(i);
                let unclaimed = self.state.unclaim(v).is_ok();
                debug_assert!(unclaimed, "deferred tasks are claimed ELIGIBLE nodes");
            } else {
                i += 1;
            }
        }
    }

    fn fresh_token(&mut self) -> String {
        format!("{:016x}{:016x}", self.rng.next_u64(), self.rng.next_u64())
    }

    /// Lease deadline for a grant or renewal at `now_us`.
    fn lease_deadline(&self, now_us: u64) -> u64 {
        now_us.saturating_add(self.cfg.lease_ms.saturating_mul(1_000))
    }

    /// Declare a (removed) lease lost: emit `Failed` and bump the
    /// task's failure count. Only when the *last* holder falls does
    /// the task park in the backoff queue — while duplicates remain,
    /// the task is still in flight and must not re-enter the pool.
    fn lose_lease(&mut self, lease: Lease, now_us: u64, fx: &mut Vec<Effect>) {
        let v = lease.task;
        self.failures[v.index()] += 1;
        let last_holder = !self.leases.has_holder(v);
        if last_holder {
            let fails = self.failures[v.index()];
            let backoff_us = self
                .cfg
                .backoff_base_ms
                .saturating_mul(1 << (fails - 1).min(6))
                .saturating_mul(1_000);
            self.deferred.push((now_us.saturating_add(backoff_us), v));
        }
        self.failure_events += 1;
        self.emit(fx, EventKind::Failed, now_us, lease.worker, Some(v));
    }

    /// Remove and lose every lease held by `worker`, in the same order
    /// the old scan-and-`swap_remove` loop produced (lowest table
    /// position first). O(held-by-worker), not O(live leases) — this
    /// runs on *every* `request`, which made the old scan the dominant
    /// per-allocation cost at 10k workers.
    fn drop_worker_leases(&mut self, worker: usize, now_us: u64, fx: &mut Vec<Effect>) {
        while let Some(lease) = self.leases.remove_worker_next(worker) {
            self.lose_lease(lease, now_us, fx);
        }
    }

    /// Register a fresh worker or resume an existing slot; pushes the
    /// [`Effect::Registered`] answer (after any header or trace
    /// effects the registration itself produced).
    fn register(
        &mut self,
        id: String,
        speed: f64,
        proto: u32,
        resume: Option<String>,
        now_us: u64,
        fx: &mut Vec<Effect>,
    ) {
        // The one place a protocol version is compared: everything
        // past this line speaks PROTO_CURRENT.
        if proto < PROTO_CURRENT {
            return refuse(
                fx,
                ERR_UNSUPPORTED,
                format!(
                    "protocol {proto} not supported: this server requires at least \
                     {PROTO_CURRENT}"
                ),
            );
        }
        if let Some(token) = resume {
            return self.resume_slot(&id, &token, now_us, fx);
        }
        let worker = self.workers.len();
        let token = self.fresh_token();
        self.token_index.insert(token.clone(), worker);
        self.workers.push(WorkerSlot {
            id,
            speed,
            waiting: false,
            token: Some(token.clone()),
            epoch: 0,
            connected: true,
            awaiting_recovery: false,
        });
        self.connected += 1;
        if self.header_written {
            self.late_workers += 1;
        } else if self.workers.len() >= self.cfg.expect_workers {
            self.write_header(now_us, fx);
        }
        fx.push(Effect::Registered {
            msg: Message::Welcome {
                worker: worker as u64,
                lease_ms: self.cfg.lease_ms,
                proto: PROTO_CURRENT,
                resume: Some(token),
                tasks: Vec::new(),
            },
            worker,
            epoch: 0,
        });
    }

    /// Reattach a reconnecting worker to its slot: rotate the token,
    /// bump the epoch (so the dead connection's `Sever` is ignored),
    /// and restore the heartbeat clock of every lease it still holds.
    ///
    /// A crash-recovered machine cannot know pre-crash tokens (they
    /// never reach the trace), so while the recovery window is open a
    /// token that misses the index falls back to matching an
    /// [`WorkerSlot::awaiting_recovery`] slot by the hello's worker
    /// `id` — the surviving worker reclaims its slot and leases with
    /// zero lost work.
    fn resume_slot(&mut self, id: &str, token: &str, now_us: u64, fx: &mut Vec<Effect>) {
        let matched = self
            .token_index
            .get(token)
            .copied()
            .or_else(|| self.recovery_match(id, now_us));
        let Some(worker) = matched else {
            return refuse(fx, ERR_BAD_RESUME, "unknown or stale resume token".into());
        };
        let fresh = self.fresh_token();
        let deadline = self.lease_deadline(now_us);
        self.token_index.remove(token);
        self.token_index.insert(fresh.clone(), worker);
        let slot = &mut self.workers[worker];
        slot.epoch += 1;
        slot.token = Some(fresh.clone());
        slot.waiting = false;
        slot.awaiting_recovery = false;
        if !slot.connected {
            slot.connected = true;
            self.connected += 1;
        }
        let epoch = slot.epoch;
        let held = self.leases.renew_worker(worker, deadline);
        self.resumes += 1;
        for &v in &held {
            self.emit(fx, EventKind::Resumed, now_us, worker, Some(v));
        }
        fx.push(Effect::Registered {
            msg: Message::Welcome {
                worker: worker as u64,
                lease_ms: self.cfg.lease_ms,
                proto: PROTO_CURRENT,
                resume: Some(fresh),
                tasks: held.iter().map(|v| v.index() as u64).collect(),
            },
            worker,
            epoch,
        });
    }

    /// Match an unknown resume token to a crash-recovered slot by
    /// worker id, while the recovery window is open. Only disconnected
    /// [`WorkerSlot::awaiting_recovery`] slots qualify, so a live
    /// worker's slot can never be hijacked by replaying its id.
    fn recovery_match(&self, id: &str, now_us: u64) -> Option<usize> {
        if now_us > self.recovery_resume_until_us {
            return None;
        }
        self.workers
            .iter()
            .position(|w| w.awaiting_recovery && !w.connected && w.id == id)
    }

    /// A worker's connection dropped (with its registration epoch);
    /// see [`Event::Sever`] for what that does and does not release.
    fn sever(&mut self, worker: usize, epoch: u64) {
        let Some(slot) = self.workers.get_mut(worker) else {
            return;
        };
        if slot.epoch != epoch && !self.bugs.honor_stale_gone {
            // A superseded connection: the worker already resumed on
            // a new socket.
            return;
        }
        if slot.connected {
            slot.connected = false;
            self.connected = self.connected.saturating_sub(1);
        }
    }

    /// Answer a work request: `Assign` when the pool has tasks,
    /// `Drain` when the dag is complete, a speculative duplicate at
    /// the drain barrier if stealing is enabled, `Wait` otherwise.
    ///
    /// A worker requesting while it still holds leases forfeits them
    /// (as a lease expiry would) — otherwise the held tasks,
    /// belonging to no queue, could never be reallocated.
    fn allocate_for(
        &mut self,
        worker: usize,
        max: u64,
        now_us: u64,
        fx: &mut Vec<Effect>,
    ) -> Message {
        if self.is_complete() {
            return Message::Drain;
        }
        if !self.header_written {
            // Registration barrier not met: no events before the header.
            return Message::Wait {
                ms: self.cfg.wait_ms,
            };
        }
        if self.bugs.orphan_on_request {
            // The seeded PR 3 bug: silently discard the held leases —
            // their tasks stay claimed but belong to no queue. The
            // historical bug used `Vec::retain` (order-preserving,
            // unlike every real removal path), which the table mirrors.
            self.leases.retain_not_worker(worker);
        } else {
            self.drop_worker_leases(worker, now_us, fx);
        }
        self.promote_deferred(now_us);
        if self.state.pool_len() == 0 {
            if let Some(msg) = self.try_steal(worker, now_us, fx) {
                return msg;
            }
            // First unsatisfied request since this worker's last
            // allocation is a gridlock event; its polling retries are
            // not.
            if let Some(w) = self.workers.get_mut(worker) {
                if !w.waiting {
                    w.waiting = true;
                    self.emit(fx, EventKind::Idle, now_us, worker, None);
                }
            }
            return Message::Wait {
                ms: self.cfg.wait_ms,
            };
        }
        let width = max.clamp(1, self.cfg.batch.max(1) as u64) as usize;
        // Claiming removes each task from the pool but keeps it
        // ELIGIBLE until the lease resolves (completion, failure, or
        // expiry). The round is chosen exactly as the offline
        // `ic_sched::batched::batches_with` would choose it.
        let tasks = fill_round(
            &mut self.state,
            self.dag,
            self.policy,
            width,
            self.allocation_steps,
            Some(&self.failures),
        );
        self.allocation_steps += tasks.len();
        let deadline = self.lease_deadline(now_us);
        // The trace shows one `alloc` per task; event `i` of `k`
        // records the pool as it stood after that single allocation.
        let base = self.recorded_pool();
        let k = tasks.len();
        for (i, &v) in tasks.iter().enumerate() {
            self.leases.insert(Lease {
                worker,
                task: v,
                deadline_us: deadline,
                granted_us: now_us,
                speculative: false,
            });
            self.emit_with_pool(
                fx,
                EventKind::Allocated,
                now_us,
                worker,
                Some(v),
                base + (k - 1 - i),
            );
        }
        if let Some(w) = self.workers.get_mut(worker) {
            w.waiting = false;
        }
        Message::Assign {
            tasks: tasks.iter().map(|v| v.index() as u64).collect(),
        }
    }

    /// At the drain barrier (empty pool, nothing deferred, leases
    /// outstanding), grant an idle worker a speculative duplicate
    /// of the longest-outstanding primary lease — if stealing is
    /// enabled, that lease is old enough, and the task has no
    /// duplicate yet.
    fn try_steal(&mut self, worker: usize, now_us: u64, fx: &mut Vec<Effect>) -> Option<Message> {
        let after_us = self.cfg.steal_after_ms?.saturating_mul(1_000);
        if !self.deferred.is_empty() {
            return None;
        }
        if self.leases.stealable() == 0 {
            // Every primary already has a duplicate (or nothing is
            // leased): the scan below cannot succeed. This turns the
            // final-stretch polling storm — every idle worker probing
            // on every request — into an O(1) refusal.
            return None;
        }
        let mut straggler: Option<(u64, NodeId)> = None;
        for l in self.leases.iter() {
            if l.speculative || l.worker == worker {
                continue;
            }
            if now_us.saturating_sub(l.granted_us) < after_us {
                continue;
            }
            if self.leases.has_speculative(l.task) {
                continue;
            }
            if straggler.is_none_or(|(g, _)| l.granted_us < g) {
                straggler = Some((l.granted_us, l.task));
            }
        }
        let (_, v) = straggler?;
        self.steals += 1;
        self.leases.insert(Lease {
            worker,
            task: v,
            deadline_us: self.lease_deadline(now_us),
            granted_us: now_us,
            speculative: true,
        });
        // The pool does not shrink: the task was already allocated.
        self.emit(fx, EventKind::Speculated, now_us, worker, Some(v));
        if let Some(w) = self.workers.get_mut(worker) {
            w.waiting = false;
        }
        Some(Message::assign(v.index() as u64))
    }

    /// Apply a worker's outcome report. Returns whether it was
    /// accepted; late or duplicate reports are discarded without a
    /// trace event (the lease expiry already recorded the loss, or the
    /// task is already executed).
    ///
    /// First completion wins: the winner's `Completed` is followed by
    /// a `Revoked` for every remaining duplicate holder, whose
    /// eventual report then finds no lease and is rejected.
    fn report(
        &mut self,
        worker: usize,
        task: u64,
        ok: bool,
        now_us: u64,
        fx: &mut Vec<Effect>,
    ) -> bool {
        let node = self.node_from_raw(task);
        let Some(id) = node.and_then(|v| self.leases.find(worker, v)) else {
            if self.bugs.double_completion_event && ok {
                // The seeded duplicate-completion bug: a late report
                // for an already-executed task is accepted again and
                // re-emits `Completed`.
                if let Some(v) = node {
                    if self.state.is_executed(v) {
                        self.completions += 1;
                        self.emit(fx, EventKind::Completed, now_us, worker, Some(v));
                        return true;
                    }
                }
            }
            return false;
        };
        let lease = self.leases.remove(id);
        let v = lease.task;
        if ok {
            // Newly ELIGIBLE children enter the pool inside
            // `execute_counting` (in id order). A leased task is
            // ELIGIBLE by construction — `ic-check` proves exactly
            // this invariant exhaustively — so failure is refused
            // defensively rather than unwrapped.
            if self.state.execute_counting(v).is_err() {
                debug_assert!(false, "leased task {v} was not ELIGIBLE");
                self.leases.insert(lease);
                return false;
            }
            self.note_executed(v);
            self.completions += 1;
            self.emit(fx, EventKind::Completed, now_us, worker, Some(v));
            // Cancel the stale duplicates (if any): their leases are
            // removed now; their workers learn via the `Revoke` reply
            // to their next heartbeat or the rejected `Done`.
            while let Some(dup) = self.leases.remove_task_next(v) {
                self.revokes += 1;
                self.emit(fx, EventKind::Revoked, now_us, dup.worker, Some(dup.task));
            }
            // A completion may unlock queued remote notifications
            // (a replica whose other predecessors just became met).
            self.drain_pending_remote(now_us, fx);
            if self.is_complete() && self.completed_at_us.is_none() {
                self.completed_at_us = Some(now_us);
            }
        } else {
            self.lose_lease(lease, now_us, fx);
        }
        true
    }

    /// Apply a peer shard's completion notification for local node
    /// `task` (see [`Event::RemoteDone`]).
    fn remote_done(&mut self, task: u64, now_us: u64, fx: &mut Vec<Effect>) {
        let Some(v) = self.node_from_raw(task) else {
            return; // foreign id: drop defensively
        };
        if !self.header_written {
            // No events may precede the header; apply right after it.
            self.queue_pending(v);
            return;
        }
        self.apply_remote(v, now_us, fx);
        self.drain_pending_remote(now_us, fx);
    }

    /// Queue `v` in `pending_remote` (deduplicated O(1) via the mask)
    /// and index its readiness: count the unexecuted parents and
    /// register `v` on each one's waiter list, so executions update
    /// readiness incrementally instead of the old per-drain rescan.
    fn queue_pending(&mut self, v: NodeId) {
        if self.pending_mask.is_empty() {
            // First queued entry ever: size the index lazily so
            // non-federated machines never allocate it.
            let n = self.dag.num_nodes();
            self.pending_mask = vec![false; n];
            self.pending_missing = vec![0; n];
            self.remote_waiters = vec![Vec::new(); n];
        }
        if self.pending_mask[v.index()] {
            return;
        }
        self.pending_mask[v.index()] = true;
        self.pending_remote.push(v);
        let mut missing = 0u32;
        for &p in self.dag.parents(v) {
            if !self.state.is_executed(p) {
                missing += 1;
                self.remote_waiters[p.index()].push(v);
            }
        }
        self.pending_missing[v.index()] = missing;
        if missing == 0 {
            self.pending_ready += 1;
        }
    }

    /// `p` just executed: tell every queued remote completion waiting
    /// on it. Waiter lists cannot hold stale entries — a queued node
    /// leaves the queue only once all its parents have executed, at
    /// which point every list that named it has already been drained —
    /// so each decrement here is exact.
    fn note_executed(&mut self, p: NodeId) {
        if self.remote_waiters.is_empty() {
            return;
        }
        let waiters = std::mem::take(&mut self.remote_waiters[p.index()]);
        for v in waiters {
            if !self.pending_mask[v.index()] {
                continue;
            }
            let m = &mut self.pending_missing[v.index()];
            if *m > 0 {
                *m -= 1;
                if *m == 0 {
                    self.pending_ready += 1;
                }
            }
        }
    }

    /// Apply one remote completion if it can apply now; queue it (and
    /// return `false`) when the node's own predecessors are not all
    /// executed yet — peer links carry no cross-shard ordering, so a
    /// consumer's notification can outrun its producer's.
    fn apply_remote(&mut self, v: NodeId, now_us: u64, fx: &mut Vec<Effect>) -> bool {
        if self.state.is_executed(v) {
            return true; // duplicate (e.g. a backlog replay): ignore
        }
        let is_stub = self.stub_mask.get(v.index()).copied().unwrap_or(false);
        let is_replica = self.replica_mask.get(v.index()).copied().unwrap_or(false);
        if !is_stub && !is_replica {
            return true; // not a boundary node of this shard: drop
        }
        if !self
            .dag
            .parents(v)
            .iter()
            .all(|&p| self.state.is_executed(p))
        {
            self.queue_pending(v);
            return false;
        }
        // Bring the node out of whatever queue it occupies, keeping
        // the trace's allocation accounting replay-clean.
        if self.state.is_pooled(v) {
            // An unallocated replica: the federation claims it.
            if self.state.claim(v).is_err() {
                debug_assert!(false, "pooled node {v} must be claimable");
                return true;
            }
            self.emit(fx, EventKind::Allocated, now_us, FED_CLIENT, Some(v));
        } else if let Some(pos) = self.deferred.iter().position(|&(_, d)| d == v) {
            // A replica waiting out a backoff: already claimed; leave
            // the backoff queue and allocate to the federation.
            self.deferred.swap_remove(pos);
            self.emit(fx, EventKind::Allocated, now_us, FED_CLIENT, Some(v));
        } else if self.leases.has_holder(v) {
            // Workers hold leases: the federation takes a (winning)
            // duplicate, mirroring the speculative-lease path, so the
            // completion below resolves against *its* lease under
            // replay and the workers' leases revoke legally after it.
            self.emit(fx, EventKind::Speculated, now_us, FED_CLIENT, Some(v));
        }
        // (Otherwise: a stub, claimed by the federation at the header.)
        if self.state.execute_counting(v).is_err() {
            debug_assert!(false, "remote-done target {v} was not ELIGIBLE");
            return true;
        }
        self.note_executed(v);
        self.remote_completions += 1;
        self.emit(fx, EventKind::Completed, now_us, FED_CLIENT, Some(v));
        // First completion wins: cancel every local lease on the node.
        // The holders learn via the `Revoke` reply to their next
        // heartbeat, or their eventual `done` is rejected.
        while let Some(dup) = self.leases.remove_task_next(v) {
            self.revokes += 1;
            self.emit(fx, EventKind::Revoked, now_us, dup.worker, Some(dup.task));
        }
        if self.is_complete() && self.completed_at_us.is_none() {
            self.completed_at_us = Some(now_us);
        }
        true
    }

    /// Re-attempt queued remote completions until a pass applies none.
    /// Each pass takes the queued nodes whose parents are all executed
    /// (`pending_missing == 0`), in queue order — exactly the set the
    /// old full readiness rescan computed — and the `pending_ready`
    /// counter makes the no-op case (every drain call outside a
    /// federation) O(1).
    fn drain_pending_remote(&mut self, now_us: u64, fx: &mut Vec<Effect>) {
        while self.pending_ready > 0 {
            let ready: Vec<NodeId> = self
                .pending_remote
                .iter()
                .copied()
                .filter(|&v| self.pending_missing[v.index()] == 0)
                .collect();
            debug_assert_eq!(ready.len(), self.pending_ready);
            if ready.is_empty() {
                return; // defensive: never loop without progress
            }
            self.pending_remote
                .retain(|&v| self.pending_missing[v.index()] != 0);
            for &v in &ready {
                self.pending_mask[v.index()] = false;
            }
            self.pending_ready = 0;
            for v in ready {
                // Applying may execute nodes and mark later queue
                // entries ready (bumping `pending_ready` again), or
                // even re-queue `v` itself; the outer loop re-checks.
                self.apply_remote(v, now_us, fx);
            }
        }
    }
}

/// Answer a `hello` with a typed error frame; the driver sends it and
/// closes the connection.
fn refuse(fx: &mut Vec<Effect>, code: &str, msg: String) {
    fx.push(Effect::Registered {
        msg: Message::Error {
            code: code.into(),
            msg,
        },
        worker: usize::MAX,
        epoch: 0,
    });
}

impl std::fmt::Debug for LeaseMachine<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseMachine")
            .field("executed", &self.state.num_executed())
            .field("pool", &self.state.pool_len())
            .field("deferred", &self.deferred.len())
            .field("leases", &self.leases.len())
            .field("workers", &self.workers.len())
            .field("connected", &self.connected)
            .field("complete", &self.is_complete())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::PROTO_V2;
    use ic_audit::{audit_trace, Severity};
    use ic_dag::builder::from_arcs;
    use ic_sched::batched::batches_with;
    use ic_sched::heuristics::Policy;
    use ic_sim::trace::TraceSink;
    use ic_sim::MemorySink;

    /// Feed one event, route trace effects into the sink, and return
    /// the wire-visible replies (both `Reply` and `Registered` frames).
    fn drive(m: &mut LeaseMachine<'_, '_>, sink: &mut MemorySink, ev: Event) -> Vec<Message> {
        let mut replies = Vec::new();
        for e in m.step(ev) {
            match e {
                Effect::Header(h) => sink.header(&h),
                Effect::Trace(t) => sink.record(&t),
                Effect::Reply(msg) => replies.push(msg),
                Effect::Registered { msg, .. } => replies.push(msg),
            }
        }
        replies
    }

    fn boot(m: &mut LeaseMachine<'_, '_>, sink: &mut MemorySink) {
        for e in m.boot(0) {
            match e {
                Effect::Header(h) => sink.header(&h),
                Effect::Trace(t) => sink.record(&t),
                _ => panic!("boot only writes the header"),
            }
        }
    }

    fn request(
        m: &mut LeaseMachine<'_, '_>,
        sink: &mut MemorySink,
        worker: usize,
        max: u64,
        now_us: u64,
    ) -> Message {
        let mut replies = drive(
            m,
            sink,
            Event::Request {
                worker,
                max,
                now_us,
            },
        );
        assert_eq!(replies.len(), 1, "a request has exactly one reply");
        replies.remove(0)
    }

    fn done(
        m: &mut LeaseMachine<'_, '_>,
        sink: &mut MemorySink,
        worker: usize,
        task: u64,
        ok: bool,
        now_us: u64,
    ) -> bool {
        let mut replies = drive(
            m,
            sink,
            Event::Done {
                worker,
                task,
                ok,
                now_us,
            },
        );
        assert_eq!(replies.len(), 1);
        match replies.remove(0) {
            Message::Ack { accepted, .. } => accepted,
            other => panic!("done answers with ack, got {other:?}"),
        }
    }

    /// The machine's accounting invariant: every ELIGIBLE task is in
    /// exactly one place — the allocatable pool, the backoff queue, or
    /// out on (one or more) leases — and only pooled tasks are
    /// unclaimed.
    fn assert_accounting(m: &LeaseMachine<'_, '_>) {
        let mut eligible = m.exec().eligible_nodes();
        eligible.sort_unstable_by_key(|v| v.index());
        let mut tracked: Vec<NodeId> = m.exec().pool().to_vec();
        tracked.extend(m.deferred_tasks());
        let mut leased: Vec<NodeId> = m.lease_views().iter().map(|l| l.task).collect();
        leased.sort_unstable_by_key(|v| v.index());
        leased.dedup();
        tracked.extend(leased);
        tracked.sort_unstable_by_key(|v| v.index());
        assert_eq!(
            tracked, eligible,
            "pool ∪ deferred ∪ leased must equal the ELIGIBLE set"
        );
        for v in m.deferred_tasks() {
            assert!(!m.exec().is_pooled(v), "deferred task {v} stays claimed");
        }
        for l in m.lease_views() {
            assert!(
                !m.exec().is_pooled(l.task),
                "leased task {} stays claimed",
                l.task
            );
        }
        assert_eq!(
            m.recorded_pool(),
            m.exec().pool_len() + m.deferred_tasks().len()
        );
    }

    fn audit_errors(sink: MemorySink) -> Vec<ic_audit::Diagnostic> {
        let trace = sink.into_trace().expect("header written");
        audit_trace(&trace)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    /// Regression test for the failure-reallocation lifecycle, now on
    /// the machine's virtual clock (no sleeps): a task that is leased,
    /// forfeited, parked in backoff, and re-leased must keep the pool
    /// and backoff accounting consistent at every step, and the
    /// finished trace must replay clean.
    #[test]
    fn failure_reallocation_keeps_pool_accounting_consistent() {
        let g = from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder()
            .lease_ms(10_000)
            .backoff_base_ms(15)
            .build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        boot(&mut m, &mut sink);
        assert_accounting(&m);

        // Lease the lone source, then have the worker report failure:
        // the task parks in the backoff queue, still claimed.
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("the source must be allocatable");
        };
        assert_eq!(tasks, vec![0]);
        assert_accounting(&m);
        assert!(done(&mut m, &mut sink, 0, 0, false, 0));
        assert_eq!((m.deferred_tasks().len(), m.lease_views().len()), (1, 0));
        assert_eq!(
            m.recorded_pool(),
            1,
            "a backing-off task still counts in the recorded pool"
        );
        assert_accounting(&m);

        // While the 15 ms backoff runs, the pool is empty: requests
        // wait.
        assert!(matches!(
            request(&mut m, &mut sink, 0, 1, 10_000),
            Message::Wait { .. }
        ));
        assert_accounting(&m);

        // After the backoff elapses the task is re-leased...
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 20_000) else {
            panic!("the backoff elapsed; the task must be reallocatable");
        };
        assert_eq!(tasks, vec![0]);
        assert_eq!(m.failure_count(NodeId(0)), 1);
        assert_accounting(&m);

        // ...and a request from a worker still holding a lease
        // forfeits it back into the backoff queue (now 30 ms) instead
        // of leaking it.
        assert!(matches!(
            request(&mut m, &mut sink, 0, 1, 20_000),
            Message::Wait { .. }
        ));
        assert_eq!((m.deferred_tasks().len(), m.lease_views().len()), (1, 0));
        assert_eq!(m.failure_count(NodeId(0)), 2);
        assert_accounting(&m);

        // Jump past the doubled backoff and drive the dag to
        // completion, checking the invariant around every decision.
        let mut now = 60_000;
        let mut guard = 0;
        while !m.is_complete() {
            match request(&mut m, &mut sink, 0, 1, now) {
                Message::Assign { tasks } => {
                    assert_accounting(&m);
                    assert!(done(&mut m, &mut sink, 0, tasks[0], true, now));
                }
                Message::Wait { .. } => now += 5_000,
                other => panic!("unexpected reply mid-run: {other:?}"),
            }
            assert_accounting(&m);
            guard += 1;
            assert!(guard < 1_000, "run failed to converge");
        }
        assert!(matches!(
            request(&mut m, &mut sink, 0, 1, now),
            Message::Drain
        ));

        let report = m.summary(now);
        assert_eq!(report.completions, 4);
        assert_eq!(report.failures, 2);
        assert_eq!(report.allocations, 6);

        let errors = audit_errors(sink);
        assert!(errors.is_empty(), "trace must replay clean: {errors:?}");
    }

    /// A mid-lease disconnect keeps the lease until it expires; the
    /// expiry then reallocates the held task through the same
    /// claimed-while-deferred path as a failure report.
    #[test]
    fn disconnect_reallocation_keeps_pool_accounting_consistent() {
        let g = from_arcs(3, &[(0, 1), (0, 2)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder()
            .lease_ms(10_000)
            .backoff_base_ms(0)
            .build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "a");

        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("the source must be allocatable");
        };
        assert_accounting(&m);
        drive(
            &mut m,
            &mut sink,
            Event::Sever {
                worker: 0,
                epoch: 0,
                now_us: 0,
            },
        );
        assert_eq!((m.deferred_tasks().len(), m.lease_views().len()), (0, 1));
        assert_eq!(m.connected(), 0);
        assert_accounting(&m);
        let now = 10_000_000;
        drive(
            &mut m,
            &mut sink,
            Event::Expire {
                worker: 0,
                task: tasks[0],
                now_us: now,
            },
        );
        assert_eq!((m.deferred_tasks().len(), m.lease_views().len()), (1, 0));
        assert_accounting(&m);

        // Zero backoff: another worker picks the task right back up.
        let Message::Assign { tasks: retry } = request(&mut m, &mut sink, 1, 1, now) else {
            panic!("the lost task must be immediately reallocatable");
        };
        assert_eq!(retry, tasks);
        assert_accounting(&m);
        assert!(done(&mut m, &mut sink, 1, retry[0], true, now));
        assert_eq!(m.exec().pool_len(), 2, "both children became ELIGIBLE");
        assert_accounting(&m);
    }

    /// The resume lifecycle on the machine: a worker that
    /// disconnects mid-lease keeps the lease, reclaims its slot with
    /// the token (rotated, so the old token dies), and the dead
    /// connection's stale `Sever` cannot disturb the resumed slot.
    #[test]
    fn resume_restores_leases_and_rotates_the_token() {
        let g = from_arcs(2, &[(0, 1)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder().lease_ms(10_000).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        boot(&mut m, &mut sink);

        let mut replies = drive(
            &mut m,
            &mut sink,
            Event::Hello {
                id: "a".into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: None,
                now_us: 0,
            },
        );
        let Message::Welcome {
            resume: Some(token),
            proto,
            ..
        } = replies.remove(0)
        else {
            panic!("a hello must be welcomed with a resume token");
        };
        assert_eq!(proto, PROTO_V2);
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("the source must be allocatable");
        };

        // The connection dies mid-lease: the slot keeps the lease.
        drive(
            &mut m,
            &mut sink,
            Event::Sever {
                worker: 0,
                epoch: 0,
                now_us: 0,
            },
        );
        assert_eq!(m.connected(), 0);
        assert_eq!(m.lease_views().len(), 1);
        assert_eq!(m.summary(0).failures, 0, "no spurious reallocation");
        assert_accounting(&m);

        // Resume with the token: same slot, rotated token, lease back.
        let mut replies = drive(
            &mut m,
            &mut sink,
            Event::Hello {
                id: "a".into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: Some(token.clone()),
                now_us: 0,
            },
        );
        let Message::Welcome {
            worker,
            resume: Some(rotated),
            tasks: held,
            ..
        } = replies.remove(0)
        else {
            panic!("a valid resume token must be accepted");
        };
        assert_eq!(worker, 0);
        assert_ne!(rotated, token, "the token must rotate on resume");
        assert_eq!(held, tasks);
        assert_eq!((m.summary(0).resumes, m.connected()), (1, 1));
        assert_eq!(m.worker_epoch(0), Some(1));

        // The spent token is dead; the old connection's Sever is stale.
        let mut replies = drive(
            &mut m,
            &mut sink,
            Event::Hello {
                id: "a".into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: Some(token),
                now_us: 0,
            },
        );
        assert!(
            matches!(replies.remove(0), Message::Error { ref code, .. } if code == ERR_BAD_RESUME),
            "a spent token must be refused"
        );
        drive(
            &mut m,
            &mut sink,
            Event::Sever {
                worker: 0,
                epoch: 0,
                now_us: 0,
            },
        );
        assert_eq!(m.connected(), 1, "a stale-epoch Sever is ignored");
        assert_eq!(m.lease_views().len(), 1);

        // Finish under the resumed lease; the trace replays clean.
        assert!(done(&mut m, &mut sink, 0, held[0], true, 0));
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("the child must be allocatable");
        };
        assert!(done(&mut m, &mut sink, 0, tasks[0], true, 0));
        assert!(m.is_complete());
        let report = m.summary(0);
        assert_eq!((report.resumes, report.failures), (1, 0));
        let errors = audit_errors(sink);
        assert!(errors.is_empty(), "trace must replay clean: {errors:?}");
    }

    /// The drain-barrier steal lifecycle: an idle worker gets a
    /// speculative duplicate of the straggling lease, the first
    /// completion wins, the loser is revoked without a pool change,
    /// and the loser's late report is rejected without a trace event.
    #[test]
    fn speculative_duplicate_first_completion_wins() {
        let g = from_arcs(2, &[(0, 1)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder()
            .lease_ms(10_000)
            .backoff_base_ms(0)
            .steal_after(0)
            .build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        boot(&mut m, &mut sink);
        for id in ["a", "b"] {
            hello(&mut m, &mut sink, id);
        }

        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("the source must be allocatable");
        };
        assert_eq!(tasks, vec![0]);

        // Pool empty, a lease outstanding: worker 1 steals a duplicate.
        let Message::Assign { tasks: stolen } = request(&mut m, &mut sink, 1, 1, 0) else {
            panic!("the drain barrier must yield a speculative lease");
        };
        assert_eq!(stolen, vec![0]);
        assert_eq!(m.lease_views().len(), 2);
        assert_eq!(m.summary(0).steals, 1);
        assert_accounting(&m);

        let steps_before = m.trace_steps();
        // Worker 1 finishes first: it wins, worker 0's lease is
        // revoked, the child enters the pool exactly once.
        assert!(done(&mut m, &mut sink, 1, 0, true, 0));
        assert_eq!((m.summary(0).revokes, m.lease_views().len()), (1, 0));
        assert_eq!(m.exec().pool_len(), 1);
        assert_accounting(&m);
        assert_eq!(m.trace_steps(), steps_before + 2, "completed + revoked");

        // The loser's late report finds no lease: rejected, no event.
        assert!(!done(&mut m, &mut sink, 0, 0, true, 0));
        assert_eq!(
            m.trace_steps(),
            steps_before + 2,
            "a late report emits nothing"
        );

        // The loser learns via its next heartbeat: a Revoke frame.
        let replies = drive(
            &mut m,
            &mut sink,
            Event::Heartbeat {
                worker: 0,
                task: 0,
                now_us: 0,
            },
        );
        assert_eq!(replies, vec![Message::Revoke { task: 0 }]);

        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("the child must be allocatable");
        };
        assert!(done(&mut m, &mut sink, 0, tasks[0], true, 0));
        assert!(m.is_complete());
        let report = m.summary(0);
        assert_eq!((report.steals, report.revokes, report.failures), (1, 1, 0));
        let errors = audit_errors(sink);
        assert!(errors.is_empty(), "trace must replay clean: {errors:?}");
    }

    /// Batched allocation follows the offline batch schedule: a lone
    /// worker requesting `max` tasks per round executes exactly the
    /// rounds `ic_sched::batched::batches_with` computes, and the
    /// per-task trace still replays clean.
    #[test]
    fn batched_allocation_matches_the_offline_batch_schedule() {
        let g = from_arcs(7, &[(0, 2), (1, 2), (1, 3), (2, 4), (2, 5), (3, 6)]).unwrap();
        let policy = Policy::Fifo;
        let offline: Vec<Vec<u64>> = batches_with(&g, 3, &policy)
            .batches()
            .iter()
            .map(|round| round.iter().map(|v| v.index() as u64).collect())
            .collect();

        let cfg = ServerConfig::builder().lease_ms(10_000).batch(3).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "a");

        let mut online: Vec<Vec<u64>> = Vec::new();
        while !m.is_complete() {
            let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 3, 0) else {
                panic!("a lone worker never waits on a failure-free dag");
            };
            assert_accounting(&m);
            for &t in &tasks {
                assert!(done(&mut m, &mut sink, 0, t, true, 0));
            }
            online.push(tasks);
        }
        assert_eq!(online, offline);

        let errors = audit_errors(sink);
        assert!(errors.is_empty(), "trace must replay clean: {errors:?}");
    }

    /// The version is checked once, at the door: a hello offering
    /// less than protocol 2 (a wire hello with `proto` absent decodes
    /// as 1) is refused with the typed `unsupported` error and leaves
    /// no mark — no slot, no header, no trace event — and the next
    /// current-protocol worker is served as if it never happened.
    #[test]
    fn a_hello_below_protocol_2_is_refused_and_leaves_no_mark() {
        let g = from_arcs(3, &[]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder().expect_workers(1).batch(4).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        boot(&mut m, &mut sink);
        for proto in [0, 1] {
            let fx = m.step(Event::Hello {
                id: "old".into(),
                speed: 1.0,
                proto,
                resume: None,
                now_us: 0,
            });
            let [Effect::Registered {
                msg: Message::Error { code, .. },
                worker: usize::MAX,
                ..
            }] = fx.as_slice()
            else {
                panic!("proto {proto}: one typed refusal and nothing else, got {fx:?}");
            };
            assert_eq!(code, ERR_UNSUPPORTED);
        }
        assert_eq!((m.num_workers(), m.connected()), (0, 0));
        assert_eq!(m.trace_steps(), 0);

        // The barrier of one is still unmet: the current hello writes
        // the header, and its batched request is served.
        hello(&mut m, &mut sink, "new");
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 4, 0) else {
            panic!("sources are allocatable");
        };
        assert_eq!(tasks.len(), 3);
        let trace = sink
            .into_trace()
            .expect("the current hello met the barrier");
        assert_eq!(trace.header.workers.len(), 1);
    }

    /// Targeted expiry: an `Expire` whose deadline has not passed is a
    /// no-op; one whose deadline has passed forfeits exactly that
    /// lease. The driver's `expired()` scan and the event agree.
    #[test]
    fn targeted_expiry_honors_the_deadline() {
        let g = from_arcs(2, &[(0, 1)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder()
            .lease_ms(10) // 10 ms = 10_000 µs
            .backoff_base_ms(0)
            .build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        boot(&mut m, &mut sink);
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("the source must be allocatable");
        };

        // Too early: nothing is expired, the event is a no-op.
        assert!(m.expired(5_000).is_empty());
        drive(
            &mut m,
            &mut sink,
            Event::Expire {
                worker: 0,
                task: tasks[0],
                now_us: 5_000,
            },
        );
        assert_eq!(m.lease_views().len(), 1);

        // A heartbeat at 5 ms pushes the deadline to 15 ms.
        drive(
            &mut m,
            &mut sink,
            Event::Heartbeat {
                worker: 0,
                task: tasks[0],
                now_us: 5_000,
            },
        );
        assert!(
            m.expired(12_000).is_empty(),
            "the heartbeat renewed the lease"
        );

        // Past the renewed deadline the lease is forfeited.
        let due = m.expired(15_000);
        assert_eq!(due, vec![(0, tasks[0])]);
        drive(
            &mut m,
            &mut sink,
            Event::Expire {
                worker: 0,
                task: tasks[0],
                now_us: 15_000,
            },
        );
        assert_eq!(m.lease_views().len(), 0);
        assert_eq!(m.failure_count(NodeId(0)), 1);
        assert_accounting(&m);
    }

    /// The fingerprint is insensitive to trace-step counters and
    /// timing, but sensitive to scheduling state.
    #[test]
    fn fingerprint_tracks_scheduling_state_only() {
        let g = from_arcs(3, &[(0, 1), (0, 2)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder().lease_ms(10_000).build();
        let mut sink = MemorySink::new();

        let mut a = LeaseMachine::new(&g, &policy, cfg.clone());
        boot(&mut a, &mut sink);
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Same decision at different times: same fingerprint.
        let Message::Assign { .. } = request(&mut a, &mut sink, 0, 1, 0) else {
            panic!("allocatable");
        };
        let Message::Assign { .. } = request(&mut b, &mut sink, 0, 1, 99_000) else {
            panic!("allocatable");
        };
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Diverging decisions: different fingerprints.
        assert!(done(&mut a, &mut sink, 0, 0, true, 0));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    // ------------------------------------------------------------------
    // Federation (stub / replica) semantics.
    // ------------------------------------------------------------------

    fn fed_meta(nodes: usize, stubs: &[u32], replicas: &[u32]) -> FedMeta {
        FedMeta {
            shard: 1,
            shards: 2,
            global_nodes: nodes + 3,
            to_global: (0..nodes as u64).map(|i| i + 3).collect(),
            stubs: stubs.to_vec(),
            replicas: replicas.to_vec(),
        }
    }

    fn hello(m: &mut LeaseMachine<'_, '_>, sink: &mut MemorySink, id: &str) {
        let replies = drive(
            m,
            sink,
            Event::Hello {
                id: id.into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: None,
                now_us: 0,
            },
        );
        assert!(matches!(replies[0], Message::Welcome { .. }));
    }

    /// A stub is claimed by the federation at the header, gates its
    /// children until `remote-done` arrives, executes exactly once
    /// (duplicates ignored), and the shard trace replays audit-clean.
    #[test]
    fn stub_gates_children_until_remote_done() {
        // Local sub-dag: stub 0 -> task 1 -> task 2.
        let g = from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder().lease_ms(10_000).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        m.set_fed(fed_meta(3, &[0], &[]));
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "w0");

        // The stub holds the frontier closed: nothing allocatable.
        assert!(matches!(
            request(&mut m, &mut sink, 0, 1, 10),
            Message::Wait { .. }
        ));

        // The owning shard completes the stub's global task.
        let fx = m.step(Event::RemoteDone {
            task: 0,
            now_us: 20,
        });
        for e in &fx {
            if let Effect::Trace(t) = e {
                sink.record(t);
            }
        }
        assert_eq!(m.remote_completions(), 1);
        assert_accounting(&m);

        // A duplicate (backlog replay) changes nothing.
        assert!(m
            .step(Event::RemoteDone {
                task: 0,
                now_us: 21
            })
            .is_empty());
        assert_eq!(m.remote_completions(), 1);

        // Now the child chain allocates and completes normally.
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 30) else {
            panic!("task 1 must be allocatable after the remote-done");
        };
        assert_eq!(tasks, vec![1]);
        assert!(done(&mut m, &mut sink, 0, 1, true, 40));
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 50) else {
            panic!("task 2 must follow");
        };
        assert_eq!(tasks, vec![2]);
        assert!(done(&mut m, &mut sink, 0, 2, true, 60));
        assert!(m.is_complete());
        assert_eq!(audit_errors(sink), vec![]);
    }

    /// A leased replica loses the race: the peer's `remote-done`
    /// completes it for the federation, the worker's lease is revoked
    /// (its late report rejected, its heartbeat answered `revoke`),
    /// and the trace replays audit-clean.
    #[test]
    fn remote_done_wins_the_replica_race_and_revokes_the_lease() {
        // Local sub-dag: replica 0 -> task 1.
        let g = from_arcs(2, &[(0, 1)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder().lease_ms(10_000).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        m.set_fed(fed_meta(2, &[], &[0]));
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "w0");

        // The replica is allocatable locally and gets leased.
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 10) else {
            panic!("replica must be allocatable");
        };
        assert_eq!(tasks, vec![0]);

        // The owning shard finishes first.
        let fx = m.step(Event::RemoteDone {
            task: 0,
            now_us: 20,
        });
        for e in &fx {
            if let Effect::Trace(t) = e {
                sink.record(t);
            }
        }
        assert_eq!(m.remote_completions(), 1);
        assert_accounting(&m);

        // The worker's report is now late and rejected; its heartbeat
        // learns the lease is gone via `revoke`.
        assert!(!done(&mut m, &mut sink, 0, 0, true, 30));
        let replies = drive(
            &mut m,
            &mut sink,
            Event::Heartbeat {
                worker: 0,
                task: 0,
                now_us: 35,
            },
        );
        assert_eq!(replies, vec![Message::Revoke { task: 0 }]);

        // The child still flows through the worker.
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 40) else {
            panic!("child must be allocatable");
        };
        assert_eq!(tasks, vec![1]);
        assert!(done(&mut m, &mut sink, 0, 1, true, 50));
        assert!(m.is_complete());
        assert_eq!(audit_errors(sink), vec![]);
    }

    /// A locally-completed replica wins: the later `remote-done` is a
    /// no-op duplicate.
    #[test]
    fn local_replica_completion_wins_and_remote_done_is_ignored() {
        let g = from_arcs(2, &[(0, 1)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder().lease_ms(10_000).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        m.set_fed(fed_meta(2, &[], &[0]));
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "w0");

        let Message::Assign { .. } = request(&mut m, &mut sink, 0, 1, 10) else {
            panic!("replica must be allocatable");
        };
        assert!(done(&mut m, &mut sink, 0, 0, true, 20));
        assert!(m
            .step(Event::RemoteDone {
                task: 0,
                now_us: 30
            })
            .is_empty());
        assert_eq!(m.remote_completions(), 0);
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 35) else {
            panic!("child must be allocatable");
        };
        assert_eq!(tasks, vec![1]);
        assert!(done(&mut m, &mut sink, 0, 1, true, 40));
        assert!(m.is_complete());
        assert_eq!(audit_errors(sink), vec![]);
    }

    /// Peer links carry no cross-shard ordering: a replica's
    /// notification arriving before its own stub predecessor's is
    /// queued and applied once the stub lands.
    #[test]
    fn reordered_remote_dones_queue_until_predecessors_land() {
        // Local sub-dag: stub 0 -> replica 1 -> task 2.
        let g = from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder().lease_ms(10_000).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        m.set_fed(fed_meta(3, &[0], &[1]));
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "w0");

        // The replica's notification outruns the stub's: queued.
        assert!(m
            .step(Event::RemoteDone {
                task: 1,
                now_us: 10
            })
            .is_empty());
        assert_eq!(m.pending_remote(), 1);
        assert_eq!(m.remote_completions(), 0);

        // The stub's notification lands: both apply, in order.
        let fx = m.step(Event::RemoteDone {
            task: 0,
            now_us: 20,
        });
        for e in &fx {
            if let Effect::Trace(t) = e {
                sink.record(t);
            }
        }
        assert_eq!(m.pending_remote(), 0);
        assert_eq!(m.remote_completions(), 2);
        assert_accounting(&m);

        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 30) else {
            panic!("task 2 must be allocatable");
        };
        assert_eq!(tasks, vec![2]);
        assert!(done(&mut m, &mut sink, 0, 2, true, 40));
        assert!(m.is_complete());
        assert_eq!(audit_errors(sink), vec![]);
    }

    /// A `remote-done` racing ahead of the header (registration
    /// barrier still open) is queued — no event may precede the header
    /// — and applied right after the header goes out.
    #[test]
    fn remote_done_before_the_header_waits_for_it() {
        let g = from_arcs(2, &[(0, 1)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder()
            .lease_ms(10_000)
            .expect_workers(1)
            .build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        m.set_fed(fed_meta(2, &[0], &[]));
        boot(&mut m, &mut sink);

        // Barrier not met: the notification must produce no effects.
        assert!(m.step(Event::RemoteDone { task: 0, now_us: 5 }).is_empty());
        assert_eq!(m.remote_completions(), 0);

        // The registering hello writes the header, claims the stub,
        // and applies the queued completion.
        hello(&mut m, &mut sink, "w0");
        assert_eq!(m.remote_completions(), 1);
        assert_accounting(&m);

        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 10) else {
            panic!("child must be allocatable");
        };
        assert_eq!(tasks, vec![1]);
        assert!(done(&mut m, &mut sink, 0, 1, true, 20));
        assert!(m.is_complete());
        assert_eq!(audit_errors(sink), vec![]);
    }

    /// Crash a run after one completion and one outstanding lease,
    /// then [`LeaseMachine::restore`] from the recorded prefix: the
    /// rebuilt machine carries the same executed set, the same lease,
    /// the same pool, a continued trace cursor, and dominating epochs
    /// — and the resume window hands the lease back to a worker whose
    /// id matches, even though its token is from before the crash.
    #[test]
    fn restore_rebuilds_the_machine_and_resumes_a_matching_worker() {
        let g = from_arcs(3, &[]).unwrap();
        let policy = Policy::Fifo;
        let cfg = || {
            ServerConfig::builder()
                .lease_ms(10_000)
                .expect_workers(1)
                .seed(7)
                .build()
        };
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg());
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "phoenix");
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("first assignment");
        };
        assert!(done(&mut m, &mut sink, 0, tasks[0], true, 0));
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("second assignment");
        };
        let held = tasks[0];

        // "Kill" the server: all that survives is the trace so far.
        let trace = sink.into_trace().expect("barrier met, header written");
        assert_eq!(trace.events.len(), 3, "alloc, complete, alloc");

        let mut r =
            LeaseMachine::restore(&g, &policy, cfg(), &trace.header, &trace.events, 0).unwrap();
        assert_eq!(r.exec().num_executed(), 1, "the completion survives");
        assert_eq!(r.exec().pool_len(), 1, "the never-allocated task");
        let leases = r.lease_views();
        assert_eq!(leases.len(), 1, "the outstanding lease is re-armed");
        assert_eq!(leases[0].worker, 0);
        assert_eq!(leases[0].task.index() as u64, held);
        assert!(!leases[0].speculative);
        assert_accounting(&r);
        assert_eq!(r.worker_id(0), Some("phoenix"), "declared id from header");
        assert_eq!(r.awaiting_resume(), 1);
        assert_eq!(
            r.trace_steps(),
            m.trace_steps(),
            "appended events continue the crashed run's step sequence"
        );
        assert!(
            r.worker_epoch(0) > m.worker_epoch(0),
            "rebuilt epochs dominate everything the crashed machine issued"
        );

        // Within the resume window, a matching id reclaims the slot —
        // the pre-crash token is unknown to the new machine, so only
        // the id (from the header) can match.
        r.await_resumes(1_000_000);
        let mut sink2 = MemorySink::new();
        let replies = drive(
            &mut r,
            &mut sink2,
            Event::Hello {
                id: "phoenix".into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: Some("stale-pre-crash-token".into()),
                now_us: 10,
            },
        );
        let Message::Welcome { tasks, .. } = &replies[0] else {
            panic!("expected the resume welcome, got {replies:?}");
        };
        assert_eq!(tasks, &vec![held], "the lease is handed straight back");
        assert_eq!(r.awaiting_resume(), 0);
        assert_eq!(r.summary(10).resumes, 1);

        // The resumed worker finishes the dag on the restored machine.
        assert!(done(&mut r, &mut sink2, 0, held, true, 20));
        let Message::Assign { tasks } = request(&mut r, &mut sink2, 0, 1, 30) else {
            panic!("the pooled task must be allocatable");
        };
        assert!(done(&mut r, &mut sink2, 0, tasks[0], true, 40));
        assert!(r.is_complete());
    }

    /// After the resume window closes, an unknown token no longer
    /// matches by id: the hello registers a fresh slot and the
    /// crash-surviving lease is left to expire and reallocate.
    #[test]
    fn a_late_resume_after_the_window_registers_fresh() {
        let g = from_arcs(2, &[]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder()
            .lease_ms(100)
            .expect_workers(1)
            .build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg.clone());
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "tardy");
        let Message::Assign { .. } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("assignment");
        };
        let trace = sink.into_trace().unwrap();

        let mut r =
            LeaseMachine::restore(&g, &policy, cfg, &trace.header, &trace.events, 0).unwrap();
        r.await_resumes(500); // window closes at t=500µs
        let mut sink2 = MemorySink::new();
        let replies = drive(
            &mut r,
            &mut sink2,
            Event::Hello {
                id: "tardy".into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: Some("stale".into()),
                now_us: 1_000,
            },
        );
        match &replies[0] {
            Message::Error { code, .. } => {
                assert_eq!(*code, crate::wire::ERR_BAD_RESUME, "typed refusal")
            }
            other => panic!("a late stale token must be refused, got {other:?}"),
        }
        // The slot's lease is still there, on the expiry clock.
        assert_eq!(r.lease_views().len(), 1);
        assert_eq!(r.expired(200_000).len(), 1, "expiry reallocates it");
    }

    /// The restore refusals, each with its stable IC07xx code: a
    /// duplicated completion (the trace is not one legal run), custody
    /// corruption (completion without a lease), and a header that
    /// disagrees with the launch configuration.
    #[test]
    fn restore_refuses_duplicate_corrupt_and_mismatched_prefixes() {
        let g = from_arcs(2, &[]).unwrap();
        let policy = Policy::Fifo;
        let cfg = || ServerConfig::builder().expect_workers(1).seed(3).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg());
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "w0");
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("assignment");
        };
        assert!(done(&mut m, &mut sink, 0, tasks[0], true, 0));
        let trace = sink.into_trace().unwrap();
        assert_eq!(trace.events.len(), 2, "alloc, complete");

        // Duplicate completion: replay the `Completed` event twice.
        let mut doubled = trace.events.clone();
        doubled.push(trace.events[1]);
        let err = LeaseMachine::restore(&g, &policy, cfg(), &trace.header, &doubled, 0)
            .expect_err("a task cannot complete twice");
        assert!(matches!(err, RestoreError::DuplicateCompletion { .. }));
        assert_eq!(err.code(), "IC0701");

        // Custody corruption: a completion whose lease never existed.
        let headless = vec![trace.events[1]];
        let err = LeaseMachine::restore(&g, &policy, cfg(), &trace.header, &headless, 0)
            .expect_err("completion without a lease");
        assert!(matches!(err, RestoreError::Corrupt { .. }));
        assert_eq!(err.code(), "IC0704");

        // Header mismatch: same trace, different launch seed.
        let other = ServerConfig::builder().expect_workers(1).seed(99).build();
        let err = LeaseMachine::restore(&g, &policy, other, &trace.header, &trace.events, 0)
            .expect_err("seed disagreement");
        assert!(matches!(err, RestoreError::HeaderMismatch { .. }));
        assert_eq!(err.code(), "IC0703");

        // Dag mismatch: one node too many.
        let bigger = from_arcs(3, &[]).unwrap();
        let err = LeaseMachine::restore(&bigger, &policy, cfg(), &trace.header, &trace.events, 0)
            .expect_err("node-count disagreement");
        assert_eq!(err.code(), "IC0703");
    }
}
