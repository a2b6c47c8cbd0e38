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
//!   `ic-prio audit`), [`Effect::Reply`] for the connection that
//!   raised the event (a `hello` included), and [`Effect::Header`]
//!   exactly once when the registration barrier is met.
//!
//! The protocol semantics — leases, exponential-backoff reallocation,
//! resume tokens, epoch-guarded `Gone`, speculative straggler
//! re-lease, duplicate-result resolution — are documented on
//! [`crate::server`] and unchanged here; this module only separates
//! *deciding* from *doing*. Because the machine is `Clone` and its
//! [`LeaseMachine::fingerprint`] hashes exactly the
//! scheduling-relevant state, `ic-check` can DFS-enumerate event
//! interleavings over it directly.
//!
//! This file is the live protocol — [`LeaseMachine::step`] and what it
//! calls. The rest of the `impl` sits in three private submodules:
//! `restore` ([`Restorer`], [`RestoreError`]), `remote` (the
//! federation: [`LeaseMachine::set_fed`] and the [`Event::RemoteDone`]
//! path) and `view` (everything read-only).

use std::collections::HashMap;

use ic_dag::rng::XorShift64;
use ic_dag::{Dag, NodeId};
use ic_sched::batched::fill_round;
use ic_sched::eligibility::ExecState;
use ic_sched::policy::AllocationPolicy;
pub use ic_sim::trace::FED_CLIENT;
use ic_sim::trace::{EventKind, TraceEvent, TraceHeader, WorkerParams};

pub use crate::lease_table::{Lease, LeaseTable, Leases};
use crate::registry::Registry;
use crate::server::ServerConfig;
use crate::wire::{Message, ERR_BAD_RESUME, ERR_UNSUPPORTED, PROTO_CURRENT};

mod remote;
mod restore;
mod view;

use remote::Remote;
pub(crate) use restore::micros;
pub use restore::{RestoreError, Restorer};

/// One input to the machine. Times are microseconds on the driver's
/// clock; the machine never reads a clock of its own.
///
/// The wire surface maps onto events as follows: `hello` (fresh or
/// with a resume token) is [`Event::Hello`]; `request` is
/// [`Event::Request`] (a `Drain` reply is the machine saying the dag
/// is complete — drain is an *output*, not an input); `done` is
/// [`Event::Done`]; `heartbeat` is [`Event::Heartbeat`]; a dropped
/// connection is [`Event::Sever`]. Lease expiry and the steal timer
/// are not messages at all. The server core arms one deadline per
/// grant and steps [`Event::Expire`] for its tasks when it fires
/// ([`crate::Deadline`]); [`LeaseMachine::expired`] is the scan that
/// the bare-machine drivers (the `machine` bench, the differential
/// oracle) use instead. The steal timer is evaluated inside
/// [`Event::Request`] against the event's own `now_us`.
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
    /// maps to *local* node `task`, a stub (remote predecessor).
    /// Idempotent: duplicates (backlog replays after a link sever) are
    /// ignored, and a notification that arrives before the trace
    /// header is queued and applied right after it. Requires
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
    /// Send this frame to the connection that raised the event. A
    /// [`Event::Hello`] is answered with a `welcome` naming the slot
    /// (its epoch is [`LeaseMachine::worker_epoch`]) or with a typed
    /// `error`, after which the driver closes the connection.
    Reply(Message),
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
    /// replayed trace ([`Restorer`]), so a recovered slot
    /// restarts at epoch 0 — at or below epochs that provably existed
    /// before the crash. Caught as IC0702 (epoch regression on
    /// recovery).
    pub skip_recovery_epoch_bump: bool,
}

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

/// The pure lease-protocol coordinator: all scheduling state, no side
/// effects. See the [module docs](self) for the contract.
///
/// `L` is where live leases are kept. Every driver runs the default,
/// the indexed [`LeaseTable`]; `ic-check`'s differential oracle runs
/// this same machine over a linear-scan table as well
/// ([`LeaseMachine::with_table`]).
#[derive(Clone)]
pub struct LeaseMachine<'a, 'd, L = LeaseTable> {
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
    /// The lease table. By default a slab with worker, task, and
    /// table-order indices, so the hot per-event lookups are O(1) (see
    /// [`crate::lease_table`] for the layout and why its order matches
    /// the linear-scan `ScanTable` in `ic-check`).
    leases: L,
    /// Resume-token → worker slot, kept in lockstep with each slot's
    /// current token (rotated on every resume).
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
    /// The run's registry: the machine counts its decisions here, and
    /// the core and reactor around it their frames, rounds and phases.
    pub(crate) reg: Registry,
    completed_at_us: Option<u64>,
    /// End of the post-restore resume window: until this driver time,
    /// a resume `hello` whose token misses the index may still reclaim
    /// an [`WorkerSlot::awaiting_recovery`] slot by worker id. Zero on
    /// machines that were never restored.
    recovery_resume_until_us: u64,
    /// Resume-token source, seeded from the config (keeps the machine
    /// deterministic given its inputs); see [`token_rng`].
    rng: XorShift64,
    bugs: SeededBugs,
    /// The federation's side; all empty on a standalone machine.
    remote: Remote,
}

/// The resume-token source of a machine whose trace already holds
/// `prior` events: 0 for a fresh machine, the replayed prefix + 1 for a
/// restored one. Tokens never reach the trace, so a restored machine
/// seeded like the crashed one would re-issue its tokens, and a worker
/// presenting its own would land on whichever slot got it this time.
fn token_rng(seed: u64, prior: u64) -> XorShift64 {
    XorShift64::new(seed ^ 0x7EA5_E0CE ^ prior.rotate_left(32))
}

/// Microseconds since the clock origin as trace seconds.
fn secs(us: u64) -> f64 {
    us as f64 * 1e-6
}

impl<'a, 'd> LeaseMachine<'a, 'd> {
    /// Build a machine over `dag` allocating through `policy`.
    ///
    /// # Panics
    /// Panics if the policy rejects the dag in
    /// [`AllocationPolicy::prepare`].
    pub fn new(dag: &'d Dag, policy: &'a dyn AllocationPolicy, cfg: ServerConfig) -> Self {
        let mut m = Self::with_table(dag, policy, cfg, LeaseTable::new(dag.num_nodes()));
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
            m.state.enable_rank_index(ranks);
        }
        m
    }
}

impl<'a, 'd, L: Leases> LeaseMachine<'a, 'd, L> {
    /// [`LeaseMachine::new`] over the (empty) lease table `leases`, and
    /// with the pool left unindexed: every allocation goes through the
    /// policy's own `choose` scan. The differential oracle's reference
    /// side, so that the rank index is one of the things it checks.
    #[doc(hidden)]
    pub fn with_table(
        dag: &'d Dag,
        policy: &'a dyn AllocationPolicy,
        cfg: ServerConfig,
        leases: L,
    ) -> Self {
        policy.prepare(dag);
        let failures = vec![0; dag.num_nodes()];
        let rng = token_rng(cfg.seed, 0);
        LeaseMachine {
            dag,
            policy,
            cfg,
            state: ExecState::new(dag),
            deferred: Vec::new(),
            leases,
            token_index: HashMap::new(),
            failures,
            workers: Vec::new(),
            connected: 0,
            late_workers: 0,
            header_written: false,
            origin_us: 0,
            step: 0,
            reg: Registry::default(),
            completed_at_us: None,
            recovery_resume_until_us: 0,
            rng,
            bugs: SeededBugs::default(),
            remote: Remote::default(),
        }
    }

    /// The local [`NodeId`] for a raw wire task id, if it names a node
    /// of this dag. Node ids are dense (`0..num_nodes`), so this is a
    /// bounds check.
    fn node_from_raw(&self, task: u64) -> Option<NodeId> {
        u32::try_from(task)
            .ok()
            .map(NodeId)
            .filter(|v| v.index() < self.dag.num_nodes())
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

    /// Apply one event, returning the effects in the order the driver
    /// must perform them: [`LeaseMachine::step_into`] a fresh list.
    pub fn step(&mut self, ev: Event) -> Vec<Effect> {
        let mut fx = Vec::new();
        self.step_into(ev, &mut fx);
        fx
    }

    /// Apply one event, appending its effects to `fx` in the order the
    /// driver must perform them: the server core reuses one buffer
    /// across steps instead of allocating a list per step.
    pub fn step_into(&mut self, ev: Event, fx: &mut Vec<Effect>) {
        match ev {
            Event::Hello {
                id,
                speed,
                proto,
                resume,
                now_us,
            } => self.register(id, speed, proto, resume, now_us, fx),
            Event::Request {
                worker,
                max,
                now_us,
            } => {
                let msg = self.allocate_for(worker, max, now_us, fx);
                fx.push(Effect::Reply(msg));
            }
            Event::Done {
                worker,
                task,
                ok,
                now_us,
            } => {
                let accepted = self.report(worker, task, ok, now_us, fx);
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
                    self.lose_lease(lease, now_us, fx);
                }
            }
            Event::RemoteDone { task, now_us } => {
                self.remote_done(task, now_us, fx);
            }
        }
    }

    /// Whether every task of the dag has executed.
    pub fn is_complete(&self) -> bool {
        self.state.num_executed() == self.dag.num_nodes()
    }

    /// Pool size as the trace records it: allocatable now, plus tasks
    /// waiting out a backoff — both are ELIGIBLE and unallocated,
    /// which is what the auditor's replay reconstructs.
    pub fn recorded_pool(&self) -> usize {
        self.state.pool_len() + self.deferred.len()
    }

    /// Trace timestamp for an event happening at `now_us`.
    fn t(&self, now_us: u64) -> f64 {
        secs(now_us.saturating_sub(self.origin_us))
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
        self.tally(kind, client);
    }

    /// Count one trace event into the registry — the one place its
    /// event-derived readings move, for an event emitted live and one
    /// replayed by a [`Restorer`] alike. The federation's events count
    /// only as remote completions.
    fn tally(&mut self, kind: EventKind, client: usize) {
        let reg = &mut self.reg;
        let count = match (kind, client == FED_CLIENT) {
            (EventKind::Completed, true) => &mut reg.remote_completions,
            (_, true) => return,
            (EventKind::Completed, false) => &mut reg.completions,
            (EventKind::Failed, false) => &mut reg.failures,
            (EventKind::Speculated, false) => &mut reg.steals,
            (EventKind::Revoked, false) => &mut reg.revokes,
            (EventKind::Allocated | EventKind::Idle | EventKind::Resumed, false) => return,
        };
        *count += 1;
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
        if let Some(fed) = &self.remote.meta {
            header = header.with_fed(fed.clone());
        }
        fx.push(Effect::Header(header));
        self.header_written = true;
        // Serving time starts when serving can actually start.
        self.origin_us = now_us;
        self.claim_stubs(now_us, fx);
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

    /// The lease length in driver microseconds — the one place
    /// `lease_ms` changes unit.
    pub(crate) fn lease_us(&self) -> u64 {
        self.cfg.lease_ms.saturating_mul(1_000)
    }

    /// Lease deadline for a grant or renewal at `now_us`; the driver
    /// arms its expiry timer for the same instant.
    pub(crate) fn lease_deadline(&self, now_us: u64) -> u64 {
        now_us.saturating_add(self.lease_us())
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
        self.emit(fx, EventKind::Failed, now_us, lease.worker, Some(v));
    }

    /// Remove and lose every lease held by `worker`, lowest table
    /// position first. O(held-by-worker), not O(live leases): this
    /// runs on *every* `request`.
    fn drop_worker_leases(&mut self, worker: usize, now_us: u64, fx: &mut Vec<Effect>) {
        while let Some(lease) = self.leases.remove_worker_next(worker) {
            self.lose_lease(lease, now_us, fx);
        }
    }

    /// Register a fresh worker or resume an existing slot; pushes the
    /// `welcome` or `error` reply (after any header or trace effects
    /// the registration itself produced).
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
        fx.push(Effect::Reply(Message::Welcome {
            worker: worker as u64,
            lease_ms: self.cfg.lease_ms,
            proto: PROTO_CURRENT,
            resume: Some(token),
            tasks: Vec::new(),
        }));
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
        let held = self.leases.renew_worker(worker, deadline);
        self.reg.resumes += 1;
        for &v in &held {
            self.emit(fx, EventKind::Resumed, now_us, worker, Some(v));
        }
        fx.push(Effect::Reply(Message::Welcome {
            worker: worker as u64,
            lease_ms: self.cfg.lease_ms,
            proto: PROTO_CURRENT,
            resume: Some(fresh),
            tasks: held.iter().map(|v| v.index() as u64).collect(),
        }));
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
        let batch = self.cfg.batch.max(1);
        let width = usize::try_from(max).map_or(batch, |max| max.clamp(1, batch));
        // Claiming removes each task from the pool but keeps it
        // ELIGIBLE until the lease resolves (completion, failure, or
        // expiry). The round is chosen exactly as the offline
        // `ic_sched::batched::batches_with` would choose it.
        let tasks = fill_round(
            &mut self.state,
            self.dag,
            self.policy,
            width,
            usize::try_from(self.reg.allocations).unwrap_or(usize::MAX),
            Some(&self.failures),
        );
        self.reg.allocations += tasks.len() as u64;
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
            if !self.complete(v, worker, now_us, fx) {
                self.leases.insert(lease);
                return false;
            }
        } else {
            self.lose_lease(lease, now_us, fx);
        }
        true
    }

    /// The one completion tail, for a worker's `done` and a peer's
    /// `remote-done` alike: execute `v` (newly ELIGIBLE children enter
    /// the pool, in id order), emit `Completed` for `client`, revoke
    /// every lease still out on `v` — first completion wins; the
    /// holders learn via the `Revoke` reply to their next heartbeat or
    /// a rejected `done` — and stamp the makespan once the dag is done.
    /// A claimed task is ELIGIBLE by construction (`ic-check` proves
    /// it exhaustively), so a failure is refused, not unwrapped:
    /// `false`, and nothing changed.
    fn complete(&mut self, v: NodeId, client: usize, now_us: u64, fx: &mut Vec<Effect>) -> bool {
        if self.state.execute_counting(v).is_err() {
            debug_assert!(false, "completed task {v} was not ELIGIBLE");
            return false;
        }
        self.emit(fx, EventKind::Completed, now_us, client, Some(v));
        while let Some(dup) = self.leases.remove_task_next(v) {
            self.emit(fx, EventKind::Revoked, now_us, dup.worker, Some(dup.task));
        }
        if self.is_complete() && self.completed_at_us.is_none() {
            self.completed_at_us = Some(now_us);
        }
        true
    }
}

/// Answer a `hello` with a typed error frame; the driver sends it and
/// closes the connection.
fn refuse(fx: &mut Vec<Effect>, code: &str, msg: String) {
    fx.push(Effect::Reply(Message::Error {
        code: code.into(),
        msg,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_audit::{audit_trace, Severity};
    use ic_dag::builder::from_arcs;
    use ic_sched::batched::batches_with;
    use ic_sched::heuristics::Policy;
    use ic_sim::trace::TraceSink;
    use ic_sim::MemorySink;

    /// Feed one event, route trace effects into the sink, and return
    /// the wire-visible replies.
    pub(super) fn drive(
        m: &mut LeaseMachine<'_, '_>,
        sink: &mut MemorySink,
        ev: Event,
    ) -> Vec<Message> {
        let mut replies = Vec::new();
        for e in m.step(ev) {
            match e {
                Effect::Header(h) => sink.header(&h),
                Effect::Trace(t) => sink.record(&t),
                Effect::Reply(msg) => replies.push(msg),
            }
        }
        replies
    }

    pub(super) fn boot(m: &mut LeaseMachine<'_, '_>, sink: &mut MemorySink) {
        for e in m.boot(0) {
            match e {
                Effect::Header(h) => sink.header(&h),
                Effect::Trace(t) => sink.record(&t),
                _ => panic!("boot only writes the header"),
            }
        }
    }

    pub(super) fn hello(m: &mut LeaseMachine<'_, '_>, sink: &mut MemorySink, id: &str) {
        let replies = drive(
            m,
            sink,
            Event::Hello {
                id: id.into(),
                speed: 1.0,
                proto: PROTO_CURRENT,
                resume: None,
                now_us: 0,
            },
        );
        assert!(matches!(replies[0], Message::Welcome { .. }));
    }

    pub(super) fn request(
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

    pub(super) fn done(
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
    pub(super) fn assert_accounting(m: &LeaseMachine<'_, '_>) {
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

    pub(super) fn audit_errors(sink: MemorySink) -> Vec<ic_audit::Diagnostic> {
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
        assert_eq!(m.failures[0], 1);
        assert_accounting(&m);

        // ...and a request from a worker still holding a lease
        // forfeits it back into the backoff queue (now 30 ms) instead
        // of leaking it.
        assert!(matches!(
            request(&mut m, &mut sink, 0, 1, 20_000),
            Message::Wait { .. }
        ));
        assert_eq!((m.deferred_tasks().len(), m.lease_views().len()), (1, 0));
        assert_eq!(m.failures[0], 2);
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

        let reg = &m.reg;
        assert_eq!((reg.completions, reg.failures, reg.allocations), (4, 2, 6));

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
                proto: PROTO_CURRENT,
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
        assert_eq!(proto, PROTO_CURRENT);
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
        assert_eq!(m.reg.failures, 0, "no spurious reallocation");
        assert_accounting(&m);

        // Resume with the token: same slot, rotated token, lease back.
        let mut replies = drive(
            &mut m,
            &mut sink,
            Event::Hello {
                id: "a".into(),
                speed: 1.0,
                proto: PROTO_CURRENT,
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
        assert_eq!((m.reg.resumes, m.connected()), (1, 1));
        assert_eq!(m.worker_epoch(0), Some(1));

        // The spent token is dead; the old connection's Sever is stale.
        let mut replies = drive(
            &mut m,
            &mut sink,
            Event::Hello {
                id: "a".into(),
                speed: 1.0,
                proto: PROTO_CURRENT,
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
        assert_eq!((m.reg.resumes, m.reg.failures), (1, 0));
        let errors = audit_errors(sink);
        assert!(errors.is_empty(), "trace must replay clean: {errors:?}");
    }

    /// The resume-token index against the lookup it stands for: a
    /// linear probe of the slots' current tokens. Through fresh
    /// hellos, rotations and refused resumes, every token ever issued
    /// resolves the same way by both, and nothing else is indexed.
    #[test]
    fn the_token_index_agrees_with_a_linear_probe_of_the_slots() {
        let g = from_arcs(2, &[(0, 1)]).unwrap();
        let policy = Policy::Fifo;
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, ServerConfig::builder().build());
        boot(&mut m, &mut sink);

        let mut issued: Vec<String> = vec!["feedfacefeedface".into()];
        // (id, index into `issued` of the token to resume with)
        let script: [(&str, Option<usize>); 8] = [
            ("a", None),
            ("b", None),
            ("c", None),
            ("b", Some(2)), // b's token: rotates
            ("b", Some(2)), // the spent one: refused
            ("b", Some(4)), // the rotated one: rotates again
            ("x", Some(0)), // never issued: refused
            ("a", Some(1)),
        ];
        for (id, resume) in script {
            let replies = drive(
                &mut m,
                &mut sink,
                Event::Hello {
                    id: id.into(),
                    speed: 1.0,
                    proto: PROTO_CURRENT,
                    resume: resume.map(|i| issued[i].clone()),
                    now_us: 0,
                },
            );
            if let Message::Welcome {
                resume: Some(token),
                ..
            } = &replies[0]
            {
                issued.push(token.clone());
            }
            for token in &issued {
                let probe = m
                    .workers
                    .iter()
                    .position(|w| w.token.as_deref() == Some(token));
                assert_eq!(m.token_index.get(token).copied(), probe, "token {token}");
            }
            assert_eq!(m.token_index.len(), m.workers.len());
        }
        assert_eq!((issued.len(), m.workers.len(), m.reg.resumes), (7, 3, 3));
    }

    /// `node_from_raw` against the lookup it stands for: a scan of the
    /// dag's node ids. Ids at and past the node count, and ids that
    /// only fit a `u32` by truncation, name no node.
    #[test]
    fn node_from_raw_agrees_with_a_scan_of_the_node_ids() {
        let g = from_arcs(5, &[(0, 1)]).unwrap();
        let policy = Policy::Fifo;
        let m = LeaseMachine::new(&g, &policy, ServerConfig::builder().build());
        let wide = u64::from(u32::MAX);
        for raw in [0, 1, 4, 5, 6, wide, wide + 1, wide + 4, u64::MAX] {
            let scanned = g.node_ids().find(|v| v.index() as u64 == raw);
            assert_eq!(m.node_from_raw(raw), scanned, "raw id {raw}");
        }
        assert_eq!(m.node_from_raw(4), Some(NodeId(4)));
        assert_eq!(m.node_from_raw(wide + 4), None, "2^32 + 3 is not node 3");
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
        assert_eq!(m.reg.steals, 1);
        assert_accounting(&m);

        let steps_before = m.trace_steps();
        // Worker 1 finishes first: it wins, worker 0's lease is
        // revoked, the child enters the pool exactly once.
        assert!(done(&mut m, &mut sink, 1, 0, true, 0));
        assert_eq!((m.reg.revokes, m.lease_views().len()), (1, 0));
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
        let reg = &m.reg;
        assert_eq!((reg.steals, reg.revokes, reg.failures), (1, 1, 0));
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
            let [Effect::Reply(Message::Error { code, .. })] = fx.as_slice() else {
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
    /// lease. The bare-machine `expired()` scan and the event agree.
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
        assert_eq!(m.failures[0], 1);
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
}
