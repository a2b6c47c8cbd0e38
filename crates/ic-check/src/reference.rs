//! The *reference* lease machine: the pre-index, linear-scan
//! implementation of [`ic_net::LeaseMachine`], frozen verbatim when
//! the lease table was rewritten as an indexed slab.
//!
//! Every lookup here is a linear scan over a plain `Vec<Lease>` — the
//! original, obviously-correct formulation. It exists solely as the
//! differential oracle: [`crate::differential`] drives this machine
//! and the indexed one with identical event scripts and asserts
//! byte-identical effect sequences. It is built on `ic-net`'s public
//! items only, and must never grow features the real machine lacks.

use std::hash::{Hash, Hasher};

use ic_dag::rng::XorShift64;
use ic_dag::{Dag, NodeId};
use ic_net::machine::{Effect, Event, LeaseView, SeededBugs};
use ic_net::wire::{Message, ERR_BAD_RESUME, ERR_UNSUPPORTED, PROTO_CURRENT};
use ic_net::{ServeReport, ServerConfig};
use ic_sched::batched::fill_round;
use ic_sched::eligibility::ExecState;
use ic_sched::policy::AllocationPolicy;
use ic_sim::trace::{EventKind, FedMeta, TraceEvent, TraceHeader, WorkerParams, FED_CLIENT};

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
    /// cannot hijack the slot).
    token: Option<String>,
    /// Bumped on every resume; a `Sever` carrying an older epoch comes
    /// from a superseded connection and is ignored.
    epoch: u64,
    /// Whether a live connection currently owns the slot.
    connected: bool,
}

/// One entry of the lease table. A task can appear in several entries
/// at once: one primary lease plus speculative duplicates granted at
/// the drain barrier.
#[derive(Debug, Clone, Copy)]
struct Lease {
    worker: usize,
    task: NodeId,
    /// Heartbeat deadline in driver microseconds; passing it forfeits
    /// the lease.
    deadline_us: u64,
    /// Grant time in driver microseconds — the straggler clock for
    /// stealing.
    granted_us: u64,
    /// A duplicate granted at the drain barrier (loses ties: its
    /// completion only counts if it arrives first).
    speculative: bool,
}

/// The pure lease-protocol coordinator: all scheduling state, no side
/// effects. See the [module docs](self) for the contract.
#[derive(Clone)]
pub struct ReferenceMachine<'a, 'd> {
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
    /// The lease table. Linear scans throughout: the table never holds
    /// more entries than there are connected workers.
    leases: Vec<Lease>,
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
    /// Resume-token source, seeded from the config (keeps the machine
    /// deterministic given its inputs).
    rng: XorShift64,
    bugs: SeededBugs,
    /// Federation metadata ([`ReferenceMachine::set_fed`]); `None` for a
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
    pending_remote: Vec<NodeId>,
    /// Remote completions applied (stub or replica executions driven
    /// by a peer's `remote-done`).
    remote_completions: usize,
}

impl<'a, 'd> ReferenceMachine<'a, 'd> {
    /// Build a machine over `dag` allocating through `policy`.
    ///
    /// # Panics
    /// Panics if the policy rejects the dag in
    /// [`AllocationPolicy::prepare`].
    pub fn new(dag: &'d Dag, policy: &'a dyn AllocationPolicy, cfg: ServerConfig) -> Self {
        policy.prepare(dag);
        let state = ExecState::new(dag);
        let failures = vec![0; dag.num_nodes()];
        let rng = XorShift64::new(cfg.seed ^ 0x7EA5_E0CE);
        ReferenceMachine {
            dag,
            policy,
            cfg,
            state,
            deferred: Vec::new(),
            leases: Vec::new(),
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
            rng,
            bugs: SeededBugs::default(),
            fed: None,
            stub_mask: Vec::new(),
            replica_mask: Vec::new(),
            pending_remote: Vec::new(),
            remote_completions: 0,
        }
    }

    /// Declare this machine one shard of a federated run. Must be
    /// called before [`ReferenceMachine::boot`]: the trace header then
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
                let mut held = false;
                for l in self
                    .leases
                    .iter_mut()
                    .filter(|l| l.worker == worker && l.task.index() as u64 == task)
                {
                    l.deadline_us = deadline;
                    held = true;
                }
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
                if let Some(pos) = self.leases.iter().position(|l| {
                    l.worker == worker && l.task.index() as u64 == task && l.deadline_us <= now_us
                }) {
                    let lease = self.leases.swap_remove(pos);
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
        let mut report = ServeReport::default();
        report.completions = self.completions;
        report.failures = self.failure_events;
        report.allocations = self.allocation_steps;
        report.workers_registered = self.workers.len();
        report.late_workers = self.late_workers;
        report.resumes = self.resumes;
        report.steals = self.steals;
        report.revokes = self.revokes;
        report.makespan = makespan;
        report.remote_completions = self.remote_completions;
        report
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

    /// [`ReferenceMachine::fingerprint`] into a caller-chosen hasher.
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

    /// [`ReferenceMachine::emit`] recording `pool` instead of the
    /// current pool: a batched round claims all its tasks before the
    /// first `alloc` event is written.
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
        debug_assert_eq!(task.is_none(), kind == EventKind::Idle);
        let (step, time) = (self.step, self.t(now_us));
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
        let last_holder = !self.leases.iter().any(|l| l.task == v);
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

    /// Remove and lose every lease held by `worker`.
    fn drop_worker_leases(&mut self, worker: usize, now_us: u64, fx: &mut Vec<Effect>) {
        let mut i = 0;
        while i < self.leases.len() {
            if self.leases[i].worker == worker {
                let lease = self.leases.swap_remove(i);
                self.lose_lease(lease, now_us, fx);
            } else {
                i += 1;
            }
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
            return self.resume_slot(&token, now_us, fx);
        }
        let worker = self.workers.len();
        let token = self.fresh_token();
        self.workers.push(WorkerSlot {
            id,
            speed,
            waiting: false,
            token: Some(token.clone()),
            epoch: 0,
            connected: true,
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
    fn resume_slot(&mut self, token: &str, now_us: u64, fx: &mut Vec<Effect>) {
        let Some(worker) = self
            .workers
            .iter()
            .position(|w| w.token.as_deref() == Some(token))
        else {
            return refuse(fx, ERR_BAD_RESUME, "unknown or stale resume token".into());
        };
        let fresh = self.fresh_token();
        let deadline = self.lease_deadline(now_us);
        let slot = &mut self.workers[worker];
        slot.epoch += 1;
        slot.token = Some(fresh.clone());
        slot.waiting = false;
        if !slot.connected {
            slot.connected = true;
            self.connected += 1;
        }
        let epoch = slot.epoch;
        let mut held: Vec<NodeId> = Vec::new();
        for l in self.leases.iter_mut().filter(|l| l.worker == worker) {
            l.deadline_us = deadline;
            held.push(l.task);
        }
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

    /// A worker's connection dropped (with its registration epoch).
    /// Its leases stay with the slot: the worker may resume, and lease
    /// expiry is the fallback if it never does.
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
            // their tasks stay claimed but belong to no queue.
            self.leases.retain(|l| l.worker != worker);
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
            self.leases.push(Lease {
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
        let mut straggler: Option<(u64, NodeId)> = None;
        for l in &self.leases {
            if l.speculative || l.worker == worker {
                continue;
            }
            if now_us.saturating_sub(l.granted_us) < after_us {
                continue;
            }
            let task = l.task;
            if self.leases.iter().any(|x| x.task == task && x.speculative) {
                continue;
            }
            if straggler.is_none_or(|(g, _)| l.granted_us < g) {
                straggler = Some((l.granted_us, task));
            }
        }
        let (_, v) = straggler?;
        self.steals += 1;
        self.leases.push(Lease {
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
        let Some(pos) = self
            .leases
            .iter()
            .position(|l| l.worker == worker && l.task.index() as u64 == task)
        else {
            if self.bugs.double_completion_event && ok {
                // The seeded duplicate-completion bug: a late report
                // for an already-executed task is accepted again and
                // re-emits `Completed`.
                if let Some(v) = self.dag.node_ids().find(|v| v.index() as u64 == task) {
                    if self.state.is_executed(v) {
                        self.completions += 1;
                        self.emit(fx, EventKind::Completed, now_us, worker, Some(v));
                        return true;
                    }
                }
            }
            return false;
        };
        let lease = self.leases.swap_remove(pos);
        let v = lease.task;
        if ok {
            // Newly ELIGIBLE children enter the pool inside
            // `execute_counting` (in id order). A leased task is
            // ELIGIBLE by construction — `ic-check` proves exactly
            // this invariant exhaustively — so failure is refused
            // defensively rather than unwrapped.
            if self.state.execute_counting(v).is_err() {
                debug_assert!(false, "leased task {v} was not ELIGIBLE");
                self.leases.push(lease);
                return false;
            }
            self.completions += 1;
            self.emit(fx, EventKind::Completed, now_us, worker, Some(v));
            // Cancel the stale duplicates (if any): their leases are
            // removed now; their workers learn via the `Revoke` reply
            // to their next heartbeat or the rejected `Done`.
            let mut i = 0;
            while i < self.leases.len() {
                if self.leases[i].task == v {
                    let dup = self.leases.swap_remove(i);
                    self.revokes += 1;
                    self.emit(fx, EventKind::Revoked, now_us, dup.worker, Some(dup.task));
                } else {
                    i += 1;
                }
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
        let Some(v) = u32::try_from(task)
            .ok()
            .map(NodeId)
            .filter(|v| v.index() < self.dag.num_nodes())
        else {
            return; // foreign id: drop defensively
        };
        if !self.header_written {
            // No events may precede the header; apply right after it.
            if !self.pending_remote.contains(&v) {
                self.pending_remote.push(v);
            }
            return;
        }
        self.apply_remote(v, now_us, fx);
        self.drain_pending_remote(now_us, fx);
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
            if !self.pending_remote.contains(&v) {
                self.pending_remote.push(v);
            }
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
        } else if self.leases.iter().any(|l| l.task == v) {
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
        self.remote_completions += 1;
        self.emit(fx, EventKind::Completed, now_us, FED_CLIENT, Some(v));
        // First completion wins: cancel every local lease on the node.
        // The holders learn via the `Revoke` reply to their next
        // heartbeat, or their eventual `done` is rejected.
        let mut i = 0;
        while i < self.leases.len() {
            if self.leases[i].task == v {
                let dup = self.leases.swap_remove(i);
                self.revokes += 1;
                self.emit(fx, EventKind::Revoked, now_us, dup.worker, Some(dup.task));
            } else {
                i += 1;
            }
        }
        if self.is_complete() && self.completed_at_us.is_none() {
            self.completed_at_us = Some(now_us);
        }
        true
    }

    /// Re-attempt queued remote completions until a pass applies none.
    fn drain_pending_remote(&mut self, now_us: u64, fx: &mut Vec<Effect>) {
        loop {
            let ready: Vec<NodeId> = {
                let state = &self.state;
                let dag = self.dag;
                self.pending_remote
                    .iter()
                    .copied()
                    .filter(|&v| dag.parents(v).iter().all(|&p| state.is_executed(p)))
                    .collect()
            };
            if ready.is_empty() {
                return;
            }
            self.pending_remote.retain(|v| !ready.contains(v));
            for v in ready {
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

impl std::fmt::Debug for ReferenceMachine<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceMachine")
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
