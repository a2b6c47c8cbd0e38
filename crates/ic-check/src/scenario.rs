//! Scripted fleets: the worker-side model the checker interleaves.
//!
//! A [`FleetSpec`] describes a small cast of workers (2–4) with
//! per-worker budgets for the adversarial moves — reported failures,
//! severed connections, forced lease expiries. The checker explores
//! every interleaving of the fleet's *enabled actions* against one
//! [`LeaseMachine`]; a [`Fleet`] is one point of that product state:
//! the machine plus each worker's believed view of the world (its
//! slot, epoch, resume token, held tasks, and any `Gone` still in
//! flight).
//!
//! # The frozen clock
//!
//! Every event is stamped `now_us = 0` and the server config uses
//! `lease_ms = 0`, `backoff_base_ms = 0`, `steal_after_ms = 0`: time
//! never advances, so timing can *gate* nothing — every backoff is
//! elapsed, every lease deadline is due, the steal timer has always
//! fired. Lease expiry, normally the passage of time, becomes the
//! explicit adversarial [`Action::Expire`], so the checker explores
//! expiry at every point it could possibly happen rather than at the
//! points a particular wall clock reached. This is a *superset* of
//! real schedules: anything the TCP driver can produce, the checker
//! visits.
//!
//! # Delayed `Gone`
//!
//! On TCP, a died connection is noticed by the server only when its
//! handler thread observes EOF — after the worker may already have
//! reconnected elsewhere. [`Action::Sever`] therefore only updates
//! the *worker* model (the connection is gone; the machine does not
//! know), and a separate [`Action::DeliverGone`] later feeds the
//! machine its [`ic_net::Event::Sever`] — possibly after a resume,
//! which is exactly the stale-epoch race the epoch guard exists for.

use std::fmt;
use std::hash::{Hash, Hasher};

use ic_dag::Dag;
use ic_net::machine::SeededBugs;
use ic_net::{Effect, Event, LeaseMachine, Message, ServerConfig, PROTO_CURRENT};
use ic_sched::policy::AllocationPolicy;

/// One scripted worker of the fleet.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// The `max` it asks for per request (batched assignment).
    pub max_batch: u64,
    /// How many failure reports (`done{ok: false}`) it may issue.
    pub fail_budget: u32,
    /// How many times its connection may sever (each sever allows one
    /// resume attempt).
    pub sever_budget: u32,
    /// How many of its leases the adversary may force-expire.
    pub expire_budget: u32,
    /// Whether heartbeat actions are explored (at the frozen clock a
    /// heartbeat only matters for learning about a revocation).
    pub heartbeats: bool,
    /// Whether the worker may request work while still holding tasks
    /// (the protocol's forfeit rule). Off by default: a well-behaved
    /// client only polls when idle, and allowing greedy requests
    /// everywhere multiplies the state space without adding coverage
    /// for the well-behaved invariants. The orphan-on-request seeded
    /// bug turns this on.
    pub request_while_holding: bool,
}

impl WorkerSpec {
    /// A well-behaved worker: no failures, no severs, no expiries.
    pub fn v2() -> Self {
        WorkerSpec {
            max_batch: 1,
            fail_budget: 0,
            sever_budget: 0,
            expire_budget: 0,
            heartbeats: false,
            request_while_holding: false,
        }
    }

    /// Set the failure budget (builder style).
    pub fn fails(mut self, n: u32) -> Self {
        self.fail_budget = n;
        self
    }

    /// Set the sever budget (builder style).
    pub fn severs(mut self, n: u32) -> Self {
        self.sever_budget = n;
        self
    }

    /// Set the forced-expiry budget (builder style).
    pub fn expiries(mut self, n: u32) -> Self {
        self.expire_budget = n;
        self
    }

    /// Set the per-request batch ceiling (builder style).
    pub fn batch(mut self, max: u64) -> Self {
        self.max_batch = max;
        self
    }

    /// Explore heartbeat actions (builder style).
    pub fn beats(mut self) -> Self {
        self.heartbeats = true;
        self
    }

    /// Allow requesting while holding tasks (builder style).
    pub fn greedy(mut self) -> Self {
        self.request_while_holding = true;
        self
    }
}

/// The whole scripted cast plus the server knobs that shape the
/// protocol surface under test.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The workers, in hello order (worker `i` always registers after
    /// workers `0..i` — a symmetry reduction that pins slot `i` to
    /// spec `i` without losing any reachable machine state).
    pub workers: Vec<WorkerSpec>,
    /// Enable the drain-barrier speculative steal
    /// (`steal_after_ms = 0`: at the frozen clock every outstanding
    /// lease is old enough).
    pub steal: bool,
    /// Server-side batch ceiling per `assign`.
    pub batch: usize,
}

impl FleetSpec {
    /// `n` well-behaved v2 workers, no stealing, batch 1.
    pub fn of(n: usize) -> Self {
        FleetSpec {
            workers: (0..n).map(|_| WorkerSpec::v2()).collect(),
            steal: false,
            batch: 1,
        }
    }

    /// Enable the speculative steal path (builder style).
    pub fn with_steal(mut self) -> Self {
        self.steal = true;
        self
    }

    /// The frozen-clock server configuration this fleet runs against.
    pub fn server_config(&self) -> ServerConfig {
        let mut b = ServerConfig::builder()
            .lease_ms(0)
            .backoff_base_ms(0)
            .wait_ms(0)
            .seed(0x1C5EED)
            .batch(self.batch.max(1));
        if self.steal {
            b = b.steal_after(0);
        }
        b.build()
    }
}

/// One transition of the interleaved system. Worker indices are fleet
/// (spec) indices, tasks are dag node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Worker `i` registers fresh.
    Hello(usize),
    /// Worker `i` reconnects with its resume token.
    Resume(usize),
    /// Worker `i` requests work.
    Request(usize),
    /// Worker `i` reports task `t` completed.
    DoneOk(usize, u64),
    /// Worker `i` reports task `t` failed.
    DoneFail(usize, u64),
    /// Worker `i` heartbeats task `t`.
    Beat(usize, u64),
    /// Worker `i`'s connection drops (the machine does not know yet).
    Sever(usize),
    /// The machine finally observes worker `i`'s dead connection.
    DeliverGone(usize),
    /// The adversary expires worker `i`'s lease on task `t`.
    Expire(usize, u64),
}

impl Action {
    /// The fleet index the action belongs to.
    pub fn worker(&self) -> usize {
        match *self {
            Action::Hello(i)
            | Action::Resume(i)
            | Action::Request(i)
            | Action::DoneOk(i, _)
            | Action::DoneFail(i, _)
            | Action::Beat(i, _)
            | Action::Sever(i)
            | Action::DeliverGone(i)
            | Action::Expire(i, _) => i,
        }
    }

    /// The task the action touches, if any.
    pub fn task(&self) -> Option<u64> {
        match *self {
            Action::DoneOk(_, t)
            | Action::DoneFail(_, t)
            | Action::Beat(_, t)
            | Action::Expire(_, t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Action::Hello(i) => write!(f, "hello(w{i})"),
            Action::Resume(i) => write!(f, "resume(w{i})"),
            Action::Request(i) => write!(f, "request(w{i})"),
            Action::DoneOk(i, t) => write!(f, "done-ok(w{i}, t{t})"),
            Action::DoneFail(i, t) => write!(f, "done-fail(w{i}, t{t})"),
            Action::Beat(i, t) => write!(f, "beat(w{i}, t{t})"),
            Action::Sever(i) => write!(f, "sever(w{i})"),
            Action::DeliverGone(i) => write!(f, "deliver-gone(w{i})"),
            Action::Expire(i, t) => write!(f, "expire(w{i}, t{t})"),
        }
    }
}

/// What the worker is currently doing, from its own point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Has not said hello yet.
    Fresh,
    /// Registered with a live connection.
    Live,
    /// Connection dropped; may resume with its token.
    Severed,
    /// Received `Drain`; the run is over for this worker.
    Drained,
    /// Registration was refused with a typed error.
    Refused,
}

/// The checker's model of one worker: what the *worker process*
/// believes, which may legitimately lag the machine (that divergence
/// is the interesting part).
#[derive(Debug, Clone)]
pub struct WorkerModel {
    /// Where the worker is in its lifecycle.
    pub phase: Phase,
    /// The slot the machine assigned in `welcome`.
    pub slot: usize,
    /// The registration epoch of the current connection.
    pub epoch: u64,
    /// The current resume token, once registered.
    pub token: Option<String>,
    /// Tasks the worker believes it holds (assigned, not yet resolved).
    pub held: Vec<u64>,
    /// Epochs of dead connections whose `Gone` has not yet reached the
    /// machine (FIFO).
    pub pending_gone: Vec<u64>,
    /// Remaining failure reports.
    pub fails_left: u32,
    /// Remaining severs.
    pub severs_left: u32,
    /// Remaining forced expiries.
    pub expires_left: u32,
    /// Whether this worker has ever successfully resumed.
    pub resumed: bool,
}

impl WorkerModel {
    /// A fresh (pre-hello) model for `spec` — also the starting point
    /// for the crash checker's synthetic post-restart fleet.
    pub fn new(spec: &WorkerSpec) -> Self {
        WorkerModel {
            phase: Phase::Fresh,
            slot: usize::MAX,
            epoch: 0,
            token: None,
            held: Vec::new(),
            pending_gone: Vec::new(),
            fails_left: spec.fail_budget,
            severs_left: spec.sever_budget,
            expires_left: spec.expire_budget,
            resumed: false,
        }
    }

    /// Hash the semantic state (token *presence* only: the token
    /// string is an opaque equal-capability secret, so states that
    /// differ only in its bytes are interchangeable).
    fn fingerprint_into(&self, h: &mut impl Hasher) {
        (self.phase, self.slot, self.epoch, self.token.is_some()).hash(h);
        let mut held = self.held.clone();
        held.sort_unstable();
        held.hash(h);
        self.pending_gone.hash(h);
        (
            self.fails_left,
            self.severs_left,
            self.expires_left,
            self.resumed,
        )
            .hash(h);
    }
}

/// Which kind of request a reply answers (shapes how an `Ack` updates
/// the worker's held set).
enum ReplyCtx {
    Done(u64),
    Beat(u64),
    Other,
}

/// One state of the interleaved system: the machine plus every
/// worker's model, plus the per-path completion counts the
/// duplicate-completion invariant watches.
#[derive(Clone)]
pub struct Fleet<'a, 'd> {
    /// The machine under test.
    pub machine: LeaseMachine<'a, 'd>,
    /// One model per fleet worker.
    pub workers: Vec<WorkerModel>,
    /// `Completed` trace events seen per task along this path.
    pub completions: Vec<u32>,
}

impl<'a, 'd> Fleet<'a, 'd> {
    /// Boot a fleet against a fresh machine (the header is written
    /// immediately: the checker runs without a registration barrier).
    pub fn new(
        dag: &'d Dag,
        policy: &'a dyn AllocationPolicy,
        spec: &FleetSpec,
        bugs: SeededBugs,
    ) -> Fleet<'a, 'd> {
        let mut machine = LeaseMachine::new(dag, policy, spec.server_config());
        machine.seed_bugs(bugs);
        let _ = machine.boot(0);
        Fleet {
            machine,
            workers: spec.workers.iter().map(WorkerModel::new).collect(),
            completions: vec![0; dag.num_nodes()],
        }
    }

    /// Every action enabled in this state, in a fixed deterministic
    /// order. Hellos are serialized (worker `i` registers only after
    /// `0..i` left `Fresh`) — a symmetry reduction over the
    /// interchangeable slot assignment.
    pub fn enabled(&self, spec: &FleetSpec) -> Vec<Action> {
        let mut acts = Vec::new();
        let mut fresh_seen = false;
        for (i, w) in self.workers.iter().enumerate() {
            let ws = &spec.workers[i];
            match w.phase {
                Phase::Fresh => {
                    if !fresh_seen {
                        acts.push(Action::Hello(i));
                    }
                    fresh_seen = true;
                }
                Phase::Live => {
                    if w.held.is_empty() || ws.request_while_holding {
                        acts.push(Action::Request(i));
                    }
                    for &t in &w.held {
                        acts.push(Action::DoneOk(i, t));
                        if w.fails_left > 0 {
                            acts.push(Action::DoneFail(i, t));
                        }
                        if ws.heartbeats {
                            acts.push(Action::Beat(i, t));
                        }
                    }
                    if w.severs_left > 0 {
                        acts.push(Action::Sever(i));
                    }
                }
                Phase::Severed => {
                    if w.token.is_some() {
                        acts.push(Action::Resume(i));
                    }
                }
                Phase::Drained | Phase::Refused => {}
            }
            if !w.pending_gone.is_empty() {
                acts.push(Action::DeliverGone(i));
            }
            if w.expires_left > 0 && w.slot != usize::MAX {
                for l in self.machine.lease_views() {
                    if l.worker == w.slot {
                        acts.push(Action::Expire(i, l.task.index() as u64));
                    }
                }
            }
        }
        acts
    }

    /// Apply one action: step the machine (or the model, for
    /// [`Action::Sever`]), absorb the effects into the worker model,
    /// and return them for the caller's invariant scan.
    pub fn apply(&mut self, spec: &FleetSpec, a: Action) -> Vec<Effect> {
        match a {
            Action::Hello(i) => {
                let fx = self.machine.step(Event::Hello {
                    id: format!("w{i}"),
                    speed: 1.0,
                    proto: PROTO_CURRENT,
                    resume: None,
                    now_us: 0,
                });
                self.absorb(i, ReplyCtx::Other, &fx);
                fx
            }
            Action::Resume(i) => {
                let token = self.workers[i].token.clone().unwrap_or_default();
                let fx = self.machine.step(Event::Hello {
                    id: format!("w{i}"),
                    speed: 1.0,
                    proto: PROTO_CURRENT,
                    resume: Some(token),
                    now_us: 0,
                });
                self.workers[i].resumed = true;
                self.absorb(i, ReplyCtx::Other, &fx);
                fx
            }
            Action::Request(i) => {
                let max = spec.workers[i].max_batch;
                let slot = self.workers[i].slot;
                let fx = self.machine.step(Event::Request {
                    worker: slot,
                    max,
                    now_us: 0,
                });
                // Requesting forfeits any leases still held (the
                // protocol's request-while-leased rule): the worker's
                // belief updates only via the replies, so clear its
                // held set to match what the machine just did.
                self.workers[i].held.clear();
                self.absorb(i, ReplyCtx::Other, &fx);
                fx
            }
            Action::DoneOk(i, t) => {
                let slot = self.workers[i].slot;
                let fx = self.machine.step(Event::Done {
                    worker: slot,
                    task: t,
                    ok: true,
                    now_us: 0,
                });
                self.absorb(i, ReplyCtx::Done(t), &fx);
                fx
            }
            Action::DoneFail(i, t) => {
                let slot = self.workers[i].slot;
                self.workers[i].fails_left -= 1;
                let fx = self.machine.step(Event::Done {
                    worker: slot,
                    task: t,
                    ok: false,
                    now_us: 0,
                });
                self.absorb(i, ReplyCtx::Done(t), &fx);
                fx
            }
            Action::Beat(i, t) => {
                let slot = self.workers[i].slot;
                let fx = self.machine.step(Event::Heartbeat {
                    worker: slot,
                    task: t,
                    now_us: 0,
                });
                self.absorb(i, ReplyCtx::Beat(t), &fx);
                fx
            }
            Action::Sever(i) => {
                let w = &mut self.workers[i];
                w.severs_left -= 1;
                w.phase = Phase::Severed;
                w.pending_gone.push(w.epoch);
                Vec::new()
            }
            Action::DeliverGone(i) => {
                let epoch = self.workers[i].pending_gone.remove(0);
                let slot = self.workers[i].slot;
                let fx = self.machine.step(Event::Sever {
                    worker: slot,
                    epoch,
                    now_us: 0,
                });
                self.absorb(i, ReplyCtx::Other, &fx);
                fx
            }
            Action::Expire(i, t) => {
                let slot = self.workers[i].slot;
                self.workers[i].expires_left -= 1;
                let fx = self.machine.step(Event::Expire {
                    worker: slot,
                    task: t,
                    now_us: 0,
                });
                // The worker does not learn about an expiry; its next
                // done/heartbeat resolves the divergence.
                self.absorb(i, ReplyCtx::Other, &fx);
                fx
            }
        }
    }

    /// Route the machine's effects into worker `i`'s model and the
    /// completion counters.
    fn absorb(&mut self, i: usize, ctx: ReplyCtx, fx: &[Effect]) {
        for e in fx {
            match e {
                Effect::Registered { msg, worker, epoch } => match msg {
                    Message::Welcome { resume, tasks, .. } => {
                        let w = &mut self.workers[i];
                        w.phase = Phase::Live;
                        w.slot = *worker;
                        w.epoch = *epoch;
                        w.token = resume.clone();
                        w.held = tasks.clone();
                    }
                    _ => self.workers[i].phase = Phase::Refused,
                },
                Effect::Reply(msg) => match msg {
                    Message::Assign { tasks } => {
                        let w = &mut self.workers[i];
                        for t in tasks {
                            if !w.held.contains(t) {
                                w.held.push(*t);
                            }
                        }
                    }
                    Message::Drain => {
                        let w = &mut self.workers[i];
                        w.phase = Phase::Drained;
                        w.pending_gone.push(w.epoch);
                    }
                    Message::Ack { task, accepted } => match ctx {
                        ReplyCtx::Done(t) if *task == t => {
                            self.workers[i].held.retain(|&h| h != t);
                        }
                        ReplyCtx::Beat(t) if *task == t && !*accepted => {
                            self.workers[i].held.retain(|&h| h != t);
                        }
                        _ => {}
                    },
                    Message::Revoke { task } => {
                        self.workers[i].held.retain(|&h| h != *task);
                    }
                    _ => {}
                },
                Effect::Trace(ev) => {
                    if ev.kind == ic_sim::trace::EventKind::Completed {
                        let done = ev
                            .task
                            .and_then(|task| self.completions.get_mut(task.index()));
                        if let Some(c) = done {
                            *c += 1;
                        }
                    }
                }
                Effect::Header(_) => {}
            }
        }
    }

    /// Hash of the full interleaved state — the machine's semantic
    /// fingerprint plus every worker model. Two states with equal
    /// fingerprints have identical futures, so the explorer's visited
    /// set may merge them.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.machine.fingerprint_into(&mut h);
        for w in &self.workers {
            w.fingerprint_into(&mut h);
        }
        h.finish()
    }

    /// Whether the run is over: the dag completed and every worker has
    /// either drained, been refused, or gone quiet with no way back.
    pub fn terminal(&self) -> bool {
        self.machine.is_complete()
            && self.workers.iter().all(|w| {
                matches!(w.phase, Phase::Drained | Phase::Refused) && w.pending_gone.is_empty()
            })
    }
}
