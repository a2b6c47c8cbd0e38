//! Fleets: the deployed workers the checker interleaves.
//!
//! A [`FleetSpec`] is a small cast of workers with per-worker budgets
//! for the adversary: failure reports, severed connections, forced
//! lease expiries. Each worker is an [`ic_net::WorkerSession`], the
//! protocol half of the worker that ships; the checker is its driver
//! and the server's connection table, handing its frames to one
//! [`LeaseMachine`] through [`Event::from_frame`] (the reactor's
//! mapping). A transition moves one worker to its next resting point —
//! a `hello` or `request` to send, a compute, the end of its run — with
//! what it does alone on the way: the frames it sends at once (a
//! `done`, a heartbeat round), a sleep's end, the redial after a lost
//! frame.
//!
//! # The frozen clock
//!
//! Every event is stamped `now_us = 0` and the server config uses
//! `lease_ms = 0`, `backoff_base_ms = 0`, `steal_after_ms = 0`: timing
//! gates nothing — every backoff is elapsed, every lease deadline due,
//! the steal timer fired, and a worker's sleep ends when it is next
//! scheduled. Lease expiry and heartbeat rounds become choices, taken
//! at every point they could happen rather than where a wall clock
//! reached.
//!
//! # Delayed `Gone`
//!
//! On TCP the server learns a connection died only when its poller
//! reports the close, perhaps after the worker reconnected. A sever
//! therefore only closes the worker's side (it learns so as the loss of
//! its next frame, and redials with its token), and a separate
//! `deliver-gone` later steps the machine's [`Event::Sever`] — possibly
//! after a resume, the stale-epoch race the epoch guard exists for.

use std::hash::{Hash, Hasher};
use std::io;

use ic_dag::Dag;
use ic_net::machine::SeededBugs;
use ic_net::{
    Effect, Event, LeaseMachine, Message, ServerConfig, WorkerConfig, WorkerInput, WorkerSession,
    WorkerStep,
};
use ic_sched::policy::AllocationPolicy;

/// One worker of the fleet: its batch appetite, and the adversary's
/// budgets and moves for it.
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
    /// Whether heartbeat rounds are explored (at the frozen clock a
    /// round only matters for learning about a revocation).
    pub heartbeats: bool,
    /// Whether a greedy `request` may go out on the worker's connection
    /// while it computes (the protocol's forfeit rule). Off by default:
    /// the shipped worker only requests when idle, and greedy requests
    /// multiply the state space without adding coverage for the
    /// well-behaved invariants. The orphan-on-request seeded bug turns
    /// this on.
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

/// The whole cast plus the server knobs that shape the
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
pub(crate) enum Action {
    /// Worker `i`'s first `hello` goes out.
    Hello(usize),
    /// Worker `i`'s `hello` with its resume token goes out.
    Resume(usize),
    /// Worker `i`'s `request` goes out: its own when idle, or a greedy
    /// one on its live connection while it computes.
    Request(usize),
    /// Worker `i`'s compute of task `t` ends, well or not; its `done`
    /// goes out.
    Done(usize, u64, bool),
    /// Worker `i` breaks its compute for a heartbeat round.
    Beat(usize),
    /// Worker `i`'s connection drops; it learns so on its next frame,
    /// the machine on [`Action::DeliverGone`].
    Sever(usize),
    /// The machine observes worker `i`'s oldest unobserved close.
    DeliverGone(usize),
    /// The adversary expires worker `i`'s lease on task `t`.
    Expire(usize, u64),
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Action::Hello(i) => write!(f, "hello(w{i})"),
            Action::Resume(i) => write!(f, "resume(w{i})"),
            Action::Request(i) => write!(f, "request(w{i})"),
            Action::Done(i, t, ok) => {
                write!(f, "done-{}(w{i}, t{t})", if ok { "ok" } else { "fail" })
            }
            Action::Beat(i) => write!(f, "beat(w{i})"),
            Action::Sever(i) => write!(f, "sever(w{i})"),
            Action::DeliverGone(i) => write!(f, "deliver-gone(w{i})"),
            Action::Expire(i, t) => write!(f, "expire(w{i}, t{t})"),
        }
    }
}

/// Where a worker rests between transitions: what its session's last
/// step asked for.
#[derive(Debug, Clone)]
enum Wants {
    /// A `hello` (on a new connection) or `request` to send.
    Frame(Message),
    /// The outcome of this task's compute, or a heartbeat round.
    Compute(u64),
    /// Nothing: the run is over.
    Over,
}

/// One deployed worker and what the checker, as its driver and as the
/// server's connection table, knows about it.
#[derive(Debug, Clone)]
struct Worker {
    session: WorkerSession,
    wants: Wants,
    /// The slot and epoch of its last registration (`usize::MAX`: never
    /// registered), and whether that connection is still up.
    slot: usize,
    epoch: u64,
    live: bool,
    /// Epochs of closed connections the machine has not seen close.
    gone: Vec<u64>,
    /// The adversary's budgets left.
    fails_left: u32,
    severs_left: u32,
    expires_left: u32,
}

impl Worker {
    fn new(i: usize, spec: &WorkerSpec) -> Worker {
        // A lost connection redials with the token (the retry interval
        // is moot at the frozen clock).
        let cfg = WorkerConfig::builder()
            .id(format!("w{i}"))
            .batch(spec.max_batch)
            .retry(1)
            .build();
        Worker {
            session: WorkerSession::new(&cfg),
            wants: Wants::Over,
            slot: usize::MAX,
            epoch: 0,
            live: false,
            gone: Vec::new(),
            fails_left: spec.fail_budget,
            severs_left: spec.sever_budget,
            expires_left: spec.expire_budget,
        }
    }

    /// Close its connection, if it is up: the machine is yet to see it.
    fn close(&mut self) {
        if std::mem::take(&mut self.live) {
            self.gone.push(self.epoch);
        }
    }
}

/// One state of the interleaved system: the machine plus every
/// worker, plus the per-path completion counts the duplicate-completion
/// invariant watches.
#[derive(Clone)]
pub(crate) struct Fleet<'a, 'd> {
    /// The machine under test.
    pub(crate) machine: LeaseMachine<'a, 'd>,
    workers: Vec<Worker>,
    /// `Completed` trace events seen per task along this path.
    pub(crate) completions: Vec<u32>,
}

impl<'a, 'd> Fleet<'a, 'd> {
    /// Boot a fleet against a fresh machine (the header is written
    /// immediately: the checker runs without a registration barrier).
    pub(crate) fn new(
        dag: &'d Dag,
        policy: &'a dyn AllocationPolicy,
        spec: &FleetSpec,
        bugs: SeededBugs,
    ) -> Fleet<'a, 'd> {
        let mut machine = LeaseMachine::new(dag, policy, spec.server_config());
        machine.seed_bugs(bugs);
        let _ = machine.boot(0);
        let workers = spec.workers.iter().enumerate();
        let mut fleet = Fleet {
            machine,
            workers: workers.map(|(i, w)| Worker::new(i, w)).collect(),
            completions: vec![0; dag.num_nodes()],
        };
        for i in 0..spec.workers.len() {
            fleet.run(i, WorkerInput::Next, &mut Vec::new());
        }
        fleet
    }

    /// Every action enabled in this state, in a fixed deterministic
    /// order. Hellos are serialized (worker `i` registers only after
    /// `0..i` did) — a symmetry reduction over the interchangeable slot
    /// assignment.
    pub(crate) fn enabled(&self, spec: &FleetSpec) -> Vec<Action> {
        let mut acts = Vec::new();
        let mut fresh_seen = false;
        for (i, (w, ws)) in self.workers.iter().zip(&spec.workers).enumerate() {
            let fresh = w.slot == usize::MAX;
            match w.wants {
                Wants::Frame(Message::Hello { resume: None, .. }) if fresh_seen => {}
                Wants::Frame(Message::Hello { resume: None, .. }) => acts.push(Action::Hello(i)),
                Wants::Frame(Message::Hello { .. }) => acts.push(Action::Resume(i)),
                Wants::Frame(_) => acts.push(Action::Request(i)),
                Wants::Compute(t) => {
                    if ws.request_while_holding && w.live {
                        acts.push(Action::Request(i));
                    }
                    acts.push(Action::Done(i, t, true));
                    if w.fails_left > 0 {
                        acts.push(Action::Done(i, t, false));
                    }
                    if ws.heartbeats {
                        acts.push(Action::Beat(i));
                    }
                }
                Wants::Over => {}
            }
            fresh_seen |= fresh;
            if w.live && w.severs_left > 0 {
                acts.push(Action::Sever(i));
            }
            if !w.gone.is_empty() {
                acts.push(Action::DeliverGone(i));
            }
            if w.expires_left > 0 && !fresh {
                for l in self.machine.lease_views() {
                    if l.worker == w.slot {
                        acts.push(Action::Expire(i, l.task.index() as u64));
                    }
                }
            }
        }
        acts
    }

    /// Apply one action and return the machine's effects, in order, for
    /// the caller's invariant scan.
    pub(crate) fn apply(&mut self, spec: &FleetSpec, a: Action) -> Vec<Effect> {
        let mut fx = Vec::new();
        match a {
            Action::Hello(i) | Action::Resume(i) | Action::Request(i) => {
                match std::mem::replace(&mut self.workers[i].wants, Wants::Over) {
                    Wants::Frame(frame) => {
                        let reply = self.send(i, frame, &mut fx);
                        self.run(i, reply, &mut fx);
                    }
                    // A greedy request: the worker computes on, and
                    // what the machine answers reaches no one.
                    wants => {
                        self.workers[i].wants = wants;
                        let max = spec.workers[i].max_batch;
                        self.send(i, Message::Request { max }, &mut fx);
                    }
                }
            }
            Action::Done(i, _, ok) => {
                self.workers[i].fails_left -= u32::from(!ok);
                self.run(i, WorkerInput::Outcome(ok), &mut fx);
            }
            Action::Beat(i) => self.run(i, WorkerInput::Next, &mut fx),
            Action::Sever(i) => {
                self.workers[i].severs_left -= 1;
                self.workers[i].close();
            }
            Action::DeliverGone(i) => {
                let w = &mut self.workers[i];
                let (worker, epoch) = (w.slot, w.gone.remove(0));
                self.step(
                    Event::Sever {
                        worker,
                        epoch,
                        now_us: 0,
                    },
                    &mut fx,
                );
            }
            Action::Expire(i, task) => {
                let w = &mut self.workers[i];
                w.expires_left -= 1;
                let worker = w.slot;
                self.step(
                    Event::Expire {
                        worker,
                        task,
                        now_us: 0,
                    },
                    &mut fx,
                );
            }
        }
        fx
    }

    /// Feed worker `i`'s session `input` and carry out its steps until it
    /// rests: at a `hello` or `request` to send, a compute, or its end.
    /// The frames in between (a `done`, a heartbeat round) reach the
    /// machine in this transition, and a sleep ends at once: the clock
    /// is frozen.
    fn run(&mut self, i: usize, input: WorkerInput, fx: &mut Vec<Effect>) {
        let mut step = self.workers[i].session.step(input, 0);
        loop {
            let input = match step {
                WorkerStep::Dial(frame) | WorkerStep::Send(frame @ Message::Request { .. }) => {
                    self.workers[i].wants = Wants::Frame(frame);
                    return;
                }
                WorkerStep::Compute { task } => {
                    self.workers[i].wants = Wants::Compute(task);
                    return;
                }
                WorkerStep::HangUp | WorkerStep::Finish(_) | WorkerStep::Fail(_) => {
                    self.workers[i].wants = Wants::Over;
                    self.workers[i].close();
                    return;
                }
                WorkerStep::SleepUntil(_) => WorkerInput::Next,
                WorkerStep::Send(frame) => self.send(i, frame, fx),
            };
            step = self.workers[i].session.step(input, 0);
        }
    }

    /// Deliver worker `i`'s frame as the reactor would, and return what
    /// the worker reads back: the reply, or the loss of its connection.
    /// A `hello` opens a new connection (closing any open one); any
    /// other frame needs the open one up.
    fn send(&mut self, i: usize, frame: Message, fx: &mut Vec<Effect>) -> WorkerInput {
        let w = &mut self.workers[i];
        let slot = match frame {
            Message::Hello { .. } => {
                w.close();
                None
            }
            _ if w.live => Some(w.slot),
            _ => return WorkerInput::Lost(io::ErrorKind::ConnectionReset.into()),
        };
        let Some(event) = Event::from_frame(slot, frame, 0) else {
            return WorkerInput::Lost(io::ErrorKind::InvalidData.into());
        };
        let first = fx.len();
        self.step(event, fx);
        for e in &fx[first..] {
            match e {
                Effect::Registered { msg, worker, epoch } => {
                    if *worker != usize::MAX {
                        let w = &mut self.workers[i];
                        (w.slot, w.epoch, w.live) = (*worker, *epoch, true);
                    }
                    return WorkerInput::Reply(msg.clone());
                }
                Effect::Reply(msg) => return WorkerInput::Reply(msg.clone()),
                _ => {}
            }
        }
        WorkerInput::Lost(io::ErrorKind::UnexpectedEof.into())
    }

    /// Step the machine, counting the `Completed` events it writes.
    fn step(&mut self, event: Event, fx: &mut Vec<Effect>) {
        let out = self.machine.step(event);
        for e in &out {
            if let Effect::Trace(ev) = e {
                let task = ev
                    .task
                    .filter(|_| ev.kind == ic_sim::trace::EventKind::Completed);
                if let Some(c) = task.and_then(|t| self.completions.get_mut(t.index())) {
                    *c += 1;
                }
            }
        }
        fx.extend(out);
    }

    /// `(fleet index, slot, epoch)` of every worker whose connection is
    /// up, as it believes.
    pub(crate) fn live(&self) -> Vec<(usize, usize, u64)> {
        let live = self.workers.iter().enumerate().filter(|(_, w)| w.live);
        live.map(|(i, w)| (i, w.slot, w.epoch)).collect()
    }

    /// Hash of the full interleaved state — the machine's semantic
    /// fingerprint plus every worker. Two states with equal fingerprints
    /// have identical futures, so the explorer's visited set may merge
    /// them.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.machine.fingerprint_into(&mut h);
        for w in &self.workers {
            w.session.fingerprint_into(&mut h);
            (w.slot, w.epoch, w.live, &w.gone).hash(&mut h);
            (w.fails_left, w.severs_left, w.expires_left).hash(&mut h);
        }
        h.finish()
    }

    /// Whether the run is over: the dag completed, and every worker's
    /// run ended with the machine seeing its connection close.
    pub(crate) fn terminal(&self) -> bool {
        self.machine.is_complete()
            && self
                .workers
                .iter()
                .all(|w| matches!(w.wants, Wants::Over) && w.gone.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_sched::heuristics::Policy;

    /// The path only the deployed worker takes: severed while it
    /// computes, it reports, the `done` is lost, it redials with its
    /// token, the `welcome` hands the lease back, and the task completes
    /// once.
    #[test]
    fn a_done_lost_to_a_sever_is_resumed_and_completed_once() {
        let dag = ic_families::trees::complete_out_tree(1, 1);
        let spec = FleetSpec {
            workers: vec![WorkerSpec::v2().severs(1)],
            steal: false,
            batch: 1,
        };
        let policy = Policy::Fifo;
        let mut fleet = Fleet::new(&dag, &policy, &spec, SeededBugs::default());
        let mut act = |a: Action| {
            assert!(fleet.enabled(&spec).contains(&a), "{a} is not enabled");
            fleet.apply(&spec, a);
            let enabled = fleet.enabled(&spec);
            (enabled, fleet.completions[0], fleet.live().len())
        };
        act(Action::Hello(0));
        let (enabled, _, _) = act(Action::Request(0));
        assert_eq!(
            enabled,
            [Action::Done(0, 0, true), Action::Sever(0)],
            "computing t0"
        );
        let (enabled, _, live) = act(Action::Sever(0));
        assert_eq!(live, 0);
        assert_eq!(enabled, [Action::Done(0, 0, true), Action::DeliverGone(0)]);
        let (enabled, done, _) = act(Action::Done(0, 0, true));
        assert_eq!(done, 0, "the done was lost with the connection");
        assert_eq!(enabled, [Action::Resume(0), Action::DeliverGone(0)]);
        let (enabled, _, live) = act(Action::Resume(0));
        assert_eq!(live, 1);
        assert_eq!(
            enabled,
            [Action::Done(0, 0, true), Action::DeliverGone(0)],
            "the welcome restored the lease on t0"
        );
        assert_eq!(act(Action::Done(0, 0, true)).1, 1);
        // The stale close changes nothing; t1 runs, and the run drains.
        for a in [
            Action::DeliverGone(0),
            Action::Request(0),
            Action::Done(0, 1, true),
            Action::Request(0),
            Action::DeliverGone(0),
        ] {
            act(a);
        }
        assert!(fleet.terminal());
        assert_eq!(fleet.completions, [1, 1]);
    }
}
