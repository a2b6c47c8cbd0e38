//! Fleets: the deployed workers the checker interleaves against the
//! deployed server.
//!
//! A [`FleetSpec`] is a small cast of workers with per-worker budgets
//! for the adversary. Each worker is an [`ic_net::WorkerSession`] and
//! the server an [`ic_net::ServerCore`]; the checker is the transport
//! between them: it opens a [`ConnId`] per dial, hands the core each
//! frame as bytes and decodes the replies, so the connection table, the
//! codec, reply routing and the `superseded` refusal are in the search.
//! A transition moves one worker to its next resting point — a `hello`
//! or `request` to send, a compute, the end of its run — with what it
//! does alone on the way (a `done`, a heartbeat round, a sleep's end,
//! the redial after a lost frame).
//!
//! **The frozen clock.** Every step is at `now_us = 0` and the config
//! has `lease_ms = 0`, `backoff_base_ms = 0`, `steal_after_ms = 0`: no
//! timing gates anything, so lease expiry (the core's own
//! [`Deadline::Lease`] firing) and heartbeat rounds are choices taken
//! wherever they could happen. The timers the core asks for are dropped.
//!
//! **Delayed closes, late frames.** The server learns that a connection
//! died only when its poller says so, perhaps after the worker resumed.
//! A sever closes the worker's side only (it learns so as the loss of
//! its next frame, and redials with its token); `deliver-gone` later
//! hands the core [`IoEvent::Closed`], the race the epoch guard is for.
//! With a late budget the frame lost to a sever may still be in flight:
//! `deliver-late` hands it to the core on the replaced connection after
//! the resume, the race the `superseded` refusal is for.

use std::hash::{Hash, Hasher};
use std::io;

use ic_dag::Dag;
use ic_net::machine::SeededBugs;
use ic_net::{
    ConnId, Deadline, Decoder, Effect, Frame, IoEvent, LeaseMachine, Message, Output, ServerConfig,
    ServerCore, Transmit, WorkerConfig, WorkerInput, WorkerSession, WorkerStep,
};
use ic_sched::policy::AllocationPolicy;
use ic_sim::trace::EventKind;

/// One worker of the fleet: its batch appetite, and the adversary's
/// budgets and moves for it.
#[derive(Debug, Clone, Hash)]
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
    /// How many frames lost to a sever may arrive late instead, on the
    /// replaced connection after the resume.
    pub late_budget: u32,
    /// Whether heartbeat rounds are explored (at the frozen clock a
    /// round only matters for learning about a revocation).
    pub heartbeats: bool,
    /// Whether a greedy `request` may go out while it computes (the
    /// forfeit rule; the orphan-on-request seeded bug needs it). The
    /// shipped worker only requests when idle.
    pub request_while_holding: bool,
}

impl WorkerSpec {
    /// A well-behaved worker: no failures, severs, expiries or late
    /// frames.
    pub fn v2() -> Self {
        WorkerSpec {
            max_batch: 1,
            fail_budget: 0,
            sever_budget: 0,
            expire_budget: 0,
            late_budget: 0,
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

    /// Set the late-frame budget (builder style).
    pub fn lates(mut self, n: u32) -> Self {
        self.late_budget = n;
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
    /// the core on [`Action::DeliverGone`].
    Sever(usize),
    /// The core sees worker `i`'s oldest unobserved close.
    DeliverGone(usize),
    /// The frame worker `i` lost to a sever reaches the core, on the
    /// replaced connection, after the resume.
    DeliverLate(usize),
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
            Action::DeliverLate(i) => write!(f, "deliver-late(w{i})"),
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

/// One deployed worker, and its ends of the connections it dialed.
#[derive(Debug, Clone)]
struct Worker {
    session: WorkerSession,
    wants: Wants,
    /// Its connection, while up on its side.
    conn: Option<ConnId>,
    /// The connections it dialed that the core still holds, oldest
    /// first: the up one last, any before it closed on its side only.
    dialed: Vec<ConnId>,
    /// A frame lost to a sever that may yet arrive, and the connection
    /// it was sent on.
    late: Option<(ConnId, Vec<u8>)>,
    /// Its spec, with the adversary's budgets left.
    left: WorkerSpec,
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
            conn: None,
            dialed: Vec::new(),
            late: None,
            left: spec.clone(),
        }
    }
}

/// One state of the interleaved system: the server core plus every
/// worker, plus the per-path completion counts the duplicate-completion
/// invariant watches.
#[derive(Clone)]
pub(crate) struct Fleet<'a, 'd> {
    /// The server under test.
    core: ServerCore<'a, 'd>,
    workers: Vec<Worker>,
    /// `Completed` trace events seen per task along this path.
    pub(crate) completions: Vec<u32>,
    /// Machine fingerprints around the last `deliver-late` (IC0508).
    pub(crate) late_step: Option<(u64, u64)>,
    /// The next connection's id (never hashed: raw ids are not state).
    next_conn: ConnId,
}

impl<'a, 'd> Fleet<'a, 'd> {
    /// Boot a fleet against a fresh server (the header is written
    /// immediately: the checker runs without a registration barrier).
    pub(crate) fn new(
        dag: &'d Dag,
        policy: &'a dyn AllocationPolicy,
        spec: &FleetSpec,
        bugs: SeededBugs,
    ) -> Fleet<'a, 'd> {
        let mut machine = LeaseMachine::new(dag, policy, spec.server_config());
        machine.seed_bugs(bugs);
        let mut core = ServerCore::new(machine, 0);
        core.boot(0);
        core.out = Output::default();
        let workers = spec.workers.iter().enumerate();
        let mut fleet = Fleet {
            core,
            workers: workers.map(|(i, w)| Worker::new(i, w)).collect(),
            completions: vec![0; dag.num_nodes()],
            late_step: None,
            next_conn: 0,
        };
        for i in 0..spec.workers.len() {
            fleet.run(i, WorkerInput::Next, &mut Vec::new());
        }
        fleet
    }

    /// The lease machine inside the core.
    pub(crate) fn machine(&self) -> &LeaseMachine<'a, 'd> {
        self.core.machine()
    }

    /// Every action enabled in this state, in a fixed deterministic
    /// order. Hellos are serialized (worker `i` registers only after
    /// `0..i` did) — a symmetry reduction over the interchangeable slot
    /// assignment.
    pub(crate) fn enabled(&self) -> Vec<Action> {
        let mut acts = Vec::new();
        let mut fresh_seen = false;
        for (i, w) in self.workers.iter().enumerate() {
            let fresh = matches!(w.wants, Wants::Frame(Message::Hello { resume: None, .. }));
            match w.wants {
                Wants::Frame(Message::Hello { resume: None, .. }) if fresh_seen => {}
                Wants::Frame(Message::Hello { resume: None, .. }) => acts.push(Action::Hello(i)),
                Wants::Frame(Message::Hello { .. }) => acts.push(Action::Resume(i)),
                Wants::Frame(_) => acts.push(Action::Request(i)),
                Wants::Compute(t) => {
                    if w.left.request_while_holding && w.conn.is_some() {
                        acts.push(Action::Request(i));
                    }
                    acts.push(Action::Done(i, t, true));
                    if w.left.fail_budget > 0 {
                        acts.push(Action::Done(i, t, false));
                    }
                    if w.left.heartbeats {
                        acts.push(Action::Beat(i));
                    }
                }
                Wants::Over => {}
            }
            fresh_seen |= fresh;
            if w.conn.is_some() && w.left.sever_budget > 0 {
                acts.push(Action::Sever(i));
            }
            if w.dialed.iter().any(|&c| Some(c) != w.conn) {
                acts.push(Action::DeliverGone(i));
            }
            if let Some((c, _)) = &w.late {
                let resumed = w.conn.is_some_and(|up| up != *c);
                if resumed && self.core.registration(*c).is_some() {
                    acts.push(Action::DeliverLate(i));
                }
            }
            if let Some(slot) = self.slot(i).filter(|_| w.left.expire_budget > 0) {
                for l in self.machine().lease_views() {
                    if l.worker == slot {
                        acts.push(Action::Expire(i, l.task.index() as u64));
                    }
                }
            }
        }
        acts
    }

    /// Apply one action and return what the core did, in order — its
    /// trace, and every frame it sent as an [`Effect::Reply`] — for
    /// the caller's invariant scan.
    pub(crate) fn apply(&mut self, a: Action) -> Vec<Effect> {
        let mut fx = Vec::new();
        self.late_step = None;
        match a {
            Action::Hello(i) | Action::Resume(i) | Action::Request(i) => {
                match std::mem::replace(&mut self.workers[i].wants, Wants::Over) {
                    Wants::Frame(frame) => {
                        let reply = self.send(i, frame, &mut fx);
                        self.run(i, reply, &mut fx);
                    }
                    // A greedy request: the worker computes on, and
                    // what the core answers reaches no one.
                    wants => {
                        self.workers[i].wants = wants;
                        let max = self.workers[i].left.max_batch;
                        self.send(i, Message::Request { max }, &mut fx);
                    }
                }
            }
            Action::Done(i, _, ok) => {
                self.workers[i].left.fail_budget -= u32::from(!ok);
                self.run(i, WorkerInput::Outcome(ok), &mut fx);
            }
            Action::Beat(i) => self.run(i, WorkerInput::Next, &mut fx),
            Action::Sever(i) => {
                self.workers[i].left.sever_budget -= 1;
                self.workers[i].conn = None;
            }
            Action::DeliverGone(i) => {
                let w = &self.workers[i];
                if let Some(&c) = w.dialed.iter().find(|&&c| Some(c) != w.conn) {
                    self.core.on_io(0, IoEvent::Closed(c));
                    self.collect(None, &mut fx);
                }
            }
            Action::DeliverLate(i) => {
                if let Some((c, bytes)) = self.workers[i].late.take() {
                    let before = self.machine().fingerprint();
                    self.core.on_io(0, IoEvent::Data(c, bytes));
                    self.collect(None, &mut fx);
                    self.late_step = Some((before, self.machine().fingerprint()));
                }
            }
            Action::Expire(i, task) => {
                self.workers[i].left.expire_budget -= 1;
                if let Some(worker) = self.slot(i) {
                    self.core.on_deadline(0, Deadline::Lease { worker, task });
                    self.collect(None, &mut fx);
                }
            }
        }
        fx
    }

    /// Feed worker `i`'s session `input` and carry out its steps until it
    /// rests: at a `hello` or `request` to send, a compute, or its end.
    /// The frames in between (a `done`, a heartbeat round) reach the
    /// core in this transition, and a sleep ends at once: the clock is
    /// frozen.
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
                    self.workers[i].conn = None;
                    return;
                }
                WorkerStep::SleepUntil(_) => WorkerInput::Next,
                WorkerStep::Send(frame) => self.send(i, frame, fx),
            };
            step = self.workers[i].session.step(input, 0);
        }
    }

    /// Send worker `i`'s frame to the core as bytes, and return what
    /// the worker reads back: the reply, or the loss of its connection.
    /// A `hello` dials a new connection (closing its side of any open
    /// one); any other frame needs the open one up, and is otherwise
    /// lost, or held for a late delivery.
    fn send(&mut self, i: usize, frame: Message, fx: &mut Vec<Effect>) -> WorkerInput {
        let mut bytes = Vec::new();
        Frame::encode_into(&frame, &mut bytes);
        let w = &mut self.workers[i];
        let conn = match (frame, w.conn) {
            (Message::Hello { .. }, _) => {
                let id = self.next_conn;
                self.next_conn += 1;
                w.conn = Some(id);
                w.dialed.push(id);
                self.core.on_io(0, IoEvent::Open(id));
                id
            }
            (_, Some(id)) => id,
            // Sent on the connection severed under it, which the core
            // may still hold: lost, or in flight if the budget allows.
            (_, None) => {
                if let Some(&c) = w.dialed.last().filter(|_| w.left.late_budget > 0) {
                    (w.late, w.left.late_budget) = (Some((c, bytes)), w.left.late_budget - 1);
                }
                return WorkerInput::Lost(io::ErrorKind::ConnectionReset.into());
            }
        };
        self.core.on_io(0, IoEvent::Data(conn, bytes));
        match self.collect(Some(conn), fx) {
            Some(reply) => WorkerInput::Reply(reply),
            None => WorkerInput::Lost(io::ErrorKind::UnexpectedEof.into()),
        }
    }

    /// Take what the core's last call produced: its trace into `fx`,
    /// counting the `Completed` events, and every frame decoded into
    /// `fx` as a reply (a send's range may hold several frames), the
    /// first one sent on `conn` returned. A
    /// connection the core closed leaves its worker's list (and, if it
    /// was up, the worker learns so on its next frame).
    fn collect(&mut self, conn: Option<ConnId>, fx: &mut Vec<Effect>) -> Option<Message> {
        let out = std::mem::take(&mut self.core.out);
        let (mut reply, mut dec) = (None, Decoder::new());
        for t in &out.transmit {
            if let Transmit::Send(id, range) = t {
                dec.feed(&out.bytes[range.clone()]);
                while let Some(msg) = dec.next_msg().ok().flatten() {
                    if reply.is_none() && Some(*id) == conn {
                        reply = Some(msg.clone());
                    }
                    fx.push(Effect::Reply(msg));
                }
            }
        }
        fx.extend(out.header.map(Effect::Header));
        for ev in out.trace {
            let done = ev.task.filter(|_| ev.kind == EventKind::Completed);
            if let Some(n) = done.and_then(|t| self.completions.get_mut(t.index())) {
                *n += 1;
            }
            fx.push(Effect::Trace(ev));
        }
        let core = &self.core;
        for w in &mut self.workers {
            w.dialed.retain(|&c| core.registration(c).is_some());
            w.conn = w.conn.filter(|&c| core.registration(c).is_some());
        }
        reply
    }

    /// The slot worker `i` registered in, found by its id.
    fn slot(&self, i: usize) -> Option<usize> {
        let (m, id) = (self.machine(), format!("w{i}"));
        (0..m.num_workers()).find(|&s| m.worker_id(s) == Some(id.as_str()))
    }

    /// `(fleet index, slot, epoch)` of every worker whose connection is
    /// up, as the core registered that connection.
    pub(crate) fn live(&self) -> Vec<(usize, usize, u64)> {
        let reg = |(i, w): (usize, &Worker)| Some((i, self.core.registration(w.conn?)?));
        let up = self.workers.iter().enumerate().filter_map(reg);
        up.map(|(i, (slot, epoch))| (i, slot, epoch)).collect()
    }

    /// Hash of the full interleaved state — the machine's semantic
    /// fingerprint plus every worker, with the core's side of each of
    /// its connections (its registration) by the connection's place in
    /// the worker's list, not its raw id. The wait rule's bookkeeping
    /// (`owed`, `held`, `assigned_us`, `fast`) decides no reply and is
    /// left out. Two states with equal fingerprints have identical
    /// futures, so the explorer's visited set may merge them.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.machine().fingerprint_into(&mut h);
        for w in &self.workers {
            w.session.fingerprint_into(&mut h);
            w.dialed.len().hash(&mut h);
            for &c in &w.dialed {
                (Some(c) == w.conn, self.core.registration(c)).hash(&mut h);
            }
            let late = w.late.as_ref();
            late.map(|(c, bytes)| (w.dialed.iter().position(|d| d == c), bytes))
                .hash(&mut h);
            w.left.hash(&mut h);
        }
        h.finish()
    }

    /// Whether the run is over: the dag completed, and every worker's
    /// run ended with the core holding none of its connections.
    pub(crate) fn terminal(&self) -> bool {
        self.machine().is_complete()
            && self
                .workers
                .iter()
                .all(|w| matches!(w.wants, Wants::Over) && w.dialed.is_empty())
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
            assert!(fleet.enabled().contains(&a), "{a} is not enabled");
            fleet.apply(a);
            let enabled = fleet.enabled();
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
        // The stale close changes nothing; t1 runs, and the run drains:
        // the core closes the drained connection itself.
        for a in [
            Action::DeliverGone(0),
            Action::Request(0),
            Action::Done(0, 1, true),
            Action::Request(0),
        ] {
            act(a);
        }
        assert!(fleet.terminal());
        assert_eq!(fleet.completions, [1, 1]);
    }

    /// PR 29's schedule, on the core: a `done` lost to a sever is still
    /// in flight when the worker resumes; delivered late on the replaced
    /// connection, it is refused as superseded and changes nothing, and
    /// the resumed worker's own `done` completes the task once.
    #[test]
    fn a_late_frame_on_a_replaced_connection_changes_nothing() {
        let dag = ic_families::trees::complete_out_tree(1, 1);
        let spec = FleetSpec {
            workers: vec![WorkerSpec::v2().severs(1).lates(1)],
            steal: false,
            batch: 1,
        };
        let policy = Policy::Fifo;
        let mut fleet = Fleet::new(&dag, &policy, &spec, SeededBugs::default());
        for a in [
            Action::Hello(0),
            Action::Request(0),
            Action::Sever(0),
            Action::Done(0, 0, true),
            Action::Resume(0),
        ] {
            assert!(fleet.enabled().contains(&a), "{a} is not enabled");
            fleet.apply(a);
        }
        let enabled = fleet.enabled();
        assert!(enabled.contains(&Action::DeliverLate(0)), "{enabled:?}");
        let fx = fleet.apply(Action::DeliverLate(0));
        let refused = Message::error("connection superseded by a resume");
        assert_eq!(fx, [Effect::Reply(refused)]);
        let (before, after) = fleet.late_step.expect("a late step");
        assert_eq!(before, after);
        assert_eq!(fleet.completions, [0, 0]);
        assert!(!fleet.enabled().contains(&Action::DeliverGone(0)));
        fleet.apply(Action::Done(0, 0, true));
        assert_eq!(fleet.completions, [1, 0]);
    }

    /// The pinned `deliver-late` row: mesh:3 x 2, one worker with a
    /// sever and a late frame to spend. Clean and exhaustive; the late
    /// frame more than doubles the states of the same fleet without it.
    #[test]
    fn the_deliver_late_row_is_clean_and_exhaustive() {
        let mesh = ic_families::mesh::out_mesh(3);
        let counts = |lates| {
            let spec = FleetSpec {
                workers: vec![WorkerSpec::v2().severs(1).lates(lates), WorkerSpec::v2()],
                steal: false,
                batch: 1,
            };
            let cfg = crate::CheckConfig::default();
            let outcome = crate::check(&mesh, &Policy::Fifo, &spec, &cfg, SeededBugs::default());
            assert!(outcome.is_clean(), "late budget {lates}");
            let s = outcome.stats();
            let (states, transitions, pruned) = (s.states, s.transitions, s.visited_pruned);
            let exhaustive = s.exhaustive();
            (
                states,
                transitions,
                pruned,
                s.complete_runs,
                s.deepest,
                exhaustive,
            )
        };
        assert_eq!(counts(0), (792, 1_979, 1_188, 6, 21, true));
        assert_eq!(counts(1), (1_956, 5_010, 3_055, 30, 21, true));
    }
}
