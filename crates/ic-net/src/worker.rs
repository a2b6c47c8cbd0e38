//! The worker client: the volatile remote "client" of the paper.
//!
//! A worker comes in two halves, split at the compute. The public
//! [`WorkerSession`] is the protocol: register, resume (falling back to
//! a fresh `hello` on `bad-resume`), request when idle, obey `wait` and
//! `drain`, heartbeat every held lease in rounds, drop a revoked task
//! and redial a lost connection. It asks for each compute with
//! [`WorkerStep::Compute`] and reports the [`WorkerInput::Outcome`] it
//! is answered with; `ic-check` steps it as it is, choosing every
//! outcome and every round. The crate-private service half,
//! `WorkerMachine`, answers those computes for the crate's drivers: it
//! draws a task's compute time and the [`FaultPlan`]'s verdict when the
//! compute starts, and sleeps it in naps of a third of the lease, each
//! followed by a heartbeat round, so a slow but healthy worker is never
//! taken for a dead one. Neither half owns a clock, socket or sleep:
//! time arrives as `now_us`, and each [`WorkerInput`] is answered with
//! one [`WorkerStep`]. The drivers are [`run_worker`] over TCP and
//! [`LoopbackWorker`] on in-process loopback connections, which the
//! `net` bench runs by the thousand on a few threads and `ic-fed`'s
//! in-process federation runs on virtual time.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::io;
use std::net::ToSocketAddrs;
use std::time::{Duration, Instant};

use ic_dag::rng::XorShift64;

use crate::reactor::{LoopbackConn, LoopbackHandle};
use crate::wire::{Conn, Message, ERR_BAD_RESUME, PROTO_CURRENT};

/// How (whether) a worker misbehaves — the `--flaky` fault-injection
/// surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlan {
    /// Reliable: computes every task and reports honestly.
    None,
    /// Before each task's report, dies with this probability (drops the
    /// connection without reporting, losing the work).
    Random(f64),
    /// Completes this many tasks, then dies on the next assignment.
    DieAfter(usize),
    /// Completes this many tasks, then holds its next task silently
    /// until the lease is long gone — the failure leases exist for.
    StallAfter(usize),
    /// Completes this many tasks, then severs its connection holding an
    /// assignment and resumes with `hello{resume}`, once.
    SeverAfter(usize),
    /// Computes every task, then reports it failed (`done{ok:false}`)
    /// with this probability: the honest failure the server reallocates
    /// through its backoff.
    Fail(f64),
}

/// Worker identity and behaviour. Construct with
/// [`WorkerConfig::builder`] (the struct is `#[non_exhaustive]`: new
/// knobs may appear without a breaking change).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct WorkerConfig {
    /// Display id sent at registration (recorded in the trace header).
    pub id: String,
    /// Declared speed factor: compute time is divided by this.
    pub speed: f64,
    /// Mean simulated compute per task, in milliseconds.
    pub mean_ms: u64,
    /// Fault injection plan.
    pub fault: FaultPlan,
    /// Seed for the worker's private jitter/fault randomness.
    pub seed: u64,
    /// Batch appetite: the `max` sent with each `request` (clamped
    /// to at least 1).
    pub batch: u64,
    /// Crash-restart retry interval, in milliseconds. When non-zero, a
    /// transport failure mid-run (a server crash) makes the worker
    /// redial every `retry_ms` for up to 10 s with its resume token,
    /// which a trace-recovered server honors during its recovery
    /// window; a `bad-resume` refusal falls back to fresh registration.
    /// `0` (the default): a dead server ends the worker with the error.
    pub retry_ms: u64,
}

/// Total redial budget of the crash-restart retry loop (see
/// [`WorkerConfig::retry_ms`]).
const RETRY_TOTAL_MS: u64 = 10_000;

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            id: "worker".into(),
            speed: 1.0,
            mean_ms: 10,
            fault: FaultPlan::None,
            seed: 1,
            batch: 1,
            retry_ms: 0,
        }
    }
}

impl WorkerConfig {
    /// A builder starting from [`WorkerConfig::default`].
    pub fn builder() -> WorkerConfigBuilder {
        WorkerConfigBuilder {
            cfg: WorkerConfig::default(),
        }
    }
}

/// Builder for [`WorkerConfig`]; every knob defaults as in
/// [`WorkerConfig::default`].
#[derive(Debug, Clone)]
pub struct WorkerConfigBuilder {
    cfg: WorkerConfig,
}

impl WorkerConfigBuilder {
    /// Display id sent at registration.
    pub fn id(mut self, id: impl Into<String>) -> Self {
        self.cfg.id = id.into();
        self
    }

    /// Declared speed factor.
    pub fn speed(mut self, speed: f64) -> Self {
        self.cfg.speed = speed;
        self
    }

    /// Mean simulated compute per task, in milliseconds.
    pub fn mean_ms(mut self, ms: u64) -> Self {
        self.cfg.mean_ms = ms;
        self
    }

    /// Fault injection plan.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.cfg.fault = fault;
        self
    }

    /// Jitter/fault seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Batch appetite (clamped to at least 1).
    pub fn batch(mut self, batch: u64) -> Self {
        self.cfg.batch = batch.max(1);
        self
    }

    /// Crash-restart retry interval in milliseconds (0 disables).
    pub fn retry(mut self, ms: u64) -> Self {
        self.cfg.retry_ms = ms;
        self
    }

    /// Finish the build.
    pub fn build(self) -> WorkerConfig {
        self.cfg
    }
}

/// What a worker did before disconnecting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct WorkerReport {
    /// The index the server assigned this worker (the `client` field of
    /// its trace events).
    pub worker: u64,
    /// Tasks completed and accepted.
    pub completed: usize,
    /// Successful resumes: connections re-established with the resume
    /// token, leases intact.
    pub resumes: usize,
    /// True when the worker exited through its fault plan rather than a
    /// server `Drain`.
    pub died: bool,
}

/// What a driver does next for a worker; every step but the last two
/// ends with an input fed back to the step function.
#[derive(Debug)]
pub enum WorkerStep {
    /// Open a new connection, send this `hello` on it, and feed back
    /// the reply. An open connection closes once the new one is up.
    Dial(Message),
    /// Send this frame on the open connection; feed back its reply.
    Send(Message),
    /// Sleep until the clock reads this many µs, then feed back `Next`.
    SleepUntil(u64),
    /// Compute the front held task and feed back its `Outcome`, or feed
    /// back `Next` midway for a heartbeat round. Only a
    /// [`WorkerSession`] asks: the service half computes for itself.
    Compute {
        /// The task to compute.
        task: u64,
    },
    /// Close the connection without a word, then feed back `Next`. Only
    /// the service half's fault plans hang up.
    HangUp,
    /// The run is over: say `bye` on the open connection, if there is
    /// one, close it, and return the report.
    Finish(WorkerReport),
    /// The run failed: close the connection and return the error.
    Fail(io::Error),
}

/// What a driver feeds back into a worker's step function.
#[derive(Debug)]
pub enum WorkerInput {
    /// Nothing to report: the run starts, a sleep or hang-up is done,
    /// or a compute is due a heartbeat round.
    Next,
    /// The reply to the last `Dial` or `Send`.
    Reply(Message),
    /// The last `Dial` or `Send` failed: connect, write, read or decode.
    Lost(io::Error),
    /// The last `Compute` ended, and its `done` says this `ok`.
    Outcome(bool),
}

/// Where a [`WorkerSession`] is: what its last step asked for.
#[derive(Debug, Clone, Hash)]
enum Phase {
    /// Registering, resuming with the token or not: on `Next`, dial;
    /// then the `welcome`. The deadline (µs) bounds a crash-restart
    /// redial.
    Hello(bool, Option<u64>),
    /// Idle: on `Next`, request; then the `assign`, `wait` or `drain`.
    Request,
    /// Computing the front task: its outcome, or `Next` for a round.
    Compute(u64),
    /// Awaiting the `ack` (or `revoke`) of `held[i]`'s heartbeat.
    Beat(usize),
    /// Awaiting the `ack` of a `done` that said `ok`.
    Done(bool),
    /// Finished, failed, or handed off mid-step.
    Over,
}

/// The protocol half of a worker: every decision of a run except how
/// long a compute takes and how it ends. Feed [`WorkerInput::Next`]
/// first, then what each [`WorkerStep`] came to, with the time it came
/// to it; answer each `Compute` with an `Outcome` (or with `Next` for a
/// heartbeat round over every held lease, after which it asks for the
/// compute again).
#[derive(Debug, Clone)]
pub struct WorkerSession {
    cfg: WorkerConfig,
    phase: Phase,
    /// The tallies so far, and the worker index of the last `welcome`.
    report: WorkerReport,
    /// The last `welcome`'s lease interval and resume token.
    lease_ms: u64,
    token: Option<String>,
    /// Leased tasks in assignment order; the front one is computing.
    held: VecDeque<u64>,
}

impl WorkerSession {
    /// A worker that registers on its first step. Of `cfg` it reads the
    /// id, speed, batch and retry interval.
    pub fn new(cfg: &WorkerConfig) -> WorkerSession {
        WorkerSession {
            cfg: cfg.clone(),
            phase: Phase::Hello(false, None),
            report: WorkerReport::default(),
            lease_ms: 0,
            token: None,
            held: VecDeque::new(),
        }
    }

    /// Take what the driver saw at `now_us`; answer with the next step.
    pub fn step(&mut self, input: WorkerInput, now_us: u64) -> WorkerStep {
        use {Message as M, WorkerInput::Next, WorkerInput::Reply};
        match (std::mem::replace(&mut self.phase, Phase::Over), input) {
            (Phase::Hello(resume, deadline), Next) => self.dial(resume, deadline),
            (
                Phase::Hello(resumed, _),
                Reply(M::Welcome {
                    worker,
                    lease_ms,
                    resume,
                    tasks,
                    ..
                }),
            ) => {
                self.report.resumes += usize::from(resumed);
                (self.report.worker, self.lease_ms, self.token) = (worker, lease_ms, resume);
                self.held = tasks.into();
                self.next()
            }
            // The restarted server's recovery window closed: register afresh.
            (Phase::Hello(true, Some(deadline)), Reply(M::Error { code, .. }))
                if code == ERR_BAD_RESUME =>
            {
                self.dial(false, Some(deadline))
            }
            (Phase::Hello(resume, Some(deadline)), input) => {
                if now_us >= deadline {
                    return WorkerStep::Fail(refusal("welcome", input));
                }
                self.phase = Phase::Hello(resume, Some(deadline));
                WorkerStep::SleepUntil(after(now_us, self.cfg.retry_ms.max(1)))
            }
            (Phase::Request, Next) => self.next(),
            (Phase::Request, Reply(M::Assign { tasks })) => {
                self.held.extend(tasks);
                self.next()
            }
            (Phase::Request, Reply(M::Wait { ms })) => {
                self.phase = Phase::Request;
                WorkerStep::SleepUntil(after(now_us, ms.max(1)))
            }
            (Phase::Request, Reply(M::Drain)) => WorkerStep::Finish(self.report.clone()),
            (Phase::Compute(task), WorkerInput::Outcome(ok)) => {
                self.held.pop_front();
                self.phase = Phase::Done(ok);
                WorkerStep::Send(M::Done { task, ok })
            }
            (Phase::Compute(_), Next) => self.beat(0),
            (Phase::Beat(i), Reply(M::Ack { .. })) => self.beat(i + 1),
            (Phase::Beat(i), Reply(M::Revoke { task })) if self.held.get(i) == Some(&task) => {
                self.held.remove(i);
                self.beat(i)
            }
            (Phase::Done(ok), Reply(M::Ack { accepted, .. })) => {
                self.report.completed += usize::from(ok && accepted);
                self.next()
            }
            (phase, input) => {
                let wants = match phase {
                    Phase::Hello(..) => "welcome",
                    Phase::Request => "assign, wait or drain",
                    Phase::Beat(_) | Phase::Done(_) => "ack",
                    Phase::Compute(_) | Phase::Over => "no reply",
                };
                self.fail(refusal(wants, input), now_us)
            }
        }
    }

    /// Hash what decides the session's future: its phase, which names
    /// the frame awaiting a reply, its held tasks, and whether it has a
    /// resume token. The token's bytes and the report's tallies are
    /// left out.
    pub fn fingerprint_into(&self, h: &mut impl Hasher) {
        (&self.phase, &self.held, self.token.is_some()).hash(h);
    }

    /// Register: `hello` on a new connection, with the token if resuming.
    fn dial(&mut self, resume: bool, deadline: Option<u64>) -> WorkerStep {
        self.phase = Phase::Hello(resume, deadline);
        WorkerStep::Dial(Message::Hello {
            id: self.cfg.id.clone(),
            speed: self.cfg.speed,
            proto: PROTO_CURRENT,
            resume: self.token.clone().filter(|_| resume),
        })
    }

    /// Compute the front task, or request work when idle.
    fn next(&mut self) -> WorkerStep {
        match self.held.front() {
            Some(&task) => {
                self.phase = Phase::Compute(task);
                WorkerStep::Compute { task }
            }
            None => {
                self.phase = Phase::Request;
                let max = self.cfg.batch.max(1);
                WorkerStep::Send(Message::Request { max })
            }
        }
    }

    /// Heartbeat `held[i..]`, then compute on: the front task again,
    /// or the next one if a `revoke` took it (abandoned unreported).
    fn beat(&mut self, i: usize) -> WorkerStep {
        match self.held.get(i) {
            Some(&task) => {
                self.phase = Phase::Beat(i);
                WorkerStep::Send(Message::Heartbeat { task })
            }
            None => self.next(),
        }
    }

    /// A broken session: with a retry interval and a resume token,
    /// redial at once, then every `retry_ms` for up to
    /// [`RETRY_TOTAL_MS`] (a recovered server matches the token during
    /// its recovery window); otherwise the run ends with `e`.
    fn fail(&mut self, e: io::Error, now_us: u64) -> WorkerStep {
        if self.token.is_some() && self.cfg.retry_ms > 0 {
            return self.dial(true, Some(after(now_us, RETRY_TOTAL_MS)));
        }
        WorkerStep::Fail(e)
    }
}

/// A compute under way: its task, the µs left after the current nap,
/// and whether its `done` will say `ok`.
#[derive(Debug, Clone, Copy)]
struct Job {
    task: u64,
    left: u64,
    ok: bool,
}

/// The service half of a worker: a [`WorkerSession`] whose computes it
/// carries out itself. A task's compute starts with the [`FaultPlan`]'s
/// verdict and a jittered length, both drawn from the worker's seed, and
/// runs as naps of at most a third of the lease, each followed by the
/// session's heartbeat round. It never answers with
/// [`WorkerStep::Compute`].
#[derive(Debug)]
pub(crate) struct WorkerMachine {
    session: WorkerSession,
    fault: FaultPlan,
    rng: XorShift64,
    /// The front task's compute, from its draw to its outcome; it lasts
    /// across the heartbeat rounds in between, so a `Next` while it is
    /// under way ends one of its naps.
    job: Option<Job>,
    /// Whether the fault plan ended the run: `Next` finishes it.
    dead: bool,
}

impl WorkerMachine {
    /// A worker that registers on its first step.
    pub(crate) fn new(cfg: &WorkerConfig) -> WorkerMachine {
        WorkerMachine {
            session: WorkerSession::new(cfg),
            fault: cfg.fault,
            rng: XorShift64::new(cfg.seed),
            job: None,
            dead: false,
        }
    }

    /// Take what the driver saw at `now_us`; answer with the next step.
    pub(crate) fn step(&mut self, input: WorkerInput, now_us: u64) -> WorkerStep {
        if self.dead {
            self.session.report.died = true;
            return WorkerStep::Finish(self.session.report.clone());
        }
        let input = match (input, self.job) {
            (WorkerInput::Next, Some(job)) if job.left == 0 => {
                self.job = None;
                WorkerInput::Outcome(job.ok)
            }
            (input, _) => input,
        };
        match self.session.step(input, now_us) {
            WorkerStep::Compute { task } => self.compute(task, now_us),
            step @ WorkerStep::Send(Message::Heartbeat { .. }) => step,
            step => {
                self.job = None;
                step
            }
        }
    }

    /// Compute `task`: on, if it is the job a heartbeat round broke off;
    /// otherwise act on the fault plan, and start it unless the plan
    /// says otherwise.
    fn compute(&mut self, task: u64, now_us: u64) -> WorkerStep {
        if let Some(job) = self.job.take().filter(|job| job.task == task) {
            return self.work(job, now_us);
        }
        let completed = self.session.report.completed;
        let ok = match self.fault {
            FaultPlan::Random(p) if self.rng.gen_bool(p) => return self.die(),
            FaultPlan::DieAfter(k) if completed >= k => return self.die(),
            FaultPlan::StallAfter(k) if completed >= k => {
                // Silent for four lease intervals, then `bye`.
                self.dead = true;
                let stall = self.session.lease_ms.saturating_mul(4);
                return WorkerStep::SleepUntil(after(now_us, stall));
            }
            FaultPlan::SeverAfter(k) if completed >= k => {
                // Once, without a word: the leases wait for the resume.
                // Without a token to resume with, it is a death.
                self.fault = FaultPlan::None;
                return match self.session.token {
                    Some(_) => self.session.dial(true, None),
                    None => self.die(),
                };
            }
            FaultPlan::Fail(p) => !self.rng.gen_bool(p),
            _ => true,
        };
        let cfg = &self.session.cfg;
        let jitter = 0.5 + self.rng.gen_f64(); // U[0.5, 1.5)
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "a compute time saturates: negative or NaN reads 0, past u64::MAX reads u64::MAX"
        )]
        let ms = ((cfg.mean_ms as f64) * jitter / cfg.speed).round() as u64;
        let left = ms.saturating_mul(1000);
        self.work(Job { task, left, ok }, now_us)
    }

    /// Compute on: sleep to the next heartbeat round (every third of
    /// the lease, in µs so a 1 ms lease still beats before its
    /// deadline) if it comes first, else to the end of the compute.
    fn work(&mut self, job: Job, now_us: u64) -> WorkerStep {
        let beat_us = (self.session.lease_ms.saturating_mul(1000) / 3).max(1);
        let nap = job.left.min(beat_us);
        self.job = Some(Job {
            left: job.left - nap,
            ..job
        });
        WorkerStep::SleepUntil(now_us.saturating_add(nap))
    }

    /// Drop the connection mid-lease: the lease's expiry reallocates.
    fn die(&mut self) -> WorkerStep {
        self.dead = true;
        WorkerStep::HangUp
    }
}

/// `ms` milliseconds after `now_us`.
fn after(now_us: u64, ms: u64) -> u64 {
    now_us.saturating_add(ms.saturating_mul(1000))
}

/// Why a phase awaiting `wants` cannot go on with `input`: a transport
/// error as it came, an `error` frame's own text, or what came instead.
fn refusal(wants: &str, input: WorkerInput) -> io::Error {
    io::Error::other(match input {
        WorkerInput::Lost(e) => return e,
        WorkerInput::Reply(Message::Error { code, msg }) if code.is_empty() => msg,
        WorkerInput::Reply(Message::Error { code, msg }) => format!("{code}: {msg}"),
        WorkerInput::Reply(other) => format!("expected {wants}, got {other:?}"),
        WorkerInput::Next => format!("expected {wants}, got nothing"),
        WorkerInput::Outcome(_) => format!("expected {wants}, got an outcome"),
    })
}

/// Connect to `addr`, register, and work until drained or until the
/// fault plan kills the worker: the TCP driver of the worker machine.
/// A worker that dies *by plan* returns `Ok` with `died = true`; only
/// transport and protocol errors are `Err` (with
/// [`WorkerConfig::retry_ms`] set, a lost connection is a server crash
/// first: see [`crate::recovery`]).
pub fn run_worker(addr: impl ToSocketAddrs, cfg: &WorkerConfig) -> io::Result<WorkerReport> {
    let start = Instant::now();
    let now_us = || u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let mut machine = WorkerMachine::new(cfg);
    let mut conn: Option<Conn> = None;
    let mut input = WorkerInput::Next;
    loop {
        input = match machine.step(input, now_us()) {
            WorkerStep::Dial(hello) => match Conn::connect(&addr) {
                Ok(c) => exchange(conn.insert(c), &hello),
                Err(e) => WorkerInput::Lost(e),
            },
            WorkerStep::Send(msg) => match conn.as_mut() {
                Some(c) => exchange(c, &msg),
                None => WorkerInput::Lost(io::ErrorKind::NotConnected.into()),
            },
            WorkerStep::SleepUntil(t) => {
                std::thread::sleep(Duration::from_micros(t.saturating_sub(now_us())));
                WorkerInput::Next
            }
            WorkerStep::HangUp => {
                conn = None;
                WorkerInput::Next
            }
            WorkerStep::Finish(report) => {
                let _ = conn.map(|mut c| c.send(&Message::Bye));
                return Ok(report);
            }
            WorkerStep::Fail(e) => return Err(e),
            // (The service computes for itself.)
            WorkerStep::Compute { .. } => return Err(io::ErrorKind::Unsupported.into()),
        }
    }
}

/// Send `msg` and block for its one reply.
fn exchange(conn: &mut Conn, msg: &Message) -> WorkerInput {
    match conn.send(msg).and_then(|()| conn.recv()) {
        Ok(reply) => WorkerInput::Reply(reply),
        Err(e) => WorkerInput::Lost(e),
    }
}

/// One worker on in-process [`LoopbackConn`]s: the loopback driver of
/// the machine [`run_worker`] drives over TCP. It never blocks and
/// reads no clock: the caller passes the time in and sleeps (or jumps
/// a virtual clock) to [`wake_us`](LoopbackWorker::wake_us) itself, so
/// one thread can drive a whole fleet beside the reactors it talks to.
pub struct LoopbackWorker {
    machine: WorkerMachine,
    /// The poller every `hello` dials.
    handle: LoopbackHandle,
    conn: Option<LoopbackConn>,
    /// When its sleep ends (`None` while a reply is due).
    wake_us: Option<u64>,
}

impl LoopbackWorker {
    /// A worker that dials `handle`'s poller on its first advance.
    pub fn new(cfg: &WorkerConfig, handle: LoopbackHandle) -> LoopbackWorker {
        LoopbackWorker {
            machine: WorkerMachine::new(cfg),
            handle,
            conn: None,
            wake_us: Some(0),
        }
    }

    /// When the worker's sleep ends, in µs; `None` while a reply is due.
    pub fn wake_us(&self) -> Option<u64> {
        self.wake_us
    }

    /// Feed the machine everything it can take at `now_us` — a due
    /// wake, every arrived reply, the loss of its connection — and carry
    /// out each step it answers with. Returns whether anything moved and
    /// whether the run goes on. A run's end, and its errors, are part of
    /// the worker's fault model, not the caller's: its connection is
    /// dropped, which closes it as a `bye` would.
    pub fn advance(&mut self, now_us: u64) -> (bool, bool) {
        let mut moved = false;
        loop {
            let Some(input) = self.input(now_us) else {
                return (moved, true);
            };
            (moved, self.wake_us) = (true, None);
            let frame = match self.machine.step(input, now_us) {
                WorkerStep::Dial(hello) => {
                    self.conn = Some(self.handle.connect());
                    hello
                }
                WorkerStep::Send(msg) => msg,
                WorkerStep::SleepUntil(t) => {
                    self.wake_us = Some(t);
                    continue;
                }
                WorkerStep::HangUp => {
                    (self.conn, self.wake_us) = (None, Some(now_us));
                    continue;
                }
                // (The service computes for itself.)
                WorkerStep::Finish(_) | WorkerStep::Fail(_) | WorkerStep::Compute { .. } => break,
            };
            // A loopback send fails only once the poller is gone.
            if self.conn.as_ref().is_none_or(|c| c.send(&frame).is_err()) {
                break;
            }
        }
        self.conn = None;
        (true, false)
    }

    /// What to feed the machine at `now_us`, if anything: a sleep's
    /// end, a reply, or the loss of its connection.
    fn input(&mut self, now_us: u64) -> Option<WorkerInput> {
        if let Some(t) = self.wake_us {
            return (t <= now_us).then_some(WorkerInput::Next);
        }
        match self.conn.as_mut()?.try_recv() {
            Ok(reply) => reply.map(WorkerInput::Reply),
            Err(e) => Some(WorkerInput::Lost(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn next(m: &mut WorkerMachine, now_us: u64) -> WorkerStep {
        m.step(WorkerInput::Next, now_us)
    }

    fn reply(m: &mut WorkerMachine, msg: Message, now_us: u64) -> WorkerStep {
        m.step(WorkerInput::Reply(msg), now_us)
    }

    fn lost(m: &mut WorkerMachine, kind: io::ErrorKind, now_us: u64) -> WorkerStep {
        m.step(WorkerInput::Lost(kind.into()), now_us)
    }

    fn welcome(worker: u64, lease_ms: u64, token: &str, tasks: &[u64]) -> Message {
        Message::Welcome {
            worker,
            lease_ms,
            proto: PROTO_CURRENT,
            resume: (!token.is_empty()).then(|| token.to_string()),
            tasks: tasks.to_vec(),
        }
    }

    fn ack(task: u64) -> Message {
        Message::Ack {
            task,
            accepted: true,
        }
    }

    /// The frame a `Dial` or `Send` step carries.
    fn sent(step: WorkerStep) -> Message {
        match step {
            WorkerStep::Dial(msg) | WorkerStep::Send(msg) => msg,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    fn sleep(step: WorkerStep) -> u64 {
        match step {
            WorkerStep::SleepUntil(t) => t,
            other => panic!("expected a sleep, got {other:?}"),
        }
    }

    fn report(step: WorkerStep) -> WorkerReport {
        match step {
            WorkerStep::Finish(report) => report,
            other => panic!("expected the end of the run, got {other:?}"),
        }
    }

    fn resume_token(hello: &Message) -> Option<&str> {
        match hello {
            Message::Hello { resume, .. } => resume.as_deref(),
            other => panic!("expected a hello, got {other:?}"),
        }
    }

    /// A machine registered as worker 3 (300 ms lease, token `t0`) that
    /// computed and reported task 0 at time 0, and the step it answers
    /// the `assign` of task 1 with at 10 ms.
    fn second_assign(fault: FaultPlan) -> (WorkerMachine, WorkerStep) {
        let cfg = WorkerConfig::builder().mean_ms(0).fault(fault).build();
        let mut m = WorkerMachine::new(&cfg);
        assert_eq!(resume_token(&sent(next(&mut m, 0))), None);
        let request = Message::Request { max: 1 };
        assert_eq!(sent(reply(&mut m, welcome(3, 300, "t0", &[]), 0)), request);
        assert_eq!(sleep(reply(&mut m, Message::assign(0), 0)), 0);
        let done = Message::Done { task: 0, ok: true };
        assert_eq!(sent(next(&mut m, 0)), done);
        assert_eq!(sent(reply(&mut m, ack(0), 0)), request);
        let step = reply(&mut m, Message::assign(1), 10_000);
        (m, step)
    }

    #[test]
    fn die_stall_and_sever_fire_once_k_tasks_are_done() {
        let (mut m, step) = second_assign(FaultPlan::DieAfter(1));
        assert!(matches!(step, WorkerStep::HangUp), "{step:?}");
        let r = report(next(&mut m, 10_000));
        assert_eq!((r.worker, r.completed, r.died), (3, 1, true));

        // Four lease intervals of silence, then the end (with `bye`).
        let (mut m, step) = second_assign(FaultPlan::StallAfter(1));
        assert_eq!(sleep(step), 10_000 + 4 * 300_000);
        assert!(report(next(&mut m, 1_210_000)).died);

        // The sever redials with the token, finishes the restored task,
        // and never severs again.
        let (mut m, step) = second_assign(FaultPlan::SeverAfter(1));
        assert_eq!(resume_token(&sent(step)), Some("t0"));
        assert_eq!(sleep(reply(&mut m, welcome(3, 300, "t1", &[1]), 0)), 0);
        let done = Message::Done { task: 1, ok: true };
        assert_eq!(sent(next(&mut m, 0)), done);
        assert_eq!(sent(reply(&mut m, ack(1), 0)), Message::request());
        assert_eq!(sleep(reply(&mut m, Message::assign(2), 0)), 0);
        assert_eq!(sent(next(&mut m, 0)), Message::Done { task: 2, ok: true });
        assert_eq!(sent(reply(&mut m, ack(2), 0)), Message::request());
        let r = report(reply(&mut m, Message::Drain, 0));
        assert_eq!((r.completed, r.resumes, r.died), (3, 1, false));

        // Nothing to resume with: the sever is a death.
        let cfg = WorkerConfig::builder()
            .fault(FaultPlan::SeverAfter(0))
            .build();
        let mut m = WorkerMachine::new(&cfg);
        next(&mut m, 0);
        reply(&mut m, welcome(0, 300, "", &[]), 0);
        let step = reply(&mut m, Message::assign(0), 0);
        assert!(matches!(step, WorkerStep::HangUp), "{step:?}");
    }

    #[test]
    fn random_plans_fire_by_their_probability() {
        let (_, step) = second_assign(FaultPlan::Random(0.0));
        assert_eq!(sleep(step), 10_000);
        let cfg = WorkerConfig::builder()
            .fault(FaultPlan::Random(1.0))
            .build();
        let mut m = WorkerMachine::new(&cfg);
        next(&mut m, 0);
        reply(&mut m, welcome(0, 300, "t0", &[]), 0);
        let step = reply(&mut m, Message::assign(0), 0);
        assert!(matches!(step, WorkerStep::HangUp), "{step:?}");

        // A certain failure computes, reports `ok: false`, and is no
        // completion even when the server accepts the report.
        let cfg = WorkerConfig::builder()
            .mean_ms(0)
            .fault(FaultPlan::Fail(1.0))
            .build();
        let mut m = WorkerMachine::new(&cfg);
        next(&mut m, 0);
        reply(&mut m, welcome(0, 300, "t0", &[]), 0);
        assert_eq!(sleep(reply(&mut m, Message::assign(4), 0)), 0);
        assert_eq!(sent(next(&mut m, 0)), Message::Done { task: 4, ok: false });
        assert_eq!(sent(reply(&mut m, ack(4), 0)), Message::request());
        assert_eq!(report(reply(&mut m, Message::Drain, 0)).completed, 0);
        let (_, step) = second_assign(FaultPlan::Fail(0.0));
        assert_eq!(sleep(step), 10_000);
    }

    /// Compute lasts the jittered mean; every 10 ms of it (a third of a
    /// 30 ms lease) both held leases are heartbeated, then `done`.
    #[test]
    fn heartbeats_every_third_of_a_lease_until_the_compute_ends() {
        let cfg = WorkerConfig::builder().mean_ms(40).seed(3).batch(2).build();
        let mut rng = XorShift64::new(3);
        let compute_ms = (40.0 * (0.5 + rng.gen_f64())).round() as u64;
        let mut m = WorkerMachine::new(&cfg);
        next(&mut m, 0);
        reply(&mut m, welcome(0, 30, "t0", &[]), 0);
        let mut step = reply(&mut m, Message::Assign { tasks: vec![0, 1] }, 0);
        let (mut now, mut rounds) = (0, 0);
        loop {
            let t = sleep(step);
            assert!(t - now <= 10_000, "a nap never outlasts a beat");
            now = t;
            match sent(next(&mut m, now)) {
                Message::Heartbeat { task: 0 } => {}
                Message::Done { task: 0, ok: true } => break,
                other => panic!("expected a heartbeat or done, got {other:?}"),
            }
            assert_eq!(now, (rounds + 1) * 10_000, "beats keep their cadence");
            rounds += 1;
            let beat = Message::Heartbeat { task: 1 };
            assert_eq!(sent(reply(&mut m, ack(0), now)), beat);
            step = reply(&mut m, ack(1), now);
        }
        assert_eq!(now, compute_ms * 1000);
        assert_eq!(rounds, (compute_ms - 1) / 10);
    }

    /// A 1 ms lease still gets a heartbeat (or the `done`) before its
    /// deadline: every nap is shorter than the lease, not a whole
    /// millisecond that lands on the expiry.
    #[test]
    fn every_nap_at_a_1_ms_lease_is_shorter_than_the_lease() {
        let cfg = WorkerConfig::builder().mean_ms(5).seed(7).build();
        let mut m = WorkerMachine::new(&cfg);
        next(&mut m, 0);
        reply(&mut m, welcome(0, 1, "t0", &[]), 0);
        let mut step = reply(&mut m, Message::assign(0), 0);
        let mut now = 0;
        loop {
            let t = sleep(step);
            assert!(t - now < 1000, "a {} µs nap outlasts the lease", t - now);
            now = t;
            match sent(next(&mut m, now)) {
                Message::Heartbeat { task: 0 } => step = reply(&mut m, ack(0), now),
                Message::Done { task: 0, ok: true } => break,
                other => panic!("expected a heartbeat or done, got {other:?}"),
            }
        }
        assert!(now >= 2500, "the compute still lasts its jittered mean");
    }

    /// A `revoke` of a task behind the front drops it and computing goes
    /// on; a `revoke` of the front task abandons it without a `done`,
    /// and the next held task is computed from its start.
    #[test]
    fn a_revoke_drops_a_held_task_or_abandons_the_front_one() {
        let cfg = WorkerConfig::builder().mean_ms(10).batch(3).build();
        let mut m = WorkerMachine::new(&cfg);
        next(&mut m, 0);
        reply(&mut m, welcome(0, 3, "t0", &[]), 0);
        let assign = Message::Assign {
            tasks: vec![0, 1, 2],
        };
        assert_eq!(sleep(reply(&mut m, assign, 0)), 1000);
        let beat = |task| Message::Heartbeat { task };
        let revoke = |task| Message::Revoke { task };
        assert_eq!(sent(next(&mut m, 1000)), beat(0));
        assert_eq!(sent(reply(&mut m, ack(0), 1000)), beat(1));
        assert_eq!(sent(reply(&mut m, revoke(1), 1000)), beat(2));
        assert_eq!(sleep(reply(&mut m, ack(2), 1000)), 2000);
        assert_eq!(sent(next(&mut m, 2000)), beat(0));
        assert_eq!(sent(reply(&mut m, revoke(0), 2000)), beat(2));
        let mut step = reply(&mut m, ack(2), 2000);
        let (done, now) = loop {
            let now = sleep(step);
            match sent(next(&mut m, now)) {
                Message::Heartbeat { task: 2 } => step = reply(&mut m, ack(2), now),
                other => break (other, now),
            }
        };
        assert_eq!(done, Message::Done { task: 2, ok: true });
        assert!(now >= 2000 + 5000, "task 2 computes its own jittered mean");
        assert_eq!(
            sent(reply(&mut m, ack(2), now)),
            Message::Request { max: 3 }
        );
        assert_eq!(report(reply(&mut m, Message::Drain, now)).completed, 1);
    }

    #[test]
    fn a_wait_sleeps_its_ms_and_at_least_one() {
        let mut m = WorkerMachine::new(&WorkerConfig::default());
        next(&mut m, 0);
        reply(&mut m, welcome(0, 300, "t0", &[]), 0);
        assert_eq!(sleep(reply(&mut m, Message::Wait { ms: 0 }, 5)), 1005);
        assert_eq!(sent(next(&mut m, 1005)), Message::request());
        assert_eq!(sleep(reply(&mut m, Message::Wait { ms: 7 }, 2000)), 9000);
    }

    /// A machine with `retry_ms` registered with token `t0`, and the
    /// step it answers the loss of its connection at 5 ms with.
    fn lose_connection(retry_ms: u64, token: &str) -> (WorkerMachine, WorkerStep) {
        let cfg = WorkerConfig::builder().retry(retry_ms).build();
        let mut m = WorkerMachine::new(&cfg);
        next(&mut m, 0);
        reply(&mut m, welcome(0, 300, token, &[]), 0);
        let step = lost(&mut m, io::ErrorKind::ConnectionReset, 5_000);
        (m, step)
    }

    #[test]
    fn redials_every_retry_ms_until_the_budget_is_spent() {
        let (mut m, step) = lose_connection(20, "t0");
        assert_eq!(resume_token(&sent(step)), Some("t0"), "at once");
        let mut now = 5_000;
        let mut dials = 1;
        let e = loop {
            match lost(&mut m, io::ErrorKind::ConnectionRefused, now) {
                WorkerStep::SleepUntil(t) => {
                    assert_eq!(t, now + 20_000);
                    now = t;
                }
                WorkerStep::Fail(e) => break e,
                other => panic!("expected a sleep or the end, got {other:?}"),
            }
            assert_eq!(resume_token(&sent(next(&mut m, now))), Some("t0"));
            dials += 1;
        };
        assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused);
        assert_eq!(now, 5_000 + RETRY_TOTAL_MS * 1000);
        assert_eq!(dials, 1 + RETRY_TOTAL_MS / 20);

        // No retry interval, or no token to resume with: the loss ends
        // the run.
        for (retry_ms, token) in [(0, "t0"), (20, "")] {
            let (_, step) = lose_connection(retry_ms, token);
            assert!(
                matches!(&step, WorkerStep::Fail(e) if e.kind() == io::ErrorKind::ConnectionReset)
            );
        }
    }

    #[test]
    fn a_refused_resume_registers_afresh_at_once() {
        let (mut m, _) = lose_connection(20, "t0");
        let refused = Message::Error {
            code: ERR_BAD_RESUME.into(),
            msg: "unknown token".into(),
        };
        assert_eq!(resume_token(&sent(reply(&mut m, refused, 6_000))), None);
        assert_eq!(
            sent(reply(&mut m, welcome(7, 300, "t1", &[]), 6_000)),
            Message::request()
        );
        let r = report(reply(&mut m, Message::Drain, 6_000));
        assert_eq!((r.worker, r.resumes), (7, 0));

        // An honoured token is a resume.
        let (mut m, _) = lose_connection(20, "t0");
        reply(&mut m, welcome(0, 300, "t1", &[]), 6_000);
        assert_eq!(report(reply(&mut m, Message::Drain, 6_000)).resumes, 1);
    }

    /// A session registered as worker 0 (300 ms lease, token `t0`)
    /// and assigned `tasks`, and the step it answers the `assign` with.
    fn session(tasks: &[u64]) -> (WorkerSession, WorkerStep) {
        let cfg = WorkerConfig::builder().batch(3).build();
        let mut s = WorkerSession::new(&cfg);
        assert_eq!(resume_token(&sent(s.step(WorkerInput::Next, 0))), None);
        let welcome = WorkerInput::Reply(welcome(0, 300, "t0", &[]));
        assert_eq!(sent(s.step(welcome, 0)), Message::Request { max: 3 });
        let assign = Message::Assign {
            tasks: tasks.to_vec(),
        };
        let step = s.step(WorkerInput::Reply(assign), 0);
        (s, step)
    }

    fn compute(step: WorkerStep) -> u64 {
        match step {
            WorkerStep::Compute { task } => task,
            other => panic!("expected a compute, got {other:?}"),
        }
    }

    #[test]
    fn a_session_reports_the_outcome_it_is_given() {
        let (mut s, step) = session(&[4]);
        assert_eq!(compute(step), 4);
        let done = s.step(WorkerInput::Outcome(false), 0);
        assert_eq!(sent(done), Message::Done { task: 4, ok: false });
        let ack = WorkerInput::Reply(ack(4));
        assert_eq!(sent(s.step(ack, 0)), Message::Request { max: 3 });
        let r = report(s.step(WorkerInput::Reply(Message::Drain), 0));
        assert_eq!(r.completed, 0, "a failed task is no completion");
    }

    #[test]
    fn next_heartbeats_every_held_lease_in_order_then_computes_on() {
        let (mut s, step) = session(&[0, 1, 2]);
        assert_eq!(compute(step), 0);
        for round in 0..2 {
            let mut step = s.step(WorkerInput::Next, round);
            for task in 0..3 {
                assert_eq!(sent(step), Message::Heartbeat { task });
                step = s.step(WorkerInput::Reply(ack(task)), round);
            }
            assert_eq!(compute(step), 0, "round {round}");
        }
        let done = s.step(WorkerInput::Outcome(true), 2);
        assert_eq!(sent(done), Message::Done { task: 0, ok: true });
        assert_eq!(compute(s.step(WorkerInput::Reply(ack(0)), 2)), 1);
    }

    #[test]
    fn a_revoke_of_the_front_task_mid_round_computes_the_next_one() {
        let (mut s, step) = session(&[0, 1]);
        assert_eq!(compute(step), 0);
        let beat = s.step(WorkerInput::Next, 0);
        assert_eq!(sent(beat), Message::Heartbeat { task: 0 });
        let revoke = WorkerInput::Reply(Message::Revoke { task: 0 });
        assert_eq!(sent(s.step(revoke, 0)), Message::Heartbeat { task: 1 });
        assert_eq!(compute(s.step(WorkerInput::Reply(ack(1)), 0)), 1);
        let done = s.step(WorkerInput::Outcome(true), 0);
        assert_eq!(sent(done), Message::Done { task: 1, ok: true });
    }

    #[test]
    fn a_refused_hello_ends_the_run_with_the_servers_reason() {
        let cfg = WorkerConfig::builder().retry(20).build();
        let mut m = WorkerMachine::new(&cfg);
        next(&mut m, 0);
        let refused = Message::Error {
            code: crate::wire::ERR_UNSUPPORTED.into(),
            msg: "protocol 2 required".into(),
        };
        match reply(&mut m, refused, 0) {
            WorkerStep::Fail(e) => assert_eq!(e.to_string(), "unsupported: protocol 2 required"),
            other => panic!("expected the end of the run, got {other:?}"),
        }
    }
}
