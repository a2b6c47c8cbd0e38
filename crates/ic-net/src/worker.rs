//! The worker client: the volatile remote "client" of the paper.
//!
//! A worker is a [`WorkerMachine`] plus a driver. The machine makes
//! every decision — register, request when idle, compute, heartbeat,
//! follow the [`FaultPlan`], redial a crashed server, tally the
//! [`WorkerReport`] — and owns no clock, socket or sleep: time arrives
//! as `now_us`, and each [`WorkerInput`] is answered with one
//! [`WorkerStep`]. [`run_worker`] drives it over TCP; the `net` bench
//! drives thousands over loopback connections on a few threads, and
//! `ic-fed`'s in-process federation drives its fleet on virtual time.
//!
//! Compute is a sleep of the jittered mean over the declared speed; up
//! to [`WorkerConfig::batch`] tasks per `request` are computed in
//! order while *every* held lease is heartbeated at a third of the
//! lease interval, so a slow but healthy worker is never taken for a
//! dead one. A `revoke` (another worker completed the task first)
//! abandons the task unreported.

use std::collections::VecDeque;
use std::io;
use std::net::ToSocketAddrs;
use std::time::{Duration, Instant};

use ic_dag::rng::XorShift64;

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
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// What a driver does next for its [`WorkerMachine`]; the first four
/// end with an input fed back to [`WorkerMachine::step`].
#[derive(Debug)]
pub enum WorkerStep {
    /// Open a new connection, send this `hello` on it, and feed back
    /// the reply. An open connection closes once the new one is up.
    Dial(Message),
    /// Send this frame on the open connection; feed back its reply.
    Send(Message),
    /// Sleep until the clock reads this many µs, then feed back `Next`.
    SleepUntil(u64),
    /// Close the connection without a word, then feed back `Next`.
    HangUp,
    /// The run is over: say `bye` on the open connection, if there is
    /// one, close it, and return the report.
    Finish(WorkerReport),
    /// The run failed: close the connection and return the error.
    Fail(io::Error),
}

/// What a driver feeds back into [`WorkerMachine::step`].
#[derive(Debug)]
pub enum WorkerInput {
    /// Nothing to report: the run starts, or a sleep or hang-up is done.
    Next,
    /// The reply to the last `Dial` or `Send`.
    Reply(Message),
    /// The last `Dial` or `Send` failed: connect, write, read or decode.
    Lost(io::Error),
}

/// The front task's compute: its id, the ms left after this sleep, and
/// whether its `done` will say `ok`.
#[derive(Debug, Clone, Copy)]
struct Job {
    task: u64,
    left: u64,
    ok: bool,
}

/// Where a [`WorkerMachine`] is: what its last step asked for.
#[derive(Debug)]
enum Phase {
    /// Registering with a resume token (or none): on `Next`, dial; then
    /// the `welcome`. The deadline (µs) bounds a crash-restart redial.
    Hello(Option<String>, Option<u64>),
    /// Idle: on `Next`, request; then the `assign`, `wait` or `drain`.
    Request,
    /// Computing: on `Next`, heartbeat if compute is left, else `done`.
    Compute(Job),
    /// Awaiting the `ack` (or `revoke`) of `held[i]`'s heartbeat.
    Beat(Job, usize),
    /// Awaiting the `ack` of a `done` that said `ok`.
    Done(bool),
    /// Died by plan, hung up or stalled out: finish on `Next`.
    Dead,
}

/// Every decision of one worker run, with no clock, socket or sleep of
/// its own. Feed [`WorkerInput::Next`] first, then what each
/// [`WorkerStep`] came to, with the time it came to it.
#[derive(Debug)]
pub struct WorkerMachine {
    cfg: WorkerConfig,
    rng: XorShift64,
    phase: Phase,
    /// The tallies so far, and the worker index of the last `welcome`.
    report: WorkerReport,
    /// The last `welcome`'s lease interval and resume token.
    lease_ms: u64,
    token: Option<String>,
    /// Leased tasks in assignment order; the front one is computing.
    held: VecDeque<u64>,
}

impl WorkerMachine {
    /// A worker that registers on its first step.
    pub fn new(cfg: &WorkerConfig) -> WorkerMachine {
        WorkerMachine {
            cfg: cfg.clone(),
            rng: XorShift64::new(cfg.seed),
            phase: Phase::Hello(None, None),
            report: WorkerReport {
                worker: 0,
                completed: 0,
                resumes: 0,
                died: false,
            },
            lease_ms: 0,
            token: None,
            held: VecDeque::new(),
        }
    }

    /// Take what the driver saw at `now_us`; answer with the next step.
    pub fn step(&mut self, input: WorkerInput, now_us: u64) -> WorkerStep {
        use {Message as M, WorkerInput::Next, WorkerInput::Reply};
        match (std::mem::replace(&mut self.phase, Phase::Dead), input) {
            (Phase::Hello(token, deadline), Next) => self.dial(token, deadline),
            (
                Phase::Hello(token, _),
                Reply(M::Welcome {
                    worker,
                    lease_ms,
                    resume,
                    tasks,
                    ..
                }),
            ) => {
                self.report.resumes += usize::from(token.is_some());
                (self.report.worker, self.lease_ms, self.token) = (worker, lease_ms, resume);
                self.held = tasks.into();
                self.next(now_us)
            }
            // The restarted server's recovery window closed: register afresh.
            (Phase::Hello(Some(_), Some(deadline)), Reply(M::Error { code, .. }))
                if code == ERR_BAD_RESUME =>
            {
                self.dial(None, Some(deadline))
            }
            (Phase::Hello(token, Some(deadline)), input) => {
                if now_us >= deadline {
                    return WorkerStep::Fail(refusal("welcome", input));
                }
                self.phase = Phase::Hello(token, Some(deadline));
                WorkerStep::SleepUntil(after(now_us, self.cfg.retry_ms.max(1)))
            }
            (Phase::Request, Next) => self.next(now_us),
            (Phase::Request, Reply(M::Assign { tasks })) => {
                self.held.extend(tasks);
                self.next(now_us)
            }
            (Phase::Request, Reply(M::Wait { ms })) => {
                self.phase = Phase::Request;
                WorkerStep::SleepUntil(after(now_us, ms.max(1)))
            }
            (Phase::Request, Reply(M::Drain)) => self.finish(false),
            (Phase::Compute(Job { task, left: 0, ok }), Next) => {
                self.held.pop_front();
                self.phase = Phase::Done(ok);
                WorkerStep::Send(M::Done { task, ok })
            }
            (Phase::Compute(job), Next) => self.beat(job, 0, now_us),
            (Phase::Beat(job, i), Reply(M::Ack { .. })) => self.beat(job, i + 1, now_us),
            (Phase::Beat(job, i), Reply(M::Revoke { task })) if self.held.get(i) == Some(&task) => {
                self.held.remove(i);
                self.beat(job, i, now_us)
            }
            (Phase::Done(ok), Reply(M::Ack { accepted, .. })) => {
                self.report.completed += usize::from(ok && accepted);
                self.next(now_us)
            }
            (Phase::Dead, Next) => self.finish(true),
            (phase, input) => {
                let wants = match phase {
                    Phase::Hello(..) => "welcome",
                    Phase::Request => "assign, wait or drain",
                    Phase::Beat(..) | Phase::Done(_) => "ack",
                    Phase::Compute(_) | Phase::Dead => "no reply",
                };
                self.fail(refusal(wants, input), now_us)
            }
        }
    }

    /// Register: `hello` on a new connection, with `token` to resume.
    fn dial(&mut self, token: Option<String>, deadline: Option<u64>) -> WorkerStep {
        self.phase = Phase::Hello(token.clone(), deadline);
        WorkerStep::Dial(Message::Hello {
            id: self.cfg.id.clone(),
            speed: self.cfg.speed,
            proto: PROTO_CURRENT,
            resume: token,
        })
    }

    /// Request work when idle; otherwise act on the fault plan for the
    /// front task, and compute it unless the plan says otherwise.
    fn next(&mut self, now_us: u64) -> WorkerStep {
        let Some(&task) = self.held.front() else {
            self.phase = Phase::Request;
            let max = self.cfg.batch.max(1);
            return WorkerStep::Send(Message::Request { max });
        };
        let ok = match self.cfg.fault {
            FaultPlan::Random(p) if self.rng.gen_bool(p) => return self.die(),
            FaultPlan::DieAfter(k) if self.report.completed >= k => return self.die(),
            FaultPlan::StallAfter(k) if self.report.completed >= k => {
                // Silent for four lease intervals, then `bye`.
                self.phase = Phase::Dead;
                let stall = self.lease_ms.saturating_mul(4);
                return WorkerStep::SleepUntil(after(now_us, stall));
            }
            FaultPlan::SeverAfter(k) if self.report.completed >= k => {
                // Once, without a word: the leases wait for the resume.
                // Without a token to resume with, it is a death.
                self.cfg.fault = FaultPlan::None;
                return match self.token.clone() {
                    Some(token) => self.dial(Some(token), None),
                    None => self.die(),
                };
            }
            FaultPlan::Fail(p) => !self.rng.gen_bool(p),
            _ => true,
        };
        let jitter = 0.5 + self.rng.gen_f64(); // U[0.5, 1.5)
        let left = ((self.cfg.mean_ms as f64) * jitter / self.cfg.speed).round() as u64;
        self.work(Job { task, left, ok }, now_us)
    }

    /// Compute on: sleep to the next heartbeat round (every third of
    /// the lease) if it comes first, else to the end of the compute.
    fn work(&mut self, job: Job, now_us: u64) -> WorkerStep {
        let nap = job.left.min((self.lease_ms / 3).max(1));
        let left = job.left - nap;
        self.phase = Phase::Compute(Job { left, ..job });
        WorkerStep::SleepUntil(after(now_us, nap))
    }

    /// Heartbeat `held[i..]`, then compute on — unless a `revoke` took
    /// the task itself, which is then abandoned without a report.
    fn beat(&mut self, job: Job, i: usize, now_us: u64) -> WorkerStep {
        if let Some(&task) = self.held.get(i) {
            self.phase = Phase::Beat(job, i);
            return WorkerStep::Send(Message::Heartbeat { task });
        }
        match self.held.front() {
            Some(&task) if task == job.task => self.work(job, now_us),
            _ => self.next(now_us),
        }
    }

    /// Drop the connection mid-lease: the lease's expiry reallocates.
    fn die(&mut self) -> WorkerStep {
        self.phase = Phase::Dead;
        WorkerStep::HangUp
    }

    fn finish(&mut self, died: bool) -> WorkerStep {
        self.report.died = died;
        WorkerStep::Finish(self.report.clone())
    }

    /// A broken session: with a retry interval and a resume token,
    /// redial at once, then every `retry_ms` for up to
    /// [`RETRY_TOTAL_MS`] (a recovered server matches the token during
    /// its recovery window); otherwise the run ends with `e`.
    fn fail(&mut self, e: io::Error, now_us: u64) -> WorkerStep {
        match self.token.clone() {
            Some(token) if self.cfg.retry_ms > 0 => {
                self.dial(Some(token), Some(after(now_us, RETRY_TOTAL_MS)))
            }
            _ => WorkerStep::Fail(e),
        }
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
    })
}

/// Connect to `addr`, register, and work until drained or until the
/// fault plan kills the worker: the TCP driver of a [`WorkerMachine`].
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
