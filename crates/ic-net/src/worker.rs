//! The worker client: the volatile remote "client" of the paper.
//!
//! [`run_worker`] connects to a server, registers, and loops
//! request → compute → report until the server drains it. "Compute" is
//! simulated (a sleep scaled by the declared speed, with deterministic
//! jitter from the worker's seed); what matters to the server — and
//! what the fault plans exercise — is the *protocol* behaviour: a
//! worker may die without reporting, may stall past its lease, may
//! honestly report a failure — or may lose its TCP connection
//! mid-lease and reconnect with the resume token from its `welcome`,
//! keeping its leases.
//!
//! A worker may request up to [`WorkerConfig::batch`] tasks per
//! `request`; it computes them in assignment order, heartbeating
//! *every* held lease at a third of the lease interval so a slow but
//! healthy worker is never mistaken for a dead one. A `revoke` reply
//! to a heartbeat means another worker already completed that task
//! (the speculative-lease race was lost): the task is abandoned
//! without a report.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

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
    /// Completes this many tasks, then holds its next task without
    /// reporting or heartbeating until the lease is long gone, then
    /// exits — the slow-silent failure mode leases exist for.
    StallAfter(usize),
    /// Completes this many tasks, then severs its TCP connection while
    /// holding an assignment and reconnects with `hello{resume}` to
    /// pick its leases back up. The sever happens once.
    SeverAfter(usize),
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
    /// transport failure mid-run (the signature of a server crash)
    /// makes the worker redial every `retry_ms` for up to
    /// [`RETRY_TOTAL_MS`], presenting its resume token — a restarted,
    /// trace-recovered server honors it during the recovery window and
    /// the worker keeps its leases across the server crash. A
    /// `bad-resume` refusal (window closed) falls back to fresh
    /// registration. `0` (the default) disables retrying: a dead
    /// server ends the worker with the transport error.
    pub retry_ms: u64,
}

/// Total redial budget of the crash-restart retry loop (see
/// [`WorkerConfig::retry_ms`]).
pub const RETRY_TOTAL_MS: u64 = 10_000;

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

/// One live connection to the server plus what its `welcome` said.
struct Session {
    conn: Conn,
    worker: u64,
    lease_ms: u64,
    /// Resume token from the `welcome`.
    token: Option<String>,
}

/// Connect and register (fresh or with a resume token). Returns the
/// session and the tasks the server says we still hold (non-empty only
/// on a resume).
fn open(
    addr: SocketAddr,
    cfg: &WorkerConfig,
    resume: Option<String>,
) -> io::Result<(Session, Vec<u64>)> {
    let mut conn = Conn::connect(addr)?;
    conn.send(&Message::Hello {
        id: cfg.id.clone(),
        speed: cfg.speed,
        proto: PROTO_CURRENT,
        resume,
    })?;
    match conn.recv()? {
        Message::Welcome {
            worker,
            lease_ms,
            resume: token,
            tasks,
            ..
        } => Ok((
            Session {
                conn,
                worker,
                lease_ms,
                token,
            },
            tasks,
        )),
        Message::Error { code, msg } => Err(io::Error::other(if code.is_empty() {
            msg
        } else {
            format!("{code}: {msg}")
        })),
        other => Err(io::Error::other(format!("expected welcome, got {other:?}"))),
    }
}

/// Mutable progress of one worker run, surviving session replacement
/// (sever→resume and crash-restart redials alike).
struct WorkerState {
    held: VecDeque<u64>,
    completed: usize,
    resumes: usize,
    severed: bool,
}

/// Connect to `addr`, register, and work until drained (or until the
/// fault plan kills the worker). Returns the worker's own account of
/// the run; a worker that dies *by plan* still returns `Ok` (with
/// `died = true`) — only transport and protocol errors are `Err`.
///
/// With [`WorkerConfig::retry_ms`] set, a transport failure mid-run is
/// treated as a server crash: the worker redials with its resume token
/// (see [`crate::recovery`]) and continues where the restarted server
/// says it left off.
pub fn run_worker(addr: impl ToSocketAddrs, cfg: &WorkerConfig) -> io::Result<WorkerReport> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
    let mut rng = XorShift64::new(cfg.seed);
    let (mut sess, held) = open(addr, cfg, None)?;
    let mut st = WorkerState {
        held: held.into(),
        completed: 0,
        resumes: 0,
        severed: false,
    };

    loop {
        // Snapshot the token before the step: if the step dies on a
        // transport error, this is what the redial resumes with.
        let token = sess.token.clone();
        match step_once(cfg, addr, &mut sess, &mut st, &mut rng) {
            Ok(Some(report)) => return Ok(report),
            Ok(None) => {}
            Err(_) if cfg.retry_ms > 0 && token.is_some() => {
                // Server crash (or network blip): redial with the
                // resume token. A recovered server matches it by
                // worker id during its recovery window; the held
                // queue is whatever the server says survived.
                let (next, restored, resumed) = reopen(addr, cfg, token)?;
                sess = next;
                if resumed {
                    st.resumes += 1;
                }
                st.held = restored.into();
            }
            Err(e) => return Err(e),
        }
    }
}

/// One iteration of the worker loop: request work if idle, then act on
/// the fault plan. `Ok(Some(report))` ends the run; `Ok(None)`
/// continues; `Err` is a transport/protocol failure (possibly
/// retriable by the caller).
fn step_once(
    cfg: &WorkerConfig,
    addr: SocketAddr,
    sess: &mut Session,
    st: &mut WorkerState,
    rng: &mut XorShift64,
) -> io::Result<Option<WorkerReport>> {
    if st.held.is_empty() {
        let max = cfg.batch.max(1);
        sess.conn.send(&Message::Request { max })?;
        match sess.conn.recv()? {
            Message::Assign { tasks } => st.held.extend(tasks),
            Message::Wait { ms } => {
                std::thread::sleep(Duration::from_millis(ms.max(1)));
                return Ok(None);
            }
            Message::Drain => {
                let _ = sess.conn.send(&Message::Bye);
                return Ok(Some(WorkerReport {
                    worker: sess.worker,
                    completed: st.completed,
                    resumes: st.resumes,
                    died: false,
                }));
            }
            Message::Error { msg, .. } => return Err(io::Error::other(msg)),
            other => return Err(io::Error::other(format!("unexpected reply {other:?}"))),
        }
    }

    match plan_action(cfg.fault, st.completed, st.severed, rng) {
        Action::Die => {
            // Drop the connection mid-lease: the lease's expiry
            // reallocates.
            Ok(Some(WorkerReport {
                worker: sess.worker,
                completed: st.completed,
                resumes: st.resumes,
                died: true,
            }))
        }
        Action::Stall => {
            // Hold the task silently past several lease windows,
            // then give up without reporting.
            std::thread::sleep(Duration::from_millis(sess.lease_ms.saturating_mul(4)));
            let _ = sess.conn.send(&Message::Bye);
            Ok(Some(WorkerReport {
                worker: sess.worker,
                completed: st.completed,
                resumes: st.resumes,
                died: true,
            }))
        }
        Action::Sever => {
            st.severed = true;
            let Some(token) = sess.token.take() else {
                // Nothing to resume with: the sever is just a death.
                return Ok(Some(WorkerReport {
                    worker: sess.worker,
                    completed: st.completed,
                    resumes: st.resumes,
                    died: true,
                }));
            };
            // Sever without a word — the leases stay with the
            // slot — then come back with the resume token.
            let (next, restored) = open(addr, cfg, Some(token))?;
            *sess = next;
            st.resumes += 1;
            st.held = restored.into();
            Ok(None)
        }
        Action::Compute => {
            match compute_front(cfg, sess, &mut st.held, rng)? {
                TaskOutcome::Accepted => st.completed += 1,
                TaskOutcome::Rejected | TaskOutcome::Revoked => {}
            }
            Ok(None)
        }
    }
}

/// Redial a (possibly restarting) server every
/// [`WorkerConfig::retry_ms`] for up to [`RETRY_TOTAL_MS`], resuming
/// with `token`. A `bad-resume` refusal means the recovery window is
/// closed (or the token is genuinely stale): fall back to fresh
/// registration. Returns the session, the held tasks the server
/// restored, and whether the resume (vs fresh fallback) succeeded.
fn reopen(
    addr: SocketAddr,
    cfg: &WorkerConfig,
    mut token: Option<String>,
) -> io::Result<(Session, Vec<u64>, bool)> {
    let deadline = std::time::Instant::now() + Duration::from_millis(RETRY_TOTAL_MS);
    loop {
        match open(addr, cfg, token.clone()) {
            Ok((sess, held)) => return Ok((sess, held, token.is_some())),
            Err(e) => {
                if token.is_some() && e.to_string().starts_with(ERR_BAD_RESUME) {
                    token = None;
                    continue;
                }
                if std::time::Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(cfg.retry_ms.max(1)));
            }
        }
    }
}

enum Action {
    Compute,
    Die,
    Stall,
    Sever,
}

fn plan_action(fault: FaultPlan, completed: usize, severed: bool, rng: &mut XorShift64) -> Action {
    match fault {
        FaultPlan::None => Action::Compute,
        FaultPlan::Random(p) => {
            if rng.gen_bool(p) {
                Action::Die
            } else {
                Action::Compute
            }
        }
        FaultPlan::DieAfter(k) => {
            if completed >= k {
                Action::Die
            } else {
                Action::Compute
            }
        }
        FaultPlan::StallAfter(k) => {
            if completed >= k {
                Action::Stall
            } else {
                Action::Compute
            }
        }
        FaultPlan::SeverAfter(k) => {
            if completed >= k && !severed {
                Action::Sever
            } else {
                Action::Compute
            }
        }
    }
}

/// How computing one task ended.
enum TaskOutcome {
    /// Reported and accepted by the server.
    Accepted,
    /// Reported but rejected (late or duplicate).
    Rejected,
    /// Revoked mid-compute: another worker completed it first.
    Revoked,
}

/// Simulate the front task's compute time (jittered mean, scaled by
/// declared speed), heartbeating *every* held lease at a third of the
/// lease interval, then report success. A `revoke` reply drops that
/// task from the held queue; if the task being computed is revoked,
/// the work is abandoned without a report.
fn compute_front(
    cfg: &WorkerConfig,
    sess: &mut Session,
    held: &mut VecDeque<u64>,
    rng: &mut XorShift64,
) -> io::Result<TaskOutcome> {
    let task = held[0];
    let jitter = 0.5 + rng.gen_f64(); // U[0.5, 1.5)
    let mut left = ((cfg.mean_ms as f64) * jitter / cfg.speed).round() as u64;
    let beat_every = (sess.lease_ms / 3).max(1);
    while left > beat_every {
        std::thread::sleep(Duration::from_millis(beat_every));
        left -= beat_every;
        let mut i = 0;
        while i < held.len() {
            let t = held[i];
            sess.conn.send(&Message::Heartbeat { task: t })?;
            match sess.conn.recv()? {
                Message::Ack { .. } => i += 1,
                Message::Revoke { task: revoked } if revoked == t => {
                    held.remove(i);
                }
                other => return Err(io::Error::other(format!("expected ack, got {other:?}"))),
            }
        }
        if held.front() != Some(&task) {
            return Ok(TaskOutcome::Revoked);
        }
    }
    std::thread::sleep(Duration::from_millis(left));
    sess.conn.send(&Message::Done { task, ok: true })?;
    held.pop_front();
    match sess.conn.recv()? {
        Message::Ack { accepted, .. } => Ok(if accepted {
            TaskOutcome::Accepted
        } else {
            TaskOutcome::Rejected
        }),
        other => Err(io::Error::other(format!("expected ack, got {other:?}"))),
    }
}
