//! The networked IC task server's tunables ([`ServerConfig`]) and
//! end-of-run tally ([`ServeReport`]).
//!
//! The server listens on TCP, registers volatile workers, and
//! allocates ELIGIBLE tasks of one dag through any
//! [`AllocationPolicy`](ic_sched::policy::AllocationPolicy) until the
//! dag completes. The volatile-client reality the paper's server faces
//! (§1: clients "may be slow, may die") is handled with five
//! mechanisms:
//!
//! * **leases** — an allocated task must be completed or heartbeat
//!   within `lease_ms`, or the server declares it lost and reallocates;
//! * **exponential-backoff reallocation** — a task failed `k` times
//!   waits `backoff_base_ms · 2^min(k-1, 6)` before re-entering the
//!   pool, so a poison task cannot monopolize allocations;
//! * **resumable leases** — each `welcome` carries a single-use
//!   resume token; a worker whose TCP connection drops mid-lease can
//!   reconnect with `hello{resume}` and keep its leases (heartbeat
//!   clocks restored). A disconnect by itself releases nothing: lease
//!   expiry is the fallback, so a worker that never resumes forfeits
//!   on the usual clock;
//! * **straggler re-lease** (opt-in via `steal_after_ms`) — when
//!   the pool is empty but leases are outstanding (the drain barrier),
//!   an idle worker is granted a *speculative* duplicate lease on the
//!   longest-outstanding task. First completion wins; the stale
//!   duplicates are revoked;
//! * **duplicate-result resolution** — a late or duplicate report (the
//!   lease already expired, or another worker already completed the
//!   task) is acknowledged with `accepted = false` and changes nothing.
//!
//! All of these semantics live in the *pure* transition function
//! [`crate::machine::LeaseMachine`], which the sans-IO
//! [`ServerCore`](crate::reactor::ServerCore) steps with each decoded
//! frame, and `ic-check` model-checks that same core.
//!
//! Every decision is emitted through the `TraceSink` event model in
//! server order, so a finished run's JSONL trace replays clean under
//! `ic-prio audit --schedule`: a lease expiry or failure report is a
//! `Failed` event (the task legally re-enters the pool only when its
//! *last* holder falls), a resume is a `resume` event per held lease, a
//! speculative grant is a `spec` event (the pool does not shrink — the
//! task was already allocated), a cancelled duplicate is a `revoke`
//! event after the winning completion, and rejected duplicate reports
//! emit nothing. The recorded pool size counts tasks waiting out their
//! backoff (they are ELIGIBLE and unallocated — exactly what the
//! auditor reconstructs).
//!
//! # Protocol version
//!
//! There is one worker protocol ([`crate::wire::PROTO_CURRENT`], 2)
//! and it is checked once: a `hello` offering less is refused with a
//! typed `error{code: "unsupported"}` frame and the connection is
//! closed. Every registered worker gets resume tokens, batched
//! assignment, speculative leases and `revoke`.
//!
//! # Architecture
//!
//! There is one serve path: [`Driver::tcp`](crate::reactor::Driver::tcp)
//! over a bound listener, a [`Reactor`](crate::reactor::Reactor), and
//! [`Reactor::run_until_drain`](crate::reactor::Reactor::run_until_drain).
//! One thread owns every connection, and each connection remembers the
//! *epoch* of its registration, so a sever or a frame from a
//! superseded connection (the worker already resumed on a new socket)
//! changes nothing.

use crate::registry::Registry;

/// Tunables of a serving run. Construct with [`ServerConfig::builder`]
/// (the struct is `#[non_exhaustive]`: new knobs may appear without a
/// breaking change).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Lease duration: a leased task neither completed nor heartbeat
    /// within this window is declared lost and reallocated.
    pub lease_ms: u64,
    /// Base backoff before a failed task re-enters the pool; doubles
    /// per failure up to `2^6` times this value.
    pub backoff_base_ms: u64,
    /// Registration barrier: serving (and the trace header) waits until
    /// this many workers have said hello, so the header records their
    /// declared parameters. `0` starts serving immediately — the header
    /// is then written before anyone registers, so it carries no worker
    /// parameters and replay timing from the header is unavailable
    /// (see [`ServeReport::late_workers`]).
    pub expect_workers: usize,
    /// Suggested retry delay sent with `Wait` replies.
    pub wait_ms: u64,
    /// Seed recorded in the trace header, and the source of resume
    /// tokens (the server draws no other randomness).
    pub seed: u64,
    /// Maximum tasks per `assign`. The actual batch is the minimum of
    /// this and the `max` the worker's `request` asked for.
    pub batch: usize,
    /// Straggler re-lease: when the pool is empty and a primary lease
    /// has been outstanding this long, an idle worker gets a
    /// speculative duplicate of it. `None` (the default) disables
    /// stealing.
    pub steal_after_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            lease_ms: 500,
            backoff_base_ms: 25,
            expect_workers: 0,
            wait_ms: 25,
            seed: 0x1C5EED,
            batch: 1,
            steal_after_ms: None,
        }
    }
}

impl ServerConfig {
    /// A builder starting from [`ServerConfig::default`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig::default(),
        }
    }
}

/// Builder for [`ServerConfig`]; every knob defaults as in
/// [`ServerConfig::default`].
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Lease duration in milliseconds.
    pub fn lease_ms(mut self, ms: u64) -> Self {
        self.cfg.lease_ms = ms;
        self
    }

    /// Base reallocation backoff in milliseconds.
    pub fn backoff_base_ms(mut self, ms: u64) -> Self {
        self.cfg.backoff_base_ms = ms;
        self
    }

    /// Registration barrier (0 = serve immediately).
    pub fn expect_workers(mut self, n: usize) -> Self {
        self.cfg.expect_workers = n;
        self
    }

    /// Suggested retry delay for `Wait` replies, in milliseconds.
    pub fn wait_ms(mut self, ms: u64) -> Self {
        self.cfg.wait_ms = ms;
        self
    }

    /// Trace-header seed and resume-token source.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Maximum tasks per `assign` (clamped to at least 1).
    pub fn batch(mut self, batch: usize) -> Self {
        self.cfg.batch = batch.max(1);
        self
    }

    /// Enable straggler re-lease after a lease has been outstanding
    /// `ms` milliseconds at the drain barrier.
    pub fn steal_after(mut self, ms: u64) -> Self {
        self.cfg.steal_after_ms = Some(ms);
        self
    }

    /// Finish the build.
    pub fn build(self) -> ServerConfig {
        self.cfg
    }
}

/// Summary of a completed serving run: its [`Registry`] and what
/// only the run's end knows.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServeReport {
    /// What the run decided and what its poll rounds did: completions,
    /// reallocations, allocations, resumes, steals, revokes, remote
    /// completions, rounds, syscalls, frames, peer traffic and phase
    /// times ([`crate::registry`]). Boxed, to keep a drained
    /// [`Round`](crate::Round) small.
    pub registry: Box<Registry>,
    /// Wall-clock seconds from serving start to dag completion.
    pub makespan: f64,
    /// Workers that registered over the run's lifetime.
    pub workers_registered: usize,
    /// Workers that registered *after* the trace header was written
    /// (always all of them when `expect_workers` is 0, since the header
    /// then goes out before serving). They appear in events but not in
    /// the header's `workers` list, so header-based replay timing is
    /// incomplete — set `expect_workers` to avoid this.
    pub late_workers: usize,
}
