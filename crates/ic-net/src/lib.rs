//! # `ic-net` — the IC task server, for real this time
//!
//! The paper's entire setting is a server that allocates ELIGIBLE tasks
//! of a computation-dag to remote clients it does not control: they
//! may be slow, may die, and may never return results. This crate *is*
//! that server — a single-threaded event-driven TCP service (plus the
//! matching worker client) built entirely on `std::net`, keeping the
//! workspace's zero-external-dependency rule. The simulator
//! (`ic_check::sim`) steps the same lease machine on a virtual clock.
//!
//! * [`wire`] — the length-prefixed JSON frame protocol, encoded with
//!   the in-repo parser ([`ic_sim::json`]); every decoding failure is
//!   a typed error, never a panic. There is one worker protocol
//!   (resume tokens, batched assignment, lease revocation), its
//!   version checked once at `hello`. The buffer-oriented
//!   [`wire::Frame`] / [`wire::Decoder`] pair is the one framing path
//!   shared by the reactor and the worker drivers.
//! * [`machine`] — the *pure* lease-protocol state machine:
//!   `LeaseMachine::step(Event) -> Vec<Effect>` with no clock, socket,
//!   or sink of its own, so the `ic-check` model checker can
//!   exhaustively enumerate event interleavings over the exact code
//!   the server runs. `machine/mod.rs` is the live protocol; WAL
//!   restore, the federation's `remote-done` path and the checkers'
//!   read-only views are its private `restore`, `remote` and `view`
//!   submodules.
//! * [`reactor`] — the server itself ([`Reactor`] over a [`Driver`],
//!   the one way a dag gets served): one thread that naps between polls
//!   unless the protocol owes it a frame at once, per-connection frame
//!   buffers, a deadline-ordered [`timer::TimerWheel`] for lease expiry, and
//!   an injectable [`reactor::Clock`]/[`reactor::Poller`] pair
//!   ([`reactor::Driver`]) so deterministic in-process drivers and the
//!   live TCP driver run the same code. Federation peer links live
//!   in the private `peers` module, which the poll loop enters at six
//!   calls; [`FedConfig`] is what a shard's trace header does not say.
//! * [`timer`] — the lazy (never-cancelled) deadline queue behind lease
//!   expiry and peer redials.
//! * [`server`] — the shared [`server::ServerConfig`] and the
//!   [`server::ServeReport`] a run ends with: leases with heartbeat
//!   timeouts, exponential-backoff reallocation of lost tasks,
//!   resumable leases across reconnects, speculative straggler
//!   re-lease at the drain barrier, batched allocation,
//!   duplicate-result resolution, graceful drain, and allocation
//!   through any [`ic_sched::AllocationPolicy`] — an IC-optimal
//!   [`ic_sched::Schedule`] and the FIFO/greedy heuristics plug in
//!   interchangeably.
//! * [`worker`] — the volatile client, split at the compute: the
//!   sans-IO protocol half [`WorkerSession`], which `ic-check` steps,
//!   and a private service half that computes, with [`run_worker`]
//!   driving it over TCP and [`LoopbackWorker`] on loopback connections
//!   (the `net` bench's fleet, `ic-fed`'s in-process federation). Its
//!   fault-injection plans (random death, death after `k` tasks, silent
//!   stalls, random failure reports, severed connections that resume)
//!   exercise the server's reallocation and resumption machinery.
//!
//! Every server decision streams through the [`ic_sim::trace`] event
//! model, so a finished run's JSONL trace replays clean under
//! `ic-prio audit --schedule` — the server, the trace format, and the
//! auditor form one closed loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lease_table;
pub mod machine;
mod peers;
pub mod reactor;
pub mod recovery;
pub mod server;
pub mod timer;
pub mod wire;
pub mod worker;

pub use machine::{Effect, Event, LeaseMachine, LeaseView, RestoreError, FED_CLIENT};
pub use peers::FedConfig;
pub use reactor::{
    loopback, Clock, ConnId, Deadline, Driver, IoEvent, LoopbackConn, LoopbackHandle,
    LoopbackPoller, ManualClock, MonotonicClock, Poller, Reactor, Round, ShardedTable, TcpPoller,
};
pub use recovery::{RecoverError, RecoverReport, Recovery, RecoveryConfig};
pub use server::{ServeReport, ServerConfig, ServerConfigBuilder};
pub use timer::TimerWheel;
pub use wire::{
    Conn, Decoder, Frame, Message, WireError, ERR_BAD_RESUME, ERR_UNSUPPORTED, MAX_FRAME,
    PROTO_CURRENT, PROTO_V2, PROTO_V3,
};
pub use worker::{
    run_worker, FaultPlan, LoopbackWorker, WorkerConfig, WorkerConfigBuilder, WorkerInput,
    WorkerReport, WorkerSession, WorkerStep,
};
