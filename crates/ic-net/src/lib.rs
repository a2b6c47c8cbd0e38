//! # `ic-net` — the IC task server, for real this time
//!
//! The paper's entire setting is a server that allocates ELIGIBLE tasks
//! of a computation-dag to remote clients it does not control: they
//! may be slow, may die, and may never return results. This crate *is*
//! that server — a single-threaded event-driven TCP service (plus the
//! matching worker client) built on `std::net` alone. The simulator
//! (`ic_check::sim`) steps the same lease machine on a virtual clock.
//!
//! * [`wire`] — the length-prefixed JSON frames ([`wire::Frame`] /
//!   [`wire::Decoder`], the one framing path); every decoding failure is
//!   a typed error. One worker protocol, its version checked at `hello`.
//! * [`machine`] — the *pure* lease-protocol state machine,
//!   `LeaseMachine::step(Event) -> Vec<Effect>`, with no clock, socket
//!   or sink; WAL restore, the federation's `remote-done` path and the
//!   read-only views are its private submodules.
//! * [`reactor`] — the server, split at the poller: the sans-IO
//!   [`ServerCore`] (machine, connection table, peer links, stepped with
//!   `now_us` and an [`IoEvent`] or a fired [`Deadline`]), which
//!   `ic-check` steps with encoded frames, and [`Reactor`], the core on
//!   a [`Driver`] (clock and poller) with the sink, the deadline queue
//!   ([`timer::TimerWheel`]) and the wait rule — the one way a dag gets
//!   served. Peer links are the private `peers` module; [`FedConfig`]
//!   is what a shard's trace header does not say.
//! * [`registry`] — the run's one [`Registry`], owned by the machine:
//!   its decisions, rounds, syscalls, frames and phase times, always
//!   on; a [`ServeReport`] is that registry and what only the run's end
//!   knows.
//! * [`server`] — [`server::ServerConfig`] and the [`server::ServeReport`]
//!   a run ends with: leases, backoff reallocation, resumable leases,
//!   straggler re-lease at the drain barrier, batched allocation,
//!   duplicate-result resolution, graceful drain, any
//!   [`ic_sched::AllocationPolicy`].
//! * [`worker`] — the volatile client, split at the compute: the
//!   sans-IO protocol half [`WorkerSession`], which `ic-check` steps,
//!   and a private service half with its fault plans, driven by
//!   [`run_worker`] over TCP and by [`LoopbackWorker`] on loopback
//!   connections (the `net` bench's fleet, `ic-fed`'s federation).
//!
//! Every server decision streams through the [`ic_sim::trace`] event
//! model, so a finished run's JSONL trace replays clean under
//! `ic-prio audit --schedule`.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::disallowed_methods,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::cast_lossless,
    )
)]

mod lease_table;
pub mod machine;
mod peers;
pub mod reactor;
pub mod recovery;
pub mod registry;
pub mod server;
pub mod timer;
pub mod wire;
pub mod worker;

pub use machine::{Effect, Event, LeaseMachine, RestoreError, FED_CLIENT};
pub use peers::FedConfig;
pub use reactor::{
    loopback, Clock, ConnId, Deadline, Driver, IoEvent, LoopbackConn, LoopbackHandle,
    LoopbackPoller, ManualClock, MonotonicClock, Output, Poller, Reactor, Round, ServerCore,
    TcpPoller, Transmit,
};
pub use recovery::{RecoverError, RecoverReport, Recovery, RecoveryConfig};
pub use registry::Registry;
pub use server::{ServeReport, ServerConfig, ServerConfigBuilder};
pub use timer::TimerWheel;
pub use wire::{
    Conn, Decoder, Frame, Message, WireError, ERR_BAD_RESUME, ERR_UNSUPPORTED, MAX_FRAME,
    PROTO_CURRENT, PROTO_V3,
};
pub use worker::{
    run_worker, FaultPlan, LoopbackWorker, WorkerConfig, WorkerConfigBuilder, WorkerInput,
    WorkerReport, WorkerSession, WorkerStep,
};
