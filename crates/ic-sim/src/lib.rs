//! # `ic-sim` — execution traces of an IC server and their metrics
//!
//! IC-Scheduling Theory targets a server that doles out ELIGIBLE tasks
//! of a computation-dag to remote clients whose speeds and reliability
//! it does not control. The theory's quality measure — the number of
//! ELIGIBLE tasks after every execution — matters because (§2.2 of the
//! paper):
//!
//! 1. a richer ELIGIBLE pool reduces the chance of *gridlock*: a client
//!    asks for work but none can be allocated until already-allocated
//!    tasks return;
//! 2. when a *batch* of requests arrives at once, a richer pool
//!    satisfies more of them, increasing effective parallelism.
//!
//! This crate is the record of such a server's run, not the server:
//! the [`trace`] module defines the JSONL trace format — allocations,
//! completions, failures, idle requests — that the `ic-net` lease
//! machine writes through a [`trace::TraceSink`] and `ic-prio audit
//! --schedule` replays, [`json`] is the zero-dependency JSON layer it
//! is written in, and [`SimResult::from_trace`] folds a trace into the
//! §2.2 metrics: makespan, gridlock events, batch shortfall, client
//! idle time, utilization, and the ELIGIBLE-pool trajectory. The
//! simulation that drives the real machine on a virtual clock is
//! `ic_check::sim`.

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

pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::SimResult;
pub use trace::{
    EventKind, FedMeta, FileSink, MemorySink, NullSink, Trace, TraceEvent, TraceHeader, TraceSink,
    WorkerParams,
};
