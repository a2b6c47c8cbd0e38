//! # `ic-sim` — a discrete-event Internet-computing server simulator
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
//! This crate simulates exactly that setting (we have no Grid/Condor
//! testbed; the paper's companion evaluations [15, 19] are simulations
//! of the same kind): heterogeneous clients with stochastic service
//! times and optional stragglers repeatedly request tasks; the server
//! allocates the ELIGIBLE task chosen by any
//! [`ic_sched::AllocationPolicy`] — a precomputed
//! [`ic_sched::Schedule`] acts as a static priority list. Reported
//! metrics: makespan, gridlock events, client idle time, utilization,
//! and the ELIGIBLE-pool trace.
//!
//! Every run can stream its full event history — allocations,
//! completions, failures, idle requests — through a
//! [`trace::TraceSink`]; the [`trace`] module defines the JSONL trace
//! format that `ic-prio audit --schedule` replays, and every metric in
//! [`SimResult`] is derived from that same event stream (one source of
//! truth; see [`SimResult::from_trace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod server;
pub mod trace;

pub use metrics::SimResult;
pub use server::{simulate, simulate_traced, ClientProfile, SimConfig};
pub use trace::{
    EventKind, FedMeta, FileSink, MemorySink, NullSink, Trace, TraceEvent, TraceHeader, TraceSink,
    WorkerParams,
};
