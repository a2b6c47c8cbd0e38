//! # `ic-fed` — sharded multi-server federation for huge family dags
//!
//! One lease server per dag is the paper's setting, but its families
//! scale past what a single server should hold: an out-mesh at
//! simulation scale is hundreds of thousands of nodes. This crate
//! splits one computation-dag across a *federation* of shard servers:
//!
//! 1. [`Partition`] assigns nodes to shards along family structure
//!    (butterfly column halves, whole tree subtrees; topological-depth
//!    bands otherwise, which on a mesh are runs of whole diagonals),
//!    recording the cut edges;
//! 2. [`plan()`] turns the partition into per-shard [`ShardPlan`]s:
//!    every node has one owner shard, and each shard's sub-dag embeds
//!    a *stub* source for every remote predecessor, completed by its
//!    owner's `remote-done`, so the unmodified
//!    [`LeaseMachine`](ic_net::LeaseMachine) + reactor runs each
//!    shard and a node with unmet remote predecessors is simply not
//!    yet ELIGIBLE;
//! 3. cross-shard dependencies travel as additive v3 wire frames
//!    (`peer-hello` / `remote-done` / `peer-drain` — workers keep
//!    speaking v2 unchanged) over a full peer mesh with dialer-owned
//!    reconnect and idempotent backlog replay;
//! 4. [`run_federation`] runs the whole federation in one process on
//!    one virtual clock; `ic_audit`'s merge pass interleaves the
//!    per-shard traces back into one audit-clean global trace.

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

pub mod partition;
pub mod plan;
pub mod runtime;

pub use partition::{Partition, ShardId};
pub use plan::{plan, ShardPlan};
pub use runtime::{run_federation, FedOptions, FedRun};
