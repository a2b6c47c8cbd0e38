//! # `ic-fed` — sharded multi-server federation for huge family dags
//!
//! One lease server per dag is the paper's setting, but its families
//! scale past what a single server should hold: an out-mesh at
//! simulation scale is hundreds of thousands of nodes. This crate
//! splits one computation-dag across a *federation* of shard servers:
//!
//! 1. [`Partition`] assigns nodes to shards along family structure
//!    (mesh row bands, butterfly column halves, whole tree subtrees;
//!    generic topological-depth bands otherwise), recording the cut
//!    edges;
//! 2. [`plan()`] turns the partition into per-shard [`ShardPlan`]s:
//!    each shard's sub-dag embeds a *stub* source for every remote
//!    predecessor, so the unmodified
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
//!
//! [`CutMode::Replicate`] (`--replicate-cut`) additionally duplicates
//! boundary tasks onto their consumer shards — first completion wins,
//! mirroring the speculative-lease revoke path, after Papp et al.'s
//! replication-vs-communication trade-off (arXiv 2205.00209,
//! 2303.05989).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;
pub mod plan;
pub mod runtime;

pub use partition::{Partition, PartitionError, ShardId};
pub use plan::{plan, CutMode, ShardPlan};
pub use runtime::{run_federation, FedOptions, FedRun};
