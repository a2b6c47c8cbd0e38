//! # `ic-audit` — static verifier for dags, schedules, and paper claims
//!
//! A multi-pass analyzer over the workspace's IC-scheduling artifacts,
//! emitting structured [`Diagnostic`]s with stable `ICxxxx` codes (see
//! [`diag::CODE_TABLE`] and the table in `DESIGN.md`):
//!
//! * **graph passes** ([`graph`]) run on *raw* edge lists, where
//!   cycles (IC0001), duplicate arcs (IC0002) and isolated nodes
//!   (IC0003) can still be observed — a built [`ic_dag::Dag`] has
//!   already rejected the first two;
//! * **order passes** ([`order`]) check a candidate execution order for
//!   topological validity (IC0101) and — separately, because "valid but
//!   dominated" is a state the paper itself exhibits in §7.2 — for
//!   envelope gaps against the exhaustively computed optimal
//!   eligibility envelope (IC0102);
//! * **trace passes** ([`trace`]) replay a recorded execution trace
//!   ([`ic_sim::trace`]) against the dag in its header: non-ELIGIBLE
//!   allocations (IC0401), completions without allocation (IC0402),
//!   pool-size divergence (IC0403), envelope departures (IC0404, a
//!   warning — certified exhaustively for small dags and symbolically,
//!   via [`ic_families::symbolic`], for large canonical family
//!   instances), and truncated traces (IC0405);
//! * **claim passes** ([`claims`]) walk the [`ic_families::claims`]
//!   registry and machine-check every registered paper claim:
//!   IC-optimality or its asserted absence, closed-form profiles,
//!   ▷-linear chains (IC0201), and Theorem 2.2 duality (IC0301);
//! * **the merge pass** ([`merge`]) interleaves the per-shard traces
//!   of a federated (`ic-fed`) run into one audit-ready global trace,
//!   checking the cross-shard causality the other passes cannot see
//!   (IC0600–IC0603).
//!
//! Instances up to [`order::EXHAUSTIVE_LIMIT`] nodes are certified by
//! sweeping the down-set lattice; larger instances get structural
//! certificates (exactly what their registration asserts). The
//! `ic-prio audit` subcommand of `ic-cli` is a thin front-end over
//! [`claims::run_all_claims`] and the graph/order passes.

#![forbid(unsafe_code)]

pub mod claims;
pub mod diag;
pub mod graph;
pub mod merge;
pub mod order;
pub mod report;
pub mod trace;

pub use claims::{audit_claim, run_all_claims};
pub use diag::{Diagnostic, Severity};
pub use merge::{merge_traces, MergedTrace};
pub use report::AuditReport;
pub use trace::audit_trace;
