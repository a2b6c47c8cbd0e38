//! # `ic-bench` — the experiment harness
//!
//! Regenerates every artifact of the paper's exposition — each of
//! Figures 1–17, Table 1, and the §5.2/§6.2 computations — as a
//! machine-checked experiment: construct the dag family, run the
//! paper's schedule, compare its eligibility profile against the
//! exhaustive optimal envelope (at checkable sizes) and against the
//! heuristic baselines, and emit a PASS/FAIL verdict plus the series
//! the paper's claims predict.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p ic-bench --bin experiments
//! ```
//!
//! or one artifact: `cargo run -p ic-bench --bin experiments -- F13`.
//! Pass `--dot <dir>` to also write Graphviz renderings of every
//! constructed figure.
//!
//! Micro-benchmarks live under `benches/`, driven by the dependency-free
//! [`harness`] module (`cargo bench -p ic-bench`).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod report;
