//! # `ic-families` — the dag families of the paper
//!
//! One module per family of *Applying IC-Scheduling Theory to Familiar
//! Classes of Computations*, each providing constructors, the paper's
//! closed-form IC-optimal schedules, decompositions into building
//! blocks, and multi-granularity (coarsening) transforms:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`primitives`] | Fig 1 (V, Λ), Fig 8 (butterfly block B), Fig 12 (N-dags), Fig 6 (W-, M-dags), §7.2 (cycle-dags C_s), Fig 14 (V₃) |
//! | [`trees`] | out-trees and in-trees (§3.1) |
//! | [`diamond`] | Figs 2–4, Table 1 (expansion–reduction computations) |
//! | [`mesh`] | Figs 5–7 (wavefront computations, §4) |
//! | [`butterfly`] | Figs 9–10 (butterfly networks, §5) |
//! | [`sorting`] | §5.2 (comparator sorting networks) |
//! | [`prefix`] | Figs 11–12 (parallel-prefix dags, §6.1) |
//! | [`dlt`] | Figs 13, 15 (Discrete Laplace Transform dags, §6.2.1) |
//! | [`paths`] | Fig 16 (graph-paths computation, §6.2.2) |
//! | [`matmul`] | Fig 17 (matrix-multiplication dag, §7) |
//! | [`claims`] | the machine-checkable registry of all the above claims |
//! | [`symbolic`] | closed-form optimal-envelope certificates for large family instances |
//!
//! All constructors produce dags whose node ids follow the canonical
//! layout documented per module; schedules are returned as
//! [`ic_sched::Schedule`] values validated against the dag.

#![forbid(unsafe_code)]

pub mod butterfly;
pub mod claims;
pub mod diamond;
pub mod dlt;
pub mod matmul;
pub mod mesh;
pub mod paths;
pub mod prefix;
pub mod primitives;
pub mod sorting;
pub mod symbolic;
pub mod trees;
