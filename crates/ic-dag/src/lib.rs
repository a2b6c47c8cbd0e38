//! # `ic-dag` — the computation-dag substrate for IC-Scheduling Theory
//!
//! IC-Scheduling Theory (Cordasco–Malewicz–Rosenberg) models a computation
//! as a *directed acyclic graph*: nodes are tasks; an arc `(u -> v)` means
//! task `v` cannot be executed until `u` has been. This crate provides the
//! dag representation and the algebra the theory is built on:
//!
//! * a compact, immutable [`Dag`] with O(1) parent/child slice access
//!   ([`dag`], [`builder`]);
//! * traversal utilities: topological orders, levels, reachability
//!   ([`traversal`]);
//! * the **dual** of a dag — all arcs reversed, interchanging sources and
//!   sinks ([`ops::dual`]);
//! * disjoint **sums** of dags ([`ops::sum`]);
//! * the **composition** operation `G1 ⇑ G2` that merges selected sinks of
//!   `G1` with sources of `G2`, the engine behind every dag family in the
//!   paper ([`ops::compose`]);
//! * **quotient** (clustering) dags used to render computations
//!   multi-granular ([`ops::quotient`]);
//! * enumeration of **down-sets** (the reachable execution states), the
//!   basis for exhaustive IC-optimality checking ([`ideals`]);
//! * Graphviz **DOT** rendering to regenerate the paper's figures
//!   ([`dot`]).
//!
//! The scheduling semantics themselves (eligibility, IC-optimality, the
//! priority relation) live one crate up, in `ic-sched`.
//!
//! ## Quick example
//!
//! ```
//! use ic_dag::DagBuilder;
//!
//! // The Vee dag: one source with two children (Fig. 1 of the paper).
//! let mut b = DagBuilder::new();
//! let w = b.add_node("w");
//! let x0 = b.add_node("x0");
//! let x1 = b.add_node("x1");
//! b.add_arc(w, x0).unwrap();
//! b.add_arc(w, x1).unwrap();
//! let vee = b.build().unwrap();
//!
//! assert_eq!(vee.sources().collect::<Vec<_>>(), vec![w]);
//! assert_eq!(vee.sinks().count(), 2);
//! assert_eq!(vee.children(w), &[x0, x1]);
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod dag;
pub mod dot;
pub mod error;
pub mod ideals;
pub mod iso;
pub mod ops;
pub mod rng;
pub mod serialize;
pub mod stats;
pub mod testgen;
pub mod traversal;

pub use builder::DagBuilder;
pub use dag::{Dag, NodeId};
pub use error::DagError;
pub use ops::compose::{compose, compose_full, ChainBuilder, Composition};
pub use ops::dual::dual;
pub use ops::quotient::{quotient, Quotient};
pub use ops::sum::{sum, Sum};
