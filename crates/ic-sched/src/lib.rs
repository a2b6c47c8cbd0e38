//! # `ic-sched` — the core of IC-Scheduling Theory
//!
//! This crate implements, as executable and machine-checkable code, the
//! scheduling theory of Cordasco–Malewicz–Rosenberg for Internet-based
//! computing (IC):
//!
//! * **Eligibility semantics** (§2.2 of the paper): a node is ELIGIBLE
//!   once all its parents have executed; executing nodes one at a time
//!   yields the *eligibility profile* `E_Σ(t)` — the number of ELIGIBLE
//!   nodes after `t` executions ([`eligibility`], [`schedule`]).
//! * **IC-optimality**: a schedule is IC-optimal when it maximizes
//!   `E(t)` at *every* step simultaneously. [`optimal`] computes the
//!   optimal envelope exhaustively (over the dag's down-set lattice) for
//!   dags of up to 64 nodes, checks schedules against it, synthesizes
//!   IC-optimal schedules when they exist, and decides whether *every*
//!   schedule is IC-optimal.
//! * **The priority relation `G1 ▷ G2`** from \[21\] (§2.3.1): executing
//!   `G1`'s nonsinks before `G2`'s never hurts ([`priority`]).
//! * **Theorem 2.1**: a ▷-linear composition is scheduled IC-optimally
//!   by concatenating the stages' IC-optimal schedules
//!   ([`compose_schedule`]).
//! * **Theorems 2.2 / 2.3 (duality)**: dual schedules via packet
//!   reversal, and priority transfer to duals ([`duality`]).
//! * **Baseline heuristics** (FIFO, LIFO, RANDOM, greedy, ...) used as
//!   comparators in the companion simulation studies ([`heuristics`]).
//! * **Quality metrics** over eligibility profiles ([`quality`]).
//!
//! ## Example: the Vee dag is IC-optimally scheduled by any order
//!
//! ```
//! use ic_dag::builder::from_arcs;
//! use ic_sched::{optimal, Schedule};
//!
//! let vee = from_arcs(3, &[(0, 1), (0, 2)]).unwrap();
//! assert!(optimal::every_schedule_ic_optimal(&vee).unwrap());
//! let sched = Schedule::in_id_order(&vee);
//! assert_eq!(sched.profile(&vee), vec![1, 2, 1, 0]);
//! ```

#![forbid(unsafe_code)]

pub mod almost;
pub mod batched;
pub mod compose_schedule;
pub mod duality;
pub mod eligibility;
pub mod error;
pub mod heuristics;
pub mod linearize;
pub mod optimal;
pub mod policy;
pub mod priority;
pub mod quality;
pub mod schedule;

pub use error::SchedError;
pub use policy::{AllocationPolicy, PolicyContext};
pub use priority::has_priority;
pub use schedule::Schedule;
