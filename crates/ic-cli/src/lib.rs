//! # `ic-cli` — a PRIO-style priority tool
//!
//! The paper's assessment arm included PRIO \[19\], "a tool for
//! prioritizing DAGMan jobs": feed it a dag, get back an allocation
//! order informed by IC-Scheduling Theory. This crate is our analogue
//! for the workspace: it parses a task dag from a plain edge-list file
//! and emits a priority order computed by the theory — the exact
//! IC-optimal (or minimum-regret) schedule for small dags, heuristics
//! for large ones — plus eligibility diagnostics.
//!
//! ## File format
//!
//! ```text
//! # comments and blank lines are ignored
//! node build_a        # optional: declare (and name) a task
//! node build_b
//! build_a -> test_a   # an arc; undeclared endpoints are auto-created
//! build_b -> test_b
//! test_a -> package
//! test_b -> package
//! ```
//!
//! ## Usage
//!
//! ```text
//! ic-prio order tasks.dag --policy auto     # priority order + profile
//! ic-prio stats tasks.dag                   # structural summary
//! ic-prio sim tasks.dag --trace run.jsonl   # simulate; record the trace
//! ic-prio audit --claims                    # machine-check the paper claims
//! ic-prio audit --dag tasks.dag             # IC0001/IC0002/IC0003 lint
//! ic-prio audit --schedule run.jsonl        # replay a trace (IC04xx)
//! ic-prio dot tasks.dag                     # Graphviz rendering
//! ```
//!
//! Every data-producing command accepts `--json` and emits the one
//! envelope documented in [`output`]; exit codes are `0` (ok), `1`
//! (findings), `2` (usage/parse errors).

#![forbid(unsafe_code)]

pub mod commands;
pub mod flags;
pub mod output;
pub mod parse;

pub use flags::{CliError, Flags};
pub use output::CmdOutput;
pub use parse::{parse_dag, NamedDag, ParseError};
