//! `ic-check`: a deterministic model checker for the ic-net server.
//! Like `ic-net`, `ic-sim` and `ic-fed`, its non-test code is held to
//! the protocol crates' lint bans: the `deny` attribute below,
//! `clippy.toml`'s `std::thread::spawn` and `scripts/verify.sh`'s grep
//! for a `char` cast to a narrower integer. The one escape is
//! `#[expect(clippy::…, reason = "…")]` on the item it covers.
//!
//! The server's protocol is sans-IO on both sides: `ic_net::ServerCore`
//! (the lease machine, the connection table and the peer links, with
//! no clock, poller or sink) and the worker's `ic_net::WorkerSession`.
//! Instead of running them over TCP and hoping the interesting races
//! happen, the checker steps a small fleet of sessions against one core,
//! with encoded frames on connections it opens, **enumerates every
//! interleaving** they and an adversary can produce (failures, heartbeat
//! rounds, severs, delayed closes, late frames, resumes, forced lease
//! expiries), and checks the `IC05xx` invariants ([`invariants`]) at
//! every reachable state. Stamp pruning and sleep sets hold the state
//! space down ([`explore`]); a violation comes with its shortest
//! (breadth-first) trace.
//!
//! [`check_crash`] runs the same search carrying the restore fold of
//! each path's trace and, at every state, rebuilds a machine from the
//! trace prefix (the write-ahead-log reading, `ic_net::recovery`) that
//! must agree with the live one (IC0701, IC0702, IC0704) and pass the
//! `IC05xx` scan itself.
//!
//! [`differential`] drives the one `LeaseMachine` over its indexed lease
//! table and over `reference::ScanTable`, a `Vec` scanned linearly, with
//! identical randomized scripts: both must emit identical bytes.
//!
//! [`sim`] drives the machine forward in virtual time instead: a seeded
//! client fleet whose trace yields the paper's §2.2 metrics (gridlock,
//! batch shortfall, ELIGIBLE-pool size), behind EXPERIMENTS §SIM and
//! `ic-prio sim`.
//!
//! ```
//! use ic_check::{check, CheckConfig, FleetSpec};
//! use ic_net::machine::SeededBugs;
//! use ic_sched::heuristics::Policy;
//!
//! let dag = ic_families::trees::complete_out_tree(1, 2); // a 3-chain
//! let outcome = check(
//!     &dag,
//!     &Policy::Fifo,
//!     &FleetSpec::of(2),
//!     &CheckConfig::default(),
//!     SeededBugs::default(),
//! );
//! assert!(outcome.is_clean());
//! ```

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

pub mod crash;
pub mod differential;
pub mod explore;
pub mod invariants;
#[doc(hidden)]
pub mod reference;
pub mod scenario;
pub mod sim;

pub use crash::check_crash;
pub use explore::{check, CheckConfig, CheckOutcome, CheckStats, Violation};
pub use scenario::{FleetSpec, WorkerSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use ic_dag::Dag;
    use ic_net::machine::SeededBugs;
    use ic_sched::heuristics::Policy;

    fn family(name: &str) -> Dag {
        match name {
            "chain:3" => ic_families::trees::complete_out_tree(1, 2),
            "chain:4" => ic_families::trees::complete_out_tree(1, 3),
            "mesh:3" => ic_families::mesh::out_mesh(3),
            "intree:2" => ic_families::trees::complete_in_tree(2, 2),
            other => panic!("unknown test family {other}"),
        }
    }

    fn run(name: &str, fleet: &FleetSpec, cfg: &CheckConfig) -> CheckOutcome {
        let dag = family(name);
        check(&dag, &Policy::Fifo, fleet, cfg, SeededBugs::default())
    }

    #[test]
    fn a_clean_machine_passes_on_small_families() {
        for family in ["chain:4", "mesh:3", "intree:2"] {
            let outcome = run(family, &FleetSpec::of(2), &CheckConfig::default());
            match &outcome {
                CheckOutcome::Clean(stats) => {
                    assert!(
                        stats.states > 10,
                        "{family}: explored {} states",
                        stats.states
                    );
                    assert!(
                        stats.complete_runs > 0,
                        "{family}: no interleaving ran to completion"
                    );
                }
                CheckOutcome::Violation(v) => {
                    panic!("{family}: {} — trace: {:?}", v.diag, v.trace)
                }
            }
        }
    }

    #[test]
    fn a_faulty_severing_fleet_still_passes() {
        let fleet = FleetSpec {
            workers: vec![
                WorkerSpec::v2().fails(1).severs(1).expiries(1),
                WorkerSpec::v2(),
            ],
            steal: false,
            batch: 1,
        };
        let outcome = run("chain:3", &fleet, &CheckConfig::default());
        assert!(
            outcome.is_clean(),
            "expected clean, got {:?}",
            match outcome {
                CheckOutcome::Violation(v) => format!("{} / {:?}", v.diag, v.trace),
                _ => String::new(),
            }
        );
    }

    #[test]
    fn the_steal_path_passes_with_a_straggler() {
        let fleet = FleetSpec {
            workers: vec![WorkerSpec::v2().batch(2), WorkerSpec::v2()],
            steal: true,
            batch: 2,
        };
        let outcome = run("chain:3", &fleet, &CheckConfig::default());
        assert!(outcome.is_clean());
    }

    #[test]
    fn sleep_sets_prune_without_losing_terminal_runs() {
        // Give both workers a sever: reachable states where both have
        // resumed with their old connections' closes still unseen make
        // deliver-gone(w0) and deliver-gone(w1) an independent pair,
        // which the sleep sets cut one order of.
        let fleet = FleetSpec {
            workers: vec![WorkerSpec::v2().severs(1), WorkerSpec::v2().severs(1)],
            steal: false,
            batch: 1,
        };
        let outcome = run("mesh:3", &fleet, &CheckConfig::default());
        let stats = outcome.stats();
        assert!(outcome.is_clean());
        assert!(
            stats.sleep_pruned > 0,
            "expected some commuting orders to be slept"
        );
        assert!(stats.exhaustive(), "bounds too tight for the smoke config");
    }

    #[test]
    fn crash_recovery_agrees_with_the_live_machine_everywhere() {
        // Kill-at-every-prefix over an adversarial fleet: failures,
        // severs, forced expiries, and the speculative steal path all
        // leave their marks in the log, and every rebuilt machine
        // must still agree with the live one.
        let fleet = FleetSpec {
            workers: vec![
                WorkerSpec::v2().fails(1).severs(1).expiries(1),
                WorkerSpec::v2(),
            ],
            steal: true,
            batch: 1,
        };
        let cfg = CheckConfig {
            max_states: 20_000,
            ..CheckConfig::default()
        };
        let dag = family("chain:3");
        let outcome = check_crash(&dag, &Policy::Fifo, &fleet, &cfg, SeededBugs::default());
        match &outcome {
            CheckOutcome::Clean(stats) => {
                assert!(stats.states > 10, "explored {} states", stats.states);
            }
            CheckOutcome::Violation(v) => {
                panic!("{} — trace: {:?}", v.diag, v.trace)
            }
        }
    }

    #[test]
    fn the_state_cap_reports_a_truncated_run() {
        let cfg = CheckConfig {
            max_states: 16,
            ..CheckConfig::default()
        };
        let outcome = run("mesh:3", &FleetSpec::of(2), &cfg);
        assert!(outcome.is_clean());
        assert!(outcome.stats().state_capped);
    }
}
