//! Benches for the lease-protocol model checker.
//!
//! * `check` — full exhaustive explorations of small fleet × family
//!   configurations through `ic_check::check` (and two through
//!   `ic_check::check_crash`), with the explored state count attached
//!   to each record so `bench-check` can report states/second
//!   alongside the raw times.
//!
//! The checker is deterministic, so the state count is a property of
//! the configuration, not the run: it is measured once up front and
//! asserted stable across the timed runs by construction (same dag,
//! same fleet, same bounds).

use ic_bench::harness::Runner;
use ic_check::{check, check_crash, CheckConfig, CheckOutcome, FleetSpec, WorkerSpec};
use ic_dag::Dag;
use ic_net::machine::SeededBugs;
use ic_sched::heuristics::Policy;
use ic_sched::policy::AllocationPolicy;

/// `ic_check::check` or `ic_check::check_crash`.
type Checker =
    fn(&Dag, &dyn AllocationPolicy, &FleetSpec, &CheckConfig, SeededBugs) -> CheckOutcome;

/// One benched configuration: a family instance, a fleet, and the
/// checker that explores it.
fn subjects() -> Vec<(String, Dag, FleetSpec, Checker)> {
    vec![
        (
            "mesh3_2w".to_string(),
            ic_families::mesh::out_mesh(3),
            FleetSpec::of(2),
            check,
        ),
        (
            "mesh3_2w_steal".to_string(),
            ic_families::mesh::out_mesh(3),
            FleetSpec::of(2).with_steal(),
            check,
        ),
        (
            "mesh4_3w".to_string(),
            ic_families::mesh::out_mesh(4),
            FleetSpec::of(3),
            check,
        ),
        // An adversarial fleet: severs, failures, and forced expiries
        // all in play — the configuration the negative suite stresses.
        (
            "chain4_faulty".to_string(),
            ic_families::trees::complete_out_tree(1, 3),
            FleetSpec {
                workers: vec![
                    WorkerSpec::v2().fails(1).severs(1).expiries(1),
                    WorkerSpec::v2(),
                ],
                steal: false,
                batch: 1,
            },
            check,
        ),
        // The crash checker: the restore fold carried along every
        // path and keyed beside the fleet (320 states; 42 717 when
        // the log itself was keyed).
        (
            "mesh3_2w_crash".to_string(),
            ic_families::mesh::out_mesh(3),
            FleetSpec::of(2),
            check_crash,
        ),
        // The crash search at the size CI checks exhaustively (14 292
        // states).
        (
            "mesh4_3w_crash".to_string(),
            ic_families::mesh::out_mesh(4),
            FleetSpec::of(3),
            check_crash,
        ),
    ]
}

fn bench_check(r: &mut Runner) {
    let cfg = CheckConfig::default();
    for (id, dag, fleet, checker) in subjects() {
        let outcome = checker(&dag, &Policy::Fifo, &fleet, &cfg, SeededBugs::default());
        assert!(outcome.is_clean(), "{id}: the clean machine must pass");
        let states = outcome.stats().states as u64;
        r.bench_states("check", &id, dag.num_nodes(), states, || {
            checker(&dag, &Policy::Fifo, &fleet, &cfg, SeededBugs::default())
        });
    }
}

fn main() {
    let mut r = Runner::from_env();
    bench_check(&mut r);
    r.finish();
}
