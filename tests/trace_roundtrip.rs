//! Trace-pipeline property tests: for randomly generated dags, the
//! lease machine's trace under a simulated client fleet (flaky and
//! mixed-speed in part) must (1) round-trip through the JSONL format
//! byte-exactly at the event level, (2) reproduce the run's metrics
//! from the parsed trace alone (`SimResult::from_trace` is the single
//! source of truth), and (3) replay clean under the IC04xx audit. The
//! symbolic-certification path is exercised on a family dag past the
//! exhaustive envelope limit.

use ic_scheduling::audit::audit_trace;
use ic_scheduling::audit::Severity;
use ic_scheduling::check::sim::{simulate_traced, ClientProfile, SimConfig};
use ic_scheduling::dag::testgen::random_dags;
use ic_scheduling::dag::Dag;
use ic_scheduling::families::mesh;
use ic_scheduling::sched::heuristics::Policy;
use ic_scheduling::sched::AllocationPolicy;
use ic_scheduling::sim::trace::MemorySink;
use ic_scheduling::sim::{SimResult, Trace};

fn run(dag: &Dag, policy: &dyn AllocationPolicy, clients: usize, seed: u64) -> (SimResult, Trace) {
    let profile = ClientProfile {
        num_clients: clients,
        ..ClientProfile::default()
    };
    run_with(dag, policy, profile, seed)
}

fn run_with(
    dag: &Dag,
    policy: &dyn AllocationPolicy,
    clients: ClientProfile,
    seed: u64,
) -> (SimResult, Trace) {
    let cfg = SimConfig {
        clients,
        seed,
        ..SimConfig::default()
    };
    let mut sink = MemorySink::new();
    let r = simulate_traced(dag, policy, &cfg, &mut sink);
    (r, sink.into_trace().expect("header recorded"))
}

#[test]
fn jsonl_round_trips_exactly_on_random_dags() {
    for (i, dag) in random_dags(0xA11CE, 25, 14, 35).iter().enumerate() {
        let clients = 1 + i % 4;
        let (_, trace) = run(dag, &Policy::Fifo, clients, i as u64);
        let text = trace.to_jsonl();
        let parsed = Trace::from_jsonl(&text).expect("own output parses");
        assert_eq!(parsed.header, trace.header, "case {i}");
        assert_eq!(parsed.events, trace.events, "case {i}");
        // Serialization is deterministic: a second round is identical.
        assert_eq!(parsed.to_jsonl(), text, "case {i}");
    }
}

#[test]
fn metrics_survive_serialization_on_random_dags() {
    for (i, dag) in random_dags(0xBEA7, 20, 12, 40).iter().enumerate() {
        let policies: [&dyn AllocationPolicy; 3] = [
            &Policy::Fifo,
            &Policy::GreedyEligibility,
            &Policy::Random(i as u64),
        ];
        let p = policies[i % policies.len()];
        let (r, trace) = run(dag, p, 1 + i % 3, 1000 + i as u64);
        let parsed = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(SimResult::from_trace(&parsed), r, "case {i}");
    }
}

#[test]
fn random_runs_replay_clean_under_the_trace_audit() {
    for (i, dag) in random_dags(0x7ACE, 20, 12, 40).iter().enumerate() {
        let (_, trace) = run(dag, &Policy::GreedyEligibility, 1 + i % 4, i as u64);
        let parsed = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
        let diags = audit_trace(&parsed);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "case {i}: {diags:?}"
        );
    }
}

/// Flaky clients on mixed hardware: every lost task takes the lease
/// machine's backoff path, and each such trace still replays clean and
/// refolds, after a JSONL round trip, to the run's own result.
#[test]
fn failures_reallocate_and_still_replay_clean() {
    let mut failures = 0;
    for (i, dag) in random_dags(0xFA17, 16, 10, 40).iter().enumerate() {
        let clients = 1 + i % 4;
        let speeds = (0..clients).map(|c| 0.5 + ((c + i) % 3) as f64 * 0.75);
        let profile = ClientProfile {
            num_clients: clients,
            failure_prob: [0.1, 0.25, 0.4][i % 3],
            speed_factors: Some(speeds.collect()),
            ..ClientProfile::default()
        };
        let policies: [&dyn AllocationPolicy; 3] =
            [&Policy::Fifo, &Policy::Lifo, &Policy::GreedyEligibility];
        let (r, trace) = run_with(dag, policies[i % 3], profile, i as u64);
        failures += r.failures;
        let parsed = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(SimResult::from_trace(&parsed), r, "case {i}");
        let diags = audit_trace(&parsed);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "case {i} ({} failures): {diags:?}",
            r.failures
        );
    }
    assert!(failures > 0, "the generated runs must fail some tasks");
}

#[test]
fn symbolic_certification_covers_dags_past_the_exhaustive_limit() {
    // 55 nodes — the down-set lattice is out of reach, but the mesh is
    // recognized and its closed-form envelope applied.
    let g = mesh::out_mesh(10);
    let s = mesh::out_mesh_schedule(&g);
    let (_, optimal) = run(&g, &s, 1, 3);
    let parsed = Trace::from_jsonl(&optimal.to_jsonl()).unwrap();
    assert!(
        audit_trace(&parsed).is_empty(),
        "optimal run is fully clean"
    );

    let (_, lifo) = run(&g, &Policy::Lifo, 1, 3);
    let parsed = Trace::from_jsonl(&lifo.to_jsonl()).unwrap();
    let diags = audit_trace(&parsed);
    assert!(
        diags
            .iter()
            .any(|d| d.code == ic_scheduling::audit::diag::ENVELOPE_DEPARTURE),
        "LIFO departs from the symbolic envelope: {diags:?}"
    );
    assert!(
        diags.iter().all(|d| d.severity == Severity::Warning),
        "envelope departure alone is advisory"
    );
}
