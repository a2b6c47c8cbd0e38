//! End-to-end federation runs, every shard and worker on one virtual
//! clock ([`run_federation`]).
//!
//! The acceptance-criteria scenario: a ≥66-node out-mesh split across
//! two shard servers, one flaky worker per shard, the shard link
//! severed once mid-run — and the federation still drains with every
//! node completed and the merged trace audit-clean, in the same bytes
//! every run. A dead fleet is an error.

use ic_audit::{audit_trace, merge_traces, Severity};
use ic_families::mesh::out_mesh;
use ic_fed::{plan, run_federation, FedOptions, FedRun, Partition};
use ic_net::{FaultPlan, ServerConfig, WorkerConfig};
use ic_sim::Trace;

/// Merge the per-shard traces and require the global trace to replay
/// with zero merge-time (IC06xx) and zero replay (IC04xx) errors.
fn assert_merged_audit_clean(traces: &[Trace]) -> Trace {
    let out = merge_traces(traces);
    let merge_errors: Vec<_> = out
        .diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(merge_errors.is_empty(), "merge errors: {merge_errors:?}");
    let merged = out.trace.expect("consistent metadata must merge");
    let replay_errors: Vec<_> = audit_trace(&merged)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(
        replay_errors.is_empty(),
        "merged trace must replay clean: {replay_errors:?}"
    );
    merged
}

fn fed_workers(shard: usize, flaky: bool) -> Vec<WorkerConfig> {
    let mut pop = Vec::new();
    for w in 0..3usize {
        let fault = if flaky && w == 2 {
            // One worker per shard dies mid-run; the lease machinery
            // must reallocate its tasks.
            FaultPlan::DieAfter(3)
        } else {
            FaultPlan::None
        };
        pop.push(
            WorkerConfig::builder()
                .id(format!("s{shard}w{w}"))
                .mean_ms(1)
                .seed(u64::try_from(shard * 10 + w + 1).unwrap())
                .batch(2)
                .fault(fault)
                .build(),
        );
    }
    pop
}

fn run_mesh_federation(sever: Option<usize>) -> FedRun {
    let mesh = out_mesh(11); // 66 nodes
    assert!(mesh.num_nodes() >= 66);
    let part = Partition::level_cut(&mesh, 2);
    assert!(part.cut_size() > 0, "a banded mesh must have a cut");
    let plans = plan(&mesh, &part);

    let opts = FedOptions {
        server: ServerConfig::builder()
            .lease_ms(400)
            .backoff_base_ms(5)
            .expect_workers(3)
            .wait_ms(5)
            .build(),
        sever_link_after: sever,
    };
    let workers: Vec<Vec<WorkerConfig>> = (0..plans.len()).map(|s| fed_workers(s, true)).collect();
    let run = run_federation(&plans, &opts, &workers).expect("federation must drain");
    let again = run_federation(&plans, &opts, &workers).expect("federation must drain");
    let jsonl = |run: &FedRun| run.traces.iter().map(Trace::to_jsonl).collect::<Vec<_>>();
    assert_eq!(jsonl(&run), jsonl(&again), "same inputs, same bytes");

    // Every shard completed its whole sub-dag (stubs included), and cross-shard notifications actually flowed.
    assert_eq!(run.reports.len(), plans.len());
    for (s, (report, p)) in run.reports.iter().zip(&plans).enumerate() {
        assert_eq!(
            report.registry.completions + report.registry.remote_completions,
            p.dag.num_nodes() as u64,
            "shard {s} left nodes incomplete"
        );
        assert!(
            report.registry.peer_tx > 0 || report.registry.peer_rx > 0,
            "shard {s} exchanged no peer frames"
        );
    }
    if sever.is_some() {
        assert!(
            run.reports.iter().any(|r| r.registry.peer_reconnects > 0),
            "severing the shard link must force a reconnect"
        );
    }

    // The acceptance bar: the shard traces interleave into one global
    // trace that replays audit-clean over the whole 66-node mesh.
    let merged = assert_merged_audit_clean(&run.traces);
    assert_eq!(merged.header.nodes, 66);
    assert_eq!(
        merged.header.arcs.len(),
        mesh.num_arcs(),
        "merged header must reconstruct the global mesh"
    );
    run
}

#[test]
fn two_shard_mesh_completes_with_flaky_workers_notify_mode() {
    let run = run_mesh_federation(None);
    // Each global node is completed by a worker on exactly one shard.
    let local: u64 = run.reports.iter().map(|r| r.registry.completions).sum();
    assert_eq!(local, 66);
}

#[test]
fn two_shard_mesh_completes_despite_a_severed_link() {
    let run = run_mesh_federation(Some(3));
    let local: u64 = run.reports.iter().map(|r| r.registry.completions).sum();
    assert_eq!(local, 66);
}

/// One shard, one worker, and the worker dies after 3 tasks: nothing
/// is left that could finish the dag, and nothing is due. The run says
/// so instead of waiting forever.
#[test]
fn a_dead_fleet_is_an_error_not_a_hang() {
    let mesh = out_mesh(11);
    let plans = plan(&mesh, &Partition::level_cut(&mesh, 1));
    let mortal = WorkerConfig::builder()
        .fault(FaultPlan::DieAfter(3))
        .build();
    let err = run_federation(&plans, &FedOptions::default(), &[vec![mortal]]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
}

/// `ic-prio fed --family mesh:11 --lease-ms 1 --mean-ms 5`: every
/// compute outlasts the lease many times over, so each worker must
/// heartbeat inside a millisecond to keep its tasks. The run drains,
/// every node once, and the merged trace audits clean.
#[test]
fn a_1_ms_lease_drains_and_audits_clean() {
    let mesh = out_mesh(11);
    let plans = plan(&mesh, &Partition::auto(&mesh, 2));
    let opts = FedOptions {
        server: ServerConfig::builder()
            .lease_ms(1)
            .backoff_base_ms(5)
            .wait_ms(5)
            .build(),
        sever_link_after: None,
    };
    let mut workers: Vec<Vec<WorkerConfig>> =
        (0..plans.len()).map(|s| fed_workers(s, false)).collect();
    workers.iter_mut().flatten().for_each(|w| w.mean_ms = 5);
    let run = run_federation(&plans, &opts, &workers).expect("federation must drain");
    let local: u64 = run.reports.iter().map(|r| r.registry.completions).sum();
    assert_eq!(local, 66);
    assert_merged_audit_clean(&run.traces);
}

/// The work of `ic-prio fed --family mesh:11` at 1 and at 2 shards, as
/// exact counts from each shard's registry: poll rounds, frames in and
/// out, rounds that flushed output, and the machine's completions,
/// remote completions, allocations and reallocations. The virtual
/// clock makes them the same every run; a change that moves the work a
/// run does moves this pin and says why. The phase times are
/// wall-clock and not pinned.
#[test]
fn registry_counts_on_the_virtual_clock_are_pinned() {
    let mesh = out_mesh(11);
    let opts = FedOptions {
        server: ServerConfig::builder()
            .lease_ms(400)
            .backoff_base_ms(5)
            .wait_ms(5)
            .build(),
        sever_link_after: None,
    };
    // Per shard: [polls, frames_in, frames_out, flushes, completions,
    // remote_completions, allocations, failures].
    let pins: [&[[u64; 8]]; 2] = [
        &[[109, 142, 142, 55, 66, 0, 66, 0]],
        &[
            [102, 84, 92, 35, 36, 0, 36, 0],
            [102, 85, 77, 25, 30, 8, 30, 0],
        ],
    ];
    for (shards, pin) in (1..=2).zip(pins) {
        let plans = plan(&mesh, &Partition::level_cut(&mesh, shards));
        let workers: Vec<Vec<WorkerConfig>> =
            (0..plans.len()).map(|s| fed_workers(s, false)).collect();
        let counts = || -> Vec<[u64; 8]> {
            let run = run_federation(&plans, &opts, &workers).expect("federation must drain");
            let reg = run.reports.iter().map(|r| &r.registry);
            reg.map(|r| {
                [
                    r.polls,
                    r.frames_in,
                    r.frames_out,
                    r.flushes,
                    r.completions,
                    r.remote_completions,
                    r.allocations,
                    r.failures,
                ]
            })
            .collect()
        };
        let first = counts();
        assert_eq!(
            first,
            counts(),
            "{shards} shard(s): counts repeat run to run"
        );
        assert_eq!(first, pin, "{shards} shard(s)");
    }
}
