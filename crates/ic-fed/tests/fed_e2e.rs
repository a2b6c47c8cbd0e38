//! End-to-end federation runs, every shard and worker on one virtual
//! clock ([`run_federation`]).
//!
//! The acceptance-criteria scenario: a ≥66-node out-mesh split across
//! two shard servers, one flaky worker per shard, the shard link
//! severed once mid-run — and the federation still drains with every
//! node completed and the merged trace audit-clean, under both cut
//! modes, in the same bytes every run. A dead fleet is an error.

use ic_audit::{audit_trace, merge_traces, Severity};
use ic_families::mesh::out_mesh;
use ic_fed::{plan, run_federation, CutMode, FedOptions, FedRun, Partition};
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

fn run_mesh_federation(mode: CutMode, sever: Option<usize>) -> FedRun {
    let mesh = out_mesh(11); // 66 nodes
    assert!(mesh.num_nodes() >= 66);
    let part = Partition::mesh_bands(&mesh, 2);
    assert!(part.cut_size() > 0, "a banded mesh must have a cut");
    let plans = plan(&mesh, &part, mode);

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

    // Every shard completed its whole sub-dag (stubs and replicas
    // included), and cross-shard notifications actually flowed.
    assert_eq!(run.reports.len(), plans.len());
    for (s, (report, p)) in run.reports.iter().zip(&plans).enumerate() {
        assert_eq!(
            report.completions + report.remote_completions,
            p.dag.num_nodes(),
            "shard {s} left nodes incomplete"
        );
        assert!(
            report.peer_tx > 0 || report.peer_rx > 0,
            "shard {s} exchanged no peer frames"
        );
    }
    if sever.is_some() {
        assert!(
            run.reports.iter().any(|r| r.peer_reconnects > 0),
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
    let run = run_mesh_federation(CutMode::Notify, None);
    // Under Notify each global node is completed by a worker on
    // exactly one shard.
    let local: usize = run.reports.iter().map(|r| r.completions).sum();
    assert_eq!(local, 66);
}

#[test]
fn two_shard_mesh_completes_despite_a_severed_link() {
    let run = run_mesh_federation(CutMode::Notify, Some(3));
    let local: usize = run.reports.iter().map(|r| r.completions).sum();
    assert_eq!(local, 66);
}

#[test]
fn two_shard_mesh_completes_under_replicate_cut() {
    let run = run_mesh_federation(CutMode::Replicate, Some(2));
    // Replication means at-least-once completion of boundary tasks.
    let local: usize = run.reports.iter().map(|r| r.completions).sum();
    assert!(local >= 66, "replicated run lost completions: {local}");
}

/// One shard, one worker, and the worker dies after 3 tasks: nothing
/// is left that could finish the dag, and nothing is due. The run says
/// so instead of waiting forever.
#[test]
fn a_dead_fleet_is_an_error_not_a_hang() {
    let mesh = out_mesh(11);
    let plans = plan(&mesh, &Partition::mesh_bands(&mesh, 1), CutMode::Notify);
    let mortal = WorkerConfig::builder()
        .fault(FaultPlan::DieAfter(3))
        .build();
    let err = run_federation(&plans, &FedOptions::default(), &[vec![mortal]]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
}
