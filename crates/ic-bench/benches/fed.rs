//! `fed` group: the sharded federation, every shard and worker in one
//! loop on one virtual clock (`ic_fed::run_federation`).
//!
//! One out-mesh of [`LEVELS`] levels (300 nodes, 1-ms tasks) is
//! partitioned into row bands and run as a 1-, 2- and 4-shard
//! federation with two healthy workers per shard. Per shard count `S`
//! one record goes into the `fed` group, `drain_{S}s`: one iteration
//! is one whole federation run (shards built → every shard drained and
//! merged-trace-ready) and `states` is the mesh's nodes. No iteration
//! waits out a task or a nap: the row is the federation protocol's CPU.
//! The peer frames sent and the cut size — frames ÷ cut edges is the
//! notification protocol's per-cut-edge overhead — are counts, not
//! times: they go to stdout, from the last iteration.

use ic_bench::harness::Runner;
use ic_families::mesh::out_mesh;
use ic_fed::{plan, run_federation, CutMode, FedOptions, Partition};
use ic_net::{ServerConfig, WorkerConfig};

/// 300 nodes: a cut of 34 edges at 2 shards and 100 at 4, enough for
/// peer traffic to show in the rows.
const LEVELS: usize = 24;

/// Two healthy workers for one shard of the fleet.
fn shard_workers(shard: usize) -> Vec<WorkerConfig> {
    (0..2usize)
        .map(|w| {
            WorkerConfig::builder()
                .id(format!("s{shard}w{w}"))
                .mean_ms(1)
                .seed(u64::try_from(shard * 8 + w + 1).unwrap_or(1))
                .batch(2)
                .build()
        })
        .collect()
}

fn main() {
    let mut r = Runner::from_env();
    let mesh = out_mesh(LEVELS);
    let nodes = mesh.num_nodes();
    let opts = FedOptions {
        server: ServerConfig::builder()
            .lease_ms(30_000)
            .backoff_base_ms(1)
            .wait_ms(2)
            .expect_workers(2)
            .seed(0xFED5EED)
            .build(),
        sever_link_after: None,
    };
    for shards in [1u64, 2, 4] {
        let part = Partition::mesh_bands(&mesh, shards);
        let cut = part.cut_size();
        assert!(shards == 1 || cut > 0, "a banded mesh must have a cut");
        let plans = plan(&mesh, &part, CutMode::Notify);
        let workers: Vec<Vec<WorkerConfig>> = (0..plans.len()).map(shard_workers).collect();
        let mut last = None;
        r.bench_states(
            "fed",
            &format!("drain_{shards}s"),
            nodes,
            nodes as u64,
            || {
                let run = run_federation(&plans, &opts, &workers).expect("federation run");
                let local: usize = run.reports.iter().map(|rep| rep.completions).sum();
                assert_eq!(local, nodes, "federation completed the mesh");
                last = Some(run);
            },
        );
        if let Some(run) = last {
            let allocations: usize = run.reports.iter().map(|rep| rep.allocations).sum();
            let peer_tx: usize = run.reports.iter().map(|rep| rep.peer_tx).sum();
            println!(
                "fed: {nodes} nodes, {shards} shard(s): {allocations} allocations, \
                 {peer_tx} peer frames over {cut} cut edges",
            );
        }
    }
    r.finish();
}
