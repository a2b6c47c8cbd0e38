//! `fed` group: the sharded federation over live localhost TCP.
//!
//! One out-mesh (`IC_FED_LEVELS` levels, default 11 → 66 nodes) is
//! partitioned into row bands and run as a 1-, 2- and 4-shard
//! federation (`IC_FED_SHARDS`, comma-separated) with two healthy
//! workers per shard. Per shard count `S`, up to three raw records go
//! into the `fed` group:
//!
//! * `alloc_rate_{S}s` — whole-run wall time with
//!   `states = allocations` summed over the shards, so `bench-check`
//!   reports allocations/sec;
//! * `drain_{S}s` — whole-run wall time (bind → every shard drained
//!   and merged-trace-ready), the federation's end-to-end cost;
//! * `cut_msgs_{S}s` (multi-shard only) — `states` is the total peer
//!   frames sent and `nodes` the cut size, so states ÷ nodes is the
//!   per-cut-edge message overhead of the notification protocol.
//!
//! These are macro-benchmarks: each configuration runs once over real
//! sockets and is reported through [`Runner::record_raw`], not
//! iterated.

use std::time::Instant;

use ic_bench::harness::Runner;
use ic_families::mesh::out_mesh;
use ic_fed::{plan, run_federation, CutMode, FedOptions, Partition};
use ic_net::{ServerConfig, WorkerConfig};

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

/// Run one shard-count configuration and push its records.
fn run_shards(r: &mut Runner, levels: usize, shards: u64) {
    let mesh = out_mesh(levels);
    let nodes = mesh.num_nodes();
    let part = Partition::mesh_bands(&mesh, shards);
    let plans = plan(&mesh, &part, CutMode::Notify);
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
    let workers: Vec<Vec<WorkerConfig>> = (0..plans.len()).map(shard_workers).collect();

    let t0 = Instant::now();
    let run = run_federation(&plans, &opts, &workers).expect("federation run");
    let total = t0.elapsed();

    let local: usize = run.reports.iter().map(|rep| rep.completions).sum();
    assert_eq!(local, nodes, "federation completed the mesh");
    let allocations: usize = run.reports.iter().map(|rep| rep.allocations).sum();
    let peer_tx: usize = run.reports.iter().map(|rep| rep.peer_tx).sum();
    let cut = part.cut_size();

    let alloc_per_s = allocations as f64 / total.as_secs_f64();
    println!(
        "fed: {nodes} nodes, {shards} shard(s): {allocations} allocations \
         ({alloc_per_s:.0}/s), {peer_tx} peer frames over {cut} cut edges, total {total:.2?}",
    );
    r.record_raw(
        "fed",
        &format!("alloc_rate_{shards}s"),
        Some(nodes),
        Some(u64::try_from(allocations).unwrap_or(u64::MAX)),
        total,
        total,
        1,
    );
    r.record_raw(
        "fed",
        &format!("drain_{shards}s"),
        Some(nodes),
        None,
        total,
        total,
        1,
    );
    if shards > 1 {
        assert!(cut > 0, "a banded mesh must have a cut");
        r.record_raw(
            "fed",
            &format!("cut_msgs_{shards}s"),
            Some(cut),
            Some(u64::try_from(peer_tx).unwrap_or(u64::MAX)),
            total,
            total,
            1,
        );
    }
}

fn main() {
    let mut r = Runner::from_env();
    let levels: usize = std::env::var("IC_FED_LEVELS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(11);
    let fleets = std::env::var("IC_FED_SHARDS").unwrap_or_else(|_| "1,2,4".to_string());
    for spec in fleets.split(',') {
        let spec = spec.trim();
        if spec.is_empty() {
            continue;
        }
        let shards: u64 = spec
            .parse()
            .unwrap_or_else(|_| panic!("IC_FED_SHARDS: bad shard count {spec:?}"));
        run_shards(&mut r, levels, shards.max(1));
    }
    r.finish();
}
