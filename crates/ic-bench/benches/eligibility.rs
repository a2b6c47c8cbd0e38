//! Benches for the eligibility engine.
//!
//! * `envelope` — full optimal-envelope sweeps through the incremental
//!   and layer-parallel enumerator, on the paper's families near the
//!   64-node lattice cap and on `testgen` random dags;
//! * `exec-state` — full-run allocation through the dense eligible
//!   pool: pop + execute every node of large out-meshes, so the
//!   per-allocation cost (and its independence from dag size) is
//!   visible in the per-node numbers;
//! * `build` — what `ic-prio serve --family mesh:500` runs before it
//!   listens: `out_mesh(500)` and its diagonal schedule; and what its
//!   write-ahead log does first, a [`FileSink`] on `/dev/null` taking
//!   the prebuilt header and flushing it (`states` is the header
//!   line's bytes).

use ic_bench::harness::Runner;
use ic_dag::testgen::random_dags;
use ic_dag::Dag;
use ic_families::butterfly::butterfly;
use ic_families::diamond::diamond_from_out_tree;
use ic_families::mesh::{out_mesh, out_mesh_schedule};
use ic_families::trees::complete_out_tree;
use ic_sched::heuristics::{schedule_with, Policy};
use ic_sched::optimal::optimal_envelope;
use ic_sim::trace::{FileSink, TraceHeader, TraceSink};

fn bench_envelope(r: &mut Runner) {
    let mut subjects: Vec<(String, Dag)> = Vec::new();
    let mesh = out_mesh(10); // 55 nodes
    subjects.push((format!("mesh_{}", mesh.num_nodes()), mesh));
    let bfly = butterfly(3); // 32 nodes
    subjects.push((format!("butterfly_{}", bfly.num_nodes()), bfly));
    let dia = diamond_from_out_tree(&complete_out_tree(2, 3))
        .expect("the complete binary tree generates a diamond")
        .dag;
    subjects.push((format!("diamond_{}", dia.num_nodes()), dia));
    // Random subjects big enough that the sweep, not fixed overhead,
    // is what gets measured.
    for (i, g) in random_dags(0x1C5EED, 12, 26, 30)
        .into_iter()
        .filter(|g| g.num_nodes() >= 16)
        .take(3)
        .enumerate()
    {
        subjects.push((format!("random{}_{}", i, g.num_nodes()), g));
    }

    for (id, g) in &subjects {
        let n = g.num_nodes();
        r.bench_n("envelope", id, n, || optimal_envelope(g).unwrap());
    }
}

fn bench_exec_state(r: &mut Runner) {
    for levels in [20usize, 140] {
        let m = out_mesh(levels); // levels*(levels+1)/2 nodes
        let n = m.num_nodes();
        r.bench_n("exec-state", &format!("fifo_mesh_{n}"), n, || {
            schedule_with(&m, &Policy::Fifo)
        });
    }
    let big = out_mesh(140); // 9870 nodes
    let n = big.num_nodes();
    r.bench_n("exec-state", &format!("lifo_mesh_{n}"), n, || {
        schedule_with(&big, &Policy::Lifo)
    });
}

fn bench_build(r: &mut Runner) {
    let n = 500 * 501 / 2;
    r.bench_n("build", &format!("mesh_{n}"), n, || {
        out_mesh_schedule(&out_mesh(500))
    });
    let header = TraceHeader::for_run(&out_mesh(500), 2, 0, "SCHEDULE");
    let bytes = header.to_json_line().len() as u64;
    r.bench_states("build", &format!("header_{n}"), n, bytes, || {
        let mut wal = FileSink::create("/dev/null").expect("/dev/null opens for writing");
        wal.header(&header);
        wal.flush()
    });
}

fn main() {
    let mut r = Runner::from_env();
    bench_envelope(&mut r);
    bench_exec_state(&mut r);
    bench_build(&mut r);
    r.finish();
}
