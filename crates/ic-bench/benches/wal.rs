//! `wal` group: what a `FileSink` flush discipline costs per event.
//!
//! The write-ahead trace reaches the OS when the server calls
//! `TraceSink::flush` — once per poll round, before that round's
//! replies go out (DESIGN.md §4h). The two records write the same
//! events to a real file under two disciplines, so the layer's
//! before/after sits in `BENCH.json` measured on one build:
//!
//! * `record_flush_each_{N}ev` — a `flush()` after every record: the
//!   discipline before the group commit, one `write(2)` per event;
//! * `record_flush_per64_{N}ev` — a `flush()` after every 64th record:
//!   a `saturate`-style round (64 pipelined frames per read).
//!
//! Both carry `states` = the event count, so `bench-check` reports
//! events/sec, and both iterate through the [`Runner`] (min and mean
//! over its batches, never a single shot).

use ic_bench::harness::Runner;
use ic_dag::NodeId;
use ic_sim::trace::{EventKind, FileSink, TraceEvent, TraceSink};

/// Events per iteration: 512 tasks, each allocated then completed.
const EVENTS: usize = 1024;

fn events() -> Vec<TraceEvent> {
    (0..EVENTS as u64)
        .map(|step| {
            let kind = if step % 2 == 0 {
                EventKind::Allocated
            } else {
                EventKind::Completed
            };
            let task = NodeId((step / 2) as u32);
            TraceEvent::on_task(kind, step, step as f64 * 1e-6, 0, task, Some(64))
        })
        .collect()
}

fn main() {
    let mut r = Runner::from_env();
    let events = events();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wal-bench.jsonl");
    for (id, every) in [("each", 1), ("per64", 64)] {
        r.bench_states(
            "wal",
            &format!("record_flush_{id}_{EVENTS}ev"),
            EVENTS / 2,
            EVENTS as u64,
            || {
                let mut sink = FileSink::create(&path).expect("a file under target/tmp");
                for round in events.chunks(every) {
                    for ev in round {
                        sink.record(ev);
                    }
                    sink.flush().expect("WAL write");
                }
                sink.finish().expect("WAL close");
            },
        );
    }
    std::fs::remove_file(&path).ok();
    r.finish();
}
