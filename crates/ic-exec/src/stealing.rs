//! A work-stealing executor variant on per-worker deques.
//!
//! The central-queue executor in the crate root follows the schedule's
//! priorities strictly but serializes all task hand-offs through one
//! lock. This variant trades strict priority order for scalability:
//! each worker owns a LIFO deque (locality: a task's enabled children
//! run on the enabling worker), a global injector seeds the sources in
//! schedule order, and idle workers steal from the *front* of their
//! victims' deques (FIFO steals take the oldest, widest work, as in
//! classic work-stealing runtimes). Dependencies are still enforced
//! exactly — a node is pushed only when its last parent's worker
//! decrements its counter to zero — and the `AcqRel` decrement gives
//! the same happens-before guarantee as the locked executor, so
//! `OnceLock` value flow remains sound.
//!
//! The deques are `Mutex<VecDeque>`s rather than lock-free
//! Chase–Lev deques: the build environment is offline (no `crossbeam`),
//! and the workspace forbids `unsafe`, so we keep the work-stealing
//! *scheduling discipline* while paying one uncontended per-deque lock
//! per push/pop — contention stays low because workers touch distinct
//! deques except while stealing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

use ic_dag::{Dag, NodeId};
use ic_sched::Schedule;

use crate::ExecReport;

/// A stack of pending tasks owned by one worker: the owner pushes and
/// pops at the back (LIFO, for locality); thieves steal from the front.
struct Deque {
    tasks: Mutex<VecDeque<NodeId>>,
}

impl Deque {
    fn new() -> Self {
        Deque {
            tasks: Mutex::new(VecDeque::new()),
        }
    }

    fn push(&self, v: NodeId) {
        self.tasks.lock().expect("deque lock").push_back(v);
    }

    fn pop(&self) -> Option<NodeId> {
        self.tasks.lock().expect("deque lock").pop_back()
    }

    fn steal(&self) -> Option<NodeId> {
        self.tasks.lock().expect("deque lock").pop_front()
    }
}

/// Execute every task of `dag` on `workers` threads with work-stealing
/// scheduling. The schedule only orders the initial sources (and serves
/// as documentation of intent); once running, locality wins. `task` is
/// invoked exactly once per node; for any arc `(u → v)`, `task(u)`
/// *happens-before* `task(v)`.
///
/// # Panics
/// Panics if `workers == 0` or the schedule does not cover the dag.
pub fn execute_stealing<F>(dag: &Dag, schedule: &Schedule, workers: usize, task: F) -> ExecReport
where
    F: Fn(NodeId) + Sync,
{
    assert!(workers > 0, "need at least one worker");
    assert_eq!(
        schedule.len(),
        dag.num_nodes(),
        "schedule must cover the dag"
    );
    let n = dag.num_nodes();

    let injector = Deque::new();
    for &v in schedule.order() {
        if dag.is_source(v) {
            injector.push(v);
        }
    }
    let missing: Vec<AtomicU32> = dag
        .node_ids()
        .map(|v| AtomicU32::new(dag.in_degree(v) as u32))
        .collect();
    let remaining = AtomicUsize::new(n);
    let running = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let locals: Vec<Deque> = (0..workers).map(|_| Deque::new()).collect();

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let injector = &injector;
            let locals = &locals;
            let missing = &missing;
            let remaining = &remaining;
            let running = &running;
            let peak = &peak;
            let task = &task;
            let poisoned = &poisoned;
            let panic_payload = &panic_payload;
            scope.spawn(move || {
                let local = &locals[me];
                let mut backoff = 0u32;
                loop {
                    if remaining.load(Ordering::Acquire) == 0 || poisoned.load(Ordering::Acquire) {
                        return;
                    }
                    let found = local.pop().or_else(|| injector.steal()).or_else(|| {
                        locals
                            .iter()
                            .enumerate()
                            .find_map(|(i, d)| if i == me { None } else { d.steal() })
                    });
                    let Some(v) = found else {
                        // Nothing visible: back off briefly and re-check.
                        backoff = (backoff + 1).min(6);
                        if backoff > 3 {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                        continue;
                    };
                    backoff = 0;
                    let now_running = running.fetch_add(1, Ordering::Relaxed) + 1;
                    peak.fetch_max(now_running, Ordering::Relaxed);

                    let outcome =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(v)));
                    if let Err(payload) = outcome {
                        panic_payload
                            .lock()
                            .expect("payload lock")
                            .get_or_insert(payload);
                        poisoned.store(true, Ordering::Release);
                        running.fetch_sub(1, Ordering::Relaxed);
                        return;
                    }

                    for &c in dag.children(v) {
                        // AcqRel: the last decrement synchronizes all
                        // parents' task effects into the child's runner.
                        if missing[c.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                            local.push(c);
                        }
                    }
                    running.fetch_sub(1, Ordering::Relaxed);
                    remaining.fetch_sub(1, Ordering::AcqRel);
                }
            });
        }
    });
    let wall_time = start.elapsed();

    if let Some(payload) = panic_payload.lock().expect("payload lock").take() {
        std::panic::resume_unwind(payload);
    }
    debug_assert_eq!(remaining.load(Ordering::Relaxed), 0);
    ExecReport {
        tasks_run: n,
        peak_parallelism: peak.load(Ordering::Relaxed),
        wall_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_dag::builder::from_arcs;
    use std::sync::atomic::AtomicUsize;
    use std::sync::OnceLock;

    #[test]
    fn runs_every_task_once() {
        let g = from_arcs(7, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (5, 6)]).unwrap();
        let s = Schedule::in_id_order(&g);
        let counts: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        let r = execute_stealing(&g, &s, 4, |v| {
            counts[v.index()].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(r.tasks_run, 7);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn value_flow_is_correct_under_stealing() {
        // A complete binary in-tree summing 32 leaves: the dual of the
        // BFS-numbered out-tree (63 nodes; leaves are ids 31..63, the
        // root is id 0).
        let out = {
            let mut b = ic_dag::DagBuilder::new();
            b.add_nodes(63);
            for i in 0..31usize {
                b.add_arc(NodeId::new(i), NodeId::new(2 * i + 1)).unwrap();
                b.add_arc(NodeId::new(i), NodeId::new(2 * i + 2)).unwrap();
            }
            b.build().unwrap()
        };
        let g = ic_dag::dual(&out);
        let s = Schedule::in_id_order(&g);
        for workers in [1usize, 2, 8] {
            let cells: Vec<OnceLock<u64>> = (0..63).map(|_| OnceLock::new()).collect();
            execute_stealing(&g, &s, workers, |v| {
                let val = if g.is_source(v) {
                    v.index() as u64
                } else {
                    g.parents(v)
                        .iter()
                        .map(|p| cells[p.index()].get().unwrap())
                        .sum()
                };
                cells[v.index()].set(val).unwrap();
            });
            let expect: u64 = (31..63).sum();
            assert_eq!(cells[0].get().copied(), Some(expect), "workers = {workers}");
        }
    }

    #[test]
    fn matches_locked_executor_results() {
        let g = from_arcs(
            10,
            &[
                (0, 2),
                (1, 2),
                (2, 3),
                (2, 4),
                (3, 5),
                (4, 6),
                (5, 7),
                (6, 7),
                (7, 8),
                (7, 9),
            ],
        )
        .unwrap();
        let s = Schedule::in_id_order(&g);
        let run_locked = {
            let counter = AtomicUsize::new(0);
            crate::execute(&g, &s, 3, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            counter.load(Ordering::Relaxed)
        };
        let run_stealing = {
            let counter = AtomicUsize::new(0);
            execute_stealing(&g, &s, 3, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            counter.load(Ordering::Relaxed)
        };
        assert_eq!(run_locked, run_stealing);
        assert_eq!(run_locked, 10);
    }

    #[test]
    fn single_task_dag() {
        let g = from_arcs(1, &[]).unwrap();
        let s = Schedule::in_id_order(&g);
        let r = execute_stealing(&g, &s, 4, |_| {});
        assert_eq!(r.tasks_run, 1);
    }

    #[test]
    #[should_panic(expected = "stolen task exploded")]
    fn task_panic_propagates_without_deadlock() {
        let mut arcs = Vec::new();
        for i in 1..=8u32 {
            arcs.push((0, i));
        }
        let g = from_arcs(9, &arcs).unwrap();
        let s = Schedule::in_id_order(&g);
        execute_stealing(&g, &s, 4, |v| {
            if v.index() == 5 {
                panic!("stolen task exploded");
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
    }
}
