//! # `ic-exec` — a multithreaded dag executor driven by IC schedules
//!
//! The theory's schedules rank ELIGIBLE tasks; this crate turns that
//! ranking into an actual multicore execution: a pool of worker threads
//! repeatedly takes the highest-priority ELIGIBLE task, runs the user's
//! closure for it, and releases the children it enables. Dependencies
//! are enforced by construction — a task's closure runs strictly after
//! all of its parents' closures (with a happens-before edge through the
//! pool lock), so per-node results can be published through
//! `std::sync::OnceLock` cells without further synchronization.
//!
//! ```
//! use ic_dag::builder::from_arcs;
//! use ic_sched::Schedule;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let diamond = from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
//! let schedule = Schedule::in_id_order(&diamond);
//! let counter = AtomicUsize::new(0);
//! let report = ic_exec::execute(&diamond, &schedule, 2, |_task| {
//!     counter.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(report.tasks_run, 4);
//! assert_eq!(counter.load(Ordering::Relaxed), 4);
//! ```

#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use ic_dag::{Dag, NodeId};
use ic_sched::Schedule;
use std::sync::{Condvar, Mutex};

/// Outcome of a parallel dag execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecReport {
    /// Number of task closures run (== the dag's node count).
    pub tasks_run: usize,
    /// Peak number of tasks running simultaneously.
    pub peak_parallelism: usize,
    /// Wall-clock duration of the whole execution.
    pub wall_time: Duration,
}

struct PoolState {
    /// ELIGIBLE tasks, min-heap by schedule priority.
    ready: BinaryHeap<Reverse<(usize, NodeId)>>,
    missing_parents: Vec<u32>,
    remaining: usize,
    running: usize,
    peak: usize,
    /// Set when a task panicked: every worker drains and exits, and
    /// [`execute`] re-raises the panic on the caller's thread.
    poisoned: bool,
}

/// Execute every task of `dag` on `workers` threads, selecting among
/// ELIGIBLE tasks by the priority `schedule` assigns (earlier in the
/// schedule = allocated first). `task` is invoked exactly once per node;
/// for any arc `(u → v)`, `task(u)` *happens-before* `task(v)`.
///
/// # Panics
/// Panics if `workers == 0` or the schedule does not cover the dag.
pub fn execute<F>(dag: &Dag, schedule: &Schedule, workers: usize, task: F) -> ExecReport
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
    let mut priority = vec![usize::MAX; n];
    for (i, &v) in schedule.order().iter().enumerate() {
        priority[v.index()] = i;
    }

    let mut ready = BinaryHeap::new();
    let mut missing = vec![0u32; n];
    for v in dag.node_ids() {
        missing[v.index()] = dag.in_degree(v) as u32;
        if dag.is_source(v) {
            ready.push(Reverse((priority[v.index()], v)));
        }
    }
    let state = Mutex::new(PoolState {
        ready,
        missing_parents: missing,
        remaining: n,
        running: 0,
        peak: 0,
        poisoned: false,
    });
    let work_available = Condvar::new();
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                worker_loop(
                    dag,
                    &priority,
                    &state,
                    &work_available,
                    &task,
                    &panic_payload,
                )
            });
        }
    });
    let wall_time = start.elapsed();

    if let Some(payload) = panic_payload.lock().unwrap().take() {
        std::panic::resume_unwind(payload);
    }
    let st = state.lock().unwrap();
    debug_assert_eq!(st.remaining, 0, "all tasks must have run");
    ExecReport {
        tasks_run: n,
        peak_parallelism: st.peak,
        wall_time,
    }
}

fn worker_loop<F>(
    dag: &Dag,
    priority: &[usize],
    state: &Mutex<PoolState>,
    work_available: &Condvar,
    task: &F,
    panic_payload: &Mutex<Option<Box<dyn std::any::Any + Send>>>,
) where
    F: Fn(NodeId) + Sync,
{
    loop {
        let v = {
            let mut st = state.lock().unwrap();
            loop {
                if st.remaining == 0 || st.poisoned {
                    return;
                }
                if let Some(Reverse((_, v))) = st.ready.pop() {
                    st.running += 1;
                    st.peak = st.peak.max(st.running);
                    break v;
                }
                // No ready work: if nothing is running either, we are
                // done (or deadlocked, which a valid dag precludes).
                if st.running == 0 {
                    return;
                }
                st = work_available.wait(st).unwrap();
            }
        };

        // Contain task panics: poison the pool so every worker exits,
        // then let `execute` re-raise on the caller's thread.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(v)));
        if let Err(payload) = outcome {
            let mut st = state.lock().unwrap();
            st.poisoned = true;
            st.running -= 1;
            panic_payload.lock().unwrap().get_or_insert(payload);
            work_available.notify_all();
            return;
        }

        let mut st = state.lock().unwrap();
        st.running -= 1;
        st.remaining -= 1;
        let mut enabled = 0usize;
        for &c in dag.children(v) {
            st.missing_parents[c.index()] -= 1;
            if st.missing_parents[c.index()] == 0 {
                st.ready.push(Reverse((priority[c.index()], c)));
                enabled += 1;
            }
        }
        if st.remaining == 0 || enabled > 0 {
            // Wake everyone on completion: sleepers must re-check the
            // termination condition as well as the pool.
            work_available.notify_all();
        } else if st.running == 0 && st.ready.is_empty() {
            work_available.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_dag::builder::from_arcs;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::OnceLock;

    #[test]
    fn runs_every_task_once() {
        let g = from_arcs(6, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]).unwrap();
        let s = Schedule::in_id_order(&g);
        let counts: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        let r = execute(&g, &s, 4, |v| {
            counts[v.index()].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(r.tasks_run, 6);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn respects_dependencies_for_value_flow() {
        // Compute Fibonacci-ish values through a chain using OnceLock
        // cells; children read parents' cells, which must be populated.
        let g = from_arcs(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]).unwrap();
        let s = Schedule::in_id_order(&g);
        let cells: Vec<OnceLock<u64>> = (0..8).map(|_| OnceLock::new()).collect();
        execute(&g, &s, 3, |v| {
            let val = if v.index() == 0 {
                1
            } else {
                cells[v.index() - 1]
                    .get()
                    .copied()
                    .expect("parent ran first")
                    * 2
            };
            cells[v.index()].set(val).expect("single execution");
        });
        assert_eq!(cells[7].get().copied(), Some(128));
    }

    #[test]
    fn diamond_parents_before_child() {
        let g = from_arcs(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let s = Schedule::in_id_order(&g);
        let cells: Vec<OnceLock<u64>> = (0..4).map(|_| OnceLock::new()).collect();
        execute(&g, &s, 4, |v| {
            let val = match v.index() {
                0 => 1,
                1 | 2 => cells[0].get().unwrap() + v.index() as u64,
                _ => cells[1].get().unwrap() + cells[2].get().unwrap(),
            };
            cells[v.index()].set(val).unwrap();
        });
        assert_eq!(cells[3].get().copied(), Some(2 + 3));
    }

    #[test]
    fn single_worker_matches_schedule_order() {
        let g = from_arcs(5, &[(0, 1), (0, 2), (1, 3), (2, 4)]).unwrap();
        let s = Schedule::in_id_order(&g);
        let order = Mutex::new(Vec::new());
        execute(&g, &s, 1, |v| order.lock().unwrap().push(v));
        assert_eq!(&*order.lock().unwrap(), s.order());
    }

    #[test]
    fn wide_dag_reaches_parallelism() {
        // 1 source fanning to 16 independent tasks: with 4 workers the
        // peak parallelism should exceed 1 (scheduling is nondeterministic,
        // but with a small sleep the workers overlap reliably).
        let mut arcs = Vec::new();
        for i in 1..=16u32 {
            arcs.push((0, i));
        }
        let g = from_arcs(17, &arcs).unwrap();
        let s = Schedule::in_id_order(&g);
        let r = execute(&g, &s, 4, |_| {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(r.peak_parallelism > 1, "peak was {}", r.peak_parallelism);
    }

    #[test]
    fn empty_dag() {
        let g = from_arcs(0, &[]).unwrap();
        let s = Schedule::in_id_order(&g);
        let r = execute(&g, &s, 2, |_| {});
        assert_eq!(r.tasks_run, 0);
    }

    #[test]
    fn task_panic_propagates_without_deadlock() {
        // A star 0 -> 1..8: with several workers, some are running or
        // waiting when task 5 panics; the pool must drain and re-raise
        // on the caller's thread, not hang. The run happens on its own
        // thread so a hang fails the test instead of wedging it.
        for workers in [1usize, 4] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let arcs: Vec<(u32, u32)> = (1..=8).map(|i| (0, i)).collect();
                let g = from_arcs(9, &arcs).unwrap();
                let s = Schedule::in_id_order(&g);
                let outcome = std::panic::catch_unwind(|| {
                    execute(&g, &s, workers, |v| {
                        if v.index() == 5 {
                            panic!("task 5 exploded");
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    })
                });
                let message = outcome
                    .err()
                    .and_then(|p| p.downcast_ref::<&str>().map(|m| m.to_string()));
                tx.send(message).ok();
            });
            let message = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{workers} worker(s): execute hung after a task panic"));
            assert_eq!(
                message.as_deref(),
                Some("task 5 exploded"),
                "{workers} worker(s)"
            );
        }
    }
}
