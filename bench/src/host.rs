//! A gate against measuring on a visibly disturbed machine.
//!
//! The boxes this runs on are shared: every few minutes the whole
//! machine runs the server's kind of code 30-100 % slower for ten
//! seconds to a minute and a half, all cores alike. No statistic over
//! the repetitions of one ten-second run survives a run that lies
//! inside such a phase, so before every repetition a fixed millisecond
//! of the server's own work is timed, and while it is much slower than
//! this checkout has seen it on its quiet side, the benchmark waits —
//! between repetitions, never inside one, and only for a bounded time
//! per run and per checkout.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::dags::{self, Family};
use crate::layers;

/// Slower than the reference by more than this counts as disturbed.
/// The timings of an undisturbed machine lie within 16 % above their
/// first quartile, a disturbed one is 30-100 % off.
const DISTURBED: f64 = 1.2;
/// Waiting time every run adds to what its checkout has saved up, and
/// the most that is kept. A run may have to sit out a disturbance
/// longer than itself, because one that gives up half-way has both
/// waited and measured it; but all runs of a checkout together never
/// wait longer than this times their number, so the driver's time cap
/// holds on a machine that never calms down.
const PATIENCE_PER_RUN: Duration = Duration::from_secs(10);
const MOST_PATIENCE: Duration = Duration::from_secs(90);
/// The kernel: a `LeaseMachine` stepped through this dag at batch 64,
/// about a millisecond. Pure arithmetic will not do: the disturbance
/// is in the memory system, and a loop that lives in registers sees a
/// third of it.
const KERNEL_DAG: &str = "mesh:100";

/// How many earlier kernel timings make the reference. Their first
/// quartile shrugs off the lucky moments (one busy core clocks higher)
/// and stays put while up to three quarters of them were disturbed,
/// as in a checkout whose first runs fell into a bad phase.
const HISTORY: usize = 64;
/// No judgement before this many timings exist.
const MIN_HISTORY: usize = 8;

pub struct Gate {
    kernel_dag: Family,
    /// Kernel timings at earlier repetition starts, of this and
    /// earlier runs of this checkout, oldest first.
    history: Vec<f64>,
    /// How long this run may wait in total.
    patience: Duration,
    store: PathBuf,
    pub waited: Duration,
}

impl Gate {
    /// `store` keeps the unspent patience (first line, seconds) and
    /// the history between runs of one checkout.
    pub fn open(store: PathBuf) -> Gate {
        let text = std::fs::read_to_string(&store).unwrap_or_default();
        let mut lines = text.lines();
        let saved: f64 = lines.next().and_then(|l| l.parse().ok()).unwrap_or(0.0);
        Gate {
            kernel_dag: dags::family(KERNEL_DAG),
            history: lines.filter_map(|l| l.parse().ok()).collect(),
            patience: (Duration::from_secs_f64(saved.clamp(0.0, 1e3)) + PATIENCE_PER_RUN)
                .min(MOST_PATIENCE),
            store,
            waited: Duration::ZERO,
        }
    }

    /// The fastest of three kernel runs, in nanoseconds.
    fn kernel_ns(&self) -> f64 {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(layers::step_kernel(&self.kernel_dag));
                t0.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Return once the machine computes at its usual speed, or once
    /// this run's patience is spent.
    pub fn wait_until_quiet(&mut self) {
        let usual_ns = (self.history.len() >= MIN_HISTORY)
            .then(|| crate::stats::quartiles(&self.history))
            .flatten()
            .map(|(q1, _)| q1);
        let mut now_ns = self.kernel_ns();
        if let Some(usual_ns) = usual_ns {
            while now_ns > usual_ns * DISTURBED && self.waited < self.patience {
                let nap = Duration::from_millis(200);
                std::thread::sleep(nap);
                self.waited += nap;
                now_ns = self.kernel_ns();
            }
        }
        // The speed the repetition starts at: a disturbance that was
        // waited out leaves no mark on the reference.
        self.history.push(now_ns);
        if self.history.len() > HISTORY {
            self.history.remove(0);
        }
        let unspent = self.patience.saturating_sub(self.waited).as_secs_f64();
        let lines: Vec<String> = std::iter::once(unspent)
            .chain(self.history.iter().copied())
            .map(|v| format!("{v}\n"))
            .collect();
        let _ = std::fs::write(&self.store, lines.concat());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_keeps_a_bounded_history_and_never_waits_past_its_patience() {
        let store = std::env::temp_dir().join(format!("ic-e2e-gate-{}", std::process::id()));
        let _ = std::fs::remove_file(&store);
        let mut gate = Gate::open(store.clone());
        assert_eq!(gate.patience, PATIENCE_PER_RUN);
        for _ in 0..HISTORY + 3 {
            gate.wait_until_quiet();
        }
        assert_eq!(Gate::open(store.clone()).history.len(), HISTORY);
        // A usual speed nobody can reach: the gate gives up when its
        // patience is spent, and the next run has only its own share.
        std::fs::write(&store, format!("0\n{}", "1\n".repeat(MIN_HISTORY))).unwrap();
        let mut gate = Gate::open(store.clone());
        gate.waited = PATIENCE_PER_RUN - Duration::from_millis(200);
        gate.wait_until_quiet();
        assert_eq!(gate.waited, PATIENCE_PER_RUN);
        assert_eq!(Gate::open(store.clone()).patience, PATIENCE_PER_RUN);
        // Unspent patience is saved up, to a limit.
        std::fs::write(&store, "1000\n").unwrap();
        assert_eq!(Gate::open(store.clone()).patience, MOST_PATIENCE);
        let _ = std::fs::remove_file(&store);
    }
}
