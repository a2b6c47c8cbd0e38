//! Run metrics — derived from the execution trace.
//!
//! Every metric in [`SimResult`] is a fold over a run's
//! [`crate::TraceEvent`] stream, and [`SimResult::from_trace`] is that
//! fold: the simulation computes its result from the trace it emitted,
//! and a captured trace yields the same numbers. One source of truth:
//! what the auditor replays is exactly what the reports count.

use crate::trace::{EventKind, Trace};

/// The §2.2 metrics of one traced execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Wall-clock time at which the last task completed.
    pub makespan: f64,
    /// Requests that found the ELIGIBLE pool empty while allocated work
    /// was still outstanding (the paper's gridlock scenario (1)).
    pub gridlock_events: usize,
    /// Of the initial batch of simultaneous requests, how many could
    /// *not* be served immediately (scenario (2)).
    pub unsatisfied_at_batch: usize,
    /// Total time clients spent waiting for work (excluding the tail
    /// after the computation ends).
    pub idle_time: f64,
    /// Number of task allocations (== completions when no failures).
    pub allocations: usize,
    /// Number of completed tasks.
    pub completions: usize,
    /// Number of failed allocations (lost work that was reallocated).
    pub failures: usize,
    /// Aggregate client busy fraction: busy-time / (clients × makespan).
    pub utilization: f64,
    /// `(time, pool size)` samples: the ELIGIBLE-pool trajectory.
    pub eligible_trace: Vec<(f64, usize)>,
}

impl SimResult {
    pub(crate) fn new(_clients: usize) -> Self {
        SimResult {
            makespan: 0.0,
            gridlock_events: 0,
            unsatisfied_at_batch: 0,
            idle_time: 0.0,
            allocations: 0,
            completions: 0,
            failures: 0,
            utilization: 0.0,
            eligible_trace: Vec::new(),
        }
    }

    pub(crate) fn record_pool(&mut self, t: f64, size: usize) {
        self.eligible_trace.push((t, size));
    }

    pub(crate) fn finalize(&mut self, clients: usize, _tasks: usize) {
        if self.makespan > 0.0 {
            let capacity = clients as f64 * self.makespan;
            self.utilization = (capacity - self.idle_time).max(0.0) / capacity;
        }
    }

    /// The fraction of wall-clock time during which a burst of `batch`
    /// simultaneous requests could all be served from the ELIGIBLE pool
    /// (time-weighted over the trace) — the paper's §2.2 scenario (2),
    /// quantified.
    pub fn batch_service_fraction(&self, batch: usize) -> f64 {
        if self.eligible_trace.len() < 2 {
            return if self
                .eligible_trace
                .first()
                .is_some_and(|&(_, s)| s >= batch)
            {
                1.0
            } else {
                0.0
            };
        }
        let mut good = 0.0;
        let mut total = 0.0;
        for w in self.eligible_trace.windows(2) {
            let (t0, s0) = w[0];
            let (t1, _) = w[1];
            let dt = t1 - t0;
            total += dt;
            if s0 >= batch {
                good += dt;
            }
        }
        if total > 0.0 {
            good / total
        } else {
            0.0
        }
    }

    /// The metrics of a trace — exactly the `SimResult` the run that
    /// wrote it returned, which is computed by this same call:
    ///
    /// * `eligible_trace` starts at `(0, #sources)` and gains one sample
    ///   per completion/failure (the recorded pool after the event);
    /// * an [`EventKind::Idle`] among the first `clients` events is an
    ///   initial-batch shortfall;
    /// * an idle request while allocated work is outstanding (and the
    ///   computation unfinished) is a gridlock event;
    /// * `idle_time` accrues per client from its previous
    ///   completion/failure (or time 0) to its next allocation, which
    ///   excludes the tail after the computation ends.
    ///
    /// Executor traces (which do not track the pool) yield a degenerate
    /// `eligible_trace` of the initial sample only.
    pub fn from_trace(trace: &Trace) -> SimResult {
        let (n, clients) = (trace.header.nodes, trace.header.clients);
        let mut has_parent = vec![false; n];
        for &(_, v) in &trace.header.arcs {
            if (v as usize) < n {
                has_parent[v as usize] = true;
            }
        }
        let mut res = SimResult::new(clients);
        res.record_pool(0.0, has_parent.iter().filter(|&&p| !p).count());
        // Per client: the time of its most recent work request.
        let mut request_time = vec![0.0; clients];
        for (i, ev) in trace.events.iter().enumerate() {
            let (time, client) = (ev.time, ev.client);
            res.makespan = res.makespan.max(time);
            let tracked = client < clients;
            match ev.kind {
                // A v3 speculative duplicate lease occupies its client
                // like an allocation, without being one.
                EventKind::Allocated | EventKind::Speculated => {
                    if ev.kind == EventKind::Allocated {
                        res.allocations += 1;
                    }
                    if tracked {
                        res.idle_time += time - request_time[client];
                    }
                }
                // A v3 revoke frees its client without being a
                // completion or a failure (and carries no pool sample).
                EventKind::Completed | EventKind::Failed | EventKind::Revoked => {
                    match ev.kind {
                        EventKind::Completed => res.completions += 1,
                        EventKind::Failed => res.failures += 1,
                        _ => {}
                    }
                    if tracked {
                        request_time[client] = time;
                    }
                    if let Some(p) = ev.pool {
                        res.record_pool(time, p);
                    }
                }
                EventKind::Idle => {
                    let outstanding = res
                        .allocations
                        .saturating_sub(res.completions + res.failures);
                    if outstanding > 0 && res.completions < n {
                        res.gridlock_events += 1;
                    }
                    if i < clients {
                        res.unsatisfied_at_batch += 1;
                    }
                }
                // A v3 resume changes no metric: the original
                // allocation is still open.
                EventKind::Resumed => {}
            }
        }
        res.finalize(clients, n);
        res
    }

    /// Mean ELIGIBLE-pool size over the recorded trace (time-weighted).
    pub fn mean_pool(&self) -> f64 {
        if self.eligible_trace.len() < 2 {
            return self.eligible_trace.first().map_or(0.0, |&(_, s)| s as f64);
        }
        let mut area = 0.0;
        for w in self.eligible_trace.windows(2) {
            let (t0, s0) = w[0];
            let (t1, _) = w[1];
            area += (t1 - t0) * s0 as f64;
        }
        let span = match (self.eligible_trace.last(), self.eligible_trace.first()) {
            (Some(&(end, _)), Some(&(startt, _))) => end - startt,
            _ => return 0.0,
        };
        if span > 0.0 {
            area / span
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_pool_time_weighted() {
        let mut r = SimResult::new(1);
        r.record_pool(0.0, 2);
        r.record_pool(1.0, 4);
        r.record_pool(3.0, 0);
        // 1s at 2, 2s at 4 => (2 + 8) / 3.
        assert!((r.mean_pool() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn batch_service_fraction_time_weighted() {
        let mut r = SimResult::new(1);
        r.record_pool(0.0, 1);
        r.record_pool(1.0, 3);
        r.record_pool(3.0, 0);
        // Pool >= 2 during [1, 3): 2 of 3 time units.
        assert!((r.batch_service_fraction(2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.batch_service_fraction(1) - 1.0).abs() < 1e-12);
        assert_eq!(r.batch_service_fraction(4), 0.0);
    }

    #[test]
    fn batch_service_fraction_degenerate() {
        let mut r = SimResult::new(1);
        assert_eq!(r.batch_service_fraction(1), 0.0);
        r.record_pool(0.0, 5);
        assert_eq!(r.batch_service_fraction(3), 1.0);
        assert_eq!(r.batch_service_fraction(9), 0.0);
    }

    #[test]
    fn mean_pool_degenerate() {
        let mut r = SimResult::new(1);
        assert_eq!(r.mean_pool(), 0.0);
        r.record_pool(0.0, 5);
        assert_eq!(r.mean_pool(), 5.0);
    }

    #[test]
    fn utilization_formula() {
        let mut r = SimResult::new(2);
        r.makespan = 10.0;
        r.idle_time = 5.0;
        r.finalize(2, 100);
        assert!((r.utilization - 0.75).abs() < 1e-12);
    }
}
