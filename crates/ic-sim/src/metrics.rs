//! Simulation metrics — derived from the execution trace.
//!
//! Every metric in [`SimResult`] is a fold over the run's
//! [`TraceEvent`] stream ([`MetricsFold`]): the simulator feeds events
//! through the fold as it emits them, and [`SimResult::from_trace`]
//! recomputes the same numbers from a captured [`Trace`]. One source of
//! truth: what the auditor replays is exactly what the reports count.

use crate::trace::{EventKind, Trace, TraceEvent};

/// The outcome of one simulated execution.
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
    /// Number of failed allocations (lost work that was re-queued).
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

    /// Recompute the metrics of a captured trace — the same fold the
    /// simulator applies while emitting events, so this agrees exactly
    /// with the `SimResult` the original run returned.
    ///
    /// Executor traces (which do not track the pool) yield a degenerate
    /// `eligible_trace` of the initial sample only.
    pub fn from_trace(trace: &Trace) -> SimResult {
        let n = trace.header.nodes;
        let mut has_parent = vec![false; n];
        for &(_, v) in &trace.header.arcs {
            if (v as usize) < n {
                has_parent[v as usize] = true;
            }
        }
        let num_sources = has_parent.iter().filter(|&&p| !p).count();
        let mut fold = MetricsFold::new(n, num_sources, trace.header.clients);
        for ev in &trace.events {
            fold.apply(ev);
        }
        fold.finish()
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

/// The incremental fold from trace events to a [`SimResult`].
///
/// The fold reproduces the pre-trace metric definitions exactly:
///
/// * `eligible_trace` starts at `(0, #sources)` and gains one sample
///   per completion/failure (the pool after newly enabled tasks joined
///   or the lost task re-entered, before re-allocation);
/// * an [`EventKind::Idle`] among the first `clients` events is an
///   initial-batch shortfall;
/// * an idle request while allocated work is outstanding (and the
///   computation unfinished) is a gridlock event;
/// * `idle_time` accrues per client from its previous
///   completion/failure (or time 0) to its next allocation, which
///   excludes the tail after the computation ends.
pub(crate) struct MetricsFold {
    res: SimResult,
    n: usize,
    clients: usize,
    /// Per client: the time of its most recent work request.
    request_time: Vec<f64>,
    events_seen: usize,
    last_time: f64,
}

impl MetricsFold {
    pub(crate) fn new(n: usize, num_sources: usize, clients: usize) -> MetricsFold {
        let mut res = SimResult::new(clients);
        res.record_pool(0.0, num_sources);
        MetricsFold {
            res,
            n,
            clients,
            request_time: vec![0.0; clients],
            events_seen: 0,
            last_time: 0.0,
        }
    }

    pub(crate) fn apply(&mut self, ev: &TraceEvent) {
        let (time, client) = (ev.time, ev.client);
        self.last_time = self.last_time.max(time);
        let tracked = client < self.clients;
        match ev.kind {
            // A v3 speculative duplicate lease occupies its client like
            // an allocation, without being one.
            EventKind::Allocated | EventKind::Speculated => {
                if ev.kind == EventKind::Allocated {
                    self.res.allocations += 1;
                }
                if tracked {
                    self.res.idle_time += time - self.request_time[client];
                }
            }
            // A v3 revoke frees its client without being a completion
            // or a failure (and carries no pool sample).
            EventKind::Completed | EventKind::Failed | EventKind::Revoked => {
                match ev.kind {
                    EventKind::Completed => self.res.completions += 1,
                    EventKind::Failed => self.res.failures += 1,
                    _ => {}
                }
                if tracked {
                    self.request_time[client] = time;
                }
                if let Some(p) = ev.pool {
                    self.res.record_pool(time, p);
                }
            }
            EventKind::Idle => {
                let outstanding = self
                    .res
                    .allocations
                    .saturating_sub(self.res.completions + self.res.failures);
                if outstanding > 0 && self.res.completions < self.n {
                    self.res.gridlock_events += 1;
                }
                if self.events_seen < self.clients {
                    self.res.unsatisfied_at_batch += 1;
                }
            }
            // A v3 resume changes no metric: the original allocation is
            // still open.
            EventKind::Resumed => {}
        }
        self.events_seen += 1;
    }

    pub(crate) fn finish(mut self) -> SimResult {
        self.res.makespan = self.last_time;
        self.res.finalize(self.clients, self.n);
        self.res
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
