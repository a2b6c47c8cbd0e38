//! Read-only views of a [`LeaseMachine`] for drivers, tests, the
//! differential oracle and the `ic-check` model checker: lease table,
//! backoff queue, slot states, the run summary, and the fingerprint
//! the checker's visited set is keyed on.

use std::hash::{Hash, Hasher};

use ic_dag::NodeId;
use ic_sched::eligibility::ExecState;

use super::{Lease, LeaseMachine, Leases};
use crate::server::ServeReport;

impl<'d, L: Leases> LeaseMachine<'_, 'd, L> {
    /// Every lease whose heartbeat deadline has passed at `now_us`, as
    /// `(worker, task)` pairs ready to feed back as [`super::Event::Expire`].
    pub fn expired(&self, now_us: u64) -> Vec<(usize, u64)> {
        self.leases
            .iter()
            .filter(|l| l.deadline_us <= now_us)
            .map(|l| (l.worker, l.task.index() as u64))
            .collect()
    }

    /// Workers with a live connection right now.
    pub(crate) fn connected(&self) -> usize {
        self.connected
    }

    /// The execution state (read-only).
    pub fn exec(&self) -> &ExecState<'d> {
        &self.state
    }

    /// A copy of every live lease, in table order.
    pub fn lease_views(&self) -> Vec<Lease> {
        self.leases.iter().copied().collect()
    }

    /// Tasks parked in the backoff queue (unordered).
    pub fn deferred_tasks(&self) -> Vec<NodeId> {
        self.deferred.iter().map(|&(_, v)| v).collect()
    }

    /// How many workers ever registered.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// A slot's current registration epoch, if the slot exists.
    pub fn worker_epoch(&self, worker: usize) -> Option<u64> {
        self.workers.get(worker).map(|w| w.epoch)
    }

    /// Whether a live connection currently owns the slot.
    pub fn worker_connected(&self, worker: usize) -> bool {
        self.workers.get(worker).is_some_and(|w| w.connected)
    }

    /// A slot's self-declared worker id, if the slot exists.
    pub fn worker_id(&self, worker: usize) -> Option<&str> {
        self.workers.get(worker).map(|w| w.id.as_str())
    }

    /// Trace events emitted so far.
    pub(crate) fn trace_steps(&self) -> u64 {
        self.step
    }

    /// Summarize the run as the driver's [`ServeReport`]: the registry
    /// as it stands, and the makespan, for which `now_us` is the
    /// fallback endpoint if the dag never completed.
    pub fn summary(&self, now_us: u64) -> ServeReport {
        let end = self.completed_at_us.unwrap_or(now_us);
        ServeReport {
            registry: Box::new(self.reg.clone()),
            makespan: end.saturating_sub(self.origin_us) as f64 * 1e-6,
            workers_registered: self.workers.len(),
            late_workers: self.late_workers,
        }
    }

    /// Remote completions queued, waiting for the trace header.
    pub fn pending_remote(&self) -> usize {
        self.remote.pending.len()
    }

    /// Hash the scheduling-relevant state: executed set, pool (in
    /// arrival order — FIFO policies depend on it), backoff queue,
    /// lease table (sorted; grant times and deadlines excluded), slot
    /// states, and failure counts. Token strings, the rng, trace step
    /// counters, and all timestamps are excluded, so two states that
    /// can only diverge in timing or cosmetics collide — exactly what
    /// a frozen-clock model checker wants for its visited set.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }

    /// [`LeaseMachine::fingerprint`] into a caller-chosen hasher.
    pub fn fingerprint_into(&self, h: &mut impl Hasher) {
        self.header_written.hash(h);
        for v in self.dag.node_ids() {
            self.state.is_executed(v).hash(h);
        }
        let mut pool: Vec<NodeId> = self.state.pool().to_vec();
        pool.sort_unstable_by_key(|&v| self.state.pool_seq(v));
        0xA1u8.hash(h);
        for v in &pool {
            v.index().hash(h);
        }
        0xA2u8.hash(h);
        for &(_, v) in &self.deferred {
            v.index().hash(h);
        }
        0xA3u8.hash(h);
        let mut leases: Vec<(usize, usize, bool)> = self
            .leases
            .iter()
            .map(|l| (l.worker, l.task.index(), l.speculative))
            .collect();
        leases.sort_unstable();
        for l in &leases {
            l.hash(h);
        }
        0xA4u8.hash(h);
        for w in &self.workers {
            (w.epoch, w.connected, w.waiting, w.token.is_some()).hash(h);
        }
        0xA5u8.hash(h);
        self.failures.hash(h);
    }
}

impl<L: Leases> std::fmt::Debug for LeaseMachine<'_, '_, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LeaseMachine")
            .field("executed", &self.state.num_executed())
            .field("pool", &self.state.pool_len())
            .field("deferred", &self.deferred.len())
            .field("leases", &self.leases.len())
            .field("workers", &self.workers.len())
            .field("connected", &self.connected)
            .field("complete", &self.is_complete())
            .finish_non_exhaustive()
    }
}
