//! The *reference* lease table: a plain `Vec<Lease>`, every operation a
//! linear scan — the obviously-correct formulation of what
//! `ic-net/src/lease_table.rs` answers from a slab and three indices.
//!
//! It exists solely as the differential oracle's reference side:
//! [`crate::differential`] drives one [`ic_net::LeaseMachine`] over
//! this table and one over the indexed table with identical event
//! scripts and demands byte-identical effects. The protocol itself —
//! `step` and everything it calls — is written once, in `ic-net`; what
//! the two machines do *not* share is this file.
//!
//! ## What the table decides
//!
//! Besides membership, one thing: **table order**. A lease enters at
//! the end (`push`); a lease leaves by `swap_remove`, so the last lease
//! takes the vacated position. Every sequence the machine emits from
//! the table follows that order, first match first:
//!
//! * a worker's forfeited leases (`Failed` events on a `request` while
//!   holding, and with them the backoff queue's and so the pool's
//!   arrival order) — repeated [`Leases::remove_worker_next`];
//! * a completed task's revoked duplicates (`Revoked` events) —
//!   repeated [`Leases::remove_task_next`];
//! * a resume's held list (`Resumed` events and the `welcome`'s
//!   `tasks`) — [`Leases::renew_worker`];
//! * expiry sweeps, the straggler scan's tie-break and the lease views
//!   — [`Leases::iter`].
//!
//! A different order is a different protocol: traces would still audit
//! clean, but not byte for byte.

use ic_dag::NodeId;
use ic_net::machine::{Lease, LeaseMachine, Leases};

/// The lease protocol over a [`ScanTable`]; build one with
/// [`LeaseMachine::with_table`], which also leaves the pool's rank
/// index off.
pub type ReferenceMachine<'a, 'd> = LeaseMachine<'a, 'd, ScanTable>;

/// Live leases in table order; a slot id is a position. The field is
/// public so that a test can wrap the table and break one operation.
#[derive(Debug, Clone, Default)]
pub struct ScanTable(pub Vec<Lease>);

impl ScanTable {
    fn remove_first(&mut self, found: impl Fn(&Lease) -> bool) -> Option<Lease> {
        let pos = self.0.iter().position(found)?;
        Some(self.0.swap_remove(pos))
    }
}

impl Leases for ScanTable {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn has_holder(&self, task: NodeId) -> bool {
        self.0.iter().any(|l| l.task == task)
    }

    fn has_speculative(&self, task: NodeId) -> bool {
        self.0.iter().any(|l| l.task == task && l.speculative)
    }

    /// Counted, where the indexed table keeps a running total.
    fn stealable(&self) -> usize {
        self.0
            .iter()
            .filter(|l| !l.speculative && !self.has_speculative(l.task))
            .count()
    }

    fn insert(&mut self, lease: Lease) {
        self.0.push(lease);
    }

    fn find(&self, worker: usize, task: NodeId) -> Option<usize> {
        self.0
            .iter()
            .position(|l| l.worker == worker && l.task == task)
    }

    fn get(&self, id: usize) -> &Lease {
        &self.0[id]
    }

    fn renew(&mut self, worker: usize, task: NodeId, deadline_us: u64) -> bool {
        let mut held = false;
        for l in &mut self.0 {
            if l.worker == worker && l.task == task {
                l.deadline_us = deadline_us;
                held = true;
            }
        }
        held
    }

    fn renew_worker(&mut self, worker: usize, deadline_us: u64) -> Vec<NodeId> {
        let mut held = Vec::new();
        for l in self.0.iter_mut().filter(|l| l.worker == worker) {
            l.deadline_us = deadline_us;
            held.push(l.task);
        }
        held
    }

    fn remove(&mut self, id: usize) -> Lease {
        self.0.swap_remove(id)
    }

    fn remove_worker_next(&mut self, worker: usize) -> Option<Lease> {
        self.remove_first(|l| l.worker == worker)
    }

    fn remove_task_next(&mut self, task: NodeId) -> Option<Lease> {
        self.remove_first(|l| l.task == task)
    }

    fn iter(&self) -> impl Iterator<Item = &Lease> + '_ {
        self.0.iter()
    }

    fn retain_not_worker(&mut self, worker: usize) {
        self.0.retain(|l| l.worker != worker);
    }
}
