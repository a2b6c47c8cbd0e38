//! The lease table behind [`crate::machine::LeaseMachine`]: the
//! [`Leases`] operations the machine calls, and [`LeaseTable`], the
//! indexed implementation every driver runs.
//!
//! The table is the one part of the protocol with two implementations.
//! What each operation means — above all the *order* in which leases
//! come back out — is written down as a plain `Vec<Lease>` scanned
//! linearly: the `ScanTable` in `ic-check/src/reference.rs`.
//! `ic-check`'s differential oracle runs the machine over both tables
//! on the same event scripts and demands byte-identical effects.
//!
//! A scan is `O(live leases)` on every hot event — `request` drops the
//! worker's leases, `done` looks one up, the duplicate-holder and
//! last-holder checks ask `any` — with roughly one lease per connected
//! worker. [`LeaseTable`] is a slab plus three indices so each of
//! those becomes `O(1)` (or `O(held-by-worker)` for a drop):
//!
//! * **slab** — `slots` holds every live lease at a stable id;
//!   `free` recycles ids so the slab never grows past the historical
//!   peak of concurrent leases;
//! * **order vector** — `order` lists live slot ids in exactly the
//!   sequence the scan table's `Vec<Lease>` holds them, maintained
//!   with the same push / `swap_remove` moves (each slot stores its
//!   position for the O(1) fixup). Every observable iteration —
//!   expiry sweeps, steal scans, lease views — walks `order`, which
//!   is why the indexed machine emits byte-identical effects;
//! * **per-worker intrusive list** — each worker's held leases form a
//!   doubly-linked list threaded through the slab (`prev` / `next`
//!   in each slot, heads in `worker_head`): O(1) link/unlink, and
//!   dropping a worker touches only its own leases;
//! * **per-task inline holders** — `holders[v]` stores the slot ids
//!   leasing task `v` in a fixed two-element array. Two is exact: a
//!   task has at most one primary lease plus at most one speculative
//!   drain-barrier duplicate (`try_steal` refuses to duplicate a task
//!   that already has a speculative holder, and a task whose only
//!   holder remains is never re-allocated because it stays claimed).
//!
//! The table also maintains `stealable`, the number of primary leases
//! whose task has no speculative duplicate. When it reaches zero a
//! drain-barrier steal scan cannot succeed, which turns the
//! final-stretch polling storm (every idle worker probing for a
//! straggler to duplicate on every `request`) into an O(1) early out.
//!
//! ## Removal order
//!
//! The scan table removes a worker's or a task's leases by repeated
//! `position` + `swap_remove`, and the order in which matches come out
//! is observable (it fixes the order of `Failed` / `Revoked` trace
//! events and of backoff deferrals, which in turn fixes pool arrival
//! order). Repeatedly extracting the *minimum-position* match
//! reproduces that order exactly, and a `swap_remove` never moves an
//! element below the match it replaces. `remove_worker_next` and
//! `remove_task_next` implement that extraction over the worker list
//! and the holder pair.

use ic_dag::NodeId;

/// Null link for the intrusive worker lists and holder slots.
const NIL: usize = usize::MAX;

/// One entry of the lease table. A task can appear in two entries at
/// once: one primary lease plus a speculative duplicate granted at the
/// drain barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Holding worker's slot index (always a real slot, never
    /// [`crate::machine::FED_CLIENT`]).
    pub worker: usize,
    /// The leased task.
    pub task: NodeId,
    /// Heartbeat deadline in driver microseconds; passing it forfeits
    /// the lease.
    pub deadline_us: u64,
    /// Grant time in driver microseconds — the straggler clock for
    /// stealing.
    pub granted_us: u64,
    /// A duplicate granted at the drain barrier (loses ties: its
    /// completion only counts if it arrives first).
    pub speculative: bool,
}

/// The lease-table operations [`crate::machine::LeaseMachine`] calls —
/// everything the machine knows about where a lease is kept. Slot ids
/// from [`Leases::find`] are good until the next mutation. "Table
/// order" is insertion order as `swap_remove` disturbs it; the module
/// docs name the executable definition.
#[doc(hidden)]
#[allow(clippy::len_without_is_empty)] // the machine never asks
pub trait Leases {
    /// Number of live leases.
    fn len(&self) -> usize;
    /// Does any live lease (primary or speculative) hold `task`?
    fn has_holder(&self, task: NodeId) -> bool;
    /// Does a speculative duplicate of `task` exist?
    fn has_speculative(&self, task: NodeId) -> bool;
    /// Number of primary leases with no speculative duplicate — zero
    /// means a steal scan cannot succeed.
    fn stealable(&self) -> usize;
    /// Append `lease` at the end of the table order.
    fn insert(&mut self, lease: Lease);
    /// The slot id of `worker`'s lease on `task`, if live.
    fn find(&self, worker: usize, task: NodeId) -> Option<usize>;
    /// The lease in slot `id` (must be live).
    fn get(&self, id: usize) -> &Lease;
    /// Renew `worker`'s lease on `task` to `deadline_us`. Returns
    /// whether such a lease was live.
    fn renew(&mut self, worker: usize, task: NodeId, deadline_us: u64) -> bool;
    /// Renew every lease held by `worker` and return their tasks in
    /// table order.
    fn renew_worker(&mut self, worker: usize, deadline_us: u64) -> Vec<NodeId>;
    /// Remove the live slot `id` — the last lease in table order takes
    /// its place — and return its lease.
    fn remove(&mut self, id: usize) -> Lease;
    /// Remove (as [`Leases::remove`]) and return `worker`'s first lease
    /// in table order.
    fn remove_worker_next(&mut self, worker: usize) -> Option<Lease>;
    /// Remove (as [`Leases::remove`]) and return `task`'s first lease
    /// in table order.
    fn remove_task_next(&mut self, task: NodeId) -> Option<Lease>;
    /// Live leases in table order.
    fn iter(&self) -> impl Iterator<Item = &Lease> + '_;
    /// Drop every lease held by `worker` *preserving table order*.
    /// Only the seeded-bug orphan path uses this; the real drop path is
    /// [`Leases::remove_worker_next`].
    fn retain_not_worker(&mut self, worker: usize);
}

/// A slab slot: the lease plus its position in the order vector and
/// its links in the owning worker's intrusive list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    lease: Lease,
    /// Index into [`LeaseTable::order`] (kept current on swap_remove).
    pos: usize,
    /// Previous live lease of the same worker, or [`NIL`].
    prev: usize,
    /// Next live lease of the same worker, or [`NIL`].
    next: usize,
}

/// The slot ids currently leasing one task: at most a primary and a
/// speculative duplicate (see the module docs for why two is exact).
#[derive(Debug, Clone, Copy)]
struct Holders {
    ids: [usize; 2],
}

impl Holders {
    const EMPTY: Holders = Holders { ids: [NIL, NIL] };

    fn add(&mut self, id: usize) {
        if self.ids[0] == NIL {
            self.ids[0] = id;
        } else if self.ids[1] == NIL {
            self.ids[1] = id;
        } else {
            // Unreachable by the two-holder invariant; in release
            // builds the lease stays findable through `order`, so the
            // worst case is a slower path, not a lost lease.
            debug_assert!(false, "a task can hold at most two leases");
        }
    }

    fn drop_id(&mut self, id: usize) {
        if self.ids[0] == id {
            self.ids[0] = self.ids[1];
            self.ids[1] = NIL;
        } else if self.ids[1] == id {
            self.ids[1] = NIL;
        }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ids.iter().copied().filter(|&id| id != NIL)
    }
}

/// The lease table: a slab of [`Lease`] entries with worker, task and
/// order indices. See the module docs for the layout and invariants.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct LeaseTable {
    slots: Vec<Slot>,
    /// Recycled slab ids.
    free: Vec<usize>,
    /// Live slot ids in table order.
    order: Vec<usize>,
    /// Head of each worker's intrusive lease list ([`NIL`] if none).
    worker_head: Vec<usize>,
    /// Per-task holder pairs, indexed by `NodeId::index`.
    holders: Vec<Holders>,
    /// Primary leases whose task has no speculative duplicate — the
    /// exact candidate pool for a drain-barrier steal.
    stealable: usize,
}

impl LeaseTable {
    /// An empty table for a dag of `num_nodes` tasks.
    pub fn new(num_nodes: usize) -> Self {
        LeaseTable {
            slots: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            worker_head: Vec::new(),
            holders: vec![Holders::EMPTY; num_nodes],
            stealable: 0,
        }
    }

    /// Stamp every live lease as granted at `granted_us` and expiring
    /// at `deadline_us` — a restored machine's restart instant.
    pub(crate) fn rearm(&mut self, granted_us: u64, deadline_us: u64) {
        for &id in &self.order {
            let lease = &mut self.slots[id].lease;
            (lease.granted_us, lease.deadline_us) = (granted_us, deadline_us);
        }
    }

    /// (primary present, speculative present) for `task`.
    fn kinds(&self, task: NodeId) -> (bool, bool) {
        let mut primary = false;
        let mut spec = false;
        for id in self.holders[task.index()].iter() {
            if self.slots[id].lease.speculative {
                spec = true;
            } else {
                primary = true;
            }
        }
        (primary, spec)
    }

    fn head_of(&self, worker: usize) -> usize {
        self.worker_head.get(worker).copied().unwrap_or(NIL)
    }

    /// Release slot `id` from every index but the order vector (each
    /// caller has its own move there): worker list, holder pair,
    /// steal counter, free list.
    fn unlink(&mut self, id: usize) -> Lease {
        let Slot {
            lease, prev, next, ..
        } = self.slots[id];
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.worker_head[lease.worker] = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        }
        self.holders[lease.task.index()].drop_id(id);
        let (primary, spec) = self.kinds(lease.task);
        if lease.speculative {
            if primary {
                // The surviving primary is a steal candidate again.
                self.stealable += 1;
            }
        } else if !spec {
            self.stealable = self.stealable.saturating_sub(1);
        }
        self.free.push(id);
        lease
    }
}

impl Leases for LeaseTable {
    fn len(&self) -> usize {
        self.order.len()
    }

    fn has_holder(&self, task: NodeId) -> bool {
        self.holders[task.index()].ids[0] != NIL
    }

    fn has_speculative(&self, task: NodeId) -> bool {
        let (_, spec) = self.kinds(task);
        spec
    }

    fn stealable(&self) -> usize {
        self.stealable
    }

    /// O(1).
    fn insert(&mut self, lease: Lease) {
        let worker = lease.worker;
        let task = lease.task;
        let (primary, spec) = self.kinds(task);
        if lease.speculative {
            if primary && !spec {
                // The existing primary gains a duplicate and stops
                // being a steal candidate.
                self.stealable = self.stealable.saturating_sub(1);
            }
        } else if !spec {
            self.stealable += 1;
        }
        if worker >= self.worker_head.len() {
            self.worker_head.resize(worker + 1, NIL);
        }
        let head = self.worker_head[worker];
        let slot = Slot {
            lease,
            pos: self.order.len(),
            prev: NIL,
            next: head,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.slots[id] = slot;
                id
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        if head != NIL {
            self.slots[head].prev = id;
        }
        self.worker_head[worker] = id;
        self.order.push(id);
        self.holders[task.index()].add(id);
    }

    /// O(1).
    fn find(&self, worker: usize, task: NodeId) -> Option<usize> {
        self.holders[task.index()]
            .iter()
            .find(|&id| self.slots[id].lease.worker == worker)
    }

    fn get(&self, id: usize) -> &Lease {
        &self.slots[id].lease
    }

    /// O(1).
    fn renew(&mut self, worker: usize, task: NodeId, deadline_us: u64) -> bool {
        match self.find(worker, task) {
            Some(id) => {
                self.slots[id].lease.deadline_us = deadline_us;
                true
            }
            None => false,
        }
    }

    /// O(held-by-worker · log held-by-worker).
    fn renew_worker(&mut self, worker: usize, deadline_us: u64) -> Vec<NodeId> {
        let mut held: Vec<(usize, usize)> = Vec::new();
        let mut id = self.head_of(worker);
        while id != NIL {
            held.push((self.slots[id].pos, id));
            id = self.slots[id].next;
        }
        held.sort_unstable();
        held.iter()
            .map(|&(_, id)| {
                self.slots[id].lease.deadline_us = deadline_us;
                self.slots[id].lease.task
            })
            .collect()
    }

    /// O(1).
    fn remove(&mut self, id: usize) -> Lease {
        let pos = self.slots[id].pos;
        self.order.swap_remove(pos);
        if pos < self.order.len() {
            let moved = self.order[pos];
            self.slots[moved].pos = pos;
        }
        self.unlink(id)
    }

    /// O(held-by-worker).
    fn remove_worker_next(&mut self, worker: usize) -> Option<Lease> {
        let mut best = NIL;
        let mut id = self.head_of(worker);
        while id != NIL {
            if best == NIL || self.slots[id].pos < self.slots[best].pos {
                best = id;
            }
            id = self.slots[id].next;
        }
        (best != NIL).then(|| self.remove(best))
    }

    /// O(1).
    fn remove_task_next(&mut self, task: NodeId) -> Option<Lease> {
        let best = self.holders[task.index()]
            .iter()
            .min_by_key(|&id| self.slots[id].pos)?;
        Some(self.remove(best))
    }

    fn iter(&self) -> impl Iterator<Item = &Lease> + '_ {
        self.order.iter().map(|&id| &self.slots[id].lease)
    }

    /// O(live leases).
    fn retain_not_worker(&mut self, worker: usize) {
        let victims: Vec<usize> = self
            .order
            .iter()
            .copied()
            .filter(|&id| self.slots[id].lease.worker == worker)
            .collect();
        self.order
            .retain(|&id| self.slots[id].lease.worker != worker);
        for pos in 0..self.order.len() {
            let id = self.order[pos];
            self.slots[id].pos = pos;
        }
        for id in victims {
            self.unlink(id);
        }
    }
}
