//! Differential property test: the `LeaseMachine` over its indexed
//! lease table against the same machine over the linear-scan
//! `ScanTable`, over `ic_dag::testgen` dags and randomized event
//! scripts (hello / request / done / heartbeat / sever / resume /
//! steal / expire / federation remote-done, plus chaos events for
//! workers and tasks that do not exist). Byte-identical `Vec<Effect>`
//! sequences are asserted at every step; see `ic_check::differential`
//! for the full contract, and for what it no longer covers.
//!
//! `IC_DIFF_CASES` scales the number of cases (default 64; the verify
//! gate runs more).

use ic_check::differential::{fnv1a, indexed, run_case, DiffOutcome, FNV_OFFSET};
use ic_check::reference::ScanTable;
use ic_dag::{testgen, Dag, NodeId};
use ic_net::machine::{Lease, LeaseMachine, Leases};

fn cases_from_env() -> usize {
    std::env::var("IC_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn dags(cases: usize) -> Vec<Dag> {
    testgen::random_dags(0xD1FF_5EED, cases, 24, 25)
}

fn seed_of(case: usize) -> u64 {
    0xBEE5 + 7 * case as u64
}

#[test]
fn indexed_machine_is_byte_identical_to_reference() {
    let cases = cases_from_env();
    let mut totals = DiffOutcome::default();
    let mut completed = 0usize;
    for (case, dag) in dags(cases).into_iter().enumerate() {
        let out =
            run_case(&dag, seed_of(case), indexed).unwrap_or_else(|e| panic!("case {case}: {e}"));
        totals.events += out.events;
        totals.completions += out.completions;
        totals.steals += out.steals;
        totals.resumes += out.resumes;
        totals.expiries += out.expiries;
        totals.revokes += out.revokes;
        totals.remote += out.remote;
        completed += usize::from(out.complete);
    }
    // The suite is only meaningful if the scripts reach the paths the
    // index rewrite touched. These are deterministic seeds, so the
    // thresholds cannot flake.
    assert!(
        totals.completions > 50 * cases / 64,
        "too few completions: {totals:?}"
    );
    assert!(totals.steals > 0, "no speculative steals: {totals:?}");
    assert!(totals.resumes > 0, "no resumes: {totals:?}");
    assert!(totals.expiries > 0, "no lease expiries: {totals:?}");
    assert!(totals.revokes > 0, "no revocations: {totals:?}");
    assert!(totals.remote > 0, "no remote completions: {totals:?}");
    assert!(completed > 0, "no case ran to full completion: {totals:?}");
}

/// Every byte the machine emits on 48 fixed scripts — `to_json_line()`
/// of each header and trace event, `to_json()` of each reply and
/// registration frame, in step order — folded into one FNV-1a digest.
/// The oracle shares the protocol with its subject, so it cannot see a
/// change both sides make; this constant can. When it moves, update it
/// and say in CHANGES.md which bytes moved and why.
#[test]
fn emitted_bytes_are_pinned() {
    let digest = testgen::random_dags(0xD16E_57ED, 48, 24, 25)
        .iter()
        .enumerate()
        .fold(FNV_OFFSET, |h, (case, dag)| {
            let out = run_case(dag, 0xF00D + 11 * case as u64, indexed)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            fnv1a(h, &out.digest.to_le_bytes())
        });
    assert_eq!(
        digest, 0xABAF_4C6E_0314_7082,
        "effect digest moved: {digest:#018x}"
    );
}

/// One way for a lease table to be wrong.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// `remove` closes the gap (`Vec::remove`) instead of moving the
    /// last lease into it: right membership, wrong table order.
    OrderPreservingRemove,
    /// `has_speculative` never sees the duplicate, so the steal scan
    /// hands out a third holder.
    NoSpeculative,
    /// `remove_worker_next` takes the worker's *last* lease first.
    HighestFirst,
    /// `stealable` is stuck at 0: the early-out refuses every steal.
    NeverStealable,
}

/// A [`ScanTable`] with one operation broken.
#[derive(Debug, Clone)]
struct Wrong {
    table: ScanTable,
    fault: Fault,
}

impl Leases for Wrong {
    fn len(&self) -> usize {
        self.table.len()
    }
    fn has_holder(&self, task: NodeId) -> bool {
        self.table.has_holder(task)
    }
    fn has_speculative(&self, task: NodeId) -> bool {
        !matches!(self.fault, Fault::NoSpeculative) && self.table.has_speculative(task)
    }
    fn stealable(&self) -> usize {
        match self.fault {
            Fault::NeverStealable => 0,
            _ => self.table.stealable(),
        }
    }
    fn insert(&mut self, lease: Lease) {
        self.table.insert(lease);
    }
    fn find(&self, worker: usize, task: NodeId) -> Option<usize> {
        self.table.find(worker, task)
    }
    fn get(&self, id: usize) -> &Lease {
        self.table.get(id)
    }
    fn renew(&mut self, worker: usize, task: NodeId, deadline_us: u64) -> bool {
        self.table.renew(worker, task, deadline_us)
    }
    fn renew_worker(&mut self, worker: usize, deadline_us: u64) -> Vec<NodeId> {
        self.table.renew_worker(worker, deadline_us)
    }
    fn remove(&mut self, id: usize) -> Lease {
        match self.fault {
            Fault::OrderPreservingRemove => self.table.0.remove(id),
            _ => self.table.remove(id),
        }
    }
    fn remove_worker_next(&mut self, worker: usize) -> Option<Lease> {
        match self.fault {
            Fault::HighestFirst => {
                let last = self.table.0.iter().rposition(|l| l.worker == worker)?;
                Some(self.table.remove(last))
            }
            _ => self.table.remove_worker_next(worker),
        }
    }
    fn remove_task_next(&mut self, task: NodeId) -> Option<Lease> {
        self.table.remove_task_next(task)
    }
    fn iter(&self) -> impl Iterator<Item = &Lease> + '_ {
        self.table.iter()
    }
    fn retain_not_worker(&mut self, worker: usize) {
        self.table.retain_not_worker(worker);
    }
}

/// The oracle can fail: each wrong table is told apart from the
/// reference within the default 64 cases.
#[test]
fn every_seeded_wrong_table_is_rejected() {
    let dags = dags(64);
    for fault in [
        Fault::OrderPreservingRemove,
        Fault::NoSpeculative,
        Fault::HighestFirst,
        Fault::NeverStealable,
    ] {
        let rejected = dags.iter().enumerate().find_map(|(case, dag)| {
            run_case(dag, seed_of(case), |dag, policy, cfg| {
                let table = ScanTable::default();
                LeaseMachine::with_table(dag, policy, cfg, Wrong { table, fault })
            })
            .err()
        });
        assert!(rejected.is_some(), "{fault:?} passed all 64 cases");
    }
}
