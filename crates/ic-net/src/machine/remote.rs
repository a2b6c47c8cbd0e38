//! The federation's side of a [`LeaseMachine`]: which local nodes are
//! stubs or replicas of a peer shard's tasks, and what a peer's
//! `remote-done` does to them. The live protocol enters at three
//! points — `claim_stubs` after the header, `remote_done` from `step`,
//! `drain_pending_remote` after every completion — and all three are
//! no-ops on a standalone machine, whose [`Remote`] is empty.

use ic_dag::NodeId;
use ic_sim::trace::{EventKind, FedMeta, FED_CLIENT};

use super::{Effect, LeaseMachine, Leases};

/// One shard's view of the federation it runs in; all-empty (the
/// `Default`) on a standalone machine.
#[derive(Debug, Clone, Default)]
pub(super) struct Remote {
    /// Federation metadata for the trace header
    /// ([`LeaseMachine::set_fed`]); `None` for a standalone run.
    pub(super) meta: Option<FedMeta>,
    /// `stubs[v]`: node `v` is a stub — a remote predecessor owned by
    /// a peer shard, claimed by [`FED_CLIENT`] at the header and
    /// completed only by that shard's `remote-done`.
    stubs: Vec<bool>,
    /// `replicas[v]`: node `v` is a replicated boundary task
    /// (`--replicate-cut`): allocatable locally, but a peer's
    /// `remote-done` may win the race and revoke local leases.
    replicas: Vec<bool>,
    /// Remote completions that cannot apply yet: arrived before the
    /// header, or before a predecessor's (peer messages carry no
    /// ordering across shards). A plain queue, deduplicated on entry
    /// and rescanned on every drain; arrival order is observable (it
    /// fixes the order of completions within a drain pass).
    pub(super) pending: Vec<NodeId>,
}

/// `ids` as a membership mask over `n` nodes; out-of-range ids are
/// ignored defensively.
fn mask(n: usize, ids: &[u32]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &i in ids {
        if let Some(slot) = mask.get_mut(i as usize) {
            *slot = true;
        }
    }
    mask
}

impl<L: Leases> LeaseMachine<'_, '_, L> {
    /// Declare this machine one shard of a federated run. Must be
    /// called before [`LeaseMachine::boot`]: the trace header then
    /// carries the metadata, and every stub node is claimed by
    /// [`FED_CLIENT`] right after the header so it can only complete
    /// through a peer's [`Event::RemoteDone`](super::Event::RemoteDone).
    pub fn set_fed(&mut self, fed: FedMeta) {
        let n = self.dag.num_nodes();
        self.remote.stubs = mask(n, &fed.stubs);
        self.remote.replicas = mask(n, &fed.replicas);
        self.remote.meta = Some(fed);
    }

    /// Right after the header: claim every stub for the federation.
    /// Each is a source of the local sub-dag, so it leaves the pool at
    /// once and completes only through a peer's `remote-done`; the
    /// `alloc` events keep the trace's pool accounting exact.
    pub(super) fn claim_stubs(&mut self, now_us: u64, fx: &mut Vec<Effect>) {
        let stubs: Vec<NodeId> = self
            .dag
            .node_ids()
            .filter(|v| self.remote.stubs.get(v.index()).copied().unwrap_or(false))
            .collect();
        for v in stubs {
            if self.state.claim(v).is_err() {
                debug_assert!(false, "stub {v} must be an unexecuted source");
                continue;
            }
            self.emit(fx, EventKind::Allocated, now_us, FED_CLIENT, Some(v));
        }
    }

    /// Apply a peer shard's completion notification for local node
    /// `task` (see [`Event::RemoteDone`](super::Event::RemoteDone)).
    pub(super) fn remote_done(&mut self, task: u64, now_us: u64, fx: &mut Vec<Effect>) {
        let Some(v) = self.node_from_raw(task) else {
            return; // foreign id: drop defensively
        };
        if !self.header_written {
            // No events may precede the header; apply right after it.
            self.queue_remote(v);
            return;
        }
        self.apply_remote(v, now_us, fx);
        self.drain_pending_remote(now_us, fx);
    }

    /// Queue `v` until its predecessors land; a notification already
    /// waiting (a backlog replay) is not queued twice.
    fn queue_remote(&mut self, v: NodeId) {
        if !self.remote.pending.contains(&v) {
            self.remote.pending.push(v);
        }
    }

    fn parents_executed(&self, v: NodeId) -> bool {
        let parents = self.dag.parents(v);
        parents.iter().all(|&p| self.state.is_executed(p))
    }

    /// Apply one remote completion if it can apply now; queue it when
    /// the node's own predecessors are not all executed yet — peer
    /// links carry no cross-shard ordering, so a consumer's
    /// notification can outrun its producer's.
    fn apply_remote(&mut self, v: NodeId, now_us: u64, fx: &mut Vec<Effect>) {
        if self.state.is_executed(v) {
            return; // duplicate (e.g. a backlog replay): ignore
        }
        let flagged = |mask: &[bool]| mask.get(v.index()).copied().unwrap_or(false);
        if !flagged(&self.remote.stubs) && !flagged(&self.remote.replicas) {
            return; // not a boundary node of this shard: drop
        }
        if !self.parents_executed(v) {
            return self.queue_remote(v);
        }
        // Bring the node out of whatever queue it occupies, keeping
        // the trace's allocation accounting replay-clean.
        if self.state.is_pooled(v) {
            // An unallocated replica: the federation claims it.
            if self.state.claim(v).is_err() {
                debug_assert!(false, "pooled node {v} must be claimable");
                return;
            }
            self.emit(fx, EventKind::Allocated, now_us, FED_CLIENT, Some(v));
        } else if let Some(pos) = self.deferred.iter().position(|&(_, d)| d == v) {
            // A replica waiting out a backoff: already claimed; leave
            // the backoff queue and allocate to the federation.
            self.deferred.swap_remove(pos);
            self.emit(fx, EventKind::Allocated, now_us, FED_CLIENT, Some(v));
        } else if self.leases.has_holder(v) {
            // Workers hold leases: the federation takes a (winning)
            // duplicate, mirroring the speculative-lease path, so the
            // completion below resolves against *its* lease under
            // replay and the workers' leases revoke legally after it.
            self.emit(fx, EventKind::Speculated, now_us, FED_CLIENT, Some(v));
        }
        // (Otherwise: a stub, claimed by the federation at the header.)
        self.complete(v, FED_CLIENT, now_us, fx);
    }

    /// Re-attempt queued remote completions until a pass applies none.
    /// Each pass takes the queued nodes whose parents are all executed,
    /// in queue order; applying them may ready later entries for the
    /// next pass. Runs after every completion: standalone, that is the
    /// loop condition on an empty `Vec`.
    pub(super) fn drain_pending_remote(&mut self, now_us: u64, fx: &mut Vec<Effect>) {
        while !self.remote.pending.is_empty() {
            let (ready, waiting): (Vec<NodeId>, Vec<NodeId>) = self
                .remote
                .pending
                .iter()
                .partition(|&&v| self.parents_executed(v));
            if ready.is_empty() {
                return;
            }
            self.remote.pending = waiting;
            for v in ready {
                self.apply_remote(v, now_us, fx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_accounting, audit_errors, boot, done, drive, hello, request};
    use super::*;
    use crate::machine::Event;
    use crate::server::ServerConfig;
    use crate::wire::Message;
    use ic_dag::builder::from_arcs;
    use ic_sched::heuristics::Policy;
    use ic_sim::trace::TraceSink;
    use ic_sim::MemorySink;

    fn fed_meta(nodes: usize, stubs: &[u32], replicas: &[u32]) -> FedMeta {
        FedMeta {
            shard: 1,
            shards: 2,
            global_nodes: nodes + 3,
            to_global: (0..nodes as u64).map(|i| i + 3).collect(),
            stubs: stubs.to_vec(),
            replicas: replicas.to_vec(),
        }
    }

    /// A stub is claimed by the federation at the header, gates its
    /// children until `remote-done` arrives, executes exactly once
    /// (duplicates ignored), and the shard trace replays audit-clean.
    #[test]
    fn stub_gates_children_until_remote_done() {
        // Local sub-dag: stub 0 -> task 1 -> task 2.
        let g = from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder().lease_ms(10_000).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        m.set_fed(fed_meta(3, &[0], &[]));
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "w0");

        // The stub holds the frontier closed: nothing allocatable.
        assert!(matches!(
            request(&mut m, &mut sink, 0, 1, 10),
            Message::Wait { .. }
        ));

        // The owning shard completes the stub's global task.
        let fx = m.step(Event::RemoteDone {
            task: 0,
            now_us: 20,
        });
        for e in &fx {
            if let Effect::Trace(t) = e {
                sink.record(t);
            }
        }
        assert_eq!(m.reg.remote_completions, 1);
        assert_accounting(&m);

        // A duplicate (backlog replay) changes nothing.
        assert!(m
            .step(Event::RemoteDone {
                task: 0,
                now_us: 21
            })
            .is_empty());
        assert_eq!(m.reg.remote_completions, 1);

        // Now the child chain allocates and completes normally.
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 30) else {
            panic!("task 1 must be allocatable after the remote-done");
        };
        assert_eq!(tasks, vec![1]);
        assert!(done(&mut m, &mut sink, 0, 1, true, 40));
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 50) else {
            panic!("task 2 must follow");
        };
        assert_eq!(tasks, vec![2]);
        assert!(done(&mut m, &mut sink, 0, 2, true, 60));
        assert!(m.is_complete());
        assert_eq!(audit_errors(sink), vec![]);
    }

    /// A leased replica loses the race: the peer's `remote-done`
    /// completes it for the federation, the worker's lease is revoked
    /// (its late report rejected, its heartbeat answered `revoke`),
    /// and the trace replays audit-clean.
    #[test]
    fn remote_done_wins_the_replica_race_and_revokes_the_lease() {
        // Local sub-dag: replica 0 -> task 1.
        let g = from_arcs(2, &[(0, 1)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder().lease_ms(10_000).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        m.set_fed(fed_meta(2, &[], &[0]));
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "w0");

        // The replica is allocatable locally and gets leased.
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 10) else {
            panic!("replica must be allocatable");
        };
        assert_eq!(tasks, vec![0]);

        // The owning shard finishes first.
        let fx = m.step(Event::RemoteDone {
            task: 0,
            now_us: 20,
        });
        for e in &fx {
            if let Effect::Trace(t) = e {
                sink.record(t);
            }
        }
        assert_eq!(m.reg.remote_completions, 1);
        assert_accounting(&m);

        // The worker's report is now late and rejected; its heartbeat
        // learns the lease is gone via `revoke`.
        assert!(!done(&mut m, &mut sink, 0, 0, true, 30));
        let replies = drive(
            &mut m,
            &mut sink,
            Event::Heartbeat {
                worker: 0,
                task: 0,
                now_us: 35,
            },
        );
        assert_eq!(replies, vec![Message::Revoke { task: 0 }]);

        // The child still flows through the worker.
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 40) else {
            panic!("child must be allocatable");
        };
        assert_eq!(tasks, vec![1]);
        assert!(done(&mut m, &mut sink, 0, 1, true, 50));
        assert!(m.is_complete());
        assert_eq!(audit_errors(sink), vec![]);
    }

    /// A locally-completed replica wins: the later `remote-done` is a
    /// no-op duplicate.
    #[test]
    fn local_replica_completion_wins_and_remote_done_is_ignored() {
        let g = from_arcs(2, &[(0, 1)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder().lease_ms(10_000).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        m.set_fed(fed_meta(2, &[], &[0]));
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "w0");

        let Message::Assign { .. } = request(&mut m, &mut sink, 0, 1, 10) else {
            panic!("replica must be allocatable");
        };
        assert!(done(&mut m, &mut sink, 0, 0, true, 20));
        assert!(m
            .step(Event::RemoteDone {
                task: 0,
                now_us: 30
            })
            .is_empty());
        assert_eq!(m.reg.remote_completions, 0);
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 35) else {
            panic!("child must be allocatable");
        };
        assert_eq!(tasks, vec![1]);
        assert!(done(&mut m, &mut sink, 0, 1, true, 40));
        assert!(m.is_complete());
        assert_eq!(audit_errors(sink), vec![]);
    }

    /// Peer links carry no cross-shard ordering: a replica's
    /// notification arriving before its own stub predecessor's is
    /// queued — once, however often a backlog replay repeats it — and
    /// applied once the stub lands; a whole chain delivered in reverse
    /// drains in as many passes as it has links.
    #[test]
    fn reordered_remote_dones_queue_until_predecessors_land() {
        // Feed one `remote-done`: its trace events go to the sink for
        // the audit, and the tasks it completed come back, in order.
        fn remote(
            m: &mut LeaseMachine<'_, '_>,
            sink: &mut MemorySink,
            task: u64,
            now_us: u64,
        ) -> Vec<NodeId> {
            let mut completed = Vec::new();
            for e in m.step(Event::RemoteDone { task, now_us }) {
                let Effect::Trace(t) = e else {
                    panic!("a remote-done only writes trace events: {e:?}");
                };
                sink.record(&t);
                if t.kind == EventKind::Completed {
                    completed.extend(t.task);
                }
            }
            completed
        }

        // Local sub-dag: stub 0 -> replica 1 -> task 2.
        let g = from_arcs(3, &[(0, 1), (1, 2)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder().lease_ms(10_000).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg.clone());
        m.set_fed(fed_meta(3, &[0], &[1]));
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "w0");

        // The replica's notification outruns the stub's: queued, and a
        // second delivery while it waits neither applies nor re-queues.
        for now_us in [10, 15] {
            let before = m.trace_steps();
            assert_eq!(remote(&mut m, &mut sink, 1, now_us), vec![]);
            assert_eq!(
                m.trace_steps(),
                before,
                "a queued notification emits nothing"
            );
            assert_eq!(m.pending_remote(), 1);
            assert_eq!(m.reg.remote_completions, 0);
        }

        // The stub's notification lands: both apply, in order.
        let applied = remote(&mut m, &mut sink, 0, 20);
        assert_eq!(applied, vec![NodeId(0), NodeId(1)], "one `Completed` each");
        assert_eq!(m.pending_remote(), 0);
        assert_eq!(m.reg.remote_completions, 2);
        assert_accounting(&m);

        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 30) else {
            panic!("task 2 must be allocatable");
        };
        assert_eq!(tasks, vec![2]);
        assert!(done(&mut m, &mut sink, 0, 2, true, 40));
        assert!(m.is_complete());
        assert_eq!(audit_errors(sink), vec![]);

        // Stub 0 -> replica 1 -> replica 2 -> task 3, delivered in
        // reverse: both replicas wait; when the stub lands the first
        // drain pass finds only 1 ready (2's parent is still open),
        // and applying 1 is what readies 2 for the second pass.
        let g = from_arcs(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        m.set_fed(fed_meta(4, &[0], &[1, 2]));
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "w0");
        assert_eq!(remote(&mut m, &mut sink, 2, 10), vec![]);
        assert_eq!(remote(&mut m, &mut sink, 1, 11), vec![]);
        assert_eq!((m.pending_remote(), m.reg.remote_completions), (2, 0));
        let applied = remote(&mut m, &mut sink, 0, 20);
        assert_eq!(applied, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!((m.pending_remote(), m.reg.remote_completions), (0, 3));
        assert_accounting(&m);

        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 30) else {
            panic!("task 3 must be allocatable");
        };
        assert_eq!(tasks, vec![3]);
        assert!(done(&mut m, &mut sink, 0, 3, true, 40));
        assert!(m.is_complete());
        assert_eq!(audit_errors(sink), vec![]);
    }

    /// A `remote-done` racing ahead of the header (registration
    /// barrier still open) is queued — no event may precede the header
    /// — and applied right after the header goes out.
    #[test]
    fn remote_done_before_the_header_waits_for_it() {
        let g = from_arcs(2, &[(0, 1)]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder()
            .lease_ms(10_000)
            .expect_workers(1)
            .build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg);
        m.set_fed(fed_meta(2, &[0], &[]));
        boot(&mut m, &mut sink);

        // Barrier not met: the notification must produce no effects.
        assert!(m.step(Event::RemoteDone { task: 0, now_us: 5 }).is_empty());
        assert_eq!(m.reg.remote_completions, 0);

        // The registering hello writes the header, claims the stub,
        // and applies the queued completion.
        hello(&mut m, &mut sink, "w0");
        assert_eq!(m.reg.remote_completions, 1);
        assert_accounting(&m);

        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 10) else {
            panic!("child must be allocatable");
        };
        assert_eq!(tasks, vec![1]);
        assert!(done(&mut m, &mut sink, 0, 1, true, 20));
        assert!(m.is_complete());
        assert_eq!(audit_errors(sink), vec![]);
    }
}
