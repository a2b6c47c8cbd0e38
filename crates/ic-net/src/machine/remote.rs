//! The federation's side of a [`LeaseMachine`]: which local nodes are
//! stubs of a peer shard's tasks, and what a peer's `remote-done` does
//! to them. The live protocol enters at two points — `claim_stubs`
//! (which also applies the notifications that arrived before it)
//! after the header, `remote_done` from `step` — and both are no-ops
//! on a standalone machine, whose [`Remote`] is empty.

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
    /// Remote completions that arrived before the header, in arrival
    /// order and deduplicated on entry; applied right after it.
    pub(super) pending: Vec<NodeId>,
}

impl<L: Leases> LeaseMachine<'_, '_, L> {
    /// Declare this machine one shard of a federated run. Must be
    /// called before [`LeaseMachine::boot`]: the trace header then
    /// carries the metadata, and every stub node is claimed by
    /// [`FED_CLIENT`] right after the header so it can only complete
    /// through a peer's [`Event::RemoteDone`](super::Event::RemoteDone).
    /// Out-of-range stub ids are ignored defensively.
    pub fn set_fed(&mut self, fed: FedMeta) {
        let mut stubs = vec![false; self.dag.num_nodes()];
        for &i in &fed.stubs {
            if let Some(slot) = stubs.get_mut(i as usize) {
                *slot = true;
            }
        }
        self.remote.stubs = stubs;
        self.remote.meta = Some(fed);
    }

    /// Right after the header: claim every stub for the federation,
    /// then apply the remote completions that raced ahead of the
    /// header. Each stub is a source of the local sub-dag, so it leaves
    /// the pool at once and completes only through a peer's
    /// `remote-done`; the `alloc` events keep the trace's pool
    /// accounting exact.
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
        for v in std::mem::take(&mut self.remote.pending) {
            self.apply_remote(v, now_us, fx);
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
            // A notification already waiting (a backlog replay) is not
            // queued twice.
            if !self.remote.pending.contains(&v) {
                self.remote.pending.push(v);
            }
            return;
        }
        self.apply_remote(v, now_us, fx);
    }

    /// Complete stub `v` for the federation. A stub is a source of the
    /// local sub-dag, claimed at the header, so it is ELIGIBLE as soon
    /// as the header is out.
    fn apply_remote(&mut self, v: NodeId, now_us: u64, fx: &mut Vec<Effect>) {
        if self.state.is_executed(v) {
            return; // duplicate (e.g. a backlog replay): ignore
        }
        if !self.remote.stubs.get(v.index()).copied().unwrap_or(false) {
            return; // not a stub of this shard: drop
        }
        self.complete(v, FED_CLIENT, now_us, fx);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_accounting, audit_errors, boot, done, hello, request};
    use super::*;
    use crate::machine::Event;
    use crate::server::ServerConfig;
    use crate::wire::Message;
    use ic_dag::builder::from_arcs;
    use ic_sched::heuristics::Policy;
    use ic_sim::trace::TraceSink;
    use ic_sim::MemorySink;

    fn fed_meta(nodes: usize, stubs: &[u32]) -> FedMeta {
        FedMeta {
            shard: 1,
            shards: 2,
            global_nodes: nodes + 3,
            to_global: (0..nodes as u64).map(|i| i + 3).collect(),
            stubs: stubs.to_vec(),
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
        m.set_fed(fed_meta(3, &[0]));
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
        m.set_fed(fed_meta(2, &[0]));
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
