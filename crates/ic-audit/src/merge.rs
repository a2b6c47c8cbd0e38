//! Merge per-shard federation traces into one global trace.
//!
//! A federated (`ic-fed`) run leaves one JSONL trace per shard, each
//! over that shard's *local* sub-dag with [`FedMeta`] in the header
//! describing the embedding into the global dag. This pass interleaves
//! them back into a single global trace that [`audit_trace`] can
//! replay as if one server had run the whole computation:
//!
//! * local node and client ids are rewritten to global ones;
//! * the synthetic federation client's bookkeeping events (stubs
//!   claimed at the header and completed by a `remote-done`) are
//!   *gates*, not history: a shard's stream is held back until the
//!   real completion its `remote-done` reported has been merged, then
//!   the bookkeeping event is dropped;
//! * recorded pool sizes are local quantities with no global meaning
//!   and are cleared.
//!
//! Federation-specific defects get their own `IC06xx` codes: metadata
//! that does not describe one coherent federation ([`IC0600`]), a
//! consumed remote completion that never happened anywhere
//! ([`IC0601`]), an allocation before its remote predecessors
//! completed ([`IC0602`]), and a task completed on more than one shard
//! ([`IC0603`]).
//!
//! [`IC0600`]: crate::diag::FEDERATION_METADATA_MISMATCH
//! [`IC0601`]: crate::diag::REMOTE_DONE_WITHOUT_COMPLETION
//! [`IC0602`]: crate::diag::REMOTE_ELIGIBILITY_VIOLATION
//! [`IC0603`]: crate::diag::DIVERGENT_REPLICATED_COMPLETION
//! [`audit_trace`]: crate::trace::audit_trace

use std::collections::{BTreeMap, BTreeSet};

use ic_dag::NodeId;
use ic_sim::trace::{EventKind, FedMeta, Trace, TraceEvent, TraceHeader, FED_CLIENT};

use crate::diag::{
    Diagnostic, DIVERGENT_REPLICATED_COMPLETION, FEDERATION_METADATA_MISMATCH,
    REMOTE_DONE_WITHOUT_COMPLETION, REMOTE_ELIGIBILITY_VIOLATION,
};

/// Outcome of [`merge_traces`]: the merged global trace (absent only
/// when the federation metadata was too inconsistent to interleave at
/// all) plus every merge-time finding.
#[derive(Debug)]
pub struct MergedTrace {
    /// The merged global trace, ready for [`audit_trace`]
    /// (`header.fed` is `None`: it is an ordinary global trace).
    ///
    /// [`audit_trace`]: crate::trace::audit_trace
    pub trace: Option<Trace>,
    /// `IC06xx` findings from the merge itself (replay findings come
    /// from auditing the merged trace).
    pub diags: Vec<Diagnostic>,
}

struct Shard<'a> {
    meta: &'a FedMeta,
    trace: &'a Trace,
    /// Next unmerged event index.
    head: usize,
    /// Client-id offset of this shard in the merged numbering.
    client_offset: usize,
    /// Global ids of this shard's stub nodes.
    stubs: BTreeSet<u64>,
    /// Stub gates already consumed, in this shard's own stream order —
    /// allocations must not precede the gates of their parents.
    consumed_stubs: BTreeSet<u64>,
}

impl Shard<'_> {
    fn global_task(&self, local: usize) -> Option<u64> {
        self.meta.to_global.get(local).copied()
    }
}

fn fed_error(diags: &mut Vec<Diagnostic>, message: String) {
    diags.push(Diagnostic::error(FEDERATION_METADATA_MISMATCH, message));
}

/// Validate the per-shard metadata and index the shards by shard id.
/// Any inconsistency is fatal: an interleaving over wrong embeddings
/// would replay nonsense.
fn validate<'a>(traces: &'a [Trace], diags: &mut Vec<Diagnostic>) -> Option<Vec<Shard<'a>>> {
    if traces.is_empty() {
        fed_error(diags, "no shard traces to merge".into());
        return None;
    }
    let mut by_shard: BTreeMap<u64, (&FedMeta, &Trace)> = BTreeMap::new();
    let mut shards = 0u64;
    let mut global_nodes = 0usize;
    for (i, t) in traces.iter().enumerate() {
        let Some(meta) = t.header.fed.as_ref() else {
            fed_error(diags, format!("trace {i} has no federation metadata"));
            return None;
        };
        if i == 0 {
            shards = meta.shards;
            global_nodes = meta.global_nodes;
        } else if meta.shards != shards || meta.global_nodes != global_nodes {
            fed_error(
                diags,
                format!(
                    "trace {i} describes a {}-shard/{}-node federation; \
                     trace 0 described {shards} shard(s)/{global_nodes} node(s)",
                    meta.shards, meta.global_nodes
                ),
            );
            return None;
        }
        if meta.shard >= shards {
            fed_error(
                diags,
                format!("trace {i} claims shard {} of {}", meta.shard, shards),
            );
            return None;
        }
        if meta.to_global.len() != t.header.nodes {
            fed_error(
                diags,
                format!(
                    "shard {}: {} local nodes but {} to_global entries",
                    meta.shard,
                    t.header.nodes,
                    meta.to_global.len()
                ),
            );
            return None;
        }
        if let Some(&g) = meta.to_global.iter().find(|&&g| {
            usize::try_from(g)
                .map(|g| g >= global_nodes)
                .unwrap_or(true)
        }) {
            fed_error(
                diags,
                format!(
                    "shard {}: to_global maps onto node {g} of a {global_nodes}-node dag",
                    meta.shard
                ),
            );
            return None;
        }
        if by_shard.insert(meta.shard, (meta, t)).is_some() {
            fed_error(diags, format!("two traces claim shard {}", meta.shard));
            return None;
        }
    }
    let missing: Vec<u64> = (0..shards).filter(|s| !by_shard.contains_key(s)).collect();
    if !missing.is_empty() {
        fed_error(diags, format!("missing trace(s) for shard(s) {missing:?}"));
        return None;
    }

    // Client-id offsets: each shard gets a contiguous block wide
    // enough for every client its header or events mention.
    let mut out = Vec::with_capacity(by_shard.len());
    let mut offset = 0usize;
    for (&_sid, &(meta, trace)) in &by_shard {
        let mut span = trace.header.clients;
        for ev in &trace.events {
            if ev.client != FED_CLIENT {
                span = span.max(ev.client + 1);
            }
        }
        let stubs = meta
            .stubs
            .iter()
            .filter_map(|&l| meta.to_global.get(usize::try_from(l).ok()?).copied())
            .collect();
        out.push(Shard {
            meta,
            trace,
            head: 0,
            client_offset: offset,
            stubs,
            consumed_stubs: BTreeSet::new(),
        });
        offset += span;
    }
    Some(out)
}

/// Merge per-shard federation traces into one global trace. See the
/// module docs for the exact rewriting rules. The input order does not
/// matter; shards are processed by their declared shard id.
pub fn merge_traces(traces: &[Trace]) -> MergedTrace {
    let mut diags = Vec::new();
    let Some(mut shards) = validate(traces, &mut diags) else {
        return MergedTrace { trace: None, diags };
    };
    let meta0 = shards[0].meta;
    let global_nodes = meta0.global_nodes;

    // The global dag: the union of every shard's mapped local arcs
    // (each global arc is local wherever its head is allocatable, so
    // the union is exactly the global arc set).
    let mut arc_set: BTreeSet<(u32, u32)> = BTreeSet::new();
    for sh in &shards {
        for &(u, v) in &sh.trace.header.arcs {
            let (Some(gu), Some(gv)) = (
                sh.global_task(usize::try_from(u).unwrap_or(usize::MAX)),
                sh.global_task(usize::try_from(v).unwrap_or(usize::MAX)),
            ) else {
                fed_error(
                    &mut diags,
                    format!(
                        "shard {}: header arc ({u},{v}) is out of range",
                        sh.meta.shard
                    ),
                );
                return MergedTrace { trace: None, diags };
            };
            let (Ok(gu), Ok(gv)) = (u32::try_from(gu), u32::try_from(gv)) else {
                fed_error(&mut diags, "global node id exceeds u32".into());
                return MergedTrace { trace: None, diags };
            };
            arc_set.insert((gu, gv));
        }
    }
    let arcs: Vec<(u32, u32)> = arc_set.into_iter().collect();
    let mut parents: Vec<Vec<usize>> = vec![Vec::new(); global_nodes];
    for &(u, v) in &arcs {
        if let (Ok(u), Ok(v)) = (usize::try_from(u), usize::try_from(v)) {
            if v < global_nodes {
                parents[v].push(u);
            }
        }
    }

    let mut completed_global: Vec<bool> = vec![false; global_nodes];
    let mut merged: Vec<TraceEvent> = Vec::new();
    let mut step = 0u64;
    // Stamp an event with its merged global step index.
    let mut emit = |mut ev: TraceEvent, merged: &mut Vec<TraceEvent>| {
        ev.step = step;
        step += 1;
        merged.push(ev);
    };

    loop {
        // Pick the mergeable head with the smallest timestamp: real
        // events are always mergeable, a federation bookkeeping
        // completion only once the real completion it reports has been
        // merged.
        let mut best: Option<(f64, usize)> = None;
        let mut exhausted = true;
        for (i, sh) in shards.iter().enumerate() {
            let Some(ev) = sh.trace.events.get(sh.head) else {
                continue;
            };
            exhausted = false;
            if ev.client == FED_CLIENT && ev.kind == EventKind::Completed {
                let blocked = ev
                    .task
                    .and_then(|task| sh.global_task(task.index()))
                    .and_then(|g| usize::try_from(g).ok())
                    .map(|g| !completed_global.get(g).copied().unwrap_or(false))
                    .unwrap_or(false);
                if blocked {
                    continue;
                }
            }
            if best.map(|(bt, _)| ev.time < bt).unwrap_or(true) {
                best = Some((ev.time, i));
            }
        }
        if exhausted {
            break;
        }
        let Some((_, i)) = best else {
            // Every remaining head is a gate on a completion that never
            // merged: the federation consumed remote-dones nobody
            // performed.
            for sh in &shards {
                let head = sh.trace.events.get(sh.head);
                if let Some(task) = head
                    .filter(|ev| ev.kind == EventKind::Completed)
                    .and_then(|ev| ev.task)
                {
                    let g = sh.global_task(task.index()).unwrap_or(u64::MAX);
                    diags.push(Diagnostic::error(
                        REMOTE_DONE_WITHOUT_COMPLETION,
                        format!(
                            "shard {} consumed a remote completion of task {g} that no \
                             shard ever performed",
                            sh.meta.shard
                        ),
                    ));
                }
            }
            break;
        };
        let sh = &mut shards[i];
        let ev = sh.trace.events[sh.head];
        sh.head += 1;

        if ev.client == FED_CLIENT {
            // Bookkeeping: stub claims and completions. All dropped;
            // the gate condition was enforced above. Record consumed
            // stub gates so later allocations can be checked against
            // them in this shard's own stream order.
            if ev.kind == EventKind::Completed {
                if let Some(g) = ev.task.and_then(|task| sh.global_task(task.index())) {
                    sh.consumed_stubs.insert(g);
                }
            }
            continue;
        }
        // Onto the global id spaces; the recorded pool size is a local
        // quantity with no global meaning and is cleared.
        let ev = TraceEvent {
            client: ev.client + sh.client_offset,
            pool: None,
            ..ev
        };
        let Some(local_task) = ev.task else {
            emit(ev, &mut merged);
            continue;
        };
        let Some(g64) = sh.global_task(local_task.index()) else {
            fed_error(
                &mut diags,
                format!(
                    "shard {}: event references local node {} beyond its sub-dag",
                    sh.meta.shard,
                    local_task.index()
                ),
            );
            continue;
        };
        let g = usize::try_from(g64).unwrap_or(usize::MAX);
        let ev = TraceEvent {
            task: Some(NodeId::new(g)),
            ..ev
        };

        if matches!(ev.kind, EventKind::Allocated | EventKind::Speculated) {
            // Allocating before this shard consumed the stub gate of a
            // remote predecessor means the shard jumped eligibility.
            for &p in &parents[g] {
                let p64 = u64::try_from(p).unwrap_or(u64::MAX);
                if sh.stubs.contains(&p64) && !sh.consumed_stubs.contains(&p64) {
                    diags.push(Diagnostic::error(
                        REMOTE_ELIGIBILITY_VIOLATION,
                        format!(
                            "shard {} allocated task {g} before its remote predecessor \
                             {p} completed",
                            sh.meta.shard
                        ),
                    ));
                }
            }
        }

        if ev.kind == EventKind::Completed {
            if completed_global[g] {
                diags.push(Diagnostic::error(
                    DIVERGENT_REPLICATED_COMPLETION,
                    format!(
                        "task {g} completed on shard {} although already completed \
                         elsewhere",
                        sh.meta.shard
                    ),
                ));
                continue;
            }
            completed_global[g] = true;
        }
        emit(ev, &mut merged);
    }

    // The merged header: the global dag, every shard's workers under
    // their remapped client ids, shard 0's seed and policy.
    let t0 = shards[0].trace;
    let mut workers = Vec::new();
    let mut clients = 0usize;
    for sh in &shards {
        for w in &sh.trace.header.workers {
            let mut w = w.clone();
            w.client += sh.client_offset;
            workers.push(w);
        }
        clients = clients.max(
            sh.client_offset
                + sh.trace.header.clients.max(
                    sh.trace
                        .events
                        .iter()
                        .map(|ev| ev.client)
                        .filter(|&c| c != FED_CLIENT)
                        .map(|c| c + 1)
                        .max()
                        .unwrap_or(0),
                ),
        );
    }
    let header = TraceHeader {
        version: t0.header.version,
        nodes: global_nodes,
        arcs,
        clients,
        seed: t0.header.seed,
        policy: format!("fed({})", t0.header.policy),
        workers,
        fed: None,
    };
    MergedTrace {
        trace: Some(Trace {
            header,
            events: merged,
        }),
        diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use crate::trace::audit_trace;

    fn ev_alloc(step: u64, client: usize, task: usize) -> TraceEvent {
        TraceEvent::on_task(
            EventKind::Allocated,
            step,
            step as f64,
            client,
            NodeId::new(task),
            Some(99),
        )
    }
    fn ev_done(step: u64, client: usize, task: usize) -> TraceEvent {
        TraceEvent::on_task(
            EventKind::Completed,
            step,
            step as f64,
            client,
            NodeId::new(task),
            Some(99),
        )
    }

    fn shard_header(nodes: usize, arcs: &[(u32, u32)], fed: FedMeta) -> TraceHeader {
        TraceHeader {
            version: 3,
            nodes,
            arcs: arcs.to_vec(),
            clients: 1,
            seed: 7,
            policy: "fifo".into(),
            workers: Vec::new(),
            fed: Some(fed),
        }
    }

    fn meta(shard: u64, to_global: Vec<u64>, stubs: Vec<u32>) -> FedMeta {
        FedMeta {
            shard,
            shards: 2,
            global_nodes: 2,
            to_global,
            stubs,
        }
    }

    /// Global dag 0 -> 1, node 0 on shard 0, node 1 on shard 1 behind
    /// a stub for 0.
    fn two_shard_chain() -> Vec<Trace> {
        let t0 = Trace {
            header: shard_header(1, &[], meta(0, vec![0], vec![])),
            events: vec![ev_alloc(0, 0, 0), ev_done(1, 0, 0)],
        };
        let t1 = Trace {
            header: shard_header(2, &[(0, 1)], meta(1, vec![0, 1], vec![0])),
            events: vec![
                // Stub 0 claimed at the header, completed by the
                // remote-done, then the real child runs.
                ev_alloc(0, FED_CLIENT, 0),
                ev_done(1, FED_CLIENT, 0),
                ev_alloc(2, 0, 1),
                ev_done(3, 0, 1),
            ],
        };
        vec![t0, t1]
    }

    #[test]
    fn merges_a_stub_gated_chain_audit_clean() {
        let out = merge_traces(&two_shard_chain());
        assert!(out.diags.is_empty(), "{:?}", out.diags);
        let trace = out.trace.expect("mergeable");
        assert_eq!(trace.header.nodes, 2);
        assert_eq!(trace.header.arcs, vec![(0, 1)]);
        assert!(trace.header.fed.is_none());
        // FED bookkeeping dropped; four real events remain, steps
        // renumbered, clients remapped (shard 1's worker is client 1).
        assert_eq!(trace.events.len(), 4);
        assert_eq!(
            trace.events.iter().map(|e| e.step).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        let ev = trace.events[2];
        assert_eq!(
            (ev.kind, ev.client, ev.task),
            (EventKind::Allocated, 1, Some(NodeId::new(1)))
        );
        let errors: Vec<_> = audit_trace(&trace)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn a_gate_without_its_completion_is_ic0601() {
        let mut traces = two_shard_chain();
        // Shard 0 never completes node 0, but shard 1 consumed a
        // remote-done for it anyway.
        traces[0].events.truncate(1);
        let out = merge_traces(&traces);
        assert!(out
            .diags
            .iter()
            .any(|d| d.code == REMOTE_DONE_WITHOUT_COMPLETION));
    }

    #[test]
    fn allocation_past_the_stub_gate_is_ic0602() {
        let mut traces = two_shard_chain();
        // Shard 1 allocates its consumer task *before* the stub's
        // remote completion arrives.
        traces[1].events.swap(1, 2);
        let out = merge_traces(&traces);
        assert!(out
            .diags
            .iter()
            .any(|d| d.code == REMOTE_ELIGIBILITY_VIOLATION));
    }

    #[test]
    fn a_task_completed_on_two_shards_is_ic0603() {
        let mut traces = two_shard_chain();
        // Shard 1 also "completes" global node 0 for real even though
        // shard 0 owns it.
        traces[1].events.push(ev_alloc(4, 0, 0));
        traces[1].events.push(ev_done(5, 0, 0));
        let out = merge_traces(&traces);
        assert!(out
            .diags
            .iter()
            .any(|d| d.code == DIVERGENT_REPLICATED_COMPLETION));
    }

    #[test]
    fn old_replicated_traces_are_refused_with_ic0603() {
        // Global dag 0 -> 1, task 0 completed on both shards, as a run
        // under the retired replicated cut left it: both shard headers
        // still declare task 0 a replica. The key is read past, so the
        // second completion is a divergence, not a race to rewrite.
        let shard0 = r#"{"type":"header","version":3,"nodes":1,"clients":1,"seed":"7","policy":"fifo","arcs":[],"fed":{"shard":0,"shards":2,"global_nodes":2,"to_global":[0],"stubs":[],"replicas":[0]}}
{"type":"alloc","step":0,"t":0,"client":0,"task":0,"pool":1}
{"type":"complete","step":1,"t":1,"client":0,"task":0,"pool":0}
"#;
        let shard1 = r#"{"type":"header","version":3,"nodes":2,"clients":1,"seed":"7","policy":"fifo","arcs":[[0,1]],"fed":{"shard":1,"shards":2,"global_nodes":2,"to_global":[0,1],"stubs":[],"replicas":[0]}}
{"type":"alloc","step":0,"t":0,"client":0,"task":0,"pool":1}
{"type":"complete","step":1,"t":1,"client":0,"task":0,"pool":1}
{"type":"alloc","step":2,"t":2,"client":0,"task":1,"pool":0}
{"type":"complete","step":3,"t":3,"client":0,"task":1,"pool":0}
"#;
        let traces: Vec<Trace> = [shard0, shard1]
            .iter()
            .map(|text| Trace::from_jsonl(text).expect("an old shard header parses"))
            .collect();
        let out = merge_traces(&traces);
        let ic0603: Vec<&str> = out
            .diags
            .iter()
            .filter(|d| d.code == DIVERGENT_REPLICATED_COMPLETION)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(
            ic0603,
            vec!["task 0 completed on shard 1 although already completed elsewhere"]
        );
        assert!(out.trace.is_some());
    }

    #[test]
    fn inconsistent_metadata_is_ic0600() {
        let mut traces = two_shard_chain();
        traces[1].header.fed = None;
        let out = merge_traces(&traces);
        assert!(out.trace.is_none());
        assert!(out
            .diags
            .iter()
            .any(|d| d.code == FEDERATION_METADATA_MISMATCH));
    }
}
