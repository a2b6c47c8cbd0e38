//! Trace-replay passes (IC0401–IC0413).
//!
//! [`audit_trace`] replays a recorded execution trace (see
//! [`ic_sim::trace`]) against the dag embedded in its header and checks
//! the server invariants the paper's model assumes:
//!
//! * every allocation hands out a task that is ELIGIBLE *at that point
//!   of the replay* (IC0401);
//! * every completion was preceded by an allocation, once (IC0402);
//! * recorded ELIGIBLE-pool sizes match the replayed pool (IC0403);
//! * the realized execution order stays on the optimal eligibility
//!   envelope (IC0404, a warning) — certified exhaustively for dags up
//!   to [`EXHAUSTIVE_LIMIT`] nodes, and *symbolically* for larger dags
//!   that [`ic_families::symbolic::certify`] recognizes as canonical
//!   family instances with closed-form IC-optimal schedules;
//! * the trace covers the whole computation (IC0405);
//! * the v3 lease-lifecycle events are coherent: a `resume` restores a
//!   lease its client actually holds (IC0410), a speculative duplicate
//!   lease shadows a task genuinely in flight (IC0411) and only at the
//!   drain barrier (IC0413, a warning), and a `revoke` cancels only
//!   stale duplicates of a completed task (IC0412).
//!
//! The replay tracks, per task, the *set* of clients holding a lease —
//! plural since v3's speculative duplicates — so the pool accounting
//! stays exact under work stealing: a speculative lease never shrinks
//! the pool (its task already left on first allocation), a failure of
//! one holder returns the task only when it was the last, and a
//! completion closes every remaining duplicate via explicit revokes.
//!
//! The replay is best-effort after a finding: a flagged allocation is
//! still applied so one defect does not cascade into dozens, but pool
//! comparison stops at the first divergence (the reconstructed pool is
//! no longer trustworthy).

use ic_dag::Dag;
use ic_sched::optimal::optimal_envelope;
use ic_sched::Schedule;
use ic_sim::trace::{EventKind, Trace};

use crate::diag::{
    Diagnostic, Severity, COMPLETION_BEFORE_ALLOCATION, ENVELOPE_DEPARTURE,
    NON_ELIGIBLE_ALLOCATION, POOL_SIZE_MISMATCH, RESUME_WITHOUT_LEASE, REVOKE_WITHOUT_COMPLETION,
    SPECULATION_BEFORE_BARRIER, SPECULATION_WITHOUT_LEASE, TRACE_TRUNCATED,
};
use crate::graph::audit_edges;
use crate::order::EXHAUSTIVE_LIMIT;

/// Replay `trace` against its own dag and report every violated server
/// invariant. Structural defects in the embedded arc list (IC00xx) are
/// reported first and stop the replay; IC0003 orphan warnings are kept
/// but do not.
pub fn audit_trace(trace: &Trace) -> Vec<Diagnostic> {
    let n = trace.header.nodes;
    let arcs: Vec<(usize, usize)> = trace
        .header
        .arcs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    let mut diags = audit_edges(n, &arcs);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        return diags;
    }
    let dag = match trace.dag() {
        Ok(d) => d,
        Err(e) => {
            diags.push(Diagnostic::error(
                NON_ELIGIBLE_ALLOCATION,
                format!("the trace header does not describe a dag: {e}"),
            ));
            return diags;
        }
    };
    diags.extend(replay(&dag, trace));
    diags
}

fn replay(dag: &Dag, trace: &Trace) -> Vec<Diagnostic> {
    let n = dag.num_nodes();
    let mut diags = Vec::new();
    // Unexecuted-parent counters: a task is ELIGIBLE once this hits 0.
    let mut missing: Vec<usize> = (0..n)
        .map(|v| dag.in_degree(ic_dag::NodeId::new(v)))
        .collect();
    // Per task: the clients currently holding a lease on it. More than
    // one only through v3 speculative duplicates; the first entry came
    // through a real allocation, so only it moved the pool.
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut completed = vec![false; n];
    // Replayed ELIGIBLE-pool size: eligible and not currently allocated.
    let mut pool = dag.num_sources();
    let mut pool_trusted = true;
    let mut completions = 0usize;

    // Pre-v3 emitters did not tag outcome events with lease-holding
    // clients, so a mismatched client releases *some* holder rather
    // than being flagged; v3 events (resume/spec/revoke) are always
    // client-exact and checked strictly.
    fn release(holders: &mut Vec<usize>, client: usize) {
        if let Some(i) = holders.iter().position(|&c| c == client) {
            holders.swap_remove(i);
        } else {
            holders.pop();
        }
    }

    let check_pool = |pool_trusted: &mut bool,
                      diags: &mut Vec<Diagnostic>,
                      step: u64,
                      recorded: Option<usize>,
                      replayed: usize| {
        if let Some(rec) = recorded {
            if *pool_trusted && rec != replayed {
                diags.push(Diagnostic::error(
                    POOL_SIZE_MISMATCH,
                    format!(
                        "step {step} records an ELIGIBLE pool of {rec} but replay \
                         reconstructs {replayed}"
                    ),
                ));
                *pool_trusted = false;
            }
        }
    };

    for ev in &trace.events {
        let Some(task) = ev.task else { continue };
        let (step, client, rec) = (ev.step, ev.client, ev.pool);
        let t = task.index();
        // What the replay knows of the task: nothing when the id is
        // out of range, else whether it completed and who holds it.
        let known = t < n;
        let done = known && completed[t];
        let held = known && !holders[t].is_empty();
        let held_by_client = known && holders[t].contains(&client);
        match ev.kind {
            EventKind::Allocated => {
                if !known {
                    diags.push(Diagnostic::error(
                        NON_ELIGIBLE_ALLOCATION,
                        format!(
                            "step {step}: client {client} is allocated node {t} of a {n}-node dag"
                        ),
                    ));
                    pool_trusted = false;
                } else if done || held {
                    let why = if done {
                        "already completed"
                    } else {
                        "already allocated"
                    };
                    diags.push(Diagnostic::error(
                        NON_ELIGIBLE_ALLOCATION,
                        format!(
                            "step {step}: task {t} is allocated to client {client} while {why}"
                        ),
                    ));
                    pool_trusted = false;
                } else if missing[t] > 0 {
                    let parent = dag
                        .parents(task)
                        .iter()
                        .find(|&&p| !completed[p.index()])
                        .map(|p| p.index())
                        .unwrap_or(t);
                    diags.push(Diagnostic::error(
                        NON_ELIGIBLE_ALLOCATION,
                        format!(
                            "step {step}: task {t} is allocated to client {client} before its \
                             parent {parent} completed"
                        ),
                    ));
                    pool_trusted = false;
                    holders[t].push(client); // best-effort: keep replaying
                } else {
                    holders[t].push(client);
                    pool -= 1;
                    check_pool(&mut pool_trusted, &mut diags, step, rec, pool);
                }
            }
            EventKind::Completed => {
                if !held || done {
                    let why = if !known {
                        "an out-of-range node id"
                    } else if done {
                        "already completed"
                    } else {
                        "never allocated"
                    };
                    diags.push(Diagnostic::error(
                        COMPLETION_BEFORE_ALLOCATION,
                        format!("step {step}: client {client} completes task {t}, which is {why}"),
                    ));
                    pool_trusted = false;
                    continue;
                }
                release(&mut holders[t], client);
                completed[t] = true;
                completions += 1;
                for c in dag.children(task) {
                    missing[c.index()] -= 1;
                    if missing[c.index()] == 0 {
                        pool += 1;
                    }
                }
                // Remaining holders are stale duplicates: the emitter
                // must close each with an explicit `revoke` event.
                check_pool(&mut pool_trusted, &mut diags, step, rec, pool);
            }
            EventKind::Failed => {
                if !held || done {
                    diags.push(Diagnostic::error(
                        COMPLETION_BEFORE_ALLOCATION,
                        format!(
                            "step {step}: client {client} fails task {t}, which was not \
                             outstanding"
                        ),
                    ));
                    pool_trusted = false;
                    continue;
                }
                release(&mut holders[t], client);
                // The task returns to the ELIGIBLE pool only when its
                // last lease fell; a surviving duplicate keeps it in
                // flight.
                if holders[t].is_empty() {
                    pool += 1;
                }
                check_pool(&mut pool_trusted, &mut diags, step, rec, pool);
            }
            EventKind::Resumed => {
                if done || !held_by_client {
                    diags.push(Diagnostic::error(
                        RESUME_WITHOUT_LEASE,
                        format!(
                            "step {step}: client {client} resumes a lease on task {t} it does \
                             not hold"
                        ),
                    ));
                }
                // A legal resume changes nothing: the allocation is
                // still open, the pool untouched.
            }
            EventKind::Speculated => {
                if done || !held {
                    let why = if !known {
                        "an out-of-range node id"
                    } else if done {
                        "already completed"
                    } else {
                        "not in flight"
                    };
                    diags.push(Diagnostic::error(
                        SPECULATION_WITHOUT_LEASE,
                        format!(
                            "step {step}: client {client} gets a speculative lease on task {t}, \
                             which is {why}"
                        ),
                    ));
                    pool_trusted = false;
                    continue;
                }
                if held_by_client {
                    diags.push(Diagnostic::error(
                        SPECULATION_WITHOUT_LEASE,
                        format!(
                            "step {step}: client {client} speculates on task {t}, which it \
                             already holds"
                        ),
                    ));
                    continue;
                }
                if pool_trusted && pool > 0 {
                    diags.push(Diagnostic::warning(
                        SPECULATION_BEFORE_BARRIER,
                        format!(
                            "step {step}: task {t} is speculated to client {client} while \
                             {pool} unallocated ELIGIBLE task(s) remain"
                        ),
                    ));
                }
                // A duplicate lease: the task already left the pool on
                // first allocation, so the pool does not move.
                holders[t].push(client);
                check_pool(&mut pool_trusted, &mut diags, step, rec, pool);
            }
            EventKind::Revoked => {
                if !done || !held_by_client {
                    let why = if !known {
                        "an out-of-range node id"
                    } else if !done {
                        "not completed — only stale duplicates may be revoked"
                    } else {
                        "not leased to that client"
                    };
                    diags.push(Diagnostic::error(
                        REVOKE_WITHOUT_COMPLETION,
                        format!("step {step}: client {client}'s lease on task {t} is revoked, but the task is {why}"),
                    ));
                    continue;
                }
                release(&mut holders[t], client);
            }
            // An idle event names no task: skipped above.
            EventKind::Idle => {}
        }
    }

    if completions < n {
        diags.push(Diagnostic::error(
            TRACE_TRUNCATED,
            format!("the trace completes {completions} of {n} task(s)"),
        ));
    }

    if diags.iter().all(|d| d.severity != Severity::Error) {
        diags.extend(audit_trace_envelope(dag, trace));
    }
    diags
}

/// IC0404: compare the eligibility profile of the realized completion
/// order against the optimal envelope. Exhaustive up to
/// [`EXHAUSTIVE_LIMIT`] nodes; symbolic (closed-form family envelope)
/// beyond it; silently skipped for large unrecognized dags.
fn audit_trace_envelope(dag: &Dag, trace: &Trace) -> Vec<Diagnostic> {
    let order = trace.completion_order();
    let (envelope, authority) = if dag.num_nodes() <= EXHAUSTIVE_LIMIT {
        let env = optimal_envelope(dag).expect("n <= 22 < 64");
        (env, "exhaustive".to_string())
    } else {
        match ic_families::symbolic::certify(dag) {
            Some(cert) => {
                let label = format!("closed-form {} envelope, {}", cert.family, cert.source);
                (cert.envelope, label)
            }
            None => return Vec::new(),
        }
    };
    let profile = Schedule::new_unchecked(order).profile(dag);
    let mut diags = Vec::new();
    if let Some(t) = (0..envelope.len()).find(|&t| profile[t] < envelope[t]) {
        diags.push(Diagnostic::warning(
            ENVELOPE_DEPARTURE,
            format!(
                "after completion {t} the run left {} task(s) ELIGIBLE but the optimal \
                 envelope ({authority}) allows {}",
                profile[t], envelope[t]
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_dag::NodeId;
    use ic_sched::eligibility::ExecState;
    use ic_sched::heuristics::{schedule_with, Policy};
    use ic_sched::Schedule;
    use ic_sim::trace::TraceEvent;

    /// The trace a one-client run of `sched` writes: an `alloc` and a
    /// `complete` per task, in schedule order, each with the pool after.
    fn serial_trace(dag: &Dag, sched: &Schedule) -> Trace {
        let mut st = ExecState::new(dag);
        let mut events = Vec::new();
        for (i, &v) in sched.order().iter().enumerate() {
            st.claim(v).unwrap();
            let (t, pool) = (2 * i as u64, Some(st.pool_len()));
            events.push(TraceEvent::on_task(
                EventKind::Allocated,
                t,
                t as f64,
                0,
                v,
                pool,
            ));
            st.execute_counting(v).unwrap();
            let (t, pool) = (t + 1, Some(st.pool_len()));
            events.push(TraceEvent::on_task(
                EventKind::Completed,
                t,
                t as f64,
                0,
                v,
                pool,
            ));
        }
        let header = ic_sim::TraceHeader::for_run(dag, 1, 1, "SCHEDULE");
        Trace { header, events }
    }

    fn vee() -> Dag {
        ic_dag::builder::from_arcs(3, &[(0, 1), (0, 2)]).unwrap()
    }

    fn vee_trace() -> Trace {
        let g = vee();
        serial_trace(&g, &Schedule::in_id_order(&g))
    }

    #[test]
    fn clean_one_client_trace_audits_clean() {
        // A single client replaying the IC-optimal schedule realizes
        // the envelope exactly: fully clean.
        let g = ic_families::mesh::out_mesh(5);
        let s = ic_families::mesh::out_mesh_schedule(&g);
        let diags = audit_trace(&serial_trace(&g, &s));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn non_eligible_allocation_is_ic0401() {
        let mut trace = vee_trace();
        // Retarget the first allocation at a non-source.
        assert_eq!(trace.events[0].kind, EventKind::Allocated);
        trace.events[0].task = Some(NodeId::new(1));
        let diags = audit_trace(&trace);
        assert!(diags.iter().any(|d| d.code == NON_ELIGIBLE_ALLOCATION));
    }

    #[test]
    fn completion_before_allocation_is_ic0402() {
        let mut trace = vee_trace();
        // Drop the first allocation; its completion now dangles.
        trace.events.remove(0);
        let diags = audit_trace(&trace);
        assert!(diags.iter().any(|d| d.code == COMPLETION_BEFORE_ALLOCATION));
    }

    #[test]
    fn truncated_trace_is_ic0405() {
        let mut trace = vee_trace();
        // Cut the trace just before its last completion (trailing idle
        // requests may follow it).
        let last = trace
            .events
            .iter()
            .rposition(|ev| ev.kind == EventKind::Completed)
            .unwrap();
        trace.events.truncate(last);
        let diags = audit_trace(&trace);
        assert!(diags.iter().any(|d| d.code == TRACE_TRUNCATED));
    }

    #[test]
    fn sub_envelope_order_is_ic0404_warning() {
        // Two disjoint Vees: completing a sink before the second source
        // dents the envelope. Single client, so completion order ==
        // allocation order == the (deliberately bad) scheduled order.
        let g = ic_dag::builder::from_arcs(6, &[(0, 2), (0, 3), (1, 4), (1, 5)]).unwrap();
        let order = [0usize, 2, 1, 3, 4, 5].map(NodeId::new).to_vec();
        let bad = Schedule::new(&g, order).unwrap();
        let trace = serial_trace(&g, &bad);
        let diags = audit_trace(&trace);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, ENVELOPE_DEPARTURE);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn backoff_deferred_tasks_count_as_in_pool() {
        // A hand-built trace in the live server's accounting: a failed
        // task sits out a backoff window (still ELIGIBLE, still
        // unallocated — so still in the recorded pool) while other work
        // proceeds, then is re-allocated and completes.
        let g = ic_dag::builder::from_arcs(3, &[(0, 2), (1, 2)]).unwrap();
        let header = ic_sim::TraceHeader::for_run(&g, 3, 1, "SCHEDULE");
        let ev = |i: u64| i as f64;
        let trace = Trace {
            header,
            events: vec![
                TraceEvent::on_task(EventKind::Allocated, 0, ev(0), 0, NodeId::new(0), Some(1)),
                TraceEvent::on_task(EventKind::Allocated, 1, ev(1), 1, NodeId::new(1), Some(0)),
                // Client 0's lease expires: task 0 is deferred but
                // remains in the recorded pool.
                TraceEvent::on_task(EventKind::Failed, 2, ev(2), 0, NodeId::new(0), Some(1)),
                TraceEvent::on_task(EventKind::Completed, 3, ev(3), 1, NodeId::new(1), Some(1)),
                // Backoff over: task 0 goes to a different worker.
                TraceEvent::on_task(EventKind::Allocated, 4, ev(4), 2, NodeId::new(0), Some(0)),
                TraceEvent::on_task(EventKind::Completed, 5, ev(5), 2, NodeId::new(0), Some(1)),
                TraceEvent::on_task(EventKind::Allocated, 6, ev(6), 0, NodeId::new(2), Some(0)),
                TraceEvent::on_task(EventKind::Completed, 7, ev(7), 0, NodeId::new(2), Some(0)),
            ],
        };
        let diags = audit_trace(&trace);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{diags:?}"
        );
    }

    /// A hand-built v3 steal trace on the chain 0→1: client 0 leases
    /// task 0 and stalls, client 1 gets a speculative duplicate at the
    /// drain barrier, client 0 reconnects and resumes, client 1 wins,
    /// client 0's duplicate is revoked.
    fn steal_trace() -> Trace {
        let g = ic_dag::builder::from_arcs(2, &[(0, 1)]).unwrap();
        let header = ic_sim::TraceHeader::for_run(&g, 2, 1, "FIFO");
        Trace {
            header,
            events: vec![
                TraceEvent::on_task(EventKind::Allocated, 0, 0.0, 0, NodeId::new(0), Some(0)),
                TraceEvent::on_task(EventKind::Speculated, 1, 1.0, 1, NodeId::new(0), Some(0)),
                TraceEvent::on_task(EventKind::Resumed, 2, 1.5, 0, NodeId::new(0), None),
                TraceEvent::on_task(EventKind::Completed, 3, 2.0, 1, NodeId::new(0), Some(1)),
                TraceEvent::on_task(EventKind::Revoked, 4, 2.1, 0, NodeId::new(0), None),
                TraceEvent::on_task(EventKind::Allocated, 5, 2.2, 1, NodeId::new(1), Some(0)),
                TraceEvent::on_task(EventKind::Completed, 6, 3.0, 1, NodeId::new(1), Some(0)),
            ],
        }
    }

    #[test]
    fn clean_steal_trace_audits_clean() {
        let diags = audit_trace(&steal_trace());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn failed_duplicate_lease_keeps_the_task_in_flight() {
        // The speculating client fails, but the original holder is
        // still on the task: the pool must NOT regain it.
        let mut t = steal_trace();
        t.events[3] = TraceEvent::on_task(EventKind::Failed, 3, 2.0, 1, NodeId::new(0), Some(0));
        // The original holder then completes; no revoke needed.
        t.events[4] = TraceEvent::on_task(EventKind::Completed, 4, 2.1, 0, NodeId::new(0), Some(1));
        let diags = audit_trace(&t);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn resume_without_lease_is_ic0410() {
        let mut t = steal_trace();
        // Client 1 never held task 1's lease at that point.
        t.events[2] = TraceEvent::on_task(EventKind::Resumed, 2, 1.5, 1, NodeId::new(1), None);
        let diags = audit_trace(&t);
        assert!(
            diags
                .iter()
                .any(|d| d.code == RESUME_WITHOUT_LEASE && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn speculation_on_an_idle_task_is_ic0411() {
        let mut t = steal_trace();
        // Speculate before any allocation: nothing is in flight.
        t.events.remove(0);
        let diags = audit_trace(&t);
        assert!(
            diags.iter().any(|d| d.code == SPECULATION_WITHOUT_LEASE),
            "{diags:?}"
        );
    }

    #[test]
    fn self_speculation_is_ic0411() {
        let mut t = steal_trace();
        assert_eq!(t.events[1].kind, EventKind::Speculated);
        t.events[1].client = 0; // the holder speculates on its own task
                                // The revoke target also shifts to keep the tail consistent.
        let diags = audit_trace(&t);
        assert!(
            diags.iter().any(|d| d.code == SPECULATION_WITHOUT_LEASE),
            "{diags:?}"
        );
    }

    #[test]
    fn revoke_of_an_uncompleted_task_is_ic0412() {
        let mut t = steal_trace();
        // Revoke before the winner completes.
        t.events.swap(3, 4);
        let diags = audit_trace(&t);
        assert!(
            diags.iter().any(|d| d.code == REVOKE_WITHOUT_COMPLETION),
            "{diags:?}"
        );
    }

    #[test]
    fn speculation_before_the_barrier_is_ic0413_warning() {
        // Two independent sources: speculating while task 1 is still
        // unallocated in the pool draws the warning.
        let g = ic_dag::builder::from_arcs(2, &[]).unwrap();
        let header = ic_sim::TraceHeader::for_run(&g, 2, 1, "FIFO");
        let t = Trace {
            header,
            events: vec![
                TraceEvent::on_task(EventKind::Allocated, 0, 0.0, 0, NodeId::new(0), Some(1)),
                TraceEvent::on_task(EventKind::Speculated, 1, 0.5, 1, NodeId::new(0), Some(1)),
                TraceEvent::on_task(EventKind::Completed, 2, 1.0, 0, NodeId::new(0), Some(1)),
                TraceEvent::on_task(EventKind::Revoked, 3, 1.1, 1, NodeId::new(0), None),
                TraceEvent::on_task(EventKind::Allocated, 4, 1.2, 1, NodeId::new(1), Some(0)),
                TraceEvent::on_task(EventKind::Completed, 5, 2.0, 1, NodeId::new(1), Some(0)),
            ],
        };
        let diags = audit_trace(&t);
        let warn: Vec<_> = diags
            .iter()
            .filter(|d| d.code == SPECULATION_BEFORE_BARRIER)
            .collect();
        assert_eq!(warn.len(), 1, "{diags:?}");
        assert_eq!(warn[0].severity, Severity::Warning);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn duplicate_completion_after_a_win_is_still_ic0402() {
        // A server must reject the loser's late `done` without a trace
        // event; a trace that *does* record it is flagged.
        let mut t = steal_trace();
        t.events.insert(
            5,
            TraceEvent::on_task(EventKind::Completed, 5, 2.15, 0, NodeId::new(0), Some(1)),
        );
        let diags = audit_trace(&t);
        assert!(
            diags.iter().any(|d| d.code == COMPLETION_BEFORE_ALLOCATION),
            "{diags:?}"
        );
    }

    #[test]
    fn reallocation_tolerance_does_not_mask_double_allocation() {
        // Two Allocated events for the same task with no intervening
        // Failed is still IC0401: tolerance is for failures only.
        let mut trace = vee_trace();
        let first = trace.events[0];
        trace.events.insert(1, first);
        let diags = audit_trace(&trace);
        assert!(
            diags.iter().any(|d| d.code == NON_ELIGIBLE_ALLOCATION),
            "{diags:?}"
        );
    }

    #[test]
    fn large_family_dag_is_certified_symbolically() {
        // 55 nodes: past EXHAUSTIVE_LIMIT, but a canonical out-mesh.
        let g = ic_families::mesh::out_mesh(10);
        let s = ic_families::mesh::out_mesh_schedule(&g);
        // The IC-optimal schedule under one client realizes the
        // envelope exactly: clean.
        assert!(audit_trace(&serial_trace(&g, &s)).is_empty());

        // LIFO under one client departs from it — and the departure is
        // only detectable because the mesh is certified symbolically.
        let lifo = serial_trace(&g, &schedule_with(&g, &Policy::Lifo));
        let diags = audit_trace(&lifo);
        assert!(
            diags.iter().any(|d| d.code == ENVELOPE_DEPARTURE),
            "{diags:?}"
        );
    }
}
