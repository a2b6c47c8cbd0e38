//! Crash recovery for [`LeaseMachine`]: fold the replayed prefix of
//! its own trace (the write-ahead log [`crate::recovery`] reads from
//! disk) back into scheduling state, strictly — an event the live
//! machine could not have emitted is a typed [`RestoreError`].

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use ic_dag::{Dag, NodeId};
use ic_sched::policy::AllocationPolicy;
use ic_sim::trace::{EventKind, TraceEvent, TraceHeader, FED_CLIENT};

use super::{token_rng, LeaseMachine, SeededBugs, WorkerSlot};
use crate::lease_table::{Lease, LeaseTable, Leases};
use crate::server::ServerConfig;

/// Trace seconds back to driver microseconds — the inverse of the
/// machine's `t()` timestamping, used when replaying a trace to place
/// the recovered clock origin.
pub(crate) fn micros(t: f64) -> u64 {
    (t.max(0.0) * 1e6) as u64
}

/// Why a trace prefix cannot rebuild a [`LeaseMachine`]
/// ([`Restorer`]). Each variant maps onto one of the
/// IC07xx recovery diagnostics registered in `ic-audit`.
#[derive(Debug, Clone, PartialEq)]
pub enum RestoreError {
    /// The trace header disagrees with the launch configuration —
    /// different dag, policy, or seed (IC0703).
    HeaderMismatch {
        /// What disagreed, human-readable.
        reason: String,
    },
    /// The prefix completes the same task twice (IC0701): the trace is
    /// not the history of one legal run and must not be extended.
    DuplicateCompletion {
        /// The task completed twice.
        task: NodeId,
        /// The `step` of the second completion.
        step: u64,
    },
    /// An event references impossible state — an unknown task id, a
    /// completion or failure with no open lease, an allocation of a
    /// non-ELIGIBLE task.
    Corrupt {
        /// The `step` of the offending event.
        step: u64,
        /// What was impossible about it.
        reason: String,
    },
    /// The trace belongs to one shard of a federated run; shard traces
    /// interleave with peer state that a single machine cannot replay.
    Federated,
}

impl RestoreError {
    /// The stable IC07xx diagnostic code for this failure.
    pub fn code(&self) -> &'static str {
        match self {
            RestoreError::HeaderMismatch { .. } => "IC0703",
            RestoreError::DuplicateCompletion { .. } => "IC0701",
            RestoreError::Corrupt { .. } | RestoreError::Federated => "IC0704",
        }
    }
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::HeaderMismatch { reason } => {
                write!(f, "trace header mismatch: {reason}")
            }
            RestoreError::DuplicateCompletion { task, step } => {
                write!(f, "task t{task} completed twice (second at step {step})")
            }
            RestoreError::Corrupt { step, reason } => {
                write!(f, "corrupt trace at step {step}: {reason}")
            }
            RestoreError::Federated => {
                write!(f, "federated shard traces are not recoverable")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// The crash-recovery core behind [`crate::recovery`] and `ic-check`'s
/// crash checker: a left fold of the server's own trace back into a
/// [`LeaseMachine`], one event at a time.
///
/// The trace is the server's write-ahead log: replaying its
/// `alloc`/`complete`/`fail`/`spec`/`revoke` events against a fresh
/// machine ([`Restorer::push`]) reconstructs the executed set, the
/// eligible pool, the backoff queue, and the lease table exactly as
/// the crashed machine held them. The fold reads no clock; the
/// restart instant is known only when the log ends, and
/// [`Restorer::finish`] stamps it: outstanding leases are re-armed to
/// expire at `now_us + lease_ms` (reallocation is the fallback for
/// workers that never return); every rebuilt slot is marked
/// awaiting-recovery with its epoch bumped past anything the
/// pre-crash run could have issued (`events + 1` — each epoch bump
/// that left evidence emitted at least one event) and its resume
/// tokens drawn from a stream keyed by the same bound; the trace
/// cursor (`step`, timestamp origin) continues where the prefix
/// ends, so appended events extend the same audit-clean run.
///
/// The header must match the launch configuration (same dag, same
/// policy, same seed) — recovery refuses to graft a trace onto a
/// different run. Pool/backoff *membership* is recovered exactly;
/// FIFO arrival order within the pool is not observable from the
/// trace and may differ, which is the same reordering any crash
/// already inflicts on in-flight work.
#[derive(Clone)]
pub struct Restorer<'a, 'd> {
    m: LeaseMachine<'a, 'd>,
    /// Slots the header declares: client → (id, speed).
    declared: HashMap<usize, (String, f64)>,
    /// Worker declarations in the header; later slots are late workers.
    header_workers: usize,
    /// The client of the previous event, when that was a `resume`.
    resuming: Option<usize>,
    /// Events folded so far.
    events: u64,
    /// The last event's step and trace time: the cursor to continue.
    last: Option<(u64, f64)>,
}

impl<'a, 'd> Restorer<'a, 'd> {
    /// Start the fold of a trace with this `header` against the launch
    /// configuration. `bugs` are active during the rebuild (the
    /// `ic-check` negative suite re-introduces the skipped epoch bump
    /// through this); production callers pass the default.
    pub fn new(
        dag: &'d Dag,
        policy: &'a dyn AllocationPolicy,
        cfg: ServerConfig,
        header: &TraceHeader,
        bugs: SeededBugs,
    ) -> Result<Self, RestoreError> {
        if header.fed.is_some() {
            return Err(RestoreError::Federated);
        }
        let mismatch = |reason: String| RestoreError::HeaderMismatch { reason };
        if header.nodes != dag.num_nodes() {
            return Err(mismatch(format!(
                "trace dag has {} nodes, launch dag has {}",
                header.nodes,
                dag.num_nodes()
            )));
        }
        let arcs = dag.arcs().map(|(u, v)| (u.0, v.0));
        if !header.arcs.iter().copied().eq(arcs) {
            return Err(mismatch(format!(
                "trace dag has {} arcs that differ from the launch dag's {}",
                header.arcs.len(),
                dag.num_arcs()
            )));
        }
        if header.policy != policy.name() {
            return Err(mismatch(format!(
                "trace ran policy {:?}, launch requests {:?}",
                header.policy,
                policy.name()
            )));
        }
        if header.seed != cfg.seed {
            return Err(mismatch(format!(
                "trace ran seed {:#x}, launch requests {:#x}",
                header.seed, cfg.seed
            )));
        }

        let mut m = LeaseMachine::new(dag, policy, cfg);
        m.bugs = bugs;
        m.header_written = true;
        let mut fold = Restorer {
            m,
            declared: header
                .workers
                .iter()
                .map(|w| (w.client, (w.id.clone(), w.speed)))
                .collect(),
            header_workers: header.workers.len(),
            resuming: None,
            events: 0,
            last: None,
        };
        for i in 0..fold.declared.len() {
            fold.ensure_slot(i, 0)?;
        }
        Ok(fold)
    }

    /// Create every slot up to `client`. Slots named by the header
    /// carry their declared id and speed; clients that only appear in
    /// events (late workers) get synthesized ids — their real ids never
    /// reached the trace, so they cannot id-match a resume and fall
    /// back to lease expiry.
    fn ensure_slot(&mut self, client: usize, step: u64) -> Result<(), RestoreError> {
        if client >= FED_CLIENT {
            return Err(RestoreError::Federated);
        }
        if client > 1 << 20 {
            return Err(RestoreError::Corrupt {
                step,
                reason: format!("implausible client index {client}"),
            });
        }
        let workers = &mut self.m.workers;
        while workers.len() <= client {
            let i = workers.len();
            let (id, speed) = self
                .declared
                .get(&i)
                .cloned()
                .unwrap_or_else(|| (format!("recovered-{i}"), 1.0));
            workers.push(WorkerSlot {
                id,
                speed,
                waiting: false,
                token: None,
                epoch: 0,
                connected: false,
                awaiting_recovery: true,
            });
        }
        Ok(())
    }

    /// Fold one event into the machine. An event the live machine
    /// could not have emitted at this point is a [`RestoreError`].
    pub fn push(&mut self, ev: &TraceEvent) -> Result<(), RestoreError> {
        let (step, client) = (ev.step, ev.client);
        let corrupt = |reason: String| RestoreError::Corrupt { step, reason };
        self.ensure_slot(client, step)?;
        self.events += 1;
        self.last = Some((step, ev.time));
        let m = &mut self.m;
        m.tally(ev.kind, client);
        // One handshake writes a `resume` per lease the worker kept:
        // an unbroken run of them for one client is one.
        let resumed = (ev.kind == EventKind::Resumed).then_some(client);
        m.resumes += usize::from(resumed.is_some() && resumed != self.resuming);
        self.resuming = resumed;
        let Some(v) = ev.task else {
            m.workers[client].waiting = true;
            return Ok(());
        };
        if v.index() >= m.dag.num_nodes() {
            return Err(corrupt(format!("unknown task t{v}")));
        }
        // Every outcome closes the lease it names.
        let close = |leases: &mut LeaseTable, what: &str| {
            let id = leases
                .find(client, v)
                .ok_or_else(|| corrupt(format!("{what} of {v} without a lease")))?;
            leases.remove(id);
            Ok::<(), RestoreError>(())
        };
        match ev.kind {
            EventKind::Allocated | EventKind::Speculated => {
                let speculative = ev.kind == EventKind::Speculated;
                if speculative {
                    // `try_steal` duplicates another worker's primary
                    // lease, and only while the task has no duplicate.
                    let primary = m.leases.has_holder(v) && m.leases.find(client, v).is_none();
                    if !primary || m.leases.has_speculative(v) {
                        return Err(corrupt(format!(
                            "speculative lease on {v} beside no other worker's \
                             primary lease, or beside a duplicate"
                        )));
                    }
                } else {
                    // A re-allocation of a backed-off task implies
                    // its backoff elapsed before the crash.
                    if let Some(pos) = m.deferred.iter().position(|&(_, d)| d == v) {
                        m.deferred.swap_remove(pos);
                        let unclaimed = m.state.unclaim(v).is_ok();
                        debug_assert!(unclaimed, "deferred tasks are claimed");
                    }
                    m.state
                        .claim(v)
                        .map_err(|_| corrupt(format!("allocated task {v} was not in the pool")))?;
                    m.allocation_steps += 1;
                }
                // Deadline and grant time are the restart's, which
                // `finish` stamps.
                m.leases.insert(Lease {
                    worker: client,
                    task: v,
                    deadline_us: 0,
                    granted_us: 0,
                    speculative,
                });
                m.workers[client].waiting = false;
            }
            EventKind::Completed => {
                if m.state.is_executed(v) {
                    return Err(RestoreError::DuplicateCompletion { task: v, step });
                }
                close(&mut m.leases, "completion")?;
                m.state
                    .execute_counting(v)
                    .map_err(|_| corrupt(format!("completed task {v} was not ELIGIBLE")))?;
            }
            EventKind::Failed => {
                close(&mut m.leases, "failure")?;
                m.failures[v.index()] += 1;
                if !m.leases.has_holder(v) {
                    // Ready at the restart: the recovered server's
                    // first request promotes it, which is at least as
                    // late as the original backoff would allow.
                    m.deferred.push((0, v));
                }
            }
            EventKind::Revoked => close(&mut m.leases, "revocation")?,
            // A resume moves no lease; an idle event names no task and
            // was handled above.
            EventKind::Resumed | EventKind::Idle => {}
        }
        Ok(())
    }

    /// The rebuilt machine, restarted at driver time `now_us`.
    pub fn finish(self, now_us: u64) -> LeaseMachine<'a, 'd> {
        let Restorer {
            mut m,
            header_workers,
            events,
            last,
            ..
        } = self;
        let deadline = m.lease_deadline(now_us);
        m.leases.rearm(now_us, deadline);
        for entry in &mut m.deferred {
            entry.0 = now_us;
        }
        // Continue the crashed run's trace cursor: appended events get
        // monotone steps, and timestamps that resume where the prefix
        // stopped (`origin` backdated so `now_us` maps to the last
        // recorded time).
        m.step = last.map_or(0, |(step, _)| step + 1);
        m.origin_us = now_us.saturating_sub(last.map_or(0, |(_, t)| micros(t)));
        m.late_workers = m.workers.len().saturating_sub(header_workers);
        // Epochs restart strictly above anything the crashed machine
        // could have issued: every pre-crash epoch bump either emitted
        // a `resume` event or rode a connection that is now dead, and
        // `events + 1` dominates the evidence-bearing bound. The
        // seeded IC0702 bug skips exactly this.
        let epoch = if m.bugs.skip_recovery_epoch_bump {
            0
        } else {
            events + 1
        };
        for w in &mut m.workers {
            w.epoch = epoch;
        }
        // Tokens by the same bound, not by `epoch`, which the seeded
        // bug zeroes: the crashed run's token sequence is not replayed.
        m.rng = token_rng(m.cfg.seed, events + 1);
        if m.is_complete() {
            m.completed_at_us = Some(now_us);
        }
        m
    }

    /// Hash the machine's [`LeaseMachine::fingerprint_into`], the
    /// report tallies, the pending `resume` run and the event count:
    /// what [`Restorer::finish`] reads but the trace cursor (DESIGN §4e).
    pub fn fingerprint_into(&self, h: &mut impl Hasher) {
        let m = &self.m;
        m.fingerprint_into(h);
        (
            m.completions,
            m.failure_events,
            m.allocation_steps,
            m.steals,
        )
            .hash(h);
        (m.revokes, m.resumes, self.resuming, self.events).hash(h);
    }
}

impl LeaseMachine<'_, '_> {
    /// Open the post-restore resume window: until `until_us` (driver
    /// time), a resume `hello` whose token is unknown may reclaim an
    /// awaiting-recovery slot whose worker id matches. After the
    /// window, unresumed slots are served by lease expiry alone.
    pub fn await_resumes(&mut self, until_us: u64) {
        self.recovery_resume_until_us = until_us;
    }

    /// Crash-recovered slots still waiting for their worker to resume.
    pub fn awaiting_resume(&self) -> usize {
        self.workers.iter().filter(|w| w.awaiting_recovery).count()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_accounting, boot, done, drive, hello, request};
    use super::*;
    use crate::machine::Event;
    use crate::wire::{Message, PROTO_V2};
    use ic_dag::builder::from_arcs;
    use ic_sched::heuristics::Policy;
    use ic_sim::MemorySink;

    /// Rebuild a machine from the replayed prefix of its own trace: a
    /// [`Restorer`] fed every event, then finished at `now_us`.
    fn restore<'a, 'd>(
        dag: &'d Dag,
        policy: &'a dyn AllocationPolicy,
        cfg: ServerConfig,
        header: &TraceHeader,
        events: &[TraceEvent],
        now_us: u64,
    ) -> Result<LeaseMachine<'a, 'd>, RestoreError> {
        let mut fold = Restorer::new(dag, policy, cfg, header, SeededBugs::default())?;
        for ev in events {
            fold.push(ev)?;
        }
        Ok(fold.finish(now_us))
    }

    /// Crash a run after one completion and one outstanding lease,
    /// then `restore` from the recorded prefix: the
    /// rebuilt machine carries the same executed set, the same lease,
    /// the same pool, a continued trace cursor, and dominating epochs
    /// — and the resume window hands the lease back to a worker whose
    /// id matches, even though its token is from before the crash.
    #[test]
    fn restore_rebuilds_the_machine_and_resumes_a_matching_worker() {
        let g = from_arcs(3, &[]).unwrap();
        let policy = Policy::Fifo;
        let cfg = || {
            ServerConfig::builder()
                .lease_ms(10_000)
                .expect_workers(1)
                .seed(7)
                .build()
        };
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg());
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "phoenix");
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("first assignment");
        };
        assert!(done(&mut m, &mut sink, 0, tasks[0], true, 0));
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("second assignment");
        };
        let held = tasks[0];

        // "Kill" the server: all that survives is the trace so far.
        let trace = sink.into_trace().expect("barrier met, header written");
        assert_eq!(trace.events.len(), 3, "alloc, complete, alloc");

        let mut r = restore(&g, &policy, cfg(), &trace.header, &trace.events, 0).unwrap();
        assert_eq!(r.exec().num_executed(), 1, "the completion survives");
        assert_eq!(r.exec().pool_len(), 1, "the never-allocated task");
        let leases = r.lease_views();
        assert_eq!(leases.len(), 1, "the outstanding lease is re-armed");
        assert_eq!(leases[0].worker, 0);
        assert_eq!(leases[0].task.index() as u64, held);
        assert!(!leases[0].speculative);
        assert_accounting(&r);
        assert_eq!(r.worker_id(0), Some("phoenix"), "declared id from header");
        assert_eq!(r.awaiting_resume(), 1);
        assert_eq!(
            r.trace_steps(),
            m.trace_steps(),
            "appended events continue the crashed run's step sequence"
        );
        assert!(
            r.worker_epoch(0) > m.worker_epoch(0),
            "rebuilt epochs dominate everything the crashed machine issued"
        );

        // Within the resume window, a matching id reclaims the slot —
        // the pre-crash token is unknown to the new machine, so only
        // the id (from the header) can match.
        r.await_resumes(1_000_000);
        let mut sink2 = MemorySink::new();
        let replies = drive(
            &mut r,
            &mut sink2,
            Event::Hello {
                id: "phoenix".into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: Some("stale-pre-crash-token".into()),
                now_us: 10,
            },
        );
        let Message::Welcome { tasks, .. } = &replies[0] else {
            panic!("expected the resume welcome, got {replies:?}");
        };
        assert_eq!(tasks, &vec![held], "the lease is handed straight back");
        assert_eq!(r.awaiting_resume(), 0);
        assert_eq!(r.summary(10).resumes, 1);

        // The resumed worker finishes the dag on the restored machine.
        assert!(done(&mut r, &mut sink2, 0, held, true, 20));
        let Message::Assign { tasks } = request(&mut r, &mut sink2, 0, 1, 30) else {
            panic!("the pooled task must be allocatable");
        };
        assert!(done(&mut r, &mut sink2, 0, tasks[0], true, 40));
        assert!(r.is_complete());
    }

    /// One handshake, one resume — live and after a crash alike. The
    /// live machine writes a `resume` event per lease the worker kept,
    /// so a batch-3 worker's single reconnect leaves three of them.
    #[test]
    fn restore_counts_a_resume_once_however_many_leases_it_kept() {
        let g = from_arcs(3, &[]).unwrap();
        let policy = Policy::Fifo;
        let cfg = || {
            ServerConfig::builder()
                .lease_ms(10_000)
                .expect_workers(1)
                .batch(3)
                .build()
        };
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg());
        boot(&mut m, &mut sink);
        let welcome = drive(
            &mut m,
            &mut sink,
            Event::Hello {
                id: "batcher".into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: None,
                now_us: 0,
            },
        );
        let Message::Welcome { resume: token, .. } = &welcome[0] else {
            panic!("expected a welcome, got {welcome:?}");
        };
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 3, 0) else {
            panic!("the whole dag fits one batch");
        };
        assert_eq!(tasks.len(), 3);
        let (worker, epoch) = (0, 0);
        m.step(Event::Sever {
            worker,
            epoch,
            now_us: 5,
        });
        let back = drive(
            &mut m,
            &mut sink,
            Event::Hello {
                id: "batcher".into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: token.clone(),
                now_us: 10,
            },
        );
        assert!(
            matches!(&back[0], Message::Welcome { tasks, .. } if tasks.len() == 3),
            "{back:?}"
        );
        assert_eq!(m.summary(10).resumes, 1, "one handshake");

        let trace = sink.into_trace().unwrap();
        let resumed = |e: &&TraceEvent| e.kind == EventKind::Resumed;
        assert_eq!(trace.events.iter().filter(resumed).count(), 3);
        let r = restore(&g, &policy, cfg(), &trace.header, &trace.events, 10).unwrap();
        assert_eq!(r.summary(10).resumes, m.summary(10).resumes);
    }

    /// A restored machine must not hand out the crashed run's tokens.
    /// Tokens never reach the trace, so a machine seeded like the
    /// crashed one would re-issue `a`'s pre-crash token to `b` when `b`
    /// resumes first, and `a`'s own resume would then land on `b`'s
    /// slot: two connections driving one worker, each `request`
    /// forfeiting the other's leases (the same-port `alloc` → `fail`
    /// ping-pong).
    #[test]
    fn a_restored_machine_never_reissues_a_pre_crash_token() {
        let g = from_arcs(4, &[]).unwrap();
        let policy = Policy::Fifo;
        let cfg = || {
            ServerConfig::builder()
                .lease_ms(10_000)
                .expect_workers(2)
                .build()
        };
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg());
        boot(&mut m, &mut sink);
        let mut tokens = Vec::new();
        for id in ["a", "b"] {
            let hello = Event::Hello {
                id: id.into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: None,
                now_us: 0,
            };
            let Message::Welcome {
                resume: Some(token),
                ..
            } = drive(&mut m, &mut sink, hello).remove(0)
            else {
                panic!("{id} registers with a token");
            };
            tokens.push(token);
        }
        for worker in 0..2 {
            let Message::Assign { .. } = request(&mut m, &mut sink, worker, 1, 0) else {
                panic!("worker {worker} takes a lease");
            };
        }
        let trace = sink.into_trace().unwrap();

        let mut r = restore(&g, &policy, cfg(), &trace.header, &trace.events, 0).unwrap();
        r.await_resumes(1_000_000);
        let mut sink2 = MemorySink::new();
        let mut reissued = Vec::new();
        // `b` redials first.
        for (id, token) in [("b", &tokens[1]), ("a", &tokens[0])] {
            let hello = Event::Hello {
                id: id.into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: Some(token.clone()),
                now_us: 10,
            };
            let Message::Welcome {
                worker,
                resume: Some(fresh),
                tasks,
                ..
            } = drive(&mut r, &mut sink2, hello).remove(0)
            else {
                panic!("{id} resumes");
            };
            assert_eq!(tasks.len(), 1, "{id} gets its lease back");
            reissued.push((id, worker, fresh));
        }
        assert_eq!(reissued[0].1, 1, "b lands on its own slot");
        assert_eq!(reissued[1].1, 0, "a lands on its own slot, not b's");
        for (id, _, fresh) in &reissued {
            assert!(!tokens.contains(fresh), "{id} was handed a pre-crash token");
        }
        assert_eq!(r.summary(10).resumes, 2);
    }

    /// After the resume window closes, an unknown token no longer
    /// matches by id: the hello registers a fresh slot and the
    /// crash-surviving lease is left to expire and reallocate.
    #[test]
    fn a_late_resume_after_the_window_registers_fresh() {
        let g = from_arcs(2, &[]).unwrap();
        let policy = Policy::Fifo;
        let cfg = ServerConfig::builder()
            .lease_ms(100)
            .expect_workers(1)
            .build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg.clone());
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "tardy");
        let Message::Assign { .. } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("assignment");
        };
        let trace = sink.into_trace().unwrap();

        let mut r = restore(&g, &policy, cfg, &trace.header, &trace.events, 0).unwrap();
        r.await_resumes(500); // window closes at t=500µs
        let mut sink2 = MemorySink::new();
        let replies = drive(
            &mut r,
            &mut sink2,
            Event::Hello {
                id: "tardy".into(),
                speed: 1.0,
                proto: PROTO_V2,
                resume: Some("stale".into()),
                now_us: 1_000,
            },
        );
        match &replies[0] {
            Message::Error { code, .. } => {
                assert_eq!(*code, crate::wire::ERR_BAD_RESUME, "typed refusal")
            }
            other => panic!("a late stale token must be refused, got {other:?}"),
        }
        // The slot's lease is still there, on the expiry clock.
        assert_eq!(r.lease_views().len(), 1);
        assert_eq!(r.expired(200_000).len(), 1, "expiry reallocates it");
    }

    /// The restore refusals, each with its stable IC07xx code: a
    /// duplicated completion (the trace is not one legal run), custody
    /// corruption (completion without a lease), and a header that
    /// disagrees with the launch configuration.
    #[test]
    fn restore_refuses_duplicate_corrupt_and_mismatched_prefixes() {
        let g = from_arcs(2, &[]).unwrap();
        let policy = Policy::Fifo;
        let cfg = || ServerConfig::builder().expect_workers(1).seed(3).build();
        let mut sink = MemorySink::new();
        let mut m = LeaseMachine::new(&g, &policy, cfg());
        boot(&mut m, &mut sink);
        hello(&mut m, &mut sink, "w0");
        let Message::Assign { tasks } = request(&mut m, &mut sink, 0, 1, 0) else {
            panic!("assignment");
        };
        assert!(done(&mut m, &mut sink, 0, tasks[0], true, 0));
        let trace = sink.into_trace().unwrap();
        assert_eq!(trace.events.len(), 2, "alloc, complete");

        // Duplicate completion: replay the `Completed` event twice.
        let mut doubled = trace.events.clone();
        doubled.push(trace.events[1]);
        let err = restore(&g, &policy, cfg(), &trace.header, &doubled, 0)
            .expect_err("a task cannot complete twice");
        assert!(matches!(err, RestoreError::DuplicateCompletion { .. }));
        assert_eq!(err.code(), "IC0701");

        // Custody corruption: a completion whose lease never existed.
        let headless = vec![trace.events[1]];
        let err = restore(&g, &policy, cfg(), &trace.header, &headless, 0)
            .expect_err("completion without a lease");
        assert!(matches!(err, RestoreError::Corrupt { .. }));
        assert_eq!(err.code(), "IC0704");

        // Header mismatch: same trace, different launch seed.
        let other = ServerConfig::builder().expect_workers(1).seed(99).build();
        let err = restore(&g, &policy, other, &trace.header, &trace.events, 0)
            .expect_err("seed disagreement");
        assert!(matches!(err, RestoreError::HeaderMismatch { .. }));
        assert_eq!(err.code(), "IC0703");

        // Dag mismatch: one node too many.
        let bigger = from_arcs(3, &[]).unwrap();
        let err = restore(&bigger, &policy, cfg(), &trace.header, &trace.events, 0)
            .expect_err("node-count disagreement");
        assert_eq!(err.code(), "IC0703");
    }

    /// The live machine writes `spec` only for a task another worker
    /// holds a primary lease on, and only while it has no duplicate:
    /// a `spec` with no primary under it, or a second one beside a
    /// duplicate, is not the history of a legal run.
    #[test]
    fn restore_refuses_a_spec_the_live_machine_cannot_emit() {
        let g = from_arcs(2, &[]).unwrap();
        let policy = Policy::Fifo;
        let cfg = || ServerConfig::builder().seed(3).build();
        let header = TraceHeader::for_run(&g, 2, 3, policy.name());
        let ev = |kind, step, client| TraceEvent::on_task(kind, step, 0.0, client, NodeId(0), None);
        let cases = [
            vec![ev(EventKind::Speculated, 0, 0)],
            vec![
                ev(EventKind::Allocated, 0, 0),
                ev(EventKind::Speculated, 1, 1),
                ev(EventKind::Speculated, 2, 1),
            ],
            vec![
                ev(EventKind::Allocated, 0, 0),
                ev(EventKind::Speculated, 1, 0),
            ],
        ];
        for events in cases {
            let err =
                restore(&g, &policy, cfg(), &header, &events, 0).expect_err("an impossible spec");
            assert!(matches!(err, RestoreError::Corrupt { .. }), "{err}");
            assert_eq!(err.code(), "IC0704");
        }
        // The legal steal still restores: one duplicate beside another
        // worker's primary lease.
        let legal = [
            ev(EventKind::Allocated, 0, 0),
            ev(EventKind::Speculated, 1, 1),
        ];
        let m = restore(&g, &policy, cfg(), &header, &legal, 0).unwrap();
        assert_eq!(m.lease_views().len(), 2);
    }
}
