//! Crash recovery: restart the server from its own trace.
//!
//! The streamed JSONL trace is the server's write-ahead log — every
//! allocation, completion, failure, speculative grant, and revocation
//! reaches the OS before any peer hears of it ([`ic_sim::trace::FileSink`],
//! flushed by [`Reactor::run_until_drain`]). [`Recovery`] streams that log,
//! a line at a time, through a [`Restorer`] to rebuild the crashed
//! [`LeaseMachine`]: the executed set, the
//! eligible pool, the backoff queue, and the lease table come back
//! exactly; worker epochs restart strictly above anything the crashed
//! run could have issued; outstanding leases are re-armed to expire
//! `lease_ms` after the restart.
//!
//! A crash costs **zero completed work** — every completion that
//! reached the log stays executed — and, for workers that survive the
//! outage, **zero restarts**: during the
//! [`RecoveryConfig::resume_window_ms`] a v2 worker's `hello{resume}`
//! reclaims its old slot by worker id (its token is unknowable — tokens
//! never reach the trace) and keeps its leases. A worker that never
//! returns forfeits on the usual lease-expiry clock and its tasks are
//! reallocated.
//!
//! The recovered server *appends* to the same trace file, continuing
//! the crashed run's step counter and timestamps, so the concatenated
//! file replays clean under `ic-prio audit --schedule` — one run, one
//! audit, across the crash. A torn final line (the kernel accepted
//! part of a `write(2)` when the process died) is dropped, reported as
//! IC0700, and physically truncated away before appending; a final line
//! torn only of its newline is kept and given one.
//!
//! ```no_run
//! use ic_net::recovery::{Recovery, RecoveryConfig};
//! use ic_net::{Driver, ServerConfig};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let dag = ic_dag::builder::from_arcs(1, &[])?;
//! # let policy = ic_sched::heuristics::Policy::Fifo;
//! # let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
//! let recovery = Recovery::replay(
//!     &dag,
//!     &policy,
//!     ServerConfig::default(),
//!     RecoveryConfig::default(),
//!     "run.trace",
//! )?;
//! println!("{}", recovery.report().events_replayed);
//! let mut reactor = recovery.into_reactor(Driver::tcp(listener)?);
//! # let mut sink = ic_sim::trace::NullSink;
//! reactor.run_until_drain(&mut sink)?;
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader, Write as _};
use std::path::Path;

use ic_dag::Dag;
use ic_sched::policy::AllocationPolicy;
use ic_sim::trace::{TornTail, TraceHeader, TraceParseError, TraceStream};

use crate::machine::{micros, LeaseMachine, RestoreError, Restorer, SeededBugs};
use crate::reactor::{Driver, Reactor};
use crate::server::ServerConfig;

/// Tunables of a recovery: start from [`RecoveryConfig::default`]
/// (the struct is `#[non_exhaustive]`: new knobs may appear without a
/// breaking change).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RecoveryConfig {
    /// How long after the restart a resume `hello` whose token is
    /// unknown may reclaim a recovered slot by worker id. After the
    /// window closes, unresumed workers are served by lease expiry
    /// alone (a stray id can then no longer claim a slot).
    pub resume_window_ms: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            resume_window_ms: 2_000,
        }
    }
}

/// What a [`Recovery`] rebuilt, for operators and tests. The struct is
/// `#[non_exhaustive]`: new fields may appear without a breaking
/// change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RecoverReport {
    /// Intact events replayed from the trace prefix.
    pub events_replayed: usize,
    /// Completions recovered (tasks that stay executed across the
    /// crash).
    pub completions: usize,
    /// Outstanding leases re-armed for expiry.
    pub tasks_rearmed: usize,
    /// Recovered worker slots awaiting a resume `hello`.
    pub workers_awaited: usize,
    /// The torn final line dropped from the trace, if the crashed
    /// process died mid-`write(2)` (diagnostic IC0700).
    pub torn_tail: Option<TornTail>,
    /// Byte length of the intact trace prefix — what the file is
    /// truncated to before the recovered server appends.
    pub valid_bytes: u64,
}

/// Why a recovery failed. Parse and restore failures carry the IC07xx
/// diagnostic code of the condition via [`RecoverError::code`].
#[derive(Debug)]
pub enum RecoverError {
    /// The trace file could not be read (or its torn tail could not be
    /// truncated).
    Io(io::Error),
    /// The trace is malformed beyond the tolerated torn tail (IC0704).
    Parse(TraceParseError),
    /// The intact prefix parsed but cannot rebuild a machine — header
    /// mismatch (IC0703), duplicate completion (IC0701), impossible
    /// event (IC0704), or a federated shard trace (IC0704).
    Restore(RestoreError),
}

impl RecoverError {
    /// The stable IC07xx diagnostic code, when the failure maps to
    /// one (I/O errors do not).
    pub fn code(&self) -> Option<&'static str> {
        match self {
            RecoverError::Io(_) => None,
            RecoverError::Parse(_) => Some("IC0704"),
            RecoverError::Restore(e) => Some(e.code()),
        }
    }
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery i/o: {e}"),
            RecoverError::Parse(e) => write!(f, "recovery parse [IC0704]: {e}"),
            RecoverError::Restore(e) => write!(f, "recovery [{}]: {e}", e.code()),
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Io(e) => Some(e),
            RecoverError::Parse(e) => Some(e),
            RecoverError::Restore(e) => Some(e),
        }
    }
}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<TraceParseError> for RecoverError {
    fn from(e: TraceParseError) -> Self {
        RecoverError::Parse(e)
    }
}

impl From<RestoreError> for RecoverError {
    fn from(e: RestoreError) -> Self {
        RecoverError::Restore(e)
    }
}

/// A machine rebuilt from a crashed run's trace, ready to serve again.
///
/// Build with [`Recovery::replay`] (a trace file; truncates a torn
/// tail) or [`Recovery::replay_str`] (in-memory text, no filesystem
/// side effects — the read-only dry run). Inspect with
/// [`Recovery::report`] / [`Recovery::state_json`], or hand it a
/// [`Driver`] with [`Recovery::into_reactor`] to go live.
pub struct Recovery<'a> {
    machine: LeaseMachine<'a, 'a>,
    rcfg: RecoveryConfig,
    report: RecoverReport,
    /// The synthetic restore instant: the crashed run's last recorded
    /// timestamp, in trace microseconds. The reactor's clock is offset
    /// here so appended events continue monotonically.
    resumed_at_us: u64,
}

impl<'a> Recovery<'a> {
    /// Replay `path` and rebuild the machine. The header must match
    /// the given dag, policy, and config seed (IC0703 otherwise); a
    /// torn final line is dropped, reported in the report, and
    /// truncated off the file, and an intact final line that lacks its
    /// newline gets one, so the recovered server appends whole lines.
    pub fn replay(
        dag: &'a Dag,
        policy: &'a dyn AllocationPolicy,
        cfg: ServerConfig,
        rcfg: RecoveryConfig,
        path: impl AsRef<Path>,
    ) -> Result<Recovery<'a>, RecoverError> {
        let path = path.as_ref();
        let (header, mut lines) = TraceStream::open(BufReader::new(fs::File::open(path)?))??;
        let recovery = Recovery::replay_stream(dag, policy, cfg, rcfg, &header, &mut lines)?;
        if recovery.report.torn_tail.is_some() {
            let file = fs::OpenOptions::new().write(true).open(path)?;
            file.set_len(recovery.report.valid_bytes)?;
        } else if !lines.newline {
            // Torn just before the newline: appends start a fresh line.
            fs::OpenOptions::new()
                .append(true)
                .open(path)?
                .write_all(b"\n")?;
        }
        Ok(recovery)
    }

    /// [`Recovery::replay`] over in-memory trace text: same parsing
    /// and rebuild, no filesystem side effects.
    pub fn replay_str(
        dag: &'a Dag,
        policy: &'a dyn AllocationPolicy,
        cfg: ServerConfig,
        rcfg: RecoveryConfig,
        text: &str,
    ) -> Result<Recovery<'a>, RecoverError> {
        let (header, mut lines) = TraceStream::open(text.as_bytes())??;
        Recovery::replay_stream(dag, policy, cfg, rcfg, &header, &mut lines)
    }

    /// The rebuild behind [`Recovery::replay`] and
    /// [`Recovery::replay_str`]: fold the events that follow `header`
    /// in `lines` into a [`Restorer`] as they are read, holding no
    /// more than one line and the machine. No filesystem side effects.
    /// A caller that needs the header first (`ic-prio recover` builds
    /// its dag from it) opens the stream itself.
    pub fn replay_stream<R: BufRead>(
        dag: &'a Dag,
        policy: &'a dyn AllocationPolicy,
        cfg: ServerConfig,
        rcfg: RecoveryConfig,
        header: &TraceHeader,
        lines: &mut TraceStream<R>,
    ) -> Result<Recovery<'a>, RecoverError> {
        let mut fold = Restorer::new(dag, policy, cfg, header, SeededBugs::default())?;
        // Read a bounded batch, then fold it: parsing and folding each
        // run hot, rather than alternating event by event.
        let (mut batch, mut events_replayed, mut resumed_at_us) = (Vec::with_capacity(1024), 0, 0);
        loop {
            batch.clear();
            while batch.len() < batch.capacity() {
                let Some(ev) = lines.next_event()?? else {
                    break;
                };
                batch.push(ev);
            }
            let Some(last) = batch.last() else { break };
            resumed_at_us = micros(last.time);
            events_replayed += batch.len();
            batch.iter().try_for_each(|ev| fold.push(ev))?;
        }
        // Restore "at" the crashed run's last recorded instant, so the
        // machine's clock origin lands at zero and a reactor driven by
        // an offset clock continues the trace's timestamps seamlessly.
        let machine = fold.finish(resumed_at_us);
        let report = RecoverReport {
            events_replayed,
            completions: machine.exec().num_executed(),
            tasks_rearmed: machine.lease_views().len(),
            workers_awaited: machine.awaiting_resume(),
            torn_tail: lines.torn.clone(),
            valid_bytes: lines.valid_bytes,
        };
        Ok(Recovery {
            machine,
            rcfg,
            report,
            resumed_at_us,
        })
    }

    /// What the replay rebuilt.
    pub fn report(&self) -> &RecoverReport {
        &self.report
    }

    /// The rebuilt machine (read-only; [`Recovery::into_reactor`]
    /// consumes it).
    pub fn machine(&self) -> &LeaseMachine<'a, 'a> {
        &self.machine
    }

    /// The reconstructed state as one JSON object — the payload of the
    /// `ic-prio recover` dry-run verb.
    pub fn state_json(&self) -> String {
        let m = &self.machine;
        let exec = m.exec();
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"events_replayed\":{},\"next_step\":{},\"executed\":{},\"nodes\":{},\"complete\":{}",
            self.report.events_replayed,
            m.trace_steps(),
            exec.num_executed(),
            exec.dag().num_nodes(),
            m.is_complete(),
        ));
        let ids = |tasks: &[ic_dag::NodeId]| {
            tasks
                .iter()
                .map(|v| v.index().to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&format!(",\"pool\":[{}]", ids(exec.pool())));
        out.push_str(&format!(",\"deferred\":[{}]", ids(&m.deferred_tasks())));
        out.push_str(",\"leases\":[");
        for (i, lease) in m.lease_views().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"worker\":{},\"task\":{},\"speculative\":{}}}",
                lease.worker,
                lease.task.index(),
                lease.speculative
            ));
        }
        out.push_str("],\"workers\":[");
        for worker in 0..m.num_workers() {
            if worker > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"epoch\":{}}}",
                ic_sim::json::json_string(m.worker_id(worker).unwrap_or("")),
                m.worker_epoch(worker).unwrap_or(0)
            ));
        }
        out.push(']');
        if let Some(torn) = &self.report.torn_tail {
            out.push_str(&format!(
                ",\"torn_tail\":{{\"code\":\"IC0700\",\"line\":{}}}",
                torn.line
            ));
        }
        out.push('}');
        out
    }

    /// Go live: open the resume window, offset the driver's clock to
    /// continue the trace's timeline, arm every recovered lease for
    /// expiry, and return the reactor. Drive it with
    /// [`Reactor::run_until_drain`] over a sink that *appends* to the
    /// recovered trace file
    /// ([`FileSink::append`](ic_sim::trace::FileSink::append)) and the
    /// concatenated trace audits clean.
    pub fn into_reactor(mut self, driver: Driver) -> Reactor<'a> {
        let window_us = self.rcfg.resume_window_ms.saturating_mul(1000);
        self.machine
            .await_resumes(self.resumed_at_us.saturating_add(window_us));
        let driver = driver.offset(self.resumed_at_us);
        Reactor::from_machine(self.machine, driver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Effect, Event};
    use crate::wire::PROTO_CURRENT;
    use ic_dag::builder::from_arcs;
    use ic_sched::heuristics::Policy;
    use ic_sim::trace::TraceSink;
    use ic_sim::MemorySink;

    fn cfg() -> ServerConfig {
        ServerConfig::builder()
            .lease_ms(10_000)
            .expect_workers(1)
            .seed(11)
            .build()
    }

    /// One completion and one outstanding lease, as JSONL text.
    fn crashed_trace_text(dag: &Dag) -> String {
        let policy = Policy::Fifo;
        let mut m = LeaseMachine::new(dag, &policy, cfg());
        let mut sink = MemorySink::new();
        let feed = |m: &mut LeaseMachine<'_, '_>, sink: &mut MemorySink, ev: Event| {
            for e in m.step(ev) {
                match e {
                    Effect::Header(h) => sink.header(&h),
                    Effect::Trace(t) => sink.record(&t),
                    Effect::Reply(_) => {}
                }
            }
        };
        assert!(m.boot(0).is_empty(), "barrier open: header not yet due");
        feed(
            &mut m,
            &mut sink,
            Event::Hello {
                id: "w0".into(),
                speed: 1.0,
                proto: PROTO_CURRENT,
                resume: None,
                now_us: 0,
            },
        );
        feed(
            &mut m,
            &mut sink,
            Event::Request {
                worker: 0,
                max: 1,
                now_us: 0,
            },
        );
        feed(
            &mut m,
            &mut sink,
            Event::Done {
                worker: 0,
                task: 0,
                ok: true,
                now_us: 0,
            },
        );
        feed(
            &mut m,
            &mut sink,
            Event::Request {
                worker: 0,
                max: 1,
                now_us: 0,
            },
        );
        sink.into_trace().expect("header written").to_jsonl()
    }

    /// A torn final line — half a `complete` event, as a crash during
    /// a write leaves it — is reported (IC0700's payload), excluded
    /// from the replay, and never counted as state.
    #[test]
    fn a_torn_tail_is_reported_and_excluded_from_the_rebuild() {
        let dag = from_arcs(3, &[]).unwrap();
        let policy = Policy::Fifo;
        let whole = crashed_trace_text(&dag);
        let torn = format!("{whole}{{\"type\":\"complete\",\"task\":2,\"cli");

        let recovery =
            Recovery::replay_str(&dag, &policy, cfg(), RecoveryConfig::default(), &torn).unwrap();
        let report = recovery.report();
        assert_eq!(report.events_replayed, 3, "the torn line is not an event");
        assert_eq!(report.completions, 1, "the half-written completion is not");
        assert_eq!(report.valid_bytes, whole.len() as u64);
        let tail = report.torn_tail.as_ref().expect("torn tail reported");
        assert_eq!(tail.line, 5, "header + three events, then the tear");
        assert!(
            recovery.state_json().contains("\"torn_tail\""),
            "the dry-run payload carries the IC0700 finding"
        );

        // The same text without the tear replays identically, minus
        // the report entry.
        let clean =
            Recovery::replay_str(&dag, &policy, cfg(), RecoveryConfig::default(), &whole).unwrap();
        assert!(clean.report().torn_tail.is_none());
        assert_eq!(clean.report().events_replayed, 3);
    }

    /// `Recovery::replay` truncates the torn bytes off the file — the
    /// recovered server appends where the valid prefix ends, keeping
    /// the file one parseable run.
    #[test]
    fn replay_truncates_the_torn_file() {
        let dag = from_arcs(3, &[]).unwrap();
        let policy = Policy::Fifo;
        let whole = crashed_trace_text(&dag);
        let torn = format!("{whole}{{\"type\":\"complete\",\"ta");

        let dir = std::env::temp_dir().join(format!("ic-net-torn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();

        let trimmed = dir.join("trimmed.jsonl");
        fs::write(&trimmed, &torn).unwrap();
        let recovery =
            Recovery::replay(&dag, &policy, cfg(), RecoveryConfig::default(), &trimmed).unwrap();
        assert_eq!(
            fs::read_to_string(&trimmed).unwrap(),
            whole,
            "the torn bytes are cut so appends extend the valid prefix"
        );
        assert_eq!(recovery.report().valid_bytes, whole.len() as u64);
        fs::remove_dir_all(&dir).ok();
    }

    /// A tear between the last line's `}` and its `\n` leaves an intact
    /// but newline-less file. The recovered server's first appended
    /// line must still start a line of its own, or the resumed WAL no
    /// longer parses.
    #[test]
    fn appends_after_a_newline_less_tail_start_on_a_fresh_line() {
        let dag = from_arcs(3, &[]).unwrap();
        let policy = Policy::Fifo;
        let whole = crashed_trace_text(&dag);
        let dir = std::env::temp_dir().join(format!("ic-net-eol-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("wal.jsonl");
        fs::write(&wal, whole.trim_end_matches('\n')).unwrap();

        let recovery =
            Recovery::replay(&dag, &policy, cfg(), RecoveryConfig::default(), &wal).unwrap();
        assert!(recovery.report().torn_tail.is_none(), "nothing is torn");
        let mut sink = ic_sim::FileSink::append(&wal).unwrap();
        let next = ic_sim::TraceEvent::on_task(
            ic_sim::trace::EventKind::Completed,
            3,
            0.0,
            0,
            ic_dag::NodeId(1),
            Some(1),
        );
        sink.record(&next);
        sink.finish().unwrap();
        let text = fs::read_to_string(&wal).unwrap();
        fs::remove_dir_all(&dir).ok();
        let trace = ic_sim::Trace::from_jsonl(&text).expect("the resumed WAL parses");
        assert_eq!(text, format!("{whole}{}", next.to_json_line()));
        assert_eq!(trace.events.len(), 4);
    }

    /// A WAL cut inside its header, as a kill between the header's
    /// batch-size writes leaves it, is refused as a parse error on line
    /// 1 and left as it was: at a piece's end, at exactly
    /// `BATCH_BYTES`, and inside a number.
    #[test]
    fn a_torn_header_is_refused_with_a_parse_error() {
        let dag = ic_families::mesh::out_mesh(100);
        let policy = Policy::Fifo;
        let header = TraceHeader::for_run(&dag, 1, 11, "FIFO");
        let line = header.to_json_line().into_bytes();
        let batch = ic_sim::FileSink::BATCH_BYTES;
        assert!(line.len() > 2 * batch);
        let dir = std::env::temp_dir().join(format!("ic-net-torn-header-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let wal = dir.join("wal.jsonl");
        // A sink that never flushes: only the header's full pieces
        // reach the file.
        let mut sink = ic_sim::FileSink::create(&wal).unwrap();
        sink.header(&header);
        std::mem::forget(sink);
        let pieces = fs::read(&wal).unwrap();
        assert!((batch..line.len()).contains(&pieces.len()));
        assert!(line.starts_with(&pieces));
        let digits = |i: usize| line[i - 1].is_ascii_digit() && line[i].is_ascii_digit();
        let mid_number = (batch + 1..line.len()).find(|&i| digits(i)).unwrap();
        for cut in [pieces.len(), batch, mid_number] {
            let torn = &line[..cut];
            let Err(e) = TraceStream::open(torn).unwrap() else {
                panic!("a header cut at {cut} opened");
            };
            assert_eq!(e.line, 1, "{e}");
            fs::write(&wal, torn).unwrap();
            let replayed = Recovery::replay(&dag, &policy, cfg(), RecoveryConfig::default(), &wal);
            match replayed.err() {
                Some(RecoverError::Parse(e)) => assert_eq!(e.line, 1, "{e}"),
                other => panic!("cut at {cut}: {other:?}"),
            }
            assert_eq!(fs::read(&wal).unwrap(), torn, "nothing to truncate");
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// The dry-run payload reflects the rebuilt state exactly.
    #[test]
    fn state_json_carries_the_reconstructed_state() {
        let dag = from_arcs(3, &[]).unwrap();
        let policy = Policy::Fifo;
        let text = crashed_trace_text(&dag);
        let recovery =
            Recovery::replay_str(&dag, &policy, cfg(), RecoveryConfig::default(), &text).unwrap();
        let json = recovery.state_json();
        for needle in [
            "\"events_replayed\":3",
            "\"next_step\":3",
            "\"executed\":1",
            "\"nodes\":3",
            "\"complete\":false",
            "\"pool\":[2]",
            "\"leases\":[{\"worker\":0,\"task\":1,\"speculative\":false}]",
            "\"id\":\"w0\"",
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
    }
}
