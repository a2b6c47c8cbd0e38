//! The shared execution-trace model.
//!
//! Every run of the lease machine (`ic-net`'s live server, as its
//! write-ahead log, and `ic_check::sim`'s virtual-time fleet) emits its
//! event history through a [`TraceSink`]: one [`TraceHeader`] carrying the
//! dag (so a trace file is self-contained), then a stream of
//! [`TraceEvent`]s — task allocated, task completed, allocation failed,
//! client idle — in the order the server processed them. Traces
//! serialize to line-oriented JSONL (one object per line, in the style
//! of `ic_dag::serialize`: deterministic, diffable, zero external
//! deps), and `ic-audit` replays them against the embedded dag to
//! verify that the *run* — not just a static order — respected
//! eligibility and tracked the optimal envelope.

use std::fmt;
use std::io::{self, BufRead, Write as _};
use std::path::Path;

use ic_dag::builder::from_arcs;
use ic_dag::error::DagError;
use ic_dag::{Dag, NodeId};

use crate::json::{self, num, Cursor, Json};

/// Current trace-format version, written into every header. Version 2
/// added the optional per-client `workers` service parameters; version
/// 3 added the lease-lifecycle events of the networked server —
/// `resume` (a reconnecting worker kept its lease), `spec` (a
/// speculative duplicate lease at the drain barrier), and `revoke` (a
/// duplicate lease cancelled because another worker completed first).
/// Older traces still parse.
pub const TRACE_VERSION: u32 = 3;

/// Declared service parameters of one client, recorded in the trace
/// header: crash recovery gives a rebuilt worker slot its declared id
/// back, which is how a surviving worker reclaims it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerParams {
    /// The client slot this worker occupies (the `client` of its
    /// events).
    pub client: usize,
    /// Self-declared worker identity (`"client-N"` for simulated
    /// clients; whatever the remote worker announced for `ic-net`).
    pub id: String,
    /// Declared speed factor: the worker finishes compute in
    /// `1 / speed` of the base service time.
    pub speed: f64,
}

/// Federation metadata of one shard's trace: how this shard's *local*
/// sub-dag (the one in the header's `nodes`/`arcs`) embeds into the
/// global dag of a federated run. Present only on per-shard traces of
/// `ic-fed`; the field is additive, so every existing consumer of the
/// header parses unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct FedMeta {
    /// This shard's index (`0..shards`).
    pub shard: u64,
    /// Total shard count of the federated run.
    pub shards: u64,
    /// Node count of the global dag.
    pub global_nodes: usize,
    /// Local node id → global node id (`to_global[local] = global`),
    /// one entry per local node.
    pub to_global: Vec<u64>,
    /// Local ids of *stub* nodes: remote predecessors owned by another
    /// shard, completed here only by its `remote-done` notification.
    pub stubs: Vec<u32>,
}

/// The first line of a trace: run parameters plus the dag itself.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHeader {
    /// Trace-format version ([`TRACE_VERSION`]).
    pub version: u32,
    /// Number of dag nodes.
    pub nodes: usize,
    /// The dag's arcs as `(parent, child)` id pairs.
    pub arcs: Vec<(u32, u32)>,
    /// Number of clients: the worker slots registered or expected when
    /// the header was written.
    pub clients: usize,
    /// RNG seed of the run.
    pub seed: u64,
    /// Name of the allocation policy that drove the run.
    pub policy: String,
    /// Per-client declared service parameters, when the emitter knows
    /// them at run start (empty otherwise; version-1 traces parse as
    /// empty).
    pub workers: Vec<WorkerParams>,
    /// Federation metadata, present only on per-shard traces of a
    /// federated (`ic-fed`) run.
    pub fed: Option<FedMeta>,
}

impl TraceHeader {
    /// Build a header for a run of `dag`.
    pub fn for_run(dag: &Dag, clients: usize, seed: u64, policy: &str) -> TraceHeader {
        TraceHeader {
            version: TRACE_VERSION,
            nodes: dag.num_nodes(),
            arcs: dag.arcs().map(|(u, v)| (u.0, v.0)).collect(),
            clients,
            seed,
            policy: policy.to_string(),
            workers: Vec::new(),
            fed: None,
        }
    }

    /// Attach per-client service parameters.
    pub fn with_workers(mut self, workers: Vec<WorkerParams>) -> TraceHeader {
        self.workers = workers;
        self
    }

    /// Attach federation metadata (per-shard traces of `ic-fed`).
    pub fn with_fed(mut self, fed: FedMeta) -> TraceHeader {
        self.fed = Some(fed);
        self
    }

    /// Serialize as the JSONL header line (newline included).
    pub fn to_json_line(&self) -> String {
        let mut line = Vec::new();
        self.write_json_line(&mut line);
        String::from_utf8(line).unwrap_or_default()
    }

    /// Append the JSONL header line (newline included) to `out`, in
    /// place: every integer goes through [`json::num`], and nothing is
    /// built per arc.
    pub fn write_json_line(&self, out: &mut Vec<u8>) {
        self.write_pieces(out, |_| {});
    }

    /// [`write_json_line`](TraceHeader::write_json_line), handing `out`
    /// to `spill` whenever it holds [`FileSink::BATCH_BYTES`] at the end
    /// of an arc or of a `fed` list entry. A spill that empties `out`
    /// bounds it by one batch and one entry, however large the dag.
    fn write_pieces(&self, out: &mut Vec<u8>, mut spill: impl FnMut(&mut Vec<u8>)) {
        let mut spill = |out: &mut Vec<u8>| {
            if out.len() >= FileSink::BATCH_BYTES {
                spill(out);
            }
        };
        out.extend_from_slice(b"{\"type\":\"header\"");
        num(out, ",\"version\":", self.version.into());
        num(out, ",\"nodes\":", self.nodes as u64);
        num(out, ",\"clients\":", self.clients as u64);
        num(out, ",\"seed\":\"", self.seed);
        out.extend_from_slice(b"\",\"policy\":");
        out.extend_from_slice(json::json_string(&self.policy).as_bytes());
        out.extend_from_slice(b",\"arcs\":[");
        for (i, &(u, v)) in self.arcs.iter().enumerate() {
            num(out, if i == 0 { "[" } else { ",[" }, u.into());
            num(out, ",", v.into());
            out.push(b']');
            spill(out);
        }
        out.push(b']');
        if !self.workers.is_empty() {
            out.extend_from_slice(b",\"workers\":[");
            for (i, w) in self.workers.iter().enumerate() {
                let key = if i == 0 {
                    "{\"client\":"
                } else {
                    ",{\"client\":"
                };
                num(out, key, w.client as u64);
                out.extend_from_slice(b",\"id\":");
                out.extend_from_slice(json::json_string(&w.id).as_bytes());
                // Writing into a `Vec` cannot fail.
                let _ = write!(out, ",\"speed\":{}}}", w.speed);
            }
            out.push(b']');
        }
        if let Some(fed) = &self.fed {
            num(out, ",\"fed\":{\"shard\":", fed.shard);
            num(out, ",\"shards\":", fed.shards);
            num(out, ",\"global_nodes\":", fed.global_nodes as u64);
            list(out, ",\"to_global\":[", &fed.to_global, &mut spill);
            list(out, ",\"stubs\":[", &fed.stubs, &mut spill);
            out.push(b'}');
        }
        out.extend_from_slice(b"}\n");
    }
}

/// Append `key` (up to and including its `[`), then `xs` and a `]`,
/// offering `out` to `spill` after each entry.
fn list<T: Copy + Into<u64>>(
    out: &mut Vec<u8>,
    key: &str,
    xs: &[T],
    spill: &mut impl FnMut(&mut Vec<u8>),
) {
    out.extend_from_slice(key.as_bytes());
    for (i, &x) in xs.iter().enumerate() {
        num(out, if i == 0 { "" } else { "," }, x.into());
        spill(out);
    }
    out.push(b']');
}

/// The pseudo-client id recorded on trace events caused by the
/// *federation* rather than by a worker: stub allocations at the
/// header, and completions applied from a peer shard's `remote-done`.
/// Chosen far above any real slot index, and exactly representable as
/// an `f64` so it survives the JSON number path unchanged.
pub const FED_CLIENT: usize = 1 << 32;

/// What a [`TraceEvent`] records. The kind owns the JSONL `type` name
/// ([`EventKind::name`]) and the rule for which events carry a pool
/// sample ([`EventKind::carries_pool`]); every kind but
/// [`EventKind::Idle`] concerns a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The server allocated the task to the client.
    Allocated,
    /// The client returned the completed task.
    Completed,
    /// The client lost the task (crash or bad result); the task
    /// returned to the ELIGIBLE pool.
    Failed,
    /// The client requested work and none could be allocated — the
    /// paper's gridlock scenario when allocated work is outstanding.
    Idle,
    /// The client reconnected (resume token) and kept its lease on the
    /// task: the allocation stays open, nothing re-enters the pool.
    /// Emitted once per lease the resume restored (v3).
    Resumed,
    /// The client received a *speculative* duplicate lease on the
    /// in-flight task (drain-barrier work stealing). The task was
    /// already allocated, so the pool does not shrink (v3).
    Speculated,
    /// The client's duplicate lease on the task was cancelled: another
    /// holder completed it first. Not a failure — the work was simply
    /// redundant (v3).
    Revoked,
}

impl EventKind {
    /// Every kind, in the order the format grew them.
    const ALL: [EventKind; 7] = [
        EventKind::Allocated,
        EventKind::Completed,
        EventKind::Failed,
        EventKind::Idle,
        EventKind::Resumed,
        EventKind::Speculated,
        EventKind::Revoked,
    ];

    /// The JSONL `type` name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Allocated => "alloc",
            EventKind::Completed => "complete",
            EventKind::Failed => "fail",
            EventKind::Idle => "idle",
            EventKind::Resumed => "resume",
            EventKind::Speculated => "spec",
            EventKind::Revoked => "revoke",
        }
    }

    /// The kind a JSONL `type` name denotes.
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether events of this kind record the ELIGIBLE-pool size after
    /// they applied: the ones that can move the pool, plus `spec`,
    /// which asserts it did not move.
    pub fn carries_pool(self) -> bool {
        matches!(
            self,
            EventKind::Allocated | EventKind::Completed | EventKind::Failed | EventKind::Speculated
        )
    }
}

/// One step of an execution, with its logical timestamp.
///
/// Build events with [`TraceEvent::on_task`] and [`TraceEvent::idle`]
/// (the parser does the same): they keep `task` absent exactly on
/// [`EventKind::Idle`] and `pool` absent on kinds that carry none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Global event index (0-based, monotone).
    pub step: u64,
    /// The run's clock in seconds since the header (service units, one
    /// per 10⁶ virtual µs, in a simulation).
    pub time: f64,
    /// The client (worker slot) the event concerns.
    pub client: usize,
    /// What happened.
    pub kind: EventKind,
    /// The task concerned; `None` exactly for [`EventKind::Idle`].
    pub task: Option<NodeId>,
    /// Size of the ELIGIBLE-and-unallocated pool *after* the event
    /// applied, when the emitter tracks it (`None` on the kinds that
    /// carry no pool sample).
    pub pool: Option<usize>,
}

impl TraceEvent {
    /// A `kind` event about `task`. `pool` is kept only when `kind`
    /// [carries one](EventKind::carries_pool).
    pub fn on_task(
        kind: EventKind,
        step: u64,
        time: f64,
        client: usize,
        task: NodeId,
        pool: Option<usize>,
    ) -> TraceEvent {
        debug_assert!(kind != EventKind::Idle, "idle events concern no task");
        TraceEvent {
            step,
            time,
            client,
            kind,
            task: Some(task),
            pool: pool.filter(|_| kind.carries_pool()),
        }
    }

    /// `client` requested work and none could be allocated.
    pub fn idle(step: u64, time: f64, client: usize) -> TraceEvent {
        TraceEvent {
            step,
            time,
            client,
            kind: EventKind::Idle,
            task: None,
            pool: None,
        }
    }

    /// Serialize as one JSONL event line (newline included).
    pub fn to_json_line(&self) -> String {
        let mut line = Vec::new();
        self.write_json_line(&mut line);
        String::from_utf8(line).unwrap_or_default()
    }

    /// Append the JSONL event line (newline included) to `out` — the
    /// in-place form of [`to_json_line`](TraceEvent::to_json_line),
    /// with no intermediate `String`.
    pub fn write_json_line(&self, out: &mut Vec<u8>) {
        self.write_line(out, None);
    }

    /// [`write_json_line`](TraceEvent::write_json_line), its `t` taken
    /// from `memo` when the last line written through it had the same
    /// one, and rendered straight into `out` when there is no memo.
    fn write_line(&self, out: &mut Vec<u8>, memo: Option<&mut TimeText>) {
        out.extend_from_slice(b"{\"type\":\"");
        out.extend_from_slice(self.kind.name().as_bytes());
        num(out, "\",\"step\":", self.step);
        match memo {
            Some(t) => out.extend_from_slice(t.render(self.time)),
            None => time_text(out, self.time),
        }
        num(out, ",\"client\":", self.client as u64);
        if let Some(task) = self.task {
            num(out, ",\"task\":", task.0.into());
        }
        if let Some(p) = self.pool {
            num(out, ",\"pool\":", p as u64);
        }
        out.extend_from_slice(b"}\n");
    }
}

/// The `,"t":…` text of the last time rendered, keyed on its bits, not
/// on `==`: `0.0` and `-0.0` are equal and write `0` and `-0`. The
/// events of one read share its clock reading, so a writer that keeps
/// one renders each distinct `t` once instead of once a line.
#[derive(Debug, Default)]
struct TimeText {
    bits: Option<u64>,
    text: Vec<u8>,
}

impl TimeText {
    fn render(&mut self, time: f64) -> &[u8] {
        if self.bits != Some(time.to_bits()) {
            self.bits = Some(time.to_bits());
            self.text.clear();
            time_text(&mut self.text, time);
        }
        &self.text
    }
}

/// Append the `,"t":…` text of `time` to `out`.
fn time_text(out: &mut Vec<u8>, time: f64) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, ",\"t\":{time}");
}

/// Receives the event stream of one run.
///
/// Sinks observe events in server order; emitters call [`header`]
/// exactly once, before any [`record`].
///
/// [`header`]: TraceSink::header
/// [`record`]: TraceSink::record
pub trait TraceSink {
    /// Called once at the start of the run. Default: ignore.
    fn header(&mut self, header: &TraceHeader) {
        let _ = header;
    }

    /// Called for every event, in order.
    fn record(&mut self, event: &TraceEvent);

    /// Make everything handed over so far outlive this process. The
    /// server calls it once per poll round, *before* any reply of that
    /// round is transmitted, and stops serving on an error — so no
    /// peer ever hears of a decision the trace has not seen. Default:
    /// nothing is held back, nothing to do.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards every event — tracing off.
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}
}

/// Buffers the run in memory; [`MemorySink::into_trace`] yields the
/// complete [`Trace`].
#[derive(Debug, Default)]
pub struct MemorySink {
    header: Option<TraceHeader>,
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The buffered trace, or `None` if no header was ever recorded.
    pub fn into_trace(self) -> Option<Trace> {
        Some(Trace {
            header: self.header?,
            events: self.events,
        })
    }
}

impl TraceSink for MemorySink {
    fn header(&mut self, header: &TraceHeader) {
        self.header = Some(header.clone());
    }

    fn record(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

/// Streams a run's trace to a JSONL file in *whole-line batches*,
/// durable enough to act as the server's write-ahead log.
///
/// [`record`](TraceSink::record) only appends a complete line to an
/// internal buffer — no syscall — and so does
/// [`header`](TraceSink::header) when the header is under a batch.
/// The buffer reaches the OS in one `write`:
///
/// * at [`flush`](TraceSink::flush), which the server calls once per
///   poll round before that round's replies go out (the group commit:
///   one write covers every lease the round granted);
/// * early, when it exceeds [`FileSink::BATCH_BYTES`] (early is always
///   safe — the rule is only that the log is never *behind* the wire);
/// * and at [`FileSink::finish`] (or drop).
///
/// Long server runs therefore never buffer their trace in memory, and
/// because event lines are written whole, a killed process leaves a
/// valid — possibly IC0405-truncated — trace on disk at every instant:
/// records since the last flush are lost as *whole lines* (the kernel
/// may still tear the *final* line mid-`write`; [`TraceReader`]
/// tolerates exactly that).
///
/// The header is the one line written in pieces: it carries the dag,
/// megabytes on a large one, so it reaches the OS a batch at a time
/// and the buffer never outgrows two batches. A process killed between
/// pieces leaves a torn header, which the readers refuse as a parse
/// error on line 1. Nothing was decided before the header: the first
/// event follows it, and no reply goes out before the round's flush.
///
/// I/O errors are sticky: after the first one nothing more is written,
/// and `flush` and [`FileSink::finish`] keep returning it.
#[derive(Debug)]
pub struct FileSink {
    out: std::fs::File,
    buf: Vec<u8>,
    t: TimeText,
    err: Option<io::Error>,
}

impl FileSink {
    /// Buffered bytes past which the next line triggers a write; the
    /// header, which can be megabytes, is written in pieces of this
    /// size (cut after an arc or a `fed` list entry).
    pub const BATCH_BYTES: usize = 16 * 1024;

    /// Create (truncating) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<FileSink> {
        Ok(FileSink {
            out: std::fs::File::create(path)?,
            buf: Vec::new(),
            t: TimeText::default(),
            err: None,
        })
    }

    /// Open `path` for appending — the recovered server continues the
    /// trace it just replayed, so the concatenated file stays one
    /// audit-clean run. The header is *not* rewritten; the caller is
    /// responsible for the file already holding one (and for
    /// truncating any torn tail first — see [`TraceRead::valid_bytes`]).
    pub fn append(path: impl AsRef<Path>) -> io::Result<FileSink> {
        Ok(FileSink {
            out: std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(path)?,
            buf: Vec::new(),
            t: TimeText::default(),
            err: None,
        })
    }

    /// Spill early once a line has pushed the buffer past the batch
    /// size; a failure surfaces at the next `flush`.
    fn spill_if_full(&mut self) {
        if self.buf.len() >= FileSink::BATCH_BYTES {
            let _ = self.flush();
        }
    }

    /// Flush and close, surfacing the first write error if any.
    pub fn finish(mut self) -> io::Result<()> {
        self.flush()
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl TraceSink for FileSink {
    fn header(&mut self, header: &TraceHeader) {
        let (out, err) = (&mut self.out, &mut self.err);
        header.write_pieces(&mut self.buf, |piece| write_sticky(out, err, piece));
        self.spill_if_full();
    }

    fn record(&mut self, event: &TraceEvent) {
        event.write_line(&mut self.buf, Some(&mut self.t));
        self.spill_if_full();
    }

    /// Push every buffered (complete) line to the OS in one write.
    fn flush(&mut self) -> io::Result<()> {
        write_sticky(&mut self.out, &mut self.err, &mut self.buf);
        match &self.err {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }
}

/// Write `bytes` to `out` unless an earlier write failed, recording
/// the first failure in `err`, and empty them either way.
fn write_sticky(out: &mut std::fs::File, err: &mut Option<io::Error>, bytes: &mut Vec<u8>) {
    if err.is_none() {
        *err = out.write_all(bytes).err();
    }
    bytes.clear();
}

/// A complete captured run: header plus event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Run parameters and the dag.
    pub header: TraceHeader,
    /// The events, in server order.
    pub events: Vec<TraceEvent>,
}

/// A malformed trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line (0 for file-level
    /// problems such as a missing header).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.message)
        } else {
            write!(f, "trace: {}", self.message)
        }
    }
}

impl std::error::Error for TraceParseError {}

fn err(line: usize, message: impl Into<String>) -> TraceParseError {
    TraceParseError {
        line,
        message: message.into(),
    }
}

impl Trace {
    /// Reconstruct the dag embedded in the header.
    pub fn dag(&self) -> Result<Dag, DagError> {
        from_arcs(self.header.nodes, &self.header.arcs)
    }

    /// The tasks in allocation order (failures reallocate, so a task
    /// may appear more than once). Speculative duplicate leases
    /// (`spec` events) are *not* allocations in the scheduling sense —
    /// their task was already counted — so they are excluded.
    pub fn allocation_order(&self) -> Vec<NodeId> {
        self.tasks_of(EventKind::Allocated)
    }

    /// The tasks in completion order — the execution order the run
    /// actually realized, comparable against the optimal envelope.
    pub fn completion_order(&self) -> Vec<NodeId> {
        self.tasks_of(EventKind::Completed)
    }

    fn tasks_of(&self, kind: EventKind) -> Vec<NodeId> {
        self.events
            .iter()
            .filter(|ev| ev.kind == kind)
            .filter_map(|ev| ev.task)
            .collect()
    }

    /// Serialize to JSONL: the header line, then one line per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.header.write_json_line(&mut out);
        let mut t = TimeText::default();
        for ev in &self.events {
            ev.write_line(&mut out, Some(&mut t));
        }
        String::from_utf8(out).unwrap_or_default()
    }

    /// Parse a JSONL trace *strictly*. Blank lines are ignored; the
    /// first non-blank line must be the header, and a torn final line
    /// — tolerated by [`TraceReader`] — is an error here.
    pub fn from_jsonl(text: &str) -> Result<Trace, TraceParseError> {
        let read = TraceReader::read(text)?;
        if let Some(torn) = read.torn {
            return Err(err(torn.line, torn.message));
        }
        Ok(read.trace)
    }
}

/// The final line of a trace file that did not parse because the
/// writing process was killed mid-`write(2)` — reported, and dropped,
/// by [`TraceReader`].
#[derive(Debug, Clone, PartialEq)]
pub struct TornTail {
    /// 1-based line number of the torn line.
    pub line: usize,
    /// The underlying JSON parse failure.
    pub message: String,
}

/// What [`TraceReader::read`] recovered from a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRead {
    /// The parsed header and every intact event line.
    pub trace: Trace,
    /// The dropped torn final line, if the file ends mid-write.
    pub torn: Option<TornTail>,
    /// Byte length of the intact prefix: every line up to and
    /// including the last one that parsed. Truncating the file to this
    /// length removes the torn tail, which a recovered server must do
    /// before appending to the trace.
    pub valid_bytes: u64,
}

/// The trace parser behind crash recovery (`ic-net`'s `Recovery`,
/// `ic-prio recover`) and, strictly, [`Trace::from_jsonl`].
///
/// It tolerates exactly one *torn tail*: a final line that fails to
/// parse as JSON, the signature of a process killed between the kernel
/// accepting part of a `write(2)` and the rest. The torn line is
/// dropped and reported (never silently) via [`TraceRead::torn`]; a
/// JSON parse failure on any *non*-final line, and every semantic
/// error (unknown event type, missing field, duplicate header)
/// anywhere, stays a hard [`TraceParseError`] — truncation cannot
/// produce a well-formed JSON object of the wrong shape, so those
/// always mean a genuinely malformed file.
pub struct TraceReader;

impl TraceReader {
    /// Parse the full text of a trace file: [`TraceStream`] over the
    /// text, its events collected.
    pub fn read(text: &str) -> Result<TraceRead, TraceParseError> {
        read_lines(text, true)
    }
}

/// [`TraceReader::read`], its byte matchers on, or off for the tests
/// that hold them to the tree.
fn read_lines(text: &str, match_bytes: bool) -> Result<TraceRead, TraceParseError> {
    // Text in memory is UTF-8 and cannot fail to read.
    let io = |e: io::Error| err(0, e.to_string());
    let (header, mut stream) = TraceStream::start(text.as_bytes(), match_bytes).map_err(io)??;
    // An event line takes 50 to 70 bytes.
    let mut events = Vec::with_capacity(text.len() / 64);
    while let Some(ev) = stream.next_event().map_err(io)?? {
        events.push(ev);
    }
    let (torn, valid_bytes) = (stream.torn, stream.valid_bytes);
    Ok(TraceRead {
        trace: Trace { header, events },
        torn,
        valid_bytes,
    })
}

/// A trace read a line at a time from a [`BufRead`], holding only the
/// line at hand: [`TraceReader`]'s parser, rules and all. Blank lines
/// are skipped and the first non-blank line must be the header. The
/// outer [`io::Result`] is the input failing (a line that is not UTF-8
/// is [`io::ErrorKind::InvalidData`]), the inner one the trace.
pub struct TraceStream<R> {
    input: R,
    /// A line that straddles the input's buffer, copied out whole.
    line: Vec<u8>,
    match_bytes: bool,
    header_seen: bool,
    lineno: usize,
    consumed: u64,
    /// [`TraceRead::valid_bytes`] of the lines read so far.
    pub valid_bytes: u64,
    /// [`TraceRead::torn`], once the input ended at a torn line.
    pub torn: Option<TornTail>,
    /// Whether the input read so far ends with a newline.
    pub newline: bool,
}

/// A header or an event line. The header is boxed so that passing an
/// event up costs the event's size, not the header's.
enum Line {
    Header(Box<TraceHeader>),
    Event(TraceEvent),
}

impl<R: BufRead> TraceStream<R> {
    /// Read through the header.
    pub fn open(input: R) -> io::Result<Result<(TraceHeader, Self), TraceParseError>> {
        TraceStream::start(input, true)
    }

    fn start(
        input: R,
        match_bytes: bool,
    ) -> io::Result<Result<(TraceHeader, Self), TraceParseError>> {
        let mut stream = TraceStream {
            input,
            line: Vec::new(),
            match_bytes,
            header_seen: false,
            lineno: 0,
            consumed: 0,
            valid_bytes: 0,
            torn: None,
            newline: false,
        };
        Ok(match stream.next_line()? {
            Ok(Some(Line::Header(header))) => Ok((*header, stream)),
            Err(e) => Err(e),
            // No header at all: a torn first line carries the real
            // parse failure; otherwise the input is simply empty.
            _ => Err(match stream.torn {
                Some(t) => err(t.line, t.message),
                None => err(0, "empty trace (no header line)"),
            }),
        })
    }

    /// The next event; `None` once the input ends, whole or torn.
    pub fn next_event(&mut self) -> io::Result<Result<Option<TraceEvent>, TraceParseError>> {
        Ok(self.next_line()?.map(|line| match line {
            Some(Line::Event(ev)) => Some(ev),
            _ => None,
        }))
    }

    /// The next header or event line; `None` at the end of the input
    /// or after a torn tail.
    fn next_line(&mut self) -> io::Result<Result<Option<Line>, TraceParseError>> {
        loop {
            let (lineno, seen, match_bytes) = (self.lineno + 1, self.header_seen, self.match_bytes);
            let read = self.read_raw(|raw| classify(raw, lineno, seen, match_bytes))?;
            let Some(raw) = read.transpose()? else {
                return Ok(Ok(None));
            };
            match raw {
                Raw::Blank => self.valid_bytes = self.consumed,
                Raw::Line(line) => {
                    (self.valid_bytes, self.header_seen) = (self.consumed, true);
                    return Ok(Ok(Some(line)));
                }
                Raw::Invalid(e) => return Ok(Err(e)),
                Raw::Unparsed(message) => {
                    // Only the final line can be torn.
                    let blank = |rest: &[u8]| utf8(rest).map(|r| r.trim().is_empty());
                    while let Some(blank) = self.read_raw(blank)?.transpose()? {
                        if !blank {
                            return Ok(Err(err(lineno, message)));
                        }
                    }
                    self.torn = Some(TornTail {
                        line: lineno,
                        message,
                    });
                    return Ok(Ok(None));
                }
            }
        }
    }

    /// Run `f` on the next raw line, its newline included: in place
    /// when the input's buffer holds all of it, else copied out.
    /// `None` at the end of the input.
    fn read_raw<T>(&mut self, f: impl FnOnce(&[u8]) -> T) -> io::Result<Option<T>> {
        let buffered = self.input.fill_buf()?;
        let (out, len) = match newline(buffered) {
            Some(i) => {
                let out = f(&buffered[..=i]);
                self.input.consume(i + 1);
                self.newline = true;
                (out, i + 1)
            }
            None => {
                self.line.clear();
                let len = self.input.read_until(b'\n', &mut self.line)?;
                if len == 0 {
                    return Ok(None);
                }
                self.newline = self.line.ends_with(b"\n");
                (f(&self.line), len)
            }
        };
        (self.consumed, self.lineno) = (self.consumed + len as u64, self.lineno + 1);
        Ok(Some(out))
    }
}

/// The index of the first `\n` in `bytes`, looked for sixteen bytes at
/// a time (a test the compiler vectorizes) before byte by byte.
fn newline(bytes: &[u8]) -> Option<usize> {
    let blocks = bytes.chunks_exact(16);
    let tail = bytes.len() - blocks.remainder().len();
    let hit = |block: &[u8]| block.iter().fold(false, |hit, &b| hit | (b == b'\n'));
    let block = blocks.take_while(|block| !hit(block)).count() * 16;
    let rest = if block < tail {
        &bytes[block..block + 16]
    } else {
        &bytes[tail..]
    };
    rest.iter().position(|&b| b == b'\n').map(|i| block + i)
}

/// One raw line, as [`classify`] reads it.
enum Raw {
    Blank,
    Line(Line),
    /// Not JSON: torn, if nothing but whitespace follows.
    Unparsed(String),
    Invalid(TraceParseError),
}

/// Read the `lineno`-th raw line of a trace whose header is or is not
/// yet read. The writer's own event lines are ASCII, so they are
/// matched before the UTF-8 check; the header's matcher and the tree,
/// which decides every other line and every error, take the line as
/// text.
fn classify(raw: &[u8], lineno: usize, header_seen: bool, match_bytes: bool) -> io::Result<Raw> {
    if match_bytes && header_seen {
        if let Some(ev) = match_event(raw.trim_ascii()) {
            return Ok(Raw::Line(Line::Event(ev)));
        }
    }
    let line = utf8(raw)?.trim();
    let matched = match (match_bytes && !line.is_empty(), header_seen) {
        (false, _) => None,
        (true, true) => match_event(line.as_bytes()).map(Line::Event),
        (true, false) => match_header(line, lineno).map(|h| Line::Header(Box::new(h))),
    };
    Ok(match matched {
        Some(line) => Raw::Line(line),
        None if line.is_empty() => Raw::Blank,
        None => match json::parse(line) {
            Ok(v) => tree(&v, lineno, header_seen).map_or_else(Raw::Invalid, Raw::Line),
            Err(message) => Raw::Unparsed(message),
        },
    })
}

fn utf8(bytes: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// A line the byte matchers left to the [`Json`] tree.
fn tree(v: &Json, lineno: usize, header_seen: bool) -> Result<Line, TraceParseError> {
    let kind = v.get("type").and_then(Json::as_str);
    match (
        header_seen,
        kind.ok_or_else(|| err(lineno, "missing \"type\" field"))?,
    ) {
        (false, "header") => parse_header(v, lineno).map(|h| Line::Header(Box::new(h))),
        (false, _) => Err(err(lineno, "first line must be the trace header")),
        (true, "header") => Err(err(lineno, "duplicate header")),
        (true, kind) => parse_event(kind, v, lineno).map(Line::Event),
    }
}

/// An event line exactly as [`TraceEvent::write_json_line`] writes it,
/// without a [`Json`] tree. `None` sends the line down the tree path,
/// which accepts every line this accepts, as the same event.
fn match_event(line: &[u8]) -> Option<TraceEvent> {
    let rest = line.strip_prefix(b"{\"type\":\"")?;
    let (name, rest) = rest.split_at(rest.iter().position(|&b| b == b'"')?);
    let kind = EventKind::from_name(std::str::from_utf8(name).ok()?)?;
    let mut at = Cursor(rest);
    let step = keyed(&mut at, b"\",\"step\":")?;
    let time = at.eat(b",\"t\":").then(|| float(&mut at))??;
    let client = usize::try_from(keyed(&mut at, b",\"client\":")?).ok()?;
    let task = match at.eat(b",\"task\":") {
        true => Some(NodeId(u32::try_from(at.num()?).ok()?)),
        false => None,
    };
    let pool = match at.eat(b",\"pool\":") {
        true => Some(usize::try_from(at.num()?).ok()?),
        false => None,
    };
    (at.0 == b"}").then_some(())?;
    match (kind, task) {
        (EventKind::Idle, _) => Some(TraceEvent::idle(step, time, client)),
        (_, task) => Some(TraceEvent::on_task(kind, step, time, client, task?, pool)),
    }
}

/// The header's canonical prefix and `arcs`, as [`TraceHeader::write_json_line`]
/// writes them. The tree parses the rest with the arcs spliced out as `[]`;
/// if it fails, `None` leaves the whole line, and its error, to the tree.
fn match_header(line: &str, lineno: usize) -> Option<TraceHeader> {
    let mut at = Cursor(line.as_bytes());
    keyed(&mut at, b"{\"type\":\"header\",\"version\":")?;
    keyed(&mut at, b",\"nodes\":")?;
    keyed(&mut at, b",\"clients\":")?;
    keyed(&mut at, b",\"seed\":\"")?;
    // A policy name with no escape in it.
    at.eat(b"\",\"policy\":\"").then_some(())?;
    at.0 = &at.0[at.0.iter().position(|&b| b == b'"' || b == b'\\')?..];
    at.eat(b"\",\"arcs\":[").then_some(())?;
    let start = line.len() - at.0.len() - 1;
    let mut arcs = Vec::new();
    while !at.eat(b"]") {
        let sep: &[u8] = if arcs.is_empty() { b"[" } else { b",[" };
        let u = u32::try_from(keyed(&mut at, sep)?).ok()?;
        let v = u32::try_from(keyed(&mut at, b",")?).ok()?;
        at.eat(b"]").then_some(())?;
        arcs.push((u, v));
    }
    let end = line.len() - at.0.len();
    let rest = format!("{}[]{}", &line[..start], &line[end..]);
    let mut header = parse_header(&json::parse(&rest).ok()?, lineno).ok()?;
    header.arcs = arcs;
    Some(header)
}

/// `key`, then a canonical number.
fn keyed(at: &mut Cursor<'_>, key: &[u8]) -> Option<u64> {
    at.eat(key).then(|| at.num())?
}

/// A number scanned as the tree scans one (a `-` or a digit first, then
/// digits, `.`, `e`, `E`, `+`, `-`) and read as [`Json::as_f64`] reads it.
fn float(at: &mut Cursor<'_>) -> Option<f64> {
    let set = |b: &&u8| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-');
    let (raw, rest) = at.0.split_at(at.0.iter().take_while(set).count());
    matches!(raw.first(), Some(b'-' | b'0'..=b'9')).then_some(())?;
    at.0 = rest;
    std::str::from_utf8(raw).ok()?.parse().ok()
}

fn field<'a>(v: &'a Json, key: &str, lineno: usize) -> Result<&'a Json, TraceParseError> {
    v.get(key)
        .ok_or_else(|| err(lineno, format!("missing \"{key}\" field")))
}

fn parse_header(v: &Json, lineno: usize) -> Result<TraceHeader, TraceParseError> {
    let bad = |key: &str| err(lineno, format!("invalid \"{key}\" field"));
    let version = field(v, "version", lineno)?
        .as_u64()
        .and_then(|u| u32::try_from(u).ok())
        .ok_or_else(|| bad("version"))?;
    let nodes = field(v, "nodes", lineno)?
        .as_usize()
        .ok_or_else(|| bad("nodes"))?;
    let clients = field(v, "clients", lineno)?
        .as_usize()
        .ok_or_else(|| bad("clients"))?;
    let seed = field(v, "seed", lineno)?
        .as_u64()
        .ok_or_else(|| bad("seed"))?;
    let policy = field(v, "policy", lineno)?
        .as_str()
        .ok_or_else(|| bad("policy"))?
        .to_string();
    let mut arcs = Vec::new();
    for pair in field(v, "arcs", lineno)?
        .as_arr()
        .ok_or_else(|| bad("arcs"))?
    {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| err(lineno, "each arc must be a [parent, child] pair"))?;
        let u = pair[0]
            .as_u64()
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| bad("arcs"))?;
        let w = pair[1]
            .as_u64()
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| bad("arcs"))?;
        arcs.push((u, w));
    }
    // Optional since version 2; version-1 traces parse as empty.
    let mut workers = Vec::new();
    if let Some(list) = v.get("workers") {
        for w in list.as_arr().ok_or_else(|| bad("workers"))? {
            workers.push(WorkerParams {
                client: field(w, "client", lineno)?
                    .as_usize()
                    .ok_or_else(|| bad("workers"))?,
                id: field(w, "id", lineno)?
                    .as_str()
                    .ok_or_else(|| bad("workers"))?
                    .to_string(),
                speed: field(w, "speed", lineno)?
                    .as_f64()
                    .ok_or_else(|| bad("workers"))?,
            });
        }
    }
    // Optional federation metadata (per-shard traces of `ic-fed`).
    let mut fed = None;
    if let Some(f) = v.get("fed") {
        let ints = |key: &'static str| -> Result<Vec<u32>, TraceParseError> {
            field(f, key, lineno)?
                .as_arr()
                .ok_or_else(|| bad(key))?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .and_then(|x| u32::try_from(x).ok())
                        .ok_or_else(|| bad(key))
                })
                .collect()
        };
        let to_global = field(f, "to_global", lineno)?
            .as_arr()
            .ok_or_else(|| bad("to_global"))?
            .iter()
            .map(|x| x.as_u64().ok_or_else(|| bad("to_global")))
            .collect::<Result<Vec<u64>, _>>()?;
        fed = Some(FedMeta {
            shard: field(f, "shard", lineno)?
                .as_u64()
                .ok_or_else(|| bad("shard"))?,
            shards: field(f, "shards", lineno)?
                .as_u64()
                .ok_or_else(|| bad("shards"))?,
            global_nodes: field(f, "global_nodes", lineno)?
                .as_usize()
                .ok_or_else(|| bad("global_nodes"))?,
            to_global,
            stubs: ints("stubs")?,
        });
    }
    Ok(TraceHeader {
        version,
        nodes,
        arcs,
        clients,
        seed,
        policy,
        workers,
        fed,
    })
}

fn parse_event(kind: &str, v: &Json, lineno: usize) -> Result<TraceEvent, TraceParseError> {
    let bad = |key: &str| err(lineno, format!("invalid \"{key}\" field"));
    let step = field(v, "step", lineno)?
        .as_u64()
        .ok_or_else(|| bad("step"))?;
    let time = field(v, "t", lineno)?.as_f64().ok_or_else(|| bad("t"))?;
    let client = field(v, "client", lineno)?
        .as_usize()
        .ok_or_else(|| bad("client"))?;
    let kind = EventKind::from_name(kind)
        .ok_or_else(|| err(lineno, format!("unknown event type \"{kind}\"")))?;
    if kind == EventKind::Idle {
        return Ok(TraceEvent::idle(step, time, client));
    }
    let task = NodeId(
        field(v, "task", lineno)?
            .as_u64()
            .and_then(|u| u32::try_from(u).ok())
            .ok_or_else(|| bad("task"))?,
    );
    let pool = match v.get("pool") {
        Some(p) => Some(p.as_usize().ok_or_else(|| bad("pool"))?),
        None => None,
    };
    Ok(TraceEvent::on_task(kind, step, time, client, task, pool))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            header: TraceHeader {
                version: TRACE_VERSION,
                nodes: 3,
                arcs: vec![(0, 1), (0, 2)],
                clients: 2,
                seed: u64::MAX,
                policy: "FIFO \"quoted\"".into(),
                workers: vec![
                    WorkerParams {
                        client: 0,
                        id: "client-0".into(),
                        speed: 1.0,
                    },
                    WorkerParams {
                        client: 1,
                        id: "w \"fast\"".into(),
                        speed: 2.5,
                    },
                ],
                fed: None,
            },
            events: vec![
                TraceEvent::on_task(EventKind::Allocated, 0, 0.0, 0, NodeId(0), Some(0)),
                TraceEvent::idle(1, 0.0, 1),
                TraceEvent::on_task(EventKind::Completed, 2, 1.25, 0, NodeId(0), Some(2)),
                TraceEvent::on_task(EventKind::Failed, 3, 2.5, 1, NodeId(2), None),
            ],
        }
    }

    /// 64-bit FNV-1a: pins writer bytes without checking them in.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// A header over `mesh:n`'s shape: node `(i, j)`, `i + j < n`, has
    /// arcs to `(i + 1, j)` and `(i, j + 1)`.
    fn mesh_header(n: u32) -> TraceHeader {
        let mut ids = std::collections::HashMap::new();
        for i in 0..n {
            for j in 0..n - i {
                let next = ids.len() as u32;
                ids.insert((i, j), next);
            }
        }
        let mut arcs = Vec::new();
        for i in 0..n {
            for j in 0..n - i {
                for child in [(i + 1, j), (i, j + 1)] {
                    if let Some(&v) = ids.get(&child) {
                        arcs.push((ids[&(i, j)], v));
                    }
                }
            }
        }
        arcs.sort_unstable();
        TraceHeader {
            nodes: ids.len(),
            arcs,
            ..sample_trace().header
        }
    }

    /// `count` events drawn from `seed`: every kind, `pool` present and
    /// absent, edge-case times and the federation's client id.
    fn seeded_events(seed: u64, count: usize) -> Vec<TraceEvent> {
        let mut rng = ic_dag::rng::XorShift64::new(seed);
        (0..count as u64)
            .map(|step| {
                let kind = EventKind::ALL[rng.gen_range(EventKind::ALL.len())];
                let time = match rng.gen_range(5) {
                    0 => 0.0,
                    1 => 1e-7,
                    2 => 1.062745,
                    3 => rng.gen_range(1 << 20) as f64,
                    _ => rng.gen_f64() * 1e3,
                };
                let client = match rng.gen_bool(0.1) {
                    true => FED_CLIENT,
                    false => rng.gen_range(64),
                };
                let task = NodeId(match rng.gen_bool(0.05) {
                    true => u32::MAX,
                    false => rng.gen_range(1 << 20) as u32,
                });
                let pool = rng.gen_bool(0.5).then(|| rng.gen_range(1 << 20));
                match kind {
                    EventKind::Idle => TraceEvent::idle(step, time, client),
                    _ => TraceEvent::on_task(kind, step, time, client, task, pool),
                }
            })
            .collect()
    }

    /// The writer's bytes for a mesh header with workers, a federated
    /// header and 10 k seeded events, pinned by digest: a writer change
    /// that moves one byte fails here.
    #[test]
    fn writer_bytes_are_pinned() {
        let mesh = Trace {
            header: mesh_header(40),
            events: Vec::new(),
        };
        let fed = Trace {
            header: sample_trace().header.with_fed(FedMeta {
                shard: 1,
                shards: 3,
                global_nodes: 1 << 20,
                to_global: vec![0, 7, u64::MAX, 1 << 40],
                stubs: vec![0, u32::MAX],
            }),
            events: Vec::new(),
        };
        let events = Trace {
            header: sample_trace().header,
            events: seeded_events(31, 10_000),
        };
        assert_eq!(mesh.header.arcs.len(), 40 * 39);
        let digests = [&mesh, &fed, &events].map(|t| fnv1a(t.to_jsonl().as_bytes()));
        assert_eq!(
            digests,
            [
                0xA07E_4446_436D_B66C,
                0x77B1_2CA3_C31F_F620,
                0x787A_0376_B882_7D21
            ],
            "{digests:#018X?}"
        );
    }

    /// The tree path's event line.
    fn tree_event(line: &str) -> Option<TraceEvent> {
        let v = json::parse(line).ok()?;
        let kind = v.get("type")?.as_str()?;
        (kind != "header").then(|| parse_event(kind, &v, 1).ok())?
    }

    /// The tree path's header line.
    fn tree_header(line: &str) -> Option<TraceHeader> {
        let v = json::parse(line).ok()?;
        (v.get("type")?.as_str()? == "header").then(|| parse_header(&v, 1).ok())?
    }

    /// Whatever a matcher takes, the tree takes as the same value; so
    /// whatever the tree rejects, the matchers decline.
    fn assert_matchers_agree(line: &str) {
        if let Some(ev) = match_event(line.as_bytes()) {
            assert_eq!(tree_event(line), Some(ev), "{line}");
        }
        if let Some(h) = match_header(line, 1) {
            assert_eq!(tree_header(line), Some(h), "{line}");
        }
    }

    /// `read` with the matchers must give what the tree alone gives:
    /// the trace, `torn`, `valid_bytes` or the error.
    fn assert_read_agrees(text: &str) {
        let read = read_lines(text, true);
        assert_eq!(read, read_lines(text, false), "{text}");
        assert_eq!(read, read_through_a_small_buffer(text), "{text}");
    }

    /// `read` with the text behind a 7-byte `BufReader`, so that most
    /// lines straddle its buffer and are copied out, not read in place.
    fn read_through_a_small_buffer(text: &str) -> Result<TraceRead, TraceParseError> {
        let io = |e: io::Error| err(0, e.to_string());
        let input = io::BufReader::with_capacity(7, text.as_bytes());
        let (header, mut stream) = TraceStream::open(input).map_err(io)??;
        let mut events = Vec::new();
        while let Some(ev) = stream.next_event().map_err(io)?? {
            events.push(ev);
        }
        let (torn, valid_bytes) = (stream.torn, stream.valid_bytes);
        let trace = Trace { header, events };
        Ok(TraceRead {
            trace,
            torn,
            valid_bytes,
        })
    }

    /// Every fixture line but a header whose policy name holds an escape
    /// is taken by a matcher.
    #[test]
    fn the_matchers_take_the_fixture_lines_as_the_tree_does() {
        let fixture = include_str!("../tests/fixtures/trace_v3.jsonl");
        let mut trace = String::new();
        for line in fixture.lines() {
            let header = line.starts_with("{\"type\":\"header\"");
            let matched = match header {
                true => {
                    match_header(line, 1).is_some() || line.contains("\"policy\":\"SCHEDULE \\\"")
                }
                false => match_event(line.as_bytes()).is_some(),
            };
            assert!(matched, "the writer's own line is declined: {line}");
            assert_matchers_agree(line);
            // One trace per header version.
            if header && !trace.is_empty() {
                assert_read_agrees(&std::mem::take(&mut trace));
            }
            trace.push_str(line);
            trace.push('\n');
        }
        assert_read_agrees(&trace);
    }

    #[test]
    fn the_event_matcher_takes_seeded_events_as_the_tree_does() {
        let events = seeded_events(7, 5_000);
        for ev in &events {
            let line = ev.to_json_line();
            assert_eq!(match_event(line.trim_end().as_bytes()), Some(*ev), "{line}");
            assert_matchers_agree(line.trim_end());
        }
        let trace = Trace {
            header: sample_trace().header,
            events,
        };
        assert_read_agrees(&trace.to_jsonl());
        // Legal lines the writer never emits take the tree path.
        for line in [
            "{\"type\":\"alloc\",\"step\":07,\"t\":0,\"client\":0,\"task\":1}",
            "{\"type\":\"alloc\", \"step\":7,\"t\":0,\"client\":0,\"task\":1}",
            "{\"type\":\"alloc\",\"t\":0,\"step\":7,\"client\":0,\"task\":1}",
            "{\"type\":\"al\\u006coc\",\"step\":7,\"t\":0,\"client\":0,\"task\":1}",
            "{\"type\":\"idle\",\"step\":7,\"t\":-0.5e-3,\"client\":0,\"task\":99999999999}",
            "{\"type\":\"alloc\",\"step\":7,\"t\":1.,\"client\":0,\"task\":1}",
            "{\"type\":\"alloc\",\"step\":7,\"t\":1,\"client\":0,\"task\":4294967296}",
            "{\"type\":\"failresume\",\"step\":7,\"t\":1,\"client\":0,\"task\":1}",
            "{\"type\":\"fail\",\"step\":7,\"t\":1,\"client\":0,\"pool\":1}",
        ] {
            assert_matchers_agree(line);
        }
    }

    #[test]
    fn the_header_matcher_leaves_what_it_does_not_take_to_the_tree() {
        let h = |policy: &str, arcs: &str, rest: &str| {
            format!(
                "{{\"type\":\"header\",\"version\":3,\"nodes\":3,\"clients\":1,\"seed\":\"7\",\
                 \"policy\":{policy},\"arcs\":{arcs}{rest}}}"
            )
        };
        let take = [
            h("\"FIFO\"", "[]", ""),
            h("\"ic-optimal\"", "[[0,1],[4294967295,2]]", ""),
            h("\"FIFO\"", "[[0,1]]", ",\"arcs\":7,\"workers\":[]"),
        ];
        for line in &take {
            assert!(match_header(line, 1).is_some(), "{line}");
            assert_matchers_agree(line);
        }
        let decline = [
            h("\"FIFO\"", "[[4294967296,1]]", ""),
            h("\"FIFO\"", "[[0,01]]", ""),
            h("\"FIFO\"", "[[0,1] ]", ""),
            h("\"FIFO\"", "[[0,1],]", ""),
            h("\"FIFO\"", "[[0,1,2]]", ""),
            h("\"\\q\"", "[[0,1]]", ""),
            h("\"a \\\"q\\\" \\\\\"", "[[0,1]]", ""),
            h("\"\\u0041\"", "[[0,1]]", ""),
            h("\"FIFO\"", "[[0,1]]", ",\"workers\":7"),
        ];
        for line in &decline {
            assert!(match_header(line, 1).is_none(), "{line}");
        }
    }

    /// Every tear, flipped byte, dropped byte and spliced pair of lines
    /// of a header-and-events trace reads the same with the matchers as
    /// with the tree alone.
    #[test]
    fn mutants_read_as_the_tree_reads_them() {
        let mut t = sample_trace();
        t.header.arcs = mesh_header(4).arcs;
        t.header.nodes = 10;
        t.header.policy = "ic-optimal".into();
        t.header.fed = Some(FedMeta {
            shard: 0,
            shards: 2,
            global_nodes: 20,
            to_global: (0..10).collect(),
            stubs: vec![3],
        });
        t.events = seeded_events(3, 6);
        let text = t.to_jsonl();
        assert!(text.is_ascii());
        let mutate = |i: usize, with: &[u8]| {
            let mut bytes = text.as_bytes().to_vec();
            bytes.splice(i..i + 1, with.iter().copied());
            String::from_utf8(bytes).unwrap()
        };
        for i in 0..text.len() {
            assert_read_agrees(&text[..i]);
            assert_read_agrees(&mutate(i, b""));
            for b in b"\"\\,[]{}:-0 9e.\nx" {
                let m = mutate(i, &[*b]);
                assert_read_agrees(&m);
                m.lines().for_each(assert_matchers_agree);
            }
        }
        let lines: Vec<&str> = text.lines().collect();
        for a in &lines {
            for b in &lines {
                for cut in [a.len() / 3, a.len() / 2, a.len() - 1] {
                    let spliced = format!("{}{}", &a[..cut], &b[b.len().min(cut)..]);
                    assert_matchers_agree(&spliced);
                    assert_read_agrees(&format!("{}\n{spliced}\n", lines[0]));
                }
            }
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let t = sample_trace();
        let text = t.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn fed_metadata_round_trips_and_stays_optional() {
        let mut t = sample_trace();
        t.header.fed = Some(FedMeta {
            shard: 1,
            shards: 2,
            global_nodes: 6,
            to_global: vec![3, 4, 5],
            stubs: vec![0],
        });
        let back = Trace::from_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(back, t);
        // A shard header written before the federation had one cut
        // rule still carries `"replicas"`: it parses, and the key is
        // ignored.
        let text = t.to_jsonl();
        let old = text.replacen("\"stubs\":[0]", "\"stubs\":[0],\"replicas\":[2]", 1);
        assert_ne!(old, text);
        assert_eq!(Trace::from_jsonl(&old).unwrap(), t);
        assert_read_agrees(&old);
        // A header without the field parses with `fed: None` — the
        // extension is additive in both directions.
        let plain = Trace::from_jsonl(&sample_trace().to_jsonl()).unwrap();
        assert_eq!(plain.header.fed, None);
        // And an unknown-field-tolerant v2 consumer sees valid JSON:
        // the fed object rides inside the one header line.
        assert_eq!(t.to_jsonl().lines().next().unwrap().matches('{').count(), {
            // header object + workers objects + fed object
            1 + t.header.workers.len() + 1
        });
    }

    #[test]
    fn v3_lease_events_round_trip_and_stay_out_of_the_orders() {
        let mut t = sample_trace();
        t.events.extend([
            TraceEvent::on_task(EventKind::Resumed, 4, 3.0, 0, NodeId(1), None),
            TraceEvent::on_task(EventKind::Speculated, 5, 3.5, 1, NodeId(1), Some(0)),
            TraceEvent::on_task(EventKind::Speculated, 6, 3.75, 0, NodeId(2), None),
            TraceEvent::on_task(EventKind::Revoked, 7, 4.0, 1, NodeId(1), None),
        ]);
        let back = Trace::from_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(back, t);
        // Lease-lifecycle events are not allocations or completions.
        assert_eq!(t.allocation_order(), vec![NodeId(0)]);
        assert_eq!(t.completion_order(), vec![NodeId(0)]);
    }

    #[test]
    fn version1_headers_parse_with_empty_workers() {
        let v1 = "{\"type\":\"header\",\"version\":1,\"nodes\":2,\"clients\":1,\
                  \"seed\":\"7\",\"policy\":\"FIFO\",\"arcs\":[[0,1]]}\n";
        let t = Trace::from_jsonl(v1).unwrap();
        assert!(t.header.workers.is_empty());
        assert_eq!(t.header.nodes, 2);
    }

    #[test]
    fn file_sink_streams_a_parseable_trace() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("ic-sim-filesink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
        let mut sink = FileSink::create(&path).unwrap();
        sink.header(&t.header);
        for ev in &t.events {
            sink.record(ev);
        }
        sink.finish().unwrap();
        let back = Trace::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, t);
    }

    #[test]
    fn file_sink_killed_mid_run_leaves_a_replayable_trace() {
        // Simulate a SIGKILL inside a poll round: the sink is leaked
        // (destructor never runs, like a killed process), and the
        // bytes on disk must still parse as a trace — everything up to
        // the last `flush()` survives, everything after it is lost as
        // *whole lines*, never a corrupt one.
        let t = sample_trace();
        let dir = std::env::temp_dir().join("ic-sim-filesink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-kill-{}.jsonl", std::process::id()));
        let mut sink = FileSink::create(&path).unwrap();
        sink.header(&t.header);
        sink.record(&t.events[0]);
        sink.record(&t.events[1]);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            0,
            "header and record only buffer — state-bearing events included"
        );
        sink.flush().unwrap(); // the round's group commit
        sink.record(&t.events[2]); // the next round: never flushed
        sink.record(&t.events[3]);
        std::mem::forget(sink);
        let back = Trace::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.header, t.header);
        assert_eq!(back.events, vec![t.events[0], t.events[1]]);
    }

    #[test]
    fn file_sink_spills_early_once_the_batch_fills() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("ic-sim-filesink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-batch-{}.jsonl", std::process::id()));
        let mut sink = FileSink::create(&path).unwrap();
        sink.header(&t.header);
        // With no `flush()` at all, lines still reach the file once
        // BATCH_BYTES of them are buffered — and only whole ones.
        let mut recorded = 0;
        while std::fs::metadata(&path).unwrap().len() == 0 {
            sink.record(&t.events[0]);
            recorded += 1;
        }
        assert!(recorded * t.events[0].to_json_line().len() >= FileSink::BATCH_BYTES / 2);
        sink.record(&t.events[2]); // buffered behind the spill: lost
        std::mem::forget(sink);
        let back = Trace::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.events, vec![t.events[0]; recorded]);
    }

    /// `count` events in runs that share one `t`, as a read's events
    /// share its clock reading: `A, A, B, A` first, then `+0.0` and
    /// `-0.0` (equal under `==`, written `0` and `-0`), then seeded runs
    /// of every kind, idle ones included, over a small set of times.
    fn events_in_runs(seed: u64, count: usize) -> Vec<TraceEvent> {
        let mut rng = ic_dag::rng::XorShift64::new(seed);
        let mut times = vec![1.25, 1.25, 0.5, 1.25, 0.0, -0.0, 0.0, -0.0];
        let palette = [0.0, -0.0, 1e-7, 1.062745, 2.5, 1e21];
        while times.len() < count {
            let t = match rng.gen_bool(0.5) {
                true => palette[rng.gen_range(palette.len())],
                false => rng.gen_f64() * 1e3,
            };
            let run = 1 + rng.gen_range(64);
            times.extend(std::iter::repeat_n(t, run));
        }
        let mut events = seeded_events(seed, count);
        for (ev, t) in events.iter_mut().zip(times) {
            ev.time = t;
        }
        events[2] = TraceEvent::idle(2, events[2].time, 5);
        events
    }

    /// The bytes a [`FileSink`] leaves on disk, lines spilled early and
    /// flushed every 97 events, for `events` after `header`; the header
    /// is written by one sink and the events by an appending one when
    /// `append` is set, as recovery continues a WAL.
    fn file_sink_bytes(header: &TraceHeader, events: &[TraceEvent], append: bool) -> Vec<u8> {
        let dir = std::env::temp_dir().join("ic-sim-filesink-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Tests run in parallel: each call writes its own file.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = dir.join(format!("trace-bytes-{call}-{}.jsonl", std::process::id()));
        let mut sink = FileSink::create(&path).unwrap();
        sink.header(header);
        // The header went out in pieces: whatever the dag's size, the
        // buffer holds at most one batch and the entry that filled it.
        assert!(sink.buf.capacity() <= 2 * FileSink::BATCH_BYTES);
        if append {
            sink.finish().unwrap();
            sink = FileSink::append(&path).unwrap();
        }
        for (i, ev) in events.iter().enumerate() {
            sink.record(ev);
            if i % 97 == 96 {
                sink.flush().unwrap();
            }
        }
        sink.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    /// A sink, created or appending, writes exactly the lines
    /// `to_json_line` writes one at a time, and `Trace::to_jsonl` writes
    /// the same, whatever runs of equal times the events come in.
    #[test]
    fn file_sink_bytes_are_the_line_writers_bytes() {
        let trace = Trace {
            header: sample_trace().header,
            events: events_in_runs(41, 4_000),
        };
        let mut lines = trace.header.to_json_line();
        for ev in &trace.events {
            lines.push_str(&ev.to_json_line());
        }
        assert!(lines.contains(",\"t\":0,") && lines.contains(",\"t\":-0,"));
        assert!(
            lines.len() > 4 * FileSink::BATCH_BYTES,
            "the sink spills early"
        );
        assert_eq!(trace.to_jsonl(), lines);
        for append in [false, true] {
            let bytes = file_sink_bytes(&trace.header, &trace.events, append);
            assert!(bytes == lines.as_bytes(), "append: {append}");
        }
    }

    /// A header many batches long — a mesh's arcs, a federated shard's
    /// `to_global` — reaches the file as the line writers write it,
    /// and the events after it too.
    #[test]
    fn file_sink_writes_a_many_batch_header_as_the_line_writers_do() {
        let mesh = mesh_header(100);
        let fed = sample_trace().header.with_fed(FedMeta {
            shard: 2,
            shards: 4,
            global_nodes: 1 << 40,
            to_global: (0..8_000).map(|i| (1 << 33) + 7 * i).collect(),
            stubs: (0..3_000).collect(),
        });
        let to_global = fed.fed.as_ref().unwrap().to_global.len() * 11;
        assert!(to_global > FileSink::BATCH_BYTES, "to_global spans batches");
        for header in [mesh, fed] {
            let trace = Trace {
                header,
                events: events_in_runs(43, 500),
            };
            let mut lines = trace.header.to_json_line();
            assert!(lines.len() > 6 * FileSink::BATCH_BYTES, "{}", lines.len());
            for ev in &trace.events {
                lines.push_str(&ev.to_json_line());
            }
            assert_eq!(trace.to_jsonl(), lines);
            for append in [false, true] {
                let bytes = file_sink_bytes(&trace.header, &trace.events, append);
                assert!(bytes == lines.as_bytes(), "append: {append}");
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn file_sink_write_errors_surface_at_flush_and_stay_sticky() {
        // `/dev/full` opens fine and fails every write with ENOSPC.
        let t = sample_trace();
        let mut sink = FileSink::create("/dev/full").unwrap();
        sink.header(&t.header);
        sink.record(&t.events[0]);
        let e = sink.flush().expect_err("the disk is full");
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        sink.record(&t.events[2]);
        assert!(sink.flush().is_err(), "nothing is written past an error");
        assert!(sink.finish().is_err());
    }

    #[test]
    fn dag_rebuilds_from_header() {
        let t = sample_trace();
        let g = t.dag().unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.arcs().count(), 2);
    }

    #[test]
    fn orders_extract() {
        let t = sample_trace();
        assert_eq!(t.allocation_order(), vec![NodeId(0)]);
        assert_eq!(t.completion_order(), vec![NodeId(0)]);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = Trace::from_jsonl("").unwrap_err();
        assert_eq!(e.line, 0);
        let e = Trace::from_jsonl("{\"type\":\"alloc\"}\n").unwrap_err();
        assert_eq!(e.line, 1);
        let good = sample_trace().to_jsonl();
        let bad = format!("{good}{{\"type\":\"warp\",\"step\":9,\"t\":0,\"client\":0}}\n");
        let e = Trace::from_jsonl(&bad).unwrap_err();
        assert!(e.message.contains("unknown event type"), "{e}");
    }
}
