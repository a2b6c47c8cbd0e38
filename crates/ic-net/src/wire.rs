//! The length-prefixed JSON wire protocol.
//!
//! Every message on the wire is one *frame*: a 4-byte big-endian byte
//! length followed by that many bytes of UTF-8 JSON encoding a single
//! [`Message`]. Frames are bounded by [`MAX_FRAME`] so a corrupt or
//! hostile length prefix cannot make the peer allocate unbounded
//! memory; every decoding failure is a typed [`WireError`], never a
//! panic — a server must survive garbage from the network.
//!
//! Each message is an object whose `"type"` field selects the variant,
//! e.g. `{"type":"assign","tasks":[17]}`. [`Message::write_json`]
//! writes bodies straight into the output buffer. On the way in, the
//! per-task frames (`request`, `done`, `ack`, `assign`) are matched
//! byte for byte in the exact shape `write_json` emits, with no tree
//! built. Every other body, a legal variant of those four included
//! (whitespace, reordered keys, a leading zero), takes the workspace's
//! own JSON parser ([`ic_sim::json`], no external dependency) and
//! [`Message::from_json`], which alone decides what is accepted and
//! which [`WireError`] a rejected frame gets.
//!
//! # Protocol versions
//!
//! There is one worker protocol, version 2 ([`PROTO_CURRENT`]): resume
//! tokens (`hello.resume` / `welcome.resume`, and the `welcome.tasks`
//! list of leases restored on a resume), batched allocation
//! (`request.max`, `assign.tasks`), the `revoke` frame cancelling a
//! lease the worker lost, and the machine-readable `error.code`. The
//! version is checked once, at `hello`: a worker offering less is
//! refused with `error{code:"unsupported"}` and the connection closed.
//! So that an old peer gets that typed frame rather than a decode
//! failure, the decoder still reads an absent `proto` as 1, an absent
//! `request.max` as 1, and an absent `error.code` as `""`.
//!
//! The *inter-server* federation frames — `peer-hello`, `remote-done`,
//! `peer-drain` — are exchanged only on shard-to-shard links of a
//! federated run (`ic-fed`). They are additive message *types* on the
//! same framing layer, versioned on their own as [`PROTO_V3`] in
//! `peer-hello`; workers never see them.
//!
//! # Buffer-oriented API
//!
//! The reactor and the worker client share one framing path:
//! [`Frame::encode_into`] appends frames onto a caller-owned output
//! buffer (so one `write` can carry many frames), and the incremental
//! [`Decoder`] accepts transport bytes in whatever chunks the socket
//! yields ([`Decoder::feed`]) and hands back complete messages
//! ([`Decoder::next_msg`]). [`Conn`] wraps the pair around a blocking
//! `TcpStream` for peers that talk to the server one frame at a time:
//! the worker client and the scripted peers of the tests.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use ic_sim::json::{self, json_string, num, Cursor, Json};

/// Upper bound on a frame's JSON payload, in bytes (1 MiB). A length
/// prefix above this is rejected before any allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Protocol 3: the *inter-server* federation frames (`peer-hello`,
/// `remote-done`, `peer-drain`) exchanged between shards of a
/// federated run. Workers never see them — [`PROTO_CURRENT`] stays at
/// 2, so every existing worker keeps working unchanged; the v3 frames
/// are additive message types on the same framing layer.
pub const PROTO_V3: u32 = 3;

/// The protocol version this build speaks *to workers* (resume tokens,
/// batched `assign`, `revoke`, typed error codes), and the lowest a
/// `hello` may offer. Peer (shard-to-shard) links speak [`PROTO_V3`]
/// on top of the same frames.
pub const PROTO_CURRENT: u32 = 2;

/// The machine-readable [`Message::Error`] code sent when a `hello`
/// offers a protocol below [`PROTO_CURRENT`].
pub const ERR_UNSUPPORTED: &str = "unsupported";

/// The [`Message::Error`] code sent when a resume token is unknown or
/// already superseded — the worker must register fresh.
pub const ERR_BAD_RESUME: &str = "bad-resume";

/// Every message either side may send. Client→server: [`Hello`],
/// [`Request`], [`Done`], [`Heartbeat`], [`Bye`]. Server→client:
/// [`Welcome`], [`Assign`], [`Wait`], [`Drain`], [`Ack`], [`Revoke`],
/// [`Error`]. Server↔server (v3 peer links only): [`PeerHello`],
/// [`RemoteDone`], [`PeerDrain`].
///
/// [`Hello`]: Message::Hello
/// [`Request`]: Message::Request
/// [`Done`]: Message::Done
/// [`Heartbeat`]: Message::Heartbeat
/// [`Bye`]: Message::Bye
/// [`Welcome`]: Message::Welcome
/// [`Assign`]: Message::Assign
/// [`Wait`]: Message::Wait
/// [`Drain`]: Message::Drain
/// [`Ack`]: Message::Ack
/// [`Revoke`]: Message::Revoke
/// [`Error`]: Message::Error
/// [`PeerHello`]: Message::PeerHello
/// [`RemoteDone`]: Message::RemoteDone
/// [`PeerDrain`]: Message::PeerDrain
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker registration: a display id and the worker's declared
    /// speed factor (recorded in the trace header).
    Hello {
        /// Worker-chosen display id.
        id: String,
        /// Declared speed factor (1.0 = baseline).
        speed: f64,
        /// Highest protocol version the worker speaks. Decodes as 1
        /// when absent, which the server refuses as `unsupported`.
        proto: u32,
        /// Resume token from a previous `welcome`: reconnect to the
        /// same worker slot, keeping its leases.
        resume: Option<String>,
    },
    /// Worker asks for work.
    Request {
        /// Maximum number of tasks the worker will accept in one
        /// `assign` (its batch appetite). Decodes as 1 when absent; a
        /// server never sends more tasks than the worker asked for.
        max: u64,
    },
    /// Worker reports the outcome of one leased task. `ok = false`
    /// voluntarily returns the task for reallocation.
    Done {
        /// The task's node index.
        task: u64,
        /// Whether the task was computed successfully.
        ok: bool,
    },
    /// Worker renews the lease on a long-running task.
    Heartbeat {
        /// The task's node index.
        task: u64,
    },
    /// Worker disconnects deliberately.
    Bye,
    /// Server accepts a registration (or a resume).
    Welcome {
        /// The worker index the server assigned (the `client` field of
        /// subsequent trace events).
        worker: u64,
        /// Lease duration: a leased task whose worker neither reports
        /// nor heartbeats within this window is reallocated.
        lease_ms: u64,
        /// The protocol version of this session ([`PROTO_CURRENT`]).
        /// Decodes as 1 when absent.
        proto: u32,
        /// Fresh resume token for this connection (rotated on every
        /// reconnect, so a stale token cannot hijack the slot).
        resume: Option<String>,
        /// On a resume: the tasks this worker still holds leases on
        /// (heartbeat clocks restored). Empty on a fresh registration.
        tasks: Vec<u64>,
    },
    /// Server allocates one or more tasks to the requesting worker,
    /// never more than its `request.max`. Always written as the
    /// `"tasks":[...]` list, whatever its length.
    Assign {
        /// The leased tasks' node indices (never empty).
        tasks: Vec<u64>,
    },
    /// No task is allocatable right now; ask again after `ms`.
    Wait {
        /// Suggested retry delay in milliseconds.
        ms: u64,
    },
    /// The dag is complete (or completing without needing this worker);
    /// the worker should disconnect.
    Drain,
    /// Server acknowledges a `Done` or `Heartbeat`. `accepted = false`
    /// means the report was late or duplicate and was discarded.
    Ack {
        /// The task's node index.
        task: u64,
        /// Whether the report was applied.
        accepted: bool,
    },
    /// Server cancels the worker's (speculative) lease on `task`:
    /// another worker already completed it. The worker abandons the
    /// task without reporting.
    Revoke {
        /// The task's node index.
        task: u64,
    },
    /// Protocol error; the server closes the connection after sending.
    Error {
        /// Machine-readable code (e.g. [`ERR_UNSUPPORTED`]); empty for
        /// generic protocol violations.
        code: String,
        /// Human-readable reason.
        msg: String,
    },
    /// Shard↔shard link handshake (v3, both directions on link-up).
    /// Each side declares who it is and which federated run it belongs
    /// to; a mismatch in `shards` or `nodes` means the peers were
    /// launched over different partitions and the link must be dropped.
    PeerHello {
        /// The sender's shard index (`0..shards`).
        shard: u64,
        /// Total shard count of the federated run.
        shards: u64,
        /// Node count of the *global* dag being federated.
        nodes: u64,
        /// Peer-protocol version ([`PROTO_V3`]).
        proto: u32,
    },
    /// Remote completion notification (v3): the sending shard has
    /// executed global task `task`. Receivers treat it as the
    /// completion of their local stub of that task.
    /// Idempotent — a shard replays its full completed-boundary backlog
    /// after a link re-establishes, and duplicates are ignored.
    RemoteDone {
        /// The task's *global* node index.
        task: u64,
        /// The completing shard (for the merged-trace audit trail).
        shard: u64,
    },
    /// Shard drain barrier (v3): the sending shard has executed every
    /// local task and needs nothing further from this peer. A shard
    /// exits once it is complete and has received `peer-drain` from
    /// every peer (or a linger timeout expires).
    PeerDrain {
        /// The sender's shard index.
        shard: u64,
    },
}

impl Message {
    /// A fresh `hello` (current protocol, no resume token).
    pub fn hello(id: impl Into<String>, speed: f64) -> Message {
        Message::Hello {
            id: id.into(),
            speed,
            proto: PROTO_CURRENT,
            resume: None,
        }
    }

    /// A single-task `request`.
    pub fn request() -> Message {
        Message::Request { max: 1 }
    }

    /// A single-task `assign`.
    pub fn assign(task: u64) -> Message {
        Message::Assign { tasks: vec![task] }
    }

    /// An `error` frame with no machine-readable code.
    pub fn error(msg: impl Into<String>) -> Message {
        Message::Error {
            code: String::new(),
            msg: msg.into(),
        }
    }

    /// The JSON object body of a frame ([`Message::write_json`]).
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_json(&mut out);
        String::from_utf8(out).unwrap_or_default()
    }

    /// Append the JSON object body of a frame onto `out`: the one body
    /// writer. Keys come in a fixed order with no whitespace, numbers
    /// in plain decimal, and optional fields only when set — the bytes
    /// the decoder's fast path matches.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        let flag = |b: bool| if b { "true" } else { "false" };
        match self {
            Message::Hello {
                id,
                speed,
                proto,
                resume,
            } => {
                field(out, "{\"type\":\"hello\",\"id\":", &json_string(id));
                field(out, ",\"speed\":", &fmt_f64(*speed));
                num(out, ",\"proto\":", u64::from(*proto));
                if let Some(tok) = resume {
                    field(out, ",\"resume\":", &json_string(tok));
                }
            }
            Message::Request { max } => {
                field(out, "{\"type\":\"request\"", "");
                if *max > 1 {
                    num(out, ",\"max\":", *max);
                }
            }
            Message::Done { task, ok } => {
                num(out, "{\"type\":\"done\",\"task\":", *task);
                field(out, ",\"ok\":", flag(*ok));
            }
            Message::Heartbeat { task } => num(out, "{\"type\":\"heartbeat\",\"task\":", *task),
            Message::Bye => field(out, "{\"type\":\"bye\"", ""),
            Message::Welcome {
                worker,
                lease_ms,
                proto,
                resume,
                tasks,
            } => {
                num(out, "{\"type\":\"welcome\",\"worker\":", *worker);
                num(out, ",\"lease_ms\":", *lease_ms);
                num(out, ",\"proto\":", u64::from(*proto));
                if let Some(tok) = resume {
                    field(out, ",\"resume\":", &json_string(tok));
                }
                if !tasks.is_empty() {
                    list(out, ",\"tasks\":", tasks);
                }
            }
            Message::Assign { tasks } => {
                debug_assert!(!tasks.is_empty(), "assign carries at least one task");
                list(out, "{\"type\":\"assign\",\"tasks\":", tasks);
            }
            Message::Wait { ms } => num(out, "{\"type\":\"wait\",\"ms\":", *ms),
            Message::Drain => field(out, "{\"type\":\"drain\"", ""),
            Message::Ack { task, accepted } => {
                num(out, "{\"type\":\"ack\",\"task\":", *task);
                field(out, ",\"accepted\":", flag(*accepted));
            }
            Message::Revoke { task } => num(out, "{\"type\":\"revoke\",\"task\":", *task),
            Message::Error { code, msg } => {
                field(out, "{\"type\":\"error\"", "");
                if !code.is_empty() {
                    field(out, ",\"code\":", &json_string(code));
                }
                field(out, ",\"msg\":", &json_string(msg));
            }
            Message::PeerHello {
                shard,
                shards,
                nodes,
                proto,
            } => {
                num(out, "{\"type\":\"peer-hello\",\"shard\":", *shard);
                num(out, ",\"shards\":", *shards);
                num(out, ",\"nodes\":", *nodes);
                num(out, ",\"proto\":", u64::from(*proto));
            }
            Message::RemoteDone { task, shard } => {
                num(out, "{\"type\":\"remote-done\",\"task\":", *task);
                num(out, ",\"shard\":", *shard);
            }
            Message::PeerDrain { shard } => num(out, "{\"type\":\"peer-drain\",\"shard\":", *shard),
        }
        out.push(b'}');
    }

    /// Decode a frame body. Any structural problem — not an object, an
    /// unknown `"type"`, a missing or mistyped field — is
    /// [`WireError::Malformed`]. `proto`, `request.max` and
    /// `error.code` have defaults when absent (see the module docs).
    pub fn from_json(v: &Json) -> Result<Message, WireError> {
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| malformed("message has no \"type\" field"))?;
        let uint = |key: &str, why: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| malformed(why))
        };
        let task = || uint("task", "missing numeric \"task\"");
        let shard = || uint("shard", "missing numeric \"shard\"");
        // Optional `proto`: absent means 1, so a peer that predates the
        // field is refused by version, not by syntax; present but
        // mistyped is malformed.
        let proto = || match v.get("proto") {
            None => Ok(1),
            Some(p) => p
                .as_u64()
                .and_then(|p| u32::try_from(p).ok())
                .ok_or_else(|| malformed("non-numeric \"proto\"")),
        };
        let resume = || match v.get("resume") {
            None => Ok(None),
            Some(t) => t
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| malformed("non-string \"resume\"")),
        };
        match kind {
            "hello" => Ok(Message::Hello {
                id: v
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| malformed("hello without string \"id\""))?
                    .to_string(),
                speed: v
                    .get("speed")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| malformed("hello without numeric \"speed\""))?,
                proto: proto()?,
                resume: resume()?,
            }),
            "request" => Ok(Message::Request {
                max: match v.get("max") {
                    None => 1,
                    Some(m) => m
                        .as_u64()
                        .filter(|&m| m >= 1)
                        .ok_or_else(|| malformed("request with invalid \"max\""))?,
                },
            }),
            "done" => Ok(Message::Done {
                task: task()?,
                ok: match v.get("ok") {
                    Some(Json::Bool(b)) => *b,
                    _ => return Err(malformed("done without boolean \"ok\"")),
                },
            }),
            "heartbeat" => Ok(Message::Heartbeat { task: task()? }),
            "bye" => Ok(Message::Bye),
            "welcome" => Ok(Message::Welcome {
                worker: uint("worker", "welcome without numeric \"worker\"")?,
                lease_ms: uint("lease_ms", "welcome without numeric \"lease_ms\"")?,
                proto: proto()?,
                resume: resume()?,
                tasks: match v.get("tasks") {
                    None => Vec::new(),
                    Some(list) => task_list(list)?,
                },
            }),
            "assign" => {
                let list = v
                    .get("tasks")
                    .ok_or_else(|| malformed("assign without a \"tasks\" list"))?;
                let tasks = task_list(list)?;
                if tasks.is_empty() {
                    return Err(malformed("assign with an empty \"tasks\" list"));
                }
                Ok(Message::Assign { tasks })
            }
            "wait" => Ok(Message::Wait {
                ms: uint("ms", "wait without numeric \"ms\"")?,
            }),
            "drain" => Ok(Message::Drain),
            "ack" => Ok(Message::Ack {
                task: task()?,
                accepted: match v.get("accepted") {
                    Some(Json::Bool(b)) => *b,
                    _ => return Err(malformed("ack without boolean \"accepted\"")),
                },
            }),
            "revoke" => Ok(Message::Revoke { task: task()? }),
            "error" => Ok(Message::Error {
                code: v
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                msg: v
                    .get("msg")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            "peer-hello" => Ok(Message::PeerHello {
                shard: shard()?,
                shards: uint("shards", "peer-hello without numeric \"shards\"")?,
                nodes: uint("nodes", "peer-hello without numeric \"nodes\"")?,
                proto: proto()?,
            }),
            "remote-done" => Ok(Message::RemoteDone {
                task: task()?,
                shard: shard()?,
            }),
            "peer-drain" => Ok(Message::PeerDrain { shard: shard()? }),
            other => Err(malformed(&format!("unknown message type \"{other}\""))),
        }
    }
}

/// Append `key` (the literal up to and including its colon) and a
/// value already in JSON form.
fn field(out: &mut Vec<u8>, key: &str, value: &str) {
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(value.as_bytes());
}

/// Append `key` and task ids as a JSON list: `[1,2,3]`.
fn list(out: &mut Vec<u8>, key: &str, tasks: &[u64]) {
    field(out, key, "[");
    for (i, &task) in tasks.iter().enumerate() {
        num(out, if i == 0 { "" } else { "," }, task);
    }
    out.push(b']');
}

/// The four per-task frames exactly as [`Message::write_json`] writes
/// them, without a [`Json`] tree; `None` sends any other body down the
/// tree path, which accepts each of these as the same message.
fn decode_per_task(body: &[u8]) -> Option<Message> {
    let mut at = Cursor(body.strip_prefix(b"{\"type\":\"")?);
    let msg = if at.eat(b"done\",\"task\":") {
        let (task, ok) = num_flag(&mut at, b",\"ok\":")?;
        Message::Done { task, ok }
    } else if at.eat(b"ack\",\"task\":") {
        let (task, accepted) = num_flag(&mut at, b",\"accepted\":")?;
        Message::Ack { task, accepted }
    } else if at.eat(b"assign\",\"tasks\":[") {
        let mut tasks = vec![at.num()?];
        while at.eat(b",") {
            tasks.push(at.num()?);
        }
        at.eat(b"]").then_some(Message::Assign { tasks })?
    } else if at.eat(b"request\"") {
        let max = match at.eat(b",\"max\":") {
            true => at.num().filter(|&m| m >= 1)?,
            false => 1,
        };
        Message::Request { max }
    } else {
        return None;
    };
    (at.0 == b"}").then_some(msg)
}

/// A number, then `key`, then `true` or `false`.
fn num_flag(at: &mut Cursor<'_>, key: &[u8]) -> Option<(u64, bool)> {
    let n = at.num()?;
    let flag = if !at.eat(key) {
        None
    } else if at.eat(b"true") {
        Some(true)
    } else {
        at.eat(b"false").then_some(false)
    };
    Some((n, flag?))
}

fn task_list(list: &Json) -> Result<Vec<u64>, WireError> {
    list.as_arr()
        .ok_or_else(|| malformed("\"tasks\" is not a list"))?
        .iter()
        .map(|t| {
            t.as_u64()
                .ok_or_else(|| malformed("non-numeric entry in \"tasks\""))
        })
        .collect()
}

/// `f64` in a form the JSON parser reads back exactly (Rust's shortest
/// round-trip `Display`, with a forced `.0` for integral values so the
/// output is unambiguously a number with a fraction).
fn fmt_f64(x: f64) -> String {
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) || s == "NaN" || s.contains("inf") {
        // NaN/inf are not valid JSON; callers never send them (speeds
        // are validated positive finite), but keep the encoder total.
        if x.is_finite() {
            s
        } else {
            "0".into()
        }
    } else {
        format!("{s}.0")
    }
}

fn malformed(msg: &str) -> WireError {
    WireError::Malformed(msg.to_string())
}

/// Everything that can be wrong with a received frame. Each is a
/// protocol violation the decoder survives without panicking; a
/// transport failure is the caller's `io::Error`, not a `WireError`.
#[derive(Debug)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The payload is not valid JSON (or not valid UTF-8).
    Garbage(String),
    /// The payload is JSON but not a protocol message.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            WireError::Garbage(e) => write!(f, "frame is not JSON: {e}"),
            WireError::Malformed(e) => write!(f, "frame is not a protocol message: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Buffer-oriented frame encoder: the namespace for appending frames
/// onto a caller-owned byte buffer instead of writing (and flushing)
/// one stream frame at a time. The reactor batches every reply due on
/// a connection into one buffer and hands it to the poller whole; the
/// worker client encodes into its session buffer and writes once.
pub struct Frame;

impl Frame {
    /// Append `msg` as one length-prefixed frame onto `out` and return
    /// the number of bytes appended. Nothing is appended (returning 0)
    /// in the unrepresentable case of a body above `u32::MAX` bytes —
    /// callers keep bodies within [`MAX_FRAME`], which is
    /// debug-asserted here.
    pub fn encode_into(msg: &Message, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        msg.write_json(out);
        let body = out.len() - start - 4;
        debug_assert!(body <= MAX_FRAME, "outgoing frame within bounds");
        let Ok(len) = u32::try_from(body) else {
            out.truncate(start);
            return 0;
        };
        out[start..start + 4].copy_from_slice(&len.to_be_bytes());
        4 + body
    }
}

/// Incremental frame decoder for nonblocking transports: [`feed`] it
/// whatever byte chunks the socket yields — partial frames, many
/// frames at once, a length prefix split across reads — and drain
/// complete messages with [`next_msg`]. An oversized length prefix is
/// rejected as soon as its 4 bytes arrive, before any body is
/// buffered, so a hostile prefix cannot make the peer allocate.
///
/// [`feed`]: Decoder::feed
/// [`next_msg`]: Decoder::next_msg
#[derive(Debug, Default, Clone)]
pub struct Decoder {
    buf: Vec<u8>,
    start: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Append raw transport bytes. Consumed frames are compacted away
    /// lazily, so long-lived connections do not grow the buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet decoded into a message.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decode the next complete frame, if one is buffered.
    ///
    /// * `Ok(Some(msg))` — one frame consumed; call again, a single
    ///   `feed` may have delivered several.
    /// * `Ok(None)` — no complete frame yet; feed more bytes.
    /// * `Err(_)` — the prefix was oversized or the payload was not a
    ///   protocol message. The broken frame is consumed, but on a
    ///   protocol as fragile as length-prefixed JSON the only safe
    ///   reaction is to drop the connection.
    pub fn next_msg(&mut self) -> Result<Option<Message>, WireError> {
        let avail = &self.buf[self.start..];
        let Some(len_buf) = avail.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*len_buf) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized(len));
        }
        let Some(body) = avail.get(4..4 + len) else {
            return Ok(None);
        };
        let parsed = match decode_per_task(body) {
            Some(msg) => Ok(msg),
            None => std::str::from_utf8(body)
                .map_err(|e| WireError::Garbage(e.to_string()))
                .and_then(|text| json::parse(text).map_err(WireError::Garbage))
                .and_then(|v| Message::from_json(&v)),
        };
        self.start += 4 + len;
        parsed.map(Some)
    }
}

/// One blocking framed TCP connection: [`Frame`] on the way out, a
/// [`Decoder`] on the way in — the same framing code the reactor runs
/// on its side of the wire. The worker client and the scripted peers
/// of the end-to-end tests all speak through this.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    dec: Decoder,
    /// Reusable encode buffer.
    wbuf: Vec<u8>,
}

impl Conn {
    /// Connect to `addr` (Nagle off: frames are small and answered
    /// one at a time).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            dec: Decoder::new(),
            wbuf: Vec::new(),
        })
    }

    /// Encode and transmit one frame.
    pub fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.wbuf.clear();
        Frame::encode_into(msg, &mut self.wbuf);
        self.stream.write_all(&self.wbuf)
    }

    /// Block until the next complete frame arrives. A peer that hangs
    /// up — between frames or inside one — is `UnexpectedEof`; a
    /// [`WireError`] arrives as `InvalidData`.
    pub fn recv(&mut self) -> io::Result<Message> {
        loop {
            if let Some(msg) = self.dec.next_msg()? {
                return Ok(msg);
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.dec.feed(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame holding exactly `body`, framed by hand so hostile
    /// bodies the encoder would never emit can be fed to a decoder.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        buf
    }

    /// Decode the single frame in `buf`.
    fn decode(buf: &[u8]) -> Result<Option<Message>, WireError> {
        let mut dec = Decoder::new();
        dec.feed(buf);
        dec.next_msg()
    }

    #[test]
    fn decoder_reassembles_frames_from_arbitrary_chunks() {
        let msgs = [
            Message::hello("worker \"zero\"", 2.5),
            Message::Request { max: 4 },
            Message::Assign {
                tasks: vec![1, 2, 3],
            },
            Message::Drain,
            Message::Error {
                code: ERR_BAD_RESUME.into(),
                msg: "stale".into(),
            },
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            assert!(Frame::encode_into(m, &mut stream) > 0);
        }
        // Feed the whole stream one byte at a time: every frame must
        // come out exactly once, in order, across split length
        // prefixes and split bodies.
        for chunk in [1usize, 3, 7, stream.len()] {
            let mut dec = Decoder::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                dec.feed(piece);
                while let Some(m) = dec.next_msg().unwrap() {
                    got.push(m);
                }
            }
            assert_eq!(got, msgs, "chunk size {chunk}");
            assert_eq!(dec.pending(), 0, "chunk size {chunk}");
        }
    }

    #[test]
    fn decoder_rejects_an_oversized_prefix_before_the_body_arrives() {
        let mut dec = Decoder::new();
        dec.feed(&(MAX_FRAME as u32 + 1).to_be_bytes());
        match dec.next_msg() {
            Err(WireError::Oversized(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn decoder_consumes_a_garbage_frame_and_reports_it() {
        let mut dec = Decoder::new();
        let body = b"not json";
        dec.feed(&(body.len() as u32).to_be_bytes());
        dec.feed(body);
        assert!(matches!(dec.next_msg(), Err(WireError::Garbage(_))));
        // The broken frame was consumed; the buffer is clean.
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn decoder_compacts_consumed_bytes() {
        let mut dec = Decoder::new();
        let mut frame = Vec::new();
        Frame::encode_into(&Message::request(), &mut frame);
        for _ in 0..2048 {
            dec.feed(&frame);
            assert!(matches!(dec.next_msg(), Ok(Some(Message::Request { .. }))));
        }
        // Thousands of consumed frames must not accumulate: the lazy
        // compaction keeps the internal buffer bounded by the
        // compaction threshold plus one frame.
        assert!(dec.buf.len() < 4096 + frame.len());
    }

    #[test]
    fn every_variant_round_trips_through_a_frame() {
        let msgs = [
            Message::Hello {
                id: "worker \"zero\"".into(),
                speed: 2.5,
                proto: PROTO_CURRENT,
                resume: Some("tok-42".into()),
            },
            Message::hello("plain", 1.0),
            Message::request(),
            Message::Request { max: 4 },
            Message::Done { task: 17, ok: true },
            Message::Done { task: 0, ok: false },
            Message::Heartbeat { task: 3 },
            Message::Bye,
            Message::Welcome {
                worker: 4,
                lease_ms: 500,
                proto: PROTO_CURRENT,
                resume: Some("tok \"x\"".into()),
                tasks: vec![7, 9],
            },
            Message::Welcome {
                worker: 0,
                lease_ms: 250,
                proto: PROTO_CURRENT,
                resume: None,
                tasks: Vec::new(),
            },
            Message::assign(65),
            Message::Assign {
                tasks: vec![1, 2, 3, 4],
            },
            Message::Wait { ms: 50 },
            Message::Drain,
            Message::Ack {
                task: 9,
                accepted: false,
            },
            Message::Revoke { task: 12 },
            Message::Error {
                code: ERR_UNSUPPORTED.into(),
                msg: "tab\there".into(),
            },
            Message::error("no code"),
            Message::PeerHello {
                shard: 1,
                shards: 4,
                nodes: 66,
                proto: PROTO_V3,
            },
            Message::RemoteDone { task: 17, shard: 0 },
            Message::PeerDrain { shard: 3 },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            assert!(Frame::encode_into(m, &mut buf) > 0);
        }
        let mut dec = Decoder::new();
        dec.feed(&buf);
        for m in &msgs {
            assert_eq!(&dec.next_msg().unwrap().unwrap(), m);
        }
        // And the stream is exactly consumed.
        assert!(matches!(dec.next_msg(), Ok(None)));
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn absent_optional_fields_decode_to_their_defaults() {
        // No proto (refused later, by version), no max, no code.
        let cases: &[(&str, Message)] = &[
            (
                "{\"type\":\"hello\",\"id\":\"w\",\"speed\":1.0}",
                Message::Hello {
                    id: "w".into(),
                    speed: 1.0,
                    proto: 1,
                    resume: None,
                },
            ),
            ("{\"type\":\"request\"}", Message::request()),
            (
                "{\"type\":\"error\",\"msg\":\"boom\"}",
                Message::error("boom"),
            ),
        ];
        for (body, want) in cases {
            let got = decode(&framed(body.as_bytes())).unwrap().unwrap();
            assert_eq!(&got, want, "{body}");
        }
    }

    #[test]
    fn single_task_assign_is_a_list_and_the_bare_task_shape_is_malformed() {
        assert_eq!(
            Message::assign(5).to_json(),
            "{\"type\":\"assign\",\"tasks\":[5]}"
        );
        assert!(matches!(
            decode(&framed(b"{\"type\":\"assign\",\"task\":5}")),
            Err(WireError::Malformed(_))
        ));
        // A default request still omits `max`.
        assert_eq!(Message::request().to_json(), "{\"type\":\"request\"}");
    }

    #[test]
    fn peer_frames_have_pinned_wire_shapes() {
        assert_eq!(
            Message::PeerHello {
                shard: 0,
                shards: 2,
                nodes: 66,
                proto: PROTO_V3,
            }
            .to_json(),
            "{\"type\":\"peer-hello\",\"shard\":0,\"shards\":2,\"nodes\":66,\"proto\":3}"
        );
        assert_eq!(
            Message::RemoteDone { task: 9, shard: 1 }.to_json(),
            "{\"type\":\"remote-done\",\"task\":9,\"shard\":1}"
        );
        assert_eq!(
            Message::PeerDrain { shard: 1 }.to_json(),
            "{\"type\":\"peer-drain\",\"shard\":1}"
        );
    }

    #[test]
    fn integral_speed_survives_the_round_trip() {
        let m = Message::hello("w", 3.0);
        let mut buf = Vec::new();
        Frame::encode_into(&m, &mut buf);
        assert_eq!(decode(&buf).unwrap().unwrap(), m);
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        buf.extend_from_slice(b"ignored");
        match decode(&buf) {
            Err(WireError::Oversized(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn the_frame_cap_boundary_is_exact() {
        // A body of exactly MAX_FRAME bytes round-trips: the cap is
        // inclusive. Pad a hello id until the encoded body lands on
        // the boundary (each ASCII byte of id is one body byte).
        let base = Message::hello("", 1.0).to_json().len();
        let msg = Message::hello("a".repeat(MAX_FRAME - base), 1.0);
        assert_eq!(msg.to_json().len(), MAX_FRAME);
        let mut buf = Vec::new();
        Frame::encode_into(&msg, &mut buf);
        assert_eq!(decode(&buf).unwrap().unwrap(), msg);

        // One byte past the cap is rejected with the exact length,
        // before the body is read. Framed by hand: the encoder itself
        // debug-asserts the bound.
        let over = Message::hello("a".repeat(MAX_FRAME - base + 1), 1.0).to_json();
        assert_eq!(over.len(), MAX_FRAME + 1);
        match decode(&framed(over.as_bytes())) {
            Err(WireError::Oversized(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_no_message_and_a_hangup_inside_it_is_an_io_error() {
        let mut buf = Vec::new();
        Frame::encode_into(&Message::request(), &mut buf);
        buf.truncate(buf.len() - 2);
        // The decoder waits for the rest instead of inventing a frame.
        let mut dec = Decoder::new();
        dec.feed(&buf);
        assert!(matches!(dec.next_msg(), Ok(None)));
        assert_eq!(dec.pending(), buf.len());

        // On a live connection the peer hanging up mid-frame is EOF.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut conn = Conn::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        peer.write_all(&buf).unwrap();
        drop(peer);
        let err = conn.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_payload_is_a_garbage_error() {
        for body in [&b"not json"[..], b"{\"type\":", b"\xff\xfe"] {
            assert!(
                matches!(decode(&framed(body)), Err(WireError::Garbage(_))),
                "{body:?}"
            );
        }
    }

    #[test]
    fn foreign_json_is_malformed_not_a_panic() {
        for body in [
            "{\"type\":\"frobnicate\"}",
            "{\"no_type\":1}",
            "[1,2,3]",
            "{\"type\":\"assign\"}",
            "{\"type\":\"assign\",\"tasks\":[]}",
            "{\"type\":\"assign\",\"task\":1}",
            "{\"type\":\"assign\",\"tasks\":[1,\"two\"]}",
            "{\"type\":\"done\",\"task\":1}",
            "{\"type\":\"hello\",\"id\":7,\"speed\":1.0}",
            "{\"type\":\"hello\",\"id\":\"w\",\"speed\":1.0,\"proto\":\"two\"}",
            "{\"type\":\"hello\",\"id\":\"w\",\"speed\":1.0,\"resume\":7}",
            "{\"type\":\"request\",\"max\":0}",
            "{\"type\":\"revoke\"}",
            "{\"type\":\"peer-hello\",\"shard\":0}",
            "{\"type\":\"peer-hello\",\"shard\":0,\"shards\":2,\"nodes\":\"ten\"}",
            "{\"type\":\"remote-done\",\"task\":1}",
            "{\"type\":\"remote-done\",\"shard\":1}",
            "{\"type\":\"peer-drain\"}",
            "{\"type\":\"peer-drain\",\"shard\":-1}",
        ] {
            assert!(
                matches!(
                    decode(&framed(body.as_bytes())),
                    Err(WireError::Malformed(_))
                ),
                "{body}"
            );
        }
    }
}
