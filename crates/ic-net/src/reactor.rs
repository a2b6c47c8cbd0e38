//! The IC task server: a sans-IO core, and the shell that runs it.
//!
//! [`ServerCore`] is the server without a clock, poller or sink: the
//! [`LeaseMachine`], the connection table (a [`Decoder`] and a
//! registration per connection) and the peer links. It takes `now_us`
//! with an [`IoEvent`] or a fired [`Deadline`] and appends to its
//! [`Output`] what the shell must do: frames and closes per [`ConnId`],
//! the trace, timers to arm. A peer dial is the one hand-back: the core
//! names the address, the shell dials and returns the connection id.
//! `ic-check` steps this same core with encoded frames.
//!
//! [`Reactor`] is the core plus a [`Driver`] — a [`Clock`] and a
//! [`Poller`]: [`MonotonicClock`] + [`TcpPoller`] in production,
//! [`ManualClock`] + [`LoopbackPoller`] for the lockstep tests and the
//! in-process federation — the trace sink, the deadline queue
//! ([`TimerWheel`]) and the wait rule. Serving a dag: build a driver
//! ([`Driver::tcp`]), a reactor ([`Reactor::new`], or
//! [`crate::Recovery::into_reactor`] after a crash), and call
//! [`Reactor::run_until_drain`] with the [`TraceSink`] that receives
//! the write-ahead trace; a driver of several reactors calls the loop
//! body, [`Reactor::poll_round`], itself.
//!
//! **Who decides to wait.** A frame that lands in [`TcpPoller`]'s nap
//! waits it out, so the reactor decides, from what the protocol owes
//! it: a worker's next frame comes at once after a `welcome`, after the
//! `ack` that leaves it holding no task, and after an `assign` if it
//! answered its previous one within `SLOW_US`. The core keeps that flag
//! per connection; while one is owed, for at most `SPIN_US` after the
//! flush of the round that owed it, the shell polls with a zero
//! timeout, otherwise with `POLL_TIMEOUT`, and [`TcpPoller`] naps for a
//! quarter of the silence so far (at least `NAP_MIN`, at most the
//! timeout), so an unowed frame waits about a quarter of the time it
//! took to arrive. The timeout is not cut to the next [`Deadline`]:
//! timers are lazy, every grant leaves a stale one behind, and waking
//! for them would wake the server once per grant.
//!
//! **Timers are lazy** ([`crate::timer`]): every grant — an `assign`, a
//! resume's `welcome`, a heartbeat renewal — arms one [`Deadline`] at
//! the deadline the machine recorded, and a firing steps
//! `Event::Expire`, which the machine ignores unless a matching lease
//! is due. The steal clock has no timer: the machine reads it inside
//! the next `request`.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ic_dag::Dag;
use ic_sched::policy::AllocationPolicy;
use ic_sim::trace::{FedMeta, TraceEvent, TraceHeader, TraceSink};

use crate::machine::{Effect, Event, LeaseMachine};
use crate::peers::{FedConfig, Peers};
use crate::registry::{lap, Registry};
use crate::server::{ServeReport, ServerConfig};
use crate::timer::TimerWheel;
use crate::wire::{Decoder, Frame, Message};

/// A source of driver time, in microseconds. The reactor stamps every
/// machine event with `now_us()`; nothing else in the system reads a
/// clock, which is what makes lockstep tests deterministic.
pub trait Clock {
    /// Current driver time in microseconds. Must be monotonic.
    fn now_us(&self) -> u64;
}

/// Wall-clock [`Clock`]: microseconds since construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose zero is now.
    pub fn new() -> MonotonicClock {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A hand-cranked [`Clock`] for deterministic drivers: time moves only
/// through [`advance`](ManualClock::advance). Clones share the same
/// underlying time, so a test keeps one handle while the reactor owns
/// another.
#[derive(Debug, Clone, Default)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// A manual clock starting at `start_us`.
    pub fn new(start_us: u64) -> ManualClock {
        ManualClock(Arc::new(AtomicU64::new(start_us)))
    }

    /// Move time forward by `us` microseconds.
    pub fn advance(&self, us: u64) {
        self.0.fetch_add(us, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Identifier of one transport connection, assigned by the poller.
pub type ConnId = u64;

/// One unit of transport readiness, surfaced by [`Poller::poll`].
#[derive(Debug)]
pub enum IoEvent {
    /// A new connection was accepted.
    Open(ConnId),
    /// Bytes arrived on a connection (any chunking; the core's
    /// per-connection [`Decoder`] reassembles frames).
    Data(ConnId, Vec<u8>),
    /// The connection is gone: EOF, transport error, or a failed write.
    /// Not emitted for connections the *reactor* closed.
    Closed(ConnId),
}

/// A nonblocking transport the reactor drives. Implementations own the
/// sockets (or channels) and all write buffering; the reactor never
/// blocks on I/O — `poll` is its only wait point.
pub trait Poller {
    /// Gather readiness events, waiting at most `timeout` when idle
    /// (`Duration::ZERO`: not at all). Events are appended to `out`
    /// (which the reactor hands back empty).
    fn poll(&mut self, timeout: Duration, out: &mut Vec<IoEvent>) -> io::Result<()>;

    /// Queue `bytes` on a connection; nothing is transmitted until
    /// [`flush`](Poller::flush). A connection that is gone drops them.
    fn send(&mut self, conn: ConnId, bytes: &[u8]);

    /// Transmit what was queued since the last flush (the reactor
    /// calls this once per poll round, after the round's trace lines
    /// reached the OS): one write per connection with output, as much
    /// as the transport accepts now and the rest as it drains. A dead
    /// connection surfaces as a later [`IoEvent::Closed`], never here.
    fn flush(&mut self);

    /// Close a connection once its queued output is out. No
    /// [`IoEvent::Closed`] is reported for it.
    fn close(&mut self, conn: ConnId);

    /// Open an outbound connection to `addr` (a federation peer link
    /// the reactor dials itself), returning its connection id. No
    /// [`IoEvent::Open`] is reported — the caller already knows.
    /// Pollers that cannot dial keep the default, which refuses.
    fn dial(&mut self, addr: &str) -> io::Result<ConnId> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("this poller cannot dial {addr}"),
        ))
    }

    /// Add what this poller counted (naps, syscalls) to `reg`, whose
    /// `poll_ns` includes the naps. Pollers that count nothing keep
    /// the default.
    fn tally(&self, _reg: &mut Registry) {}
}

/// Longest one poll may park when nothing arrives: the latency cap on
/// timer processing (lease expiry, redials, the drain check).
const POLL_TIMEOUT: Duration = Duration::from_millis(5);

/// How long the loop spins for an owed frame after the flush of the
/// round that owed it (a closed-loop `request` comes within ~35 µs).
const SPIN_US: u64 = 100;

/// A worker whose first `done` came this soon after its `assign` is
/// owed after the next one: above a fast answer seen *through* the nap
/// ladder's first wakes (~115, ~230, ~350 µs), lest the measure fulfil
/// itself.
const SLOW_US: u64 = 400;

/// The core's half of the wait rule (module docs): how many
/// connections are owed a frame, and whether one became owed since
/// the shell last set its spin window.
#[derive(Debug, Default, Clone)]
struct Owed {
    /// Connections whose [`ConnState::owed`] flag is set.
    conns: usize,
    /// A connection became owed: the next timeout opens a new window.
    fresh: bool,
}

impl Owed {
    /// Set or clear (frame arrived, connection gone) `st`'s flag.
    fn mark(&mut self, st: &mut ConnState, owed: bool) {
        match (std::mem::replace(&mut st.owed, owed), owed) {
            (false, true) => (self.conns, self.fresh) = (self.conns + 1, true),
            (true, false) => self.conns -= 1,
            _ => {}
        }
    }

    /// Book the `reply` to a worker's frame (`beat`: a heartbeat).
    fn book(&mut self, st: &mut ConnState, reply: &Message, beat: bool, now_us: u64) {
        let owed = match reply {
            Message::Assign { tasks } => {
                st.held = tasks.len();
                st.assigned_us = Some(now_us);
                st.fast
            }
            Message::Ack { .. } if !beat => {
                if let Some(at) = st.assigned_us.take() {
                    st.fast = now_us.saturating_sub(at) < SLOW_US;
                }
                st.held = st.held.saturating_sub(1);
                st.held == 0
            }
            Message::Revoke { .. } => {
                st.held = st.held.saturating_sub(1);
                false
            }
            _ => false,
        };
        self.mark(st, owed);
    }
}

/// What a timer means when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Deadline {
    /// A lease's heartbeat deadline: step `Event::Expire` (a no-op if
    /// the lease was renewed or resolved — timers are lazy).
    Lease {
        /// The lease holder's slot index.
        worker: usize,
        /// The leased task id.
        task: u64,
    },
    /// The deadline of one grant's leases (an `assign` or a resume's
    /// `welcome`): step `Event::Expire` for each task, in list order.
    Leases {
        /// The lease holder's slot index.
        worker: usize,
        /// The granted task ids (the frame's own list).
        tasks: Vec<u64>,
    },
    /// Dial (or redial) a federation peer link this server owns (it
    /// dials every peer with a smaller shard index). Lazy like lease
    /// timers: a firing whose link meanwhile came up is a no-op.
    Redial {
        /// The peer's shard index.
        peer: u64,
    },
}

/// The injectable pair a [`Reactor`] runs on: where time comes from
/// and where bytes go. [`Driver::tcp`] builds the production pair;
/// tests and harnesses compose their own from [`ManualClock`] /
/// [`LoopbackPoller`].
pub struct Driver {
    clock: Box<dyn Clock>,
    poller: Box<dyn Poller>,
}

impl Driver {
    /// A driver from any clock/poller pair.
    pub fn new(clock: Box<dyn Clock>, poller: Box<dyn Poller>) -> Driver {
        Driver { clock, poller }
    }

    /// The production driver: wall-clock time over nonblocking TCP.
    pub fn tcp(listener: TcpListener) -> io::Result<Driver> {
        Ok(Driver {
            clock: Box::new(MonotonicClock::new()),
            poller: Box::new(TcpPoller::new(listener, 1)?),
        })
    }

    /// The same driver with its clock shifted forward by `offset_us`.
    /// Crash recovery ([`crate::recovery`]) uses this to start the
    /// restarted server's clock where the crashed run's trace stopped,
    /// so appended events carry monotonically continuing timestamps.
    pub fn offset(self, offset_us: u64) -> Driver {
        struct Offset(Box<dyn Clock>, u64);
        impl Clock for Offset {
            fn now_us(&self) -> u64 {
                self.0.now_us().saturating_add(self.1)
            }
        }
        Driver::new(Box::new(Offset(self.clock, offset_us)), self.poller)
    }
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver").finish_non_exhaustive()
    }
}

/// Per-connection core state: frame reassembly, the registration once
/// the connection has said hello, and the wait rule's bookkeeping.
#[derive(Debug, Default, Clone)]
pub(crate) struct ConnState {
    dec: Decoder,
    /// `Some((worker, epoch))` once registered.
    reg: Option<(usize, u64)>,
    /// `Some(shard)` once the connection identified as a federation
    /// peer link (v3 `peer-hello`), either dialed by us or accepted.
    pub(crate) peer: Option<u64>,
    /// The worker's next frame is owed at once.
    owed: bool,
    /// Tasks of its last `assign` or `welcome` not reported or revoked.
    held: usize,
    /// When its latest `assign` was stepped, until the first `done`.
    assigned_us: Option<u64>,
    /// It answered its previous `assign` within [`SLOW_US`].
    fast: bool,
}

/// One instruction to the transport, in the order the core issued it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transmit {
    /// Queue the frames at this range of [`Output::bytes`]: frames
    /// encoded back to back for one connection share one range.
    Send(ConnId, Range<usize>),
    /// Close the connection once its queued output is out.
    Close(ConnId),
}

/// What a [`ServerCore`] asks of its shell: each call appends, and the
/// shell performs and clears it before the next.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// Every frame, encoded back to back in one reused buffer.
    pub bytes: Vec<u8>,
    /// Sends and closes, in order.
    pub transmit: Vec<Transmit>,
    /// The trace header, when the run's first step wrote it; it comes
    /// before every event of [`Output::trace`].
    pub header: Option<TraceHeader>,
    /// The trace events, in server order.
    pub trace: Vec<TraceEvent>,
    /// Timers to arm, as `(deadline_us, what fires)`.
    pub timers: Vec<(u64, Deadline)>,
}

/// The server with no clock, poller or sink (module docs): the lease
/// machine, the connection table and the peer links. [`Reactor`]
/// steps it on a [`Driver`]; `ic-check` steps clones of it with
/// encoded frames at a frozen clock.
#[derive(Clone)]
pub struct ServerCore<'a, 'd> {
    pub(crate) machine: LeaseMachine<'a, 'd>,
    pub(crate) conns: HashMap<ConnId, ConnState>,
    /// Peer links to the other shards.
    pub(crate) peers: Peers,
    owed: Owed,
    /// The effects buffer each machine step fills, reused.
    fx: Vec<Effect>,
    /// What the calls since the shell last took it asked for.
    pub out: Output,
}

impl<'a, 'd> ServerCore<'a, 'd> {
    /// A core over an already-built machine at `now_us`. Every
    /// outstanding lease the machine carries is armed to expire
    /// `lease_ms` from now: a fresh machine has none, while one rebuilt
    /// from a replayed trace prefix by a
    /// [`Restorer`](crate::machine::Restorer) (the crash-recovery fold
    /// behind [`crate::recovery`]) holds the
    /// crashed run's, so a worker that never resumes forfeits on the
    /// usual clock and its tasks are reallocated.
    pub fn new(machine: LeaseMachine<'a, 'd>, now_us: u64) -> Self {
        let mut core = ServerCore {
            machine,
            conns: HashMap::new(),
            peers: Peers::standalone(),
            owed: Owed::default(),
            fx: Vec::new(),
            out: Output::default(),
        };
        for lease in core.machine.lease_views() {
            let (worker, task) = (lease.worker, lease.task.index() as u64);
            core.arm(Deadline::Lease { worker, task }, now_us);
        }
        core
    }

    /// Enroll in a federation at `now_us` ([`Reactor::set_fed`]): the
    /// first dial of each link this shard owns is a timer, as redials are.
    pub(crate) fn set_fed(&mut self, meta: FedMeta, fed: FedConfig, now_us: u64) {
        for &(peer, _) in fed.peers.iter().filter(|&&(p, _)| p < meta.shard) {
            self.out.timers.push((now_us, Deadline::Redial { peer }));
        }
        self.peers = Peers::new(&meta, fed);
        self.machine.set_fed(meta);
    }

    /// The lease machine (read-only).
    pub fn machine(&self) -> &LeaseMachine<'a, 'd> {
        &self.machine
    }

    /// The `(slot, epoch)` connection `id` registered as, while the
    /// core holds it (neither closed it nor saw it close).
    pub fn registration(&self, id: ConnId) -> Option<(usize, u64)> {
        self.conns.get(&id).and_then(|st| st.reg)
    }

    /// Start the run (the machine's boot: the trace header, unless a
    /// registration barrier holds it).
    pub fn boot(&mut self, now_us: u64) {
        let fx = self.machine.boot(now_us);
        self.perform(fx, now_us, None);
    }

    /// Step one transport event at `now_us`.
    pub fn on_io(&mut self, now_us: u64, ev: IoEvent) {
        match ev {
            IoEvent::Open(id) => {
                self.conns.insert(id, ConnState::default());
            }
            IoEvent::Data(id, bytes) => self.on_data(id, &bytes, now_us),
            IoEvent::Closed(id) => self.drop_conn(id, now_us),
        }
    }

    /// Step a fired timer at `now_us`. A `Redial` of a link still down
    /// returns the `(peer, addr)` to dial: the shell dials and hands
    /// the outcome back to `dialed`.
    pub fn on_deadline(&mut self, now_us: u64, d: Deadline) -> Option<(u64, String)> {
        match d {
            Deadline::Lease { worker, task } => self.expire(worker, task, now_us),
            Deadline::Leases { worker, tasks } => {
                tasks
                    .into_iter()
                    .for_each(|t| self.expire(worker, t, now_us));
            }
            Deadline::Redial { peer } => return self.dial_target(peer, now_us),
        }
        None
    }

    /// Feed arrived bytes to the connection's decoder and dispatch
    /// every complete frame. A decode error (oversized prefix, garbage
    /// payload, foreign JSON) drops the connection.
    ///
    /// One table lookup per frame: a worker's frame is decoded,
    /// stepped and its reply booked under one borrow of the connection,
    /// which ends before any call that needs the whole core. Dispatch
    /// may remove the connection (drain, bye, error); the next lookup
    /// then misses and the loop ends.
    fn on_data(&mut self, id: ConnId, bytes: &[u8], now_us: u64) {
        let mut fresh = Some(bytes);
        while let Some(st) = self.conns.get_mut(&id) {
            if let Some(bytes) = fresh.take() {
                st.dec.feed(bytes);
                self.owed.mark(st, false);
            }
            let msg = match st.dec.next_msg() {
                Ok(None) => break,
                Ok(Some(msg)) => msg,
                Err(_) => {
                    self.drop_conn(id, now_us);
                    break;
                }
            };
            self.machine.reg.frames_in += 1;
            let (worker, epoch) = match (st.peer, st.reg) {
                (Some(_), _) => {
                    self.peer_frame(id, msg, now_us);
                    continue;
                }
                (None, None) => {
                    self.dispatch_unregistered(id, msg, now_us);
                    continue;
                }
                (None, Some(reg)) => reg,
            };
            // A connection whose slot has since been resumed elsewhere
            // no longer speaks for it: it is told so and closed (its
            // `Sever` carries the stale epoch, a no-op).
            if self.machine.worker_epoch(worker) != Some(epoch) {
                self.refuse(id, "connection superseded by a resume", now_us);
                continue;
            }
            let event = match msg {
                Message::Request { max } => Event::Request {
                    worker,
                    max,
                    now_us,
                },
                Message::Done { task, ok } => Event::Done {
                    worker,
                    task,
                    ok,
                    now_us,
                },
                Message::Heartbeat { task } => Event::Heartbeat {
                    worker,
                    task,
                    now_us,
                },
                Message::Bye => {
                    self.drop_conn(id, now_us);
                    continue;
                }
                _ => {
                    self.refuse(id, "unexpected server-side message from a worker", now_us);
                    continue;
                }
            };
            let beat = matches!(event, Event::Heartbeat { .. });
            let mut fx = std::mem::take(&mut self.fx);
            self.machine.step_into(event, &mut fx);
            if let Some(Effect::Reply(reply)) = fx.last() {
                self.owed.book(st, reply, beat, now_us);
                // A heartbeat's accepted ack renewed the lease: re-arm
                // it. A done's ack has no lease left to time.
                if let (
                    true,
                    &Message::Ack {
                        task,
                        accepted: true,
                    },
                ) = (beat, reply)
                {
                    self.arm(Deadline::Lease { worker, task }, now_us);
                }
            }
            self.perform(fx, now_us, Some((id, Some(worker))));
        }
    }

    /// Step the machine into the reused effects buffer and perform
    /// what it did ([`perform`](Self::perform) hands the buffer back).
    pub(crate) fn step(&mut self, ev: Event, now_us: u64, from: Option<(ConnId, Option<usize>)>) {
        let mut fx = std::mem::take(&mut self.fx);
        self.machine.step_into(ev, &mut fx);
        self.perform(fx, now_us, from);
    }

    /// First frame on a connection: a `hello` with a positive finite
    /// speed registers (fresh or resume) and a `peer-hello` opens a peer
    /// link; anything else is a protocol error.
    fn dispatch_unregistered(&mut self, id: ConnId, msg: Message, now_us: u64) {
        match msg {
            Message::PeerHello { .. } => self.peer_frame(id, msg, now_us),
            Message::Hello {
                id: name,
                speed,
                proto,
                resume,
            } if speed.is_finite() && speed > 0.0 => {
                let hello = Event::Hello {
                    id: name,
                    speed,
                    proto,
                    resume,
                    now_us,
                };
                self.step(hello, now_us, Some((id, None)));
            }
            _ => self.refuse(id, "expected hello with a positive finite speed", now_us),
        }
    }

    /// Encode one frame for connection `id`, into the previous send's
    /// range when that went to `id` too.
    pub(crate) fn send(&mut self, id: ConnId, msg: &Message) {
        self.machine.reg.frames_out += 1;
        let start = self.out.bytes.len();
        Frame::encode_into(msg, &mut self.out.bytes);
        let end = self.out.bytes.len();
        match self.out.transmit.last_mut() {
            Some(Transmit::Send(to, range)) if *to == id && range.end == start => range.end = end,
            _ => self.out.transmit.push(Transmit::Send(id, start..end)),
        }
    }

    /// Tell connection `id` why in an `error` frame, and drop it.
    pub(crate) fn refuse(&mut self, id: ConnId, why: &str, now_us: u64) {
        self.send(id, &Message::error(why));
        self.drop_conn(id, now_us);
    }

    /// Forget a connection ourselves: no `Closed` event will follow.
    pub(crate) fn cut(&mut self, id: ConnId) {
        self.conns.remove(&id);
        self.out.transmit.push(Transmit::Close(id));
    }

    /// Arm the expiry timer for leases granted or renewed at `now_us`,
    /// at the deadline the machine itself recorded for them, so the
    /// firing is never early.
    fn arm(&mut self, leases: Deadline, now_us: u64) {
        let deadline = self.machine.lease_deadline(now_us);
        self.out.timers.push((deadline, leases));
    }

    /// A lease timer fired: step its expiry at `now_us`.
    fn expire(&mut self, worker: usize, task: u64, now_us: u64) {
        let expire = Event::Expire {
            worker,
            task,
            now_us,
        };
        self.step(expire, now_us, None);
    }

    /// Forget a connection, whoever ended it (EOF, decode error, bye,
    /// drain, a refused hello): step `Sever` if it was a registered
    /// worker, schedule the redial if it was a peer link, and close
    /// the transport once any farewell frame has flushed.
    pub(crate) fn drop_conn(&mut self, id: ConnId, now_us: u64) {
        if let Some(mut st) = self.conns.remove(&id) {
            self.owed.mark(&mut st, false);
            if let Some((worker, epoch)) = st.reg {
                let sever = Event::Sever {
                    worker,
                    epoch,
                    now_us,
                };
                self.step(sever, now_us, None);
            }
            if let Some(peer) = st.peer {
                self.link_down(id, peer, now_us);
            }
        }
        self.out.transmit.push(Transmit::Close(id));
    }

    /// Perform the effects of one machine step taken at `now_us` — the
    /// one place every [`Effect`] variant is handled. `from` names the
    /// connection whose frame raised the event and, once it has
    /// registered, its worker slot; it is `None` for steps no
    /// connection asked for (boot, expiry, sever, `remote-done`). The
    /// emptied list becomes the next step's buffer.
    pub(crate) fn perform(
        &mut self,
        mut fx: Vec<Effect>,
        now_us: u64,
        from: Option<(ConnId, Option<usize>)>,
    ) {
        let mut drained = None;
        for e in fx.drain(..) {
            match (e, from) {
                (Effect::Trace(ev), _) => {
                    self.out.trace.push(ev);
                    self.recorded(&ev, now_us);
                }
                (Effect::Header(h), _) => self.out.header = Some(h),
                (Effect::Reply(msg), Some((id, Some(worker)))) => {
                    self.send(id, &msg);
                    match msg {
                        // Every grant path arms a timer: primary
                        // and speculative assigns here (one timer per
                        // batch), heartbeat renewals where the
                        // heartbeat is dispatched, resumes at
                        // registration.
                        Message::Assign { tasks } => {
                            self.arm(Deadline::Leases { worker, tasks }, now_us);
                        }
                        Message::Drain => drained = Some(id),
                        _ => {}
                    }
                }
                (Effect::Reply(msg), Some((id, None))) => self.answer_hello(id, msg, now_us),
                (Effect::Reply(_), None) => {
                    debug_assert!(false, "a reply needs the connection that asked");
                }
            }
        }
        self.fx = fx;
        if let Some(id) = drained {
            // The worker got its drain frame; its part is over. Sever
            // now and close after the frame flushes.
            self.drop_conn(id, now_us);
        }
    }

    /// A reply on a connection that has not registered answers its
    /// hello: a welcome registers it at the slot's epoch, a refusal
    /// (unsupported proto, bad resume) closes it once the typed error
    /// frame is out. Kept out of `perform`'s loop: written inline
    /// there, it cost the saturate workloads ~1 % of their tasks/s.
    fn answer_hello(&mut self, id: ConnId, msg: Message, now_us: u64) {
        self.send(id, &msg);
        let Message::Welcome { worker, tasks, .. } = msg else {
            return self.drop_conn(id, now_us);
        };
        // The machine numbers its slots by `usize`: this always fits.
        let Ok(worker) = usize::try_from(worker) else {
            return self.drop_conn(id, now_us);
        };
        let epoch = self.machine.worker_epoch(worker);
        if let (Some(epoch), Some(st)) = (epoch, self.conns.get_mut(&id)) {
            st.reg = Some((worker, epoch));
            st.held = tasks.len();
            self.owed.mark(st, true);
        }
        // A resume's welcome restores held leases with renewed
        // clocks: re-arm them, as one grant.
        if !tasks.is_empty() {
            self.arm(Deadline::Leases { worker, tasks }, now_us);
        }
    }
}

/// What one [`Reactor::poll_round`] came to.
#[derive(Debug)]
pub enum Round {
    /// Nothing arrived and no timer fired: waiting on input or a wake.
    Idle,
    /// The machine booted, something arrived, or a timer fired.
    Busy,
    /// The dag is complete and the drain is over: the run's report.
    Drained(ServeReport),
}

/// The IC task server: a [`ServerCore`] run on a [`Driver`]. Construct
/// with [`Reactor::new`], drive with [`Reactor::run_until_drain`] or,
/// round by round, with [`Reactor::poll_round`].
pub struct Reactor<'a> {
    core: ServerCore<'a, 'a>,
    clock: Box<dyn Clock>,
    poller: Box<dyn Poller>,
    wheel: TimerWheel<Deadline>,
    /// Clock time at which the current spin ends; `None` after a round
    /// that owed a frame, until the flush that starts the window.
    spin_until: Option<u64>,
    /// The first round booted the machine.
    booted: bool,
    /// This round handed the poller output.
    queued: bool,
    /// When a round first found the dag complete.
    done_at: Option<u64>,
    /// Scratch lists reused across rounds.
    events: Vec<IoEvent>,
    fired: Vec<Deadline>,
}

impl<'a> Reactor<'a> {
    /// A reactor serving `dag` under `policy` with the given config,
    /// on the injected driver.
    ///
    /// # Panics
    /// Panics if the policy rejects the dag in
    /// [`AllocationPolicy::prepare`].
    pub fn new(
        dag: &'a Dag,
        policy: &'a dyn AllocationPolicy,
        cfg: ServerConfig,
        driver: Driver,
    ) -> Reactor<'a> {
        Reactor::from_machine(LeaseMachine::new(dag, policy, cfg), driver)
    }

    /// A reactor over an already-built machine, its outstanding leases
    /// armed as [`ServerCore::new`] says.
    pub(crate) fn from_machine(machine: LeaseMachine<'a, 'a>, driver: Driver) -> Reactor<'a> {
        let now = driver.clock.now_us();
        let mut reactor = Reactor {
            core: ServerCore::new(machine, now),
            clock: driver.clock,
            poller: driver.poller,
            wheel: TimerWheel::new(now),
            spin_until: None,
            booted: false,
            queued: false,
            done_at: None,
            events: Vec::new(),
            fired: Vec::new(),
        };
        reactor.arm_timers();
        reactor
    }

    /// Enroll this reactor in a federation: `meta` says which shard
    /// this is, stamps its trace header and tells the machine which
    /// nodes are stubs; `fed` adds what the header does
    /// not record — where the peers listen and which completions to
    /// forward. Call before the first [`poll_round`](Reactor::poll_round),
    /// which dials the links this shard owns.
    pub fn set_fed(&mut self, meta: FedMeta, fed: FedConfig) {
        self.core.set_fed(meta, fed, self.clock.now_us());
        self.arm_timers();
    }

    /// Serve until the dag completes and the drain grace expires (or
    /// every connection is gone), streaming every decision into
    /// `sink` (header first, then events in server order): a loop over
    /// [`poll_round`](Reactor::poll_round) whose timeout the wait rule
    /// (module docs) sets just after each round's flush.
    pub fn run_until_drain(&mut self, sink: &mut dyn TraceSink) -> io::Result<ServeReport> {
        loop {
            let timeout = self.timeout();
            match self.poll_round(timeout, sink)? {
                Round::Drained(report) => return Ok(report),
                // Spinning for an owed frame: let its sender run.
                Round::Idle if timeout.is_zero() => {
                    self.core.machine.reg.yields += 1;
                    std::thread::yield_now();
                }
                Round::Idle | Round::Busy => {}
            }
        }
    }

    /// The next poll's timeout, just after the flush: zero while a
    /// connection is owed a frame and the window since the flush that
    /// owed it is open, else `POLL_TIMEOUT`.
    fn timeout(&mut self) -> Duration {
        let now_us = self.clock.now_us();
        if std::mem::take(&mut self.core.owed.fresh) || self.spin_until.is_none() {
            self.spin_until = Some(now_us.saturating_add(SPIN_US));
        }
        if self.core.owed.conns > 0 && Some(now_us) < self.spin_until {
            Duration::ZERO
        } else {
            POLL_TIMEOUT
        }
    }

    /// One poll round, the unit of I/O: poll (waiting at most
    /// `timeout`), step what arrived and due timers through the core,
    /// check the drain, then `sink.flush()` and only then
    /// `poller.flush()`, so a sink error ends the run before any reply
    /// of the round is out. The first round only boots the machine and
    /// commits that. A drained round's report carries the registry.
    pub fn poll_round(&mut self, timeout: Duration, sink: &mut dyn TraceSink) -> io::Result<Round> {
        let mut mark = Instant::now();
        let mut round = if std::mem::replace(&mut self.booted, true) {
            self.step_round(timeout, sink, &mut mark)?
        } else {
            self.core.boot(self.clock.now_us());
            self.apply(sink);
            self.core.machine.reg.step_ns += lap(&mut mark);
            Round::Busy
        };
        // The one commit point, WAL before wire: a kill inside a
        // round loses only events no peer heard of (DESIGN §4h).
        sink.flush()?;
        self.core.machine.reg.sink_ns += lap(&mut mark);
        self.poller.flush();
        let reg = &mut self.core.machine.reg;
        reg.flush_ns += lap(&mut mark);
        reg.flushes += u64::from(std::mem::take(&mut self.queued));
        if let Round::Drained(report) = &mut round {
            // The registry as of the commit, this round's phases in.
            *report.registry = reg.clone();
            self.poller.tally(&mut report.registry);
        }
        Ok(round)
    }

    /// A round up to its commit: poll, step, due timers, drain check,
    /// each phase timed from `mark`.
    fn step_round(
        &mut self,
        timeout: Duration,
        sink: &mut dyn TraceSink,
        mark: &mut Instant,
    ) -> io::Result<Round> {
        let mut events = std::mem::take(&mut self.events);
        self.poller.poll(timeout, &mut events)?;
        let reg = &mut self.core.machine.reg;
        reg.poll_ns += lap(mark);
        reg.polls += 1;
        reg.idle_polls += u64::from(events.is_empty());
        let mut busy = !events.is_empty();
        for ev in events.drain(..) {
            self.core.on_io(self.clock.now_us(), ev);
            self.apply(sink);
        }
        self.events = events;
        self.core.machine.reg.step_ns += lap(mark);

        let mut fired = std::mem::take(&mut self.fired);
        let now = self.clock.now_us();
        self.wheel.advance(now, &mut fired);
        busy |= !fired.is_empty();
        for d in fired.drain(..) {
            if let Some((peer, addr)) = self.core.on_deadline(now, d) {
                let conn = self.poller.dial(&addr).ok();
                self.core.dialed(self.clock.now_us(), peer, conn);
            }
            self.apply(sink);
        }
        self.fired = fired;

        let mut round = if busy { Round::Busy } else { Round::Idle };
        if self.core.machine.is_complete() {
            let now = self.clock.now_us();
            let waited = now.saturating_sub(*self.done_at.get_or_insert(now));
            let peers_done = self.core.peers_drained(waited, now);
            self.apply(sink);
            let gone = self.core.machine.connected() == 0;
            if peers_done && (gone || waited >= self.drain_grace_us()) {
                round = Round::Drained(self.core.machine.summary(now));
            }
        }
        self.core.machine.reg.timer_ns += lap(mark);
        Ok(round)
    }

    /// Perform what the core asked for: frames and closes to the
    /// poller (each frame copied once, out of the core's buffer), the
    /// trace to the sink, timers to the queue.
    fn apply(&mut self, sink: &mut dyn TraceSink) {
        let out = &mut self.core.out;
        self.queued |= !out.transmit.is_empty();
        for t in out.transmit.drain(..) {
            match t {
                Transmit::Send(id, range) => self.poller.send(id, &out.bytes[range]),
                Transmit::Close(id) => self.poller.close(id),
            }
        }
        out.bytes.clear();
        if let Some(h) = out.header.take() {
            sink.header(&h);
        }
        for ev in out.trace.drain(..) {
            sink.record(&ev);
        }
        self.arm_timers();
    }

    fn arm_timers(&mut self) {
        for (deadline, d) in self.core.out.timers.drain(..) {
            self.wheel.schedule(deadline, d);
        }
    }

    /// The earliest clock time at which this reactor has work that no
    /// input brings: its next timer, or the end of the drain grace once
    /// the dag is complete. `None`: only input can move it.
    pub fn next_wake_us(&self) -> Option<u64> {
        let now = self.clock.now_us();
        let grace = self
            .done_at
            .map(|at| at.saturating_add(self.drain_grace_us()));
        let grace = grace.filter(|&t| t > now);
        self.wheel.next_due().into_iter().chain(grace).min()
    }

    /// How long a completed dag waits for connected workers.
    fn drain_grace_us(&self) -> u64 {
        self.core.machine.lease_us().max(250_000)
    }
}

impl std::fmt::Debug for Reactor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("timers", &self.wheel.len())
            .finish_non_exhaustive()
    }
}

/// One poller connection: a socket or channel sender, and its output.
struct Link<T> {
    io: T,
    wbuf: Vec<u8>,
    /// Reactor asked to close once `wbuf` drains.
    closing: bool,
}

/// A poller's connections and the queue-then-flush half of the
/// [`Poller`] contract, written once for sockets and channels alike.
struct Links<T> {
    table: HashMap<ConnId, Link<T>>,
    /// Connections that queued output since the last flush.
    dirty: Vec<ConnId>,
    /// `Closed` events found outside `poll` (failed flushes).
    pending: Vec<IoEvent>,
}

impl<T> Links<T> {
    fn new() -> Links<T> {
        Links {
            table: HashMap::new(),
            dirty: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn open(&mut self, id: ConnId, io: T) {
        let (wbuf, closing) = (Vec::new(), false);
        self.table.insert(id, Link { io, wbuf, closing });
    }

    /// [`Poller::send`]: queue only.
    fn send(&mut self, id: ConnId, bytes: &[u8]) {
        if let Some(link) = self.table.get_mut(&id) {
            // An empty buffer is a connection not yet on the dirty
            // list; residue of an earlier flush is the scan's to drain.
            if link.wbuf.is_empty() {
                self.dirty.push(id);
            }
            link.wbuf.extend_from_slice(bytes);
        }
    }

    /// [`Poller::flush`], over the dirty list only. `write` sends what
    /// the transport takes now and returns `false` for a dead peer.
    fn flush(&mut self, mut write: impl FnMut(&mut T, &mut Vec<u8>) -> bool) {
        for id in self.dirty.drain(..) {
            if let Some(link) = self.table.get_mut(&id) {
                let alive = write(&mut link.io, &mut link.wbuf);
                if link.spent(alive) {
                    Self::evict(&mut self.table, id, &mut self.pending);
                }
            }
        }
    }

    /// [`Poller::close`]: a flush or scan drops it once the farewell is out.
    fn close(&mut self, id: ConnId) {
        if let Some(link) = self.table.get_mut(&id) {
            link.closing = true;
            if link.spent(true) {
                self.table.remove(&id);
            }
        }
    }

    /// Drop a spent link, reporting a drop the reactor did not ask for.
    fn evict(table: &mut HashMap<ConnId, Link<T>>, id: ConnId, out: &mut Vec<IoEvent>) {
        if table.remove(&id).is_some_and(|link| !link.closing) {
            out.push(IoEvent::Closed(id));
        }
    }
}

impl<T> Link<T> {
    /// After a write or a scan: the peer is dead, or the farewell out.
    fn spent(&self, alive: bool) -> bool {
        !alive || (self.closing && self.wbuf.is_empty())
    }
}

// ---------------------------------------------------------------------
// TCP poller
// ---------------------------------------------------------------------

/// Read-buffer size per scan pass.
const READ_CHUNK: usize = 64 * 1024;

/// How long [`TcpPoller`]'s dial waits for a peer to accept.
const DIAL_TIMEOUT: Duration = Duration::from_millis(250);

/// The shortest nap. Shorter buys nothing under 50 µs of timer slack,
/// where any `thread::sleep` lasts 56 µs or more.
const NAP_MIN: Duration = Duration::from_micros(50);

/// A nap lasts one `NAP_SHARE`-th of the silence so far ([`nap_rung`]).
const NAP_SHARE: u32 = 4;

/// The nap after `silence` without input or output: a quarter of it,
/// at least `NAP_MIN`, at most `timeout`.
fn nap_rung(silence: Duration, timeout: Duration) -> Duration {
    (silence / NAP_SHARE).max(NAP_MIN).min(timeout)
}

/// A busy [`TcpPoller`] calls `accept` on every this-many-th poll; one
/// after an empty poll always does. Workers connect once, and a busy
/// server's accept almost always finds nobody: a syscall per round.
const ACCEPT_EVERY: u64 = 64;

/// The production [`Poller`]: a nonblocking `TcpListener` plus one
/// map of nonblocking streams with per-connection write buffers.
///
/// The workspace forbids `unsafe` and external crates, so there is no
/// raw `epoll` to block on. Each `poll` is one scan pass with
/// nonblocking reads, preceded by a nap only when the last poll came
/// back empty, nothing was flushed since, and the timeout is not zero.
/// The nap is a quarter of the silence so far, between `NAP_MIN` and
/// the timeout, so a frame waits at most about a quarter of the time
/// it took to arrive, and a quiet server reaches the timeout after a
/// logarithmic number of wakes and costs ~no CPU. New connections are
/// accepted first on the first poll, on one that follows such an empty
/// poll, and on every `ACCEPT_EVERY`-th otherwise.
pub struct TcpPoller {
    listener: TcpListener,
    links: Links<TcpStream>,
    next_id: ConnId,
    /// When the silence began: the end of the first empty poll after
    /// the first poll, a poll that found input or a flush that sent
    /// output.
    quiet_since: Instant,
    /// The last poll found nothing and nothing was flushed since.
    idle: bool,
    /// Scratch read buffer.
    rbuf: Vec<u8>,
    /// Its naps and syscalls ([`Poller::tally`]).
    reg: Registry,
}

impl TcpPoller {
    /// Wrap a bound listener. `_shards` is ignored: the connection
    /// table is one map, and the argument stays only while the
    /// end-to-end benchmark's `layers.rs` passes it.
    pub fn new(listener: TcpListener, _shards: usize) -> io::Result<TcpPoller> {
        listener.set_nonblocking(true)?;
        Ok(TcpPoller {
            listener,
            links: Links::new(),
            next_id: 0,
            quiet_since: Instant::now(),
            idle: false,
            rbuf: vec![0u8; READ_CHUNK],
            reg: Registry::default(),
        })
    }

    /// Take ownership of a connected stream, returning its connection
    /// id: [`Poller::dial`]'s second half. No [`IoEvent::Open`] is
    /// reported — the caller already knows.
    pub fn adopt(&mut self, stream: TcpStream) -> io::Result<ConnId> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let id = self.next_id;
        self.next_id += 1;
        self.links.open(id, stream);
        Ok(id)
    }

    /// The one socket write loop, shared by `flush` and the scan.
    fn write(stream: &mut TcpStream, wbuf: &mut Vec<u8>, reg: &mut Registry) -> bool {
        while !wbuf.is_empty() {
            reg.writes += 1;
            match stream.write(wbuf) {
                Ok(0) => return false,
                Ok(n) => {
                    wbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Drain then read one connection, appending read bytes to
    /// `gathered`; `false` when the peer is gone.
    fn service(
        link: &mut Link<TcpStream>,
        rbuf: &mut [u8],
        gathered: &mut Vec<u8>,
        reg: &mut Registry,
    ) -> bool {
        if !Self::write(&mut link.io, &mut link.wbuf, reg) {
            return false;
        }
        if link.closing {
            return true; // the reactor already forgot it: no reads
        }
        loop {
            reg.reads += 1;
            match link.io.read(rbuf) {
                Ok(0) => return false,
                Ok(n) => {
                    reg.data_reads += 1;
                    gathered.extend_from_slice(&rbuf[..n]);
                    if n < rbuf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }
}

impl Poller for TcpPoller {
    fn poll(&mut self, timeout: Duration, out: &mut Vec<IoEvent>) -> io::Result<()> {
        if self.idle && !timeout.is_zero() {
            let mut mark = Instant::now();
            std::thread::sleep(nap_rung(mark - self.quiet_since, timeout));
            self.reg.naps += 1;
            self.reg.nap_ns += lap(&mut mark);
        }
        let before = out.len();
        out.append(&mut self.links.pending);
        // Admit new connections: the first poll, after an idle one, and
        // every ACCEPT_EVERY-th.
        if self.idle || self.reg.polls.is_multiple_of(ACCEPT_EVERY) {
            loop {
                self.reg.accepts += 1;
                match self.listener.accept() {
                    Ok((stream, _)) => out.extend(self.adopt(stream).ok().map(IoEvent::Open)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        self.reg.polls += 1;

        // Scan every connection: drain flush residue, then read; a
        // spent link goes, reported unless the reactor closed it.
        let (rbuf, reg) = (&mut self.rbuf, &mut self.reg);
        self.links.table.retain(|&id, link| {
            let mut gathered: Vec<u8> = Vec::new();
            let alive = Self::service(link, rbuf, &mut gathered, reg);
            let spent = link.spent(alive);
            if !gathered.is_empty() {
                out.push(IoEvent::Data(id, gathered));
            }
            if spent && !link.closing {
                out.push(IoEvent::Closed(id));
            }
            !spent
        });
        if !std::mem::replace(&mut self.idle, out.len() == before) && self.idle {
            // The first empty poll since the first poll, input or
            // output: the silence starts here.
            self.quiet_since = Instant::now();
        }
        Ok(())
    }

    fn send(&mut self, conn: ConnId, bytes: &[u8]) {
        self.links.send(conn, bytes);
    }

    fn flush(&mut self) {
        // Output predicts input: scan before the next nap.
        self.idle &= self.links.dirty.is_empty();
        let reg = &mut self.reg;
        self.links
            .flush(|stream, wbuf| Self::write(stream, wbuf, reg));
    }

    fn close(&mut self, conn: ConnId) {
        self.links.close(conn);
    }

    fn dial(&mut self, addr: &str) -> io::Result<ConnId> {
        let none = io::ErrorKind::InvalidInput;
        let sa = addr.to_socket_addrs()?.next().ok_or(none)?;
        self.adopt(TcpStream::connect_timeout(&sa, DIAL_TIMEOUT)?)
    }

    fn tally(&self, reg: &mut Registry) {
        let mine = &self.reg;
        reg.poll_ns = reg.poll_ns.saturating_sub(mine.nap_ns);
        (reg.naps, reg.nap_ns) = (mine.naps, mine.nap_ns);
        (reg.accepts, reg.reads) = (mine.accepts, mine.reads);
        (reg.data_reads, reg.writes) = (mine.data_reads, mine.writes);
    }
}

// ---------------------------------------------------------------------
// Loopback poller (deterministic / in-process driver)
// ---------------------------------------------------------------------

/// What travels on a loopback channel: a link opening (with the end
/// its receiver answers through), a link's bytes, a link's end.
enum LoopCmd {
    Connect { id: ConnId, peer: End },
    Data { id: ConnId, bytes: Vec<u8> },
    Close { id: ConnId },
}

/// One end of a loopback link: the channel of whoever holds the other
/// end, and the link's id there. Dropping it closes the link.
struct End {
    tx: Sender<LoopCmd>,
    id: ConnId,
}

impl End {
    /// Hand `bytes` to the other end; `false` once it is gone.
    fn send(&self, bytes: Vec<u8>) -> bool {
        self.tx.send(LoopCmd::Data { id: self.id, bytes }).is_ok()
    }
}

impl Drop for End {
    fn drop(&mut self) {
        let _ = self.tx.send(LoopCmd::Close { id: self.id });
    }
}

/// An in-process [`Poller`] over channels: the deterministic driver
/// used by the load harness, the lockstep reactor tests and the
/// in-process federation. Clients obtain [`LoopbackConn`]s from the
/// paired [`LoopbackHandle`], and [`Poller::dial`] links to another
/// loopback poller named by [`route`](LoopbackPoller::route); bytes
/// flow through `mpsc` channels instead of sockets, so a
/// single-threaded driver observes a fully deterministic event order.
pub struct LoopbackPoller {
    rx: Receiver<LoopCmd>,
    links: Links<End>,
    /// Its own handle: the id counter, and the channel a dialed poller
    /// answers through (so `rx` never disconnects).
    me: LoopbackHandle,
    /// The pollers [`Poller::dial`] reaches, by address.
    routes: HashMap<String, LoopbackHandle>,
}

/// Connection factory for a [`LoopbackPoller`]; clone one per client
/// thread.
#[derive(Clone)]
pub struct LoopbackHandle {
    tx: Sender<LoopCmd>,
    next: Arc<AtomicU64>,
}

/// A paired loopback poller and its connection factory. `_shards` is
/// ignored, as [`TcpPoller::new`]'s is.
pub fn loopback(_shards: usize) -> (LoopbackPoller, LoopbackHandle) {
    let (tx, rx) = channel();
    let me = LoopbackHandle {
        tx,
        next: Arc::new(AtomicU64::new(0)),
    };
    let poller = LoopbackPoller {
        rx,
        links: Links::new(),
        me: me.clone(),
        routes: HashMap::new(),
    };
    (poller, me)
}

impl LoopbackPoller {
    /// Let [`Poller::dial`] reach the poller behind `handle` as `addr`.
    pub fn route(&mut self, addr: impl Into<String>, handle: LoopbackHandle) {
        self.routes.insert(addr.into(), handle);
    }

    fn apply(&mut self, cmd: LoopCmd, out: &mut Vec<IoEvent>) {
        match cmd {
            LoopCmd::Connect { id, peer } => {
                self.links.open(id, peer);
                out.push(IoEvent::Open(id));
            }
            LoopCmd::Data { id, bytes } => {
                if self.links.table.contains_key(&id) {
                    out.push(IoEvent::Data(id, bytes));
                }
            }
            LoopCmd::Close { id } => Links::evict(&mut self.links.table, id, out),
        }
    }
}

impl Poller for LoopbackPoller {
    fn poll(&mut self, timeout: Duration, out: &mut Vec<IoEvent>) -> io::Result<()> {
        out.append(&mut self.links.pending);
        if out.is_empty() && !timeout.is_zero() {
            if let Ok(cmd) = self.rx.recv_timeout(timeout) {
                self.apply(cmd, out);
            }
        }
        while let Ok(cmd) = self.rx.try_recv() {
            self.apply(cmd, out);
        }
        Ok(())
    }

    fn send(&mut self, conn: ConnId, bytes: &[u8]) {
        self.links.send(conn, bytes);
    }

    fn flush(&mut self) {
        // One message per round; a far end that is gone refuses it.
        self.links.flush(|end, wbuf| end.send(std::mem::take(wbuf)));
    }

    fn close(&mut self, conn: ConnId) {
        self.links.close(conn);
    }

    fn dial(&mut self, addr: &str) -> io::Result<ConnId> {
        let refused = io::ErrorKind::ConnectionRefused;
        let far = self.routes.get(addr).ok_or(refused)?;
        let (id, far_id) = (self.me.next_id(), far.next_id());
        let peer = self.me.end(id);
        let connect = LoopCmd::Connect { id: far_id, peer };
        far.tx.send(connect).map_err(|_| refused)?;
        self.links.open(id, far.end(far_id));
        Ok(id)
    }
}

impl LoopbackHandle {
    fn next_id(&self) -> ConnId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// The end of link `id` that writes to this handle's poller.
    fn end(&self, id: ConnId) -> End {
        let tx = self.tx.clone();
        End { tx, id }
    }

    /// Open a new in-process connection to the poller.
    pub fn connect(&self) -> LoopbackConn {
        let id = self.next_id();
        let (tx, rx) = channel();
        let _ = self.tx.send(LoopCmd::Connect {
            id,
            peer: End { tx, id },
        });
        let (end, dec) = (self.end(id), Decoder::new());
        LoopbackConn { end, rx, dec }
    }
}

/// The client end of one loopback connection: send [`Message`]s to the
/// reactor, receive its frames through an incremental decoder —
/// exactly the shape of a TCP worker session, minus the sockets.
/// Dropping it closes the connection.
pub struct LoopbackConn {
    end: End,
    rx: Receiver<LoopCmd>,
    dec: Decoder,
}

impl LoopbackConn {
    /// Send one message to the reactor.
    pub fn send(&self, msg: &Message) -> io::Result<()> {
        let mut frame = Vec::new();
        Frame::encode_into(msg, &mut frame);
        if self.end.send(frame) {
            Ok(())
        } else {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "poller is gone"))
        }
    }

    /// Receive without blocking: `Ok(None)` when no complete frame has
    /// arrived yet; `Err(UnexpectedEof)` once the reactor closed the
    /// connection and everything delivered was consumed.
    pub fn try_recv(&mut self) -> io::Result<Option<Message>> {
        loop {
            if let Some(msg) = self.dec.next_msg()? {
                return Ok(Some(msg));
            }
            match self.rx.try_recv() {
                Ok(LoopCmd::Data { bytes, .. }) => self.dec.feed(&bytes),
                Err(TryRecvError::Empty) => return Ok(None),
                Ok(LoopCmd::Connect { .. } | LoopCmd::Close { .. })
                | Err(TryRecvError::Disconnected) => {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{ERR_BAD_RESUME, ERR_UNSUPPORTED, PROTO_CURRENT};
    use ic_sim::trace::EventKind;
    use ic_sim::MemorySink;

    const TASKS: u64 = 8;
    const LEASE_US: u64 = 100_000;

    /// One worker takes all [`TASKS`] tasks in a single batch at time
    /// 0, reports them at half a lease (after heartbeating task 0, if
    /// `heartbeat`), and asks again at 1¼ leases, which drains it.
    /// With `steal_after`, stealing is on and a second worker asks at
    /// time 0 too: every task is out and none is a straggler yet, so
    /// it is told to `Wait`. Returns the timers still pending when the
    /// reactor exits: by then every assign timer (due at one lease)
    /// has fired, and anything armed at half a lease (due at 1½) or
    /// for the steal clock (due at 10) has not.
    fn timers_left(heartbeat: bool, steal_after: bool) -> usize {
        let dag = ic_dag::builder::from_arcs(TASKS as usize, &[]).unwrap();
        let policy = ic_sched::Schedule::in_id_order(&dag);
        let mut cfg = ServerConfig::builder()
            .lease_ms(LEASE_US / 1000)
            .expect_workers(1)
            .batch(TASKS as usize);
        if steal_after {
            cfg = cfg.steal_after(10 * LEASE_US / 1000);
        }
        let clock = ManualClock::new(0);
        let (poller, handle) = loopback(1);
        let driver = Driver::new(Box::new(clock.clone()), Box::new(poller));
        let mut reactor = Reactor::new(&dag, &policy, cfg.build(), driver);
        let mut sink = MemorySink::new();
        reactor.poll_round(Duration::ZERO, &mut sink).unwrap(); // boot

        // Lockstep: the frame goes in, one round answers it.
        let mut call = |conn: &mut LoopbackConn, msg: Message| {
            conn.send(&msg).unwrap();
            reactor.poll_round(Duration::ZERO, &mut sink).unwrap();
            conn.try_recv()
                .unwrap()
                .expect("the reactor answers every frame")
        };
        let conn = &mut handle.connect();
        let welcome = call(conn, Message::hello("w", 1.0));
        assert!(matches!(welcome, Message::Welcome { .. }));
        let Message::Assign { tasks } = call(conn, Message::Request { max: TASKS }) else {
            panic!("the whole dag fits one batch");
        };
        let mut idle = steal_after.then(|| handle.connect());
        if let Some(idle) = &mut idle {
            let welcome = call(idle, Message::hello("idle", 1.0));
            assert!(matches!(welcome, Message::Welcome { .. }));
            let wait = call(idle, Message::request());
            assert!(matches!(wait, Message::Wait { .. }), "got {wait:?}");
        }
        clock.advance(LEASE_US / 2);
        let beat = heartbeat.then_some(Message::Heartbeat { task: 0 });
        let dones = tasks.iter().map(|&task| Message::Done { task, ok: true });
        for msg in beat.into_iter().chain(dones) {
            let ack = call(conn, msg);
            assert!(matches!(ack, Message::Ack { accepted: true, .. }));
        }
        clock.advance(3 * LEASE_US / 4);
        for conn in std::iter::once(conn).chain(&mut idle) {
            assert_eq!(call(conn, Message::request()), Message::Drain);
        }
        let end = reactor.poll_round(Duration::ZERO, &mut sink).unwrap();
        assert!(matches!(end, Round::Drained(_)), "{end:?}");
        reactor.wheel.len()
    }

    /// An accepted `done` resolves its lease, so its ack arms nothing;
    /// an accepted heartbeat renews one, so its ack must. A `Wait`
    /// arms nothing either: the steal clock is read inside the next
    /// `request`, and the loop wakes every `POLL_TIMEOUT` anyway.
    #[test]
    fn a_completed_task_leaves_no_timer_and_a_heartbeat_arms_one() {
        assert_eq!(timers_left(false, false), 0, "one dead timer per done ack");
        assert_eq!(timers_left(true, false), 1, "the heartbeat's renewal");
        assert_eq!(timers_left(false, true), 0, "a dead timer per wait");
    }

    /// A [`Poller`] that logs the timeout of every `poll`, then moves
    /// the clock by the script step's microseconds and delivers its
    /// frame (from connection 0, opened by the first step). The run
    /// ends with an error when the script does.
    struct TimeoutLog {
        clock: ManualClock,
        script: std::collections::VecDeque<(u64, Option<Message>)>,
        log: std::rc::Rc<std::cell::RefCell<Vec<Duration>>>,
        opened: bool,
    }

    impl Poller for TimeoutLog {
        fn poll(&mut self, timeout: Duration, out: &mut Vec<IoEvent>) -> io::Result<()> {
            self.log.borrow_mut().push(timeout);
            let (us, msg) = self
                .script
                .pop_front()
                .ok_or_else(|| io::Error::other("end of script"))?;
            self.clock.advance(us);
            if !std::mem::replace(&mut self.opened, true) {
                out.push(IoEvent::Open(0));
            }
            if let Some(msg) = msg {
                let mut bytes = Vec::new();
                Frame::encode_into(&msg, &mut bytes);
                out.push(IoEvent::Data(0, bytes));
            }
            Ok(())
        }
        fn send(&mut self, _conn: ConnId, _bytes: &[u8]) {}
        fn flush(&mut self) {}
        fn close(&mut self, _conn: ConnId) {}
    }

    /// Run `script` through a [`TimeoutLog`] poller until it ends: the
    /// reactor afterwards, its trace, and the timeout of every poll.
    fn scripted<'a>(
        dag: &'a Dag,
        policy: &'a dyn AllocationPolicy,
        cfg: ServerConfig,
        script: Vec<(u64, Option<Message>)>,
    ) -> (Reactor<'a>, MemorySink, Vec<Duration>) {
        let clock = ManualClock::new(0);
        let log = std::rc::Rc::default();
        let poller = TimeoutLog {
            clock: clock.clone(),
            script: script.into(),
            log: std::rc::Rc::clone(&log),
            opened: false,
        };
        let driver = Driver::new(Box::new(clock), Box::new(poller));
        let mut reactor = Reactor::new(dag, policy, cfg, driver);
        let mut sink = MemorySink::new();
        let end = reactor.run_until_drain(&mut sink);
        assert!(end.is_err(), "the script ends the run: {end:?}");
        (reactor, sink, log.take())
    }

    /// The timeout of the poll after each step of `script`, run by one
    /// worker on 4 independent tasks in id order, `batch` per assign;
    /// `expect` workers hold the registration barrier.
    fn waits(batch: usize, expect: usize, script: Vec<(u64, Option<Message>)>) -> Vec<Duration> {
        let dag = ic_dag::builder::from_arcs(4, &[]).unwrap();
        let policy = ic_sched::Schedule::in_id_order(&dag);
        let cfg = ServerConfig::builder()
            .lease_ms(60_000)
            .expect_workers(expect)
            .batch(batch)
            .build();
        let (_, _, mut log) = scripted(&dag, &policy, cfg, script);
        assert_eq!(
            log.remove(0),
            POLL_TIMEOUT,
            "nothing is owed before a hello"
        );
        log
    }

    /// A [`TASKS`]-task `assign` arms one timer, not one per task; when
    /// its lease runs out the tasks fail in the `assign`'s order, as
    /// per-task timers due at the same tick fired.
    #[test]
    fn a_batch_assign_arms_one_timer_and_expires_in_its_order() {
        let dag = ic_dag::builder::from_arcs(TASKS as usize, &[]).unwrap();
        let order = [5, 2, 7, 0, 3, 6, 1, 4].map(ic_dag::NodeId).to_vec();
        let policy = ic_sched::Schedule::new(&dag, order.clone()).unwrap();
        let cfg = || {
            ServerConfig::builder()
                .lease_ms(LEASE_US / 1000)
                .expect_workers(1)
                .batch(TASKS as usize)
                .build()
        };
        let grant = vec![
            (0, Some(Message::hello("w", 1.0))),
            (0, Some(Message::Request { max: TASKS })),
        ];
        let (reactor, _, _) = scripted(&dag, &policy, cfg(), grant.clone());
        assert_eq!(reactor.wheel.len(), 1, "one timer for the batch");

        let expiry = [grant, vec![(2 * LEASE_US, None)]].concat();
        let (reactor, sink, _) = scripted(&dag, &policy, cfg(), expiry);
        assert!(reactor.wheel.is_empty());
        let events = sink.into_trace().unwrap().events;
        let tasks = |kind| -> Vec<ic_dag::NodeId> {
            events
                .iter()
                .filter(|e| e.kind == kind)
                .filter_map(|e| e.task)
                .collect()
        };
        assert_eq!(tasks(EventKind::Allocated), order, "the schedule's order");
        assert_eq!(tasks(EventKind::Failed), order, "the assign's order");
    }

    /// Step `ev` through `core` at `now_us`; the frames it sent on
    /// `conn`, decoded, and the rest of its output.
    fn step(
        core: &mut ServerCore,
        now_us: u64,
        ev: IoEvent,
        conn: ConnId,
    ) -> (Vec<Message>, Output) {
        core.on_io(now_us, ev);
        let out = std::mem::take(&mut core.out);
        let mut dec = Decoder::new();
        for t in &out.transmit {
            if let Transmit::Send(id, range) = t {
                if *id == conn {
                    dec.feed(&out.bytes[range.clone()]);
                }
            }
        }
        let frames = std::iter::from_fn(|| dec.next_msg().unwrap()).collect();
        (frames, out)
    }

    fn frame(msg: &Message) -> Vec<u8> {
        let mut bytes = Vec::new();
        Frame::encode_into(msg, &mut bytes);
        bytes
    }

    /// No poller and no clock: a registered worker holding a lease
    /// sends bytes that do not decode. The core closes that connection
    /// and severs its slot, and once the lease runs out the task goes
    /// to the next worker that asks.
    #[test]
    fn an_undecodable_frame_severs_its_worker_and_its_task_moves_on() {
        let dag = ic_dag::builder::from_arcs(1, &[]).unwrap();
        let policy = ic_sched::Schedule::in_id_order(&dag);
        let cfg = ServerConfig::builder().lease_ms(10).backoff_base_ms(0);
        let mut core = ServerCore::new(LeaseMachine::new(&dag, &policy, cfg.build()), 0);
        core.boot(0);
        core.out = Output::default();
        let (hello, request) = (Message::hello("w", 1.0), Message::request());

        core.on_io(0, IoEvent::Open(0));
        let (welcome, _) = step(&mut core, 0, IoEvent::Data(0, frame(&hello)), 0);
        assert!(
            matches!(welcome[..], [Message::Welcome { .. }]),
            "{welcome:?}"
        );
        let (assign, out) = step(&mut core, 0, IoEvent::Data(0, frame(&request)), 0);
        assert_eq!(assign, [Message::assign(0)]);
        let [(deadline, lease)] = &out.timers[..] else {
            panic!("one timer for the grant: {:?}", out.timers);
        };
        assert_eq!(core.machine().connected(), 1);

        // A length prefix and a body that is not JSON.
        let garbage = vec![0, 0, 0, 3, b'{', b'{', b'{'];
        let (reply, out) = step(&mut core, 5, IoEvent::Data(0, garbage), 0);
        assert!(reply.is_empty(), "{reply:?}");
        assert_eq!(out.transmit, [Transmit::Close(0)]);
        assert_eq!(core.registration(0), None);
        assert_eq!(core.machine().connected(), 0, "the slot was severed");

        core.on_io(5, IoEvent::Open(1));
        let (welcome, _) = step(&mut core, 5, IoEvent::Data(1, frame(&hello)), 1);
        assert!(
            matches!(welcome[..], [Message::Welcome { .. }]),
            "{welcome:?}"
        );
        let (wait, _) = step(&mut core, 5, IoEvent::Data(1, frame(&request)), 1);
        assert!(
            matches!(wait[..], [Message::Wait { .. }]),
            "still leased: {wait:?}"
        );
        assert_eq!(core.on_deadline(*deadline, lease.clone()), None);
        core.out = Output::default();
        let (assign, _) = step(&mut core, *deadline, IoEvent::Data(1, frame(&request)), 1);
        assert_eq!(assign, [Message::assign(0)]);
    }

    /// Two `done`s in one read are answered in one send: the two acks
    /// share one range of the output, which decodes to both.
    #[test]
    fn two_dones_in_one_read_leave_as_one_send_of_two_acks() {
        let dag = ic_dag::builder::from_arcs(2, &[]).unwrap();
        let policy = ic_sched::Schedule::in_id_order(&dag);
        let cfg = ServerConfig::builder().batch(2).build();
        let mut core = ServerCore::new(LeaseMachine::new(&dag, &policy, cfg), 0);
        core.boot(0);
        core.on_io(0, IoEvent::Open(0));
        step(
            &mut core,
            0,
            IoEvent::Data(0, frame(&Message::hello("w", 1.0))),
            0,
        );
        let request = frame(&Message::Request { max: 2 });
        let (assign, _) = step(&mut core, 0, IoEvent::Data(0, request), 0);
        assert_eq!(assign, [Message::Assign { tasks: vec![0, 1] }]);

        let dones = [0, 1].map(|task| frame(&Message::Done { task, ok: true }));
        let (acks, out) = step(&mut core, 5, IoEvent::Data(0, dones.concat()), 0);
        let ack = |task| Message::Ack {
            task,
            accepted: true,
        };
        assert_eq!(acks, [ack(0), ack(1)]);
        let [Transmit::Send(0, range)] = &out.transmit[..] else {
            panic!("one send: {:?}", out.transmit);
        };
        assert_eq!(*range, 0..out.bytes.len(), "the send spans both frames");
    }

    /// A refused hello, an old protocol or an unknown resume token, is
    /// answered with one typed `error` frame and a close, and leaves
    /// the connection unregistered and no slot connected.
    #[test]
    fn a_refused_hello_gets_one_typed_error_then_a_close() {
        let dag = ic_dag::builder::from_arcs(1, &[]).unwrap();
        let policy = ic_sched::Schedule::in_id_order(&dag);
        let old = Message::Hello {
            id: "old".into(),
            speed: 1.0,
            proto: 1,
            resume: None,
        };
        let stale = Message::Hello {
            id: "w".into(),
            speed: 1.0,
            proto: PROTO_CURRENT,
            resume: Some("feedfacefeedface".into()),
        };
        for (hello, want) in [(old, ERR_UNSUPPORTED), (stale, ERR_BAD_RESUME)] {
            let cfg = ServerConfig::builder().build();
            let mut core = ServerCore::new(LeaseMachine::new(&dag, &policy, cfg), 0);
            core.boot(0);
            core.on_io(0, IoEvent::Open(0));
            core.out = Output::default();
            let (reply, out) = step(&mut core, 0, IoEvent::Data(0, frame(&hello)), 0);
            let [Message::Error { code, .. }] = &reply[..] else {
                panic!("one error frame: {reply:?}");
            };
            assert_eq!(code, want);
            assert!(
                matches!(out.transmit[..], [Transmit::Send(0, _), Transmit::Close(0)]),
                "{:?}",
                out.transmit
            );
            assert_eq!(core.registration(0), None);
            assert_eq!(core.machine().connected(), 0);
        }
    }

    /// A token resume on a new connection registers it at the slot's
    /// next epoch; the old connection's later close is then stale and
    /// leaves the slot connected.
    #[test]
    fn a_token_resume_registers_the_new_connection_and_the_old_close_is_stale() {
        let dag = ic_dag::builder::from_arcs(1, &[]).unwrap();
        let policy = ic_sched::Schedule::in_id_order(&dag);
        let cfg = ServerConfig::builder().build();
        let mut core = ServerCore::new(LeaseMachine::new(&dag, &policy, cfg), 0);
        core.boot(0);
        core.on_io(0, IoEvent::Open(0));
        let (welcome, _) = step(
            &mut core,
            0,
            IoEvent::Data(0, frame(&Message::hello("w", 1.0))),
            0,
        );
        let [Message::Welcome {
            worker: 0,
            resume: Some(token),
            ..
        }] = &welcome[..]
        else {
            panic!("a fresh welcome with a token: {welcome:?}");
        };
        assert_eq!(core.registration(0), Some((0, 0)));

        core.on_io(0, IoEvent::Open(1));
        let resume = Message::Hello {
            id: "w".into(),
            speed: 1.0,
            proto: PROTO_CURRENT,
            resume: Some(token.clone()),
        };
        let (welcome, _) = step(&mut core, 0, IoEvent::Data(1, frame(&resume)), 1);
        assert!(
            matches!(welcome[..], [Message::Welcome { worker: 0, .. }]),
            "{welcome:?}"
        );
        assert_eq!(core.registration(1), Some((0, 1)));

        core.on_io(0, IoEvent::Closed(0));
        assert_eq!(core.registration(0), None);
        assert_eq!(core.registration(1), Some((0, 1)));
        assert_eq!(core.machine().connected(), 1);
    }

    const SPINS: Duration = Duration::ZERO;
    const NAPS: Duration = POLL_TIMEOUT;

    fn done(task: u64) -> Option<Message> {
        Some(Message::Done { task, ok: true })
    }

    #[test]
    fn a_fast_closed_loop_worker_is_spun_for_and_a_slow_one_napped_on() {
        let script = vec![
            (0, Some(Message::hello("w", 1.0))),
            // The owed request arrived; the first assign finds the
            // worker's speed unknown.
            (0, Some(Message::request())),
            // Answered at once: the ack leaves it holding nothing.
            (10, done(0)),
            (0, Some(Message::request())),
            // Answered `SLOW_US` late: the ack still owes the request,
            // but the next assign owes nothing.
            (SLOW_US, done(1)),
            (0, Some(Message::request())),
        ];
        assert_eq!(
            waits(1, 1, script),
            [SPINS, NAPS, SPINS, SPINS, SPINS, NAPS]
        );
    }

    #[test]
    fn a_heartbeat_ack_and_the_early_acks_of_a_batch_owe_nothing() {
        let script = vec![
            (0, Some(Message::hello("w", 1.0))),
            (0, Some(Message::Request { max: 2 })),
            (10, Some(Message::Heartbeat { task: 0 })),
            (0, done(0)),
            (0, done(1)),
        ];
        assert_eq!(waits(2, 1, script), [SPINS, NAPS, NAPS, NAPS, SPINS]);
    }

    #[test]
    fn a_wait_owes_nothing_and_an_owed_frame_is_spun_for_only_spin_us() {
        let script = vec![
            (0, Some(Message::hello("w", 1.0))),
            (SPIN_US - 1, None),
            (1, None),
            // The barrier wants a second worker.
            (0, Some(Message::request())),
        ];
        assert_eq!(waits(1, 2, script), [SPINS, SPINS, NAPS, NAPS]);
    }

    /// The nap grows with the silence, never past a quarter of it above
    /// the floor, and reaches the timeout at four timeouts of silence:
    /// neither a ladder that doubles per empty poll (its next rung is
    /// the silence plus the first) nor a fixed cap passes.
    #[test]
    fn a_nap_is_a_quarter_of_the_silence_between_the_floor_and_the_timeout() {
        let us = Duration::from_micros;
        for timeout in [NAP_MIN, us(200), POLL_TIMEOUT] {
            let mut last = Duration::ZERO;
            let end = 4 * u64::try_from(timeout.as_micros()).unwrap() + 1000;
            for silence in (0..=end).step_by(7).map(us) {
                let rung = nap_rung(silence, timeout);
                assert!(rung >= NAP_MIN, "{rung:?} after {silence:?}");
                assert!(rung <= NAP_MIN + silence / 4, "{rung:?} after {silence:?}");
                if silence >= 4 * timeout {
                    assert_eq!(rung, timeout, "after {silence:?}");
                }
                assert!(
                    rung >= last,
                    "{rung:?} after {silence:?} fell from {last:?}"
                );
                last = rung;
            }
        }
    }

    /// Nobody owes the real poller anything here: after one byte and
    /// 100 ms of silence its naps have climbed the ladder to the 5 ms
    /// cap (~35 polls), where a spin would have returned thousands of
    /// times.
    #[test]
    fn a_silent_tcp_poller_naps_up_to_its_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut poller = TcpPoller::new(listener, 1).unwrap();
        far.write_all(&[0]).unwrap();
        let mut events = Vec::new();
        while !events.iter().any(|e| matches!(e, IoEvent::Data(..))) {
            poller.poll(Duration::from_millis(5), &mut events).unwrap();
        }
        let (start, mut polls) = (Instant::now(), 0);
        while start.elapsed() < Duration::from_millis(100) {
            events.clear();
            poller.poll(Duration::from_millis(5), &mut events).unwrap();
            assert!(events.is_empty(), "{events:?}");
            polls += 1;
        }
        assert!(polls <= 40, "{polls} polls in 100 ms of silence");
    }
}
