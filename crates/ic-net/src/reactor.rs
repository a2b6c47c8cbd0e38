//! The event-driven reactor core of the IC task server.
//!
//! [`Reactor`] *is* the server: one thread owns every connection, a
//! nonblocking [`Poller`] surfaces transport readiness as
//! [`IoEvent`]s, per-connection frame state lives in an incremental
//! [`crate::wire::Decoder`], and lease expiry rides one deadline-ordered
//! queue ([`TimerWheel`]) instead of a per-lease scan. All protocol
//! semantics stay in the *pure* [`LeaseMachine`] — the reactor only stamps
//! events with clock microseconds and performs the returned effects
//! (in one place, `Reactor::perform`), so everything `ic-check` proves
//! about the machine (invariants IC0501–IC0507) holds for the running
//! server verbatim.
//!
//! Serving a dag is always the same three steps: build a [`Driver`]
//! ([`Driver::tcp`] over a bound listener in production), build the
//! reactor ([`Reactor::new`], or [`crate::Recovery::into_reactor`]
//! after a crash), and call [`Reactor::run_until_drain`] with the
//! [`TraceSink`] that receives the write-ahead trace. A driver that
//! interleaves several reactors calls its loop body,
//! [`Reactor::poll_round`], itself.
//!
//! # Injectable clock and poller
//!
//! The reactor is generic over a [`Clock`] and a [`Poller`], injected
//! together as a [`Driver`]:
//!
//! * the live TCP server uses [`MonotonicClock`] + [`TcpPoller`]
//!   (std-only nonblocking sockets — the workspace has no `libc`, no
//!   `unsafe`, and therefore no raw `epoll`; the poller naps between
//!   scans instead, see below);
//! * deterministic drivers — the lockstep tests and `ic-fed`'s
//!   in-process federation — use [`ManualClock`] + [`LoopbackPoller`],
//!   where time only moves when the driver says so and "sockets" are
//!   in-process channels.
//!
//! Both paths execute the *same* reactor code, so what the
//! deterministic tests exercise is exactly what production runs.
//!
//! # Who decides to wait
//!
//! A frame that lands in [`TcpPoller`]'s nap waits it out, so the
//! reactor decides whether to wait, from what the protocol owes it: a
//! worker's next frame comes at once after a `welcome`, after the `ack`
//! that leaves it holding no task, and after an `assign` if it answered
//! its previous one within `SLOW_US`. While one is owed, for at most
//! `SPIN_US` after the flush of the round that owed it, the loop polls
//! with a zero timeout; otherwise (nothing else owes) `POLL_TIMEOUT`.
//!
//! # Timers are lazy
//!
//! Timers are never cancelled (see [`crate::timer`]): every `assign`
//! and resume `welcome` schedules one [`Deadline::Leases`] for all its
//! tasks, and every heartbeat renewal one [`Deadline::Lease`], at the
//! deadline the machine recorded, so the queue grows with grants, not
//! tasks, and each appends at its back. A firing steps `Event::Expire`
//! per task, which the machine ignores by its `deadline_us <= now_us`
//! guard if the lease was meanwhile completed, forfeited, renewed, or
//! revoked. Stale firings are cheap no-ops; missed expiries are
//! impossible as long as every grant path schedules — assigns (primary
//! and speculative), heartbeat renewals, and resume welcomes all re-arm
//! a timer. The steal clock has no timer: the machine reads it inside
//! the next `request`, and a waiting worker asks again after `wait_ms`.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ic_dag::Dag;
use ic_sched::policy::AllocationPolicy;
use ic_sim::trace::TraceSink;

use crate::machine::{Effect, Event, LeaseMachine};
use crate::peers::{FedConfig, Peers};
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
    /// Bytes arrived on a connection (any chunking; the reactor's
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
}

/// A sharded hash table keyed by [`ConnId`], used for the reactor's
/// connection state and the pollers' link tables. Sharding keeps
/// each underlying map small (cheaper rehashing at 10k-connection
/// scale) and gives iteration a natural batch structure; the server
/// runs every table at `TABLE_SHARDS`.
#[derive(Debug)]
pub struct ShardedTable<V> {
    shards: Vec<HashMap<ConnId, V>>,
    mask: u64,
}

impl<V> ShardedTable<V> {
    /// A table with `shards` shards (rounded up to a power of two,
    /// minimum 1).
    pub fn new(shards: usize) -> ShardedTable<V> {
        let n = shards.max(1).next_power_of_two();
        ShardedTable {
            shards: (0..n).map(|_| HashMap::new()).collect(),
            mask: (n as u64) - 1,
        }
    }

    fn shard(&self, id: ConnId) -> usize {
        usize::try_from(id & self.mask).unwrap_or(0)
    }

    /// Insert (or replace) the value for `id`.
    pub fn insert(&mut self, id: ConnId, v: V) -> Option<V> {
        let s = self.shard(id);
        self.shards[s].insert(id, v)
    }

    /// Shared access to the value for `id`.
    pub fn get(&self, id: ConnId) -> Option<&V> {
        self.shards[self.shard(id)].get(&id)
    }

    /// Mutable access to the value for `id`.
    pub fn get_mut(&mut self, id: ConnId) -> Option<&mut V> {
        let s = self.shard(id);
        self.shards[s].get_mut(&id)
    }

    /// Remove and return the value for `id`.
    pub fn remove(&mut self, id: ConnId) -> Option<V> {
        let s = self.shard(id);
        self.shards[s].remove(&id)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(HashMap::is_empty)
    }

    /// Append every live id to `out` (callers reuse the scratch vec
    /// across polls to avoid per-iteration allocation).
    pub fn collect_ids(&self, out: &mut Vec<ConnId>) {
        for shard in &self.shards {
            out.extend(shard.keys().copied());
        }
    }
}

/// Shard count of the server's connection tables (the reactor's and
/// the TCP poller's). A constant until ROADMAP 4(b) decides whether
/// sharding stays at all.
const TABLE_SHARDS: usize = 8;

/// Longest one poll may park when nothing arrives: the latency cap on
/// timer processing (lease expiry, redials, the drain check).
const POLL_TIMEOUT: Duration = Duration::from_millis(5);

/// How long the loop spins for an owed frame after the flush of the
/// round that owed it (a closed-loop `request` comes within ~35 µs).
const SPIN_US: u64 = 100;

/// A worker whose first `done` came this soon after its `assign` is
/// owed after the next one: above a fast answer seen *through* the nap
/// ladder's first rungs (~110, ~310 µs), lest the measure fulfil itself.
const SLOW_US: u64 = 400;

/// The wait rule (module docs): a flag per connection, a count, a deadline.
#[derive(Debug, Default)]
struct Owed {
    /// Connections whose [`ConnState::owed`] flag is set.
    conns: usize,
    /// Clock time at which the current spin ends; `None` after a round
    /// that owed a frame, until the flush that starts the window.
    until_us: Option<u64>,
}

impl Owed {
    /// Set or clear (frame arrived, connection gone) `st`'s flag.
    fn mark(&mut self, st: &mut ConnState, owed: bool) {
        match (std::mem::replace(&mut st.owed, owed), owed) {
            (false, true) => (self.conns, self.until_us) = (self.conns + 1, None),
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

    /// The next poll's timeout, at `now_us` just after the flush.
    fn timeout(&mut self, now_us: u64) -> Duration {
        let until_us = *self.until_us.get_or_insert(now_us.saturating_add(SPIN_US));
        if self.conns > 0 && now_us < until_us {
            Duration::ZERO
        } else {
            POLL_TIMEOUT
        }
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
    /// Dial (or redial) a federation peer link this reactor owns (it
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
            poller: Box::new(TcpPoller::new(listener, TABLE_SHARDS)?),
        })
    }

    /// The same driver with its clock shifted forward by `offset_us`.
    /// Crash recovery ([`crate::recovery`]) uses this to start the
    /// restarted server's clock where the crashed run's trace stopped,
    /// so appended events carry monotonically continuing timestamps.
    pub fn offset(self, offset_us: u64) -> Driver {
        struct OffsetClock {
            inner: Box<dyn Clock>,
            offset_us: u64,
        }
        impl Clock for OffsetClock {
            fn now_us(&self) -> u64 {
                self.inner.now_us().saturating_add(self.offset_us)
            }
        }
        Driver {
            clock: Box::new(OffsetClock {
                inner: self.clock,
                offset_us,
            }),
            poller: self.poller,
        }
    }
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver").finish_non_exhaustive()
    }
}

/// Per-connection reactor state: frame reassembly plus the worker slot
/// and registration epoch once the connection has said hello.
#[derive(Debug, Default)]
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

/// The transport half of a [`Reactor`] — clock, poller, timer queue,
/// connection table (peer links are connections like any other) and
/// the scratch encode buffer — apart from its machine and its
/// [`Peers`], so a call into the peer links can borrow it whole.
pub(crate) struct Io {
    pub(crate) clock: Box<dyn Clock>,
    pub(crate) poller: Box<dyn Poller>,
    pub(crate) wheel: TimerWheel<Deadline>,
    pub(crate) conns: ShardedTable<ConnState>,
    /// Scratch encode buffer, reused across frames.
    out: Vec<u8>,
}

impl Io {
    /// Encode one frame into the scratch buffer and hand it to the
    /// poller.
    pub(crate) fn send(&mut self, id: ConnId, msg: &Message) {
        self.out.clear();
        Frame::encode_into(msg, &mut self.out);
        self.poller.send(id, &self.out);
    }

    /// Forget a connection ourselves: no `Closed` event will follow.
    pub(crate) fn cut(&mut self, id: ConnId) {
        self.conns.remove(id);
        self.poller.close(id);
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

/// The event-driven IC task server. Construct with [`Reactor::new`],
/// drive with [`Reactor::run_until_drain`] or, round by round, with
/// [`Reactor::poll_round`].
pub struct Reactor<'a> {
    machine: LeaseMachine<'a, 'a>,
    io: Io,
    /// Peer links to the other shards.
    peers: Peers,
    owed: Owed,
    /// The first round booted the machine.
    booted: bool,
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

    /// A reactor over an already-built machine. Every outstanding
    /// lease the machine carries is armed to expire `lease_ms` from
    /// now: a fresh machine has none, while one rebuilt from a
    /// replayed trace prefix by
    /// [`LeaseMachine::restore`](crate::machine::LeaseMachine::restore)
    /// (the crash-recovery entry point, [`crate::recovery`]) holds the
    /// crashed run's, so a worker that never resumes forfeits on the
    /// usual clock and its tasks are reallocated.
    pub fn from_machine(machine: LeaseMachine<'a, 'a>, driver: Driver) -> Reactor<'a> {
        let now = driver.clock.now_us();
        let io = Io {
            clock: driver.clock,
            poller: driver.poller,
            wheel: TimerWheel::new(now),
            conns: ShardedTable::new(TABLE_SHARDS),
            out: Vec::new(),
        };
        let mut reactor = Reactor {
            machine,
            io,
            peers: Peers::standalone(),
            owed: Owed::default(),
            booted: false,
            done_at: None,
            events: Vec::new(),
            fired: Vec::new(),
        };
        for lease in reactor.machine.lease_views() {
            let (worker, task) = (lease.worker, lease.task.index() as u64);
            reactor.arm(Deadline::Lease { worker, task }, now);
        }
        reactor
    }

    /// Enroll this reactor in a federation: `meta` says which shard
    /// this is, stamps its trace header and tells the machine which
    /// nodes are stubs and replicas; `fed` adds what the header does
    /// not record — where the peers listen and which completions to
    /// forward. Call before the first [`poll_round`](Reactor::poll_round),
    /// which dials the links this shard owns.
    pub fn set_fed(&mut self, meta: ic_sim::trace::FedMeta, fed: FedConfig) {
        self.peers = Peers::new(&meta, fed, &mut self.io);
        self.machine.set_fed(meta);
    }

    /// Serve until the dag completes and the drain grace expires (or
    /// every connection is gone), streaming every decision into
    /// `sink` (header first, then events in server order): a loop over
    /// [`poll_round`](Reactor::poll_round) whose timeout the wait rule
    /// (module docs) sets just after each round's flush.
    pub fn run_until_drain(&mut self, sink: &mut dyn TraceSink) -> io::Result<ServeReport> {
        let mut timeout = self.owed.timeout(self.io.clock.now_us());
        loop {
            match self.poll_round(timeout, sink)? {
                Round::Drained(report) => return Ok(report),
                // Spinning for an owed frame: let its sender run.
                Round::Idle if timeout.is_zero() => std::thread::yield_now(),
                Round::Idle | Round::Busy => {}
            }
            timeout = self.owed.timeout(self.io.clock.now_us());
        }
    }

    /// One poll round, the unit of I/O: poll (waiting at most
    /// `timeout`), dispatch what arrived, fire due timers, check the
    /// drain, then `sink.flush()` and only then `poller.flush()`, so a
    /// sink error ends the run before any reply of the round is out.
    /// The first round only boots the machine and commits that.
    pub fn poll_round(&mut self, timeout: Duration, sink: &mut dyn TraceSink) -> io::Result<Round> {
        let round = if std::mem::replace(&mut self.booted, true) {
            self.step_round(timeout, sink)?
        } else {
            let now = self.io.clock.now_us();
            let fx = self.machine.boot(now);
            self.perform(fx, now, None, sink);
            Round::Busy
        };
        // The one commit point, WAL before wire: a kill inside a
        // round loses only events no peer heard of (DESIGN §4h).
        sink.flush()?;
        self.io.poller.flush();
        Ok(round)
    }

    /// A round up to its commit: poll, dispatch, due timers, drain check.
    fn step_round(&mut self, timeout: Duration, sink: &mut dyn TraceSink) -> io::Result<Round> {
        let mut events = std::mem::take(&mut self.events);
        self.io.poller.poll(timeout, &mut events)?;
        let mut busy = !events.is_empty();
        for ev in events.drain(..) {
            match ev {
                IoEvent::Open(id) => {
                    self.io.conns.insert(id, ConnState::default());
                }
                IoEvent::Data(id, bytes) => self.on_data(id, &bytes, sink),
                IoEvent::Closed(id) => self.drop_conn(id, sink),
            }
        }
        self.events = events;

        let mut fired = std::mem::take(&mut self.fired);
        let now = self.io.clock.now_us();
        self.io.wheel.advance(now, &mut fired);
        busy |= !fired.is_empty();
        for d in fired.drain(..) {
            match d {
                Deadline::Lease { worker, task } => self.expire(worker, task, now, sink),
                Deadline::Leases { worker, tasks } => {
                    for task in tasks {
                        self.expire(worker, task, now, sink);
                    }
                }
                Deadline::Redial { peer } => self.peers.dial(peer, &mut self.io),
            }
        }
        self.fired = fired;

        if self.machine.is_complete() {
            let now = self.io.clock.now_us();
            let waited = now.saturating_sub(*self.done_at.get_or_insert(now));
            let peers_done = self.peers.drained(waited, &mut self.io);
            if peers_done && (self.machine.connected() == 0 || waited >= self.drain_grace_us()) {
                let report = self.machine.summary(now);
                return Ok(Round::Drained(self.peers.tally(report)));
            }
        }
        Ok(if busy { Round::Busy } else { Round::Idle })
    }

    /// The earliest clock time at which this reactor has work that no
    /// input brings: its next timer, or the end of the drain grace once
    /// the dag is complete. `None`: only input can move it.
    pub fn next_wake_us(&self) -> Option<u64> {
        let now = self.io.clock.now_us();
        let grace = self
            .done_at
            .map(|at| at.saturating_add(self.drain_grace_us()));
        let grace = grace.filter(|&t| t > now);
        self.io.wheel.next_due().into_iter().chain(grace).min()
    }

    /// How long a completed dag waits for connected workers.
    fn drain_grace_us(&self) -> u64 {
        self.machine.lease_us().max(250_000)
    }

    /// Feed arrived bytes to the connection's decoder and dispatch
    /// every complete frame. A decode error (oversized prefix, garbage
    /// payload, foreign JSON) drops the connection.
    fn on_data(&mut self, id: ConnId, bytes: &[u8], sink: &mut dyn TraceSink) {
        if let Some(st) = self.io.conns.get_mut(id) {
            st.dec.feed(bytes);
            self.owed.mark(st, false);
        }
        loop {
            // Decode with the short-lived borrow, dispatch without it:
            // dispatch may remove the connection (drain, bye, error),
            // at which point `get_mut` misses and the loop ends.
            let msg = match self.io.conns.get_mut(id).map(|st| st.dec.next_msg()) {
                None | Some(Ok(None)) => break,
                Some(Ok(Some(msg))) => msg,
                Some(Err(_)) => {
                    self.drop_conn(id, sink);
                    break;
                }
            };
            match self.io.conns.get(id).map(|st| (st.peer, st.reg)) {
                Some((Some(_), _)) => self.dispatch_peer(id, msg, sink),
                Some((None, Some(reg))) => self.dispatch_registered(id, reg, msg, sink),
                Some((None, None)) | None => self.dispatch_unregistered(id, msg, sink),
            }
        }
    }

    /// First frame on a connection: a valid `hello` registers (fresh
    /// or resume); anything else is a protocol error.
    fn dispatch_unregistered(&mut self, id: ConnId, msg: Message, sink: &mut dyn TraceSink) {
        let now_us = self.io.clock.now_us();
        match msg {
            Message::Hello {
                id: wid,
                speed,
                proto,
                resume,
            } if speed.is_finite() && speed > 0.0 => {
                let fx = self.machine.step(Event::Hello {
                    id: wid,
                    speed,
                    proto,
                    resume,
                    now_us,
                });
                self.perform(fx, now_us, Some((id, None)), sink);
            }
            // A peer shard dialed us.
            msg @ Message::PeerHello { .. } => self.dispatch_peer(id, msg, sink),
            _ => {
                self.io.send(
                    id,
                    &Message::error("expected hello with a positive finite speed"),
                );
                self.drop_conn(id, sink);
            }
        }
    }

    /// A frame from an established federation peer link, or the
    /// `peer-hello` establishing one.
    fn dispatch_peer(&mut self, id: ConnId, msg: Message, sink: &mut dyn TraceSink) {
        let now_us = self.io.clock.now_us();
        match self.peers.on_frame(id, msg, &mut self.io) {
            Ok(Some(task)) => {
                let fx = self.machine.step(Event::RemoteDone { task, now_us });
                self.perform(fx, now_us, None, sink);
            }
            Ok(None) => {}
            Err(()) => self.drop_conn(id, sink),
        }
    }

    /// A frame from a registered worker. A connection whose slot has
    /// since been resumed elsewhere no longer speaks for it: it is told
    /// so and closed (its `Sever` carries the stale epoch, a no-op).
    fn dispatch_registered(
        &mut self,
        id: ConnId,
        reg: (usize, u64),
        msg: Message,
        sink: &mut dyn TraceSink,
    ) {
        let (worker, epoch) = reg;
        if self.machine.worker_epoch(worker) != Some(epoch) {
            self.io
                .send(id, &Message::error("connection superseded by a resume"));
            return self.drop_conn(id, sink);
        }
        let now_us = self.io.clock.now_us();
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
            Message::Bye => return self.drop_conn(id, sink),
            _ => {
                self.io.send(
                    id,
                    &Message::error("unexpected server-side message from a worker"),
                );
                return self.drop_conn(id, sink);
            }
        };
        let beat = matches!(event, Event::Heartbeat { .. });
        let fx = self.machine.step(event);
        // A heartbeat's accepted ack renewed the lease: re-arm it. A
        // done's ack has no lease left to time.
        if beat {
            if let Some(Effect::Reply(Message::Ack {
                task,
                accepted: true,
            })) = fx.last()
            {
                let task = *task;
                self.arm(Deadline::Lease { worker, task }, now_us);
            }
        }
        if let (Some(Effect::Reply(reply)), Some(st)) = (fx.last(), self.io.conns.get_mut(id)) {
            self.owed.book(st, reply, beat, now_us);
        }
        self.perform(fx, now_us, Some((id, Some(reg))), sink);
    }

    /// Schedule the expiry timer for leases granted or renewed at
    /// `now_us`, at the deadline the machine itself recorded for them,
    /// so the firing is never early.
    fn arm(&mut self, leases: Deadline, now_us: u64) {
        let deadline = self.machine.lease_deadline(now_us);
        self.io.wheel.schedule(deadline, leases);
    }

    /// A lease timer fired: step its expiry at `now_us`.
    fn expire(&mut self, worker: usize, task: u64, now_us: u64, sink: &mut dyn TraceSink) {
        let fx = self.machine.step(Event::Expire {
            worker,
            task,
            now_us,
        });
        self.perform(fx, now_us, None, sink);
    }

    /// Forget a connection, whoever ended it (EOF, decode error, bye,
    /// drain, a refused hello): step `Sever` if it was a registered
    /// worker, schedule the redial if it was a peer link, and close
    /// the transport once any farewell frame has flushed.
    fn drop_conn(&mut self, id: ConnId, sink: &mut dyn TraceSink) {
        if let Some(mut st) = self.io.conns.remove(id) {
            self.owed.mark(&mut st, false);
            if let Some((worker, epoch)) = st.reg {
                let now_us = self.io.clock.now_us();
                let fx = self.machine.step(Event::Sever {
                    worker,
                    epoch,
                    now_us,
                });
                self.perform(fx, now_us, None, sink);
            }
            if let Some(peer) = st.peer {
                self.peers.link_down(id, peer, &mut self.io);
            }
        }
        self.io.poller.close(id);
    }

    /// Perform the effects of one machine step taken at `now_us` — the
    /// one place every [`Effect`] variant is handled. `from` names the
    /// connection whose frame raised the event and, once it has
    /// registered, its `(worker, epoch)`; it is `None` for steps no
    /// connection asked for (boot, expiry, sever, `remote-done`).
    fn perform(
        &mut self,
        fx: Vec<Effect>,
        now_us: u64,
        from: Option<(ConnId, Option<(usize, u64)>)>,
        sink: &mut dyn TraceSink,
    ) {
        let mut drained = None;
        for e in fx {
            match (e, from) {
                (Effect::Header(h), _) => sink.header(&h),
                (Effect::Trace(ev), _) => {
                    sink.record(&ev);
                    self.peers.recorded(&ev, &mut self.io);
                }
                (Effect::Reply(msg), Some((id, Some((worker, _))))) => {
                    self.io.send(id, &msg);
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
                (Effect::Registered { msg, worker, epoch }, Some((id, _))) => {
                    self.io.send(id, &msg);
                    if let Message::Welcome { tasks, .. } = msg {
                        if let Some(st) = self.io.conns.get_mut(id) {
                            st.reg = Some((worker, epoch));
                            st.held = tasks.len();
                            self.owed.mark(st, true);
                        }
                        // A resume's welcome restores held leases with
                        // renewed clocks: re-arm them, as one grant.
                        if !tasks.is_empty() {
                            self.arm(Deadline::Leases { worker, tasks }, now_us);
                        }
                    } else {
                        // Refused (unsupported proto, bad resume): the
                        // typed error frame is on its way out; close.
                        self.drop_conn(id, sink);
                    }
                }
                (Effect::Reply(_) | Effect::Registered { .. }, _) => {
                    debug_assert!(false, "a reply needs the connection that asked");
                }
            }
        }
        if let Some(id) = drained {
            // The worker got its drain frame; its part is over. Sever
            // now and close after the frame flushes.
            self.drop_conn(id, sink);
        }
    }
}

impl std::fmt::Debug for Reactor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("conns", &self.io.conns.len())
            .field("timers", &self.io.wheel.len())
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
    table: ShardedTable<Link<T>>,
    /// Connections that queued output since the last flush.
    dirty: Vec<ConnId>,
    /// `Closed` events found outside `poll` (failed flushes).
    pending: Vec<IoEvent>,
}

impl<T> Links<T> {
    fn new(shards: usize) -> Links<T> {
        Links {
            table: ShardedTable::new(shards),
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
        if let Some(link) = self.table.get_mut(id) {
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
    fn flush(&mut self, write: fn(&mut T, &mut Vec<u8>) -> bool) {
        for id in self.dirty.drain(..) {
            if let Some(link) = self.table.get_mut(id) {
                let alive = write(&mut link.io, &mut link.wbuf);
                if link.spent(alive) {
                    Self::evict(&mut self.table, id, &mut self.pending);
                }
            }
        }
    }

    /// [`Poller::close`]: a flush or scan drops it once the farewell is out.
    fn close(&mut self, id: ConnId) {
        if let Some(link) = self.table.get_mut(id) {
            link.closing = true;
            if link.spent(true) {
                self.table.remove(id);
            }
        }
    }

    /// Drop a spent link, reporting a drop the reactor did not ask for.
    fn evict(table: &mut ShardedTable<Link<T>>, id: ConnId, out: &mut Vec<IoEvent>) {
        if table.remove(id).is_some_and(|link| !link.closing) {
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

/// The nap ladder's first rung. Shorter buys nothing under 50 µs of
/// timer slack, where any `thread::sleep` lasts 56 µs or more.
const NAP_MIN: Duration = Duration::from_micros(50);

/// The production [`Poller`]: a nonblocking `TcpListener` plus a
/// sharded table of nonblocking streams with per-connection write
/// buffers.
///
/// The workspace forbids `unsafe` and external crates, so there is no
/// raw `epoll` to block on. Each `poll` is one accept+scan pass with
/// nonblocking reads, preceded by a nap only when the last poll came
/// back empty, nothing was flushed since, and the timeout is not zero:
/// `NAP_MIN`, doubling per empty poll up to the timeout, so a quiet
/// server costs ~no CPU.
pub struct TcpPoller {
    listener: TcpListener,
    links: Links<TcpStream>,
    next_id: ConnId,
    nap: Duration,
    /// The last poll found nothing and nothing was flushed since.
    idle: bool,
    /// Scratch id list reused across polls.
    scan: Vec<ConnId>,
    /// Scratch read buffer.
    rbuf: Vec<u8>,
}

impl TcpPoller {
    /// Wrap a bound listener; `shards` sizes the connection table.
    pub fn new(listener: TcpListener, shards: usize) -> io::Result<TcpPoller> {
        listener.set_nonblocking(true)?;
        Ok(TcpPoller {
            listener,
            links: Links::new(shards),
            next_id: 0,
            nap: NAP_MIN,
            idle: false,
            scan: Vec::new(),
            rbuf: vec![0u8; READ_CHUNK],
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
    fn write(stream: &mut TcpStream, wbuf: &mut Vec<u8>) -> bool {
        while !wbuf.is_empty() {
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
    fn service(link: &mut Link<TcpStream>, rbuf: &mut [u8], gathered: &mut Vec<u8>) -> bool {
        if !Self::write(&mut link.io, &mut link.wbuf) {
            return false;
        }
        if link.closing {
            return true; // the reactor already forgot it: no reads
        }
        loop {
            match link.io.read(rbuf) {
                Ok(0) => return false,
                Ok(n) => {
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
        let nap = self.idle && !timeout.is_zero();
        if nap {
            std::thread::sleep(self.nap.min(timeout));
        }
        let before = out.len();
        out.append(&mut self.links.pending);
        // Admit new connections.
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let id = self.next_id;
                    self.next_id += 1;
                    self.links.open(id, stream);
                    out.push(IoEvent::Open(id));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }

        // Scan every connection: drain flush residue, then read.
        self.scan.clear();
        self.links.table.collect_ids(&mut self.scan);
        let ids = std::mem::take(&mut self.scan);
        for &id in &ids {
            let mut gathered: Vec<u8> = Vec::new();
            let Some(link) = self.links.table.get_mut(id) else {
                continue;
            };
            let alive = Self::service(link, &mut self.rbuf, &mut gathered);
            let spent = link.spent(alive);
            if !gathered.is_empty() {
                out.push(IoEvent::Data(id, gathered));
            }
            if spent {
                Links::evict(&mut self.links.table, id, out);
            }
        }
        self.scan = ids;
        self.idle = out.len() == before;
        if !self.idle {
            self.nap = NAP_MIN;
        } else if nap {
            self.nap = (self.nap * 2).min(timeout.max(NAP_MIN));
        }
        Ok(())
    }

    fn send(&mut self, conn: ConnId, bytes: &[u8]) {
        self.links.send(conn, bytes);
    }

    fn flush(&mut self) {
        // Output predicts input: scan before the next nap.
        self.idle &= self.links.dirty.is_empty();
        self.links.flush(Self::write);
    }

    fn close(&mut self, conn: ConnId) {
        self.links.close(conn);
    }

    fn dial(&mut self, addr: &str) -> io::Result<ConnId> {
        let none = io::ErrorKind::InvalidInput;
        let sa = addr.to_socket_addrs()?.next().ok_or(none)?;
        self.adopt(TcpStream::connect_timeout(&sa, DIAL_TIMEOUT)?)
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

/// A paired loopback poller and its connection factory; `shards`
/// sizes its link table, as it does [`TcpPoller::new`]'s.
pub fn loopback(shards: usize) -> (LoopbackPoller, LoopbackHandle) {
    let (tx, rx) = channel();
    let me = LoopbackHandle {
        tx,
        next: Arc::new(AtomicU64::new(0)),
    };
    let poller = LoopbackPoller {
        rx,
        links: Links::new(shards),
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
                if self.links.table.get(id).is_some() {
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
        reactor.io.wheel.len()
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
        assert_eq!(reactor.io.wheel.len(), 1, "one timer for the batch");

        let expiry = [grant, vec![(2 * LEASE_US, None)]].concat();
        let (reactor, sink, _) = scripted(&dag, &policy, cfg(), expiry);
        assert!(reactor.io.wheel.is_empty());
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

    /// Nobody owes the real poller anything here: after one byte and
    /// 100 ms of silence its naps have climbed the ladder to the 5 ms
    /// cap (~27 polls), where a spin would have returned thousands of
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
