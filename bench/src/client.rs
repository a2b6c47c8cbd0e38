//! The load generator: one thread, at most two loopback TCP
//! connections, nonblocking and busy-polling, closed loop.
//!
//! Each connection behaves as `ic_net::run_worker` does — `request`,
//! wait for the `assign`, report every task with `done`, wait for every
//! `ack`, `request` again — because a `request` sent while leased
//! forfeits the lease, so the work in flight per connection is bounded
//! by the batch size. Service time is kept by deadlines inside the poll
//! loop; the thread never sleeps and never blocks.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ic_net::{Decoder, Frame, Message};

use crate::spans::{Recorder, SpanId};

/// What one connection is waiting for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Nothing in flight: the next poll sends a `request`.
    Idle,
    AwaitAssign,
    /// Computing the held batch until the deadline.
    Service(Instant),
    AwaitAcks,
    /// The server said `wait`; ask again at the deadline.
    Backoff(Instant),
    /// Crash plan: every ack is in and no `request` was sent.
    Quiesced,
    /// Crash plan: holding a freshly assigned full batch, unreported.
    Holding,
    Drained,
    /// Closed by the peer before `drain`.
    Lost,
}

struct Conn {
    stream: TcpStream,
    dec: Decoder,
    idx: u8,
    phase: Phase,
    held: Vec<u64>,
    acks_pending: usize,
    req_at: Instant,
    /// When the last `done` of the previous batch was written.
    done_at: Option<Instant>,
    cycle: u32,
    turnaround_span: Option<SpanId>,
    phase_span: Option<SpanId>,
}

/// Everything the client counted and timed while driving one server.
#[derive(Debug, Default)]
pub struct Tally {
    /// `request` written → `assign` decoded, nanoseconds.
    pub assign_ns: Vec<u64>,
    /// Last `done` of a batch written → next `assign` decoded.
    pub turnaround_ns: Vec<u64>,
    pub tasks_assigned: u64,
    pub assign_frames: u64,
    pub acks_accepted: u64,
    pub acks_rejected: u64,
    pub error_frames: u64,
    pub lost_conns: u64,
    pub waits: u64,
    pub first_request: Option<Instant>,
    pub first_assign: Option<Instant>,
    pub last_ack: Option<Instant>,
    pub last_drain: Option<Instant>,
    pub service_ns: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Peak RSS (MB) and thread count of the server at 90 % done.
    pub server_rss_and_threads: Option<(f64, u64)>,
}

impl Tally {
    /// Fold a later phase (the restarted server's) into this one.
    pub fn absorb(&mut self, later: Tally) {
        self.assign_ns.extend(later.assign_ns);
        self.turnaround_ns.extend(later.turnaround_ns);
        self.tasks_assigned += later.tasks_assigned;
        self.assign_frames += later.assign_frames;
        self.acks_accepted += later.acks_accepted;
        self.acks_rejected += later.acks_rejected;
        self.error_frames += later.error_frames;
        self.lost_conns += later.lost_conns;
        self.waits += later.waits;
        self.first_request = self.first_request.or(later.first_request);
        self.last_ack = later.last_ack.or(self.last_ack);
        self.last_drain = later.last_drain.or(self.last_drain);
        self.service_ns += later.service_ns;
        self.bytes_sent += later.bytes_sent;
        self.bytes_received += later.bytes_received;
        self.server_rss_and_threads = later.server_rss_and_threads.or(self.server_rss_and_threads);
    }
}

/// How the client ended a drive.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// Every connection got its `drain` (or was lost).
    Finished,
    /// The crash point: connection 0 quiesced, connection 1 holds a
    /// full unreported batch. The server may be killed now.
    CrashPoint,
}

pub struct Client<'r> {
    conns: Vec<Conn>,
    batch: u64,
    /// Service times (ns) handed out in order, one per task; empty
    /// means zero service.
    service: Vec<u64>,
    next_service: usize,
    /// Time the client takes to turn a frame around (zero: at once).
    gap: Duration,
    /// Accepted acks at which the crash plan starts (never, if `None`).
    crash_after: Option<u64>,
    /// Sample the server's peak RSS once this many acks are in.
    rss_after: u64,
    server_pid: u32,
    pub tally: Tally,
    rec: &'r mut Recorder,
    serve_span: Option<SpanId>,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

impl<'r> Client<'r> {
    /// Connect `ids.len()` workers to `addr` and wait until each is
    /// welcomed.
    pub fn connect(
        addr: SocketAddr,
        ids: &[String],
        batch: u64,
        server_pid: u32,
        rec: &'r mut Recorder,
    ) -> io::Result<Client<'r>> {
        let mut conns = Vec::new();
        let mut hello = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            hello.clear();
            Frame::encode_into(&Message::hello(id.clone(), 1.0), &mut hello);
            stream.write_all(&hello)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                dec: Decoder::new(),
                idx: u8::try_from(i).expect("at most two connections"),
                phase: Phase::Idle,
                held: Vec::new(),
                acks_pending: 0,
                req_at: Instant::now(),
                done_at: None,
                cycle: 0,
                turnaround_span: None,
                phase_span: None,
            });
        }
        let mut client = Client {
            conns,
            batch,
            service: Vec::new(),
            next_service: 0,
            gap: Duration::ZERO,
            crash_after: None,
            rss_after: u64::MAX,
            server_pid,
            tally: Tally::default(),
            rec,
            serve_span: None,
            wbuf: Vec::with_capacity(1 << 14),
            rbuf: vec![0u8; 1 << 16],
        };
        client.await_welcomes()?;
        Ok(client)
    }

    pub fn set_service(&mut self, service_ns: Vec<u64>) {
        self.service = service_ns;
    }

    /// Answer every `assign` and every last `ack` only `gap` later, as
    /// a worker across a link would: the frame then lands in the
    /// server's nap instead of racing the scan that precedes it.
    pub fn set_gap(&mut self, gap: Duration) {
        self.gap = gap;
    }

    pub fn set_crash_after(&mut self, acks: u64) {
        self.crash_after = Some(acks);
    }

    pub fn set_rss_after(&mut self, acks: u64) {
        self.rss_after = acks;
    }

    /// Parent of every cycle span recorded from here on.
    pub fn set_serve_span(&mut self, span: Option<SpanId>) {
        self.serve_span = span;
    }

    /// The recorder lent to this client, for spans around its own.
    pub fn recorder(&mut self) -> &mut Recorder {
        self.rec
    }

    fn await_welcomes(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        for i in 0..self.conns.len() {
            loop {
                let n = match self.conns[i].stream.read(&mut self.rbuf) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => n,
                    Err(e) if retriable(&e) => {
                        if Instant::now() > deadline {
                            return Err(io::Error::other("no welcome within 30 s"));
                        }
                        // Set-up sleeps where the measured loop spins: a
                        // spinning client can keep a server that was
                        // started on its core waiting for a whole
                        // scheduler slice, and `setup_s` with it.
                        std::thread::sleep(Duration::from_micros(50));
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                self.conns[i].dec.feed(&self.rbuf[..n]);
                match self.conns[i].dec.next_msg() {
                    Ok(Some(Message::Welcome { .. })) => break,
                    Ok(None) => {}
                    other => return Err(io::Error::other(format!("expected welcome: {other:?}"))),
                }
            }
        }
        Ok(())
    }

    /// Drive every connection until all are drained, or until the
    /// crash point is reached.
    pub fn drive(&mut self) -> Outcome {
        // A server that stops answering must not hang the benchmark:
        // past the deadline every open connection counts as lost.
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut polls = 0u32;
        loop {
            polls = polls.wrapping_add(1);
            if polls.is_multiple_of(1 << 16) && Instant::now() > deadline {
                for c in &mut self.conns {
                    if !matches!(c.phase, Phase::Drained | Phase::Lost) {
                        c.phase = Phase::Lost;
                        self.tally.lost_conns += 1;
                    }
                }
            }
            let mut live = 0;
            for i in 0..self.conns.len() {
                if matches!(self.conns[i].phase, Phase::Drained | Phase::Lost) {
                    continue;
                }
                live += 1;
                self.pump(i);
                self.act(i);
            }
            if live == 0 {
                return Outcome::Finished;
            }
            if self.crash_after.is_some()
                && self.conns[0].phase == Phase::Quiesced
                && self.conns[1..].iter().all(|c| c.phase == Phase::Holding)
            {
                return Outcome::CrashPoint;
            }
        }
    }

    /// Tasks held unreported at the crash point.
    pub fn held_tasks(&self) -> usize {
        self.conns.iter().map(|c| c.held.len()).sum()
    }

    /// The crash plan is running: enough acks are in.
    fn quiescing(&self) -> bool {
        self.crash_after
            .is_some_and(|k| self.tally.acks_accepted >= k)
    }

    /// Do whatever the connection's phase says is due.
    fn act(&mut self, i: usize) {
        match self.conns[i].phase {
            Phase::Idle => self.send_request(i),
            Phase::Backoff(until) if Instant::now() >= until => self.send_request(i),
            Phase::Service(until) if Instant::now() >= until => self.send_dones(i),
            _ => {}
        }
    }

    fn send_request(&mut self, i: usize) {
        self.wbuf.clear();
        let t_enc = self.rec.enabled().then(Instant::now);
        Frame::encode_into(&Message::Request { max: self.batch }, &mut self.wbuf);
        let now = Instant::now();
        let c = &mut self.conns[i];
        if let Some(t) = t_enc {
            let parent = c.turnaround_span.or(self.serve_span);
            c.phase_span = self
                .rec
                .begin_at("request_to_assign", t, parent, c.idx, c.cycle);
            let enc = self
                .rec
                .begin_at("client.encode", t, c.phase_span, c.idx, c.cycle);
            self.rec.end_at(enc, now);
        }
        self.tally.first_request.get_or_insert(now);
        c.req_at = now;
        c.phase = Phase::AwaitAssign;
        self.write_out(i);
    }

    fn send_dones(&mut self, i: usize) {
        self.wbuf.clear();
        let t_enc = self.rec.enabled().then(Instant::now);
        for &task in &self.conns[i].held {
            Frame::encode_into(&Message::Done { task, ok: true }, &mut self.wbuf);
        }
        let now = Instant::now();
        let c = &mut self.conns[i];
        c.acks_pending = c.held.len();
        c.held.clear();
        c.cycle += 1;
        if let Some(t) = t_enc {
            c.turnaround_span = self
                .rec
                .begin_at("turnaround", t, self.serve_span, c.idx, c.cycle);
            c.phase_span = self
                .rec
                .begin_at("done_to_ack", t, c.turnaround_span, c.idx, c.cycle);
            let enc = self
                .rec
                .begin_at("client.encode", t, c.phase_span, c.idx, c.cycle);
            self.rec.end_at(enc, now);
        }
        c.done_at = Some(now);
        c.phase = Phase::AwaitAcks;
        self.write_out(i);
    }

    /// Write `wbuf` whole. Frames are a few KB against a socket buffer
    /// of hundreds, so this practically never spins.
    fn write_out(&mut self, i: usize) {
        let c = &mut self.conns[i];
        let t0 = self.rec.enabled().then(Instant::now);
        let mut off = 0;
        while off < self.wbuf.len() {
            match c.stream.write(&self.wbuf[off..]) {
                Ok(0) => break,
                Ok(n) => off += n,
                Err(e) if retriable(&e) => {}
                Err(_) => break,
            }
        }
        if let Some(t0) = t0 {
            let s = self
                .rec
                .begin_at("client.syscall", t0, c.phase_span, c.idx, c.cycle);
            self.rec.end(s);
        }
        self.tally.bytes_sent += off as u64;
        if off < self.wbuf.len() {
            c.phase = Phase::Lost;
            self.tally.lost_conns += 1;
        }
    }

    /// Read whatever arrived and handle every complete frame.
    fn pump(&mut self, i: usize) {
        let t0 = self.rec.enabled().then(Instant::now);
        let n = match self.conns[i].stream.read(&mut self.rbuf) {
            Ok(n) if n > 0 => n,
            Err(e) if retriable(&e) => return,
            _ => {
                self.conns[i].phase = Phase::Lost;
                self.tally.lost_conns += 1;
                return;
            }
        };
        if let Some(t0) = t0 {
            let c = &self.conns[i];
            let s = self
                .rec
                .begin_at("client.syscall", t0, c.phase_span, c.idx, c.cycle);
            self.rec.end(s);
        }
        self.tally.bytes_received += n as u64;
        self.conns[i].dec.feed(&self.rbuf[..n]);
        loop {
            let t0 = self.rec.enabled().then(Instant::now);
            let msg = self.conns[i].dec.next_msg();
            if let (Some(t0), Ok(Some(_))) = (t0, &msg) {
                let c = &self.conns[i];
                let s = self
                    .rec
                    .begin_at("client.decode", t0, c.phase_span, c.idx, c.cycle);
                self.rec.end(s);
            }
            match msg {
                Ok(Some(msg)) => self.on_msg(i, msg),
                Ok(None) => break,
                Err(_) => {
                    self.conns[i].phase = Phase::Lost;
                    self.tally.error_frames += 1;
                    break;
                }
            }
        }
    }

    fn on_msg(&mut self, i: usize, msg: Message) {
        let now = Instant::now();
        match msg {
            Message::Assign { tasks } => {
                let quiescing = self.quiescing();
                let c = &mut self.conns[i];
                self.tally.first_assign.get_or_insert(now);
                self.tally
                    .assign_ns
                    .push(nanos(now.saturating_duration_since(c.req_at)));
                if let Some(done_at) = c.done_at.take() {
                    self.tally
                        .turnaround_ns
                        .push(nanos(now.saturating_duration_since(done_at)));
                }
                self.rec.end_at(c.phase_span.take(), now);
                self.rec.end_at(c.turnaround_span.take(), now);
                self.tally.tasks_assigned += tasks.len() as u64;
                self.tally.assign_frames += 1;
                c.held = tasks;
                if quiescing && i > 0 && c.held.len() as u64 == self.batch {
                    c.phase = Phase::Holding;
                    return;
                }
                let mut service = 0u64;
                if !self.service.is_empty() {
                    for _ in 0..c.held.len() {
                        service += self.service[self.next_service % self.service.len()];
                        self.next_service += 1;
                    }
                }
                self.tally.service_ns += service;
                if service == 0 && self.gap.is_zero() {
                    self.send_dones(i);
                } else {
                    let until = now + Duration::from_nanos(service) + self.gap;
                    if self.rec.enabled() {
                        let c = &self.conns[i];
                        let s = self
                            .rec
                            .begin_at("service", now, self.serve_span, c.idx, c.cycle);
                        self.rec.end_at(s, until);
                    }
                    self.conns[i].phase = Phase::Service(until);
                }
            }
            Message::Ack { accepted, .. } => {
                if accepted {
                    self.tally.acks_accepted += 1;
                    self.tally.last_ack = Some(now);
                    if self.tally.acks_accepted == self.rss_after {
                        self.tally.server_rss_and_threads =
                            crate::procfs::rss_and_threads(self.server_pid);
                    }
                } else {
                    self.tally.acks_rejected += 1;
                }
                let quiescing = self.quiescing();
                let c = &mut self.conns[i];
                c.acks_pending = c.acks_pending.saturating_sub(1);
                if c.acks_pending == 0 && c.phase == Phase::AwaitAcks {
                    self.rec.end_at(c.phase_span.take(), now);
                    if quiescing && i == 0 {
                        c.phase = Phase::Quiesced;
                        self.rec.end_at(c.turnaround_span.take(), now);
                    } else if self.gap.is_zero() {
                        self.send_request(i);
                    } else {
                        c.phase = Phase::Backoff(now + self.gap);
                    }
                }
            }
            Message::Wait { ms } => {
                self.tally.waits += 1;
                self.conns[i].phase = Phase::Backoff(now + Duration::from_millis(ms.max(1)));
            }
            Message::Drain => {
                let c = &mut self.conns[i];
                self.rec.end_at(c.phase_span.take(), now);
                self.rec.end_at(c.turnaround_span.take(), now);
                c.phase = Phase::Drained;
                self.tally.last_drain = Some(now);
            }
            // `revoke` needs stealing, which no workload enables; with
            // an `error` frame it is a failed operation.
            _ => {
                self.tally.error_frames += 1;
                self.conns[i].phase = Phase::Lost;
            }
        }
    }
}

fn retriable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    )
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
