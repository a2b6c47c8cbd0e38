//! The poll round is the unit of I/O: everything decoded in a round is
//! stepped with replies only *queued* and trace lines only *buffered*,
//! and the round ends with one `TraceSink::flush` followed by one
//! `Poller::flush` — the write-ahead-log rule ("no reply the WAL has
//! not seen") at round granularity. Pinned here as counts and an order
//! on a scripted poller and a recording sink that share one log, not as
//! timings; and, on the real [`TcpPoller`], as "nothing reaches the
//! socket before `flush`", with what its scan reports of a hang-up.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;
use std::time::{Duration, Instant};

use ic_net::{
    ConnId, Decoder, Driver, Frame, IoEvent, ManualClock, Message, Poller, Reactor, ServerConfig,
    TcpPoller,
};
use ic_sim::trace::{TraceEvent, TraceHeader, TraceSink};

/// One entry of the log the scripted poller and the sink share.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// `Poller::poll` was called: a round begins.
    Poll,
    Header,
    Record,
    SinkFlush,
    /// `Poller::send`: frames were queued (nothing transmitted); the
    /// frames its bytes decode to.
    Queue(ConnId, Vec<Message>),
    /// `Poller::flush` put a connection's queued frames on the wire.
    Transmit(ConnId, Vec<Message>),
}

type Log = Rc<RefCell<Vec<Step>>>;

/// A [`Poller`] that replays a script, one batch of events per `poll`,
/// and logs what the reactor does with the transport.
struct ScriptPoller {
    log: Log,
    script: VecDeque<Vec<IoEvent>>,
    queued: BTreeMap<ConnId, Vec<u8>>,
}

impl Poller for ScriptPoller {
    fn poll(&mut self, _timeout: Duration, out: &mut Vec<IoEvent>) -> io::Result<()> {
        self.log.borrow_mut().push(Step::Poll);
        let batch = self
            .script
            .pop_front()
            .ok_or_else(|| io::Error::other("script exhausted: the reactor should have drained"))?;
        out.extend(batch);
        Ok(())
    }

    fn send(&mut self, conn: ConnId, bytes: &[u8]) {
        self.log.borrow_mut().push(Step::Queue(conn, decode(bytes)));
        self.queued
            .entry(conn)
            .or_default()
            .extend_from_slice(bytes);
    }

    fn flush(&mut self) {
        for (conn, bytes) in std::mem::take(&mut self.queued) {
            self.log
                .borrow_mut()
                .push(Step::Transmit(conn, decode(&bytes)));
        }
    }

    fn close(&mut self, _conn: ConnId) {}
}

struct LogSink(Log);

impl TraceSink for LogSink {
    fn header(&mut self, _header: &TraceHeader) {
        self.0.borrow_mut().push(Step::Header);
    }

    fn record(&mut self, _event: &TraceEvent) {
        self.0.borrow_mut().push(Step::Record);
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.borrow_mut().push(Step::SinkFlush);
        Ok(())
    }
}

/// The whole frames in `bytes`.
fn decode(bytes: &[u8]) -> Vec<Message> {
    let mut dec = Decoder::new();
    dec.feed(bytes);
    let mut frames = Vec::new();
    while let Some(msg) = dec.next_msg().expect("the reactor's own frames") {
        frames.push(msg);
    }
    frames
}

fn frames(msgs: &[Message]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for m in msgs {
        Frame::encode_into(m, &mut bytes);
    }
    bytes
}

#[test]
fn a_round_of_64_pipelined_dones_costs_one_wal_flush_then_one_transmit() {
    const N: u64 = 64;
    let dag = ic_dag::builder::from_arcs(N as usize, &[]).expect("independent tasks");
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder()
        .lease_ms(60_000)
        .expect_workers(1)
        .batch(N as usize)
        .seed(14)
        .build();

    let dones: Vec<Message> = (0..N)
        .map(|task| Message::Done { task, ok: true })
        .collect();
    let log: Log = Rc::default();
    let poller = ScriptPoller {
        log: Rc::clone(&log),
        script: VecDeque::from([
            vec![
                IoEvent::Open(0),
                IoEvent::Data(0, frames(&[Message::hello("pipeliner", 1.0)])),
            ],
            vec![IoEvent::Data(0, frames(&[Message::Request { max: N }]))],
            // The round under test: 64 frames in a single read.
            vec![IoEvent::Data(0, frames(&dones))],
            vec![IoEvent::Data(0, frames(&[Message::request()]))],
        ]),
        queued: BTreeMap::new(),
    };
    let driver = Driver::new(Box::new(ManualClock::new(0)), Box::new(poller));
    let mut reactor = Reactor::new(&dag, &policy, cfg, driver);
    let report = reactor
        .run_until_drain(&mut LogSink(Rc::clone(&log)))
        .expect("the script drains the dag");
    assert_eq!(report.registry.completions, N);

    let log = log.borrow();
    // Every round, whatever it carried: every record and every queued
    // frame, then exactly one sink flush, then the transmits — and
    // nothing after them until the next poll.
    let rounds: Vec<&[Step]> = log.split(|s| *s == Step::Poll).collect();
    assert_eq!(rounds.len(), 5, "boot + the four scripted rounds: {log:?}");
    for round in &rounds {
        let flush_at = round
            .iter()
            .position(|s| *s == Step::SinkFlush)
            .unwrap_or_else(|| panic!("a round without a sink flush: {round:?}"));
        let (before, after) = round.split_at(flush_at);
        assert!(
            before
                .iter()
                .all(|s| matches!(s, Step::Header | Step::Record | Step::Queue(..))),
            "nothing is transmitted before the WAL flush: {round:?}"
        );
        assert!(
            after[1..].iter().all(|s| matches!(s, Step::Transmit(..))),
            "one sink flush, then only transmits: {round:?}"
        );
    }

    // The round under test, as counts.
    let round = rounds[3];
    let count = |want: fn(&Step) -> bool| round.iter().filter(|s| want(s)).count();
    assert_eq!(
        count(|s| *s == Step::Record),
        N as usize,
        "one complete per done"
    );
    let queued: Vec<&[Message]> = round
        .iter()
        .filter_map(|s| match s {
            Step::Queue(0, frames) => Some(&frames[..]),
            _ => None,
        })
        .collect();
    let acks = queued.concat().into_iter();
    assert_eq!(
        acks.filter(|m| matches!(m, Message::Ack { .. })).count(),
        N as usize,
        "one ack per done"
    );
    assert_eq!(queued.len(), 1, "the round's acks leave as one queued send");
    assert_eq!(count(|s| *s == Step::SinkFlush), 1);
    let transmits: Vec<&Step> = round
        .iter()
        .filter(|s| matches!(s, Step::Transmit(..)))
        .collect();
    let [Step::Transmit(0, acks)] = transmits[..] else {
        panic!("exactly one transmit, to connection 0: {transmits:?}");
    };
    let expected: Vec<Message> = (0..N)
        .map(|task| Message::Ack {
            task,
            accepted: true,
        })
        .collect();
    assert_eq!(*acks, expected, "the same frames, in order, in one write");

    // The other rounds carry what they always did, one transmit each.
    assert!(matches!(
        rounds[1].last(),
        Some(Step::Transmit(0, m)) if matches!(m[..], [Message::Welcome { .. }])
    ));
    assert!(matches!(
        rounds[2].last(),
        Some(Step::Transmit(0, m)) if matches!(&m[..], [Message::Assign { tasks }] if tasks.len() == N as usize)
    ));
    assert!(matches!(
        rounds[4].last(),
        Some(Step::Transmit(0, m)) if m[..] == [Message::Drain]
    ));
}

/// The same contract on the production poller: `send` performs no
/// syscall, `flush` transmits what was queued, and a `close` lets the
/// queued farewell out before the socket goes.
#[test]
fn tcp_poller_transmits_only_on_flush_and_closes_after_the_farewell() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut far = TcpStream::connect(addr).unwrap();
    let mut poller = TcpPoller::new(listener, 1).unwrap();
    let mut events = Vec::new();
    while events.is_empty() {
        poller.poll(Duration::from_millis(5), &mut events).unwrap();
    }
    let [IoEvent::Open(id)] = events[..] else {
        panic!("expected the accept: {events:?}");
    };

    let acks: Vec<Message> = (0..64)
        .map(|task| Message::Ack {
            task,
            accepted: true,
        })
        .collect();
    for ack in &acks {
        poller.send(id, &frames(std::slice::from_ref(ack)));
    }
    // 64 `send`s, no syscall: the far end has nothing to read yet.
    far.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut byte = [0u8; 1];
    let early = far.read(&mut byte);
    assert!(
        matches!(&early, Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)),
        "queued frames must not reach the socket before flush: {early:?}"
    );

    poller.send(id, &frames(&[Message::Drain]));
    poller.close(id);
    poller.flush();

    // Everything queued arrives, in order, and then EOF: the closing
    // connection was dropped as soon as its farewell drained.
    far.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut bytes = Vec::new();
    far.read_to_end(&mut bytes).unwrap();
    let mut expected = frames(&acks);
    expected.extend(frames(&[Message::Drain]));
    assert_eq!(bytes, expected);
}

/// Poll `poller` (short naps) until `done` holds of everything it
/// reported so far, then a few rounds more; returns the whole report.
fn poll_until(poller: &mut TcpPoller, done: impl Fn(&[IoEvent]) -> bool) -> Vec<IoEvent> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut events = Vec::new();
    while !done(&events) {
        assert!(Instant::now() < deadline, "poller stalled: {events:?}");
        poller.poll(Duration::from_millis(1), &mut events).unwrap();
    }
    for _ in 0..20 {
        poller.poll(Duration::from_millis(1), &mut events).unwrap();
    }
    events
}

/// The scan's report for a far end that writes a frame and hangs up:
/// every byte as `Data` on its id, then exactly one `Closed`, and
/// nothing after it; for several connections at once.
#[test]
fn tcp_poller_reports_each_hang_up_once_after_its_data() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut poller = TcpPoller::new(listener, 1).unwrap();
    let fars: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let opened = poll_until(&mut poller, |evs| evs.len() == fars.len());
    assert!(
        opened.iter().all(|ev| matches!(ev, IoEvent::Open(_))),
        "{opened:?}"
    );

    // A short frame, and frames of one and two 64 KiB read chunks: a
    // chunk-filling read reads on and meets the hang-up in the same
    // scan, so its `Data` and `Closed` come in one poll.
    let mut sent: Vec<Vec<u8>> = Vec::new();
    for (i, mut far) in fars.into_iter().enumerate() {
        let short = frames(&[Message::hello(format!("w{i}"), 1.0)]);
        let pad = (i << 16).saturating_sub(short.len());
        let name = format!("w{i}{}", "x".repeat(pad));
        let frame = frames(&[Message::hello(name, 1.0)]);
        assert_eq!(frame.len(), short.len() + pad);
        far.write_all(&frame).unwrap();
        sent.push(frame);
        // Dropping the stream is the hang-up.
    }
    let n = sent.len();
    let closed = |evs: &[IoEvent]| {
        evs.iter()
            .filter(|ev| matches!(ev, IoEvent::Closed(_)))
            .count()
            >= n
    };
    let events = poll_until(&mut poller, closed);

    let mut heard: BTreeMap<ConnId, (Vec<u8>, usize)> = BTreeMap::new();
    for ev in &events {
        match ev {
            IoEvent::Data(id, bytes) => {
                let (data, closes) = heard.entry(*id).or_default();
                assert_eq!(*closes, 0, "Data on {id} after its Closed: {events:?}");
                data.extend_from_slice(bytes);
            }
            IoEvent::Closed(id) => heard.entry(*id).or_default().1 += 1,
            IoEvent::Open(id) => panic!("no connection was opened: {id}"),
        }
    }
    assert_eq!(heard.len(), n, "{events:?}");
    assert!(heard.values().all(|&(_, closes)| closes == 1), "{events:?}");
    let mut got: Vec<Vec<u8>> = heard.into_values().map(|(data, _)| data).collect();
    got.sort();
    sent.sort();
    assert_eq!(got, sent);
}

/// A link the reactor closed is forgotten by it: the scan drains the
/// queued farewell and drops the link without a `Closed`, also when the
/// far end reads the farewell and then hangs up.
#[test]
fn tcp_poller_never_reports_a_link_it_was_told_to_close() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut poller = TcpPoller::new(listener, 1).unwrap();
    let mut far = TcpStream::connect(addr).unwrap();
    let opened = poll_until(&mut poller, |evs| !evs.is_empty());
    let [IoEvent::Open(id)] = opened[..] else {
        panic!("expected the accept: {opened:?}");
    };

    // More than the socket buffers hold while the far end is not
    // reading, so the scan, not the flush, writes the tail.
    let farewell = vec![b'x'; 16 << 20];
    poller.send(id, &farewell);
    poller.close(id);
    poller.flush();

    let events = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            far.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let mut bytes = Vec::new();
            far.read_to_end(&mut bytes).unwrap();
            bytes.len()
            // Dropping the stream is the hang-up.
        });
        let events = poll_until(&mut poller, |_| reader.is_finished());
        assert_eq!(reader.join().unwrap(), farewell.len());
        events
    });
    assert!(events.is_empty(), "a closed link reported {events:?}");
}

/// Fail-stop on a WAL that cannot be written: the round's sink flush
/// fails, `run_until_drain` returns the error, and the reply that round
/// queued — the `welcome` — never reaches the client.
#[cfg(target_os = "linux")]
#[test]
fn a_wal_that_cannot_be_written_stops_the_server_before_any_reply() {
    let dag = ic_dag::builder::from_arcs(3, &[]).unwrap();
    let policy = ic_sched::Schedule::in_id_order(&dag);
    let cfg = ServerConfig::builder().expect_workers(1).seed(14).build();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let driver = Driver::tcp(listener).unwrap();
    let mut server = Reactor::new(&dag, &policy, cfg, driver);
    // Opens fine, every write fails with ENOSPC.
    let mut sink = ic_sim::FileSink::create("/dev/full").unwrap();

    let (served, heard) = std::thread::scope(|s| {
        let client = s.spawn(move || {
            let mut c = ic_net::Conn::connect(addr).unwrap();
            c.send(&Message::hello("unlucky", 1.0)).unwrap();
            c.recv()
        });
        let served = server.run_until_drain(&mut sink);
        // Dropping the reactor closes its sockets, which is what ends
        // the client's blocking read.
        drop(server);
        (served, client.join().unwrap())
    });
    let err = served.expect_err("a full disk must stop the server");
    assert_eq!(err.kind(), io::ErrorKind::StorageFull, "{err}");
    assert!(
        heard.is_err(),
        "no reply may precede the WAL line it depends on: {heard:?}"
    );
    assert!(sink.finish().is_err(), "the write error stays sticky");
}
