//! The worker's side of the protocol, pinned frame by frame over real
//! TCP. Each case runs `run_worker` against a scripted fake server: it
//! accepts the worker's connections in turn, decodes what the worker
//! writes with [`Decoder`], answers each frame from the case's script,
//! and records every frame. A case pins the frames per connection and
//! the run's [`WorkerReport`] (or its error), so whatever drives the
//! worker must say exactly this on the wire.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use ic_net::{
    run_worker, Decoder, FaultPlan, Frame, Message, WorkerConfig, WorkerReport, ERR_BAD_RESUME,
};

/// What the fake server does with the next frame the worker sends.
enum Reply {
    /// Answer with this frame.
    Send(Message),
    /// Answer nothing and close the connection.
    HangUp,
}

/// One accepted connection and every frame read from it.
struct Peer {
    stream: Option<TcpStream>,
    dec: Decoder,
    frames: Vec<String>,
}

impl Peer {
    /// Accept the worker's next connection, failing the test if it
    /// does not dial within 10 s.
    fn accept(listener: &TcpListener, nth: usize) -> Peer {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).unwrap();
                    // Bounds a worker that waits for a reply the script
                    // does not have: the read ends, the test fails.
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .unwrap();
                    return Peer {
                        stream: Some(stream),
                        dec: Decoder::new(),
                        frames: Vec::new(),
                    };
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("the worker never dialed connection {nth}: {e}"),
            }
        }
    }

    /// Read and record the next frame; `None` once the worker hung up
    /// (or said nothing for the read timeout).
    fn recv(&mut self) -> Option<&str> {
        let stream = self.stream.as_mut()?;
        loop {
            if let Some(msg) = self.dec.next_msg().unwrap() {
                self.frames.push(msg.to_json());
                return self.frames.last().map(String::as_str);
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.dec.feed(&chunk[..n]),
            }
        }
    }

    fn send(&mut self, msg: &Message) {
        let mut buf = Vec::new();
        Frame::encode_into(msg, &mut buf);
        if let Some(stream) = self.stream.as_mut() {
            stream.write_all(&buf).unwrap();
        }
    }
}

/// Run `cfg` against `script` (one list of replies per connection, in
/// dialing order). Returns the frames the worker wrote on each
/// connection — after its script, a connection is read until the worker
/// hangs up — and the run's outcome as [`tally`] or the error text.
fn run(cfg: WorkerConfig, script: Vec<Vec<Reply>>) -> (Vec<Vec<String>>, Result<Tally, String>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || run_worker(addr, &cfg));
    let mut peers = Vec::new();
    for (nth, replies) in script.into_iter().enumerate() {
        let mut peer = Peer::accept(&listener, nth);
        for reply in replies {
            if peer.recv().is_none() {
                panic!("connection {nth} ended early: {:?}", peer.frames);
            }
            match reply {
                Reply::Send(msg) => peer.send(&msg),
                Reply::HangUp => peer.stream = None,
            }
        }
        peers.push(peer);
    }
    let frames = peers
        .into_iter()
        .map(|mut peer| {
            while peer.recv().is_some() {}
            peer.frames
        })
        .collect();
    // A dial the script has no connection for is reset, not left
    // waiting for a `welcome`.
    drop(listener);
    let outcome = worker.join().unwrap();
    let outcome = outcome.map(|r| tally(&r)).map_err(|e| e.to_string());
    (frames, outcome)
}

/// A [`WorkerReport`] as `(worker, completed, resumes, died)`.
type Tally = (u64, usize, usize, bool);

fn tally(r: &WorkerReport) -> Tally {
    (r.worker, r.completed, r.resumes, r.died)
}

/// Run the case and compare frames and outcome with the pinned ones.
fn check(
    cfg: WorkerConfig,
    script: Vec<Vec<Reply>>,
    frames: &[&[&str]],
    outcome: Result<Tally, &str>,
) {
    let (got, got_outcome) = run(cfg, script);
    assert_eq!(got, frames, "frames per connection");
    assert_eq!(
        got_outcome,
        outcome.map_err(String::from),
        "frames: {got:?}"
    );
}

fn welcome(worker: u64, lease_ms: u64, token: &str, tasks: &[u64]) -> Reply {
    Reply::Send(Message::Welcome {
        worker,
        lease_ms,
        proto: 2,
        resume: Some(token.into()),
        tasks: tasks.to_vec(),
    })
}

fn assign(tasks: &[u64]) -> Reply {
    Reply::Send(Message::Assign {
        tasks: tasks.to_vec(),
    })
}

fn ack(task: u64, accepted: bool) -> Reply {
    Reply::Send(Message::Ack { task, accepted })
}

fn drain() -> Reply {
    Reply::Send(Message::Drain)
}

fn worker(id: &str) -> ic_net::WorkerConfigBuilder {
    WorkerConfig::builder().id(id).mean_ms(1).seed(5)
}

const BYE: &str = r#"{"type":"bye"}"#;

#[test]
fn a_reliable_worker_reports_a_batch_in_order() {
    check(
        worker("plain").batch(2).build(),
        vec![vec![
            welcome(0, 1000, "t0", &[]),
            assign(&[0, 1]),
            ack(0, true),
            ack(1, false),
            drain(),
        ]],
        &[&[
            r#"{"type":"hello","id":"plain","speed":1.0,"proto":2}"#,
            r#"{"type":"request","max":2}"#,
            r#"{"type":"done","task":0,"ok":true}"#,
            r#"{"type":"done","task":1,"ok":true}"#,
            r#"{"type":"request","max":2}"#,
            BYE,
        ]],
        Ok((0, 1, 0, false)),
    );
}

#[test]
fn a_wait_is_slept_out_before_the_next_request() {
    check(
        worker("patient").speed(2.5).build(),
        vec![vec![
            welcome(4, 1000, "t0", &[]),
            Reply::Send(Message::Wait { ms: 3 }),
            assign(&[5]),
            ack(5, true),
            drain(),
        ]],
        &[&[
            r#"{"type":"hello","id":"patient","speed":2.5,"proto":2}"#,
            r#"{"type":"request"}"#,
            r#"{"type":"request"}"#,
            r#"{"type":"done","task":5,"ok":true}"#,
            r#"{"type":"request"}"#,
            BYE,
        ]],
        Ok((4, 1, 0, false)),
    );
}

/// A 3 ms lease beats every held lease each millisecond, and a 10 ms
/// mean computes for at least 5: three rounds always happen. The
/// second revokes the task behind the front, the third the front task
/// itself, which abandons it without a `done`.
#[test]
fn heartbeats_cover_every_held_lease_and_revokes_drop_tasks() {
    let hb = |t: u64| format!(r#"{{"type":"heartbeat","task":{t}}}"#);
    let frames = [
        r#"{"type":"hello","id":"beats","speed":1.0,"proto":2}"#.to_string(),
        r#"{"type":"request","max":2}"#.to_string(),
        hb(0),
        hb(1),
        hb(0),
        hb(1),
        hb(0),
        r#"{"type":"request","max":2}"#.to_string(),
        BYE.to_string(),
    ];
    let frames: Vec<&str> = frames.iter().map(String::as_str).collect();
    check(
        worker("beats").batch(2).mean_ms(10).build(),
        vec![vec![
            welcome(0, 3, "t0", &[]),
            assign(&[0, 1]),
            ack(0, true),
            ack(1, true),
            ack(0, true),
            Reply::Send(Message::Revoke { task: 1 }),
            Reply::Send(Message::Revoke { task: 0 }),
            drain(),
        ]],
        &[&frames],
        Ok((0, 0, 0, false)),
    );
}

#[test]
fn a_random_fault_dies_at_its_seeded_assignment() {
    check(
        worker("dice").fault(FaultPlan::Random(0.5)).seed(7).build(),
        vec![vec![
            welcome(1, 1000, "t0", &[]),
            assign(&[0]),
            ack(0, true),
            assign(&[1]),
            ack(1, true),
            assign(&[2]),
        ]],
        &[&[
            r#"{"type":"hello","id":"dice","speed":1.0,"proto":2}"#,
            r#"{"type":"request"}"#,
            r#"{"type":"done","task":0,"ok":true}"#,
            r#"{"type":"request"}"#,
            r#"{"type":"done","task":1,"ok":true}"#,
            r#"{"type":"request"}"#,
        ]],
        Ok((1, 2, 0, true)),
    );
}

#[test]
fn die_after_hangs_up_holding_its_next_task() {
    check(
        worker("mortal").fault(FaultPlan::DieAfter(1)).build(),
        vec![vec![
            welcome(0, 1000, "t0", &[]),
            assign(&[0]),
            ack(0, true),
            assign(&[1]),
        ]],
        &[&[
            r#"{"type":"hello","id":"mortal","speed":1.0,"proto":2}"#,
            r#"{"type":"request"}"#,
            r#"{"type":"done","task":0,"ok":true}"#,
            r#"{"type":"request"}"#,
        ]],
        Ok((0, 1, 0, true)),
    );
}

#[test]
fn stall_after_sits_on_its_next_task_then_says_bye() {
    check(
        worker("sloth").fault(FaultPlan::StallAfter(1)).build(),
        vec![vec![
            welcome(0, 5, "t0", &[]),
            assign(&[0]),
            ack(0, true),
            assign(&[1]),
        ]],
        &[&[
            r#"{"type":"hello","id":"sloth","speed":1.0,"proto":2}"#,
            r#"{"type":"request"}"#,
            r#"{"type":"done","task":0,"ok":true}"#,
            r#"{"type":"request"}"#,
            BYE,
        ]],
        Ok((0, 1, 0, true)),
    );
}

#[test]
fn sever_after_resumes_with_its_token_and_finishes_the_restored_tasks() {
    check(
        worker("comeback")
            .batch(2)
            .fault(FaultPlan::SeverAfter(1))
            .build(),
        vec![
            vec![
                welcome(2, 1000, "t0", &[]),
                assign(&[0]),
                ack(0, true),
                assign(&[1, 2]),
            ],
            vec![
                welcome(2, 1000, "t1", &[1, 2]),
                ack(1, true),
                ack(2, true),
                drain(),
            ],
        ],
        &[
            &[
                r#"{"type":"hello","id":"comeback","speed":1.0,"proto":2}"#,
                r#"{"type":"request","max":2}"#,
                r#"{"type":"done","task":0,"ok":true}"#,
                r#"{"type":"request","max":2}"#,
            ],
            &[
                r#"{"type":"hello","id":"comeback","speed":1.0,"proto":2,"resume":"t0"}"#,
                r#"{"type":"done","task":1,"ok":true}"#,
                r#"{"type":"done","task":2,"ok":true}"#,
                r#"{"type":"request","max":2}"#,
                BYE,
            ],
        ],
        Ok((2, 3, 1, false)),
    );
}

/// `drain` only ever answers a `request`; in place of a `done`'s `ack`
/// it is a protocol error that ends a worker without a retry interval.
#[test]
fn a_drain_in_the_middle_of_a_batch_is_an_error() {
    check(
        worker("midway").batch(3).build(),
        vec![vec![
            welcome(0, 1000, "t0", &[]),
            assign(&[0, 1, 2]),
            ack(0, true),
            drain(),
        ]],
        &[&[
            r#"{"type":"hello","id":"midway","speed":1.0,"proto":2}"#,
            r#"{"type":"request","max":3}"#,
            r#"{"type":"done","task":0,"ok":true}"#,
            r#"{"type":"done","task":1,"ok":true}"#,
        ]],
        Err("expected ack, got Drain"),
    );
}

/// A lost connection with a retry interval redials with the resume
/// token; a restarted server that does not know it answers
/// `bad-resume`, and the worker registers afresh at once.
#[test]
fn a_refused_resume_falls_back_to_a_fresh_hello() {
    check(
        worker("survivor").retry(5).build(),
        vec![
            vec![welcome(0, 1000, "t0", &[]), assign(&[0]), Reply::HangUp],
            vec![Reply::Send(Message::Error {
                code: ERR_BAD_RESUME.into(),
                msg: "unknown resume token".into(),
            })],
            vec![welcome(3, 1000, "t9", &[]), drain()],
        ],
        &[
            &[
                r#"{"type":"hello","id":"survivor","speed":1.0,"proto":2}"#,
                r#"{"type":"request"}"#,
                r#"{"type":"done","task":0,"ok":true}"#,
            ],
            &[r#"{"type":"hello","id":"survivor","speed":1.0,"proto":2,"resume":"t0"}"#],
            &[
                r#"{"type":"hello","id":"survivor","speed":1.0,"proto":2}"#,
                r#"{"type":"request"}"#,
                BYE,
            ],
        ],
        Ok((3, 0, 0, false)),
    );
}
