//! The worker-facing wire bytes, pinned against a checked-in fixture:
//! every frame a worker and the server exchange, one JSON body per
//! line (`hello` and `welcome` with and without their optional fields,
//! `request` at max 1 and 64, `assign` of 1 and 3 tasks, `done`,
//! `heartbeat`, both `ack`s, `wait`, `drain`, `revoke`, `error` with
//! and without `code`, `bye`), must survive
//! `encode(decode(line)) == line` byte for byte. A change to any of
//! these bytes is a protocol change and has to show up here as an
//! edited fixture line.

use ic_net::{Decoder, Frame, Message, WireError};

const FIXTURE: &str = include_str!("fixtures/worker_frames.jsonl");

/// The one line whose bytes changed when the dual-shape `assign` was
/// removed: a single task used to be written `"task":17`, and is now
/// the one-element list every other `assign` already used.
const SINGLE_TASK_ASSIGN: &str = r#"{"type":"assign","tasks":[17]}"#;

fn decode(body: &str) -> Result<Message, WireError> {
    let mut framed = (body.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(body.as_bytes());
    let mut dec = Decoder::new();
    dec.feed(&framed);
    dec.next_msg().map(|m| m.expect("one whole frame was fed"))
}

fn encode(msg: &Message) -> String {
    let mut buf = Vec::new();
    Frame::encode_into(msg, &mut buf);
    String::from_utf8(buf.split_off(4)).expect("frames are UTF-8 JSON")
}

#[test]
fn every_worker_frame_round_trips_byte_for_byte() {
    let changed: Vec<&str> = FIXTURE
        .lines()
        .filter(|line| {
            let msg = decode(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            encode(&msg) != *line
        })
        .collect();
    assert_eq!(changed, Vec::<&str>::new(), "re-encoded differently");
    assert!(FIXTURE.lines().any(|line| line == SINGLE_TASK_ASSIGN));
}
