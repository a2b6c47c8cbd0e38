//! Property-style tests of the wire protocol, driven by the
//! workspace's deterministic generators (`ic_dag::rng` /
//! `ic_dag::testgen` seed-loop style): random frames must round-trip
//! exactly, and arbitrary hostile bytes must come back as typed
//! [`WireError`]s — never a panic, never an unbounded allocation.

use ic_dag::rng::XorShift64;
use ic_dag::testgen::random_i64s;
use ic_net::{Decoder, Frame, Message, WireError, MAX_FRAME, PROTO_V3};
use ic_sim::json;

/// `msg` as one encoded frame.
fn encode(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    assert!(Frame::encode_into(msg, &mut buf) > 0);
    buf
}

/// What a fresh decoder makes of the first frame in `bytes`.
fn decode(bytes: &[u8]) -> Result<Option<Message>, WireError> {
    let mut dec = Decoder::new();
    dec.feed(bytes);
    dec.next_msg()
}

/// A random protocol message, all variants reachable, with adversarial
/// strings (quotes, backslashes, control bytes, unicode).
fn random_message(rng: &mut XorShift64) -> Message {
    fn random_string(rng: &mut XorShift64) -> String {
        let alphabet = ['a', '"', '\\', '\n', '\t', '✓', '𝛿', ' ', '{', '\u{1}'];
        (0..rng.gen_range(12))
            .map(|_| alphabet[rng.gen_range(alphabet.len())])
            .collect()
    }
    fn random_resume(rng: &mut XorShift64) -> Option<String> {
        rng.gen_bool(0.5).then(|| random_string(rng))
    }
    match rng.gen_range(15) {
        0 => Message::Hello {
            id: random_string(rng),
            // Positive, finite, with both integral and fractional cases.
            speed: (1 + rng.gen_range(400)) as f64 / 4.0,
            proto: 1 + rng.gen_range(2) as u32,
            resume: random_resume(rng),
        },
        1 => Message::Request {
            max: 1 + rng.next_u64() % 16,
        },
        2 => Message::Done {
            task: rng.next_u64() >> 16,
            ok: rng.gen_bool(0.5),
        },
        3 => Message::Heartbeat {
            task: rng.next_u64() >> 16,
        },
        4 => Message::Bye,
        5 => Message::Welcome {
            worker: rng.next_u64() >> 32,
            lease_ms: rng.next_u64() >> 32,
            proto: 1 + rng.gen_range(2) as u32,
            resume: random_resume(rng),
            tasks: (0..rng.gen_range(5))
                .map(|_| rng.next_u64() >> 16)
                .collect(),
        },
        6 => Message::Assign {
            tasks: (0..1 + rng.gen_range(6))
                .map(|_| rng.next_u64() >> 16)
                .collect(),
        },
        7 => Message::Wait {
            ms: rng.next_u64() >> 40,
        },
        8 => Message::Drain,
        9 => Message::Ack {
            task: rng.next_u64() >> 16,
            accepted: rng.gen_bool(0.5),
        },
        10 => Message::Revoke {
            task: rng.next_u64() >> 16,
        },
        // The v3 shard↔shard frames ride the same length-prefixed
        // transport, so they face the same hostile-input obligations.
        11 => Message::PeerHello {
            shard: rng.next_u64() % 8,
            shards: 1 + rng.next_u64() % 8,
            nodes: rng.next_u64() >> 16,
            proto: PROTO_V3,
        },
        12 => Message::RemoteDone {
            task: rng.next_u64() >> 16,
            shard: rng.next_u64() % 8,
        },
        13 => Message::PeerDrain {
            shard: rng.next_u64() % 8,
        },
        _ => Message::Error {
            // An empty code is omitted on the wire and must still
            // round-trip; non-empty codes exercise the field.
            code: if rng.gen_bool(0.5) {
                String::new()
            } else {
                random_string(rng)
            },
            msg: random_string(rng),
        },
    }
}

#[test]
fn random_messages_round_trip_through_frames() {
    let mut rng = XorShift64::new(0xF8A3E);
    for case in 0..500 {
        let msg = random_message(&mut rng);
        let back = decode(&encode(&msg)).unwrap();
        assert_eq!(back, Some(msg), "case {case}");
    }
}

#[test]
fn random_frame_streams_round_trip_in_order() {
    let mut rng = XorShift64::new(0xBEEF);
    for case in 0..50 {
        let msgs: Vec<Message> = (0..1 + rng.gen_range(20))
            .map(|_| random_message(&mut rng))
            .collect();
        let mut dec = Decoder::new();
        for m in &msgs {
            dec.feed(&encode(m));
        }
        for (i, m) in msgs.iter().enumerate() {
            let got = dec.next_msg().unwrap();
            assert_eq!(got.as_ref(), Some(m), "case {case} frame {i}");
        }
        assert!(matches!(dec.next_msg(), Ok(None)), "case {case}");
        assert_eq!(dec.pending(), 0, "case {case}");
    }
}

#[test]
fn random_garbage_never_panics_the_reader() {
    for seed in 0..200u64 {
        let bytes: Vec<u8> = random_i64s(seed, 1 + (seed as usize % 40), 0, 256)
            .into_iter()
            .map(|b| b as u8)
            .collect();
        // As a framed payload: must be a typed error or (rarely) a
        // valid message, never a panic.
        let mut framed = Vec::new();
        framed.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        framed.extend_from_slice(&bytes);
        let _ = decode(&framed);
        // As a raw stream (garbage length prefix included): same deal.
        let _ = decode(&bytes);
    }
}

#[test]
fn random_truncations_of_valid_frames_wait_for_the_rest() {
    // A truncated frame is never a message and never an error: the
    // decoder holds every byte until the rest arrives (the transport,
    // not the decoder, reports a peer that hangs up mid-frame — see
    // `Conn::recv`), and then yields exactly the original.
    let mut rng = XorShift64::new(0xCAFE);
    for case in 0..200 {
        let msg = random_message(&mut rng);
        let buf = encode(&msg);
        let cut = rng.gen_range(buf.len()); // strictly shorter
        let mut dec = Decoder::new();
        dec.feed(&buf[..cut]);
        assert!(
            matches!(dec.next_msg(), Ok(None)),
            "case {case} cut at {cut}"
        );
        assert_eq!(dec.pending(), cut, "case {case} cut at {cut}");
        dec.feed(&buf[cut..]);
        assert_eq!(dec.next_msg().unwrap(), Some(msg), "case {case}");
    }
}

#[test]
fn mangled_peer_frames_error_cleanly_and_never_panic() {
    // Hand-hostile v3 bodies: missing fields, wrong field types,
    // out-of-range numerics, truncated JSON. Each must come back as a
    // typed error (or, for the merely odd ones, a parsed message) —
    // never a panic in the shard link handler.
    let bodies: &[&str] = &[
        r#"{"t":"peer-hello"}"#,
        r#"{"t":"peer-hello","shard":"zero","shards":2,"nodes":66,"proto":3}"#,
        r#"{"t":"peer-hello","shard":-1,"shards":2,"nodes":66,"proto":3}"#,
        r#"{"t":"peer-hello","shard":0,"shards":2,"nodes":18446744073709551616,"proto":3}"#,
        r#"{"t":"remote-done"}"#,
        r#"{"t":"remote-done","task":null,"shard":0}"#,
        r#"{"t":"remote-done","task":3.5,"shard":0}"#,
        r#"{"t":"remote-done","task":7,"shard":"#,
        r#"{"t":"peer-drain","shard":{}}"#,
        r#"{"t":"peer-drain","shard":[0]}"#,
        r#"{"t":"peer-drain","shard":0,"#,
    ];
    for (i, body) in bodies.iter().enumerate() {
        let mut framed = Vec::new();
        framed.extend_from_slice(&(body.len() as u32).to_be_bytes());
        framed.extend_from_slice(body.as_bytes());
        let _ = decode(&framed); // must not panic, case {i}
        let _ = i;
    }
}

/// What the tree path — `json::parse` + `Message::from_json`, the
/// reference for the decoder's per-task byte matcher — makes of `body`.
fn tree(body: &[u8]) -> Result<Message, WireError> {
    std::str::from_utf8(body)
        .map_err(|e| WireError::Garbage(e.to_string()))
        .and_then(|text| json::parse(text).map_err(WireError::Garbage))
        .and_then(|v| Message::from_json(&v))
}

/// Mutants of one body: a flipped byte, splices with `other`, a
/// truncation, duplicated keys, a space after each `:` and `,`, each
/// value and each later key dropped, and every number given a leading
/// zero or replaced by a non-canonical or out-of-range value.
fn mutants(body: &[u8], other: &[u8], rng: &mut XorShift64) -> Vec<Vec<u8>> {
    let edit = |at: usize, cut: usize, with: &[u8]| -> Vec<u8> {
        [&body[..at], with, &body[at + cut..]].concat()
    };
    let mut out = Vec::new();
    let at = rng.gen_range(body.len());
    let flip = [body[at] ^ (1 + rng.gen_range(255) as u8)];
    out.push(edit(at, 1, &flip));
    let cut = rng.gen_range(other.len());
    out.push([&body[..at], &other[cut..]].concat());
    out.push([body, other].concat());
    out.push(body[..at].to_vec());
    // `{X}` → `{X,X}`: every key twice, the tree reads the first.
    let inner = &body[1..body.len() - 1];
    out.push([b"{", inner, b",", inner, b"}"].concat());
    out.push([b"{\"type\":\"bye\",", inner, b"}"].concat());
    for (i, &b) in body.iter().enumerate() {
        if b == b':' || b == b',' {
            out.push(edit(i + 1, 0, b" "));
        }
        if b == b':' {
            let value = body[i + 1..].iter().take_while(|c| !b",}".contains(c));
            out.push(edit(i + 1, value.count(), b""));
        }
        if b == b',' {
            let key = body[i..].iter().position(|&c| c == b':');
            out.push(edit(i, key.map_or(1, |k| k + 1), b""));
        }
        let starts_number =
            matches!(b, b':' | b'[' | b',') && body.get(i + 1).is_some_and(u8::is_ascii_digit);
        if starts_number {
            let len = body[i + 1..]
                .iter()
                .take_while(|d| d.is_ascii_digit())
                .count();
            out.push(edit(i + 1, 0, b"0"));
            for with in [
                "0",
                "1",
                "18446744073709551615",
                "18446744073709551616",
                "1.0",
                "\"17\"",
                "-1",
                "1e2",
                "null",
            ] {
                out.push(edit(i + 1, len, with.as_bytes()));
            }
        }
    }
    out
}

#[test]
fn the_per_task_byte_matcher_agrees_with_the_tree_parser() {
    // Every fixture line and 2 000 random bodies, and their mutants:
    // the decoder must give what the tree path gives, the same message
    // or the same `WireError` variant.
    let mut rng = XorShift64::new(0x3E5A);
    let mut bodies: Vec<Vec<u8>> = include_str!("fixtures/worker_frames.jsonl")
        .lines()
        .map(|line| line.as_bytes().to_vec())
        .collect();
    bodies.extend((0..2_000).map(|_| encode(&random_message(&mut rng)).split_off(4)));
    bodies.push(br#"{"type":"request","max":1}"#.to_vec());
    let mut cases = 0;
    for i in 0..bodies.len() {
        let other = &bodies[(i * 7 + 3) % bodies.len()];
        let seed = std::iter::once(bodies[i].clone());
        for body in seed.chain(mutants(&bodies[i], other, &mut rng)) {
            let got = decode(&[&(body.len() as u32).to_be_bytes()[..], &body].concat());
            let want = tree(&body);
            let text = String::from_utf8_lossy(&body);
            match (got, want) {
                (Ok(Some(got)), Ok(want)) => assert_eq!(got, want, "{text}"),
                (Err(got), Err(want)) => assert_eq!(
                    std::mem::discriminant(&got),
                    std::mem::discriminant(&want),
                    "{text}: {got} / {want}"
                ),
                (got, want) => panic!("{text}: decoder {got:?}, tree {want:?}"),
            }
            cases += 1;
        }
    }
    assert!(cases > 50_000, "{cases} bodies");
}

#[test]
fn peer_frames_obey_the_frame_cap() {
    // A well-formed remote-done is tiny; the cap exists for hostile
    // senders. A peer frame whose declared length exceeds MAX_FRAME is
    // rejected before any payload is read, exactly like worker frames.
    let msg = Message::RemoteDone { task: 65, shard: 1 };
    let buf = encode(&msg);
    assert!(buf.len() - 4 <= MAX_FRAME, "peer frames fit the cap");
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
    oversized.extend_from_slice(&buf[4..]);
    assert!(matches!(
        decode(&oversized),
        Err(WireError::Oversized(n)) if n == MAX_FRAME + 1
    ));
}

#[test]
fn oversized_length_prefixes_are_rejected_for_any_length() {
    let mut rng = XorShift64::new(0xD00D);
    for _ in 0..100 {
        let len = MAX_FRAME + 1 + rng.gen_range(1 << 24);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(len as u32).to_be_bytes());
        buf.extend_from_slice(b"payload never read");
        assert!(matches!(
            decode(&buf),
            Err(WireError::Oversized(n)) if n == len
        ));
    }
}
