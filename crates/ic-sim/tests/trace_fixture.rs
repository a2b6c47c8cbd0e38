//! Pins the JSONL trace bytes across commits: a WAL written by an
//! older binary must parse — and re-serialize identically, bar the
//! one key since retired — under the current one. The fixture is checked in, not generated, so a format
//! drift fails here even when writer and reader drift together.

use ic_sim::trace::Trace;

const FIXTURE: &str = include_str!("fixtures/trace_v3.jsonl");
const HEADER_PREFIX: &str = "{\"type\":\"header\"";
/// The one key an older writer put in the fixture that the current one
/// leaves out.
const RETIRED: &str = ",\"replicas\":[1]";

/// The fixture holds one trace per header version; a trace file has
/// exactly one header, so cut the text in front of each header line.
fn fixture_traces() -> Vec<&'static str> {
    let mut starts: Vec<usize> = FIXTURE
        .match_indices(HEADER_PREFIX)
        .map(|(i, _)| i)
        .collect();
    starts.push(FIXTURE.len());
    starts.windows(2).map(|w| &FIXTURE[w[0]..w[1]]).collect()
}

#[test]
fn fixture_round_trips_byte_for_byte() {
    let traces = fixture_traces();
    let versions: Vec<u32> = traces
        .iter()
        .map(|text| {
            let trace = Trace::from_jsonl(text).expect("fixture parses");
            // The v3 shard header predates the one cut rule: its
            // `"replicas"` key is read past and no longer written.
            let current = text.replacen(RETIRED, "", 1);
            assert_eq!(trace.to_jsonl(), current, "re-serialized bytes differ");
            trace.header.version
        })
        .collect();
    assert_eq!(versions, vec![1, 2, 3]);
    assert_eq!(FIXTURE.matches(RETIRED).count(), 1);
}

#[test]
fn fixture_covers_every_kind_with_and_without_a_pool_sample() {
    let with = |kind: &str, pool: bool| {
        FIXTURE.lines().any(|l| {
            l.starts_with(&format!("{{\"type\":\"{kind}\"")) && l.contains("\"pool\"") == pool
        })
    };
    for kind in ["alloc", "complete", "fail", "spec"] {
        assert!(with(kind, true) && with(kind, false), "{kind}");
    }
    for kind in ["idle", "resume", "revoke"] {
        assert!(with(kind, false) && !with(kind, true), "{kind}");
    }
    assert!(FIXTURE.contains("\"fed\":{") && FIXTURE.contains("\"t\":1.062745"));
}

#[test]
fn only_idle_may_omit_the_task() {
    let header = fixture_traces()[0].lines().next().expect("header line");
    let parse = |event: &str| Trace::from_jsonl(&format!("{header}\n{event}\n"));
    let idle = parse("{\"type\":\"idle\",\"step\":0,\"t\":0,\"client\":0}").expect("idle parses");
    assert_eq!(
        idle.events[0].to_json_line(),
        "{\"type\":\"idle\",\"step\":0,\"t\":0,\"client\":0}\n"
    );
    for kind in ["alloc", "complete", "fail", "resume", "spec", "revoke"] {
        let e = parse(&format!(
            "{{\"type\":\"{kind}\",\"step\":0,\"t\":0,\"client\":0}}"
        ))
        .expect_err("a task event without a task");
        assert_eq!((e.line, e.message.as_str()), (2, "missing \"task\" field"));
    }
    let e = parse("{\"type\":\"warp\",\"step\":0,\"t\":0,\"client\":0,\"task\":0}")
        .expect_err("unknown type");
    assert_eq!(
        (e.line, e.message.as_str()),
        (2, "unknown event type \"warp\"")
    );
}
