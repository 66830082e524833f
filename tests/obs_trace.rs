//! Span-tracing integration (`repro trace`): the Chrome trace-event
//! export of a traced engine is well-formed — spans balance per thread,
//! timestamps are monotone per thread — and two identically seeded
//! captures are byte-identical with equal kernel fingerprints.

use apm_repro::core::json::{self, Json};
use apm_repro::harness::obs::capture_trace_demo;
use std::collections::BTreeMap;

fn demo_events() -> Vec<Json> {
    let (text, _) = capture_trace_demo();
    let doc = json::parse(&text).expect("exported trace must parse");
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .to_vec()
}

fn field(e: &Json, key: &str) -> String {
    match e.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => format!("{n}"),
        other => panic!("event field {key} missing or mistyped: {other:?}"),
    }
}

fn num(e: &Json, key: &str) -> f64 {
    e.get(key).and_then(Json::as_f64).expect("numeric field")
}

#[test]
fn spans_nest_and_balance_within_every_thread() {
    let events = demo_events();
    assert!(!events.is_empty(), "demo trace must contain events");
    let mut stacks: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for e in &events {
        let key = (field(e, "pid"), field(e, "tid"));
        match field(e, "ph").as_str() {
            "B" => stacks.entry(key).or_default().push(field(e, "name")),
            "E" => {
                let open = stacks.get_mut(&key).expect("E without any B");
                let name = open.pop().expect("E with empty span stack");
                assert_eq!(name, field(e, "name"), "mis-nested span close");
            }
            "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    for (key, open) in stacks {
        assert!(open.is_empty(), "thread {key:?} left spans open: {open:?}");
    }
}

#[test]
fn timestamps_are_monotone_within_every_thread() {
    let events = demo_events();
    let mut last: BTreeMap<(String, String), f64> = BTreeMap::new();
    for e in &events {
        let key = (field(e, "pid"), field(e, "tid"));
        let ts = num(e, "ts");
        if let Some(prev) = last.get(&key) {
            assert!(ts >= *prev, "thread {key:?} went backwards: {prev} -> {ts}");
        }
        last.insert(key, ts);
    }
    assert!(!last.is_empty());
}

#[test]
fn trace_contains_the_injected_fault_instants() {
    let events = demo_events();
    let instants: Vec<String> = events
        .iter()
        .filter(|e| field(e, "ph") == "i")
        .map(|e| field(e, "name"))
        .collect();
    assert!(
        instants.iter().any(|n| n == "fault:down"),
        "crash missing from {instants:?}"
    );
    assert!(
        instants.iter().any(|n| n == "fault:restored"),
        "restore missing from {instants:?}"
    );
}

#[test]
fn identical_captures_share_fingerprint_and_bytes() {
    let (text_a, fp_a) = capture_trace_demo();
    let (text_b, fp_b) = capture_trace_demo();
    assert_eq!(fp_a, fp_b, "kernel trace fingerprint diverged");
    assert_eq!(text_a, text_b, "exported JSON diverged");
    assert_ne!(fp_a, 0, "a non-empty run must fold a non-trivial hash");
}

#[test]
fn op_lanes_are_per_connection_not_per_op() {
    // The demo drives 2 Cluster-M nodes, 256 connections: at most a
    // primary, a hedge and a trigger lane each, however many ops ran.
    let lanes: std::collections::BTreeSet<String> = demo_events()
        .iter()
        .filter(|e| field(e, "pid") == "1" && field(e, "name") == "op")
        .map(|e| field(e, "tid"))
        .collect();
    assert!(lanes.len() <= 3 * 256, "{} op lanes", lanes.len());

    // The demo is throttled to one op per connection, so the property
    // itself is checked on a synthetic stream: client tokens carry a
    // per-attempt epoch, and two epochs of one connection must share a
    // lane while its hedge, a fault sentinel and a background job do not.
    use apm_repro::sim::{SimTime, TraceEvent, TraceEventKind};
    use apm_repro::stores::api::{AttemptKind, Tag};
    let tokens = [
        Tag::Attempt(3, 1, AttemptKind::Primary),
        Tag::Attempt(3, 2, AttemptKind::Primary),
        Tag::Attempt(3, 2, AttemptKind::Hedge),
        Tag::Attempt(4, 1, AttemptKind::Primary),
        Tag::Fault(0),
        Tag::Background(3),
    ]
    .map(Tag::token);
    let stream: Vec<TraceEvent> = tokens
        .iter()
        .enumerate()
        .flat_map(|(i, &token)| {
            let at = |ns| SimTime(10 * i as u64 + ns);
            [
                (at(0), TraceEventKind::Submit),
                (at(5), TraceEventKind::Complete(apm_repro::sim::Outcome::Ok)),
            ]
            .map(|(at, kind)| TraceEvent {
                at,
                token: Some(token),
                resource: None,
                kind,
            })
        })
        .collect();
    let doc = apm_repro::harness::obs::chrome::trace_to_json(&stream);
    let tids: Vec<String> = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| field(e, "ph") == "B")
        .map(|e| field(e, "tid"))
        .collect();
    assert_eq!(tids, ["0", "0", "1", "2", "3", "4"]);
}
