//! `apmbench compare` on fixture results: pass, exact mismatch, and a
//! timed metric out of its bound.

use apm_harness::json::{self, Json};
use apmbench::catalogue::{END_TO_END, PER_LAYER, STORE_CALLS_PER_S};
use apmbench::compare::{compare, Verdict};

/// A results document with one workload; every metric present.
fn fixture(rate: f64, plan_op_calls: f64, fingerprint: &str) -> Json {
    let metric = |value: f64, unit: &str| {
        Json::Obj(vec![
            ("value".into(), Json::Num(value)),
            ("unit".into(), Json::Str(unit.into())),
        ])
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let value = if m.name == STORE_CALLS_PER_S {
                rate
            } else {
                10.0
            };
            (m.name.to_string(), metric(value, m.unit))
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            let value = if m.name == "stores.plan_op.calls" {
                plan_op_calls
            } else {
                2.5
            };
            (m.name.to_string(), metric(value, m.unit))
        })
        .collect();
    let text = format!(
        r#"{{"seed": "7", "workloads": [{{"name": "point_kernel",
            "fields": {{"store_calls": 1000, "failed_share": 0, "sim_fingerprint": "{fingerprint}"}}}}]}}"#
    );
    let mut doc = json::parse(&text).expect("fixture parses");
    if let Json::Obj(top) = &mut doc {
        if let Some((_, Json::Arr(workloads))) = top.iter_mut().find(|(k, _)| k == "workloads") {
            if let Json::Obj(w) = &mut workloads[0] {
                w.push(("end_to_end".into(), Json::Obj(end_to_end)));
                w.push(("per_layer".into(), Json::Obj(per_layer)));
            }
        }
    }
    doc
}

fn verdict_of(rows: &[apmbench::compare::Row], metric: &str) -> Verdict {
    rows.iter()
        .find(|r| r.metric == metric)
        .unwrap_or_else(|| panic!("no row for {metric}"))
        .verdict
}

#[test]
fn same_commit_same_seed_agrees() {
    let a = fixture(1_000_000.0, 500.0, "00ff");
    // 5 % slower: inside every bound.
    let b = fixture(950_000.0, 500.0, "00ff");
    let rows = compare(&a, &b).expect("comparable");
    assert_eq!(rows.len(), 3 + END_TO_END.len() + PER_LAYER.len());
    assert!(rows.iter().all(|r| !r.verdict.disagrees()));
    assert_eq!(verdict_of(&rows, STORE_CALLS_PER_S), Verdict::Unchanged);
    assert_eq!(verdict_of(&rows, "sim_fingerprint"), Verdict::Identical);
    assert_eq!(
        verdict_of(&rows, "stores.plan_op.calls"),
        Verdict::Identical
    );
    // Timed layer metrics are shown with their ratio, not judged.
    assert_eq!(verdict_of(&rows, "stores.plan_op.busy_s"), Verdict::Info);
    let rate = rows.iter().find(|r| r.metric == STORE_CALLS_PER_S).unwrap();
    assert!((rate.ratio.unwrap() - 0.95).abs() < 1e-12);
}

#[test]
fn exact_values_must_be_identical() {
    let a = fixture(1_000_000.0, 500.0, "00ff");
    let rows = compare(&a, &fixture(1_000_000.0, 501.0, "00ff")).expect("comparable");
    assert_eq!(verdict_of(&rows, "stores.plan_op.calls"), Verdict::Mismatch);
    assert_eq!(rows.iter().filter(|r| r.verdict.disagrees()).count(), 1);
    let rows = compare(&a, &fixture(1_000_000.0, 500.0, "00fe")).expect("comparable");
    assert_eq!(verdict_of(&rows, "sim_fingerprint"), Verdict::Mismatch);
}

#[test]
fn a_pair_beyond_the_bound_is_unresolved_not_unchanged() {
    let bound = END_TO_END[0].bound;
    let a = fixture(1_000_000.0, 500.0, "00ff");
    for factor in [1.0 - bound - 0.05, 1.0 + bound + 0.05] {
        let rows = compare(&a, &fixture(1_000_000.0 * factor, 500.0, "00ff")).expect("comparable");
        assert_eq!(verdict_of(&rows, STORE_CALLS_PER_S), Verdict::Unresolved);
        assert!(rows.iter().any(|r| r.verdict.disagrees()));
    }
}

#[test]
fn a_missing_workload_or_metric_disagrees() {
    let a = fixture(1_000_000.0, 500.0, "00ff");
    let empty = json::parse(r#"{"seed": "7", "workloads": []}"#).unwrap();
    let rows = compare(&a, &empty).expect("comparable");
    assert!(rows.iter().all(|r| r.verdict == Verdict::Missing));
    assert!(compare(&a, &json::parse("{}").unwrap()).is_err());
}
