//! `BENCHMARK.json` against the benchmark contract's limits, against
//! the catalogue, and against what a run really emits.

use apm_harness::json::{self, Json};
use apmbench::catalogue::{END_TO_END, PER_LAYER, SETUP_S};
use apmbench::run::{run, RunArgs};
use apmbench::workloads::WorkloadId;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

fn manifest() -> (String, Json) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    (text, doc)
}

fn keys(value: &Json) -> Vec<&str> {
    match value {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {value:?}"),
    }
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {value:?}"))
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no array `{key}`"))
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_meets_the_contract_limits() {
    let (raw, doc) = manifest();
    assert!(raw.len() <= 64 * 1024);
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = list(&doc, "command");
    assert!((1..=32).contains(&command.len()));
    let paths: Vec<&str> = list(&doc, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["apmbench"]);
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
        // The only repository file the command names is under `paths`.
        if part.contains('/') {
            assert!(part.starts_with("apmbench/"), "{part} is outside paths");
        }
    }
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = list(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    // 4 + 22 runs per workload, two builds, inside 3420 s: a run may
    // take this long on average, set-up and overshoot included.
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(
        (seconds + 10.0) * runs + 2.0 * 120.0 < 3420.0,
        "run_seconds leaves no room for set-up"
    );
    let mut names = BTreeSet::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
        assert!(is_name(text(w, "name")));
        assert!(names.insert(text(w, "name")), "duplicate name");
    }
    let end_to_end = list(&doc, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let per_layer = list(&doc, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(is_name(text(m, "name")), "{m:?}");
        assert!(is_unit(text(m, "unit")), "{m:?}");
        assert!(["higher", "lower"].contains(&text(m, "better")));
        assert!(names.insert(text(m, "name")), "duplicate name {m:?}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == SETUP_S)
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let widest = end_to_end
        .iter()
        .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(widest));
}

#[test]
fn manifest_and_catalogue_agree() {
    let (_, doc) = manifest();
    let listed: Vec<(&str, &str)> = list(&doc, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let known: Vec<(&str, &str)> = WorkloadId::ALL
        .iter()
        .map(|w| (w.name(), w.why()))
        .collect();
    assert_eq!(listed, known);

    let listed: Vec<(&str, &str, &str, Option<f64>)> = list(&doc, "end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect();
    let known: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.label(), Some(m.bound)))
        .collect();
    assert_eq!(listed, known);

    let listed: Vec<(&str, &str, &str)> = list(&doc, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let known: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better.label()))
        .collect();
    assert_eq!(listed, known);
}

/// Each layer metric's `moves` names an end-to-end metric and a
/// workload that exist.
#[test]
fn moves_name_real_metrics_and_workloads() {
    for layer in PER_LAYER {
        for (metric, workload) in layer.moves {
            assert!(
                END_TO_END.iter().any(|m| m.name == *metric),
                "{} moves unknown metric {metric}",
                layer.name
            );
            assert!(
                WorkloadId::by_name(workload).is_some(),
                "{} moves unknown workload {workload}",
                layer.name
            );
        }
    }
}

/// One short run of a workload in each mode: the self-checks pass, and
/// the metrics emitted are exactly the ones the manifest names, each
/// with its unit and a finite value.
fn emits_exactly_the_named_metrics(workload: WorkloadId) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("schema");
    for trace in [false, true] {
        let args = RunArgs {
            workload,
            seed: 7,
            // One pass: the first always runs, a second would not fit.
            seconds: 0.1,
            trace,
            out: out.clone(),
        };
        let output = run(&args, Instant::now());
        assert_eq!(output.problems, Vec::<String>::new());
        assert!(output.correct && output.failed == 0 && output.attempted >= 1);
        assert_eq!(output.fields.passes, 1);
        let emitted: BTreeSet<&str> = output.metrics.keys().map(String::as_str).collect();
        let named: BTreeSet<&str> = if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        assert_eq!(emitted, named, "{} trace {trace}", workload.name());
        assert!(output.metrics.values().all(|v| v.is_finite() && *v >= -1.0));
        if !trace {
            assert!(output.metrics.values().all(|v| *v > 0.0), "never 0");
        }
        // The printed result has the contract's four keys and a unit on
        // every metric.
        let result = output.result_json();
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        for (name, metric) in match result.get("metrics") {
            Some(Json::Obj(pairs)) => pairs,
            _ => panic!("metrics is not an object"),
        } {
            assert_eq!(keys(metric), ["value", "unit"], "{name}");
            assert!(is_unit(text(metric, "unit")), "{name}");
        }
        if trace {
            let trace_file = out.join(format!("trace-{}.json", workload.name()));
            let text = std::fs::read_to_string(trace_file).expect("trace file written");
            let doc = json::parse(&text).expect("trace file parses");
            assert!(!list(&doc, "spans").is_empty());
        }
    }
}

#[test]
fn figures_r_emits_exactly_the_named_metrics() {
    emits_exactly_the_named_metrics(WorkloadId::FiguresR);
}

#[test]
fn point_kernel_emits_exactly_the_named_metrics() {
    emits_exactly_the_named_metrics(WorkloadId::PointKernel);
}

#[test]
fn scan_planner_emits_exactly_the_named_metrics() {
    emits_exactly_the_named_metrics(WorkloadId::ScanPlanner);
}

#[test]
fn load_disk_emits_exactly_the_named_metrics() {
    emits_exactly_the_named_metrics(WorkloadId::LoadDisk);
}

#[test]
fn resilient_faults_emits_exactly_the_named_metrics() {
    emits_exactly_the_named_metrics(WorkloadId::ResilientFaults);
}
