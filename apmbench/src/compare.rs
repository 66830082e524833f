//! `apmbench compare <a.json> <b.json>`: two `results.json` files
//! against the benchmark's own rules.
//!
//! * Exact values — `store_calls`, `failed_share`, `sim_fingerprint`,
//!   every count, and every ratio computed from counts alone — must be
//!   identical: the simulator is deterministic, so a difference is a
//!   behaviour change, not noise.
//! * Timed end-to-end metrics must agree within their bound. A pair
//!   further apart than the bound is labelled `unresolved`, never
//!   `unchanged`: two single runs cannot tell a change from noise.
//! * Timed layer metrics are printed with their ratio and never gate.
//!
//! Every ratio is printed with its base (`b/a`).

use crate::catalogue::{is_exact, END_TO_END, PER_LAYER};
use apm_harness::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Exact value, equal on both sides.
    Identical,
    /// Exact value that differs: the two sides disagree.
    Mismatch,
    /// Timed end-to-end metric within its bound.
    Unchanged,
    /// Timed end-to-end metric further apart than its bound.
    Unresolved,
    /// Timed layer metric: shown, not judged.
    Info,
    /// Present on one side only.
    Missing,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
            Verdict::Missing => "MISSING",
        }
    }

    /// Whether the verdict makes the comparison fail.
    pub fn disagrees(self) -> bool {
        matches!(
            self,
            Verdict::Mismatch | Verdict::Unresolved | Verdict::Missing
        )
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: String,
    pub b: String,
    /// `b / a`, where both are numbers and `a` is not 0.
    pub ratio: Option<f64>,
    pub verdict: Verdict,
}

fn show(value: Option<&Json>) -> String {
    match value {
        Some(Json::Num(v)) => format!("{v}"),
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.to_pretty(),
        None => "-".to_string(),
    }
}

fn ratio(a: Option<&Json>, b: Option<&Json>) -> Option<f64> {
    match (a.and_then(Json::as_f64), b.and_then(Json::as_f64)) {
        (Some(a), Some(b)) if a != 0.0 => Some(b / a),
        _ => None,
    }
}

/// How a pair of values is judged.
#[derive(Clone, Copy, Debug)]
enum Rule {
    /// Must be identical.
    Exact,
    /// Must agree within this share of `a`.
    Bound(f64),
    /// Shown, not judged.
    Info,
}

fn row(workload: &str, metric: &str, a: Option<&Json>, b: Option<&Json>, rule: Rule) -> Row {
    let ratio = ratio(a, b);
    let verdict = match (a, b, rule) {
        (None, _, _) | (_, None, _) => Verdict::Missing,
        (Some(a), Some(b), Rule::Exact) if a == b => Verdict::Identical,
        (_, _, Rule::Exact) => Verdict::Mismatch,
        (_, _, Rule::Info) => Verdict::Info,
        (_, _, Rule::Bound(bound)) => match ratio {
            Some(r) if (r - 1.0).abs() <= bound => Verdict::Unchanged,
            _ => Verdict::Unresolved,
        },
    };
    Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        a: show(a),
        b: show(b),
        ratio,
        verdict,
    }
}

fn workload<'a>(results: &'a Json, name: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn value<'a>(workload: Option<&'a Json>, section: &str, metric: &str) -> Option<&'a Json> {
    workload?.get(section)?.get(metric)?.get("value")
}

fn plain_field<'a>(workload: Option<&'a Json>, key: &str) -> Option<&'a Json> {
    workload?.get("fields")?.get(key)
}

/// The plain fields that must be identical.
const EXACT_FIELDS: [&str; 3] = ["store_calls", "failed_share", "sim_fingerprint"];

/// Compares two parsed `results.json` documents: one row per
/// (workload, metric), in `a`'s workload order.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("first file has no `workloads` array")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if b.get("workloads").and_then(Json::as_arr).is_none() {
        return Err("second file has no `workloads` array".to_string());
    }
    let mut rows = Vec::new();
    if a.get("seed") != b.get("seed") {
        rows.push(row("*", "seed", a.get("seed"), b.get("seed"), Rule::Exact));
    }
    for name in names {
        let (wa, wb) = (workload(a, name), workload(b, name));
        for key in EXACT_FIELDS {
            let (fa, fb) = (plain_field(wa, key), plain_field(wb, key));
            rows.push(row(name, key, fa, fb, Rule::Exact));
        }
        for metric in &END_TO_END {
            rows.push(row(
                name,
                metric.name,
                value(wa, "end_to_end", metric.name),
                value(wb, "end_to_end", metric.name),
                Rule::Bound(metric.bound),
            ));
        }
        for metric in PER_LAYER {
            let rule = if is_exact(metric.name) {
                Rule::Exact
            } else {
                Rule::Info
            };
            rows.push(row(
                name,
                metric.name,
                value(wa, "per_layer", metric.name),
                value(wb, "per_layer", metric.name),
                rule,
            ));
        }
    }
    Ok(rows)
}

/// Prints the rows; returns whether the two sides agree.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<44} {:>22} {:>22} {:>14}  verdict",
        "workload", "metric", "a", "b", "b/a"
    );
    for r in rows {
        let ratio = r.ratio.map_or("-".to_string(), |v| format!("{v:.4} of a"));
        println!(
            "{:<18} {:<44} {:>22} {:>22} {:>14}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.verdict.label()
        );
    }
    let disagreements = rows.iter().filter(|r| r.verdict.disagrees()).count();
    println!("{} rows, {disagreements} disagreement(s)", rows.len());
    disagreements == 0
}
