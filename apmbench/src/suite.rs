//! `apmbench run`: every workload, untraced then traced, each in a
//! fresh child process (so `peak_rss_mb` is that workload's alone),
//! one after another, collected into `results.json`.

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::run::RunArgs;
use crate::workloads::WorkloadId;
use apm_harness::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Clone, Debug)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub out: PathBuf,
}

/// Where a run leaves its full record for the suite to collect.
pub fn record_path(out: &Path, workload: WorkloadId, trace: bool) -> PathBuf {
    out.join(workload.name())
        .join(format!("run-trace{}.json", u8::from(trace)))
}

/// Writes a run's full record.
pub fn write_record(args: &RunArgs, record: &Json) -> std::io::Result<()> {
    let path = record_path(&args.out, args.workload, args.trace);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, record.to_pretty() + "\n")
}

fn child(args: &SuiteArgs, workload: WorkloadId, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let status = Command::new(exe)
        .arg("--workload")
        .arg(workload.name())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .arg("--trace")
        .arg(u8::from(trace).to_string())
        .arg("--out")
        .arg(&args.out)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start child for {}: {e}", workload.name()))?;
    if !status.success() {
        return Err(format!(
            "child for {} exited with {status}",
            workload.name()
        ));
    }
    let path = record_path(&args.out, workload, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn field(record: &Json, key: &str) -> Json {
    record.get(key).cloned().unwrap_or(Json::Null)
}

/// Runs the suite, prints every metric by name with its unit, writes
/// `results.json`. `Ok(true)` when every run was correct.
pub fn run_suite(args: &SuiteArgs) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in WorkloadId::ALL {
        eprintln!("apmbench: {} (untraced, then traced)", workload.name());
        let untraced = child(args, workload, false)?;
        let traced = child(args, workload, true)?;
        let correct = [&untraced, &traced]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        all_correct &= correct;
        let mut problems = Vec::new();
        for record in [&untraced, &traced] {
            problems.extend(
                record
                    .get("problems")
                    .and_then(Json::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            );
        }
        workloads.push(Json::Obj(vec![
            ("name".into(), Json::Str(workload.name().into())),
            ("why".into(), Json::Str(workload.why().into())),
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), field(&untraced, "attempted")),
            ("failed".into(), field(&untraced, "failed")),
            ("fields".into(), field(&untraced, "fields")),
            ("end_to_end".into(), field(&untraced, "metrics")),
            ("per_layer".into(), field(&traced, "metrics")),
            ("traced_fields".into(), field(&traced, "fields")),
            ("problems".into(), Json::Arr(problems)),
        ]));
    }
    let results = Json::Obj(vec![
        ("benchmark".into(), Json::Str("apmbench".into())),
        ("seed".into(), Json::Str(args.seed.to_string())),
        ("seconds".into(), Json::Num(args.seconds)),
        ("workloads".into(), Json::Arr(workloads)),
    ]);
    print_results(&results);
    let path = args.out.join("results.json");
    std::fs::write(&path, results.to_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn print_metric(section: &Json, name: &str) {
    let metric = section.get(name);
    let value = metric.and_then(|m| m.get("value")).and_then(Json::as_f64);
    let unit = metric
        .and_then(|m| m.get("unit"))
        .and_then(Json::as_str)
        .unwrap_or("?");
    match value {
        Some(v) => println!("  {name:<44} {v:>18.6} {unit}"),
        None => println!("  {name:<44} {:>18} {unit}", "missing"),
    }
}

/// Prints every workload's fields and metrics, in catalogue order.
pub fn print_results(results: &Json) {
    for workload in results
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        let name = workload.get("name").and_then(Json::as_str).unwrap_or("?");
        let correct = workload.get("correct").and_then(Json::as_bool) == Some(true);
        println!(
            "== {name} ({})",
            if correct {
                "self-checks pass"
            } else {
                "SELF-CHECKS FAILED"
            }
        );
        if let Some(Json::Obj(fields)) = workload.get("fields") {
            for (key, value) in fields {
                match value {
                    Json::Str(s) => println!("  {key:<44} {s:>18}"),
                    Json::Num(v) => println!("  {key:<44} {v:>18.6}"),
                    _ => {}
                }
            }
        }
        if let Some(section) = workload.get("end_to_end") {
            for metric in &END_TO_END {
                print_metric(section, metric.name);
            }
        }
        if let Some(section) = workload.get("per_layer") {
            for metric in PER_LAYER {
                print_metric(section, metric.name);
            }
        }
        for problem in workload
            .get("problems")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            println!("  PROBLEM {}", problem.as_str().unwrap_or("?"));
        }
    }
}
