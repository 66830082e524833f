//! The `apmbench` command.
//!
//! ```text
//! apmbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! apmbench run [--seed <n>] [--seconds <s>] [--out <dir>]
//! apmbench compare <a.json> <b.json>
//! ```
//!
//! The first form is the benchmark contract's: one run of one workload,
//! its result printed as one JSON object on the last line of standard
//! output. `run` does that for every workload, untraced and traced, and
//! writes `results.json`; `compare` checks two such files against each
//! other.

use apm_harness::json;
use apmbench::compare::{compare, report};
use apmbench::run::{run, RunArgs};
use apmbench::suite::{run_suite, write_record, SuiteArgs};
use apmbench::workloads::WorkloadId;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Seed of the documented command line.
const DEFAULT_SEED: u64 = 2_845_909_010;
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 15.0;
/// Default output directory: build output, never the repository root.
const DEFAULT_OUT: &str = "target/apmbench";

const USAGE: &str = "usage:
  apmbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  apmbench run [--seed <n>] [--seconds <s>] [--out <dir>]
  apmbench compare <a.json> <b.json>
workloads: figures_r point_kernel scan_planner load_disk resilient_faults";

/// `--flag value` pairs, each flag at most once.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag:?}"));
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            if pairs.iter().any(|(f, _)| f == flag) {
                return Err(format!("{flag} given twice"));
            }
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn seed(&self) -> Result<Option<u64>, String> {
        self.get("--seed")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))
            })
            .transpose()
    }

    fn seconds(&self) -> Result<Option<f64>, String> {
        self.get("--seconds")
            .map(|v| match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => Ok(s),
                _ => Err(format!("--seconds {v:?} is not a positive number")),
            })
            .transpose()
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(self.get("--out").unwrap_or(DEFAULT_OUT))
    }
}

fn one_run(args: &[String], started: Instant) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out"],
    )?;
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let workload = WorkloadId::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is not 0 or 1")),
    };
    let run_args = RunArgs {
        workload,
        seed: flags.seed()?.unwrap_or(DEFAULT_SEED),
        seconds: flags.seconds()?.unwrap_or(DEFAULT_SECONDS),
        trace,
        out: flags.out(),
    };
    let output = run(&run_args, started);
    for problem in &output.problems {
        eprintln!("apmbench: {}: {problem}", workload.name());
    }
    write_record(&run_args, &output.full_json(&run_args))
        .map_err(|e| format!("cannot write the run record: {e}"))?;
    // One line: the pretty form holds no raw newline inside a string.
    let line: String = output
        .result_json()
        .to_pretty()
        .lines()
        .map(str::trim_start)
        .collect();
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn suite(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--seed", "--seconds", "--out"])?;
    let suite_args = SuiteArgs {
        seed: flags.seed()?.unwrap_or(DEFAULT_SEED),
        seconds: flags.seconds()?.unwrap_or(DEFAULT_SECONDS),
        out: flags.out(),
    };
    std::fs::create_dir_all(&suite_args.out)
        .map_err(|e| format!("{}: {e}", suite_args.out.display()))?;
    Ok(if run_suite(&suite_args)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two files".to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&load(a)?, &load(b)?)?;
    Ok(if report(&rows) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Wall-clock by design: set-up time counts from process start.
    let started = Instant::now(); // audit:allow(clock)
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(_) => one_run(&args, started),
        None => Err("no arguments".to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("apmbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
