//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list                         # list reproducible artifacts
//! repro table1 fig3 fig17            # generate specific artifacts
//! repro all                          # generate everything
//! repro all --out results            # also write CSV/JSON/EXPERIMENTS.md
//! repro fig3 --scale 0.02 --secs 20  # higher-fidelity run
//! repro trace --out traces           # export a Perfetto-loadable span trace
//! ```

use apm_harness::experiment::{ExperimentProfile, StoreKind};
use apm_harness::extensions::{all_extensions, generate_extension};
use apm_harness::figures::{all_figures, figure_by_id, generate_many};
use apm_harness::output::{
    render_experiments_md, write_csv, write_gnuplot, FigureResult, ResultsFile,
};
use apm_harness::shape::checks_for;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::slice::Iter;
use std::str::FromStr;

struct Args {
    ids: Vec<String>,
    profile: ExperimentProfile,
    out: Option<PathBuf>,
    budget: u32,
    resilient: bool,
}

fn usage() -> &'static str {
    "usage: repro <list | all | table1 | fig3..fig20 | ext-*>... [--scale F] [--secs S] [--warmup S] [--seed N] [--out DIR]\n       repro render <results.json>...   # merge result files and print EXPERIMENTS markdown\n       repro snapshot <store>           # run with checkpoints, write snap-<store>-<k>.bin\n       repro resume <snapshot.bin>      # resume a run from a sealed checkpoint\n       repro bisect <store>             # inject a divergence and localize its window\n       repro trace [--out DIR]          # trace a small fault-laden run, write trace-demo.trace.json\n       repro chaos <store | broken-cassandra> [--budget N] [--resilient] [--seed S] [--out DIR]\n                                        # seeded chaos campaign: oracles + schedule shrinking,\n                                        # writes chaos-<store>.json"
}

/// The value that follows `flag`, parsed.
fn value<T: FromStr<Err: Display>>(it: &mut Iter<String>, flag: &str) -> Result<T, String> {
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|e| format!("bad {flag}: {e}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut ids = Vec::new();
    let mut profile = ExperimentProfile::quick();
    let mut out = None;
    let mut budget = apm_harness::chaos::DEFAULT_BUDGET;
    let mut resilient = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                profile.scale = value(&mut it, "--scale")?;
                // Written so that NaN fails too.
                if !(profile.scale > 0.0 && profile.scale <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
            }
            "--secs" => {
                profile.measure_secs = value(&mut it, "--secs")?;
                if !(profile.measure_secs > 0.0 && profile.measure_secs.is_finite()) {
                    return Err("--secs must be a positive number of seconds".into());
                }
            }
            "--warmup" => {
                profile.warmup_secs = value(&mut it, "--warmup")?;
                if !(profile.warmup_secs >= 0.0 && profile.warmup_secs.is_finite()) {
                    return Err("--warmup must be zero or a positive number of seconds".into());
                }
            }
            "--seed" => profile.seed = value(&mut it, "--seed")?,
            "--out" => {
                out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?));
            }
            "--budget" => {
                budget = value(&mut it, "--budget")?;
                if budget == 0 {
                    return Err("--budget must be at least 1".into());
                }
            }
            "--resilient" => resilient = true,
            "--help" | "-h" => return Err(usage().to_string()),
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        return Err(usage().to_string());
    }
    Ok(Args {
        ids,
        profile,
        out,
        budget,
        resilient,
    })
}

/// Expands `all` and checks every id against the artifact index. Ids
/// are exact: `FIG17` names nothing, here or in any lookup downstream.
fn artifact_ids(requested: &[String]) -> Result<Vec<String>, String> {
    let known: Vec<&str> = all_figures()
        .iter()
        .map(|f| f.id)
        .chain(all_extensions().iter().map(|e| e.id))
        .collect();
    if requested.iter().any(|id| id == "all") {
        return Ok(known.into_iter().map(str::to_string).collect());
    }
    match requested.iter().find(|id| !known.contains(&id.as_str())) {
        Some(id) => Err(format!("unknown artifact {id:?}; try `repro list`")),
        None => Ok(requested.to_vec()),
    }
}

fn store_arg(args: &Args) -> Result<StoreKind, String> {
    let name = args.ids.get(1).ok_or_else(|| {
        "expected a store name (cassandra, hbase, voldemort, voltdb, redis, mysql)".to_string()
    })?;
    StoreKind::by_name(name).ok_or_else(|| format!("unknown store {name:?}"))
}

/// `--out`, or the working directory; created if it is not there.
fn out_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = args.out.clone().unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `repro trace [--out DIR]` — run the small fault-laden Cassandra demo
/// with the kernel's span tracer on and write it as Chrome trace-event
/// JSON (Perfetto, `chrome://tracing`).
fn cmd_trace(args: &Args) -> Result<(), String> {
    if let Some(extra) = args.ids.get(1) {
        return Err(format!("repro trace takes no ids, got {extra:?}"));
    }
    let dir = out_dir(args)?;
    let (json, fingerprint) = apm_harness::obs::capture_trace_demo();
    let path = apm_harness::output::write_chrome_trace(&dir, "trace-demo", &json)
        .map_err(|e| format!("failed to write trace demo: {e}"))?;
    println!(
        "wrote {} (trace fingerprint {fingerprint:#018x})",
        path.display()
    );
    Ok(())
}

/// `repro snapshot <store>` — run the canonical checkpointed scenario and
/// write every sealed checkpoint as `snap-<store>-<k>.bin`.
fn cmd_snapshot(args: &Args) -> Result<(), String> {
    let kind = store_arg(args)?;
    let run = apm_harness::snap::snapshot_run(kind, &args.profile);
    let dir = out_dir(args)?;
    for cp in &run.result.checkpoints {
        let path = dir.join(format!("snap-{}-{}.bin", kind.name(), cp.index));
        write_file(&path, &cp.bytes)?;
        println!(
            "wrote {} (t = {:.3} s, state hash {:#018x})",
            path.display(),
            cp.at.0 as f64 / 1e9,
            cp.state_hash()
        );
    }
    println!(
        "{}: {} checkpoints, final fingerprint {:#018x}, results fingerprint {:#018x}",
        kind.name(),
        run.result.checkpoints.len(),
        run.fingerprint,
        run.result.results_fingerprint()
    );
    Ok(())
}

/// `repro resume <snapshot.bin>` — reopen a sealed checkpoint, rebuild the
/// scenario its header names, and run it to completion.
fn cmd_resume(args: &Args) -> Result<(), String> {
    let path = args.ids.get(1).ok_or("expected a snapshot file")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (header, _) =
        apm_core::snap::open(&bytes).map_err(|e| format!("{path} is not a valid snapshot: {e}"))?;
    let kind = StoreKind::by_name(&header.scenario)
        .ok_or_else(|| format!("snapshot names unknown scenario {:?}", header.scenario))?;
    println!(
        "resuming {} from checkpoint {} (t = {:.3} s)",
        header.scenario,
        header.checkpoint_index,
        header.virtual_time_ns as f64 / 1e9
    );
    let run = apm_harness::snap::resume_run(kind, &args.profile, &bytes)
        .map_err(|e| format!("resume failed: {e}"))?;
    println!(
        "{}: resumed run finished, final fingerprint {:#018x}, results fingerprint {:#018x}",
        kind.name(),
        run.fingerprint,
        run.result.results_fingerprint()
    );
    Ok(())
}

/// `repro bisect <store>` — run the scenario clean and with an injected
/// one-draw perturbation, then bisect the checkpoint streams to localize
/// the first divergent virtual-time window.
fn cmd_bisect(args: &Args) -> Result<(), String> {
    let kind = store_arg(args)?;
    let perturb_at = args.profile.measure_secs * 0.55;
    let outcome = apm_harness::snap::bisect_run(kind, &args.profile, perturb_at);
    println!(
        "{}: {} common checkpoints (perturbation injected {perturb_at:.3} s after warm-up)",
        kind.name(),
        outcome.checkpoints
    );
    match (outcome.first_divergent, outcome.window_ns) {
        (Some(k), Some((start, end))) => {
            println!(
                "first divergent checkpoint: {k}; divergence lies in ({:.3} s, {:.3} s]",
                start as f64 / 1e9,
                end as f64 / 1e9
            );
        }
        _ => println!("no divergence detected"),
    }
    Ok(())
}

/// `repro chaos <store | broken-cassandra>` — run a seeded chaos-search
/// campaign, print per-schedule verdicts, and write the machine-readable
/// report as `chaos-<store>.json` (byte-identical for the same seed).
/// The exit code is the campaign's verdict, which is no error message.
fn cmd_chaos(args: &Args) -> Result<ExitCode, String> {
    use apm_harness::chaos::{report_to_json, run_campaign, ChaosOptions, ChaosTarget};

    let name = args.ids.get(1).ok_or(
        "expected a store name (cassandra, hbase, voldemort, voltdb, redis, mysql) \
         or the broken-cassandra fixture",
    )?;
    let target = if name == "broken-cassandra" {
        ChaosTarget::broken_cassandra()
    } else {
        let kind = StoreKind::by_name(name).ok_or_else(|| format!("unknown store {name:?}"))?;
        ChaosTarget::store(kind)
    };
    let opts = ChaosOptions {
        seed: args.profile.seed,
        budget: args.budget,
        resilient: args.resilient,
    };
    println!(
        "chaos campaign: {} — budget {}, seed {:#x}, resilience {}",
        target.label(),
        opts.budget,
        opts.seed,
        if opts.resilient { "on" } else { "off" }
    );
    let outcome = run_campaign(&target, &args.profile, &opts);
    for schedule in &outcome.report.schedules {
        let failed: Vec<&str> = schedule
            .verdicts
            .iter()
            .filter(|v| !v.pass)
            .map(|v| v.kind.name())
            .collect();
        match failed.is_empty() {
            true => println!(
                "  schedule {}: {} events, pass",
                schedule.index,
                schedule.events.len()
            ),
            false => println!(
                "  schedule {}: {} events, {} ({})",
                schedule.index,
                schedule.events.len(),
                schedule.outcome.name().to_uppercase(),
                failed.join(", ")
            ),
        }
    }
    for m in &outcome.report.minimized {
        match m.divergent_checkpoint {
            Some(k) => println!(
                "  schedule {}: non-deterministic replay, first divergent checkpoint {k}",
                m.schedule_index
            ),
            None => println!(
                "  schedule {}: minimized {} -> {} events in {} probes ({} resumed)",
                m.schedule_index, m.original_events, m.minimized_events, m.probes, m.resumed_probes
            ),
        }
    }
    let path = out_dir(args)?.join(format!("chaos-{}.json", target.label()));
    let json = report_to_json(&outcome.report).to_pretty();
    write_file(&path, json.as_bytes())?;
    println!("wrote {}", path.display());
    let violations = outcome.report.violations();
    // The broken fixture is *supposed* to trip its oracle; a campaign
    // against a healthy store must come back clean.
    let expect_violations = name == "broken-cassandra";
    let ok = if expect_violations {
        violations > 0
    } else {
        violations == 0
    };
    let mark = if ok { "PASS" } else { "FAIL" };
    println!(
        "  [{mark}] {} of {} schedules violated an oracle{}",
        violations,
        outcome.report.schedules.len(),
        if expect_violations {
            " (fixture: expected at least one)"
        } else {
            ""
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `repro render <results.json>...` — merge result files and print the
/// EXPERIMENTS markdown.
fn cmd_render(paths: &[String]) -> Result<(), String> {
    let mut merged = ResultsFile::default();
    for path in paths {
        let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let file =
            ResultsFile::from_json(&json).map_err(|e| format!("cannot parse {path}: {e}"))?;
        if merged.profile.is_empty() {
            merged.profile = file.profile;
        }
        for mut figure in file.figures {
            // Recompute shape checks against the current claim set (they
            // may have been refined since the run was recorded).
            let checks = checks_for(&figure.id, &figure.to_table());
            if !checks.is_empty() {
                figure.checks = checks
                    .iter()
                    .map(|c| (c.claim.to_string(), c.pass, c.detail.clone()))
                    .collect();
            }
            merged.figures.push(figure);
        }
    }
    print!("{}", render_experiments_md(&merged));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    match args.ids.first().map(String::as_str) {
        Some("snapshot") => cmd_snapshot(args)?,
        Some("resume") => cmd_resume(args)?,
        Some("bisect") => cmd_bisect(args)?,
        Some("chaos") => return cmd_chaos(args),
        Some("render") => cmd_render(&args.ids[1..])?,
        Some("trace") => cmd_trace(args)?,
        _ if args.ids.iter().any(|i| i == "list") => {
            for spec in all_figures() {
                println!("{:16} {}", spec.id, spec.title);
            }
            for spec in all_extensions() {
                println!("{:16} {}", spec.id, spec.title);
            }
        }
        _ => cmd_artifacts(args)?,
    }
    Ok(ExitCode::SUCCESS)
}

/// `repro <id>...` — generate the named artifacts, print each table with
/// its shape checks, and write them under `--out`.
fn cmd_artifacts(args: &Args) -> Result<(), String> {
    let ids = artifact_ids(&args.ids)?;
    let profile = args.profile;
    let profile_desc = format!(
        "scale {} ({} records/node), warmup {} s, window {} s, seed {}",
        profile.scale,
        profile.records_per_node(),
        profile.warmup_secs,
        profile.measure_secs,
        profile.seed
    );
    println!("profile: {profile_desc}\n");

    let mut results = ResultsFile {
        profile: profile_desc,
        figures: Vec::new(),
    };
    let mut failed_checks = 0usize;
    // Figures read out of the same sweep are rendered from one pass over
    // it: the first one reached simulates for all that were asked for,
    // the rest wait here until their turn to print.
    let mut rendered: Vec<(&str, apm_core::report::Table)> = Vec::new();
    for id in &ids {
        // Times the host for the "(… took X.Xs)" line; nothing simulated
        // or written to a file reads it.
        #[allow(clippy::disallowed_methods)]
        let started = std::time::Instant::now();
        let mut shared = String::new();
        let table = if let Some(table) = generate_extension(id, &profile) {
            table
        } else if let Some(at) = rendered.iter().position(|(done, _)| done == id) {
            rendered.remove(at).1
        } else {
            let sweep_of = |id: &str| figure_by_id(id).and_then(|f| f.sweep());
            let family: Vec<&str> = match sweep_of(id) {
                None => vec![id.as_str()],
                sweep => ids
                    .iter()
                    .map(String::as_str)
                    .filter(|other| sweep_of(other) == sweep)
                    .collect(),
            };
            if family.len() > 1 {
                shared = format!("; one sweep for {}", family.join(" "));
            }
            let mut tables = generate_many(&family, &profile).into_iter();
            let table = tables.next().expect("one table per requested id");
            rendered.extend(family[1..].iter().copied().zip(tables));
            table
        };
        let checks = checks_for(id, &table);
        println!("{}", table.render());
        for check in &checks {
            let mark = if check.pass { "PASS" } else { "FAIL" };
            if !check.pass {
                failed_checks += 1;
            }
            println!("  [{mark}] {} — {}", check.claim, check.detail);
        }
        println!(
            "  ({id} took {:.1}s{shared})\n",
            started.elapsed().as_secs_f64()
        );
        if let Some(dir) = &args.out {
            write_csv(dir, id, &table)
                .and_then(|_| write_gnuplot(dir, id, &table))
                .map_err(|e| format!("failed to write CSV/plot for {id}: {e}"))?;
        }
        results
            .figures
            .push(FigureResult::capture(id, &table, &checks));
    }

    if let Some(dir) = &args.out {
        let json_path = dir.join("results.json");
        let md_path = dir.join("EXPERIMENTS.generated.md");
        std::fs::write(&json_path, results.to_json())
            .and_then(|_| std::fs::write(&md_path, render_experiments_md(&results)))
            .map_err(|e| format!("failed to write results: {e}"))?;
        println!("wrote {} and {}", json_path.display(), md_path.display());
    }

    if failed_checks > 0 {
        println!("{failed_checks} shape check(s) failed");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn window_and_scale_flags_reject_values_no_run_could_use() {
        for bad in [
            "fig18 --secs -5",
            "fig18 --secs 0",
            "fig18 --secs nan",
            "fig18 --secs inf",
            "fig18 --warmup -1",
            "fig18 --warmup nan",
            "fig18 --warmup inf",
            "fig18 --scale nan",
            "fig18 --scale 0",
            "fig18 --scale 1.5",
        ] {
            let err = parse(bad)
                .err()
                .unwrap_or_else(|| panic!("{bad:?} accepted"));
            assert!(err.contains("must be"), "{bad:?}: {err}");
        }
        let args = parse("fig18 --secs 4 --warmup 0 --scale 1").expect("valid flags");
        assert_eq!(args.profile.measure_secs, 4.0);
        assert_eq!(args.profile.warmup_secs, 0.0);
        assert_eq!(args.profile.scale, 1.0);
    }

    /// `trace` is a subcommand, not an artifact: it names nothing in the
    /// index, and `--out` is where it writes.
    #[test]
    fn trace_is_a_subcommand_with_an_optional_out_dir() {
        let args = parse("trace --out traces").expect("parses");
        assert_eq!(args.ids, ["trace"]);
        assert_eq!(args.out, Some(PathBuf::from("traces")));
        assert_eq!(parse("trace").expect("parses").out, None);
        assert!(artifact_ids(&args.ids).is_err());
        assert!(usage().contains("repro trace [--out DIR]"));
    }

    #[test]
    fn artifact_ids_are_exact_for_figures_and_extensions_alike() {
        let ids = |line: &str| artifact_ids(&parse(line).expect("parses").ids);
        assert_eq!(
            ids("fig17 ext-skew").expect("known ids"),
            vec!["fig17", "ext-skew"]
        );
        for bad in ["FIG17", "Table1", "EXT-SKEW", "fig2"] {
            let err = ids(bad).expect_err(bad);
            assert!(err.contains("unknown artifact"), "{bad}: {err}");
        }
        let all = ids("all").expect("all expands");
        assert_eq!(all.len(), all_figures().len() + all_extensions().len());
        assert_eq!(all.first().map(String::as_str), Some("table1"));
    }
}
