//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro list                         # list reproducible artifacts
//! repro table1 fig3 fig17            # generate specific artifacts
//! repro all                          # generate everything
//! repro all --out results            # also write CSV/JSON/EXPERIMENTS.md
//! repro fig3 --scale 0.02 --secs 20  # higher-fidelity run
//! ```

use apm_harness::experiment::{ExperimentProfile, StoreKind};
use apm_harness::extensions::{all_extensions, generate_extension};
use apm_harness::figures::{all_figures, figure_by_id, generate_many};
use apm_harness::output::{
    render_experiments_md, write_csv, write_gnuplot, FigureResult, ResultsFile,
};
use apm_harness::shape::checks_for;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    ids: Vec<String>,
    profile: ExperimentProfile,
    out: Option<PathBuf>,
    budget: u32,
    resilient: bool,
}

fn usage() -> &'static str {
    "usage: repro <list | all | table1 | fig3..fig20 | ext-*>... [--scale F] [--secs S] [--warmup S] [--seed N] [--out DIR]\n       repro render <results.json>...   # merge result files and print EXPERIMENTS markdown\n       repro snapshot <store>           # run with checkpoints, write snap-<store>-<k>.bin\n       repro resume <snapshot.bin>      # resume a run from a sealed checkpoint\n       repro bisect <store>             # inject a divergence and localize its window\n       repro chaos <store | broken-cassandra> [--budget N] [--resilient] [--seed S] [--out DIR]\n                                        # seeded chaos campaign: oracles + schedule shrinking,\n                                        # writes chaos-<store>.json"
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
                profile.scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                // Written so that NaN fails too.
                if !(profile.scale > 0.0 && profile.scale <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
            }
            "--secs" => {
                profile.measure_secs = it
                    .next()
                    .ok_or("--secs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --secs: {e}"))?;
                if !(profile.measure_secs > 0.0 && profile.measure_secs.is_finite()) {
                    return Err("--secs must be a positive number of seconds".into());
                }
            }
            "--warmup" => {
                profile.warmup_secs = it
                    .next()
                    .ok_or("--warmup needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --warmup: {e}"))?;
                if !(profile.warmup_secs >= 0.0 && profile.warmup_secs.is_finite()) {
                    return Err("--warmup must be zero or a positive number of seconds".into());
                }
            }
            "--seed" => {
                profile.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--out" => {
                out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?));
            }
            "--budget" => {
                budget = it
                    .next()
                    .ok_or("--budget needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --budget: {e}"))?;
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

/// `repro snapshot <store>` — run the canonical checkpointed scenario and
/// write every sealed checkpoint as `snap-<store>-<k>.bin`.
fn cmd_snapshot(args: &Args) -> ExitCode {
    let kind = match store_arg(args) {
        Ok(k) => k,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let run = apm_harness::snap::snapshot_run(kind, &args.profile);
    let dir = args.out.clone().unwrap_or_else(|| PathBuf::from("."));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for cp in &run.result.checkpoints {
        let path = dir.join(format!("snap-{}-{}.bin", kind.name(), cp.index));
        if let Err(e) = std::fs::write(&path, &cp.bytes) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {} (t = {:.3} s, state hash {:#018x})",
            path.display(),
            cp.at.0 as f64 / 1e9,
            cp.state_hash()
        );
    }
    println!(
        "{}: {} checkpoints, final fingerprint {:#018x}",
        kind.name(),
        run.result.checkpoints.len(),
        run.fingerprint
    );
    ExitCode::SUCCESS
}

/// `repro resume <snapshot.bin>` — reopen a sealed checkpoint, rebuild the
/// scenario its header names, and run it to completion.
fn cmd_resume(args: &Args) -> ExitCode {
    let path = match args.ids.get(1) {
        Some(p) => p,
        None => {
            eprintln!("expected a snapshot file");
            return ExitCode::FAILURE;
        }
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (header, _) = match apm_core::snap::open(&bytes) {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("{path} is not a valid snapshot: {e}");
            return ExitCode::FAILURE;
        }
    };
    let kind = match StoreKind::by_name(&header.scenario) {
        Some(k) => k,
        None => {
            eprintln!("snapshot names unknown scenario {:?}", header.scenario);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "resuming {} from checkpoint {} (t = {:.3} s)",
        header.scenario,
        header.checkpoint_index,
        header.virtual_time_ns as f64 / 1e9
    );
    match apm_harness::snap::resume_run(kind, &args.profile, &bytes) {
        Ok(run) => {
            println!(
                "{}: resumed run finished, final fingerprint {:#018x}",
                kind.name(),
                run.fingerprint
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("resume failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro bisect <store>` — run the scenario clean and with an injected
/// one-draw perturbation, then bisect the checkpoint streams to localize
/// the first divergent virtual-time window.
fn cmd_bisect(args: &Args) -> ExitCode {
    let kind = match store_arg(args) {
        Ok(k) => k,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
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
    ExitCode::SUCCESS
}

/// `repro chaos <store | broken-cassandra>` — run a seeded chaos-search
/// campaign, print per-schedule verdicts, and write the machine-readable
/// report as `chaos-<store>.json` (byte-identical for the same seed).
fn cmd_chaos(args: &Args) -> ExitCode {
    use apm_harness::chaos::{report_to_json, run_campaign, ChaosOptions, ChaosTarget};

    let name = match args.ids.get(1) {
        Some(n) => n.as_str(),
        None => {
            eprintln!(
                "expected a store name (cassandra, hbase, voldemort, voltdb, redis, mysql) \
                 or the broken-cassandra fixture"
            );
            return ExitCode::FAILURE;
        }
    };
    let target = if name == "broken-cassandra" {
        ChaosTarget::broken_cassandra()
    } else {
        match StoreKind::by_name(name) {
            Some(kind) => ChaosTarget::store(kind),
            None => {
                eprintln!("unknown store {name:?}");
                return ExitCode::FAILURE;
            }
        }
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
    let dir = args.out.clone().unwrap_or_else(|| PathBuf::from("."));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let path = dir.join(format!("chaos-{}.json", target.label()));
    let json = report_to_json(&outcome.report).to_pretty();
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
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
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    match args.ids.first().map(String::as_str) {
        Some("snapshot") => return cmd_snapshot(&args),
        Some("resume") => return cmd_resume(&args),
        Some("bisect") => return cmd_bisect(&args),
        Some("chaos") => return cmd_chaos(&args),
        _ => {}
    }

    if args.ids.first().map(String::as_str) == Some("render") {
        let mut merged = ResultsFile::default();
        for path in &args.ids[1..] {
            let json = match std::fs::read_to_string(path) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match ResultsFile::from_json(&json) {
                Ok(file) => {
                    if merged.profile.is_empty() {
                        merged.profile = file.profile;
                    }
                    for mut figure in file.figures {
                        // Recompute shape checks against the current
                        // claim set (they may have been refined since
                        // the run was recorded).
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
                Err(e) => {
                    eprintln!("cannot parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        print!("{}", render_experiments_md(&merged));
        return ExitCode::SUCCESS;
    }

    if args.ids.iter().any(|i| i == "list") {
        for spec in all_figures() {
            println!("{:16} {}", spec.id, spec.title);
        }
        for spec in all_extensions() {
            println!("{:16} {}", spec.id, spec.title);
        }
        return ExitCode::SUCCESS;
    }

    let ids = match artifact_ids(&args.ids) {
        Ok(ids) => ids,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

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
            if let Err(e) = write_csv(dir, id, &table).and_then(|_| write_gnuplot(dir, id, &table))
            {
                eprintln!("failed to write CSV/plot for {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
        results
            .figures
            .push(FigureResult::capture(id, &table, &checks));
    }

    if let Some(dir) = &args.out {
        let json_path = dir.join("results.json");
        let md_path = dir.join("EXPERIMENTS.generated.md");
        if let Err(e) = std::fs::write(&json_path, results.to_json())
            .and_then(|_| std::fs::write(&md_path, render_experiments_md(&results)))
        {
            eprintln!("failed to write results: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} and {}", json_path.display(), md_path.display());
    }

    // With span tracing compiled in, also export a Perfetto-loadable
    // demo trace (small fault-laden Cassandra run) next to the results.
    #[cfg(feature = "trace")]
    if let Some(dir) = &args.out {
        let (json, fingerprint) = apm_harness::obs::capture_trace_demo();
        match apm_harness::output::write_chrome_trace(dir, "trace-demo", &json) {
            Ok(path) => println!(
                "wrote {} (trace fingerprint {fingerprint:#018x})",
                path.display()
            ),
            Err(e) => {
                eprintln!("failed to write trace demo: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if failed_checks > 0 {
        println!("{failed_checks} shape check(s) failed");
    }
    ExitCode::SUCCESS
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
