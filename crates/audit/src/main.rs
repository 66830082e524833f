//! `cargo run -p apm-audit [-- FLAGS] [root]`
//!
//! Lints the workspace sources against the determinism rules (DESIGN.md
//! §8). Flags:
//!
//! * `--format human|json|github` — output format (default `human`).
//!   `github` emits `::error file=,line=` workflow commands so findings
//!   annotate PRs inline.
//! * `--out PATH` — additionally write the JSON report to PATH
//!   regardless of `--format` (CI uploads it as an artifact).
//!
//! Exit code: 1 when there is any finding; 0 otherwise.

use std::path::PathBuf;
use std::process::ExitCode;

use apm_audit::diag::{self, Format, Summary};
use apm_audit::{audit_files, walk};

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut out_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref().and_then(Format::parse) {
                Some(f) => format = f,
                None => {
                    eprintln!("apm-audit: --format expects human|json|github");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("apm-audit: --out expects a path");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: apm-audit [--format human|json|github] [--out PATH] [workspace-root]"
                );
                return ExitCode::SUCCESS;
            }
            // An unknown flag is an error, not a workspace root with no sources.
            flag if flag.starts_with("--") => {
                eprintln!("apm-audit: unknown flag {flag}; see --help");
                return ExitCode::FAILURE;
            }
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));

    let files = match walk::workspace_sources(&root) {
        Ok(files) => files,
        Err(e) => {
            eprintln!(
                "apm-audit: cannot read sources under {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let findings = audit_files(&files);
    let summary = Summary {
        files: files.len(),
        errors: findings.len(),
    };
    print!("{}", diag::render(format, &findings, summary));

    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, diag::render_json(&findings, summary)) {
            eprintln!("apm-audit: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
