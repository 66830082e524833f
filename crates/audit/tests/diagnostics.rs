//! Golden-file test for the machine-readable diagnostics format.
//!
//! The JSON report is a contract: CI uploads it as an artifact and
//! future tooling parses it. Any schema or rendering change must be
//! deliberate — this test pins the exact bytes for a fixed finding set.
//! When the format changes intentionally, update
//! `tests/golden/diagnostics.json` to match.

use apm_audit::diag::{render, render_json, resolve, Baseline, Format, Summary};
use apm_audit::{audit_files, lexer::lex, SourceFile};
use apm_core::json::{self, Json};

fn file(path: &str, src: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        lexed: lex(src),
    }
}

/// A fixed finding set: one deny (clock) and one warn (unwrap).
fn fixture_findings() -> (Vec<SourceFile>, Vec<apm_audit::diag::Finding>) {
    let files = vec![
        file("crates/sim/src/a.rs", "fn f() { let t = Instant::now(); }"),
        file(
            "crates/core/src/b.rs",
            "pub fn g(v: Option<u64>) -> u64 {\n    v.unwrap()\n}",
        ),
    ];
    let findings = resolve(&audit_files(&files), false);
    (files, findings)
}

#[test]
fn json_report_matches_golden() {
    let (files, findings) = fixture_findings();
    let summary = Summary::tally(&findings, files.len(), 0);
    let got = render_json(&findings, summary);
    let want = include_str!("golden/diagnostics.json");
    assert_eq!(
        got, want,
        "JSON diagnostics format drifted; if intentional, update \
         crates/audit/tests/golden/diagnostics.json"
    );
}

#[test]
fn golden_report_parses_as_baseline_compatible_json() {
    // Report and baseline are documents of the repository's one JSON
    // grammar: the golden file parses with it, and a baseline built from
    // the report's own findings suppresses all of them.
    let (_, findings) = fixture_findings();
    let report = json::parse(include_str!("golden/diagnostics.json")).expect("golden parses");
    let listed = report.get("findings").and_then(Json::as_arr);
    assert_eq!(listed.map(<[Json]>::len), Some(findings.len()));
    let base = Baseline::from_findings(&findings);
    let reparsed = Baseline::parse(&base.render()).expect("baseline roundtrip");
    let applied = reparsed.apply(findings);
    assert_eq!(applied.remaining.len(), 0);
    assert_eq!(applied.suppressed, 2);
    assert!(applied.stale.is_empty());
}

#[test]
fn github_format_emits_workflow_commands() {
    let (files, findings) = fixture_findings();
    let summary = Summary::tally(&findings, files.len(), 0);
    let out = render(Format::Github, &findings, summary);
    assert!(
        out.contains("::warning file=crates/core/src/b.rs,line=2,title=apm-audit unwrap::"),
        "{out}"
    );
    assert!(
        out.contains("::error file=crates/sim/src/a.rs,line=1,title=apm-audit clock::"),
        "{out}"
    );
}
