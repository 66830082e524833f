//! Golden-file test for the machine-readable diagnostics format.
//!
//! The JSON report is a contract: CI uploads it as an artifact and
//! future tooling parses it. Any schema or rendering change must be
//! deliberate — this test pins the exact bytes for a fixed finding set.
//! When the format changes intentionally, update
//! `tests/golden/diagnostics.json` to match.

use apm_audit::diag::{render, render_json, Format, Summary};
use apm_audit::{audit_files, lexer::lex, SourceFile, Violation};
use apm_core::json::{self, Json};

fn file(path: &str, src: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        lexed: lex(src),
    }
}

/// A fixed finding set, one clock and one unwrap, and its summary.
fn fixture_findings() -> (Vec<Violation>, Summary) {
    let files = vec![
        file("crates/sim/src/a.rs", "fn f() { let t = Instant::now(); }"),
        file(
            "crates/core/src/b.rs",
            "pub fn g(v: Option<u64>) -> u64 {\n    v.unwrap()\n}",
        ),
    ];
    let findings = audit_files(&files);
    let summary = Summary {
        files: files.len(),
        errors: findings.len(),
    };
    (findings, summary)
}

#[test]
fn json_report_matches_golden() {
    let (findings, summary) = fixture_findings();
    let got = render_json(&findings, summary);
    let want = include_str!("golden/diagnostics.json");
    assert_eq!(
        got, want,
        "JSON diagnostics format drifted; if intentional, update \
         crates/audit/tests/golden/diagnostics.json"
    );
}

#[test]
fn golden_report_parses_as_json() {
    // The report is a document of the repository's one JSON grammar.
    let (findings, _) = fixture_findings();
    let report = json::parse(include_str!("golden/diagnostics.json")).expect("golden parses");
    let listed = report.get("findings").and_then(Json::as_arr);
    assert_eq!(listed.map(<[Json]>::len), Some(findings.len()));
}

#[test]
fn github_format_emits_workflow_commands() {
    let (findings, summary) = fixture_findings();
    let out = render(Format::Github, &findings, summary);
    assert!(
        out.contains("::error file=crates/core/src/b.rs,line=2,title=apm-audit unwrap::"),
        "{out}"
    );
    assert!(
        out.contains("::error file=crates/sim/src/a.rs,line=1,title=apm-audit clock::"),
        "{out}"
    );
}
