//! Shared diagnostics core: rendering and the summary the exit code
//! follows.
//!
//! Everything downstream of the rules lives here so the CLI, CI, and the
//! golden-file tests all consume one representation. [`Format`] selects
//! `human` (editor-style `file:line:` lines), `json` (stable
//! machine-readable report, schema below) or `github` (`::error
//! file=,line=` workflow commands that annotate PRs inline). Every
//! finding is an error.
//!
//! JSON report schema (version 2):
//!
//! ```json
//! {
//!   "tool": "apm-audit",
//!   "version": 2,
//!   "summary": {"files": 0, "errors": 0},
//!   "findings": [
//!     {"file": "...", "line": 1, "rule": "...", "message": "..."}
//!   ]
//! }
//! ```
//!
//! The report is laid out by hand — one finding per line, pinned by the
//! golden file — with string escaping from [`apm_core::json::quote`], so
//! it parses with [`apm_core::json::parse`], the repository's one JSON
//! grammar.

use crate::rules::Violation;
use apm_core::json::quote;

/// Output format selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `file:line: error: [rule] message` — the default, for humans.
    Human,
    /// Stable machine-readable report (schema in the module docs).
    Json,
    /// GitHub Actions workflow commands (`::error file=,line=`).
    Github,
}

impl Format {
    /// Parse a `--format` argument value.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "human" => Some(Format::Human),
            "json" => Some(Format::Json),
            "github" => Some(Format::Github),
            _ => None,
        }
    }
}

/// Aggregate counts for the report footer / JSON summary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    pub files: usize,
    pub errors: usize,
}

/// Render findings in the requested format. The returned string is the
/// full stdout payload including the trailing newline; every format
/// carries a summary.
pub fn render(format: Format, findings: &[Violation], summary: Summary) -> String {
    let mut out = String::new();
    match format {
        Format::Human => {
            for f in findings {
                out.push_str(&format!(
                    "{}:{}: error: [{}] {}\n",
                    f.file, f.line, f.rule, f.message
                ));
            }
        }
        Format::Json => return render_json(findings, summary),
        Format::Github => {
            for f in findings {
                // Workflow-command data must not contain raw newlines or
                // `::`; the rules never emit either, but escape anyway.
                out.push_str(&format!(
                    "::error file={},line={},title=apm-audit {}::{}\n",
                    f.file,
                    f.line,
                    f.rule,
                    gh_escape(&f.message)
                ));
            }
        }
    }
    out.push_str(&format!(
        "apm-audit: {} file(s) scanned, {} error(s)\n",
        summary.files, summary.errors
    ));
    out
}

/// Escape the message payload of a GitHub workflow command.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Render the version-2 JSON report.
pub fn render_json(findings: &[Violation], summary: Summary) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"apm-audit\",\n  \"version\": 2,\n");
    out.push_str(&format!(
        "  \"summary\": {{\"files\": {}, \"errors\": {}}},\n",
        summary.files, summary.errors
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            quote(&f.file),
            f.line,
            quote(f.rule),
            quote(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::json::{self, Json};

    fn finding(rule: &'static str, file: &str, line: u32, msg: &str) -> Violation {
        Violation {
            file: file.into(),
            line,
            rule,
            message: msg.into(),
        }
    }

    #[test]
    fn github_format_escapes_payload() {
        let f = vec![finding("clock", "a.rs", 3, "bad%\nthing")];
        let summary = Summary {
            files: 1,
            errors: 1,
        };
        let out = render(Format::Github, &f, summary);
        assert!(out.contains("::error file=a.rs,line=3,title=apm-audit clock::bad%25%0Athing"));
    }

    #[test]
    fn json_report_escapes_strings() {
        let message = "say \"hi\"\\ \r\u{1}";
        let f = vec![finding("clock", "a.rs", 3, message)];
        let summary = Summary {
            files: 1,
            errors: 1,
        };
        let out = render_json(&f, summary);
        assert!(
            out.contains(r#""message": "say \"hi\"\\ \r\u0001""#),
            "{out}"
        );
        // The report is a document of the repository's one JSON grammar
        // and gives the message back.
        let doc = json::parse(&out).expect("report is valid JSON");
        let findings = doc
            .get("findings")
            .and_then(Json::as_arr)
            .expect("findings");
        assert_eq!(
            findings[0].get("message").and_then(Json::as_str),
            Some(message)
        );
    }
}
