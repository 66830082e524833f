//! Shared diagnostics core: rendering, baseline suppression, exit policy.
//!
//! Everything downstream of the rules lives here so the CLI, CI, and the
//! golden-file tests all consume one representation:
//!
//! * [`Format`] — `human` (editor-style `file:line:` lines), `json`
//!   (stable machine-readable report, schema below), `github`
//!   (`::error file=,line=` workflow commands that annotate PRs inline).
//! * [`Baseline`] — a committed `audit-baseline.json` of suppressions.
//!   A suppression matches on exact `(rule, file, message)` — line
//!   numbers are deliberately excluded because they drift with every
//!   edit. A suppression that matches nothing is *stale* and fails the
//!   run, so the baseline can only shrink or be consciously regenerated
//!   via `--update-baseline`.
//!
//! JSON report schema (version 1):
//!
//! ```json
//! {
//!   "tool": "apm-audit",
//!   "version": 1,
//!   "summary": {"files": 0, "errors": 0, "warnings": 0, "suppressed": 0},
//!   "findings": [
//!     {"file": "...", "line": 1, "rule": "...", "severity": "error", "message": "..."}
//!   ]
//! }
//! ```
//!
//! Report and baseline are laid out by hand — one finding or
//! suppression per line, pinned by the golden file — with string
//! escaping from [`apm_core::json::quote`]; the baseline is read back
//! through [`apm_core::json::parse`], the repository's one JSON grammar.

use crate::rules::{severity, Severity, Violation};
use apm_core::json::{self, quote, Json};

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

/// A finding with its effective severity resolved (after `--deny-all`).
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
}

/// Resolve raw violations to findings under the given severity policy.
pub fn resolve(violations: &[Violation], deny_all: bool) -> Vec<Finding> {
    violations
        .iter()
        .map(|v| Finding {
            file: v.file.clone(),
            line: v.line,
            rule: v.rule,
            severity: if deny_all {
                Severity::Deny
            } else {
                severity(v.rule)
            },
            message: v.message.clone(),
        })
        .collect()
}

/// Aggregate counts for the report footer / JSON summary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    pub files: usize,
    pub errors: usize,
    pub warnings: usize,
    pub suppressed: usize,
}

impl Summary {
    pub fn tally(findings: &[Finding], files: usize, suppressed: usize) -> Summary {
        let errors = findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count();
        Summary {
            files,
            errors,
            warnings: findings.len() - errors,
            suppressed,
        }
    }
}

fn severity_str(s: Severity) -> &'static str {
    match s {
        Severity::Deny => "error",
        Severity::Warn => "warning",
    }
}

/// Render findings in the requested format. The returned string is the
/// full stdout payload including the trailing newline (empty only when
/// there is nothing at all to say, which never happens: the human and
/// json formats always carry a summary).
pub fn render(format: Format, findings: &[Finding], summary: Summary) -> String {
    match format {
        Format::Human => {
            let mut out = String::new();
            for f in findings {
                out.push_str(&format!(
                    "{}:{}: {}: [{}] {}\n",
                    f.file,
                    f.line,
                    severity_str(f.severity),
                    f.rule,
                    f.message
                ));
            }
            out.push_str(&format!(
                "apm-audit: {} file(s) scanned, {} error(s), {} warning(s), {} suppressed\n",
                summary.files, summary.errors, summary.warnings, summary.suppressed
            ));
            out
        }
        Format::Json => render_json(findings, summary),
        Format::Github => {
            let mut out = String::new();
            for f in findings {
                // Workflow-command data must not contain raw newlines or
                // `::`; the rules never emit either, but escape anyway.
                let cmd = match f.severity {
                    Severity::Deny => "error",
                    Severity::Warn => "warning",
                };
                out.push_str(&format!(
                    "::{cmd} file={},line={},title=apm-audit {}::{}\n",
                    f.file,
                    f.line,
                    f.rule,
                    gh_escape(&f.message)
                ));
            }
            out.push_str(&format!(
                "apm-audit: {} file(s) scanned, {} error(s), {} warning(s), {} suppressed\n",
                summary.files, summary.errors, summary.warnings, summary.suppressed
            ));
            out
        }
    }
}

/// Escape the message payload of a GitHub workflow command.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Render the version-1 JSON report.
pub fn render_json(findings: &[Finding], summary: Summary) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"apm-audit\",\n  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"summary\": {{\"files\": {}, \"errors\": {}, \"warnings\": {}, \"suppressed\": {}}},\n",
        summary.files, summary.errors, summary.warnings, summary.suppressed
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"severity\": {}, \"message\": {}}}",
            quote(&f.file),
            f.line,
            quote(f.rule),
            quote(severity_str(f.severity)),
            quote(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// One committed suppression. Matches findings on exact
/// `(rule, file, message)`; line numbers are excluded because they move
/// with every unrelated edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    pub rule: String,
    pub file: String,
    pub message: String,
}

/// The parsed `audit-baseline.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub suppressions: Vec<Suppression>,
}

/// Result of applying a baseline to a set of findings.
pub struct Applied {
    /// Findings not matched by any suppression — these are reported.
    pub remaining: Vec<Finding>,
    /// Number of findings swallowed by the baseline.
    pub suppressed: usize,
    /// Suppressions that matched nothing: the baseline is stale and the
    /// run fails until it is regenerated with `--update-baseline`.
    pub stale: Vec<Suppression>,
}

impl Baseline {
    /// Partition findings into reported / suppressed and detect stale
    /// suppressions.
    pub fn apply(&self, findings: Vec<Finding>) -> Applied {
        let mut used = vec![false; self.suppressions.len()];
        let mut remaining = Vec::new();
        let mut suppressed = 0usize;
        for f in findings {
            let hit = self
                .suppressions
                .iter()
                .position(|s| s.rule == f.rule && s.file == f.file && s.message == f.message);
            match hit {
                Some(i) => {
                    used[i] = true;
                    suppressed += 1;
                }
                None => remaining.push(f),
            }
        }
        let stale = self
            .suppressions
            .iter()
            .zip(&used)
            .filter(|(_, u)| !**u)
            .map(|(s, _)| s.clone())
            .collect();
        Applied {
            remaining,
            suppressed,
            stale,
        }
    }

    /// Build a baseline that suppresses exactly the given findings
    /// (deduplicated) — the `--update-baseline` payload.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut suppressions: Vec<Suppression> = Vec::new();
        for f in findings {
            let s = Suppression {
                rule: f.rule.to_string(),
                file: f.file.clone(),
                message: f.message.clone(),
            };
            if !suppressions.contains(&s) {
                suppressions.push(s);
            }
        }
        Baseline { suppressions }
    }

    /// Render as `audit-baseline.json`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 1,\n  \"suppressions\": [");
        for (i, s) in self.suppressions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"message\": {}}}",
                quote(&s.rule),
                quote(&s.file),
                quote(&s.message)
            ));
        }
        if !self.suppressions.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parse `audit-baseline.json`: any JSON document of the rendered
    /// shape; everything else is rejected with a typed message.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let doc = json::parse(src).map_err(|e| e.to_string())?;
        if !matches!(doc, Json::Obj(_)) {
            return Err("baseline root must be an object".into());
        }
        match doc.get("version") {
            Some(Json::Num(v)) if *v == 1.0 => {}
            Some(_) => return Err("unsupported baseline version".into()),
            None => return Err("baseline missing \"version\"".into()),
        }
        let mut out = Baseline::default();
        let Some(sups) = doc.get("suppressions") else {
            return Ok(out);
        };
        let arr = sups.as_arr().ok_or("\"suppressions\" must be an array")?;
        for (i, entry) in arr.iter().enumerate() {
            if !matches!(entry, Json::Obj(_)) {
                return Err(format!("suppression #{i} must be an object"));
            }
            let field = |name: &str| -> Result<String, String> {
                entry
                    .get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("suppression #{i} missing string \"{name}\""))
            };
            out.suppressions.push(Suppression {
                rule: field("rule")?,
                file: field("file")?,
                message: field("message")?,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32, msg: &str) -> Finding {
        Finding {
            file: file.into(),
            line,
            rule,
            severity: Severity::Deny,
            message: msg.into(),
        }
    }

    #[test]
    fn json_roundtrips_through_baseline_parser() {
        let base = Baseline {
            suppressions: vec![Suppression {
                rule: "clock".into(),
                file: "apmbench/src/run.rs".into(),
                message: "wall-clock `Instant::now()` with \"quotes\"".into(),
            }],
        };
        let text = base.render();
        let back = Baseline::parse(&text).expect("parse rendered baseline");
        assert_eq!(base, back);
    }

    #[test]
    fn empty_baseline_roundtrips() {
        let base = Baseline::default();
        let back = Baseline::parse(&base.render()).unwrap();
        assert_eq!(base, back);
    }

    #[test]
    fn baseline_apply_partitions_and_flags_stale() {
        let base = Baseline {
            suppressions: vec![
                Suppression {
                    rule: "clock".into(),
                    file: "a.rs".into(),
                    message: "m1".into(),
                },
                Suppression {
                    rule: "clock".into(),
                    file: "gone.rs".into(),
                    message: "m2".into(),
                },
            ],
        };
        let applied = base.apply(vec![
            finding("clock", "a.rs", 3, "m1"),
            finding("unwrap", "b.rs", 9, "m3"),
        ]);
        assert_eq!(applied.suppressed, 1);
        assert_eq!(applied.remaining.len(), 1);
        assert_eq!(applied.remaining[0].file, "b.rs");
        assert_eq!(applied.stale.len(), 1);
        assert_eq!(applied.stale[0].file, "gone.rs");
    }

    #[test]
    fn github_format_escapes_payload() {
        let f = vec![finding("clock", "a.rs", 3, "bad%\nthing")];
        let out = render(Format::Github, &f, Summary::tally(&f, 1, 0));
        assert!(out.contains("::error file=a.rs,line=3,title=apm-audit clock::bad%25%0Athing"));
    }

    #[test]
    fn json_report_escapes_strings() {
        let message = "say \"hi\"\\ \r\u{1}";
        let f = vec![finding("clock", "a.rs", 3, message)];
        let out = render_json(&f, Summary::tally(&f, 1, 0));
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

    #[test]
    fn malformed_baselines_get_typed_messages() {
        for (src, want) in [
            ("[]", "baseline root must be an object"),
            (r#"{"suppressions": []}"#, "baseline missing \"version\""),
            (r#"{"version": 2}"#, "unsupported baseline version"),
            (r#"{"version": "1"}"#, "unsupported baseline version"),
            (
                r#"{"version": 1, "suppressions": [{"rule": "clock", "file": 3}]}"#,
                "suppression #0 missing string \"file\"",
            ),
        ] {
            assert_eq!(Baseline::parse(src).unwrap_err(), want, "{src}");
        }
        // The version is a number: both spellings of one are version 1.
        for src in [r#"{"version": 1}"#, r#"{"version": 1.0}"#] {
            assert_eq!(Baseline::parse(src), Ok(Baseline::default()), "{src}");
        }
    }
}
