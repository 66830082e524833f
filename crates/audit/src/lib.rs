//! apm-audit — determinism & invariant auditor with no external crate
//! (its one dependency is `apm-core`, for the JSON codec `diag` uses).
//!
//! Static half of the audit story (the dynamic half is the
//! `KernelAuditor` behind apm-sim's `audit` feature): a structural
//! lint pass over the workspace sources enforcing the determinism
//! rules catalogued in DESIGN.md §8. The pipeline is
//! `lexer` (tokens + test regions) → `items` (`match` arms) → `rules`
//! (D1–D4 token rules, S3) → `diag` (human/JSON/GitHub rendering). Every
//! finding is an error. Run it with `cargo run -p apm-audit`.
//!
//! The crate is a library + thin binary so the fixture tests in
//! `tests/fixtures.rs` can drive the rules over inline snippets.

pub mod diag;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod walk;

pub use rules::{audit_files, SourceFile, Violation};
