//! The project-specific lint rules: token-level D1–D4 and structural
//! S3.
//!
//! The D rules walk the raw token stream from [`crate::lexer`]; S3 walks
//! the `match` arms recovered by [`crate::items`] — still no `syn`.
//! Rules are deliberately scoped by crate
//! (derived from the file path); `bench` — the benchmark package under
//! `apmbench/` — is inside the D1/D2 net: it times real hardware, so its
//! wall-clock reads carry explicit `audit:allow(clock)` justifications
//! instead of a blanket exemption. The kernel hot-path modules
//! introduced by the calendar-queue/arena overhaul (`sim::queue`, the
//! future-event list,
//! and `sim::arena`, the flat plan store) sit inside the D1/D2 net via
//! the `sim` crate scope; the fixture suite trips each rule in each of
//! them so a future per-module scope list cannot silently drop the
//! modules that *define* event order. `storage::merge` (the k-way merge
//! cursor behind every LSM scan and compaction, which defines *version*
//! order) is covered and pinned the same way through the `storage` scope.
//!
//! | rule               | issue | scope                                  |
//! |--------------------|-------|----------------------------------------|
//! | `clock`            | D1    | sim, stores, storage, bench + obs/snap/chaos/experiment |
//! | `hash-order`       | D2    | sim, stores, bench + obs/snap/chaos/experiment |
//! | `unwrap`           | D3    | all non-test library code              |
//! | `float-sum`        | D4    | core::stats, core::timeseries         |
//! | `wildcard-match`   | S3    | all non-test, non-bin library code     |
//!
//! Snapshot-codec coverage and feature-gate symmetry are not lint rules:
//! every hand-written codec destructures `Self` exhaustively, so the
//! compiler and clippy check them (DESIGN.md §8).
//!
//! **S3 `wildcard-match`** — no `_` arm in a `match` whose patterns name
//! one of the tree's semantic enums ([`PROTECTED_ENUMS`]): a new
//! `OpOutcome`/fault/breaker/plan-step variant must fail compilation at
//! every dispatch site rather than be silently swallowed.
//!
//! The *obs modules* — `core/src/stats.rs` (windowed telemetry),
//! `harness/src/obs.rs` (profiler + trace exporter), and
//! `harness/src/resilience.rs` (policy-on replay experiments) — feed
//! deterministic artifacts (trace fingerprints, telemetry and policy
//! tables), so they inherit the determinism rules even though their
//! crates otherwise don't. The *snap modules* — `core/src/snap.rs`
//! (the sealed snapshot container and Snap codec) and
//! `harness/src/snap.rs` (checkpoint/resume/bisect experiments) —
//! join them: a snapshot byte stream that varies run-to-run breaks
//! resume byte-identity outright. The *chaos modules* —
//! `core/src/chaos.rs` (the campaign report model) and
//! `harness/src/chaos.rs` (generator, oracles, shrinker) — join for
//! the same reason: a campaign report must be a pure function of its
//! seed, and a shrinker probe that replays differently cannot
//! minimize anything. `harness/src/experiment.rs` joins because every
//! one of those modules now builds and runs its simulations through
//! `Scenario`, which lives there — the scope follows the code that
//! moved.
//!
//! Every finding is an error. Any rule is silenced on a line with
//! `// audit:allow(<rule>)` on that line or the line above.

use crate::items::{self, MatchDef};
use crate::lexer::{LexedFile, Tok};

/// One source file ready for auditing.
pub struct SourceFile {
    /// Path relative to the workspace root, e.g. `crates/sim/src/kernel.rs`.
    pub path: String,
    pub lexed: LexedFile,
}

/// A single finding.
#[derive(Clone, Debug)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// The audited crate, derived from a workspace-relative path.
fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        Some("apmbench") => "bench",
        // Root package sources (`src/`, `tests/`).
        _ => "root",
    }
}

/// Observability modules outside the deterministic crates whose output
/// (trace fingerprints, telemetry windows, resilience tables) must
/// still replay identically.
fn is_obs_path(path: &str) -> bool {
    path.ends_with("core/src/stats.rs")
        || path.ends_with("harness/src/obs.rs")
        || path.ends_with("harness/src/resilience.rs")
        || path.ends_with("harness/src/experiment.rs")
        || is_snap_path(path)
        || is_chaos_path(path)
}

/// Snapshot modules: the codec and the checkpoint/resume harness. Both
/// emit byte streams that must be identical across runs, so they carry
/// the same determinism obligations as the simulation crates.
fn is_snap_path(path: &str) -> bool {
    path.ends_with("core/src/snap.rs") || path.ends_with("harness/src/snap.rs")
}

/// Chaos modules: the campaign report model and the search harness.
/// A campaign report must be a pure function of its seed — generator,
/// oracles and shrinker all inherit the determinism rules.
fn is_chaos_path(path: &str) -> bool {
    path.ends_with("core/src/chaos.rs") || path.ends_with("harness/src/chaos.rs")
}

fn is_bin(path: &str) -> bool {
    path.contains("/bin/") || path.ends_with("/main.rs") || path == "main.rs"
}

/// Runs every rule over the file set and returns all findings,
/// allow-list already applied, sorted by (file, line).
pub fn audit_files(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        rule_clock(f, &mut out);
        rule_hash_order(f, &mut out);
        rule_unwrap(f, &mut out);
        rule_float_sum(f, &mut out);
        rule_wildcard_match(f, &items::parse(&f.lexed), &mut out);
    }
    out.retain(|v| {
        let file = files.iter().find(|f| f.path == v.file);
        !file.is_some_and(|f| f.lexed.allowed(v.line, v.rule))
    });
    out.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    out
}

/// D1 `clock`: no wall-clock or ambient randomness in the deterministic
/// layers. Flags `Instant::now`, `SystemTime`, `thread_rng`, and argless
/// `rand()`/`random()` calls in sim/stores/storage/bench — tests
/// included, since event-ordering tests must replay identically too.
/// `bench` measures real hardware, so its intentional wall-clock reads
/// carry per-line `audit:allow(clock)` justifications rather than a
/// blanket crate exemption.
fn rule_clock(f: &SourceFile, out: &mut Vec<Violation>) {
    if !matches!(crate_of(&f.path), "sim" | "stores" | "storage" | "bench") && !is_obs_path(&f.path)
    {
        return;
    }
    let toks = &f.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        let flagged = match name.as_str() {
            "SystemTime" | "thread_rng" => Some(format!("`{name}` is wall-clock/ambient state")),
            "Instant" => follows(toks, i, &[":", ":", "now"])
                .then(|| "`Instant::now()` breaks virtual-time determinism".to_string()),
            "rand" | "random" => {
                // Argless call: `rand()` / `random()` with nothing between
                // the parens draws from ambient RNG state.
                (punct_at(toks, i + 1, '(') && punct_at(toks, i + 2, ')'))
                    .then(|| format!("argless `{name}()` uses ambient randomness"))
            }
            _ => None,
        };
        if let Some(msg) = flagged {
            out.push(Violation {
                file: f.path.clone(),
                line: t.line,
                rule: "clock",
                message: format!("{msg}; use sim virtual time / seeded rng"),
            });
        }
    }
}

/// D2 `hash-order`: no `HashMap`/`HashSet` in the sim, stores, and bench
/// crates. Iteration order over hashed collections varies run-to-run,
/// which silently breaks event-ordering determinism — use
/// `BTreeMap`/`BTreeSet` (or sort before iterating and annotate the
/// line). `bench` is covered because the exact half of its emitted
/// `results.json` (counts, fingerprints) must repeat across runs.
fn rule_hash_order(f: &SourceFile, out: &mut Vec<Violation>) {
    if !matches!(crate_of(&f.path), "sim" | "stores" | "bench") && !is_obs_path(&f.path) {
        return;
    }
    for t in &f.lexed.tokens {
        let Tok::Ident(name) = &t.tok else { continue };
        if name == "HashMap" || name == "HashSet" {
            out.push(Violation {
                file: f.path.clone(),
                line: t.line,
                rule: "hash-order",
                message: format!(
                    "`{name}` has nondeterministic iteration order; use BTree{} \
                     or sort before iterating",
                    &name[4..]
                ),
            });
        }
    }
}

/// D3 `unwrap`: no bare `.unwrap()` or empty `.expect("")` in non-test
/// library code. Panics without context are useless in a long
/// simulation run; say *why* the value is present or propagate the error.
fn rule_unwrap(f: &SourceFile, out: &mut Vec<Violation>) {
    if is_bin(&f.path) {
        return;
    }
    let toks = &f.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let Tok::Ident(name) = &t.tok else { continue };
        if i == 0 || !punct_at(toks, i - 1, '.') {
            continue;
        }
        let msg = match name.as_str() {
            "unwrap" if punct_at(toks, i + 1, '(') && punct_at(toks, i + 2, ')') => {
                Some("bare `.unwrap()` in library code")
            }
            "expect"
                if punct_at(toks, i + 1, '(')
                    && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Str(s)) if s.is_empty()) =>
            {
                Some("`.expect(\"\")` carries no context")
            }
            _ => None,
        };
        if let Some(msg) = msg {
            out.push(Violation {
                file: f.path.clone(),
                line: t.line,
                rule: "unwrap",
                message: format!("{msg}; add a contextful expect message or propagate the error"),
            });
        }
    }
}

/// D4 `float-sum`: `core::stats` / `core::timeseries` must not narrow to
/// `f32` or run order-sensitive float reductions. `fold` over floats is
/// only blessed inside the compensated-summation helpers (functions
/// whose name mentions `kahan` or `pairwise`).
fn rule_float_sum(f: &SourceFile, out: &mut Vec<Violation>) {
    if f.path != "crates/core/src/stats.rs" && f.path != "crates/core/src/timeseries.rs" {
        return;
    }
    for t in &f.lexed.tokens {
        let Tok::Ident(name) = &t.tok else { continue };
        let blessed = t
            .in_fn
            .as_deref()
            .is_some_and(|f| f.contains("kahan") || f.contains("pairwise"));
        let msg = match name.as_str() {
            "f32" => Some("`f32` narrowing loses precision in aggregate stats"),
            "fold" if !blessed => {
                Some("order-sensitive `fold` reduction outside a blessed kahan/pairwise helper")
            }
            _ => None,
        };
        if let Some(msg) = msg {
            out.push(Violation {
                file: f.path.clone(),
                line: t.line,
                rule: "float-sum",
                message: format!("{msg}; use integer sums or `kahan_sum`"),
            });
        }
    }
}

/// The semantic enums S3 protects: op outcomes, kernel completion
/// outcomes and fault modes, fault kinds, plan steps, breaker states and
/// decisions, rejection reasons, attempt kinds, LSM background-job
/// kinds, the observer event kinds, and the chaos oracle/outcome
/// kinds. A `_` arm over any of these swallows future variants
/// silently.
pub const PROTECTED_ENUMS: [&str; 14] = [
    "OpOutcome",
    "Outcome",
    "FaultKind",
    "FailMode",
    "Step",
    "BreakerState",
    "BreakerDecision",
    "RejectReason",
    "AttemptKind",
    "JobKind",
    "HintEventKind",
    "TraceEventKind",
    "OracleKind",
    "ScheduleOutcome",
];

/// S3 `wildcard-match`: no `_` catch-all arms in matches over the
/// protected semantic enums. The enum is identified by `Path::Variant`
/// mentions in the arms themselves (token level — the scrutinee's type
/// is invisible), so `use Enum::*`-style matches escape; the tree
/// doesn't use that style.
fn rule_wildcard_match(f: &SourceFile, matches: &[MatchDef], out: &mut Vec<Violation>) {
    if is_bin(&f.path) {
        return;
    }
    let toks = &f.lexed.tokens;
    for m in matches.iter().filter(|m| !m.in_test) {
        let mut named: Option<&str> = None;
        for arm in &m.arms {
            for i in arm.pat.clone() {
                let Tok::Ident(name) = &toks[i].tok else {
                    continue;
                };
                if punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':') {
                    if let Some(p) = PROTECTED_ENUMS.iter().find(|p| *p == name) {
                        named = Some(p);
                    }
                }
            }
        }
        let Some(enum_name) = named else { continue };
        for arm in m.arms.iter().filter(|a| a.wildcard) {
            out.push(Violation {
                file: f.path.clone(),
                line: arm.line,
                rule: "wildcard-match",
                message: format!(
                    "`_` arm in a match over `{enum_name}` — a new variant would be \
                     silently swallowed; enumerate the variants (or justify the catch-all)"
                ),
            });
        }
    }
}

/// True when tokens after `i` match the given idents/punct pattern.
/// Pattern entries of length 1 that aren't alphanumeric match puncts.
fn follows(toks: &[crate::lexer::Token], i: usize, pattern: &[&str]) -> bool {
    pattern
        .iter()
        .enumerate()
        .all(|(k, want)| match toks.get(i + 1 + k).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => s == want,
            Some(Tok::Punct(c)) => want.len() == 1 && want.starts_with(*c),
            _ => false,
        })
}

fn punct_at(toks: &[crate::lexer::Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            lexed: lex(src),
        }
    }

    #[test]
    fn crate_classification() {
        assert_eq!(crate_of("crates/sim/src/kernel.rs"), "sim");
        assert_eq!(crate_of("apmbench/src/probes.rs"), "bench");
        assert_eq!(crate_of("src/lib.rs"), "root");
        assert_eq!(crate_of("tests/determinism.rs"), "root");
    }

    #[test]
    fn clock_rule_scoped_to_deterministic_crates() {
        // The benchmark package is inside the determinism net; core (pure
        // data structures, no clocks to misuse) stays outside it.
        let bad = file("crates/sim/src/x.rs", "fn f() { let t = Instant::now(); }");
        let bad_bench = file("apmbench/src/x.rs", "fn f() { let t = Instant::now(); }");
        let ok = file("crates/core/src/x.rs", "fn f() { let t = Instant::now(); }");
        let v = audit_files(&[bad, bad_bench, ok]);
        let files: Vec<&str> = v.iter().map(|x| x.file.as_str()).collect();
        assert_eq!(files, ["apmbench/src/x.rs", "crates/sim/src/x.rs"]);
        assert!(v.iter().all(|x| x.rule == "clock"));
    }

    #[test]
    fn instant_without_now_is_fine() {
        let f = file(
            "crates/sim/src/x.rs",
            "use std::time::Instant; fn f(t: Instant) -> Instant { t }",
        );
        assert!(audit_files(&[f]).is_empty());
    }

    #[test]
    fn unwrap_in_tests_is_fine() {
        let f = file(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests { fn t() { v.unwrap(); } }",
        );
        assert!(audit_files(&[f]).is_empty());
    }

    #[test]
    fn empty_expect_flagged_contextful_expect_fine() {
        let f = file(
            "crates/core/src/x.rs",
            "fn f() { a.expect(\"\"); b.expect(\"queue non-empty: pushed above\"); }",
        );
        let v = audit_files(&[f]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unwrap");
    }

    #[test]
    fn float_sum_blessed_helpers_escape() {
        let src = "pub fn kahan_sum(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }\npub fn mean(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }";
        let f = file("crates/core/src/stats.rs", src);
        let v = audit_files(&[f]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "float-sum");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn obs_modules_inherit_the_determinism_rules() {
        let clock = file(
            "crates/harness/src/obs.rs",
            "fn f() { let t = Instant::now(); }",
        );
        let hash = file(
            "crates/core/src/stats.rs",
            "fn windows() { let m: HashMap<u64, u64> = HashMap::new(); }",
        );
        // The same code in an unscoped harness module stays clean.
        let other = file(
            "crates/harness/src/figures.rs",
            "fn f() { let t = Instant::now(); let m: HashMap<u64, u64> = HashMap::new(); }",
        );
        let v = audit_files(&[clock, hash, other]);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v
            .iter()
            .any(|v| v.rule == "clock" && v.file.ends_with("obs.rs")));
        assert!(v
            .iter()
            .filter(|v| v.rule == "hash-order")
            .all(|v| v.file.ends_with("stats.rs")));
    }

    #[test]
    fn resilience_module_trips_the_clock_rule() {
        let clock = file(
            "crates/harness/src/resilience.rs",
            "fn f() { let t = Instant::now(); }",
        );
        let v = audit_files(&[clock]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].rule == "clock" && v[0].file.ends_with("resilience.rs"));
    }

    #[test]
    fn resilience_module_trips_the_hash_order_rule() {
        let hash = file(
            "crates/harness/src/resilience.rs",
            "fn f() { let m: HashMap<u64, u64> = HashMap::new(); }",
        );
        // The same map in an unscoped harness module stays clean.
        let other = file(
            "crates/harness/src/figures.rs",
            "fn f() { let m: HashMap<u64, u64> = HashMap::new(); }",
        );
        let v = audit_files(&[hash, other]);
        assert!(!v.is_empty(), "scoped module must trip hash-order");
        assert!(v
            .iter()
            .all(|v| v.rule == "hash-order" && v.file.ends_with("resilience.rs")));
    }

    #[test]
    fn allow_annotation_silences() {
        let f = file(
            "crates/sim/src/x.rs",
            "// audit:allow(hash-order)\nuse std::collections::HashMap;\n",
        );
        assert!(audit_files(&[f]).is_empty());
    }
}
