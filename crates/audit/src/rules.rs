//! The project-specific lint rules: token-level D1–D4 and structural
//! S1–S3.
//!
//! The D rules walk the raw token stream from [`crate::lexer`]; the S
//! rules walk the item structure recovered by [`crate::items`] (structs
//! with fields and feature gates, impl blocks with method bodies, match
//! arms) — still no `syn`. Rules are deliberately scoped by crate
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
//! | rule               | issue | scope                                  | default |
//! |--------------------|-------|----------------------------------------|---------|
//! | `clock`            | D1    | sim, stores, storage, bench + obs/snap/chaos/experiment | deny |
//! | `hash-order`       | D2    | sim, stores, bench + obs/snap/chaos/experiment | deny |
//! | `unwrap`           | D3    | all non-test library code              | warn    |
//! | `float-sum`        | D4    | core::stats, core::timeseries         | warn    |
//! | `snap-drift`       | S1    | every file with a Snap codec pair      | deny    |
//! | `feature-symmetry` | S2    | every file with feature-gated fields   | deny    |
//! | `wildcard-match`   | S3    | all non-test, non-bin library code     | deny    |
//!
//! **S1 `snap-drift`** — for a `impl Snap for T` (`snap`/`restore`) or a
//! `snap_state`/`restore_state` pair whose target struct is defined in
//! the same file, every named field of the struct must be referenced in
//! both the encode and the decode body, and the decode must first-mention
//! fields in declaration order. A field added to `Engine` but not to its
//! codec is a CI failure here, not a divergence hunt three days into a
//! resumed run.
//!
//! **S2 `feature-symmetry`** — a field gated `#[cfg(feature = "...")]`
//! may only be accessed (`.field`) from code carrying the same gate, and
//! a feature-gated region inside a snapshot codec body must sit in a
//! function that consults the feature-bits header (`snap_features` /
//! `FEATURE_*`), protecting the default-off byte-identity invariant.
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
//! `--deny-all` promotes warnings to errors. Any rule is silenced on a
//! line with `// audit:allow(<rule>)` on that line or the line above.

use crate::items::{self, Items};
use crate::lexer::{LexedFile, Tok};

/// One source file ready for auditing.
pub struct SourceFile {
    /// Path relative to the workspace root, e.g. `crates/sim/src/kernel.rs`.
    pub path: String,
    pub lexed: LexedFile,
}

/// Rule severity before `--deny-all`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    Deny,
    Warn,
}

/// A single finding.
#[derive(Clone, Debug)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// Default severity per rule (promoted to Deny by `--deny-all`).
pub fn severity(rule: &str) -> Severity {
    match rule {
        "unwrap" | "float-sum" => Severity::Warn,
        _ => Severity::Deny,
    }
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
        let parsed = items::parse(&f.lexed);
        rule_snap_drift(f, &parsed, &mut out);
        rule_feature_symmetry(f, &parsed, &mut out);
        rule_wildcard_match(f, &parsed, &mut out);
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

/// The encode/decode method-name pairs S1 recognizes as a snapshot
/// codec: the `Snap` trait's own pair, and the `snap_state` /
/// `restore_state` convention used by the kernel, the stores, the
/// storage engines, and the drivers.
const CODEC_PAIRS: [(&str, &str); 2] = [("snap", "restore"), ("snap_state", "restore_state")];

/// S1 `snap-drift`: every named field of a snapshotted struct must be
/// referenced in both halves of its codec, and the decode half must
/// first-mention fields in declaration order. Catches the "added a field
/// to `Engine`, forgot the codec" class of resume divergence at lint
/// time. The struct definition must live in the same file as the codec
/// (true throughout this tree); impls whose target is defined elsewhere
/// are skipped rather than guessed at.
fn rule_snap_drift(f: &SourceFile, parsed: &Items, out: &mut Vec<Violation>) {
    let toks = &f.lexed.tokens;
    for imp in parsed.impls.iter().filter(|i| !i.in_test) {
        let pair = CODEC_PAIRS.iter().find(|(enc, dec)| {
            let ok_trait = match &imp.trait_name {
                // `impl Snap for T` carries the pair as trait methods.
                Some(t) => t == "Snap" && *enc == "snap",
                // Inherent/store-trait impls use the *_state convention.
                None => *enc == "snap_state",
            };
            ok_trait
                && imp.fns.iter().any(|m| m.name == *enc && !m.body.is_empty())
                && imp.fns.iter().any(|m| m.name == *dec && !m.body.is_empty())
        });
        // `snap_state` pairs also appear inside trait impls (e.g. the
        // stores' `DistributedStore`); accept the pair wherever it lives.
        let pair = pair.or_else(|| {
            CODEC_PAIRS.iter().find(|(enc, dec)| {
                *enc == "snap_state"
                    && imp.fns.iter().any(|m| m.name == *enc && !m.body.is_empty())
                    && imp.fns.iter().any(|m| m.name == *dec && !m.body.is_empty())
            })
        });
        let Some((enc_name, dec_name)) = pair else {
            continue;
        };
        let Some(def) = parsed
            .structs
            .iter()
            .find(|s| s.named && !s.in_test && s.name == imp.target)
        else {
            continue;
        };
        let enc = imp
            .fns
            .iter()
            .find(|m| m.name == *enc_name)
            .expect("pair matched above");
        let dec = imp
            .fns
            .iter()
            .find(|m| m.name == *dec_name)
            .expect("pair matched above");
        let mentions = |body: &std::ops::Range<usize>, name: &str| {
            toks[body.clone()]
                .iter()
                .position(|t| matches!(&t.tok, Tok::Ident(s) if s == name))
        };
        let mut dec_order: Vec<(usize, &str, u32)> = Vec::new();
        for field in &def.fields {
            // Fields absent from the encode stream (justified config that
            // restore re-derives) don't constrain decode order — restore
            // may consult them for validation at any point.
            let mut streamed = true;
            if mentions(&enc.body, &field.name).is_none() {
                streamed = false;
                out.push(Violation {
                    file: f.path.clone(),
                    line: field.line,
                    rule: "snap-drift",
                    message: format!(
                        "field `{}` of `{}` is never referenced in `{}` — \
                         state that isn't snapshotted silently diverges on resume",
                        field.name, def.name, enc_name
                    ),
                });
            }
            match mentions(&dec.body, &field.name) {
                None => out.push(Violation {
                    file: f.path.clone(),
                    line: field.line,
                    rule: "snap-drift",
                    message: format!(
                        "field `{}` of `{}` is never referenced in `{}` — \
                         the decoder cannot rebuild it",
                        field.name, def.name, dec_name
                    ),
                }),
                Some(pos) if streamed => {
                    let line = toks[dec.body.start + pos].line;
                    dec_order.push((pos, &field.name, line));
                }
                Some(_) => {}
            }
        }
        // Decode first-mention order must match declaration order — a
        // schema-free byte stream is only readable in write order.
        for w in dec_order.windows(2) {
            let ((a_pos, a_name, _), (b_pos, b_name, b_line)) = (&w[0], &w[1]);
            if b_pos < a_pos {
                out.push(Violation {
                    file: f.path.clone(),
                    line: *b_line,
                    rule: "snap-drift",
                    message: format!(
                        "`{}` decodes `{}` before `{}`, but `{}` declares them in the \
                         opposite order — decode order must match the struct declaration",
                        dec_name, b_name, a_name, def.name
                    ),
                });
            }
        }
    }
}

/// Guard identifiers S2 accepts as "this codec consults the feature-bits
/// header": `Engine::snap_features()` and the `FEATURE_*` /
/// `SNAP_FEATURE_*` constants of `core::snap`.
fn is_feature_guard(name: &str) -> bool {
    name == "snap_features" || name.starts_with("FEATURE_") || name.starts_with("SNAP_FEATURE_")
}

/// S2 `feature-symmetry`: (a) a struct field gated behind
/// `#[cfg(feature = "...")]` may only be accessed from code carrying the
/// same gate — asymmetric access either breaks the default-off build or
/// hides feature-on-only behavior in shared paths; (b) a feature-gated
/// region inside a snapshot codec body must live in a function that
/// consults the feature-bits header (`snap_features` / `FEATURE_*`), so
/// optional observer bytes can never be read into a build that didn't
/// write them.
fn rule_feature_symmetry(f: &SourceFile, parsed: &Items, out: &mut Vec<Violation>) {
    let toks = &f.lexed.tokens;
    // (a) gated-field access symmetry, same-file scope.
    for s in parsed.structs.iter().filter(|s| !s.in_test) {
        for field in s.fields.iter().filter(|fd| !fd.cfg.is_empty()) {
            for (i, t) in toks.iter().enumerate() {
                let Tok::Ident(name) = &t.tok else { continue };
                if name != &field.name || t.in_test || i == 0 || !punct_at(toks, i - 1, '.') {
                    continue;
                }
                let missing: Vec<&str> = field
                    .cfg
                    .iter()
                    .filter(|g| !t.cfg_features.contains(g))
                    .map(String::as_str)
                    .collect();
                if !missing.is_empty() {
                    out.push(Violation {
                        file: f.path.clone(),
                        line: t.line,
                        rule: "feature-symmetry",
                        message: format!(
                            "`.{}` is gated behind feature \"{}\" on `{}` but this access \
                             is not under the same `#[cfg(feature = ...)]` gate",
                            field.name,
                            missing.join("\", \""),
                            s.name
                        ),
                    });
                }
            }
        }
    }
    // (b) feature-gated snapshot bytes need the feature-bits header.
    for imp in parsed.impls.iter().filter(|i| !i.in_test) {
        for m in &imp.fns {
            if !CODEC_PAIRS
                .iter()
                .any(|(enc, dec)| m.name == *enc || m.name == *dec)
                || m.body.is_empty()
            {
                continue;
            }
            let body = &toks[m.body.clone()];
            // The fn's own baseline gate (a wholly feature-gated impl or
            // module) is not a *mixed* stream; only gates opening inside
            // the body count.
            let baseline = &toks[m.body.start].cfg_features;
            let gated = body
                .iter()
                .find(|t| t.cfg_features.iter().any(|g| !baseline.contains(g)) && !t.in_test);
            let Some(gated) = gated else { continue };
            let guarded = body
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if is_feature_guard(s)));
            if !guarded {
                out.push(Violation {
                    file: f.path.clone(),
                    line: gated.line,
                    rule: "feature-symmetry",
                    message: format!(
                        "`{}` writes/reads feature-gated snapshot bytes but never consults \
                         the feature-bits header (`snap_features`/`FEATURE_*`) — a build \
                         without the feature would mis-parse the stream (annotate if the \
                         container header already carries the bits)",
                        m.name
                    ),
                });
            }
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
fn rule_wildcard_match(f: &SourceFile, parsed: &Items, out: &mut Vec<Violation>) {
    if is_bin(&f.path) {
        return;
    }
    let toks = &f.lexed.tokens;
    for m in parsed.matches.iter().filter(|m| !m.in_test) {
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
