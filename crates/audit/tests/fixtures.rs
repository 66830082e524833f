//! Fixture-driven rule tests: minimal source snippets that must trip
//! each rule D1–D4, plus allow-list escapes that must pass. These are
//! the auditor's own regression suite — if a rule stops firing on its
//! fixture, the lint has silently rotted.

use apm_audit::{audit_files, lexer::lex, SourceFile};

fn file(path: &str, src: &str) -> SourceFile {
    SourceFile {
        path: path.to_string(),
        lexed: lex(src),
    }
}

fn rules_hit(files: &[SourceFile]) -> Vec<&'static str> {
    audit_files(files).into_iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_instant_now_in_sim_trips_clock() {
    let f = file(
        "crates/sim/src/bad.rs",
        "fn stamp() -> Instant { let t = Instant::now(); t }",
    );
    assert_eq!(rules_hit(&[f]), ["clock"]);
}

#[test]
fn d1_system_time_and_thread_rng_trip_clock() {
    let f = file(
        "crates/storage/src/bad.rs",
        "fn f() { let t = SystemTime::now(); let mut r = thread_rng(); }",
    );
    assert_eq!(rules_hit(&[f]), ["clock", "clock"]);
}

#[test]
fn d1_argless_random_trips_clock() {
    let f = file("crates/stores/src/bad.rs", "fn f() -> f64 { random() }");
    assert_eq!(rules_hit(&[f]), ["clock"]);
}

#[test]
fn d1_seeded_rand_call_with_args_is_fine() {
    let f = file(
        "crates/stores/src/ok.rs",
        "fn f(rng: &mut SplitRng) -> u64 { rng.next_u64() }",
    );
    assert!(rules_hit(&[f]).is_empty());
}

#[test]
fn d1_does_not_apply_outside_deterministic_crates() {
    // core holds pure data structures with no clock to misuse; the
    // benchmark package is inside the determinism net (next test).
    let f = file(
        "crates/core/src/shape.rs",
        "fn wall() -> Instant { Instant::now() }",
    );
    assert!(rules_hit(&[f]).is_empty());
}

#[test]
fn d1_applies_to_bench() {
    let f = file(
        "apmbench/src/run.rs",
        "fn wall() -> Instant { Instant::now() }",
    );
    assert_eq!(rules_hit(&[f]), ["clock"]);
}

#[test]
fn d1_snap_codec_trips_clock() {
    // The snapshot codec must serialize identically across runs — no
    // wall-clock stamps in the container.
    let f = file(
        "crates/core/src/snap.rs",
        "fn stamp() -> u64 { SystemTime::now().elapsed().as_nanos() as u64 }",
    );
    assert_eq!(rules_hit(&[f]), ["clock"]);
}

#[test]
fn d1_snap_harness_trips_clock() {
    let f = file(
        "crates/harness/src/snap.rs",
        "fn jitter() { let t = Instant::now(); }",
    );
    assert_eq!(rules_hit(&[f]), ["clock"]);
}

#[test]
fn d1_chaos_modules_trip_clock() {
    // A campaign report must be a pure function of its seed — no
    // wall-clock reads anywhere in the chaos search stack.
    let model = file(
        "crates/core/src/chaos.rs",
        "fn stamp() -> u64 { SystemTime::now().elapsed().as_nanos() as u64 }",
    );
    let harness = file(
        "crates/harness/src/chaos.rs",
        "fn jitter() { let t = Instant::now(); }",
    );
    let v = audit_files(&[model, harness]);
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v
        .iter()
        .all(|x| x.rule == "clock" && x.file.contains("/chaos.rs")));
}

#[test]
fn d1_d2_scenario_module_is_in_scope() {
    // Every obs/snap/chaos/resilience run is built and driven by
    // `Scenario` in experiment.rs; the determinism net covers it too.
    let f = file(
        "crates/harness/src/experiment.rs",
        "fn run() { let t = Instant::now(); let m: HashMap<u64, u64> = HashMap::new(); }",
    );
    let mut hit = rules_hit(&[f]);
    hit.dedup();
    assert_eq!(hit, ["clock", "hash-order"]);
}

#[test]
fn d1_allow_escape_passes() {
    let f = file(
        "crates/sim/src/ok.rs",
        "fn f() {\n    // justified: diagnostics only. audit:allow(clock)\n    let t = Instant::now();\n}",
    );
    assert!(rules_hit(&[f]).is_empty());
}

#[test]
fn d1_clock_covers_the_kernel_hot_path_modules() {
    // The calendar queue and plan arena carry the kernel's event order
    // and plan storage; a wall-clock read in either is a determinism
    // break exactly like one in kernel.rs. Crate scoping covers them —
    // these fixtures pin that down so a future per-module scope list
    // cannot silently drop the hot path.
    let queue = file(
        "crates/sim/src/queue.rs",
        "fn f() { let t = Instant::now(); }",
    );
    let arena = file(
        "crates/sim/src/arena.rs",
        "fn f() { let t = Instant::now(); }",
    );
    assert_eq!(rules_hit(&[queue, arena]), ["clock", "clock"]);
}

#[test]
fn d1_clock_covers_the_storage_merge_cursor() {
    // `storage::merge` decides which version of a key every LSM scan and
    // compaction keeps; ambient state there would reorder snapshots and
    // receipts. Pinned like the kernel hot path above.
    let merge = file(
        "crates/storage/src/merge.rs",
        "fn f() { let t = Instant::now(); let r = thread_rng(); }",
    );
    assert_eq!(rules_hit(&[merge]), ["clock", "clock"]);
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_hashmap_in_stores_trips_hash_order() {
    let f = file(
        "crates/stores/src/bad.rs",
        "use std::collections::HashMap;\nstruct S { jobs: HashMap<u64, usize> }",
    );
    assert_eq!(rules_hit(&[f]), ["hash-order", "hash-order"]);
}

#[test]
fn d2_hashset_in_sim_trips_hash_order() {
    let f = file(
        "crates/sim/src/bad.rs",
        "fn f() { let s: std::collections::HashSet<u64> = Default::default(); }",
    );
    assert_eq!(rules_hit(&[f]), ["hash-order"]);
}

#[test]
fn d2_hash_order_covers_the_kernel_hot_path_modules() {
    // Bucket scans in the calendar queue and chain walks in the plan
    // arena feed event order directly; hashed iteration in either would
    // leak host randomization into the schedule. The arena's intern
    // table is a fixed chained vector for exactly this reason.
    let queue = file(
        "crates/sim/src/queue.rs",
        "fn f() { let m: std::collections::HashMap<u64, u64> = Default::default(); }",
    );
    let arena = file(
        "crates/sim/src/arena.rs",
        "fn f() { let s: std::collections::HashSet<u64> = Default::default(); }",
    );
    assert_eq!(rules_hit(&[arena, queue]), ["hash-order", "hash-order"]);
}

#[test]
fn d2_btreemap_is_fine() {
    let f = file(
        "crates/stores/src/ok.rs",
        "use std::collections::BTreeMap;\nstruct S { jobs: BTreeMap<u64, usize> }",
    );
    assert!(rules_hit(&[f]).is_empty());
}

#[test]
fn d2_hashmap_outside_sim_and_stores_is_fine() {
    let f = file(
        "crates/harness/src/ok.rs",
        "use std::collections::HashMap;\nfn f() -> HashMap<u64, u64> { HashMap::new() }",
    );
    assert!(rules_hit(&[f]).is_empty());
}

#[test]
fn d2_snap_modules_trip_hash_order() {
    // A hashed map serialized in snapshot order would make two runs of
    // the same scenario produce different snapshot bytes.
    let codec = file(
        "crates/core/src/snap.rs",
        "fn f() { let m: std::collections::HashMap<u64, u64> = Default::default(); }",
    );
    let harness = file(
        "crates/harness/src/snap.rs",
        "fn f() { let s: std::collections::HashSet<u64> = Default::default(); }",
    );
    // The same collections in an unscoped harness module stay clean.
    let other = file(
        "crates/harness/src/figures.rs",
        "fn f() { let m: std::collections::HashMap<u64, u64> = Default::default(); }",
    );
    let v = audit_files(&[codec, harness, other]);
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v
        .iter()
        .all(|v| v.rule == "hash-order" && v.file.contains("/snap.rs")));
}

#[test]
fn d2_chaos_modules_trip_hash_order() {
    // The shrinker memoizes probe verdicts by subset; a hashed map
    // there would reorder probe execution between runs.
    let f = file(
        "crates/harness/src/chaos.rs",
        "fn f() { let m: std::collections::HashMap<u64, u64> = Default::default(); }",
    );
    assert_eq!(rules_hit(&[f]), ["hash-order"]);
}

#[test]
fn d2_allow_escape_passes() {
    let f = file(
        "crates/stores/src/ok.rs",
        "fn f() {\n    // Cardinality only, never iterated. audit:allow(hash-order)\n    let s: std::collections::HashSet<u64> = Default::default();\n}",
    );
    assert!(rules_hit(&[f]).is_empty());
}

#[test]
fn d2_mention_in_comment_or_string_is_fine() {
    let f = file(
        "crates/sim/src/ok.rs",
        "// a HashMap would be wrong here\nfn f() -> &'static str { \"HashMap\" }",
    );
    assert!(rules_hit(&[f]).is_empty());
}

// ---------------------------------------------------------------- D3

#[test]
fn d3_bare_unwrap_in_library_code_trips() {
    let f = file(
        "crates/core/src/bad.rs",
        "pub fn f(v: Option<u64>) -> u64 { v.unwrap() }",
    );
    assert_eq!(rules_hit(&[f]), ["unwrap"]);
}

#[test]
fn d3_empty_expect_trips() {
    let f = file(
        "crates/core/src/bad.rs",
        "pub fn f(v: Option<u64>) -> u64 { v.expect(\"\") }",
    );
    assert_eq!(rules_hit(&[f]), ["unwrap"]);
}

#[test]
fn d3_contextful_expect_is_fine() {
    let f = file(
        "crates/core/src/ok.rs",
        "pub fn f(v: Option<u64>) -> u64 { v.expect(\"pushed on the line above\") }",
    );
    assert!(rules_hit(&[f]).is_empty());
}

#[test]
fn d3_unwrap_inside_tests_is_fine() {
    let f = file(
        "crates/core/src/ok.rs",
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}",
    );
    assert!(rules_hit(&[f]).is_empty());
}

#[test]
fn d3_allow_escape_passes() {
    let f = file(
        "crates/core/src/ok.rs",
        "pub fn f(v: Option<u64>) -> u64 {\n    // infallible: v is checked by the caller. audit:allow(unwrap)\n    v.unwrap()\n}",
    );
    assert!(rules_hit(&[f]).is_empty());
}

// ---------------------------------------------------------------- D4

#[test]
fn d4_f32_narrowing_in_stats_trips_float_sum() {
    let f = file(
        "crates/core/src/stats.rs",
        "pub fn mean(v: &[f64]) -> f32 { v[0] as f32 }",
    );
    assert_eq!(rules_hit(&[f]), ["float-sum", "float-sum"]);
}

#[test]
fn d4_fold_outside_blessed_helper_trips() {
    let f = file(
        "crates/core/src/timeseries.rs",
        "pub fn total(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }",
    );
    assert_eq!(rules_hit(&[f]), ["float-sum"]);
}

#[test]
fn d4_fold_inside_kahan_helper_is_blessed() {
    let f = file(
        "crates/core/src/stats.rs",
        "pub fn kahan_sum(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }",
    );
    assert!(rules_hit(&[f]).is_empty());
}

#[test]
fn d4_scoped_to_stats_and_timeseries_only() {
    let f = file(
        "crates/core/src/record.rs",
        "pub fn parse(b: &[u8]) -> u64 { b.iter().fold(0, |a, x| a * 10 + u64::from(*x)) }",
    );
    assert!(rules_hit(&[f]).is_empty());
}

// ------------------------------------------------------- end-to-end

#[test]
fn multiple_rules_sort_by_file_and_line() {
    let a = file(
        "crates/sim/src/a.rs",
        "use std::collections::HashMap;\nfn f() { let t = Instant::now(); }",
    );
    let b = file(
        "crates/core/src/b.rs",
        "pub fn f(v: Option<u64>) -> u64 { v.unwrap() }",
    );
    let v = audit_files(&[a, b]);
    let got: Vec<(&str, u32, &str)> = v
        .iter()
        .map(|v| (v.file.as_str(), v.line, v.rule))
        .collect();
    assert_eq!(
        got,
        [
            ("crates/core/src/b.rs", 1, "unwrap"),
            ("crates/sim/src/a.rs", 1, "hash-order"),
            ("crates/sim/src/a.rs", 2, "clock"),
        ]
    );
}

// ---------------------------------------------------------------- S3

#[test]
fn s3_wildcard_over_protected_enum_trips() {
    let src = "fn f(o: OpOutcome) -> u32 {
    match o {
        OpOutcome::Done => 1,
        _ => 0,
    }
}
";
    let v = audit_files(&[file("crates/stores/src/m.rs", src)]);
    assert_eq!(
        rules_hit(&[file("crates/stores/src/m.rs", src)]),
        ["wildcard-match"]
    );
    assert_eq!(v[0].line, 4);
    assert!(v[0].message.contains("`OpOutcome`"), "{}", v[0].message);
}

#[test]
fn s3_wildcard_guard_arm_trips_too() {
    let src = "fn f(k: FaultKind) -> u32 {
    match k {
        FaultKind::Crash => 1,
        _ if true => 2,
    }
}
";
    assert_eq!(
        rules_hit(&[file("crates/sim/src/m.rs", src)]),
        ["wildcard-match"]
    );
}

#[test]
fn s3_chaos_enums_are_protected() {
    // A `_` over the oracle or outcome kinds would let a new oracle be
    // added without every report/CLI dispatch site seeing it.
    let oracle = "fn f(k: OracleKind) -> u32 {
    match k {
        OracleKind::Durability => 1,
        _ => 0,
    }
}
";
    let outcome = "fn g(o: ScheduleOutcome) -> u32 {
    match o {
        ScheduleOutcome::Pass => 1,
        _ => 0,
    }
}
";
    assert_eq!(
        rules_hit(&[file("crates/harness/src/chaos.rs", oracle)]),
        ["wildcard-match"]
    );
    assert_eq!(
        rules_hit(&[file("crates/core/src/chaos.rs", outcome)]),
        ["wildcard-match"]
    );
}

#[test]
fn s3_unprotected_enum_and_binding_patterns_pass() {
    let src = "fn f(o: Option<u64>, c: Color) -> u64 {
    let x = match c {
        Color::Red => 1,
        _ => 0,
    };
    match o {
        Some(n) => n,
        _ => x,
    }
}
";
    assert!(rules_hit(&[file("crates/stores/src/m.rs", src)]).is_empty());
}

#[test]
fn s3_test_code_is_exempt() {
    let src = "#[cfg(test)]
mod tests {
    fn f(o: OpOutcome) -> u32 {
        match o {
            OpOutcome::Done => 1,
            _ => 0,
        }
    }
}
";
    assert!(rules_hit(&[file("crates/stores/src/m.rs", src)]).is_empty());
}

#[test]
fn s3_allow_escape_passes() {
    let src = "fn f(o: OpOutcome) -> u32 {
    match o {
        OpOutcome::Done => 1,
        // domain constrained by caller. audit:allow(wildcard-match)
        _ => 0,
    }
}
";
    assert!(rules_hit(&[file("crates/stores/src/m.rs", src)]).is_empty());
}
