//! The figure-generation pipeline end to end: tables, reference data,
//! shape checks, persistence.

use apm_repro::harness::experiment::ExperimentProfile;
use apm_repro::harness::figures::{disk_usage, generate, table1_table, ARTIFACTS};
use apm_repro::harness::output::{render_experiments_md, FigureResult, ResultsFile};
use apm_repro::harness::reference::{for_figure, reference_points};
use apm_repro::harness::shape::checks_for;

#[test]
fn the_artifact_index_covers_every_evaluation_figure() {
    // Table 1 plus figures 3..=20 — figures 1/2 are illustrations — then
    // the twenty extensions.
    let (paper, extensions) = ARTIFACTS.split_at(19);
    let ids: Vec<&str> = paper.iter().map(|a| a.id).collect();
    assert_eq!(ids[0], "table1");
    for n in 3..=20 {
        assert!(ids.contains(&format!("fig{n}").as_str()), "missing fig{n}");
    }
    assert_eq!(extensions.len(), 20);
    for artifact in extensions {
        assert!(artifact.id.starts_with("ext-"), "{}", artifact.id);
    }
}

#[test]
fn table1_is_exact() {
    let t = table1_table();
    assert_eq!(t.rows, vec!["R", "RW", "W", "RS", "RSW"]);
    assert_eq!(t.get("R", "read"), Some(95.0));
    assert_eq!(t.get("RW", "insert"), Some(50.0));
    assert_eq!(t.get("W", "read"), Some(1.0));
    assert_eq!(t.get("RS", "scan"), Some(47.0));
    assert_eq!(t.get("RSW", "scan"), Some(25.0));
}

#[test]
fn figure17_reproduces_disk_usage_and_its_shape_checks_pass() {
    let profile = ExperimentProfile::test();
    let table = disk_usage(&profile);
    let checks = checks_for("fig17", &table);
    assert!(!checks.is_empty());
    for check in &checks {
        assert!(
            check.pass,
            "fig17 shape check failed: {} — {}",
            check.claim, check.detail
        );
    }
    // Fig 17 reference values: within 20 % of the paper's GB numbers.
    for r in for_figure("fig17") {
        let measured = table.get(r.row, r.store).expect("cell exists");
        let rel = (measured - r.value).abs() / r.value;
        assert!(
            rel < 0.2,
            "fig17 {}@{}: paper {} vs measured {measured}",
            r.store,
            r.row,
            r.value
        );
    }
}

#[test]
fn generate_table1_via_the_dispatcher() {
    let profile = ExperimentProfile::test();
    let t = generate("table1", &profile);
    assert!(t.title.contains("Table 1"));
}

#[test]
fn results_roundtrip_and_render() {
    let profile = ExperimentProfile::test();
    let table = disk_usage(&profile);
    let checks = checks_for("fig17", &table);
    let results = ResultsFile {
        profile: "test".into(),
        figures: vec![FigureResult::capture("fig17", &table, &checks)],
    };
    let parsed = ResultsFile::from_json(&results.to_json()).expect("json roundtrip");
    assert_eq!(parsed.figures[0].id, "fig17");
    let md = render_experiments_md(&parsed);
    assert!(md.contains("Figure 17"));
    assert!(md.contains("Shape checks passed"));
}

#[test]
fn every_reference_point_addresses_a_real_row_and_column() {
    // Guard against typos: fig17 rows are node counts; fig18-20 rows are
    // workload names; node-sweep rows are in NODE_COUNTS.
    let node_rows = ["1", "2", "4", "8", "12"];
    let d_rows = ["R", "RW", "W"];
    let load_rows = ["50", "60", "70", "80", "90", "95"];
    for p in reference_points() {
        let ok = match p.figure {
            "fig15" | "fig16" => load_rows.contains(&p.row),
            "fig18" | "fig19" | "fig20" => d_rows.contains(&p.row),
            _ => node_rows.contains(&p.row),
        };
        assert!(ok, "reference point with bad row: {p:?}");
        assert!(
            [
                "cassandra",
                "hbase",
                "voldemort",
                "voltdb",
                "redis",
                "mysql",
                "raw"
            ]
            .contains(&p.store),
            "unknown store {p:?}"
        );
    }
}
