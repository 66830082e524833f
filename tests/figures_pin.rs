//! Figure-level byte-neutrality pin for the three multi-figure families.
//!
//! Figures 12/13 plot throughput and scan latency of the *same* RS node
//! sweep, 15/16 the read and write latency of the same bounded-load
//! sweep (whose maxima pass feeds both), 18/19/20 three metrics of the
//! same Cluster-D grid. Work on how a figure is produced from its sweep
//! must not move a cell: FNV-1a over each table's CSV at a tiny profile,
//! captured on the commit *before* figures became projections of one
//! sweep (81a1572), when every figure simulated its own grid.

use apm_repro::core::snap::fnv1a64;
use apm_repro::harness::experiment::ExperimentProfile;
use apm_repro::harness::figures::{generate, generate_many};

fn tiny() -> ExperimentProfile {
    ExperimentProfile {
        scale: 0.0002,
        data_factor: 1.0,
        warmup_secs: 0.1,
        measure_secs: 0.4,
        seed: 0xF16,
    }
}

/// `(figure id, fnv1a64(generate(id, &tiny()).to_csv()))`, grouped by
/// family: `node_sweep` (RS), `bounded_latency`, `cluster_d`.
const PINS: [(&str, u64); 7] = [
    ("fig12", 0x4b83_067b_80a4_9e37),
    ("fig13", 0x9a54_343f_97bc_d380),
    ("fig15", 0x00f8_6b92_ef52_bd72),
    ("fig16", 0x3448_fbd5_7ee4_01eb),
    ("fig18", 0xb734_47e2_bac5_d3c4),
    ("fig19", 0x4a6e_6529_decd_5174),
    ("fig20", 0x7fc9_4ec9_c7c9_2669),
];

#[test]
fn multi_figure_families_are_pinned() {
    let profile = tiny();
    let moved: Vec<String> = PINS
        .iter()
        .filter_map(|&(id, want)| {
            let got = fnv1a64(generate(id, &profile).to_csv().as_bytes());
            (got != want).then(|| format!("(\"{id}\", {got:#018x}),"))
        })
        .collect();
    assert!(moved.is_empty(), "figure CSVs moved:\n{}", moved.join("\n"));
}

#[test]
fn one_pass_per_family_renders_what_per_figure_generation_does() {
    let profile = tiny();
    // Out of family order, with sweep-less artifacts in between: a paper
    // table and the cheapest extension at this profile.
    let ids = [
        "fig16",
        "fig20",
        "table1",
        "ext-faults-slowdisk",
        "fig18",
        "fig15",
    ];
    let together = generate_many(&ids, &profile);
    assert_eq!(together.len(), ids.len());
    for (id, table) in ids.iter().zip(&together) {
        let alone = generate(id, &profile);
        assert_eq!(table.title, alone.title, "{id} out of order");
        assert_eq!(table.render(), alone.render(), "{id}");
        assert_eq!(table.to_csv(), alone.to_csv(), "{id}");
    }
}
