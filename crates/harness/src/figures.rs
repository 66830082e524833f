//! One generator per paper figure.
//!
//! Evaluation artifacts of the paper (see DESIGN.md §3 for the index):
//! Figures 3–14 sweep node counts on Cluster M per workload; Figures
//! 15–16 bound the offered load at 8 nodes; Figure 17 reports disk usage;
//! Figures 18–20 run Cluster D at 8 nodes across workloads. Table 1 is
//! the workload definition.

use crate::experiment::{run_point, run_point_throttled, ExperimentProfile, Point, StoreKind};
use apm_core::driver::Throttle;
use apm_core::ops::OpKind;
use apm_core::report::Table;
use apm_core::workload::{table1, Workload};
use apm_sim::ClusterSpec;

/// Node counts swept on Cluster M (the paper plots 1–12).
pub const NODE_COUNTS: [u32; 5] = [1, 2, 4, 8, 12];
/// Load fractions for the bounded-throughput experiment (§5.6).
pub const LOAD_FRACTIONS: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95];
/// Node count used for Figures 15/16 and 18–20.
pub const FIXED_NODES: u32 = 8;

/// What a figure plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    Throughput,
    ReadLatency,
    WriteLatency,
    ScanLatency,
}

impl Metric {
    fn unit(self) -> &'static str {
        match self {
            Metric::Throughput => "ops/sec",
            _ => "ms",
        }
    }

    fn extract(self, point: &Point) -> Option<f64> {
        match self {
            Metric::Throughput => Some(point.throughput()),
            Metric::ReadLatency => point.latency_ms(OpKind::Read),
            Metric::WriteLatency => point.latency_ms(OpKind::Insert),
            Metric::ScanLatency => point.latency_ms(OpKind::Scan),
        }
    }
}

/// Descriptor of one reproducible figure.
#[derive(Clone, Copy, Debug)]
pub struct FigureSpec {
    /// Identifier ("fig3" … "fig20", "table1").
    pub id: &'static str,
    /// The paper's caption.
    pub title: &'static str,
}

/// All reproducible artifacts in paper order.
pub fn all_figures() -> Vec<FigureSpec> {
    vec![
        FigureSpec {
            id: "table1",
            title: "Table 1: Workload specifications",
        },
        FigureSpec {
            id: "fig3",
            title: "Figure 3: Throughput for Workload R",
        },
        FigureSpec {
            id: "fig4",
            title: "Figure 4: Read latency for Workload R",
        },
        FigureSpec {
            id: "fig5",
            title: "Figure 5: Write latency for Workload R",
        },
        FigureSpec {
            id: "fig6",
            title: "Figure 6: Throughput for Workload RW",
        },
        FigureSpec {
            id: "fig7",
            title: "Figure 7: Read latency for Workload RW",
        },
        FigureSpec {
            id: "fig8",
            title: "Figure 8: Write latency for Workload RW",
        },
        FigureSpec {
            id: "fig9",
            title: "Figure 9: Throughput for Workload W",
        },
        FigureSpec {
            id: "fig10",
            title: "Figure 10: Read latency for Workload W",
        },
        FigureSpec {
            id: "fig11",
            title: "Figure 11: Write latency for Workload W",
        },
        FigureSpec {
            id: "fig12",
            title: "Figure 12: Throughput for Workload RS",
        },
        FigureSpec {
            id: "fig13",
            title: "Figure 13: Scan latency for Workload RS",
        },
        FigureSpec {
            id: "fig14",
            title: "Figure 14: Throughput for Workload RSW",
        },
        FigureSpec {
            id: "fig15",
            title: "Figure 15: Read latency for bounded throughput (Workload R, 8 nodes)",
        },
        FigureSpec {
            id: "fig16",
            title: "Figure 16: Write latency for bounded throughput (Workload R, 8 nodes)",
        },
        FigureSpec {
            id: "fig17",
            title: "Figure 17: Disk usage for 10M records/node",
        },
        FigureSpec {
            id: "fig18",
            title: "Figure 18: Throughput for 8 nodes in Cluster D",
        },
        FigureSpec {
            id: "fig19",
            title: "Figure 19: Read latency for 8 nodes in Cluster D",
        },
        FigureSpec {
            id: "fig20",
            title: "Figure 20: Write latency for 8 nodes in Cluster D",
        },
    ]
}

/// Looks up a figure spec by id.
pub fn figure_by_id(id: &str) -> Option<FigureSpec> {
    all_figures()
        .into_iter()
        .find(|f| f.id.eq_ignore_ascii_case(id))
}

/// Generates a figure's table. Unknown ids panic (checked by the CLI).
pub fn generate(id: &str, profile: &ExperimentProfile) -> Table {
    match id.to_ascii_lowercase().as_str() {
        "table1" => table1_table(),
        "fig3" => node_sweep("fig3", &Workload::r(), Metric::Throughput, profile),
        "fig4" => node_sweep("fig4", &Workload::r(), Metric::ReadLatency, profile),
        "fig5" => node_sweep("fig5", &Workload::r(), Metric::WriteLatency, profile),
        "fig6" => node_sweep("fig6", &Workload::rw(), Metric::Throughput, profile),
        "fig7" => node_sweep("fig7", &Workload::rw(), Metric::ReadLatency, profile),
        "fig8" => node_sweep("fig8", &Workload::rw(), Metric::WriteLatency, profile),
        "fig9" => node_sweep("fig9", &Workload::w(), Metric::Throughput, profile),
        "fig10" => node_sweep("fig10", &Workload::w(), Metric::ReadLatency, profile),
        "fig11" => node_sweep("fig11", &Workload::w(), Metric::WriteLatency, profile),
        "fig12" => node_sweep("fig12", &Workload::rs(), Metric::Throughput, profile),
        "fig13" => node_sweep("fig13", &Workload::rs(), Metric::ScanLatency, profile),
        "fig14" => node_sweep("fig14", &Workload::rsw(), Metric::Throughput, profile),
        "fig15" => bounded_latency("fig15", Metric::ReadLatency, profile),
        "fig16" => bounded_latency("fig16", Metric::WriteLatency, profile),
        "fig17" => disk_usage("fig17", profile),
        "fig18" => cluster_d("fig18", Metric::Throughput, profile),
        "fig19" => cluster_d("fig19", Metric::ReadLatency, profile),
        "fig20" => cluster_d("fig20", Metric::WriteLatency, profile),
        other => panic!("unknown figure id {other:?}"),
    }
}

/// Table 1 verbatim.
pub fn table1_table() -> Table {
    let mut t = Table::new("Table 1: Workload specifications", "workload", "%");
    t.columns = vec!["read".into(), "scan".into(), "insert".into()];
    for (name, read, scan, insert) in table1() {
        t.push_row(
            name,
            vec![Some(read as f64), Some(scan as f64), Some(insert as f64)],
        );
    }
    t
}

fn stores_for(workload: &Workload) -> Vec<StoreKind> {
    StoreKind::ALL
        .into_iter()
        .filter(|k| !workload.mix.has_scans() || k.supports_scans())
        .collect()
}

/// Figures 3–14: sweep node counts for one workload on Cluster M.
pub fn node_sweep(
    id: &str,
    workload: &Workload,
    metric: Metric,
    profile: &ExperimentProfile,
) -> Table {
    let spec = figure_by_id(id).expect("known figure");
    let stores = stores_for(workload);
    let mut table = Table::new(spec.title, "nodes", metric.unit());
    table.columns = stores.iter().map(|s| s.name().to_string()).collect();
    for &nodes in &NODE_COUNTS {
        let cells = stores
            .iter()
            .map(|&store| {
                let point = run_point(store, ClusterSpec::cluster_m(), nodes, workload, profile);
                metric.extract(&point)
            })
            .collect();
        table.push_row(&nodes.to_string(), cells);
    }
    table
}

/// Figures 15/16: latency vs bounded load at 8 nodes, Workload R,
/// normalised to the latency at 100 % load (the paper plots normalised
/// latency). VoltDB is omitted (footnote 8).
pub fn bounded_latency(id: &str, metric: Metric, profile: &ExperimentProfile) -> Table {
    let spec = figure_by_id(id).expect("known figure");
    let stores: Vec<StoreKind> = StoreKind::ALL
        .into_iter()
        .filter(|&k| k != StoreKind::VoltDb)
        .collect();
    let workload = Workload::r();
    let mut table = Table::new(spec.title, "load%", "normalized");
    table.columns = stores.iter().map(|s| s.name().to_string()).collect();
    // First find each store's maximum throughput and 100 %-load latency.
    let maxima: Vec<(f64, Option<f64>)> = stores
        .iter()
        .map(|&store| {
            let p = run_point(
                store,
                ClusterSpec::cluster_m(),
                FIXED_NODES,
                &workload,
                profile,
            );
            (p.throughput(), metric.extract(&p))
        })
        .collect();
    let mut rows: Vec<(String, Vec<Option<f64>>)> = Vec::new();
    for &fraction in LOAD_FRACTIONS.iter().rev() {
        let cells = stores
            .iter()
            .zip(&maxima)
            .map(|(&store, &(max_thr, max_lat))| {
                let target = max_thr * fraction;
                if target <= 0.0 {
                    return None;
                }
                let p = run_point_throttled(
                    store,
                    ClusterSpec::cluster_m(),
                    FIXED_NODES,
                    &workload,
                    profile,
                    Throttle::TargetOps(target),
                );
                match (metric.extract(&p), max_lat) {
                    (Some(lat), Some(base)) if base > 0.0 => Some(100.0 * lat / base),
                    _ => None,
                }
            })
            .collect();
        rows.push((format!("{:.0}", fraction * 100.0), cells));
    }
    for (row, cells) in rows {
        table.push_row(&row, cells);
    }
    table
}

/// Figure 17: disk usage after loading 10 M records per node. The paper
/// plots total GB over node count for the four disk-backed stores plus
/// the raw data size; values are reported unscaled (the per-record
/// formats are exact, so the scaled load extrapolates linearly).
pub fn disk_usage(id: &str, profile: &ExperimentProfile) -> Table {
    let spec = figure_by_id(id).expect("known figure");
    let stores = [
        StoreKind::Cassandra,
        StoreKind::HBase,
        StoreKind::Voldemort,
        StoreKind::Mysql,
    ];
    let mut table = Table::new(spec.title, "nodes", "GB total");
    table.columns = stores
        .iter()
        .map(|s| s.name().to_string())
        .collect::<Vec<_>>();
    table.columns.push("raw".into());
    for &nodes in &NODE_COUNTS {
        let mut cells: Vec<Option<f64>> = stores
            .iter()
            .map(|&store| {
                let mut engine = apm_sim::Engine::new();
                let mut boxed = store.build(
                    &mut engine,
                    ClusterSpec::cluster_m(),
                    nodes,
                    profile.scale,
                    profile.seed,
                );
                boxed.load_range(0..profile.records_per_node() * u64::from(nodes));
                boxed.finish_load();
                boxed.disk_bytes_per_node().map(|per_node| {
                    // Scale back to the paper's 10 M records/node.
                    per_node as f64 / profile.scale * nodes as f64 / 1e9
                })
            })
            .collect();
        let raw = 10_000_000.0 * 75.0 * nodes as f64 / 1e9;
        cells.push(Some(raw));
        table.push_row(&nodes.to_string(), cells);
    }
    table
}

/// Figures 18–20: Cluster D, 8 nodes, workloads R / RW / W, the three
/// disk-backed stores the paper could run there (§5.8). The paper loads
/// 150 M records *total*.
pub fn cluster_d(id: &str, metric: Metric, profile: &ExperimentProfile) -> Table {
    let spec = figure_by_id(id).expect("known figure");
    let stores: Vec<StoreKind> = StoreKind::ALL
        .into_iter()
        .filter(|k| k.in_cluster_d_figures())
        .collect();
    let mut table = Table::new(spec.title, "workload", metric.unit());
    table.columns = stores.iter().map(|s| s.name().to_string()).collect();
    // 150 M total over 8 nodes = 18.75 M per node — denser than the
    // hardware scale, which is what makes Cluster D disk-bound.
    let d_profile = ExperimentProfile {
        data_factor: 1.875,
        ..*profile
    };
    for workload in [Workload::r(), Workload::rw(), Workload::w()] {
        let cells = stores
            .iter()
            .map(|&store| {
                let point = run_point(
                    store,
                    ClusterSpec::cluster_d(),
                    FIXED_NODES,
                    &workload,
                    &d_profile,
                );
                metric.extract(&point)
            })
            .collect();
        table.push_row(workload.name, cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_index_is_complete() {
        let figures = all_figures();
        assert_eq!(figures.len(), 19, "table1 + figures 3..=20");
        for n in 3..=20 {
            assert!(
                figure_by_id(&format!("fig{n}")).is_some(),
                "figure {n} missing from the index"
            );
        }
        assert!(figure_by_id("table1").is_some());
        assert!(
            figure_by_id("fig2").is_none(),
            "fig 1/2 are illustrations, not experiments"
        );
    }

    #[test]
    fn table1_matches_the_paper() {
        let t = table1_table();
        assert_eq!(t.get("R", "read"), Some(95.0));
        assert_eq!(t.get("W", "insert"), Some(99.0));
        assert_eq!(t.get("RS", "scan"), Some(47.0));
        assert_eq!(t.get("RSW", "insert"), Some(50.0));
    }

    #[test]
    fn scan_figures_exclude_voldemort() {
        assert!(!stores_for(&Workload::rs()).contains(&StoreKind::Voldemort));
        assert!(stores_for(&Workload::r()).contains(&StoreKind::Voldemort));
    }

    #[test]
    fn disk_usage_figure_reproduces_section_5_7() {
        let profile = ExperimentProfile::test();
        let t = disk_usage("fig17", &profile);
        // §5.7 per-node GB at any node count; the table stores totals.
        let per_node =
            |store: &str, nodes: &str| t.get(nodes, store).unwrap() / nodes.parse::<f64>().unwrap();
        assert!((per_node("cassandra", "2") - 2.5).abs() < 0.4);
        assert!((per_node("mysql", "2") - 5.0).abs() < 0.6);
        assert!((per_node("voldemort", "2") - 5.5).abs() < 0.6);
        assert!((per_node("hbase", "2") - 7.5).abs() < 0.8);
        assert!((per_node("raw", "2") - 0.75).abs() < 0.01);
        // Linear growth over nodes (no replication).
        let c1 = t.get("1", "cassandra").unwrap();
        let c12 = t.get("12", "cassandra").unwrap();
        assert!((c12 / c1 - 12.0).abs() < 0.8);
    }
}
