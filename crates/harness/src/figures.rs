//! The paper's figures as projections of a few sweeps.
//!
//! Evaluation artifacts of the paper (see DESIGN.md §3 for the index):
//! Figures 3–14 sweep node counts on Cluster M per workload; Figures
//! 15–16 bound the offered load at 8 nodes; Figure 17 reports disk usage;
//! Figures 18–20 run Cluster D at 8 nodes across workloads. Table 1 is
//! the workload definition. Figures that differ only in the plotted
//! metric (3/4/5, 6/7/8, …) share one [`Sweep`]: the grid is simulated
//! once per [`generate_many`] call and each figure reads its column of
//! numbers out of it.

use crate::experiment::{ExperimentProfile, Scenario, StoreKind};
use apm_core::driver::Throttle;
use apm_core::ops::OpKind;
use apm_core::report::Table;
use apm_core::workload::{table1, Workload};
use apm_sim::ClusterSpec;
use apm_stores::runner::RunResult;

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
    const ALL: [Metric; 4] = [
        Metric::Throughput,
        Metric::ReadLatency,
        Metric::WriteLatency,
        Metric::ScanLatency,
    ];

    fn unit(self) -> &'static str {
        match self {
            Metric::Throughput => "ops/sec",
            _ => "ms",
        }
    }

    fn extract(self, result: &RunResult) -> Option<f64> {
        match self {
            Metric::Throughput => Some(result.throughput()),
            Metric::ReadLatency => result.mean_latency_ms(OpKind::Read),
            Metric::WriteLatency => result.mean_latency_ms(OpKind::Insert),
            Metric::ScanLatency => result.mean_latency_ms(OpKind::Scan),
        }
    }
}

/// Everything any figure plots of one finished point, indexed by
/// `Metric as usize` — all a sweep keeps of a run.
type Reading = [Option<f64>; 4];

/// Runs one point and keeps only its [`Reading`]: engine, store and
/// histograms are gone before the next point is built.
fn measure(scenario: &Scenario) -> Reading {
    let result = scenario.run().result;
    Metric::ALL.map(|metric| metric.extract(&result))
}

/// A grid of simulated points that several figures read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// Figures 3–14: node counts × stores on Cluster M for the named
    /// Table-1 workload.
    Nodes(&'static str),
    /// Figures 15/16: load fractions × stores at 8 nodes, Workload R.
    BoundedLoad,
    /// Figures 18–20: workloads × disk-backed stores on Cluster D.
    ClusterD,
}

/// Generates one artifact's table on its own.
pub type Generator = fn(&ExperimentProfile) -> Table;

/// Where a figure's table comes from.
#[derive(Clone, Copy, Debug)]
pub enum Plot {
    /// Generated whole: nothing else shares its work (Table 1, Fig 17).
    Whole(Generator),
    /// One metric of a sweep.
    Of(Sweep, Metric),
}

/// Descriptor of one reproducible figure.
#[derive(Clone, Copy, Debug)]
pub struct FigureSpec {
    /// Identifier ("fig3" … "fig20", "table1").
    pub id: &'static str,
    /// The paper's caption.
    pub title: &'static str,
    pub plot: Plot,
}

impl FigureSpec {
    /// The sweep this figure is read out of, if it shares one.
    pub fn sweep(&self) -> Option<Sweep> {
        match self.plot {
            Plot::Whole(_) => None,
            Plot::Of(sweep, _) => Some(sweep),
        }
    }
}

/// All reproducible artifacts in paper order.
pub fn all_figures() -> Vec<FigureSpec> {
    use Metric::{ReadLatency, ScanLatency, Throughput, WriteLatency};
    use Plot::{Of, Whole};
    use Sweep::{BoundedLoad, ClusterD, Nodes};
    #[rustfmt::skip]
    let index: [(&str, &str, Plot); 19] = [
        ("table1", "Table 1: Workload specifications", Whole(|_| table1_table())),
        ("fig3", "Figure 3: Throughput for Workload R", Of(Nodes("R"), Throughput)),
        ("fig4", "Figure 4: Read latency for Workload R", Of(Nodes("R"), ReadLatency)),
        ("fig5", "Figure 5: Write latency for Workload R", Of(Nodes("R"), WriteLatency)),
        ("fig6", "Figure 6: Throughput for Workload RW", Of(Nodes("RW"), Throughput)),
        ("fig7", "Figure 7: Read latency for Workload RW", Of(Nodes("RW"), ReadLatency)),
        ("fig8", "Figure 8: Write latency for Workload RW", Of(Nodes("RW"), WriteLatency)),
        ("fig9", "Figure 9: Throughput for Workload W", Of(Nodes("W"), Throughput)),
        ("fig10", "Figure 10: Read latency for Workload W", Of(Nodes("W"), ReadLatency)),
        ("fig11", "Figure 11: Write latency for Workload W", Of(Nodes("W"), WriteLatency)),
        ("fig12", "Figure 12: Throughput for Workload RS", Of(Nodes("RS"), Throughput)),
        ("fig13", "Figure 13: Scan latency for Workload RS", Of(Nodes("RS"), ScanLatency)),
        ("fig14", "Figure 14: Throughput for Workload RSW", Of(Nodes("RSW"), Throughput)),
        ("fig15", "Figure 15: Read latency for bounded throughput (Workload R, 8 nodes)", Of(BoundedLoad, ReadLatency)),
        ("fig16", "Figure 16: Write latency for bounded throughput (Workload R, 8 nodes)", Of(BoundedLoad, WriteLatency)),
        ("fig17", "Figure 17: Disk usage for 10M records/node", Whole(disk_usage)),
        ("fig18", "Figure 18: Throughput for 8 nodes in Cluster D", Of(ClusterD, Throughput)),
        ("fig19", "Figure 19: Read latency for 8 nodes in Cluster D", Of(ClusterD, ReadLatency)),
        ("fig20", "Figure 20: Write latency for 8 nodes in Cluster D", Of(ClusterD, WriteLatency)),
    ];
    let spec = |(id, title, plot)| FigureSpec { id, title, plot };
    index.into_iter().map(spec).collect()
}

/// Looks up a figure spec by its exact (lower-case) id.
pub fn figure_by_id(id: &str) -> Option<FigureSpec> {
    all_figures().into_iter().find(|f| f.id == id)
}

/// Generates a figure's table. Unknown ids panic (checked by the CLI).
pub fn generate(id: &str, profile: &ExperimentProfile) -> Table {
    generate_many(&[id], profile).remove(0)
}

/// Generates several figures' tables, in the order asked, simulating
/// each sweep once however many of its figures are requested. Nothing
/// outlives the call: asking again simulates again.
pub fn generate_many(ids: &[&str], profile: &ExperimentProfile) -> Vec<Table> {
    let specs: Vec<FigureSpec> = ids
        .iter()
        .map(|id| figure_by_id(id).unwrap_or_else(|| panic!("unknown figure id {id:?}")))
        .collect();
    let mut tables: Vec<Option<Table>> = vec![None; specs.len()];
    for (i, spec) in specs.iter().enumerate() {
        if tables[i].is_some() {
            continue;
        }
        match spec.plot {
            Plot::Whole(generate) => tables[i] = Some(generate(profile)),
            Plot::Of(sweep, _) => {
                let grid = sweep.run(profile);
                for (later, table) in specs.iter().zip(&mut tables).skip(i) {
                    if let Plot::Of(s, metric) = later.plot {
                        if s == sweep {
                            *table = Some(grid.project(later.title, metric));
                        }
                    }
                }
            }
        }
    }
    tables.into_iter().flatten().collect()
}

/// One pass over a sweep: every point reduced to its [`Reading`].
struct Grid {
    row_label: &'static str,
    /// `None`: the plotted metric's own unit.
    unit: Option<&'static str>,
    stores: Vec<StoreKind>,
    rows: Vec<(String, Vec<Reading>)>,
}

impl Grid {
    fn project(&self, title: &str, metric: Metric) -> Table {
        let mut table = Table::new(title, self.row_label, self.unit.unwrap_or(metric.unit()));
        table.columns = self.stores.iter().map(|s| s.name().to_string()).collect();
        for (row, cells) in &self.rows {
            let cells = cells.iter().map(|reading| reading[metric as usize]);
            table.push_row(row, cells.collect());
        }
        table
    }
}

impl Sweep {
    fn run(self, profile: &ExperimentProfile) -> Grid {
        match self {
            Sweep::Nodes(workload) => {
                let workload = Workload::by_name(workload).expect("a Table-1 workload name");
                node_sweep(&workload, profile)
            }
            Sweep::BoundedLoad => bounded_load(profile),
            Sweep::ClusterD => cluster_d(profile),
        }
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
fn node_sweep(workload: &Workload, profile: &ExperimentProfile) -> Grid {
    let stores = stores_for(workload);
    let cluster = ClusterSpec::cluster_m();
    let rows = NODE_COUNTS
        .iter()
        .map(|&nodes| {
            let cells = stores
                .iter()
                .map(|&store| measure(&Scenario::new(store, cluster, nodes, workload, profile)))
                .collect();
            (nodes.to_string(), cells)
        })
        .collect();
    Grid {
        row_label: "nodes",
        unit: None,
        stores,
        rows,
    }
}

/// Figures 15/16: latency vs bounded load at 8 nodes, Workload R,
/// normalised to the latency at 100 % load (the paper plots normalised
/// latency). VoltDB is omitted (footnote 8).
fn bounded_load(profile: &ExperimentProfile) -> Grid {
    let stores: Vec<StoreKind> = StoreKind::ALL
        .into_iter()
        .filter(|&k| k != StoreKind::VoltDb)
        .collect();
    let at = |store: StoreKind, throttle: Throttle| {
        let cluster = ClusterSpec::cluster_m();
        let mut scenario = Scenario::new(store, cluster, FIXED_NODES, &Workload::r(), profile);
        scenario.config.client.throttle = throttle;
        measure(&scenario)
    };
    // First find each store's maximum throughput and 100 %-load readings.
    let maxima: Vec<Reading> = stores
        .iter()
        .map(|&store| at(store, Throttle::Unlimited))
        .collect();
    let rows = LOAD_FRACTIONS
        .iter()
        .rev()
        .map(|&fraction| {
            let cells = stores
                .iter()
                .zip(&maxima)
                .map(|(&store, max)| {
                    let target = max[Metric::Throughput as usize].unwrap_or(0.0) * fraction;
                    if target <= 0.0 {
                        return [None; 4];
                    }
                    let bounded = at(store, Throttle::TargetOps(target));
                    Metric::ALL.map(|m| match (bounded[m as usize], max[m as usize]) {
                        (Some(value), Some(base)) if base > 0.0 => Some(100.0 * value / base),
                        _ => None,
                    })
                })
                .collect();
            (format!("{:.0}", fraction * 100.0), cells)
        })
        .collect();
    Grid {
        row_label: "load%",
        unit: Some("normalized"),
        stores,
        rows,
    }
}

/// Figure 17: disk usage after loading 10 M records per node. The paper
/// plots total GB over node count for the four disk-backed stores plus
/// the raw data size; values are reported unscaled (the per-record
/// formats are exact, so the scaled load extrapolates linearly).
pub fn disk_usage(profile: &ExperimentProfile) -> Table {
    let spec = figure_by_id("fig17").expect("known figure");
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
                Scenario::new(
                    store,
                    ClusterSpec::cluster_m(),
                    nodes,
                    &Workload::r(),
                    profile,
                )
                .loaded_disk_bytes()
                .map(|per_node| {
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
fn cluster_d(profile: &ExperimentProfile) -> Grid {
    let stores: Vec<StoreKind> = StoreKind::ALL
        .into_iter()
        .filter(|k| k.in_cluster_d_figures())
        .collect();
    // 150 M total over 8 nodes = 18.75 M per node — denser than the
    // hardware scale, which is what makes Cluster D disk-bound.
    let d_profile = ExperimentProfile {
        data_factor: 1.875,
        ..*profile
    };
    let (cluster, nodes) = (ClusterSpec::cluster_d(), FIXED_NODES);
    let rows = [Workload::r(), Workload::rw(), Workload::w()]
        .iter()
        .map(|workload| {
            let cells = stores
                .iter()
                .map(|&store| measure(&Scenario::new(store, cluster, nodes, workload, &d_profile)))
                .collect();
            (workload.name.to_string(), cells)
        })
        .collect();
    Grid {
        row_label: "workload",
        unit: None,
        stores,
        rows,
    }
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
        let t = disk_usage(&profile);
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
