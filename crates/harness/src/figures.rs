//! The artifact index and its one render path: the paper's figures as
//! projections of a few sweeps, and every other artifact generated whole.
//!
//! Evaluation artifacts of the paper (see DESIGN.md §3 for the index):
//! Figures 3–14 sweep node counts on Cluster M per workload; Figures
//! 15–16 bound the offered load at 8 nodes; Figure 17 reports disk usage;
//! Figures 18–20 run Cluster D at 8 nodes across workloads. Table 1 is
//! the workload definition. Figures that differ only in the plotted
//! metric (3/4/5, 6/7/8, …) share one [`Sweep`]: the grid is simulated
//! once per [`tables`] call and each figure reads its column of numbers
//! out of it. The extensions (DESIGN.md §6) follow the paper's artifacts
//! in [`ARTIFACTS`], each a [`Plot::Whole`] generator.

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
            Metric::ReadLatency | Metric::WriteLatency | Metric::ScanLatency => "ms",
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

/// Where an artifact's table comes from.
#[derive(Clone, Copy, Debug)]
pub enum Plot {
    /// Generated whole: nothing else shares its work (Table 1, Fig 17,
    /// every extension).
    Whole(Generator),
    /// One metric of a sweep.
    Of(Sweep, Metric),
}

/// Descriptor of one reproducible artifact.
#[derive(Clone, Copy, Debug)]
pub struct Artifact {
    /// Identifier ("table1", "fig3" … "fig20", "ext-…").
    pub id: &'static str,
    /// The paper's caption, or the extension's title. A generator whose
    /// table title is fixed reads it from here ([`title`]).
    pub title: &'static str,
    pub plot: Plot,
}

/// Every reproducible artifact: the paper's in paper order, then the
/// extensions beyond it.
#[rustfmt::skip]
pub const ARTIFACTS: [Artifact; 39] = {
    use crate::{chaos, extensions as ext, faults, obs, resilience, snap};
    use Metric::{ReadLatency, ScanLatency, Throughput, WriteLatency};
    use Plot::{Of, Whole};
    use Sweep::{BoundedLoad, ClusterD, Nodes};
    const fn a(id: &'static str, title: &'static str, plot: Plot) -> Artifact {
        Artifact { id, title, plot }
    }
    [
        a("table1", "Table 1: Workload specifications", Whole(|_| table1_table())),
        a("fig3", "Figure 3: Throughput for Workload R", Of(Nodes("R"), Throughput)),
        a("fig4", "Figure 4: Read latency for Workload R", Of(Nodes("R"), ReadLatency)),
        a("fig5", "Figure 5: Write latency for Workload R", Of(Nodes("R"), WriteLatency)),
        a("fig6", "Figure 6: Throughput for Workload RW", Of(Nodes("RW"), Throughput)),
        a("fig7", "Figure 7: Read latency for Workload RW", Of(Nodes("RW"), ReadLatency)),
        a("fig8", "Figure 8: Write latency for Workload RW", Of(Nodes("RW"), WriteLatency)),
        a("fig9", "Figure 9: Throughput for Workload W", Of(Nodes("W"), Throughput)),
        a("fig10", "Figure 10: Read latency for Workload W", Of(Nodes("W"), ReadLatency)),
        a("fig11", "Figure 11: Write latency for Workload W", Of(Nodes("W"), WriteLatency)),
        a("fig12", "Figure 12: Throughput for Workload RS", Of(Nodes("RS"), Throughput)),
        a("fig13", "Figure 13: Scan latency for Workload RS", Of(Nodes("RS"), ScanLatency)),
        a("fig14", "Figure 14: Throughput for Workload RSW", Of(Nodes("RSW"), Throughput)),
        a("fig15", "Figure 15: Read latency for bounded throughput (Workload R, 8 nodes)", Of(BoundedLoad, ReadLatency)),
        a("fig16", "Figure 16: Write latency for bounded throughput (Workload R, 8 nodes)", Of(BoundedLoad, WriteLatency)),
        a("fig17", "Figure 17: Disk usage for 10M records/node", Whole(disk_usage)),
        a("fig18", "Figure 18: Throughput for 8 nodes in Cluster D", Of(ClusterD, Throughput)),
        a("fig19", "Figure 19: Read latency for 8 nodes in Cluster D", Of(ClusterD, ReadLatency)),
        a("fig20", "Figure 20: Write latency for 8 nodes in Cluster D", Of(ClusterD, WriteLatency)),
        a("ext-replication", "Extension: impact of replication (Cassandra, workload W, 4 nodes)", Whole(ext::replication_sweep)),
        a("ext-compression", "Extension: impact of compression (Cassandra, 4 nodes)", Whole(ext::compression_ablation)),
        a("ext-tokens", "Extension: Cassandra token assignment (workload R, 8 nodes)", Whole(ext::token_ablation)),
        a("ext-skew", "Extension: key popularity skew (Cassandra, workload R, 8 nodes)", Whole(ext::skew_ablation)),
        a("ext-compaction", "Extension: compaction strategy (Cassandra, 4 nodes)", Whole(ext::compaction_ablation)),
        a("ext-mongodb", "Extension: document store vs. the paper's winners (4 nodes, Cluster M)", Whole(ext::mongodb_comparison)),
        a("ext-elasticity", "Extension: live node bootstrap (Cassandra, workload R, 4→5 nodes mid-run)", Whole(ext::elasticity)),
        a("ext-faults-crash", "Extension: single-node crash and restart, rf=1 vs rf=2 (Cassandra, workload R, 4 nodes)", Whole(faults::crash_failover)),
        a("ext-faults-slowdisk", "Extension: one fail-slow disk, x1/x4/x16 (HBase, workload R, 4 nodes)", Whole(faults::slow_disk)),
        a("ext-faults-partition", "Extension: one shard partitioned, stall vs client timeout (Redis, workload R, 4 nodes)", Whole(faults::partition)),
        a("ext-faults-failover", "Extension: crash recovery compared across Cassandra rf=2, HBase, Redis (workload R, 4 nodes)", Whole(faults::failover_comparison)),
        a("ext-obs-profile", "Extension: virtual-time attribution per op (workload R, 4 nodes)", Whole(obs::time_attribution)),
        a("ext-obs-telemetry", "Extension: windowed telemetry timeline at 70% load (Cassandra, workload R, 8 nodes)", Whole(obs::telemetry_timeline)),
        a("ext-res-retry", "Extension: retries with capped backoff vs a node crash, rf=1 (Cassandra, workload R, 4 nodes)", Whole(resilience::retry_masking)),
        a("ext-res-hedge", "Extension: hedged reads vs a fail-slow node, rf=2 (Cassandra, workload R, 4 nodes)", Whole(resilience::hedged_reads)),
        a("ext-res-breaker", "Extension: circuit breaker vs a partitioned shard (Redis, read-only, 4 nodes)", Whole(resilience::breaker_shedding)),
        a("ext-res-storm", "Extension: admission control vs an unbounded retry storm (Cassandra rf=1, workload R, 4 nodes)", Whole(resilience::retry_storm)),
        a("ext-snap-resume", "Extension: snapshot/resume equivalence and divergence bisection (workload RW, 4 nodes)", Whole(snap::snap_resume)),
        a("ext-chaos-campaign", "Extension: chaos search campaign, 3 seeded schedules per store (workload RW, 4 nodes)", Whole(chaos::chaos_campaign)),
        a("ext-chaos-shrink", "Extension: durability-bug shrink, Cassandra rf=2 with hint replay disabled (workload RW, 4 nodes)", Whole(chaos::chaos_shrink)),
    ]
};

/// Looks up an artifact by its exact (lower-case) id.
pub fn artifact(id: &str) -> Option<Artifact> {
    ARTIFACTS.into_iter().find(|a| a.id == id)
}

/// The index title of a known artifact — the table title of every
/// generator whose title is fixed, so the two cannot drift apart.
pub fn title(id: &str) -> &'static str {
    artifact(id).expect("an id in the artifact index").title
}

/// Generates an artifact's table. Unknown ids panic (checked by the CLI).
pub fn generate(id: &str, profile: &ExperimentProfile) -> Table {
    generate_many(&[id], profile).remove(0)
}

/// Generates several artifacts' tables in the order asked: [`tables`],
/// collected.
pub fn generate_many(ids: &[&str], profile: &ExperimentProfile) -> Vec<Table> {
    tables(ids, profile)
        .map(|rendered| rendered.table)
        .collect()
}

/// The tables of `ids`, in the order asked, each handed over as soon as
/// it is done. A sweep is simulated once, when the first of its
/// requested figures is reached, and every requested figure it feeds is
/// read out of it then; a [`Plot::Whole`] artifact is generated when
/// reached. Nothing outlives the iterator: asking again simulates again.
/// Unknown ids panic before anything is simulated.
pub fn tables(ids: &[&str], profile: &ExperimentProfile) -> Tables {
    let requested = ids
        .iter()
        .map(|id| artifact(id).unwrap_or_else(|| panic!("unknown artifact id {id:?}")))
        .map(|artifact| (artifact, None))
        .collect();
    Tables {
        requested,
        profile: *profile,
        next: 0,
    }
}

/// One requested artifact's table, as [`tables`] hands it over.
pub struct Rendered {
    pub id: &'static str,
    pub table: Table,
    /// The requested ids read out of the sweep simulated when this
    /// artifact was reached, this one first, when that is two or more;
    /// else empty.
    pub one_sweep_for: Vec<&'static str>,
}

/// The iterator [`tables`] returns.
pub struct Tables {
    /// Every requested artifact, with its table once it has been read
    /// out of a sweep ahead of its turn.
    requested: Vec<(Artifact, Option<Table>)>,
    profile: ExperimentProfile,
    next: usize,
}

impl Iterator for Tables {
    type Item = Rendered;

    fn next(&mut self) -> Option<Rendered> {
        let ((artifact, ahead), later) = self.requested.get_mut(self.next..)?.split_first_mut()?;
        self.next += 1;
        let mut one_sweep_for = Vec::new();
        let table = match (ahead.take(), artifact.plot) {
            (Some(table), _) => table,
            (None, Plot::Whole(generate)) => generate(&self.profile),
            (None, Plot::Of(sweep, metric)) => {
                let grid = sweep.run(&self.profile);
                for (other, slot) in later {
                    if let Plot::Of(shared, metric) = other.plot {
                        if shared == sweep {
                            *slot = Some(grid.project(other.title, metric));
                            one_sweep_for.push(other.id);
                        }
                    }
                }
                if !one_sweep_for.is_empty() {
                    one_sweep_for.insert(0, artifact.id);
                }
                grid.project(artifact.title, metric)
            }
        };
        Some(Rendered {
            id: artifact.id,
            table,
            one_sweep_for,
        })
    }
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
    let mut t = Table::new(title("table1"), "workload", "%");
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
    let stores = [
        StoreKind::Cassandra,
        StoreKind::HBase,
        StoreKind::Voldemort,
        StoreKind::Mysql,
    ];
    let mut table = Table::new(title("fig17"), "nodes", "GB total");
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
    fn artifact_ids_are_unique_and_unknown_ids_name_nothing() {
        for (i, a) in ARTIFACTS.iter().enumerate() {
            assert!(
                ARTIFACTS[..i].iter().all(|b| b.id != a.id),
                "duplicate {}",
                a.id
            );
        }
        for unknown in ["fig2", "FIG17", "ext-nope"] {
            assert!(artifact(unknown).is_none(), "{unknown}");
        }
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
