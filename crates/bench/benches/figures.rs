//! One benchmark per paper figure: runs a reduced-resolution slice of the
//! figure's experiment end to end (load → closed-loop run → statistics).
//!
//! The authoritative tables come from `repro <figN>`; these benches keep
//! every figure's pipeline exercised under `cargo bench` and report how
//! long the harness itself takes per figure-point.

use apm_bench::bench_profile;
use apm_bench::runner::{black_box, Group};
use apm_core::driver::Throttle;
use apm_core::workload::Workload;
use apm_harness::experiment::{run_point, run_point_throttled, StoreKind};
use apm_harness::figures::{disk_usage, table1_table};
use apm_sim::ClusterSpec;

/// Benchmarks one representative point of a node-sweep figure: the
/// figure's workload at 2 nodes for the paper's headline store.
fn sweep_point(group: &Group, id: &str, workload: Workload, store: StoreKind) {
    let profile = bench_profile();
    group.bench_slow(id, 3, || {
        let point = run_point(store, ClusterSpec::cluster_m(), 2, &workload, &profile);
        black_box(point.throughput())
    });
}

fn bench_table1(group: &Group) {
    group.bench("table1", || black_box(table1_table().to_csv().len()));
}

fn bench_workload_figures(group: &Group) {
    // Figures 3-5 share the Workload R experiment; 6-8 RW; 9-11 W;
    // 12-13 RS; 14 RSW. One store per figure keeps `cargo bench` fast
    // while covering every pipeline.
    sweep_point(
        group,
        "fig03_throughput_r",
        Workload::r(),
        StoreKind::Cassandra,
    );
    sweep_point(
        group,
        "fig04_readlat_r",
        Workload::r(),
        StoreKind::Voldemort,
    );
    sweep_point(group, "fig05_writelat_r", Workload::r(), StoreKind::HBase);
    sweep_point(
        group,
        "fig06_throughput_rw",
        Workload::rw(),
        StoreKind::VoltDb,
    );
    sweep_point(group, "fig07_readlat_rw", Workload::rw(), StoreKind::Redis);
    sweep_point(group, "fig08_writelat_rw", Workload::rw(), StoreKind::Mysql);
    sweep_point(
        group,
        "fig09_throughput_w",
        Workload::w(),
        StoreKind::Cassandra,
    );
    sweep_point(group, "fig10_readlat_w", Workload::w(), StoreKind::HBase);
    sweep_point(
        group,
        "fig11_writelat_w",
        Workload::w(),
        StoreKind::Voldemort,
    );
    sweep_point(
        group,
        "fig12_throughput_rs",
        Workload::rs(),
        StoreKind::Mysql,
    );
    sweep_point(
        group,
        "fig13_scanlat_rs",
        Workload::rs(),
        StoreKind::Cassandra,
    );
    sweep_point(
        group,
        "fig14_throughput_rsw",
        Workload::rsw(),
        StoreKind::VoltDb,
    );
}

fn bench_bounded_throughput(group: &Group) {
    // Figures 15/16: one bounded-load point (70 % of a precomputed max).
    let profile = bench_profile();
    let max = run_point(
        StoreKind::Cassandra,
        ClusterSpec::cluster_m(),
        2,
        &Workload::r(),
        &profile,
    )
    .throughput();
    group.bench_slow("fig15_16_bounded_70pct", 3, || {
        let point = run_point_throttled(
            StoreKind::Cassandra,
            ClusterSpec::cluster_m(),
            2,
            &Workload::r(),
            &profile,
            Throttle::TargetOps(max * 0.7),
        );
        black_box(point.throughput())
    });
}

fn bench_disk_usage(group: &Group) {
    // Figure 17: the load-only experiment.
    let profile = bench_profile();
    group.bench_slow("fig17_disk_usage_table", 3, || {
        black_box(disk_usage(&profile).to_csv().len())
    });
}

fn bench_cluster_d(group: &Group) {
    // Figures 18-20: one Cluster-D point per workload extreme.
    let profile = bench_profile();
    for workload in [Workload::r(), Workload::w()] {
        let name = format!("fig18_20_cluster_d_cassandra_{}", workload.name);
        group.bench_slow(&name, 3, || {
            let point = run_point(
                StoreKind::Cassandra,
                ClusterSpec::cluster_d(),
                4,
                &workload,
                &profile,
            );
            black_box(point.throughput())
        });
    }
}

fn main() {
    let group = Group::new("figures");
    bench_table1(&group);
    bench_workload_figures(&group);
    bench_bounded_throughput(&group);
    bench_disk_usage(&group);
    bench_cluster_d(&group);
}
