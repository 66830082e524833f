//! Failure-injection experiments (`ext-faults-*`).
//!
//! The paper benchmarks the six stores in steady state; an APM
//! installation additionally cares what the metric firehose does when
//! hardware misbehaves (§2: the monitoring system itself must stay up
//! 24/7). These experiments drive the calibrated stores through seeded
//! [`FaultSchedule`]s — node crashes, a fail-slow disk, a network
//! partition — and read availability, error counts, and post-fault
//! recovery off the run's per-second throughput timeline (phase means
//! and recovery detection).
//!
//! Every run is fully deterministic: the same seed plus the same fault
//! schedule reproduces byte-identical tables (run `repro --out` twice
//! and diff).

use crate::experiment::{ExperimentProfile, Scenario, StoreKind, StoreSpec};
use apm_core::report::Table;
use apm_core::stats::BenchStats;
use apm_core::workload::Workload;
use apm_sim::{ClusterSpec, FaultSchedule, FaultWindow, SimDuration, SimTime, WindowShape};
use apm_stores::cassandra::CassandraConfig;
use apm_stores::runner::RunResult;

/// Which node the schedules target. Node 1 rather than node 0 so that
/// ring/routing bookkeeping is exercised on a non-trivial index.
const VICTIM: usize = 1;

/// Every fault and resilience experiment runs on four nodes.
const NODES: u32 = 4;

/// A post-restart second counts as "recovered" once it reaches this
/// fraction of the pre-fault mean (the within-10% acceptance bar).
const RECOVERY_THRESHOLD: f64 = 0.9;

fn secs(s: f64) -> SimTime {
    SimTime((s * 1e9) as u64)
}

/// Common fault timing: the measurement window split in thirds —
/// healthy, faulted, recovered. Times are offsets from warmup end,
/// matching [`FaultSchedule`] semantics.
pub(crate) struct Phases {
    pub(crate) window: f64,
    pub(crate) fault: f64,
    pub(crate) restore: f64,
}

impl Phases {
    pub(crate) fn for_profile(profile: &ExperimentProfile) -> Phases {
        // At least 9 s so each third spans several seconds.
        let window = profile.measure_secs.max(9.0);
        Phases {
            window,
            fault: window / 3.0,
            restore: window * 2.0 / 3.0,
        }
    }

    /// One `shape` fault window on the victim node over the faulted
    /// third.
    pub(crate) fn faults(&self, shape: WindowShape) -> FaultSchedule {
        let window = FaultWindow {
            node: VICTIM,
            start: secs(self.fault),
            until: secs(self.restore),
            shape,
        };
        FaultSchedule::none().with_window(window, NODES as usize)
    }

    pub(crate) fn crash(&self) -> FaultSchedule {
        self.faults(WindowShape::Crash)
    }

    /// The scenario every fault and resilience experiment starts from:
    /// this window as the measurement window, `faults` injected into it.
    pub(crate) fn scenario(
        &self,
        store: impl Into<StoreSpec>,
        cluster: ClusterSpec,
        workload: &Workload,
        profile: &ExperimentProfile,
        faults: FaultSchedule,
    ) -> Scenario {
        let mut scenario = Scenario::new(store, cluster, NODES, workload, profile);
        scenario.config.client.measure_secs = self.window;
        scenario.config.faults = faults;
        scenario
    }

    /// [`Phases::scenario`] for workload R on Cluster-M Cassandra at
    /// replication factor `rf` — where half the fault and resilience
    /// tables start.
    pub(crate) fn cassandra(
        &self,
        rf: usize,
        profile: &ExperimentProfile,
        faults: FaultSchedule,
    ) -> Scenario {
        let store = CassandraConfig {
            replication: rf,
            ..CassandraConfig::default()
        };
        self.scenario(
            store,
            ClusterSpec::cluster_m(),
            &Workload::r(),
            profile,
            faults,
        )
    }

    /// Per-second throughput means of the three phases, read off the
    /// run's [`BenchStats::timeline`] (completed + rejected per second,
    /// up to the last second that saw one). The transition seconds (the
    /// fault second and the restore second) are excluded — they mix
    /// regimes.
    pub(crate) fn phase_means(&self, stats: &BenchStats) -> (f64, f64, f64) {
        let timeline = stats.timeline();
        let mean = |lo: usize, hi: usize| -> f64 {
            let lo = lo.min(timeline.len());
            let hi = hi.min(timeline.len());
            if hi <= lo {
                return 0.0;
            }
            timeline[lo..hi].iter().sum::<u64>() as f64 / (hi - lo) as f64
        };
        let fault = self.fault as usize;
        let restore = self.restore as usize;
        (
            mean(0, fault),
            mean(fault + 1, restore),
            mean(restore + 1, self.window as usize),
        )
    }

    pub(crate) fn recovery_secs(&self, stats: &BenchStats) -> Option<u64> {
        stats.recovery_secs(
            self.fault as usize,
            self.restore as usize,
            RECOVERY_THRESHOLD,
        )
    }
}

fn summary_columns(table: &mut Table) {
    table.columns = vec![
        "availability".into(),
        "errors".into(),
        "throughput".into(),
        "pre_ops_per_sec".into(),
        "mid_ops_per_sec".into(),
        "post_ops_per_sec".into(),
        "recovery_ratio".into(),
        "recovery_secs".into(),
    ];
}

fn summary_row(result: &RunResult, window: &Phases) -> Vec<Option<f64>> {
    let (pre, mid, post) = window.phase_means(&result.stats);
    vec![
        Some(result.stats.availability()),
        Some(result.stats.total_errors() as f64),
        Some(result.throughput()),
        Some(pre),
        Some(mid),
        Some(post),
        if pre > 0.0 { Some(post / pre) } else { None },
        window.recovery_secs(&result.stats).map(|s| s as f64),
    ]
}

/// `ext-faults-crash`: one Cassandra node crashes mid-run and restarts.
/// At rf=1 its key range is simply gone — a third of the run errors. At
/// rf=2 the coordinator fails reads over to the surviving replica and
/// hints the missed writes, so availability rides through the crash and
/// the restart only costs the hint-replay stream.
pub fn crash_failover(profile: &ExperimentProfile) -> Table {
    let w = Phases::for_profile(profile);
    let mut table = Table::new(
        &format!(
            "Extension: single-node crash at t={:.0}s, restart at t={:.0}s (Cassandra, workload R, 4 nodes)",
            w.fault, w.restore
        ),
        "rf",
        "ratio | count | ops/sec | s",
    );
    summary_columns(&mut table);
    for rf in [1usize, 2] {
        let result = w.cassandra(rf, profile, w.crash()).run().result;
        table.push_row(&format!("rf{rf}"), summary_row(&result, &w));
    }
    table
}

/// `ext-faults-slowdisk`: a fail-slow drive (`factor`× service time) on
/// one HBase region server, run on Cluster D — the paper's disk-bound
/// regime (§5.8), where the per-node data exceeds the page cache and
/// most reads miss to disk. (On Cluster M the data fits in RAM, §3, and
/// a slow disk is invisible to reads.) Cache misses on the victim's
/// regions queue behind the slow DataNode disk, so the node gates its
/// share of the closed loop — throughput dips without a single error:
/// degraded is not down.
pub fn slow_disk(profile: &ExperimentProfile) -> Table {
    // Cluster D density: 18.75 M records per node at full scale, same as
    // the fig18–20 runs — this is what pushes reads past the page cache.
    let d_profile = ExperimentProfile {
        data_factor: 1.875,
        ..*profile
    };
    let w = Phases::for_profile(&d_profile);
    let mut table = Table::new(
        &format!(
            "Extension: one fail-slow disk from t={:.0}s to t={:.0}s (HBase, workload R, 4 nodes, Cluster D)",
            w.fault, w.restore
        ),
        "slowdown",
        "ratio | count | ops/sec | s",
    );
    summary_columns(&mut table);
    for factor in [1u32, 4, 16] {
        let faults = if factor > 1 {
            w.faults(WindowShape::SlowDisk { factor })
        } else {
            FaultSchedule::none()
        };
        let result = w
            .scenario(
                StoreKind::HBase,
                ClusterSpec::cluster_d(),
                &Workload::r(),
                &d_profile,
                faults,
            )
            .run()
            .result;
        table.push_row(&format!("x{factor}"), summary_row(&result, &w));
    }
    table
}

/// A pure-read mix: partition effects isolated from the insert-driven
/// maxmemory dynamics a long Redis run otherwise adds on top.
pub(crate) fn read_only() -> Workload {
    let base = Workload::r();
    Workload {
        name: "read-only",
        mix: apm_core::workload::OpMix::new(100, 0, 0, 0).expect("valid mix"),
        distribution: base.distribution,
        scan_length: base.scan_length,
    }
}

/// `ext-faults-partition`: a Redis shard is network-partitioned. Without
/// a client deadline every connection eventually blocks on the black
/// hole — throughput collapses to zero with *zero* errors
/// (unavailability without failures). A 10 ms operation deadline turns
/// the stalls into timeout errors and keeps the surviving shards
/// serving their share.
pub fn partition(profile: &ExperimentProfile) -> Table {
    let w = Phases::for_profile(profile);
    let faults = w.faults(WindowShape::Partition);
    let mut table = Table::new(
        &format!(
            "Extension: one shard partitioned from t={:.0}s to t={:.0}s (Redis, read-only, 4 nodes)",
            w.fault, w.restore
        ),
        "client",
        "ratio | count | ops/sec | s",
    );
    summary_columns(&mut table);
    for (label, deadline) in [
        ("stall", None),
        ("timeout-10ms", Some(SimDuration::from_millis(10))),
    ] {
        let mut scenario = w.scenario(
            StoreKind::Redis,
            ClusterSpec::cluster_m(),
            &read_only(),
            profile,
            faults.clone(),
        );
        scenario.config.op_deadline = deadline;
        table.push_row(label, summary_row(&scenario.run().result, &w));
    }
    table
}

/// `ext-faults-failover`: the same crash/restart window across three
/// recovery designs — Cassandra rf=2 (instant coordinator failover plus
/// hinted handoff), HBase (master detection delay, WAL replay on a
/// substitute server, region reassignment), and Redis (no replication,
/// no persistence: the shard's data is gone and reads keep missing even
/// after the process returns).
pub fn failover_comparison(profile: &ExperimentProfile) -> Table {
    let w = Phases::for_profile(profile);
    let mut table = Table::new(
        &format!(
            "Extension: crash recovery compared, crash t={:.0}s restart t={:.0}s (workload R, 4 nodes)",
            w.fault, w.restore
        ),
        "store",
        "ratio | count | ops/sec | s",
    );
    summary_columns(&mut table);
    let paper_store = |kind: StoreKind| {
        let (cluster, workload) = (ClusterSpec::cluster_m(), Workload::r());
        w.scenario(kind, cluster, &workload, profile, w.crash())
    };
    for (label, scenario) in [
        ("cassandra-rf2", w.cassandra(2, profile, w.crash())),
        ("hbase", paper_store(StoreKind::HBase)),
        ("redis", paper_store(StoreKind::Redis)),
    ] {
        table.push_row(label, summary_row(&scenario.run().result, &w));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ExperimentProfile {
        ExperimentProfile::test()
    }

    #[test]
    fn replication_preserves_availability_through_a_crash() {
        let t = crash_failover(&profile());
        let rf1 = t.get("rf1", "availability").expect("rf1/availability cell");
        let rf2 = t.get("rf2", "availability").expect("rf2/availability cell");
        assert!(rf2 >= 0.99, "rf=2 must ride through the crash: {rf2}");
        assert!(rf1 < 0.95, "rf=1 must lose its key range: {rf1}");
        assert!(
            t.get("rf1", "errors").expect("rf1/errors cell")
                > t.get("rf2", "errors").expect("rf2/errors cell")
        );
        for row in ["rf1", "rf2"] {
            let ratio = t.get(row, "recovery_ratio").expect("recovery_ratio cell");
            assert!(
                ratio >= 0.85,
                "{row} must recover after restart: post/pre {ratio}"
            );
        }
    }

    #[test]
    fn slow_disk_degrades_without_errors() {
        let t = slow_disk(&profile());
        for row in ["x1", "x4", "x16"] {
            assert_eq!(
                t.get(row, "errors").expect("errors cell"),
                0.0,
                "{row} errored"
            );
            assert_eq!(
                t.get(row, "availability").expect("availability cell"),
                1.0,
                "{row} availability"
            );
        }
        let base = t
            .get("x1", "mid_ops_per_sec")
            .expect("x1/mid_ops_per_sec cell");
        let worst = t
            .get("x16", "mid_ops_per_sec")
            .expect("x16/mid_ops_per_sec cell");
        assert!(
            worst < 0.9 * base,
            "x16 disk must dent throughput: {base} → {worst}"
        );
        let ratio = t
            .get("x16", "recovery_ratio")
            .expect("x16/recovery_ratio cell");
        assert!(ratio >= 0.85, "slow disk must fully recover: {ratio}");
    }

    #[test]
    fn partition_stalls_but_timeouts_keep_the_rest_serving() {
        let t = partition(&profile());
        let pre = t
            .get("stall", "pre_ops_per_sec")
            .expect("stall/pre_ops_per_sec cell");
        let stall_mid = t
            .get("stall", "mid_ops_per_sec")
            .expect("stall/mid_ops_per_sec cell");
        let timeout_mid = t
            .get("timeout-10ms", "mid_ops_per_sec")
            .expect("timeout-10ms/mid_ops_per_sec cell");
        assert!(
            stall_mid < 0.1 * pre,
            "stall must choke the loop: {pre} → {stall_mid}"
        );
        assert!(
            timeout_mid > stall_mid,
            "deadlines must help: {stall_mid} vs {timeout_mid}"
        );
        assert_eq!(
            t.get("stall", "errors").expect("stall/errors cell"),
            0.0,
            "stalls are not errors"
        );
        assert!(
            t.get("timeout-10ms", "errors")
                .expect("timeout-10ms/errors cell")
                > 0.0,
            "timeouts are errors"
        );
    }

    #[test]
    fn failover_ranks_the_recovery_designs() {
        let t = failover_comparison(&profile());
        let cassandra = t
            .get("cassandra-rf2", "availability")
            .expect("cassandra-rf2/availability cell");
        let hbase = t
            .get("hbase", "availability")
            .expect("hbase/availability cell");
        let redis = t
            .get("redis", "availability")
            .expect("redis/availability cell");
        assert!(
            cassandra >= 0.99,
            "rf2 failover is near-instant: {cassandra}"
        );
        assert!(
            hbase < cassandra,
            "hbase pays detection + WAL replay: {hbase}"
        );
        assert!(
            redis < hbase,
            "redis loses the shard's data outright: {redis}"
        );
    }
}
