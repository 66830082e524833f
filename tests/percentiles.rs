//! Latency distribution sanity across the full stack: percentiles are
//! ordered, saturation produces heavy tails, throttling removes them.

use apm_repro::core::driver::Throttle;
use apm_repro::core::ops::OpKind;
use apm_repro::core::workload::Workload;
use apm_repro::harness::experiment::{run_point, ExperimentProfile, Scenario, StoreKind};
use apm_repro::sim::ClusterSpec;

#[test]
fn percentiles_are_monotone_for_every_store() {
    let profile = ExperimentProfile::test();
    for store in StoreKind::ALL {
        let point = run_point(
            store,
            ClusterSpec::cluster_m(),
            1,
            &Workload::rw(),
            &profile,
        );
        let h = point
            .result
            .stats
            .histogram(OpKind::Read)
            .expect("reads measured");
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(
            p50 <= p90 && p90 <= p99,
            "{}: {p50} {p90} {p99}",
            store.name()
        );
        assert!(
            h.min() <= p50 && p99 <= h.max(),
            "{}: bounds violated",
            store.name()
        );
    }
}

#[test]
fn saturated_tail_exceeds_median_and_throttling_compresses_it() {
    let profile = ExperimentProfile::test();
    let store = StoreKind::Cassandra;
    let max = run_point(store, ClusterSpec::cluster_m(), 2, &Workload::r(), &profile);
    let h_max = max.result.stats.histogram(OpKind::Read).unwrap();
    let saturated_spread = h_max.quantile(0.99) as f64 / h_max.quantile(0.5).max(1) as f64;

    let mut half = Scenario::new(store, ClusterSpec::cluster_m(), 2, &Workload::r(), &profile);
    half.config.client.throttle = Throttle::TargetOps(max.throughput() * 0.5);
    let half = half.run().result;
    let h_half = half.stats.histogram(OpKind::Read).unwrap();
    // §5.6: latencies collapse once the system is not saturated.
    assert!(
        h_half.mean() < h_max.mean() * 0.7,
        "throttled mean {} vs saturated {}",
        h_half.mean(),
        h_max.mean()
    );
    assert!(saturated_spread >= 1.0, "saturated p99 must be ≥ p50");
}

#[test]
fn voldemort_latency_is_tight_not_just_low() {
    // Fig 4's "stable" claim: the p99/p50 spread of the client-limited
    // store stays small because its servers never saturate.
    let profile = ExperimentProfile::test();
    let point = run_point(
        StoreKind::Voldemort,
        ClusterSpec::cluster_m(),
        4,
        &Workload::r(),
        &profile,
    );
    let h = point.result.stats.histogram(OpKind::Read).unwrap();
    let spread = h.quantile(0.99) as f64 / h.quantile(0.5).max(1) as f64;
    assert!(spread < 4.0, "voldemort spread too wide: {spread:.2}");
}
