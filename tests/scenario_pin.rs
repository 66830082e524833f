//! Point-level byte-neutrality pin: what a [`Scenario`] builds and
//! reports for each of the six stores.
//!
//! `Scenario` is the one value that *is* a benchmark point; it must keep
//! building exactly the run `run_point` built before it existed. Per
//! store: the `config_fingerprint` of the configuration handed to the
//! driver (4 nodes, Cluster M, workload RW, test profile) and the run's
//! `RunResult::results_fingerprint` — FNV-1a over everything the run
//! reports, snap-encoded. Captured on the commit
//! *before* the cutover (81a1572), from `run_point` and a spelled-out
//! `RunConfig` literal. The config fingerprints hash the config's
//! `Debug`, so they were captured again when `OpMix` lost its update
//! share; the result fingerprints did not move.

use apm_repro::core::driver::ClientConfig;
use apm_repro::core::workload::Workload;
use apm_repro::harness::experiment::{run_point, ExperimentProfile, Scenario, StoreKind};
use apm_repro::sim::ClusterSpec;
use apm_repro::stores::redis::RedisStore;
use apm_repro::stores::runner::config_fingerprint;
use apm_repro::stores::StoreCtx;

const NODES: u32 = 4;

/// `(store, config fingerprint, result fingerprint)`.
const PINS: [(StoreKind, u64, u64); 6] = [
    (
        StoreKind::Cassandra,
        0x316b_0e61_70b7_a443,
        0xbf85_1d5d_6b49_9369,
    ),
    (
        StoreKind::HBase,
        0x2b59_de62_74b6_4bd2,
        0xc879_51a0_7d84_db2b,
    ),
    (
        StoreKind::Voldemort,
        0xf3e5_e9c4_19d1_02c1,
        0x0a1c_369c_5f0f_c3ce,
    ),
    (
        StoreKind::VoltDb,
        0xbe92_13d4_adeb_99a8,
        0x3894_9d35_9d94_c3f2,
    ),
    (
        StoreKind::Redis,
        0xac75_cd04_c592_59cc,
        0x9b94_d631_f4ed_3768,
    ),
    (
        StoreKind::Mysql,
        0x1fc7_d432_e099_1ceb,
        0xcd17_85cc_e2a7_a853,
    ),
];

#[test]
fn scenario_and_run_point_are_pinned_for_every_store() {
    let profile = ExperimentProfile::test();
    let workload = Workload::rw();
    let moved: Vec<String> = PINS
        .iter()
        .filter_map(|&(kind, want_config, want_result)| {
            let scenario =
                Scenario::new(kind, ClusterSpec::cluster_m(), NODES, &workload, &profile);
            let got_config = config_fingerprint(kind.name(), &scenario.config);
            let got_result = scenario.run().result.results_fingerprint();
            let point = run_point(kind, ClusterSpec::cluster_m(), NODES, &workload, &profile);
            assert_eq!(
                point.result.results_fingerprint(),
                got_result,
                "{kind:?}: run_point is no longer Scenario::run"
            );
            ((got_config, got_result) != (want_config, want_result))
                .then(|| format!("(StoreKind::{kind:?}, {got_config:#018x}, {got_result:#018x}),"))
        })
        .collect();
    assert!(moved.is_empty(), "points moved:\n{}", moved.join("\n"));
}

#[test]
fn scenario_owns_the_per_cluster_and_per_store_rules() {
    let profile = ExperimentProfile::test();
    let w = Workload::r();
    let window = |c: ClientConfig| c.with_window(profile.warmup_secs, profile.measure_secs);
    let m = Scenario::new(StoreKind::HBase, ClusterSpec::cluster_m(), 8, &w, &profile);
    let d = Scenario::new(StoreKind::HBase, ClusterSpec::cluster_d(), 8, &w, &profile);
    assert_eq!(m.config.client, window(ClientConfig::cluster_m(8)));
    assert_eq!(d.config.client, window(ClientConfig::cluster_d(8)));
    assert_eq!(
        (d.scale, d.config.seed, d.config.records_per_node),
        (profile.scale, profile.seed, profile.records_per_node())
    );
    // §5.1: Redis alone doubles its client fleet.
    for kind in StoreKind::ALL {
        let (_, store) = Scenario::new(kind, ClusterSpec::cluster_m(), 8, &w, &profile).build();
        let want = match kind {
            StoreKind::Redis => RedisStore::client_machines(8),
            _ => StoreCtx::standard_client_machines(8),
        };
        assert_eq!(store.ctx().clients.len() as u32, want, "{kind:?}");
    }
}
