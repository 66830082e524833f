//! Point-level byte-neutrality pin: what a [`Scenario`] builds and
//! reports for each of the six stores.
//!
//! `Scenario` is the one value that *is* a benchmark point; it must keep
//! building exactly the run `run_point` built before it existed. Per
//! store: the `config_fingerprint` of the configuration handed to the
//! driver (4 nodes, Cluster M, workload RW, test profile) and FNV-1a
//! over everything the run reports, snap-encoded. Captured on the commit
//! *before* the cutover (81a1572), from `run_point` and a spelled-out
//! `RunConfig` literal.

use apm_repro::core::driver::ClientConfig;
use apm_repro::core::snap::{fnv1a64, SnapWriter};
use apm_repro::core::workload::Workload;
use apm_repro::harness::experiment::{run_point, ExperimentProfile, Scenario, StoreKind};
use apm_repro::sim::ClusterSpec;
use apm_repro::stores::redis::RedisStore;
use apm_repro::stores::runner::{config_fingerprint, RunResult};
use apm_repro::stores::StoreCtx;

const NODES: u32 = 4;

fn result_fingerprint(r: &RunResult) -> u64 {
    let mut w = SnapWriter::new();
    w.put(&r.stats);
    w.put_u64(r.issued);
    w.put(&r.disk_bytes_per_node);
    w.put(&r.telemetry);
    w.put(&r.ledger);
    fnv1a64(w.bytes())
}

/// `(store, config fingerprint, result fingerprint)`.
const PINS: [(StoreKind, u64, u64); 6] = [
    (
        StoreKind::Cassandra,
        0xbd06_7734_bbe1_9c64,
        0xbf85_1d5d_6b49_9369,
    ),
    (
        StoreKind::HBase,
        0x6073_875d_401b_f013,
        0xc879_51a0_7d84_db2b,
    ),
    (
        StoreKind::Voldemort,
        0x4bc5_e292_11eb_437a,
        0x0a1c_369c_5f0f_c3ce,
    ),
    (
        StoreKind::VoltDb,
        0x8051_18e0_b2af_9b69,
        0x3894_9d35_9d94_c3f2,
    ),
    (
        StoreKind::Redis,
        0x364d_bf2c_5793_239d,
        0x9b94_d631_f4ed_3768,
    ),
    (
        StoreKind::Mysql,
        0x4ea2_3e47_745a_b1ec,
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
            let got_result = result_fingerprint(&scenario.run().result);
            let point = run_point(kind, ClusterSpec::cluster_m(), NODES, &workload, &profile);
            assert_eq!(
                result_fingerprint(&point.result),
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
