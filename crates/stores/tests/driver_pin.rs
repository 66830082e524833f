//! Driver-level byte-neutrality pin for policy-free runs.
//!
//! Work on the closed-loop driver (merging the policy loop and the
//! policy-free loop, changing token layout or slot shape) must not move
//! a single reported number. End-to-end fingerprints catch that late;
//! this test catches it at the `run_benchmark` boundary: each of the
//! paper's six stores on 4 nodes, with `RunConfig::resilience: None`,
//! under the three shapes of policy-free traffic — maximum-throughput
//! RW, throttled R (the §5.6 path through `next_issue`), and RW with a
//! crash window, a 50 ms `op_deadline` and telemetry — FNV-1a over
//! everything the run reports (`BenchStats`, `issued`, `RunLedger`,
//! `Telemetry`, snap-encoded). The constants were captured on the commit
//! *before* the two drivers were merged (d46ae38).

use apm_core::driver::{ClientConfig, Throttle};
use apm_core::snap::{fnv1a64, SnapWriter};
use apm_core::workload::Workload;
use apm_sim::{ClusterSpec, Engine, FaultSchedule, SimDuration, SimTime};
use apm_stores::cassandra::{CassandraConfig, CassandraStore};
use apm_stores::hbase::HbaseStore;
use apm_stores::mysql::MysqlStore;
use apm_stores::redis::RedisStore;
use apm_stores::routing::JedisHash;
use apm_stores::runner::{run_benchmark, RunConfig};
use apm_stores::voldemort::VoldemortStore;
use apm_stores::voltdb::VoltDbStore;
use apm_stores::{DistributedStore, StoreCtx};

const NODES: u32 = 4;
const RECORDS_PER_NODE: u64 = 5_000;
const SCALE: f64 = 0.0005;

type Build = fn(&mut Engine) -> Box<dyn DistributedStore>;

fn ctx(engine: &mut Engine, client_machines: u32) -> StoreCtx {
    StoreCtx::new(
        engine,
        ClusterSpec::cluster_m(),
        NODES,
        client_machines,
        SCALE,
        29,
    )
}

fn standard(engine: &mut Engine) -> StoreCtx {
    ctx(engine, StoreCtx::standard_client_machines(NODES))
}

fn base(workload: Workload) -> RunConfig {
    RunConfig::new(
        workload,
        ClientConfig::cluster_m(NODES).with_window(0.2, 0.8),
        RECORDS_PER_NODE,
        NODES,
        0xD21F,
    )
}

/// (a) maximum-throughput RW, (b) throttled R, (c) RW under a crash
/// window with a client deadline and telemetry.
fn shapes() -> [RunConfig; 3] {
    let mut throttled = base(Workload::r());
    throttled.client = throttled.client.with_throttle(Throttle::TargetOps(8_000.0));
    let mut faulty = base(Workload::rw());
    faulty.faults = FaultSchedule::none().crash(1, SimTime(200_000_000), SimTime(500_000_000));
    faulty.op_deadline = Some(SimDuration::from_millis(50));
    faulty.telemetry_window_secs = Some(0.2);
    [base(Workload::rw()), throttled, faulty]
}

fn fingerprints(build: Build) -> [u64; 3] {
    shapes().map(|config| {
        let mut engine = Engine::new();
        let mut store = build(&mut engine);
        let r = run_benchmark(&mut engine, store.as_mut(), &config);
        let mut w = SnapWriter::new();
        w.put(&r.stats);
        w.put_u64(r.issued);
        w.put(&r.ledger);
        w.put(&r.telemetry);
        fnv1a64(w.bytes())
    })
}

/// The paper's six stores with the fingerprints of their three runs.
const PINS: [(&str, Build, [u64; 3]); 6] = [
    (
        "cassandra",
        |e| Box::new(CassandraStore::new(standard(e), CassandraConfig::default())),
        [
            0x66ac_1e5a_db63_2bf8,
            0xe2e0_78c7_c227_2f31,
            0x38fc_c88b_2aad_48a1,
        ],
    ),
    (
        "hbase",
        |e| Box::new(HbaseStore::new(standard(e), e)),
        [
            0x9199_3720_3a73_f561,
            0x3b12_89a5_5a51_dc9a,
            0x344f_1f43_9fa7_2de1,
        ],
    ),
    (
        "voldemort",
        |e| Box::new(VoldemortStore::new(standard(e), e)),
        [
            0x9146_37da_b40d_6853,
            0x6aaf_9579_ebea_47a5,
            0x5ec0_527e_2c3c_f135,
        ],
    ),
    (
        "voltdb",
        |e| Box::new(VoltDbStore::new(standard(e), e)),
        [
            0xdd47_c0cc_fbb6_8fd2,
            0xbff8_4643_4ec2_bfba,
            0x8fcf_2179_975b_c251,
        ],
    ),
    (
        "redis",
        |e| {
            let ctx = ctx(e, RedisStore::client_machines(NODES));
            Box::new(RedisStore::new(ctx, e, JedisHash::Murmur))
        },
        [
            0xf3bd_208f_cc0e_73c1,
            0xd041_4b29_6846_1183,
            0xd1c6_3fc6_4e27_b1ab,
        ],
    ),
    (
        "mysql",
        |e| Box::new(MysqlStore::new(standard(e), e)),
        [
            0x9ce1_8de9_cd5a_60cc,
            0x66b5_6ace_0859_faf4,
            0x79e5_58d3_2566_56e4,
        ],
    ),
];

#[test]
fn policy_free_runs_are_pinned() {
    let moved: Vec<String> = PINS
        .iter()
        .filter_map(|&(name, build, want)| {
            let got = fingerprints(build);
            (got != want).then(|| format!("{name}: got {got:016x?}, pinned {want:016x?}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "[max RW, throttled R, faulty RW] moved:\n{}",
        moved.join("\n")
    );
}
