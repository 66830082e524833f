//! Driver-level byte-neutrality pin.
//!
//! Work on the closed-loop driver (merging the policy loop and the
//! policy-free loop, changing token layout or slot shape, how it spells
//! its own plans) must not move a single reported number. End-to-end
//! fingerprints catch that late; this test catches it at the
//! `run_benchmark` boundary: each of the paper's six stores on 4 nodes
//! under the three shapes of policy-free traffic (`RunConfig::resilience:
//! None`) — maximum-throughput RW, throttled R (the §5.6 path through
//! `next_issue`), and RW with a crash window, a 50 ms `op_deadline` and
//! telemetry — and that last shape again with every policy component on,
//! so the driver's own plans (the hedge trigger armed with each read, the
//! breaker's shed plan) run. FNV-1a over everything the run reports
//! (`BenchStats`, `issued`, `RunLedger`, `Telemetry`, snap-encoded). The
//! policy-free constants were captured on the commit *before* the two
//! drivers were merged (d46ae38), the fourth on the commit before the
//! driver's plans went through `PlanBuilder` (7b2de44).
//!
//! A second table pins what a checkpoint *holds*: FNV-1a over the body
//! (`snap::open(..).1` — store, kernel and driver state, container
//! envelope excluded) of checkpoint 0 of shape (d) for each of the six
//! stores. Cassandra, Redis and Voldemort were captured on the commit
//! before the container went to version 3 (31f4d39). Work on the envelope
//! — how a checkpoint is buffered, sealed and checksummed — must leave
//! every body byte alone. The feature-on triples were captured on bf8e6f3,
//! the commit before the load phase went to one node at a time; HBase,
//! MySQL and VoltDB (`PartitionTable`, the HDFS / region state,
//! `PagedTree`) under every feature set on 356f657, the commit before the
//! codecs were generated from one field list.
//!
//! The `… on D` rows of that table pin a buffer pool *under thrash*.
//! Everything else here runs on Cluster M at scale 0.0005, where no pool
//! ever evicts; the paged stores (MySQL, MongoDB, Voldemort) are run again
//! on Cluster D with 40 000 records a node — 98 / 117 / 104 frames under
//! trees of some 900 / 1 460 / 2 130 pages — and 20 s of a write-heavy mix
//! (3 206 / 5 109 / 9 932 ops), so checkpoint 0 holds a frame table, clock
//! hand and `PoolStats` shaped by evictions (27–38 k a node, nearly all of
//! them dirty write-backs) and, for Voldemort, the rng draw of every
//! write-path miss. Captured on 32da731, the commit before the three pool
//! walks became `PagedTree`'s one.

mod common;

use apm_core::driver::{ClientConfig, Throttle};
use apm_core::snap::{self, fnv1a64, SnapWriter};
use apm_core::workload::Workload;
use apm_sim::{ClusterSpec, Engine, FaultSchedule, SimDuration, SimTime};
use apm_stores::resilience::{AdmissionPolicy, BreakerPolicy, HedgePolicy, RetryPolicy};
use apm_stores::runner::{run_benchmark, CheckpointSpec, RunConfig, RunResult};
use apm_stores::ResiliencePolicy;

const NODES: u32 = 4;
const RECORDS_PER_NODE: u64 = 5_000;
const SCALE: f64 = 0.0005;

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
/// window with a client deadline and telemetry, (d) as (c) with retries,
/// hedged reads, circuit breaking and admission control.
fn shapes() -> [RunConfig; 4] {
    let mut throttled = base(Workload::r());
    throttled.client = throttled.client.with_throttle(Throttle::TargetOps(8_000.0));
    let mut faulty = base(Workload::rw());
    faulty.faults = FaultSchedule::none().crash(1, SimTime(200_000_000), SimTime(500_000_000));
    faulty.op_deadline = Some(SimDuration::from_millis(50));
    faulty.telemetry_window_secs = Some(0.2);
    let mut resilient = faulty.clone();
    resilient.resilience = Some(ResiliencePolicy {
        retry: Some(RetryPolicy::standard()),
        hedge: Some(HedgePolicy::standard()),
        breaker: Some(BreakerPolicy::standard()),
        admission: Some(AdmissionPolicy::standard()),
    });
    [base(Workload::rw()), throttled, faulty, resilient]
}

fn run(name: &str, cluster: ClusterSpec, config: &RunConfig) -> RunResult {
    let mut engine = Engine::new();
    let ctx = common::ctx_on(name, &mut engine, cluster, NODES, SCALE);
    let mut store = common::build(name, &mut engine, ctx);
    run_benchmark(&mut engine, store.as_mut(), config)
}

fn fingerprints(name: &str) -> [u64; 4] {
    shapes().map(|config| {
        let r = run(name, ClusterSpec::cluster_m(), &config);
        let mut w = SnapWriter::new();
        w.put(&r.stats);
        w.put_u64(r.issued);
        w.put(&r.ledger);
        w.put(&r.telemetry);
        fnv1a64(w.bytes())
    })
}

/// The paper's six stores with the fingerprints of their four runs.
const PINS: [(&str, [u64; 4]); 6] = [
    (
        "cassandra",
        [
            0x66ac_1e5a_db63_2bf8,
            0xe2e0_78c7_c227_2f31,
            0x38fc_c88b_2aad_48a1,
            0xe03d_a298_3928_630a,
        ],
    ),
    (
        "hbase",
        [
            0x9199_3720_3a73_f561,
            0x3b12_89a5_5a51_dc9a,
            0x344f_1f43_9fa7_2de1,
            0x25dd_c029_21c8_d287,
        ],
    ),
    (
        "voldemort",
        [
            0x9146_37da_b40d_6853,
            0x6aaf_9579_ebea_47a5,
            0x5ec0_527e_2c3c_f135,
            0x5278_0f87_2b61_1505,
        ],
    ),
    (
        "voltdb",
        [
            0xdd47_c0cc_fbb6_8fd2,
            0xbff8_4643_4ec2_bfba,
            0x8fcf_2179_975b_c251,
            0x3621_b381_83ce_ef58,
        ],
    ),
    (
        "redis",
        [
            0xf3bd_208f_cc0e_73c1,
            0xd041_4b29_6846_1183,
            0xd1c6_3fc6_4e27_b1ab,
            0x5f02_4ca4_e2c2_7d49,
        ],
    ),
    (
        "mysql",
        [
            0x9ce1_8de9_cd5a_60cc,
            0x66b5_6ace_0859_faf4,
            0x79e5_58d3_2566_56e4,
            0x7b3c_ff96_70f0_8f98,
        ],
    ),
];

#[test]
fn policy_free_runs_are_pinned() {
    let moved: Vec<String> = PINS
        .iter()
        .filter_map(|&(name, want)| {
            let got = fingerprints(name);
            (got != want).then(|| format!("{name}: got {got:016x?}, pinned {want:016x?}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "[max RW, throttled R, faulty RW, resilient faulty RW] moved:\n{}",
        moved.join("\n")
    );
}

/// Stores with the FNV-1a of the body of checkpoint 0 of shape (d),
/// checkpointed every 0.2 s — or, `on D`, of [`thrashing`] — and the
/// body's length; one triple per
/// feature set, because a checkpoint also carries the observers' state:
/// `audit` adds the auditor sections, `trace` the tracer's ring buffer
/// (~1.46 MB a checkpoint). CI tests the default set and `trace,audit`.
type BodyPins = [(&'static str, u64, usize); 9];

const BODY_PINS: BodyPins = [
    ("cassandra", 0x3384_e815_1d98_77eb, 4_036_027),
    ("redis", 0xcf9a_f41a_8750_b33d, 1_995_151),
    ("voldemort", 0x8fd8_23fa_01ab_c9c7, 2_601_976),
    ("hbase", 0xf285_1bd7_71f0_bbe2, 2_168_076),
    ("mysql", 0xd10d_370e_1d1a_a910, 4_004_621),
    ("voltdb", 0x637c_24a8_c124_b5ce, 1_963_619),
    ("mysql on D", 0x8ebd_8f2a_215d_1a8a, 12_380_962),
    ("mongodb on D", 0x0170_f101_ad11_58d3, 12_573_470),
    ("voldemort on D", 0x3565_0bfa_3cab_4baa, 12_933_969),
];

const BODY_PINS_AUDIT: BodyPins = [
    ("cassandra", 0xfbdc_6aa4_87c6_ada9, 4_036_116),
    ("redis", 0x0554_7581_e857_31d8, 1_995_216),
    ("voldemort", 0xc484_f923_65b1_8e22, 2_602_041),
    ("hbase", 0x8206_c656_c266_2887, 2_168_141),
    ("mysql", 0x0e0f_d2d3_25eb_70c9, 4_004_686),
    ("voltdb", 0xa5b2_e82b_b738_192c, 1_963_684),
    ("mysql on D", 0xc6c0_10b8_9245_438e, 12_381_027),
    ("mongodb on D", 0x911d_a0f8_1d14_0ea7, 12_573_535),
    ("voldemort on D", 0x5574_e705_70cb_9552, 12_934_034),
];

const BODY_PINS_TRACE: BodyPins = [
    ("cassandra", 0x3d63_d866_97e3_7067, 5_502_811),
    ("redis", 0x6502_7368_822e_0346, 3_454_075),
    ("voldemort", 0x34ea_fd94_3127_8a4e, 4_056_984),
    ("hbase", 0x110a_55a5_3b53_5596, 3_590_100),
    ("mysql", 0x7f74_87bd_fc48_a49f, 5_471_417),
    ("voltdb", 0x6a32_d880_4eed_e84d, 3_427_399),
    ("mysql on D", 0x7a2e_3033_14f5_0834, 13_872_458),
    ("mongodb on D", 0x4f64_a483_2e6a_5979, 14_055_078),
    ("voldemort on D", 0x829b_8b01_4730_f8de, 14_411_397),
];

const BODY_PINS_TRACE_AUDIT: BodyPins = [
    ("cassandra", 0x3704_9a45_e3a4_458d, 5_502_900),
    ("redis", 0x04a7_6b6a_78b7_1f57, 3_454_140),
    ("voldemort", 0x9972_15f0_cfa8_31a3, 4_057_049),
    ("hbase", 0x03fb_7daf_6d11_91cf, 3_590_165),
    ("mysql", 0x073b_73da_3996_98de, 5_471_482),
    ("voltdb", 0xf794_650e_cbc2_f35f, 3_427_464),
    ("mysql on D", 0xfe32_d04c_8eaf_c7b0, 13_872_523),
    ("mongodb on D", 0x9ee7_3c9a_6cd6_45a5, 14_055_143),
    ("voldemort on D", 0x1a96_ad94_55e6_82ea, 14_411_462),
];

fn body_pins() -> &'static BodyPins {
    match (cfg!(feature = "trace"), cfg!(feature = "audit")) {
        (false, false) => &BODY_PINS,
        (false, true) => &BODY_PINS_AUDIT,
        (true, false) => &BODY_PINS_TRACE,
        (true, true) => &BODY_PINS_TRACE_AUDIT,
    }
}

/// `store` on Cluster D, its trees 9–20× their pools, checkpointed 20 s
/// into Workload RSW — RW for Voldemort, which plans no scan.
fn thrashing(store: &str) -> RunResult {
    let workload = match store {
        "voldemort" => Workload::rw(),
        _ => Workload::rsw(),
    };
    let client = ClientConfig::cluster_d(NODES).with_window(0.5, 20.5);
    let mut config = RunConfig::new(workload, client, 40_000, NODES, 0xD21F);
    config.checkpoints = Some(CheckpointSpec::every(20.0));
    run(store, ClusterSpec::cluster_d(), &config)
}

#[test]
fn checkpoint_bodies_are_pinned() {
    let [.., mut resilient] = shapes();
    resilient.checkpoints = Some(CheckpointSpec::every(0.2));
    let moved: Vec<String> = body_pins()
        .iter()
        .filter_map(|&(name, want, want_len)| {
            let r = match name.strip_suffix(" on D") {
                Some(store) => thrashing(store),
                None => run(name, ClusterSpec::cluster_m(), &resilient),
            };
            let (_, body) = snap::open(&r.checkpoints[0].bytes).expect("own checkpoint opens");
            let (got, len) = (fnv1a64(body), body.len());
            ((got, len) != (want, want_len)).then(|| {
                format!(
                    "{name}: got {got:#018x} over {len} bytes, pinned {want:#018x} over {want_len}"
                )
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "checkpoint 0 bodies moved:\n{}",
        moved.join("\n")
    );
}
