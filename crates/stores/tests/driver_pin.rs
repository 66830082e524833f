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
//! codecs were generated from one field list. The auditors, once the
//! `audit` feature, are in every engine, and the span tracer, once the
//! `trace` feature, is switched on per engine: one build checks an engine
//! as `Engine::new()` makes it against the table the `audit` build pinned
//! and a traced one against the table `trace` and `audit` together
//! pinned, neither recaptured (f918e3a and ad9d4d6 are the commits
//! before).
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
//!
//! Container version 4 writes a generated record as its id, so every body
//! of that table was recaptured with it (2.9–6.8× shorter without `trace`). What
//! the bodies hold did not move, and a third test says so without a
//! format-bound constant: each pinned checkpoint 0, resumed into a fresh
//! store, runs on to exactly the statistics, issued count and ledger of
//! its full run (added on 03bf0c7, the commit before the bump, where it
//! passed against the version-3 bodies) — a traced one resumed into an
//! untraced engine, to its full run's trace fingerprint too.

mod common;

use apm_core::driver::{ClientConfig, Throttle};
use apm_core::snap::{self, fnv1a64, SnapWriter};
use apm_core::workload::Workload;
use apm_sim::{ClusterSpec, Engine, FaultSchedule, SimDuration, SimTime};
use apm_stores::resilience::{AdmissionPolicy, BreakerPolicy, HedgePolicy, RetryPolicy};
use apm_stores::runner::{resume_benchmark, run_benchmark, CheckpointSpec, RunConfig, RunResult};
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
    run_on(&mut Engine::new(), name, cluster, config)
}

/// [`run`] on `engine`, which may have its tracer on.
fn run_on(engine: &mut Engine, name: &str, cluster: ClusterSpec, config: &RunConfig) -> RunResult {
    let ctx = common::ctx_on(name, engine, cluster, NODES, SCALE);
    let mut store = common::build(name, engine, ctx);
    run_benchmark(engine, store.as_mut(), config)
}

/// A fresh engine, its span tracer on when `trace` is.
fn engine(trace: bool) -> Engine {
    let mut engine = Engine::new();
    if trace {
        engine.enable_trace();
    }
    engine
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
/// checkpointed every 0.2 s — or, `on D`, of [`thrashing_config`] — and the
/// body's length; one table for an untraced engine and one for a traced
/// one, because a checkpoint also carries the observers' state: every
/// engine writes the auditor sections, a traced one adds the tracer's ring
/// buffer (~1.46 MB a checkpoint). The auditors and the tracer were once
/// the `audit` and `trace` features; these are the tables the `audit`
/// build and the `trace` + `audit` build pinned (`BODY_PINS_AUDIT` and
/// `BODY_PINS_TRACE_AUDIT`), renamed when the features went, no constant
/// recaptured.
type BodyPins = [(&'static str, u64, usize); 9];

const BODY_PINS: BodyPins = [
    ("cassandra", 0x161b_f0ff_b7d3_42eb, 1_332_667),
    ("redis", 0x033f_b1ef_862b_5c18, 693_536),
    ("voldemort", 0xc895_ce0c_5980_6584, 665_938),
    ("hbase", 0xd80b_3515_ce8f_6772, 598_632),
    ("mysql", 0xd527_58da_dd77_849c, 1_275_881),
    ("voltdb", 0x8d03_3110_7242_547d, 463_728),
    ("mysql on D", 0xb4db_5f27_ded5_27d8, 1_819_602),
    ("mongodb on D", 0x821f_0550_5c2f_62e8, 1_915_904),
    ("voldemort on D", 0xefd9_8e86_69f9_8b13, 2_081_933),
];

const BODY_PINS_TRACE: BodyPins = [
    ("cassandra", 0x995a_7a90_bb5d_bec3, 2_799_451),
    ("redis", 0x2cb2_e822_3b8c_eaff, 2_152_460),
    ("voldemort", 0x83c6_2155_7b92_d361, 2_120_946),
    ("hbase", 0x38ef_3118_ac47_ab2a, 2_020_656),
    ("mysql", 0xc456_339c_f0c1_5401, 2_742_677),
    ("voltdb", 0x46b9_d950_0fbe_03b4, 1_927_508),
    ("mysql on D", 0x472e_3e41_95c5_56d2, 3_311_098),
    ("mongodb on D", 0xe216_718f_24fa_3f5a, 3_397_512),
    ("voldemort on D", 0x1ab2_bb1d_255d_c43f, 3_559_361),
];

/// `store` on Cluster D, its trees 9–20× their pools, checkpointed 20 s
/// into Workload RSW — RW for Voldemort, which plans no scan.
fn thrashing_config(store: &str) -> RunConfig {
    let workload = match store {
        "voldemort" => Workload::rw(),
        _ => Workload::rsw(),
    };
    let client = ClientConfig::cluster_d(NODES).with_window(0.5, 20.5);
    let mut config = RunConfig::new(workload, client, 40_000, NODES, 0xD21F);
    config.checkpoints = Some(CheckpointSpec::every(20.0));
    config
}

/// The store, cluster and config of the body-pin row called `name`:
/// shape (d) checkpointed every 0.2 s on Cluster M, or [`thrashing_config`].
fn pinned_scenario(name: &str) -> (&str, ClusterSpec, RunConfig) {
    match name.strip_suffix(" on D") {
        Some(store) => (store, ClusterSpec::cluster_d(), thrashing_config(store)),
        None => {
            let [.., mut resilient] = shapes();
            resilient.checkpoints = Some(CheckpointSpec::every(0.2));
            (name, ClusterSpec::cluster_m(), resilient)
        }
    }
}

/// The two tables: `BODY_PINS` for an untraced engine, `BODY_PINS_TRACE`
/// for a traced one.
const TABLES: [(bool, &BodyPins); 2] = [(false, &BODY_PINS), (true, &BODY_PINS_TRACE)];

#[test]
fn checkpoint_bodies_are_pinned() {
    let moved: Vec<String> = TABLES
        .iter()
        .flat_map(|&(trace, pins)| pins.iter().map(move |&pin| (trace, pin)))
        .filter_map(|(trace, (name, want, want_len))| {
            let (store, cluster, config) = pinned_scenario(name);
            let r = run_on(&mut engine(trace), store, cluster, &config);
            let (_, body) = snap::open(&r.checkpoints[0].bytes).expect("own checkpoint opens");
            let (got, len) = (fnv1a64(body), body.len());
            ((got, len) != (want, want_len)).then(|| {
                format!(
                    "{name} (traced: {trace}): got {got:#018x} over {len} bytes, \
                     pinned {want:#018x} over {want_len}"
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

/// What a run reports, snap-encoded: statistics, issued count, ledger.
fn reported(r: &RunResult) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(&r.stats);
    w.put_u64(r.issued);
    w.put(&r.ledger);
    w.into_bytes()
}

/// The safety net under the body pins that no format change moves: each
/// pinned checkpoint 0, restored into a freshly constructed store over
/// `Engine::new()`, runs on to exactly what the full run reported — and a
/// traced one, which resumes traced, to the full run's trace fingerprint.
#[test]
fn every_pinned_checkpoint_resumes_to_the_full_run() {
    let drifted: Vec<(&str, bool)> = TABLES
        .iter()
        .flat_map(|&(trace, pins)| pins.iter().map(move |&(name, ..)| (name, trace)))
        .filter(|&(name, trace)| {
            let (store, cluster, config) = pinned_scenario(name);
            let mut full_engine = engine(trace);
            let full = run_on(&mut full_engine, store, cluster, &config);
            let mut engine = Engine::new();
            let ctx = common::ctx_on(store, &mut engine, cluster, NODES, SCALE);
            let mut fresh = common::build(store, &mut engine, ctx);
            let resumed = resume_benchmark(
                &mut engine,
                fresh.as_mut(),
                &config,
                &full.checkpoints[0].bytes,
            )
            .expect("own checkpoint resumes");
            let traced = |e: &Engine| e.tracer().map(|t| t.fingerprint());
            reported(&resumed) != reported(&full) || traced(&engine) != traced(&full_engine)
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "resumed from checkpoint 0, these (store, traced) runs report otherwise than in full: \
         {drifted:?}"
    );
}

/// Container version 4 spends its bytes on what a store holds beyond its
/// generated records: a freshly loaded store's section of checkpoint 0 is
/// under 16 bytes a record (about 77 when every record was written out).
/// A container that stopped going through the record codec — raw key
/// bytes, a hand-rolled walk — would put this back over 75.
#[test]
fn a_loaded_store_checkpoints_in_under_16_bytes_a_record() {
    let records = u64::from(NODES) * RECORDS_PER_NODE;
    let per_record: Vec<(&str, f64)> = ["cassandra", "redis", "voldemort"]
        .into_iter()
        .map(|name| {
            let mut engine = Engine::new();
            let ctx = common::ctx_on(name, &mut engine, ClusterSpec::cluster_m(), NODES, SCALE);
            let mut store = common::build(name, &mut engine, ctx);
            store.load_range(0..records);
            store.finish_load();
            let mut w = SnapWriter::new();
            store.snap_state(&mut w);
            (name, w.len() as f64 / records as f64)
        })
        .collect();
    assert!(
        per_record.iter().all(|&(_, bytes)| bytes < 16.0),
        "store bytes a loaded record: {per_record:?}"
    );
}
