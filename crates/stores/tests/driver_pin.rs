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
//! `audit` feature, are in every engine; the table is the one the `audit`
//! build pinned, not recaptured (f918e3a is the commit before). The span
//! tracer, once the `trace` feature and then a per-engine switch whose
//! ring every checkpoint carried, is an observer a checkpoint never
//! holds: an engine as `Engine::new()` makes it and a traced one are both
//! checked against that one table.
//!
//! The `… on D` rows of that table pin a buffer pool *under thrash*.
//! Everything else here runs on Cluster M at scale 0.0005, where no pool
//! ever evicts; the paged stores (MySQL, MongoDB, Voldemort) are run again
//! on Cluster D with 40 000 records a node — 98 / 117 / 104 frames under
//! trees of some 900 / 1 460 / 2 130 pages — and 20 s of a write-heavy mix
//! (3 206 / 5 109 / 9 932 ops), so checkpoint 0 holds a frame table and
//! clock hand shaped by evictions (27–38 k a node, nearly all of them
//! dirty write-backs) and, for Voldemort, the rng draw of every
//! write-path miss. Captured on 32da731, the commit before the three pool
//! walks became `PagedTree`'s one. Since container version 6 they no
//! longer pin the pool's `PoolStats` — an observer's counts, which a
//! checkpoint does not hold; `paged::tests` compares those directly.
//!
//! Container version 4 writes a generated record as its id, so every body
//! of that table was recaptured with it (2.9–6.8× shorter). What the
//! bodies hold did not move, and a third test says so without a
//! format-bound constant: each pinned checkpoint 0, resumed into a fresh
//! store, runs on to exactly the statistics, issued count and ledger of
//! its full run (added on 03bf0c7, the commit before the bump, where it
//! passed against the version-3 bodies).
//!
//! Container version 5 holds each fact of a run once, and every body of
//! that table was recaptured with it, each shorter by exactly what left
//! it: 89 bytes on a Cluster M row — the kernel section's second feature
//! byte (1), the kernel auditor's pop count (8), the policy state's copy
//! of the resilience counters (40) and the retry auditor's copy of two of
//! them (16), the telemetry sampler's window and warm-up end (16) and the
//! driver's measurement end (8) — and 73 on an `on D` row, which samples
//! no telemetry. Cassandra's row lost 8 more, its hint auditor's evidence
//! stream (an empty one: 17 bytes a queued hint and 25 a replay, none
//! before checkpoint 0). The resume test passed against the version-4
//! bodies on a53ee0d, the commit before the bump, and passes against
//! these.
//!
//! Container version 6 does the same for the storage engines, and the
//! seven rows it touches were recaptured with it, each shorter by exactly
//! what left it (counted on b5a351c, the commit before, by encoding the
//! removed fields of every checkpoint 0): a paged row loses its four
//! buffer pools' `PoolStats` (4 × 32 bytes), a Voldemort row also its
//! empty ledger of log-flush jobs (8); an LSM row loses, per tree, its
//! `LsmStats` (72) and memtable byte count (8) and, per sorted run, the
//! encoded bloom filter and block size — Cassandra's 24 runs 97 952 +
//! 192 bytes and its empty set of stream jobs (8), 98 472 in all; HBase's
//! 16 runs 53 696 + 128, 54 144 in all. Redis and VoltDB hold no LSM tree,
//! pool or job ledger, and their rows did not move. The resume test passed
//! against the version-5 bodies on b5a351c and passes against these.

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
/// body's length. Every engine writes the auditor sections; the auditors
/// were once the `audit` feature, and this is the table that build pinned
/// (`BODY_PINS_AUDIT`), renamed when the feature went and recaptured twice
/// since, for container versions 5 and 6 (module docs).
const BODY_PINS: [(&str, u64, usize); 9] = [
    ("cassandra", 0xbd69_c01f_4600_1c74, 1_234_098),
    ("redis", 0x7184_7967_bff8_c3b0, 693_447),
    ("voldemort", 0x3331_527e_da4c_2a62, 665_713),
    ("hbase", 0xa657_e6a6_709c_fb61, 544_399),
    ("mysql", 0x0c2d_0125_013b_5b52, 1_275_664),
    ("voltdb", 0xdcb4_0148_6bf3_61ca, 463_639),
    ("mysql on D", 0x0808_3c29_eae4_39c0, 1_819_401),
    ("mongodb on D", 0x2a94_8d37_e2e3_c202, 1_915_703),
    ("voldemort on D", 0x4deb_66f8_d33f_e471, 2_081_724),
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

/// One table, two engines: a traced engine's checkpoint holds no tracer,
/// so it is the untraced engine's byte for byte.
#[test]
fn checkpoint_bodies_are_pinned() {
    let moved: Vec<String> = [false, true]
        .into_iter()
        .flat_map(|trace| BODY_PINS.iter().map(move |&pin| (trace, pin)))
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
/// `Engine::new()`, runs on to exactly what the full run reported.
#[test]
fn every_pinned_checkpoint_resumes_to_the_full_run() {
    let drifted: Vec<&str> = BODY_PINS
        .iter()
        .map(|&(name, ..)| name)
        .filter(|&name| {
            let (store, cluster, config) = pinned_scenario(name);
            let full = run(store, cluster, &config);
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
            reported(&resumed) != reported(&full)
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "resumed from checkpoint 0, these runs report otherwise than in full: {drifted:?}"
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
