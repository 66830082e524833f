//! Plan-level byte-neutrality pin for the scan path.
//!
//! Host-time work on `plan_op` (count-only scans, the streaming merge
//! cursor) must not move a single simulated number. End-to-end
//! fingerprints catch that late; this test catches it at the planner
//! boundary: 2 000 seeded Workload-RS ops per scanning store on a loaded
//! 4-node cluster, FNV-1a over every `(OpOutcome, Plan)` the store hands
//! back. The constants were captured on the commit *before* the scan path
//! was rewritten (0193663); a change here means outcomes, receipts, page
//! traces or buffer-pool replays moved.

use apm_core::ops::{OpOutcome, Operation};
use apm_core::workload::{Workload, WorkloadGenerator};
use apm_sim::{ClusterSpec, Engine};
use apm_stores::cassandra::{CassandraConfig, CassandraStore};
use apm_stores::hashes::fnv1a64;
use apm_stores::hbase::HbaseStore;
use apm_stores::mongodb::MongoStore;
use apm_stores::mysql::MysqlStore;
use apm_stores::redis::RedisStore;
use apm_stores::routing::JedisHash;
use apm_stores::voltdb::VoltDbStore;
use apm_stores::{DistributedStore, StoreCtx};

const NODES: u32 = 4;
const RECORDS: u64 = 40_000;
const OPS: usize = 2_000;
const SCALE: f64 = 0.001;

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

/// Loads the store, drives `OPS` seeded RS ops through `plan_op`, and
/// returns (fingerprint, scans seen, rows scanned).
fn drive(store: &mut dyn DistributedStore, engine: &mut Engine) -> (u64, usize, usize) {
    for record in WorkloadGenerator::load_sequence(RECORDS) {
        store.load(&record);
    }
    store.finish_load();
    let mut generator = WorkloadGenerator::new(Workload::rs(), RECORDS, 0x5CA9);
    let (mut fp, mut scans, mut rows) = (0u64, 0usize, 0usize);
    for i in 0..OPS {
        let op = generator.next_op();
        let (outcome, plan) = store.plan_op(i as u32 % 64, &op, engine);
        if matches!(op, Operation::Insert { .. }) && outcome == OpOutcome::Done {
            generator.ack_insert();
        }
        if let OpOutcome::Scanned(n) = outcome {
            scans += 1;
            rows += n;
        }
        fp = fnv1a64(format!("{fp:016x}|{outcome:?}|{plan:?}").as_bytes());
    }
    (fp, scans, rows)
}

fn check(name: &str, got: (u64, usize, usize), want: (u64, usize, usize)) {
    assert_eq!(
        got, want,
        "{name}: (fingerprint, scans, rows) = ({:#018x}, {}, {}), pinned ({:#018x}, {}, {})",
        got.0, got.1, got.2, want.0, want.1, want.2
    );
}

#[test]
fn cassandra_rs_plans_are_pinned() {
    let mut engine = Engine::new();
    let ctx = ctx(&mut engine, StoreCtx::standard_client_machines(NODES));
    let mut store = CassandraStore::new(ctx, CassandraConfig::default());
    check("cassandra", drive(&mut store, &mut engine), CASSANDRA);
}

#[test]
fn hbase_rs_plans_are_pinned() {
    let mut engine = Engine::new();
    let ctx = ctx(&mut engine, StoreCtx::standard_client_machines(NODES));
    let mut store = HbaseStore::new(ctx, &mut engine);
    check("hbase", drive(&mut store, &mut engine), HBASE);
}

#[test]
fn voltdb_rs_plans_are_pinned() {
    let mut engine = Engine::new();
    let ctx = ctx(&mut engine, StoreCtx::standard_client_machines(NODES));
    let mut store = VoltDbStore::new(ctx, &mut engine);
    check("voltdb", drive(&mut store, &mut engine), VOLTDB);
}

#[test]
fn redis_rs_plans_are_pinned() {
    let mut engine = Engine::new();
    let ctx = ctx(&mut engine, RedisStore::client_machines(NODES));
    let mut store = RedisStore::new(ctx, &mut engine, JedisHash::Murmur);
    check("redis", drive(&mut store, &mut engine), REDIS);
}

#[test]
fn mysql_rs_plans_are_pinned() {
    let mut engine = Engine::new();
    let ctx = ctx(&mut engine, StoreCtx::standard_client_machines(NODES));
    let mut store = MysqlStore::new(ctx, &mut engine);
    check("mysql", drive(&mut store, &mut engine), MYSQL);
}

#[test]
fn mongodb_rs_plans_are_pinned() {
    let mut engine = Engine::new();
    let ctx = ctx(&mut engine, StoreCtx::standard_client_machines(NODES));
    let mut store = MongoStore::new(ctx, &mut engine);
    check("mongodb", drive(&mut store, &mut engine), MONGODB);
}

const CASSANDRA: (u64, usize, usize) = (0xcd2b_9637_d852_d13c, 883, 44_102);
const HBASE: (u64, usize, usize) = (0xae0e_85aa_37db_f4ec, 883, 44_098);
const VOLTDB: (u64, usize, usize) = (0xf33a_033b_c973_e404, 883, 44_150);
const REDIS: (u64, usize, usize) = (0x91e1_fdd7_0541_1450, 883, 44_150);
const MYSQL: (u64, usize, usize) = (0x7837_b0dc_8214_d3da, 883, 44_150);
const MONGODB: (u64, usize, usize) = (0xfb44_de2e_5e9e_6192, 883, 44_097);
