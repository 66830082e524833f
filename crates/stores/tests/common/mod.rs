//! The seven stores by name, for the integration tests that sweep them.
#![allow(dead_code)] // each test binary uses its own part

use apm_sim::{ClusterSpec, Engine};
use apm_stores::cassandra::{CassandraConfig, CassandraStore};
use apm_stores::hbase::HbaseStore;
use apm_stores::mongodb::MongoStore;
use apm_stores::mysql::MysqlStore;
use apm_stores::redis::RedisStore;
use apm_stores::routing::JedisHash;
use apm_stores::voldemort::VoldemortStore;
use apm_stores::voltdb::VoltDbStore;
use apm_stores::{DistributedStore, StoreCtx};

/// The paper's six stores, then the MongoDB extension. [`build`] also
/// knows `"cassandra rf=2"` and `"cassandra rf=3"`.
pub const STORES: [&str; 7] = [
    "cassandra",
    "hbase",
    "voldemort",
    "voltdb",
    "redis",
    "mysql",
    "mongodb",
];

/// Constructs the store called `name` over `ctx`.
pub fn build(name: &str, engine: &mut Engine, ctx: StoreCtx) -> Box<dyn DistributedStore> {
    let cassandra = |ctx, replication| {
        let config = CassandraConfig {
            replication,
            ..CassandraConfig::default()
        };
        Box::new(CassandraStore::new(ctx, config))
    };
    match name {
        "cassandra" => cassandra(ctx, 1),
        "cassandra rf=2" => cassandra(ctx, 2),
        "cassandra rf=3" => cassandra(ctx, 3),
        "hbase" => Box::new(HbaseStore::new(ctx, engine)),
        "voldemort" => Box::new(VoldemortStore::new(ctx, engine)),
        "voltdb" => Box::new(VoltDbStore::new(ctx, engine)),
        "redis" => Box::new(RedisStore::new(ctx, engine, JedisHash::Murmur)),
        "mysql" => Box::new(MysqlStore::new(ctx, engine)),
        "mongodb" => Box::new(MongoStore::new(ctx, engine)),
        other => panic!("no store called {other:?}"),
    }
}

/// A context of `nodes` nodes of `cluster` with the client fleet the
/// harness gives the store called `name` (Redis' is doubled, §5.1).
pub fn ctx_on(
    name: &str,
    engine: &mut Engine,
    cluster: ClusterSpec,
    nodes: u32,
    scale: f64,
) -> StoreCtx {
    let clients = match name {
        "redis" => RedisStore::client_machines(nodes),
        _ => StoreCtx::standard_client_machines(nodes),
    };
    StoreCtx::new(engine, cluster, nodes, clients, scale, 29)
}
