//! # apm-stores
//!
//! The six store architectures the paper benchmarks, rebuilt over the
//! real engines of `apm-storage` and the cluster simulator of `apm-sim`:
//!
//! | Module | Paper system | Architecture class (Cattell) |
//! |---|---|---|
//! | [`cassandra`] | Apache Cassandra 1.0.0-rc2 | extensible record store |
//! | [`hbase`] | Apache HBase 0.90.4 + HDFS | extensible record store |
//! | [`voldemort`] | Project Voldemort 0.90.1 + BerkeleyDB | key-value store |
//! | [`redis`] | Redis 2.4.2 + Jedis sharding | key-value store |
//! | [`voltdb`] | VoltDB 2.1.3 | scalable relational store |
//! | [`mysql`] | MySQL 5.5.17 InnoDB, client-sharded | scalable relational store |
//!
//! A seventh store, [`mongodb`], implements the document-store class the
//! paper considered and excluded (§4) — used by the `ext-mongodb`
//! experiment to extend the tested architectures per §8's future work.
//!
//! Every store implements [`api::DistributedStore`]: it owns real
//! per-node engines, routes operations through its (faithfully modelled)
//! client-side routing layer, and emits a simulator [`apm_sim::Plan`]
//! describing the operation's physical footprint. The closed-loop
//! benchmark driver lives in [`runner`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::wildcard_enum_match_arm))]

pub mod api;
pub mod audit;
pub mod cache;
pub mod cassandra;
pub mod hashes;
pub mod hbase;
pub mod hdfs;
pub mod mongodb;
pub mod mysql;
pub mod redis;
pub mod resilience;
pub mod routing;
pub mod runner;
pub mod voldemort;
pub mod voltdb;

pub use api::{DistributedStore, StoreCtx};
pub use resilience::ResiliencePolicy;
pub use runner::{run_benchmark, RunConfig, RunResult};
