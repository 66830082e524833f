//! # apm-core
//!
//! The benchmark core of the Rabl et al. (VLDB 2012) reproduction: the APM
//! data model, the five Table-1 workloads, YCSB-style key generation, the
//! closed-loop client population model, and latency/throughput statistics.
//!
//! The paper's benchmark is a YCSB derivative specialised for Application
//! Performance Management (APM): records are tiny (75 bytes raw — a 25-byte
//! alphanumeric key plus five 10-byte fields), the workload is append-only
//! and write-dominated (up to 100:1 write:read), and reads are either point
//! lookups of the most recent value or small scans (50 records) used for
//! sliding-window aggregates.
//!
//! This crate is storage-agnostic: the simulated stores in `apm-stores`
//! consume [`ops::Operation`]s produced by [`workload::WorkloadGenerator`]
//! and report latencies into [`stats::BenchStats`].

pub mod chaos;
pub mod driver;
pub mod json;
pub mod keyspace;
pub mod metric;
pub mod ops;
pub mod record;
pub mod report;
pub mod rng;
pub mod snap;
pub mod stats;
pub mod timeseries;
pub mod workload;

pub use ops::{OpKind, Operation};
pub use record::{
    FieldValues, MetricKey, Record, FIELD_COUNT, FIELD_SIZE, KEY_SIZE, RAW_RECORD_SIZE,
};
pub use stats::{BenchStats, Histogram};
pub use workload::{OpMix, Workload, WorkloadGenerator};
