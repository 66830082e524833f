//! # apm-repro
//!
//! Umbrella crate for the reproduction of Rabl et al., *"Solving Big Data
//! Challenges for Enterprise Application Performance Management"* (VLDB
//! 2012). It re-exports the workspace crates so examples and integration
//! tests can use a single dependency:
//!
//! - [`core`] (`apm-core`) — APM data model, Table-1 workloads, statistics,
//!   closed-loop client driver model.
//! - [`sim`] (`apm-sim`) — deterministic discrete-event cluster simulator
//!   (CPU / disk / network / handler-pool resources, Cluster M and D specs).
//! - [`storage`] (`apm-storage`) — real storage-engine substrates: LSM tree,
//!   B+tree with buffer pool, commit log, in-memory hash store, partitioned
//!   serial executor.
//! - [`stores`] (`apm-stores`) — the six benchmarked store architectures
//!   (Cassandra-, HBase-, Voldemort-, Redis-, VoltDB-, and sharded
//!   MySQL-like) plus client-side routing layers.
//! - [`harness`] (`apm-harness`) — per-figure experiments and the `repro`
//!   command-line runner.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the full system
//! inventory and substitution rationale.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::wildcard_enum_match_arm))]

pub use apm_core as core;
pub use apm_harness as harness;
pub use apm_sim as sim;
pub use apm_storage as storage;
pub use apm_stores as stores;
