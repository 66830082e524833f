//! # apm-storage
//!
//! Real single-node storage engine substrates for the six store
//! architectures benchmarked by the paper:
//!
//! - [`lsm`]: a log-structured merge tree (memtable → immutable sorted
//!   runs with bloom filters, size-tiered compaction) — the write path of
//!   Cassandra and HBase.
//! - [`btree`] + [`bufferpool`], paired as [`paged::PagedTree`]: a
//!   page-based B+tree over a buffer pool with clock eviction — InnoDB
//!   (MySQL), BerkeleyDB (the Voldemort backend) and mmapv1 (MongoDB).
//! - [`hashstore`]: an in-memory store with a byte-accurate memory budget
//!   that models Redis's hash table and sorted-set index — Redis. The
//!   modelled dict and skiplist are accounting only: the host keeps the
//!   rows in one [`table::RecordTable`].
//! - [`partition`]: a serially-executed partition table — a VoltDB site.
//! - [`table`]: the ordered record table under both, which holds a
//!   generated record as its id.
//! - [`wal`]: commit-log cost model with group-commit windows.
//!
//! Engines do *real* work on real data structures; each mutating or
//! reading call also returns a [`receipt::CostReceipt`] describing the
//! physical footprint (CPU work units, disk reads/writes with sizes and
//! access patterns) which `apm-stores` converts into simulator plans. That
//! split keeps the engines testable in isolation and keeps simulated time
//! out of the data path.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::wildcard_enum_match_arm))]

pub mod bloom;
pub mod btree;
pub mod bufferpool;
pub mod encoding;
pub mod hashstore;
pub mod lsm;
pub mod memtable;
pub mod merge;
pub mod paged;
pub mod partition;
pub mod receipt;
pub mod sstable;
pub mod table;
pub mod wal;

pub use receipt::{CostReceipt, DiskIo, IoClass};
