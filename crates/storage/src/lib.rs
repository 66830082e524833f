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
//! - [`hashstore`]: an in-memory hash table with an ordered index and a
//!   byte-accurate memory budget — Redis.
//! - [`partition`]: a serially-executed partition table — a VoltDB site.
//! - [`wal`]: commit-log cost model with group-commit windows.
//!
//! Engines do *real* work on real data structures; each mutating or
//! reading call also returns a [`receipt::CostReceipt`] describing the
//! physical footprint (CPU work units, disk reads/writes with sizes and
//! access patterns) which `apm-stores` converts into simulator plans. That
//! split keeps the engines testable in isolation and keeps simulated time
//! out of the data path.

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
pub mod wal;

pub use receipt::{CostReceipt, DiskIo, IoClass};
