//! Commit-log (write-ahead log) cost model with sync policies.
//!
//! How a store syncs its log dominates its write latency — this is the
//! mechanism behind two of the paper's headline observations:
//!
//! * Cassandra's write latency is *high and stable* (§5.1) because its
//!   periodic commit log syncs every `commit_log_sync_period` (10 ms
//!   default): a write acknowledges after the *group* sync boundary.
//! * HBase's write latency is *very low* (§5.1, Fig 5) because HBase
//!   0.90 deferred WAL flushes: the write returns once the edit is in the
//!   region server's memstore, and the log is synced asynchronously.
//!
//! The log itself is trivial (an append counter); what matters is the
//! receipt: which disk I/O is charged in the foreground, and whether the
//! write must align to a group-commit epoch.

use crate::receipt::DiskIo;
use apm_core::snap_state;
use apm_sim::SimDuration;

/// Log sync discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Writes acknowledge at the next periodic group sync (Cassandra
    /// `periodic` commit log mode).
    GroupCommit {
        /// Group window (Cassandra default 10 ms).
        window: SimDuration,
    },
    /// Writes acknowledge immediately; the log is flushed in the
    /// background (HBase deferred log flush).
    Deferred,
}

/// What a log append costs in the foreground, and what alignment the
/// acknowledging plan must include.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalReceipt {
    /// Foreground disk I/O, if any.
    pub io: Option<DiskIo>,
    /// Group-commit alignment the plan must wait for, if any.
    pub align: Option<SimDuration>,
}

/// An append-only commit log with byte accounting.
#[derive(Clone, Debug)]
pub struct CommitLog {
    policy: SyncPolicy,
    /// Per-record log entry overhead (framing, checksum, mutation header).
    entry_overhead: u64,
    appended_bytes: u64,
    appends: u64,
    /// Bytes accumulated since the last background flush (Deferred mode).
    unflushed: u64,
}

impl CommitLog {
    /// Creates a log with the given sync policy and per-entry overhead.
    pub fn new(policy: SyncPolicy, entry_overhead: u64) -> CommitLog {
        CommitLog {
            policy,
            entry_overhead,
            appended_bytes: 0,
            appends: 0,
            unflushed: 0,
        }
    }

    /// Appends a record of `payload_bytes` and returns the foreground cost.
    pub fn append(&mut self, payload_bytes: u64) -> WalReceipt {
        let entry = payload_bytes + self.entry_overhead;
        self.appended_bytes += entry;
        self.appends += 1;
        match self.policy {
            SyncPolicy::GroupCommit { window } => {
                // The group's sync writes all accumulated entries at the
                // boundary; each writer is charged its own bytes (the sum
                // over the group equals the real sync size) and waits for
                // the boundary.
                WalReceipt {
                    io: Some(DiskIo::seq_write(entry)),
                    align: Some(window),
                }
            }
            SyncPolicy::Deferred => {
                self.unflushed += entry;
                WalReceipt {
                    io: None,
                    align: None,
                }
            }
        }
    }

    /// Bytes currently pending background flush (Deferred mode).
    pub fn unflushed(&self) -> u64 {
        self.unflushed
    }

    /// Takes the bytes pending background flush (Deferred mode); the
    /// caller schedules a background sequential write of this size.
    pub fn take_unflushed(&mut self) -> u64 {
        std::mem::take(&mut self.unflushed)
    }

    /// Total bytes ever appended (contributes to disk usage until the log
    /// is truncated by flushes; we keep it for usage reporting of stores
    /// that retain logs, like MySQL's binlog).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Number of appends.
    pub fn appends(&self) -> u64 {
        self.appends
    }
}

// The counters; the policy and the entry overhead are config.
snap_state! { CommitLog { policy: _, entry_overhead: _, appended_bytes, appends, unflushed } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receipt::IoClass;

    #[test]
    fn group_commit_aligns_to_window() {
        let window = SimDuration::from_millis(10);
        let mut log = CommitLog::new(SyncPolicy::GroupCommit { window }, 25);
        let r = log.append(75);
        assert_eq!(r.align, Some(window));
        let io = r.io.expect("group sync write");
        assert_eq!(io.bytes, 100);
        assert_eq!(io.class, IoClass::SeqWrite);
        assert!(!io.cacheable);
    }

    #[test]
    fn deferred_accumulates_for_background_flush() {
        let mut log = CommitLog::new(SyncPolicy::Deferred, 10);
        for _ in 0..5 {
            let r = log.append(75);
            assert!(r.io.is_none(), "deferred log must not charge foreground IO");
            assert!(r.align.is_none());
        }
        assert_eq!(log.take_unflushed(), 5 * 85);
        assert_eq!(log.take_unflushed(), 0, "take drains");
        assert_eq!(log.appended_bytes(), 5 * 85);
        assert_eq!(log.appends(), 5);
    }
}
