//! Benchmark operations.
//!
//! The paper's workloads (Table 1) consist of reads, small scans, and
//! inserts — APM data is append-only, so YCSB's update/delete operations
//! are unused (*"we only included insert, read, and scan operations"*, §3).
//! Updates are still modelled because two extension experiments use them.

use crate::record::{MetricKey, Row};
use crate::snap_enum;

/// Kind of a benchmark operation, in a fixed reporting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Point lookup of one record by key; all fields are fetched (§3).
    Read,
    /// Range scan of `scan_len` consecutive records from a start key (§3:
    /// scan length 50, all fields).
    Scan,
    /// Append of a new record (the dominant APM operation).
    Insert,
    /// In-place overwrite of an existing record (extension only).
    Update,
}

impl OpKind {
    /// All kinds, in reporting order.
    pub const ALL: [OpKind; 4] = [OpKind::Read, OpKind::Scan, OpKind::Insert, OpKind::Update];

    /// Stable lower-case label used in reports and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Scan => "scan",
            OpKind::Insert => "insert",
            OpKind::Update => "update",
        }
    }

    /// Whether this operation mutates the store.
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::Insert | OpKind::Update)
    }
}

snap_enum!(OpKind { 0 => Read, 1 => Scan, 2 => Insert, 3 => Update });

/// A fully-specified operation ready to be issued against a store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Operation {
    /// Fetch the record stored under `key`.
    Read { key: MetricKey },
    /// Fetch up to `len` records starting at `start` in key order.
    Scan { start: MetricKey, len: usize },
    /// Append `row`.
    Insert { row: Row },
    /// Replace the record under `row`'s key.
    Update { row: Row },
}

impl Operation {
    /// The operation's kind.
    pub fn kind(&self) -> OpKind {
        match self {
            Operation::Read { .. } => OpKind::Read,
            Operation::Scan { .. } => OpKind::Scan,
            Operation::Insert { .. } => OpKind::Insert,
            Operation::Update { .. } => OpKind::Update,
        }
    }

    /// The key the operation is routed by (scan: the start key).
    pub fn routing_key(&self) -> MetricKey {
        match self {
            Operation::Read { key } => *key,
            Operation::Scan { start, .. } => *start,
            Operation::Insert { row } | Operation::Update { row } => row.key(),
        }
    }
}

snap_enum!(Operation {
    0 => Read { key },
    1 => Scan { start, len },
    2 => Insert { row },
    3 => Update { row },
});

/// Result of executing an operation against a store, as seen by the
/// benchmark client (used for correctness checks, not timing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutcome {
    /// Read found the record; a generated one as its id.
    Found(Row),
    /// Read missed (only possible for foreign keys — a benchmark error).
    Missing,
    /// Scan returned `n` records.
    Scanned(usize),
    /// Write acknowledged.
    Done,
    /// The store refused the operation (e.g. Redis node out of memory).
    Rejected(RejectReason),
}

/// Why a store rejected an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Node exhausted its memory budget (§5.1: "one Redis node
    /// consistently run out of memory in the 12 node configuration").
    OutOfMemory,
    /// The store does not implement the operation (Voldemort has no scan
    /// support in its YCSB client, §5.4).
    Unsupported,
    /// Node connection limit exceeded (§6, Voldemort).
    Overloaded,
}

impl OpOutcome {
    /// The outcome of a point read that found `row`, or nothing.
    pub fn read(found: Option<Row>) -> OpOutcome {
        found.map_or(OpOutcome::Missing, OpOutcome::Found)
    }

    /// Whether the outcome counts as a benchmark-visible success.
    pub fn is_ok(&self) -> bool {
        !matches!(self, OpOutcome::Rejected(_) | OpOutcome::Missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FieldValues, Record};

    #[test]
    fn kinds_report_write_flag() {
        assert!(!OpKind::Read.is_write());
        assert!(!OpKind::Scan.is_write());
        assert!(OpKind::Insert.is_write());
        assert!(OpKind::Update.is_write());
    }

    #[test]
    fn operation_kind_and_routing_key_agree() {
        let rec = Record::from_id(5);
        let ops = [
            Operation::Read { key: rec.key },
            Operation::Scan {
                start: rec.key,
                len: 50,
            },
            Operation::Insert {
                row: Row::Generated(5),
            },
            Operation::Update {
                row: Row::Literal(rec.key, FieldValues::ZERO),
            },
        ];
        for (op, kind) in ops.iter().zip(OpKind::ALL) {
            assert_eq!(op.kind(), kind);
            assert_eq!(op.routing_key(), rec.key);
        }
    }

    #[test]
    fn outcome_success_classification() {
        let row = Row::Generated(1);
        assert_eq!(OpOutcome::read(Some(row)), OpOutcome::Found(row));
        assert_eq!(OpOutcome::read(None), OpOutcome::Missing);
        assert!(OpOutcome::Found(row).is_ok());
        // A hit prints the record it found, fields expanded.
        assert_eq!(
            format!("{:?}", OpOutcome::Found(row)),
            format!("Found({:?})", Record::from_id(1))
        );
        assert!(OpOutcome::Scanned(50).is_ok());
        assert!(OpOutcome::Done.is_ok());
        assert!(!OpOutcome::Missing.is_ok());
        assert!(!OpOutcome::Rejected(RejectReason::OutOfMemory).is_ok());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> = OpKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), OpKind::ALL.len());
    }
}
