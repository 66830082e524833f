//! The in-memory write buffer of an LSM tree.
//!
//! Writes land in a [`RecordTable`] — a generated row as its id, any
//! other row whole; when the buffer exceeds its flush threshold the tree
//! freezes it into an immutable sorted run ([`crate::sstable::SsTable`]).
//! The table is real — reads served from the memtable return the stored
//! rows — while its byte count is the simulated one: 75 bytes a row,
//! whatever the host holds.

use crate::table::{RecordTable, SortedRows, TableRows};
use apm_core::record::{MetricKey, Row, RAW_RECORD_SIZE};
use apm_core::snap_struct;

/// A sorted in-memory write buffer with byte accounting.
#[derive(Clone, Debug, Default)]
pub struct Memtable {
    rows: RecordTable,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Memtable {
        Memtable::default()
    }

    /// Inserts or replaces a row. Returns `true` if the key was new.
    pub fn insert(&mut self, row: Row) -> bool {
        self.rows.insert(row)
    }

    /// Point lookup.
    pub fn get(&self, key: &MetricKey) -> Option<Row> {
        self.rows.get(key)
    }

    /// Every buffered row at or after `start`, in key order.
    pub fn rows_from(&self, start: &MetricKey) -> TableRows<'_> {
        self.rows.rows_from(start)
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Raw payload bytes buffered (75 bytes per distinct record).
    pub fn bytes(&self) -> u64 {
        (self.rows.len() * RAW_RECORD_SIZE) as u64
    }

    /// Freezes the buffer: returns the sorted contents and resets.
    pub fn drain_sorted(&mut self) -> SortedRows {
        self.rows.drain_sorted()
    }
}

snap_struct! { Memtable { rows } }

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::record_for_seq;
    use apm_core::record::FieldValues;

    fn row(seq: u64) -> Row {
        record_for_seq(seq).into()
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut m = Memtable::new();
        assert!(m.insert(row(1)));
        assert_eq!(m.get(&row(1).key()), Some(row(1)));
        assert_eq!(m.len(), 1);
        assert_eq!(m.bytes(), 75);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut m = Memtable::new();
        let (k, v2) = (row(1).key(), record_for_seq(2).fields);
        assert!(m.insert(row(1)));
        assert!(!m.insert(Row::new(k, v2)));
        assert_eq!(m.bytes(), 75);
        assert_eq!(m.get(&k), Some(Row::Literal(k, v2)));
    }

    #[test]
    fn scan_returns_sorted_window_from_start() {
        let mut m = Memtable::new();
        for seq in 0..100 {
            m.insert(row(seq));
        }
        let mut keys: Vec<MetricKey> = (0..100).map(|s| row(s).key()).collect();
        keys.sort();
        let start = keys[40];
        let got: Vec<MetricKey> = m.rows_from(&start).take(10).map(|r| r.key()).collect();
        assert_eq!(got, keys[40..50].to_vec());
    }

    #[test]
    fn scan_past_the_end_is_short() {
        let mut m = Memtable::new();
        for seq in 0..5 {
            m.insert(row(seq));
        }
        m.insert(Row::Literal(MetricKey::MIN, FieldValues::ZERO));
        assert!(m.rows_from(&MetricKey::MAX).next().is_none());
        assert_eq!(m.rows_from(&MetricKey::MIN).take(10).count(), 6);
    }

    #[test]
    fn drain_sorted_empties_and_sorts() {
        let mut m = Memtable::new();
        for seq in 0..50 {
            m.insert(row(seq));
        }
        let drained = m.drain_sorted();
        assert_eq!(drained.len(), 50);
        let keys: Vec<MetricKey> = drained.rows().map(|r| r.key()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(m.is_empty());
        assert_eq!(m.bytes(), 0);
    }
}
