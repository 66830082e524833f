//! The in-memory write buffer of an LSM tree.
//!
//! Writes land in a sorted map; when the buffer exceeds its flush
//! threshold the tree freezes it into an immutable sorted run
//! ([`crate::sstable::SsTable`]). The map is real — reads served from the
//! memtable return the actual stored bytes.

use apm_core::record::{FieldValues, MetricKey, RAW_RECORD_SIZE};
use apm_core::snap_struct;
use std::collections::{btree_map, BTreeMap};

/// A sorted in-memory write buffer with byte accounting.
#[derive(Clone, Debug, Default)]
pub struct Memtable {
    entries: BTreeMap<MetricKey, FieldValues>,
    /// Raw payload bytes buffered (75 bytes per distinct record).
    bytes: u64,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Memtable {
        Memtable::default()
    }

    /// Inserts or replaces a record. Returns `true` if the key was new.
    pub fn insert(&mut self, key: MetricKey, value: FieldValues) -> bool {
        let new = self.entries.insert(key, value).is_none();
        if new {
            self.bytes += RAW_RECORD_SIZE as u64;
        }
        new
    }

    /// Point lookup.
    pub fn get(&self, key: &MetricKey) -> Option<&FieldValues> {
        self.entries.get(key)
    }

    /// Iterates at most `len` records starting at `start` in key order.
    pub fn scan(
        &self,
        start: &MetricKey,
        len: usize,
    ) -> std::iter::Take<btree_map::Range<'_, MetricKey, FieldValues>> {
        self.entries.range(start..).take(len)
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Raw payload bytes buffered.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Freezes the buffer: returns the sorted contents and resets.
    pub fn drain_sorted(&mut self) -> Vec<(MetricKey, FieldValues)> {
        self.bytes = 0;
        std::mem::take(&mut self.entries).into_iter().collect()
    }
}

snap_struct! { Memtable { entries, bytes } }

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::record_for_seq;

    fn rec(seq: u64) -> (MetricKey, FieldValues) {
        let r = record_for_seq(seq);
        (r.key, r.fields)
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut m = Memtable::new();
        let (k, v) = rec(1);
        assert!(m.insert(k, v));
        assert_eq!(m.get(&k), Some(&v));
        assert_eq!(m.len(), 1);
        assert_eq!(m.bytes(), 75);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut m = Memtable::new();
        let (k, v) = rec(1);
        let v2 = record_for_seq(2).fields;
        assert!(m.insert(k, v));
        assert!(!m.insert(k, v2));
        assert_eq!(m.bytes(), 75);
        assert_eq!(m.get(&k), Some(&v2));
    }

    #[test]
    fn scan_returns_sorted_window_from_start() {
        let mut m = Memtable::new();
        for seq in 0..100 {
            let (k, v) = rec(seq);
            m.insert(k, v);
        }
        let mut keys: Vec<MetricKey> = (0..100).map(|s| rec(s).0).collect();
        keys.sort();
        let start = keys[40];
        let got: Vec<MetricKey> = m.scan(&start, 10).map(|(k, _)| *k).collect();
        assert_eq!(got, keys[40..50].to_vec());
    }

    #[test]
    fn scan_past_the_end_is_short() {
        let mut m = Memtable::new();
        for seq in 0..5 {
            let (k, v) = rec(seq);
            m.insert(k, v);
        }
        assert!(m.scan(&MetricKey::MAX, 10).next().is_none());
        assert_eq!(m.scan(&MetricKey::MIN, 10).count(), 5);
    }

    #[test]
    fn drain_sorted_empties_and_sorts() {
        let mut m = Memtable::new();
        for seq in 0..50 {
            let (k, v) = rec(seq);
            m.insert(k, v);
        }
        let drained = m.drain_sorted();
        assert_eq!(drained.len(), 50);
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(m.is_empty());
        assert_eq!(m.bytes(), 0);
    }
}
