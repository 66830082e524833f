//! Serially-executed partition tables — the VoltDB engine.
//!
//! VoltDB divides the database into disjoint partitions; each partition is
//! owned by exactly one single-threaded *site* that executes stored
//! procedures serially *"without any locking or latching"* (§4.5). A
//! partition here is an in-memory table with a primary-key tree index;
//! serial execution is enforced by the simulator (each site is a
//! capacity-1 resource), so the data structure needs no synchronisation —
//! exactly like the real engine.

use crate::receipt::CostReceipt;
use apm_core::record::{FieldValues, MetricKey, RAW_RECORD_SIZE};
use apm_core::snap_struct;
use std::collections::{btree_map, BTreeMap};

/// One VoltDB-style partition: an in-memory table with a tree index.
#[derive(Clone, Debug, Default)]
pub struct PartitionTable {
    rows: BTreeMap<MetricKey, FieldValues>,
}

impl PartitionTable {
    /// Creates an empty partition.
    pub fn new() -> PartitionTable {
        PartitionTable::default()
    }

    fn index_probes(&self) -> u64 {
        // Tree descent cost ≈ log2(n) comparisons, reported as one probe
        // per 4 levels (a cache line holds several tree levels' worth of
        // comparisons in an in-memory index).
        let n = self.rows.len() as u64;
        (64 - n.leading_zeros() as u64) / 4 + 1
    }

    /// Inserts or replaces a row.
    pub fn insert(&mut self, key: MetricKey, value: FieldValues) -> CostReceipt {
        let mut receipt = CostReceipt::new();
        receipt
            .probe(self.index_probes())
            .touch(RAW_RECORD_SIZE as u64);
        self.rows.insert(key, value);
        receipt
    }

    /// Point lookup.
    pub fn get(&self, key: &MetricKey) -> (Option<FieldValues>, CostReceipt) {
        let mut receipt = CostReceipt::new();
        receipt.probe(self.index_probes());
        let value = self.rows.get(key).copied();
        if value.is_some() {
            receipt.touch(RAW_RECORD_SIZE as u64);
        }
        (value, receipt)
    }

    /// The one range walk: the first `len` rows at or after `start`.
    fn window(
        &self,
        start: &MetricKey,
        len: usize,
    ) -> std::iter::Take<btree_map::Range<'_, MetricKey, FieldValues>> {
        self.rows.range(start..).take(len)
    }

    fn scan_receipt(&self, rows: usize) -> CostReceipt {
        let mut receipt = CostReceipt::new();
        receipt.probe(self.index_probes() + rows as u64 / 8);
        receipt.touch((rows * RAW_RECORD_SIZE) as u64);
        receipt
    }

    /// Range scan within this partition.
    pub fn scan(
        &self,
        start: &MetricKey,
        len: usize,
    ) -> (Vec<(MetricKey, FieldValues)>, CostReceipt) {
        let out: Vec<(MetricKey, FieldValues)> =
            self.window(start, len).map(|(k, v)| (*k, *v)).collect();
        let receipt = self.scan_receipt(out.len());
        (out, receipt)
    }

    /// [`PartitionTable::scan`] for callers that only need the row count:
    /// the same index walk and receipt, with no row copied.
    pub fn scan_count(&self, start: &MetricKey, len: usize) -> (usize, CostReceipt) {
        let rows = self.window(start, len).count();
        (rows, self.scan_receipt(rows))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Memory footprint estimate (rows + tree nodes).
    pub fn mem_bytes(&self) -> u64 {
        self.rows.len() as u64 * (RAW_RECORD_SIZE as u64 + 48)
    }
}

snap_struct! { PartitionTable { rows } }

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::record_for_seq;

    #[test]
    fn insert_get_scan_roundtrip() {
        let mut p = PartitionTable::new();
        for seq in 0..300 {
            let r = record_for_seq(seq);
            p.insert(r.key, r.fields);
        }
        assert_eq!(p.len(), 300);
        let r = record_for_seq(123);
        assert_eq!(p.get(&r.key).0, Some(r.fields));
        let mut keys: Vec<MetricKey> = (0..300).map(|s| record_for_seq(s).key).collect();
        keys.sort();
        let (result, _) = p.scan(&keys[10], 20);
        assert_eq!(
            result.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            keys[10..30].to_vec()
        );
    }

    #[test]
    fn probes_grow_logarithmically() {
        let mut p = PartitionTable::new();
        let r = record_for_seq(0);
        let small = p.insert(r.key, r.fields).probes;
        for seq in 1..100_000 {
            let r = record_for_seq(seq);
            p.rows.insert(r.key, r.fields);
        }
        let big = p.get(&record_for_seq(50).key).1.probes;
        assert!(big > small, "probe count must grow with table size");
        assert!(big < 10, "but only logarithmically: {big}");
    }

    #[test]
    fn miss_touches_no_payload() {
        let p = PartitionTable::new();
        let (v, receipt) = p.get(&record_for_seq(1).key);
        assert_eq!(v, None);
        assert_eq!(receipt.bytes_touched, 0);
    }

    #[test]
    fn mem_bytes_scale_with_rows() {
        let mut p = PartitionTable::new();
        for seq in 0..100 {
            let r = record_for_seq(seq);
            p.insert(r.key, r.fields);
        }
        assert_eq!(p.mem_bytes(), 100 * (75 + 48));
    }
}
