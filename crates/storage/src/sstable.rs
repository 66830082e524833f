//! Immutable sorted runs (SSTables / HFiles).
//!
//! A run is a sorted vector of records plus a bloom filter and an implicit
//! block index: lookups binary-search the vector (real work) and report
//! the block read that a disk-resident file would need. Runs are produced
//! by memtable flushes and merged by compaction.

use crate::bloom::Bloom;
use crate::merge::MergeCursor;
use crate::receipt::{CostReceipt, DiskIo};
use apm_core::record::{FieldValues, MetricKey, RAW_RECORD_SIZE};
use apm_core::snap_struct;

/// Result of probing one SSTable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableProbe {
    /// The bloom filter excluded the key — no disk access needed.
    BloomNegative,
    /// The key might be present; a block was (logically) read.
    Checked(Option<FieldValues>),
}

/// An immutable sorted run.
#[derive(Clone, Debug)]
pub struct SsTable {
    /// Unique id (monotone per tree; newer tables have higher ids).
    pub id: u64,
    entries: Vec<(MetricKey, FieldValues)>,
    bloom: Bloom,
    /// Data block size used for I/O accounting (Cassandra/HBase: 64 KB).
    block_bytes: u64,
}

impl SsTable {
    /// Builds a table from sorted entries.
    ///
    /// # Panics
    /// Panics (debug) if `entries` are not strictly sorted by key.
    pub fn from_sorted(
        id: u64,
        entries: Vec<(MetricKey, FieldValues)>,
        block_bytes: u64,
        bloom_bits_per_key: usize,
    ) -> SsTable {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be strictly sorted"
        );
        let mut bloom = Bloom::with_capacity(entries.len(), bloom_bits_per_key);
        for (key, _) in &entries {
            bloom.insert(key);
        }
        SsTable {
            id,
            entries,
            bloom,
            block_bytes,
        }
    }

    /// Merges several tables into one by streaming them through a
    /// [`MergeCursor`]. On key collisions the value from the table with
    /// the highest id (the newest run) wins, whatever the order of
    /// `inputs`.
    pub fn merge(
        id: u64,
        inputs: &[&SsTable],
        block_bytes: u64,
        bloom_bits_per_key: usize,
    ) -> SsTable {
        let mut cursor = MergeCursor::with_capacity(inputs.len());
        for table in inputs {
            cursor.push_run(table.id, &table.entries);
        }
        // Sized for the no-duplicate case (the common one: a load phase
        // never rewrites a key); shadowed versions give the slack back.
        let mut entries = Vec::with_capacity(inputs.iter().map(|t| t.entries.len()).sum());
        entries.extend(cursor.map(|(k, v)| (*k, *v)));
        entries.shrink_to_fit();
        SsTable::from_sorted(id, entries, block_bytes, bloom_bits_per_key)
    }

    /// Probes for a key, reporting physical cost into `receipt`.
    pub fn get(&self, key: &MetricKey, receipt: &mut CostReceipt) -> TableProbe {
        receipt.probe(1); // bloom check + index lookup
        if !self.bloom.may_contain(key) {
            return TableProbe::BloomNegative;
        }
        receipt.add_io(DiskIo::random_read(self.block_bytes));
        match self.entries.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => {
                receipt.touch(RAW_RECORD_SIZE as u64);
                TableProbe::Checked(Some(self.entries[i].1))
            }
            Err(_) => TableProbe::Checked(None), // bloom false positive
        }
    }

    /// The window of up to `len` records at or after `start`, borrowed
    /// from the run; the cost of reading it goes into `receipt`.
    pub fn scan(
        &self,
        start: &MetricKey,
        len: usize,
        receipt: &mut CostReceipt,
    ) -> &[(MetricKey, FieldValues)] {
        receipt.probe(1);
        let from = match self.entries.binary_search_by(|(k, _)| k.cmp(start)) {
            Ok(i) | Err(i) => i,
        };
        let window = &self.entries[from..self.entries.len().min(from.saturating_add(len))];
        if !window.is_empty() {
            // One positioning access, then sequential blocks.
            let bytes = (window.len() * RAW_RECORD_SIZE) as u64;
            receipt.add_io(DiskIo::random_read(self.block_bytes));
            if bytes > self.block_bytes {
                receipt.add_io(DiskIo::seq_read(bytes - self.block_bytes));
            }
            receipt.touch(bytes);
        }
        window
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Raw payload bytes (75 × records).
    pub fn raw_bytes(&self) -> u64 {
        (self.entries.len() * RAW_RECORD_SIZE) as u64
    }

    /// On-disk size including bloom filter and index overhead.
    pub fn disk_bytes(&self) -> u64 {
        self.raw_bytes() + self.bloom.size_bytes() + (self.entries.len() as u64 / 128 + 1) * 32
    }

    /// Smallest and largest key, or `None` when empty.
    pub fn key_range(&self) -> Option<(MetricKey, MetricKey)> {
        match (self.entries.first(), self.entries.last()) {
            (Some((lo, _)), Some((hi, _))) => Some((*lo, *hi)),
            _ => None,
        }
    }
}

snap_struct! { SsTable { id, entries, bloom, block_bytes } }

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::record_for_seq;

    fn build(id: u64, seqs: impl Iterator<Item = u64>) -> SsTable {
        let mut entries: Vec<(MetricKey, FieldValues)> = seqs
            .map(|s| {
                let r = record_for_seq(s);
                (r.key, r.fields)
            })
            .collect();
        entries.sort_by_key(|(k, _)| *k);
        SsTable::from_sorted(id, entries, 65_536, 10)
    }

    #[test]
    fn get_finds_present_keys_with_one_block_read() {
        let table = build(1, 0..1000);
        let target = record_for_seq(500);
        let mut receipt = CostReceipt::new();
        match table.get(&target.key, &mut receipt) {
            TableProbe::Checked(Some(v)) => assert_eq!(v, target.fields),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(receipt.read_ios(), 1);
        assert_eq!(receipt.io_bytes(), 65_536);
    }

    #[test]
    fn bloom_negative_avoids_io() {
        let table = build(1, 0..1000);
        let mut negatives = 0;
        let mut receipt = CostReceipt::new();
        for seq in 1000..2000 {
            if table.get(&record_for_seq(seq).key, &mut receipt) == TableProbe::BloomNegative {
                negatives += 1;
            }
        }
        assert!(
            negatives > 950,
            "bloom should exclude most absent keys: {negatives}"
        );
        assert!(receipt.read_ios() < 50, "false positives should be rare");
    }

    #[test]
    fn scan_returns_contiguous_sorted_records() {
        let table = build(1, 0..1000);
        let mut keys: Vec<MetricKey> = (0..1000).map(|s| record_for_seq(s).key).collect();
        keys.sort();
        let mut receipt = CostReceipt::new();
        let out = table.scan(&keys[100], 50, &mut receipt);
        assert_eq!(out.len(), 50);
        assert_eq!(out[0].0, keys[100]);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(
            receipt.io_bytes() >= 50 * 75,
            "scan must account transferred bytes"
        );
    }

    #[test]
    fn scan_at_end_returns_partial_window() {
        let table = build(1, 0..100);
        let mut keys: Vec<MetricKey> = (0..100).map(|s| record_for_seq(s).key).collect();
        keys.sort();
        let mut receipt = CostReceipt::new();
        assert_eq!(table.scan(&keys[95], 50, &mut receipt).len(), 5);
        assert_eq!(table.scan(&keys[95], usize::MAX, &mut receipt).len(), 5);
    }

    #[test]
    fn merge_prefers_newer_tables_on_collision() {
        // Table 2 (newer) overwrites seq 0..50 with different payloads:
        // we simulate by building table 2 whose values come from seq+10_000
        // but keys from seq — easiest is to merge overlapping key sets and
        // check count, then spot-check precedence via distinct tables.
        let old = build(1, 0..100);
        let new = build(2, 50..150);
        let merged = SsTable::merge(3, &[&new, &old], 65_536, 10);
        assert_eq!(merged.len(), 150, "overlap must be deduplicated");
        let mut receipt = CostReceipt::new();
        let probe = merged.get(&record_for_seq(75).key, &mut receipt);
        assert!(matches!(probe, TableProbe::Checked(Some(_))));
    }

    #[test]
    fn merge_precedence_is_by_table_id() {
        use apm_core::record::FieldValues;
        let key = record_for_seq(7).key;
        let v_old = FieldValues::from_seed(111);
        let v_new = FieldValues::from_seed(222);
        let old = SsTable::from_sorted(1, vec![(key, v_old)], 65_536, 10);
        let new = SsTable::from_sorted(2, vec![(key, v_new)], 65_536, 10);
        let merged = SsTable::merge(3, &[&old, &new], 65_536, 10);
        let mut receipt = CostReceipt::new();
        match merged.get(&key, &mut receipt) {
            TableProbe::Checked(Some(v)) => assert_eq!(v, v_new, "newer table id must win"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disk_bytes_exceed_raw_bytes() {
        let table = build(1, 0..1000);
        assert_eq!(table.raw_bytes(), 75_000);
        assert!(table.disk_bytes() > table.raw_bytes());
    }

    #[test]
    fn key_range_brackets_contents() {
        let table = build(1, 0..100);
        let (lo, hi) = table.key_range().unwrap();
        assert!(lo < hi);
        assert!(build(9, 0..0).key_range().is_none());
    }
}
