//! Immutable sorted runs (SSTables / HFiles).
//!
//! A run is its rows — a sorted `Vec<u64>` of generated rows' ids beside
//! a sorted `Vec` of every other row ([`SortedRows`]) — plus a bloom
//! filter and an implicit block index: lookups binary-search the rows
//! (real work; an id key searches an 8-byte stride) and report the block
//! read that a disk-resident file would need, sized as 75-byte records.
//! Runs are produced by memtable flushes and merged by compaction. The
//! filter is a function of the run's keys, so a checkpoint holds the rows
//! alone and restore rebuilds the filter the way a flush does.

use crate::bloom::Bloom;
use crate::merge::MergeCursor;
use crate::receipt::{CostReceipt, DiskIo};
use crate::table::{SortedRows, Window};
use apm_core::record::{MetricKey, Row, RAW_RECORD_SIZE};
use apm_core::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Data block size of every run's I/O accounting (Cassandra's and HBase's
/// 64 KB).
pub const BLOCK_BYTES: u64 = 64 << 10;
/// Bloom filter density of every run (≈ 1 % false positives).
pub const BLOOM_BITS_PER_KEY: usize = 10;

/// Result of probing one SSTable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableProbe {
    /// The bloom filter excluded the key — no disk access needed.
    BloomNegative,
    /// The key might be present; a block was (logically) read.
    Checked(Option<Row>),
}

/// An immutable sorted run.
#[derive(Clone, Debug)]
pub struct SsTable {
    /// Unique id (monotone per tree; newer tables have higher ids).
    pub id: u64,
    rows: SortedRows,
    bloom: Bloom,
}

impl SsTable {
    /// Builds a table from its rows.
    pub fn from_rows(id: u64, rows: SortedRows) -> SsTable {
        let mut bloom = Bloom::with_capacity(rows.len(), BLOOM_BITS_PER_KEY);
        for key in rows.keys() {
            bloom.insert(&key);
        }
        SsTable { id, rows, bloom }
    }

    /// Merges several tables into one by streaming them through a
    /// [`MergeCursor`]. On key collisions the row from the table with
    /// the highest id (the newest run) wins, whatever the order of
    /// `inputs`. `newer` are runs left out of the merge with an id above
    /// an input's: where one holds a key the inputs hold, its version wins
    /// over every older run's, so the merged run holds the inputs' keys,
    /// each at its newest version.
    pub fn merge(id: u64, inputs: &[&SsTable], newer: &[&SsTable]) -> SsTable {
        let mut cursor = MergeCursor::with_capacity(inputs.len());
        for table in inputs {
            cursor.push_run(table.id, table.rows.all());
        }
        // Sized for the no-duplicate case (the common one: a load phase
        // never rewrites a key); shadowed versions give the slack back.
        let mut rows = SortedRows::with_capacity(inputs.iter().map(|t| t.len()).sum());
        for row in cursor {
            rows.push(row);
        }
        for run in newer {
            for row in run.rows.rows() {
                let shadows = |t: &&SsTable| t.id > run.id && t.rows.holds_key_of(row);
                if rows.holds_key_of(row) && !inputs.iter().chain(newer).any(shadows) {
                    rows.insert(row.to_row());
                }
            }
        }
        rows.shrink_to_fit();
        SsTable::from_rows(id, rows)
    }

    /// Probes for a key, reporting physical cost into `receipt`.
    pub fn get(&self, key: &MetricKey, receipt: &mut CostReceipt) -> TableProbe {
        receipt.probe(1); // bloom check + index lookup
        if !self.bloom.may_contain(key) {
            return TableProbe::BloomNegative;
        }
        receipt.add_io(DiskIo::random_read(BLOCK_BYTES));
        let found = self.rows.get(key);
        if found.is_some() {
            receipt.touch(RAW_RECORD_SIZE as u64);
        } // else a bloom false positive
        TableProbe::Checked(found)
    }

    /// The window of up to `len` rows at or after `start`, borrowed from
    /// the run; the cost of reading it goes into `receipt`.
    pub fn scan(&self, start: &MetricKey, len: usize, receipt: &mut CostReceipt) -> Window<'_> {
        receipt.probe(1);
        let window = self.rows.window(start, len);
        if !window.is_empty() {
            // One positioning access, then sequential blocks.
            let bytes = (window.len() * RAW_RECORD_SIZE) as u64;
            receipt.add_io(DiskIo::random_read(BLOCK_BYTES));
            if bytes > BLOCK_BYTES {
                receipt.add_io(DiskIo::seq_read(bytes - BLOCK_BYTES));
            }
            receipt.touch(bytes);
        }
        window
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Raw payload bytes (75 × records).
    pub fn raw_bytes(&self) -> u64 {
        (self.rows.len() * RAW_RECORD_SIZE) as u64
    }

    /// On-disk size including bloom filter and index overhead.
    pub fn disk_bytes(&self) -> u64 {
        self.raw_bytes() + self.bloom.size_bytes() + (self.rows.len() as u64 / 128 + 1) * 32
    }
}

// Hand-written: the run is the bulk of an LSM store's state, so its rows
// are written as `snap_row` spells each (the bytes the `Vec` codec of
// their records would write); the bloom filter is rebuilt from them by
// `from_rows`, which is why restore refuses keys out of order.
impl Snap for SsTable {
    fn snap(&self, w: &mut SnapWriter) {
        let SsTable { id, rows, bloom: _ } = self;
        w.put(id);
        rows.snap(w);
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        let id = r.get()?;
        let rows = SortedRows::restore(r, "SsTable row not after the one before it")?;
        Ok(SsTable::from_rows(id, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::record_for_seq;
    use apm_core::record::{snap_row, FieldValues};

    fn row(seq: u64) -> Row {
        record_for_seq(seq).into()
    }

    fn build(id: u64, seqs: impl Iterator<Item = u64>) -> SsTable {
        let mut rows: Vec<Row> = seqs.map(row).collect();
        rows.sort_by_key(Row::key);
        SsTable::from_rows(id, rows.into_iter().collect())
    }

    #[test]
    fn get_finds_present_keys_with_one_block_read() {
        let table = build(1, 0..1000);
        let target = row(500);
        let mut receipt = CostReceipt::new();
        match table.get(&target.key(), &mut receipt) {
            TableProbe::Checked(Some(v)) => assert_eq!(v, target),
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
            if table.get(&row(seq).key(), &mut receipt) == TableProbe::BloomNegative {
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
        let mut keys: Vec<MetricKey> = (0..1000).map(|s| row(s).key()).collect();
        keys.sort();
        let mut receipt = CostReceipt::new();
        let out: Vec<MetricKey> = table
            .scan(&keys[100], 50, &mut receipt)
            .rows()
            .map(|r| r.key())
            .collect();
        assert_eq!(out, keys[100..150]);
        assert!(
            receipt.io_bytes() >= 50 * 75,
            "scan must account transferred bytes"
        );
    }

    #[test]
    fn scan_at_end_returns_partial_window() {
        let table = build(1, 0..100);
        let mut keys: Vec<MetricKey> = (0..100).map(|s| row(s).key()).collect();
        keys.sort();
        let mut receipt = CostReceipt::new();
        assert_eq!(table.scan(&keys[95], 50, &mut receipt).len(), 5);
        assert_eq!(table.scan(&keys[95], usize::MAX, &mut receipt).len(), 5);
    }

    #[test]
    fn merge_prefers_newer_tables_on_collision() {
        let old = build(1, 0..100);
        let new = build(2, 50..150);
        let merged = SsTable::merge(3, &[&new, &old], &[]);
        assert_eq!(merged.len(), 150, "overlap must be deduplicated");
        let mut receipt = CostReceipt::new();
        let probe = merged.get(&row(75).key(), &mut receipt);
        assert_eq!(probe, TableProbe::Checked(Some(row(75))));
    }

    #[test]
    fn merge_precedence_is_by_table_id() {
        let key = record_for_seq(7).key;
        let v_old = Row::Literal(key, FieldValues::from_seed(111));
        let tables = [
            (v_old, Row::Literal(key, FieldValues::from_seed(222))),
            // A generated version over a literal one, and back.
            (v_old, row(7)),
            (row(7), v_old),
        ];
        for (old, new) in tables {
            let old = SsTable::from_rows(1, [old].into_iter().collect());
            let new_table = SsTable::from_rows(2, [new].into_iter().collect());
            let merged = SsTable::merge(3, &[&old, &new_table], &[]);
            let mut receipt = CostReceipt::new();
            let probe = merged.get(&key, &mut receipt);
            assert_eq!(
                probe,
                TableProbe::Checked(Some(new)),
                "newer table id must win"
            );
            assert_eq!(merged.len(), 1);
        }
    }

    #[test]
    fn disk_bytes_exceed_raw_bytes() {
        let table = build(1, 0..1000);
        assert_eq!(table.raw_bytes(), 75_000);
        assert!(table.disk_bytes() > table.raw_bytes());
    }

    fn snapshot(table: &SsTable) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put(table);
        w.into_bytes()
    }

    #[test]
    fn restore_rebuilds_the_bloom_filter() {
        let table = build(4, 0..1000);
        let bytes = snapshot(&table);
        let mut r = SnapReader::new(&bytes);
        let back: SsTable = r.get().expect("own snapshot restores");
        r.finish().expect("nothing left over");
        assert_eq!((back.id, back.disk_bytes()), (table.id, table.disk_bytes()));
        let (mut want, mut got) = (CostReceipt::new(), CostReceipt::new());
        for seq in 0..2000 {
            let key = row(seq).key();
            assert_eq!(
                back.get(&key, &mut got),
                table.get(&key, &mut want),
                "{seq}"
            );
        }
        assert_eq!(got.read_ios(), want.read_ios());
    }

    #[test]
    fn rows_out_of_key_order_are_refused() {
        let mut rows: Vec<Row> = (0..10).map(row).collect();
        rows.sort_by_key(Row::key);
        let mut descending = rows.clone();
        descending.swap(3, 4);
        let mut duplicate = rows.clone();
        duplicate[6] = duplicate[5];
        for (forged, at) in [(descending, 4), (duplicate, 6)] {
            let mut w = SnapWriter::new();
            w.put_u64(4);
            w.put_u64(forged.len() as u64);
            for row in &forged {
                snap_row(&mut w, row);
            }
            assert_eq!(
                SnapReader::new(w.bytes()).get::<SsTable>().map(|t| t.id),
                Err(SnapError::BadTag {
                    what: "SsTable row not after the one before it",
                    tag: at,
                })
            );
        }
    }
}
