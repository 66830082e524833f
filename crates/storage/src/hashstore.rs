//! In-memory hash store with an ordered index — the Redis engine.
//!
//! The Redis YCSB client stores each record in a hash and additionally
//! indexes the key in a sorted set for scans (§4.4: "YCSB uses a hash map
//! as well as a sorted set"). We model both structures with byte-accurate
//! memory accounting, because the paper's 12-node Redis incident was a
//! memory blow-up: the sharding ring sent one node more than its share
//! and it *"consistently ran out of memory"* (§5.1).
//!
//! The accounting is of the modelled server ([`ENTRY_OVERHEAD_BYTES`]:
//! Redis's dict entry and skiplist node); the host does not mirror those
//! two structures. It keeps one [`RecordTable`], which answers point
//! lookups and range walks alike and holds a generated record as its id.

use crate::receipt::CostReceipt;
use crate::table::RecordTable;
use apm_core::record::{FieldValues, MetricKey, Row, FIELD_COUNT, KEY_SIZE, RAW_RECORD_SIZE};
use apm_core::snap::{SnapError, SnapReader, SnapWriter};

/// Redis-era per-entry memory overhead, in bytes: robj headers, dict
/// entry, sds headers for the key and each of the five field values, plus
/// the skiplist node for the sorted-set index entry. Accounting only: the
/// host holds neither structure (module docs).
pub const ENTRY_OVERHEAD_BYTES: u64 = 16 + 24 + (3 + FIELD_COUNT as u64 * 3) * 16 + 64;

/// Error returned when an insert would exceed the memory budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes the store would have needed.
    pub needed: u64,
    /// The configured budget.
    pub budget: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: need {} bytes, budget {}",
            self.needed, self.budget
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// The hash store: a record table and the modelled server's memory
/// accounting.
#[derive(Clone, Debug)]
pub struct HashStore {
    table: RecordTable,
    max_memory: Option<u64>,
}

impl HashStore {
    /// Creates a store with an optional memory budget in bytes.
    pub fn new(max_memory: Option<u64>) -> HashStore {
        HashStore {
            table: RecordTable::new(),
            max_memory,
        }
    }

    /// Bytes a single record costs in memory.
    pub fn bytes_per_record() -> u64 {
        RAW_RECORD_SIZE as u64 + KEY_SIZE as u64 /* second key copy in the index */ + ENTRY_OVERHEAD_BYTES
    }

    /// [`HashStore::insert_row`] of `key` and `value`.
    pub fn insert(
        &mut self,
        key: MetricKey,
        value: FieldValues,
    ) -> Result<CostReceipt, OutOfMemory> {
        self.insert_row(Row::new(key, value))
    }

    /// Inserts a row (no eviction — Redis `noeviction` semantics). A new
    /// key over the budget is refused with nothing written.
    pub fn insert_row(&mut self, row: Row) -> Result<CostReceipt, OutOfMemory> {
        let needed = self.mem_bytes() + Self::bytes_per_record();
        if let Some(budget) = self.max_memory.filter(|&budget| needed > budget) {
            if !self.table.contains(&row.key()) {
                return Err(OutOfMemory { needed, budget });
            }
        }
        let mut receipt = CostReceipt::new();
        receipt.touch(RAW_RECORD_SIZE as u64);
        if self.table.insert(row) {
            // Hash insert + skiplist/sorted-set insert.
            receipt.probe(2);
        } else {
            receipt.probe(1);
        }
        Ok(receipt)
    }

    /// Point lookup.
    pub fn get(&self, key: &MetricKey) -> (Option<Row>, CostReceipt) {
        let mut receipt = CostReceipt::new();
        receipt.probe(1);
        let value = self.table.get(key);
        if value.is_some() {
            receipt.touch(RAW_RECORD_SIZE as u64);
        }
        (value, receipt)
    }

    /// ZRANGEBYLEX walk + one HGETALL per hit.
    fn scan_receipt(rows: usize) -> CostReceipt {
        let mut receipt = CostReceipt::new();
        receipt.probe(1 + rows as u64);
        receipt.touch((rows * RAW_RECORD_SIZE) as u64);
        receipt
    }

    /// Range scan over the sorted-set index: the first `len` records at
    /// or after `start`.
    pub fn scan(&self, start: &MetricKey, len: usize) -> (Vec<Row>, CostReceipt) {
        let out = self.table.scan(start, len);
        let receipt = Self::scan_receipt(out.len());
        (out, receipt)
    }

    /// [`HashStore::scan`] for callers that only need the row count: the
    /// same walk and receipt with no record rendered.
    pub fn scan_count(&self, start: &MetricKey, len: usize) -> (usize, CostReceipt) {
        let rows = self.table.scan_count(start, len);
        (rows, Self::scan_receipt(rows))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Bytes of memory in use: every record costs
    /// [`HashStore::bytes_per_record`].
    pub fn mem_bytes(&self) -> u64 {
        self.table.len() as u64 * Self::bytes_per_record()
    }

    /// Serializes the contents in sorted key order (the memory budget is
    /// re-supplied at construction).
    pub fn snap_state(&self, w: &mut SnapWriter) {
        // `max_memory` is construction-time config, not part of the stream.
        let HashStore {
            table,
            max_memory: _,
        } = self;
        w.put(table);
    }

    /// Restores the state written by [`HashStore::snap_state`] into a
    /// store built with the same memory budget.
    pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let HashStore {
            table,
            max_memory: _,
        } = self;
        *table = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::record_for_seq;
    use apm_core::record::{snap_row, Row, MIN_RECORD_SNAP_BYTES};
    use apm_core::snap::{self, SnapshotHeader};

    /// `body` sealed and opened again: the container's checksum vouches
    /// for these bytes, so the decoder is all that stands between them
    /// and the store.
    fn sealed_valid(body: &[u8]) -> Vec<u8> {
        let header = SnapshotHeader {
            scenario: "hashstore".to_string(),
            config_fingerprint: 0,
            features: 0,
            checkpoint_index: 0,
            virtual_time_ns: 0,
        };
        let sealed = snap::seal(&header, body);
        snap::open(&sealed).expect("sealed-valid").1.to_vec()
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut store = HashStore::new(None);
        for seq in 0..1_000 {
            let r = record_for_seq(seq);
            store.insert(r.key, r.fields).unwrap();
        }
        for seq in (0..1_000).step_by(53) {
            let r = record_for_seq(seq);
            assert_eq!(store.get(&r.key).0, Some(r.into()));
        }
        assert_eq!(store.get(&record_for_seq(2_000).key).0, None);
        assert_eq!(store.len(), 1_000);
    }

    #[test]
    fn memory_accounting_is_linear_in_records() {
        let mut store = HashStore::new(None);
        let per = HashStore::bytes_per_record();
        for seq in 0..10 {
            let r = record_for_seq(seq);
            store.insert(r.key, r.fields).unwrap();
            assert_eq!(store.mem_bytes(), per * (seq + 1));
        }
    }

    #[test]
    fn reinsert_does_not_grow_memory() {
        let mut store = HashStore::new(None);
        let r = record_for_seq(1);
        store.insert(r.key, r.fields).unwrap();
        let before = store.mem_bytes();
        store.insert(r.key, record_for_seq(2).fields).unwrap();
        assert_eq!(store.mem_bytes(), before);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn insert_receipts_and_accounting_by_case() {
        let per = HashStore::bytes_per_record();
        let mut store = HashStore::new(Some(per * 2));
        let (a, b, c) = (record_for_seq(1), record_for_seq(2), record_for_seq(3));
        let receipt = |probes| {
            let mut r = CostReceipt::new();
            r.touch(RAW_RECORD_SIZE as u64).probe(probes);
            r
        };
        let state = |s: &HashStore| (s.len(), s.mem_bytes());
        // A new key: hash insert + sorted-set insert.
        assert_eq!(store.insert(a.key, a.fields), Ok(receipt(2)));
        assert_eq!(state(&store), (1, per));
        // An overwrite: one probe, nothing grows, the value is replaced.
        assert_eq!(store.insert(a.key, b.fields), Ok(receipt(1)));
        assert_eq!(state(&store), (1, per));
        assert_eq!(store.get(&a.key).0, Some(Row::new(a.key, b.fields)));
        assert_eq!(store.insert(b.key, b.fields), Ok(receipt(2)));
        assert_eq!(state(&store), (2, per * 2));
        // Over budget: refused with nothing written — and a refused key
        // stays absent however often it is tried.
        let refused = Err(OutOfMemory {
            needed: per * 3,
            budget: per * 2,
        });
        for _ in 0..2 {
            assert_eq!(store.insert(c.key, c.fields), refused);
            assert_eq!(state(&store), (2, per * 2));
            assert_eq!(store.get(&c.key).0, None);
            assert_eq!(store.scan_count(&MetricKey::MIN, 10).0, 2);
        }
        // A full store still takes overwrites.
        assert_eq!(store.insert(b.key, a.fields), Ok(receipt(1)));
        assert_eq!(state(&store), (2, per * 2));
    }

    #[test]
    fn budget_exhaustion_returns_oom() {
        let budget = HashStore::bytes_per_record() * 5;
        let mut store = HashStore::new(Some(budget));
        for seq in 0..5 {
            let r = record_for_seq(seq);
            store.insert(r.key, r.fields).unwrap();
        }
        let r = record_for_seq(5);
        let err = store.insert(r.key, r.fields).unwrap_err();
        assert_eq!(err.budget, budget);
        assert!(err.needed > budget);
        assert!(err.to_string().contains("out of memory"));
        // Reads still work after OOM (Redis keeps serving reads).
        let r0 = record_for_seq(0);
        assert_eq!(store.get(&r0.key).0, Some(r0.into()));
    }

    #[test]
    fn scan_uses_ordered_index() {
        let mut store = HashStore::new(None);
        for seq in 0..500 {
            let r = record_for_seq(seq);
            store.insert(r.key, r.fields).unwrap();
        }
        let mut keys: Vec<MetricKey> = (0..500).map(|s| record_for_seq(s).key).collect();
        keys.sort();
        let (result, receipt) = store.scan(&keys[100], 50);
        let got: Vec<MetricKey> = result.iter().map(Row::key).collect();
        assert_eq!(got, keys[100..150].to_vec());
        assert_eq!(
            receipt.probes, 51,
            "one index walk + one hash probe per record"
        );
    }

    #[test]
    fn inflated_record_count_is_refused_before_allocating() {
        let mut store = HashStore::new(None);
        for seq in 0..200 {
            let r = record_for_seq(seq);
            store.insert(r.key, r.fields).unwrap();
        }
        let mut w = SnapWriter::new();
        store.snap_state(&mut w);
        let valid = w.into_bytes();
        // The fewest records the bytes after the count cannot hold at the
        // smallest record encoding, and the largest count there is.
        let unholdable = (valid.len() - 8) / MIN_RECORD_SNAP_BYTES + 1;
        for count in [unholdable as u64, u64::MAX] {
            let mut body = valid.clone();
            body[..8].copy_from_slice(&count.to_le_bytes());
            let body = sealed_valid(&body);
            let refused = HashStore::new(None).restore_state(&mut SnapReader::new(&body));
            assert!(
                matches!(refused, Err(SnapError::UnexpectedEof { .. })),
                "count {count}: {refused:?}"
            );
        }
    }

    #[test]
    fn rows_out_of_key_order_are_refused() {
        // Sealed-valid bodies: a duplicate (as an id twice, and as an id
        // and a literal row of the same key) and a descending pair (ids,
        // literal keys).
        let literal = |key, fields| Row::Literal(key, fields);
        let forged = [
            vec![Row::Generated(1), Row::Generated(1)],
            vec![
                Row::Generated(1),
                literal(MetricKey::from_id(1), FieldValues::ZERO),
            ],
            vec![Row::Generated(2), Row::Generated(1)],
            vec![
                literal(MetricKey::MAX, FieldValues::ZERO),
                literal(MetricKey::MIN, FieldValues::ZERO),
            ],
        ];
        for rows in forged {
            let mut w = SnapWriter::new();
            w.put_u64(rows.len() as u64);
            for row in &rows {
                snap_row(&mut w, row);
            }
            let body = sealed_valid(w.bytes());
            let refused = HashStore::new(None).restore_state(&mut SnapReader::new(&body));
            assert_eq!(
                refused,
                Err(SnapError::BadTag {
                    what: "RecordTable row not after the one before it",
                    tag: 1,
                }),
                "{rows:?}"
            );
        }
    }

    #[test]
    fn a_store_of_generated_and_foreign_records_restores_to_its_own_bytes() {
        // Generated records are ten bytes each, so a record count bounded
        // by the raw 75-byte width would refuse this body; the foreign
        // ones (literal key, literal fields) ride the same walk.
        let mut store = HashStore::new(None);
        for seq in 0..1_000 {
            let r = record_for_seq(seq);
            store.insert(r.key, r.fields).unwrap();
        }
        let foreign = [
            (MetricKey::MIN, FieldValues::ZERO),
            (MetricKey::MAX, FieldValues::from_seed(3)),
            (record_for_seq(3).key, FieldValues::from_seed(30)),
        ];
        for (key, fields) in foreign {
            store.insert(key, fields).unwrap();
        }
        let mut w = SnapWriter::new();
        store.snap_state(&mut w);
        assert!(w.len() < 1_003 * 16, "{} bytes", w.len());
        let mut restored = HashStore::new(None);
        let mut r = SnapReader::new(w.bytes());
        restored.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        for (key, fields) in foreign {
            assert_eq!(restored.get(&key).0, Some(Row::new(key, fields)));
        }
        let mut again = SnapWriter::new();
        restored.snap_state(&mut again);
        assert!(again.bytes() == w.bytes());
    }
}
