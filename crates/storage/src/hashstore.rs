//! In-memory hash store with an ordered index — the Redis engine.
//!
//! The Redis YCSB client stores each record in a hash and additionally
//! indexes the key in a sorted set for scans (§4.4: "YCSB uses a hash map
//! as well as a sorted set"). We model both structures with byte-accurate
//! memory accounting, because the paper's 12-node Redis incident was a
//! memory blow-up: the sharding ring sent one node more than its share
//! and it *"consistently ran out of memory"* (§5.1).

use crate::receipt::CostReceipt;
use apm_core::record::{FieldValues, MetricKey, FIELD_COUNT, KEY_SIZE, RAW_RECORD_SIZE};
use apm_core::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::hash_map::Entry;
use std::collections::{btree_set, BTreeSet, HashMap};

/// Redis-era per-entry memory overhead, in bytes: robj headers, dict
/// entry, sds headers for the key and each of the five field values, plus
/// the skiplist node for the sorted-set index entry.
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

/// The hash store.
#[derive(Clone, Debug)]
pub struct HashStore {
    map: HashMap<MetricKey, FieldValues>,
    /// Sorted-set index over keys, maintained for scans.
    index: BTreeSet<MetricKey>,
    mem_bytes: u64,
    max_memory: Option<u64>,
}

impl HashStore {
    /// Creates a store with an optional memory budget in bytes.
    pub fn new(max_memory: Option<u64>) -> HashStore {
        HashStore {
            map: HashMap::new(),
            index: BTreeSet::new(),
            mem_bytes: 0,
            max_memory,
        }
    }

    /// Bytes a single record costs in memory.
    pub fn bytes_per_record() -> u64 {
        RAW_RECORD_SIZE as u64 + KEY_SIZE as u64 /* second key copy in the index */ + ENTRY_OVERHEAD_BYTES
    }

    /// Inserts a record (no eviction — Redis `noeviction` semantics).
    pub fn insert(
        &mut self,
        key: MetricKey,
        value: FieldValues,
    ) -> Result<CostReceipt, OutOfMemory> {
        let mut receipt = CostReceipt::new();
        receipt.touch(RAW_RECORD_SIZE as u64);
        // One hash and one table walk, whichever way it goes.
        match self.map.entry(key) {
            Entry::Occupied(mut existing) => {
                receipt.probe(1);
                existing.insert(value);
            }
            Entry::Vacant(slot) => {
                let needed = self.mem_bytes + Self::bytes_per_record();
                if let Some(budget) = self.max_memory {
                    if needed > budget {
                        return Err(OutOfMemory { needed, budget });
                    }
                }
                // Hash insert + skiplist/sorted-set insert.
                receipt.probe(2);
                slot.insert(value);
                self.index.insert(key);
                self.mem_bytes = needed;
            }
        }
        Ok(receipt)
    }

    /// Point lookup.
    pub fn get(&self, key: &MetricKey) -> (Option<FieldValues>, CostReceipt) {
        let mut receipt = CostReceipt::new();
        receipt.probe(1);
        let value = self.map.get(key).copied();
        if value.is_some() {
            receipt.touch(RAW_RECORD_SIZE as u64);
        }
        (value, receipt)
    }

    /// The one range walk (ZRANGEBYLEX): the first `len` index keys at
    /// or after `start`.
    fn window(
        &self,
        start: &MetricKey,
        len: usize,
    ) -> std::iter::Take<btree_set::Range<'_, MetricKey>> {
        self.index.range(start..).take(len)
    }

    /// ZRANGEBYLEX walk + one HGETALL per hit.
    fn scan_receipt(rows: usize) -> CostReceipt {
        let mut receipt = CostReceipt::new();
        receipt.probe(1 + rows as u64);
        receipt.touch((rows * RAW_RECORD_SIZE) as u64);
        receipt
    }

    /// Range scan over the sorted-set index.
    pub fn scan(
        &self,
        start: &MetricKey,
        len: usize,
    ) -> (Vec<(MetricKey, FieldValues)>, CostReceipt) {
        let out: Vec<(MetricKey, FieldValues)> = self
            .window(start, len)
            .filter_map(|k| {
                let value = self.map.get(k);
                debug_assert!(value.is_some(), "index key {k:?} has no hash entry");
                value.map(|v| (*k, *v))
            })
            .collect();
        let receipt = Self::scan_receipt(out.len());
        (out, receipt)
    }

    /// [`HashStore::scan`] for callers that only need the row count: the
    /// same index walk and receipt without the hash lookups. `insert` is
    /// the only mutator and writes both structures, so index hits are rows.
    pub fn scan_count(&self, start: &MetricKey, len: usize) -> (usize, CostReceipt) {
        let rows = self.window(start, len).count();
        (rows, Self::scan_receipt(rows))
    }

    /// Whether index, hash and memory accounting agree. `insert` keeps
    /// this true; a decoded snapshot is the only other way state gets in.
    pub fn is_consistent(&self) -> bool {
        self.index.len() == self.map.len()
            && self.index.iter().all(|k| self.map.contains_key(k))
            && self.mem_bytes == self.map.len() as u64 * Self::bytes_per_record()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes of memory in use.
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// Fraction of the budget used (0 when unlimited).
    pub fn mem_fraction(&self) -> f64 {
        match self.max_memory {
            Some(budget) if budget > 0 => self.mem_bytes as f64 / budget as f64,
            _ => 0.0,
        }
    }

    /// Serializes the contents in sorted key order (the memory budget is
    /// re-supplied at construction).
    pub fn snap_state(&self, w: &mut SnapWriter) {
        // `max_memory` is construction-time config, not part of the stream.
        let HashStore {
            map,
            index,
            mem_bytes,
            max_memory: _,
        } = self;
        w.put_u64(index.len() as u64);
        for key in index {
            w.put(key);
            w.put(map.get(key).expect("index entry has a hash entry"));
        }
        w.put_u64(*mem_bytes);
    }

    /// Restores the state written by [`HashStore::snap_state`] into a
    /// store built with the same memory budget.
    pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let HashStore {
            map,
            index,
            mem_bytes,
            max_memory: _,
        } = self;
        let len = r.count(RAW_RECORD_SIZE)?;
        *map = HashMap::with_capacity(len);
        *index = BTreeSet::new();
        for _ in 0..len {
            let key: MetricKey = r.get()?;
            let value: FieldValues = r.get()?;
            map.insert(key, value);
            index.insert(key);
        }
        *mem_bytes = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::record_for_seq;
    use apm_core::snap::{self, SnapshotHeader};

    #[test]
    fn insert_get_roundtrip() {
        let mut store = HashStore::new(None);
        for seq in 0..1_000 {
            let r = record_for_seq(seq);
            store.insert(r.key, r.fields).unwrap();
        }
        for seq in (0..1_000).step_by(53) {
            let r = record_for_seq(seq);
            assert_eq!(store.get(&r.key).0, Some(r.fields));
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
        let state = |s: &HashStore| (s.len(), s.mem_bytes(), s.is_consistent());
        // A new key: hash insert + sorted-set insert.
        assert_eq!(store.insert(a.key, a.fields), Ok(receipt(2)));
        assert_eq!(state(&store), (1, per, true));
        // An overwrite: one probe, nothing grows, the value is replaced.
        assert_eq!(store.insert(a.key, b.fields), Ok(receipt(1)));
        assert_eq!(state(&store), (1, per, true));
        assert_eq!(store.get(&a.key).0, Some(b.fields));
        assert_eq!(store.insert(b.key, b.fields), Ok(receipt(2)));
        assert_eq!(state(&store), (2, per * 2, true));
        // Over budget: refused with nothing written — and a refused key
        // stays absent however often it is tried.
        let refused = Err(OutOfMemory {
            needed: per * 3,
            budget: per * 2,
        });
        for _ in 0..2 {
            assert_eq!(store.insert(c.key, c.fields), refused);
            assert_eq!(state(&store), (2, per * 2, true));
            assert_eq!(store.get(&c.key).0, None);
            assert_eq!(store.scan_count(&MetricKey::MIN, 10).0, 2);
        }
        // A full store still takes overwrites.
        assert_eq!(store.insert(b.key, a.fields), Ok(receipt(1)));
        assert_eq!(state(&store), (2, per * 2, true));
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
        assert_eq!(store.get(&r0.key).0, Some(r0.fields));
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
        let got: Vec<MetricKey> = result.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, keys[100..150].to_vec());
        assert_eq!(
            receipt.probes, 51,
            "one index walk + one hash probe per record"
        );
    }

    #[test]
    fn tampered_snapshot_accounting_is_inconsistent() {
        let mut store = HashStore::new(None);
        for seq in 0..200 {
            let r = record_for_seq(seq);
            store.insert(r.key, r.fields).unwrap();
        }
        assert!(store.is_consistent());
        // A snapshot whose memory accounting disagrees with its records
        // restores without error; the consistency check is what sees it.
        let mut w = SnapWriter::new();
        store.snap_state(&mut w);
        let mut bytes = w.into_bytes();
        let tail = bytes.len() - 8;
        bytes[tail] ^= 1;
        let mut restored = HashStore::new(None);
        restored
            .restore_state(&mut SnapReader::new(&bytes))
            .unwrap();
        assert!(!restored.is_consistent());
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
        let mut body = w.into_bytes();
        body[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        // Sealed-valid: the container's checksum vouches for these bytes,
        // so the decoder is all that stands between the count and the
        // allocator.
        let header = SnapshotHeader {
            scenario: "hashstore".to_string(),
            config_fingerprint: 0,
            features: 0,
            checkpoint_index: 0,
            virtual_time_ns: 0,
        };
        let sealed = snap::seal(&header, &body);
        let (_, body) = snap::open(&sealed).expect("sealed-valid");
        let refused = HashStore::new(None).restore_state(&mut SnapReader::new(body));
        assert!(
            matches!(refused, Err(SnapError::UnexpectedEof { .. })),
            "{refused:?}"
        );
    }

    #[test]
    fn mem_fraction_tracks_budget() {
        let budget = HashStore::bytes_per_record() * 10;
        let mut store = HashStore::new(Some(budget));
        for seq in 0..5 {
            let r = record_for_seq(seq);
            store.insert(r.key, r.fields).unwrap();
        }
        assert!((store.mem_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(HashStore::new(None).mem_fraction(), 0.0);
    }
}
