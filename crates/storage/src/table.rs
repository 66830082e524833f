//! An ordered record table that holds a generated record as its id — the
//! row store under Redis ([`crate::hashstore`]) and VoltDB
//! ([`crate::partition`]).
//!
//! Every record the benchmark makes is [`Record::from_id`] of an id
//! (§3's 75-byte record is a function of one `u64`), so a row whose key is
//! [`MetricKey::from_id`] of an id and whose fields are
//! [`FieldValues::from_seed`] of the same id is kept as that id, in a
//! `BTreeSet<u64>`: 8 bytes a row instead of 75. Every other row — a
//! foreign key, or an id's key with other fields — is kept whole in a
//! `BTreeMap`. A key lives in exactly one of the two. `from_id` preserves
//! order, so id order is key order, and one walk merges the two halves in
//! key order: point lookups, range scans and the codec all answer from
//! the same structure.
//!
//! [`Record::from_id`]: apm_core::record::Record::from_id

use apm_core::record::{
    restore_rows, snap_row, FieldValues, MetricKey, Row, MIN_RECORD_SNAP_BYTES,
};
use apm_core::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::{btree_map, btree_set, BTreeMap, BTreeSet};
use std::iter::Peekable;
use std::ops::Bound;

/// The record table.
#[derive(Clone, Debug, Default)]
pub struct RecordTable {
    /// Generated rows, as their ids.
    ids: BTreeSet<u64>,
    /// Every other row; no key here is also in `ids`.
    literal: BTreeMap<MetricKey, FieldValues>,
}

impl RecordTable {
    /// An empty table.
    pub fn new() -> RecordTable {
        RecordTable::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len() + self.literal.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty() && self.literal.is_empty()
    }

    /// Whether `key` has a row.
    pub fn contains(&self, key: &MetricKey) -> bool {
        key.to_id().is_some_and(|id| self.ids.contains(&id)) || self.literal.contains_key(key)
    }

    /// The fields of `key`'s row; a generated row's are rebuilt from its
    /// id.
    pub fn get(&self, key: &MetricKey) -> Option<FieldValues> {
        match key.to_id() {
            Some(id) if self.ids.contains(&id) => Some(FieldValues::from_seed(id)),
            _ => self.literal.get(key).copied(),
        }
    }

    /// Inserts or replaces `key`'s row; true when the key is new. A row
    /// moves between the halves when its fields start or stop being its
    /// id's.
    pub fn insert(&mut self, key: MetricKey, fields: FieldValues) -> bool {
        match Row::new(key, fields) {
            // A key already among the ids is in no literal row.
            Row::Generated(id) => self.ids.insert(id) && self.literal.remove(&key).is_none(),
            Row::Literal(key, fields) => {
                let was_generated = key.to_id().is_some_and(|id| self.ids.remove(&id));
                self.literal.insert(key, fields).is_none() && !was_generated
            }
        }
    }

    /// Every row at or after `start`, in key order.
    fn rows_from(&self, start: &MetricKey) -> Rows<'_> {
        Rows {
            ids: self
                .ids
                .range((ids_from(start), Bound::Unbounded))
                .peekable(),
            literal: self.literal.range(start..).peekable(),
        }
    }

    /// The first `len` rows at or after `start`, fields expanded.
    pub fn scan(&self, start: &MetricKey, len: usize) -> Vec<(MetricKey, FieldValues)> {
        self.rows_from(start)
            .take(len)
            .map(|row| {
                let record = row.record();
                (record.key, record.fields)
            })
            .collect()
    }

    /// How many rows [`RecordTable::scan`] returns, with no row rendered.
    pub fn scan_count(&self, start: &MetricKey, len: usize) -> usize {
        self.rows_from(start).take(len).count()
    }
}

/// The lower bound of the ids whose keys sort at or after `start`. A
/// foreign `start` is placed by bisection: `from_id` is increasing.
fn ids_from(start: &MetricKey) -> Bound<u64> {
    if let Some(id) = start.to_id() {
        return Bound::Included(id);
    }
    if MetricKey::from_id(u64::MAX) < *start {
        return Bound::Excluded(u64::MAX);
    }
    let (mut lo, mut hi) = (0, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if MetricKey::from_id(mid) < *start {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Bound::Included(lo)
}

/// A key-ordered walk over both halves of a [`RecordTable`].
struct Rows<'a> {
    ids: Peekable<btree_set::Range<'a, u64>>,
    literal: Peekable<btree_map::Range<'a, MetricKey, FieldValues>>,
}

impl Iterator for Rows<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        // No key is in both halves, so the two heads never tie.
        let generated_first = match (self.ids.peek(), self.literal.peek()) {
            (Some(&&id), Some((key, _))) => MetricKey::from_id(id) < **key,
            (ids, _) => ids.is_some(),
        };
        if generated_first {
            self.ids.next().map(|&id| Row::Generated(id))
        } else {
            self.literal
                .next()
                .map(|(key, fields)| Row::Literal(*key, *fields))
        }
    }
}

// Hand-written: the rows are written merged, in key order, each as
// `snap_row` spells it — the bytes of a `BTreeMap<MetricKey,
// FieldValues>` of the same rows — and a row that does not sort strictly
// after the one before it is refused, so a decoded table re-encodes to
// the bytes it came from.
impl Snap for RecordTable {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for row in self.rows_from(&MetricKey::MIN) {
            snap_row(w, &row);
        }
    }

    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        let len = r.count(MIN_RECORD_SNAP_BYTES)?;
        let (mut ids, mut literal) = (Vec::new(), Vec::new());
        let mut last: Option<Row> = None;
        restore_rows(r, len, |row| {
            let ascending = match (last, row) {
                (None, _) => true,
                (Some(Row::Generated(a)), Row::Generated(b)) => a < b,
                (Some(before), row) => before.key() < row.key(),
            };
            if !ascending {
                return Err(SnapError::BadTag {
                    what: "RecordTable row not after the one before it",
                    tag: (ids.len() + literal.len()) as u64,
                });
            }
            match row {
                Row::Generated(id) => ids.push(id),
                Row::Literal(key, fields) => literal.push((key, fields)),
            }
            last = Some(row);
            Ok(())
        })?;
        // Sorted input: both trees are bulk-built, every node full.
        Ok(RecordTable {
            ids: ids.into_iter().collect(),
            literal: literal.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::SplitRng;
    use apm_core::record::{Record, KEY_SIZE};

    #[test]
    fn a_generated_row_is_held_as_its_id() {
        let mut table = RecordTable::new();
        let r = Record::from_id(7);
        assert!(table.insert(r.key, r.fields));
        assert_eq!((table.ids.len(), table.literal.len()), (1, 0));
        // Other fields move it to the literal half, its own back.
        assert!(!table.insert(r.key, FieldValues::ZERO));
        assert_eq!((table.ids.len(), table.literal.len()), (0, 1));
        assert_eq!(table.get(&r.key), Some(FieldValues::ZERO));
        assert!(!table.insert(r.key, r.fields));
        assert_eq!((table.ids.len(), table.literal.len()), (1, 0));
        assert_eq!(table.get(&r.key), Some(r.fields));
        // A foreign key is literal whatever its fields.
        assert!(table.insert(MetricKey::MAX, FieldValues::from_seed(7)));
        assert_eq!((table.ids.len(), table.literal.len()), (1, 1));
        assert!(table.contains(&MetricKey::MAX) && !table.contains(&MetricKey::MIN));
    }

    /// A key of any 25 bytes, through the codec's literal spelling: the
    /// one way to a key off the alphabet, which sorts between two ids'.
    fn raw_key(bytes: [u8; KEY_SIZE]) -> MetricKey {
        let mut encoded = vec![1];
        encoded.extend(bytes);
        SnapReader::new(&encoded).get().expect("a literal key")
    }

    /// `id`'s key with its last digit replaced by `:`, which sorts after
    /// `9` and before `a`: a foreign key just after `id`'s.
    fn just_after(id: u64) -> MetricKey {
        let mut bytes = *MetricKey::from_id(id).as_bytes();
        bytes[KEY_SIZE - 1] = b':';
        raw_key(bytes)
    }

    #[test]
    fn ids_from_is_the_first_id_whose_key_is_not_below_start() {
        let key = MetricKey::from_id;
        let mut starts = vec![
            MetricKey::MIN,
            MetricKey::MAX,
            MetricKey::from_bytes([b'a'; KEY_SIZE]),
            MetricKey::from_bytes([b'n'; KEY_SIZE]),
        ];
        for id in [0, 9, 35, 36, 1 << 40, u64::MAX - 1, u64::MAX] {
            starts.extend([key(id), just_after(id)]);
        }
        for start in starts {
            match ids_from(&start) {
                Bound::Included(id) => {
                    assert!(key(id) >= start, "{start:?}: {id}");
                    assert!(id == 0 || key(id - 1) < start, "{start:?}: {id}");
                }
                bound => {
                    assert_eq!(bound, Bound::Excluded(u64::MAX), "{start:?}");
                    assert!(key(u64::MAX) < start, "{start:?}");
                }
            }
        }
    }

    /// One step of the model-equivalence walk.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Insert(MetricKey, FieldValues),
        Get(MetricKey),
        Scan(MetricKey, usize),
    }

    /// A key from a small id range, so ops collide; or a foreign one:
    /// the sentinels, keys below and above every id's, and keys between
    /// two ids'.
    fn random_key(rng: &mut SplitRng) -> MetricKey {
        let id = rng.next_below(64) * 1_000;
        match rng.next_below(10) {
            0 => MetricKey::MIN,
            1 => MetricKey::MAX,
            2 => MetricKey::from_bytes([b'a'; KEY_SIZE]),
            3 => MetricKey::from_bytes([b'n'; KEY_SIZE]),
            4 | 5 => just_after(id),
            _ => MetricKey::from_id(id),
        }
    }

    fn random_fields(rng: &mut SplitRng, key: &MetricKey) -> FieldValues {
        match (rng.next_below(3), key.to_id()) {
            (0, _) => FieldValues::ZERO,
            (1, _) => FieldValues::from_seed(rng.next_below(64) * 1_000),
            (_, Some(id)) => FieldValues::from_seed(id),
            (_, None) => FieldValues::from_seed(3),
        }
    }

    fn random_ops(rng: &mut SplitRng, len: usize) -> Vec<Op> {
        (0..len)
            .map(|_| {
                let key = random_key(rng);
                match rng.next_below(5) {
                    0 | 1 => Op::Insert(key, random_fields(rng, &key)),
                    2 => Op::Get(key),
                    _ => Op::Scan(key, rng.next_below(12) as usize),
                }
            })
            .collect()
    }

    fn encoded<T: Snap>(value: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put(value);
        w.into_bytes()
    }

    fn table_matches_the_btreemap_model(cases: u64, ops: usize) {
        let mut root = SplitRng::new(0x7461_626C);
        for case in 0..cases {
            let mut rng = root.split(case);
            let mut table = RecordTable::new();
            let mut model: BTreeMap<MetricKey, FieldValues> = BTreeMap::new();
            // Generated → literal → generated on one key, then the mix.
            let r = Record::from_id(5_000);
            let mut script = vec![
                Op::Insert(r.key, r.fields),
                Op::Insert(r.key, FieldValues::ZERO),
                Op::Get(r.key),
                Op::Insert(r.key, r.fields),
                Op::Insert(MetricKey::MIN, FieldValues::ZERO),
                Op::Insert(MetricKey::MAX, FieldValues::from_seed(1)),
                Op::Insert(MetricKey::from_id(1_000), FieldValues::from_seed(2_000)),
            ];
            script.extend(random_ops(&mut rng, ops));
            for op in script {
                match op {
                    Op::Insert(key, fields) => {
                        let new = table.insert(key, fields);
                        assert_eq!(new, model.insert(key, fields).is_none(), "case {case}");
                    }
                    Op::Get(key) => {
                        assert_eq!(table.get(&key), model.get(&key).copied(), "case {case}");
                        assert_eq!(table.contains(&key), model.contains_key(&key));
                    }
                    Op::Scan(start, len) => {
                        let want: Vec<(MetricKey, FieldValues)> = model
                            .range(start..)
                            .take(len)
                            .map(|(k, v)| (*k, *v))
                            .collect();
                        assert_eq!(table.scan(&start, len), want, "case {case}: {start:?}");
                        assert_eq!(table.scan_count(&start, len), want.len(), "case {case}");
                    }
                }
                assert_eq!(table.len(), model.len(), "case {case}");
            }
            // A key lives in exactly one half.
            let key_in_both = |&id| table.literal.contains_key(&MetricKey::from_id(id));
            assert!(!table.ids.iter().any(key_in_both), "case {case}");
            // The codec writes the model's bytes and reads them back into
            // a table that writes them again.
            let bytes = encoded(&table);
            assert_eq!(bytes, encoded(&model), "case {case}");
            let mut r = SnapReader::new(&bytes);
            let restored: RecordTable = r.get().expect("own bytes decode");
            r.finish().expect("every byte read");
            assert_eq!(encoded(&restored), bytes, "case {case}");
            assert_eq!(
                restored.scan(&MetricKey::MIN, usize::MAX),
                table.scan(&MetricKey::MIN, usize::MAX)
            );
        }
    }

    #[test]
    fn kernel_equivalence_of_record_table_and_btreemap() {
        table_matches_the_btreemap_model(64, 200);
    }

    #[test]
    #[ignore = "4096 cases of 2000 ops: CI runs it in the release profile"]
    fn kernel_equivalence_of_record_table_and_btreemap_at_the_large_budget() {
        table_matches_the_btreemap_model(4_096, 2_000);
    }
}
