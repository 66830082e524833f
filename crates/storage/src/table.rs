//! The ordered row containers of every engine, each holding a generated
//! record as its id.
//!
//! Every record the benchmark makes is [`Record::from_id`] of an id
//! (§3's 75-byte record is a function of one `u64`), so a row whose key is
//! [`MetricKey::from_id`] of an id and whose fields are
//! [`FieldValues::from_seed`] of the same id is kept as that id: 8 bytes a
//! row instead of 75. Every other row — a foreign key, or an id's key with
//! other fields — is kept whole. A container has the two halves side by
//! side and a key lives in exactly one of them. `from_id` preserves
//! order, so id order is key order, two ids compare as `u64`s, and one
//! walk ([`Rows`]) merges the halves in key order: point lookups, range
//! scans, merges and the codec all answer from the same structure.
//!
//! - [`RecordTable`]: ids in sorted chunks with each chunk's last id
//!   beside them, literal rows in a `BTreeMap` — the mutable table of an
//!   LSM memtable ([`crate::memtable`]), Redis ([`crate::hashstore`]) and
//!   VoltDB ([`crate::partition`]). A count of the rows at or after a key
//!   is one seek and a sum of chunk lengths, with no id read.
//! - [`SortedRows`]: ids in a sorted `Vec<u64>`, literal rows in a sorted
//!   `Vec` — an LSM run ([`crate::sstable`]) and a B+tree leaf
//!   ([`crate::btree`]).
//!
//! Both write their rows merged, in key order, each as
//! [`snap_row`] spells it: the bytes of a `Vec` (or `BTreeMap`) of
//! `(MetricKey, FieldValues)` pairs of the same rows.
//!
//! [`Record::from_id`]: apm_core::record::Record::from_id

use apm_core::record::{
    restore_rows, snap_row, FieldValues, MetricKey, Row, MIN_RECORD_SNAP_BYTES,
};
use apm_core::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::cmp::Ordering;
use std::collections::{btree_map, BTreeMap};
use std::iter::{Chain, Copied, Flatten, Map, Peekable, Take};
use std::slice;

/// A row borrowed from a container: a generated row's id, or a literal
/// row's key and fields.
#[derive(Clone, Copy, Debug)]
pub enum RowRef<'a> {
    /// [`Row::Generated`] of this id.
    Generated(u64),
    /// [`Row::Literal`] of these.
    Literal(&'a MetricKey, &'a FieldValues),
}

impl RowRef<'_> {
    /// The row's key.
    pub fn key(&self) -> MetricKey {
        match self {
            RowRef::Generated(id) => MetricKey::from_id(*id),
            RowRef::Literal(key, _) => **key,
        }
    }

    /// The owned row.
    pub fn to_row(self) -> Row {
        match self {
            RowRef::Generated(id) => Row::Generated(id),
            RowRef::Literal(key, fields) => Row::Literal(*key, *fields),
        }
    }

    /// Key order. Two ids compare as `u64`s; a key is rendered only
    /// where a literal row meets a generated one.
    #[inline]
    pub fn cmp_key(&self, other: &RowRef<'_>) -> Ordering {
        match (self, other) {
            (RowRef::Generated(a), RowRef::Generated(b)) => a.cmp(b),
            (RowRef::Literal(a, _), RowRef::Literal(b, _)) => a.cmp(b),
            (a, b) => a.key().cmp(&b.key()),
        }
    }
}

/// Whether `before` sorts strictly before `row`.
fn ascending(before: &Row, row: &Row) -> bool {
    match (before, row) {
        (Row::Generated(a), Row::Generated(b)) => a < b,
        (before, row) => before.key() < row.key(),
    }
}

/// A key-ordered walk over the two halves of a container: ascending ids
/// and ascending literal rows, no key in both.
pub struct Rows<I: Iterator, L: Iterator> {
    ids: Peekable<I>,
    literal: Peekable<L>,
}

impl<'a, I, L> Iterator for Rows<I, L>
where
    I: Iterator<Item = u64>,
    L: Iterator<Item = (&'a MetricKey, &'a FieldValues)>,
{
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        // No key is in both halves, so the two heads never tie.
        let generated_first = match (self.ids.peek(), self.literal.peek()) {
            (Some(&id), Some((key, _))) => MetricKey::from_id(id) < **key,
            (ids, _) => ids.is_some(),
        };
        if generated_first {
            self.ids.next().map(RowRef::Generated)
        } else {
            self.literal
                .next()
                .map(|(key, fields)| RowRef::Literal(key, fields))
        }
    }
}

/// The walk over a [`RecordTable`].
pub type TableRows<'a> = Rows<Ids<'a>, btree_map::Range<'a, MetricKey, FieldValues>>;

/// A literal row of a [`SortedRows`], borrowed as a pair.
type Pair<'a> = (&'a MetricKey, &'a FieldValues);

fn pair(row: &(MetricKey, FieldValues)) -> Pair<'_> {
    (&row.0, &row.1)
}

/// The walk over a [`SortedRows`] (or a window of one).
pub type RunRows<'a> = Rows<
    Copied<slice::Iter<'a, u64>>,
    Map<slice::Iter<'a, (MetricKey, FieldValues)>, fn(&'a (MetricKey, FieldValues)) -> Pair<'a>>,
>;

/// Most ids one chunk of an [`IdSet`] holds. Chosen by a sweep of 128,
/// 256, 512 and 1024 on the scan, point and checkpoint workloads
/// (DESIGN.md §14).
const CHUNK: usize = 512;

/// A set of ids in ascending chunks of at most [`CHUNK`], with each
/// chunk's last id beside them: the one-key-per-block sparse index of a
/// sorted run, made mutable. A lookup is two binary searches (which
/// chunk, then where in it); an insert or a remove shifts ids within one
/// chunk, which splits in half when full and is dropped when empty; and
/// the ids at or after a position are counted by adding chunk lengths.
#[derive(Clone, Debug, Default)]
struct IdSet {
    /// Non-empty, ascending, every id after the chunk before's.
    chunks: Vec<Vec<u64>>,
    /// The last id of each chunk.
    lasts: Vec<u64>,
    len: usize,
}

/// A place in an [`IdSet`]: a chunk and an index in it. The chunk is
/// past the last one when every id sorts before the place.
type Place = (usize, usize);

impl IdSet {
    /// The set of `ids`, ascending, in full chunks.
    fn from_sorted(ids: &[u64]) -> IdSet {
        let chunks: Vec<Vec<u64>> = ids.chunks(CHUNK).map(<[u64]>::to_vec).collect();
        IdSet {
            lasts: chunks.iter().map(|chunk| chunk[chunk.len() - 1]).collect(),
            chunks,
            len: ids.len(),
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Where `id` is, or would go: the first chunk whose last id is not
    /// below it, and its place there.
    fn seek(&self, id: u64) -> Place {
        let c = self.lasts.partition_point(|&last| last < id);
        let at = self
            .chunks
            .get(c)
            .map_or(0, |chunk| chunk.partition_point(|&x| x < id));
        (c, at)
    }

    /// The place of the first id whose key sorts at or after `start`.
    fn seek_key(&self, start: &MetricKey) -> Place {
        match first_id_from(start) {
            Some(id) => self.seek(id),
            None => (self.chunks.len(), 0),
        }
    }

    fn at(&self, (c, at): Place) -> Option<u64> {
        self.chunks.get(c)?.get(at).copied()
    }

    fn contains(&self, id: u64) -> bool {
        self.at(self.seek(id)) == Some(id)
    }

    /// Adds `id`; true when it was not there.
    fn insert(&mut self, id: u64) -> bool {
        let (mut c, mut at) = self.seek(id);
        if c == self.chunks.len() {
            // Past every chunk's last id: it ends the last chunk.
            let Some(last) = self.chunks.last() else {
                self.chunks.push(vec![id]);
                self.lasts.push(id);
                self.len = 1;
                return true;
            };
            (c, at) = (c - 1, last.len());
        } else if self.chunks[c][at] == id {
            return false;
        }
        if self.chunks[c].len() == CHUNK {
            // Split before growing, so no chunk outgrows CHUNK.
            let half = CHUNK / 2;
            let right = self.chunks[c].split_off(half);
            self.lasts.insert(c, self.chunks[c][half - 1]);
            self.chunks.insert(c + 1, right);
            if at > half {
                (c, at) = (c + 1, at - half);
            }
        }
        let chunk = &mut self.chunks[c];
        chunk.insert(at, id);
        self.lasts[c] = chunk[chunk.len() - 1];
        self.len += 1;
        true
    }

    /// Takes `id` out; true when it was there.
    fn remove(&mut self, id: u64) -> bool {
        let (c, at) = self.seek(id);
        if self.at((c, at)) != Some(id) {
            return false;
        }
        let chunk = &mut self.chunks[c];
        chunk.remove(at);
        match chunk.last() {
            Some(&last) => self.lasts[c] = last,
            None => {
                self.chunks.remove(c);
                self.lasts.remove(c);
            }
        }
        self.len -= 1;
        true
    }

    /// The ids from `place` on, ascending.
    fn iter_from(&self, (c, at): Place) -> Ids<'_> {
        let chunk = self.chunks.get(c).map_or(&[][..], |chunk| &chunk[at..]);
        let rest = self.chunks.get(c + 1..).unwrap_or_default();
        chunk.iter().chain(rest.iter().flatten()).copied()
    }

    /// How many ids there are from `place` on, counted up to `len`.
    fn count_from(&self, (c, at): Place, len: usize) -> usize {
        let mut count = self.chunks.get(c).map_or(0, |chunk| chunk.len() - at);
        for chunk in self.chunks.iter().skip(c + 1) {
            if count >= len {
                break;
            }
            count += chunk.len();
        }
        count.min(len)
    }
}

/// The ids of a [`RecordTable`] from some place on, ascending: the rest
/// of one chunk, then every chunk after it.
pub type Ids<'a> = Copied<Chain<slice::Iter<'a, u64>, Flatten<slice::Iter<'a, Vec<u64>>>>>;

/// The record table.
#[derive(Clone, Debug, Default)]
pub struct RecordTable {
    /// Generated rows, as their ids.
    ids: IdSet,
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
        self.len() == 0
    }

    /// Whether `key` has a row.
    pub fn contains(&self, key: &MetricKey) -> bool {
        key.to_id().is_some_and(|id| self.ids.contains(id)) || self.literal.contains_key(key)
    }

    /// `key`'s row.
    pub fn get(&self, key: &MetricKey) -> Option<Row> {
        match key.to_id() {
            Some(id) if self.ids.contains(id) => Some(Row::Generated(id)),
            _ => self
                .literal
                .get_key_value(key)
                .map(|(key, fields)| Row::Literal(*key, *fields)),
        }
    }

    /// Inserts or replaces `row`; true when its key is new. A row moves
    /// between the halves when its fields start or stop being its id's.
    pub fn insert(&mut self, row: Row) -> bool {
        match row {
            // A key already among the ids is in no literal row.
            Row::Generated(id) => {
                self.ids.insert(id)
                    && (self.literal.is_empty()
                        || self.literal.remove(&MetricKey::from_id(id)).is_none())
            }
            Row::Literal(key, fields) => {
                let was_generated = key.to_id().is_some_and(|id| self.ids.remove(id));
                self.literal.insert(key, fields).is_none() && !was_generated
            }
        }
    }

    /// Every row at or after `start`, in key order.
    pub fn rows_from(&self, start: &MetricKey) -> TableRows<'_> {
        Rows {
            ids: self.ids.iter_from(self.ids.seek_key(start)).peekable(),
            literal: self.literal.range(start..).peekable(),
        }
    }

    /// The first `len` rows at or after `start`.
    pub fn scan(&self, start: &MetricKey, len: usize) -> Vec<Row> {
        self.rows_from(start)
            .take(len)
            .map(RowRef::to_row)
            .collect()
    }

    /// How many rows [`RecordTable::scan`] returns, with no row read: the
    /// two halves are disjoint, so it is the ids at or after `start` (one
    /// seek, then chunk lengths) plus the literal rows there, up to `len`.
    pub fn scan_count(&self, start: &MetricKey, len: usize) -> usize {
        let ids = self.ids.count_from(self.ids.seek_key(start), len);
        let literal = self.literal.range(start..).take(len).count();
        len.min(ids + literal)
    }

    /// Empties the table into a [`SortedRows`] of the same rows.
    pub fn drain_sorted(&mut self) -> SortedRows {
        let RecordTable { ids, literal } = std::mem::take(self);
        SortedRows {
            ids: ids.chunks.concat(),
            literal: literal.into_iter().collect(),
        }
    }
}

/// The first id whose key sorts at or after `start`, if any does. A
/// foreign `start` is placed by bisection: `from_id` is increasing.
fn first_id_from(start: &MetricKey) -> Option<u64> {
    if let Some(id) = start.to_id() {
        return Some(id);
    }
    if MetricKey::from_id(u64::MAX) < *start {
        return None;
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
    Some(lo)
}

impl Snap for RecordTable {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for row in self.rows_from(&MetricKey::MIN) {
            snap_row(w, &row.to_row());
        }
    }

    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        let SortedRows { ids, literal } =
            SortedRows::restore(r, "RecordTable row not after the one before it")?;
        // Sorted input: the chunks and the tree are bulk-built, full.
        Ok(RecordTable {
            ids: IdSet::from_sorted(&ids),
            literal: literal.into_iter().collect(),
        })
    }
}

/// Rows in two sorted vectors: what a run or a leaf holds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SortedRows {
    /// Generated rows, as their ids, ascending.
    ids: Vec<u64>,
    /// Every other row, ascending; no key here is also in `ids`.
    literal: Vec<(MetricKey, FieldValues)>,
}

/// Up to `len` rows of a [`SortedRows`] from some start key, borrowed.
#[derive(Clone, Copy, Debug)]
pub struct Window<'a> {
    ids: &'a [u64],
    literal: &'a [(MetricKey, FieldValues)],
    len: usize,
}

impl<'a> Window<'a> {
    /// Number of rows in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The window's rows, in key order.
    pub fn rows(&self) -> Take<RunRows<'a>> {
        walk(self.ids, self.literal).take(self.len)
    }
}

fn walk<'a>(ids: &'a [u64], literal: &'a [(MetricKey, FieldValues)]) -> RunRows<'a> {
    Rows {
        ids: ids.iter().copied().peekable(),
        literal: literal
            .iter()
            .map(pair as fn(&'a (MetricKey, FieldValues)) -> Pair<'a>)
            .peekable(),
    }
}

impl SortedRows {
    /// No rows, with room for `ids` generated ones.
    pub fn with_capacity(ids: usize) -> SortedRows {
        SortedRows {
            ids: Vec::with_capacity(ids),
            literal: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len() + self.literal.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty() && self.literal.is_empty()
    }

    /// Every row, in key order.
    pub fn rows(&self) -> RunRows<'_> {
        walk(&self.ids, &self.literal)
    }

    /// Every row's key, generated ones rendered, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = MetricKey> + '_ {
        let ids = self.ids.iter().map(|&id| MetricKey::from_id(id));
        ids.chain(self.literal.iter().map(|(key, _)| *key))
    }

    /// The smallest key and the largest, when there are rows.
    pub fn key_range(&self) -> Option<(MetricKey, MetricKey)> {
        let first = self.rows().next()?.key();
        let last_id = self.ids.last().map(|&id| MetricKey::from_id(id));
        let last = last_id.max(self.literal.last().map(|(key, _)| *key))?;
        Some((first, last))
    }

    /// Appends `row`, which sorts after every row held.
    pub fn push(&mut self, row: RowRef<'_>) {
        match row {
            RowRef::Generated(id) => self.ids.push(id),
            RowRef::Literal(key, fields) => self.literal.push((*key, *fields)),
        }
    }

    /// `key`'s row.
    pub fn get(&self, key: &MetricKey) -> Option<Row> {
        if let Some(id) = key.to_id() {
            if self.ids.binary_search(&id).is_ok() {
                return Some(Row::Generated(id));
            }
        }
        let i = self.literal.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
        let (key, fields) = self.literal[i];
        Some(Row::Literal(key, fields))
    }

    /// Inserts or replaces `row`; true when its key is new. A row moves
    /// between the halves when its fields start or stop being its id's.
    pub fn insert(&mut self, row: Row) -> bool {
        match row {
            Row::Generated(id) => match self.ids.binary_search(&id) {
                Ok(_) => false,
                Err(i) => {
                    self.ids.insert(i, id);
                    self.literal.is_empty() || !self.remove_literal(&MetricKey::from_id(id))
                }
            },
            Row::Literal(key, fields) => {
                match self.literal.binary_search_by(|(k, _)| k.cmp(&key)) {
                    Ok(i) => {
                        self.literal[i].1 = fields;
                        false
                    }
                    Err(i) => {
                        self.literal.insert(i, (key, fields));
                        let id = key.to_id();
                        match id.map(|id| self.ids.binary_search(&id)) {
                            Some(Ok(at)) => {
                                self.ids.remove(at);
                                false
                            }
                            _ => true,
                        }
                    }
                }
            }
        }
    }

    /// Removes `key`'s literal row; true when there was one.
    fn remove_literal(&mut self, key: &MetricKey) -> bool {
        match self.literal.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => {
                self.literal.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Up to `len` rows at or after `start`.
    pub fn window(&self, start: &MetricKey, len: usize) -> Window<'_> {
        let ids_at = match start.to_id() {
            Some(id) => self.ids.partition_point(|&x| x < id),
            None => self
                .ids
                .partition_point(|&x| MetricKey::from_id(x) < *start),
        };
        let literal_at = self.literal.partition_point(|(k, _)| k < start);
        let cut = |at: usize, total: usize| at..total.min(at.saturating_add(len));
        let (ids, literal) = (
            &self.ids[cut(ids_at, self.ids.len())],
            &self.literal[cut(literal_at, self.literal.len())],
        );
        Window {
            ids,
            literal,
            len: len.min(ids.len() + literal.len()),
        }
    }

    /// Every row, as a window.
    pub fn all(&self) -> Window<'_> {
        Window {
            ids: &self.ids,
            literal: &self.literal,
            len: self.len(),
        }
    }

    /// Splits off every row from the `at`-th in key order on.
    pub fn split_off(&mut self, at: usize) -> SortedRows {
        let ids_left = if self.literal.is_empty() {
            at.min(self.ids.len())
        } else {
            let left = self.rows().take(at);
            left.filter(|row| matches!(row, RowRef::Generated(_)))
                .count()
        };
        let literal_left = at.saturating_sub(ids_left).min(self.literal.len());
        SortedRows {
            ids: self.ids.split_off(ids_left),
            literal: self.literal.split_off(literal_left),
        }
    }

    /// Releases spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.ids.shrink_to_fit();
        self.literal.shrink_to_fit();
    }

    /// Writes the rows merged, as a `Vec<(MetricKey, FieldValues)>` of
    /// them would be written.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for row in self.rows() {
            snap_row(w, &row.to_row());
        }
    }

    /// Reads rows written by [`SortedRows::snap`]. A row that does not
    /// sort strictly after the one before it is refused as `what`, tagged
    /// with its index, so the rows decoded re-encode to the bytes they
    /// came from.
    pub fn restore(r: &mut SnapReader, what: &'static str) -> Result<SortedRows, SnapError> {
        let len = r.count(MIN_RECORD_SNAP_BYTES)?;
        let mut rows = SortedRows::with_capacity(len);
        let mut last: Option<Row> = None;
        restore_rows(r, len, |row| {
            if last.is_some_and(|before| !ascending(&before, &row)) {
                return Err(SnapError::BadTag {
                    what,
                    tag: rows.len() as u64,
                });
            }
            match row {
                Row::Generated(id) => rows.ids.push(id),
                Row::Literal(key, fields) => rows.literal.push((key, fields)),
            }
            last = Some(row);
            Ok(())
        })?;
        rows.ids.shrink_to_fit();
        Ok(rows)
    }
}

impl FromIterator<Row> for SortedRows {
    /// Rows given in strictly ascending key order.
    fn from_iter<T: IntoIterator<Item = Row>>(rows: T) -> SortedRows {
        let mut out = SortedRows::default();
        for row in rows {
            match row {
                Row::Generated(id) => out.ids.push(id),
                Row::Literal(key, fields) => out.literal.push((key, fields)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::SplitRng;
    use apm_core::record::{Record, KEY_SIZE};
    use std::collections::BTreeSet;

    #[test]
    fn a_generated_row_is_held_as_its_id() {
        let mut table = RecordTable::new();
        let mut sorted = SortedRows::default();
        let key = MetricKey::from_id(7);
        let other = Row::Literal(key, FieldValues::ZERO);
        let foreign = Row::Literal(MetricKey::MAX, FieldValues::from_seed(7));
        let halves = |t: &RecordTable, s: &SortedRows| {
            let both = (t.ids.len(), t.literal.len());
            assert_eq!(both, (s.ids.len(), s.literal.len()));
            both
        };
        for (row, new, after) in [
            (Row::Generated(7), true, (1, 0)),
            // Other fields move it to the literal half, its own back.
            (other, false, (0, 1)),
            (Row::Generated(7), false, (1, 0)),
            (other, false, (0, 1)),
            (other, false, (0, 1)),
            (Row::Generated(7), false, (1, 0)),
            // A foreign key is literal whatever its fields.
            (foreign, true, (1, 1)),
        ] {
            assert_eq!((table.insert(row), sorted.insert(row)), (new, new));
            assert_eq!(halves(&table, &sorted), after, "{row:?}");
            assert_eq!(table.get(&row.key()), Some(row));
            assert_eq!(sorted.get(&row.key()), Some(row));
        }
        assert!(table.contains(&MetricKey::MAX) && !table.contains(&MetricKey::MIN));
        assert_eq!(table.drain_sorted(), sorted);
        assert!(table.is_empty());
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
    fn first_id_from_is_the_first_id_whose_key_is_not_below_start() {
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
            match first_id_from(&start) {
                Some(id) => {
                    assert!(key(id) >= start, "{start:?}: {id}");
                    assert!(id == 0 || key(id - 1) < start, "{start:?}: {id}");
                }
                None => assert!(key(u64::MAX) < start, "{start:?}"),
            }
        }
    }

    /// One step of the model-equivalence walk.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Insert(MetricKey, FieldValues),
        Get(MetricKey),
        Scan(MetricKey, usize),
        Split(usize),
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
                match rng.next_below(11) {
                    0..=3 => Op::Insert(key, random_fields(rng, &key)),
                    4 | 5 => Op::Get(key),
                    6 => Op::Split(rng.next_below(70) as usize),
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
            let mut sorted = SortedRows::default();
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
                        let new = model.insert(key, fields).is_none();
                        assert_eq!(table.insert(Row::new(key, fields)), new, "case {case}");
                        assert_eq!(sorted.insert(Row::new(key, fields)), new, "case {case}");
                    }
                    Op::Get(key) => {
                        let want = model.get(&key).map(|fields| Row::new(key, *fields));
                        assert_eq!(table.get(&key), want, "case {case}");
                        assert_eq!(sorted.get(&key), want, "case {case}");
                        assert_eq!(table.contains(&key), model.contains_key(&key));
                    }
                    Op::Scan(start, len) => {
                        let want: Vec<Row> = model
                            .range(start..)
                            .take(len)
                            .map(|(k, v)| Row::new(*k, *v))
                            .collect();
                        assert_eq!(table.scan(&start, len), want, "case {case}: {start:?}");
                        assert_eq!(table.scan_count(&start, len), want.len(), "case {case}");
                        let window = sorted.window(&start, len);
                        let got: Vec<Row> = window.rows().map(RowRef::to_row).collect();
                        assert_eq!((got, window.len()), (want.clone(), want.len()));
                    }
                    Op::Split(at) => {
                        // Split in merged order and put back together.
                        let whole: Vec<Row> = sorted.rows().map(RowRef::to_row).collect();
                        let right = sorted.split_off(at);
                        assert_eq!(sorted.len(), at.min(whole.len()), "case {case}");
                        let left_last = sorted.key_range().map(|(_, last)| last);
                        let right_first = right.key_range().map(|(first, _)| first);
                        if let (Some(last), Some(first)) = (left_last, right_first) {
                            assert!(last < first, "case {case}: {at}");
                        }
                        sorted = sorted
                            .rows()
                            .chain(right.rows())
                            .map(RowRef::to_row)
                            .collect();
                        let again: Vec<Row> = sorted.rows().map(RowRef::to_row).collect();
                        assert_eq!(again, whole, "case {case}");
                    }
                }
                assert_eq!(table.len(), model.len(), "case {case}");
                assert_eq!(sorted.len(), model.len(), "case {case}");
            }
            // A key lives in exactly one half.
            let key_in_both = |id| table.literal.contains_key(&MetricKey::from_id(id));
            assert!(!table.ids.iter_from((0, 0)).any(key_in_both), "case {case}");
            let key_in_both = |&id| sorted.get(&MetricKey::from_id(id)) != Some(Row::Generated(id));
            assert!(!sorted.ids.iter().any(key_in_both), "case {case}");
            let keys: BTreeSet<MetricKey> = sorted.keys().collect();
            assert!(keys.iter().eq(model.keys()), "case {case}");
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
            let mut w = SnapWriter::new();
            sorted.snap(&mut w);
            assert_eq!(w.bytes(), &bytes[..], "case {case}");
            let mut r = SnapReader::new(&bytes);
            assert_eq!(SortedRows::restore(&mut r, "rows"), Ok(sorted.clone()));
            r.finish().expect("every byte read");
            assert_eq!(table.drain_sorted(), sorted, "case {case}");
        }
    }

    /// The chunks are non-empty, at most [`CHUNK`] long and ascending
    /// across, each with its last id beside it, and they hold `len` ids.
    fn assert_chunks_hold(ids: &IdSet) {
        let IdSet { chunks, lasts, len } = ids;
        assert_eq!(chunks.len(), lasts.len());
        for (chunk, &last) in chunks.iter().zip(lasts) {
            assert!(!chunk.is_empty() && chunk.len() <= CHUNK);
            assert_eq!(chunk.last(), Some(&last));
        }
        let all = chunks.concat();
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all.len(), *len);
    }

    /// Every read of `table` that a chunk boundary could get wrong, from
    /// each chunk's first and last id, one past its last, and the foreign
    /// key just after its last (between it and the next chunk), against
    /// the model.
    fn assert_reads_match(table: &RecordTable, model: &BTreeMap<MetricKey, FieldValues>) {
        assert_chunks_hold(&table.ids);
        let mut starts = vec![MetricKey::MIN, MetricKey::MAX];
        for chunk in &table.ids.chunks {
            let (first, last) = (chunk[0], chunk[chunk.len() - 1]);
            starts.extend([first, last, last.wrapping_add(1)].map(MetricKey::from_id));
            starts.push(just_after(last));
        }
        let keys: Vec<MetricKey> = model.keys().copied().collect();
        for start in starts {
            let want = model.get(&start).map(|fields| Row::new(start, *fields));
            assert_eq!(table.get(&start), want, "{start:?}");
            assert_eq!(table.contains(&start), want.is_some(), "{start:?}");
            let rest = keys.len() - keys.partition_point(|key| *key < start);
            for len in [0, 1, 50, CHUNK, CHUNK + 1, 3 * CHUNK] {
                let want: Vec<Row> = model
                    .range(start..)
                    .take(len)
                    .map(|(k, v)| Row::new(*k, *v))
                    .collect();
                assert_eq!(table.scan(&start, len), want, "{start:?} {len}");
                assert_eq!(table.scan_count(&start, len), want.len(), "{start:?} {len}");
            }
            assert_eq!(table.scan_count(&start, usize::MAX), rest, "{start:?}");
        }
        assert_eq!(table.scan(&MetricKey::MIN, usize::MAX).len(), model.len());
        // The codec writes the model's bytes; a restore bulk-builds full
        // chunks that read and write the same.
        let bytes = encoded(table);
        assert_eq!(bytes, encoded(model));
        let mut r = SnapReader::new(&bytes);
        let restored: RecordTable = r.get().expect("own bytes decode");
        r.finish().expect("every byte read");
        assert_chunks_hold(&restored.ids);
        assert_eq!(encoded(&restored), bytes);
        for start in [
            MetricKey::MIN,
            *model.keys().nth(model.len() / 2).expect("rows"),
        ] {
            let len = 2 * CHUNK;
            assert_eq!(restored.scan(&start, len), table.scan(&start, len));
            assert_eq!(
                restored.scan_count(&start, len),
                table.scan_count(&start, len)
            );
        }
    }

    /// Inserts `row` into both, which must agree on whether it is new.
    fn put(table: &mut RecordTable, model: &mut BTreeMap<MetricKey, FieldValues>, row: Row) {
        let new = model.insert(row.key(), row.fields()).is_none();
        assert_eq!(table.insert(row), new, "{row:?}");
    }

    /// `ids` random ids inserted in scrambled order, so the set holds many
    /// chunks; then literal rows overwrite every id of some chunks, which
    /// empties and drops them, and of a scattering of single ids, beside
    /// foreign rows between chunks; then half the overwritten ids come
    /// back as generated rows. Every stage is read against the model.
    fn chunked_table_matches_the_btreemap_model(cases: u64, ids: usize) {
        let mut root = SplitRng::new(0x6368_756E);
        for case in 0..cases {
            let mut rng = root.split(case);
            let mut table = RecordTable::new();
            let mut model: BTreeMap<MetricKey, FieldValues> = BTreeMap::new();
            for _ in 0..ids {
                put(&mut table, &mut model, Row::Generated(rng.next_u64()));
            }
            assert!(table.ids.chunks.len() > ids / CHUNK, "case {case}");
            assert_reads_match(&table, &model);
            let chunks = table.ids.chunks.clone();
            let mut overwritten = Vec::new();
            for (c, chunk) in chunks.iter().enumerate() {
                let whole = c % 3 == 1;
                for &id in chunk.iter().filter(|_| whole || rng.next_below(16) == 0) {
                    overwritten.push(id);
                    let other = Row::Literal(MetricKey::from_id(id), FieldValues::ZERO);
                    put(&mut table, &mut model, other);
                }
                let foreign = just_after(chunk[chunk.len() - 1]);
                let fields = FieldValues::from_seed(c as u64);
                put(&mut table, &mut model, Row::Literal(foreign, fields));
            }
            assert!(
                table.ids.chunks.len() < chunks.len(),
                "case {case}: none emptied"
            );
            assert_reads_match(&table, &model);
            for &id in overwritten.iter().step_by(2) {
                put(&mut table, &mut model, Row::Generated(id));
            }
            assert_reads_match(&table, &model);
            assert_eq!(table.drain_sorted().len(), model.len(), "case {case}");
        }
    }

    #[test]
    fn kernel_equivalence_of_chunked_record_table_and_btreemap() {
        chunked_table_matches_the_btreemap_model(2, 6 * CHUNK + 100);
    }

    #[test]
    #[ignore = "64 cases of 20 chunks: CI runs it in the release profile"]
    fn kernel_equivalence_of_chunked_record_table_and_btreemap_at_the_large_budget() {
        chunked_table_matches_the_btreemap_model(64, 20 * CHUNK);
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
