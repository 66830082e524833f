//! A streaming k-way merge cursor over sorted sources — the one merge in
//! the crate: LSM range scans (the memtable's rows + one borrowed
//! [`crate::sstable::SsTable`] window per run), their count-only form and
//! compaction all pull from a [`MergeCursor`] instead of concatenating
//! candidates and sorting them.
//!
//! **Ordering invariant.** Every source is strictly ascending by key and
//! carries a distinct *rank* (the table id; the memtable ranks above every
//! table). The cursor yields `(key asc, rank desc)` and keeps only the
//! first occurrence of each key — the newest version — by advancing every
//! source that sits on the winning key: what sorting by
//! `(key, Reverse(id))` and deduplicating produced, without materialising
//! the losers. Rows are borrowed [`RowRef`]s, so two generated rows
//! compare as their `u64` ids. The minimum is a linear pass over the
//! heads; DESIGN.md §14 has why (measured against a heap).
//!
//! **Counting.** The merged stream holds every key any source holds, once,
//! so it is at least as long as its widest source. The cursor keeps the
//! widest source's row count, and [`MergeCursor::count_up_to`] answers
//! `len` from it whenever one source alone holds `len` rows; it walks the
//! merge only when every source is shorter.

use crate::table::{RecordTable, RowRef, RunRows, TableRows, Window};
use apm_core::record::MetricKey;
use std::iter::Take;

/// Rank of the memtable: newer than any table id.
const MEMTABLE_RANK: u64 = u64::MAX;

enum Rest<'a> {
    Table(TableRows<'a>),
    Run(Take<RunRows<'a>>),
}

impl<'a> Rest<'a> {
    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        match self {
            Rest::Table(rows) => rows.next(),
            Rest::Run(rows) => rows.next(),
        }
    }
}

/// A non-exhausted source: its current head and what follows it.
struct Source<'a> {
    head: RowRef<'a>,
    rank: u64,
    rest: Rest<'a>,
}

/// Merges sorted sources into one deduplicated ascending stream.
pub struct MergeCursor<'a> {
    sources: Vec<Source<'a>>,
    /// The most rows any one source was pushed with.
    widest: usize,
}

impl<'a> MergeCursor<'a> {
    /// An empty cursor with room for `sources` inputs.
    pub fn with_capacity(sources: usize) -> MergeCursor<'a> {
        MergeCursor {
            sources: Vec::with_capacity(sources),
            widest: 0,
        }
    }

    /// Adds a source of `rows` rows.
    fn push(&mut self, rank: u64, rows: usize, mut rest: Rest<'a>) {
        self.widest = self.widest.max(rows);
        if let Some(head) = rest.next() {
            debug_assert!(
                self.sources.iter().all(|s| s.rank != rank),
                "source ranks must be distinct"
            );
            self.sources.push(Source { head, rank, rest });
        }
    }

    /// Adds the memtable's rows at or after `start` (ranked above every
    /// run), counted up to `len`.
    pub fn push_memtable(&mut self, memtable: &'a RecordTable, start: &MetricKey, len: usize) {
        let rows = memtable.scan_count(start, len);
        self.push(MEMTABLE_RANK, rows, Rest::Table(memtable.rows_from(start)));
    }

    /// Adds a run window with precedence `rank`.
    pub fn push_run(&mut self, rank: u64, window: Window<'a>) {
        self.push(rank, window.len(), Rest::Run(window.rows()));
    }

    /// How many rows the first `len` of the stream hold: `len` outright
    /// when one source holds that many, else a walk of the merge.
    pub fn count_up_to(self, len: usize) -> usize {
        if self.widest >= len {
            return len;
        }
        self.take(len).count()
    }
}

impl<'a> Iterator for MergeCursor<'a> {
    type Item = RowRef<'a>;

    fn next(&mut self) -> Option<RowRef<'a>> {
        let mut best = self.sources.first()?;
        for source in &self.sources[1..] {
            let order = source.head.cmp_key(&best.head);
            if order.is_lt() || (order.is_eq() && source.rank > best.rank) {
                best = source;
            }
        }
        let winner = best.head;
        // Step every source past the winning key: the losers' versions of
        // it are shadowed. Exhausted sources drop out (order among
        // sources carries no meaning — precedence is the rank).
        let mut i = 0;
        while i < self.sources.len() {
            let source = &mut self.sources[i];
            if source.head.cmp_key(&winner).is_eq() {
                match source.rest.next() {
                    Some(head) => source.head = head,
                    None => {
                        self.sources.swap_remove(i);
                        continue;
                    }
                }
            }
            i += 1;
        }
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::SortedRows;
    use apm_core::keyspace::record_for_seq;
    use apm_core::record::{FieldValues, MetricKey, Row};

    /// Rows of `seqs` with `version`'s fields — or, for version 0, their
    /// own generated ones.
    fn rows(seqs: &[u64], version: u64) -> Vec<Row> {
        let mut rows: Vec<Row> = seqs
            .iter()
            .map(|&s| {
                let key = record_for_seq(s).key;
                match version {
                    0 => Row::Generated(key.to_id().expect("an id's key")),
                    v => Row::Literal(key, FieldValues::from_seed(v)),
                }
            })
            .collect();
        rows.sort_by_key(Row::key);
        rows
    }

    #[test]
    fn empty_cursor_yields_nothing() {
        assert!(MergeCursor::with_capacity(0).next().is_none());
        let empty = SortedRows::default();
        let mut cursor = MergeCursor::with_capacity(1);
        cursor.push_run(1, empty.all());
        assert!(cursor.next().is_none());
    }

    #[test]
    fn output_is_ascending_and_highest_rank_wins() {
        // Generated and literal versions of one key meet in every order.
        let old: SortedRows = rows(&[1, 2, 3, 4, 6], 10).into_iter().collect();
        let new: SortedRows = rows(&[3, 4, 5, 6], 0).into_iter().collect();
        let mut mem = RecordTable::new();
        for row in rows(&[4], 30).into_iter().chain(rows(&[2], 0)) {
            mem.insert(row);
        }
        // Push order must not matter: precedence is the rank.
        let mut cursor = MergeCursor::with_capacity(3);
        cursor.push_run(7, new.all());
        cursor.push_memtable(&mem, &MetricKey::MIN, usize::MAX);
        cursor.push_run(2, old.all());
        let got: Vec<Row> = cursor.map(RowRef::to_row).collect();
        assert!(got.windows(2).all(|w| w[0].key() < w[1].key()));
        let version = |seq: u64| {
            let key = record_for_seq(seq).key;
            got.iter().find(|r| r.key() == key).copied()
        };
        assert_eq!(got.len(), 6);
        assert_eq!(version(1), rows(&[1], 10).first().copied());
        assert_eq!(version(2), rows(&[2], 0).first().copied());
        assert_eq!(version(3), rows(&[3], 0).first().copied());
        assert_eq!(version(4), rows(&[4], 30).first().copied());
        assert_eq!(version(5), rows(&[5], 0).first().copied());
        assert_eq!(version(6), rows(&[6], 0).first().copied());
    }
}
