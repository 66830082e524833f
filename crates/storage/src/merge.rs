//! A streaming k-way merge cursor over sorted sources — the one merge in
//! the crate: LSM range scans (memtable window + one borrowed
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
//! the losers. The minimum is a linear pass over the heads; DESIGN.md §14
//! has why (measured against a heap).

use apm_core::record::{FieldValues, MetricKey};
use std::collections::btree_map;

/// A borrowed entry of some source.
pub type Entry<'a> = (&'a MetricKey, &'a FieldValues);

/// Rank of the memtable: newer than any table id.
const MEMTABLE_RANK: u64 = u64::MAX;

enum Rest<'a> {
    Map(std::iter::Take<btree_map::Range<'a, MetricKey, FieldValues>>),
    Run(std::slice::Iter<'a, (MetricKey, FieldValues)>),
}

impl<'a> Rest<'a> {
    fn next(&mut self) -> Option<Entry<'a>> {
        match self {
            Rest::Map(it) => it.next(),
            Rest::Run(it) => it.next().map(|(k, v)| (k, v)),
        }
    }
}

/// A non-exhausted source: its current head and what follows it.
struct Source<'a> {
    head: Entry<'a>,
    rank: u64,
    rest: Rest<'a>,
}

/// Merges sorted sources into one deduplicated ascending stream.
pub struct MergeCursor<'a> {
    sources: Vec<Source<'a>>,
}

impl<'a> MergeCursor<'a> {
    /// An empty cursor with room for `sources` inputs.
    pub fn with_capacity(sources: usize) -> MergeCursor<'a> {
        MergeCursor {
            sources: Vec::with_capacity(sources),
        }
    }

    fn push(&mut self, rank: u64, mut rest: Rest<'a>) {
        if let Some(head) = rest.next() {
            debug_assert!(
                self.sources.iter().all(|s| s.rank != rank),
                "source ranks must be distinct"
            );
            self.sources.push(Source { head, rank, rest });
        }
    }

    /// Adds a memtable window (ranked above every run).
    pub fn push_memtable(
        &mut self,
        window: std::iter::Take<btree_map::Range<'a, MetricKey, FieldValues>>,
    ) {
        self.push(MEMTABLE_RANK, Rest::Map(window));
    }

    /// Adds a strictly sorted run window with precedence `rank`.
    pub fn push_run(&mut self, rank: u64, window: &'a [(MetricKey, FieldValues)]) {
        self.push(rank, Rest::Run(window.iter()));
    }
}

impl<'a> Iterator for MergeCursor<'a> {
    type Item = Entry<'a>;

    fn next(&mut self) -> Option<Entry<'a>> {
        let mut best = self.sources.first()?;
        for source in &self.sources[1..] {
            let order = source.head.0.cmp(best.head.0);
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
            if source.head.0 == winner.0 {
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
    use apm_core::keyspace::record_for_seq;
    use std::collections::BTreeMap;

    fn run(seqs: &[u64], version: u64) -> Vec<(MetricKey, FieldValues)> {
        let mut rows: Vec<_> = seqs
            .iter()
            .map(|&s| (record_for_seq(s).key, FieldValues::from_seed(version)))
            .collect();
        rows.sort_by_key(|(k, _)| *k);
        rows
    }

    #[test]
    fn empty_cursor_yields_nothing() {
        assert!(MergeCursor::with_capacity(0).next().is_none());
        let mut cursor = MergeCursor::with_capacity(1);
        cursor.push_run(1, &[]);
        assert!(cursor.next().is_none());
    }

    #[test]
    fn output_is_ascending_and_highest_rank_wins() {
        let old = run(&[1, 2, 3, 4], 10);
        let new = run(&[3, 4, 5], 20);
        let mut mem = BTreeMap::new();
        mem.insert(record_for_seq(4).key, FieldValues::from_seed(30));
        // Push order must not matter: precedence is the rank.
        let mut cursor = MergeCursor::with_capacity(3);
        cursor.push_run(7, &new);
        cursor.push_memtable(mem.range(MetricKey::MIN..).take(usize::MAX));
        cursor.push_run(2, &old);
        let got: Vec<(MetricKey, FieldValues)> = cursor.map(|(k, v)| (*k, *v)).collect();
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        let version = |seq: u64| {
            let key = record_for_seq(seq).key;
            got.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
        };
        assert_eq!(got.len(), 5);
        assert_eq!(version(1), Some(FieldValues::from_seed(10)));
        assert_eq!(version(3), Some(FieldValues::from_seed(20)));
        assert_eq!(version(4), Some(FieldValues::from_seed(30)));
        assert_eq!(version(5), Some(FieldValues::from_seed(20)));
    }
}
