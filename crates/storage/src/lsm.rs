//! A log-structured merge tree with size-tiered compaction.
//!
//! This is the storage engine under the Cassandra- and HBase-like stores:
//! writes go to a sorted memtable; full memtables freeze into immutable
//! [`SsTable`]s; a size-tiered policy (Cassandra's default in 1.0) merges
//! runs of similar size. Reads consult the memtable, then every run
//! newest-first, with bloom filters short-circuiting most absent runs —
//! so *read amplification grows under write pressure*, one of the paper's
//! observed effects (high Cassandra/HBase read latencies, §5.1/§5.3).
//!
//! Background work (flush, compaction) is split in two phases so the
//! simulator can charge its I/O over virtual time: the tree *announces* a
//! [`BackgroundJob`] with its byte counts; the store layer schedules the
//! job's plan; when the plan completes it calls
//! [`LsmTree::complete_flush`] / [`LsmTree::complete_compaction`], and
//! only then does the real merge happen and read amplification drop.

use crate::merge::MergeCursor;
use crate::receipt::CostReceipt;
use crate::sstable::{SsTable, TableProbe};
use crate::table::{RecordTable, RowRef};
use apm_core::record::{FieldValues, MetricKey, Row, RAW_RECORD_SIZE};
use apm_core::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use std::collections::BTreeMap;

/// Compaction strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CompactionStrategy {
    /// Cassandra 1.0's default: merge runs of similar size once
    /// [`MIN_COMPACTION_INPUTS`] accumulate. Low write amplification, read
    /// amplification grows between merges.
    #[default]
    SizeTiered,
    /// Aggressive single-level policy (a simplified leveled/major
    /// compaction): once enough runs accumulate, merge *everything* into
    /// one run. Reads stay near one run; every record is rewritten on
    /// every major merge — high write amplification. Used by the
    /// compaction ablation experiment.
    Leveled,
}

/// Tuning knobs of the tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LsmConfig {
    /// Memtable size that triggers a flush, in raw payload bytes.
    pub memtable_flush_bytes: u64,
    /// Compaction policy.
    pub strategy: CompactionStrategy,
}

/// Minimum similar-size runs before a compaction is scheduled
/// (Cassandra's default `min_compaction_threshold`).
pub const MIN_COMPACTION_INPUTS: usize = 4;

/// Maximum runs merged by one compaction (Cassandra's default 32).
pub const MAX_COMPACTION_INPUTS: usize = 32;

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_flush_bytes: 4 << 20,
            strategy: CompactionStrategy::SizeTiered,
        }
    }
}

/// Kind of an announced background job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Memtable flush: sequential write of a new run.
    Flush,
    /// Size-tiered compaction: sequential read of inputs + write of output.
    Compaction,
}

/// A background job the store layer must schedule and later complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackgroundJob {
    /// Job id to pass back to the completion call.
    pub id: u64,
    /// Flush or compaction.
    pub kind: JobKind,
    /// Bytes the job reads from disk.
    pub read_bytes: u64,
    /// Bytes the job writes to disk.
    pub write_bytes: u64,
}

/// Cumulative engine statistics, an observer's: nothing a run does reads
/// them, and a checkpoint does not hold them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LsmStats {
    pub inserts: u64,
    pub reads: u64,
    pub scans: u64,
    /// Runs consulted across all reads (read amplification numerator).
    pub tables_consulted: u64,
    /// Runs skipped thanks to bloom filters.
    pub bloom_skips: u64,
    pub flushes: u64,
    pub compactions: u64,
    pub bytes_flushed: u64,
    pub bytes_compacted: u64,
}

impl LsmStats {
    /// Average number of runs physically consulted per read.
    pub fn read_amplification(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.tables_consulted as f64 / self.reads as f64
        }
    }
}

/// The LSM tree.
#[derive(Debug)]
pub struct LsmTree {
    config: LsmConfig,
    /// The write buffer; a row counts 75 bytes toward the flush
    /// threshold, whatever the host holds.
    memtable: RecordTable,
    /// All immutable runs, newest first (descending id).
    tables: Vec<SsTable>,
    /// Table ids currently being flushed (not yet durable / compactable).
    flushing: BTreeMap<u64, u64>, // table id -> job id
    /// Table ids consumed by an in-flight compaction.
    compacting_inputs: BTreeMap<u64, Vec<u64>>, // job id -> input table ids
    next_table_id: u64,
    next_job_id: u64,
    stats: LsmStats,
}

impl LsmTree {
    /// Creates an empty tree.
    pub fn new(config: LsmConfig) -> LsmTree {
        LsmTree {
            config,
            memtable: RecordTable::new(),
            tables: Vec::new(),
            flushing: BTreeMap::new(),
            compacting_inputs: BTreeMap::new(),
            next_table_id: 1,
            next_job_id: 1,
            stats: LsmStats::default(),
        }
    }

    /// [`LsmTree::insert_row`] of `key` and `value`.
    pub fn insert(
        &mut self,
        key: MetricKey,
        value: FieldValues,
    ) -> (CostReceipt, Option<BackgroundJob>) {
        self.insert_row(Row::new(key, value))
    }

    /// Inserts a row. Returns the operation receipt and, if the memtable
    /// crossed its threshold, the flush job to schedule.
    pub fn insert_row(&mut self, row: Row) -> (CostReceipt, Option<BackgroundJob>) {
        self.stats.inserts += 1;
        let mut receipt = CostReceipt::new();
        receipt.probe(1).touch(RAW_RECORD_SIZE as u64);
        self.memtable.insert(row);
        let buffered = (self.memtable.len() * RAW_RECORD_SIZE) as u64;
        let job = if buffered >= self.config.memtable_flush_bytes {
            Some(self.start_flush())
        } else {
            None
        };
        (receipt, job)
    }

    /// Freezes the current memtable into a run (immediately readable) and
    /// announces the flush job. No-op returning `None`-like zero job is
    /// avoided: callers must not invoke this with an empty memtable.
    fn start_flush(&mut self) -> BackgroundJob {
        debug_assert!(!self.memtable.is_empty());
        let rows = self.memtable.drain_sorted();
        let table = SsTable::from_rows(self.next_table_id, rows);
        self.next_table_id += 1;
        let job = BackgroundJob {
            id: self.next_job_id,
            kind: JobKind::Flush,
            read_bytes: 0,
            write_bytes: table.disk_bytes(),
        };
        self.next_job_id += 1;
        self.flushing.insert(table.id, job.id);
        // Newest first.
        self.tables.insert(0, table);
        job
    }

    /// Forces a flush of a non-empty memtable (end of load phase).
    pub fn force_flush(&mut self) -> Option<BackgroundJob> {
        if self.memtable.is_empty() {
            None
        } else {
            Some(self.start_flush())
        }
    }

    /// Marks a flush durable. Returns a compaction job if the flush made
    /// one eligible.
    ///
    /// # Panics
    /// Panics if `job_id` does not refer to an in-flight flush.
    pub fn complete_flush(&mut self, job_id: u64) -> Option<BackgroundJob> {
        let table_id = *self
            .flushing
            .iter()
            .find(|(_, j)| **j == job_id)
            .unwrap_or_else(|| panic!("unknown flush job {job_id}"))
            .0;
        self.flushing.remove(&table_id);
        self.stats.flushes += 1;
        if let Some(table) = self.tables.iter().find(|t| t.id == table_id) {
            self.stats.bytes_flushed += table.disk_bytes();
        }
        self.maybe_compact()
    }

    /// Size-tiered bucket selection: runs whose record counts share the
    /// same power-of-two magnitude form a bucket; a bucket with at least
    /// [`MIN_COMPACTION_INPUTS`] idle runs triggers a merge.
    fn maybe_compact(&mut self) -> Option<BackgroundJob> {
        if !self.compacting_inputs.is_empty() {
            // One compaction at a time (Cassandra 1.0 default behaviour
            // with a single compaction slot).
            return None;
        }
        let busy: Vec<u64> = self.flushing.keys().copied().collect();
        let mut inputs = match self.config.strategy {
            CompactionStrategy::SizeTiered => {
                let mut buckets: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
                for table in &self.tables {
                    if busy.contains(&table.id) || table.is_empty() {
                        continue;
                    }
                    let magnitude = 63 - (table.len() as u64).leading_zeros();
                    buckets.entry(magnitude).or_default().push(table.id);
                }
                buckets
                    .into_iter()
                    .filter(|(_, ids)| ids.len() >= MIN_COMPACTION_INPUTS)
                    .min_by_key(|(mag, _)| *mag)?
                    .1
            }
            CompactionStrategy::Leveled => {
                let idle: Vec<u64> = self
                    .tables
                    .iter()
                    .filter(|t| !busy.contains(&t.id) && !t.is_empty())
                    .map(|t| t.id)
                    .collect();
                if idle.len() < MIN_COMPACTION_INPUTS {
                    return None;
                }
                idle
            }
        };
        inputs.truncate(MAX_COMPACTION_INPUTS);
        let read_bytes: u64 = self
            .tables
            .iter()
            .filter(|t| inputs.contains(&t.id))
            .map(SsTable::disk_bytes)
            .sum();
        let job = BackgroundJob {
            id: self.next_job_id,
            kind: JobKind::Compaction,
            read_bytes,
            write_bytes: read_bytes, // upper bound; dedup shrinks it
        };
        self.next_job_id += 1;
        self.compacting_inputs.insert(job.id, inputs);
        Some(job)
    }

    /// Finishes a compaction: physically merges the inputs into one run.
    /// Returns a follow-up compaction job if one became eligible.
    ///
    /// # Panics
    /// Panics if `job_id` does not refer to an in-flight compaction.
    pub fn complete_compaction(&mut self, job_id: u64) -> Option<BackgroundJob> {
        let inputs = self
            .compacting_inputs
            .remove(&job_id)
            .unwrap_or_else(|| panic!("unknown compaction job {job_id}"));
        let input_tables: Vec<&SsTable> = self
            .tables
            .iter()
            .filter(|t| inputs.contains(&t.id))
            .collect();
        debug_assert_eq!(input_tables.len(), inputs.len());
        let merged = SsTable::merge(self.next_table_id, &input_tables);
        self.next_table_id += 1;
        self.stats.compactions += 1;
        self.stats.bytes_compacted += merged.disk_bytes();
        self.tables.retain(|t| !inputs.contains(&t.id));
        self.tables.insert(0, merged);
        self.tables.sort_by_key(|t| std::cmp::Reverse(t.id));
        self.maybe_compact()
    }

    /// Completes `job`, whichever kind it is. Returns the follow-up job
    /// its completion made eligible.
    pub fn complete(&mut self, job: BackgroundJob) -> Option<BackgroundJob> {
        match job.kind {
            JobKind::Flush => self.complete_flush(job.id),
            JobKind::Compaction => self.complete_compaction(job.id),
        }
    }

    /// Drives `job` and every follow-up it announces to completion on
    /// the spot: the untimed paths (load phase, bootstrap streaming,
    /// hint replay) have no simulated disk to wait for.
    pub fn settle(&mut self, mut job: Option<BackgroundJob>) {
        while let Some(j) = job {
            job = self.complete(j);
        }
    }

    /// Point lookup: memtable, then runs newest-first.
    pub fn get(&mut self, key: &MetricKey) -> (Option<Row>, CostReceipt) {
        self.stats.reads += 1;
        let mut receipt = CostReceipt::new();
        receipt.probe(1);
        if let Some(row) = self.memtable.get(key) {
            receipt.touch(RAW_RECORD_SIZE as u64);
            return (Some(row), receipt);
        }
        for table in &self.tables {
            match table.get(key, &mut receipt) {
                TableProbe::BloomNegative => {
                    self.stats.bloom_skips += 1;
                }
                TableProbe::Checked(Some(v)) => {
                    self.stats.tables_consulted += 1;
                    return (Some(v), receipt);
                }
                TableProbe::Checked(None) => {
                    self.stats.tables_consulted += 1;
                }
            }
        }
        (None, receipt)
    }

    /// The one range walk: charges the memtable probe and every run's
    /// window to the receipt, then hands `finish` the merge of the
    /// memtable's rows and every window at or after `start` (newest
    /// version of each key), which knows its widest source's count.
    fn scan_with<R>(
        &mut self,
        start: &MetricKey,
        len: usize,
        finish: impl FnOnce(MergeCursor<'_>) -> R,
    ) -> (R, CostReceipt) {
        self.stats.scans += 1;
        let mut receipt = CostReceipt::new();
        receipt.probe(1);
        let mut cursor = MergeCursor::with_capacity(1 + self.tables.len());
        cursor.push_memtable(&self.memtable, start, len);
        for table in &self.tables {
            cursor.push_run(table.id, table.scan(start, len, &mut receipt));
        }
        (finish(cursor), receipt)
    }

    /// Range scan merging the memtable and every run.
    pub fn scan(&mut self, start: &MetricKey, len: usize) -> (Vec<Row>, CostReceipt) {
        let capacity = len.min(self.record_count() as usize);
        self.scan_with(start, len, |cursor| {
            let mut rows = Vec::with_capacity(capacity);
            rows.extend(cursor.take(len).map(RowRef::to_row));
            rows
        })
    }

    /// [`LsmTree::scan`] for callers that only need the row count: the
    /// same positioning, statistics and receipt, with no row copied. One
    /// source holding `len` rows answers `len`, since the merge holds
    /// every key of every source; only a scan where every source is
    /// shorter, near the end of the key space, walks the merge.
    pub fn scan_count(&mut self, start: &MetricKey, len: usize) -> (usize, CostReceipt) {
        self.scan_with(start, len, |cursor| cursor.count_up_to(len))
    }

    /// Number of immutable runs.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total records across memtable and runs (counting duplicates).
    pub fn record_count(&self) -> u64 {
        self.memtable.len() as u64 + self.tables.iter().map(|t| t.len() as u64).sum::<u64>()
    }

    /// On-disk bytes across all runs (before store-format overhead).
    pub fn disk_bytes(&self) -> u64 {
        self.tables.iter().map(SsTable::disk_bytes).sum()
    }

    /// Engine statistics since construction or the last restore.
    pub fn stats(&self) -> LsmStats {
        self.stats
    }

    /// The job with id `id`, as announced, if the tree has announced it
    /// and not yet seen it completed — what [`LsmTree::complete`] needs
    /// not to panic.
    pub fn in_flight(&self, id: u64) -> Option<BackgroundJob> {
        let (kind, runs) = match self.flushing.iter().find(|&(_, &job)| job == id) {
            Some((run, _)) => (JobKind::Flush, std::slice::from_ref(run)),
            None => (JobKind::Compaction, &self.compacting_inputs.get(&id)?[..]),
        };
        let held = self.tables.iter().filter(|t| runs.contains(&t.id));
        let write_bytes = held.map(SsTable::disk_bytes).sum();
        let read_bytes = if kind == JobKind::Flush {
            0
        } else {
            write_bytes
        };
        Some(BackgroundJob {
            id,
            kind,
            read_bytes,
            write_bytes,
        })
    }
}

/// By hand: restore refuses an in-flight job naming a run the tree does
/// not hold, and zeroes the statistics.
impl SnapState for LsmTree {
    /// Serializes the tree's mutable state (the config is the caller's and
    /// is re-supplied at construction; the statistics are an observer's).
    fn snap_state(&self, w: &mut SnapWriter) {
        let LsmTree {
            config: _,
            memtable,
            tables,
            flushing,
            compacting_inputs,
            next_table_id,
            next_job_id,
            stats: _,
        } = self;
        w.put(memtable);
        w.put(tables);
        w.put(flushing);
        w.put(compacting_inputs);
        w.put_u64(*next_table_id);
        w.put_u64(*next_job_id);
    }

    /// Restores the mutable state written by [`LsmTree::snap_state`] into
    /// a tree built with the same config, and zeroes its statistics. A job
    /// naming a run the tree does not hold is refused: completing it
    /// would merge or account a run that is not there.
    fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let LsmTree {
            config: _,
            memtable,
            tables,
            flushing,
            compacting_inputs,
            next_table_id,
            next_job_id,
            stats,
        } = self;
        *memtable = r.get()?;
        *tables = r.get()?;
        *flushing = r.get()?;
        *compacting_inputs = r.get()?;
        *next_table_id = r.u64()?;
        *next_job_id = r.u64()?;
        *stats = LsmStats::default();
        let held = |id: &u64| tables.iter().any(|t| t.id == *id);
        if let Some(&id) = flushing
            .keys()
            .chain(compacting_inputs.values().flatten())
            .find(|id| !held(id))
        {
            return Err(SnapError::BadTag {
                what: "LsmTree job run",
                tag: id,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::record_for_seq;

    fn small_config() -> LsmConfig {
        LsmConfig {
            memtable_flush_bytes: 75 * 100,
            ..LsmConfig::default()
        }
    }

    fn load(tree: &mut LsmTree, seqs: std::ops::Range<u64>) {
        for seq in seqs {
            let r = record_for_seq(seq);
            let (_, job) = tree.insert(r.key, r.fields);
            tree.settle(job);
        }
    }

    /// [`load`], but the first compaction a flush announces is left in
    /// flight: one runs at a time, so every later run piles up unmerged.
    fn load_leaving_a_compaction_in_flight(tree: &mut LsmTree, seqs: std::ops::Range<u64>) {
        for seq in seqs {
            let r = record_for_seq(seq);
            if let (_, Some(flush)) = tree.insert(r.key, r.fields) {
                let _in_flight = tree.complete(flush);
            }
        }
    }

    #[test]
    fn reads_see_all_written_data() {
        let mut tree = LsmTree::new(small_config());
        load(&mut tree, 0..1_000);
        for seq in (0..1_000).step_by(37) {
            let r = record_for_seq(seq);
            let (found, _) = tree.get(&r.key);
            assert_eq!(found, Some(Row::from(r)), "seq {seq} lost");
        }
        let (missing, _) = tree.get(&record_for_seq(5_000).key);
        assert_eq!(missing, None);
    }

    /// 75 bytes a distinct row: a re-insert replaces its row and counts
    /// once, so the 100th distinct row flushes, not the 100th insert.
    #[test]
    fn memtable_flushes_at_threshold() {
        let mut tree = LsmTree::new(small_config());
        let mut flush_jobs = 0;
        let rewrite = Row::new(record_for_seq(0).key, record_for_seq(1).fields);
        for seq in 0..100 {
            if seq == 99 {
                assert!(tree.insert_row(rewrite).1.is_none(), "99 distinct rows");
            }
            let r = record_for_seq(seq);
            let (_, job) = tree.insert(r.key, r.fields);
            if let Some(j) = job {
                assert_eq!(j.kind, JobKind::Flush);
                assert!(j.write_bytes >= 75 * 100);
                flush_jobs += 1;
                tree.settle(Some(j));
            }
        }
        assert_eq!(flush_jobs, 1, "exactly one flush at 100 records");
        assert_eq!(tree.table_count(), 1);
    }

    #[test]
    fn compaction_reduces_table_count_and_preserves_data() {
        let mut tree = LsmTree::new(small_config());
        load(&mut tree, 0..2_000);
        // 20 flushes happened; compactions must have merged most runs.
        assert!(tree.stats().compactions >= 1, "no compaction triggered");
        assert!(
            tree.table_count() < 10,
            "too many runs left: {}",
            tree.table_count()
        );
        for seq in (0..2_000).step_by(101) {
            let r = record_for_seq(seq);
            assert_eq!(
                tree.get(&r.key).0,
                Some(Row::from(r)),
                "seq {seq} lost in compaction"
            );
        }
        assert_eq!(
            tree.record_count(),
            2_000,
            "compaction must not duplicate or drop"
        );
    }

    #[test]
    fn deferred_compaction_keeps_inputs_readable() {
        let mut tree = LsmTree::new(small_config());
        // Build up 4 runs without completing the eventual compaction.
        let mut pending_compaction = None;
        for seq in 0..400 {
            let r = record_for_seq(seq);
            let (_, job) = tree.insert(r.key, r.fields);
            if let Some(j) = job {
                let follow = tree.complete_flush(j.id);
                if let Some(c) = follow {
                    assert_eq!(c.kind, JobKind::Compaction);
                    pending_compaction = Some(c);
                }
            }
        }
        let c = pending_compaction.expect("4 runs should trigger compaction");
        // Before completion: data still fully readable from input runs.
        let r = record_for_seq(123);
        assert_eq!(tree.get(&r.key).0, Some(Row::from(r)));
        let before = tree.table_count();
        tree.complete_compaction(c.id);
        assert!(tree.table_count() < before);
        assert_eq!(tree.get(&r.key).0, Some(Row::from(r)));
    }

    #[test]
    fn read_amplification_grows_with_unmerged_runs() {
        let mut tree = LsmTree::new(LsmConfig {
            memtable_flush_bytes: 75 * 50,
            ..LsmConfig::default()
        });
        load_leaving_a_compaction_in_flight(&mut tree, 0..1_000);
        assert!(tree.table_count() >= 20);
        for seq in 0..200 {
            let r = record_for_seq(seq);
            tree.get(&r.key);
        }
        // With ~20 runs and uniform placement, blooms skip most but some
        // amplification remains; receipts must reflect > 1 probe work.
        let stats = tree.stats();
        assert!(stats.bloom_skips > 0, "bloom filters unused");
        assert!(stats.read_amplification() >= 0.9, "reads must consult runs");
    }

    #[test]
    fn scan_merges_memtable_and_runs_without_duplicates() {
        let mut tree = LsmTree::new(small_config());
        load(&mut tree, 0..500);
        // Leave some records in the memtable.
        for seq in 500..530 {
            let r = record_for_seq(seq);
            let (_, job) = tree.insert(r.key, r.fields);
            tree.settle(job);
        }
        let mut keys: Vec<MetricKey> = (0..530).map(|s| record_for_seq(s).key).collect();
        keys.sort();
        let (result, receipt) = tree.scan(&keys[100], 50);
        assert_eq!(result.len(), 50);
        let expected: Vec<MetricKey> = keys[100..150].to_vec();
        let got: Vec<MetricKey> = result.iter().map(Row::key).collect();
        assert_eq!(got, expected);
        assert!(receipt.read_ios() >= 1);
    }

    #[test]
    fn update_precedence_newest_wins_after_compaction() {
        let mut tree = LsmTree::new(small_config());
        let key = record_for_seq(1).key;
        let v1 = record_for_seq(100).fields;
        let v2 = record_for_seq(200).fields;
        let (_, job) = tree.insert(key, v1);
        tree.settle(job);
        // Pad to force a flush between the two versions.
        load(&mut tree, 1_000..1_120);
        let (_, job) = tree.insert(key, v2);
        tree.settle(job);
        load(&mut tree, 2_000..2_400); // force compactions
        assert_eq!(
            tree.get(&key).0,
            Some(Row::new(key, v2)),
            "older version resurrected"
        );
    }

    #[test]
    fn force_flush_empties_memtable() {
        let mut tree = LsmTree::new(LsmConfig::default());
        load(&mut tree, 0..10);
        assert_eq!(tree.table_count(), 0);
        let job = tree.force_flush().expect("non-empty memtable");
        tree.settle(Some(job));
        assert_eq!(tree.table_count(), 1);
        assert!(
            tree.force_flush().is_none(),
            "second force flush has nothing to do"
        );
    }

    #[test]
    fn stats_track_bytes() {
        let mut tree = LsmTree::new(small_config());
        load(&mut tree, 0..1_000);
        let stats = tree.stats();
        assert!(stats.bytes_flushed > 0);
        assert_eq!(stats.inserts, 1_000);
        assert!(tree.disk_bytes() > 75 * 900);
    }

    #[test]
    #[should_panic(expected = "unknown flush job")]
    fn completing_unknown_flush_panics() {
        LsmTree::new(LsmConfig::default()).complete_flush(77);
    }

    #[test]
    fn leveled_strategy_keeps_few_runs_at_higher_write_cost() {
        let tiered_cfg = small_config();
        let leveled_cfg = LsmConfig {
            strategy: CompactionStrategy::Leveled,
            ..small_config()
        };
        let mut tiered = LsmTree::new(tiered_cfg);
        let mut leveled = LsmTree::new(leveled_cfg);
        load(&mut tiered, 0..5_000);
        load(&mut leveled, 0..5_000);
        assert!(
            leveled.table_count() <= tiered.table_count(),
            "leveled must keep fewer runs: {} vs {}",
            leveled.table_count(),
            tiered.table_count()
        );
        assert!(
            leveled.table_count() <= 4,
            "leveled run count: {}",
            leveled.table_count()
        );
        let t_amp = tiered.stats().bytes_compacted;
        let l_amp = leveled.stats().bytes_compacted;
        assert!(
            l_amp > t_amp,
            "leveled must rewrite more bytes: {l_amp} vs {t_amp}"
        );
        // Both keep the data intact.
        for seq in (0..5_000).step_by(397) {
            let r = record_for_seq(seq);
            assert_eq!(
                leveled.get(&r.key).0,
                Some(Row::from(r)),
                "leveled lost seq {seq}"
            );
        }
    }

    #[test]
    fn leveled_reads_consult_fewer_runs() {
        let mut tiered = LsmTree::new(LsmConfig {
            memtable_flush_bytes: 75 * 50,
            ..LsmConfig::default()
        });
        let mut leveled = LsmTree::new(LsmConfig {
            memtable_flush_bytes: 75 * 50,
            strategy: CompactionStrategy::Leveled,
        });
        load_leaving_a_compaction_in_flight(&mut tiered, 0..2_000);
        load(&mut leveled, 0..2_000);
        for seq in 0..500 {
            let r = record_for_seq(seq);
            tiered.get(&r.key);
            leveled.get(&r.key);
        }
        assert!(
            leveled.stats().read_amplification() <= tiered.stats().read_amplification(),
            "leveled read amp {} vs tiered {}",
            leveled.stats().read_amplification(),
            tiered.stats().read_amplification()
        );
    }

    fn restored(tree: &LsmTree) -> Result<LsmTree, SnapError> {
        let mut w = SnapWriter::new();
        tree.snap_state(&mut w);
        let mut back = LsmTree::new(small_config());
        back.restore_state(&mut SnapReader::new(w.bytes()))?;
        Ok(back)
    }

    #[test]
    fn restore_keeps_the_jobs_in_flight_and_zeroes_the_statistics() {
        let mut tree = LsmTree::new(small_config());
        let mut announced = Vec::new();
        for seq in 0..500 {
            let r = record_for_seq(seq);
            let (_, job) = tree.insert(r.key, r.fields);
            announced.extend(job);
        }
        // Four of the five flushes done announce a compaction.
        let compaction = announced.drain(..4).filter_map(|j| tree.complete(j)).last();
        announced.push(compaction.expect("four runs compact"));
        let back = restored(&tree).expect("own state restores");
        for job in &announced {
            assert_eq!(back.in_flight(job.id), Some(*job));
        }
        assert_eq!(back.in_flight(1 << 20), None);
        assert_eq!(back.stats(), LsmStats::default());
        assert_eq!(back.record_count(), tree.record_count());
    }

    #[test]
    fn a_job_naming_no_run_is_refused() {
        let mut flush = LsmTree::new(small_config());
        flush.flushing.insert(99, 1);
        let mut compaction = LsmTree::new(small_config());
        load(&mut compaction, 0..200);
        compaction.compacting_inputs.insert(7, vec![1, 99]);
        for forged in [flush, compaction] {
            assert_eq!(
                restored(&forged).map(|t| t.table_count()),
                Err(SnapError::BadTag {
                    what: "LsmTree job run",
                    tag: 99
                })
            );
        }
    }
}
