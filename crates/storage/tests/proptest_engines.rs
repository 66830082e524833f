//! Randomized-model tests: every storage engine behaves like a reference
//! model (a sorted map) under arbitrary operation sequences.
//!
//! Formerly proptest-based; the workspace now builds offline, so the same
//! invariants run as seeded `SplitRng` case loops. The one historical
//! proptest regression (a shrunk Insert/Get/Scan sequence that diverged
//! the LSM from its model) is preserved verbatim in
//! `lsm_regression_sequence_matches_model`.

use apm_core::keyspace::{record_for_seq, SplitRng};
use apm_core::record::{ApmMeasurement, FieldValues, MetricKey, Row};
use apm_core::snap::{Snap, SnapError, SnapReader, SnapState, SnapWriter};
use apm_storage::btree::{BTree, BTreeConfig};
use apm_storage::hashstore::HashStore;
use apm_storage::lsm::{BackgroundJob, CompactionStrategy, LsmConfig, LsmTree};
use apm_storage::paged::{PagedTree, WriteBack};
use apm_storage::partition::PartitionTable;
use apm_storage::sstable::{SsTable, TableProbe};
use apm_storage::table::{RecordTable, RowRef, SortedRows};
use apm_storage::CostReceipt;
use std::collections::BTreeMap;

const CASES: u64 = 64;

/// An operation against a keyed store.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Get(u64),
    Scan(u64, usize),
}

/// Mirrors the old proptest strategy: 3:2:1 insert/get/scan mix.
fn random_op(rng: &mut SplitRng, key_space: u64) -> Op {
    match rng.next_below(6) {
        0..=2 => Op::Insert(rng.next_below(key_space)),
        3..=4 => Op::Get(rng.next_below(key_space)),
        _ => Op::Scan(rng.next_below(key_space), 1 + rng.next_below(59) as usize),
    }
}

fn random_ops(rng: &mut SplitRng, key_space: u64, max_len: u64) -> Vec<Op> {
    let len = 1 + rng.next_below(max_len - 1) as usize;
    (0..len).map(|_| random_op(rng, key_space)).collect()
}

fn key(seq: u64) -> MetricKey {
    record_for_seq(seq).key
}

fn value(seq: u64) -> FieldValues {
    record_for_seq(seq).fields
}

fn model_scan(
    model: &BTreeMap<MetricKey, FieldValues>,
    start: &MetricKey,
    len: usize,
) -> Vec<MetricKey> {
    model.range(start..).take(len).map(|(k, _)| *k).collect()
}

fn check_lsm_against_model(ops: &[Op], label: &str) {
    let mut tree = LsmTree::new(LsmConfig {
        memtable_flush_bytes: 75 * 40,
        ..LsmConfig::default()
    });
    let mut model: BTreeMap<MetricKey, FieldValues> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Insert(seq) => {
                let (_, job) = tree.insert(key(seq), value(seq));
                tree.settle(job);
                model.insert(key(seq), value(seq));
            }
            Op::Get(seq) => {
                let (got, _) = tree.get(&key(seq));
                assert_eq!(
                    got.map(|row| row.fields()).as_ref(),
                    model.get(&key(seq)),
                    "{label}: get({seq}) diverged"
                );
            }
            Op::Scan(seq, len) => {
                let (rows, _) = tree.scan(&key(seq), len);
                let got: Vec<MetricKey> = rows.iter().map(Row::key).collect();
                assert_eq!(
                    got,
                    model_scan(&model, &key(seq), len),
                    "{label}: scan({seq}, {len}) diverged"
                );
            }
        }
    }
    // Re-inserted keys keep an extra version per unmerged run, so the
    // physical count may exceed the logical count until compaction.
    assert!(
        tree.record_count() >= model.len() as u64,
        "{label}: records lost"
    );
}

#[test]
fn lsm_matches_sorted_map_model() {
    let mut root = SplitRng::new(0x6C73_6D74);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let ops = random_ops(&mut rng, 500, 400);
        check_lsm_against_model(&ops, &format!("case {case}"));
    }
}

/// The shrunk sequence proptest saved in
/// `proptest_engines.proptest-regressions`: ~70 unique inserts force
/// memtable flushes at 40 records, then interleaved Get/Scan traffic
/// checks reads across memtable + multiple on-disk runs.
#[test]
fn lsm_regression_sequence_matches_model() {
    let ops = vec![
        Op::Insert(245),
        Op::Insert(71),
        Op::Insert(342),
        Op::Insert(13),
        Op::Insert(54),
        Op::Insert(433),
        Op::Insert(499),
        Op::Insert(118),
        Op::Insert(418),
        Op::Insert(218),
        Op::Insert(352),
        Op::Insert(388),
        Op::Insert(480),
        Op::Insert(143),
        Op::Insert(266),
        Op::Insert(369),
        Op::Insert(286),
        Op::Insert(440),
        Op::Insert(453),
        Op::Insert(434),
        Op::Insert(49),
        Op::Insert(209),
        Op::Insert(403),
        Op::Insert(424),
        Op::Insert(462),
        Op::Insert(247),
        Op::Insert(67),
        Op::Insert(250),
        Op::Insert(95),
        Op::Insert(91),
        Op::Insert(170),
        Op::Insert(243),
        Op::Insert(269),
        Op::Insert(408),
        Op::Insert(496),
        Op::Insert(18),
        Op::Insert(241),
        Op::Insert(356),
        Op::Insert(141),
        Op::Insert(335),
        Op::Insert(342),
        Op::Insert(161),
        Op::Insert(136),
        Op::Insert(148),
        Op::Insert(132),
        Op::Insert(277),
        Op::Insert(257),
        Op::Insert(117),
        Op::Insert(6),
        Op::Insert(301),
        Op::Insert(490),
        Op::Insert(265),
        Op::Insert(32),
        Op::Insert(498),
        Op::Insert(298),
        Op::Insert(437),
        Op::Insert(479),
        Op::Insert(346),
        Op::Insert(153),
        Op::Insert(232),
        Op::Insert(146),
        Op::Insert(121),
        Op::Insert(465),
        Op::Insert(317),
        Op::Insert(19),
        Op::Insert(407),
        Op::Insert(112),
        Op::Insert(54),
        Op::Insert(158),
        Op::Insert(111),
        Op::Insert(202),
        Op::Insert(172),
        Op::Insert(187),
        Op::Insert(37),
        Op::Get(406),
        Op::Get(479),
        Op::Scan(334, 48),
        Op::Get(270),
        Op::Insert(446),
        Op::Get(309),
        Op::Get(303),
        Op::Insert(220),
        Op::Get(403),
        Op::Insert(80),
        Op::Insert(160),
        Op::Insert(376),
        Op::Insert(392),
        Op::Get(440),
        Op::Get(45),
        Op::Insert(400),
        Op::Insert(475),
        Op::Insert(79),
        Op::Insert(473),
        Op::Insert(388),
        Op::Scan(317, 33),
        Op::Get(448),
        Op::Scan(144, 54),
        Op::Insert(359),
        Op::Insert(81),
        Op::Scan(254, 45),
        Op::Get(385),
        Op::Get(391),
        Op::Scan(416, 36),
        Op::Get(71),
        Op::Insert(255),
        Op::Insert(245),
        Op::Get(415),
        Op::Insert(46),
        Op::Scan(345, 53),
        Op::Insert(121),
        Op::Insert(73),
        Op::Scan(447, 35),
        Op::Insert(5),
        Op::Insert(201),
        Op::Insert(489),
        Op::Insert(272),
        Op::Get(476),
        Op::Scan(380, 33),
        Op::Insert(362),
        Op::Get(374),
        Op::Insert(451),
        Op::Get(190),
        Op::Get(498),
        Op::Get(443),
        Op::Insert(135),
        Op::Insert(241),
        Op::Insert(109),
        Op::Scan(244, 35),
        Op::Get(489),
        Op::Insert(320),
        Op::Insert(458),
        Op::Scan(148, 3),
        Op::Get(263),
        Op::Get(19),
        Op::Get(179),
        Op::Get(469),
        Op::Get(70),
        Op::Insert(283),
        Op::Scan(152, 7),
        Op::Insert(421),
        Op::Insert(389),
        Op::Scan(26, 24),
        Op::Get(69),
        Op::Insert(416),
        Op::Insert(276),
        Op::Scan(263, 43),
        Op::Get(353),
        Op::Get(258),
        Op::Insert(253),
        Op::Scan(268, 40),
        Op::Get(8),
        Op::Insert(390),
        Op::Insert(26),
        Op::Get(126),
        Op::Get(295),
        Op::Get(382),
        Op::Get(116),
        Op::Insert(268),
        Op::Insert(479),
        Op::Insert(332),
        Op::Scan(323, 25),
        Op::Insert(201),
        Op::Get(416),
        Op::Insert(194),
        Op::Get(277),
        Op::Get(459),
        Op::Insert(234),
        Op::Scan(415, 55),
        Op::Scan(16, 55),
        Op::Get(441),
        Op::Get(22),
        Op::Insert(37),
        Op::Scan(440, 2),
        Op::Scan(273, 10),
        Op::Get(12),
        Op::Get(30),
        Op::Insert(100),
        Op::Get(374),
        Op::Get(55),
        Op::Scan(78, 15),
        Op::Insert(119),
        Op::Get(40),
        Op::Insert(214),
        Op::Get(309),
        Op::Insert(240),
        Op::Get(426),
        Op::Insert(82),
        Op::Insert(189),
        Op::Insert(210),
        Op::Insert(31),
        Op::Insert(373),
        Op::Insert(442),
        Op::Get(153),
        Op::Scan(23, 23),
        Op::Insert(246),
        Op::Scan(112, 24),
        Op::Get(393),
        Op::Get(175),
        Op::Scan(464, 36),
        Op::Get(60),
        Op::Get(313),
        Op::Get(388),
        Op::Scan(183, 49),
        Op::Insert(160),
        Op::Scan(490, 5),
        Op::Insert(142),
        Op::Scan(274, 12),
        Op::Insert(171),
        Op::Insert(386),
        Op::Insert(425),
        Op::Get(64),
        Op::Get(476),
        Op::Insert(295),
        Op::Get(0),
        Op::Insert(5),
        Op::Insert(278),
        Op::Insert(231),
        Op::Insert(311),
        Op::Get(62),
        Op::Get(177),
        Op::Scan(294, 3),
        Op::Insert(194),
        Op::Insert(35),
        Op::Insert(424),
        Op::Insert(115),
        Op::Insert(130),
        Op::Scan(298, 34),
        Op::Scan(4, 33),
        Op::Insert(433),
        Op::Insert(114),
        Op::Scan(369, 53),
        Op::Insert(236),
        Op::Insert(9),
        Op::Insert(175),
        Op::Get(345),
        Op::Get(186),
        Op::Scan(458, 2),
        Op::Insert(402),
        Op::Get(160),
        Op::Insert(475),
        Op::Insert(28),
        Op::Insert(70),
        Op::Scan(55, 33),
        Op::Insert(106),
        Op::Get(28),
        Op::Get(295),
        Op::Insert(341),
        Op::Get(189),
        Op::Insert(4),
        Op::Insert(309),
        Op::Scan(302, 25),
        Op::Insert(317),
        Op::Get(434),
        Op::Insert(219),
        Op::Insert(239),
        Op::Scan(498, 49),
        Op::Scan(124, 57),
        Op::Get(368),
        Op::Get(54),
        Op::Insert(288),
        Op::Insert(106),
        Op::Insert(361),
        Op::Insert(383),
        Op::Get(291),
        Op::Get(316),
        Op::Insert(178),
        Op::Get(156),
        Op::Insert(167),
        Op::Insert(57),
        Op::Get(204),
        Op::Get(281),
        Op::Get(473),
    ];
    check_lsm_against_model(&ops, "regression");
}

#[test]
fn btree_matches_sorted_map_model() {
    let mut root = SplitRng::new(0x6274_7265);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let ops = random_ops(&mut rng, 500, 400);
        let mut tree = BTree::new(BTreeConfig {
            leaf_capacity: 6,
            internal_capacity: 5,
            page_bytes: 512,
        });
        let mut model: BTreeMap<MetricKey, FieldValues> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(seq) => {
                    tree.insert(key(seq), value(seq));
                    model.insert(key(seq), value(seq));
                }
                Op::Get(seq) => {
                    let (got, trace) = tree.get(&key(seq));
                    assert_eq!(
                        got.map(|row| row.fields()).as_ref(),
                        model.get(&key(seq)),
                        "case {case}"
                    );
                    assert_eq!(
                        trace.read.len(),
                        tree.depth() as usize,
                        "case {case}: descent must visit depth pages"
                    );
                }
                Op::Scan(seq, len) => {
                    let (rows, _) = tree.scan(&key(seq), len);
                    let got: Vec<MetricKey> = rows.iter().map(Row::key).collect();
                    assert_eq!(got, model_scan(&model, &key(seq), len), "case {case}");
                }
            }
        }
        assert_eq!(tree.len(), model.len() as u64, "case {case}");
    }
}

#[test]
fn hashstore_matches_model_and_memory_is_exact() {
    let mut root = SplitRng::new(0x6861_7368);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let ops = random_ops(&mut rng, 300, 300);
        let mut store = HashStore::new(None);
        let mut model: BTreeMap<MetricKey, FieldValues> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(seq) => {
                    store.insert(key(seq), value(seq)).expect("no budget");
                    model.insert(key(seq), value(seq));
                }
                Op::Get(seq) => {
                    let (got, _) = store.get(&key(seq));
                    assert_eq!(
                        got.map(|row| row.fields()).as_ref(),
                        model.get(&key(seq)),
                        "case {case}"
                    );
                }
                Op::Scan(seq, len) => {
                    let (rows, _) = store.scan(&key(seq), len);
                    let got: Vec<MetricKey> = rows.iter().map(Row::key).collect();
                    assert_eq!(got, model_scan(&model, &key(seq), len), "case {case}");
                }
            }
        }
        assert_eq!(store.len(), model.len(), "case {case}");
        assert_eq!(
            store.mem_bytes(),
            model.len() as u64 * HashStore::bytes_per_record(),
            "case {case}"
        );
    }
}

#[test]
fn record_table_drain_returns_exactly_the_live_set() {
    let mut root = SplitRng::new(0x6D65_6D74);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let len = 1 + rng.next_below(299) as usize;
        let seqs: Vec<u64> = (0..len).map(|_| rng.next_below(200)).collect();
        let mut table = RecordTable::new();
        let mut model: BTreeMap<MetricKey, FieldValues> = BTreeMap::new();
        for seq in seqs {
            table.insert(Row::new(key(seq), value(seq)));
            model.insert(key(seq), value(seq));
        }
        assert_eq!(table.len(), model.len(), "case {case}");
        let drained = table.drain_sorted();
        let expect: SortedRows = model.into_iter().map(|(k, v)| Row::new(k, v)).collect();
        assert_eq!(drained, expect, "case {case}");
        assert!(table.is_empty(), "case {case}");
    }
}

#[test]
fn lsm_scans_never_return_duplicates_or_unsorted_keys() {
    let mut root = SplitRng::new(0x7363_616E);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let len = 50 + rng.next_below(450) as usize;
        let inserts: Vec<u64> = (0..len).map(|_| rng.next_below(2_000)).collect();
        let start = rng.next_below(2_000);
        let mut tree = LsmTree::new(LsmConfig {
            memtable_flush_bytes: 75 * 25,
            ..LsmConfig::default()
        });
        for seq in inserts {
            let (_, job) = tree.insert(key(seq), value(seq));
            tree.settle(job);
        }
        let (rows, _) = tree.scan(&key(start), 50);
        for w in rows.windows(2) {
            assert!(
                w[0].key() < w[1].key(),
                "case {case}: scan output not strictly sorted"
            );
        }
        assert!(rows.len() <= 50, "case {case}");
        assert!(rows.iter().all(|r| r.key() >= key(start)), "case {case}");
    }
}

#[test]
fn bloom_has_no_false_negatives() {
    let mut root = SplitRng::new(0x626C_6F6F);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let len = 1 + rng.next_below(499) as usize;
        let seqs: Vec<u64> = (0..len).map(|_| rng.next_below(100_000)).collect();
        let mut bloom = apm_storage::bloom::Bloom::with_capacity(seqs.len(), 10);
        for &seq in &seqs {
            bloom.insert(&key(seq));
        }
        for &seq in &seqs {
            assert!(bloom.may_contain(&key(seq)), "case {case}");
        }
    }
}

// ------------------------------------------------- count-only == scan

/// A scan window biased towards the edges: the key-space bounds, starts
/// past the last record, and `len` of 0, 1 and far past the end.
fn random_window(rng: &mut SplitRng, key_space: u64) -> (MetricKey, usize) {
    let start = match rng.next_below(8) {
        0 => MetricKey::MIN,
        1 => MetricKey::MAX,
        _ => key(rng.next_below(key_space + 50)),
    };
    let len = match rng.next_below(8) {
        0 => 0,
        1 => 1,
        2 => 10_000,
        3 => usize::MAX,
        _ => 1 + rng.next_below(79) as usize,
    };
    (start, len)
}

/// Count-only scans against materialised ones over a memtable and several
/// overlapping runs, half the writes generated rows and half literal.
/// `scan_count` answers `len` outright when one source holds `len` rows
/// and walks the merge only when every source is shorter; the test knows
/// the memtable's rows (an insert that announces a flush has drained it),
/// so it sees both branches taken for sure: the memtable alone holding
/// `len` rows at or after the start, and fewer than `len` rows there in
/// the whole tree. One case in eight holds more rows in its memtable than
/// one chunk of the record table's id set, at any chunk size swept.
#[test]
fn lsm_scan_count_equals_scan_over_overlapping_runs() {
    let mut root = SplitRng::new(0x6373_6C73);
    let (mut shortcuts, mut merges, mut wide_memtables) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = root.split(case);
        // Three cases in four leave the first compaction in flight (one
        // runs at a time), so rewritten keys stay shadowed across the
        // memtable and several runs and newest-wins decides every scan.
        let merging = case % 4 == 0;
        let settle = |tree: &mut LsmTree, job: Option<BackgroundJob>| match job {
            Some(flush) if !merging => {
                let _in_flight = tree.complete(flush);
            }
            job => tree.settle(job),
        };
        let wide = case % 8 == 3;
        let (flush_rows, key_space, writes) = match wide {
            true => (1_200, 3_000, 6_000 + rng.next_below(1_000)),
            false => (30, 120, 150 + rng.next_below(250)),
        };
        let config = LsmConfig {
            memtable_flush_bytes: 75 * flush_rows,
            ..LsmConfig::default()
        };
        // Two trees fed the same calls: one materialises, one counts.
        let mut rows_tree = LsmTree::new(config);
        let mut count_tree = LsmTree::new(config);
        let mut model: BTreeMap<MetricKey, FieldValues> = BTreeMap::new();
        let mut memtable: BTreeMap<MetricKey, FieldValues> = BTreeMap::new();
        for version in 0..writes {
            let seq = rng.next_below(key_space);
            let fields = match rng.next_below(2) {
                0 => value(seq),
                _ => FieldValues::from_seed(version),
            };
            let (_, job) = rows_tree.insert(key(seq), fields);
            settle(&mut rows_tree, job);
            let (_, job) = count_tree.insert(key(seq), fields);
            memtable.insert(key(seq), fields);
            if job.is_some() {
                memtable.clear();
            }
            settle(&mut count_tree, job);
            model.insert(key(seq), fields);
            wide_memtables += usize::from(memtable.len() > 1_024);
            if version % 7 != 0 {
                continue;
            }
            let (start, len) = random_window(&mut rng, key_space);
            let (rows, scan_receipt) = rows_tree.scan(&start, len);
            let (count, count_receipt) = count_tree.scan_count(&start, len);
            let expect: Vec<Row> = model
                .range(start..)
                .take(len)
                .map(|(k, v)| Row::new(*k, *v))
                .collect();
            assert_eq!(rows, expect, "case {case}: newest version must win");
            assert_eq!(count, rows.len(), "case {case}");
            assert_eq!(count_receipt, scan_receipt, "case {case}");
            shortcuts += usize::from(len > 0 && memtable.range(start..).nth(len - 1).is_some());
            merges += usize::from(rows.len() < len);
        }
        if !merging {
            assert!(rows_tree.table_count() >= 3, "case {case}: too few runs");
        }
        assert_eq!(rows_tree.stats(), count_tree.stats(), "case {case}");
    }
    assert!(shortcuts > 0 && merges > 0 && wide_memtables > 0);
}

#[test]
fn btree_scan_count_equals_scan() {
    let mut root = SplitRng::new(0x6373_6274);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let mut tree = BTree::new(BTreeConfig {
            leaf_capacity: 6,
            internal_capacity: 5,
            page_bytes: 512,
        });
        for _ in 0..rng.next_below(400) {
            let seq = rng.next_below(300);
            tree.insert(key(seq), value(seq));
        }
        for _ in 0..40 {
            let (start, len) = random_window(&mut rng, 300);
            let (rows, scan_trace) = tree.scan(&start, len);
            let (count, count_trace) = tree.scan_count(&start, len);
            assert_eq!(count, rows.len(), "case {case}");
            assert_eq!(count_trace, scan_trace, "case {case}");
        }
        let (all, _) = tree.scan_count(&MetricKey::MIN, usize::MAX);
        assert_eq!(all as u64, tree.len(), "case {case}");
    }
}

#[test]
fn hashstore_and_partition_scan_count_equals_scan() {
    let mut root = SplitRng::new(0x6373_6873);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let mut store = HashStore::new(None);
        let mut partition = PartitionTable::new();
        for _ in 0..rng.next_below(400) {
            let seq = rng.next_below(300);
            store.insert(key(seq), value(seq)).expect("no budget");
            partition.insert(Row::new(key(seq), value(seq)));
        }
        for _ in 0..40 {
            let (start, len) = random_window(&mut rng, 300);
            let (rows, scan_receipt) = store.scan(&start, len);
            let (count, count_receipt) = store.scan_count(&start, len);
            assert_eq!(count, rows.len(), "case {case}: hashstore");
            assert_eq!(count_receipt, scan_receipt, "case {case}: hashstore");
            let (rows, scan_receipt) = partition.scan(&start, len);
            let (count, count_receipt) = partition.scan_count(&start, len);
            assert_eq!(count, rows.len(), "case {case}: partition");
            assert_eq!(count_receipt, scan_receipt, "case {case}: partition");
        }
    }
}

// ------------------------------------------- compaction merge == oracle

fn entries_of(table: &SsTable) -> Vec<Row> {
    let window = table.scan(&MetricKey::MIN, usize::MAX, &mut CostReceipt::new());
    window.rows().map(RowRef::to_row).collect()
}

/// The collect-sort-dedup merge `SsTable::merge` used before it streamed
/// through the cursor, kept as the reference: concatenate every input row
/// tagged with its table id, sort by (key, id descending), keep the first
/// of each key.
fn reference_merge(inputs: &[&SsTable]) -> SortedRows {
    let mut all: Vec<(u64, MetricKey, Row)> = Vec::new();
    for table in inputs {
        all.extend(
            entries_of(table)
                .into_iter()
                .map(|r| (table.id, r.key(), r)),
        );
    }
    all.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
    all.dedup_by(|next, first| next.1 == first.1);
    all.into_iter().map(|(_, _, row)| row).collect()
}

#[test]
fn sstable_merge_equals_collect_sort_dedup_reference() {
    let mut root = SplitRng::new(0x6D72_6765);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let fan_in = 1 + rng.next_below(8);
        let mut tables: Vec<SsTable> = (0..fan_in)
            .map(|i| {
                // Distinct ids in no particular order; overlapping key
                // sets whose values name the table they came from.
                let id = 1 + i * 3 + rng.next_below(3);
                // Every fourth table holds the keys' own fields, so
                // generated and literal versions of one key meet.
                let rows: BTreeMap<MetricKey, FieldValues> = (0..rng.next_below(120))
                    .map(|_| {
                        let seq = rng.next_below(150);
                        let version = if i % 4 == 3 {
                            value(seq)
                        } else {
                            FieldValues::from_seed(id * 1_000 + seq)
                        };
                        (key(seq), version)
                    })
                    .collect();
                SsTable::from_rows(id, rows.into_iter().map(|(k, v)| Row::new(k, v)).collect())
            })
            .collect();
        // Precedence is by table id, whatever order the inputs come in.
        for i in (1..tables.len()).rev() {
            tables.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let inputs: Vec<&SsTable> = tables.iter().collect();
        let merged = SsTable::merge(99, &inputs);
        let reference = SsTable::from_rows(99, reference_merge(&inputs));
        assert_eq!(entries_of(&merged), entries_of(&reference), "case {case}");
        assert_eq!(merged.disk_bytes(), reference.disk_bytes(), "case {case}");
        for seq in 0..200 {
            let (mut got, mut want) = (CostReceipt::new(), CostReceipt::new());
            assert_eq!(
                merged.get(&key(seq), &mut got),
                reference.get(&key(seq), &mut want),
                "case {case}: seq {seq} (bloom answer or value)"
            );
            assert_eq!(got, want, "case {case}: seq {seq}");
        }
    }
}

/// Generated records, then records off the generator spliced in and
/// written over some: measurement packing (an id key, other fields), the
/// two sentinel keys, a `from_bytes` key, and generated keys carrying
/// another id's fields, as the merge tests write versions.
fn mixed_records() -> Vec<(MetricKey, FieldValues)> {
    let measured = ApmMeasurement {
        metric: "HostA/AgentX/ServletB/AverageResponseTime".into(),
        value: 4,
        min: 1,
        max: 6,
        timestamp: 1_332_988_833,
        duration: 15,
    }
    .to_record(7);
    let foreign = [
        (measured.key, measured.fields),
        (MetricKey::MIN, FieldValues::ZERO),
        (MetricKey::MAX, FieldValues::from_seed(5)),
        (
            MetricKey::from_bytes(*b"user00000000000000000042x"),
            FieldValues::from_seed(42),
        ),
    ];
    let mut records: Vec<_> = (0..600).map(|seq| (key(seq), value(seq))).collect();
    for (i, record) in foreign.into_iter().enumerate() {
        records.insert(150 * i + 3, record);
    }
    records.extend(
        (0..600)
            .step_by(7)
            .map(|seq| (key(seq), FieldValues::from_seed(1_000 + seq))),
    );
    records
}

/// `engine` snapshotted, restored into `fresh` and snapshotted again:
/// both snapshots must be the same bytes. Returns the restored engine.
fn restored<E>(
    engine: &E,
    mut fresh: E,
    snap: impl Fn(&E, &mut SnapWriter),
    restore: impl FnOnce(&mut E, &mut SnapReader) -> Result<(), SnapError>,
) -> E {
    let mut w = SnapWriter::new();
    snap(engine, &mut w);
    let mut r = SnapReader::new(w.bytes());
    restore(&mut fresh, &mut r).expect("own bytes restore");
    r.finish().expect("every byte read");
    let mut again = SnapWriter::new();
    snap(&fresh, &mut again);
    assert!(again.bytes() == w.bytes(), "re-encodes differently");
    fresh
}

fn put<T: Snap>(value: &T, w: &mut SnapWriter) {
    w.put(value);
}

fn get<T: Snap>(value: &mut T, r: &mut SnapReader) -> Result<(), SnapError> {
    *value = r.get()?;
    Ok(())
}

#[test]
fn foreign_records_round_trip_every_engine_codec() {
    let records = mixed_records();
    let model: BTreeMap<MetricKey, FieldValues> = records.iter().copied().collect();
    let lsm_config = LsmConfig {
        memtable_flush_bytes: 75 * 64,
        ..LsmConfig::default()
    };
    let btree_config = BTreeConfig {
        leaf_capacity: 8,
        internal_capacity: 8,
        page_bytes: 1 << 10,
    };
    let mut memtable = RecordTable::new();
    let mut lsm = LsmTree::new(lsm_config);
    let mut btree = BTree::new(btree_config);
    let mut paged = PagedTree::new(btree_config, 16, WriteBack::InPlace);
    let mut hash = HashStore::new(None);
    let mut partition = PartitionTable::new();
    for &(k, v) in &records {
        memtable.insert(Row::new(k, v));
        let (_, job) = lsm.insert(k, v);
        lsm.settle(job);
        btree.insert(k, v);
        paged.insert(Row::new(k, v));
        hash.insert(k, v).expect("no budget");
        partition.insert(Row::new(k, v));
    }
    let run = SsTable::from_rows(9, model.iter().map(|(k, v)| Row::new(*k, *v)).collect());

    let memtable = restored(&memtable, RecordTable::new(), put, get);
    let run = restored(&run, SsTable::from_rows(0, SortedRows::default()), put, get);
    let mut lsm = restored(
        &lsm,
        LsmTree::new(lsm_config),
        LsmTree::snap_state,
        LsmTree::restore_state,
    );
    assert!(lsm.table_count() > 1, "records must reach several runs");
    let btree = restored(
        &btree,
        BTree::new(btree_config),
        BTree::snap_state,
        BTree::restore_state,
    );
    let mut paged = restored(
        &paged,
        PagedTree::new(btree_config, 16, WriteBack::InPlace),
        PagedTree::snap_state,
        PagedTree::restore_state,
    );
    let hash = restored(
        &hash,
        HashStore::new(None),
        HashStore::snap_state,
        HashStore::restore_state,
    );
    let partition = restored(&partition, PartitionTable::new(), put, get);
    for (k, v) in &model {
        let v = Some(Row::new(*k, *v));
        assert_eq!(memtable.get(k), v, "memtable {k:?}");
        let mut receipt = CostReceipt::new();
        assert_eq!(
            run.get(k, &mut receipt),
            TableProbe::Checked(v),
            "run {k:?}"
        );
        assert_eq!(lsm.get(k).0, v, "lsm {k:?}");
        assert_eq!(btree.get(k).0, v, "btree {k:?}");
        assert_eq!(paged.get(k).0, v, "paged {k:?}");
        assert_eq!(hash.get(k).0, v, "hash store {k:?}");
        assert_eq!(partition.get(k).0, v, "partition {k:?}");
    }
}

// ------------------- rows: generated, id-keyed literal and foreign

/// A key of any 25 bytes, through the codec's literal spelling: the one
/// way to a key off the alphabet, which sorts between two ids' keys.
fn raw_key(bytes: [u8; 25]) -> MetricKey {
    let mut encoded = vec![1];
    encoded.extend(bytes);
    SnapReader::new(&encoded).get().expect("a literal key")
}

/// `id`'s key with its last digit replaced by `:`, which sorts after `9`
/// and before `a`: a foreign key right after `id`'s.
fn just_after(id: u64) -> MetricKey {
    let mut bytes = *MetricKey::from_id(id).as_bytes();
    bytes[24] = b':';
    raw_key(bytes)
}

/// A key the ops of one case collide on: a generated record's, one just
/// after it, or a sentinel.
fn row_key(rng: &mut SplitRng) -> MetricKey {
    let seq = rng.next_below(160);
    match rng.next_below(12) {
        0 => MetricKey::MIN,
        1 => MetricKey::MAX,
        2 => MetricKey::from_bytes(*b"user00000000000000000042x"),
        3 | 4 => just_after(key(seq).to_id().expect("an id's key")),
        _ => key(seq),
    }
}

/// Fields for `key`: mostly its own generated ones (a generated row when
/// the key is an id's), else other fields — which move an id's key to
/// the literal half, and its own fields move it back.
fn row_fields(rng: &mut SplitRng, key: &MetricKey) -> FieldValues {
    match (rng.next_below(5), key.to_id()) {
        (0, _) => FieldValues::ZERO,
        (1, _) => FieldValues::from_seed(rng.next_below(160)),
        (_, Some(id)) => FieldValues::from_seed(id),
        (_, None) => FieldValues::from_seed(3),
    }
}

/// One step of a row walk.
#[derive(Clone, Copy, Debug)]
enum RowOp {
    Insert(MetricKey, FieldValues),
    Get(MetricKey),
    Scan(MetricKey, usize),
}

fn row_ops(rng: &mut SplitRng, len: usize) -> Vec<RowOp> {
    // A generated row overwritten with other fields, and back, first.
    let home = key(7);
    let mut ops = vec![
        RowOp::Insert(home, value(7)),
        RowOp::Insert(home, FieldValues::ZERO),
        RowOp::Get(home),
        RowOp::Insert(home, value(7)),
        RowOp::Get(home),
    ];
    ops.extend((0..len).map(|_| {
        let key = row_key(rng);
        match rng.next_below(8) {
            0..=3 => RowOp::Insert(key, row_fields(rng, &key)),
            4 | 5 => RowOp::Get(key),
            _ => RowOp::Scan(key, rng.next_below(40) as usize),
        }
    }));
    ops
}

fn model_rows(model: &BTreeMap<MetricKey, FieldValues>, start: &MetricKey, len: usize) -> Vec<Row> {
    model
        .range(start..)
        .take(len)
        .map(|(k, v)| Row::new(*k, *v))
        .collect()
}

fn encoded(put: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    put(&mut w);
    w.into_bytes()
}

/// `rows` as a row codec writes them, the rows at `swap` and `swap + 1`
/// exchanged — out of key order, or a duplicate once `swap + 1` is
/// written over with the row before it.
fn forged_rows(rows: &[Row], swap: usize, duplicate: bool) -> Vec<u8> {
    let mut rows = rows.to_vec();
    if duplicate {
        rows[swap + 1] = rows[swap];
    } else {
        rows.swap(swap, swap + 1);
    }
    encoded(|w| {
        w.put_u64(rows.len() as u64);
        for row in &rows {
            w.put(row);
        }
    })
}

/// A memtable's `RecordTable`, a run, and an LSM tree against a
/// `BTreeMap`, op by op: get, scan, `scan_count`, the codec's bytes (the
/// model's own, where the engine writes a map or a run of its rows) and
/// its round trip, and the refusal of rows out of key order.
fn lsm_engines_match_the_model(cases: u64, ops: usize) {
    let mut root = SplitRng::new(0x6C73_6D72);
    for case in 0..cases {
        let mut rng = root.split(case);
        // Leveled: a size-tiered merge of older runs past a newer one
        // takes the newest id, so once keys are rewritten the older
        // version can win (the existing order, kept byte for byte; the
        // benchmark rewrites no key).
        let config = LsmConfig {
            memtable_flush_bytes: 75 * (4 + rng.next_below(20)),
            strategy: CompactionStrategy::Leveled,
        };
        let mut memtable = RecordTable::new();
        let mut lsm = LsmTree::new(config);
        let mut model: BTreeMap<MetricKey, FieldValues> = BTreeMap::new();
        for (step, op) in row_ops(&mut rng, ops).into_iter().enumerate() {
            match op {
                RowOp::Insert(k, v) => {
                    let new = model.insert(k, v).is_none();
                    assert_eq!(memtable.insert(Row::new(k, v)), new, "case {case}");
                    let (_, job) = lsm.insert(k, v);
                    lsm.settle(job);
                }
                RowOp::Get(k) => {
                    let want = model.get(&k).map(|v| Row::new(k, *v));
                    assert_eq!(memtable.get(&k), want, "case {case}: {k:?}");
                    assert_eq!(lsm.get(&k).0, want, "case {case}: {k:?}");
                }
                RowOp::Scan(start, len) => {
                    let want = model_rows(&model, &start, len);
                    let got: Vec<Row> = memtable
                        .rows_from(&start)
                        .take(len)
                        .map(RowRef::to_row)
                        .collect();
                    assert_eq!(got, want, "case {case}: memtable from {start:?}");
                    let (rows, receipt) = lsm.scan(&start, len);
                    assert_eq!(rows, want, "case {case}: lsm from {start:?}");
                    assert_eq!(lsm.scan_count(&start, len), (want.len(), receipt));
                }
            }
            if step % 64 != 63 {
                continue;
            }
            // A run of the model's rows: every probe and window, and its
            // bytes are an id and the `Vec` of the model's records.
            let rows: Vec<Row> = model_rows(&model, &MetricKey::MIN, usize::MAX);
            let run = SsTable::from_rows(step as u64, rows.iter().copied().collect());
            assert_eq!(run.len(), model.len(), "case {case}");
            for k in model
                .keys()
                .take(40)
                .chain([MetricKey::MIN, MetricKey::MAX].iter())
            {
                let want = model.get(k).map(|v| Row::new(*k, *v));
                match run.get(k, &mut CostReceipt::new()) {
                    TableProbe::Checked(got) => assert_eq!(got, want, "case {case}: run {k:?}"),
                    TableProbe::BloomNegative => assert_eq!(want, None, "case {case}: {k:?}"),
                }
                let window = run.scan(k, 17, &mut CostReceipt::new());
                let got: Vec<Row> = window.rows().map(RowRef::to_row).collect();
                assert_eq!(
                    got,
                    model_rows(&model, k, 17),
                    "case {case}: run from {k:?}"
                );
                assert_eq!(window.len(), got.len(), "case {case}");
            }
            let pairs: Vec<(MetricKey, FieldValues)> =
                model.iter().map(|(k, v)| (*k, *v)).collect();
            let run_bytes = encoded(|w| w.put(&run));
            assert!(
                run_bytes
                    == encoded(|w| {
                        w.put_u64(step as u64);
                        w.put(&pairs);
                    }),
                "case {case}: run bytes"
            );
            let run = restored(&run, SsTable::from_rows(0, SortedRows::default()), put, get);
            assert_eq!(
                run.disk_bytes(),
                SsTable::from_rows(0, rows.iter().copied().collect()).disk_bytes()
            );
            assert!(
                encoded(|w| w.put(&memtable)) == encoded(|w| w.put(&model)),
                "case {case}"
            );
            memtable = restored(&memtable, RecordTable::new(), put, get);
            lsm = restored(
                &lsm,
                LsmTree::new(config),
                LsmTree::snap_state,
                LsmTree::restore_state,
            );
            // Rows out of key order, or twice, are refused by index.
            if rows.len() >= 2 {
                let at = rng.next_below(rows.len() as u64 - 1) as usize;
                for duplicate in [false, true] {
                    let body = forged_rows(&rows, at, duplicate);
                    let refused = |what| {
                        Err(SnapError::BadTag {
                            what,
                            tag: at as u64 + 1,
                        })
                    };
                    let as_run = [&7u64.to_le_bytes()[..], &body].concat();
                    assert_eq!(
                        SnapReader::new(&as_run).get::<SsTable>().map(|t| t.len()),
                        refused("SsTable row not after the one before it"),
                        "case {case}: {at}"
                    );
                    assert_eq!(
                        SnapReader::new(&body).get::<RecordTable>().map(|m| m.len()),
                        refused("RecordTable row not after the one before it"),
                        "case {case}: {at}"
                    );
                }
            }
        }
        assert!(lsm.record_count() >= model.len() as u64, "case {case}");
        let all = model_rows(&model, &MetricKey::MIN, usize::MAX);
        assert_eq!(lsm.scan(&MetricKey::MIN, usize::MAX).0, all, "case {case}");
    }
}

#[test]
fn kernel_equivalence_of_lsm_engines_and_btreemap() {
    lsm_engines_match_the_model(48, 300);
}

#[test]
#[ignore = "4096 cases: CI runs it in the release profile"]
fn kernel_equivalence_of_lsm_engines_and_btreemap_at_the_large_budget() {
    lsm_engines_match_the_model(4_096, 300);
}

/// A B+tree and a paged tree against a `BTreeMap`, op by op: get, scan,
/// `scan_count` and the page traces of both, the codec's round trip at
/// every checkpoint, and the refusal of a leaf whose rows are out of key
/// order.
fn page_engines_match_the_model(cases: u64, ops: usize) {
    let mut root = SplitRng::new(0x7061_6765);
    for case in 0..cases {
        let mut rng = root.split(case);
        let config = BTreeConfig {
            leaf_capacity: 2 + rng.next_below(10) as usize,
            internal_capacity: 3 + rng.next_below(8) as usize,
            page_bytes: 512,
        };
        let class = [WriteBack::InPlace, WriteBack::Log][case as usize % 2];
        let mut tree = BTree::new(config);
        let mut paged = PagedTree::new(config, 6, class);
        let mut model: BTreeMap<MetricKey, FieldValues> = BTreeMap::new();
        for (step, op) in row_ops(&mut rng, ops).into_iter().enumerate() {
            match op {
                RowOp::Insert(k, v) => {
                    let new = model.insert(k, v).is_none();
                    assert_eq!(tree.insert(k, v).0, new, "case {case}");
                    paged.insert(Row::new(k, v));
                }
                RowOp::Get(k) => {
                    let want = model.get(&k).map(|v| Row::new(k, *v));
                    let (got, trace) = tree.get(&k);
                    assert_eq!(got, want, "case {case}: {k:?}");
                    assert_eq!(trace.read.len(), tree.depth() as usize, "case {case}");
                    assert_eq!(paged.get(&k).0, want, "case {case}: {k:?}");
                }
                RowOp::Scan(start, len) => {
                    let want = model_rows(&model, &start, len);
                    let (rows, trace) = tree.scan(&start, len);
                    assert_eq!(rows, want, "case {case}: from {start:?}");
                    assert_eq!(tree.scan_count(&start, len), (want.len(), trace));
                    assert_eq!(paged.scan_count(&start, len).0, want.len(), "case {case}");
                }
            }
            assert_eq!(tree.len(), model.len() as u64, "case {case}");
            assert_eq!(paged.record_count(), model.len() as u64, "case {case}");
            if step % 64 == 63 {
                tree = restored(
                    &tree,
                    BTree::new(config),
                    BTree::snap_state,
                    BTree::restore_state,
                );
                paged = restored(
                    &paged,
                    PagedTree::new(config, 6, class),
                    PagedTree::snap_state,
                    PagedTree::restore_state,
                );
            }
        }
        let all = model_rows(&model, &MetricKey::MIN, usize::MAX);
        assert_eq!(tree.scan(&MetricKey::MIN, usize::MAX).0, all, "case {case}");
        // One leaf, its rows out of key order or twice: refused by index
        // as the arena is decoded.
        if all.len() >= 2 {
            let at = rng.next_below(all.len() as u64 - 1) as usize;
            for duplicate in [false, true] {
                let mut w = SnapWriter::new();
                w.put_u64(1); // one page: a leaf, the root
                w.put_u8(1);
                w.put_bytes(&forged_rows(&all, at, duplicate)[..]);
                w.put(&None::<usize>);
                w.put(&0usize);
                w.put_u64(all.len() as u64);
                w.put_u32(1);
                let refused = BTree::new(BTreeConfig {
                    leaf_capacity: all.len(),
                    ..config
                })
                .restore_state(&mut SnapReader::new(w.bytes()));
                assert_eq!(
                    refused,
                    Err(SnapError::BadTag {
                        what: "BTree leaf row not after the one before it",
                        tag: at as u64 + 1,
                    }),
                    "case {case}: {at}"
                );
            }
        }
    }
}

#[test]
fn kernel_equivalence_of_page_engines_and_btreemap() {
    page_engines_match_the_model(48, 300);
}

#[test]
#[ignore = "4096 cases: CI runs it in the release profile"]
fn kernel_equivalence_of_page_engines_and_btreemap_at_the_large_budget() {
    page_engines_match_the_model(4_096, 300);
}
