//! A B+tree whose pages live behind a buffer pool — the storage node of
//! the page-based stores (an InnoDB shard, a `mongod`, a BerkeleyDB JE
//! environment). The tree reports which pages an operation touched, the
//! pool decides which touches were physical, and the caller gets what
//! every engine in this crate hands a planner: a [`CostReceipt`].

use crate::btree::{BTree, BTreeConfig, PageTrace};
use crate::bufferpool::{Access, BufferPool};
use crate::receipt::{CostReceipt, DiskIo};
use apm_core::record::{MetricKey, Row, RAW_RECORD_SIZE};
use apm_core::snap::{SnapError, SnapReader, SnapWriter};

/// How an evicted dirty page reaches the disk — all that the pool walk
/// of an update-in-place engine and of a log-structured one differ in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteBack {
    /// Written back in place: a random page write (InnoDB, mmapv1).
    InPlace,
    /// Appended to the engine's log: a sequential write (BerkeleyDB JE).
    Log,
}

/// A [`BTree`] and the [`BufferPool`] its pages are cached in.
#[derive(Debug)]
pub struct PagedTree {
    tree: BTree,
    pool: BufferPool,
    write_back: WriteBack,
    /// The current operation's page trace, written over the previous
    /// one's: a load allocates nothing per record.
    trace: PageTrace,
}

impl PagedTree {
    /// An empty tree behind a pool of `pool_pages` frames.
    pub fn new(config: BTreeConfig, pool_pages: usize, write_back: WriteBack) -> PagedTree {
        PagedTree {
            tree: BTree::new(config),
            pool: BufferPool::new(pool_pages),
            write_back,
            trace: PageTrace::default(),
        }
    }

    /// Number of records.
    pub fn record_count(&self) -> u64 {
        self.tree.len()
    }

    /// Point lookup. `probes` is the pages visited, `io` what reached the
    /// disk after the pool; a record's bytes are touched found or not.
    pub fn get(&mut self, key: &MetricKey) -> (Option<Row>, CostReceipt) {
        let (row, trace) = self.tree.get(key);
        self.trace = trace;
        (row, self.receipt(1))
    }

    /// Inserts or replaces. `probes` counts the descent and every
    /// existing page dirtied (the leaf, and a parent per split).
    pub fn insert(&mut self, row: Row) -> CostReceipt {
        self.tree.insert_into(row, &mut self.trace);
        self.receipt(1)
    }

    /// How many of the first `len` records from `start` exist, following
    /// leaf links; no row is copied.
    pub fn scan_count(&mut self, start: &MetricKey, len: usize) -> (usize, CostReceipt) {
        let (rows, trace) = self.tree.scan_count(start, len);
        self.trace = trace;
        (rows, self.receipt(rows))
    }

    /// [`PagedTree::insert`] for the untimed load phase: the same tree
    /// and pool afterwards, the I/O dropped unbuilt and no receipt.
    pub fn load(&mut self, row: Row) {
        self.tree.insert_into(row, &mut self.trace);
        self.walk(|_| {});
    }

    /// The receipt of the operation traced last, which handled `records`.
    fn receipt(&mut self, records: usize) -> CostReceipt {
        let mut receipt = CostReceipt::new();
        receipt
            .probe((self.trace.read.len() + self.trace.written.len()) as u64)
            .touch((records * RAW_RECORD_SIZE) as u64);
        self.walk(|io| receipt.io.push(io));
        receipt
    }

    /// The one pool walk: pages read on the way down, existing pages
    /// dirtied, then pages fresh from a split, dirtied without ever being
    /// read from disk. A miss is a random page read, a dirty eviction a
    /// write-back of the engine's class; `io` sees each as it is incurred.
    fn walk(&mut self, mut io: impl FnMut(DiskIo)) {
        let page_bytes = self.tree.page_bytes();
        let trace = &self.trace;
        let read = trace.read.iter().map(|page| (page, Access::Read, true));
        let written = trace.written.iter().map(|page| (page, Access::Write, true));
        let fresh = trace
            .allocated
            .iter()
            .map(|page| (page, Access::Write, false));
        for (page, access, on_disk) in read.chain(written).chain(fresh) {
            let r = self.pool.access(*page, access);
            if on_disk && !r.hit {
                io(DiskIo::random_read(page_bytes));
            }
            if r.writeback.is_some() {
                io(match self.write_back {
                    WriteBack::InPlace => DiskIo::random_write(page_bytes),
                    WriteBack::Log => DiskIo::seq_write(page_bytes),
                });
            }
        }
    }

    /// Serializes tree, then pool.
    pub fn snap_state(&self, w: &mut SnapWriter) {
        // `write_back` is construction-time config; `trace` is scratch
        // that the next operation writes over.
        let PagedTree {
            tree,
            pool,
            write_back: _,
            trace: _,
        } = self;
        tree.snap_state(w);
        pool.snap_state(w);
    }

    /// Restores the state written by [`PagedTree::snap_state`] into a
    /// value built with the same config and pool size.
    pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let PagedTree {
            tree,
            pool,
            write_back: _,
            trace: _,
        } = self;
        tree.restore_state(r)?;
        pool.restore_state(r, tree.page_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufferpool::PoolResult;
    use apm_core::keyspace::record_for_seq;

    /// The walk written out straight, list by list.
    fn reference(
        pool: &mut BufferPool,
        trace: &PageTrace,
        write_back: DiskIo,
        records: usize,
    ) -> CostReceipt {
        let mut receipt = CostReceipt::new();
        receipt
            .probe((trace.read.len() + trace.written.len()) as u64)
            .touch((records * RAW_RECORD_SIZE) as u64);
        let mut io = |r: PoolResult, on_disk: bool| {
            if on_disk && !r.hit {
                receipt.io.push(DiskIo::random_read(write_back.bytes));
            }
            if r.writeback.is_some() {
                receipt.io.push(write_back);
            }
        };
        for page in &trace.read {
            io(pool.access(*page, Access::Read), true);
        }
        for page in &trace.written {
            io(pool.access(*page, Access::Write), true);
        }
        for page in &trace.allocated {
            io(pool.access(*page, Access::Write), false);
        }
        receipt
    }

    #[test]
    fn the_four_calls_are_the_straight_line_walk_under_both_write_back_classes() {
        // A pool far smaller than the tree: misses, evictions and dirty
        // write-backs on most inserts.
        let config = BTreeConfig {
            leaf_capacity: 8,
            internal_capacity: 8,
            page_bytes: 1 << 10,
        };
        for (class, write_back) in [
            (WriteBack::InPlace, DiskIo::random_write(1 << 10)),
            (WriteBack::Log, DiskIo::seq_write(1 << 10)),
        ] {
            let (mut tree, mut pool) = (BTree::new(config), BufferPool::new(16));
            let mut paged = PagedTree::new(config, 16, class);
            let mut loaded = PagedTree::new(config, 16, class);
            for seq in 0..3_000 {
                let r = record_for_seq(seq);
                let (_, trace) = tree.insert(r.key, r.fields);
                let want = reference(&mut pool, &trace, write_back, 1);
                assert_eq!(paged.insert(r.into()), want, "insert {seq}");
                loaded.load(r.into());
                // Reads and scans between the inserts, so clean pages
                // are evicted too; `loaded` takes the same ones.
                let probe = record_for_seq(seq * 7 % (seq + 2)).key;
                let (value, trace) = tree.get(&probe);
                let want = reference(&mut pool, &trace, write_back, 1);
                assert_eq!(paged.get(&probe), (value, want), "get {seq}");
                loaded.get(&probe);
                if seq % 16 == 0 {
                    let (rows, trace) = tree.scan_count(&probe, 50);
                    let want = reference(&mut pool, &trace, write_back, rows);
                    assert_eq!(paged.scan_count(&probe, 50), (rows, want), "scan {seq}");
                    loaded.scan_count(&probe, 50);
                }
            }
            let stats = pool.stats();
            assert!(stats.dirty_writebacks > 1_000, "{stats:?}");
            assert!(
                stats.evictions > stats.dirty_writebacks + 1_000,
                "{stats:?}"
            );
            // Tree, frame table and clock hand, byte for byte, and the
            // statistics, which a checkpoint does not hold.
            assert_eq!(paged.pool.stats(), stats);
            assert_eq!(loaded.pool.stats(), stats);
            let state = |tree: &BTree, pool: &BufferPool| {
                let mut w = SnapWriter::new();
                tree.snap_state(&mut w);
                pool.snap_state(&mut w);
                w.into_bytes()
            };
            let want = state(&tree, &pool);
            assert!(state(&paged.tree, &paged.pool) == want);
            assert!(state(&loaded.tree, &loaded.pool) == want);
        }
    }
}
