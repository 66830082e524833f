//! A B+tree whose pages live behind a buffer pool — the storage node of
//! the page-based stores (an InnoDB shard, a `mongod`, a BerkeleyDB JE
//! environment). The tree reports which pages an operation touched
//! ([`PageTrace`]); the pool decides which touches were physical.

use crate::btree::{BTree, BTreeConfig, PageTrace};
use crate::bufferpool::{Access, BufferPool};
use crate::receipt::DiskIo;
use apm_core::snap::{SnapError, SnapReader, SnapWriter};

/// A [`BTree`] and the [`BufferPool`] its pages are cached in.
#[derive(Debug)]
pub struct PagedTree {
    /// The tree (real data; reports page traces).
    pub tree: BTree,
    /// The pool its pages are cached in.
    pub pool: BufferPool,
}

impl PagedTree {
    /// An empty tree behind a pool of `pool_pages` frames.
    pub fn new(config: BTreeConfig, pool_pages: usize) -> PagedTree {
        PagedTree {
            tree: BTree::new(config),
            pool: BufferPool::new(pool_pages),
        }
    }

    /// Replays a page trace through the pool the way an update-in-place
    /// engine pays for it: every miss is a random page read, every dirty
    /// eviction a random page write-back.
    pub fn replay(&mut self, trace: &PageTrace) -> Vec<DiskIo> {
        let mut ios = Vec::new();
        self.replay_into(trace, |io| ios.push(io));
        ios
    }

    /// [`PagedTree::replay`] handing each I/O to `io` as it is incurred;
    /// a load, which is untimed, passes a sink that drops them.
    pub fn replay_into(&mut self, trace: &PageTrace, mut io: impl FnMut(DiskIo)) {
        let page_bytes = self.tree.page_bytes();
        for page in trace.read.iter().chain(&trace.written) {
            let access = if trace.written.contains(page) {
                Access::Write
            } else {
                Access::Read
            };
            let r = self.pool.access(*page, access);
            if !r.hit {
                io(DiskIo::random_read(page_bytes));
            }
            if r.writeback.is_some() {
                io(DiskIo::random_write(page_bytes));
            }
        }
        for page in &trace.allocated {
            // Fresh split pages need no read, only eventual write-back.
            let r = self.pool.access(*page, Access::Write);
            if r.writeback.is_some() {
                io(DiskIo::random_write(page_bytes));
            }
        }
    }

    /// Serializes tree, then pool.
    pub fn snap_state(&self, w: &mut SnapWriter) {
        self.tree.snap_state(w);
        self.pool.snap_state(w);
    }

    /// Restores the state written by [`PagedTree::snap_state`] into a
    /// value built with the same config and pool size.
    pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.tree.restore_state(r)?;
        self.pool.restore_state(r, self.tree.page_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::record_for_seq;

    #[test]
    fn the_sink_sees_replays_ios_and_leaves_replays_pool() {
        // A pool far smaller than the tree: misses, evictions and dirty
        // write-backs on most inserts.
        let config = BTreeConfig {
            leaf_capacity: 8,
            internal_capacity: 8,
            page_bytes: 1 << 10,
        };
        let build = || PagedTree::new(config, 16);
        let (mut collected, mut sunk, mut dropped) = (build(), build(), build());
        let mut scratch = PageTrace::default();
        for seq in 0..3_000 {
            let r = record_for_seq(seq);
            let (_, trace) = collected.tree.insert(r.key, r.fields);
            let want = collected.replay(&trace);
            for paged in [&mut sunk, &mut dropped] {
                paged.tree.insert_into(r.key, r.fields, &mut scratch);
                assert_eq!(scratch, trace);
            }
            let mut got = Vec::new();
            sunk.replay_into(&scratch, |io| got.push(io));
            assert_eq!(got, want, "seq {seq}");
            dropped.replay_into(&scratch, |_| {});
        }
        let stats = collected.pool.stats();
        assert!(stats.dirty_writebacks > 1_000, "{stats:?}");
        // Tree, frame table, clock hand and `PoolStats`, byte for byte.
        let state = |paged: &PagedTree| {
            let mut w = SnapWriter::new();
            paged.snap_state(&mut w);
            w.into_bytes()
        };
        assert!(state(&sunk) == state(&collected));
        assert!(state(&dropped) == state(&collected));
    }
}
