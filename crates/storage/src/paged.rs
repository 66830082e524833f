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
        let page_bytes = self.tree.page_bytes();
        for page in trace.read.iter().chain(&trace.written) {
            let access = if trace.written.contains(page) {
                Access::Write
            } else {
                Access::Read
            };
            let r = self.pool.access(*page, access);
            if !r.hit {
                ios.push(DiskIo::random_read(page_bytes));
            }
            if r.writeback.is_some() {
                ios.push(DiskIo::random_write(page_bytes));
            }
        }
        for page in &trace.allocated {
            // Fresh split pages need no read, only eventual write-back.
            let r = self.pool.access(*page, Access::Write);
            if r.writeback.is_some() {
                ios.push(DiskIo::random_write(page_bytes));
            }
        }
        ios
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
