//! A page buffer pool with clock (second-chance) eviction.
//!
//! The MySQL- and Voldemort-like stores run their B-trees through this
//! pool: a page access either hits (CPU only) or misses (random read,
//! possibly preceded by a dirty write-back). On Cluster M the pool holds
//! the whole working set; on Cluster D (4 GB RAM, 10.5 GB data) it
//! thrashes — which is exactly the regime change the paper's §5.8 shows.

use apm_core::snap::{SnapError, SnapReader, SnapWriter};
use apm_core::snap_struct;

/// Identifies a page (the B-tree uses node ids as page ids).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// Kind of page access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Read the page.
    Read,
    /// Read and dirty the page.
    Write,
}

/// Outcome of one page access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolResult {
    /// True when the page was already resident.
    pub hit: bool,
    /// A dirty page that had to be written back to make room.
    pub writeback: Option<PageId>,
}

/// Cumulative pool statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub dirty_writebacks: u64,
}

impl PoolStats {
    /// Hit fraction in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Frame {
    page: PageId,
    referenced: bool,
    dirty: bool,
}

/// The buffer pool.
#[derive(Clone, Debug)]
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    /// `slots[page]` is the page's frame index + 1, or 0 when the page is
    /// not resident. Dense because page ids are B-tree node indices;
    /// grown on demand, so it costs 4 bytes per page up to the largest
    /// id accessed.
    slots: Vec<u32>,
    hand: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// Creates a pool holding up to `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or does not fit a `u32` slot.
    pub fn new(capacity: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(
            capacity < u32::MAX as usize,
            "buffer pool frame indices are 32-bit"
        );
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity.min(1 << 20)),
            slots: Vec::new(),
            hand: 0,
            stats: PoolStats::default(),
        }
    }

    /// Accesses `page`, running clock eviction on a miss.
    pub fn access(&mut self, page: PageId, access: Access) -> PoolResult {
        let slot = page.0 as usize;
        if let Some(&resident) = self.slots.get(slot).filter(|&&s| s != 0) {
            self.stats.hits += 1;
            let frame = &mut self.frames[resident as usize - 1];
            frame.referenced = true;
            if access == Access::Write {
                frame.dirty = true;
            }
            return PoolResult {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses += 1;
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, 0);
        }
        let dirty = access == Access::Write;
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page,
                referenced: true,
                dirty,
            });
            self.slots[slot] = self.frames.len() as u32;
            return PoolResult {
                hit: false,
                writeback: None,
            };
        }
        // Clock sweep: clear reference bits until a victim is found.
        let victim_idx = loop {
            let frame = &mut self.frames[self.hand];
            if frame.referenced {
                frame.referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
            } else {
                break self.hand;
            }
        };
        let victim = self.frames[victim_idx];
        self.slots[victim.page.0 as usize] = 0;
        self.stats.evictions += 1;
        let writeback = if victim.dirty {
            self.stats.dirty_writebacks += 1;
            Some(victim.page)
        } else {
            None
        };
        self.frames[victim_idx] = Frame {
            page,
            referenced: true,
            dirty,
        };
        self.slots[slot] = victim_idx as u32 + 1;
        self.hand = (victim_idx + 1) % self.capacity;
        PoolResult {
            hit: false,
            writeback,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Serializes the frame table, clock hand, and stats (the capacity is
    /// re-supplied at construction; the page map is rebuilt on restore).
    pub fn snap_state(&self, w: &mut SnapWriter) {
        // `capacity` is construction-time config, which restore validates
        // against; `slots` is derived from `frames` and rebuilt on restore.
        let BufferPool {
            capacity: _,
            frames,
            slots: _,
            hand,
            stats,
        } = self;
        w.put(frames);
        w.put(hand);
        w.put(stats);
    }

    /// Restores the state written by [`BufferPool::snap_state`] into a
    /// pool built with the same capacity. `page_count` is the restored
    /// owning tree's [`page_count`](crate::btree::BTree::page_count): a
    /// frame naming a page the tree does not have, or a page held by two
    /// frames, is a corrupt stream — and must not size the slot table.
    pub fn restore_state(&mut self, r: &mut SnapReader, page_count: u64) -> Result<(), SnapError> {
        let BufferPool {
            capacity,
            frames,
            slots,
            hand,
            stats,
        } = self;
        let table: Vec<Frame> = r.get()?;
        let clock: usize = r.get()?;
        if table.len() > *capacity || (clock != 0 && clock >= *capacity) {
            return Err(SnapError::BadTag {
                what: "BufferPool frames",
                tag: table.len() as u64,
            });
        }
        let mut index = vec![0u32; page_count as usize];
        for (i, frame) in table.iter().enumerate() {
            match index.get_mut(frame.page.0 as usize) {
                Some(slot) if *slot == 0 => *slot = i as u32 + 1,
                _ => {
                    return Err(SnapError::BadTag {
                        what: "BufferPool frame page",
                        tag: frame.page.0,
                    })
                }
            }
        }
        (*frames, *slots, *hand) = (table, index, clock);
        *stats = r.get()?;
        Ok(())
    }
}

snap_struct! {
    PageId { 0 }
    PoolStats { hits, misses, evictions, dirty_writebacks }
    Frame { page, referenced, dirty }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut pool = BufferPool::new(4);
        assert!(!pool.access(PageId(1), Access::Read).hit);
        assert!(pool.access(PageId(1), Access::Read).hit);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn fits_in_capacity_without_eviction() {
        let mut pool = BufferPool::new(8);
        for i in 0..8 {
            pool.access(PageId(i), Access::Read);
        }
        for i in 0..8 {
            assert!(
                pool.access(PageId(i), Access::Read).hit,
                "page {i} evicted prematurely"
            );
        }
        assert_eq!(pool.stats().evictions, 0);
    }

    #[test]
    fn overflow_evicts_and_reports_dirty_writebacks() {
        let mut pool = BufferPool::new(2);
        pool.access(PageId(1), Access::Write);
        pool.access(PageId(2), Access::Read);
        // Third page must evict one of the first two.
        let r3 = pool.access(PageId(3), Access::Read);
        assert!(!r3.hit);
        assert_eq!(pool.stats().evictions, 1);
        // Keep streaming reads; the dirty page must wash out eventually.
        let mut writebacks = usize::from(r3.writeback.is_some());
        for i in 4..20 {
            if pool.access(PageId(i), Access::Read).writeback.is_some() {
                writebacks += 1;
            }
        }
        assert!(writebacks >= 1, "dirty page never written back");
        assert_eq!(pool.stats().dirty_writebacks as usize, writebacks);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut pool = BufferPool::new(3);
        pool.access(PageId(1), Access::Read);
        pool.access(PageId(2), Access::Read);
        pool.access(PageId(3), Access::Read);
        // All bits set: the first eviction sweeps everyone and takes the
        // frame at the hand (page 1), leaving pages 2 and 3 unreferenced.
        pool.access(PageId(4), Access::Read);
        // Re-reference page 3; the next sweep must spare it and take the
        // unreferenced page 2 instead.
        assert!(pool.access(PageId(3), Access::Read).hit);
        pool.access(PageId(5), Access::Read);
        assert!(
            pool.access(PageId(3), Access::Read).hit,
            "referenced page lost its second chance"
        );
        assert!(
            !pool.access(PageId(2), Access::Read).hit,
            "unreferenced page should be the victim"
        );
    }

    #[test]
    fn hit_rate_reflects_thrash() {
        let mut small = BufferPool::new(10);
        for round in 0..3 {
            for i in 0..100 {
                small.access(PageId(i), Access::Read);
            }
            let _ = round;
        }
        assert!(
            small.stats().hit_rate() < 0.1,
            "thrashing pool should mostly miss"
        );
        let mut big = BufferPool::new(200);
        for _ in 0..3 {
            for i in 0..100 {
                big.access(PageId(i), Access::Read);
            }
        }
        assert!(
            big.stats().hit_rate() > 0.6,
            "resident working set should mostly hit"
        );
    }

    fn snapshot(pool: &BufferPool) -> Vec<u8> {
        let mut w = SnapWriter::new();
        pool.snap_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn restore_rebuilds_the_page_index() {
        let mut pool = BufferPool::new(3);
        for page in [5, 1, 9, 4] {
            pool.access(PageId(page), Access::Write);
        }
        let bytes = snapshot(&pool);
        let mut back = BufferPool::new(3);
        back.restore_state(&mut SnapReader::new(&bytes), 10)
            .expect("own snapshot restores");
        assert_eq!(snapshot(&back), bytes);
        for page in 0..10 {
            assert_eq!(
                back.access(PageId(page), Access::Read),
                pool.access(PageId(page), Access::Read),
                "page {page}"
            );
        }
    }

    #[test]
    fn restore_rejects_out_of_range_and_duplicate_pages() {
        // A frame may only name a page of the owning tree: page 9 with a
        // 9-page tree is one past the end, and a hostile id must become a
        // typed error, not a slot table of that size.
        let mut pool = BufferPool::new(4);
        pool.access(PageId(2), Access::Read);
        pool.access(PageId(9), Access::Read);
        let good = snapshot(&pool);
        let bad_tag = |bytes: &[u8], page_count: u64| match BufferPool::new(4)
            .restore_state(&mut SnapReader::new(bytes), page_count)
        {
            Err(SnapError::BadTag { what, tag }) => (what, tag),
            other => panic!("expected BadTag, got {other:?}"),
        };
        assert_eq!(bad_tag(&good, 9), ("BufferPool frame page", 9));
        let mut hostile = pool.clone();
        hostile.frames[1].page = PageId(u64::MAX);
        assert_eq!(
            bad_tag(&snapshot(&hostile), 10),
            ("BufferPool frame page", u64::MAX)
        );
        let mut twice = pool.clone();
        twice.frames[1].page = PageId(2);
        assert_eq!(bad_tag(&snapshot(&twice), 10), ("BufferPool frame page", 2));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_panics() {
        BufferPool::new(0);
    }
}
