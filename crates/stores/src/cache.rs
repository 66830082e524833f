//! OS page-cache model for the LSM stores.
//!
//! Cassandra, HBase and Voldemort lean on the OS page cache (or an
//! internal block cache) for reads. On Cluster M the per-node data set
//! (≈2.5–7.5 GB on disk) fits in 16 GB RAM, so reads rarely touch disk —
//! the cluster is *memory-bound* (§3). On Cluster D the data exceeds the
//! 4 GB of RAM and a fraction of reads miss to disk — the *disk-bound*
//! regime of §5.8, where latencies jump to tens of milliseconds.
//!
//! The model: with `data` bytes of cold data competing for `capacity`
//! cache bytes, a uniformly-random read hits with probability
//! `min(1, capacity / data)`. Sampling uses a seeded deterministic stream
//! so runs are repeatable.

use apm_core::keyspace::SplitRng;
use apm_core::snap_state;
use apm_storage::receipt::DiskIo;

/// Per-node page cache model.
#[derive(Clone, Debug)]
pub struct PageCache {
    capacity_bytes: u64,
    rng: SplitRng,
}

impl PageCache {
    /// Creates a cache with `capacity_bytes` available for data pages.
    pub fn new(capacity_bytes: u64, seed: u64) -> PageCache {
        PageCache {
            capacity_bytes,
            rng: SplitRng::new(seed),
        }
    }

    /// Cache capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    /// Hit probability when `data_bytes` of uniformly-accessed data
    /// compete for the cache.
    pub fn hit_probability(&self, data_bytes: u64) -> f64 {
        if data_bytes == 0 {
            1.0
        } else {
            (self.capacity_bytes as f64 / data_bytes as f64).min(1.0)
        }
    }

    /// Samples whether one access hits the cache.
    pub fn sample_hit(&mut self, data_bytes: u64) -> bool {
        let p = self.hit_probability(data_bytes);
        p >= 1.0 || self.rng.next_f64() < p
    }

    /// Filters a receipt's I/O list: cacheable reads are dropped when they
    /// hit; writes and uncacheable accesses always survive. Returns the
    /// accesses that actually reach the disk.
    pub fn filter_ios(&mut self, ios: &[DiskIo], data_bytes: u64) -> Vec<DiskIo> {
        ios.iter()
            .filter(|io| !(io.cacheable && io.class.is_read() && self.sample_hit(data_bytes)))
            .copied()
            .collect()
    }
}

// The sampling stream; the capacity is config.
snap_state! { PageCache { capacity_bytes: _, rng } }

#[cfg(test)]
mod tests {
    use super::*;
    use apm_storage::receipt::DiskIo;

    #[test]
    fn small_data_always_hits() {
        let mut cache = PageCache::new(1 << 30, 1);
        assert_eq!(cache.hit_probability(1 << 20), 1.0);
        assert!((0..100).all(|_| cache.sample_hit(1 << 20)));
    }

    #[test]
    fn oversized_data_hits_proportionally() {
        let mut cache = PageCache::new(1 << 30, 1);
        let data = 4u64 << 30; // 4x the cache → 25% hits
        let hits = (0..10_000).filter(|_| cache.sample_hit(data)).count();
        assert!(
            (2_000..3_000).contains(&hits),
            "expected ~2500 hits, got {hits}"
        );
    }

    #[test]
    fn filter_keeps_writes_and_uncacheable() {
        let mut cache = PageCache::new(u64::MAX, 1); // everything hits
        let ios = vec![
            DiskIo::random_read(4096),
            DiskIo::seq_write(100),
            DiskIo::random_write(4096),
        ];
        let surviving = cache.filter_ios(&ios, 1 << 30);
        assert_eq!(surviving.len(), 2, "reads hit, writes must survive");
        assert!(surviving.iter().all(|io| !io.class.is_read()));
    }

    #[test]
    fn filter_passes_reads_when_cache_is_cold() {
        let mut cache = PageCache::new(1, 1); // effectively no cache
        let ios = vec![DiskIo::random_read(4096), DiskIo::random_read(4096)];
        let surviving = cache.filter_ios(&ios, 1 << 30);
        assert_eq!(surviving.len(), 2);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = PageCache::new(1 << 30, 9);
        let mut b = PageCache::new(1 << 30, 9);
        let data = 3u64 << 30;
        for _ in 0..100 {
            assert_eq!(a.sample_hit(data), b.sample_hit(data));
        }
    }
}
