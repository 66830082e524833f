//! Bloom filters for SSTable lookups.
//!
//! LSM reads consult every sorted run that might contain the key; bloom
//! filters make misses cheap. This is a standard double-hashing filter
//! (Kirsch–Mitzenmacher): `k` probe positions derived from two 64-bit
//! FNV-style hashes of the key bytes.

use apm_core::record::MetricKey;
use apm_core::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// A fixed-size bloom filter keyed by [`MetricKey`].
#[derive(Clone, Debug)]
pub struct Bloom {
    bits: Vec<u64>,
    mask: u64,
    k: u32,
    inserted: u64,
}

/// Two independent FNV-1a streams, advanced from `state` over `bytes`.
const fn fnv_pair((mut h1, mut h2): (u64, u64), bytes: &[u8]) -> (u64, u64) {
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i] as u64;
        h1 = (h1 ^ b).wrapping_mul(0x0000_0100_0000_01b3);
        h2 = (h2 ^ b).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h2 ^= h2 >> 33;
        i += 1;
    }
    (h1, h2)
}

/// The streams' offset bases.
const FNV_START: (u64, u64) = (0xcbf2_9ce4_8422_2325, 0x9ddf_ea08_eb38_2d69);
/// What every [`MetricKey::from_id`] key starts with: the tag byte and
/// the eleven digits a 64-bit identifier never reaches.
const ID_PREFIX: &[u8; 12] = b"m00000000000";
/// The streams after [`ID_PREFIX`].
const AFTER_ID_PREFIX: (u64, u64) = fnv_pair(FNV_START, ID_PREFIX);

/// Both streams over the whole key. They are prefix-incremental, so a
/// key that starts with the constant prefix — every key the harness
/// makes; a record's is hashed again at each flush and merge that
/// rebuilds a filter — resumes after it.
fn hash_pair(key: &MetricKey) -> (u64, u64) {
    let (head, tail) = key.as_bytes().split_at(ID_PREFIX.len());
    if head == ID_PREFIX {
        fnv_pair(AFTER_ID_PREFIX, tail)
    } else {
        fnv_pair(FNV_START, key.as_bytes())
    }
}

impl Bloom {
    /// Builds a filter sized for `expected_keys` at `bits_per_key`
    /// (Cassandra/HBase default ≈ 10 bits/key → ~1 % false positives).
    pub fn with_capacity(expected_keys: usize, bits_per_key: usize) -> Bloom {
        let bits = (expected_keys.max(1) * bits_per_key.max(1))
            .next_power_of_two()
            .max(64);
        let k = ((bits_per_key as f64) * std::f64::consts::LN_2)
            .round()
            .max(1.0) as u32;
        Bloom {
            bits: vec![0; bits / 64],
            mask: bits as u64 - 1,
            k,
            inserted: 0,
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &MetricKey) {
        let (h1, h2) = hash_pair(key);
        for i in 0..self.k {
            let bit = h1.wrapping_add(u64::from(i).wrapping_mul(h2)) & self.mask;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Tests membership. False positives possible, false negatives not.
    pub fn may_contain(&self, key: &MetricKey) -> bool {
        let (h1, h2) = hash_pair(key);
        (0..self.k).all(|i| {
            let bit = h1.wrapping_add(u64::from(i).wrapping_mul(h2)) & self.mask;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Number of keys inserted.
    pub fn len(&self) -> u64 {
        self.inserted
    }

    /// True when nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// Size of the filter in bytes (contributes to SSTable disk size).
    pub fn size_bytes(&self) -> u64 {
        self.bits.len() as u64 * 8
    }
}

// Hand-written: `restore` refuses a mask that does not match the bit
// table it indexes.
impl Snap for Bloom {
    fn snap(&self, w: &mut SnapWriter) {
        let Bloom {
            bits,
            mask,
            k,
            inserted,
        } = self;
        w.put(bits);
        w.put_u64(*mask);
        w.put_u32(*k);
        w.put_u64(*inserted);
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        let bits: Vec<u64> = r.get()?;
        let mask = r.u64()?;
        if bits.len() as u64 * 64 != mask + 1 {
            return Err(SnapError::BadTag {
                what: "Bloom mask",
                tag: mask,
            });
        }
        Ok(Bloom {
            bits,
            mask,
            k: r.u32()?,
            inserted: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::key_for_seq;
    use apm_core::record::ApmMeasurement;

    /// The whole-key walk `hash_pair` was first written as.
    fn plain_hash_pair(key: &MetricKey) -> (u64, u64) {
        let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h2: u64 = 0x9ddf_ea08_eb38_2d69;
        for &b in key.as_bytes() {
            h1 = (h1 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            h2 = (h2 ^ u64::from(b)).wrapping_mul(0xff51_afd7_ed55_8ccd);
            h2 ^= h2 >> 33;
        }
        (h1, h2)
    }

    fn hash_pair_is_the_plain_walk(budget: u64) {
        // Keys the prefix shortcut does not apply to: the sentinels, and
        // one that shares eleven of the twelve prefix bytes.
        let mut near = *MetricKey::from_id(0x5EED).as_bytes();
        near[11] = b'1';
        for key in [MetricKey::MIN, MetricKey::MAX, MetricKey::from_bytes(near)] {
            assert!(!key.as_bytes().starts_with(ID_PREFIX), "{key:?}");
            assert_eq!(hash_pair(&key), plain_hash_pair(&key), "{key:?}");
        }
        // Keys it must apply to: every identifier's, the largest included.
        let measurement = ApmMeasurement {
            metric: "HostA/AgentX/ServletB/AverageResponseTime".to_string(),
            value: 4,
            min: 1,
            max: 6,
            timestamp: 1_332_988_833,
            duration: 15,
        };
        let canonical = [0, 1, u64::MAX]
            .into_iter()
            .chain(0..budget)
            .map(key_for_seq)
            .chain([MetricKey::from_id(u64::MAX), measurement.to_record(99).key]);
        for key in canonical {
            assert!(key.as_bytes().starts_with(ID_PREFIX), "{key:?}");
            assert_eq!(hash_pair(&key), plain_hash_pair(&key), "{key:?}");
        }
    }

    #[test]
    fn kernel_equivalence_of_hash_pair() {
        hash_pair_is_the_plain_walk(1 << 12);
    }

    #[test]
    #[ignore = "2^20 keys: CI runs it in the release profile"]
    fn kernel_equivalence_of_hash_pair_at_the_large_budget() {
        hash_pair_is_the_plain_walk(1 << 20);
    }

    #[test]
    fn no_false_negatives() {
        let mut bloom = Bloom::with_capacity(10_000, 10);
        for seq in 0..10_000 {
            bloom.insert(&key_for_seq(seq));
        }
        for seq in 0..10_000 {
            assert!(
                bloom.may_contain(&key_for_seq(seq)),
                "false negative at {seq}"
            );
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut bloom = Bloom::with_capacity(10_000, 10);
        for seq in 0..10_000 {
            bloom.insert(&key_for_seq(seq));
        }
        let fp = (10_000..110_000)
            .filter(|&seq| bloom.may_contain(&key_for_seq(seq)))
            .count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.03, "false positive rate too high: {rate}");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bloom = Bloom::with_capacity(100, 10);
        assert!(bloom.is_empty());
        assert!(!bloom.may_contain(&key_for_seq(1)));
    }

    #[test]
    fn size_scales_with_capacity() {
        let small = Bloom::with_capacity(100, 10);
        let large = Bloom::with_capacity(100_000, 10);
        assert!(large.size_bytes() > small.size_bytes());
        // ~10 bits/key rounded up to a power of two.
        assert!(large.size_bytes() >= 100_000 * 10 / 8);
    }
}
