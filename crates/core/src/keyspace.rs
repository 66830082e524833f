//! Key generation and key-choosing distributions.
//!
//! The benchmark follows YCSB's key-space discipline: a *load phase*
//! inserts `initial_records` records with identifiers `0..initial`, and
//! the *transaction phase* appends new identifiers sequentially while
//! reads/scans choose uniformly among the records inserted so far
//! (§3: "All access patterns were uniformly distributed"). Zipfian and
//! latest choosers are provided for the skew ablation extension.
//!
//! Identifiers are scrambled through a 64-bit hash before being rendered
//! into keys (like YCSB's `user<fnv(seq)>`), so insertion order is *not*
//! key order — exactly the property that makes LSM compaction and B-tree
//! splits non-trivial, and scans hit arbitrary record populations.

use crate::record::{MetricKey, Record};
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::snap_struct;

/// Stateless 64-bit mix (SplitMix64 finaliser). Bijective, so scrambled
/// identifiers never collide. Thin alias for [`crate::rng::mix`], the
/// tree's single SplitMix64.
#[inline]
pub fn scramble(id: u64) -> u64 {
    crate::rng::mix(id)
}

/// Produces the benchmark key for sequence number `seq`.
#[inline]
pub fn key_for_seq(seq: u64) -> MetricKey {
    MetricKey::from_id(scramble(seq))
}

/// Produces the full record for sequence number `seq`.
#[inline]
pub fn record_for_seq(seq: u64) -> Record {
    Record::from_id(scramble(seq))
}

/// Key-choosing distribution for read/scan operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDistribution {
    /// Uniform over all inserted records (the paper's setting).
    Uniform,
    /// Zipfian with the given theta (YCSB default 0.99). Extension.
    Zipfian(f64),
    /// Skewed towards the most recently inserted records. Extension.
    Latest,
}

/// Deterministic xorshift128+ generator — small, fast, seedable, and
/// independent of the `rand` crate's version-to-version stream changes,
/// which keeps recorded experiment output stable.
#[derive(Clone, Debug)]
pub struct SplitRng {
    s0: u64,
    s1: u64,
}

impl SplitRng {
    /// Creates a generator from a seed; two different seeds give
    /// independent streams.
    pub fn new(seed: u64) -> Self {
        // Seed both words through SplitMix so that small seeds work.
        let s0 = scramble(seed).max(1);
        let s1 = scramble(seed.wrapping_add(1)).max(1);
        SplitRng { s0, s1 }
    }

    /// Derives an independent child stream (used to give each simulated
    /// client its own stream without coordination).
    pub fn split(&mut self, tag: u64) -> SplitRng {
        SplitRng::new(self.next_u64() ^ scramble(tag))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s0;
        let y = self.s1;
        self.s0 = y;
        x ^= x << 23;
        self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        self.s1.wrapping_add(y)
    }

    /// Uniform value in `[0, bound)`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift rejection-free mapping; bias is < 2^-32 for the
        // bounds used here (record counts), irrelevant for benchmarking.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

snap_struct! { SplitRng { s0, s1 } }

/// Chooses existing record sequence numbers according to a distribution.
///
/// The chooser tracks how many records exist (`0..count`); the driver
/// bumps `count` as inserts are acknowledged, matching YCSB's
/// `AcknowledgedCounterGenerator`.
#[derive(Clone, Debug)]
pub struct KeyChooser {
    dist: KeyDistribution,
    rng: SplitRng,
    /// Cached Zipfian state (recomputed when `count` grows by >10 %).
    zipf: Option<ZipfState>,
}

#[derive(Clone, Debug)]
struct ZipfState {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfState {
    fn new(n: u64, theta: f64) -> Self {
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfState {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn sample(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    // Direct sum for small n; Euler–Maclaurin style approximation above.
    if n <= 10_000 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        // integral of x^-theta from 10_000 to n
        head + ((n as f64).powf(1.0 - theta) - 10_000f64.powf(1.0 - theta)) / (1.0 - theta)
    }
}

snap_struct! { ZipfState { n, theta, alpha, zetan, eta } }

impl KeyChooser {
    /// Creates a chooser with its own RNG stream.
    pub fn new(dist: KeyDistribution, rng: SplitRng) -> Self {
        KeyChooser {
            dist,
            rng,
            zipf: None,
        }
    }

    /// Serializes the mutable chooser state (RNG position + Zipf cache).
    /// The distribution is configuration and is not written.
    pub fn snap_state(&self, w: &mut SnapWriter) {
        // `dist` is construction-time config, not part of the stream.
        let KeyChooser { dist: _, rng, zipf } = self;
        w.put(rng);
        w.put(zipf);
    }

    /// Restores state written by [`Self::snap_state`] into a chooser
    /// built with the same distribution.
    pub fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let KeyChooser { dist: _, rng, zipf } = self;
        *rng = r.get()?;
        *zipf = r.get()?;
        Ok(())
    }

    /// Picks the sequence number of an existing record, given that
    /// records `0..count` currently exist.
    ///
    /// # Panics
    /// Panics if `count == 0` — the benchmark always loads data first.
    pub fn choose(&mut self, count: u64) -> u64 {
        assert!(count > 0, "key chooser requires a non-empty store");
        match self.dist {
            KeyDistribution::Uniform => self.rng.next_below(count),
            KeyDistribution::Zipfian(theta) => {
                let needs_rebuild = match &self.zipf {
                    Some(z) => count > z.n + z.n / 10,
                    None => true,
                };
                if needs_rebuild {
                    self.zipf = Some(ZipfState::new(count, theta));
                }
                let u = self.rng.next_f64();
                let z = self.zipf.as_ref().expect("zipf state built above");
                // Popular items are the *scrambled-first* ids, matching
                // YCSB which scrambles after sampling.
                z.sample(u).min(count - 1)
            }
            KeyDistribution::Latest => {
                // Exponentially decaying preference for recent inserts.
                let u = self.rng.next_f64();
                let back = (-u.ln() * (count as f64 / 16.0)) as u64;
                count - 1 - back.min(count - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scramble_is_injective_on_a_sample() {
        let mut seen = std::collections::BTreeSet::new();
        for seq in 0..10_000u64 {
            assert!(seen.insert(scramble(seq)), "collision at {seq}");
        }
    }

    #[test]
    fn keys_for_consecutive_seqs_are_not_ordered() {
        // Scrambling must destroy insertion order (YCSB hashed keyspace).
        let ordered = (0..100u64)
            .map(key_for_seq)
            .collect::<Vec<_>>()
            .windows(2)
            .filter(|w| w[0] < w[1])
            .count();
        assert!(ordered > 20 && ordered < 80, "keys look ordered: {ordered}");
    }

    #[test]
    fn key_for_seq_is_the_key_of_record_for_seq() {
        // Reads and scans draw only the key; the op stream is the same
        // only if it is the key the loaded record carries.
        let mut rng = SplitRng::new(0x6B65_7931);
        let edges = [0, 1, 35, 36, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
        let scrambled = (0..4_096).map(|_| rng.next_u64());
        for seq in edges.into_iter().chain(0..4_096).chain(scrambled) {
            assert_eq!(key_for_seq(seq), record_for_seq(seq).key, "seq {seq}");
        }
    }

    #[test]
    fn rng_streams_are_deterministic_and_seed_dependent() {
        let mut a = SplitRng::new(42);
        let mut b = SplitRng::new(42);
        let mut c = SplitRng::new(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitRng::new(7);
        for bound in [1u64, 2, 3, 100, 1_000_000] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn uniform_chooser_covers_the_space() {
        let mut chooser = KeyChooser::new(KeyDistribution::Uniform, SplitRng::new(1));
        let n = 100u64;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..20_000 {
            counts[chooser.choose(n) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min > 100, "uniform chooser starved a key: min={min}");
        assert!(max < 400, "uniform chooser over-picked a key: max={max}");
    }

    #[test]
    fn zipfian_chooser_is_skewed_towards_low_ids() {
        let mut chooser = KeyChooser::new(KeyDistribution::Zipfian(0.99), SplitRng::new(1));
        let n = 1_000u64;
        let hits_low = (0..10_000).filter(|_| chooser.choose(n) < n / 10).count();
        // Under uniform this would be ~1_000; zipf(0.99) concentrates most mass.
        assert!(hits_low > 5_000, "zipfian not skewed: {hits_low}");
    }

    #[test]
    fn latest_chooser_prefers_recent() {
        let mut chooser = KeyChooser::new(KeyDistribution::Latest, SplitRng::new(1));
        let n = 1_000u64;
        let recent = (0..10_000).filter(|_| chooser.choose(n) >= n - 200).count();
        assert!(recent > 7_000, "latest not recency-biased: {recent}");
    }

    #[test]
    fn choosers_never_exceed_count() {
        for dist in [
            KeyDistribution::Uniform,
            KeyDistribution::Zipfian(0.99),
            KeyDistribution::Latest,
        ] {
            let mut chooser = KeyChooser::new(dist, SplitRng::new(3));
            for count in [1u64, 2, 17, 1_000] {
                for _ in 0..500 {
                    assert!(
                        chooser.choose(count) < count,
                        "{dist:?} exceeded count {count}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn chooser_rejects_empty_store() {
        KeyChooser::new(KeyDistribution::Uniform, SplitRng::new(1)).choose(0);
    }
}
