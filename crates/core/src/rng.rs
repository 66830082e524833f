//! The one SplitMix64 in the tree.
//!
//! Three subsystems historically carried private copies of this generator
//! (key scrambling in `keyspace`, random fault schedules in
//! `apm_sim::fault`, resilience jitter in `apm_stores::resilience`). They
//! now all route through this module so RNG state serializes uniformly in
//! snapshots: a [`SplitMix64`] is exactly one `u64` of state, and its
//! [`Snap`](crate::snap::Snap) codec writes that word.
//!
//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) advances by the golden
//! gamma and finalizes with a Stafford mix; the finalizer alone is a
//! bijective 64-bit hash, which is what key scrambling uses.

/// The additive constant of the SplitMix64 stream (⌊2⁶⁴/φ⌋, odd).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Stateless SplitMix64 step: finalizes `v + GOLDEN_GAMMA`. Bijective, so
/// mixed identifiers never collide. `mix(state)` is precisely the output
/// of a [`SplitMix64`] whose state is `state`.
#[inline]
pub fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream. One word of state; trivially snapshotable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

crate::snap_struct! { SplitMix64 { state } }

impl SplitMix64 {
    /// A stream starting at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }

    /// Next fraction in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn next_frac(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_the_finalizer() {
        let mut rng = SplitMix64::new(42);
        assert_eq!(rng.next_u64(), mix(42));
        assert_eq!(rng.next_u64(), mix(42u64.wrapping_add(GOLDEN_GAMMA)));
    }

    #[test]
    fn state_round_trips_mid_stream() {
        let mut a = SplitMix64::new(7);
        a.next_u64();
        a.next_u64();
        let mut w = crate::snap::SnapWriter::new();
        w.put(&a);
        assert_eq!(w.bytes(), a.state.to_le_bytes(), "the one word");
        let mut b: SplitMix64 = crate::snap::SnapReader::new(w.bytes()).get().unwrap();
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.next_frac(), b.next_frac());
    }

    #[test]
    fn fracs_stay_in_unit_interval() {
        let mut rng = SplitMix64::new(123);
        for _ in 0..256 {
            let f = rng.next_frac();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn mix_is_injective_on_a_sample() {
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..10_000u64 {
            assert!(seen.insert(mix(v)), "collision at {v}");
        }
    }
}
