//! The APM record model.
//!
//! Section 3 of the paper fixes the data set: *"records with a single
//! alphanumeric key with a length of 25 bytes and 5 value fields each with
//! 10 bytes. Thus, a single record has a raw size of 75 bytes."* This
//! mirrors the real measurement structure of Figure 2 (metric name, value,
//! min, max, timestamp, duration).

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::snap_struct;
use std::cmp::Ordering;
use std::fmt;

/// Length in bytes of the alphanumeric record key.
pub const KEY_SIZE: usize = 25;
/// Number of value fields per record.
pub const FIELD_COUNT: usize = 5;
/// Size in bytes of each value field.
pub const FIELD_SIZE: usize = 10;
/// Raw record size: key plus fields (75 bytes, per §3 of the paper).
pub const RAW_RECORD_SIZE: usize = KEY_SIZE + FIELD_COUNT * FIELD_SIZE;

/// Alphabet used when rendering numeric identifiers into alphanumeric keys.
const ALPHABET: &[u8; 36] = b"0123456789abcdefghijklmnopqrstuvwxyz";

/// A fixed-size 25-byte alphanumeric record key.
///
/// Keys order lexicographically by their byte content, which is what every
/// store under test uses for range scans. The key layout produced by
/// [`MetricKey::from_id`] is a single tag byte followed by a base-36
/// rendering of a 64-bit identifier, zero-padded so that numeric order of
/// the identifier equals lexicographic order of the key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricKey([u8; KEY_SIZE]);

/// Lexicographic byte order, compared as three big-endian `u64` words
/// plus the last byte: the derived `Ord` on `[u8; 25]` is an out-of-line
/// `memcmp` call, and key comparison is the inner step of every memtable,
/// SSTable, merge-cursor and B+tree search.
impl Ord for MetricKey {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let word = |key: &MetricKey, i: usize| {
            u64::from_be_bytes(key.0[8 * i..8 * i + 8].try_into().expect("8 bytes"))
        };
        (0..3)
            .map(|i| word(self, i).cmp(&word(other, i)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.0[24].cmp(&other.0[24]))
    }
}

impl PartialOrd for MetricKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl MetricKey {
    /// The smallest possible key (all `'0'` bytes).
    pub const MIN: MetricKey = MetricKey([b'0'; KEY_SIZE]);
    /// The largest possible key (all `'z'` bytes).
    pub const MAX: MetricKey = MetricKey([b'z'; KEY_SIZE]);

    /// Builds a key directly from raw bytes.
    ///
    /// # Panics
    /// Panics if any byte is not alphanumeric lower-case (the benchmark
    /// only ever produces such keys; other bytes would break the size
    /// accounting assumptions of the stores).
    pub fn from_bytes(bytes: [u8; KEY_SIZE]) -> Self {
        assert!(
            bytes
                .iter()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()),
            "metric keys must be lower-case alphanumeric"
        );
        MetricKey(bytes)
    }

    /// Builds the canonical benchmark key for record identifier `id`.
    ///
    /// The YCSB convention is `user<fnv(seq)>`; we keep the same shape —
    /// a constant prefix (`"m"` for *metric*) followed by a zero-padded
    /// rendering of the identifier — so that identifiers map to unique,
    /// fixed-width, alphanumeric keys.
    pub fn from_id(id: u64) -> Self {
        /// 36⁷: the identifier is rendered as two seven-digit halves.
        const HALF: u64 = 36u64.pow(7);
        let mut buf = [b'0'; KEY_SIZE];
        buf[0] = b'm';
        // Base 36, right-aligned, always seven steps of two independent
        // chains: a loop that stops at `v == 0` mispredicts its exit on
        // the quarter of scrambled ids that need twelve digits instead of
        // thirteen. `hi < 2⁶⁴ / 36⁷ < 36⁶`, so `buf[11]` is written '0'.
        let (mut hi, mut lo) = (id / HALF, id % HALF);
        for i in (0..7).rev() {
            buf[11 + i] = ALPHABET[(hi % 36) as usize];
            buf[18 + i] = ALPHABET[(lo % 36) as usize];
            hi /= 36;
            lo /= 36;
        }
        MetricKey(buf)
    }

    /// Recovers the numeric identifier from a key produced by
    /// [`MetricKey::from_id`]. Returns `None` for foreign keys.
    pub fn to_id(&self) -> Option<u64> {
        if self.0[0] != b'm' {
            return None;
        }
        let mut v: u64 = 0;
        for &b in &self.0[1..] {
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u64,
                b'a'..=b'z' => (b - b'a') as u64 + 10,
                _ => return None,
            };
            v = v.checked_mul(36)?.checked_add(d)?;
        }
        Some(v)
    }

    /// Raw bytes of the key.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; KEY_SIZE] {
        &self.0
    }

    /// The key's length in bytes (always [`KEY_SIZE`]; provided so size
    /// accounting code reads naturally).
    #[inline]
    pub const fn len(&self) -> usize {
        KEY_SIZE
    }

    /// Fixed-size keys are never empty.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        false
    }
}

snap_struct! { MetricKey { 0 } }

impl fmt::Debug for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricKey({})", String::from_utf8_lossy(&self.0))
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&String::from_utf8_lossy(&self.0))
    }
}

/// The five 10-byte value fields of a record.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldValues(pub [[u8; FIELD_SIZE]; FIELD_COUNT]);

impl FieldValues {
    /// All-zero fields.
    pub const ZERO: FieldValues = FieldValues([[b'0'; FIELD_SIZE]; FIELD_COUNT]);

    /// Deterministically derives field content from a seed, mimicking
    /// YCSB's random field generation while staying reproducible.
    pub fn from_seed(seed: u64) -> Self {
        let [fields] = Self::from_seeds([seed]);
        fields
    }

    /// [`FieldValues::from_seed`] of every seed, stepping the `N`
    /// generators together: one chain is 50 dependent xorshift rounds, so
    /// independent chains side by side fill the time one spends waiting
    /// on itself.
    pub fn from_seeds<const N: usize>(seeds: [u64; N]) -> [FieldValues; N] {
        let mut states = seeds.map(|seed| seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut out = [FieldValues([[0u8; FIELD_SIZE]; FIELD_COUNT]); N];
        for field in 0..FIELD_COUNT {
            for byte in 0..FIELD_SIZE {
                for (state, fields) in states.iter_mut().zip(&mut out) {
                    // xorshift64* — cheap, deterministic, good enough for filler.
                    *state ^= *state << 13;
                    *state ^= *state >> 7;
                    *state ^= *state << 17;
                    fields.0[field][byte] = ALPHABET[(*state % 36) as usize];
                }
            }
        }
        out
    }

    /// Total payload size in bytes.
    #[inline]
    pub const fn len(&self) -> usize {
        FIELD_COUNT * FIELD_SIZE
    }

    /// Fixed-size payloads are never empty.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        false
    }
}

// Hand-written: five raw 10-byte runs (`Snap` covers `[u8; N]`, not an
// array of them).
impl Snap for FieldValues {
    fn snap(&self, w: &mut SnapWriter) {
        let FieldValues(fields) = self;
        for field in fields {
            w.put_bytes(field);
        }
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        let mut fields = [[0u8; FIELD_SIZE]; FIELD_COUNT];
        for field in &mut fields {
            field.copy_from_slice(r.bytes(FIELD_SIZE)?);
        }
        Ok(FieldValues(fields))
    }
}

impl fmt::Debug for FieldValues {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FieldValues(")?;
        for (i, field) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", String::from_utf8_lossy(field))?;
        }
        write!(f, ")")
    }
}

/// A complete benchmark record: 25-byte key plus five 10-byte fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    pub key: MetricKey,
    pub fields: FieldValues,
}

impl Record {
    /// Builds the canonical record for identifier `id`.
    pub fn from_id(id: u64) -> Self {
        let [record] = Self::from_ids([id]);
        record
    }

    /// [`Record::from_id`] of every identifier, the field generators
    /// stepped together ([`FieldValues::from_seeds`]).
    pub fn from_ids<const N: usize>(ids: [u64; N]) -> [Record; N] {
        let fields = FieldValues::from_seeds(ids);
        std::array::from_fn(|lane| Record {
            key: MetricKey::from_id(ids[lane]),
            fields: fields[lane],
        })
    }

    /// Raw size of the record (always 75 bytes).
    #[inline]
    pub const fn raw_size(&self) -> usize {
        RAW_RECORD_SIZE
    }
}

snap_struct! { Record { key, fields } }

/// The semantic APM measurement of Figure 2: a hierarchical metric name,
/// the measured value with min/max over the agent's aggregation interval,
/// the UNIX timestamp, and the interval duration in seconds.
///
/// ```
/// use apm_core::record::ApmMeasurement;
/// let m = ApmMeasurement {
///     metric: "HostA/AgentX/ServletB/AverageResponseTime".to_string(),
///     value: 4,
///     min: 1,
///     max: 6,
///     timestamp: 1_332_988_833,
///     duration: 15,
/// };
/// let rec = m.to_record(42);
/// assert_eq!(rec.raw_size(), 75);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApmMeasurement {
    /// Hierarchical metric name, e.g. `HostA/AgentX/ServletB/AverageResponseTime`.
    pub metric: String,
    /// Aggregated value over the reporting interval.
    pub value: i64,
    /// Minimum observed value within the interval.
    pub min: i64,
    /// Maximum observed value within the interval.
    pub max: i64,
    /// UNIX timestamp (seconds) of the report.
    pub timestamp: u64,
    /// Interval duration in seconds.
    pub duration: u32,
}

impl ApmMeasurement {
    /// Packs the measurement into the fixed benchmark record layout.
    ///
    /// The 25-byte key identifies the (metric, timestamp) pair via `id`;
    /// the five 10-byte fields carry value/min/max/timestamp/duration as
    /// zero-padded decimal strings (values are clamped to the field width,
    /// which suffices for monitoring data).
    pub fn to_record(&self, id: u64) -> Record {
        let mut fields = [[b'0'; FIELD_SIZE]; FIELD_COUNT];
        pack_decimal(&mut fields[0], self.value.unsigned_abs());
        pack_decimal(&mut fields[1], self.min.unsigned_abs());
        pack_decimal(&mut fields[2], self.max.unsigned_abs());
        pack_decimal(&mut fields[3], self.timestamp);
        pack_decimal(&mut fields[4], self.duration as u64);
        Record {
            key: MetricKey::from_id(id),
            fields: FieldValues(fields),
        }
    }

    /// Recovers the numeric payload from a packed record. The metric name
    /// is not stored in the record fields (it is identified by the key),
    /// so the returned measurement carries an empty name.
    pub fn from_record(rec: &Record) -> ApmMeasurement {
        let f = &rec.fields.0;
        ApmMeasurement {
            metric: String::new(),
            value: unpack_decimal(&f[0]) as i64,
            min: unpack_decimal(&f[1]) as i64,
            max: unpack_decimal(&f[2]) as i64,
            timestamp: unpack_decimal(&f[3]),
            duration: unpack_decimal(&f[4]) as u32,
        }
    }
}

fn pack_decimal(field: &mut [u8; FIELD_SIZE], mut v: u64) {
    for slot in field.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

fn unpack_decimal(field: &[u8; FIELD_SIZE]) -> u64 {
    field
        .iter()
        .fold(0u64, |acc, &b| acc * 10 + (b - b'0') as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_record_size_is_75_bytes() {
        // §3: "a single record has a raw size of 75 bytes".
        assert_eq!(RAW_RECORD_SIZE, 75);
        assert_eq!(Record::from_id(0).raw_size(), 75);
    }

    #[test]
    fn key_roundtrips_id() {
        for id in [0u64, 1, 35, 36, 12345, u64::MAX] {
            let key = MetricKey::from_id(id);
            assert_eq!(key.to_id(), Some(id), "id {id} failed to round-trip");
        }
    }

    /// `from_id` as it was first written: one digit a step until the
    /// value runs out.
    fn from_id_reference(id: u64) -> MetricKey {
        let mut buf = [b'0'; KEY_SIZE];
        buf[0] = b'm';
        let (mut v, mut i) = (id, KEY_SIZE);
        loop {
            i -= 1;
            buf[i] = ALPHABET[(v % 36) as usize];
            v /= 36;
            if v == 0 {
                return MetricKey(buf);
            }
        }
    }

    /// `from_seed` as it was first written: one generator, byte by byte.
    fn from_seed_reference(seed: u64) -> FieldValues {
        let mut fields = [[0u8; FIELD_SIZE]; FIELD_COUNT];
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for byte in fields.iter_mut().flatten() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = ALPHABET[(state % 36) as usize];
        }
        FieldValues(fields)
    }

    /// The digit-count edges of the two-chain render, then `budget`
    /// scrambled ids.
    fn sweep_ids(budget: u64) -> impl Iterator<Item = u64> {
        let p = |e| 36u64.pow(e);
        let edges = [0, 35, 36, p(7) - 1, p(7), p(12) - 1, p(12), u64::MAX];
        edges.into_iter().chain((0..budget).map(crate::rng::mix))
    }

    fn kernels_match_their_references(budget: u64) {
        let mut lanes = [0u64; 4];
        for (n, id) in sweep_ids(budget).enumerate() {
            let key = MetricKey::from_id(id);
            assert_eq!(key, from_id_reference(id), "id {id}");
            assert_eq!(key.to_id(), Some(id), "id {id}");
            assert_eq!(
                FieldValues::from_seed(id),
                from_seed_reference(id),
                "id {id}"
            );
            // Four at a time, each id passing through every lane.
            lanes.rotate_left(1);
            lanes[3] = id;
            if n >= 3 {
                let want = lanes.map(|id| Record {
                    key: from_id_reference(id),
                    fields: from_seed_reference(id),
                });
                assert_eq!(Record::from_ids(lanes), want, "ids {lanes:?}");
            }
        }
    }

    #[test]
    fn kernel_equivalence_of_key_render_and_field_lanes() {
        kernels_match_their_references(1 << 12);
    }

    #[test]
    #[ignore = "2^20 ids: CI runs it in the release profile"]
    fn kernel_equivalence_of_key_render_and_field_lanes_at_the_large_budget() {
        kernels_match_their_references(1 << 20);
    }

    #[test]
    fn key_order_matches_id_order() {
        let ids = [
            0u64,
            1,
            2,
            35,
            36,
            37,
            1000,
            10_000_000,
            u64::MAX - 1,
            u64::MAX,
        ];
        for w in ids.windows(2) {
            assert!(MetricKey::from_id(w[0]) < MetricKey::from_id(w[1]));
        }
    }

    #[test]
    fn key_order_equals_byte_order() {
        // The word-wise `Ord` must be indistinguishable from comparing
        // the 25 bytes: random byte strings (any byte value, via the raw
        // constructor), near-equal pairs that differ in one position of
        // each word and in the trailing byte, and the two sentinels.
        let mut rng = crate::keyspace::SplitRng::new(25);
        let mut random_key = || {
            let mut bytes = [0u8; KEY_SIZE];
            for b in &mut bytes {
                *b = rng.next_u64() as u8;
            }
            MetricKey(bytes)
        };
        let mut keys = vec![MetricKey::MIN, MetricKey::MAX];
        for _ in 0..200 {
            let key = random_key();
            keys.push(key);
            for pos in [0, 7, 8, 23, 24] {
                let mut near = key;
                near.0[pos] = near.0[pos].wrapping_add(1);
                keys.push(near);
            }
        }
        for a in &keys {
            for b in &keys {
                assert_eq!(a.cmp(b), a.as_bytes().cmp(b.as_bytes()), "{a:?} vs {b:?}");
                assert_eq!(a.partial_cmp(b), Some(a.cmp(b)));
            }
        }
    }

    #[test]
    fn key_is_alphanumeric_and_display_matches() {
        let key = MetricKey::from_id(987654321);
        assert!(key.as_bytes().iter().all(|b| b.is_ascii_alphanumeric()));
        assert_eq!(key.to_string().len(), KEY_SIZE);
    }

    #[test]
    #[should_panic(expected = "alphanumeric")]
    fn from_bytes_rejects_non_alphanumeric() {
        let mut bytes = [b'a'; KEY_SIZE];
        bytes[3] = b'!';
        let _ = MetricKey::from_bytes(bytes);
    }

    #[test]
    fn field_values_are_deterministic_per_seed() {
        assert_eq!(FieldValues::from_seed(7), FieldValues::from_seed(7));
        assert_ne!(FieldValues::from_seed(7), FieldValues::from_seed(8));
    }

    #[test]
    fn measurement_roundtrips_through_record() {
        let m = ApmMeasurement {
            metric: "HostA/AgentX/ServletB/AverageResponseTime".into(),
            value: 4,
            min: 1,
            max: 6,
            timestamp: 1_332_988_833,
            duration: 15,
        };
        let rec = m.to_record(99);
        let back = ApmMeasurement::from_record(&rec);
        assert_eq!(back.value, 4);
        assert_eq!(back.min, 1);
        assert_eq!(back.max, 6);
        assert_eq!(back.timestamp, 1_332_988_833);
        assert_eq!(back.duration, 15);
        assert_eq!(rec.key.to_id(), Some(99));
    }

    #[test]
    fn min_max_keys_bracket_generated_keys() {
        for id in [0u64, 42, u64::MAX] {
            let key = MetricKey::from_id(id);
            assert!(MetricKey::MIN <= key && key <= MetricKey::MAX);
        }
    }
}
