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

/// 36⁷: [`MetricKey::from_id`] renders an identifier as two seven-digit
/// halves.
const HALF: u64 = 36u64.pow(7);

/// What every key [`MetricKey::from_id`] renders starts with: the prefix
/// and the eleven zeros above a `u64`'s thirteen base-36 digits.
const ID_PREFIX: &[u8; 12] = b"m00000000000";

/// Digit value of each byte of [`ALPHABET`]; `0xFF`, whose top bit no
/// digit has, for every other byte.
const DIGIT_VALUE: [u8; 256] = {
    let mut table = [0xFF; 256];
    let mut digit = 0;
    while digit < ALPHABET.len() {
        table[ALPHABET[digit] as usize] = digit as u8;
        digit += 1;
    }
    table
};

/// The fewest snapshot bytes one `(MetricKey, FieldValues)` pair encodes
/// to: a key written as its id (tag + `u64`) and fields written as its
/// seed's (one tag). What a decoder bounds a record count by.
pub const MIN_RECORD_SNAP_BYTES: usize = 10;

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
    ///
    /// Every snapshot encode of a key asks this, so it parses the way
    /// `from_id` renders: a fixed prefix, then the two halves as two
    /// independent chains, off-alphabet bytes caught by one test at the
    /// end.
    pub fn to_id(&self) -> Option<u64> {
        if self.0[..12] != ID_PREFIX[..] {
            return None;
        }
        let (mut hi, mut lo, mut seen) = (0u64, 0u64, 0u8);
        for i in 0..7 {
            let d = DIGIT_VALUE[usize::from(self.0[18 + i])];
            seen |= d;
            lo = lo * 36 + u64::from(d);
            if i < 6 {
                let d = DIGIT_VALUE[usize::from(self.0[12 + i])];
                seen |= d;
                hi = hi * 36 + u64::from(d);
            }
        }
        if seen & 0x80 != 0 {
            return None;
        }
        hi.checked_mul(HALF)?.checked_add(lo)
    }

    /// Reads a key written as its 25 bytes, `w.put(key.as_bytes())`: the
    /// spelling outside the record codec, for values a run *reports*,
    /// whose bytes are hashed by result fingerprints that must not follow
    /// the checkpoint format. Refuses a byte [`MetricKey::from_bytes`]
    /// would panic on.
    pub fn restore_bytes(r: &mut SnapReader) -> Result<MetricKey, SnapError> {
        let bytes: [u8; KEY_SIZE] = r.get()?;
        match bytes
            .iter()
            .find(|b| !(b.is_ascii_lowercase() || b.is_ascii_digit()))
        {
            Some(&b) => Err(SnapError::BadTag {
                what: "MetricKey byte",
                tag: u64::from(b),
            }),
            None => Ok(MetricKey(bytes)),
        }
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

/// Key tag: the key is [`MetricKey::from_id`] of the `u64` that follows.
const KEY_ID: u8 = 0;
/// Key tag: the key's 25 bytes follow.
const KEY_LITERAL: u8 = 1;
/// Fields tag: the fields are [`FieldValues::from_seed`] of the last
/// key's id.
const FIELDS_SEEDED: u8 = 0;
/// Fields tag: the five 10-byte fields follow.
const FIELDS_LITERAL: u8 = 1;

/// Writes `key`, whose id is `id` (`key.to_id()`), and makes `id` the
/// writer's record context.
fn put_key(w: &mut SnapWriter, key: &MetricKey, id: Option<u64>) {
    match id {
        Some(id) => {
            w.put_u8(KEY_ID);
            w.put_u64(id);
        }
        None => {
            w.put_u8(KEY_LITERAL);
            w.put_bytes(&key.0);
        }
    }
    w.record_id = id;
}

/// A decoded key before an id is rendered.
enum Key {
    /// [`MetricKey::from_id`] of this id.
    Id(u64),
    Literal(MetricKey),
}

impl Key {
    fn render(self) -> MetricKey {
        match self {
            Key::Id(id) => MetricKey::from_id(id),
            Key::Literal(key) => key,
        }
    }
}

/// Reads one key encoding and makes its id the reader's record context.
/// The refusal keeps the encoding one-to-one: a literal key may not be
/// one an id renders.
fn get_key(r: &mut SnapReader) -> Result<Key, SnapError> {
    let key = match r.u8()? {
        KEY_ID => Key::Id(r.u64()?),
        KEY_LITERAL => {
            let key = MetricKey(r.get()?);
            if key.to_id().is_some() {
                return Err(SnapError::BadTag {
                    what: "MetricKey literal of an id's key",
                    tag: u64::from(KEY_LITERAL),
                });
            }
            Key::Literal(key)
        }
        tag => {
            return Err(SnapError::BadTag {
                what: "MetricKey",
                tag: u64::from(tag),
            })
        }
    };
    r.record_id = match key {
        Key::Id(id) => Some(id),
        Key::Literal(_) => None,
    };
    Ok(key)
}

/// Writes `fields`, which `seeded` says are `from_seed` of the writer's
/// record context.
fn put_fields(w: &mut SnapWriter, fields: &FieldValues, seeded: bool) {
    if seeded {
        w.put_u8(FIELDS_SEEDED);
    } else {
        w.put_u8(FIELDS_LITERAL);
        for field in &fields.0 {
            w.put_bytes(field);
        }
    }
}

/// Decoded fields before their seed is expanded.
#[derive(Clone, Copy)]
enum Fields {
    /// `from_seed` of this id.
    Seeded(u64),
    Literal(FieldValues),
}

/// Reads one fields encoding against the reader's record context. Both
/// refusals keep the encoding one-to-one: seeded fields need a key id
/// before them, and literal fields may not be the ones that id seeds.
fn get_fields(r: &mut SnapReader) -> Result<Fields, SnapError> {
    match r.u8()? {
        FIELDS_SEEDED => r.record_id.map(Fields::Seeded).ok_or(SnapError::BadTag {
            what: "FieldValues seeded without a key id",
            tag: u64::from(FIELDS_SEEDED),
        }),
        FIELDS_LITERAL => {
            let mut fields = [[0u8; FIELD_SIZE]; FIELD_COUNT];
            for field in &mut fields {
                field.copy_from_slice(r.bytes(FIELD_SIZE)?);
            }
            let fields = FieldValues(fields);
            if r.record_id.map(FieldValues::from_seed) == Some(fields) {
                return Err(SnapError::BadTag {
                    what: "FieldValues literal of seeded fields",
                    tag: u64::from(FIELDS_LITERAL),
                });
            }
            Ok(Fields::Literal(fields))
        }
        tag => Err(SnapError::BadTag {
            what: "FieldValues",
            tag: u64::from(tag),
        }),
    }
}

// Hand-written: a key `from_id` renders is written as its id (`snap`
// module docs, *Records*), and the id is the record context the next
// fields are read against.
impl Snap for MetricKey {
    fn snap(&self, w: &mut SnapWriter) {
        put_key(w, self, self.to_id());
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        get_key(r).map(Key::render)
    }
}

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

// Hand-written: fields the last key's id seeds are written as one tag
// (`snap` module docs, *Records*).
impl Snap for FieldValues {
    fn snap(&self, w: &mut SnapWriter) {
        let seeded = w
            .record_id
            .is_some_and(|id| *self == FieldValues::from_seed(id));
        put_fields(w, self, seeded);
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match get_fields(r)? {
            Fields::Seeded(id) => FieldValues::from_seed(id),
            Fields::Literal(fields) => fields,
        })
    }
}

/// Writes `records` as `w.put(key); w.put(fields)` of each in turn would,
/// byte for byte, but tests four records' fields against their seeds at a
/// time ([`FieldValues::from_seeds`]): the encode path of the containers
/// that hold a store's bulk — SSTable runs and the hash store. The caller
/// writes any length prefix.
pub fn snap_records<'a>(
    w: &mut SnapWriter,
    records: impl IntoIterator<Item = (&'a MetricKey, &'a FieldValues)>,
) {
    let mut records = records.into_iter().fuse();
    loop {
        let lanes: [_; 4] = std::array::from_fn(|_| records.next());
        let [Some(a), Some(b), Some(c), Some(d)] = lanes else {
            for (key, fields) in lanes.into_iter().flatten() {
                w.put(key);
                w.put(fields);
            }
            return;
        };
        let batch = [a, b, c, d];
        let ids = batch.map(|(key, _)| key.to_id());
        let seeds = FieldValues::from_seeds(ids.map(|id| id.unwrap_or(0)));
        for (((key, fields), id), seeded) in batch.into_iter().zip(ids).zip(seeds) {
            put_key(w, key, id);
            put_fields(w, fields, id.is_some() && *fields == seeded);
        }
    }
}

/// Reads `len` records written by [`snap_records`] — or by one `put` of
/// each key and fields — and hands each to `push`, expanding four
/// records' seeded fields at a time.
pub fn restore_records(
    r: &mut SnapReader,
    len: usize,
    mut push: impl FnMut(MetricKey, FieldValues),
) -> Result<(), SnapError> {
    for _ in 0..len / 4 {
        let mut keys = [MetricKey::MIN; 4];
        let mut fields = [Fields::Seeded(0); 4];
        for (key, fields) in keys.iter_mut().zip(&mut fields) {
            *key = r.get()?;
            *fields = get_fields(r)?;
        }
        let seeds = fields.map(|fields| match fields {
            Fields::Seeded(id) => id,
            Fields::Literal(_) => 0,
        });
        let seeded = FieldValues::from_seeds(seeds);
        for ((key, fields), seeded) in keys.into_iter().zip(fields).zip(seeded) {
            match fields {
                Fields::Seeded(_) => push(key, seeded),
                Fields::Literal(fields) => push(key, fields),
            }
        }
    }
    for _ in 0..len % 4 {
        push(r.get()?, r.get()?);
    }
    Ok(())
}

/// A record as the record codec spells it: [`Record::from_id`] of an id,
/// held as the id, or any other key and fields. What a table that keeps
/// generated records as their ids stores, writes and reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Row {
    /// [`Record::from_id`] of this id.
    Generated(u64),
    /// Any other record.
    Literal(MetricKey, FieldValues),
}

impl Row {
    /// The row of `key` and `fields`: generated when `key` is an id's and
    /// `fields` that id's seed's, told apart with one `from_seed`.
    pub fn new(key: MetricKey, fields: FieldValues) -> Row {
        match key.to_id() {
            Some(id) if fields == FieldValues::from_seed(id) => Row::Generated(id),
            _ => Row::Literal(key, fields),
        }
    }

    /// The row's key.
    pub fn key(&self) -> MetricKey {
        match self {
            Row::Generated(id) => MetricKey::from_id(*id),
            Row::Literal(key, _) => *key,
        }
    }

    /// The row's record, generated fields expanded.
    pub fn record(&self) -> Record {
        match self {
            Row::Generated(id) => Record::from_id(*id),
            Row::Literal(key, fields) => Record {
                key: *key,
                fields: *fields,
            },
        }
    }
}

/// Writes `row` as `w.put(key); w.put(fields)` of its record would, byte
/// for byte: a generated row straight from its id, with no `to_id` parse
/// and no `from_seed`.
pub fn snap_row(w: &mut SnapWriter, row: &Row) {
    match row {
        Row::Generated(id) => {
            w.put_u8(KEY_ID);
            w.put_u64(*id);
            w.record_id = Some(*id);
            w.put_u8(FIELDS_SEEDED);
        }
        Row::Literal(key, fields) => {
            w.put(key);
            w.put(fields);
        }
    }
}

/// Reads `len` records written by [`snap_row`], [`snap_records`] or one
/// `put` of each key and fields, and hands each to `push` as the [`Row`]
/// it was written as: a record whose fields were written seeded comes back
/// as its id, unexpanded. Refuses what [`restore_records`] refuses.
pub fn restore_rows(
    r: &mut SnapReader,
    len: usize,
    mut push: impl FnMut(Row) -> Result<(), SnapError>,
) -> Result<(), SnapError> {
    for _ in 0..len {
        let key = get_key(r)?;
        // Seeded fields are seeded by the key just read: a literal key
        // leaves no id for them, and `get_fields` refuses that.
        push(match get_fields(r)? {
            Fields::Seeded(id) => Row::Generated(id),
            Fields::Literal(fields) => Row::Literal(key.render(), fields),
        })?;
    }
    Ok(())
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

    /// `to_id` as it was first written: a checked parse of all 24 digits.
    fn to_id_reference(key: &MetricKey) -> Option<u64> {
        if key.0[0] != b'm' {
            return None;
        }
        let mut v: u64 = 0;
        for &b in &key.0[1..] {
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u64,
                b'a'..=b'z' => (b - b'a') as u64 + 10,
                _ => return None,
            };
            v = v.checked_mul(36)?.checked_add(d)?;
        }
        Some(v)
    }

    #[test]
    fn to_id_matches_the_checked_parse_on_foreign_keys() {
        // Every id key of the sweep with each position overwritten by
        // bytes on and off the alphabet (including the one past '9' and
        // the one before 'a', and bytes with the top bit set), then
        // random byte strings and the two sentinels.
        let swaps = [
            b'0', b'1', b'9', b':', b'`', b'a', b'm', b'z', b'{', b'A', 0x80, 0xFF,
        ];
        let mut keys = vec![MetricKey::MIN, MetricKey::MAX];
        for id in sweep_ids(64) {
            let key = MetricKey::from_id(id);
            for pos in 0..KEY_SIZE {
                for &b in &swaps {
                    let mut near = key;
                    near.0[pos] = b;
                    keys.push(near);
                }
            }
        }
        let mut rng = crate::keyspace::SplitRng::new(36);
        for _ in 0..4_096 {
            let mut key = [0u8; KEY_SIZE];
            key[..12].copy_from_slice(ID_PREFIX);
            for b in &mut key[12..] {
                *b = ALPHABET[rng.next_below(36) as usize];
            }
            keys.push(MetricKey(key));
        }
        for key in &keys {
            assert_eq!(key.to_id(), to_id_reference(key), "{key:?}");
        }
    }

    /// One record encoded through the per-element codecs.
    fn encoded(records: &[Record]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        for record in records {
            w.put(record);
        }
        w.into_bytes()
    }

    /// Records off the generator: measurement packing (an id key, other
    /// fields), the sentinels and a `from_bytes` key (literal keys), and
    /// an id key carrying another id's fields, as merge tests write them.
    fn foreign_records() -> Vec<Record> {
        let m = ApmMeasurement {
            metric: "HostA/AgentX/ServletB/AverageResponseTime".into(),
            value: 4,
            min: 1,
            max: 6,
            timestamp: 1_332_988_833,
            duration: 15,
        };
        vec![
            m.to_record(99),
            Record {
                key: MetricKey::MIN,
                fields: FieldValues::ZERO,
            },
            Record {
                key: MetricKey::MAX,
                fields: FieldValues::from_seed(99),
            },
            Record {
                key: MetricKey::from_bytes(*b"user00000000000000000042x"),
                fields: FieldValues::from_seed(42),
            },
            Record {
                key: MetricKey::from_id(7),
                fields: FieldValues::from_seed(30),
            },
        ]
    }

    #[test]
    fn a_record_encodes_by_how_it_was_generated() {
        assert_eq!(encoded(&[Record::from_id(5)]).len(), MIN_RECORD_SNAP_BYTES);
        let [measured, min, max, named, versioned] = foreign_records()[..] else {
            panic!("five foreign records");
        };
        let literal_key = 1 + KEY_SIZE;
        let literal_fields = 1 + FIELD_COUNT * FIELD_SIZE;
        assert_eq!(encoded(&[measured]).len(), 9 + literal_fields);
        assert_eq!(encoded(&[min]).len(), literal_key + literal_fields);
        assert_eq!(encoded(&[max]).len(), literal_key + literal_fields);
        assert_eq!(encoded(&[named]).len(), literal_key + literal_fields);
        assert_eq!(encoded(&[versioned]).len(), 9 + literal_fields);
        // A literal key clears the id a later field could be seeded by.
        let after = Record {
            key: MetricKey::MAX,
            fields: FieldValues::from_seed(5),
        };
        assert_eq!(
            encoded(&[Record::from_id(5), after]).len(),
            MIN_RECORD_SNAP_BYTES + literal_key + literal_fields
        );
    }

    /// A mix of id records and [`foreign_records`], `len` long.
    fn mixed_records(rng: &mut crate::keyspace::SplitRng, len: usize) -> Vec<Record> {
        let foreign = foreign_records();
        (0..len)
            .map(|_| match rng.next_below(3) {
                0 => foreign[rng.next_below(foreign.len() as u64) as usize],
                _ => Record::from_id(crate::rng::mix(rng.next_u64())),
            })
            .collect()
    }

    #[test]
    fn the_four_lane_record_codec_writes_and_reads_the_per_record_bytes() {
        let mut rng = crate::keyspace::SplitRng::new(4);
        for case in 0..400 {
            let records = mixed_records(&mut rng, case % 14);
            let want = encoded(&records);
            let mut w = SnapWriter::new();
            snap_records(&mut w, records.iter().map(|r| (&r.key, &r.fields)));
            assert_eq!(w.bytes(), &want[..], "case {case}: {records:?}");
            let mut decoded = Vec::new();
            let mut r = SnapReader::new(&want);
            restore_records(&mut r, records.len(), |key, fields| {
                decoded.push(Record { key, fields })
            })
            .expect("own bytes decode");
            r.finish().expect("every byte read");
            assert_eq!(decoded, records, "case {case}");
            let mut r = SnapReader::new(&want);
            let one_by_one: Vec<Record> = (0..records.len())
                .map(|_| r.get().expect("own bytes decode"))
                .collect();
            assert_eq!(one_by_one, records, "case {case}");
            // Row by row: a generated record as its id, both ways.
            let rows: Vec<Row> = records.iter().map(|r| Row::new(r.key, r.fields)).collect();
            let mut w = SnapWriter::new();
            for row in &rows {
                snap_row(&mut w, row);
            }
            assert_eq!(w.bytes(), &want[..], "case {case}: {rows:?}");
            let mut decoded = Vec::new();
            let mut r = SnapReader::new(&want);
            restore_rows(&mut r, rows.len(), |row| {
                decoded.push(row);
                Ok(())
            })
            .expect("own bytes decode");
            r.finish().expect("every byte read");
            assert_eq!(decoded, rows, "case {case}");
            let expanded: Vec<Record> = rows.iter().map(Row::record).collect();
            assert_eq!(expanded, records, "case {case}");
        }
    }

    #[test]
    fn hostile_record_tags_are_typed_errors() {
        let bad = |what: &'static str, tag: u8| SnapError::BadTag {
            what,
            tag: u64::from(tag),
        };
        let decode = |bytes: &[u8]| -> Result<Vec<Record>, SnapError> {
            // Through both decoders: per record, and four at a time.
            let one = SnapReader::new(bytes).get::<Record>().map(|r| vec![r]);
            let mut four = Vec::new();
            let batch = restore_records(&mut SnapReader::new(bytes), 4, |key, fields| {
                four.push(Record { key, fields })
            });
            assert_eq!(one.clone().err(), batch.err(), "{bytes:?}");
            let rows = restore_rows(&mut SnapReader::new(bytes), 1, |_| Ok(()));
            assert_eq!(one.clone().err(), rows.err(), "{bytes:?}");
            one
        };
        let seeded = |id: u64| {
            let mut b = vec![KEY_ID];
            b.extend_from_slice(&id.to_le_bytes());
            b.push(FIELDS_SEEDED);
            b
        };
        let literal_key = |key: &MetricKey| {
            let mut b = vec![KEY_LITERAL];
            b.extend_from_slice(key.as_bytes());
            b
        };
        let literal_fields = |fields: &FieldValues| {
            let mut b = vec![FIELDS_LITERAL];
            b.extend(fields.0.iter().flatten());
            b
        };
        // Seeded fields with no key id before them: none at all, then
        // after a literal key, which clears the id before it.
        let mut orphan = literal_key(&MetricKey::MAX);
        orphan.push(FIELDS_SEEDED);
        assert_eq!(
            decode(&orphan),
            Err(bad("FieldValues seeded without a key id", 0))
        );
        let mut cleared = seeded(3);
        cleared.extend(&orphan);
        let mut r = SnapReader::new(&cleared);
        assert_eq!(r.get::<Record>(), Ok(Record::from_id(3)));
        assert_eq!(
            r.get::<Record>(),
            Err(bad("FieldValues seeded without a key id", 0))
        );
        let mut first = vec![FIELDS_SEEDED];
        first.extend(seeded(3));
        assert_eq!(
            SnapReader::new(&first).get::<FieldValues>(),
            Err(bad("FieldValues seeded without a key id", 0))
        );
        // Unknown tags.
        for tag in [2u8, 7, 0xFF] {
            let mut key = seeded(3);
            key[0] = tag;
            assert_eq!(decode(&key), Err(bad("MetricKey", tag)));
            let mut fields = seeded(3);
            fields[9] = tag;
            assert_eq!(decode(&fields), Err(bad("FieldValues", tag)));
        }
        // The longer spelling of what has a short one.
        let mut spelled = literal_key(&MetricKey::from_id(3));
        spelled.extend(literal_fields(&FieldValues::ZERO));
        assert_eq!(
            decode(&spelled),
            Err(bad("MetricKey literal of an id's key", 1))
        );
        let mut spelled = seeded(3);
        spelled.pop();
        spelled.extend(literal_fields(&FieldValues::from_seed(3)));
        assert_eq!(
            decode(&spelled),
            Err(bad("FieldValues literal of seeded fields", 1))
        );
        // Truncated anywhere: an EOF, never a panic.
        let whole = encoded(&foreign_records());
        for cut in 0..whole.len() {
            let mut r = SnapReader::new(&whole[..cut]);
            let all: Result<Vec<Record>, SnapError> = (0..5).map(|_| r.get()).collect();
            assert!(
                matches!(all, Err(SnapError::UnexpectedEof { .. })),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn min_max_keys_bracket_generated_keys() {
        for id in [0u64, 42, u64::MAX] {
            let key = MetricKey::from_id(id);
            assert!(MetricKey::MIN <= key && key <= MetricKey::MAX);
        }
    }
}
