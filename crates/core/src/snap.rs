//! apm-snap: a versioned, dependency-free binary snapshot format.
//!
//! Long-horizon simulated runs (compaction-debt accumulation, hour-scale
//! virtual time) are deterministic but expensive to replay from `t = 0`.
//! This module defines the container every checkpoint is written into and
//! the [`Snap`] encoding trait the kernel, the storage engines, the store
//! models, and the benchmark driver implement so a run can be frozen at a
//! virtual-time boundary and resumed byte-identically.
//!
//! ## Container layout (version 8)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "APMS"
//! 4       2     format version (u16 LE)
//! 6       var   scenario id (u64 LE length + UTF-8 bytes)
//! ..      8     config fingerprint (u64 LE) — FNV-1a over the run config
//! ..      1     feature flags (bit 0 = audit; nothing else is read)
//! ..      4     checkpoint index (u32 LE)
//! ..      8     virtual time of the checkpoint in ns (u64 LE)
//! ..      8     body length (u64 LE)
//! ..      var   body (Snap-encoded sections)
//! end-8   8     checksum64 over everything before it (u64 LE)
//! ```
//!
//! [`seal_with`] is the one function that writes this layout and
//! [`open`] the one that reads it: magic, then version, then checksum,
//! then the fields — so a container of another version is refused as
//! such, whatever checksum that version used.
//!
//! ## The checksum
//!
//! [`checksum64`] reads its input as little-endian `u64` words, so it
//! moves eight bytes per step where byte-serial FNV-1a moves one, and
//! keeps four independent lanes so the multiplies overlap. With
//! `step(s, w) = ((s ^ w) * P).rotate_left(31)` and `P` odd:
//!
//! ```text
//! lanes  = [L0, L1, L2, L3]                      four fixed seeds
//! for each 32-byte stripe (words w0..w3):        lanes[i] = step(lanes[i], w_i)
//! h      = step(step(step(step(len, lanes[0]), lanes[1]), lanes[2]), lanes[3])
//! for each whole word w left (at most three):    h = step(h, w)
//! h      = step(h, the last 0..=7 bytes, zero-padded to a word)
//! sum    = avalanche(h)                          xor-shift / odd-multiply rounds
//! ```
//!
//! `step` is a bijection of its state for a fixed word and of the word
//! for a fixed state, and so are the lane fold and the avalanche. Two
//! inputs of one length that differ in a single word therefore *always*
//! differ in their sums — the guarantee FNV-1a gives for a single byte,
//! kept at word width. Anything wider is caught with probability
//! 1 − 2⁻⁶⁴. The length seeds the fold, which tells apart inputs that
//! differ only in trailing zero bytes.
//!
//! All integers are little-endian. Floats are encoded via
//! [`f64::to_bits`], so round-trips are bit-exact. Collections are
//! length-prefixed (`u64` count, refused on decode unless the bytes left
//! could hold that many elements); map/set entries are written in the
//! container's own iteration order (`BTreeMap`/`BTreeSet` — i.e. sorted),
//! never in hash order, so identical logical state always serializes to
//! identical bytes.
//!
//! The encoding is deliberately schema-free: readers must consume fields
//! in exactly the order writers produced them.
//! [`snap_struct!`](crate::snap_struct) and
//! [`snap_enum!`](crate::snap_enum) make that true by construction — both
//! halves of a codec come from one field list — and are how a type gets
//! its [`Snap`] impl unless its codec validates, skips construction-time
//! config, writes bytes in bulk or gates a section on a feature bit; those
//! are written by hand and say why where they stand. Cross-version
//! migration is out of scope — a [`SnapError::VersionMismatch`] tells the
//! caller to regenerate the checkpoint, which a deterministic run can
//! always do.
//!
//! ## Records
//!
//! A benchmark record is generated, not collected: its key is
//! [`MetricKey::from_id`](crate::record::MetricKey::from_id) of an id and
//! its fields [`FieldValues::from_seed`](crate::record::FieldValues::from_seed)
//! of the same id. So a key `from_id` renders is written as tag `0` and
//! its `u64` id, any other key as tag `1` and its 25 bytes; fields equal
//! to `from_seed` of the last key's id as the one tag `0`, any others as
//! tag `1` and their 50 bytes. The writer and the reader each keep the id
//! of the last key they handled (none after a literal key), and only key
//! codecs change it — decode order being encode order, both sides hold the
//! same id at every field, in every container, with no per-container code.
//! A generated record costs 10 bytes instead of 75.
//!
//! ```text
//! key     tag 0 | id (u64 LE)          a key MetricKey::from_id renders
//!         tag 1 | 25 bytes             any other key
//! fields  tag 0                        FieldValues::from_seed(last key's id)
//!         tag 1 | 5 x 10 bytes         any other fields
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// First four bytes of every snapshot file.
pub const MAGIC: [u8; 4] = *b"APMS";
/// Current container format version. Version 2 dropped the driver-mode
/// byte and the policy-free slot layout from the driver section (one
/// closed-loop driver, one slot codec); version 3 changed the trailing
/// checksum from [`fnv1a64`] to [`checksum64`] and nothing else; version 4
/// writes a generated record as its id (module docs, *Records*); version 5
/// holds each fact of a run once — no second feature byte in the kernel
/// section, no auditor evidence or copied counters, no value the run
/// config fixes — and leaves the envelope as it was; version 6 does the
/// same for the storage engines — a sorted run holds its records and not
/// its bloom filter, which restore rebuilds, a memtable its entries and
/// not their byte count, an LSM tree or buffer pool no statistics, a
/// store no ledger of jobs nothing reads; version 7 leaves out topology,
/// which construction rebuilds, and a Redis shard's memory total; version
/// 8 leaves out the LSM stores' job ledgers and every store's job counter,
/// since a background plan's token names the job it completes. Older
/// checkpoints are refused rather than misread.
pub const VERSION: u16 = 8;

/// Feature-flag bit for the auditor sections. Every engine writes them
/// and sets this bit; it once meant "built with the `audit` feature", so a
/// checkpoint from a build without that feature has it clear.
pub const FEATURE_AUDIT: u8 = 1 << 0;

/// Refuses a feature byte no engine writes: every byte but
/// [`FEATURE_AUDIT`]. A checkpoint whose byte lacks it predates the
/// always-on auditors, so its store sections lack their state; one with
/// another bit set (an older build's span-tracer bit, say) carries a
/// section this build does not read.
pub fn check_features(stored: u8) -> Result<(), SnapError> {
    if stored == FEATURE_AUDIT {
        Ok(())
    } else {
        Err(SnapError::FeatureMismatch {
            stored,
            active: FEATURE_AUDIT,
        })
    }
}

/// FNV-1a 64-bit hash — the fingerprint primitive for configs, results
/// and pins (same family the kernel auditor uses for its rolling
/// fingerprint). Byte-serial, so right for kilobytes; checkpoint-sized
/// input goes through [`checksum64`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The container's trailing checksum and the hash bisection compares
/// checkpoint bodies by: four multiply lanes over 32-byte stripes of
/// little-endian words, length and byte tail folded in (definition and
/// guarantee in the module docs). Not a fingerprint anything persists —
/// those stay [`fnv1a64`].
pub fn checksum64(bytes: &[u8]) -> u64 {
    // Odd multipliers (the xxHash64 primes): the lane step, then the two
    // avalanche rounds. Lane seeds are xxHash64's for seed 0.
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const LANES: [u64; 4] = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    #[inline]
    fn step(state: u64, word: u64) -> u64 {
        (state ^ word).wrapping_mul(P1).rotate_left(31)
    }
    #[inline]
    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }

    let mut lanes = LANES;
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    let mut h = lanes.into_iter().fold(bytes.len() as u64, step);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = step(h, word(w));
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    h = step(h, u64::from_le_bytes(last));
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Everything that can go wrong opening or decoding a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The reader ran out of bytes mid-field.
    UnexpectedEof {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes left in the buffer.
        remaining: usize,
    },
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The container was written by a different format version.
    VersionMismatch {
        /// Version stored in the container.
        found: u16,
        /// Version this build understands.
        expected: u16,
    },
    /// An enum discriminant had no decoding.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// The trailing [`checksum64`] does not match the contents.
    ChecksumMismatch {
        /// Checksum stored in the container.
        stored: u64,
        /// Checksum recomputed from the bytes.
        computed: u64,
    },
    /// A section decoder finished with bytes left over.
    TrailingBytes {
        /// Unconsumed byte count.
        remaining: usize,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A feature byte, in a header or in the kernel section, is one this
    /// build cannot read (see [`check_features`]) — a checkpoint from an
    /// older build without the `audit` feature or with a traced engine,
    /// say.
    FeatureMismatch {
        /// Flags stored in the container (or its header).
        stored: u8,
        /// Flags this build would write in their place.
        active: u8,
    },
    /// The snapshot belongs to a different run configuration.
    ConfigMismatch {
        /// Fingerprint stored in the container.
        stored: u64,
        /// Fingerprint of the config being resumed.
        active: u64,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { wanted, remaining } => {
                write!(f, "unexpected EOF: wanted {wanted} bytes, {remaining} left")
            }
            SnapError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            SnapError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
            SnapError::BadUtf8 => write!(f, "invalid UTF-8 in snapshot string"),
            SnapError::FeatureMismatch { stored, active } => write!(
                f,
                "snapshot features {stored:#04x} differ from build features {active:#04x}"
            ),
            SnapError::ConfigMismatch { stored, active } => write!(
                f,
                "snapshot config fingerprint {stored:#018x} differs from run config {active:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only byte sink for snapshot encoding.
#[derive(Clone, Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
    /// Id of the last [`MetricKey`](crate::record::MetricKey) written,
    /// `None` before the first or after a key that is not an id's: the
    /// context the record codecs share (module docs, *Records*).
    pub(crate) record_id: Option<u64>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` bit-exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes any [`Snap`] value.
    pub fn put<T: Snap>(&mut self, v: &T) {
        v.snap(self);
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Cursor over snapshot bytes for decoding.
#[derive(Clone, Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Id of the last [`MetricKey`](crate::record::MetricKey) read — the
    /// writer's `record_id`, rebuilt in the same order.
    pub(crate) record_id: Option<u64>,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader {
            buf,
            pos: 0,
            record_id: None,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("len 16"),
        ))
    }

    /// Reads an `f64` bit-exactly.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Reads a length-prefixed string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let len = self.u64()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapError::BadUtf8)
    }

    /// Reads a `u64` element count a decoder is about to allocate for,
    /// and refuses it unless the bytes left can hold that many elements
    /// of at least `min_elem_bytes` each — a length prefix is outside
    /// input, and the allocation it asks for must be bounded by the
    /// input's own size.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let count = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        let wanted = count.saturating_mul(min_elem_bytes);
        if wanted > self.remaining() {
            return Err(SnapError::UnexpectedEof {
                wanted,
                remaining: self.remaining(),
            });
        }
        Ok(count)
    }

    /// Reads any [`Snap`] value.
    pub fn get<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::restore(self)
    }

    /// Succeeds only when every byte was consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

/// Bit-exact binary encoding into a [`SnapWriter`] / out of a
/// [`SnapReader`]. Implementations must encode deterministically:
/// identical logical state ⇒ identical bytes.
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Decodes one value from `r`.
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError>;
}

macro_rules! snap_int {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Snap for $ty {
            fn snap(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
                r.$get()
            }
        }
    };
}

snap_int!(u8, put_u8, u8);
snap_int!(u16, put_u16, u16);
snap_int!(u32, put_u32, u32);
snap_int!(u64, put_u64, u64);
snap_int!(u128, put_u128, u128);
snap_int!(f64, put_f64, f64);

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(r.u64()? as usize)
    }
}

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(u8::from(*self));
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(SnapError::BadTag {
                what: "bool",
                tag: u64::from(tag),
            }),
        }
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        r.str()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.snap(w);
            }
        }
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            tag => Err(SnapError::BadTag {
                what: "Option",
                tag: u64::from(tag),
            }),
        }
    }
}

/// Decodes a length-prefixed run of `T`s into the collection `new`
/// starts, the one place the four collection decoders read their prefix.
/// The prefix is outside input: [`SnapReader::count`] refuses one the
/// bytes left cannot hold (no `Snap` element encodes to less than one
/// byte), and `new` is asked to reserve no more memory than there are
/// bytes left. What `push` returns (a set's `bool`, a map's displaced
/// value) is dropped.
fn restore_seq<T: Snap, C, R>(
    r: &mut SnapReader,
    new: impl FnOnce(usize) -> C,
    mut push: impl FnMut(&mut C, T) -> R,
) -> Result<C, SnapError> {
    let len = r.count(1)?;
    let mut out = new(len.min(r.remaining() / std::mem::size_of::<T>().max(1)));
    for _ in 0..len {
        push(&mut out, T::restore(r)?);
    }
    Ok(out)
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        restore_seq(r, Vec::with_capacity, Vec::push)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        restore_seq(r, VecDeque::with_capacity, VecDeque::push_back)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        restore_seq(r, |_| BTreeMap::new(), |map, (k, v)| map.insert(k, v))
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        restore_seq(r, |_| BTreeSet::new(), BTreeSet::insert)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?))
    }
}

impl<const N: usize> Snap for [u8; N] {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_bytes(self);
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(r.bytes(N)?.try_into().expect("exact length"))
    }
}

/// Implements [`Snap`] for structs from their field lists, each written
/// once: `snap` puts the fields in the order listed and `restore` is the
/// struct literal over the same list, so decode order is encode order and
/// a field left out does not compile. Tuple structs list their indices.
/// One invocation takes a module's whole table, a type a line. For the
/// codecs that are "every field, nothing checked"; one that validates,
/// skips a field or writes bytes in bulk is written by hand.
///
/// ```
/// use apm_core::snap::{SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Span {
///     start: u64,
///     len: u32,
/// }
/// #[derive(Debug, PartialEq)]
/// struct Id(u64);
/// apm_core::snap_struct! {
///     Span { start, len }
///     Id { 0 }
/// }
///
/// let mut w = SnapWriter::new();
/// w.put(&(Span { start: 7, len: 2 }, Id(9)));
/// assert_eq!(w.bytes(), [7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]);
/// let back = SnapReader::new(w.bytes()).get::<(Span, Id)>();
/// assert_eq!(back, Ok((Span { start: 7, len: 2 }, Id(9))));
/// ```
///
/// A field missing from the list is a missing field of the literal:
///
/// ```compile_fail,E0063
/// struct Span {
///     start: u64,
///     len: u32,
/// }
/// apm_core::snap_struct! { Span { start } }
/// ```
#[macro_export]
macro_rules! snap_struct {
    ($($ty:ident { $($field:tt),* $(,)? })+) => {$(
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                $(w.put(&self.$field);)*
            }
            fn restore(
                r: &mut $crate::snap::SnapReader,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok($ty { $($field: r.get()?),* })
            }
        }
    )+};
}

/// Implements [`Snap`] for an enum from one `tag => Variant` list: a
/// `u8` tag, then the variant's fields in the order listed. `snap` is an
/// exhaustive `match`, so a variant left out does not compile; a tag not
/// in the list decodes to [`SnapError::BadTag`] naming the type.
///
/// ```
/// use apm_core::snap::{SnapError, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Point,
///     Circle(u32),
///     Rect { w: u32, h: u32 },
/// }
/// apm_core::snap_enum!(Shape { 0 => Point, 1 => Circle(r), 4 => Rect { w, h } });
///
/// let mut w = SnapWriter::new();
/// w.put(&Shape::Rect { w: 3, h: 4 });
/// assert_eq!(w.bytes(), [4, 3, 0, 0, 0, 4, 0, 0, 0]);
/// assert_eq!(
///     SnapReader::new(&[2]).get::<Shape>(),
///     Err(SnapError::BadTag { what: "Shape", tag: 2 })
/// );
/// ```
///
/// A variant missing from the list is a non-exhaustive `match`:
///
/// ```compile_fail,E0004
/// enum Shape {
///     Point,
///     Circle(u32),
/// }
/// apm_core::snap_enum!(Shape { 0 => Point });
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident $(( $($elem:ident),* ))? $({ $($field:ident),* })?
    ),* $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self {$(
                    $ty::$variant $(( $($elem),* ))? $({ $($field),* })? => {
                        w.put_u8($tag);
                        $($(w.put($elem);)*)?
                        $($(w.put($field);)*)?
                    }
                )*}
            }
            fn restore(
                r: &mut $crate::snap::SnapReader,
            ) -> Result<Self, $crate::snap::SnapError> {
                match r.u8()? {
                    $($tag => {
                        $($(let $elem = r.get()?;)*)?
                        $($(let $field = r.get()?;)*)?
                        Ok($ty::$variant $(( $($elem),* ))? $({ $($field),* })?)
                    })*
                    tag => Err($crate::snap::SnapError::BadTag {
                        what: stringify!($ty),
                        tag: u64::from(tag),
                    }),
                }
            }
        }
    };
}

/// Identifying metadata sealed into every snapshot container.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Scenario/run identifier (free-form; the harness uses scenario ids).
    pub scenario: String,
    /// FNV-1a fingerprint of the run configuration, so a snapshot cannot
    /// be resumed against a different config.
    pub config_fingerprint: u64,
    /// Feature byte of the writing engine: [`FEATURE_AUDIT`], the one
    /// [`check_features`] accepts.
    pub features: u8,
    /// Zero-based index of this checkpoint within its run.
    pub checkpoint_index: u32,
    /// Virtual time at which the checkpoint was taken, in nanoseconds.
    pub virtual_time_ns: u64,
}

/// Bytes a container adds around its scenario string and its body.
const ENVELOPE_BYTES: usize = MAGIC.len() + 2 + 8 + 8 + 1 + 4 + 8 + 8 + 8;

/// Seals whatever `write_body` appends into a versioned, checksummed
/// container, in one buffer: the header goes in first, the body is
/// written straight behind it, the body-length slot is patched once the
/// body's length is known and the checksum appended. `body_hint` sizes
/// the buffer (a guess; a low one only costs the `Vec`'s usual growth).
///
/// The writer handed to `write_body` already holds the header, so its
/// `len()` and `bytes()` count from the start of the container.
pub fn seal_with(
    header: &SnapshotHeader,
    body_hint: usize,
    write_body: impl FnOnce(&mut SnapWriter),
) -> Vec<u8> {
    let mut w = SnapWriter {
        buf: Vec::with_capacity(ENVELOPE_BYTES + header.scenario.len() + body_hint),
        record_id: None,
    };
    w.put_bytes(&MAGIC);
    w.put_u16(VERSION);
    w.put_str(&header.scenario);
    w.put_u64(header.config_fingerprint);
    w.put_u8(header.features);
    w.put_u32(header.checkpoint_index);
    w.put_u64(header.virtual_time_ns);
    w.put_u64(0);
    let body_at = w.len();
    write_body(&mut w);
    let body_len = (w.len() - body_at) as u64;
    w.buf[body_at - 8..body_at].copy_from_slice(&body_len.to_le_bytes());
    let checksum = checksum64(w.bytes());
    w.put_u64(checksum);
    w.into_bytes()
}

/// Seals `body` into a versioned, checksummed container.
pub fn seal(header: &SnapshotHeader, body: &[u8]) -> Vec<u8> {
    seal_with(header, body.len(), |w| w.put_bytes(body))
}

/// Opens a sealed container: verifies magic, version and checksum — in
/// that order, so another version's container is refused by its version,
/// not by a checksum this build computes differently — then returns the
/// header and the body bytes.
pub fn open(bytes: &[u8]) -> Result<(SnapshotHeader, &[u8]), SnapError> {
    if bytes.len() < MAGIC.len() + 2 + 8 {
        return Err(SnapError::UnexpectedEof {
            wanted: MAGIC.len() + 2 + 8,
            remaining: bytes.len(),
        });
    }
    let (contents, tail) = bytes.split_at(bytes.len() - 8);
    let mut r = SnapReader::new(contents);
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SnapError::VersionMismatch {
            found: version,
            expected: VERSION,
        });
    }
    let stored = u64::from_le_bytes(tail.try_into().expect("len 8"));
    let computed = checksum64(contents);
    if stored != computed {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    let scenario = r.str()?;
    let config_fingerprint = r.u64()?;
    let features = r.u8()?;
    let checkpoint_index = r.u32()?;
    let virtual_time_ns = r.u64()?;
    let body_len = r.u64()? as usize;
    let body = r.bytes(body_len)?;
    r.finish()?;
    Ok((
        SnapshotHeader {
            scenario,
            config_fingerprint,
            features,
            checkpoint_index,
            virtual_time_ns,
        },
        body,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> SnapshotHeader {
        SnapshotHeader {
            scenario: "test-scenario".to_string(),
            config_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            features: FEATURE_AUDIT,
            checkpoint_index: 3,
            virtual_time_ns: 45_000_000_000,
        }
    }

    #[test]
    fn only_the_byte_an_engine_writes_is_readable() {
        assert_eq!(check_features(FEATURE_AUDIT), Ok(()));
        // 0: a build before the always-on auditors; 1 << 1: an older
        // build's span-tracer section.
        for stored in [0, 1 << 1, FEATURE_AUDIT | 1 << 1, 1 << 7, 0xFF] {
            assert_eq!(
                check_features(stored),
                Err(SnapError::FeatureMismatch {
                    stored,
                    active: FEATURE_AUDIT
                })
            );
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put(&0xABu8);
        w.put(&0xBEEFu16);
        w.put(&0xDEAD_BEEFu32);
        w.put(&u64::MAX);
        w.put(&(u128::MAX - 1));
        w.put(&usize::MAX);
        w.put(&true);
        w.put(&false);
        w.put(&-0.0f64);
        w.put(&f64::NAN);
        w.put(&"héllo".to_string());
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<u8>().unwrap(), 0xAB);
        assert_eq!(r.get::<u16>().unwrap(), 0xBEEF);
        assert_eq!(r.get::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX);
        assert_eq!(r.get::<u128>().unwrap(), u128::MAX - 1);
        assert_eq!(r.get::<usize>().unwrap(), usize::MAX);
        assert!(r.get::<bool>().unwrap());
        assert!(!r.get::<bool>().unwrap());
        assert_eq!(r.get::<f64>().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get::<f64>().unwrap().is_nan());
        assert_eq!(r.get::<String>().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn collections_round_trip() {
        let vec = vec![1u64, 2, 3];
        let deque: VecDeque<u32> = [9u32, 8, 7].into_iter().collect();
        let map: BTreeMap<String, u64> = [("a".to_string(), 1u64), ("b".to_string(), 2)]
            .into_iter()
            .collect();
        let set: BTreeSet<u64> = [5u64, 3, 8].into_iter().collect();
        let opt_some = Some((1u64, 2u64, true));
        let opt_none: Option<u64> = None;
        let arr = [7u8; 25];
        let mut w = SnapWriter::new();
        w.put(&vec);
        w.put(&deque);
        w.put(&map);
        w.put(&set);
        w.put(&opt_some);
        w.put(&opt_none);
        w.put(&arr);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<Vec<u64>>().unwrap(), vec);
        assert_eq!(r.get::<VecDeque<u32>>().unwrap(), deque);
        assert_eq!(r.get::<BTreeMap<String, u64>>().unwrap(), map);
        assert_eq!(r.get::<BTreeSet<u64>>().unwrap(), set);
        assert_eq!(r.get::<Option<(u64, u64, bool)>>().unwrap(), opt_some);
        assert_eq!(r.get::<Option<u64>>().unwrap(), opt_none);
        assert_eq!(r.get::<[u8; 25]>().unwrap(), arr);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_input_reports_eof() {
        let mut w = SnapWriter::new();
        w.put(&12345u64);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        assert_eq!(
            r.get::<u64>(),
            Err(SnapError::UnexpectedEof {
                wanted: 8,
                remaining: 4
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapWriter::new();
        w.put(&1u8);
        w.put(&2u8);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let _ = r.get::<u8>().unwrap();
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn bad_enum_tags_are_rejected() {
        let bytes = [7u8];
        assert!(matches!(
            SnapReader::new(&bytes).get::<bool>(),
            Err(SnapError::BadTag { what: "bool", .. })
        ));
        assert!(matches!(
            SnapReader::new(&bytes).get::<Option<u8>>(),
            Err(SnapError::BadTag { what: "Option", .. })
        ));
    }

    #[test]
    fn container_seals_and_opens() {
        let body = b"section bytes".to_vec();
        let sealed = seal(&header(), &body);
        let (h, b) = open(&sealed).unwrap();
        assert_eq!(h, header());
        assert_eq!(b, &body[..]);
    }

    #[test]
    fn container_rejects_bad_magic() {
        let mut sealed = seal(&header(), b"x");
        sealed[0] = b'Z';
        assert_eq!(open(&sealed), Err(SnapError::BadMagic));
    }

    #[test]
    fn container_rejects_version_mismatch() {
        // A newer writer's container and the seven layouts this format
        // replaced. The version is read before the checksum — another
        // version's checksum is another function — so each is refused as
        // that version with its checksum stale, and again re-sealed so
        // that only the version check can fail.
        for found in [VERSION + 1, 7, 6, 5, 4, 3, 2, 1] {
            let mut sealed = seal(&header(), b"x");
            sealed[4..6].copy_from_slice(&found.to_le_bytes());
            let refusal = Err(SnapError::VersionMismatch { found, expected: 8 });
            assert_eq!(open(&sealed), refusal);
            let len = sealed.len();
            let checksum = checksum64(&sealed[..len - 8]).to_le_bytes();
            sealed[len - 8..].copy_from_slice(&checksum);
            assert_eq!(open(&sealed), refusal);
        }
    }

    #[test]
    fn container_detects_corruption() {
        let mut sealed = seal(&header(), b"section bytes");
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0x40;
        assert!(matches!(
            open(&sealed),
            Err(SnapError::ChecksumMismatch { .. })
        ));
    }

    /// Byte `i` of the checksum tests' input.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + (i >> 8)) as u8).collect()
    }

    #[test]
    fn checksum64_matches_known_answers() {
        // From an independent implementation of the module doc's
        // definition, over `pattern`: below, at and past the word and
        // stripe boundaries, and a megabyte.
        for (len, want) in [
            (0, 0xca12_b869_027a_f833),
            (1, 0x2da1_d014_1c25_aef5),
            (7, 0xbdb8_bba0_bcd7_86b9),
            (8, 0x3998_f46d_ffe6_c28e),
            (31, 0xe5a3_0dc6_f18d_a2bf),
            (32, 0x2ab2_3aac_ebc8_c50a),
            (33, 0x0074_ac12_8797_578c),
            (64, 0x2973_02b3_b8c2_40cd),
            (1 << 20, 0xabfa_50ad_e819_d806u64),
        ] {
            assert_eq!(checksum64(&pattern(len)), want, "length {len}");
        }
    }

    #[test]
    fn checksum64_catches_every_bit_flip_and_short_truncation() {
        // 4 KiB + 5: whole stripes, a whole word and a byte tail.
        let mut buf = pattern(4096 + 8 + 5);
        let sum = checksum64(&buf);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&buf), sum, "flip of bit {bit} went unseen");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        for cut in 1..=40 {
            assert_ne!(
                checksum64(&buf[..buf.len() - cut]),
                sum,
                "truncation by {cut} went unseen"
            );
        }
        // Trailing zeros are not free either.
        buf.push(0);
        assert_ne!(checksum64(&buf), sum);
    }

    #[test]
    fn checksum64_catches_any_single_word_replacement() {
        // The word-width guarantee: with everything else fixed the sum is
        // a bijection of any one word, so no replacement can collide.
        let mut buf = pattern(200);
        let sum = checksum64(&buf);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for at in (0..200).step_by(8) {
            let original = buf[at..at + 8].to_vec();
            for _ in 0..64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                buf[at..at + 8].copy_from_slice(&x.to_le_bytes());
                if buf[at..at + 8] != original[..] {
                    assert_ne!(checksum64(&buf), sum, "word at {at} replaced by {x:#x}");
                }
            }
            buf[at..at + 8].copy_from_slice(&original);
        }
    }

    #[test]
    fn seal_with_pieces_equals_seal_whatever_the_hint() {
        // One body, written whole through `seal` and in uneven `put_*`
        // pieces through `seal_with` — pre-sized exactly, not at all, and
        // to half of what it takes (so the buffer grows mid-body).
        let mut body = SnapWriter::new();
        body.put_u8(7);
        body.put_u16(0xBEEF);
        body.put_u64(u64::MAX - 1);
        body.put_str("a scenario-sized string");
        body.put_bytes(&pattern(10_000));
        body.put_u128(1 << 100);
        body.put_f64(-0.0);
        let whole = seal(&header(), body.bytes());
        assert_eq!(open(&whole).unwrap().1, body.bytes());
        for hint in [body.len(), 0, body.len() / 2] {
            let pieced = seal_with(&header(), hint, |w| {
                w.put_u8(7);
                w.put_u16(0xBEEF);
                w.put_u64(u64::MAX - 1);
                w.put_str("a scenario-sized string");
                for piece in pattern(10_000).chunks(977) {
                    w.put_bytes(piece);
                }
                w.put_u128(1 << 100);
                w.put_f64(-0.0);
            });
            assert_eq!(pieced, whole, "hint {hint}");
        }
        assert_eq!(
            whole.len(),
            ENVELOPE_BYTES + "test-scenario".len() + body.len()
        );
    }

    #[test]
    fn count_is_bounded_by_the_bytes_left() {
        let mut w = SnapWriter::new();
        w.put_u64(3);
        w.put_bytes(&[0; 30]);
        let bytes = w.into_bytes();
        assert_eq!(SnapReader::new(&bytes).count(10), Ok(3));
        assert_eq!(
            SnapReader::new(&bytes).count(11),
            Err(SnapError::UnexpectedEof {
                wanted: 33,
                remaining: 30
            })
        );
        let inflated = u64::MAX.to_le_bytes();
        assert_eq!(
            SnapReader::new(&inflated).count(75),
            Err(SnapError::UnexpectedEof {
                wanted: usize::MAX,
                remaining: 0
            })
        );
    }

    #[test]
    fn inflated_collection_prefixes_are_refused_before_anything_is_reserved() {
        // A prefix of five elements over four bytes, then one of
        // `u64::MAX`: each decoder stops right after the prefix.
        fn refuses<T: Snap + fmt::Debug>() {
            for (claimed, wanted) in [(5, 5), (u64::MAX, usize::MAX)] {
                let mut w = SnapWriter::new();
                w.put_u64(claimed);
                w.put_bytes(&[1; 4]);
                let mut r = SnapReader::new(w.bytes());
                let eof = SnapError::UnexpectedEof {
                    wanted,
                    remaining: 4,
                };
                assert_eq!(r.get::<T>().unwrap_err(), eof);
                assert_eq!(r.remaining(), 4);
            }
        }
        refuses::<Vec<u8>>();
        refuses::<VecDeque<u8>>();
        refuses::<BTreeMap<u8, u8>>();
        refuses::<BTreeSet<u8>>();
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Named {
        id: u64,
        len: usize,
        live: bool,
        tags: Vec<u16>,
    }
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Newtype(u32);
    #[derive(Clone, Debug, PartialEq)]
    enum Shapes {
        Unit,
        Tuple(Newtype, f64),
        Fields { at: u64, what: Option<Newtype> },
    }
    snap_struct! {
        Named { id, len, live, tags }
        Newtype { 0 }
    }
    snap_enum!(Shapes { 0 => Unit, 1 => Tuple(a, b), 4 => Fields { at, what } });

    #[test]
    fn macro_codecs_write_the_layout_they_replace_and_round_trip() {
        let named = Named {
            id: 7,
            len: 3,
            live: true,
            tags: vec![1, 2],
        };
        let shapes = [
            Shapes::Unit,
            Shapes::Tuple(Newtype(9), -0.0),
            Shapes::Fields {
                at: u64::MAX,
                what: Some(Newtype(5)),
            },
        ];
        let mut w = SnapWriter::new();
        w.put(&named);
        w.put(&shapes.to_vec());
        // The hand-written form: fields in list order, `usize` as `u64`,
        // a `u8` tag before a variant's fields.
        let mut by_hand = SnapWriter::new();
        by_hand.put_u64(7);
        by_hand.put_u64(3);
        by_hand.put_u8(1);
        by_hand.put_u64(2);
        by_hand.put_u16(1);
        by_hand.put_u16(2);
        by_hand.put_u64(3);
        by_hand.put_u8(0);
        by_hand.put_u8(1);
        by_hand.put_u32(9);
        by_hand.put_f64(-0.0);
        by_hand.put_u8(4);
        by_hand.put_u64(u64::MAX);
        by_hand.put_u8(1);
        by_hand.put_u32(5);
        assert_eq!(w.bytes(), by_hand.bytes());
        let mut r = SnapReader::new(w.bytes());
        assert_eq!(r.get::<Named>(), Ok(named));
        assert_eq!(r.get::<Vec<Shapes>>(), Ok(shapes.to_vec()));
        r.finish().unwrap();
    }

    #[test]
    fn macro_enums_refuse_unlisted_tags_by_type_name() {
        // 2 and 3 sit between the listed tags, 5 past them.
        for tag in [2u8, 3, 5, u8::MAX] {
            assert_eq!(
                SnapReader::new(&[tag]).get::<Shapes>(),
                Err(SnapError::BadTag {
                    what: "Shapes",
                    tag: u64::from(tag)
                })
            );
        }
        // A listed tag whose fields are cut short is an EOF, not a tag.
        assert!(matches!(
            SnapReader::new(&[1, 9, 0]).get::<Shapes>(),
            Err(SnapError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
