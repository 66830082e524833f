//! Span tracing for the event kernel (`trace` feature).
//!
//! When the crate is built with `--features trace`, [`crate::Engine`]
//! records every per-op lifecycle transition — submit, enqueue,
//! service-start, service-end, completion, and resource fault
//! transitions — as a [`TraceEvent`] stamped with the *virtual* clock.
//! Events carry the op [`Token`] and the [`ResourceId`] they touched, so
//! the steps of a multi-resource plan (client CPU → NIC → server → back)
//! can be reassembled into nested spans by an exporter (see the Chrome
//! trace-event writer in the harness).
//!
//! Two properties the feature guarantees:
//!
//! * **Bounded memory** — events land in a pre-allocated ring buffer
//!   ([`Tracer::with_capacity`]); when it fills, the oldest events are
//!   overwritten and counted in [`Tracer::dropped`]. No allocation
//!   happens per event (a ring restored from a snapshot grows to its
//!   capacity first).
//! * **Determinism** — every recorded event (including ones later
//!   evicted from the ring) is folded into a rolling
//!   [`Tracer::fingerprint`]; two runs of the same seeded workload must
//!   produce equal fingerprints. The recorder itself only ever reads the
//!   virtual clock, so enabling tracing cannot perturb the simulation.

use crate::kernel::{Outcome, ResourceId, Token};
use crate::time::SimTime;
use apm_core::snap::{Snap, SnapError, SnapReader, SnapWriter};
use apm_core::snap_struct;

/// Default ring capacity: 64 Ki events ≈ 2 MiB.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Which lifecycle transition a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A top-level plan entered the kernel (span open).
    Submit,
    /// A plan step queued behind a busy or stalled resource.
    Enqueue,
    /// A resource began serving a plan step.
    ServiceStart,
    /// A resource finished serving a plan step.
    ServiceEnd,
    /// A top-level plan finished (span close) with its [`Outcome`].
    Complete(Outcome),
    /// A resource failed (crash or blackhole).
    ResourceDown,
    /// A failed resource was restored.
    ResourceRestored,
    /// A resource's service-time multiplier changed (fail-slow).
    Slowdown,
}

impl TraceEventKind {
    /// Small stable code: folded into the trace fingerprint, and the
    /// kind's snapshot tag.
    fn code(self) -> u8 {
        match self {
            TraceEventKind::Submit => 1,
            TraceEventKind::Enqueue => 2,
            TraceEventKind::ServiceStart => 3,
            TraceEventKind::ServiceEnd => 4,
            TraceEventKind::Complete(Outcome::Ok) => 5,
            TraceEventKind::Complete(Outcome::Failed) => 6,
            TraceEventKind::Complete(Outcome::TimedOut) => 7,
            TraceEventKind::ResourceDown => 8,
            TraceEventKind::ResourceRestored => 9,
            TraceEventKind::Slowdown => 10,
            TraceEventKind::Complete(Outcome::Cancelled) => 11,
        }
    }
}

/// One recorded lifecycle transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual timestamp of the transition.
    pub at: SimTime,
    /// Token of the plan involved; `None` for resource fault transitions.
    pub token: Option<Token>,
    /// Resource involved; `None` for submit/complete (plan-level events).
    pub resource: Option<ResourceId>,
    /// Which transition happened.
    pub kind: TraceEventKind,
}

/// Bounded ring buffer of [`TraceEvent`]s plus a whole-run fingerprint;
/// embedded in [`crate::Engine`] behind the `trace` feature.
#[derive(Clone, Debug)]
pub struct Tracer {
    /// Ring size; `buf` never grows past it.
    capacity: usize,
    /// Ring storage, pre-allocated to `capacity` by [`Tracer::with_capacity`]
    /// (a restored ring grows on push instead).
    buf: Vec<TraceEvent>,
    /// Index of the next write when the ring is full.
    head: usize,
    /// Events recorded over the whole run (kept + evicted).
    recorded: u64,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// FNV-style rolling hash over every recorded event.
    fingerprint: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// Creates a tracer whose ring holds at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Tracer {
            buf: Vec::with_capacity(capacity),
            head: 0,
            recorded: 0,
            dropped: 0,
            fingerprint: 0,
            capacity,
        }
    }

    /// Records one event: folds it into the fingerprint and stores it in
    /// the ring, overwriting the oldest event once full.
    pub(crate) fn record(&mut self, event: TraceEvent) {
        self.recorded += 1;
        self.fingerprint = self.fingerprint.wrapping_mul(0x0000_0100_0000_01b3)
            ^ event.at.as_nanos().wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ event.token.map_or(0, |t| t.0.rotate_left(17))
            ^ event
                .resource
                .map_or(0, |r| u64::from(r.0 + 1).rotate_left(41))
            ^ u64::from(event.kind.code());
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.dropped += 1;
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Events currently retained in the ring.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events recorded over the run, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted from the ring after it filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Rolling hash over every recorded event (kept *and* evicted).
    /// Equal seeds must yield equal fingerprints across runs.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Serializes the tracer — ring contents, eviction cursor, counters,
    /// and the rolling fingerprint — so a resumed run traces seamlessly.
    pub fn snap_state(&self, w: &mut SnapWriter) {
        let Tracer {
            capacity,
            buf,
            head,
            recorded,
            dropped,
            fingerprint,
        } = self;
        w.put(capacity);
        w.put(buf);
        w.put(head);
        w.put_u64(*recorded);
        w.put_u64(*dropped);
        w.put_u64(*fingerprint);
    }

    /// Rebuilds a tracer from [`Tracer::snap_state`] bytes.
    pub fn restore_state(r: &mut SnapReader) -> Result<Tracer, SnapError> {
        let capacity: usize = r.get()?;
        let buf: Vec<TraceEvent> = r.get()?;
        let head: usize = r.get()?;
        if capacity == 0 || buf.len() > capacity || (head != 0 && head >= buf.len()) {
            return Err(SnapError::BadTag {
                what: "Tracer ring",
                tag: head as u64,
            });
        }
        // `capacity` is stream input and only checked against the ring it
        // came with, so nothing is reserved for it: the ring grows on push.
        Ok(Tracer {
            buf,
            head,
            recorded: r.u64()?,
            dropped: r.u64()?,
            fingerprint: r.u64()?,
            capacity,
        })
    }
}

// Hand-written: `Complete`'s outcome is folded into the tag — the code
// the fingerprint hashes — not written as a nested enum.
impl Snap for TraceEventKind {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u8(self.code());
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        match r.u8()? {
            1 => Ok(TraceEventKind::Submit),
            2 => Ok(TraceEventKind::Enqueue),
            3 => Ok(TraceEventKind::ServiceStart),
            4 => Ok(TraceEventKind::ServiceEnd),
            5 => Ok(TraceEventKind::Complete(Outcome::Ok)),
            6 => Ok(TraceEventKind::Complete(Outcome::Failed)),
            7 => Ok(TraceEventKind::Complete(Outcome::TimedOut)),
            8 => Ok(TraceEventKind::ResourceDown),
            9 => Ok(TraceEventKind::ResourceRestored),
            10 => Ok(TraceEventKind::Slowdown),
            11 => Ok(TraceEventKind::Complete(Outcome::Cancelled)),
            tag => Err(SnapError::BadTag {
                what: "TraceEventKind",
                tag: u64::from(tag),
            }),
        }
    }
}

snap_struct! { TraceEvent { at, token, resource, kind } }

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64, token: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime(ns),
            token: Some(Token(token)),
            resource: None,
            kind,
        }
    }

    #[test]
    fn ring_keeps_newest_events_and_counts_drops() {
        let mut t = Tracer::with_capacity(3);
        for i in 0..5u64 {
            t.record(ev(i, i, TraceEventKind::Submit));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped(), 2);
        let kept: Vec<u64> = t.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest events evicted first");
    }

    #[test]
    fn fingerprint_covers_evicted_events() {
        let mut small = Tracer::with_capacity(2);
        let mut large = Tracer::with_capacity(100);
        for i in 0..10u64 {
            let e = ev(i * 7, i, TraceEventKind::Enqueue);
            small.record(e);
            large.record(e);
        }
        assert_eq!(
            small.fingerprint(),
            large.fingerprint(),
            "fingerprint must not depend on ring capacity"
        );
    }

    #[test]
    fn fingerprint_distinguishes_kind_token_resource_and_time() {
        let base = ev(10, 1, TraceEventKind::Submit);
        let variants = [
            ev(11, 1, TraceEventKind::Submit),
            ev(10, 2, TraceEventKind::Submit),
            ev(10, 1, TraceEventKind::Complete(Outcome::Ok)),
            TraceEvent {
                resource: Some(ResourceId(0)),
                ..base
            },
        ];
        let fp = |e: TraceEvent| {
            let mut t = Tracer::with_capacity(4);
            t.record(e);
            t.fingerprint()
        };
        for v in variants {
            assert_ne!(fp(base), fp(v), "{v:?} must hash differently");
        }
    }

    #[test]
    fn a_kind_decodes_from_the_code_it_is_written_as() {
        // Eleven kinds (seven plain, `Complete` of four outcomes) and
        // eleven tags: each tag decoding to a kind with that code makes
        // `restore` the inverse of `code`.
        for tag in 1..=11u8 {
            let kind: TraceEventKind = SnapReader::new(&[tag]).get().expect("a listed tag");
            assert_eq!(kind.code(), tag);
        }
        for tag in [0u8, 12] {
            let refused = SnapReader::new(&[tag]).get::<TraceEventKind>();
            assert!(matches!(refused, Err(SnapError::BadTag { .. })), "{tag}");
        }
    }

    /// Restores a tracer from a sealed-valid body holding `capacity`, a
    /// ring of `ring` events behind a length prefix of `prefix`, `head`
    /// and the three counters — past the checksum, so only the decoder
    /// stands between the stream and the allocator.
    fn restore_sealed(
        capacity: u64,
        prefix: u64,
        ring: u64,
        head: u64,
    ) -> Result<Tracer, SnapError> {
        let header = apm_core::snap::SnapshotHeader {
            scenario: "tracer".to_string(),
            config_fingerprint: 0,
            features: apm_core::snap::FEATURE_TRACE,
            checkpoint_index: 0,
            virtual_time_ns: 0,
        };
        let sealed = apm_core::snap::seal_with(&header, 0, |w| {
            w.put_u64(capacity);
            w.put_u64(prefix);
            for i in 0..ring {
                w.put(&ev(i, i, TraceEventKind::Enqueue));
            }
            w.put_u64(head);
            w.put_u64(ring);
            w.put_u64(0);
            w.put_u64(0x5EED);
        });
        let (_, body) = apm_core::snap::open(&sealed).expect("sealed-valid");
        let mut r = SnapReader::new(body);
        let tracer = Tracer::restore_state(&mut r)?;
        r.finish()?;
        Ok(tracer)
    }

    #[test]
    fn hostile_ring_header_is_ok_or_a_typed_error_never_a_panic() {
        // An empty ring claiming every event the address space could hold
        // passes the ring check; it used to be reserved for ("capacity
        // overflow"). It restores, and records.
        let mut huge = restore_sealed(u64::MAX, 0, 0, 0).expect("an empty ring fits any capacity");
        huge.record(ev(1, 1, TraceEventKind::Submit));
        assert_eq!((huge.len(), huge.recorded(), huge.dropped()), (1, 1, 0));
        assert_eq!(restore_sealed(4, 2, 2, 1).map(|t| t.len()), Ok(2));
        for (capacity, prefix, ring, head) in [(0, 0, 0, 0), (1, 2, 2, 0), (4, 2, 2, 2)] {
            let refused = restore_sealed(capacity, prefix, ring, head);
            assert!(
                matches!(
                    refused,
                    Err(SnapError::BadTag {
                        what: "Tracer ring",
                        ..
                    })
                ),
                "{refused:?}"
            );
        }
        let inflated = restore_sealed(u64::MAX, u64::MAX, 0, 0);
        assert!(
            matches!(inflated, Err(SnapError::UnexpectedEof { .. })),
            "{inflated:?}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        Tracer::with_capacity(0);
    }
}
