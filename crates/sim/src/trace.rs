//! Span tracing for the event kernel.
//!
//! Once [`crate::Engine::enable_trace`] is called, the engine records
//! every per-op lifecycle transition — submit, enqueue,
//! service-start, service-end, completion, and resource fault
//! transitions — as a [`TraceEvent`] stamped with the *virtual* clock.
//! Events carry the op [`Token`] and the [`ResourceId`] they touched, so
//! the steps of a multi-resource plan (client CPU → NIC → server → back)
//! can be reassembled into nested spans by an exporter (see the Chrome
//! trace-event writer in the harness).
//!
//! An engine without it holds no tracer: each of the kernel's record
//! sites costs it one branch (the recorder is out of line).
//!
//! The tracer is an observer attached to one engine, not part of the
//! simulation: an engine's snapshots never carry it, so a traced
//! engine's checkpoint is byte for byte an untraced one's, and restoring
//! a checkpoint leaves the engine's tracer as it was. A freshly traced
//! engine resumed from any checkpoint records from the checkpoint's
//! virtual time on; its counters and fingerprint cover that part only.
//!
//! Three properties tracing guarantees:
//!
//! * **Bounded memory** — events land in a pre-allocated ring buffer
//!   ([`Tracer::with_capacity`]); when it fills, the oldest events are
//!   overwritten and counted in [`Tracer::dropped`]. No allocation
//!   happens per event.
//! * **Determinism** — every recorded event (including ones later
//!   evicted from the ring) is folded into a rolling
//!   [`Tracer::fingerprint`]; two runs of the same seeded workload must
//!   produce equal fingerprints.
//! * **Neutrality** — the recorder only ever reads the virtual clock, so
//!   enabling tracing cannot perturb the simulation: a traced run reports
//!   what an untraced one does.

use crate::kernel::{Outcome, ResourceId, Token};
use crate::time::SimTime;

/// Default ring capacity: 64 Ki events ≈ 2 MiB. The ring an engine
/// installs.
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
    /// Small stable code, folded into the trace fingerprint.
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
/// held by a [`crate::Engine`] with tracing on.
#[derive(Clone, Debug)]
pub struct Tracer {
    /// Ring size; `buf` never grows past it.
    capacity: usize,
    /// Ring storage, pre-allocated to `capacity` by [`Tracer::with_capacity`].
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
}

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
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        Tracer::with_capacity(0);
    }
}
