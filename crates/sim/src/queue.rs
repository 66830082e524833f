//! The kernel's future-event list: a calendar (bucket) queue with a
//! sorted overflow tier.
//!
//! Closed-loop simulation timestamps cluster tightly around the current
//! virtual time — a client completes and immediately schedules its next
//! service a few hundred microseconds out. A binary heap pays `O(log n)`
//! comparisons (and a payload-slab indirection) on every push and pop for
//! a distribution where almost every event lands within a handful of
//! microsecond-scale "days". The [`CalendarQueue`] exploits that: time is
//! divided into fixed-width days (`1 << BUCKET_SHIFT` ns); a wheel of
//! `NUM_BUCKETS` sorted day-buckets covers the near future, and the
//! rare far-future event (client think times, long deadlines, fault
//! timers) parks in a `BTreeMap` overflow tier keyed by the same
//! `(time, seq)` order the heap used.
//!
//! The queue preserves the kernel's exact total order — ascending
//! `(SimTime, u64)` with the sequence number breaking time ties in
//! submission order — so every artifact, trace fingerprint, and snapshot
//! byte produced through it is identical to the binary-heap kernel's.
//! The retired heap survives as `ReferenceQueue` behind `#[cfg(test)]`,
//! and the equivalence suite drives both through seeded mixed schedules.
//!
//! # Order invariants
//!
//! - Every queued entry is `>= now`: the kernel only schedules into the
//!   future, and `cursor_day` trails the day of the last popped wheel
//!   entry, so pushes never land behind the cursor.
//! - Wheel entries live in days `[cursor_day, cursor_day + NUM_BUCKETS)`.
//!   The window is exactly `NUM_BUCKETS` days long, so two distinct live
//!   days can never collide in one bucket.
//! - The overflow tier may hold entries whose day has since entered the
//!   wheel window (the cursor advanced after they were parked), so `pop`
//!   and `peek` always compare the wheel candidate against the overflow
//!   head; `cursor_day` is only committed forward when the wheel entry
//!   actually wins. When the wheel drains, the cursor jumps to the first
//!   overflow day and every overflow entry inside the new window migrates
//!   into (empty) buckets in one sorted pass.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Width of one calendar day in nanoseconds, as a shift: `1 << 15` ns
/// ≈ 32.8 µs. Chosen so closed-loop service times (tens to hundreds of
/// microseconds) spread over a few adjacent buckets instead of piling
/// into one.
const BUCKET_SHIFT: u32 = 15;

/// Number of day-buckets in the wheel; the near-future horizon is
/// `NUM_BUCKETS << BUCKET_SHIFT` ns ≈ 33.6 ms of virtual time.
const NUM_BUCKETS: usize = 1024;

const WHEEL_DAYS: u64 = NUM_BUCKETS as u64;

/// Day index of a timestamp.
#[inline]
fn day_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_SHIFT
}

/// One day-bucket: entries sorted ascending by `(time, seq)`, with a head
/// cursor over the already-popped prefix so a pop is an index bump, not a
/// front removal.
#[derive(Debug)]
struct Bucket<T> {
    entries: Vec<(SimTime, u64, T)>,
    head: usize,
}

impl<T> Bucket<T> {
    fn new() -> Self {
        Bucket {
            entries: Vec::new(),
            head: 0,
        }
    }

    #[inline]
    fn is_drained(&self) -> bool {
        self.head == self.entries.len()
    }
}

/// Calendar queue over `(SimTime, u64, T)` entries; see the module docs
/// for the ordering invariants.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    buckets: Vec<Bucket<T>>,
    /// Day of the earliest possibly-occupied wheel bucket. Advances only
    /// when a wheel entry is popped as the global minimum.
    cursor_day: u64,
    /// Live (unpopped) entries currently in the wheel.
    wheel_len: usize,
    /// Far-future tier, keyed by the total order itself.
    overflow: BTreeMap<(SimTime, u64), T>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Bucket::new()).collect(),
            cursor_day: 0,
            wheel_len: 0,
            overflow: BTreeMap::new(),
        }
    }
}

impl<T: Copy> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue::default()
    }

    /// Total queued entries across both tiers.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    pub fn is_empty(&self) -> bool {
        self.wheel_len == 0 && self.overflow.is_empty()
    }

    /// Queues `payload` at `(at, seq)`. `seq` values must be unique (the
    /// kernel's submission counter guarantees it) and `at` must be on or
    /// after the time of the last popped entry.
    #[inline]
    pub fn push(&mut self, at: SimTime, seq: u64, payload: T) {
        let day = day_of(at);
        debug_assert!(day >= self.cursor_day, "push behind the wheel cursor");
        if day - self.cursor_day < WHEEL_DAYS {
            let bucket = &mut self.buckets[(day % WHEEL_DAYS) as usize];
            debug_assert!(
                bucket.is_drained() || day_of(bucket.entries[bucket.head].0) == day,
                "bucket day collision"
            );
            // Events are overwhelmingly scheduled in near-monotone order
            // within a day, so appending is the common case; otherwise a
            // binary search keeps the bucket sorted.
            let key = (at, seq);
            match bucket.entries.last() {
                Some(last) if (last.0, last.1) > key => {
                    let pos = bucket.entries.partition_point(|e| (e.0, e.1) < key);
                    debug_assert!(pos >= bucket.head, "insert into the popped prefix");
                    bucket.entries.insert(pos, (at, seq, payload));
                }
                _ => bucket.entries.push((at, seq, payload)),
            }
            self.wheel_len += 1;
        } else {
            self.overflow.insert((at, seq), payload);
        }
    }

    /// Day and bucket index of the first occupied wheel bucket at or
    /// after `cursor_day`. Caller guarantees `wheel_len > 0`.
    #[inline]
    fn scan_wheel(&self) -> (u64, usize) {
        let mut day = self.cursor_day;
        loop {
            let idx = (day % WHEEL_DAYS) as usize;
            if !self.buckets[idx].is_drained() {
                return (day, idx);
            }
            day += 1;
        }
    }

    /// Jumps the drained wheel to the first overflow day and migrates
    /// every overflow entry inside the new window. Caller guarantees the
    /// wheel is empty and the overflow is not.
    fn migrate_overflow(&mut self) {
        let first = self
            .overflow
            .keys()
            .next()
            .expect("migrate_overflow called with a non-empty overflow tier");
        self.cursor_day = day_of(first.0);
        while let Some(entry) = self.overflow.first_entry() {
            let (at, seq) = *entry.key();
            if day_of(at) - self.cursor_day >= WHEEL_DAYS {
                break;
            }
            let payload = entry.remove();
            // BTreeMap drains in ascending (time, seq) order, so plain
            // appends keep every target bucket sorted; a bucket receives
            // either nothing or a run of same-day entries.
            let bucket = &mut self.buckets[(day_of(at) % WHEEL_DAYS) as usize];
            debug_assert!(
                bucket.head == 0
                    && bucket
                        .entries
                        .last()
                        .is_none_or(|last| day_of(last.0) == day_of(at)),
                "migration into a non-empty foreign bucket"
            );
            bucket.entries.push((at, seq, payload));
            self.wheel_len += 1;
        }
    }

    /// Removes and returns the globally smallest `(time, seq)` entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.wheel_len == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            self.migrate_overflow();
        }
        let (day, idx) = self.scan_wheel();
        let candidate = {
            let bucket = &self.buckets[idx];
            bucket.entries[bucket.head]
        };
        // An overflow entry parked before the cursor advanced can now be
        // earlier than everything in the wheel; the cursor must NOT move
        // when the overflow head wins, or later pushes into the skipped
        // days would land behind it and never be scanned.
        if let Some((&(at, seq), _)) = self.overflow.first_key_value() {
            if (at, seq) < (candidate.0, candidate.1) {
                let ((at, seq), payload) = self
                    .overflow
                    .pop_first()
                    .expect("overflow head observed above");
                return Some((at, seq, payload));
            }
        }
        self.cursor_day = day;
        let bucket = &mut self.buckets[idx];
        bucket.head += 1;
        if bucket.is_drained() {
            bucket.entries.clear();
            bucket.head = 0;
        }
        self.wheel_len -= 1;
        Some(candidate)
    }

    /// The `(time, seq)` key of the next entry [`CalendarQueue::pop`]
    /// would return, without disturbing the cursor.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        let wheel = (self.wheel_len > 0).then(|| {
            let (_, idx) = self.scan_wheel();
            let bucket = &self.buckets[idx];
            let (at, seq, _) = bucket.entries[bucket.head];
            (at, seq)
        });
        let overflow = self.overflow.keys().next().copied();
        match (wheel, overflow) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// Every queued entry in ascending `(time, seq)` order — the
    /// snapshot codec's canonical wire order.
    pub fn sorted_entries(&self) -> Vec<(SimTime, u64, T)> {
        let mut out: Vec<(SimTime, u64, T)> = Vec::with_capacity(self.len());
        for bucket in &self.buckets {
            out.extend_from_slice(&bucket.entries[bucket.head..]);
        }
        out.extend(self.overflow.iter().map(|(&(at, seq), &p)| (at, seq, p)));
        out.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        out
    }

    /// Replaces the queue's contents from a snapshot: `entries` hold the
    /// future-event list (all at or after `now`, the restored clock),
    /// and the cursor re-anchors at `now`'s day.
    pub fn rebuild(&mut self, now: SimTime, entries: Vec<(SimTime, u64, T)>) {
        for bucket in &mut self.buckets {
            bucket.entries.clear();
            bucket.head = 0;
        }
        self.overflow.clear();
        self.wheel_len = 0;
        self.cursor_day = day_of(now);
        for (at, seq, payload) in entries {
            self.push(at, seq, payload);
        }
    }
}

/// The retired binary-heap future-event list, bug-for-bug: a
/// `BinaryHeap` of `(time, seq, payload-slot)` with an `Option`-slab
/// payload store and a free list. Kept solely as the oracle for the
/// calendar-queue equivalence suite.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct ReferenceQueue<T> {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, usize)>>,
    payloads: Vec<Option<T>>,
    free_payloads: Vec<usize>,
}

#[cfg(test)]
impl<T: Copy> ReferenceQueue<T> {
    pub fn new() -> Self {
        ReferenceQueue {
            heap: std::collections::BinaryHeap::new(),
            payloads: Vec::new(),
            free_payloads: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn push(&mut self, at: SimTime, seq: u64, payload: T) {
        let slot = if let Some(i) = self.free_payloads.pop() {
            self.payloads[i] = Some(payload);
            i
        } else {
            self.payloads.push(Some(payload));
            self.payloads.len() - 1
        };
        self.heap.push(std::cmp::Reverse((at, seq, slot)));
    }

    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let std::cmp::Reverse((at, seq, slot)) = self.heap.pop()?;
        let payload = self.payloads[slot].take().expect("payload present");
        self.free_payloads.push(slot);
        Some((at, seq, payload))
    }

    pub fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap
            .peek()
            .map(|std::cmp::Reverse((at, seq, _))| (*at, *seq))
    }

    pub fn sorted_entries(&self) -> Vec<(SimTime, u64, T)> {
        let mut out: Vec<(SimTime, u64, T)> = self
            .heap
            .iter()
            .map(|std::cmp::Reverse((at, seq, slot))| {
                (
                    *at,
                    *seq,
                    self.payloads[*slot].expect("live heap entry has a payload"),
                )
            })
            .collect();
        out.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        out
    }

    pub fn rebuild(&mut self, _now: SimTime, entries: Vec<(SimTime, u64, T)>) {
        self.heap.clear();
        self.payloads.clear();
        self.free_payloads.clear();
        for (at, seq, payload) in entries {
            self.push(at, seq, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Deterministic xorshift for schedule generation — no ambient
    /// randomness in sim tests.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(t(500), 0, 'a');
        q.push(t(100), 1, 'b');
        q.push(t(500), 2, 'c');
        q.push(t(100), 3, 'd');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!['b', 'd', 'a', 'c']);
    }

    #[test]
    fn far_future_entries_round_trip_through_the_overflow_tier() {
        let mut q = CalendarQueue::new();
        let far = t((NUM_BUCKETS as u64 + 7) << BUCKET_SHIFT);
        q.push(far, 0, 'z');
        assert_eq!(q.len(), 1);
        q.push(t(10), 1, 'a');
        assert_eq!(q.pop(), Some((t(10), 1, 'a')));
        assert_eq!(q.pop(), Some((far, 0, 'z')));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_entry_overtaken_by_the_cursor_still_pops_in_order() {
        // Park an entry beyond the horizon, advance the cursor until the
        // parked day is inside the window, then add a wheel entry in the
        // same day but later in time: the overflow head must win and the
        // cursor must not advance past days that can still receive work.
        let mut q = CalendarQueue::new();
        let day = NUM_BUCKETS as u64 + 100;
        let parked = t(day << BUCKET_SHIFT);
        q.push(parked, 0, 'o');
        // Advance the cursor to day 200 by popping a wheel entry there.
        q.push(t(200 << BUCKET_SHIFT), 1, 'x');
        assert_eq!(q.pop(), Some((t(200 << BUCKET_SHIFT), 1, 'x')));
        // `day` is now within [200, 200 + 1024): a push lands in the wheel.
        q.push(t((day << BUCKET_SHIFT) + 50), 2, 'w');
        assert_eq!(q.pop(), Some((parked, 0, 'o')), "overflow head is older");
        // Work can still be pushed into days before `day`.
        q.push(t((day << BUCKET_SHIFT) + 10), 3, 'y');
        assert_eq!(q.pop(), Some((t((day << BUCKET_SHIFT) + 10), 3, 'y')));
        assert_eq!(q.pop(), Some((t((day << BUCKET_SHIFT) + 50), 2, 'w')));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_matches_pop_and_does_not_disturb_order() {
        let mut q = CalendarQueue::new();
        let mut rng = Rng(42);
        for seq in 0..500u64 {
            let at = t(rng.next() % 50_000_000);
            q.push(at, seq, seq);
        }
        while let Some(head) = q.peek() {
            let (at, seq, _) = q.pop().expect("peek saw an entry");
            assert_eq!(head, (at, seq));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_pushes_and_pops_match_the_reference_queue() {
        let mut cal = CalendarQueue::new();
        let mut reference = ReferenceQueue::new();
        let mut rng = Rng(7);
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..5_000 {
            match rng.next() % 5 {
                // Bias toward pushes; delays span sub-day to far-overflow.
                0..=2 => {
                    let delta = match rng.next() % 4 {
                        0 => rng.next() % 1_000,
                        1 => rng.next() % 500_000,
                        2 => rng.next() % 40_000_000,
                        _ => rng.next() % 10_000_000_000,
                    };
                    let at = t(now + delta);
                    cal.push(at, seq, seq);
                    reference.push(at, seq, seq);
                    seq += 1;
                }
                _ => {
                    let got = cal.pop();
                    assert_eq!(got, reference.pop());
                    if let Some((at, _, _)) = got {
                        now = at.as_nanos();
                    }
                }
            }
            assert_eq!(cal.len(), reference.len());
        }
        loop {
            let got = cal.pop();
            assert_eq!(got, reference.pop());
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn sorted_entries_and_rebuild_round_trip() {
        let mut q = CalendarQueue::new();
        let mut rng = Rng(11);
        for seq in 0..300u64 {
            q.push(t(rng.next() % 100_000_000), seq, seq);
        }
        // Pop a prefix so buckets carry head cursors.
        let mut popped = 0;
        let mut now = t(0);
        while popped < 120 {
            now = q.pop().expect("entries remain").0;
            popped += 1;
        }
        let entries = q.sorted_entries();
        assert_eq!(entries.len(), q.len());
        assert!(entries
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let mut rebuilt = CalendarQueue::new();
        rebuilt.rebuild(now, entries.clone());
        assert_eq!(rebuilt.sorted_entries(), entries);
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| rebuilt.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn same_bucket_out_of_order_insert_stays_sorted() {
        let mut q = CalendarQueue::new();
        q.push(t(900), 0, 'c');
        q.push(t(100), 1, 'a');
        q.push(t(500), 2, 'b');
        q.push(t(900), 3, 'd');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }
}
