//! Deterministic fault injection: a [`FaultSchedule`] lists node-level
//! fault transitions (crash/restart, disk slowdown, network partition,
//! fail-slow degradation) at fixed simulated times.
//!
//! The schedule itself is pure data — the benchmark runner walks it and
//! translates each [`FaultEvent`] into kernel resource-state changes
//! ([`crate::Engine::fail_resource`] and friends) plus a store-level
//! recovery hook, so that the same schedule replayed against the same
//! seed yields byte-identical results.

use crate::time::{SimDuration, SimTime};
use apm_core::rng::SplitMix64;

/// Client-visible latency of a connection-refused error from a crashed
/// node (TCP reset plus client error handling).
pub const CRASH_ERROR_LATENCY: SimDuration = SimDuration::from_micros(500);

/// A node-level fault transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Process crash: every resource on the node refuses requests until
    /// [`FaultKind::Restart`].
    Crash,
    /// Process restart: resources come back; stores run their recovery
    /// path (WAL replay, hinted handoff, region reassignment).
    Restart,
    /// The node's disk degrades to `factor`× service times (a failing
    /// drive, a background scrub, a noisy neighbour).
    DiskSlow {
        /// Service-time multiplier, ≥ 2 to be observable.
        factor: u32,
    },
    /// The disk recovers to full speed.
    DiskRestore,
    /// Network partition: the node's NIC blackholes traffic (requests
    /// stall; pair the run with an op deadline for client timeouts).
    PartitionStart,
    /// The partition heals; stalled traffic drains.
    PartitionEnd,
    /// Fail-slow: every resource on the node degrades to `factor`×
    /// (thermal throttling, memory pressure) while still answering.
    FailSlow {
        /// Service-time multiplier, ≥ 2 to be observable.
        factor: u32,
    },
    /// The fail-slow degradation ends.
    FailSlowEnd,
}

/// One scheduled fault transition on one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the transition happens.
    pub at: SimTime,
    /// Which cluster node (index into the store's server list).
    pub node: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// An ordered list of fault transitions, applied by the benchmark
/// runner at exact simulated times.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (no faults — the default for every experiment).
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// True when the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events sorted by time (ties keep insertion order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds one event, keeping the list time-sorted (stable for ties).
    pub fn push(&mut self, event: FaultEvent) {
        let pos = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(pos, event);
    }

    /// Node `node` crashes at `at` and restarts at `until`.
    pub fn crash(mut self, node: usize, at: SimTime, until: SimTime) -> FaultSchedule {
        assert!(at < until, "crash must precede restart");
        self.push(FaultEvent {
            at,
            node,
            kind: FaultKind::Crash,
        });
        self.push(FaultEvent {
            at: until,
            node,
            kind: FaultKind::Restart,
        });
        self
    }

    /// Node `node`'s disk runs `factor`× slower between `at` and `until`.
    pub fn slow_disk(
        mut self,
        node: usize,
        at: SimTime,
        until: SimTime,
        factor: u32,
    ) -> FaultSchedule {
        assert!(at < until, "slowdown must precede restore");
        self.push(FaultEvent {
            at,
            node,
            kind: FaultKind::DiskSlow { factor },
        });
        self.push(FaultEvent {
            at: until,
            node,
            kind: FaultKind::DiskRestore,
        });
        self
    }

    /// Node `node` is network-partitioned between `at` and `until`.
    pub fn partition(mut self, node: usize, at: SimTime, until: SimTime) -> FaultSchedule {
        assert!(at < until, "partition must precede heal");
        self.push(FaultEvent {
            at,
            node,
            kind: FaultKind::PartitionStart,
        });
        self.push(FaultEvent {
            at: until,
            node,
            kind: FaultKind::PartitionEnd,
        });
        self
    }

    /// Node `node` fail-slows to `factor`× between `at` and `until`.
    pub fn fail_slow(
        mut self,
        node: usize,
        at: SimTime,
        until: SimTime,
        factor: u32,
    ) -> FaultSchedule {
        assert!(at < until, "degradation must precede recovery");
        self.push(FaultEvent {
            at,
            node,
            kind: FaultKind::FailSlow { factor },
        });
        self.push(FaultEvent {
            at: until,
            node,
            kind: FaultKind::FailSlowEnd,
        });
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Merges another schedule into this one, keeping the combined list
    /// time-sorted (ties keep `self`'s events first, then `other`'s in
    /// order — the same stable rule as [`FaultSchedule::push`]). This is
    /// how composed scenarios are built: sample independent fault
    /// windows, then merge them into one schedule.
    pub fn merge(mut self, other: FaultSchedule) -> FaultSchedule {
        for event in other.events {
            self.push(event);
        }
        self
    }

    /// A cluster-wide "deadline storm": every one of `nodes` fail-slows
    /// to `factor`× between `at` and `until` simultaneously. Paired with
    /// a client-side op deadline, the storm surfaces as a burst of
    /// timeouts rather than a partial slowdown.
    pub fn storm(
        mut self,
        nodes: usize,
        at: SimTime,
        until: SimTime,
        factor: u32,
    ) -> FaultSchedule {
        for node in 0..nodes {
            self = self.fail_slow(node, at, until, factor);
        }
        self
    }

    /// A seeded random schedule: `count` fault windows drawn uniformly
    /// over `(start, end)` and over `nodes`, mixing crashes, disk
    /// slowdowns, partitions, and fail-slow episodes. Deterministic in
    /// `seed`.
    pub fn random(
        seed: u64,
        nodes: usize,
        start: SimTime,
        end: SimTime,
        count: u32,
    ) -> FaultSchedule {
        assert!(nodes > 0, "need at least one node");
        assert!(start < end, "empty fault window");
        let mut rng = SplitMix64::new(seed);
        let mut schedule = FaultSchedule::none();
        let span = end.as_nanos() - start.as_nanos();
        for _ in 0..count {
            let node = (rng.next_u64() % nodes as u64) as usize;
            // Window: begins in the first 3/4 of the span, lasts 1/8–1/4.
            let begin = start.as_nanos() + rng.next_u64() % (span * 3 / 4).max(1);
            let len = span / 8 + rng.next_u64() % (span / 8).max(1);
            let at = SimTime(begin);
            let until = SimTime((begin + len).min(end.as_nanos()));
            if at >= until {
                continue;
            }
            schedule = match rng.next_u64() % 4 {
                0 => schedule.crash(node, at, until),
                1 => schedule.slow_disk(node, at, until, 2 + (rng.next_u64() % 7) as u32),
                2 => schedule.partition(node, at, until),
                _ => schedule.fail_slow(node, at, until, 2 + (rng.next_u64() % 3) as u32),
            };
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    #[test]
    fn builders_keep_events_time_sorted() {
        let schedule = FaultSchedule::none()
            .crash(1, secs(10), secs(20))
            .slow_disk(0, secs(5), secs(15), 4)
            .partition(2, secs(12), secs(13));
        let times: Vec<u64> = schedule
            .events()
            .iter()
            .map(|e| e.at.as_nanos() / 1_000_000_000)
            .collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(schedule.events().len(), 6);
    }

    #[test]
    fn crash_window_has_matching_restart() {
        let schedule = FaultSchedule::none().crash(3, secs(10), secs(25));
        assert_eq!(
            schedule.events()[0],
            FaultEvent {
                at: secs(10),
                node: 3,
                kind: FaultKind::Crash
            }
        );
        assert_eq!(
            schedule.events()[1],
            FaultEvent {
                at: secs(25),
                node: 3,
                kind: FaultKind::Restart
            }
        );
    }

    #[test]
    fn random_schedules_are_deterministic_in_the_seed() {
        let a = FaultSchedule::random(42, 4, secs(5), secs(60), 6);
        let b = FaultSchedule::random(42, 4, secs(5), secs(60), 6);
        let c = FaultSchedule::random(43, 4, secs(5), secs(60), 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
        for event in a.events() {
            assert!(event.node < 4);
            assert!(event.at >= secs(5) && event.at <= secs(60));
        }
    }

    #[test]
    #[should_panic(expected = "precede")]
    fn inverted_crash_window_panics() {
        let _ = FaultSchedule::none().crash(0, secs(20), secs(10));
    }

    #[test]
    fn merge_interleaves_and_stays_sorted() {
        let a = FaultSchedule::none().crash(0, secs(10), secs(20));
        let b = FaultSchedule::none().partition(1, secs(5), secs(15));
        let merged = a.merge(b);
        assert_eq!(merged.len(), 4);
        let times: Vec<u64> = merged
            .events()
            .iter()
            .map(|e| e.at.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(times, vec![5, 10, 15, 20]);
        // Merging is order-sensitive only for exact ties; disjoint
        // windows commute.
        let a2 = FaultSchedule::none().crash(0, secs(10), secs(20));
        let b2 = FaultSchedule::none().partition(1, secs(5), secs(15));
        assert_eq!(merged, b2.merge(a2));
    }

    #[test]
    fn storm_degrades_every_node_in_lockstep() {
        let schedule = FaultSchedule::none().storm(3, secs(10), secs(12), 16);
        assert_eq!(schedule.len(), 6);
        let starts: Vec<usize> = schedule
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::FailSlow { factor: 16 })
            .map(|e| e.node)
            .collect();
        assert_eq!(starts, vec![0, 1, 2]);
        let ends = schedule
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::FailSlowEnd)
            .count();
        assert_eq!(ends, 3);
    }
}
