//! Deterministic fault injection, in one vocabulary: a [`FaultWindow`]
//! describes a fault over a span of simulated time, [`FaultWindow::events`]
//! expands it into its begin/end [`FaultEvent`] pairs, a [`FaultSchedule`]
//! keeps those time-sorted, [`FaultKind`]'s `Display` names each
//! transition, and [`FaultKind::apply`] turns one into kernel calls
//! ([`crate::Engine::fail_resource`] and friends).
//!
//! The schedule itself is pure data — the benchmark runner walks it and
//! hands each event to the store, which applies the kernel half here and
//! layers its recovery path on top — so the same schedule replayed
//! against the same seed yields byte-identical results.

use crate::cluster::NodeResources;
use crate::kernel::{Engine, FailMode, ResourceId};
use crate::time::{SimDuration, SimTime};
use std::fmt;

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

impl FaultKind {
    /// Applies this transition to one node's kernel resources: its CPU,
    /// disk and NIC, then `cpu_class` — store-private resources that live
    /// and die with the node's processor (Redis's event loop). Those
    /// crash, restart and fail-slow with the node; disk and network
    /// faults leave them alone. The call order is part of the result:
    /// failing a resource refuses its queued waiters, and each refusal
    /// takes the next event sequence number.
    pub fn apply(self, engine: &mut Engine, node: &NodeResources, cpu_class: &[ResourceId]) {
        let base = [node.cpu, node.disk, node.nic];
        let all = || base.into_iter().chain(cpu_class.iter().copied());
        match self {
            FaultKind::Crash => {
                let reject = FailMode::Reject {
                    latency: CRASH_ERROR_LATENCY,
                };
                for resource in all() {
                    engine.fail_resource(resource, reject);
                }
            }
            FaultKind::Restart => {
                for resource in base {
                    engine.restore_resource(resource);
                }
                for resource in base {
                    engine.set_resource_slowdown(resource, 1);
                }
                for &resource in cpu_class {
                    engine.restore_resource(resource);
                    engine.set_resource_slowdown(resource, 1);
                }
            }
            FaultKind::DiskSlow { factor } => {
                engine.set_resource_slowdown(node.disk, factor.max(1))
            }
            FaultKind::DiskRestore => engine.set_resource_slowdown(node.disk, 1),
            FaultKind::PartitionStart => engine.fail_resource(node.nic, FailMode::Stall),
            FaultKind::PartitionEnd => engine.restore_resource(node.nic),
            FaultKind::FailSlow { factor } => {
                for resource in all() {
                    engine.set_resource_slowdown(resource, factor.max(1));
                }
            }
            FaultKind::FailSlowEnd => {
                for resource in all() {
                    engine.set_resource_slowdown(resource, 1);
                }
            }
        }
    }
}

/// The stable name of a transition, as campaign reports print it:
/// `crash`, `disk-slow(x4)`, `fail-slow-end`, …
impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash => f.write_str("crash"),
            FaultKind::Restart => f.write_str("restart"),
            FaultKind::DiskSlow { factor } => write!(f, "disk-slow(x{factor})"),
            FaultKind::DiskRestore => f.write_str("disk-restore"),
            FaultKind::PartitionStart => f.write_str("partition-start"),
            FaultKind::PartitionEnd => f.write_str("partition-end"),
            FaultKind::FailSlow { factor } => write!(f, "fail-slow(x{factor})"),
            FaultKind::FailSlowEnd => f.write_str("fail-slow-end"),
        }
    }
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

/// What happens inside one fault window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowShape {
    /// One node crashes at the window start and restarts at its end.
    Crash,
    /// One node's disk degrades to `factor`× service times.
    SlowDisk {
        /// Service-time multiplier.
        factor: u32,
    },
    /// One node is network-partitioned (requests stall until the
    /// client deadline fires).
    Partition,
    /// One node fail-slows to `factor`× while still answering.
    FailSlow {
        /// Service-time multiplier.
        factor: u32,
    },
    /// Deadline storm: *every* node fail-slows to `factor`×
    /// simultaneously, surfacing as a cluster-wide burst of timeouts.
    Storm {
        /// Service-time multiplier.
        factor: u32,
    },
}

/// One fault window: a shape applied to a node (or, for storms, the
/// whole cluster) over `[start, until)`. Times are offsets from the
/// start of the measurement window, like [`FaultEvent::at`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// Target node (ignored by [`WindowShape::Storm`]).
    pub node: usize,
    /// Window start, offset from the measurement-window start.
    pub start: SimTime,
    /// Window end (restart/restore/heal), same clock.
    pub until: SimTime,
    pub shape: WindowShape,
}

impl FaultWindow {
    /// The fault events this window expands to on a `nodes`-node
    /// cluster: the shape's begin at `start` and its end at `until`, for
    /// the target node — or, for a storm, for every node in turn.
    ///
    /// # Panics
    /// Panics unless `start` precedes `until`.
    pub fn events(&self, nodes: usize) -> Vec<FaultEvent> {
        assert!(
            self.start < self.until,
            "a fault window's start must precede its end: {self:?}"
        );
        let (begin, end) = match self.shape {
            WindowShape::Crash => (FaultKind::Crash, FaultKind::Restart),
            WindowShape::SlowDisk { factor } => {
                (FaultKind::DiskSlow { factor }, FaultKind::DiskRestore)
            }
            WindowShape::Partition => (FaultKind::PartitionStart, FaultKind::PartitionEnd),
            WindowShape::FailSlow { factor } | WindowShape::Storm { factor } => {
                (FaultKind::FailSlow { factor }, FaultKind::FailSlowEnd)
            }
        };
        let targets = if matches!(self.shape, WindowShape::Storm { .. }) {
            0..nodes
        } else {
            self.node..self.node + 1
        };
        targets
            .flat_map(|node| {
                [
                    FaultEvent {
                        at: self.start,
                        node,
                        kind: begin,
                    },
                    FaultEvent {
                        at: self.until,
                        node,
                        kind: end,
                    },
                ]
            })
            .collect()
    }
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

    /// Adds one event, keeping the list time-sorted (stable for ties),
    /// and returns the index it landed at.
    pub fn push(&mut self, event: FaultEvent) -> usize {
        let pos = self.events.partition_point(|e| e.at <= event.at);
        self.events.insert(pos, event);
        pos
    }

    /// Adds every event `window` expands to on a `nodes`-node cluster.
    pub fn with_window(mut self, window: FaultWindow, nodes: usize) -> FaultSchedule {
        for event in window.events(nodes) {
            self.push(event);
        }
        self
    }

    /// A builder's window: it names one node, so only that node needs to
    /// exist.
    fn on_node(
        self,
        node: usize,
        at: SimTime,
        until: SimTime,
        shape: WindowShape,
    ) -> FaultSchedule {
        let window = FaultWindow {
            node,
            start: at,
            until,
            shape,
        };
        self.with_window(window, node + 1)
    }

    /// Node `node` crashes at `at` and restarts at `until`.
    pub fn crash(self, node: usize, at: SimTime, until: SimTime) -> FaultSchedule {
        self.on_node(node, at, until, WindowShape::Crash)
    }

    /// Node `node`'s disk runs `factor`× slower between `at` and `until`.
    pub fn slow_disk(self, node: usize, at: SimTime, until: SimTime, factor: u32) -> FaultSchedule {
        self.on_node(node, at, until, WindowShape::SlowDisk { factor })
    }

    /// Node `node` is network-partitioned between `at` and `until`.
    pub fn partition(self, node: usize, at: SimTime, until: SimTime) -> FaultSchedule {
        self.on_node(node, at, until, WindowShape::Partition)
    }

    /// Node `node` fail-slows to `factor`× between `at` and `until`.
    pub fn fail_slow(self, node: usize, at: SimTime, until: SimTime, factor: u32) -> FaultSchedule {
        self.on_node(node, at, until, WindowShape::FailSlow { factor })
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
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

    /// Every builder and every window shape expands to its documented
    /// begin/end pair, in time order; a storm pairs every node of the
    /// cluster, whichever node its window names.
    #[test]
    fn every_window_expands_to_its_documented_pair() {
        use FaultKind::*;
        let (at, until) = (secs(10), secs(20));
        let event = |at, node, kind| FaultEvent { at, node, kind };
        let window = |node, shape| {
            FaultSchedule::none().with_window(
                FaultWindow {
                    node,
                    start: at,
                    until,
                    shape,
                },
                3,
            )
        };
        let crash = vec![event(at, 2, Crash), event(until, 2, Restart)];
        let slow_disk = vec![
            event(at, 1, DiskSlow { factor: 6 }),
            event(until, 1, DiskRestore),
        ];
        let partition = vec![event(at, 3, PartitionStart), event(until, 3, PartitionEnd)];
        let fail_slow = vec![
            event(at, 0, FailSlow { factor: 8 }),
            event(until, 0, FailSlowEnd),
        ];
        let cases = [
            (FaultSchedule::none().crash(2, at, until), crash.clone()),
            (window(2, WindowShape::Crash), crash),
            (
                FaultSchedule::none().slow_disk(1, at, until, 6),
                slow_disk.clone(),
            ),
            (window(1, WindowShape::SlowDisk { factor: 6 }), slow_disk),
            (
                FaultSchedule::none().partition(3, at, until),
                partition.clone(),
            ),
            (window(3, WindowShape::Partition), partition),
            (
                FaultSchedule::none().fail_slow(0, at, until, 8),
                fail_slow.clone(),
            ),
            (window(0, WindowShape::FailSlow { factor: 8 }), fail_slow),
            (
                window(1, WindowShape::Storm { factor: 16 }),
                vec![
                    event(at, 0, FailSlow { factor: 16 }),
                    event(at, 1, FailSlow { factor: 16 }),
                    event(at, 2, FailSlow { factor: 16 }),
                    event(until, 0, FailSlowEnd),
                    event(until, 1, FailSlowEnd),
                    event(until, 2, FailSlowEnd),
                ],
            ),
        ];
        for (schedule, expected) in cases {
            assert_eq!(schedule.events(), &expected[..]);
        }
    }

    #[test]
    fn kinds_print_their_report_names() {
        use FaultKind::*;
        let names: Vec<String> = [
            Crash,
            Restart,
            DiskSlow { factor: 4 },
            DiskRestore,
            PartitionStart,
            PartitionEnd,
            FailSlow { factor: 8 },
            FailSlowEnd,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(
            names,
            [
                "crash",
                "restart",
                "disk-slow(x4)",
                "disk-restore",
                "partition-start",
                "partition-end",
                "fail-slow(x8)",
                "fail-slow-end"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "precede")]
    fn inverted_crash_window_panics() {
        let _ = FaultSchedule::none().crash(0, secs(20), secs(10));
    }
}
