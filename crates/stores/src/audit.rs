//! Store-level invariant checking (`audit` feature).
//!
//! The kernel auditor (`apm_sim::audit`) checks event *mechanics* —
//! monotone time, FIFO tie-breaks, op conservation. This module is the
//! first store-*protocol* auditor the ROADMAP calls for: it rides along
//! inside a store and checks recovery invariants that span many events.
//!
//! Seeded check: **Cassandra hinted handoff drains**. While a replica is
//! down, coordinators queue its missed writes as hints; when the replica
//! rejoins, `replay_hints` must stream every queued hint back and leave
//! the queue empty. The auditor mirrors the span-tracing design of
//! `apm_sim::trace`: each hint transition is recorded as a
//! virtual-time-stamped [`HintEvent`], and the drain assertion is checked
//! against that evidence stream — queued and replayed totals must
//! balance per node, and the queue must be empty after a restore.
//!
//! Violations `panic!`, like every audit check: an undrained hint queue
//! means the recovery results are meaningless.

use crate::resilience::{breaker_transition_is_legal, BreakerState};
use apm_core::{snap_enum, snap_struct};
use apm_sim::SimTime;

/// One hint lifecycle transition, stamped with the virtual clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HintEvent {
    /// Virtual time of the transition.
    pub at: SimTime,
    /// Replica node the hint belongs to.
    pub node: usize,
    /// Which transition happened.
    pub kind: HintEventKind,
}

/// Which hint transition a [`HintEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HintEventKind {
    /// A coordinator queued one missed write for a down replica.
    Queued,
    /// A rejoining replica replayed `count` queued hints.
    Replayed {
        /// Hints streamed back in this replay.
        count: u64,
    },
}

/// Evidence stream and balance counters for hinted handoff; embedded in
/// the Cassandra store behind the `audit` feature.
#[derive(Clone, Debug, Default)]
pub struct HintAuditor {
    /// Every hint transition, in virtual-time order.
    events: Vec<HintEvent>,
    /// Hints queued per node over the run.
    queued: Vec<u64>,
    /// Hints replayed per node over the run.
    replayed: Vec<u64>,
}

impl HintAuditor {
    fn node_slot(counts: &mut Vec<u64>, node: usize) -> &mut u64 {
        if node >= counts.len() {
            counts.resize(node + 1, 0);
        }
        &mut counts[node]
    }

    /// Records one hint queued for a down `node`.
    pub fn on_queued(&mut self, at: SimTime, node: usize) {
        *Self::node_slot(&mut self.queued, node) += 1;
        self.events.push(HintEvent {
            at,
            node,
            kind: HintEventKind::Queued,
        });
    }

    /// Records a rejoining `node` replaying `count` hints.
    pub fn on_replayed(&mut self, at: SimTime, node: usize, count: u64) {
        *Self::node_slot(&mut self.replayed, node) += count;
        self.events.push(HintEvent {
            at,
            node,
            kind: HintEventKind::Replayed { count },
        });
    }

    /// Asserts the hinted-handoff drain invariant for `node` after a
    /// restore: the live queue must be empty and every hint ever queued
    /// must have been replayed exactly once.
    pub fn assert_drained(&self, node: usize, remaining: usize) {
        assert_eq!(
            remaining, 0,
            "store audit: node {node} rejoined with {remaining} hints still queued"
        );
        let queued = self.queued.get(node).copied().unwrap_or(0);
        let replayed = self.replayed.get(node).copied().unwrap_or(0);
        assert_eq!(
            queued, replayed,
            "store audit: node {node} queued {queued} hints but replayed {replayed}"
        );
    }

    /// The recorded evidence stream, in virtual-time order.
    pub fn events(&self) -> &[HintEvent] {
        &self.events
    }

    /// Total hints queued for `node` over the run.
    pub fn queued(&self, node: usize) -> u64 {
        self.queued.get(node).copied().unwrap_or(0)
    }

    /// Total hints replayed by `node` over the run.
    pub fn replayed(&self, node: usize) -> u64 {
        self.replayed.get(node).copied().unwrap_or(0)
    }
}

snap_enum!(HintEventKind { 0 => Queued, 1 => Replayed { count } });
snap_struct! {
    HintEvent { at, node, kind }
    HintAuditor { events, queued, replayed }
}

/// Watches the resilient driver's policy engine: every circuit-breaker
/// transition must be one the Closed→Open→HalfOpen machine can legally
/// make, and no logical op may retry past its configured budget.
/// Embedded in the driver's policy state behind the `audit` feature.
#[derive(Clone, Debug, Default)]
pub struct RetryAuditor {
    transitions: u64,
    retries: u64,
}

impl RetryAuditor {
    /// Records one breaker transition; panics if it is not legal.
    pub fn on_transition(&mut self, from: BreakerState, to: BreakerState) {
        assert!(
            breaker_transition_is_legal(from, to),
            "store audit: illegal breaker transition {from:?} -> {to:?}"
        );
        self.transitions += 1;
    }

    /// Records one retry as number `used` of a logical op; panics if the
    /// op has now retried past `budget`.
    pub fn on_retry(&mut self, used: u32, budget: u32) {
        assert!(
            used <= budget,
            "store audit: retry {used} exceeds the configured budget of {budget}"
        );
        self.retries += 1;
    }

    /// Breaker transitions observed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Retries observed.
    pub fn retries(&self) -> u64 {
        self.retries
    }
}

snap_struct! { RetryAuditor { transitions, retries } }

/// Asserts HBase's region-reassignment map is a bijection from dead
/// region servers onto *distinct live* hosts: every reassigned region
/// server is actually down, its host is up, no two dead servers share a
/// host entry, and nothing maps to itself.
pub fn assert_region_reassignment_bijection(
    reassigned: &std::collections::BTreeMap<usize, usize>,
    down: &[bool],
) {
    let mut hosts = std::collections::BTreeSet::new();
    for (&dead, &host) in reassigned {
        assert!(
            down.get(dead).copied().unwrap_or(false),
            "store audit: live node {dead} has its regions reassigned"
        );
        assert!(
            !down.get(host).copied().unwrap_or(true),
            "store audit: regions of node {dead} assigned to down host {host}"
        );
        assert!(
            dead != host,
            "store audit: node {dead} reassigned to itself"
        );
        assert!(
            hosts.insert(host),
            "store audit: host {host} received two region reassignments"
        );
    }
}

/// Asserts the Redis client-side hash ring conserves weight: every shard
/// owns exactly `expected` virtual nodes on the ring (Jedis places a
/// fixed per-shard vnode count; losing or duplicating one would skew key
/// distribution silently).
pub fn assert_ring_weight_conserved(vnodes_per_shard: &[u64], expected: u64) {
    for (shard, &vnodes) in vnodes_per_shard.iter().enumerate() {
        assert_eq!(
            vnodes, expected,
            "store audit: shard {shard} owns {vnodes} vnodes, expected {expected}"
        );
    }
}

/// Asserts a restored Redis instance's hash, sorted-set index and memory
/// accounting agree. Count-only scans answer from the index alone, so an
/// index entry without a hash entry (or stale accounting) smuggled in by
/// a snapshot would change results silently.
pub fn assert_hash_store_consistent(shard: usize, store: &apm_storage::hashstore::HashStore) {
    assert!(
        store.is_consistent(),
        "store audit: redis shard {shard} restored with index, hash and memory accounting out of step"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_queue_and_replay_pass() {
        let mut a = HintAuditor::default();
        a.on_queued(SimTime(10), 1);
        a.on_queued(SimTime(20), 1);
        a.on_replayed(SimTime(30), 1, 2);
        a.assert_drained(1, 0);
        assert_eq!(a.queued(1), 2);
        assert_eq!(a.replayed(1), 2);
        assert_eq!(a.events().len(), 3);
    }

    #[test]
    #[should_panic(expected = "still queued")]
    fn live_queue_after_restore_panics() {
        HintAuditor::default().assert_drained(0, 3);
    }

    #[test]
    #[should_panic(expected = "queued 2 hints but replayed 1")]
    fn lost_hint_panics() {
        let mut a = HintAuditor::default();
        a.on_queued(SimTime(10), 0);
        a.on_queued(SimTime(11), 0);
        a.on_replayed(SimTime(20), 0, 1);
        a.assert_drained(0, 0);
    }

    #[test]
    fn nodes_are_tracked_independently() {
        let mut a = HintAuditor::default();
        a.on_queued(SimTime(5), 2);
        a.on_replayed(SimTime(9), 2, 1);
        a.assert_drained(2, 0);
        a.assert_drained(7, 0); // never-touched node is trivially drained
        assert_eq!(a.queued(0), 0);
    }

    #[test]
    fn legal_breaker_cycle_and_bounded_retries_pass() {
        use BreakerState::*;
        let mut a = RetryAuditor::default();
        for (from, to) in [
            (Closed, Open),
            (Open, HalfOpen),
            (HalfOpen, Open),
            (Open, HalfOpen),
            (HalfOpen, Closed),
        ] {
            a.on_transition(from, to);
        }
        a.on_retry(1, 3);
        a.on_retry(3, 3);
        assert_eq!(a.transitions(), 5);
        assert_eq!(a.retries(), 2);
    }

    #[test]
    #[should_panic(expected = "illegal breaker transition")]
    fn breaker_skipping_half_open_panics() {
        RetryAuditor::default().on_transition(BreakerState::Open, BreakerState::Closed);
    }

    #[test]
    #[should_panic(expected = "exceeds the configured budget")]
    fn retry_past_budget_panics() {
        RetryAuditor::default().on_retry(4, 3);
    }

    #[test]
    fn region_bijection_accepts_distinct_live_hosts() {
        let mut reassigned = std::collections::BTreeMap::new();
        reassigned.insert(0, 2);
        reassigned.insert(1, 3);
        assert_region_reassignment_bijection(&reassigned, &[true, true, false, false]);
        // Empty map is trivially a bijection.
        assert_region_reassignment_bijection(&std::collections::BTreeMap::new(), &[false]);
    }

    #[test]
    #[should_panic(expected = "received two region reassignments")]
    fn region_fan_in_panics() {
        let mut reassigned = std::collections::BTreeMap::new();
        reassigned.insert(0, 2);
        reassigned.insert(1, 2);
        assert_region_reassignment_bijection(&reassigned, &[true, true, false]);
    }

    #[test]
    #[should_panic(expected = "assigned to down host")]
    fn region_on_dead_host_panics() {
        let mut reassigned = std::collections::BTreeMap::new();
        reassigned.insert(0, 1);
        assert_region_reassignment_bijection(&reassigned, &[true, true]);
    }

    #[test]
    #[should_panic(expected = "live node 0 has its regions reassigned")]
    fn reassigning_a_live_node_panics() {
        let mut reassigned = std::collections::BTreeMap::new();
        reassigned.insert(0, 1);
        assert_region_reassignment_bijection(&reassigned, &[false, false]);
    }

    #[test]
    fn ring_weight_conservation_accepts_uniform_shards() {
        assert_ring_weight_conserved(&[160, 160, 160], 160);
    }

    #[test]
    #[should_panic(expected = "shard 1 owns 159 vnodes")]
    fn ring_weight_loss_panics() {
        assert_ring_weight_conserved(&[160, 159], 160);
    }
}
