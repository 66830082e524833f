//! Store-level invariant checking, compiled into every build.
//!
//! The kernel auditor (`apm_sim::audit`) checks event *mechanics* —
//! monotone time, FIFO tie-breaks, op conservation. This module is the
//! first store-*protocol* auditor the ROADMAP calls for: it rides along
//! inside a store and checks recovery invariants that span many events.
//!
//! Seeded check: **Cassandra hinted handoff drains**. While a replica is
//! down, coordinators queue its missed writes as hints; when the replica
//! rejoins, `replay_hints` must stream every queued hint back and leave
//! the queue empty. [`HintAuditor`] keeps two counts per node — hints
//! queued and hints replayed over the run — and the drain assertion is
//! that they balance and the queue is empty once the node has rejoined.
//! The counts are the whole of it: a checkpoint holds them and no
//! per-hint record, since `replay_hints` empties a queue in one step and
//! so orders every queued hint before its replay by construction.
//!
//! The resilient driver's breaker transitions and retries are checked as
//! they happen ([`assert_breaker_transition_legal`],
//! [`assert_retry_within_budget`]); what they count is the driver's
//! `ResilienceCounters`, not a second copy here.
//!
//! Violations `panic!`, like every audit check: an undrained hint queue
//! means the recovery results are meaningless. What a checkpoint body
//! could break is refused on restore instead, with a typed error:
//! [`HintAuditor::unbalanced_node`],
//! [`region_reassignment_is_bijective`] and [`lsm_job_not_in_flight`]
//! are the restore-time halves.

use crate::resilience::{breaker_transition_is_legal, BreakerState};
use apm_core::snap_struct;
use apm_storage::lsm::{BackgroundJob, LsmTree};

/// Balance counters for hinted handoff; embedded in the Cassandra store.
#[derive(Clone, Debug, Default)]
pub struct HintAuditor {
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
    pub fn on_queued(&mut self, node: usize) {
        *Self::node_slot(&mut self.queued, node) += 1;
    }

    /// Records a rejoining `node` replaying `count` hints.
    pub fn on_replayed(&mut self, node: usize, count: u64) {
        *Self::node_slot(&mut self.replayed, node) += count;
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

    /// The first node whose hints do not balance — hints queued for it
    /// over the run other than those replayed plus `remaining[node]`
    /// still queued — if any. This holds at every instant, not only at
    /// rejoin (`replay_hints` is the only place a queue empties), so a
    /// restored auditor that fails it came from a forged checkpoint.
    pub fn unbalanced_node(&self, remaining: &[usize]) -> Option<usize> {
        let nodes = remaining
            .len()
            .max(self.queued.len())
            .max(self.replayed.len());
        (0..nodes).find(|&node| {
            let still = remaining.get(node).map_or(0, |&n| n as u64);
            self.replayed(node).checked_add(still) != Some(self.queued(node))
        })
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

snap_struct! { HintAuditor { queued, replayed } }

/// Asserts a circuit-breaker `from → to` transition is one the
/// Closed→Open→HalfOpen machine can legally make; the resilient driver
/// calls it on every transition it counts.
pub fn assert_breaker_transition_legal(from: BreakerState, to: BreakerState) {
    assert!(
        breaker_transition_is_legal(from, to),
        "store audit: illegal breaker transition {from:?} -> {to:?}"
    );
}

/// Asserts retry number `used` of a logical op stays within its
/// configured `budget`; the resilient driver calls it on every retry it
/// counts.
pub fn assert_retry_within_budget(used: u32, budget: u32) {
    assert!(
        used <= budget,
        "store audit: retry {used} exceeds the configured budget of {budget}"
    );
}

/// Whether HBase's region-reassignment map is a bijection from dead
/// region servers onto distinct hosts: every reassigned region server is
/// actually down, nothing maps to itself, no two dead servers share a
/// host, and every host is one of the `down.len()` servers. A host may be
/// down itself — a substitute can crash while it holds a dead server's
/// regions, which then serve nothing until one of the two restarts.
pub fn region_reassignment_is_bijective(
    reassigned: &std::collections::BTreeMap<usize, usize>,
    down: &[bool],
) -> bool {
    let mut hosts = std::collections::BTreeSet::new();
    reassigned.iter().all(|(&dead, &host)| {
        down.get(dead).copied().unwrap_or(false)
            && host < down.len()
            && dead != host
            && hosts.insert(host)
    })
}

/// The first id of an LSM store's job map whose job cannot be completed:
/// its node has no tree in `lsm`, its tree does not have that job in
/// flight, or an earlier entry names the same job of the same node.
/// `None` when [`LsmTree::complete`] can run on every entry.
pub fn lsm_job_not_in_flight<'a>(
    jobs: &std::collections::BTreeMap<u64, (usize, BackgroundJob)>,
    lsm: impl Fn(usize) -> Option<&'a LsmTree>,
) -> Option<u64> {
    let mut named = std::collections::BTreeSet::new();
    jobs.iter().find_map(|(&id, &(node, job))| {
        let live = lsm(node).is_some_and(|tree| tree.in_flight(&job));
        (!live || !named.insert((node, job.id))).then_some(id)
    })
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_queue_and_replay_pass() {
        let mut a = HintAuditor::default();
        a.on_queued(1);
        a.on_queued(1);
        a.on_replayed(1, 2);
        a.assert_drained(1, 0);
        assert_eq!(a.queued(1), 2);
        assert_eq!(a.replayed(1), 2);
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
        a.on_queued(0);
        a.on_queued(0);
        a.on_replayed(0, 1);
        a.assert_drained(0, 0);
    }

    #[test]
    fn nodes_are_tracked_independently() {
        let mut a = HintAuditor::default();
        a.on_queued(2);
        a.on_replayed(2, 1);
        a.assert_drained(2, 0);
        a.assert_drained(7, 0); // never-touched node is trivially drained
        assert_eq!(a.queued(0), 0);
    }

    #[test]
    fn legal_breaker_cycle_and_bounded_retries_pass() {
        use BreakerState::*;
        for (from, to) in [
            (Closed, Open),
            (Open, HalfOpen),
            (HalfOpen, Open),
            (Open, HalfOpen),
            (HalfOpen, Closed),
        ] {
            assert_breaker_transition_legal(from, to);
        }
        assert_retry_within_budget(1, 3);
        assert_retry_within_budget(3, 3);
    }

    #[test]
    #[should_panic(expected = "illegal breaker transition")]
    fn breaker_skipping_half_open_panics() {
        assert_breaker_transition_legal(BreakerState::Open, BreakerState::Closed);
    }

    #[test]
    #[should_panic(expected = "exceeds the configured budget")]
    fn retry_past_budget_panics() {
        assert_retry_within_budget(4, 3);
    }

    #[test]
    fn region_bijection_takes_distinct_hosts_only() {
        let bijective = |pairs: &[(usize, usize)], down: &[bool]| {
            region_reassignment_is_bijective(&pairs.iter().copied().collect(), down)
        };
        assert!(bijective(&[(0, 2), (1, 3)], &[true, true, false, false]));
        // Empty map is trivially a bijection.
        assert!(bijective(&[], &[false]));
        // A substitute that crashed while holding regions: still a
        // bijection, the regions just serve nothing.
        assert!(bijective(&[(0, 1)], &[true, true]));
        // Fan-in, a live server reassigned, a self-map, a host or a
        // server that does not exist.
        assert!(!bijective(&[(0, 2), (1, 2)], &[true, true, false]));
        assert!(!bijective(&[(0, 1)], &[false, false]));
        assert!(!bijective(&[(0, 0)], &[true, false]));
        assert!(!bijective(&[(0, 5)], &[true, false]));
        assert!(!bijective(&[(7, 1)], &[true, false]));
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
