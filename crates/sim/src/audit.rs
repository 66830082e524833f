//! Runtime invariant checking for the event kernel.
//!
//! Clippy's determinism lints (DESIGN.md §8) keep nondeterminism
//! *sources* out of the kernel; this module is the dynamic complement —
//! it rides along inside every [`crate::Engine`] and checks, on every
//! event pop:
//!
//! * **virtual-time monotonicity** — the clock never moves backwards;
//! * **deterministic FIFO tie-breaking** — events popped at the same
//!   timestamp come out in strictly increasing submission-sequence
//!   order, so equal-time ties always resolve in submission order;
//! * **op conservation** — every top-level submission produces exactly
//!   one [`crate::Completion`] (Ok, Failed, TimedOut, or Cancelled),
//!   verified
//!   incrementally (completions never exceed issues) and exactly at
//!   drain via [`KernelAuditor::assert_conserved`];
//! * **fault causality** — no *new* service ever begins on a crashed
//!   resource (requests already in service when a node dies finish
//!   legitimately — they left the node before it died — so the
//!   checkable invariant is at service start, not completion).
//!
//! The auditor also folds every `(time, seq)` pop into a rolling
//! fingerprint; two runs of the same seeded workload must produce equal
//! fingerprints, giving a cross-run determinism check that sees every
//! single event, not just the aggregate results.
//!
//! All checks `panic!` on violation: an invariant breach means the
//! simulation's results are meaningless. A checkpoint cannot smuggle one
//! in: `KernelAuditor::check_restored` refuses, with a typed error, any
//! restored auditor or event list a later check would panic on.

use crate::time::SimTime;
use apm_core::snap::SnapError;
use apm_core::snap_struct;

/// Per-engine invariant state; embedded in every [`crate::Engine`].
#[derive(Clone, Debug, Default)]
pub struct KernelAuditor {
    /// Time and sequence number of the previous event pop.
    last_pop: Option<(SimTime, u64)>,
    /// Total events popped.
    pops: u64,
    /// FNV-style rolling hash of every popped `(time, seq)` pair.
    fingerprint: u64,
    /// Top-level executions allocated (each owes one completion).
    issued: u64,
    /// Completions emitted.
    completed: u64,
}

impl KernelAuditor {
    /// Records one event pop; panics on a monotonicity or tie-break
    /// violation.
    pub(crate) fn on_pop(&mut self, at: SimTime, seq: u64) {
        if let Some((last_at, last_seq)) = self.last_pop {
            assert!(
                at >= last_at,
                "kernel audit: time went backwards ({} -> {} ns)",
                last_at.as_nanos(),
                at.as_nanos()
            );
            assert!(
                at > last_at || seq > last_seq,
                "kernel audit: FIFO tie-break violated at t={} ns (seq {} after {})",
                at.as_nanos(),
                seq,
                last_seq
            );
        }
        self.last_pop = Some((at, seq));
        self.pops += 1;
        self.fingerprint = self.fingerprint.wrapping_mul(0x0000_0100_0000_01b3)
            ^ at.as_nanos().wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ seq;
    }

    /// Records a top-level execution allocation.
    pub(crate) fn on_issue(&mut self) {
        self.issued += 1;
    }

    /// Records an emitted completion; panics if completions ever exceed
    /// issues (an op completed twice or out of thin air).
    pub(crate) fn on_complete(&mut self) {
        self.completed += 1;
        assert!(
            self.completed <= self.issued,
            "kernel audit: {} completions for {} issued ops",
            self.completed,
            self.issued
        );
    }

    /// Asserts full op conservation. Valid once the engine is drained
    /// (no pending events, no plans parked behind a stalled resource):
    /// every issued op must have completed exactly once.
    pub fn assert_conserved(&self) {
        assert_eq!(
            self.issued, self.completed,
            "kernel audit: {} ops issued but {} completed at drain",
            self.issued, self.completed
        );
    }

    /// Checks a restored auditor against the engine it was restored
    /// into, so no checkpoint body can make a later check panic. `owed`
    /// counts the live parentless execs (each owes one completion),
    /// `next_seq` is the engine's next sequence number and `pending` the
    /// `(time, seq)` keys of the restored event list. Refused with
    /// [`SnapError::BadTag`]: counters that do not balance to `owed`, a
    /// last pop after `now` or with a sequence number not yet handed
    /// out, and a pending event [`Self::on_pop`] would not accept — one
    /// before `now`, not after the last pop, with an unissued or a
    /// repeated key.
    pub(crate) fn check_restored(
        &self,
        now: SimTime,
        next_seq: u64,
        owed: u64,
        mut pending: Vec<(SimTime, u64)>,
    ) -> Result<(), SnapError> {
        let bad = |what, tag| Err(SnapError::BadTag { what, tag });
        if self.completed > self.issued || self.issued - self.completed != owed {
            return bad("KernelAuditor completions", self.completed);
        }
        if let Some((at, seq)) = self.last_pop {
            if at > now || seq >= next_seq {
                return bad("KernelAuditor last pop", seq);
            }
        }
        pending.sort_unstable();
        let mut prev = self.last_pop;
        for (at, seq) in pending {
            if at < now || seq >= next_seq || prev.is_some_and(|p| p >= (at, seq)) {
                return bad("event list entry", seq);
            }
            prev = Some((at, seq));
        }
        Ok(())
    }

    /// Events popped so far.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Rolling hash of every `(time, seq)` event pop. Equal seeds must
    /// yield equal fingerprints across runs.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Top-level ops issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Completions emitted so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

// So a resumed run continues the rolling fingerprint and the conservation
// counters instead of restarting them.
snap_struct! { KernelAuditor { last_pop, pops, fingerprint, issued, completed } }

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn monotone_pops_are_accepted() {
        let mut a = KernelAuditor::default();
        a.on_pop(t(10), 0);
        a.on_pop(t(10), 3);
        a.on_pop(t(20), 1);
        assert_eq!(a.pops(), 3);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn backwards_time_panics() {
        let mut a = KernelAuditor::default();
        a.on_pop(t(20), 0);
        a.on_pop(t(10), 1);
    }

    #[test]
    #[should_panic(expected = "FIFO tie-break violated")]
    fn tie_break_regression_panics() {
        let mut a = KernelAuditor::default();
        a.on_pop(t(10), 5);
        a.on_pop(t(10), 2);
    }

    #[test]
    #[should_panic(expected = "completions")]
    fn completion_without_issue_panics() {
        let mut a = KernelAuditor::default();
        a.on_complete();
    }

    #[test]
    fn conservation_balances() {
        let mut a = KernelAuditor::default();
        a.on_issue();
        a.on_issue();
        a.on_complete();
        a.on_complete();
        a.assert_conserved();
    }

    #[test]
    #[should_panic(expected = "issued but")]
    fn unbalanced_drain_panics() {
        let mut a = KernelAuditor::default();
        a.on_issue();
        a.assert_conserved();
    }

    #[test]
    fn fingerprint_depends_on_order() {
        let mut a = KernelAuditor::default();
        a.on_pop(t(10), 0);
        a.on_pop(t(10), 1);
        let mut b = KernelAuditor::default();
        b.on_pop(t(10), 0);
        b.on_pop(t(11), 1);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = KernelAuditor::default();
        c.on_pop(t(10), 0);
        c.on_pop(t(10), 1);
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn restored_state_a_later_check_would_panic_on_is_refused() {
        let mut a = KernelAuditor::default();
        a.on_issue();
        a.on_issue();
        a.on_complete();
        a.on_pop(t(10), 4);
        let what = |pending: Vec<(SimTime, u64)>, now, next_seq, owed| match a.check_restored(
            t(now),
            next_seq,
            owed,
            pending,
        ) {
            Ok(()) => "ok",
            Err(SnapError::BadTag { what, .. }) => what,
            Err(other) => panic!("{other}"),
        };
        // At t=10 with seqs 0..6 handed out and one op still owed.
        assert_eq!(what(vec![(t(12), 0), (t(10), 5)], 10, 6, 1), "ok");
        assert_eq!(what(vec![], 10, 6, 0), "KernelAuditor completions");
        assert_eq!(what(vec![], 10, 6, 2), "KernelAuditor completions");
        assert_eq!(what(vec![], 9, 6, 1), "KernelAuditor last pop");
        assert_eq!(what(vec![], 10, 4, 1), "KernelAuditor last pop");
        for pending in [
            vec![(t(10), 3)],
            vec![(t(9), 5)],
            vec![(t(11), 6)],
            vec![(t(11), 5), (t(11), 5)],
        ] {
            assert_eq!(what(pending, 10, 6, 1), "event list entry");
        }
    }
}
