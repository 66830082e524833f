//! Deterministic client-side resilience policies.
//!
//! The closed-loop driver in [`crate::runner`] wraps every logical
//! operation in the standard robustness kit of a serving stack, all of it
//! virtual-time-deterministic (no wall clock, no ambient RNG):
//!
//! * **Retries** ([`RetryPolicy`]) — failed attempts are re-issued with
//!   exponential backoff and seeded jitter, the backoff delay scheduled
//!   as a kernel event. One jitter factor is drawn per logical op, so the
//!   schedule is monotone non-decreasing and capped by construction.
//! * **Hedged reads** ([`HedgePolicy`]) — after a delay tracking the
//!   observed read-latency quantile ([`HedgeTracker`]), a speculative
//!   duplicate read is issued to a different replica; the first
//!   completion wins and the loser is cancelled
//!   ([`apm_sim::Engine::cancel`]).
//! * **Circuit breakers** ([`BreakerPolicy`], [`Breaker`]) — one
//!   Closed→Open→HalfOpen state machine per target node, driven by a
//!   windowed error count; while open, ops to that target fast-fail on
//!   the client (shed), and half-open probes test recovery.
//! * **Admission control** ([`AdmissionPolicy`], [`AdmissionBudget`]) — a
//!   token bucket bounding *extra* attempts (retries + hedges) to a
//!   ratio of primary attempts, so a retry storm cannot melt the
//!   simulated cluster.
//!
//! All knobs live in [`ResiliencePolicy`] on
//! [`crate::runner::RunConfig`]. The driver always holds a policy —
//! `resilience: None` (the default) is the empty bundle, every component
//! `None` — and pays per op only for the components that are set: the
//! paper's policy-free runs go through the same loop and report the same
//! bytes as before there was a policy layer.

use apm_core::stats::Histogram;
use apm_core::{snap_enum, snap_struct};
use apm_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A retry budget with capped exponential backoff.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retries beyond the primary attempt, for every op kind.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: SimDuration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: SimDuration,
    /// Maximum fractional jitter added to each delay (0.0 = none,
    /// 0.5 = up to +50 %). The factor is drawn once per logical op from
    /// the seeded stream, keeping the schedule monotone.
    pub jitter: f64,
}

impl RetryPolicy {
    /// A schedule that can wait out multi-second outages: up to 6
    /// retries, 50 ms base, 2 s cap, 25 % jitter.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_retries: 6,
            base_backoff: SimDuration::from_millis(50),
            backoff_cap: SimDuration::from_secs_f64(2.0),
            jitter: 0.25,
        }
    }
}

/// Backoff delay before retry `retry_index` (0-based), jittered by
/// `jitter_frac` in `[0, 1)` scaled by the policy's `jitter` knob.
///
/// For a fixed `jitter_frac` the schedule is monotone non-decreasing in
/// `retry_index` and bounded by `backoff_cap`: the exponential term
/// saturates rather than wraps, the jitter multiplier is constant, and
/// the cap is applied last.
pub fn backoff_delay(policy: &RetryPolicy, retry_index: u32, jitter_frac: f64) -> SimDuration {
    let exp = policy
        .base_backoff
        .as_nanos()
        .saturating_mul(1u64 << retry_index.min(32));
    let jitter_ns = (exp as f64 * (policy.jitter * jitter_frac.clamp(0.0, 1.0))) as u64;
    let jittered = exp.saturating_add(jitter_ns);
    SimDuration::from_nanos(jittered.min(policy.backoff_cap.as_nanos()))
}

/// Read-latency quantile the hedge delay tracks.
pub const HEDGE_QUANTILE: f64 = 0.95;

/// Speculative duplicate reads after a [`HEDGE_QUANTILE`] latency delay.
#[derive(Clone, Debug, PartialEq)]
pub struct HedgePolicy {
    /// Delay floor, also used until the tracker has warmed up.
    pub min_delay: SimDuration,
    /// Successful reads observed before the quantile is trusted.
    pub warmup_samples: u64,
}

impl HedgePolicy {
    /// p95-tracking hedges with a 1 ms floor after 200 samples.
    pub fn standard() -> HedgePolicy {
        HedgePolicy {
            min_delay: SimDuration::from_millis(1),
            warmup_samples: 200,
        }
    }
}

/// Tracks successful read latencies to derive the hedge delay.
#[derive(Clone, Debug, Default)]
pub struct HedgeTracker {
    latencies: Histogram,
}

impl HedgeTracker {
    /// Records one successful read attempt's latency.
    pub fn record(&mut self, latency_ns: u64) {
        self.latencies.record(latency_ns);
    }

    /// Current hedge delay: the tracked quantile once warmed up, floored
    /// at `min_delay`; just the floor before warm-up.
    pub fn delay(&self, policy: &HedgePolicy) -> SimDuration {
        if self.latencies.count() < policy.warmup_samples {
            return policy.min_delay;
        }
        let q = self.latencies.quantile(HEDGE_QUANTILE);
        SimDuration::from_nanos(q.max(policy.min_delay.as_nanos()))
    }

    /// Successful reads observed so far.
    pub fn samples(&self) -> u64 {
        self.latencies.count()
    }
}

/// Attempt outcomes per target in a breaker's sliding window.
pub const BREAKER_WINDOW: usize = 20;

/// Error fraction at which a full window trips a breaker open.
pub const BREAKER_ERROR_THRESHOLD: f64 = 0.5;

/// Circuit breaking per target node over a [`BREAKER_WINDOW`]-outcome
/// window, tripping at [`BREAKER_ERROR_THRESHOLD`].
#[derive(Clone, Debug, PartialEq)]
pub struct BreakerPolicy {
    /// Time the breaker stays open before admitting a half-open probe.
    pub open_for: SimDuration,
}

impl BreakerPolicy {
    /// Trip at ≥50 % errors over 20 attempts, re-probe after 500 ms.
    pub fn standard() -> BreakerPolicy {
        BreakerPolicy {
            open_for: SimDuration::from_millis(500),
        }
    }
}

/// Circuit-breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all attempts admitted, outcomes windowed.
    Closed,
    /// Tripped: attempts shed until `open_for` elapses.
    Open,
    /// Probing: one attempt admitted to test recovery.
    HalfOpen,
}

/// True when a `from → to` breaker transition is one the state machine
/// can legally make (the invariant
/// [`crate::audit::assert_breaker_transition_legal`] checks).
pub fn breaker_transition_is_legal(from: BreakerState, to: BreakerState) -> bool {
    matches!(
        (from, to),
        (BreakerState::Closed, BreakerState::Open)
            | (BreakerState::Open, BreakerState::HalfOpen)
            | (BreakerState::HalfOpen, BreakerState::Closed)
            | (BreakerState::HalfOpen, BreakerState::Open)
    )
}

/// What the breaker decided for one attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Attempt proceeds normally.
    Admit,
    /// Attempt proceeds as the half-open probe; report its outcome with
    /// `was_probe = true`.
    Probe,
    /// Attempt is shed: fast-fail on the client without touching the
    /// target.
    Shed,
}

/// One per-target Closed→Open→HalfOpen state machine.
#[derive(Clone, Debug)]
pub struct Breaker {
    state: BreakerState,
    /// Recent attempt outcomes, `true` = error (bounded by the policy
    /// window; a deque keeps eviction order deterministic).
    outcomes: VecDeque<bool>,
    errors_in_window: usize,
    opened_at: SimTime,
    probe_in_flight: bool,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker {
            state: BreakerState::Closed,
            outcomes: VecDeque::new(),
            errors_in_window: 0,
            opened_at: SimTime::ZERO,
            probe_in_flight: false,
        }
    }
}

impl Breaker {
    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    fn transition(&mut self, to: BreakerState) -> (BreakerState, BreakerState) {
        let from = self.state;
        debug_assert!(breaker_transition_is_legal(from, to));
        self.state = to;
        (from, to)
    }

    /// Decides whether an attempt against this target may proceed at
    /// `now`. Returns the decision plus the state transition it caused,
    /// if any (Open → HalfOpen when the open interval elapsed).
    pub fn admit(
        &mut self,
        now: SimTime,
        policy: &BreakerPolicy,
    ) -> (BreakerDecision, Option<(BreakerState, BreakerState)>) {
        match self.state {
            BreakerState::Closed => (BreakerDecision::Admit, None),
            BreakerState::Open => {
                if now.since(self.opened_at) >= policy.open_for {
                    let t = self.transition(BreakerState::HalfOpen);
                    self.probe_in_flight = true;
                    (BreakerDecision::Probe, Some(t))
                } else {
                    (BreakerDecision::Shed, None)
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    (BreakerDecision::Shed, None)
                } else {
                    self.probe_in_flight = true;
                    (BreakerDecision::Probe, None)
                }
            }
        }
    }

    /// Feeds one admitted attempt's outcome back at `now`. Returns the
    /// state transition it caused, if any.
    pub fn on_outcome(
        &mut self,
        now: SimTime,
        ok: bool,
        was_probe: bool,
    ) -> Option<(BreakerState, BreakerState)> {
        if was_probe && self.state == BreakerState::HalfOpen {
            self.probe_in_flight = false;
            return Some(if ok {
                self.outcomes.clear();
                self.errors_in_window = 0;
                self.transition(BreakerState::Closed)
            } else {
                self.opened_at = now;
                self.transition(BreakerState::Open)
            });
        }
        if self.state != BreakerState::Closed {
            // Late completions of attempts admitted before the trip.
            return None;
        }
        self.outcomes.push_back(!ok);
        if !ok {
            self.errors_in_window += 1;
        }
        while self.outcomes.len() > BREAKER_WINDOW {
            if self.outcomes.pop_front() == Some(true) {
                self.errors_in_window -= 1;
            }
        }
        let full = self.outcomes.len() >= BREAKER_WINDOW;
        let tripped =
            self.errors_in_window as f64 >= BREAKER_ERROR_THRESHOLD * self.outcomes.len() as f64;
        if full && tripped {
            self.opened_at = now;
            self.outcomes.clear();
            self.errors_in_window = 0;
            return Some(self.transition(BreakerState::Open));
        }
        None
    }
}

/// Retry-budget admission control (Finagle-style token bucket).
#[derive(Clone, Debug, PartialEq)]
pub struct AdmissionPolicy {
    /// Extra attempts (retries + hedges) earned per primary attempt.
    pub retry_ratio: f64,
    /// Bucket capacity and initial credit, in extra attempts.
    pub burst: u64,
}

impl AdmissionPolicy {
    /// 10 % extra attempts with a burst of 10.
    pub fn standard() -> AdmissionPolicy {
        AdmissionPolicy {
            retry_ratio: 0.1,
            burst: 10,
        }
    }
}

/// Runtime token bucket for [`AdmissionPolicy`]; integer micro-attempt
/// credit keeps it exactly deterministic.
#[derive(Clone, Debug)]
pub struct AdmissionBudget {
    credit_micros: u64,
    cap_micros: u64,
    ratio_micros: u64,
}

const MICROS_PER_ATTEMPT: u64 = 1_000_000;

impl AdmissionBudget {
    /// A bucket filled to `policy.burst`.
    pub fn new(policy: &AdmissionPolicy) -> AdmissionBudget {
        let cap = policy.burst.max(1) * MICROS_PER_ATTEMPT;
        AdmissionBudget {
            credit_micros: cap,
            cap_micros: cap,
            ratio_micros: (policy.retry_ratio.max(0.0) * MICROS_PER_ATTEMPT as f64) as u64,
        }
    }

    /// Credits one primary attempt.
    pub fn on_primary(&mut self) {
        self.credit_micros = (self.credit_micros + self.ratio_micros).min(self.cap_micros);
    }

    /// Tries to spend one extra attempt; `false` means shed it.
    pub fn try_spend(&mut self) -> bool {
        if self.credit_micros >= MICROS_PER_ATTEMPT {
            self.credit_micros -= MICROS_PER_ATTEMPT;
            true
        } else {
            false
        }
    }

    /// Whole extra attempts currently banked.
    pub fn banked(&self) -> u64 {
        self.credit_micros / MICROS_PER_ATTEMPT
    }
}

/// The full client-side policy bundle. Every component is independently
/// optional; the all-`None` default is inert, and is what
/// `RunConfig::resilience: None` means.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResiliencePolicy {
    /// Retry failed attempts with capped exponential backoff.
    pub retry: Option<RetryPolicy>,
    /// Hedge slow reads to an alternative replica.
    pub hedge: Option<HedgePolicy>,
    /// Per-target circuit breaking.
    pub breaker: Option<BreakerPolicy>,
    /// Bound extra attempts to a fraction of primaries.
    pub admission: Option<AdmissionPolicy>,
}

/// Seeded SplitMix64 stream for the policies' jitter draws (the same
/// generator `apm_sim::fault` uses for random schedules).
pub type JitterRng = apm_core::rng::SplitMix64;

snap_struct! {
    HedgeTracker { latencies }
    Breaker { state, outcomes, errors_in_window, opened_at, probe_in_flight }
    AdmissionBudget { credit_micros, cap_micros, ratio_micros }
}
snap_enum!(BreakerState { 0 => Closed, 1 => Open, 2 => HalfOpen });

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn backoff_is_monotone_nondecreasing_and_cap_bounded() {
        // Property-style sweep: many jitter factors × long attempt runs.
        let policy = RetryPolicy {
            max_retries: 64,
            base_backoff: SimDuration::from_micros(500),
            backoff_cap: ms(1_800),
            jitter: 0.4,
        };
        let mut rng = JitterRng::new(0xA9A1_2012);
        for _ in 0..200 {
            let frac = rng.next_frac();
            let mut prev = SimDuration::ZERO;
            for retry in 0..64 {
                let d = backoff_delay(&policy, retry, frac);
                assert!(
                    d >= prev,
                    "backoff regressed at retry {retry}: {d:?} < {prev:?}"
                );
                assert!(
                    d <= policy.backoff_cap,
                    "backoff exceeded cap at retry {retry}: {d:?}"
                );
                prev = d;
            }
            assert_eq!(prev, policy.backoff_cap, "schedule must reach the cap");
        }
    }

    #[test]
    fn backoff_doubles_before_the_cap() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::standard()
        };
        assert_eq!(backoff_delay(&policy, 0, 0.9), ms(50));
        assert_eq!(backoff_delay(&policy, 1, 0.9), ms(100));
        assert_eq!(backoff_delay(&policy, 2, 0.9), ms(200));
        assert_eq!(backoff_delay(&policy, 10, 0.9), ms(2_000));
        // Huge retry indices saturate instead of wrapping.
        assert_eq!(backoff_delay(&policy, 63, 0.9), ms(2_000));
    }

    #[test]
    fn hedge_tracker_uses_floor_until_warm_then_quantile() {
        let policy = HedgePolicy {
            min_delay: ms(2),
            warmup_samples: 10,
        };
        let mut tracker = HedgeTracker::default();
        assert_eq!(tracker.delay(&policy), ms(2), "cold tracker uses floor");
        for _ in 0..100 {
            tracker.record(ms(8).as_nanos());
        }
        let d = tracker.delay(&policy);
        assert!(d >= ms(7) && d <= ms(9), "p95 ≈ 8 ms, got {d:?}");
        // The floor still applies when the quantile collapses.
        let mut fast = HedgeTracker::default();
        for _ in 0..100 {
            fast.record(1_000);
        }
        assert_eq!(fast.delay(&policy), ms(2));
    }

    #[test]
    fn breaker_trips_after_a_full_window_of_errors() {
        let policy = BreakerPolicy { open_for: ms(100) };
        let mut b = Breaker::default();
        let now = SimTime(1_000);
        assert_eq!(b.admit(now, &policy).0, BreakerDecision::Admit);
        // One error short of a full window: stays closed.
        for _ in 1..BREAKER_WINDOW {
            assert_eq!(b.on_outcome(now, false, false), None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        let t = b.on_outcome(now, false, false);
        assert_eq!(t, Some((BreakerState::Closed, BreakerState::Open)));
        assert_eq!(b.admit(now, &policy).0, BreakerDecision::Shed);
    }

    #[test]
    fn breaker_half_open_probe_closes_on_success_and_reopens_on_failure() {
        let policy = BreakerPolicy { open_for: ms(100) };
        let mut b = Breaker::default();
        for _ in 0..BREAKER_WINDOW {
            b.on_outcome(SimTime(0), false, false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Before the open interval elapses: shed.
        assert_eq!(b.admit(SimTime(1_000), &policy).0, BreakerDecision::Shed);
        // After: exactly one probe; concurrent attempts shed.
        let at = SimTime(ms(100).as_nanos());
        let (d, t) = b.admit(at, &policy);
        assert_eq!(d, BreakerDecision::Probe);
        assert_eq!(t, Some((BreakerState::Open, BreakerState::HalfOpen)));
        assert_eq!(b.admit(at, &policy).0, BreakerDecision::Shed);
        // Failed probe re-opens and re-arms the timer.
        let t = b.on_outcome(at, false, true);
        assert_eq!(t, Some((BreakerState::HalfOpen, BreakerState::Open)));
        assert_eq!(b.admit(at, &policy).0, BreakerDecision::Shed);
        // Next probe succeeds: closed, admitting again.
        let at2 = SimTime(at.as_nanos() + ms(100).as_nanos());
        assert_eq!(b.admit(at2, &policy).0, BreakerDecision::Probe);
        let t = b.on_outcome(at2, true, true);
        assert_eq!(t, Some((BreakerState::HalfOpen, BreakerState::Closed)));
        assert_eq!(b.admit(at2, &policy).0, BreakerDecision::Admit);
    }

    #[test]
    fn breaker_window_slides_and_recovers_with_successes() {
        let mut b = Breaker::default();
        // One error in three never reaches half of a full window.
        for i in 0..4 * BREAKER_WINDOW as u64 {
            assert_eq!(b.on_outcome(SimTime(i), i % 3 != 0, false), None);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_transition_legality_table() {
        use BreakerState::*;
        for (from, to, legal) in [
            (Closed, Open, true),
            (Open, HalfOpen, true),
            (HalfOpen, Closed, true),
            (HalfOpen, Open, true),
            (Closed, HalfOpen, false),
            (Open, Closed, false),
            (Closed, Closed, false),
        ] {
            assert_eq!(
                breaker_transition_is_legal(from, to),
                legal,
                "{from:?}->{to:?}"
            );
        }
    }

    #[test]
    fn admission_budget_banks_and_spends_deterministically() {
        let mut budget = AdmissionBudget::new(&AdmissionPolicy {
            retry_ratio: 0.5,
            burst: 2,
        });
        assert_eq!(budget.banked(), 2);
        assert!(budget.try_spend());
        assert!(budget.try_spend());
        assert!(!budget.try_spend(), "empty bucket sheds");
        budget.on_primary();
        assert!(!budget.try_spend(), "half a credit is not an attempt");
        budget.on_primary();
        assert!(budget.try_spend());
        // Credit never exceeds the burst cap.
        for _ in 0..100 {
            budget.on_primary();
        }
        assert_eq!(budget.banked(), 2);
    }

    #[test]
    fn jitter_stream_is_seed_deterministic_and_in_range() {
        let draw = |seed: u64| -> Vec<f64> {
            let mut rng = JitterRng::new(seed);
            (0..32).map(|_| rng.next_frac()).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        for f in draw(123) {
            assert!((0.0..1.0).contains(&f));
        }
    }
}
