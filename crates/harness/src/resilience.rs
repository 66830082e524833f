//! Resilience-policy experiments (`ext-res-*`).
//!
//! The fault experiments (`ext-faults-*`, [`crate::faults`]) measure what
//! a misbehaving cluster does to an unprotected closed loop. These runs
//! replay the same seeded fault schedules with the client-side policy
//! kit of [`apm_stores::resilience`] switched on — retries with capped
//! exponential backoff, latency-quantile hedged reads, per-target
//! circuit breakers, and admission control — and compare each policy-on
//! row against its policy-off twin in the same table.
//!
//! Every run is fully deterministic: the backoff jitter, hedge delays,
//! and breaker clocks all live in virtual time on the kernel's event
//! heap, so the same seed reproduces byte-identical tables.

use crate::experiment::{ExperimentProfile, StoreKind};
use crate::faults::{read_only, Phases};
use apm_core::driver::Throttle;
use apm_core::ops::OpKind;
use apm_core::report::Table;
use apm_sim::{ClusterSpec, FaultSchedule, SimDuration, WindowShape};
use apm_stores::resilience::{AdmissionPolicy, BreakerPolicy, HedgePolicy, RetryPolicy};
use apm_stores::runner::RunResult;
use apm_stores::ResiliencePolicy;

/// Fail-slow factor for the hedging experiment: the victim still
/// answers, just this much slower — the regime hedging is built for.
const FAIL_SLOW_FACTOR: u32 = 16;

fn policy_columns(table: &mut Table) {
    table.columns = vec![
        "availability".into(),
        "errors".into(),
        "throughput".into(),
        "p99_read_ms".into(),
        "retries".into(),
        "hedges".into(),
        "hedge_wins".into(),
        "breaker_transitions".into(),
        "shed".into(),
    ];
}

fn policy_row(result: &RunResult) -> Vec<Option<f64>> {
    let counters = result.stats.resilience();
    vec![
        Some(result.stats.availability()),
        Some(result.stats.total_errors() as f64),
        Some(result.throughput()),
        result.stats.quantile_latency_ms(OpKind::Read, 0.99),
        Some(counters.retries as f64),
        Some(counters.hedges as f64),
        Some(counters.hedge_wins as f64),
        Some(counters.breaker_transitions as f64),
        Some(counters.shed as f64),
    ]
}

/// `ext-res-retry`: the `ext-faults-crash` rf=1 run — a crashed node
/// whose key range has no replica — with the standard retry schedule
/// switched on. The backoff ladder (50 ms doubling to a 2 s cap, six
/// retries) outlasts the outage, so attempts that land on the dead node
/// wait it out instead of erroring: availability rises to ~1 while the
/// errors column collapses.
pub fn retry_masking(profile: &ExperimentProfile) -> Table {
    let w = Phases::for_profile(profile);
    let mut table = Table::new(
        &format!(
            "Extension: retries vs a crash window, crash t={:.0}s restart t={:.0}s (Cassandra rf=1, workload R, 4 nodes)",
            w.fault, w.restore
        ),
        "policy",
        "ratio | count | ops/sec | ms",
    );
    policy_columns(&mut table);
    let retry_on = ResiliencePolicy {
        retry: Some(RetryPolicy::standard()),
        ..ResiliencePolicy::default()
    };
    for (label, resilience) in [("retry-off", None), ("retry-on", Some(retry_on))] {
        let mut scenario = w.cassandra(1, profile, w.crash());
        scenario.config.resilience = resilience;
        table.push_row(label, policy_row(&scenario.run().result));
    }
    table
}

/// `ext-res-hedge`: one Cassandra node fail-slows to 16× while still
/// answering — the canonical tail-latency fault. At rf=2 every key the
/// victim owns has a healthy replica, but the router keeps sending
/// primaries to the slow node (it is not *down*). Both rows run at 60 %
/// of the healthy cluster's measured maximum (hedging is a headroom
/// trade: at saturation the duplicates would only add queueing). A hedge
/// fires after the observed p95 read latency and races a duplicate read
/// against the other replica; the healthy replica wins, the slow attempt
/// is cancelled, and the read p99 drops back toward the baseline.
pub fn hedged_reads(profile: &ExperimentProfile) -> Table {
    let w = Phases::for_profile(profile);
    // The hedging experiment needs spare capacity: a speculative
    // duplicate only helps when the healthy replica has headroom to
    // answer it.
    let healthy = w.cassandra(2, profile, FaultSchedule::none());
    let target = healthy.run().result.throughput() * 0.6;
    let faults = w.faults(WindowShape::FailSlow {
        factor: FAIL_SLOW_FACTOR,
    });
    let mut table = Table::new(
        &format!(
            "Extension: hedged reads vs a {FAIL_SLOW_FACTOR}x fail-slow node, t={:.0}s to t={:.0}s (Cassandra rf=2, workload R, 4 nodes, 60% load)",
            w.fault, w.restore
        ),
        "policy",
        "ratio | count | ops/sec | ms",
    );
    policy_columns(&mut table);
    let hedge_on = ResiliencePolicy {
        hedge: Some(HedgePolicy::standard()),
        ..ResiliencePolicy::default()
    };
    for (label, resilience) in [("hedge-off", None), ("hedge-on", Some(hedge_on))] {
        let mut scenario = w.cassandra(2, profile, faults.clone());
        scenario.config.client.throttle = Throttle::TargetOps(target);
        scenario.config.resilience = resilience;
        table.push_row(label, policy_row(&scenario.run().result));
    }
    table
}

/// `ext-res-breaker`: the `ext-faults-partition` timeout run — a
/// blackholed Redis shard surfaced as 10 ms client timeouts — with a
/// per-target circuit breaker. After a window of timeouts the victim's
/// breaker opens and ops to that shard fast-fail on the client (shed,
/// counted as rejections) instead of burning a 10 ms deadline each;
/// half-open probes re-test the shard until the partition heals and the
/// breaker closes. Errors drop by orders of magnitude and the loop
/// spends its time on the healthy shards.
pub fn breaker_shedding(profile: &ExperimentProfile) -> Table {
    let w = Phases::for_profile(profile);
    let faults = w.faults(WindowShape::Partition);
    let deadline = Some(SimDuration::from_millis(10));
    let mut table = Table::new(
        &format!(
            "Extension: circuit breaker vs a partitioned shard, t={:.0}s to t={:.0}s (Redis, read-only, timeout 10ms, 4 nodes)",
            w.fault, w.restore
        ),
        "policy",
        "ratio | count | ops/sec | ms",
    );
    policy_columns(&mut table);
    let breaker_on = ResiliencePolicy {
        breaker: Some(BreakerPolicy::standard()),
        ..ResiliencePolicy::default()
    };
    for (label, resilience) in [("breaker-off", None), ("breaker-on", Some(breaker_on))] {
        let mut scenario = w.scenario(
            StoreKind::Redis,
            ClusterSpec::cluster_m(),
            &read_only(),
            profile,
            faults.clone(),
        );
        scenario.config.op_deadline = deadline;
        scenario.config.resilience = resilience;
        table.push_row(label, policy_row(&scenario.run().result));
    }
    table
}

/// An aggressive, barely backed-off schedule: the retry-storm
/// anti-pattern (1 ms base, 4 ms cap, no jitter, eight attempts).
fn storm_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 8,
        base_backoff: SimDuration::from_millis(1),
        backoff_cap: SimDuration::from_millis(4),
        jitter: 0.0,
    }
}

/// `ext-res-storm`: the same rf=1 crash as `ext-res-retry`, but driven
/// with a deliberately aggressive retry schedule. Unbounded, every
/// failed op hammers the dead node eight more times within ~20 ms — the
/// classic retry storm. The budgeted row adds admission control (5 %
/// extra-attempt ratio, burst 5): the token bucket drains in the first
/// seconds of the outage and the storm is shed on the client instead of
/// amplifying the failure.
pub fn retry_storm(profile: &ExperimentProfile) -> Table {
    let w = Phases::for_profile(profile);
    let mut table = Table::new(
        &format!(
            "Extension: admission control vs a retry storm, crash t={:.0}s restart t={:.0}s (Cassandra rf=1, workload R, 4 nodes)",
            w.fault, w.restore
        ),
        "policy",
        "ratio | count | ops/sec | ms",
    );
    policy_columns(&mut table);
    let unbounded = ResiliencePolicy {
        retry: Some(storm_retry()),
        ..ResiliencePolicy::default()
    };
    let budgeted = ResiliencePolicy {
        retry: Some(storm_retry()),
        admission: Some(AdmissionPolicy {
            retry_ratio: 0.05,
            burst: 5,
        }),
        ..ResiliencePolicy::default()
    };
    for (label, resilience) in [("unbounded", unbounded), ("budgeted", budgeted)] {
        let mut scenario = w.cassandra(1, profile, w.crash());
        scenario.config.resilience = Some(resilience);
        table.push_row(label, policy_row(&scenario.run().result));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ExperimentProfile {
        ExperimentProfile::test()
    }

    #[test]
    fn retries_lift_availability_above_the_unprotected_crash_run() {
        let t = retry_masking(&profile());
        let off = t.get("retry-off", "availability").expect("off cell");
        let on = t.get("retry-on", "availability").expect("on cell");
        assert!(on > off, "retries must mask the outage: {off} vs {on}");
        assert!(
            t.get("retry-on", "errors").expect("errors cell")
                < t.get("retry-off", "errors").expect("errors cell"),
            "retries must absorb errors"
        );
        assert!(
            t.get("retry-on", "retries").expect("retries cell") > 0.0,
            "the retry path must actually fire"
        );
        assert_eq!(
            t.get("retry-off", "retries").expect("off retries cell"),
            0.0,
            "the unprotected run never retries"
        );
    }

    #[test]
    fn hedges_cut_the_read_tail_under_a_fail_slow_node() {
        let t = hedged_reads(&profile());
        let off = t.get("hedge-off", "p99_read_ms").expect("off p99 cell");
        let on = t.get("hedge-on", "p99_read_ms").expect("on p99 cell");
        assert!(on < off, "hedging must cut the read p99: {off} vs {on}");
        let hedges = t.get("hedge-on", "hedges").expect("hedges cell");
        let wins = t.get("hedge-on", "hedge_wins").expect("hedge_wins cell");
        assert!(hedges > 0.0, "hedges must fire during the slow window");
        assert!(wins > 0.0, "some hedges must beat the slow primary");
        assert!(wins <= hedges, "wins bounded by hedges: {wins} vs {hedges}");
    }

    #[test]
    fn breaker_sheds_the_partitioned_shard_instead_of_timing_out() {
        let t = breaker_shedding(&profile());
        let off = t.get("breaker-off", "errors").expect("off errors cell");
        let on = t.get("breaker-on", "errors").expect("on errors cell");
        assert!(on < off, "the breaker must absorb timeouts: {off} vs {on}");
        assert!(
            t.get("breaker-on", "shed").expect("shed cell") > 0.0,
            "an open breaker must shed"
        );
        assert!(
            t.get("breaker-on", "breaker_transitions")
                .expect("transitions cell")
                >= 2.0,
            "the breaker must open and recover"
        );
        assert!(
            t.get("breaker-on", "availability")
                .expect("on availability")
                > t.get("breaker-off", "availability")
                    .expect("off availability"),
            "fewer timeouts means higher availability"
        );
    }

    #[test]
    fn admission_control_caps_the_retry_storm() {
        let t = retry_storm(&profile());
        let unbounded = t.get("unbounded", "retries").expect("unbounded cell");
        let budgeted = t.get("budgeted", "retries").expect("budgeted cell");
        assert!(
            budgeted < unbounded,
            "the budget must cap retries: {unbounded} vs {budgeted}"
        );
        assert!(
            t.get("budgeted", "shed").expect("shed cell") > 0.0,
            "admission control must shed the excess"
        );
        assert_eq!(
            t.get("unbounded", "shed").expect("unbounded shed cell"),
            0.0,
            "without admission control nothing is shed"
        );
    }

    #[test]
    fn resilience_tables_are_twice_run_byte_identical() {
        let p = profile();
        for (label, gen) in [
            (
                "ext-res-retry",
                retry_masking as fn(&ExperimentProfile) -> Table,
            ),
            ("ext-res-hedge", hedged_reads),
            ("ext-res-breaker", breaker_shedding),
            ("ext-res-storm", retry_storm),
        ] {
            let first = gen(&p);
            let second = gen(&p);
            assert_eq!(
                first.render(),
                second.render(),
                "{label} rendered table must be byte-identical across runs"
            );
            assert_eq!(
                first.to_csv(),
                second.to_csv(),
                "{label} CSV must be byte-identical across runs"
            );
        }
    }

    /// The kernel trace fingerprint is the strongest equality the
    /// simulator offers: two identical-seed runs of the retry experiment's
    /// crash with every policy on must replay the exact event stream.
    #[test]
    fn full_policy_run_replays_to_the_same_trace_fingerprint() {
        let p = profile();
        let fingerprint = || {
            let w = Phases::for_profile(&p);
            let mut scenario = w.cassandra(1, &p, w.crash());
            scenario.config.resilience = Some(ResiliencePolicy {
                retry: Some(RetryPolicy::standard()),
                hedge: Some(HedgePolicy::standard()),
                breaker: Some(BreakerPolicy::standard()),
                admission: Some(AdmissionPolicy::standard()),
            });
            let run = scenario.run_traced();
            run.engine.tracer().expect("a traced run").fingerprint()
        };
        assert_eq!(
            fingerprint(),
            fingerprint(),
            "kernel event stream must replay identically with all policies on"
        );
    }
}
