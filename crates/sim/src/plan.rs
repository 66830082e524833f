//! Operation plans: the work description language of the simulator.
//!
//! A [`Plan`] is the physical footprint of one logical action — a client
//! request, a memtable flush, a compaction — expressed as a sequence of
//! steps. Steps either occupy a queued resource (a CPU core pool, a disk,
//! a NIC, an RPC handler pool) for a service time, wait for a pure delay,
//! align to a periodic epoch (group commit), or fork into parallel
//! branches with a completion quorum (replication fan-out).
//!
//! Storage engines build plans from their cost receipts; the kernel in
//! [`crate::kernel`] executes them under FIFO queueing, which is where
//! latency beyond raw service time comes from.
//!
//! [`PlanBuilder`] is the only way to make a plan: the step tree is this
//! crate's business (the arena in [`crate::arena`] flattens and interns
//! it), so everything outside can describe work but never depends on how
//! a description is laid out.

use crate::kernel::ResourceId;
use crate::time::SimDuration;
use apm_core::{snap_enum, snap_struct};

/// One step of a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Wait for a slot on `resource` (FIFO), then hold it for `service`.
    Acquire {
        resource: ResourceId,
        service: SimDuration,
    },
    /// Pure delay with no resource contention (e.g. switch latency).
    Delay(SimDuration),
    /// Wait until the next boundary of a periodic epoch of length
    /// `period`, then a further `extra` — models group commit: a write
    /// joining a commit group waits for the group's sync.
    AlignTo {
        period: SimDuration,
        extra: SimDuration,
    },
    /// Execute `branches` in parallel; proceed when `need` of them have
    /// completed. Remaining branches keep running (and keep occupying
    /// resources) in the background — quorum semantics.
    Join { branches: Vec<Plan>, need: usize },
    /// Unconditional failure: the plan aborts with a failed outcome after
    /// `latency`. Stores use this when the refusal decision was already
    /// made at plan time (e.g. every replica was down when the request
    /// was routed), so the result cannot be undone by resources coming
    /// back between planning and execution.
    Fail { latency: SimDuration },
}

/// A sequence of steps executed in order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Plan(pub(crate) Vec<Step>);

impl Plan {
    /// The empty plan (completes immediately).
    pub fn empty() -> Plan {
        Plan(Vec::new())
    }

    /// Starts a builder.
    pub fn build() -> PlanBuilder {
        Plan::build_for(0)
    }

    /// Starts a builder with room for `steps` steps — a sizing hint for
    /// callers that know roughly how long their plan gets, not a limit.
    pub fn build_for(steps: usize) -> PlanBuilder {
        PlanBuilder {
            steps: Vec::with_capacity(steps),
        }
    }

    /// Number of steps, counting nested branches.
    pub fn total_steps(&self) -> usize {
        self.0
            .iter()
            .map(|s| match s {
                Step::Join { branches, .. } => {
                    1 + branches.iter().map(Plan::total_steps).sum::<usize>()
                }
                Step::Acquire { .. }
                | Step::Delay(_)
                | Step::AlignTo { .. }
                | Step::Fail { .. } => 1,
            })
            .sum()
    }

    /// Lower bound on the plan's duration assuming zero queueing: the sum
    /// of service times and delays along the longest needed path. Useful
    /// for calibration sanity checks and tests.
    pub fn min_duration(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for step in &self.0 {
            total += match step {
                Step::Acquire { service, .. } => *service,
                Step::Delay(d) => *d,
                // Best case: the epoch boundary is immediate.
                Step::AlignTo { extra, .. } => *extra,
                Step::Join { branches, need } => {
                    let mut durations: Vec<SimDuration> =
                        branches.iter().map(Plan::min_duration).collect();
                    durations.sort_unstable();
                    // The `need`-th fastest branch gates progress.
                    if *need == 0 || branches.is_empty() {
                        SimDuration::ZERO
                    } else {
                        durations[(*need).min(durations.len()) - 1]
                    }
                }
                // The abort ends the plan after its error latency.
                Step::Fail { latency } => return total + *latency,
            };
        }
        total
    }
}

snap_enum!(Step {
    0 => Acquire { resource, service },
    1 => Delay(d),
    2 => AlignTo { period, extra },
    3 => Join { branches, need },
    4 => Fail { latency },
});
snap_struct! { Plan { 0 } }

/// Fluent builder for plans.
#[derive(Clone, Debug)]
pub struct PlanBuilder {
    steps: Vec<Step>,
}

impl PlanBuilder {
    /// Occupies `resource` for `service` after FIFO queueing.
    pub fn acquire(mut self, resource: ResourceId, service: SimDuration) -> Self {
        self.steps.push(Step::Acquire { resource, service });
        self
    }

    /// Occupies `resource` only if `service` is non-zero (keeps plans
    /// small for engines that report zero-cost phases).
    pub fn acquire_nonzero(self, resource: ResourceId, service: SimDuration) -> Self {
        if service == SimDuration::ZERO {
            self
        } else {
            self.acquire(resource, service)
        }
    }

    /// Pure delay; a zero delay adds no step.
    pub fn delay(mut self, d: SimDuration) -> Self {
        if d != SimDuration::ZERO {
            self.steps.push(Step::Delay(d));
        }
        self
    }

    /// Pure delay that is a step of the plan even when `d` is zero — for
    /// callers whose completion *is* the signal (a timer), and for step
    /// lists that must not change shape with a configured latency.
    pub fn wait(mut self, d: SimDuration) -> Self {
        self.steps.push(Step::Delay(d));
        self
    }

    /// Group-commit alignment.
    pub fn align_to(mut self, period: SimDuration, extra: SimDuration) -> Self {
        self.steps.push(Step::AlignTo { period, extra });
        self
    }

    /// Parallel fan-out requiring all branches.
    pub fn join_all(mut self, branches: Vec<Plan>) -> Self {
        let need = branches.len();
        self.steps.push(Step::Join { branches, need });
        self
    }

    /// Parallel fan-out requiring a quorum of `need` branches.
    pub fn join_quorum(mut self, branches: Vec<Plan>, need: usize) -> Self {
        assert!(need <= branches.len(), "quorum larger than branch count");
        self.steps.push(Step::Join { branches, need });
        self
    }

    /// Unconditional failure after `latency`: the plan ends here with a
    /// failed outcome, whatever the resources it would have crossed do
    /// between planning and execution.
    pub fn fail(mut self, latency: SimDuration) -> Self {
        self.steps.push(Step::Fail { latency });
        self
    }

    /// Finishes the plan.
    pub fn finish(self) -> Plan {
        Plan(self.steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: ResourceId = ResourceId(0);

    #[test]
    fn builder_produces_expected_steps() {
        let plan = Plan::build()
            .acquire(R, SimDuration::from_micros(10))
            .delay(SimDuration::from_micros(5))
            .finish();
        assert_eq!(plan.0.len(), 2);
        assert_eq!(plan.min_duration(), SimDuration::from_micros(15));
    }

    #[test]
    fn zero_cost_steps_are_elided() {
        let plan = Plan::build()
            .acquire_nonzero(R, SimDuration::ZERO)
            .delay(SimDuration::ZERO)
            .finish();
        assert!(plan.0.is_empty());
    }

    #[test]
    fn wait_keeps_a_zero_delay_and_fail_ends_the_plan() {
        let plan = Plan::build()
            .wait(SimDuration::ZERO)
            .fail(SimDuration::from_micros(3))
            .delay(SimDuration::from_micros(9))
            .finish();
        assert_eq!(plan.total_steps(), 3);
        assert_eq!(plan.min_duration(), SimDuration::from_micros(3));
    }

    #[test]
    fn join_all_waits_for_slowest_branch() {
        let fast = Plan::build().delay(SimDuration::from_micros(1)).finish();
        let slow = Plan::build().delay(SimDuration::from_micros(9)).finish();
        let plan = Plan::build()
            .join_all(vec![fast.clone(), slow.clone()])
            .finish();
        assert_eq!(plan.min_duration(), SimDuration::from_micros(9));
        let quorum = Plan::build().join_quorum(vec![fast, slow], 1).finish();
        assert_eq!(quorum.min_duration(), SimDuration::from_micros(1));
    }

    #[test]
    fn total_steps_counts_nested_branches() {
        let inner = Plan::build().delay(SimDuration(1)).finish();
        let plan = Plan::build().join_all(vec![inner.clone(), inner]).finish();
        assert_eq!(plan.total_steps(), 3);
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn oversized_quorum_panics() {
        let _ = Plan::build().join_quorum(vec![Plan::empty()], 2);
    }
}
