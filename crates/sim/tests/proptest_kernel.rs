//! Randomized-property tests of the discrete-event kernel's invariants,
//! driven by seeded `SplitRng` case loops (the workspace builds offline,
//! so no proptest; the case index is printed on failure).

use apm_core::keyspace::SplitRng;
use apm_sim::kernel::{Engine, Token};
use apm_sim::plan::Plan;
use apm_sim::time::SimDuration;

const CASES: u64 = 128;

/// A randomly-shaped leaf plan: 1–5 steps, each either a short delay or
/// an acquire of a random resource.
fn random_leaf(rng: &mut SplitRng) -> Vec<(u8, u64)> {
    let len = 1 + rng.next_below(5) as usize;
    (0..len)
        .map(|_| (rng.next_below(2) as u8, 1 + rng.next_below(4_999)))
        .collect()
}

fn build_plan(leaf: &[(u8, u64)], resources: &[apm_sim::ResourceId]) -> Plan {
    leaf.iter()
        .fold(Plan::build(), |b, &(kind, amount)| {
            let d = SimDuration::from_nanos(amount);
            match kind {
                0 => b.delay(d),
                _ => b.acquire(resources[(amount % resources.len() as u64) as usize], d),
            }
        })
        .finish()
}

#[test]
fn every_submitted_plan_completes_exactly_once() {
    let mut root = SplitRng::new(0x6F6E_6365);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let mut engine = Engine::new();
        let n_resources = 1 + rng.next_below(3) as usize;
        let resources: Vec<_> = (0..n_resources)
            .map(|i| engine.add_resource(format!("r{i}"), 1 + rng.next_below(3) as u32))
            .collect();
        let n_plans = 1 + rng.next_below(39) as usize;
        for i in 0..n_plans {
            let leaf = random_leaf(&mut rng);
            engine.submit(build_plan(&leaf, &resources), Token(i as u64));
        }
        let completions = engine.run_to_idle();
        assert_eq!(completions.len(), n_plans, "case {case}");
        let mut tokens: Vec<u64> = completions.iter().map(|c| c.token.0).collect();
        tokens.sort_unstable();
        let expect: Vec<u64> = (0..n_plans as u64).collect();
        assert_eq!(tokens, expect, "case {case}: every token exactly once");
    }
}

#[test]
fn latency_is_at_least_the_plan_floor() {
    let mut root = SplitRng::new(0x666C_6F6F);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let mut engine = Engine::new();
        let r = engine.add_resource("r", 1);
        let leaf = random_leaf(&mut rng);
        let plan = build_plan(&leaf, &[r]);
        let floor = plan.min_duration();
        engine.submit(plan, Token(0));
        let c = engine.next_completion().expect("completes");
        assert!(
            c.latency() >= floor,
            "case {case}: latency {} below floor {}",
            c.latency(),
            floor
        );
    }
}

#[test]
fn completions_are_time_ordered() {
    let mut root = SplitRng::new(0x6F72_6465);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let mut engine = Engine::new();
        let r = engine.add_resource("r", 2);
        let n_plans = 2 + rng.next_below(28) as usize;
        for i in 0..n_plans {
            let leaf = random_leaf(&mut rng);
            engine.submit(build_plan(&leaf, &[r]), Token(i as u64));
        }
        let completions = engine.run_to_idle();
        for w in completions.windows(2) {
            assert!(
                w[0].finished <= w[1].finished,
                "case {case}: completions out of order"
            );
        }
    }
}

#[test]
fn capacity_one_resource_serialises_work() {
    let mut root = SplitRng::new(0x7365_7269);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let mut engine = Engine::new();
        let disk = engine.add_resource("disk", 1);
        let n_jobs = 2 + rng.next_below(18) as usize;
        let services: Vec<u64> = (0..n_jobs).map(|_| 1 + rng.next_below(9_999)).collect();
        for (i, &svc) in services.iter().enumerate() {
            let plan = Plan::build().acquire(disk, SimDuration::from_nanos(svc));
            engine.submit(plan.finish(), Token(i as u64));
        }
        engine.run_to_idle();
        // A capacity-1 server finishing all jobs takes exactly the sum.
        let total: u64 = services.iter().sum();
        assert_eq!(engine.now().as_nanos(), total, "case {case}");
        assert_eq!(engine.served(disk), services.len() as u64, "case {case}");
        // Fully busy until the end.
        assert!((engine.utilization(disk) - 1.0).abs() < 1e-9, "case {case}");
    }
}

#[test]
fn quorum_latency_never_exceeds_join_all() {
    let mut root = SplitRng::new(0x716A_6F69);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let n_branches = 2 + rng.next_below(6) as usize;
        let branch_delays: Vec<u64> = (0..n_branches)
            .map(|_| 1 + rng.next_below(99_999))
            .collect();
        let need = (1 + rng.next_below(3) as usize).min(branch_delays.len());
        let branches: Vec<Plan> = branch_delays
            .iter()
            .map(|&d| Plan::build().delay(SimDuration::from_nanos(d)).finish())
            .collect();
        let mut all_engine = Engine::new();
        all_engine.submit(Plan::build().join_all(branches.clone()).finish(), Token(0));
        let all = all_engine.next_completion().unwrap().latency();
        let mut q_engine = Engine::new();
        q_engine.submit(Plan::build().join_quorum(branches, need).finish(), Token(0));
        let quorum = q_engine.next_completion().unwrap().latency();
        assert!(
            quorum <= all,
            "case {case}: quorum {quorum} beats join_all {all}"
        );
    }
}
