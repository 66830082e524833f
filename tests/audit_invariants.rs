//! Kernel invariant checks on the real engine.
//!
//! Each test drives the engine — not the auditor in isolation — through
//! queueing, quorum joins, deadlines, and fault windows, and lets the
//! `KernelAuditor` every engine carries verify monotonicity, tie-breaking,
//! op conservation, and fault causality on every event pop. The twice-run
//! test then asserts the event-pop *fingerprints* match across runs:
//! determinism checked at the granularity of single events.

use apm_repro::sim::{Engine, FailMode, Plan, SimDuration, SimTime, Token};

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// A workload with everything that can perturb event ordering: a
/// contended resource, equal-time submissions, quorum joins,
/// fire-and-forget branches, a deadline, and a crash/restore window.
fn drive(engine: &mut Engine) -> Vec<(u64, u64)> {
    let cpu = engine.add_resource("cpu", 2);
    let disk = engine.add_resource("disk", 1);

    // Contended equal-time submissions (exercise FIFO tie-breaking).
    for i in 0..8 {
        engine.submit(Plan::build().acquire(cpu, us(50)).finish(), Token(i));
    }
    // Quorum join with fire-and-forget repair branches.
    for i in 8..12 {
        let branches = vec![
            Plan::build().acquire(disk, us(30)).finish(),
            Plan::build().acquire(cpu, us(20)).finish(),
            Plan::build().acquire(cpu, us(40)).finish(),
        ];
        engine.submit(Plan::build().join_quorum(branches, 2).finish(), Token(i));
        engine.submit(
            Plan::build()
                .join_quorum(vec![Plan::build().acquire(disk, us(5)).finish()], 0)
                .finish(),
            Token(100 + i),
        );
    }
    // Deadline that fires mid-queue.
    engine.submit_at_with_deadline(
        engine.now(),
        Plan::build().acquire(disk, us(500)).finish(),
        Token(40),
        us(120),
    );

    // Crash the disk mid-run with a stalled queue, then restore.
    let mut completions: Vec<(u64, u64)> = engine
        .run_until(SimTime(60_000))
        .into_iter()
        .map(|c| (c.token.0, c.finished.as_nanos()))
        .collect();
    engine.fail_resource(disk, FailMode::Stall);
    engine.submit(Plan::build().acquire(disk, us(10)).finish(), Token(50));
    completions.extend(
        engine
            .run_until(SimTime(200_000))
            .into_iter()
            .map(|c| (c.token.0, c.finished.as_nanos())),
    );
    engine.restore_resource(disk);
    // Reject-mode crash on the cpu after the restore traffic clears.
    engine.submit(
        Plan::build().delay(us(300)).acquire(cpu, us(10)).finish(),
        Token(60),
    );
    engine.fail_resource(cpu, FailMode::Reject { latency: us(1) });
    completions.extend(
        engine
            .run_to_idle()
            .into_iter()
            .map(|c| (c.token.0, c.finished.as_nanos())),
    );
    engine.restore_resource(cpu);
    completions
}

#[test]
fn identical_runs_pop_identical_event_sequences() {
    let mut a = Engine::new();
    let mut b = Engine::new();
    let ca = drive(&mut a);
    let cb = drive(&mut b);
    // Something was popped: the fingerprint left a fresh engine's.
    assert!(!ca.is_empty() && a.auditor().fingerprint() != Engine::new().auditor().fingerprint());
    assert_eq!(ca, cb, "completion streams diverged");
    assert_eq!(
        a.auditor().fingerprint(),
        b.auditor().fingerprint(),
        "event-pop sequences diverged between identical runs"
    );
    a.auditor().assert_conserved();
    b.auditor().assert_conserved();
}

#[test]
fn stalled_work_is_not_counted_complete_until_it_finishes() {
    let mut engine = Engine::new();
    let r = engine.add_resource("r", 1);
    engine.fail_resource(r, FailMode::Stall);
    engine.submit(Plan::build().acquire(r, us(10)).finish(), Token(1));
    // Drain: the op is parked behind the stalled resource.
    engine.run_to_idle();
    assert_eq!(engine.auditor().issued(), 1);
    assert_eq!(engine.auditor().completed(), 0);
    // After restore it finishes and the books balance.
    engine.restore_resource(r);
    engine.run_to_idle();
    engine.auditor().assert_conserved();
}
