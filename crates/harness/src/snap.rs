//! Checkpoint / resume / bisect harness.
//!
//! Backs the `repro snapshot <store>` / `repro resume <file>` /
//! `repro bisect <store>` subcommands and the `ext-snap-resume`
//! extension. The invariant under test everywhere here: resuming from
//! any checkpoint reproduces the from-scratch run *byte-identically* —
//! same stats, same telemetry, same final kernel and store state, and
//! the same auditor fingerprints, for every store architecture.

use crate::experiment::{ExperimentProfile, Scenario, ScenarioRun, StoreKind};
use apm_core::report::Table;
use apm_core::snap::{fnv1a64, SnapError, SnapWriter};
use apm_core::workload::Workload;
use apm_sim::ClusterSpec;
use apm_stores::runner::{bisect_divergence, CheckpointSpec, RunResult};

/// Node count of the canonical snapshot scenario (Cluster M).
pub const NODES: u32 = 4;

/// The checkpoint cadence used by the subcommands and the extension:
/// four checkpoints across the measurement window.
pub fn default_spec(profile: &ExperimentProfile) -> CheckpointSpec {
    CheckpointSpec::every(profile.measure_secs / 4.0)
}

/// The scenario shared by `repro snapshot` and `repro resume`. Derived
/// purely from the store, the profile and the spec, so the resume side
/// reconstructs it bit-for-bit and the sealed config fingerprint holds.
fn snap_scenario(store: StoreKind, profile: &ExperimentProfile, spec: CheckpointSpec) -> Scenario {
    let mut scenario = Scenario::new(
        store,
        ClusterSpec::cluster_m(),
        NODES,
        &Workload::rw(),
        profile,
    );
    scenario.config.checkpoints = Some(spec);
    scenario
}

/// A completed (straight or resumed) run plus its end-state fingerprint.
///
/// Two fingerprints tell "same run" from "same encoding":
/// [`RunResult::results_fingerprint`] covers what the run reports and
/// holds across checkpoint formats; [`SnapRun::fingerprint`] also covers
/// the final state as this build encodes it, so a format change moves it
/// while every reported number stands.
pub struct SnapRun {
    pub result: RunResult,
    /// FNV-1a over the reported statistics *and* the final store and
    /// kernel state. The kernel serializes its auditor, so the audit
    /// fingerprint participates: two equal fingerprints mean two runs
    /// were indistinguishable end to end. A trace's never does — the span
    /// tracer is not kernel state — so tracing moves no fingerprint.
    pub fingerprint: u64,
}

impl From<ScenarioRun> for SnapRun {
    fn from(run: ScenarioRun) -> SnapRun {
        let mut w = SnapWriter::new();
        w.put(&run.result.stats);
        w.put_u64(run.result.issued);
        w.put(&run.result.disk_bytes_per_node);
        w.put(&run.result.telemetry);
        run.store.snap_state(&mut w);
        run.engine.snap_state(&mut w);
        SnapRun {
            fingerprint: fnv1a64(w.bytes()),
            result: run.result,
        }
    }
}

/// Runs the canonical scenario with checkpoints enabled.
pub fn snapshot_run(store: StoreKind, profile: &ExperimentProfile) -> SnapRun {
    run_with_spec(store, profile, default_spec(profile))
}

fn run_with_spec(store: StoreKind, profile: &ExperimentProfile, spec: CheckpointSpec) -> SnapRun {
    snap_scenario(store, profile, spec).run().into()
}

/// Resumes the canonical scenario from a sealed checkpoint.
pub fn resume_run(
    store: StoreKind,
    profile: &ExperimentProfile,
    snapshot: &[u8],
) -> Result<SnapRun, SnapError> {
    let scenario = snap_scenario(store, profile, default_spec(profile));
    Ok(scenario.resume(snapshot)?.into())
}

/// Result of localizing an injected divergence.
pub struct BisectOutcome {
    /// Checkpoints the two runs have in common.
    pub checkpoints: usize,
    /// Index of the first divergent checkpoint, if any.
    pub first_divergent: Option<u32>,
    /// Virtual-time window `(start_ns, end_ns]` the divergence lies in:
    /// from the last agreeing checkpoint (or time zero) to the first
    /// divergent one.
    pub window_ns: Option<(u64, u64)>,
}

/// Runs the scenario clean and with a one-draw perturbation injected
/// `perturb_at_secs` after warm-up, then bisects the checkpoint streams
/// to localize the first divergent virtual-time window.
pub fn bisect_run(
    store: StoreKind,
    profile: &ExperimentProfile,
    perturb_at_secs: f64,
) -> BisectOutcome {
    let every = default_spec(profile);
    let clean = run_with_spec(store, profile, every.clone());
    let perturbed = run_with_spec(
        store,
        profile,
        CheckpointSpec {
            perturb_at_secs: Some(perturb_at_secs),
            ..every
        },
    );
    let a = &clean.result.checkpoints;
    let b = &perturbed.result.checkpoints;
    let first_divergent = bisect_divergence(a, b);
    let window_ns = first_divergent.map(|k| {
        let end = a[k as usize].at.0;
        let start = if k == 0 { 0 } else { a[k as usize - 1].at.0 };
        (start, end)
    });
    BisectOutcome {
        checkpoints: a.len().min(b.len()),
        first_divergent,
        window_ns,
    }
}

/// `ext-snap-resume`: for every store, checkpoint the canonical run,
/// resume it from the middle checkpoint, and verify the continuation is
/// byte-identical; then inject a divergence and bisect it. Columns:
/// checkpoint count, resume fingerprint match (1 = identical), and the
/// checkpoint index the bisection localized the divergence to.
pub fn snap_resume(profile: &ExperimentProfile) -> Table {
    // Perturb 55% of the way through the window: inside checkpoint
    // window 2 of 4 (boundaries every quarter window; 0.55 ∈ (0.5, 0.75]).
    let perturb_at = profile.measure_secs * 0.55;
    let mut table = Table::new(
        "Extension: snapshot/resume equivalence and divergence bisection (workload RW, 4 nodes)",
        "store",
        "count | 0/1 | index",
    );
    table.columns = vec![
        "checkpoints".into(),
        "resume_match".into(),
        "divergent_at".into(),
    ];
    for kind in StoreKind::ALL {
        let straight = snapshot_run(kind, profile);
        let middle = &straight.result.checkpoints[straight.result.checkpoints.len() / 2];
        let resumed = resume_run(kind, profile, &middle.bytes).expect("resume succeeds");
        let matched = resumed.fingerprint == straight.fingerprint;
        let bisect = bisect_run(kind, profile, perturb_at);
        table.push_row(
            kind.name(),
            vec![
                Some(straight.result.checkpoints.len() as f64),
                Some(if matched { 1.0 } else { 0.0 }),
                bisect.first_divergent.map(f64::from),
            ],
        );
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
    fn cassandra_resume_reproduces_the_straight_run() {
        let straight = snapshot_run(StoreKind::Cassandra, &profile());
        assert!(
            straight.result.checkpoints.len() >= 3,
            "too few checkpoints: {}",
            straight.result.checkpoints.len()
        );
        for cp in &straight.result.checkpoints {
            let resumed = resume_run(StoreKind::Cassandra, &profile(), &cp.bytes).expect("resume");
            assert_eq!(
                resumed.fingerprint, straight.fingerprint,
                "resume from checkpoint {} drifted",
                cp.index
            );
        }
    }

    #[test]
    fn bisect_localizes_the_injected_draw() {
        let p = profile();
        let outcome = bisect_run(StoreKind::Redis, &p, p.measure_secs * 0.55);
        assert_eq!(outcome.first_divergent, Some(2));
        let (start, end) = outcome.window_ns.expect("window");
        assert!(start < end);
        // The perturbation time lies inside the reported window.
        let perturb_ns = ((p.warmup_secs + p.measure_secs * 0.55) * 1e9) as u64;
        assert!(
            (start..=end).contains(&perturb_ns),
            "perturbation at {perturb_ns} outside window {start}..{end}"
        );
    }

    #[test]
    fn resume_rejects_the_wrong_store_config() {
        let straight = snapshot_run(StoreKind::Voldemort, &profile());
        let cp = &straight.result.checkpoints[0];
        match resume_run(StoreKind::Redis, &profile(), &cp.bytes) {
            Err(SnapError::ConfigMismatch { .. }) => {}
            other => panic!(
                "expected ConfigMismatch, got {:?}",
                other.map(|r| r.fingerprint)
            ),
        }
    }
}
