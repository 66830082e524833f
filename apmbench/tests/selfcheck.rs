//! Self-checks (a)–(d): what makes `failed` and `failed_share` mean
//! something. Each check is shown to pass on good runs and to fire on a
//! bad one.

use apm_core::workload::Workload;
use apm_harness::experiment::{ExperimentProfile, StoreKind};
use apm_sim::ClusterSpec;
use apmbench::spans::{SpanLog, ROOT};
use apmbench::traced::{time_snapshot, trace_point, LayerAcc};
use apmbench::workloads::{
    reparse_results, run_pass, stats_bytes, PointSpec, WorkloadId, WorkloadPlan,
};
use std::path::PathBuf;

fn point(store: StoreKind, cluster: ClusterSpec, nodes: u32, workload: Workload) -> PointSpec {
    PointSpec {
        store,
        cluster,
        nodes,
        workload,
        profile: ExperimentProfile::test(),
        replication: 1,
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// (a) The traced loop and `run_point` agree on `issued`, per-kind
/// counts and the statistics' bytes: all six stores, reads, writes,
/// scans, both clusters.
#[test]
fn traced_loop_reproduces_run_point_for_every_store() {
    let mut points = Vec::new();
    for store in StoreKind::ALL {
        points.push(point(store, ClusterSpec::cluster_m(), 2, Workload::rw()));
        if store.supports_scans() {
            points.push(point(store, ClusterSpec::cluster_m(), 1, Workload::rs()));
        }
        if store.in_cluster_d_figures() {
            points.push(point(store, ClusterSpec::cluster_d(), 8, Workload::w()));
        }
    }
    let mut log = SpanLog::new();
    let mut acc = LayerAcc::default();
    for spec in &points {
        let reference = spec.run_reference();
        let traced = trace_point(spec, &mut acc, &mut log, ROOT);
        assert_eq!(
            traced.disagreement(&reference),
            None,
            "{} disagrees",
            spec.label()
        );
        assert!(traced.issued > 0);
    }
    // Every op fed the accumulators, and the layers nest inside the drive.
    assert_eq!(acc.plan_op.calls, acc.next_op.calls);
    assert_eq!(acc.plan_op.calls, acc.submit.calls);
    assert!(acc.record.calls > 0 && acc.record.calls <= acc.completions);
    assert!(acc.loop_self_ns() > 0 && acc.loop_self_ns() < acc.drive_ns);
    assert!(acc.drive_ns < acc.point_ns);
    assert_eq!(acc.plan_op_by_store.len(), StoreKind::ALL.len());
}

/// (a) fires: a reference from another seed is a disagreement.
#[test]
fn traced_loop_check_detects_a_different_run() {
    let spec = point(
        StoreKind::Redis,
        ClusterSpec::cluster_m(),
        1,
        Workload::rw(),
    );
    let mut other = spec.clone();
    other.profile.seed += 1;
    let traced = trace_point(&spec, &mut LayerAcc::default(), &mut SpanLog::new(), ROOT);
    assert!(traced.disagreement(&other.run_reference()).is_some());
}

/// Op-level spans: every 1024th op leaves an `op` span whose children
/// are the layer calls, and children never outlast their parent.
#[test]
fn sampled_ops_leave_nested_spans() {
    let spec = point(
        StoreKind::VoltDb,
        ClusterSpec::cluster_m(),
        1,
        Workload::r(),
    );
    let mut log = SpanLog::new();
    let traced = trace_point(&spec, &mut LayerAcc::default(), &mut log, ROOT);
    let spans = log.spans();
    let ops = spans.iter().filter(|s| s.name == "op").count() as u64;
    assert_eq!(ops, traced.issued.div_ceil(apmbench::traced::SAMPLE_EVERY));
    for name in [
        "build", "load", "drive", "next_op", "plan_op", "submit", "drain", "record",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
    for span in spans.iter().filter(|s| s.parent != ROOT) {
        let parent = &spans[span.parent as usize - 1];
        assert!(span.start_ns <= span.end_ns);
        // The drain that delivered an op may have begun before the op
        // was issued (it delivers a batch); everything else nests.
        if span.name != "drain" {
            assert!(
                parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                "{} escapes {}",
                span.name,
                parent.name
            );
        }
    }
    // The snapshot layer round-trips the state the loop left behind.
    let snap = time_snapshot(&spec, &traced, &mut log, ROOT).expect("snapshot round-trips");
    assert!(snap.bytes > 0);
}

/// (b) + (c) on `resilient_faults`: the resumed run reproduces the full
/// run's statistics, every ledger balances, the faults did fail some
/// simulated ops, and none of that counts as a benchmark failure.
#[test]
fn resilient_pass_resumes_to_the_same_bytes() {
    let plan = WorkloadPlan::generate(WorkloadId::ResilientFaults, 11);
    let pass = run_pass(&plan, &scratch("resilient"));
    assert_eq!(pass.problems(), Vec::<String>::new());
    assert_eq!(pass.failed_calls(), 0);
    assert_eq!(pass.runs.len(), 6, "a run and a resume per store");
    assert_eq!(pass.results.len(), 3);
    assert_eq!(pass.resilient.fault_events, 12);
    assert!(pass.resilient.checkpoints >= 6);
    assert!(pass.resilient.retries > 0 && pass.resilient.hedges > 0);
    assert!(pass.sim_failed() > 0, "a crash fails some simulated ops");
    let share = pass.failed_share();
    assert!(share > 0.0 && share < 0.2, "failed_share {share}");
    // Same seed, same bytes; another seed, other bytes.
    let again = run_pass(&plan, &scratch("resilient"));
    assert_eq!(again.sim_fingerprint, pass.sim_fingerprint);
    assert_eq!(
        stats_bytes(&again.results[0].stats),
        stats_bytes(&pass.results[0].stats)
    );
    let other = WorkloadPlan::generate(WorkloadId::ResilientFaults, 12);
    assert_ne!(
        other.resilient[0].config.faults,
        plan.resilient[0].config.faults
    );
}

/// (d) The `results.json` a pass writes round-trips through
/// `apm_harness::json::parse`; a damaged file does not.
#[test]
fn written_results_round_trip() {
    let out = scratch("points");
    let plan = WorkloadPlan::generate(WorkloadId::PointKernel, 3);
    let pass = run_pass(&plan, &out);
    assert_eq!(pass.problems(), Vec::<String>::new());
    assert_eq!(pass.runs.len(), plan.points.len());
    assert!(pass.output.bytes > 0);
    let dir = out.join("point_kernel");
    assert!(reparse_results(&dir).is_ok());
    let path = dir.join("results.json");
    let text = std::fs::read_to_string(&path).expect("results.json");
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");
    assert!(reparse_results(&dir).is_err());
}
