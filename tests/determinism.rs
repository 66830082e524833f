//! Full-stack determinism: identical seeds reproduce identical runs.
//!
//! §3 averaged three executions because real clusters are noisy; the
//! simulator's value is that a run is exactly repeatable — every recorded
//! number in EXPERIMENTS.md can be regenerated bit-for-bit.

use apm_repro::core::ops::OpKind;
use apm_repro::core::workload::Workload;
use apm_repro::harness::experiment::{run_point, ExperimentProfile, StoreKind};
use apm_repro::harness::faults::{crash_failover, partition, slow_disk};
use apm_repro::sim::ClusterSpec;

fn fingerprint(store: StoreKind, seed: u64) -> (u64, u64, u64, Option<u64>) {
    let profile = ExperimentProfile {
        seed,
        ..ExperimentProfile::test()
    };
    let point = run_point(
        store,
        ClusterSpec::cluster_m(),
        2,
        &Workload::rw(),
        &profile,
    );
    (
        point.result.stats.total_ops(),
        point.result.issued,
        point.result.stats.ops(OpKind::Insert),
        point.result.disk_bytes_per_node,
    )
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    for store in StoreKind::ALL {
        let a = fingerprint(store, 1234);
        let b = fingerprint(store, 1234);
        assert_eq!(a, b, "{} diverged across identical runs", store.name());
    }
}

#[test]
fn different_seeds_change_the_operation_stream() {
    let a = fingerprint(StoreKind::Cassandra, 1);
    let b = fingerprint(StoreKind::Cassandra, 2);
    // Total completed ops differ almost surely when the op stream differs;
    // if throughput coincided, the issued count still reflects ordering.
    assert_ne!((a.0, a.1), (b.0, b.1), "seed must influence the run");
}

/// Regression test for the D2 (`hash-order`) audit fixes: the store
/// background-job maps used to be `HashMap`s, so a run with crash
/// faults — which iterates those maps during failover and hint replay —
/// could diverge between executions. With `BTreeMap` the whole fault
/// table (availability, error counts, phase throughputs, recovery
/// times) must be bit-identical across two runs. The slow-disk and
/// partition experiments likewise; every engine in them carries the
/// kernel auditor, so an invariant breach anywhere panics the test.
#[test]
fn fault_experiments_are_deterministic_across_runs() {
    let profile = ExperimentProfile::test();
    for (name, gen) in [
        (
            "ext-faults-crash",
            crash_failover as fn(&ExperimentProfile) -> _,
        ),
        ("ext-faults-slowdisk", slow_disk),
        ("ext-faults-partition", partition),
    ] {
        let a = gen(&profile);
        let b = gen(&profile);
        assert_eq!(a.rows, b.rows, "{name}: row set diverged");
        assert_eq!(a.columns, b.columns, "{name}: column set diverged");
        // Option<f64> equality is bitwise for the finite values the
        // tables hold — byte-identical or bust.
        assert_eq!(
            a.cells, b.cells,
            "{name}: cell values diverged across identical runs"
        );
    }
}

/// The observability additions must be as replayable as the runs they
/// observe: two executions of the virtual-time profiler and of the
/// windowed telemetry timeline must agree to the bit (utilisations are
/// compared via `to_bits`, not approximately).
#[test]
fn observability_tables_are_deterministic_across_runs() {
    let profile = ExperimentProfile::test();
    let bits = |t: &apm_repro::core::report::Table| -> Vec<Vec<Option<u64>>> {
        t.cells
            .iter()
            .map(|row| row.iter().map(|c| c.map(f64::to_bits)).collect())
            .collect()
    };
    let a = apm_repro::harness::obs::time_attribution(&profile);
    let b = apm_repro::harness::obs::time_attribution(&profile);
    assert_eq!(a.rows, b.rows);
    assert_eq!(bits(&a), bits(&b), "profiler attribution diverged");
    let c = apm_repro::harness::obs::telemetry_timeline(&profile);
    let d = apm_repro::harness::obs::telemetry_timeline(&profile);
    assert_eq!(c.rows, d.rows);
    assert_eq!(bits(&c), bits(&d), "telemetry timeline diverged");
}

#[test]
fn latency_statistics_are_reproducible_to_the_nanosecond() {
    let profile = ExperimentProfile::test();
    let run = || {
        let p = run_point(
            StoreKind::Voldemort,
            ClusterSpec::cluster_m(),
            2,
            &Workload::r(),
            &profile,
        );
        (
            p.result
                .stats
                .histogram(OpKind::Read)
                .map(|h| (h.count(), h.min(), h.max())),
            p.result
                .stats
                .histogram(OpKind::Insert)
                .map(|h| (h.count(), h.min(), h.max())),
        )
    };
    assert_eq!(run(), run());
}
