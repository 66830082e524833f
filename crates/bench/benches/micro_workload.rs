//! Microbenchmarks of workload generation and statistics. (The raw
//! simulator event loop is benched in `kernel.rs`, which owns
//! `BENCH_kernel.json`.)

use apm_bench::runner::{black_box, Group};
use apm_core::stats::{BenchStats, Histogram};
use apm_core::workload::{Workload, WorkloadGenerator};

fn bench_workload_gen() {
    let group = Group::new("workload");
    for workload in [Workload::r(), Workload::w(), Workload::rsw()] {
        let name = format!("next_op_{}", workload.name);
        let mut generator = WorkloadGenerator::new(workload.clone(), 1_000_000, 7);
        group.bench(&name, || {
            let op = generator.next_op();
            if op.kind() == apm_core::ops::OpKind::Insert {
                generator.ack_insert();
            }
            black_box(op.kind())
        });
    }
}

fn bench_histogram() {
    let group = Group::new("histogram");
    let mut h = Histogram::new();
    let mut v = 1u64;
    group.bench("record", || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        h.record(black_box(v % 100_000_000));
    });
    for v in 0..1_000_000u64 {
        h.record(v * 131 % 100_000_000);
    }
    group.bench("quantile_p99", || black_box(h.quantile(0.99)));
    let mut stats = BenchStats::new();
    group.bench("bench_stats_record", || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        stats.record(apm_core::ops::OpKind::Insert, v % 10_000_000);
    });
}

fn main() {
    bench_workload_gen();
    bench_histogram();
}
