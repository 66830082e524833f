//! Randomized-property tests of the benchmark core: histogram accuracy,
//! key codec bijectivity, workload mix conformance.
//!
//! These used to run under `proptest`; the workspace now builds fully
//! offline, so the same invariants are exercised with seeded
//! `SplitRng`-driven case loops (deterministic, no shrinking — the case
//! index is printed on failure instead).

use apm_core::keyspace::{key_for_seq, scramble, KeyDistribution, SplitRng};
use apm_core::ops::{OpKind, Operation};
use apm_core::record::MetricKey;
use apm_core::stats::Histogram;
use apm_core::workload::{OpMix, Workload, WorkloadGenerator};

const CASES: u64 = 64;

#[test]
fn histogram_quantiles_track_exact_values() {
    let mut root = SplitRng::new(0x4869_7374);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let len = 10 + rng.next_below(490) as usize;
        let values: Vec<u64> = (0..len)
            .map(|_| 1 + rng.next_below(10_000_000_000 - 1))
            .collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(h.count(), values.len() as u64, "case {case}");
        assert_eq!(h.min(), sorted[0], "case {case}");
        assert_eq!(h.max(), *sorted.last().unwrap(), "case {case}");
        let exact_mean = sorted.iter().map(|&v| v as f64).sum::<f64>() / sorted.len() as f64;
        assert!(
            (h.mean() - exact_mean).abs() < 1e-6 * exact_mean.max(1.0),
            "case {case}"
        );
        for q in [0.1, 0.5, 0.9, 0.99] {
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            let exact = sorted[idx] as f64;
            let approx = h.quantile(q) as f64;
            // Log-bucketed: ≤ ~2/32 relative quantisation error, plus the
            // discrete index ambiguity for tiny samples.
            let tolerance = (exact * 0.08).max(2.0);
            assert!(
                (approx - exact).abs() <= tolerance,
                "case {case} q={q}: approx {approx} vs exact {exact}"
            );
        }
    }
}

#[test]
fn histogram_merge_equals_bulk_recording() {
    let mut root = SplitRng::new(0x6D65_7267);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let sample = |rng: &mut SplitRng| -> Vec<u64> {
            let len = 1 + rng.next_below(199) as usize;
            (0..len).map(|_| 1 + rng.next_below(999_999)).collect()
        };
        let a = sample(&mut rng);
        let b = sample(&mut rng);
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hall = Histogram::new();
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        ha.merge(&hb);
        assert_eq!(ha.count(), hall.count(), "case {case}");
        assert_eq!(ha.min(), hall.min(), "case {case}");
        assert_eq!(ha.max(), hall.max(), "case {case}");
        for q in [0.25, 0.5, 0.75, 0.95] {
            assert_eq!(ha.quantile(q), hall.quantile(q), "case {case} q={q}");
        }
    }
}

#[test]
fn key_scramble_is_injective_and_keys_roundtrip() {
    let mut root = SplitRng::new(0x6B65_7973);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let len = 1 + rng.next_below(199) as usize;
        let seqs: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let mut unique = std::collections::BTreeSet::new();
        for &seq in &seqs {
            unique.insert(scramble(seq));
            let key = key_for_seq(seq);
            assert_eq!(MetricKey::from_id(scramble(seq)), key, "case {case}");
            assert_eq!(key.to_id(), Some(scramble(seq)), "case {case}");
        }
        let distinct_inputs: std::collections::BTreeSet<_> = seqs.iter().collect();
        assert_eq!(unique.len(), distinct_inputs.len(), "case {case}");
    }
}

#[test]
fn arbitrary_valid_mixes_generate_conforming_streams() {
    let mut root = SplitRng::new(0x6D69_7865);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let read = rng.next_below(101) as u8;
        let scan = (rng.next_below(101) as u8).min(100 - read);
        let insert = 100 - read - scan;
        let mix = OpMix::new(read, scan, insert, 0).expect("sums to 100");
        let workload = Workload {
            name: "prop",
            mix,
            distribution: KeyDistribution::Uniform,
            scan_length: 50,
        };
        let mut generator = WorkloadGenerator::new(workload, 1_000, 11);
        let total = 5_000u64;
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..total {
            let op = generator.next_op();
            if op.kind() == OpKind::Insert {
                generator.ack_insert();
            }
            *counts.entry(op.kind()).or_insert(0u64) += 1;
        }
        let pct = |k: OpKind| 100.0 * *counts.get(&k).unwrap_or(&0) as f64 / total as f64;
        assert!(
            (pct(OpKind::Read) - read as f64).abs() < 4.0,
            "case {case} read mix"
        );
        assert!(
            (pct(OpKind::Scan) - scan as f64).abs() < 4.0,
            "case {case} scan mix"
        );
        assert!(
            (pct(OpKind::Insert) - insert as f64).abs() < 4.0,
            "case {case} insert mix"
        );
    }
}

#[test]
fn rng_next_below_is_unbiased_enough() {
    let mut root = SplitRng::new(0x756E_6266);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let seed = rng.next_u64();
        let bound = 1 + rng.next_below(49);
        let mut sampler = SplitRng::new(seed);
        let mut counts = vec![0u32; bound as usize];
        let n = 2_000 * bound as usize;
        for _ in 0..n {
            counts[sampler.next_below(bound) as usize] += 1;
        }
        let expectation = n as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expectation * 0.7 && (c as f64) < expectation * 1.3,
                "case {case} bucket {i} count {c} vs expectation {expectation}"
            );
        }
    }
}

#[test]
fn generator_reads_target_existing_records() {
    let mut root = SplitRng::new(0x7265_6164);
    for case in 0..CASES {
        let mut rng = root.split(case);
        let initial = 1 + rng.next_below(4_999);
        let mut generator = WorkloadGenerator::new(Workload::r(), initial, 23);
        for _ in 0..500 {
            match generator.next_op() {
                Operation::Read { key } => {
                    let id = key.to_id().expect("benchmark key");
                    // The read key must be the scramble of some seq < acked.
                    let found = (0..generator.record_count()).any(|s| scramble(s) == id);
                    assert!(found, "case {case}: read of nonexistent record");
                    break; // One verification per case keeps this O(n).
                }
                Operation::Insert { .. } => generator.ack_insert(),
                _ => {}
            }
        }
    }
}
