//! Latency histograms and benchmark statistics.
//!
//! The paper reports average operation latencies on logarithmic axes and
//! maximum sustainable throughput. We record latencies in a log-bucketed
//! histogram (HDR-style: power-of-two buckets with linear sub-buckets,
//! ~1.6 % relative error) so percentiles are available too — useful for
//! the bounded-throughput experiment (§5.6) and extensions.

use crate::ops::OpKind;
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::snap_struct;
use std::collections::BTreeMap;

/// Number of linear sub-buckets per power-of-two bucket. 32 sub-buckets
/// bound the relative quantisation error by 1/32 ≈ 3 %.
const SUB_BUCKETS: usize = 32;
const SUB_BUCKET_BITS: u32 = 5;
/// Number of power-of-two buckets — enough to cover the full `u64` range.
const BUCKETS: usize = 60;

/// A log-bucketed latency histogram over `u64` nanosecond values.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS * SUB_BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_for(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        // Normalise the value to a mantissa in [32, 64): the implicit top
        // bit plus SUB_BUCKET_BITS explicit bits. Bucket b >= 1 covers
        // values in [32 << (b-1), 64 << (b-1)).
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BUCKET_BITS;
        let bucket = (shift + 1) as usize;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        (bucket.min(BUCKETS - 1)) * SUB_BUCKETS + sub
    }

    /// Lower bound of the value range covered by slot `index`.
    fn value_for(index: usize) -> u64 {
        let bucket = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if bucket == 0 {
            sub
        } else {
            (SUB_BUCKETS as u64 + sub) << (bucket - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index_for(value)] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact arithmetic mean of the recorded samples.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`), with ~3 % relative
    /// quantisation error.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_for(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

// Hand-written: sparse — only occupied slots are written, and `restore`
// refuses a slot index past the table.
impl Snap for Histogram {
    fn snap(&self, w: &mut SnapWriter) {
        let Histogram {
            counts,
            total,
            sum,
            min,
            max,
        } = self;
        // Sparse encoding: most of the 1920 slots are empty in short runs.
        let occupied: Vec<(u64, u64)> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i as u64, c))
            .collect();
        w.put(&occupied);
        w.put_u64(*total);
        w.put_u128(*sum);
        w.put_u64(*min);
        w.put_u64(*max);
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        let occupied: Vec<(u64, u64)> = r.get()?;
        let mut counts = Histogram::new().counts;
        for (i, c) in occupied {
            let slot = counts.get_mut(i as usize).ok_or(SnapError::BadTag {
                what: "Histogram slot",
                tag: i,
            })?;
            *slot = c;
        }
        Ok(Histogram {
            counts,
            total: r.u64()?,
            sum: r.u128()?,
            min: r.u64()?,
            max: r.u64()?,
        })
    }
}

/// Client-side resilience-policy activity over one benchmark run
/// (retries, hedged reads, circuit-breaker transitions, load shedding).
/// All zero when no policy is configured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Retry attempts issued (beyond each op's primary attempt).
    pub retries: u64,
    /// Hedged (speculative duplicate) reads issued.
    pub hedges: u64,
    /// Hedged reads that finished before their primary and succeeded.
    pub hedge_wins: u64,
    /// Circuit-breaker state transitions across all targets.
    pub breaker_transitions: u64,
    /// Operations or extra attempts shed by a breaker or the admission
    /// budget (counted as rejections, not errors).
    pub shed: u64,
}

impl ResilienceCounters {
    /// Adds another run's counters into this one.
    pub fn merge(&mut self, other: &ResilienceCounters) {
        self.retries += other.retries;
        self.hedges += other.hedges;
        self.hedge_wins += other.hedge_wins;
        self.breaker_transitions += other.breaker_transitions;
        self.shed += other.shed;
    }
}

snap_struct! { ResilienceCounters { retries, hedges, hedge_wins, breaker_transitions, shed } }

/// Aggregated results of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct BenchStats {
    /// Latency histograms per operation kind (nanoseconds).
    per_kind: BTreeMap<OpKind, Histogram>,
    /// Operations rejected by the store, per kind.
    rejected: BTreeMap<OpKind, u64>,
    /// Operations that errored (node down, timeout, lost data), per kind.
    errors: BTreeMap<OpKind, u64>,
    /// Measurement window length in nanoseconds.
    window_ns: u64,
    /// Completed operations per one-second bucket since window start
    /// (the throughput timeline used by the elasticity experiment).
    timeline: Vec<u64>,
    /// Errored operations per one-second bucket since window start.
    error_timeline: Vec<u64>,
    /// Resilience-policy activity (zero without a policy).
    resilience: ResilienceCounters,
}

impl BenchStats {
    /// Creates empty stats.
    pub fn new() -> Self {
        BenchStats::default()
    }

    /// Records a completed operation of `kind` with the given latency.
    pub fn record(&mut self, kind: OpKind, latency_ns: u64) {
        self.per_kind.entry(kind).or_default().record(latency_ns);
    }

    /// Records a completion at `offset_ns` past the window start on the
    /// per-second throughput timeline.
    pub fn record_timeline(&mut self, offset_ns: u64) {
        let bucket = (offset_ns / 1_000_000_000) as usize;
        if bucket >= self.timeline.len() {
            self.timeline.resize(bucket + 1, 0);
        }
        self.timeline[bucket] += 1;
    }

    /// Per-second completed-operation counts since the window start.
    pub fn timeline(&self) -> &[u64] {
        &self.timeline
    }

    /// Records a rejected operation.
    pub fn record_rejection(&mut self, kind: OpKind) {
        *self.rejected.entry(kind).or_default() += 1;
    }

    /// Records an errored operation (connection refused, timed out, or
    /// data lost to a crash) at `offset_ns` past the window start.
    pub fn record_error(&mut self, kind: OpKind, offset_ns: u64) {
        *self.errors.entry(kind).or_default() += 1;
        let bucket = (offset_ns / 1_000_000_000) as usize;
        if bucket >= self.error_timeline.len() {
            self.error_timeline.resize(bucket + 1, 0);
        }
        self.error_timeline[bucket] += 1;
    }

    /// Per-second errored-operation counts since the window start.
    pub fn error_timeline(&self) -> &[u64] {
        &self.error_timeline
    }

    /// Total errored operations.
    pub fn total_errors(&self) -> u64 {
        self.errors.values().sum()
    }

    /// Errored operation count for `kind`.
    pub fn errors(&self, kind: OpKind) -> u64 {
        self.errors.get(&kind).copied().unwrap_or(0)
    }

    /// Fraction of attempted operations that succeeded (1.0 with no
    /// errors; rejections are back-pressure, not failures, and don't
    /// count against availability).
    pub fn availability(&self) -> f64 {
        let ok = self.total_ops();
        let attempted = ok + self.total_errors();
        if attempted == 0 {
            1.0
        } else {
            ok as f64 / attempted as f64
        }
    }

    /// Seconds from `restore_sec` until per-second throughput first
    /// sustains ≥ `threshold` × the pre-fault baseline (the mean of the
    /// seconds strictly before `fault_sec`). `None` when throughput never
    /// recovers inside the window.
    pub fn recovery_secs(
        &self,
        fault_sec: usize,
        restore_sec: usize,
        threshold: f64,
    ) -> Option<u64> {
        let pre: &[u64] = self.timeline.get(..fault_sec)?;
        if pre.is_empty() {
            return None;
        }
        let baseline = pre.iter().sum::<u64>() as f64 / pre.len() as f64;
        let target = baseline * threshold;
        for (i, &ops) in self.timeline.iter().enumerate().skip(restore_sec) {
            if ops as f64 >= target {
                return Some((i - restore_sec) as u64);
            }
        }
        None
    }

    /// Sets the measurement window (for throughput computation).
    pub fn set_window_ns(&mut self, window_ns: u64) {
        self.window_ns = window_ns;
    }

    /// Measurement window in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Total successful operations across kinds.
    pub fn total_ops(&self) -> u64 {
        self.per_kind.values().map(Histogram::count).sum()
    }

    /// Total rejected operations.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.values().sum()
    }

    /// Overall throughput in operations per second.
    pub fn throughput(&self) -> f64 {
        if self.window_ns == 0 {
            0.0
        } else {
            self.total_ops() as f64 * 1e9 / self.window_ns as f64
        }
    }

    /// Mean latency of `kind` in milliseconds, or `None` if no sample.
    pub fn mean_latency_ms(&self, kind: OpKind) -> Option<f64> {
        self.per_kind
            .get(&kind)
            .filter(|h| h.count() > 0)
            .map(|h| h.mean() / 1e6)
    }

    /// Quantile latency of `kind` in milliseconds.
    pub fn quantile_latency_ms(&self, kind: OpKind, q: f64) -> Option<f64> {
        self.per_kind
            .get(&kind)
            .filter(|h| h.count() > 0)
            .map(|h| h.quantile(q) as f64 / 1e6)
    }

    /// Successful operation count for `kind`.
    pub fn ops(&self, kind: OpKind) -> u64 {
        self.per_kind.get(&kind).map_or(0, Histogram::count)
    }

    /// Histogram for `kind`, if any sample was recorded.
    pub fn histogram(&self, kind: OpKind) -> Option<&Histogram> {
        self.per_kind.get(&kind)
    }

    /// Resilience-policy counters (all zero without a policy).
    pub fn resilience(&self) -> &ResilienceCounters {
        &self.resilience
    }

    /// Mutable resilience counters, for the benchmark driver.
    pub fn resilience_mut(&mut self) -> &mut ResilienceCounters {
        &mut self.resilience
    }

    /// Merges another run's stats (used to average repeated executions,
    /// §3: "the reported results are the average of at least 3
    /// independent executions").
    pub fn merge(&mut self, other: &BenchStats) {
        for (kind, hist) in &other.per_kind {
            self.per_kind.entry(*kind).or_default().merge(hist);
        }
        for (kind, n) in &other.rejected {
            *self.rejected.entry(*kind).or_default() += n;
        }
        for (kind, n) in &other.errors {
            *self.errors.entry(*kind).or_default() += n;
        }
        self.window_ns += other.window_ns;
        self.resilience.merge(&other.resilience);
    }
}

snap_struct! {
    BenchStats { per_kind, rejected, errors, window_ns, timeline, error_timeline, resilience }
}

/// Utilisation and queue depth of one resource class over one window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceSample {
    /// Fraction of the class's server-time spent busy during the window.
    pub utilization: f64,
    /// Waiting requests (not in service) sampled at the window boundary.
    pub queue_depth: f64,
}

snap_struct! { ResourceSample { utilization, queue_depth } }

/// One telemetry window: op counts, a latency histogram, and per-class
/// resource samples.
#[derive(Clone, Debug, Default)]
pub struct TelemetryWindow {
    ops: u64,
    errors: u64,
    /// Operations the store or a resilience policy rejected/shed in this
    /// window (back-pressure, not failures — excluded from [`Self::ops`]
    /// and [`Self::error_rate`]).
    rejected: u64,
    latency: Histogram,
    /// Samples keyed by resource class (ordered map: iteration order must
    /// not depend on insertion history).
    resources: BTreeMap<String, ResourceSample>,
}

impl TelemetryWindow {
    /// Operations completed in this window.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Operations that errored in this window.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Operations rejected or shed in this window.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Operations attempted in this window that got a response: completed
    /// plus rejected (the per-second `timeline` semantics of
    /// [`BenchStats`]; errors are excluded, matching its throughput
    /// timeline).
    pub fn responded(&self) -> u64 {
        self.ops + self.rejected
    }

    /// Fraction of this window's attempted operations that errored.
    pub fn error_rate(&self) -> f64 {
        let attempted = self.ops + self.errors;
        if attempted == 0 {
            0.0
        } else {
            self.errors as f64 / attempted as f64
        }
    }

    /// Latency histogram of the window's completed operations.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// `q`-quantile latency of the window in milliseconds.
    pub fn quantile_latency_ms(&self, q: f64) -> f64 {
        self.latency.quantile(q) as f64 / 1e6
    }

    /// Sample for a resource class, if one was taken.
    pub fn resource(&self, class: &str) -> Option<ResourceSample> {
        self.resources.get(class).copied()
    }
}

snap_struct! { TelemetryWindow { ops, errors, rejected, latency, resources } }

/// Windowed benchmark telemetry: the generalisation of [`BenchStats`]'s
/// one-second `timeline`. Each fixed-size window holds completed/errored
/// op counts, a log-bucketed latency [`Histogram`] (so per-window
/// p50/p95/p99 are available), and per-resource-class utilisation and
/// queue-depth samples taken at window boundaries.
#[derive(Clone, Debug)]
pub struct Telemetry {
    window_ns: u64,
    windows: Vec<TelemetryWindow>,
}

impl Telemetry {
    /// Creates an empty recorder with the given window size.
    ///
    /// # Panics
    /// Panics if `window_ns` is zero.
    pub fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "telemetry window must be positive");
        Telemetry {
            window_ns,
            windows: Vec::new(),
        }
    }

    /// Window size in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    fn window_at(&mut self, index: usize) -> &mut TelemetryWindow {
        if index >= self.windows.len() {
            self.windows
                .resize_with(index + 1, TelemetryWindow::default);
        }
        &mut self.windows[index]
    }

    /// Records a completed operation at `offset_ns` past the measurement
    /// start with the given latency.
    pub fn record(&mut self, offset_ns: u64, latency_ns: u64) {
        let w = self.window_at((offset_ns / self.window_ns) as usize);
        w.ops += 1;
        w.latency.record(latency_ns);
    }

    /// Records an errored operation at `offset_ns`.
    pub fn record_error(&mut self, offset_ns: u64) {
        self.window_at((offset_ns / self.window_ns) as usize).errors += 1;
    }

    /// Records a rejected/shed operation at `offset_ns`.
    pub fn record_rejection(&mut self, offset_ns: u64) {
        self.window_at((offset_ns / self.window_ns) as usize)
            .rejected += 1;
    }

    /// Stores the boundary sample for `class` in window `index`.
    pub fn sample_resource(&mut self, index: usize, class: &str, sample: ResourceSample) {
        self.window_at(index)
            .resources
            .insert(class.to_string(), sample);
    }

    /// The recorded windows, oldest first.
    pub fn windows(&self) -> &[TelemetryWindow] {
        &self.windows
    }

    /// Throughput of window `index` in operations per second.
    pub fn ops_per_sec(&self, index: usize) -> f64 {
        self.windows
            .get(index)
            .map_or(0.0, |w| w.ops as f64 * 1e9 / self.window_ns as f64)
    }
}

// Hand-written: `restore` refuses `window_ns == 0`, which every offset is
// divided by.
impl Snap for Telemetry {
    fn snap(&self, w: &mut SnapWriter) {
        let Telemetry { window_ns, windows } = self;
        w.put_u64(*window_ns);
        w.put(windows);
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        let window_ns = r.u64()?;
        if window_ns == 0 {
            return Err(SnapError::BadTag {
                what: "Telemetry window_ns",
                tag: 0,
            });
        }
        Ok(Telemetry {
            window_ns,
            windows: r.get()?,
        })
    }
}

/// Pairwise (cascade) summation over a float slice — this module's
/// blessed reduction.
///
/// Splitting recursively halves the number of additions any term flows
/// through, bounding the error growth at O(log n) instead of the O(n) of
/// a left fold. Because the reduction tree depends only on the slice
/// *length*, reversing a power-of-two-length slice mirrors the tree and
/// gives the bit-identical result — handy for order-insensitive window
/// averages.
pub fn pairwise_sum(values: &[f64]) -> f64 {
    match values {
        [] => 0.0,
        [a] => *a,
        [a, b] => a + b,
        _ => {
            let mid = values.len() / 2;
            pairwise_sum(&values[..mid]) + pairwise_sum(&values[mid..])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_sum_is_order_insensitive_where_naive_fold_is_not() {
        // A power-of-two length: reversing mirrors the reduction tree,
        // so pairwise summation gives the bit-identical result.
        let mut values = vec![1e16];
        values.resize(1024, 1.0);
        let naive: f64 = values.iter().sum();
        let pairwise = pairwise_sum(&values);
        assert_ne!(naive, 1e16 + 1023.0, "naive sum should demonstrate loss");
        assert!(
            (pairwise - (1e16 + 1023.0)).abs() <= 2.0,
            "pairwise error must stay within a couple of ulps, got {pairwise}"
        );
        values.reverse();
        assert_eq!(pairwise_sum(&values), pairwise);
    }

    #[test]
    fn pairwise_sum_handles_tiny_slices() {
        assert_eq!(pairwise_sum(&[]), 0.0);
        assert_eq!(pairwise_sum(&[1.5]), 1.5);
        assert_eq!(pairwise_sum(&[1.5, 2.5]), 4.0);
        assert_eq!(pairwise_sum(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn telemetry_buckets_ops_and_latencies_by_window() {
        let mut t = Telemetry::new(1_000_000_000);
        t.record(100, 1_000_000); // window 0: 1 ms
        t.record(999_999_999, 3_000_000); // window 0: 3 ms
        t.record(2_500_000_000, 10_000_000); // window 2: 10 ms
        t.record_error(2_600_000_000);
        assert_eq!(t.windows().len(), 3);
        assert_eq!(t.windows()[0].ops(), 2);
        assert_eq!(t.windows()[1].ops(), 0);
        assert_eq!(t.windows()[2].ops(), 1);
        assert_eq!(t.windows()[2].errors(), 1);
        assert!((t.windows()[2].error_rate() - 0.5).abs() < 1e-12);
        assert!((t.ops_per_sec(0) - 2.0).abs() < 1e-12);
        // Per-window quantiles come from the same log-bucketed histogram
        // BenchStats uses, so p99 >= p50 within ~3 % error.
        let w0 = &t.windows()[0];
        assert!(w0.quantile_latency_ms(0.99) >= w0.quantile_latency_ms(0.50));
    }

    #[test]
    fn telemetry_keeps_one_resource_sample_per_window_and_class() {
        let mut t = Telemetry::new(1_000_000_000);
        for (i, util) in [0.2, 0.4, 0.6].into_iter().enumerate() {
            t.sample_resource(
                i,
                "cpu",
                ResourceSample {
                    utilization: util,
                    queue_depth: i as f64,
                },
            );
        }
        assert_eq!(
            t.windows()[1].resource("cpu"),
            Some(ResourceSample {
                utilization: 0.4,
                queue_depth: 1.0
            })
        );
        assert_eq!(t.windows()[0].resource("disk"), None);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn telemetry_zero_window_panics() {
        Telemetry::new(0);
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-9);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn histogram_quantile_error_is_bounded() {
        let mut h = Histogram::new();
        // Exponentially spread values across many decades.
        let values: Vec<u64> = (0..10_000u64).map(|i| 100 + i * i).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = sorted[((q * sorted.len() as f64) as usize).min(sorted.len() - 1)] as f64;
            let approx = h.quantile(q) as f64;
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel < 0.07,
                "quantile {q}: exact {exact}, approx {approx}, rel {rel}"
            );
        }
    }

    #[test]
    fn histogram_handles_huge_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(1.0) >= h.quantile(0.1));
    }

    #[test]
    fn histogram_merge_combines_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn bench_stats_throughput_uses_window() {
        let mut stats = BenchStats::new();
        for _ in 0..1_000 {
            stats.record(OpKind::Insert, 50_000);
        }
        stats.set_window_ns(1_000_000_000); // 1 s
        assert!((stats.throughput() - 1_000.0).abs() < 1e-6);
        assert_eq!(stats.ops(OpKind::Insert), 1_000);
        assert_eq!(stats.ops(OpKind::Read), 0);
        assert!(stats.mean_latency_ms(OpKind::Read).is_none());
        assert!((stats.mean_latency_ms(OpKind::Insert).unwrap() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn bench_stats_tracks_rejections_separately() {
        let mut stats = BenchStats::new();
        stats.record_rejection(OpKind::Insert);
        stats.record_rejection(OpKind::Insert);
        stats.record(OpKind::Insert, 10);
        assert_eq!(stats.total_rejected(), 2);
        assert_eq!(stats.total_ops(), 1);
    }

    #[test]
    fn bench_stats_availability_counts_errors_not_rejections() {
        let mut stats = BenchStats::new();
        for _ in 0..99 {
            stats.record(OpKind::Read, 1_000);
        }
        stats.record_error(OpKind::Read, 500_000_000);
        stats.record_rejection(OpKind::Read);
        assert!((stats.availability() - 0.99).abs() < 1e-9);
        assert_eq!(stats.total_errors(), 1);
        assert_eq!(stats.errors(OpKind::Read), 1);
        assert_eq!(stats.error_timeline(), &[1]);
    }

    #[test]
    fn empty_stats_report_full_availability() {
        assert!((BenchStats::new().availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_secs_finds_first_recovered_second() {
        let mut stats = BenchStats::new();
        // Seconds 0-4: 100 ops/s baseline; 5-9: crashed (10 ops/s);
        // restore at 10; recovery reaches 90 ops/s at second 12.
        let shape = [100, 100, 100, 100, 100, 10, 10, 10, 10, 10, 40, 70, 95, 100];
        for (sec, &ops) in shape.iter().enumerate() {
            for _ in 0..ops {
                stats.record_timeline(sec as u64 * 1_000_000_000);
            }
        }
        assert_eq!(stats.recovery_secs(5, 10, 0.9), Some(2));
        assert_eq!(stats.recovery_secs(5, 10, 0.99), Some(3));
        assert_eq!(stats.recovery_secs(5, 10, 1.2), None);
    }

    #[test]
    fn resilience_counters_merge_and_ride_bench_stats() {
        let mut a = BenchStats::new();
        a.resilience_mut().retries = 3;
        a.resilience_mut().hedges = 2;
        a.resilience_mut().hedge_wins = 1;
        let mut b = BenchStats::new();
        b.resilience_mut().retries = 4;
        b.resilience_mut().breaker_transitions = 2;
        b.resilience_mut().shed = 7;
        a.merge(&b);
        assert_eq!(
            *a.resilience(),
            ResilienceCounters {
                retries: 7,
                hedges: 2,
                hedge_wins: 1,
                breaker_transitions: 2,
                shed: 7,
            }
        );
        assert_eq!(
            *BenchStats::new().resilience(),
            ResilienceCounters::default()
        );
    }

    #[test]
    fn telemetry_tracks_rejections_apart_from_ops_and_errors() {
        let mut t = Telemetry::new(1_000_000_000);
        t.record(100, 1_000_000);
        t.record_rejection(200);
        t.record_rejection(1_200_000_000);
        t.record_error(300);
        assert_eq!(t.windows()[0].ops(), 1);
        assert_eq!(t.windows()[0].rejected(), 1);
        assert_eq!(t.windows()[0].responded(), 2);
        assert_eq!(t.windows()[0].errors(), 1);
        assert_eq!(t.windows()[1].rejected(), 1);
        assert_eq!(t.windows()[1].responded(), 1);
        // Rejections stay out of ops-based rates.
        assert!((t.ops_per_sec(0) - 1.0).abs() < 1e-12);
        assert!((t.windows()[0].error_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_and_telemetry_snapshot_round_trip() {
        let mut stats = BenchStats::new();
        for v in [10u64, 2_000, 3_000_000, u64::MAX / 2] {
            stats.record(OpKind::Read, v);
            stats.record_timeline(v % 7_000_000_000);
        }
        stats.record_rejection(OpKind::Insert);
        stats.record_error(OpKind::Scan, 1_500_000_000);
        stats.set_window_ns(60_000_000_000);
        stats.resilience_mut().retries = 9;
        let mut t = Telemetry::new(1_000_000_000);
        t.record(100, 1_000_000);
        t.record_error(2_600_000_000);
        t.sample_resource(
            1,
            "disk",
            ResourceSample {
                utilization: 0.375,
                queue_depth: 2.5,
            },
        );
        let mut w = SnapWriter::new();
        w.put(&stats);
        w.put(&t);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let stats2: BenchStats = r.get().unwrap();
        let t2: Telemetry = r.get().unwrap();
        r.finish().unwrap();
        // Re-encoding must be byte-identical (the property resume relies on).
        let mut w2 = SnapWriter::new();
        w2.put(&stats2);
        w2.put(&t2);
        assert_eq!(bytes, w2.into_bytes());
        assert_eq!(stats2.total_ops(), stats.total_ops());
        assert_eq!(
            stats2.quantile_latency_ms(OpKind::Read, 0.99),
            stats.quantile_latency_ms(OpKind::Read, 0.99)
        );
        assert_eq!(stats2.timeline(), stats.timeline());
        assert_eq!(t2.windows().len(), t.windows().len());
        assert_eq!(
            t2.windows()[1].resource("disk"),
            t.windows()[1].resource("disk")
        );
    }

    #[test]
    fn bench_stats_merge_sums_windows() {
        let mut a = BenchStats::new();
        a.record(OpKind::Read, 1_000);
        a.set_window_ns(5);
        let mut b = BenchStats::new();
        b.record(OpKind::Read, 3_000);
        b.set_window_ns(7);
        a.merge(&b);
        assert_eq!(a.ops(OpKind::Read), 2);
        assert_eq!(a.window_ns(), 12);
        assert!((a.mean_latency_ms(OpKind::Read).unwrap() - 0.002).abs() < 1e-9);
    }
}
