//! The APM query layer: §2's monitoring queries over stored measurements.
//!
//! The paper motivates the storage benchmark with concrete queries:
//!
//! > *"What was the maximum number of connections on host X within the
//! > last 10 minutes?"* — an on-line sliding-window aggregate;
//! > *"What was the average CPU utilization of Web servers of type Y
//! > within the last 15 minutes?"* — a cross-series window aggregate;
//! > plus archival versions over months of data.
//!
//! §3 explains how stores serve them: *"the reads often scan a small set
//! of records. For example, for a ten minute scan window with 10 seconds
//! resolution, the number of scanned values is 60."*
//!
//! This module provides the schema that makes those scans work — a
//! series-major key layout where consecutive reporting slots of one
//! metric series are adjacent keys — window arithmetic, and aggregate
//! evaluation over any engine that can range-scan.

use crate::record::{ApmMeasurement, MetricKey, Record};

/// Key codec for time-series data: the 64-bit record id is
/// `series_id << 24 | slot`, so one series' consecutive reporting slots
/// are consecutive keys and a window query is a single small range scan
/// (the §3 access pattern). 2^24 slots at a 10 s interval cover ~5 years.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesCodec {
    /// Agent reporting interval in seconds (paper: 10 s).
    pub interval_secs: u32,
    /// UNIX time of slot 0.
    pub epoch: u64,
}

/// Bits reserved for the slot within a series.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

impl SeriesCodec {
    /// Creates a codec for the given reporting interval and epoch.
    pub fn new(interval_secs: u32, epoch: u64) -> SeriesCodec {
        assert!(interval_secs > 0, "reporting interval must be positive");
        SeriesCodec {
            interval_secs,
            epoch,
        }
    }

    /// Slot index for a UNIX timestamp (clamped below at the epoch).
    pub fn slot_of(&self, timestamp: u64) -> u64 {
        (timestamp.saturating_sub(self.epoch) / u64::from(self.interval_secs)) & SLOT_MASK
    }

    /// UNIX timestamp at the start of `slot`.
    pub fn timestamp_of(&self, slot: u64) -> u64 {
        self.epoch + slot * u64::from(self.interval_secs)
    }

    /// Record key for (`series`, `slot`).
    pub fn key(&self, series: u64, slot: u64) -> MetricKey {
        debug_assert!(slot <= SLOT_MASK);
        MetricKey::from_id((series << SLOT_BITS) | (slot & SLOT_MASK))
    }

    /// Recovers (`series`, `slot`) from a key produced by [`SeriesCodec::key`].
    pub fn decode(&self, key: &MetricKey) -> Option<(u64, u64)> {
        key.to_id().map(|id| (id >> SLOT_BITS, id & SLOT_MASK))
    }

    /// Encodes a measurement as a storable record.
    pub fn record(&self, series: u64, m: &ApmMeasurement) -> Record {
        let slot = self.slot_of(m.timestamp);
        m.to_record((series << SLOT_BITS) | slot)
    }

    /// The scan that answers a window query on one series ending at
    /// `now`: start key and record count (§3's "ten minute window at 10
    /// seconds resolution → 60 values").
    pub fn window_scan(&self, series: u64, now: u64, window_secs: u64) -> (MetricKey, usize) {
        let end_slot = self.slot_of(now);
        let slots = (window_secs / u64::from(self.interval_secs)).max(1);
        let start_slot = end_slot.saturating_sub(slots - 1);
        (self.key(series, start_slot), slots as usize)
    }
}

/// Streaming aggregate over measurement values.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowAggregate {
    pub count: u64,
    pub sum: i64,
    pub min: i64,
    pub max: i64,
}

impl WindowAggregate {
    /// Empty aggregate.
    pub fn new() -> WindowAggregate {
        WindowAggregate {
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    /// Folds one measurement in, using its pre-aggregated min/max (the
    /// agents already aggregate within their reporting interval, §3).
    pub fn add(&mut self, m: &ApmMeasurement) {
        self.count += 1;
        self.sum += m.value;
        self.min = self.min.min(m.min);
        self.max = self.max.max(m.max);
    }

    /// Merges another aggregate (cross-series combination).
    pub fn merge(&mut self, other: &WindowAggregate) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the interval values, or `None` when empty.
    pub fn avg(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// The §2 query forms.
#[derive(Clone, Debug, PartialEq)]
pub enum ApmQuery {
    /// "What was the maximum `metric` on `series` within the last
    /// `window_secs`?" — one series, one scan.
    WindowMax { series: u64, window_secs: u64 },
    /// "What was the average `metric` across a series set within the
    /// last `window_secs`?" — one scan per series, merged.
    WindowAvgAcross { series: Vec<u64>, window_secs: u64 },
}

/// Executes a query at time `now` against any range-scannable engine.
///
/// `scan` receives a start key and a record count and returns the stored
/// records from that position — the exact operation the benchmark's scan
/// workloads exercise.
pub fn execute<F, R>(
    codec: &SeriesCodec,
    query: &ApmQuery,
    now: u64,
    mut scan: F,
) -> WindowAggregate
where
    F: FnMut(MetricKey, usize) -> Vec<R>,
    R: Into<Record>,
{
    let mut total = WindowAggregate::new();
    let one_series = |codec: &SeriesCodec, series: u64, window: u64, scan: &mut F| {
        let (start, len) = codec.window_scan(series, now, window);
        let mut agg = WindowAggregate::new();
        for row in scan(start, len) {
            let record: Record = row.into();
            // A range scan may run past the series' last slot into the
            // next series: filter by the series id.
            match codec.decode(&record.key) {
                Some((s, _)) if s == series => {
                    agg.add(&ApmMeasurement::from_record(&record));
                }
                _ => {}
            }
        }
        agg
    };
    match query {
        ApmQuery::WindowMax {
            series,
            window_secs,
        } => {
            total.merge(&one_series(codec, *series, *window_secs, &mut scan));
        }
        ApmQuery::WindowAvgAcross {
            series,
            window_secs,
        } => {
            for &s in series {
                total.merge(&one_series(codec, s, *window_secs, &mut scan));
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FieldValues;
    use std::collections::BTreeMap;
    use std::ops::Bound;

    const EPOCH: u64 = 1_332_988_800;

    fn codec() -> SeriesCodec {
        SeriesCodec::new(10, EPOCH)
    }

    fn measurement(value: i64, ts: u64) -> ApmMeasurement {
        ApmMeasurement {
            metric: String::new(),
            value,
            min: value - 1,
            max: value + 1,
            timestamp: ts,
            duration: 10,
        }
    }

    /// A reference store: sorted map + range scan.
    fn store_with(series: &[u64], slots: u64) -> BTreeMap<MetricKey, FieldValues> {
        let c = codec();
        let mut map = BTreeMap::new();
        for &s in series {
            for slot in 0..slots {
                let ts = c.timestamp_of(slot);
                // Value = series*100 + slot so aggregates are checkable.
                let rec = c.record(s, &measurement((s * 100 + slot) as i64, ts));
                map.insert(rec.key, rec.fields);
            }
        }
        map
    }

    fn scan_fn(
        map: &BTreeMap<MetricKey, FieldValues>,
    ) -> impl FnMut(MetricKey, usize) -> Vec<(MetricKey, FieldValues)> + '_ {
        move |start, len| {
            map.range((Bound::Included(start), Bound::Unbounded))
                .take(len)
                .map(|(k, v)| (*k, *v))
                .collect()
        }
    }

    #[test]
    fn codec_roundtrips_series_and_slot() {
        let c = codec();
        for (series, slot) in [(0u64, 0u64), (7, 12345), (1 << 30, SLOT_MASK)] {
            let key = c.key(series, slot);
            assert_eq!(c.decode(&key), Some((series, slot)));
        }
    }

    #[test]
    fn consecutive_slots_are_adjacent_keys() {
        let c = codec();
        let k1 = c.key(42, 100);
        let k2 = c.key(42, 101);
        assert!(k1 < k2);
        assert_eq!(k2.to_id().unwrap() - k1.to_id().unwrap(), 1);
    }

    #[test]
    fn ten_minute_window_scans_60_records() {
        // §3: "for a ten minute scan window with 10 seconds resolution,
        // the number of scanned values is 60".
        let c = codec();
        let now = EPOCH + 3_600;
        let (_, len) = c.window_scan(5, now, 600);
        assert_eq!(len, 60);
    }

    #[test]
    fn window_max_finds_the_window_maximum() {
        let map = store_with(&[3], 100);
        let c = codec();
        // Query the last 10 minutes at slot 99 → slots 40..=99... window
        // 600 s = 60 slots → 40..=99; max value = 3*100+99, max field +1.
        let now = c.timestamp_of(99);
        let agg = execute(
            &c,
            &ApmQuery::WindowMax {
                series: 3,
                window_secs: 600,
            },
            now,
            scan_fn(&map),
        );
        assert_eq!(agg.count, 60);
        assert_eq!(agg.max, 300 + 99 + 1);
        assert_eq!(agg.min, 300 + 40 - 1);
    }

    #[test]
    fn window_avg_across_series_merges_hosts() {
        // "Average CPU utilization of Web servers of type Y": three
        // hosts, 15-minute window (90 slots).
        let map = store_with(&[1, 2, 3], 200);
        let c = codec();
        let now = c.timestamp_of(199);
        let agg = execute(
            &c,
            &ApmQuery::WindowAvgAcross {
                series: vec![1, 2, 3],
                window_secs: 900,
            },
            now,
            scan_fn(&map),
        );
        assert_eq!(agg.count, 3 * 90);
        // Mean of (s*100 + slot) over s in 1..=3, slot in 110..=199.
        let expected = (100.0 + 200.0 + 300.0) / 3.0 + (110.0 + 199.0) / 2.0;
        assert!((agg.avg().unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn scans_do_not_leak_into_neighbouring_series() {
        let map = store_with(&[1, 2], 50);
        let c = codec();
        // Window larger than the series' data: the scan runs into series
        // 2's keys, which must be filtered out.
        let now = c.timestamp_of(49);
        let agg = execute(
            &c,
            &ApmQuery::WindowMax {
                series: 1,
                window_secs: 10_000,
            },
            now,
            scan_fn(&map),
        );
        assert_eq!(agg.count, 50, "only series 1's records count");
        assert_eq!(agg.max, 100 + 49 + 1);
    }

    #[test]
    fn aggregates_merge_like_bulk() {
        let mut a = WindowAggregate::new();
        let mut b = WindowAggregate::new();
        let mut all = WindowAggregate::new();
        for v in 0..10 {
            let m = measurement(v, EPOCH + v as u64 * 10);
            if v % 2 == 0 {
                a.add(&m);
            } else {
                b.add(&m);
            }
            all.add(&m);
        }
        a.merge(&b);
        assert_eq!(a, all);
        let empty = WindowAggregate::new();
        let before = a;
        a.merge(&empty);
        assert_eq!(a, before, "merging empty is a no-op");
        assert!(empty.avg().is_none());
    }

    #[test]
    fn window_clamps_at_epoch() {
        let c = codec();
        let (start, len) = c.window_scan(9, EPOCH + 20, 600);
        // Only 3 slots exist (0, 1, 2) but the window asks for 60: the
        // start clamps to slot 0.
        assert_eq!(c.decode(&start), Some((9, 0)));
        assert_eq!(len, 60);
    }
}
