//! End-to-end APM monitoring pipeline: agents → records → storage engine
//! → the §2 window queries.

use apm_repro::core::metric::{AgentReporter, MonitoredSystem};
use apm_repro::core::timeseries::{execute, ApmQuery, SeriesCodec};
use apm_repro::storage::lsm::{LsmConfig, LsmTree};

const EPOCH: u64 = 1_332_988_800;

fn ingest(hosts: u32, metrics: u32, intervals: u64) -> (LsmTree, SeriesCodec) {
    let codec = SeriesCodec::new(10, EPOCH);
    let mut lsm = LsmTree::new(LsmConfig {
        memtable_flush_bytes: 75 * 2_000,
        ..LsmConfig::default()
    });
    for host in 0..hosts {
        let mut agent = AgentReporter::new(host, metrics, 10, EPOCH);
        for _ in 0..intervals {
            for (metric, m) in agent.next_batch().into_iter().enumerate() {
                let series = u64::from(host) * u64::from(metrics) + metric as u64;
                let record = codec.record(series, &m);
                let (_, job) = lsm.insert(record.key, record.fields);
                lsm.settle(job);
            }
        }
    }
    (lsm, codec)
}

#[test]
fn ten_minute_window_max_scans_exactly_sixty_records() {
    // §3: "for a ten minute scan window with 10 seconds resolution, the
    // number of scanned values is 60".
    let (mut lsm, codec) = ingest(2, 4, 80);
    let now = EPOCH + 80 * 10 - 1;
    let agg = execute(
        &codec,
        &ApmQuery::WindowMax {
            series: 5,
            window_secs: 600,
        },
        now,
        |start, len| {
            assert_eq!(len, 60, "window scan length");
            lsm.scan(&start, len).0
        },
    );
    assert_eq!(agg.count, 60);
    assert!(agg.max >= agg.min);
}

#[test]
fn window_results_match_a_recomputation_from_the_agent_stream() {
    let hosts = 3;
    let metrics = 5;
    let intervals = 70u64;
    let (mut lsm, codec) = ingest(hosts, metrics, intervals);
    // Recompute the expected answer directly from a replayed agent.
    let target_host = 1u32;
    let target_metric = 2u32;
    let series = u64::from(target_host) * u64::from(metrics) + u64::from(target_metric);
    let mut replay = AgentReporter::new(target_host, metrics, 10, EPOCH);
    let mut expected_max = i64::MIN;
    let window_slots = 60; // last 10 minutes of 70 intervals
    for interval in 0..intervals {
        let batch = replay.next_batch();
        if interval >= intervals - window_slots {
            expected_max = expected_max.max(batch[target_metric as usize].max);
        }
    }
    let now = EPOCH + intervals * 10 - 1;
    let agg = execute(
        &codec,
        &ApmQuery::WindowMax {
            series,
            window_secs: 600,
        },
        now,
        |start, len| lsm.scan(&start, len).0,
    );
    assert_eq!(
        agg.max, expected_max,
        "store answer must match the source stream"
    );
    assert_eq!(agg.count, window_slots);
}

#[test]
fn cross_host_average_covers_every_host_once() {
    let hosts = 4;
    let metrics = 3;
    let (mut lsm, codec) = ingest(hosts, metrics, 100);
    let cpu_metric = 0u64;
    let series: Vec<u64> = (0..hosts)
        .map(|h| u64::from(h) * u64::from(metrics) + cpu_metric)
        .collect();
    let now = EPOCH + 100 * 10 - 1;
    let agg = execute(
        &codec,
        &ApmQuery::WindowAvgAcross {
            series,
            window_secs: 900,
        },
        now,
        |start, len| lsm.scan(&start, len).0,
    );
    assert_eq!(
        agg.count,
        u64::from(hosts) * 90,
        "15 min × 4 hosts at 10 s = 360 samples"
    );
    let avg = agg.avg().expect("non-empty window");
    assert!(agg.min as f64 <= avg && avg <= agg.max as f64);
}

#[test]
fn capacity_arithmetic_matches_the_paper() {
    // The §1 scenario feeding the pipeline sizes the ingest stream that
    // the benchmark's workload W models.
    let s = MonitoredSystem::paper_scenario();
    assert_eq!(s.inserts_per_second(), 10_000_000);
    let c = MonitoredSystem::conclusion_scenario();
    assert_eq!(c.inserts_per_second(), 240_000);
    // 240K/s of 75-byte records ≈ 1.56 TB/day raw.
    assert!((c.raw_bytes_per_day() as f64 / 1e12 - 1.555).abs() < 0.01);
}
