//! The paper's §2 monitoring queries, end to end, on the real engines.
//!
//! > "What was the maximum number of connections on host X within the
//! > last 10 minutes?"
//! > "What was the average CPU utilization of Web servers of type Y
//! > within the last 15 minutes?"
//!
//! Agents report every 10 s; measurements are stored under a series-major
//! key layout so that each query is one small range scan per series (§3:
//! a 10-minute window = 60 records). The same query runs against the LSM
//! tree (the Cassandra/HBase engine), the B+tree (MySQL/Voldemort) and
//! the hash store with ordered index (Redis), demonstrating that the
//! public engine API serves the actual APM use case, not just YCSB ops.
//!
//! ```text
//! cargo run --release --example online_queries
//! ```

use apm_repro::core::metric::AgentReporter;
use apm_repro::core::record::{MetricKey, Row};
use apm_repro::core::timeseries::{execute, ApmQuery, SeriesCodec, WindowAggregate};
use apm_repro::storage::btree::{BTree, BTreeConfig};
use apm_repro::storage::hashstore::HashStore;
use apm_repro::storage::lsm::{LsmConfig, LsmTree};

const EPOCH: u64 = 1_332_988_800;
const HOSTS: u32 = 8;
const METRICS_PER_HOST: u32 = 16;
const INTERVALS: u64 = 120; // 20 minutes of reports at 10 s

fn series_id(host: u32, metric: u32) -> u64 {
    u64::from(host) * u64::from(METRICS_PER_HOST) + u64::from(metric)
}

fn main() {
    let codec = SeriesCodec::new(10, EPOCH);

    // ---- Generate 20 minutes of agent traffic (Figure-2 measurements).
    let mut lsm = LsmTree::new(LsmConfig::default());
    let mut btree = BTree::new(BTreeConfig::default());
    let mut hash = HashStore::new(None);
    let mut total = 0u64;
    for host in 0..HOSTS {
        let mut agent = AgentReporter::new(host, METRICS_PER_HOST, 10, EPOCH);
        for _ in 0..INTERVALS {
            for (metric, measurement) in agent.next_batch().into_iter().enumerate() {
                let record = codec.record(series_id(host, metric as u32), &measurement);
                let (_, job) = lsm.insert(record.key, record.fields);
                // Settle background work inline (no simulator here).
                lsm.settle(job);
                btree.insert(record.key, record.fields);
                hash.insert(record.key, record.fields)
                    .expect("no memory budget");
                total += 1;
            }
        }
    }
    let now = EPOCH + INTERVALS * 10 - 1;
    println!(
        "ingested {total} measurements from {HOSTS} hosts ({METRICS_PER_HOST} metrics each)\n"
    );

    // ---- Query 1 (§2): max connections on host 3, last 10 minutes.
    // Metric index 8 is "OpenConnections" in the agent's catalogue.
    let q1 = ApmQuery::WindowMax {
        series: series_id(3, 8),
        window_secs: 600,
    };
    // ---- Query 2 (§2): average CPU across all web servers, last 15 min.
    // Metric index 5 is "CpuUtilization".
    let cpu_series: Vec<u64> = (0..HOSTS).map(|h| series_id(h, 5)).collect();
    let q2 = ApmQuery::WindowAvgAcross {
        series: cpu_series,
        window_secs: 900,
    };

    type ScanFn = Box<dyn FnMut(MetricKey, usize) -> Vec<Row>>;
    let engines: Vec<(&str, ScanFn)> = vec![
        (
            "lsm (cassandra/hbase engine)",
            Box::new(move |start, len| lsm.scan(&start, len).0),
        ),
        (
            "btree (mysql/voldemort engine)",
            Box::new(move |start, len| btree.scan(&start, len).0),
        ),
        (
            "hashstore (redis engine)",
            Box::new(move |start, len| hash.scan(&start, len).0),
        ),
    ];

    let mut reference: Option<(WindowAggregate, WindowAggregate)> = None;
    for (name, mut scan) in engines {
        let a1 = execute(&codec, &q1, now, &mut scan);
        let a2 = execute(&codec, &q2, now, &mut scan);
        println!("[{name}]");
        println!(
            "  max connections on host 3, last 10 min : {} (from {} samples)",
            a1.max, a1.count
        );
        println!(
            "  avg CPU across {HOSTS} hosts, last 15 min    : {:.2} (from {} samples)",
            a2.avg().unwrap_or(f64::NAN),
            a2.count
        );
        match &reference {
            None => reference = Some((a1, a2)),
            Some((r1, r2)) => {
                assert_eq!(&a1, r1, "engines disagree on query 1");
                assert_eq!(&a2, r2, "engines disagree on query 2");
                println!("  (matches the other engines' answers)");
            }
        }
    }
}
