//! The paper's motivating scenario, end to end.
//!
//! §1 sizes the problem: a data centre of monitored hosts, each agent
//! reporting ~10 K metrics every 10 s. §8 closes the loop: with 5 % of a
//! 240-node system dedicated to monitoring storage (12 nodes), the store
//! must absorb ~240 K inserts/s.
//!
//! This example generates *actual agent traffic* with the APM data model
//! (hierarchical metric names, min/max/duration aggregates — Figure 2),
//! packs it into benchmark records, ingests a slice of it into a
//! Cassandra-like store on 12 simulated nodes, and compares the measured
//! sustainable insert rate against the demand.
//!
//! ```text
//! cargo run --release --example apm_ingest
//! ```

use apm_repro::core::driver::ClientConfig;
use apm_repro::core::metric::{AgentReporter, MonitoredSystem};
use apm_repro::core::workload::Workload;
use apm_repro::sim::{ClusterSpec, Engine};
use apm_repro::stores::api::{DistributedStore, StoreCtx};
use apm_repro::stores::cassandra::{CassandraConfig, CassandraStore};
use apm_repro::stores::runner::{run_benchmark, RunConfig};

fn main() {
    // ---- The demand side: the paper's conclusion scenario.
    let system = MonitoredSystem::conclusion_scenario();
    println!(
        "monitored system: {} hosts × {} metrics @ {} s interval",
        system.hosts, system.metrics_per_host, system.interval_secs
    );
    println!(
        "  demand          : {:>10} inserts/s",
        system.inserts_per_second()
    );
    println!(
        "  raw volume      : {:>10.1} GB/day",
        system.raw_bytes_per_day() as f64 / 1e9
    );
    println!("  metric series   : {:>10}", system.series_count());

    // A taste of the real measurement stream (Figure 2 shape).
    let mut agent = AgentReporter::new(1, 3, system.interval_secs, 1_332_988_833);
    println!("\nsample agent report:");
    for m in agent.next_batch() {
        println!(
            "  {:<55} value={} min={} max={} ts={} dur={}",
            m.metric, m.value, m.min, m.max, m.timestamp, m.duration
        );
    }

    // ---- The supply side: what 12 storage nodes sustain on workload W.
    let nodes = 12;
    let scale = 0.005;
    let mut engine = Engine::new();
    let ctx = StoreCtx::new(
        &mut engine,
        ClusterSpec::cluster_m(),
        nodes,
        StoreCtx::standard_client_machines(nodes),
        scale,
        7,
    );
    let mut store = CassandraStore::new(ctx, CassandraConfig::default());

    // Ingest one real agent interval through the store's load path to
    // show the data model and store compose (measurement → record).
    let mut ingest_agent = AgentReporter::new(2, 100, system.interval_secs, 1_332_988_833);
    for (i, measurement) in ingest_agent.next_batch().into_iter().enumerate() {
        store.load(&measurement.to_record(1_000_000_000 + i as u64));
    }

    let config = RunConfig::new(
        Workload::w(),
        ClientConfig::cluster_m(nodes).with_window(2.0, 10.0),
        (10_000_000.0 * scale) as u64,
        nodes,
        7,
    );
    let result = run_benchmark(&mut engine, &mut store, &config);
    let supply = result.throughput();

    println!(
        "\nmeasured sustainable rate on {nodes} Cluster-M nodes (workload W): {supply:.0} ops/s"
    );
    let demand = system.inserts_per_second() as f64;
    if supply >= demand {
        println!(
            "verdict: meets the {demand:.0}/s demand with {:.0}% headroom",
            100.0 * (supply / demand - 1.0)
        );
    } else {
        println!(
            "verdict: falls short of the {demand:.0}/s demand by {:.0}% — the paper's §8 \
             conclusion (\"higher than the maximum throughput that Cassandra achieves ... but \
             not drastically; further improvements are needed\")",
            100.0 * (1.0 - supply / demand)
        );
    }
}
