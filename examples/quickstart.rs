//! Quickstart: benchmark one store on a simulated cluster.
//!
//! Builds a Cassandra-like store on two Cluster-M nodes, loads data,
//! runs the paper's write-heavy APM workload (W: 99 % inserts) for a few
//! simulated seconds, and prints throughput and latencies.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use apm_repro::core::driver::ClientConfig;
use apm_repro::core::ops::OpKind;
use apm_repro::core::workload::Workload;
use apm_repro::sim::{ClusterSpec, Engine};
use apm_repro::stores::api::StoreCtx;
use apm_repro::stores::cassandra::{CassandraConfig, CassandraStore};
use apm_repro::stores::runner::{run_benchmark, RunConfig};

fn main() {
    let nodes = 2;
    let scale = 0.01; // 1/100 of the paper's 10M records per node

    // 1. A simulation engine and the Cluster M hardware (2×quad Xeon,
    //    16 GB RAM, RAID0 — §3 of the paper).
    let mut engine = Engine::new();
    let ctx = StoreCtx::new(
        &mut engine,
        ClusterSpec::cluster_m(),
        nodes,
        StoreCtx::standard_client_machines(nodes),
        scale,
        42,
    );

    // 2. The store under test.
    let mut store = CassandraStore::new(ctx, CassandraConfig::default());

    // 3. The benchmark: workload W (1 % reads / 99 % inserts — the APM
    //    ingest pattern), 128 connections per server node.
    let config = RunConfig::new(
        Workload::w(),
        ClientConfig::cluster_m(nodes).with_window(1.0, 10.0),
        (10_000_000.0 * scale) as u64,
        nodes,
        42,
    );
    let result = run_benchmark(&mut engine, &mut store, &config);

    println!("workload W on {nodes} Cluster-M nodes (scale {scale}):");
    println!("  throughput : {:>10.0} ops/s", result.throughput());
    for kind in [OpKind::Read, OpKind::Insert] {
        if let Some(ms) = result.mean_latency_ms(kind) {
            println!(
                "  {:<6} mean : {ms:>10.3} ms ({} ops)",
                kind.label(),
                result.stats.ops(kind)
            );
        }
    }
    if let Some(bytes) = result.disk_bytes_per_node {
        println!("  disk usage : {:>10.2} MB/node", bytes as f64 / 1e6);
    }
}
