//! Extension experiments beyond the paper's evaluation.
//!
//! §8 closes with: *"In future work, we will determine the impact of
//! replication and compression on the throughput in our use case."* —
//! both are implemented here, together with two ablations the paper's
//! §6 experiences motivate (random vs. assigned Cassandra tokens; uniform
//! vs. skewed key popularity).

use crate::experiment::{ExperimentProfile, Scenario, StoreKind, StoreSpec};
use crate::figures::Generator;
use apm_core::keyspace::KeyDistribution;
use apm_core::ops::OpKind;
use apm_core::report::Table;
use apm_core::workload::Workload;
use apm_sim::ClusterSpec;
use apm_storage::lsm::CompactionStrategy;
use apm_stores::cassandra::CassandraConfig;
use apm_stores::routing::TokenAssignment;
use apm_stores::runner::RunResult;

/// One extension artifact: its id, its title, and its generator.
#[derive(Clone, Copy)]
pub struct ExtensionSpec {
    pub id: &'static str,
    pub title: &'static str,
    pub generate: Generator,
}

/// Extension artifact descriptors.
pub fn all_extensions() -> Vec<ExtensionSpec> {
    #[rustfmt::skip]
    let index: [(&str, &str, Generator); 20] = [
        ("ext-replication", "Extension: Cassandra replication factor sweep (workload W, 4 nodes)", replication_sweep),
        ("ext-compression", "Extension: SSTable compression on/off (workloads R and W, 4 nodes)", compression_ablation),
        ("ext-tokens", "Extension: random vs. assigned Cassandra tokens (workload R, 8 nodes)", token_ablation),
        ("ext-skew", "Extension: uniform vs. zipfian key popularity (workload R, 8 nodes)", skew_ablation),
        ("ext-compaction", "Extension: size-tiered vs. leveled compaction (Cassandra, workloads R and W, 4 nodes)", compaction_ablation),
        ("ext-mongodb", "Extension: the excluded document store (MongoDB-like) vs. Cassandra and HBase, 4 nodes", mongodb_comparison),
        ("ext-elasticity", "Extension: live node bootstrap (Cassandra, workload R, 4→5 nodes mid-run)", elasticity),
        ("ext-faults-crash", "Extension: single-node crash and restart, rf=1 vs rf=2 (Cassandra, workload R, 4 nodes)", crate::faults::crash_failover),
        ("ext-faults-slowdisk", "Extension: one fail-slow disk, x1/x4/x16 (HBase, workload R, 4 nodes)", crate::faults::slow_disk),
        ("ext-faults-partition", "Extension: one shard partitioned, stall vs client timeout (Redis, workload R, 4 nodes)", crate::faults::partition),
        ("ext-faults-failover", "Extension: crash recovery compared across Cassandra rf=2, HBase, Redis (workload R, 4 nodes)", crate::faults::failover_comparison),
        ("ext-obs-profile", "Extension: virtual-time attribution — queue-wait vs service per resource class (workload R, 4 nodes)", crate::obs::time_attribution),
        ("ext-obs-telemetry", "Extension: windowed telemetry timeline at 70% load (Cassandra, workload R, 8 nodes)", crate::obs::telemetry_timeline),
        ("ext-res-retry", "Extension: retries with capped backoff vs a node crash, rf=1 (Cassandra, workload R, 4 nodes)", crate::resilience::retry_masking),
        ("ext-res-hedge", "Extension: hedged reads vs a fail-slow node, rf=2 (Cassandra, workload R, 4 nodes)", crate::resilience::hedged_reads),
        ("ext-res-breaker", "Extension: circuit breaker vs a partitioned shard (Redis, read-only, 4 nodes)", crate::resilience::breaker_shedding),
        ("ext-res-storm", "Extension: admission control vs an unbounded retry storm (Cassandra rf=1, workload R, 4 nodes)", crate::resilience::retry_storm),
        ("ext-snap-resume", "Extension: snapshot/resume equivalence and divergence bisection (all stores, workload RW, 4 nodes)", crate::snap::snap_resume),
        ("ext-chaos-campaign", "Extension: chaos search campaign, 3 seeded schedules per store (workload RW, 4 nodes)", crate::chaos::chaos_campaign),
        ("ext-chaos-shrink", "Extension: durability-bug shrink, Cassandra rf=2 with hint replay disabled (workload RW, 4 nodes)", crate::chaos::chaos_shrink),
    ];
    let spec = |(id, title, generate)| ExtensionSpec {
        id,
        title,
        generate,
    };
    index.into_iter().map(spec).collect()
}

/// Generates an extension table by id.
pub fn generate_extension(id: &str, profile: &ExperimentProfile) -> Option<Table> {
    all_extensions()
        .into_iter()
        .find(|e| e.id == id)
        .map(|e| (e.generate)(profile))
}

fn run_cassandra(
    config: CassandraConfig,
    nodes: u32,
    workload: &Workload,
    profile: &ExperimentProfile,
) -> RunResult {
    Scenario::new(config, ClusterSpec::cluster_m(), nodes, workload, profile)
        .run()
        .result
}

/// §8 future work #1: replication factor 1 → 3 under the APM insert
/// workload. Writes fan out to `rf` replicas (consistency ONE), so the
/// cluster performs `rf×` the physical write work.
pub fn replication_sweep(profile: &ExperimentProfile) -> Table {
    let nodes = 4;
    let mut table = Table::new(
        "Extension: impact of replication (Cassandra, workload W, 4 nodes)",
        "rf",
        "ops/sec | ms | GB",
    );
    table.columns = vec![
        "throughput".into(),
        "write_ms".into(),
        "disk_gb_per_node_at_10m".into(),
    ];
    for rf in 1..=3 {
        let config = CassandraConfig {
            replication: rf,
            ..CassandraConfig::default()
        };
        let scenario = Scenario::new(
            config,
            ClusterSpec::cluster_m(),
            nodes,
            &Workload::w(),
            profile,
        );
        let result = scenario.run().result;
        let disk = scenario
            .loaded_disk_bytes()
            .map(|b| b as f64 / profile.scale / profile.data_factor / 1e9);
        table.push_row(
            &rf.to_string(),
            vec![
                Some(result.throughput()),
                result.mean_latency_ms(OpKind::Insert),
                disk,
            ],
        );
    }
    table
}

/// §8 future work #2: compression. Halves the on-disk footprint at a
/// block-decompression CPU cost on every read.
pub fn compression_ablation(profile: &ExperimentProfile) -> Table {
    let nodes = 4;
    let mut table = Table::new(
        "Extension: impact of compression (Cassandra, 4 nodes)",
        "config",
        "ops/sec | GB",
    );
    table.columns = vec![
        "thr_R".into(),
        "thr_W".into(),
        "disk_gb_per_node_at_10m".into(),
    ];
    for (label, compression) in [("off", false), ("on", true)] {
        let config = CassandraConfig {
            compression,
            ..CassandraConfig::default()
        };
        let r = run_cassandra(config, nodes, &Workload::r(), profile);
        let w = run_cassandra(config, nodes, &Workload::w(), profile);
        let disk = w
            .disk_bytes_per_node
            .map(|b| b as f64 / profile.scale / profile.data_factor / 1e9);
        table.push_row(
            label,
            vec![Some(r.throughput()), Some(w.throughput()), disk],
        );
    }
    table
}

/// §6 ablation: the default random token draw vs. the paper's manually
/// assigned optimal tokens ("this default behavior frequently resulted
/// in a highly unbalanced workload").
pub fn token_ablation(profile: &ExperimentProfile) -> Table {
    let nodes = 8;
    let mut table = Table::new(
        "Extension: Cassandra token assignment (workload R, 8 nodes)",
        "tokens",
        "ops/sec | ms",
    );
    table.columns = vec!["throughput".into(), "read_ms".into()];
    for (label, tokens) in [
        ("optimal", TokenAssignment::Optimal),
        ("random", TokenAssignment::Random { seed: profile.seed }),
    ] {
        let result = run_cassandra(
            CassandraConfig {
                tokens,
                ..CassandraConfig::default()
            },
            nodes,
            &Workload::r(),
            profile,
        );
        table.push_row(
            label,
            vec![
                Some(result.throughput()),
                result.mean_latency_ms(OpKind::Read),
            ],
        );
    }
    table
}

/// Skew ablation: the paper used uniform key popularity only; YCSB's
/// zipfian chooser concentrates load on hot keys — and therefore on the
/// shards that own them.
pub fn skew_ablation(profile: &ExperimentProfile) -> Table {
    let nodes = 8;
    let mut table = Table::new(
        "Extension: key popularity skew (Cassandra, workload R, 8 nodes)",
        "distribution",
        "ops/sec | ms",
    );
    table.columns = vec!["throughput".into(), "read_ms".into()];
    for (label, distribution) in [
        ("uniform", KeyDistribution::Uniform),
        ("zipfian", KeyDistribution::Zipfian(0.99)),
        ("latest", KeyDistribution::Latest),
    ] {
        let workload = Workload {
            distribution,
            ..Workload::r()
        };
        let result = run_cassandra(CassandraConfig::default(), nodes, &workload, profile);
        table.push_row(
            label,
            vec![
                Some(result.throughput()),
                result.mean_latency_ms(OpKind::Read),
            ],
        );
    }
    table
}

/// Compaction-strategy ablation: the DESIGN.md-called-out LSM design
/// choice. Size-tiered (Cassandra 1.0 default) trades read amplification
/// for write amplification; the leveled policy does the opposite.
pub fn compaction_ablation(profile: &ExperimentProfile) -> Table {
    let nodes = 4;
    let mut table = Table::new(
        "Extension: compaction strategy (Cassandra, 4 nodes)",
        "strategy",
        "ops/sec | ms",
    );
    table.columns = vec!["thr_R".into(), "thr_W".into(), "read_ms_R".into()];
    for (label, strategy) in [
        ("size-tiered", CompactionStrategy::SizeTiered),
        ("leveled", CompactionStrategy::Leveled),
    ] {
        let config = CassandraConfig {
            strategy,
            ..CassandraConfig::default()
        };
        let r = run_cassandra(config, nodes, &Workload::r(), profile);
        let w = run_cassandra(config, nodes, &Workload::w(), profile);
        table.push_row(
            label,
            vec![
                Some(r.throughput()),
                Some(w.throughput()),
                r.mean_latency_ms(OpKind::Read),
            ],
        );
    }
    table
}

/// The §7-cited Jeong comparison re-created with the excluded
/// document-store class included: Cassandra vs. HBase vs. a
/// MongoDB-2.0-like store across the three scanless workloads.
pub fn mongodb_comparison(profile: &ExperimentProfile) -> Table {
    let nodes = 4;
    let mut table = Table::new(
        "Extension: document store vs. the paper's winners (4 nodes, Cluster M)",
        "workload",
        "ops/sec",
    );
    table.columns = vec!["cassandra".into(), "hbase".into(), "mongodb".into()];
    for workload in [Workload::r(), Workload::rw(), Workload::w()] {
        let cells = [
            StoreSpec::Kind(StoreKind::Cassandra),
            StoreSpec::Kind(StoreKind::HBase),
            StoreSpec::Mongo,
        ]
        .into_iter()
        .map(|store| {
            let scenario =
                Scenario::new(store, ClusterSpec::cluster_m(), nodes, &workload, profile);
            Some(scenario.run().result.throughput())
        })
        .collect();
        table.push_row(workload.name, cells);
    }
    table
}

/// Elasticity: bootstrap a fifth Cassandra node in the middle of a
/// workload-R run (the §7-cited Konstantinou et al. question). The table
/// is the per-second throughput timeline; the bootstrap streams half of
/// one node's data, and — with single-token-per-node assignment — the
/// cluster barely speeds up afterwards, because only the victim's load
/// halves: the §6 token lesson, measured.
pub fn elasticity(profile: &ExperimentProfile) -> Table {
    let nodes = 4;
    let window = profile.measure_secs.max(8.0) * 2.0;
    let add_at = window / 2.0;
    let mut scenario = Scenario::new(
        StoreKind::Cassandra,
        ClusterSpec::cluster_m(),
        nodes,
        &Workload::r(),
        profile,
    );
    scenario.config.client.measure_secs = window;
    scenario.config.event_at_secs = Some(add_at);
    let run = scenario.run();
    let mut table = Table::new(
        &format!(
            "Extension: live bootstrap 4→5 nodes at t={add_at:.0}s (Cassandra, workload R; streamed {:.1} MB)",
            run.store.streamed_bytes() as f64 / 1e6
        ),
        "second",
        "ops completed",
    );
    table.columns = vec!["ops_per_sec".into()];
    for (sec, &count) in run.result.stats.timeline().iter().enumerate() {
        table.push_row(&sec.to_string(), vec![Some(count as f64)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ExperimentProfile {
        ExperimentProfile::test()
    }

    #[test]
    fn replication_costs_throughput_and_multiplies_disk() {
        let t = replication_sweep(&profile());
        let thr1 = t.get("1", "throughput").unwrap();
        let thr3 = t.get("3", "throughput").unwrap();
        assert!(thr3 < thr1, "rf=3 must cost throughput: {thr1} → {thr3}");
        let d1 = t.get("1", "disk_gb_per_node_at_10m").unwrap();
        let d3 = t.get("3", "disk_gb_per_node_at_10m").unwrap();
        let ratio = d3 / d1;
        assert!(
            (2.5..3.5).contains(&ratio),
            "rf=3 disk must triple: {ratio:.2}"
        );
    }

    #[test]
    fn compression_halves_disk_and_costs_read_throughput() {
        let t = compression_ablation(&profile());
        let disk_off = t.get("off", "disk_gb_per_node_at_10m").unwrap();
        let disk_on = t.get("on", "disk_gb_per_node_at_10m").unwrap();
        assert!(
            (0.4..0.7).contains(&(disk_on / disk_off)),
            "compression ratio: {}",
            disk_on / disk_off
        );
        let r_off = t.get("off", "thr_R").unwrap();
        let r_on = t.get("on", "thr_R").unwrap();
        assert!(
            r_on < r_off,
            "decompression must cost read throughput: {r_off} → {r_on}"
        );
    }

    #[test]
    fn random_tokens_lose_throughput() {
        // §6: random tokens → unbalanced ring → the hottest node gates
        // the closed loop.
        let t = token_ablation(&profile());
        let optimal = t.get("optimal", "throughput").unwrap();
        let random = t.get("random", "throughput").unwrap();
        assert!(
            random < optimal * 0.97,
            "random tokens must cost throughput: {optimal} vs {random}"
        );
    }

    #[test]
    fn extension_ids_are_unique_and_unknown_ids_generate_nothing() {
        let ids: Vec<&str> = all_extensions().iter().map(|e| e.id).collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(id.starts_with("ext-"), "{id}");
            assert!(!ids[..i].contains(id), "duplicate extension {id}");
        }
        assert!(generate_extension("ext-nope", &profile()).is_none());
    }

    #[test]
    fn mongodb_sits_between_for_reads_and_trails_for_writes() {
        // §7/Jeong: "MongoDB is shown to be less performant" — the global
        // write lock caps its write-heavy throughput below Cassandra's,
        // while its read path beats HBase's HDFS indirection.
        let t = mongodb_comparison(&profile());
        let mongo_w = t.get("W", "mongodb").unwrap();
        let cassandra_w = t.get("W", "cassandra").unwrap();
        assert!(
            mongo_w < cassandra_w * 0.6,
            "mongo W {mongo_w} vs cassandra {cassandra_w}"
        );
        let mongo_r = t.get("R", "mongodb").unwrap();
        let hbase_r = t.get("R", "hbase").unwrap();
        assert!(
            mongo_r > hbase_r,
            "mongo R {mongo_r} must beat hbase {hbase_r}"
        );
    }

    #[test]
    fn elasticity_timeline_recovers_after_the_bootstrap() {
        let t = elasticity(&profile());
        let timeline: Vec<f64> = t
            .rows
            .iter()
            .filter_map(|r| t.get(r, "ops_per_sec"))
            .collect();
        assert!(
            timeline.len() >= 6,
            "timeline too short: {}",
            timeline.len()
        );
        let half = timeline.len() / 2;
        let pre: f64 = timeline[1..half - 1].iter().sum::<f64>() / (half - 2) as f64;
        let post: f64 =
            timeline[half + 1..].iter().sum::<f64>() / (timeline.len() - half - 1) as f64;
        // Throughput must survive the bootstrap (within 25% of before, in
        // either direction — a 5th node with one token barely helps).
        assert!(
            post > pre * 0.75,
            "post-bootstrap collapse: pre {pre:.0} post {post:.0}"
        );
        assert!(
            t.title.contains("streamed"),
            "title must report streamed bytes"
        );
    }

    #[test]
    fn compaction_ablation_runs_both_strategies() {
        let t = compaction_ablation(&profile());
        for row in ["size-tiered", "leveled"] {
            assert!(t.get(row, "thr_W").unwrap() > 1_000.0, "{row} W collapsed");
            assert!(t.get(row, "thr_R").unwrap() > 1_000.0, "{row} R collapsed");
        }
    }

    #[test]
    fn skew_ablation_runs_and_keeps_throughput_positive() {
        let t = skew_ablation(&profile());
        for row in ["uniform", "zipfian", "latest"] {
            assert!(
                t.get(row, "throughput").unwrap() > 1_000.0,
                "{row} collapsed"
            );
        }
    }
}
