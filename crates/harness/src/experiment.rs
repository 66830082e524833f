//! One benchmark point: store × cluster × node count × workload.
//!
//! §3's methodology, scaled: fresh store per point (the paper reinstalled
//! from scratch per run), 10 M records/node × `scale`, warm-up plus a
//! measurement window, per-store client populations. A [`Scenario`] is
//! one such point as plain data; every simulated run in the harness is a
//! `Scenario` that was built, adjusted through its public
//! [`RunConfig`], and run.

use apm_core::driver::ClientConfig;
use apm_core::ops::OpKind;
use apm_core::snap::SnapError;
use apm_core::workload::Workload;
use apm_sim::{ClusterSpec, Engine};
use apm_stores::api::{DistributedStore, StoreCtx};
use apm_stores::cassandra::{CassandraConfig, CassandraStore};
use apm_stores::hbase::HbaseStore;
use apm_stores::mongodb::MongoStore;
use apm_stores::mysql::MysqlStore;
use apm_stores::redis::RedisStore;
use apm_stores::runner::{resume_benchmark_masked, run_benchmark_masked, RunConfig, RunResult};
use apm_stores::voldemort::VoldemortStore;
use apm_stores::voltdb::VoltDbStore;

/// The six stores, in the paper's legend order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StoreKind {
    Cassandra,
    HBase,
    Voldemort,
    VoltDb,
    Redis,
    Mysql,
}

impl StoreKind {
    /// All stores in legend order.
    pub const ALL: [StoreKind; 6] = [
        StoreKind::Cassandra,
        StoreKind::HBase,
        StoreKind::Voldemort,
        StoreKind::VoltDb,
        StoreKind::Redis,
        StoreKind::Mysql,
    ];

    /// Display name (figure legend).
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Cassandra => "cassandra",
            StoreKind::HBase => "hbase",
            StoreKind::Voldemort => "voldemort",
            StoreKind::VoltDb => "voltdb",
            StoreKind::Redis => "redis",
            StoreKind::Mysql => "mysql",
        }
    }

    /// Parses a store name.
    pub fn by_name(name: &str) -> Option<StoreKind> {
        StoreKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Whether the store's YCSB client supports scans (§5.4).
    pub fn supports_scans(self) -> bool {
        self != StoreKind::Voldemort
    }

    /// Whether the store persists to disk and can run on Cluster D
    /// (§5.8: Redis and VoltDB cannot; MySQL was omitted there for
    /// cluster-availability reasons — we follow the paper's figure).
    pub fn in_cluster_d_figures(self) -> bool {
        matches!(
            self,
            StoreKind::Cassandra | StoreKind::HBase | StoreKind::Voldemort
        )
    }

    /// Builds the store over a fresh context.
    pub fn build(
        self,
        engine: &mut Engine,
        cluster: ClusterSpec,
        nodes: u32,
        scale: f64,
        seed: u64,
    ) -> Box<dyn DistributedStore> {
        StoreSpec::Kind(self).build(engine, cluster, nodes, scale, seed)
    }
}

/// Which store a [`Scenario`] runs.
#[derive(Clone, Copy, Debug)]
pub enum StoreSpec {
    /// One of the paper's six, as benchmarked.
    Kind(StoreKind),
    /// Cassandra with a non-default configuration (the ablations, the
    /// replicated fault runs, the chaos fixture).
    Cassandra(CassandraConfig),
    /// The document store the paper excluded (`ext-mongodb`).
    Mongo,
}

impl From<StoreKind> for StoreSpec {
    fn from(kind: StoreKind) -> StoreSpec {
        StoreSpec::Kind(kind)
    }
}

impl From<CassandraConfig> for StoreSpec {
    fn from(config: CassandraConfig) -> StoreSpec {
        StoreSpec::Cassandra(config)
    }
}

impl StoreSpec {
    /// The one place the harness turns a spec into a live store. Redis
    /// gets its doubled client fleet (§6); everyone else the standard
    /// one.
    fn build(
        self,
        engine: &mut Engine,
        cluster: ClusterSpec,
        nodes: u32,
        scale: f64,
        seed: u64,
    ) -> Box<dyn DistributedStore> {
        let client_machines = if matches!(self, StoreSpec::Kind(StoreKind::Redis)) {
            RedisStore::client_machines(nodes)
        } else {
            StoreCtx::standard_client_machines(nodes)
        };
        let ctx = StoreCtx::new(engine, cluster, nodes, client_machines, scale, seed);
        match self {
            StoreSpec::Kind(StoreKind::Cassandra) => {
                Box::new(CassandraStore::new(ctx, CassandraConfig::default()))
            }
            StoreSpec::Cassandra(config) => Box::new(CassandraStore::new(ctx, config)),
            StoreSpec::Kind(StoreKind::HBase) => Box::new(HbaseStore::new(ctx, engine)),
            StoreSpec::Kind(StoreKind::Voldemort) => Box::new(VoldemortStore::new(ctx, engine)),
            StoreSpec::Kind(StoreKind::VoltDb) => Box::new(VoltDbStore::new(ctx, engine)),
            StoreSpec::Kind(StoreKind::Redis) => Box::new(RedisStore::new(ctx, engine)),
            StoreSpec::Kind(StoreKind::Mysql) => Box::new(MysqlStore::new(ctx, engine)),
            StoreSpec::Mongo => Box::new(MongoStore::new(ctx, engine)),
        }
    }
}

/// Global knobs for a reproduction run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExperimentProfile {
    /// Dataset scale: 1.0 = the paper's 10 M records per node. Memory
    /// budgets (page caches, buffer pools) scale with this too, keeping
    /// data:RAM ratios faithful.
    pub scale: f64,
    /// Extra dataset multiplier applied to the record count but *not* to
    /// memory budgets — Cluster D loads 150 M records over 8 nodes
    /// (18.75 M/node = 1.875× the Cluster-M density), which is what makes
    /// it disk-bound (§5.8).
    pub data_factor: f64,
    /// Warm-up excluded from statistics, simulated seconds.
    pub warmup_secs: f64,
    /// Measurement window, simulated seconds (paper: 600 s).
    pub measure_secs: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExperimentProfile {
    /// Default profile: 1/200 of the paper's data (50 K records/node),
    /// 8-second windows. Ratios that matter (data : RAM, flush cadence
    /// per record) are preserved by scaling memory budgets identically.
    pub fn quick() -> ExperimentProfile {
        ExperimentProfile {
            scale: 0.005,
            data_factor: 1.0,
            warmup_secs: 2.0,
            measure_secs: 8.0,
            seed: 0xA9A1_2012,
        }
    }

    /// Tiny profile for unit/integration tests.
    pub fn test() -> ExperimentProfile {
        ExperimentProfile {
            scale: 0.002,
            data_factor: 1.0,
            warmup_secs: 0.5,
            measure_secs: 3.0,
            seed: 7,
        }
    }

    /// Records per node at this scale.
    pub fn records_per_node(&self) -> u64 {
        (10_000_000.0 * self.scale * self.data_factor) as u64
    }
}

/// One measured point.
#[derive(Clone, Debug)]
pub struct Point {
    pub store: StoreKind,
    pub nodes: u32,
    pub workload: &'static str,
    pub result: RunResult,
}

impl Point {
    /// Throughput in ops/s.
    pub fn throughput(&self) -> f64 {
        self.result.throughput()
    }

    /// Mean latency in ms for an operation kind.
    pub fn latency_ms(&self, kind: OpKind) -> Option<f64> {
        self.result.mean_latency_ms(kind)
    }
}

/// Runs one point at maximum throughput. Anything more — a throttle
/// (§5.6), faults, a deadline — is a [`Scenario`] with that field set.
pub fn run_point(
    store: StoreKind,
    cluster: ClusterSpec,
    nodes: u32,
    workload: &Workload,
    profile: &ExperimentProfile,
) -> Point {
    Point {
        store,
        nodes,
        workload: workload.name,
        result: Scenario::new(store, cluster, nodes, workload, profile)
            .run()
            .result,
    }
}

/// One cell of the experimental matrix as plain data: which store, on
/// which cluster, at which dataset scale, driven by which [`RunConfig`].
/// [`Scenario::new`] owns the §3 rules every point shares; anything a
/// particular experiment adds (a throttle, a fault schedule, telemetry,
/// a resilience policy, checkpoints, a longer window) is set on
/// `config` directly.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub store: StoreSpec,
    pub cluster: ClusterSpec,
    /// Dataset and memory-budget scale (see [`ExperimentProfile::scale`]).
    pub scale: f64,
    /// What the driver runs; `config.nodes` and `config.seed` also size
    /// and seed the store.
    pub config: RunConfig,
}

/// A finished (or resumed-and-finished) scenario, engine and store kept
/// alive for whoever reads kernel counters or store state afterwards.
pub struct ScenarioRun {
    pub engine: Engine,
    pub store: Box<dyn DistributedStore>,
    pub result: RunResult,
}

impl Scenario {
    /// The point `(store, cluster, nodes, workload)` under `profile`:
    /// Cluster D gets its reduced connection count (§3), the window,
    /// record count and seed come from the profile, and nothing optional
    /// is switched on.
    pub fn new(
        store: impl Into<StoreSpec>,
        cluster: ClusterSpec,
        nodes: u32,
        workload: &Workload,
        profile: &ExperimentProfile,
    ) -> Scenario {
        let client = if cluster.name == "D" {
            ClientConfig::cluster_d(nodes)
        } else {
            ClientConfig::cluster_m(nodes)
        }
        .with_window(profile.warmup_secs, profile.measure_secs);
        Scenario {
            store: store.into(),
            cluster,
            scale: profile.scale,
            config: RunConfig::new(
                workload.clone(),
                client,
                profile.records_per_node(),
                nodes,
                profile.seed,
            ),
        }
    }

    /// A fresh engine and the scenario's store over it, nothing loaded.
    pub fn build(&self) -> (Engine, Box<dyn DistributedStore>) {
        let mut engine = Engine::new();
        let store = self.store.build(
            &mut engine,
            self.cluster,
            self.config.nodes,
            self.scale,
            self.config.seed,
        );
        (engine, store)
    }

    /// Loads and runs the scenario from scratch.
    pub fn run(&self) -> ScenarioRun {
        self.run_masked(None)
    }

    /// [`Scenario::run`] under a fault-event mask (see
    /// [`run_benchmark_masked`]).
    pub fn run_masked(&self, mask: Option<&[bool]>) -> ScenarioRun {
        self.run_with(false, mask)
    }

    /// [`Scenario::run`] with the kernel's span tracer on
    /// ([`Engine::enable_trace`]): the same run and report, and the
    /// returned engine holds the tracer.
    pub fn run_traced(&self) -> ScenarioRun {
        self.run_with(true, None)
    }

    fn run_with(&self, trace: bool, mask: Option<&[bool]>) -> ScenarioRun {
        let (mut engine, mut store) = self.build();
        if trace {
            engine.enable_trace();
        }
        let result = run_benchmark_masked(&mut engine, store.as_mut(), &self.config, mask);
        ScenarioRun {
            engine,
            store,
            result,
        }
    }

    /// Finishes the scenario from one of its own sealed checkpoints.
    pub fn resume(&self, snapshot: &[u8]) -> Result<ScenarioRun, SnapError> {
        self.resume_masked(snapshot, None)
    }

    /// [`Scenario::resume`] under a fault-event mask (see
    /// [`resume_benchmark_masked`]).
    pub fn resume_masked(
        &self,
        snapshot: &[u8],
        mask: Option<&[bool]>,
    ) -> Result<ScenarioRun, SnapError> {
        let (mut engine, mut store) = self.build();
        let result =
            resume_benchmark_masked(&mut engine, store.as_mut(), &self.config, snapshot, mask)?;
        Ok(ScenarioRun {
            engine,
            store,
            result,
        })
    }

    /// Per-node disk bytes after the load phase alone. Run-time inserts
    /// depend on throughput and would skew a per-record comparison, so
    /// the disk-usage figures read this instead of a run's end state.
    pub fn loaded_disk_bytes(&self) -> Option<u64> {
        let (_, mut store) = self.build();
        store.load_range(0..self.config.records_per_node * u64::from(self.config.nodes));
        store.finish_load();
        store.disk_bytes_per_node()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_kinds_roundtrip_names() {
        for kind in StoreKind::ALL {
            assert_eq!(StoreKind::by_name(kind.name()), Some(kind));
        }
        assert_eq!(StoreKind::by_name("mongodb"), None);
    }

    #[test]
    fn voldemort_is_the_only_scanless_store() {
        let scanless: Vec<_> = StoreKind::ALL
            .into_iter()
            .filter(|k| !k.supports_scans())
            .collect();
        assert_eq!(scanless, vec![StoreKind::Voldemort]);
    }

    #[test]
    fn cluster_d_runs_the_three_disk_stores() {
        let d: Vec<_> = StoreKind::ALL
            .into_iter()
            .filter(|k| k.in_cluster_d_figures())
            .collect();
        assert_eq!(
            d,
            vec![StoreKind::Cassandra, StoreKind::HBase, StoreKind::Voldemort]
        );
    }

    #[test]
    fn profile_scales_record_counts() {
        let p = ExperimentProfile {
            scale: 0.01,
            data_factor: 1.0,
            warmup_secs: 1.0,
            measure_secs: 2.0,
            seed: 1,
        };
        assert_eq!(p.records_per_node(), 100_000);
        let d = ExperimentProfile {
            data_factor: 1.875,
            ..p
        };
        assert_eq!(d.records_per_node(), 187_500, "Cluster D density");
    }

    #[test]
    fn run_point_produces_throughput_for_every_store() {
        let profile = ExperimentProfile::test();
        for kind in StoreKind::ALL {
            let point = run_point(
                kind,
                ClusterSpec::cluster_m(),
                1,
                &apm_core::workload::Workload::rw(),
                &profile,
            );
            assert!(
                point.throughput() > 500.0,
                "{} produced no throughput",
                kind.name()
            );
        }
    }
}
