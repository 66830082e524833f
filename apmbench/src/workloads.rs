//! The five workloads: what each one runs, and why it exists.
//!
//! A workload is a fixed list of simulated benchmark points generated
//! from the seed. One *pass* drives the whole list once through the
//! public entry points a user calls (`figures::generate`, `run_point`,
//! `run_benchmark` / `resume_benchmark`); a run repeats passes until its
//! time budget is spent and reports the median pass. The program under
//! test only ever sees the generated [`RunConfig`]s.
//!
//! The sizes are the issue's sizes with every simulated window divided
//! by one common factor ([`SHRINK`]) — and `load_disk`'s data scale by
//! four, see [`LOAD_DISK_SCALE`] — so that a pass takes 3–10 s of host
//! time and a 15 s run holds one to four of them: no point was dropped.

use apm_core::driver::ClientConfig;
use apm_core::keyspace::record_for_seq;
use apm_core::report::Table;
use apm_core::rng::SplitMix64;
use apm_core::snap::{fnv1a64, SnapWriter};
use apm_core::stats::BenchStats;
use apm_core::workload::Workload;
use apm_harness::experiment::{run_point, ExperimentProfile, StoreKind};
use apm_harness::output::{
    render_experiments_md, write_csv, write_gnuplot, FigureResult, ResultsFile,
};
use apm_harness::{figures, reference, shape};
use apm_sim::{ClusterSpec, Engine, FaultSchedule, SimDuration, SimTime};
use apm_stores::api::{DistributedStore, StoreCtx};
use apm_stores::cassandra::{CassandraConfig, CassandraStore};
use apm_stores::resilience::{BreakerPolicy, HedgePolicy, RetryPolicy};
use apm_stores::runner::{resume_benchmark, run_benchmark, CheckpointSpec, RunConfig, RunResult};
use apm_stores::ResiliencePolicy;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Common factor by which every simulated window of the issue's sizing
/// is divided: the contract's run budget is well under the 15–25 s a
/// full-size pass takes, and a traced run needs the pass twice. Not
/// more than three: at five the load phase grows to 22 % of
/// `point_kernel` and its kernel + generator + stats share falls to
/// 0.44, below the 0.45 the design calls for; at three it is 0.49.
pub const SHRINK: f64 = 3.0;

/// Data scale of `load_disk`: a quarter of the issue's 0.01. Its host
/// time is its load phase, which no window shrink reaches; at 0.01 one
/// pass takes 20 s and a traced run twice that. 46 875 records per node,
/// 375 000 per point, nine points.
pub const LOAD_DISK_SCALE: f64 = 0.0025;

/// The five workloads. Names are fixed; later issues refer to them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkloadId {
    FiguresR,
    PointKernel,
    ScanPlanner,
    LoadDisk,
    ResilientFaults,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::FiguresR,
        WorkloadId::PointKernel,
        WorkloadId::ScanPlanner,
        WorkloadId::LoadDisk,
        WorkloadId::ResilientFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::FiguresR => "figures_r",
            WorkloadId::PointKernel => "point_kernel",
            WorkloadId::ScanPlanner => "scan_planner",
            WorkloadId::LoadDisk => "load_disk",
            WorkloadId::ResilientFaults => "resilient_faults",
        }
    }

    pub fn by_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (mirrored in BENCHMARK.json;
    /// the schema test keeps the two in step).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::FiguresR => {
                "repro's fig3+fig4 grid (Workload R, 6 stores x 1-12 nodes, run twice) plus checks and output: \
                 the path end users feel and the only one through the harness grid loop"
            }
            WorkloadId::PointKernel => {
                "Redis and VoltDB points with the highest simulated-op rate: kernel, workload generator and stats \
                 dominate, plan_op is small; the 12-node point outgrows host caches"
            }
            WorkloadId::ScanPlanner => {
                "Workload RS on 4 nodes for the five scanning stores: plan_op with real storage scans is most of \
                 the time and the kernel little, so kernel work should not move it"
            }
            WorkloadId::LoadDisk => {
                "fig18 grid on Cluster D (8 nodes, 375 k records a point): disk-bound in simulated time, so few \
                 client ops and bulk load into LSM/B+tree/HDFS dominates; kernel and plan_op work should not move it"
            }
            WorkloadId::ResilientFaults => {
                "RW on 4 nodes under a crash and a fail-slow with retry+hedge+breaker, deadlines, telemetry, \
                 checkpoints and a resume: the resilient driver, cancel, fault dispatch and snapshot paths"
            }
        }
    }
}

/// One closed-loop point: a store on a cluster under a workload. Both
/// the reference entry point and the traced loop are driven from it.
#[derive(Clone, Debug)]
pub struct PointSpec {
    pub store: StoreKind,
    pub cluster: ClusterSpec,
    pub nodes: u32,
    pub workload: Workload,
    pub profile: ExperimentProfile,
    /// Cassandra replication factor; 1 (the paper's) except on
    /// `resilient_faults`, where a crash needs a second replica to hedge
    /// and retry against. Ignored by the other stores.
    pub replication: usize,
}

impl PointSpec {
    fn cluster_m(
        store: StoreKind,
        nodes: u32,
        workload: Workload,
        profile: ExperimentProfile,
    ) -> PointSpec {
        PointSpec {
            store,
            cluster: ClusterSpec::cluster_m(),
            nodes,
            workload,
            profile,
            replication: 1,
        }
    }

    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}x{}",
            self.store.name(),
            self.workload.name,
            self.cluster.name,
            self.nodes
        )
    }

    /// Records the load phase inserts.
    pub fn records(&self) -> u64 {
        self.profile.records_per_node() * u64::from(self.nodes)
    }

    /// Builds the store the way `run_point` does (and with the requested
    /// replication factor where that differs from the harness default).
    pub fn build_store(&self, engine: &mut Engine) -> Box<dyn DistributedStore> {
        if self.store == StoreKind::Cassandra && self.replication != 1 {
            let ctx = StoreCtx::new(
                engine,
                self.cluster,
                self.nodes,
                StoreCtx::standard_client_machines(self.nodes),
                self.profile.scale,
                self.profile.seed,
            );
            let config = CassandraConfig {
                replication: self.replication,
                ..CassandraConfig::default()
            };
            return Box::new(CassandraStore::new(ctx, config));
        }
        self.store.build(
            engine,
            self.cluster,
            self.nodes,
            self.profile.scale,
            self.profile.seed,
        )
    }

    /// The fault-free, policy-free configuration `run_point` builds for
    /// this point. The traced loop needs it spelled out; self-check (a)
    /// fails if the harness ever builds something else.
    pub fn run_config(&self) -> RunConfig {
        let client = if self.cluster.name == "D" {
            ClientConfig::cluster_d(self.nodes)
        } else {
            ClientConfig::cluster_m(self.nodes)
        }
        .with_window(self.profile.warmup_secs, self.profile.measure_secs);
        RunConfig {
            workload: self.workload.clone(),
            client,
            records_per_node: self.profile.records_per_node(),
            nodes: self.nodes,
            seed: self.profile.seed,
            event_at_secs: None,
            faults: FaultSchedule::none(),
            op_deadline: None,
            telemetry_window_secs: None,
            resilience: None,
            checkpoints: None,
        }
    }

    /// Runs the point through the public entry point: `run_point`, or —
    /// where the harness factory cannot build the store —
    /// `run_benchmark` over a bench-built store.
    pub fn run_reference(&self) -> RunResult {
        if self.replication == 1 {
            return run_point(
                self.store,
                self.cluster,
                self.nodes,
                &self.workload,
                &self.profile,
            )
            .result;
        }
        let mut engine = Engine::new();
        let mut store = self.build_store(&mut engine);
        run_benchmark(&mut engine, store.as_mut(), &self.run_config())
    }
}

/// A `resilient_faults` run: the point plus its fault schedule, policy,
/// deadline, telemetry and checkpoint settings.
#[derive(Clone, Debug)]
pub struct ResilientSpec {
    pub point: PointSpec,
    pub config: RunConfig,
}

/// Checkpoint the `resilient_faults` resume starts from.
pub const RESUME_FROM: usize = 1;

/// Everything a workload runs, generated from the seed during set-up.
#[derive(Clone, Debug)]
pub struct WorkloadPlan {
    pub id: WorkloadId,
    /// The closed-loop points, in run order. `figures_r`: the fig3/fig4
    /// grid; `resilient_faults`: the fault-free twins of its runs (what
    /// the traced loop can drive).
    pub points: Vec<PointSpec>,
    /// `resilient_faults` only.
    pub resilient: Vec<ResilientSpec>,
}

fn shrunk(scale: f64, data_factor: f64, warmup: f64, measure: f64, seed: u64) -> ExperimentProfile {
    ExperimentProfile {
        scale,
        data_factor,
        warmup_secs: warmup / SHRINK,
        measure_secs: measure / SHRINK,
        seed,
    }
}

/// The quick profile (scale 0.005, 2 s + 8 s) with shrunk windows.
fn quick(seed: u64) -> ExperimentProfile {
    shrunk(0.005, 1.0, 2.0, 8.0, seed)
}

impl WorkloadPlan {
    /// Generates the workload's inputs from the seed.
    pub fn generate(id: WorkloadId, seed: u64) -> WorkloadPlan {
        let mut plan = WorkloadPlan {
            id,
            points: Vec::new(),
            resilient: Vec::new(),
        };
        match id {
            WorkloadId::FiguresR => {
                // The profile handed to `figures::generate`, and the grid
                // in the order `node_sweep` runs it.
                let figures_profile = shrunk(0.002, 1.0, 0.25, 1.0, seed);
                for nodes in figures::NODE_COUNTS {
                    for store in StoreKind::ALL {
                        plan.points.push(PointSpec::cluster_m(
                            store,
                            nodes,
                            Workload::r(),
                            figures_profile,
                        ));
                    }
                }
            }
            WorkloadId::PointKernel => {
                let q = quick(seed);
                let mut add = |store, nodes, workload| {
                    plan.points
                        .push(PointSpec::cluster_m(store, nodes, workload, q));
                };
                add(StoreKind::Redis, 1, Workload::r());
                add(StoreKind::Redis, 1, Workload::rw());
                add(StoreKind::Redis, 4, Workload::r());
                add(StoreKind::Redis, 4, Workload::rw());
                add(StoreKind::Redis, 12, Workload::r());
                add(StoreKind::VoltDb, 1, Workload::r());
                add(StoreKind::VoltDb, 1, Workload::rw());
                add(StoreKind::VoltDb, 1, Workload::w());
            }
            WorkloadId::ScanPlanner => {
                let q = quick(seed);
                for store in StoreKind::ALL {
                    if store.supports_scans() {
                        plan.points
                            .push(PointSpec::cluster_m(store, 4, Workload::rs(), q));
                    }
                }
            }
            WorkloadId::LoadDisk => {
                // The fig18 grid: 150 M records over 8 nodes is 1.875x
                // the Cluster-M density at an unchanged memory budget.
                let d = shrunk(LOAD_DISK_SCALE, 1.875, 2.0, 8.0, seed);
                for workload in [Workload::r(), Workload::rw(), Workload::w()] {
                    for store in StoreKind::ALL {
                        if store.in_cluster_d_figures() {
                            plan.points.push(PointSpec {
                                store,
                                cluster: ClusterSpec::cluster_d(),
                                nodes: figures::FIXED_NODES,
                                workload: workload.clone(),
                                profile: d,
                                replication: 1,
                            });
                        }
                    }
                }
            }
            WorkloadId::ResilientFaults => {
                let q = quick(seed);
                let mut jitter = SplitMix64::new(seed ^ 0xFA17_5EED);
                for (store, replication) in [
                    (StoreKind::Cassandra, 2),
                    (StoreKind::HBase, 1),
                    (StoreKind::Redis, 1),
                ] {
                    let point = PointSpec {
                        replication,
                        ..PointSpec::cluster_m(store, 4, Workload::rw(), q)
                    };
                    let config = resilient_config(&point, &mut jitter);
                    plan.resilient.push(ResilientSpec {
                        point: point.clone(),
                        config,
                    });
                    plan.points.push(point);
                }
            }
        }
        plan
    }

    /// The workload's cheapest point: run once, untimed, during set-up
    /// so that lazy initialisation and allocator growth are not charged
    /// to the first timed pass.
    pub fn warmup_point(&self) -> &PointSpec {
        &self.points[self.warmup_index()]
    }

    /// Index of [`WorkloadPlan::warmup_point`] in `points`.
    pub fn warmup_index(&self) -> usize {
        (0..self.points.len())
            .min_by_key(|&i| self.points[i].records())
            .expect("every workload has points")
    }
}

/// Standard retry + hedge + breaker, a 50 ms deadline, node 1 crashing
/// over [2 s, 4 s) and node 2 running 8x slow over [5 s, 7 s) of the
/// 8 s window — all divided by [`SHRINK`] — one telemetry window per
/// (shrunk) second and a checkpoint every two. The seed moves each fault
/// by up to a tenth of a (shrunk) second.
fn resilient_config(point: &PointSpec, jitter: &mut SplitMix64) -> RunConfig {
    let mut at = |secs: f64| {
        let jittered = secs + 0.1 * jitter.next_frac();
        SimTime(SimDuration::from_secs_f64(jittered / SHRINK).as_nanos())
    };
    let faults = FaultSchedule::none()
        .crash(1, at(2.0), at(4.0))
        .fail_slow(2, at(5.0), at(7.0), 8);
    RunConfig {
        faults,
        op_deadline: Some(SimDuration::from_millis(50)),
        telemetry_window_secs: Some(1.0 / SHRINK),
        resilience: Some(ResiliencePolicy {
            retry: Some(RetryPolicy::standard()),
            hedge: Some(HedgePolicy::standard()),
            breaker: Some(BreakerPolicy::standard()),
            admission: None,
        }),
        checkpoints: Some(CheckpointSpec::every(2.0 / SHRINK)),
        ..point.run_config()
    }
}

/// What one run (one call into a public entry point) did.
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    pub label: String,
    /// When the public entry point was called, and the host seconds it
    /// took.
    pub started: Option<Instant>,
    pub wall_s: f64,
    /// Calls into `DistributedStore::load` + `plan_op` made for the run.
    pub store_calls: u64,
    /// Simulated operations attempted in the measurement window.
    pub sim_ops: u64,
    /// Of those, resolved as error, timeout or missing read.
    pub sim_failed: u64,
    /// Self-check failures (empty when the run is good). A panic inside
    /// the run is recorded here too.
    pub problems: Vec<String>,
}

/// Figures-only by-products of a pass.
#[derive(Clone, Debug, Default)]
pub struct FiguresDetail {
    pub points: u64,
    pub shape_checks: u64,
    pub shape_failed: u64,
    pub reference_points: u64,
    pub paper_rel_err_p50: f64,
}

/// Resilient-only by-products of a pass.
#[derive(Clone, Debug, Default)]
pub struct ResilientDetail {
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub retries: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub breaker_transitions: u64,
    pub shed: u64,
    pub fault_events: u64,
    pub telemetry_windows: u64,
    /// Host seconds inside `run_benchmark` and `resume_benchmark`.
    pub run_busy_s: f64,
    pub resume_busy_s: f64,
}

/// Host seconds one pass spent in the harness output layer.
#[derive(Clone, Debug, Default)]
pub struct OutputTiming {
    /// Shape checks, capture, JSON/markdown rendering and file writes.
    pub render_busy_s: f64,
    pub bytes: u64,
    /// Re-parse of the written `results.json`.
    pub parse_busy_s: f64,
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct PassOutcome {
    pub runs: Vec<RunRecord>,
    /// The simulated results, for fingerprinting and for self-check (a).
    /// `figures_r` has none (`generate` returns tables); the others hold
    /// one per point, in `plan.points` order.
    pub results: Vec<RunResult>,
    /// The pass's results as the harness's own table type.
    pub tables: Vec<(String, Table)>,
    /// FNV-1a over the `Snap` bytes of every `RunResult.stats`, or over
    /// the CSV bytes for `figures_r`. Same commit + same seed = same
    /// value; a change that only speeds the simulator up must keep it.
    pub sim_fingerprint: u64,
    pub figures: FiguresDetail,
    pub resilient: ResilientDetail,
    pub output: OutputTiming,
}

impl PassOutcome {
    pub fn store_calls(&self) -> u64 {
        self.runs.iter().map(|r| r.store_calls).sum()
    }

    /// Calls belonging to runs that panicked or failed a self-check.
    pub fn failed_calls(&self) -> u64 {
        self.runs
            .iter()
            .filter(|r| !r.problems.is_empty())
            .map(|r| r.store_calls.max(1))
            .sum()
    }

    pub fn sim_ops(&self) -> u64 {
        self.runs.iter().map(|r| r.sim_ops).sum()
    }

    pub fn sim_failed(&self) -> u64 {
        self.runs.iter().map(|r| r.sim_failed).sum()
    }

    /// (simulated ops resolved as error, timeout or missing read + all
    /// ops of runs that panicked or failed a self-check) / ops attempted.
    pub fn failed_share(&self) -> f64 {
        let attempted: u64 = self.runs.iter().map(|r| r.sim_ops.max(1)).sum();
        let failed: u64 = self
            .runs
            .iter()
            .map(|r| {
                if r.problems.is_empty() {
                    r.sim_failed
                } else {
                    r.sim_ops.max(1)
                }
            })
            .sum();
        failed as f64 / attempted.max(1) as f64
    }

    pub fn problems(&self) -> Vec<String> {
        self.runs
            .iter()
            .flat_map(|r| r.problems.iter().map(move |p| format!("{}: {p}", r.label)))
            .collect()
    }
}

/// `Snap` bytes of a run's statistics: what "the simulated numbers did
/// not move" is checked on.
pub fn stats_bytes(stats: &BenchStats) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put(stats);
    w.into_bytes()
}

/// Self-check (c): the run's ledger balances and it did some work.
fn check_run(result: &RunResult, connections: u32, problems: &mut Vec<String>) {
    let ledger = &result.ledger;
    let residue = ledger.logical.saturating_sub(ledger.resolved);
    if ledger.resolved > ledger.logical || residue > u64::from(connections) {
        problems.push(format!(
            "ledger does not balance: logical {} resolved {} connections {connections}",
            ledger.logical, ledger.resolved
        ));
    }
    let throughput = result.throughput();
    if throughput.is_nan() || throughput <= 0.0 {
        problems.push("throughput is not positive".to_string());
    }
}

fn record_of(
    label: String,
    loaded: u64,
    result: &RunResult,
    took: Took,
    connections: u32,
) -> RunRecord {
    let stats = &result.stats;
    let mut record = RunRecord {
        label,
        started: Some(took.started),
        wall_s: took.secs,
        store_calls: loaded + result.issued,
        sim_ops: stats.total_ops() + stats.total_rejected() + stats.total_errors(),
        sim_failed: stats.total_errors(),
        problems: Vec::new(),
    };
    check_run(result, connections, &mut record.problems);
    record
}

/// A run that produced no result: the calls its load phase would have
/// made count as failed.
fn failed_run(label: String, loaded: u64, problem: String) -> RunRecord {
    RunRecord {
        label,
        store_calls: loaded,
        problems: vec![problem],
        ..RunRecord::default()
    }
}

/// A run that panicked.
fn panicked(label: String, loaded: u64, payload: Box<dyn std::any::Any + Send>) -> RunRecord {
    let what = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    failed_run(label, loaded, format!("panicked: {what}"))
}

/// When a timed call started and the host seconds it took.
#[derive(Clone, Copy, Debug)]
pub struct Took {
    pub started: Instant,
    pub secs: f64,
}

/// Runs `f` and says how long it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Took) {
    // Wall-clock by design: the benchmark measures host time.
    let started = Instant::now(); // audit:allow(clock)
    let r = f();
    let secs = started.elapsed().as_secs_f64();
    (r, Took { started, secs })
}

/// One pass of the workload through the public entry points. Output
/// files go under `out/<workload>/`.
pub fn run_pass(plan: &WorkloadPlan, out: &Path) -> PassOutcome {
    let mut outcome = match plan.id {
        WorkloadId::FiguresR => figures_pass(plan),
        WorkloadId::ResilientFaults => resilient_pass(plan),
        WorkloadId::PointKernel | WorkloadId::ScanPlanner | WorkloadId::LoadDisk => {
            points_pass(plan)
        }
    };
    // Fingerprint what the simulation produced: the statistics' bytes,
    // or the tables' CSV where the entry point returns only tables.
    let mut produced = Vec::new();
    if outcome.tables.is_empty() {
        for result in &outcome.results {
            produced.extend_from_slice(&stats_bytes(&result.stats));
        }
        let table = points_table(plan, &outcome.results);
        outcome.tables.push((plan.id.name().to_string(), table));
    } else {
        for (_, table) in &outcome.tables {
            produced.extend_from_slice(table.to_csv().as_bytes());
        }
    }
    outcome.sim_fingerprint = fnv1a64(&produced);
    let profile = plan.points[0].profile;
    let described = format!(
        "apmbench {} scale {} window {}+{} s seed {}",
        plan.id.name(),
        profile.scale,
        profile.warmup_secs,
        profile.measure_secs,
        profile.seed
    );
    write_outputs(&mut outcome, &described, &out.join(plan.id.name()));
    outcome
}

/// `run_point` (or its bench-built equivalent) over every point.
fn points_pass(plan: &WorkloadPlan) -> PassOutcome {
    let mut outcome = PassOutcome::default();
    for point in &plan.points {
        let connections = point.run_config().client.connections;
        match catch_unwind(AssertUnwindSafe(|| timed(|| point.run_reference()))) {
            Ok((result, took)) => {
                outcome.runs.push(record_of(
                    point.label(),
                    point.records(),
                    &result,
                    took,
                    connections,
                ));
                outcome.results.push(result);
            }
            Err(payload) => outcome
                .runs
                .push(panicked(point.label(), point.records(), payload)),
        }
    }
    outcome
}

/// Throughput and mean latencies per point, as a harness table.
fn points_table(plan: &WorkloadPlan, results: &[RunResult]) -> Table {
    use apm_core::ops::OpKind;
    let mut table = Table::new(
        &format!("apmbench workload {}", plan.id.name()),
        "point",
        "ops/sec | ms",
    );
    table.columns = vec![
        "throughput".into(),
        "read_ms".into(),
        "scan_ms".into(),
        "insert_ms".into(),
    ];
    for (point, result) in plan.points.iter().zip(results) {
        table.push_row(
            &point.label(),
            vec![
                Some(result.throughput()),
                result.mean_latency_ms(OpKind::Read),
                result.mean_latency_ms(OpKind::Scan),
                result.mean_latency_ms(OpKind::Insert),
            ],
        );
    }
    table
}

/// Renders and writes the pass's tables through `harness::output`, then
/// self-check (d): the written `results.json` parses back.
fn write_outputs(outcome: &mut PassOutcome, profile: &str, dir: &Path) {
    let mut problems = Vec::new();
    let (bytes, render) = timed(|| {
        let mut results = ResultsFile {
            profile: profile.to_string(),
            figures: Vec::new(),
        };
        let mut bytes = 0u64;
        for (id, table) in &outcome.tables {
            let checks = shape::checks_for(id, table);
            outcome.figures.shape_checks += checks.len() as u64;
            outcome.figures.shape_failed += checks.iter().filter(|c| !c.pass).count() as u64;
            results
                .figures
                .push(FigureResult::capture(id, table, &checks));
            for written in [write_csv(dir, id, table), write_gnuplot(dir, id, table)] {
                match written.and_then(std::fs::metadata) {
                    Ok(meta) => bytes += meta.len(),
                    Err(e) => problems.push(format!("writing {id}: {e}")),
                }
            }
        }
        let json = results.to_json();
        let md = render_experiments_md(&results);
        bytes += (json.len() + md.len()) as u64;
        for (name, text) in [("results.json", &json), ("EXPERIMENTS.generated.md", &md)] {
            if let Err(e) = std::fs::write(dir.join(name), text) {
                problems.push(format!("writing {name}: {e}"));
            }
        }
        bytes
    });
    let (reparsed, parse) = timed(|| reparse_results(dir));
    if let Err(problem) = reparsed {
        problems.push(problem);
    }
    outcome.output = OutputTiming {
        render_busy_s: render.secs,
        bytes,
        parse_busy_s: parse.secs,
    };
    // An output problem belongs to the pass; the first run carries it.
    if let Some(first) = outcome.runs.first_mut() {
        first.problems.extend(problems);
    }
}

/// Self-check (d): `results.json` as written round-trips through
/// `apm_harness::json::parse` (inside `ResultsFile::from_json`) and
/// renders back to the same text.
pub fn reparse_results(dir: &Path) -> Result<usize, String> {
    let path = dir.join("results.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let back = ResultsFile::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if back.to_json() != text {
        return Err(format!("{}: does not round-trip", path.display()));
    }
    Ok(text.len())
}

/// `generate("fig3")` + `generate("fig4")` — the same 30 points twice,
/// exactly as `repro all` does — then checks and every output format.
fn figures_pass(plan: &WorkloadPlan) -> PassOutcome {
    let profile = plan.points[0].profile;
    let mut outcome = PassOutcome::default();
    let loaded: u64 = plan.points.iter().map(PointSpec::records).sum();
    let mut walls = Vec::new();
    for id in ["fig3", "fig4"] {
        match catch_unwind(AssertUnwindSafe(|| {
            timed(|| figures::generate(id, &profile))
        })) {
            Ok((table, took)) => {
                outcome.tables.push((id.to_string(), table));
                walls.push(took);
            }
            Err(payload) => {
                outcome.runs.push(panicked(id.to_string(), loaded, payload));
                return outcome;
            }
        }
    }
    // `generate` hides each point's `issued`; the window's completed ops
    // (fig3's throughput cell x window) stand in for it, for both
    // figures: they run the same 30 points.
    let fig3 = &outcome.tables[0].1;
    let measured: f64 = fig3
        .cells
        .iter()
        .flatten()
        .map(|cell| cell.unwrap_or(0.0) * profile.measure_secs)
        .sum();
    let per_figure = loaded + measured.round() as u64;
    for (id, took) in ["fig3", "fig4"].into_iter().zip(walls) {
        outcome.runs.push(RunRecord {
            label: id.to_string(),
            started: Some(took.started),
            wall_s: took.secs,
            store_calls: per_figure,
            sim_ops: measured.round() as u64,
            ..RunRecord::default()
        });
    }
    if fig3.cells.iter().flatten().any(|c| c.unwrap_or(0.0) <= 0.0) {
        outcome.runs[0]
            .problems
            .push("a fig3 point has no throughput".to_string());
    }
    outcome.figures = figures_detail(&outcome.tables, plan.points.len() as u64 * 2);
    outcome
}

/// Median of |sim − paper| / paper over the figures' reference points.
fn figures_detail(tables: &[(String, Table)], points: u64) -> FiguresDetail {
    let mut errs = Vec::new();
    for (id, table) in tables {
        for r in reference::for_figure(id) {
            if let Some(sim) = table.get(r.row, r.store) {
                errs.push((sim - r.value).abs() / r.value);
            }
        }
    }
    FiguresDetail {
        points,
        reference_points: errs.len() as u64,
        paper_rel_err_p50: crate::median(&mut errs),
        ..FiguresDetail::default()
    }
}

/// Each run through `run_benchmark`, then `resume_benchmark` from
/// checkpoint [`RESUME_FROM`]; self-check (b): the resumed run's
/// statistics are the full run's, byte for byte.
fn resilient_pass(plan: &WorkloadPlan) -> PassOutcome {
    let mut outcome = PassOutcome::default();
    for spec in &plan.resilient {
        let label = format!("{}+faults", spec.point.label());
        let loaded = spec.point.records();
        let connections = spec.config.client.connections;
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut engine = Engine::new();
            let mut store = spec.point.build_store(&mut engine);
            timed(|| run_benchmark(&mut engine, store.as_mut(), &spec.config))
        }));
        let (full, run_took) = match run {
            Ok(done) => done,
            Err(payload) => {
                outcome.runs.push(panicked(label, loaded, payload));
                continue;
            }
        };
        let detail = &mut outcome.resilient;
        detail.run_busy_s += run_took.secs;
        detail.checkpoints += full.checkpoints.len() as u64;
        detail.checkpoint_bytes += full
            .checkpoints
            .iter()
            .map(|c| c.bytes.len() as u64)
            .sum::<u64>();
        let counters = full.stats.resilience();
        detail.retries += counters.retries;
        detail.hedges += counters.hedges;
        detail.hedge_wins += counters.hedge_wins;
        detail.breaker_transitions += counters.breaker_transitions;
        detail.shed += counters.shed;
        detail.fault_events += spec.config.faults.len() as u64;
        detail.telemetry_windows += full
            .telemetry
            .as_ref()
            .map_or(0, |t| t.windows().len() as u64);
        outcome.runs.push(record_of(
            label.clone(),
            loaded,
            &full,
            run_took,
            connections,
        ));

        let resume_label = format!("{label}/resume");
        let Some(checkpoint) = full.checkpoints.get(RESUME_FROM) else {
            let problem = format!("run captured no checkpoint {RESUME_FROM}");
            outcome.runs.push(failed_run(resume_label, loaded, problem));
            outcome.results.push(full);
            continue;
        };
        let resumed = catch_unwind(AssertUnwindSafe(|| {
            let mut engine = Engine::new();
            let mut store = spec.point.build_store(&mut engine);
            timed(|| resume_benchmark(&mut engine, store.as_mut(), &spec.config, &checkpoint.bytes))
        }));
        match resumed {
            Ok((Ok(resumed), took)) => {
                outcome.resilient.resume_busy_s += took.secs;
                let mut record = record_of(resume_label, loaded, &resumed, took, connections);
                if stats_bytes(&resumed.stats) != stats_bytes(&full.stats) {
                    record
                        .problems
                        .push("resumed statistics differ from the full run's".to_string());
                }
                outcome.runs.push(record);
            }
            Ok((Err(e), _)) => {
                let problem = format!("resume refused: {e}");
                outcome.runs.push(failed_run(resume_label, loaded, problem));
            }
            Err(payload) => outcome.runs.push(panicked(resume_label, loaded, payload)),
        }
        outcome.results.push(full);
    }
    outcome
}

/// Loads `records` into a store the way every driver does.
pub fn load_store(store: &mut dyn DistributedStore, records: u64) {
    for seq in 0..records {
        store.load(&record_for_seq(seq));
    }
    store.finish_load();
}
