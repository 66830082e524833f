//! One run of one workload: set-up, timed passes, self-checks, metrics.
//!
//! An untraced run (`--trace 0`) gives the end-to-end metrics; a traced
//! run (`--trace 1`) repeats the reference pass, drives the same points
//! through the bench-side closed loop of [`crate::traced`], runs the
//! probes, and gives the per-layer metrics. The difference between the
//! two drives is the tracing overhead.

use crate::catalogue::{self, PEAK_RSS_MB, SETUP_S, STORE_CALLS_PER_S};
use crate::probes;
use crate::spans::{SpanId, SpanLog, ROOT};
use crate::traced::{time_snapshot, trace_point, LayerAcc, SnapTiming, TracedPoint};
use crate::workloads::{run_pass, timed, PassOutcome, WorkloadId, WorkloadPlan};
use crate::{median, peak_rss_mb};
use apm_core::ops::OpKind;
use apm_harness::json::Json;
use apm_stores::runner::RunResult;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Times the set-up is done in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: WorkloadId,
    pub seed: u64,
    /// How long the run measures, in host seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Directory the run writes into (never the repository root).
    pub out: PathBuf,
}

/// Plain fields printed beside the metrics: exact constants per
/// (workload, seed, commit), and the pass they were measured on.
#[derive(Clone, Debug, Default)]
pub struct Fields {
    /// Store calls of one pass.
    pub store_calls: u64,
    /// Host seconds of the median pass.
    pub wall_s: f64,
    /// Passes (untraced) or reference + traced iterations (traced) run.
    pub passes: u64,
    pub sim_fingerprint: u64,
    /// (simulated ops resolved as error, timeout or missing read + ops
    /// of runs that panicked or failed a self-check) / ops attempted.
    pub failed_share: f64,
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct RunOutput {
    pub correct: bool,
    /// Store calls made over every measured pass, and those of runs that
    /// panicked or failed a self-check.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub fields: Fields,
    pub problems: Vec<String>,
    /// Untraced runs: each run of the pass (one call into a public entry
    /// point) and the host seconds it took in every pass.
    pub runs: Vec<(String, Vec<f64>)>,
}

impl RunOutput {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), metrics_json(&self.metrics)),
        ])
    }

    /// Everything, for `apmbench run` to collect from its child.
    pub fn full_json(&self, args: &RunArgs) -> Json {
        let mut doc = vec![
            (
                "workload".to_string(),
                Json::Str(args.workload.name().into()),
            ),
            ("seed".into(), Json::Str(args.seed.to_string())),
            ("trace".into(), Json::Bool(args.trace)),
        ];
        if let Json::Obj(result) = self.result_json() {
            doc.extend(result);
        }
        doc.push(("fields".into(), self.fields.to_json()));
        doc.push((
            "problems".into(),
            Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
        ));
        let runs = self.runs.iter().map(|(label, walls)| {
            Json::Obj(vec![
                ("label".into(), Json::Str(label.clone())),
                (
                    "wall_s".into(),
                    Json::Arr(walls.iter().copied().map(Json::Num).collect()),
                ),
            ])
        });
        doc.push(("runs".into(), Json::Arr(runs.collect())));
        Json::Obj(doc)
    }
}

impl Fields {
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("store_calls".into(), Json::Num(self.store_calls as f64)),
            ("wall_s".into(), Json::Num(self.wall_s)),
            ("passes".into(), Json::Num(self.passes as f64)),
            (
                "sim_fingerprint".into(),
                Json::Str(format!("{:016x}", self.sim_fingerprint)),
            ),
            ("failed_share".into(), Json::Num(self.failed_share)),
        ])
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                let unit = catalogue::unit_of(name).unwrap_or("?");
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Host nanoseconds one clock read costs (what every timed region of
/// the traced loop pays twice).
fn calibrate_timer() -> f64 {
    const READS: u32 = 200_000;
    let log = SpanLog::new();
    let t0 = log.now_ns();
    let mut last = t0;
    for _ in 0..READS {
        last = std::hint::black_box(log.now_ns());
    }
    (last - t0) as f64 / f64::from(READS)
}

/// Set-up: generate the workload from the seed, calibrate the timer,
/// run the smallest point once untimed.
fn set_up(args: &RunArgs) -> (WorkloadPlan, f64) {
    let plan = WorkloadPlan::generate(args.workload, args.seed);
    let timer_ns = calibrate_timer();
    std::hint::black_box(plan.warmup_point().run_reference());
    (plan, timer_ns)
}

/// Whether another pass should start: yes while at least half of it is
/// expected to fit the budget, so a run measures `seconds` give or take
/// half a pass.
fn budget_allows(begun: Instant, seconds: f64, walls: &[f64]) -> bool {
    let mut walls = walls.to_vec();
    begun.elapsed().as_secs_f64() + 0.5 * median(&mut walls) <= seconds
}

/// Runs the workload; `started` is when the process started.
pub fn run(args: &RunArgs, started: Instant) -> RunOutput {
    if args.trace {
        traced_run(args)
    } else {
        untraced_run(args, started)
    }
}

fn untraced_run(args: &RunArgs, started: Instant) -> RunOutput {
    let mut setups = Vec::new();
    let mut begun = started;
    let mut plan = None;
    for _ in 0..SETUP_REPEATS {
        plan = Some(set_up(args).0);
        setups.push(begun.elapsed().as_secs_f64());
        // Wall-clock by design: the benchmark measures host time.
        begun = Instant::now(); // audit:allow(clock)
    }
    let plan = plan.expect("set-up ran");

    let mut out = RunOutput::default();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    loop {
        let (pass, took) = timed(|| run_pass(&plan, &args.out));
        let calls = pass.store_calls();
        walls.push(took.secs);
        rates.push(calls as f64 / took.secs);
        out.attempted += calls;
        out.failed += pass.failed_calls();
        for (index, run) in pass.runs.iter().enumerate() {
            if index == out.runs.len() {
                out.runs.push((run.label.clone(), Vec::new()));
            }
            out.runs[index].1.push(run.wall_s);
        }
        if walls.len() == 1 {
            out.fields.store_calls = calls;
            out.fields.sim_fingerprint = pass.sim_fingerprint;
            out.problems = pass.problems();
            out.fields.failed_share = pass.failed_share();
        } else {
            if pass.sim_fingerprint != out.fields.sim_fingerprint {
                out.problems
                    .push("two passes of one seed gave different simulated results".to_string());
                out.failed += calls;
            }
            for problem in pass.problems() {
                if !out.problems.contains(&problem) {
                    out.problems.push(problem);
                }
            }
        }
        if !budget_allows(begun, args.seconds, &walls) {
            break;
        }
    }
    out.fields.passes = walls.len() as u64;
    out.fields.wall_s = median(&mut walls);
    out.correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    out.metrics
        .insert(STORE_CALLS_PER_S.into(), median(&mut rates));
    out.metrics.insert(PEAK_RSS_MB.into(), peak_rss_mb());
    out.metrics.insert(SETUP_S.into(), median(&mut setups));
    out
}

/// What one reference + traced iteration measured.
struct Iteration {
    metrics: BTreeMap<String, f64>,
    /// Store calls of the reference pass, and those that count as failed.
    store_calls: u64,
    failed: u64,
    problems: Vec<String>,
    fingerprint: u64,
    failed_share: f64,
    /// `core::snap` timed on the smallest point, when asked for.
    snapshot: Option<Result<SnapTiming, String>>,
    /// Per-store `plan_op` and per-point walls, for the trace file.
    detail: Json,
}

fn traced_run(args: &RunArgs) -> RunOutput {
    let (plan, timer_ns) = set_up(args);
    let mut log = SpanLog::new();
    let root = log.open(args.workload.name(), ROOT);
    // Wall-clock by design: the benchmark measures host time.
    let begun = Instant::now(); // audit:allow(clock)

    // Op-level spans and the snapshot timing come from the first
    // iteration only: later ones would repeat them.
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut walls = Vec::new();
    loop {
        let first = iterations.is_empty();
        log.sample_ops = first;
        let span = log.open("iteration", root);
        iterations.push(iteration(&plan, args, &mut log, span, first));
        walls.push(log.close(span) as f64 / 1e9);
        if !budget_allows(begun, args.seconds, &walls) {
            break;
        }
    }

    let span = log.open("probes", root);
    let probed = probes::run_all();
    log.close(span);
    log.close(root);

    let mut out = RunOutput::default();
    let first = &iterations[0];
    out.fields = Fields {
        store_calls: first.store_calls,
        wall_s: median(&mut walls),
        passes: iterations.len() as u64,
        sim_fingerprint: first.fingerprint,
        failed_share: first.failed_share,
    };
    for it in &iterations {
        out.attempted += it.store_calls;
        out.failed += it.failed;
        for problem in &it.problems {
            if !out.problems.contains(problem) {
                out.problems.push(problem.clone());
            }
        }
    }
    // Timed values: the median iteration. Counts repeat exactly, so the
    // median of a count is the count.
    for name in iterations[0].metrics.keys() {
        let mut values: Vec<f64> = iterations.iter().map(|i| i.metrics[name]).collect();
        out.metrics.insert(name.clone(), median(&mut values));
    }
    match iterations[0]
        .snapshot
        .take()
        .expect("the first iteration times the snapshot")
    {
        Ok(snap) => {
            let m = &mut out.metrics;
            m.insert("core.snap.bytes".into(), snap.bytes as f64);
            m.insert("core.snap.encode.busy_s".into(), snap.encode_s);
            m.insert(
                "core.snap.encode.mb_per_s".into(),
                snap.bytes as f64 / 1e6 / snap.encode_s,
            );
            m.insert("core.snap.open.busy_s".into(), snap.open_s);
            m.insert("core.snap.restore.busy_s".into(), snap.restore_s);
        }
        Err(problem) => {
            out.problems.push(problem);
            out.failed += 1;
        }
    }
    out.metrics.insert("bench.timer_ns".into(), timer_ns);
    for (name, value) in probed {
        out.metrics.insert(name.into(), value);
    }
    out.correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;

    let trace = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("seed".into(), Json::Str(args.seed.to_string())),
        ("detail".into(), iterations[0].detail.clone()),
        ("spans".into(), log.to_json()),
    ]);
    let path = args
        .out
        .join(format!("trace-{}.json", args.workload.name()));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, trace.to_pretty() + "\n"));
    if let Err(e) = written {
        out.problems.push(format!("{}: {e}", path.display()));
        out.correct = false;
    }
    out
}

/// Adds coarse spans for the runs a reference pass made.
fn reference_spans(pass: &PassOutcome, log: &mut SpanLog, parent: SpanId) {
    for run in &pass.runs {
        if let Some(started) = run.started {
            let start = log.ns_at(started);
            log.push(&run.label, parent, start, start + (run.wall_s * 1e9) as u64);
        }
    }
}

/// One iteration of a traced run: the reference pass through the public
/// entry points, then the same points through the traced loop.
fn iteration(
    plan: &WorkloadPlan,
    args: &RunArgs,
    log: &mut SpanLog,
    parent: SpanId,
    time_snap: bool,
) -> Iteration {
    let span = log.open("reference", parent);
    let reference = run_pass(plan, &args.out);
    log.close(span);
    reference_spans(&reference, log, span);
    let mut problems = reference.problems();
    let mut failed = reference.failed_calls();

    // What the traced loop is checked against, per point, and how long
    // the public entry point took over the same points.
    let mut untraced_s: f64 = reference.runs.iter().map(|r| r.wall_s).sum();
    let fault_free: Vec<RunResult>;
    let expected: Option<&[RunResult]> = match plan.id {
        WorkloadId::FiguresR => {
            // fig3 and fig4 each ran the grid the traced loop runs once.
            untraced_s /= 2.0;
            None
        }
        WorkloadId::ResilientFaults => {
            // The traced loop drives the fault-free twins; run those
            // through the public entry point too.
            let span = log.open("reference.fault_free", parent);
            let (results, took) = timed(|| {
                plan.points
                    .iter()
                    .map(|p| p.run_reference())
                    .collect::<Vec<_>>()
            });
            log.close(span);
            untraced_s = took.secs;
            fault_free = results;
            Some(&fault_free)
        }
        _ => Some(&reference.results),
    };

    let span = log.open("traced", parent);
    let mut acc = LayerAcc::default();
    let mut point_walls = Vec::new();
    let mut snapshot = None;
    let mut traced_ok = true;
    for (index, spec) in plan.points.iter().enumerate() {
        let traced = catch_unwind(AssertUnwindSafe(|| trace_point(spec, &mut acc, log, span)));
        let point = match traced {
            Ok(point) => point,
            Err(_) => {
                problems.push(format!("{}: traced loop panicked", spec.label()));
                failed += spec.records();
                traced_ok = false;
                continue;
            }
        };
        point_walls.push((spec.label(), point.wall_s));
        let disagreement = match expected {
            Some(results) => match results.get(index) {
                Some(result) => point.disagreement(result),
                None => Some("no reference result to check against".to_string()),
            },
            None => figure_disagreement(&reference, spec, &point),
        };
        if let Some(what) = disagreement {
            problems.push(format!("{}: {what}", spec.label()));
            failed += spec.records() + point.issued;
            traced_ok = false;
        }
        if time_snap && index == plan.warmup_index() {
            snapshot = Some(time_snapshot(spec, &point, log, span));
        }
    }
    log.close(span);

    let traced_s = acc.point_ns as f64 / 1e9;
    let detail = Json::Obj(vec![
        ("traced_wall_s".into(), Json::Num(traced_s)),
        ("untraced_wall_s".into(), Json::Num(untraced_s)),
        (
            "plan_op_ns_per_call_by_store".into(),
            Json::Obj(
                acc.plan_op_by_store
                    .iter()
                    .map(|(store, busy)| (store.to_string(), Json::Num(busy.ns_per_call())))
                    .collect(),
            ),
        ),
        (
            "traced_point_wall_s".into(),
            Json::Obj(
                point_walls
                    .into_iter()
                    .map(|(label, wall)| (label, Json::Num(wall)))
                    .collect(),
            ),
        ),
    ]);
    Iteration {
        metrics: layer_metrics(&acc, &reference, untraced_s),
        store_calls: reference.store_calls(),
        failed,
        fingerprint: reference.sim_fingerprint,
        // A traced-loop problem is not any one run's: it fails them all.
        failed_share: if traced_ok {
            reference.failed_share()
        } else {
            1.0
        },
        problems,
        snapshot,
        detail,
    }
}

/// The per-layer metrics of one iteration: the traced loop's
/// accumulators, the reference pass's by-products, and `untraced_s`,
/// the host time the public entry points took over the traced points.
fn layer_metrics(
    acc: &LayerAcc,
    reference: &PassOutcome,
    untraced_s: f64,
) -> BTreeMap<String, f64> {
    let traced_s = acc.point_ns as f64 / 1e9;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    for (layer, busy) in [
        ("core.workload.next_op", acc.next_op),
        ("stores.load", acc.load),
        ("stores.plan_op", acc.plan_op),
        ("sim.kernel.submit", acc.submit),
        ("core.stats.record", acc.record),
    ] {
        m.insert(format!("{layer}.calls"), busy.calls as f64);
        m.insert(format!("{layer}.busy_s"), busy.secs());
        m.insert(format!("{layer}.ns_per_call"), busy.ns_per_call());
    }
    let ops = acc.plan_op.calls as f64;
    let kernel_s = acc.submit.secs() + acc.drain.secs();
    let figures = &reference.figures;
    let res = &reference.resilient;
    let rest = [
        (
            "stores.plan_op.steps_per_call",
            ratio(acc.steps as f64, ops),
        ),
        ("stores.plan_op.rejected", acc.rejected as f64),
        ("stores.plan_op.missing", acc.missing as f64),
        ("stores.on_background.calls", acc.on_background.calls as f64),
        ("sim.kernel.drain.calls", acc.drain.calls as f64),
        ("sim.kernel.drain.busy_s", acc.drain.secs()),
        ("sim.kernel.completions", acc.completions as f64),
        (
            "sim.kernel.completions_per_drain",
            ratio(acc.completions as f64, acc.drain.calls as f64),
        ),
        ("sim.kernel.services", acc.services as f64),
        (
            "sim.kernel.services_per_op",
            ratio(acc.services as f64, ops),
        ),
        (
            "sim.kernel.ns_per_service",
            ratio(kernel_s * 1e9, acc.services as f64),
        ),
        ("share.load", ratio(acc.load.secs(), traced_s)),
        ("share.next_op", ratio(acc.next_op.secs(), traced_s)),
        ("share.plan_op", ratio(acc.plan_op.secs(), traced_s)),
        ("share.kernel", ratio(kernel_s, traced_s)),
        ("share.stats", ratio(acc.record.secs(), traced_s)),
        (
            "share.on_background",
            ratio(acc.on_background.secs(), traced_s),
        ),
        (
            "stores.space_amplification",
            ratio(acc.disk_bytes as f64, acc.raw_bytes as f64),
        ),
        (
            "stores.runner.sim_failed_share",
            ratio(reference.sim_failed() as f64, reference.sim_ops() as f64),
        ),
        ("bench.loop.self_s", acc.loop_self_ns() as f64 / 1e9),
        (
            "bench.trace_overhead_share",
            ratio(traced_s - untraced_s, untraced_s),
        ),
        ("bench.reference.runs", reference.runs.len() as f64),
        (
            "bench.reference.busy_s",
            reference.runs.iter().map(|r| r.wall_s).sum(),
        ),
        ("harness.figures.points", figures.points as f64),
        ("harness.shape.checks", figures.shape_checks as f64),
        ("harness.shape.failed", figures.shape_failed as f64),
        ("harness.reference.points", figures.reference_points as f64),
        ("harness.reference.rel_err_p50", figures.paper_rel_err_p50),
        (
            "harness.output.render.busy_s",
            reference.output.render_busy_s,
        ),
        ("harness.output.bytes", reference.output.bytes as f64),
        ("harness.json.parse.busy_s", reference.output.parse_busy_s),
        (
            "stores.runner.resume_share",
            ratio(res.resume_busy_s, res.run_busy_s + res.resume_busy_s),
        ),
        ("stores.runner.checkpoints", res.checkpoints as f64),
        (
            "stores.runner.checkpoint_bytes",
            res.checkpoint_bytes as f64,
        ),
        ("stores.resilience.retries", res.retries as f64),
        ("stores.resilience.hedges", res.hedges as f64),
        ("stores.resilience.hedge_wins", res.hedge_wins as f64),
        (
            "stores.resilience.breaker_transitions",
            res.breaker_transitions as f64,
        ),
        ("stores.resilience.shed", res.shed as f64),
        ("sim.fault.events", res.fault_events as f64),
        ("core.stats.telemetry.windows", res.telemetry_windows as f64),
    ];
    m.extend(rest.map(|(name, value)| (name.to_string(), value)));
    m
}

/// Self-check (a) on `figures_r`, where `generate` returns tables and
/// not results: the traced point's throughput and mean read latency
/// must be the fig3 and fig4 cells, bit for bit.
fn figure_disagreement(
    reference: &PassOutcome,
    spec: &crate::workloads::PointSpec,
    point: &TracedPoint,
) -> Option<String> {
    let cell = |figure: usize| {
        reference
            .tables
            .get(figure)
            .and_then(|(_, table)| table.get(&spec.nodes.to_string(), spec.store.name()))
    };
    let throughput = Some(point.stats.throughput());
    if cell(0) != throughput {
        return Some(format!(
            "traced loop throughput {throughput:?}, fig3 cell {:?}",
            cell(0)
        ));
    }
    let latency = point.stats.mean_latency_ms(OpKind::Read);
    if cell(1) != latency {
        return Some(format!(
            "traced loop read latency {latency:?}, fig4 cell {:?}",
            cell(1)
        ));
    }
    None
}
