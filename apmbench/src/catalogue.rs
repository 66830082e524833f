//! Every metric the benchmark emits: name, unit, direction, bound, and
//! — for layer metrics — which end-to-end metric it should move on
//! which workload, written down before measuring.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds (its schema has no room for `moves`, so that
//! column lives only here and in the README); `tests/schema.rs` keeps
//! the two in step and checks that a run emits exactly these names.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

/// `(end-to-end metric, workload)` a layer metric is predicted to move.
pub type Moves = &'static [(&'static str, &'static str)];

/// A metric of a single layer. No bound: layer metrics explain, they
/// do not gate.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: Moves,
}

pub const STORE_CALLS_PER_S: &str = "store_calls_per_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const SETUP_S: &str = "setup_s";

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: STORE_CALLS_PER_S,
        unit: "calls/s",
        better: Better::Higher,
        bound: 0.25,
        what: "calls into DistributedStore::load + plan_op made for one pass of the workload, per host \
               second of that pass (median pass of the run): simulated work per host second at a stated \
               input size",
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the process that ran the workload (apmbench run starts a fresh one per workload)",
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host time from process start to the first timed call: argument parsing, generating the \
               workload's points and fault schedules, timer calibration and one untimed warm-up point; \
               done five times, median reported. The simulated load phase is not set-up: users pay it \
               on every point, so it is inside the pass",
    },
];

// How the layers interact with the end-to-end metrics (the issue's list).
const PLANNER: Moves = &[
    (STORE_CALLS_PER_S, "scan_planner"),
    (STORE_CALLS_PER_S, "figures_r"),
];
const KERNEL: Moves = &[(STORE_CALLS_PER_S, "point_kernel")];
const LOAD: Moves = &[
    (STORE_CALLS_PER_S, "load_disk"),
    (PEAK_RSS_MB, "load_disk"),
    (STORE_CALLS_PER_S, "figures_r"),
];
const GRID: Moves = &[(STORE_CALLS_PER_S, "figures_r"), (PEAK_RSS_MB, "figures_r")];
const OUTPUT: Moves = &[(STORE_CALLS_PER_S, "figures_r")];
const RESILIENT: Moves = &[(STORE_CALLS_PER_S, "resilient_faults")];
const SNAPSHOT: Moves = &[
    (STORE_CALLS_PER_S, "resilient_faults"),
    (PEAK_RSS_MB, "resilient_faults"),
];
/// The bench's own overhead moves nothing a user sees; it says how far
/// the traced numbers can be trusted.
const BENCH: Moves = &[];

const fn layer(name: &'static str, unit: &'static str, better: Better, moves: Moves) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[Layer] = &[
    // Closed-loop layers, aggregated over the workload's points.
    layer("core.workload.next_op.calls", "count", Higher, KERNEL),
    layer("core.workload.next_op.busy_s", "s", Lower, KERNEL),
    layer("core.workload.next_op.ns_per_call", "ns", Lower, KERNEL),
    layer("stores.load.calls", "count", Higher, LOAD),
    layer("stores.load.busy_s", "s", Lower, LOAD),
    layer("stores.load.ns_per_call", "ns", Lower, LOAD),
    layer("stores.plan_op.calls", "count", Higher, PLANNER),
    layer("stores.plan_op.busy_s", "s", Lower, PLANNER),
    layer("stores.plan_op.ns_per_call", "ns", Lower, PLANNER),
    layer("stores.plan_op.steps_per_call", "steps", Lower, PLANNER),
    layer("stores.plan_op.rejected", "count", Lower, PLANNER),
    layer("stores.plan_op.missing", "count", Lower, PLANNER),
    layer("stores.on_background.calls", "count", Higher, LOAD),
    layer("sim.kernel.submit.calls", "count", Higher, KERNEL),
    layer("sim.kernel.submit.busy_s", "s", Lower, KERNEL),
    layer("sim.kernel.submit.ns_per_call", "ns", Lower, KERNEL),
    layer("sim.kernel.drain.calls", "count", Lower, KERNEL),
    layer("sim.kernel.drain.busy_s", "s", Lower, KERNEL),
    layer("sim.kernel.completions", "count", Higher, KERNEL),
    layer("sim.kernel.completions_per_drain", "ratio", Higher, KERNEL),
    layer("sim.kernel.services", "count", Higher, KERNEL),
    layer("sim.kernel.services_per_op", "ratio", Lower, KERNEL),
    layer("sim.kernel.ns_per_service", "ns", Lower, KERNEL),
    layer("core.stats.record.calls", "count", Higher, KERNEL),
    layer("core.stats.record.busy_s", "s", Lower, KERNEL),
    layer("core.stats.record.ns_per_call", "ns", Lower, KERNEL),
    layer("share.load", "ratio", Lower, LOAD),
    layer("share.next_op", "ratio", Lower, KERNEL),
    layer("share.plan_op", "ratio", Lower, PLANNER),
    layer("share.kernel", "ratio", Lower, KERNEL),
    layer("share.stats", "ratio", Lower, KERNEL),
    layer("share.on_background", "ratio", Lower, LOAD),
    layer("stores.space_amplification", "ratio", Lower, LOAD),
    layer("stores.runner.sim_failed_share", "ratio", Lower, RESILIENT),
    layer("bench.loop.self_s", "s", Lower, BENCH),
    layer("bench.trace_overhead_share", "ratio", Lower, BENCH),
    layer("bench.timer_ns", "ns", Lower, BENCH),
    layer("bench.reference.runs", "count", Higher, BENCH),
    layer("bench.reference.busy_s", "s", Lower, BENCH),
    // The harness layers: only figures_r goes through the grid loop,
    // checks and paper references; every workload renders its table.
    layer("harness.figures.points", "count", Higher, GRID),
    layer("harness.shape.checks", "count", Higher, OUTPUT),
    layer("harness.shape.failed", "count", Lower, OUTPUT),
    layer("harness.reference.points", "count", Higher, OUTPUT),
    layer("harness.reference.rel_err_p50", "ratio", Lower, OUTPUT),
    layer("harness.output.render.busy_s", "s", Lower, OUTPUT),
    layer("harness.output.bytes", "bytes", Lower, OUTPUT),
    layer("harness.json.parse.busy_s", "s", Lower, OUTPUT),
    // The other driver: only resilient_faults exercises these.
    layer("stores.runner.resume_share", "ratio", Lower, RESILIENT),
    layer("stores.runner.checkpoints", "count", Higher, SNAPSHOT),
    layer("stores.runner.checkpoint_bytes", "bytes", Lower, SNAPSHOT),
    layer("stores.resilience.retries", "count", Lower, RESILIENT),
    layer("stores.resilience.hedges", "count", Lower, RESILIENT),
    layer("stores.resilience.hedge_wins", "count", Higher, RESILIENT),
    layer(
        "stores.resilience.breaker_transitions",
        "count",
        Lower,
        RESILIENT,
    ),
    layer("stores.resilience.shed", "count", Lower, RESILIENT),
    layer("sim.fault.events", "count", Higher, RESILIENT),
    layer("core.stats.telemetry.windows", "count", Higher, RESILIENT),
    // core::snap, timed on the post-run state of the smallest point.
    layer("core.snap.bytes", "bytes", Lower, SNAPSHOT),
    layer("core.snap.encode.busy_s", "s", Lower, SNAPSHOT),
    layer("core.snap.encode.mb_per_s", "MB/s", Higher, SNAPSHOT),
    layer("core.snap.open.busy_s", "s", Lower, SNAPSHOT),
    layer("core.snap.restore.busy_s", "s", Lower, SNAPSHOT),
    // Fixed-iteration probes.
    layer("sim.kernel.probe.acquire_ns", "ns", Lower, KERNEL),
    layer("sim.kernel.probe.quorum_join_ns", "ns", Lower, KERNEL),
    layer("sim.kernel.probe.deadline_ns", "ns", Lower, RESILIENT),
    layer("core.workload.probe.next_op_ns", "ns", Lower, KERNEL),
    layer("core.stats.probe.record_ns", "ns", Lower, KERNEL),
    layer("stores.routing.probe.jedis_ring_ns", "ns", Lower, KERNEL),
    layer("stores.routing.probe.token_ring_ns", "ns", Lower, PLANNER),
    layer("stores.hashes.probe.murmur_ns", "ns", Lower, KERNEL),
    layer("stores.hashes.probe.md5_ns", "ns", Lower, PLANNER),
    layer("storage.lsm.probe.scan50_ns", "ns", Lower, PLANNER),
    layer("storage.btree.probe.scan50_ns", "ns", Lower, PLANNER),
    layer("storage.hashstore.probe.scan50_ns", "ns", Lower, PLANNER),
    layer("storage.lsm.probe.get_ns", "ns", Lower, PLANNER),
    layer("storage.btree.probe.get_ns", "ns", Lower, PLANNER),
    layer("storage.bufferpool.probe.access_ns", "ns", Lower, PLANNER),
    layer("storage.bloom.probe.may_contain_ns", "ns", Lower, PLANNER),
    layer("storage.lsm.read_amplification", "ratio", Lower, PLANNER),
    layer("storage.lsm.bloom_skip_share", "ratio", Higher, PLANNER),
    layer("storage.lsm.probes_per_get", "ratio", Lower, PLANNER),
    layer("storage.btree.depth", "count", Lower, PLANNER),
    layer("storage.bufferpool.hit_rate", "ratio", Higher, PLANNER),
    layer("storage.lsm.probe.insert_ns", "ns", Lower, LOAD),
    layer("storage.btree.probe.insert_ns", "ns", Lower, LOAD),
    layer("storage.hashstore.probe.insert_ns", "ns", Lower, LOAD),
    layer("storage.lsm.write_amplification", "ratio", Lower, LOAD),
    layer("storage.lsm.flushes", "count", Lower, LOAD),
    layer("storage.lsm.compactions", "count", Lower, LOAD),
];

/// Unit of a metric by name, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// True for a metric whose value must repeat exactly for one commit and
/// one seed: counts and the ratios computed from counts alone.
pub fn is_exact(name: &str) -> bool {
    const EXACT_RATIOS: [&str; 11] = [
        "stores.plan_op.steps_per_call",
        "sim.kernel.completions_per_drain",
        "sim.kernel.services_per_op",
        "stores.space_amplification",
        "stores.runner.sim_failed_share",
        "harness.reference.rel_err_p50",
        "storage.lsm.read_amplification",
        "storage.lsm.bloom_skip_share",
        "storage.lsm.probes_per_get",
        "storage.bufferpool.hit_rate",
        "storage.lsm.write_amplification",
    ];
    EXACT_RATIOS.contains(&name) || matches!(unit_of(name), Some("count" | "bytes" | "steps"))
}
