//! Observability experiments: the virtual-time profiler and the
//! telemetry timeline, plus the Chrome trace-event exporter behind
//! `repro trace`.
//!
//! The paper's §5 tables report *what* each store achieved; this module
//! reports *where the virtual time went*. The kernel keeps two always-on
//! per-resource counters — nanoseconds spent in service and nanoseconds
//! requests spent queued behind a busy resource — so after any run the
//! harness can split every operation's latency into queue-wait vs.
//! service per resource class (cpu / disk / net). That split is what the
//! paper reasons about qualitatively in §5.6 ("the systems are not
//! I/O-bound ... most of the time is spent in the query-processing
//! layer"): `ext-obs-profile` measures it.
//!
//! `ext-obs-telemetry` exercises the windowed [`apm_core::stats::Telemetry`]
//! recorder under the §5.6 bounded-throughput regime: a Cassandra cluster
//! throttled to ~70 % of its measured maximum, sampled in one-second
//! windows — per-window throughput, error rate, latency percentiles and
//! per-class utilisation, the timeline an APM operator would watch.

use crate::experiment::{ExperimentProfile, Scenario, StoreKind};
use apm_core::driver::Throttle;
use apm_core::report::Table;
use apm_core::workload::Workload;
use apm_sim::kernel::ResourceId;
use apm_sim::{ClusterSpec, Engine};
use apm_stores::runner::server_resource_class;

/// The resource classes the profiler attributes time to, in column order.
pub const RESOURCE_CLASSES: [&str; 3] = ["cpu", "disk", "net"];

/// Queue-wait and service time attributed to one resource class,
/// averaged per measured operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassAttribution {
    /// Mean milliseconds ops spent queued for this class, per op.
    pub queue_ms: f64,
    /// Mean milliseconds of service consumed on this class, per op.
    pub service_ms: f64,
}

/// Per-class time attribution extracted from a finished engine: the
/// virtual-time profile of a run. `ops` is the divisor (measured ops).
pub fn attribute_time(engine: &Engine, ops: u64) -> Vec<(&'static str, ClassAttribution)> {
    let mut queue = [0u128; RESOURCE_CLASSES.len()];
    let mut service = [0u128; RESOURCE_CLASSES.len()];
    for i in 0..engine.resource_count() {
        let id = ResourceId(i as u32);
        let Some(class) = server_resource_class(engine.resource_name(id)) else {
            continue;
        };
        let slot = RESOURCE_CLASSES
            .iter()
            .position(|c| *c == class)
            .expect("known class");
        queue[slot] += engine.queue_wait_ns(id);
        service[slot] += engine.service_ns(id);
    }
    let per_op_ms = |total: u128| {
        if ops == 0 {
            0.0
        } else {
            total as f64 / ops as f64 / 1e6
        }
    };
    RESOURCE_CLASSES
        .iter()
        .enumerate()
        .map(|(slot, class)| {
            (
                *class,
                ClassAttribution {
                    queue_ms: per_op_ms(queue[slot]),
                    service_ms: per_op_ms(service[slot]),
                },
            )
        })
        .collect()
}

/// `ext-obs-profile`: where does an operation's time go? Per store, the
/// saturated workload-R closed loop is profiled and each measured op's
/// latency attributed to queue-wait vs. service per resource class. The
/// §5.6 claim this quantifies: the stores are processing-bound, not
/// I/O-bound — queueing for the hot resource dominates its raw service
/// time, and for the in-memory Redis the disk row is exactly zero.
pub fn time_attribution(profile: &ExperimentProfile) -> Table {
    let nodes = 4;
    let mut table = Table::new(
        "Extension: virtual-time attribution per op (workload R, 4 nodes)",
        "store",
        "ms/op",
    );
    table.columns = RESOURCE_CLASSES
        .iter()
        .flat_map(|class| [format!("{class}_queue_ms"), format!("{class}_service_ms")])
        .collect();
    for kind in [StoreKind::Cassandra, StoreKind::HBase, StoreKind::Redis] {
        let run = Scenario::new(
            kind,
            ClusterSpec::cluster_m(),
            nodes,
            &Workload::r(),
            profile,
        )
        .run();
        let cells = attribute_time(&run.engine, run.result.stats.total_ops())
            .into_iter()
            .flat_map(|(_, a)| [Some(a.queue_ms), Some(a.service_ms)])
            .collect();
        table.push_row(kind.name(), cells);
    }
    table
}

/// `ext-obs-telemetry`: the windowed telemetry timeline under §5.6's
/// bounded-throughput regime. An unthrottled run measures Cassandra's
/// maximum; the instrumented run is throttled to 70 % of it and sampled
/// in one-second windows. Rows are window indices; the columns are the
/// operator's dashboard: throughput, error rate, latency percentiles,
/// per-class mean server utilisation.
pub fn telemetry_timeline(profile: &ExperimentProfile) -> Table {
    let mut scenario = Scenario::new(
        StoreKind::Cassandra,
        ClusterSpec::cluster_m(),
        8,
        &Workload::r(),
        profile,
    );
    let target = scenario.run().result.throughput() * 0.7;
    scenario.config.client.throttle = Throttle::TargetOps(target);
    scenario.config.telemetry_window_secs = Some(1.0);
    let telemetry = scenario
        .run()
        .result
        .telemetry
        .expect("telemetry requested");
    let mut table = Table::new(
        &format!(
            "Extension: telemetry timeline at 70% load (Cassandra, workload R, 8 nodes; target {target:.0} ops/s)"
        ),
        "window",
        "ops/sec | ratio | ms",
    );
    table.columns = vec![
        "ops_per_sec".into(),
        "error_rate".into(),
        "p50_ms".into(),
        "p95_ms".into(),
        "p99_ms".into(),
        "cpu_util".into(),
        "disk_util".into(),
        "net_util".into(),
    ];
    for (index, window) in telemetry.windows().iter().enumerate() {
        let util = |class: &str| window.resource(class).map(|s| s.utilization);
        table.push_row(
            &index.to_string(),
            vec![
                Some(telemetry.ops_per_sec(index)),
                Some(window.error_rate()),
                Some(window.quantile_latency_ms(0.50)),
                Some(window.quantile_latency_ms(0.95)),
                Some(window.quantile_latency_ms(0.99)),
                util("cpu"),
                util("disk"),
                util("net"),
            ],
        );
    }
    table
}

/// Chrome trace-event export: turns the kernel's span ring into a JSON
/// document loadable by Perfetto / `chrome://tracing`.
pub mod chrome {
    use apm_core::json::Json;
    use apm_sim::kernel::Token;
    use apm_sim::{TraceEvent, TraceEventKind};
    use apm_stores::api::Tag;

    /// Process id for op spans (one Chrome "thread" per connection and
    /// attempt role, see `lane_key`).
    pub const OPS_PID: u64 = 1;
    /// Process id for resource fault instants (one "thread" per
    /// resource) — separate from [`OPS_PID`] so resource ids never
    /// collide with op tokens in the tid space.
    pub const RESOURCES_PID: u64 = 2;

    fn event(name: &str, phase: &str, pid: u64, tid: u64, ts_ns: u64) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(name.to_string())),
            ("ph".into(), Json::Str(phase.to_string())),
            ("pid".into(), Json::Num(pid as f64)),
            ("tid".into(), Json::Num(tid as f64)),
            // Trace-event timestamps are microseconds; the virtual clock
            // is nanoseconds.
            ("ts".into(), Json::Num(ts_ns as f64 / 1000.0)),
        ])
    }

    /// The lane a token's spans are drawn on. Client tokens carry an
    /// attempt epoch that advances with every op, so lanes are keyed on
    /// `(client, AttemptKind)` — the token with its epoch zeroed — and a
    /// connection's ops line up on one thread (hedges and their triggers
    /// overlap the primary, hence their own). Background jobs and fault
    /// sentinels keep one lane per token.
    fn lane_key(token: Token) -> u64 {
        match Tag::of(token) {
            Tag::Attempt(client, _epoch, kind) => Tag::Attempt(client, 0, kind).token().0,
            Tag::Fault(_) | Tag::Background(_) => token.0,
        }
    }

    /// Builds the trace-event document. Each lane becomes a Chrome
    /// "thread": a plan is a `B`/`E` span opened at submit and closed
    /// at completion, with nested `B`/`E` spans per resource-service
    /// interval. Resource fault transitions become `i` instants. Spans
    /// cut off by ring eviction (an `E` with no open `B`) are skipped;
    /// service spans left open by a timeout are closed at the op's
    /// completion; ops still in flight at the end of the trace are closed
    /// at the last recorded timestamp — per-thread nesting always
    /// balances.
    pub fn trace_to_json(events: &[TraceEvent]) -> Json {
        // Lane keys can exceed 2^53 (fault sentinels and background jobs
        // set high bits), where distinct values collapse in a JSON f64
        // `tid` — remap each lane to a dense tid in first-appearance
        // order instead.
        let mut tids: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut tid_of = move |token: Token| -> u64 {
            let next = tids.len() as u64;
            *tids.entry(lane_key(token)).or_insert(next)
        };
        // Open service-span names per dense tid, for balancing.
        let mut open_op: std::collections::BTreeMap<u64, Vec<String>> =
            std::collections::BTreeMap::new();
        let mut out = Vec::new();
        let close_all = |out: &mut Vec<Json>, tid: u64, open: Vec<String>, ts: u64| {
            for name in open.into_iter().rev() {
                out.push(event(&name, "E", OPS_PID, tid, ts));
            }
            out.push(event("op", "E", OPS_PID, tid, ts));
        };
        // A resource fault transition: a global-scope instant on the
        // resource's own thread.
        let fault_instant = |e: &TraceEvent, name: &str| {
            let tid = e.resource.map_or(0, |r| u64::from(r.0));
            let mut instant = event(name, "i", RESOURCES_PID, tid, e.at.as_nanos());
            if let Json::Obj(fields) = &mut instant {
                fields.push(("s".into(), Json::Str("g".into())));
            }
            instant
        };
        for e in events {
            let ts = e.at.as_nanos();
            match e.kind {
                TraceEventKind::Submit => {
                    let Some(t) = e.token else { continue };
                    let tid = tid_of(t);
                    // A tid already open means its completion was
                    // evicted from the ring — close the stale span here.
                    if let Some(open) = open_op.remove(&tid) {
                        close_all(&mut out, tid, open, ts);
                    }
                    out.push(event("op", "B", OPS_PID, tid, ts));
                    open_op.insert(tid, Vec::new());
                }
                TraceEventKind::ServiceStart => {
                    let Some(t) = e.token else { continue };
                    let tid = tid_of(t);
                    let Some(open) = open_op.get_mut(&tid) else {
                        continue;
                    };
                    let name = e
                        .resource
                        .map_or_else(|| "service".to_string(), |r| format!("resource{}", r.0));
                    out.push(event(&name, "B", OPS_PID, tid, ts));
                    open.push(name);
                }
                TraceEventKind::ServiceEnd => {
                    let Some(t) = e.token else { continue };
                    let tid = tid_of(t);
                    let Some(open) = open_op.get_mut(&tid) else {
                        continue;
                    };
                    if let Some(name) = open.pop() {
                        out.push(event(&name, "E", OPS_PID, tid, ts));
                    }
                }
                TraceEventKind::Complete(_) => {
                    let Some(t) = e.token else { continue };
                    let tid = tid_of(t);
                    let Some(open) = open_op.remove(&tid) else {
                        continue;
                    };
                    close_all(&mut out, tid, open, ts);
                }
                TraceEventKind::ResourceDown => out.push(fault_instant(e, "fault:down")),
                TraceEventKind::ResourceRestored => out.push(fault_instant(e, "fault:restored")),
                TraceEventKind::Slowdown => out.push(fault_instant(e, "fault:slowdown")),
                TraceEventKind::Enqueue => {}
            }
        }
        let end_ns = events.iter().map(|e| e.at.as_nanos()).max().unwrap_or(0);
        for (tid, open) in open_op {
            close_all(&mut out, tid, open, end_ns);
        }
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(out)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }
}

/// Runs a small fault-laden Cassandra benchmark with tracing on and
/// exports it: returns the Chrome trace JSON plus the kernel's trace
/// fingerprint. Deterministic — two calls return identical strings.
pub fn capture_trace_demo() -> (String, u64) {
    use apm_sim::{FaultSchedule, SimDuration, SimTime};

    let profile = ExperimentProfile {
        scale: 0.002,
        data_factor: 1.0,
        warmup_secs: 0.1,
        measure_secs: 1.0,
        seed: 7,
    };
    let mut scenario = Scenario::new(
        StoreKind::Cassandra,
        ClusterSpec::cluster_m(),
        2,
        &Workload::r(),
        &profile,
    );
    // Throttled far below saturation so the whole trace fits the
    // default ring (nothing is evicted) and the exported JSON stays
    // small.
    scenario.config.client.throttle = Throttle::TargetOps(200.0);
    scenario.config.faults =
        FaultSchedule::none().crash(1, SimTime(300_000_000), SimTime(600_000_000));
    scenario.config.op_deadline = Some(SimDuration::from_millis(100));
    let engine = scenario.run_traced().engine;
    let tracer = engine.tracer().expect("a traced run keeps its tracer");
    let mut text = chrome::trace_to_json(&tracer.events()).to_pretty();
    text.push('\n');
    (text, tracer.fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_covers_every_class_and_ignores_clients() {
        let profile = ExperimentProfile::test();
        let run = Scenario::new(
            StoreKind::Cassandra,
            ClusterSpec::cluster_m(),
            2,
            &Workload::r(),
            &profile,
        )
        .run();
        let attribution = attribute_time(&run.engine, run.result.stats.total_ops());
        assert_eq!(attribution.len(), RESOURCE_CLASSES.len());
        let cpu = attribution[0].1;
        assert!(cpu.service_ms > 0.0, "reads must consume server cpu");
        assert!(
            cpu.queue_ms > cpu.service_ms,
            "saturated loop queues more than it serves: {cpu:?}"
        );
        // Zero ops must not divide by zero.
        let empty = attribute_time(&run.engine, 0);
        assert_eq!(empty[0].1.queue_ms, 0.0);
    }

    #[test]
    fn profile_table_has_one_row_per_store_and_six_columns() {
        let t = time_attribution(&ExperimentProfile::test());
        assert_eq!(t.rows, vec!["cassandra", "hbase", "redis"]);
        assert_eq!(t.columns.len(), 6);
        assert_eq!(
            t.get("redis", "disk_service_ms"),
            Some(0.0),
            "redis 2.4 without persistence touches no server disk"
        );
        assert!(t.get("cassandra", "cpu_service_ms").unwrap() > 0.0);
        assert!(
            t.get("redis", "cpu_service_ms").unwrap() > 0.0,
            "the event loop counts as server compute"
        );
    }

    #[test]
    fn telemetry_timeline_tracks_the_bounded_target() {
        let t = telemetry_timeline(&ExperimentProfile::test());
        assert!(t.rows.len() >= 2, "need at least two windows: {:?}", t.rows);
        for row in &t.rows {
            let p99 = t.get(row, "p99_ms").unwrap();
            let p50 = t.get(row, "p50_ms").unwrap();
            assert!(p99 >= p50, "window {row}: p99 {p99} < p50 {p50}");
            assert_eq!(t.get(row, "error_rate"), Some(0.0));
            let cpu = t.get(row, "cpu_util").unwrap();
            assert!(cpu > 0.0 && cpu < 1.2, "window {row}: cpu_util {cpu}");
        }
    }
}
