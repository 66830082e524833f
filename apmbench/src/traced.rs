//! The traced pass: a bench-side closed loop built only from public
//! layer calls, attributing host time to layers from outside.
//!
//! `WorkloadGenerator::next_op` → `DistributedStore::plan_op` →
//! `Engine::submit_at` → `Engine::drain_completions` →
//! `BenchStats::record*` → `on_background`: the steps
//! `stores::runner`'s policy-free driver takes, in its order, with a
//! clock read between them. It must reproduce the driver's results
//! exactly — [`TracedPoint::disagreement`] is self-check (a) — so a
//! per-layer number always describes the work the end-to-end number
//! timed.
//!
//! Every op feeds the accumulators; every [`SAMPLE_EVERY`]th op also
//! leaves op-level spans (`next_op`, `plan_op`, `submit`, the `drain`
//! that delivered it, `record`).

use crate::spans::{SpanId, SpanLog};
use crate::workloads::{load_store, stats_bytes, PointSpec};
use apm_core::ops::{OpKind, OpOutcome};
use apm_core::record::RAW_RECORD_SIZE;
use apm_core::snap::{self, SnapReader, SnapWriter, SnapshotHeader};
use apm_core::stats::BenchStats;
use apm_core::workload::WorkloadGenerator;
use apm_sim::kernel::{ResourceId, Token};
use apm_sim::{Engine, SimDuration, SimTime};
use apm_stores::api::{split_token, DistributedStore};
use apm_stores::runner::{config_fingerprint, RunResult};
use std::collections::{BTreeMap, VecDeque};

/// Ops between op-level span samples.
pub const SAMPLE_EVERY: u64 = 1024;

/// Calls into one layer and the host time they took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    pub calls: u64,
    pub ns: u64,
}

impl Busy {
    #[inline]
    fn add(&mut self, calls: u64, ns: u64) {
        self.calls += calls;
        self.ns += ns;
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }

    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Per-layer accumulators over the points of one traced pass.
#[derive(Clone, Debug, Default)]
pub struct LayerAcc {
    pub next_op: Busy,
    /// `DistributedStore::load` per record, `finish_load` included.
    pub load: Busy,
    pub plan_op: Busy,
    pub submit: Busy,
    pub drain: Busy,
    pub record: Busy,
    pub on_background: Busy,
    /// Σ `Plan::total_steps` over planned ops.
    pub steps: u64,
    pub rejected: u64,
    pub missing: u64,
    pub completions: u64,
    /// Σ `Engine::served` over every resource, at the end of each point.
    pub services: u64,
    pub plan_op_by_store: BTreeMap<&'static str, Busy>,
    /// Σ point spans (build + load + drive) and Σ drive spans.
    pub point_ns: u64,
    pub drive_ns: u64,
    /// Σ `disk_bytes_per_node` and Σ raw bytes per node over the points
    /// whose store persists to disk.
    pub disk_bytes: u64,
    pub raw_bytes: u64,
}

impl LayerAcc {
    /// Host time of the drive loops not inside any timed layer call:
    /// the bench loop's own bookkeeping plus the clock reads.
    pub fn loop_self_ns(&self) -> u64 {
        let layers = self.next_op.ns
            + self.plan_op.ns
            + self.submit.ns
            + self.drain.ns
            + self.record.ns
            + self.on_background.ns;
        self.drive_ns.saturating_sub(layers)
    }
}

struct Slot {
    kind: OpKind,
    ok: bool,
    missing: bool,
    /// Op span, when this op is a sampled one.
    span: Option<SpanId>,
}

/// What the traced loop produced for one point, state included.
pub struct TracedPoint {
    pub issued: u64,
    pub stats: BenchStats,
    pub wall_s: f64,
    pub engine: Engine,
    pub store: Box<dyn DistributedStore>,
}

impl TracedPoint {
    /// Self-check (a): `None` when the traced loop and the public entry
    /// point agree on `issued`, per-kind counts and the `Snap` bytes of
    /// the statistics.
    pub fn disagreement(&self, reference: &RunResult) -> Option<String> {
        if self.issued != reference.issued {
            return Some(format!(
                "traced loop issued {} ops, run_point {}",
                self.issued, reference.issued
            ));
        }
        for kind in OpKind::ALL {
            if self.stats.ops(kind) != reference.stats.ops(kind) {
                return Some(format!(
                    "traced loop measured {} {} ops, run_point {}",
                    self.stats.ops(kind),
                    kind.label(),
                    reference.stats.ops(kind)
                ));
            }
        }
        if stats_bytes(&self.stats) != stats_bytes(&reference.stats) {
            return Some("traced loop statistics differ from run_point's".to_string());
        }
        None
    }
}

/// The mutable state of one traced drive loop.
struct Drive<'a> {
    engine: Engine,
    store: Box<dyn DistributedStore>,
    generator: WorkloadGenerator,
    slots: Vec<Slot>,
    issued: u64,
    /// This point's share of `acc.plan_op`, for the per-store split.
    plan_op: Busy,
    span: SpanId,
    acc: &'a mut LayerAcc,
    log: &'a mut SpanLog,
}

impl Drive<'_> {
    /// One closed-loop issue: generate, plan, submit, with a clock read
    /// between the layers.
    fn issue(&mut self, client: u32, at: SimTime) {
        let t0 = self.log.now_ns();
        let op = self.generator.next_op();
        let t1 = self.log.now_ns();
        let (outcome, plan) = self.store.plan_op(client, &op, &mut self.engine);
        let t2 = self.log.now_ns();
        let steps = plan.total_steps() as u64;
        let slot = &mut self.slots[client as usize];
        slot.kind = op.kind();
        slot.ok = !matches!(outcome, OpOutcome::Rejected(_));
        slot.missing = matches!(outcome, OpOutcome::Missing);
        slot.span = None;
        let start = at.max(self.engine.now());
        let t3 = self.log.now_ns();
        self.engine.submit_at(start, plan, Token(u64::from(client)));
        let t4 = self.log.now_ns();
        self.acc.next_op.add(1, t1 - t0);
        self.acc.plan_op.add(1, t2 - t1);
        self.plan_op.add(1, t2 - t1);
        self.acc.submit.add(1, t4 - t3);
        self.acc.steps += steps;
        self.acc.rejected += u64::from(!slot.ok);
        self.acc.missing += u64::from(slot.missing);
        if self.log.sample_ops && self.issued.is_multiple_of(SAMPLE_EVERY) {
            let op_span = self.log.push("op", self.span, t0, t4);
            self.log.push("next_op", op_span, t0, t1);
            self.log.push("plan_op", op_span, t1, t2);
            self.log.push("submit", op_span, t3, t4);
            slot.span = Some(op_span);
        }
        self.issued += 1;
    }
}

/// Σ `Engine::served` over every resource: services the kernel
/// performed, the unit kernel cost is divided by.
pub fn total_served(engine: &Engine) -> u64 {
    (0..engine.resource_count())
        .map(|i| engine.served(ResourceId(i as u32)))
        .sum()
}

/// Drives one point through the bench-side closed loop.
pub fn trace_point(
    spec: &PointSpec,
    acc: &mut LayerAcc,
    log: &mut SpanLog,
    parent: SpanId,
) -> TracedPoint {
    let config = spec.run_config();
    let records = spec.records();
    let point_span = log.open(&spec.label(), parent);

    let build_span = log.open("build", point_span);
    let mut engine = Engine::new();
    let mut store = spec.build_store(&mut engine);
    log.close(build_span);

    let t0 = log.now_ns();
    load_store(store.as_mut(), records);
    let t1 = log.now_ns();
    log.push("load", point_span, t0, t1);
    acc.load.add(records, t1 - t0);

    let drive_span = log.open("drive", point_span);
    let connections = match store.connection_cap() {
        Some(cap) => config.client.connections.min(cap),
        None => config.client.connections,
    };
    let warmup_end = engine.now() + SimDuration::from_secs_f64(config.client.warmup_secs);
    let measure_end = warmup_end + SimDuration::from_secs_f64(config.client.measure_secs);
    let mut stats = BenchStats::new();
    let start = engine.now();
    let mut d = Drive {
        engine,
        store,
        generator: WorkloadGenerator::new(config.workload.clone(), records, config.seed),
        slots: (0..connections)
            .map(|_| Slot {
                kind: OpKind::Read,
                ok: true,
                missing: false,
                span: None,
            })
            .collect(),
        issued: 0,
        plan_op: Busy::default(),
        span: drive_span,
        acc,
        log,
    };
    for client in 0..connections {
        d.issue(client, start);
    }

    let mut batch = VecDeque::new();
    let mut drained = (0u64, 0u64);
    loop {
        if batch.is_empty() {
            let t0 = d.log.now_ns();
            let more = d.engine.drain_completions(&mut batch);
            let t1 = d.log.now_ns();
            d.acc.drain.add(1, t1 - t0);
            d.acc.completions += batch.len() as u64;
            drained = (t0, t1);
            if !more {
                break;
            }
        }
        let completion = batch.pop_front().expect("a drained batch is not empty");
        let now = completion.finished;
        if now > measure_end {
            break;
        }
        let (is_background, id) = split_token(completion.token);
        if is_background {
            let t0 = d.log.now_ns();
            d.store.on_background(id, &mut d.engine);
            d.acc.on_background.add(1, d.log.now_ns() - t0);
            continue;
        }
        let client = id as u32;
        let slot = &d.slots[client as usize];
        let failed = !completion.outcome.is_ok();
        if now > warmup_end {
            let offset_ns = now.since(warmup_end).as_nanos();
            let t0 = d.log.now_ns();
            if failed || slot.missing {
                stats.record_error(slot.kind, offset_ns);
            } else {
                if slot.ok {
                    stats.record(slot.kind, completion.latency().as_nanos());
                } else {
                    stats.record_rejection(slot.kind);
                }
                stats.record_timeline(offset_ns);
            }
            let t1 = d.log.now_ns();
            d.acc.record.add(1, t1 - t0);
            if let Some(op_span) = slot.span {
                d.log.push("drain", op_span, drained.0, drained.1);
                d.log.push("record", op_span, t0, t1);
                d.log.set_end(op_span, t1);
            }
        }
        if slot.kind == OpKind::Insert && slot.ok && !failed {
            d.generator.ack_insert();
        }
        if now < measure_end {
            d.issue(client, now);
        }
    }
    stats.set_window_ns(measure_end.since(warmup_end).as_nanos());
    let Drive {
        engine,
        store,
        issued,
        plan_op,
        acc,
        log,
        ..
    } = d;
    acc.drive_ns += log.close(drive_span);
    let point_ns = log.close(point_span);
    acc.point_ns += point_ns;

    let by_store = acc.plan_op_by_store.entry(spec.store.name()).or_default();
    by_store.add(plan_op.calls, plan_op.ns);
    acc.services += total_served(&engine);
    if let Some(per_node) = store.disk_bytes_per_node() {
        acc.disk_bytes += per_node;
        acc.raw_bytes += spec.profile.records_per_node() * RAW_RECORD_SIZE as u64;
    }
    TracedPoint {
        issued,
        stats,
        wall_s: point_ns as f64 / 1e9,
        engine,
        store,
    }
}

/// Host time of the snapshot layer on one point's post-run state.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapTiming {
    pub bytes: u64,
    pub encode_s: f64,
    pub open_s: f64,
    pub restore_s: f64,
}

/// Times `core::snap` on the state a traced point left behind: encode
/// (`store.snap_state` + `Engine::snap_state` + `snap::seal`), `open`,
/// and `restore_state` into a freshly loaded store and engine — then
/// checks that the restored state encodes to the same bytes.
pub fn time_snapshot(
    spec: &PointSpec,
    point: &TracedPoint,
    log: &mut SpanLog,
    parent: SpanId,
) -> Result<SnapTiming, String> {
    let fingerprint = config_fingerprint(point.store.name(), &spec.run_config());
    let encode = |engine: &Engine, store: &dyn DistributedStore| {
        let mut w = SnapWriter::new();
        store.snap_state(&mut w);
        engine.snap_state(&mut w);
        let header = SnapshotHeader {
            scenario: store.name().to_string(),
            config_fingerprint: fingerprint,
            features: Engine::snap_features(),
            checkpoint_index: 0,
            virtual_time_ns: engine.now().0,
        };
        snap::seal(&header, w.bytes())
    };
    let span = log.open("snapshot", parent);
    let t0 = log.now_ns();
    let sealed = encode(&point.engine, point.store.as_ref());
    let t1 = log.now_ns();
    log.push("encode", span, t0, t1);

    let (_, body) = snap::open(&sealed).map_err(|e| format!("snapshot does not open: {e}"))?;
    let t2 = log.now_ns();
    log.push("open", span, t1, t2);

    let mut engine = Engine::new();
    let mut store = spec.build_store(&mut engine);
    load_store(store.as_mut(), spec.records());
    let t3 = log.now_ns();
    let mut reader = SnapReader::new(body);
    store
        .restore_state(&mut reader, &mut engine)
        .and_then(|()| engine.restore_state(&mut reader))
        .and_then(|()| reader.finish())
        .map_err(|e| format!("snapshot does not restore: {e}"))?;
    let t4 = log.now_ns();
    log.push("restore", span, t3, t4);
    log.close(span);
    if encode(&engine, store.as_ref()) != sealed {
        return Err("restored state encodes to different bytes".to_string());
    }
    Ok(SnapTiming {
        bytes: sealed.len() as u64,
        encode_s: (t1 - t0) as f64 / 1e9,
        open_s: (t2 - t1) as f64 / 1e9,
        restore_s: (t4 - t3) as f64 / 1e9,
    })
}
