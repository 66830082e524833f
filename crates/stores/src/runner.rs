//! The closed-loop benchmark driver.
//!
//! Reproduces the YCSB execution model of §3: a population of
//! connections, each a closed loop (issue → wait → issue), running a
//! [`Workload`] against a store for a warm-up plus measurement window.
//! Maximum-throughput mode lets every connection go flat out ("all of
//! them working as intensively as possible"); bounded mode (§5.6) spaces
//! issues to hit a target aggregate rate.

use crate::api::{AttemptKind, DistributedStore, Tag, MAX_CLIENTS};
use crate::resilience::{
    backoff_delay, AdmissionBudget, Breaker, BreakerDecision, BreakerState, HedgeTracker,
    JitterRng, ResiliencePolicy,
};
use apm_core::driver::ClientConfig;
use apm_core::ops::{OpKind, OpOutcome, Operation};
use apm_core::record::{MetricKey, KEY_SIZE};
use apm_core::snap::{
    self, fnv1a64, Snap, SnapError, SnapReader, SnapState, SnapWriter, SnapshotHeader,
};
use apm_core::stats::{pairwise_sum, BenchStats, ResilienceCounters, ResourceSample, Telemetry};
use apm_core::workload::{Workload, WorkloadGenerator};
use apm_core::{snap_state, snap_struct};
use apm_sim::kernel::{PlanHandle, ResourceId, Token};
use apm_sim::{Engine, FaultSchedule, Outcome, Plan, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Configuration of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload mix.
    pub workload: Workload,
    /// Client population and measurement window.
    pub client: ClientConfig,
    /// Records pre-loaded per server node (paper: 10 M × scale).
    pub records_per_node: u64,
    /// Server node count (for the records total).
    pub nodes: u32,
    /// RNG seed.
    pub seed: u64,
    /// Fire [`DistributedStore::on_timed_event`] once, this many seconds
    /// after the measurement window starts (elasticity experiment).
    pub event_at_secs: Option<f64>,
    /// Node faults to inject; event times are offsets from the start of
    /// the measurement window (the failure-recovery experiments).
    pub faults: FaultSchedule,
    /// Client-side operation deadline. Operations not finished within it
    /// complete as timed out and count as errors — required to observe
    /// network partitions (stalled requests never finish on their own).
    pub op_deadline: Option<SimDuration>,
    /// Record windowed [`Telemetry`] (per-window throughput, error rate,
    /// latency percentiles, per-class server utilisation and queue depth)
    /// with this window size. `None` (the default for all paper figures)
    /// skips recording entirely.
    pub telemetry_window_secs: Option<f64>,
    /// Client-side resilience policies (retry, hedging, circuit breaking,
    /// admission control). `None` (the default) is the empty policy —
    /// `Some(ResiliencePolicy::default())` — on the one driver loop, not
    /// a different loop: a component that is `None` costs nothing per op.
    pub resilience: Option<ResiliencePolicy>,
    /// Checkpoint schedule. `None` (the default) captures nothing and
    /// leaves the driver loop byte-identical to a checkpoint-free run.
    pub checkpoints: Option<CheckpointSpec>,
}

impl RunConfig {
    /// A plain run: no timed event, no faults, no deadline, no
    /// telemetry, no resilience policy, no checkpoints. Callers that
    /// want one of those set the field on the returned value.
    pub fn new(
        workload: Workload,
        client: ClientConfig,
        records_per_node: u64,
        nodes: u32,
        seed: u64,
    ) -> RunConfig {
        RunConfig {
            workload,
            client,
            records_per_node,
            nodes,
            seed,
            event_at_secs: None,
            faults: FaultSchedule::none(),
            op_deadline: None,
            telemetry_window_secs: None,
            resilience: None,
            checkpoints: None,
        }
    }
}

/// Schedule for capturing snapshots during the transaction phase.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// Capture a checkpoint every this many virtual seconds after the
    /// warm-up ends (checkpoint `k` covers `warmup_end + every·(k+1)`).
    pub every_secs: f64,
}

impl CheckpointSpec {
    /// Checkpoints every `every_secs` virtual seconds.
    pub fn every(every_secs: f64) -> CheckpointSpec {
        CheckpointSpec { every_secs }
    }
}

/// One captured checkpoint: a sealed [`snap`] container holding the
/// store, kernel, and driver state at a virtual-time boundary.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Zero-based index within the run.
    pub index: u32,
    /// Virtual time at which the checkpoint was captured.
    pub at: SimTime,
    /// The sealed container ([`snap::seal`]); feed to
    /// [`resume_benchmark`] or write to disk verbatim.
    pub bytes: Vec<u8>,
}

impl Checkpoint {
    /// [`snap::checksum64`] of the container *body* (store + kernel +
    /// driver state): two runs hash equal while their states agree, and
    /// bisection compares these. Compared in-process only, never
    /// persisted. The bytes are a public field, so a container that does
    /// not open is refused as [`snap::open`] refuses it.
    pub fn state_hash(&self) -> Result<u64, SnapError> {
        let (_, body) = snap::open(&self.bytes)?;
        Ok(snap::checksum64(body))
    }

    /// The sealed header (scenario, fingerprint, index, virtual time).
    pub fn header(&self) -> Result<SnapshotHeader, SnapError> {
        snap::open(&self.bytes).map(|(header, _)| header)
    }
}

/// Fingerprint binding a snapshot to the exact run configuration that
/// produced it. `Debug` formatting of the config is deterministic, and
/// every divergence-relevant knob (workload, seed, faults, policies)
/// participates in it.
pub fn config_fingerprint(scenario: &str, config: &RunConfig) -> u64 {
    fnv1a64(format!("{scenario}|{config:?}").as_bytes())
}

/// Locates the first checkpoint window where two runs diverge, by
/// binary search over the monotone predicate "prefixes agree". Returns
/// `None` when the runs agree on every common checkpoint; otherwise the
/// index `k` of the first divergent checkpoint — the divergence lies in
/// the virtual-time window `(checkpoint k-1, checkpoint k]`. A checkpoint
/// the search opens that is no sealed container is refused
/// ([`Checkpoint::state_hash`]).
pub fn bisect_divergence(a: &[Checkpoint], b: &[Checkpoint]) -> Result<Option<u32>, SnapError> {
    let common = a.len().min(b.len());
    if common == 0 {
        return Ok(None);
    }
    let agree = |k: usize| Ok::<_, SnapError>(a[k].state_hash()? == b[k].state_hash()?);
    // Determinism makes divergence sticky: once states differ they never
    // re-converge, so "a[k] == b[k]" is monotone in k and bisectable.
    if agree(common - 1)? {
        return Ok(None);
    }
    let (mut lo, mut hi) = (0usize, common - 1); // hi: known divergent
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if agree(mid)? {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(Some(a[lo].index))
}

/// Client-visible accounting threaded through the driver loop, kept
/// for the chaos oracles: which inserts the client saw acknowledged and
/// how logical operations resolved. Collection is unconditional — it
/// costs a few counters per op, never influences scheduling, and is not
/// part of [`RunConfig`], so config fingerprints and default-path
/// results are untouched by its existence.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunLedger {
    /// Keys of inserts acknowledged to the client (plan succeeded, op
    /// accepted, not shed). The durability oracle reads each back after
    /// the run: an acked key a recovered store cannot serve is lost data.
    pub acked_inserts: Vec<MetricKey>,
    /// Logical operations started (one per closed-loop issue; retries
    /// and hedges re-send the same logical op and do not count).
    pub logical: u64,
    /// Logical operations resolved exactly once (success, error, or
    /// rejection — warm-up included). `logical - resolved` is the
    /// in-flight residue at the window end, bounded by the connection
    /// count.
    pub resolved: u64,
    /// Of the resolved, client-side rejections (store admission refusals
    /// and breaker fast-fails).
    pub rejected: u64,
}

// Hand-written: acked keys are written as their 25 bytes, not through
// the record codec. The ledger is part of what a run reports, and the
// fingerprints of reported results (`scenario_pin.rs`, `driver_pin.rs`,
// the chaos replay check) hash its encoding: they must not move when the
// checkpoint format learns a shorter spelling of a key.
impl Snap for RunLedger {
    fn snap(&self, w: &mut SnapWriter) {
        let RunLedger {
            acked_inserts,
            logical,
            resolved,
            rejected,
        } = self;
        w.put_u64(acked_inserts.len() as u64);
        for key in acked_inserts {
            w.put(key.as_bytes());
        }
        w.put_u64(*logical);
        w.put_u64(*resolved);
        w.put_u64(*rejected);
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        let len = r.count(KEY_SIZE)?;
        let mut acked_inserts = Vec::with_capacity(len);
        for _ in 0..len {
            acked_inserts.push(MetricKey::restore_bytes(r)?);
        }
        Ok(RunLedger {
            acked_inserts,
            logical: r.u64()?,
            resolved: r.u64()?,
            rejected: r.u64()?,
        })
    }
}

/// Result of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Latency and throughput statistics over the measurement window.
    pub stats: BenchStats,
    /// Operations issued in total (including warm-up and rejected).
    pub issued: u64,
    /// Per-node disk usage after the run, if the store persists to disk.
    pub disk_bytes_per_node: Option<u64>,
    /// Windowed telemetry over the measurement window, when
    /// [`RunConfig::telemetry_window_secs`] was set.
    pub telemetry: Option<Telemetry>,
    /// Checkpoints captured on the [`RunConfig::checkpoints`] schedule,
    /// in virtual-time order (empty when no schedule was set).
    pub checkpoints: Vec<Checkpoint>,
    /// Acked-write and conservation accounting for the chaos oracles.
    pub ledger: RunLedger,
}

impl RunResult {
    /// Overall throughput in operations per second.
    pub fn throughput(&self) -> f64 {
        self.stats.throughput()
    }

    /// Mean latency in milliseconds for `kind`.
    pub fn mean_latency_ms(&self, kind: OpKind) -> Option<f64> {
        self.stats.mean_latency_ms(kind)
    }

    /// FNV-1a over everything the run reports — statistics, issued
    /// count, disk usage, telemetry and ledger, snap-encoded — and nothing
    /// it holds: two runs with one results fingerprint reported the same,
    /// whatever format their checkpoints were written in.
    pub fn results_fingerprint(&self) -> u64 {
        let mut w = SnapWriter::new();
        w.put(&self.stats);
        w.put_u64(self.issued);
        w.put(&self.disk_bytes_per_node);
        w.put(&self.telemetry);
        w.put(&self.ledger);
        fnv1a64(w.bytes())
    }
}

/// Resource class (`cpu` / `disk` / `net`) of a *server* resource name;
/// `None` for client machines (workload generators, not the system under
/// test) and unclassified resources. Server-side software serialisation
/// stages — Redis's event loop, MongoDB's write lock, HDFS xceiver
/// pools, VoltDB sites and initiator — count as `cpu`: they are where a
/// request burns compute, distinct from the physical disk and NIC
/// acquires those stores also make.
pub fn server_resource_class(name: &str) -> Option<&'static str> {
    if name.starts_with("client") {
        return None;
    }
    if name.ends_with(".cpu")
        || name.ends_with(".eventloop")
        || name.ends_with(".writelock")
        || name.ends_with(".xceiver")
        || name.starts_with("voltdb.")
    {
        Some("cpu")
    } else if name.ends_with(".disk") {
        Some("disk")
    } else if name.ends_with(".nic") {
        Some("net")
    } else {
        None
    }
}

/// Samples per-class server-resource state at telemetry window
/// boundaries. A boundary is detected at the first completion at or past
/// it, so samples lag the nominal boundary by at most one op latency —
/// deterministic, and negligible against one-second windows. The window
/// is the telemetry's own and boundary 0 is the driver's warm-up end, so
/// neither is held twice.
struct TelemetrySampler {
    telemetry: Telemetry,
    /// Next unsampled boundary index; boundary `k` closes window `k - 1`.
    boundary: u64,
    /// Service-busy nanoseconds per resource at the previous boundary.
    prev_busy: Vec<u128>,
}

impl TelemetrySampler {
    fn new(engine: &Engine, window_secs: f64) -> TelemetrySampler {
        TelemetrySampler {
            telemetry: Telemetry::new(SimDuration::from_secs_f64(window_secs).as_nanos()),
            boundary: 0,
            prev_busy: vec![0; engine.resource_count()],
        }
    }

    /// Boundary `k` of windows that start at `warmup_end`. Saturating: a
    /// boundary index read from a checkpoint may be any `u64`, and one
    /// too far out is a boundary that never comes.
    fn boundary_time(&self, warmup_end: SimTime, k: u64) -> SimTime {
        warmup_end + SimDuration::from_nanos(self.telemetry.window_ns()).saturating_mul(k)
    }

    /// Samples every boundary at or before `now`.
    fn advance_to(&mut self, engine: &Engine, warmup_end: SimTime, now: SimTime) {
        while self.boundary_time(warmup_end, self.boundary) <= now {
            // A node that joined mid-run registered its resources after
            // the sampler was sized: they start from a zero baseline.
            self.prev_busy.resize(engine.resource_count(), 0);
            let k = self.boundary;
            self.boundary += 1;
            if k == 0 {
                // Boundary 0 is the measurement start: baseline only.
                self.snapshot_busy(engine);
                continue;
            }
            self.sample_window(engine, (k - 1) as usize);
        }
    }

    /// The first resource whose baseline no run of `engine` can have
    /// sampled: one past its resources, or above its service time, which
    /// the next window would subtract the baseline from.
    fn baseline_past(&self, engine: &Engine) -> Option<usize> {
        self.prev_busy.iter().enumerate().position(|(i, &busy)| {
            i >= engine.resource_count() || busy > engine.service_ns(ResourceId(i as u32))
        })
    }

    fn snapshot_busy(&mut self, engine: &Engine) {
        for (i, prev) in self.prev_busy.iter_mut().enumerate() {
            *prev = engine.service_ns(ResourceId(i as u32));
        }
    }

    fn sample_window(&mut self, engine: &Engine, index: usize) {
        let mut utils: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut queues: BTreeMap<&'static str, f64> = BTreeMap::new();
        let window_ns = self.telemetry.window_ns() as f64;
        for i in 0..engine.resource_count() {
            let id = ResourceId(i as u32);
            let Some(class) = server_resource_class(engine.resource_name(id)) else {
                continue;
            };
            let delta = engine.service_ns(id) - self.prev_busy[i];
            let util = delta as f64 / (window_ns * f64::from(engine.resource_capacity(id)));
            utils.entry(class).or_default().push(util);
            *queues.entry(class).or_default() += engine.queue_len(id) as f64;
        }
        self.snapshot_busy(engine);
        for (class, class_utils) in &utils {
            let sample = ResourceSample {
                utilization: pairwise_sum(class_utils) / class_utils.len() as f64,
                queue_depth: queues[class],
            };
            self.telemetry.sample_resource(index, class, sample);
        }
    }
}

snap_struct! { TelemetrySampler { telemetry, boundary, prev_busy } }

/// Runs the load phase then the transaction phase of one benchmark.
///
/// The store must have been constructed against `engine` (its resources
/// live there). Returns the measured statistics.
pub fn run_benchmark(
    engine: &mut Engine,
    store: &mut dyn DistributedStore,
    config: &RunConfig,
) -> RunResult {
    run_benchmark_masked(engine, store, config, None)
}

/// [`run_benchmark`] with a fault-event mask: `mask[i] == false`
/// suppresses the *dispatch* of `config.faults.events()[i]` (its
/// sentinel still fires, so the kernel event stream is unchanged).
///
/// This is the chaos shrinker's probe primitive: a probe tests a subset
/// of one fixed schedule without changing the `RunConfig` — and
/// therefore without changing the config fingerprint — so it can resume
/// from any checkpoint the full-schedule run captured strictly before
/// the first suppressed event. Two runs differing only in the mask are
/// byte-identical up to the first differing dispatch.
pub fn run_benchmark_masked(
    engine: &mut Engine,
    store: &mut dyn DistributedStore,
    config: &RunConfig,
    mask: Option<&[bool]>,
) -> RunResult {
    // Load phase (untimed; the paper reinstalls and reloads per run).
    store.load_range(0..total_records(config));
    store.finish_load();
    run_transactions(engine, store, config, mask)
}

/// Records the load phase of `config` puts in the store — the key space
/// the workload generator starts from.
fn total_records(config: &RunConfig) -> u64 {
    config.records_per_node * u64::from(config.nodes)
}

/// Resumes the transaction phase from a sealed checkpoint, continuing
/// to the end of the measurement window. The engine and store must be
/// freshly *constructed* against the same `config` that produced the
/// snapshot (the fingerprint in the header enforces this) and nothing
/// more: the load phase is not part of the run being resumed — the
/// snapshot carries every byte of loaded and mutated state and
/// overwrites whatever the store held — so the continuation is
/// byte-identical to the portion of the from-scratch run after the
/// checkpoint. Whether it is traced is the engine's choice: a checkpoint
/// holds no tracer, and an engine with [`Engine::enable_trace`] on
/// records the resumed part of the run.
pub fn resume_benchmark(
    engine: &mut Engine,
    store: &mut dyn DistributedStore,
    config: &RunConfig,
    snapshot: &[u8],
) -> Result<RunResult, SnapError> {
    resume_benchmark_masked(engine, store, config, snapshot, None)
}

/// [`resume_benchmark`] with a fault-event mask (see
/// [`run_benchmark_masked`]). Sound only when every event the mask
/// suppresses dispatches *after* the snapshot's virtual time; the chaos
/// shrinker picks its checkpoints to guarantee this.
pub fn resume_benchmark_masked(
    engine: &mut Engine,
    store: &mut dyn DistributedStore,
    config: &RunConfig,
    snapshot: &[u8],
    mask: Option<&[bool]>,
) -> Result<RunResult, SnapError> {
    let (header, body) = snap::open(snapshot)?;
    // The header's is the one feature byte a checkpoint holds: checked
    // before any codec reads the body.
    snap::check_features(header.features)?;
    let active = config_fingerprint(store.name(), config);
    if header.config_fingerprint != active {
        return Err(SnapError::ConfigMismatch {
            stored: header.config_fingerprint,
            active,
        });
    }

    let mut r = SnapReader::new(body);
    store.restore_state(&mut r, engine)?;
    engine.restore_state(&mut r)?;
    let mut d = Driver::resume(config, store, engine, &mut r)?;
    r.finish()?;
    let checkpoints = drive(engine, store, config, &mut d, mask);
    Ok(finalize(engine, store, d, checkpoints))
}

/// Client CPU burned by a breaker fast-fail (error construction on the
/// client; the shed op never touches the target node).
const SHED_COST: SimDuration = SimDuration::from_micros(5);

/// Per-connection state of the closed loop.
struct ClientSlot {
    /// The logical op in flight (retries and hedges re-send it).
    op: Operation,
    ok: bool,
    /// The read missed — with fault injection this means the store lost
    /// the record (e.g. a crashed cache node), counted as an error.
    missing: bool,
    /// Next scheduled issue time under throttling.
    next_issue: SimTime,
    /// Attempt epoch, advanced on every attempt submission; completions
    /// carrying an older epoch are stale (cancelled losers, late
    /// triggers) and are dropped unrecorded.
    epoch: u64,
    /// Start of the logical op's first attempt — the base for end-to-end
    /// latency, so retries and backoff count against the op.
    logical_start: SimTime,
    retries_used: u32,
    /// Jitter fraction drawn once per logical op, keeping each op's
    /// backoff schedule monotone.
    jitter: f64,
    /// Breaker target of the current attempt.
    target: Option<usize>,
    was_probe: bool,
    /// The current attempt was shed by a breaker (client fast-fail).
    shed: bool,
    hedge_used: bool,
    primary: Option<PlanHandle>,
    hedge: Option<PlanHandle>,
    trigger: Option<PlanHandle>,
}

snap_struct! {
    ClientSlot {
        op, ok, missing, next_issue, epoch, logical_start, retries_used, jitter, target,
        was_probe, shed, hedge_used, primary, hedge, trigger
    }
}

impl ClientSlot {
    /// A connection before its first op, due at `next_issue`: its
    /// placeholder read is never issued — [`Driver::issue_logical_op`]
    /// draws the first op and sets every other field an attempt reads.
    fn idle(next_issue: SimTime) -> ClientSlot {
        ClientSlot {
            op: Operation::Read {
                key: MetricKey::MIN,
            },
            ok: true,
            missing: false,
            next_issue,
            epoch: 0,
            logical_start: next_issue,
            retries_used: 0,
            jitter: 0.0,
            target: None,
            was_probe: false,
            shed: false,
            hedge_used: false,
            primary: None,
            hedge: None,
            trigger: None,
        }
    }
}

/// Mutable state of the policy engine, shared by all connections. The
/// [`ResiliencePolicy`] itself is config and lives on the [`Driver`];
/// what the policies did is counted in the driver's
/// [`BenchStats::resilience`].
struct PolicyState {
    rng: JitterRng,
    tracker: HedgeTracker,
    breakers: Vec<Breaker>,
    budget: Option<AdmissionBudget>,
}

impl PolicyState {
    fn new(policy: &ResiliencePolicy, seed: u64, targets: usize) -> PolicyState {
        PolicyState {
            rng: JitterRng::new(seed ^ 0x7E51_11E9_CE00_0001),
            tracker: HedgeTracker::default(),
            breakers: (0..targets).map(|_| Breaker::default()).collect(),
            budget: policy.admission.as_ref().map(AdmissionBudget::new),
        }
    }

    /// Spends one extra-attempt credit (retry or hedge); always granted
    /// when no admission policy is configured.
    fn try_extra(&mut self) -> bool {
        match self.budget.as_mut() {
            Some(budget) => budget.try_spend(),
            None => true,
        }
    }
}

// The breaker vector carries its own length, so topology growth mid-run
// survives a round trip.
snap_struct! { PolicyState { rng, tracker, breakers, budget } }

/// Loop state of the closed-loop driver — everything the event loop
/// mutates, extracted so a checkpoint can serialize it and a resumed
/// run can re-enter [`drive`] mid-window. `measure_end` is not written:
/// a resumed run derives it from `warmup_end` and the config.
struct Driver {
    /// Config, re-derived from [`RunConfig::resilience`] at construction
    /// (`None` is the empty policy). A component that is `None` costs
    /// nothing per op: every piece of per-op policy work below is gated
    /// on the component that reads its result.
    policy: ResiliencePolicy,
    generator: WorkloadGenerator,
    slots: Vec<ClientSlot>,
    stats: BenchStats,
    sampler: Option<TelemetrySampler>,
    issued: u64,
    warmup_end: SimTime,
    measure_end: SimTime,
    event_at: Option<SimTime>,
    /// Index of the next checkpoint to capture.
    next_checkpoint: u32,
    ledger: RunLedger,
    ps: PolicyState,
}

// The section checks nothing itself: `Driver::resume` checks the
// restored driver against the store and the engine.
snap_state! {
    Driver {
        policy: _, generator, slots, stats, sampler, issued, warmup_end, measure_end: _,
        event_at, next_checkpoint, ledger, ps
    }
}

/// Connections the run drives: the configured population, capped by the
/// store's client library.
fn connection_count(store: &dyn DistributedStore, config: &RunConfig) -> u32 {
    match store.connection_cap() {
        Some(cap) => config.client.connections.min(cap),
        None => config.client.connections,
    }
}

/// Submits one attempt's plan, with the client-side deadline if any.
fn submit_attempt(
    engine: &mut Engine,
    start: SimTime,
    plan: Plan,
    token: Token,
    deadline: Option<SimDuration>,
) -> PlanHandle {
    match deadline {
        Some(deadline) => engine.submit_at_with_deadline(start, plan, token, deadline),
        None => engine.submit_at(start, plan, token),
    }
}

impl Driver {
    /// The driver of a transaction phase starting at `engine`'s clock:
    /// every connection idle and due at its first issue — under
    /// throttling staggered across one interval, so the target rate is
    /// smooth — and nothing drawn, counted or sampled yet.
    fn new(config: &RunConfig, store: &dyn DistributedStore, engine: &Engine) -> Driver {
        let start = engine.now();
        let warmup_end = start + SimDuration::from_secs_f64(config.client.warmup_secs);
        let connections = connection_count(store, config);
        let first_issue = |client: u32| {
            let interval = issue_interval(config).map_or(0, |i| i.as_nanos());
            start + SimDuration::from_nanos(interval * u64::from(client) / u64::from(connections))
        };
        let policy = config.resilience.clone().unwrap_or_default();
        Driver {
            generator: WorkloadGenerator::new(
                config.workload.clone(),
                total_records(config),
                config.seed,
            ),
            slots: (0..connections)
                .map(|client| ClientSlot::idle(first_issue(client)))
                .collect(),
            stats: BenchStats::new(),
            sampler: config
                .telemetry_window_secs
                .map(|secs| TelemetrySampler::new(engine, secs)),
            issued: 0,
            warmup_end,
            measure_end: measure_end(config, warmup_end),
            event_at: config
                .event_at_secs
                .map(|secs| warmup_end + SimDuration::from_secs_f64(secs)),
            next_checkpoint: 0,
            ledger: RunLedger::default(),
            ps: PolicyState::new(&policy, config.seed, store.ctx().servers.len()),
            policy,
        }
    }

    /// The driver a checkpoint's section holds: [`Driver::new`]'s, its
    /// section restored in place and `measure_end` derived again from the
    /// restored warm-up end. Refuses a population an attempt token cannot
    /// address before it builds a slot, then a restored driver the loop
    /// could not drive (each check below says why).
    fn resume(
        config: &RunConfig,
        store: &dyn DistributedStore,
        engine: &Engine,
        r: &mut SnapReader,
    ) -> Result<Driver, SnapError> {
        let bad = |what, tag: usize| SnapError::BadTag {
            what,
            tag: tag as u64,
        };
        let connections = connection_count(store, config);
        if connections > MAX_CLIENTS {
            return Err(bad("client population", connections as usize));
        }
        let mut d = Driver::new(config, store, engine);
        d.restore_state(r)?;
        d.measure_end = measure_end(config, d.warmup_end);
        // The loop indexes slots by the client id in each completion
        // token; a slot vector of any other length is not this run's.
        if d.slots.len() != connections as usize {
            return Err(bad("client slot count", d.slots.len()));
        }
        // A slot's handles go to `Engine::cancel`, which indexes by them.
        let handles = d.slots.iter().flat_map(|s| [s.primary, s.hedge, s.trigger]);
        engine.check_handles(handles.flatten())?;
        // A slot's target indexes the breaker table on its completion.
        let targets = d.slots.iter().filter_map(|s| s.target);
        if let Some(t) = targets.max().filter(|&t| t >= d.ps.breakers.len()) {
            return Err(bad("client slot target", t));
        }
        // The loop subtracts from a telemetry baseline, a breaker's error
        // count and (adding to it) the admission credit: each must be one
        // this run can have left.
        if let Some(i) = d.sampler.as_ref().and_then(|s| s.baseline_past(engine)) {
            return Err(bad("telemetry busy baseline", i));
        }
        if let Some(i) = d.ps.breakers.iter().position(|b| !b.window_is_consistent()) {
            return Err(bad("breaker window", i));
        }
        let budget_ok = match (&d.ps.budget, &d.policy.admission) {
            (None, None) => true,
            (Some(budget), Some(policy)) => budget.is_from(policy),
            _ => false,
        };
        if !budget_ok {
            let banked = d.ps.budget.as_ref().map_or(0, AdmissionBudget::banked);
            return Err(bad("admission budget", banked as usize));
        }
        Ok(d)
    }

    /// Virtual time of the next checkpoint boundary. Saturating, like
    /// [`TelemetrySampler::boundary_time`]: the counter comes from the
    /// checkpoint.
    fn checkpoint_due(&self, every: SimDuration) -> SimTime {
        self.warmup_end + every.saturating_mul(u64::from(self.next_checkpoint) + 1)
    }

    /// Starts a fresh logical op on `client` — drawing the op and its
    /// jitter fraction, and crediting admission control with one primary
    /// — and issues its first attempt. The fraction only ever scales a
    /// retry backoff, so it is drawn only under a retry policy.
    fn issue_logical_op(
        &mut self,
        engine: &mut Engine,
        store: &mut dyn DistributedStore,
        client: u32,
        at: SimTime,
        deadline: Option<SimDuration>,
    ) {
        self.ledger.logical += 1;
        if let Some(budget) = self.ps.budget.as_mut() {
            budget.on_primary();
        }
        let jitter = match self.policy.retry {
            Some(_) => self.ps.rng.next_frac(),
            None => 0.0,
        };
        let op = self.generator.next_op();
        let slot = &mut self.slots[client as usize];
        slot.op = op;
        slot.retries_used = 0;
        slot.jitter = jitter;
        slot.hedge_used = false;
        slot.logical_start = at.max(engine.now());
        self.issue_attempt(engine, store, client, at, deadline);
    }

    /// Issues one attempt (primary or retry) of the client's logical op,
    /// consulting the target's circuit breaker and arming the hedge
    /// trigger for reads.
    fn issue_attempt(
        &mut self,
        engine: &mut Engine,
        store: &mut dyn DistributedStore,
        client: u32,
        at: SimTime,
        deadline: Option<SimDuration>,
    ) {
        let start = at.max(engine.now());
        let slot = &mut self.slots[client as usize];
        slot.epoch += 1;
        slot.target = None;
        slot.was_probe = false;
        slot.shed = false;
        slot.primary = None;
        slot.hedge = None;
        slot.trigger = None;
        let token = Tag::Attempt(client, slot.epoch, AttemptKind::Primary).token();
        self.issued += 1;

        // Circuit breaker: consult the per-target state machine first.
        // `plan_target` is a routing hash per op, so it is computed only
        // when there is a breaker to shard on it.
        if let Some(bp) = &self.policy.breaker {
            slot.target = store.plan_target(&slot.op);
            if let Some(t) = slot.target {
                // A node the store grew mid-run (a bootstrap) gets its
                // breaker when the first op routes to it.
                if t >= self.ps.breakers.len() {
                    self.ps.breakers.resize_with(t + 1, Breaker::default);
                }
                let (decision, transition) = self.ps.breakers[t].admit(start, bp);
                note_transition(self.stats.resilience_mut(), transition);
                match decision {
                    BreakerDecision::Admit => {}
                    BreakerDecision::Probe => slot.was_probe = true,
                    BreakerDecision::Shed => {
                        self.stats.resilience_mut().shed += 1;
                        slot.shed = true;
                        slot.ok = true;
                        slot.missing = false;
                        let plan = store.ctx().plan().client_cpu(client, SHED_COST);
                        slot.primary = Some(engine.submit_at(start, plan.finish(), token));
                        return;
                    }
                }
            }
        }

        let (outcome, plan) = store.plan_op(client, &slot.op, engine);
        slot.ok = !matches!(outcome, OpOutcome::Rejected(_));
        slot.missing = matches!(outcome, OpOutcome::Missing);
        slot.primary = Some(submit_attempt(engine, start, plan, token, deadline));

        // Arm the hedge trigger: a pure delay whose completion is the
        // signal to launch the speculative duplicate read.
        if let Some(hp) = &self.policy.hedge {
            if slot.op.kind() == OpKind::Read && !slot.hedge_used {
                let delay = Plan::build().wait(self.ps.tracker.delay(hp));
                let token = Tag::Attempt(client, slot.epoch, AttemptKind::HedgeTrigger).token();
                slot.trigger = Some(engine.submit_at(start, delay.finish(), token));
            }
        }
    }

    /// Fired by a hedge trigger's completion: launches the speculative
    /// duplicate read if the primary is still in flight, admission
    /// control grants the extra attempt, and the store has an
    /// alternative replica.
    fn launch_hedge(
        &mut self,
        engine: &mut Engine,
        store: &mut dyn DistributedStore,
        client: u32,
        deadline: Option<SimDuration>,
    ) {
        let slot = &mut self.slots[client as usize];
        slot.trigger = None;
        if slot.primary.is_none() || slot.hedge.is_some() || slot.hedge_used || slot.shed {
            return;
        }
        if !self.ps.try_extra() {
            return; // admission control declines the speculative attempt
        }
        let Some(plan) = store.hedge_read_plan(client, &slot.op, engine) else {
            return; // no alternative replica to hedge to
        };
        self.stats.resilience_mut().hedges += 1;
        slot.hedge_used = true;
        self.issued += 1;
        let token = Tag::Attempt(client, slot.epoch, AttemptKind::Hedge).token();
        let now = engine.now();
        slot.hedge = Some(submit_attempt(engine, now, plan, token, deadline));
    }
}

/// Counts a breaker transition, if `admit` or `on_outcome` made one,
/// after checking it is legal.
fn note_transition(
    counters: &mut ResilienceCounters,
    transition: Option<(BreakerState, BreakerState)>,
) {
    if let Some((from, to)) = transition {
        crate::audit::assert_breaker_transition_legal(from, to);
        counters.breaker_transitions += 1;
    }
}

/// End of the measurement window that starts at `warmup_end`.
fn measure_end(config: &RunConfig, warmup_end: SimTime) -> SimTime {
    warmup_end + SimDuration::from_secs_f64(config.client.measure_secs)
}

/// A connection's spacing between issues under throttling.
fn issue_interval(config: &RunConfig) -> Option<SimDuration> {
    config
        .client
        .issue_interval_secs()
        .map(SimDuration::from_secs_f64)
}

/// Fresh transaction phase: arm faults, prime the connections, then
/// enter the event loop.
fn run_transactions(
    engine: &mut Engine,
    store: &mut dyn DistributedStore,
    config: &RunConfig,
    mask: Option<&[bool]>,
) -> RunResult {
    let connections = connection_count(store, config);
    assert!(connections > 0, "no client connections");
    assert!(
        connections <= MAX_CLIENTS,
        "{connections} connections: an attempt token addresses {MAX_CLIENTS}"
    );
    let mut d = Driver::new(config, store, engine);

    // Arm the fault schedule: one zero-cost sentinel plan per event, so
    // transitions fire at exact simulated times inside the event loop.
    let start = engine.now();
    for (index, event) in config.faults.events().iter().enumerate() {
        let at = d.warmup_end + SimDuration::from_nanos(event.at.as_nanos());
        if at < d.measure_end {
            let token = Tag::Fault(index as u64).token();
            engine.submit_at(at.max(start), Plan::empty(), token);
        }
    }

    // Prime every connection with its first op.
    for client in 0..connections {
        let at = d.slots[client as usize].next_issue;
        d.issue_logical_op(engine, store, client, at, config.op_deadline);
    }

    let checkpoints = drive(engine, store, config, &mut d, mask);
    finalize(engine, store, d, checkpoints)
}

/// The event loop: consume completions, settle hedge races, retry,
/// record, reissue, capture checkpoints, stop at the window end. Both a
/// fresh run and a resumed one enter here; all mutable state lives in
/// the driver, the kernel, or the store — each of which snapshots — so
/// the loop itself is oblivious to which entry path it came from.
/// Returns the checkpoints captured on the way.
fn drive(
    engine: &mut Engine,
    store: &mut dyn DistributedStore,
    config: &RunConfig,
    d: &mut Driver,
    mask: Option<&[bool]>,
) -> Vec<Checkpoint> {
    let deadline = config.op_deadline;
    let issue_interval = issue_interval(config);
    let every = config
        .checkpoints
        .as_ref()
        .map(|spec| SimDuration::from_secs_f64(spec.every_secs));

    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    while let Some(completion) = engine.next_completion() {
        let now = completion.finished;
        if let Some(sampler) = d.sampler.as_mut() {
            sampler.advance_to(engine, d.warmup_end, now.min(d.measure_end));
        }
        if now > d.measure_end {
            break;
        }
        if let Some(at) = d.event_at {
            if now >= at {
                d.event_at = None;
                store.on_timed_event(engine);
            }
        }
        let (client, epoch, attempt) = match Tag::of(completion.token) {
            // A sentinel beyond the schedule (only a forged snapshot can
            // hold one) is ignored, as a masked one is.
            Tag::Fault(index) => {
                if let Some(event) = config.faults.events().get(index as usize) {
                    if event_enabled(mask, index as usize) {
                        store.on_fault(event, engine);
                    }
                }
                continue;
            }
            Tag::Background(payload) => {
                store.on_background(payload, engine);
                continue;
            }
            Tag::Attempt(client, epoch, attempt) => (client, epoch, attempt),
        };
        // So is a token naming no client slot.
        let Some(slot) = d.slots.get_mut(client as usize) else {
            continue;
        };
        if epoch != slot.epoch || completion.outcome == Outcome::Cancelled {
            // A cancelled loser, a stale trigger, or a straggler from a
            // superseded attempt: never recorded, so a hedged op can
            // never double-count in the stats.
            continue;
        }

        // ---- Unless it is a hedge trigger, the current attempt
        // resolved: settle the race first.
        let loser = match attempt {
            AttemptKind::HedgeTrigger => {
                d.launch_hedge(engine, store, client, deadline);
                continue;
            }
            AttemptKind::Hedge => slot.primary.take(),
            AttemptKind::Primary => slot.hedge.take(),
        };
        let failed = !completion.outcome.is_ok();
        if let Some(handle) = loser {
            engine.cancel(handle);
        }
        if let Some(handle) = slot.trigger.take() {
            engine.cancel(handle);
        }
        slot.primary = None;
        slot.hedge = None;
        if attempt == AttemptKind::Hedge && !failed {
            d.stats.resilience_mut().hedge_wins += 1;
        }

        // Feed the breaker and the hedge-latency tracker (shed attempts
        // never touched the target, so they are invisible to both).
        let kind = slot.op.kind();
        if !slot.shed {
            if let (Some(_), Some(target)) = (&d.policy.breaker, slot.target) {
                let transition = d.ps.breakers[target].on_outcome(now, !failed, slot.was_probe);
                note_transition(d.stats.resilience_mut(), transition);
            }
            if d.policy.hedge.is_some()
                && !failed
                && slot.ok
                && !slot.missing
                && kind == OpKind::Read
            {
                d.ps.tracker.record(completion.latency().as_nanos());
            }
        }

        // Retry kernel-level failures within budget and admission.
        if failed && !slot.shed {
            if let Some(rp) = &d.policy.retry {
                let used = slot.retries_used;
                let re_at = now + backoff_delay(rp, used, slot.jitter);
                if used < rp.max_retries && re_at < d.measure_end {
                    if d.ps.try_extra() {
                        slot.retries_used = used + 1;
                        crate::audit::assert_retry_within_budget(used + 1, rp.max_retries);
                        d.stats.resilience_mut().retries += 1;
                        d.issue_attempt(engine, store, client, re_at, deadline);
                        continue;
                    }
                    // Admission control declined: the storm stops here.
                    d.stats.resilience_mut().shed += 1;
                }
            }
        }

        // ---- Final resolution of the logical op (retry continuations
        // left the iteration above): record it inside the measurement
        // window, resolve it in the ledger always — warm-up included.
        // A rejection is client-side: a breaker fast-fail or a store
        // admission refusal.
        let rejected = slot.shed || (!failed && !slot.missing && !slot.ok);
        if now > d.warmup_end {
            let offset_ns = now.since(d.warmup_end).as_nanos();
            let telemetry = d.sampler.as_mut().map(|s| &mut s.telemetry);
            if rejected {
                d.stats.record_rejection(kind);
                d.stats.record_timeline(offset_ns);
                if let Some(telemetry) = telemetry {
                    telemetry.record_rejection(offset_ns);
                }
            } else if failed || slot.missing {
                // Kernel-level failure (node down, timeout) or lost data.
                d.stats.record_error(kind, offset_ns);
                if let Some(telemetry) = telemetry {
                    telemetry.record_error(offset_ns);
                }
            } else {
                // End-to-end latency: backoff and retries count against
                // the op, exactly as a real client would experience.
                let latency = now.since(slot.logical_start).as_nanos();
                d.stats.record(kind, latency);
                d.stats.record_timeline(offset_ns);
                if let Some(telemetry) = telemetry {
                    telemetry.record(offset_ns, latency);
                }
            }
        }
        d.ledger.resolved += 1;
        d.ledger.rejected += u64::from(rejected);
        if let Operation::Insert { row } = &slot.op {
            if slot.ok && !failed && !slot.shed {
                // Acked to the client: the ledger records exactly the
                // keys the client saw acknowledged.
                d.generator.ack_insert();
                d.ledger.acked_inserts.push(row.key());
            }
        }
        // Schedule the next logical op for this connection.
        let at = match issue_interval {
            Some(interval) => {
                slot.next_issue = (slot.next_issue + interval).max(now);
                slot.next_issue
            }
            None => now,
        };
        if at < d.measure_end {
            d.issue_logical_op(engine, store, client, at, deadline);
        }
        // Capture every checkpoint boundary crossed by this completion.
        // The bottom of the iteration is a consistent cut: the completion
        // is fully absorbed and the follow-up op submitted.
        if let Some(every) = every {
            while d.checkpoint_due(every) <= now {
                let index = d.next_checkpoint;
                d.next_checkpoint += 1;
                // State grows slowly: the run's previous checkpoint is
                // the best guess at this one's size.
                let size_hint = checkpoints.last().map_or(0, |c| c.bytes.len());
                checkpoints.push(capture_checkpoint(
                    engine, store, config, d, index, size_hint,
                ));
            }
        }
    }
    checkpoints
}

fn finalize(
    engine: &mut Engine,
    store: &mut dyn DistributedStore,
    mut d: Driver,
    checkpoints: Vec<Checkpoint>,
) -> RunResult {
    d.stats
        .set_window_ns(d.measure_end.since(d.warmup_end).as_nanos());
    // Flush the final boundary (the loop stops at the first completion
    // past the window, which may itself lie beyond it).
    if let Some(sampler) = d.sampler.as_mut() {
        sampler.advance_to(engine, d.warmup_end, d.measure_end);
    }
    RunResult {
        stats: d.stats,
        issued: d.issued,
        disk_bytes_per_node: store.disk_bytes_per_node(),
        telemetry: d.sampler.map(|s| s.telemetry),
        checkpoints,
        ledger: d.ledger,
    }
}

/// True when the mask (if any) leaves fault event `index` enabled.
fn event_enabled(mask: Option<&[bool]>, index: usize) -> bool {
    match mask {
        Some(m) => m.get(index).copied().unwrap_or(true),
        None => true,
    }
}

/// Seals checkpoint `index`: store state, kernel state, driver state,
/// each written straight into the container's buffer (`size_hint` bytes
/// to start with). The caller advances the driver's checkpoint counter
/// *before* serializing, so the stored counter already points past this
/// checkpoint — exactly what a resumed run needs to continue the
/// numbering.
fn capture_checkpoint(
    engine: &Engine,
    store: &dyn DistributedStore,
    config: &RunConfig,
    d: &Driver,
    index: u32,
    size_hint: usize,
) -> Checkpoint {
    let header = SnapshotHeader {
        scenario: store.name().to_string(),
        config_fingerprint: config_fingerprint(store.name(), config),
        features: Engine::snap_features(),
        checkpoint_index: index,
        virtual_time_ns: engine.now().0,
    };
    Checkpoint {
        index,
        at: engine.now(),
        bytes: snap::seal_with(&header, size_hint, |w| {
            store.snap_state(w);
            engine.snap_state(w);
            d.snap_state(w);
        }),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::api::{BackgroundWork, Request, StoreCtx};
    use apm_core::driver::Throttle;
    use apm_core::ops::Operation;
    use apm_core::record::Row;
    use apm_sim::{ClusterSpec, Plan};
    use std::collections::BTreeMap;

    /// A minimal in-memory store with a fixed CPU cost, for driver tests.
    struct FixtureStore {
        ctx: StoreCtx,
        data: BTreeMap<apm_core::record::MetricKey, Row>,
        cpu_us: u64,
        /// Offer hedge plans (duplicate read against the same node).
        hedged: bool,
        /// Calls of `load` — which is also what the provided `load_range`
        /// comes down to.
        loads: u64,
    }

    impl FixtureStore {
        fn new(engine: &mut Engine, cpu_us: u64) -> FixtureStore {
            let ctx = StoreCtx::new(engine, ClusterSpec::cluster_m(), 1, 1, 0.1, 3);
            FixtureStore {
                ctx,
                data: BTreeMap::new(),
                cpu_us,
                hedged: false,
                loads: 0,
            }
        }

        fn read_plan(&self, client: u32) -> Plan {
            let cpu = SimDuration::from_micros(self.cpu_us);
            let request = Request::new(SimDuration::from_micros(5), 100);
            self.ctx
                .round_trip(client, 0, request, 175, |plan| plan.cpu(0, cpu))
        }
    }

    impl DistributedStore for FixtureStore {
        fn name(&self) -> &'static str {
            "fixture"
        }

        fn ctx(&self) -> &StoreCtx {
            &self.ctx
        }

        fn load_row(&mut self, row: Row) {
            self.loads += 1;
            self.data.insert(row.key(), row);
        }

        fn plan_op(
            &mut self,
            client: u32,
            op: &Operation,
            _engine: &mut Engine,
        ) -> (OpOutcome, Plan) {
            let outcome = match op {
                Operation::Read { key } => OpOutcome::read(self.data.get(key).copied()),
                Operation::Insert { row } => {
                    self.data.insert(row.key(), *row);
                    OpOutcome::Done
                }
                Operation::Scan { .. } => OpOutcome::Scanned(0),
            };
            (outcome, self.read_plan(client))
        }

        fn plan_target(&self, _op: &Operation) -> Option<usize> {
            Some(0)
        }

        fn hedge_read_plan(
            &mut self,
            client: u32,
            op: &Operation,
            _engine: &mut Engine,
        ) -> Option<Plan> {
            if self.hedged && matches!(op, Operation::Read { .. }) {
                Some(self.read_plan(client))
            } else {
                None
            }
        }

        fn disk_bytes_per_node(&self) -> Option<u64> {
            None
        }

        fn snap_state(&self, w: &mut SnapWriter) {
            w.put(&self.data);
        }

        fn restore_state(
            &mut self,
            r: &mut SnapReader,
            _engine: &mut Engine,
        ) -> Result<(), SnapError> {
            self.data = r.get()?;
            Ok(())
        }
    }

    /// The short four-node RW run [`resume_forged`] forges checkpoint 0 of.
    fn forged_run_config() -> RunConfig {
        let mut config = RunConfig::new(
            Workload::rw(),
            ClientConfig::cluster_m(4).with_window(0.2, 0.6),
            5_000,
            4,
            0xF0F6,
        );
        config.checkpoints = Some(CheckpointSpec::every(0.2));
        config
    }

    /// Test support for the restore-time invariant checks: resumes checkpoint
    /// 0 of a short four-node RW run of the store `make` builds, forged. The
    /// body is decoded into a fresh store, which `forge` may change before it
    /// is encoded again in front of the kernel and driver sections; `edit`
    /// then gets the whole body and the length of its store section. The
    /// container is sealed again, so its checksum vouches for the forgery.
    pub(crate) fn resume_forged<S: DistributedStore>(
        make: impl Fn(&mut Engine) -> S,
        forge: impl FnOnce(&mut S),
        edit: impl FnOnce(&mut Vec<u8>, usize),
    ) -> Result<RunResult, SnapError> {
        resume_forged_under(&forged_run_config(), make, forge, edit)
    }

    /// [`resume_forged`] of a run under `config`.
    fn resume_forged_under<S: DistributedStore>(
        config: &RunConfig,
        make: impl Fn(&mut Engine) -> S,
        forge: impl FnOnce(&mut S),
        edit: impl FnOnce(&mut Vec<u8>, usize),
    ) -> Result<RunResult, SnapError> {
        let mut engine = Engine::new();
        let mut store = make(&mut engine);
        let run = run_benchmark(&mut engine, &mut store, config);
        let (header, body) = snap::open(&run.checkpoints[0].bytes).expect("own checkpoint opens");
        let mut engine = Engine::new();
        let mut store = make(&mut engine);
        let mut r = SnapReader::new(body);
        store
            .restore_state(&mut r, &mut engine)
            .expect("own checkpoint restores");
        forge(&mut store);
        let mut w = SnapWriter::new();
        store.snap_state(&mut w);
        let store_len = w.len();
        let mut forged = w.into_bytes();
        forged.extend_from_slice(&body[body.len() - r.remaining()..]);
        edit(&mut forged, store_len);
        let sealed = snap::seal_with(&header, forged.len(), |w| w.put_bytes(&forged));
        let mut engine = Engine::new();
        let mut store = make(&mut engine);
        resume_benchmark(&mut engine, &mut store, config, &sealed)
    }

    /// [`resume_forged_under`] of the fixture store under `config`, its
    /// driver section decoded, changed by `forge` and written back in
    /// place.
    fn forge_driver(
        config: &RunConfig,
        forge: impl FnOnce(&mut Driver),
    ) -> Result<RunResult, SnapError> {
        forge_driver_bytes(config, forge, |_, ()| {})
    }

    /// [`forge_driver`], whose re-encoded driver section `edit` then
    /// changes as bytes, given what `forge` returned.
    fn forge_driver_bytes<T>(
        config: &RunConfig,
        forge: impl FnOnce(&mut Driver) -> T,
        edit: impl FnOnce(&mut [u8], T),
    ) -> Result<RunResult, SnapError> {
        let edit = |body: &mut Vec<u8>, store_len: usize| {
            let mut r = SnapReader::new(&body[store_len..]);
            let mut engine = Engine::new();
            let store = FixtureStore::new(&mut engine, 100);
            engine
                .restore_state(&mut r)
                .expect("kernel section restores");
            let driver_at = body.len() - r.remaining();
            let mut d = Driver::new(config, &store, &engine);
            d.restore_state(&mut r).expect("driver section decodes");
            let forged = forge(&mut d);
            let mut w = SnapWriter::new();
            d.snap_state(&mut w);
            body.truncate(driver_at);
            body.extend_from_slice(w.bytes());
            edit(&mut body[driver_at..], forged);
        };
        resume_forged_under(
            config,
            |engine| FixtureStore::new(engine, 1_000),
            |_| {},
            edit,
        )
    }

    /// Body offsets of the exec-slot and resource indices in a kernel
    /// section, found by walking the layout `Engine::snap_state` writes:
    /// what the forged-kernel tests overwrite.
    #[derive(Debug, Default)]
    struct KernelIndices {
        /// Each queued event's exec slot, and each `AcquireDone`'s resource.
        event_slots: Vec<usize>,
        done_resources: Vec<usize>,
        /// Each waiting-queue entry's exec slot.
        waiting_slots: Vec<usize>,
        /// The resource of each `Acquire` step in a live exec's plan, and
        /// each live exec's parent slot.
        plan_resources: Vec<usize>,
        parent_slots: Vec<usize>,
        /// The length prefixes of the free-slot list and the ready queue.
        free_list: usize,
        ready: usize,
    }

    /// A cursor over a body for [`kernel_indices`].
    struct Walk<'a> {
        body: &'a [u8],
        pos: usize,
    }

    impl Walk<'_> {
        /// Steps over `n` bytes and returns where they start.
        fn skip(&mut self, n: usize) -> usize {
            self.pos += n;
            self.pos - n
        }

        fn u8(&mut self) -> u8 {
            self.body[self.skip(1)]
        }

        fn u64(&mut self) -> u64 {
            let at = self.skip(8);
            u64::from_le_bytes(self.body[at..at + 8].try_into().expect("8 bytes"))
        }

        /// Steps over a plan, noting where each `Acquire` names its resource.
        fn plan(&mut self, resources: &mut Vec<usize>) {
            for _ in 0..self.u64() {
                match self.u8() {
                    0 => {
                        resources.push(self.skip(4));
                        self.skip(8);
                    }
                    1 | 4 => _ = self.skip(8),
                    2 => _ = self.skip(16),
                    _ => {
                        for _ in 0..self.u64() {
                            self.plan(resources);
                        }
                        self.skip(8);
                    }
                }
            }
        }
    }

    /// [`KernelIndices`] of the kernel section at `at` in `body`.
    fn kernel_indices(body: &[u8], at: usize) -> KernelIndices {
        let mut w = Walk { body, pos: at + 16 };
        let mut k = KernelIndices::default();
        for _ in 0..w.u64() {
            w.skip(16);
            let done = w.u8() == 1;
            k.event_slots.push(w.skip(8));
            if done {
                k.done_resources.push(w.skip(4));
            }
        }
        for _ in 0..w.u64() {
            w.skip(4);
            for _ in 0..w.u64() {
                k.waiting_slots.push(w.skip(24));
            }
            w.skip(16 + 16 + 8);
            if w.u8() == 1 && w.u8() == 0 {
                w.skip(8);
            }
            w.skip(4);
        }
        for _ in 0..w.u64() {
            let mut resources = Vec::new();
            w.plan(&mut resources);
            w.skip(4 + 8 + 8);
            let parent = (w.u8() == 1).then(|| w.skip(8));
            w.skip(4 + 4 + 1 + 4);
            if w.u8() == 1 {
                k.plan_resources.extend(resources);
                k.parent_slots.extend(parent);
            }
        }
        k.free_list = w.pos;
        let free = w.u64() as usize;
        w.skip(4 * free);
        k.ready = w.pos;
        k
    }

    /// Resumes checkpoint 0 of a three-way replicated Cassandra run — one
    /// whose kernel section holds queued events and work, join children and
    /// free slots — with that section changed by `edit`, which gets the
    /// section's [`KernelIndices`].
    fn resume_forged_kernel(
        edit: impl FnOnce(&mut Vec<u8>, &KernelIndices),
    ) -> Result<RunResult, SnapError> {
        let make = |engine: &mut Engine| {
            let ctx = StoreCtx::new(engine, ClusterSpec::cluster_m(), 4, 2, 0.0005, 29);
            let config = crate::cassandra::CassandraConfig {
                replication: 3,
                ..Default::default()
            };
            crate::cassandra::CassandraStore::new(ctx, config)
        };
        resume_forged(
            make,
            |_| {},
            |body, store_len| {
                let k = kernel_indices(body, store_len);
                edit(body, &k);
            },
        )
    }

    /// An exec slot or resource index past any table a run builds.
    const FAR: u32 = 1 << 30;

    /// Writes `value` over the `u32` at `at`.
    fn put_u32_at(body: &mut [u8], at: usize, value: u32) {
        body[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// The `u64` length prefix at `at`.
    fn kernel_list_len(body: &[u8], at: usize) -> usize {
        u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes")) as usize
    }

    /// Adds one to the `u64` length prefix at `at` and inserts `entry` at
    /// `end`, where its list ends.
    fn push_entry(body: &mut Vec<u8>, at: usize, end: usize, entry: &[u8]) {
        let len = kernel_list_len(body, at) as u64;
        body[at..at + 8].copy_from_slice(&(len + 1).to_le_bytes());
        body.splice(end..end, entry.iter().copied());
    }

    fn assert_refused(resumed: Result<RunResult, SnapError>, what: &str, tag: u64) {
        match resumed {
            Err(SnapError::BadTag { what: got, tag: t }) if (got, t) == (what, tag) => {}
            Err(other) => panic!("expected BadTag {{ {what}, {tag} }}, got {other:?}"),
            Ok(_) => panic!("expected BadTag {{ {what}, {tag} }}, resumed"),
        }
    }

    #[test]
    fn a_forged_event_exec_slot_is_refused_on_resume() {
        let resumed = resume_forged_kernel(|body, k| put_u32_at(body, k.event_slots[0], FAR));
        assert_refused(resumed, "Engine exec slot", FAR.into());
    }

    #[test]
    fn a_forged_acquire_done_resource_is_refused_on_resume() {
        let resumed = resume_forged_kernel(|body, k| put_u32_at(body, k.done_resources[0], FAR));
        assert_refused(resumed, "Engine resource", FAR.into());
    }

    #[test]
    fn a_forged_waiting_exec_slot_is_refused_on_resume() {
        let resumed = resume_forged_kernel(|body, k| put_u32_at(body, k.waiting_slots[0], FAR));
        assert_refused(resumed, "Engine exec slot", FAR.into());
    }

    #[test]
    fn a_forged_ready_exec_slot_is_refused_on_resume() {
        let far = [FAR.to_le_bytes(), 0u32.to_le_bytes()].concat();
        let resumed = resume_forged_kernel(|body, k| {
            let end = k.ready + 8 + 8 * kernel_list_len(body, k.ready);
            push_entry(body, k.ready, end, &far);
        });
        assert_refused(resumed, "Engine exec slot", FAR.into());
    }

    #[test]
    fn a_forged_parent_exec_slot_is_refused_on_resume() {
        let resumed = resume_forged_kernel(|body, k| {
            for &at in &k.parent_slots {
                put_u32_at(body, at, FAR);
            }
        });
        assert_refused(resumed, "Engine exec slot", FAR.into());
    }

    #[test]
    fn a_forged_free_exec_slot_is_refused_on_resume() {
        let resumed = resume_forged_kernel(|body, k| {
            push_entry(body, k.free_list, k.ready, &FAR.to_le_bytes())
        });
        assert_refused(resumed, "Engine exec slot", FAR.into());
    }

    #[test]
    fn a_forged_plan_resource_is_refused_on_resume() {
        let resumed = resume_forged_kernel(|body, k| {
            for &at in &k.plan_resources {
                put_u32_at(body, at, FAR);
            }
        });
        assert_refused(resumed, "Engine resource", FAR.into());
    }

    /// A client slot's plan handle past the exec table is refused on
    /// resume, not left for the `Engine::cancel` of the slot's next
    /// completion to index by.
    #[test]
    fn a_forged_client_plan_handle_is_refused_on_resume() {
        let config = forged_run_config();
        let far = [FAR.to_le_bytes(), 0u32.to_le_bytes()].concat();
        let far: PlanHandle = SnapReader::new(&far).get().expect("a handle's bytes");
        let resumed = forge_driver(&config, |d| {
            for slot in &mut d.slots {
                slot.trigger = Some(far);
            }
        });
        assert_refused(resumed, "Engine exec slot", FAR.into());
    }

    /// A client slot's breaker target past the restored breaker table is
    /// refused on resume, not left for the slot's next completion to
    /// index the table by.
    #[test]
    fn a_forged_client_slot_target_is_refused_on_resume() {
        let mut config = forged_run_config();
        config.resilience = Some(ResiliencePolicy {
            breaker: Some(crate::resilience::BreakerPolicy::standard()),
            ..ResiliencePolicy::default()
        });
        let resumed = forge_driver(&config, |d| {
            for slot in &mut d.slots {
                slot.target = Some(1 << 20);
            }
        });
        assert_refused(resumed, "client slot target", 1 << 20);
    }

    /// A telemetry baseline above its resource's restored service time is
    /// refused on resume, not subtracted from it at the next boundary.
    #[test]
    fn a_forged_telemetry_baseline_is_refused_on_resume() {
        let mut config = forged_run_config();
        config.telemetry_window_secs = Some(0.1);
        let resumed = forge_driver(&config, |d| {
            let sampler = d.sampler.as_mut().expect("telemetry is on");
            sampler.prev_busy.fill(u128::MAX);
        });
        assert_refused(resumed, "telemetry busy baseline", 0);
    }

    /// A breaker as a checkpoint can spell it: closed, `outcomes` in its
    /// window (`true` an error) and `errors` claimed among them.
    fn forged_breaker(outcomes: &[bool], errors: usize) -> Breaker {
        let mut w = SnapWriter::new();
        w.put(&BreakerState::Closed);
        w.put(&outcomes.to_vec());
        w.put(&errors);
        w.put(&SimTime::ZERO);
        w.put(&false);
        SnapReader::new(w.bytes()).get().expect("a breaker's bytes")
    }

    /// A breaker window `on_outcome` cannot have left — fewer errors
    /// claimed than it holds, or more outcomes than the window — is
    /// refused on resume, not counted down past zero as errors leave it.
    #[test]
    fn a_forged_breaker_window_is_refused_on_resume() {
        let mut config = forged_run_config();
        config.resilience = Some(ResiliencePolicy {
            breaker: Some(BreakerPolicy::standard()),
            ..ResiliencePolicy::default()
        });
        let full = [true; crate::resilience::BREAKER_WINDOW];
        let long = [false; crate::resilience::BREAKER_WINDOW + 1];
        for (outcomes, errors) in [(&full[..], 0), (&full[..], 19), (&long[..], 0)] {
            let resumed = forge_driver(&config, |d| {
                d.ps.breakers.fill(forged_breaker(outcomes, errors));
            });
            assert_refused(resumed, "breaker window", 0);
        }
    }

    /// An admission bucket holding more credit than its cap, or a cap or
    /// ratio its policy does not give, is refused on resume, not credited
    /// past `u64::MAX`.
    #[test]
    fn a_forged_admission_budget_is_refused_on_resume() {
        let mut config = forged_run_config();
        config.resilience = Some(ResiliencePolicy {
            admission: Some(AdmissionPolicy::standard()),
            ..ResiliencePolicy::default()
        });
        // The standard policy's bucket: a cap of 10 attempts, a tenth of
        // one a primary, in micro-attempts.
        let (cap, ratio) = (10_000_000u64, 100_000u64);
        for (credit, cap, ratio) in [
            (u64::MAX, cap, ratio),
            (cap + 1, cap, ratio),
            (cap, cap + 1, ratio),
            (cap, cap, ratio + 1),
        ] {
            let resumed = forge_driver(&config, |d| {
                let bytes = [credit, cap, ratio].map(u64::to_le_bytes).concat();
                d.ps.budget = Some(SnapReader::new(&bytes).get().expect("a bucket's bytes"));
            });
            assert_refused(resumed, "admission budget", credit / 1_000_000);
        }
        // A bucket in a run with no admission policy is not this run's.
        let resumed = forge_driver(&forged_run_config(), |d| {
            d.ps.budget = Some(AdmissionBudget::new(&AdmissionPolicy::standard()));
        });
        assert_refused(resumed, "admission budget", 10);
    }

    /// Sets the byte at `at` of a driver section, an insert's tag, to 3:
    /// an update's, a kind no workload issues, which neither `Operation`
    /// nor `OpKind` has.
    fn update_tag(section: &mut [u8], at: usize) {
        assert_eq!(section[at], 2, "an insert's tag");
        section[at] = 3;
    }

    /// A client slot's op with tag 3 is a typed refusal on resume.
    #[test]
    fn a_forged_update_op_is_refused_on_resume() {
        let resumed = forge_driver_bytes(
            &forged_run_config(),
            |d| {
                d.slots[0].op = Operation::Insert {
                    row: Row::Generated(5),
                };
                // Slot 0's op follows the generator and the slots' count.
                let mut w = SnapWriter::new();
                d.generator.snap_state(&mut w);
                w.len() + 8
            },
            update_tag,
        );
        assert_refused(resumed, "Operation", 3);
    }

    /// A statistics map keyed by `OpKind` tag 3 is a typed refusal on
    /// resume.
    #[test]
    fn a_forged_update_stats_kind_is_refused_on_resume() {
        let resumed = forge_driver_bytes(
            &forged_run_config(),
            |d| {
                d.stats = BenchStats::new();
                d.stats.record(OpKind::Insert, 1_000);
                // The latency map's first key follows the generator, the
                // slots and the map's count.
                let mut w = SnapWriter::new();
                d.generator.snap_state(&mut w);
                w.put(&d.slots);
                w.len() + 8
            },
            update_tag,
        );
        assert_refused(resumed, "OpKind", 3);
    }

    /// A checkpoint resumes only into an engine that registered the
    /// resources its run had: one more is a typed refusal, not a misread.
    #[test]
    fn a_checkpoint_is_refused_by_an_engine_of_another_resource_count() {
        let config = forged_run_config();
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let run = run_benchmark(&mut engine, &mut store, &config);
        let count = engine.resource_count() as u64;
        let resume = |spare: bool| {
            let mut engine = Engine::new();
            if spare {
                engine.add_resource("spare", 1);
            }
            let mut store = FixtureStore::new(&mut engine, 100);
            resume_benchmark(&mut engine, &mut store, &config, &run.checkpoints[0].bytes)
        };
        assert!(resume(false).is_ok());
        assert_refused(resume(true), "Engine resource count", count);
    }

    /// A telemetry boundary index read from a checkpoint may be any `u64`;
    /// one too far out is a boundary that never comes, not an overflow in
    /// `boundary_time` (or, wrapped, one already past).
    #[test]
    fn a_forged_telemetry_boundary_resumes() {
        let mut config = forged_run_config();
        config.telemetry_window_secs = Some(0.1);
        for boundary in [1 << 63, u64::MAX] {
            let resumed = forge_driver(&config, |d| {
                d.sampler.as_mut().expect("telemetry is on").boundary = boundary;
            });
            assert!(resumed.is_ok(), "{boundary:#x}: {:?}", resumed.err());
        }
    }

    /// Likewise the index of the next checkpoint: `u32::MAX` of them 5 s
    /// apart lie beyond `u64` nanoseconds, so none is due.
    #[test]
    fn a_forged_checkpoint_counter_resumes() {
        let mut config = forged_run_config();
        config.client = ClientConfig::cluster_m(4).with_window(0.2, 5.4);
        config.checkpoints = Some(CheckpointSpec::every(5.0));
        let resumed = forge_driver(&config, |d| d.next_checkpoint = u32::MAX);
        assert!(
            resumed.as_ref().is_ok_and(|r| r.checkpoints.is_empty()),
            "{:?}",
            resumed.err()
        );
    }

    fn quick_config(workload: Workload) -> RunConfig {
        RunConfig::new(
            workload,
            ClientConfig::cluster_m(1).with_window(0.5, 2.0),
            1_000,
            1,
            42,
        )
    }

    #[test]
    fn new_config_carries_its_arguments_and_the_six_defaults() {
        let client = ClientConfig::cluster_d(3).with_window(0.25, 1.5);
        let c = RunConfig::new(Workload::rsw(), client.clone(), 1_234, 3, 99);
        assert_eq!(c.workload, Workload::rsw());
        assert_eq!(c.client, client);
        assert_eq!((c.records_per_node, c.nodes, c.seed), (1_234, 3, 99));
        assert_eq!(c.event_at_secs, None);
        assert_eq!(c.faults, FaultSchedule::none());
        assert_eq!(c.op_deadline, None);
        assert_eq!(c.telemetry_window_secs, None);
        assert_eq!(c.resilience, None);
        assert!(c.checkpoints.is_none());
        // The fingerprint hashes `Debug`, so a field that `new` forgot
        // (or a seventh default) shows up here.
        let debug = format!("{c:?}");
        assert!(
            debug.ends_with(
                "event_at_secs: None, faults: FaultSchedule { events: [] }, op_deadline: None, \
                 telemetry_window_secs: None, resilience: None, checkpoints: None }"
            ),
            "{debug}"
        );
    }

    #[test]
    fn max_throughput_run_saturates_the_cpu_pool() {
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let result = run_benchmark(&mut engine, &mut store, &quick_config(Workload::r()));
        // 8 cores at 100us/op → theoretical 80K ops/s; expect >60% of it.
        let throughput = result.throughput();
        assert!(throughput > 48_000.0, "throughput too low: {throughput}");
        assert!(
            throughput < 85_000.0,
            "throughput above physical limit: {throughput}"
        );
        // Closed loop, 128 conns: latency ≈ conns/throughput (Little's law).
        let little = 128.0 / throughput * 1_000.0;
        let read_ms = result
            .mean_latency_ms(OpKind::Read)
            .expect("reads measured");
        assert!(
            (read_ms - little).abs() / little < 0.35,
            "read {read_ms} ms vs little {little} ms"
        );
    }

    #[test]
    fn bounded_throughput_tracks_target_and_lowers_latency() {
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let max = run_benchmark(&mut engine, &mut store, &quick_config(Workload::r()));
        let max_lat = max.mean_latency_ms(OpKind::Read).unwrap();

        let mut engine2 = Engine::new();
        let mut store2 = FixtureStore::new(&mut engine2, 100);
        let mut cfg = quick_config(Workload::r());
        let target = max.throughput() * 0.5;
        cfg.client = cfg.client.with_throttle(Throttle::TargetOps(target));
        let half = run_benchmark(&mut engine2, &mut store2, &cfg);
        assert!(
            (half.throughput() - target).abs() / target < 0.1,
            "bounded run off target: {} vs {}",
            half.throughput(),
            target
        );
        let half_lat = half.mean_latency_ms(OpKind::Read).unwrap();
        assert!(
            half_lat < max_lat / 2.0,
            "uncongested latency should collapse: {half_lat} vs {max_lat}"
        );
    }

    #[test]
    fn workload_mix_is_respected_in_measured_ops() {
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 50);
        let result = run_benchmark(&mut engine, &mut store, &quick_config(Workload::rw()));
        let reads = result.stats.ops(OpKind::Read) as f64;
        let inserts = result.stats.ops(OpKind::Insert) as f64;
        let ratio = reads / (reads + inserts);
        assert!(
            (ratio - 0.5).abs() < 0.05,
            "RW should be half reads: {ratio}"
        );
    }

    #[test]
    fn run_is_deterministic() {
        let run = || {
            let mut engine = Engine::new();
            let mut store = FixtureStore::new(&mut engine, 100);
            let r = run_benchmark(&mut engine, &mut store, &quick_config(Workload::rw()));
            (r.stats.total_ops(), r.issued)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_window_shows_up_as_errors_then_recovery() {
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let mut cfg = quick_config(Workload::r());
        // Crash the only node 0.4 s into the 2 s window, restart at 0.9 s
        // (failure tails complete within the same one-second bucket).
        cfg.faults = FaultSchedule::none().crash(0, SimTime(400_000_000), SimTime(900_000_000));
        let result = run_benchmark(&mut engine, &mut store, &cfg);
        assert!(result.stats.total_errors() > 0, "crash produced no errors");
        assert!(result.stats.availability() < 1.0);
        assert!(
            result.stats.availability() > 0.2,
            "errors are cheap; most ops still land"
        );
        // The post-restart second throughputs like the pre-fault one.
        let timeline = result.stats.timeline();
        assert!(timeline.len() >= 2);
        let last = *timeline.last().unwrap() as f64;
        assert!(last > 0.6 * timeline[0] as f64, "no recovery: {timeline:?}");
        // Errors concentrate in the crash window (second 0 of the
        // timeline covers 0-1 s, where the whole outage and its 500 us
        // completion tail sit).
        let errors = result.stats.error_timeline();
        assert!(errors[0] > 0, "outage second shows no errors: {errors:?}");
        assert!(
            errors.iter().skip(1).all(|&e| e == 0),
            "errors after restart: {errors:?}"
        );
    }

    #[test]
    fn runs_are_deterministic_under_faults() {
        let run = || {
            let mut engine = Engine::new();
            let mut store = FixtureStore::new(&mut engine, 100);
            let mut cfg = quick_config(Workload::rw());
            cfg.faults = FaultSchedule::none()
                .crash(0, SimTime(300_000_000), SimTime(700_000_000))
                .slow_disk(0, SimTime(1_000_000_000), SimTime(1_500_000_000), 4);
            cfg.op_deadline = Some(SimDuration::from_millis(250));
            let r = run_benchmark(&mut engine, &mut store, &cfg);
            (
                r.stats.total_ops(),
                r.stats.total_errors(),
                r.issued,
                r.stats.timeline().to_vec(),
                r.stats.error_timeline().to_vec(),
            )
        };
        // Same seed + same fault schedule ⇒ byte-identical sequences,
        // asserted twice to catch flaky hidden state.
        let (a, b, c) = (run(), run(), run());
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn server_resource_class_splits_servers_from_clients() {
        assert_eq!(server_resource_class("node3.cpu"), Some("cpu"));
        assert_eq!(server_resource_class("node0.disk"), Some("disk"));
        assert_eq!(server_resource_class("node11.nic"), Some("net"));
        assert_eq!(server_resource_class("client0.cpu"), None);
        assert_eq!(server_resource_class("client4.nic"), None);
        assert_eq!(server_resource_class("coordinator"), None);
        // Software serialisation stages count as server compute.
        assert_eq!(server_resource_class("redis2.eventloop"), Some("cpu"));
        assert_eq!(server_resource_class("mongod0.writelock"), Some("cpu"));
        assert_eq!(server_resource_class("datanode1.xceiver"), Some("cpu"));
        assert_eq!(server_resource_class("voltdb.site3"), Some("cpu"));
        assert_eq!(server_resource_class("voltdb.initiator"), Some("cpu"));
    }

    #[test]
    fn telemetry_records_windows_with_consistent_quantiles() {
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let mut cfg = quick_config(Workload::r());
        cfg.telemetry_window_secs = Some(0.5);
        let result = run_benchmark(&mut engine, &mut store, &cfg);
        let telemetry = result.telemetry.expect("telemetry requested");
        // 2 s measurement window at 0.5 s per window → 4 full windows.
        assert_eq!(telemetry.windows().len(), 4);
        let total: u64 = telemetry.windows().iter().map(|w| w.ops()).sum();
        assert_eq!(total, result.stats.total_ops(), "every measured op lands");
        for w in telemetry.windows() {
            assert!(w.ops() > 0, "saturated loop fills every window");
            assert!(w.quantile_latency_ms(0.99) >= w.quantile_latency_ms(0.95));
            assert!(w.quantile_latency_ms(0.95) >= w.quantile_latency_ms(0.50));
            let cpu = w.resource("cpu").expect("server cpu sampled");
            assert!(
                cpu.utilization > 0.5 && cpu.utilization < 1.2,
                "cpu-bound fixture should saturate: {}",
                cpu.utilization
            );
            assert!(cpu.queue_depth >= 0.0);
        }
        // The fixture plan touches no server disk: zero utilisation.
        let disk = telemetry.windows()[0].resource("disk").expect("sampled");
        assert_eq!(disk.utilization, 0.0);
    }

    #[test]
    fn telemetry_is_deterministic_and_off_by_default() {
        let run = || {
            let mut engine = Engine::new();
            let mut store = FixtureStore::new(&mut engine, 100);
            let mut cfg = quick_config(Workload::rw());
            cfg.telemetry_window_secs = Some(0.5);
            let r = run_benchmark(&mut engine, &mut store, &cfg);
            let t = r.telemetry.unwrap();
            let shape: Vec<(u64, u64, u64)> = t
                .windows()
                .iter()
                .map(|w| (w.ops(), w.errors(), w.latency().max()))
                .collect();
            let utils: Vec<u64> = t
                .windows()
                .iter()
                .map(|w| w.resource("cpu").unwrap().utilization.to_bits())
                .collect();
            (shape, utils)
        };
        assert_eq!(run(), run());

        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let r = run_benchmark(&mut engine, &mut store, &quick_config(Workload::r()));
        assert!(r.telemetry.is_none(), "telemetry must be opt-in");
    }

    #[test]
    fn reads_never_miss() {
        // The generator only reads acked records; a miss means the driver
        // acked too early or the store lost data.
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 20);
        let result = run_benchmark(&mut engine, &mut store, &quick_config(Workload::rw()));
        assert_eq!(result.stats.total_rejected(), 0);
        // Missing reads would have been recorded as rejections via
        // OpOutcome::Missing only if the fixture returned them — assert
        // the fixture found every key by checking ok-flags stayed true.
        assert!(result.stats.ops(OpKind::Read) > 0);
    }

    use crate::resilience::{AdmissionPolicy, BreakerPolicy, HedgePolicy, RetryPolicy};

    /// RW under a crash window and a client deadline, every policy
    /// component on.
    fn faulty_config_with_every_policy() -> RunConfig {
        let mut cfg = quick_config(Workload::rw());
        cfg.faults = FaultSchedule::none().crash(0, SimTime(300_000_000), SimTime(700_000_000));
        cfg.op_deadline = Some(SimDuration::from_millis(250));
        cfg.resilience = Some(ResiliencePolicy {
            retry: Some(RetryPolicy::standard()),
            hedge: Some(HedgePolicy {
                min_delay: SimDuration::from_micros(500),
                warmup_samples: 50,
            }),
            breaker: Some(BreakerPolicy::standard()),
            admission: Some(AdmissionPolicy::standard()),
        });
        cfg
    }

    #[test]
    fn none_is_the_empty_resilience_policy() {
        let run = |resilience: Option<ResiliencePolicy>| {
            let mut engine = Engine::new();
            let mut store = FixtureStore::new(&mut engine, 100);
            let mut cfg = quick_config(Workload::rw());
            cfg.faults = FaultSchedule::none().crash(0, SimTime(400_000_000), SimTime(900_000_000));
            cfg.op_deadline = Some(SimDuration::from_millis(50));
            cfg.telemetry_window_secs = Some(0.5);
            cfg.checkpoints = Some(CheckpointSpec::every(0.5));
            cfg.resilience = resilience;
            let r = run_benchmark(&mut engine, &mut store, &cfg);
            assert!(r.stats.total_errors() > 0 && r.checkpoints.len() >= 3);
            let mut w = SnapWriter::new();
            w.put(&r.ledger);
            let states: Vec<u64> = r
                .checkpoints
                .iter()
                .map(|cp| cp.state_hash().expect("own checkpoint opens"))
                .collect();
            (result_sig(&r), w.into_bytes(), states)
        };
        // `None` and a bundle with every component disabled are one
        // configuration of one loop: same reported bytes, same state at
        // every checkpoint (headers differ — the fingerprint hashes the
        // config's `Debug` form — which is why bodies are compared).
        assert_eq!(run(None), run(Some(ResiliencePolicy::default())));
    }

    /// Store, kernel and driver bytes of checkpoint 0 of a 3-connection
    /// run, restored under a config with `connections` connections.
    fn restore_driver_under(connections: u32) -> Result<usize, SnapError> {
        let mut cfg = quick_config(Workload::rw());
        cfg.client.connections = 3;
        cfg.checkpoints = Some(CheckpointSpec::every(0.5));
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let run = run_benchmark(&mut engine, &mut store, &cfg);
        let (_, body) = snap::open(&run.checkpoints[0].bytes).expect("own checkpoint opens");

        cfg.client.connections = connections;
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let mut r = SnapReader::new(body);
        store.restore_state(&mut r, &mut engine)?;
        engine.restore_state(&mut r)?;
        Driver::resume(&cfg, &store, &engine, &mut r).map(|d| d.slots.len())
    }

    #[test]
    fn restore_rejects_a_slot_vector_of_the_wrong_length() {
        assert_eq!(restore_driver_under(3).expect("same population"), 3);
        match restore_driver_under(4) {
            Err(SnapError::BadTag {
                what: "client slot count",
                tag: 3,
            }) => {}
            other => panic!("expected a slot-count BadTag, got {other:?}"),
        }
    }

    /// An attempt token holds its client in 20 bits: client `2^20 + k`
    /// would complete as slot `k`'s. Both entries refuse such a
    /// population before they build a slot.
    #[test]
    fn restore_refuses_a_population_no_token_addresses() {
        match restore_driver_under(MAX_CLIENTS + 1) {
            Err(SnapError::BadTag {
                what: "client population",
                tag,
            }) => assert_eq!(tag, u64::from(MAX_CLIENTS) + 1),
            other => panic!("expected a population BadTag, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "1048577 connections: an attempt token addresses 1048576")]
    fn a_fresh_run_refuses_a_population_no_token_addresses() {
        let mut cfg = quick_config(Workload::rw());
        cfg.client.connections = MAX_CLIENTS + 1;
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        run_benchmark(&mut engine, &mut store, &cfg);
    }

    /// Runs `cfg` without a stray token, then once with each of `tokens`
    /// completing at 0.9 s, inside the measurement window, though nothing
    /// issued it (only a forged or re-sealed snapshot can hold such a
    /// token): a stray must change nothing the run reports.
    fn assert_stray_tokens_are_ignored(
        make: impl Fn(&mut Engine) -> Box<dyn DistributedStore>,
        cfg: &RunConfig,
        tokens: &[Token],
    ) {
        let run = |stray: Option<Token>| {
            let mut engine = Engine::new();
            let mut store = make(&mut engine);
            if let Some(token) = stray {
                engine.submit_at(SimTime(900_000_000), Plan::empty(), token);
            }
            run_benchmark(&mut engine, store.as_mut(), cfg)
        };
        let clean = run(None);
        for &token in tokens {
            let stray = run(Some(token));
            assert_eq!(result_sig(&stray), result_sig(&clean), "{token:?}");
            assert_eq!(stray.ledger, clean.ledger, "{token:?}");
        }
    }

    fn fixture(engine: &mut Engine) -> Box<dyn DistributedStore> {
        Box::new(FixtureStore::new(engine, 100))
    }

    #[test]
    fn a_fault_sentinel_beyond_the_schedule_is_ignored() {
        // Indexes a schedule with no events.
        let stray = Tag::Fault(7).token();
        assert_stray_tokens_are_ignored(fixture, &quick_config(Workload::rw()), &[stray]);
    }

    #[test]
    fn an_attempt_token_naming_no_client_slot_is_ignored() {
        let cfg = quick_config(Workload::rw());
        let stray = Tag::Attempt(999_999, 1, AttemptKind::Primary).token();
        assert_stray_tokens_are_ignored(fixture, &cfg, &[stray]);
    }

    /// A background token is the store's word for what its completion
    /// does: one naming a node past the count, a tree job no node has in
    /// flight, or the recovery of a server past the count completes
    /// nothing — and a store with no job to complete ignores any.
    #[test]
    fn a_background_token_naming_no_job_is_ignored() {
        let cfg = RunConfig::new(
            Workload::rw(),
            ClientConfig::cluster_m(4).with_window(0.5, 1.0),
            5_000,
            4,
            9,
        );
        let strays = [
            BackgroundWork::TreeJob(1 << 19, 1).token(),
            BackgroundWork::TreeJob(0, 1 << 39).token(),
            BackgroundWork::Recovery(1 << 19).token(),
            Tag::Background(3 << 20).token(),
        ];
        for name in ["cassandra", "hbase", "voldemort"] {
            let make = |engine: &mut Engine| store_named(name, engine, ClusterSpec::cluster_m());
            assert_stray_tokens_are_ignored(make, &cfg, &strays);
        }
    }

    #[test]
    fn retries_mask_a_crash_window() {
        let run = |retry: Option<RetryPolicy>| {
            let mut engine = Engine::new();
            let mut store = FixtureStore::new(&mut engine, 100);
            let mut cfg = quick_config(Workload::r());
            cfg.faults = FaultSchedule::none().crash(0, SimTime(400_000_000), SimTime(900_000_000));
            cfg.resilience = Some(ResiliencePolicy {
                retry,
                ..ResiliencePolicy::default()
            });
            run_benchmark(&mut engine, &mut store, &cfg)
        };
        let bare = run(None);
        let retried = run(Some(RetryPolicy::standard()));
        assert!(bare.stats.total_errors() > 0, "crash produced no errors");
        assert_eq!(bare.stats.resilience().retries, 0);
        assert!(retried.stats.resilience().retries > 0);
        assert!(
            retried.stats.availability() > bare.stats.availability(),
            "retries did not improve availability: {} vs {}",
            retried.stats.availability(),
            bare.stats.availability()
        );
    }

    #[test]
    fn hedged_reads_fire_and_never_double_count() {
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        store.hedged = true;
        let mut cfg = quick_config(Workload::r());
        cfg.resilience = Some(ResiliencePolicy {
            hedge: Some(HedgePolicy {
                min_delay: SimDuration::ZERO,
                warmup_samples: u64::MAX, // pin the delay to the floor
            }),
            ..ResiliencePolicy::default()
        });
        let r = run_benchmark(&mut engine, &mut store, &cfg);
        let counters = *r.stats.resilience();
        assert!(counters.hedges > 0, "no hedges launched");
        assert!(counters.hedge_wins <= counters.hedges);
        // Every logical op resolves exactly once: the measured records
        // can never exceed the logical ops issued, even though every read
        // ran as two racing attempts.
        let logical = r.issued - counters.hedges - counters.retries;
        let recorded = r.stats.total_ops() + r.stats.total_errors() + r.stats.total_rejected();
        assert!(
            recorded <= logical,
            "double-counted completions: {recorded} records for {logical} logical ops"
        );
    }

    #[test]
    fn breaker_sheds_during_an_outage_and_recovers() {
        let run = |breaker: Option<BreakerPolicy>| {
            let mut engine = Engine::new();
            let mut store = FixtureStore::new(&mut engine, 100);
            let mut cfg = quick_config(Workload::r());
            // Throttle so shed fast-fails don't spin the closed loop.
            cfg.client = cfg.client.with_throttle(Throttle::TargetOps(5_000.0));
            cfg.faults =
                FaultSchedule::none().crash(0, SimTime(300_000_000), SimTime(1_200_000_000));
            cfg.resilience = Some(ResiliencePolicy {
                breaker,
                ..ResiliencePolicy::default()
            });
            run_benchmark(&mut engine, &mut store, &cfg)
        };
        let bare = run(None);
        let broken = run(Some(BreakerPolicy {
            open_for: SimDuration::from_millis(200),
        }));
        let counters = *broken.stats.resilience();
        assert!(counters.shed > 0, "breaker never shed");
        assert!(
            counters.breaker_transitions >= 2,
            "expected a full open/close cycle, saw {} transitions",
            counters.breaker_transitions
        );
        // Shedding turns would-be errors into fast client-side
        // rejections, so the error count drops against the bare run.
        assert!(
            broken.stats.total_errors() < bare.stats.total_errors(),
            "breaker did not bound errors: {} vs {}",
            broken.stats.total_errors(),
            bare.stats.total_errors()
        );
        assert!(broken.stats.total_rejected() > 0);
    }

    #[test]
    fn admission_control_bounds_a_retry_storm() {
        let run = |admission: Option<AdmissionPolicy>| {
            let mut engine = Engine::new();
            let mut store = FixtureStore::new(&mut engine, 100);
            let mut cfg = quick_config(Workload::r());
            cfg.faults =
                FaultSchedule::none().crash(0, SimTime(300_000_000), SimTime(1_200_000_000));
            cfg.resilience = Some(ResiliencePolicy {
                retry: Some(RetryPolicy {
                    // An aggressive client: many cheap retries.
                    max_retries: 8,
                    base_backoff: SimDuration::from_millis(1),
                    backoff_cap: SimDuration::from_millis(4),
                    jitter: 0.0,
                }),
                admission,
                ..ResiliencePolicy::default()
            });
            run_benchmark(&mut engine, &mut store, &cfg)
        };
        let unbounded = run(None);
        let budgeted = run(Some(AdmissionPolicy {
            retry_ratio: 0.05,
            burst: 5,
        }));
        assert!(
            budgeted.stats.resilience().retries < unbounded.stats.resilience().retries,
            "admission control did not bound the storm: {} vs {}",
            budgeted.stats.resilience().retries,
            unbounded.stats.resilience().retries
        );
        assert!(
            budgeted.stats.resilience().shed > 0,
            "no retries were shed by the admission budget"
        );
    }

    /// Everything a run reports, snap-encoded — byte equality of two
    /// sigs means the runs were observationally identical.
    fn result_sig(r: &RunResult) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put(&r.stats);
        w.put_u64(r.issued);
        w.put(&r.disk_bytes_per_node);
        w.put(&r.telemetry);
        w.into_bytes()
    }

    /// A node joining mid-run registers its resources after the telemetry
    /// sampler was sized: the next boundary samples them from a zero
    /// baseline rather than indexing past the sampler's end.
    #[test]
    fn telemetry_samples_a_node_that_joins_mid_run() {
        let mut cfg = RunConfig::new(
            Workload::rw(),
            ClientConfig::cluster_m(4).with_window(0.5, 1.5),
            5_000,
            4,
            0xD21F,
        );
        cfg.event_at_secs = Some(0.5);
        cfg.telemetry_window_secs = Some(0.25);
        let mut engine = Engine::new();
        let mut store = store_named("cassandra", &mut engine, ClusterSpec::cluster_m());
        let before = engine.resource_count();
        let result = run_benchmark(&mut engine, store.as_mut(), &cfg);
        assert_eq!(engine.resource_count(), before + 3, "a node joined");
        let telemetry = result.telemetry.expect("telemetry on");
        assert_eq!(telemetry.windows().len(), 6);
        assert!(telemetry.windows().iter().all(|w| w
            .resource("cpu")
            .is_some_and(|cpu| cpu.utilization.is_finite())));
    }

    #[test]
    fn checkpoints_are_captured_on_schedule() {
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let mut cfg = quick_config(Workload::rw());
        cfg.telemetry_window_secs = Some(0.5);
        cfg.checkpoints = Some(CheckpointSpec::every(0.5));
        let result = run_benchmark(&mut engine, &mut store, &cfg);
        // Warm-up 0.5 s + 2 s window at 0.5 s cadence: boundaries at
        // 1.0/1.5/2.0/2.5 s; the last coincides with the window end and
        // only lands if a completion hits it exactly.
        assert!(
            result.checkpoints.len() == 3 || result.checkpoints.len() == 4,
            "unexpected checkpoint count: {}",
            result.checkpoints.len()
        );
        for (i, cp) in result.checkpoints.iter().enumerate() {
            assert_eq!(cp.index, i as u32);
            let header = cp.header().expect("own checkpoint opens");
            assert_eq!(header.scenario, "fixture");
            assert_eq!(header.checkpoint_index, cp.index);
            assert_eq!(header.virtual_time_ns, cp.at.0);
            assert_eq!(
                header.config_fingerprint,
                config_fingerprint("fixture", &cfg)
            );
            if i > 0 {
                assert!(cp.at > result.checkpoints[i - 1].at);
            }
        }
    }

    #[test]
    fn resume_from_every_checkpoint_is_byte_identical() {
        let mut cfg = quick_config(Workload::rw());
        cfg.telemetry_window_secs = Some(0.5);
        cfg.checkpoints = Some(CheckpointSpec::every(0.5));
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let straight = run_benchmark(&mut engine, &mut store, &cfg);
        assert!(straight.checkpoints.len() >= 3);
        assert_eq!(store.loads, 1_000, "a run loads every record once");
        for cp in &straight.checkpoints {
            let mut engine2 = Engine::new();
            let mut store2 = FixtureStore::new(&mut engine2, 100);
            let resumed = resume_benchmark(&mut engine2, &mut store2, &cfg, &cp.bytes)
                .expect("resume succeeds");
            // The snapshot is the loaded state: a resume restores into a
            // store that was constructed and nothing more.
            assert_eq!(store2.loads, 0, "a resume must not reload");
            assert_eq!(
                result_sig(&resumed),
                result_sig(&straight),
                "resume from checkpoint {} drifted",
                cp.index
            );
            // The continuation recaptures the straight run's later
            // checkpoints byte-for-byte, containers included.
            let later: Vec<&Checkpoint> = straight
                .checkpoints
                .iter()
                .filter(|later| later.index > cp.index)
                .collect();
            assert_eq!(resumed.checkpoints.len(), later.len());
            for (a, b) in resumed.checkpoints.iter().zip(later) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.bytes, b.bytes, "checkpoint {} not re-captured", b.index);
            }
        }
    }

    #[test]
    fn resilient_resume_is_byte_identical() {
        let mut cfg = faulty_config_with_every_policy();
        cfg.checkpoints = Some(CheckpointSpec::every(0.5));
        let build = || {
            let mut engine = Engine::new();
            let mut store = FixtureStore::new(&mut engine, 100);
            store.hedged = true;
            (engine, store)
        };
        let (mut engine, mut store) = build();
        let straight = run_benchmark(&mut engine, &mut store, &cfg);
        assert!(!straight.checkpoints.is_empty());
        for cp in &straight.checkpoints {
            let (mut engine2, mut store2) = build();
            let resumed = resume_benchmark(&mut engine2, &mut store2, &cfg, &cp.bytes)
                .expect("resume succeeds");
            assert_eq!(
                result_sig(&resumed),
                result_sig(&straight),
                "resilient resume from checkpoint {} drifted",
                cp.index
            );
            assert_eq!(resumed.stats.resilience(), straight.stats.resilience());
        }
    }

    /// A checkpoint holds no tracer: a traced `Engine::new()` resumed
    /// from an untraced checkpoint keeps its own, records from the
    /// checkpoint's virtual time on, and reports — checkpoints included —
    /// what the untraced full run did.
    #[test]
    fn a_traced_engine_traces_on_from_an_untraced_checkpoint() {
        // Throttled, so that the ring keeps every event the resumed part
        // records; the crash window spans the checkpoint.
        let mut cfg = quick_config(Workload::rw());
        cfg.client = cfg.client.with_throttle(Throttle::TargetOps(2_000.0));
        cfg.faults = FaultSchedule::none().crash(0, SimTime(300_000_000), SimTime(700_000_000));
        cfg.checkpoints = Some(CheckpointSpec::every(0.5));
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let straight = run_benchmark(&mut engine, &mut store, &cfg);
        let cp = straight.checkpoints.first().expect("a checkpoint");

        let mut traced = Engine::new();
        traced.enable_trace();
        let mut store2 = FixtureStore::new(&mut traced, 100);
        let resumed =
            resume_benchmark(&mut traced, &mut store2, &cfg, &cp.bytes).expect("resume succeeds");
        let tracer = traced.tracer().expect("the engine keeps its tracer");
        let events = tracer.events();
        assert!(tracer.dropped() == 0 && events.len() as u64 == tracer.recorded());
        assert!(
            events.iter().all(|e| e.at >= cp.at),
            "an event before the checkpoint at {:?}",
            cp.at
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == apm_sim::TraceEventKind::ResourceRestored),
            "the restart after the checkpoint is traced"
        );
        assert_eq!(result_sig(&resumed), result_sig(&straight));
        let later: Vec<&[u8]> = straight.checkpoints[1..]
            .iter()
            .map(|c| c.bytes.as_slice())
            .collect();
        let recaptured: Vec<&[u8]> = resumed
            .checkpoints
            .iter()
            .map(|c| c.bytes.as_slice())
            .collect();
        assert_eq!(
            recaptured, later,
            "a traced engine checkpoints untraced bytes"
        );
    }

    #[test]
    fn resume_rejects_a_mismatched_config() {
        let mut cfg = quick_config(Workload::rw());
        cfg.checkpoints = Some(CheckpointSpec::every(0.5));
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let straight = run_benchmark(&mut engine, &mut store, &cfg);
        let cp = &straight.checkpoints[0];

        let mut other = cfg.clone();
        other.seed = 43;
        let mut engine2 = Engine::new();
        let mut store2 = FixtureStore::new(&mut engine2, 100);
        match resume_benchmark(&mut engine2, &mut store2, &other, &cp.bytes) {
            Err(SnapError::ConfigMismatch { .. }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }

        // A corrupted container never reaches the restore path.
        let mut bytes = cp.bytes.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let mut engine3 = Engine::new();
        let mut store3 = FixtureStore::new(&mut engine3, 100);
        match resume_benchmark(&mut engine3, &mut store3, &cfg, &bytes) {
            Err(SnapError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }

        // With the audit bit cleared, the header claims a body from a
        // build that predates the always-on auditors, whose store sections
        // lack them; with bit 1 set, one from an older traced engine,
        // whose kernel section ends in a ring. Either is refused before
        // any codec reads the body: the header's is the one feature byte.
        let (mut header, body) = snap::open(&cp.bytes).expect("own checkpoint opens");
        let active = Engine::snap_features();
        assert_eq!(header.features, active);
        for flip in [snap::FEATURE_AUDIT, 1 << 1] {
            header.features = active ^ flip;
            let resealed = snap::seal(&header, body);
            let mut engine4 = Engine::new();
            let mut store4 = FixtureStore::new(&mut engine4, 100);
            match resume_benchmark(&mut engine4, &mut store4, &cfg, &resealed) {
                Err(SnapError::FeatureMismatch { stored, active: a })
                    if stored == active ^ flip && a == active => {}
                other => panic!("expected FeatureMismatch, got {other:?}"),
            }
        }
    }

    /// The kernel auditor's counters and last pop, forged in a real
    /// checkpoint, are refused on restore — not left for the first pop or
    /// completion after it to panic on. Unforged, the same re-sealed body
    /// resumes.
    #[test]
    fn forged_kernel_auditor_is_refused_on_resume() {
        let make = |engine: &mut Engine| {
            let ctx = StoreCtx::new(engine, ClusterSpec::cluster_m(), 4, 2, 0.0005, 29);
            crate::voldemort::VoldemortStore::new(ctx, engine)
        };
        // Offset of the auditor's `fingerprint` in the body: found by
        // value, the fingerprint making the 24 bytes of its three counters
        // unique.
        let auditor_at = |body: &[u8], store_len: usize| {
            let mut engine = Engine::new();
            make(&mut engine);
            engine
                .restore_state(&mut SnapReader::new(&body[store_len..]))
                .expect("kernel section restores");
            let a = engine.auditor();
            let counters: Vec<u8> = [a.fingerprint(), a.issued(), a.completed()]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            let at = body.windows(24).position(|w| w == counters);
            assert_eq!(at, body.windows(24).rposition(|w| w == counters));
            (at.expect("auditor section found"), a.issued())
        };
        assert!(resume_forged(make, |_| {}, |_, _| {}).is_ok());
        let completed_past_issued = resume_forged(
            make,
            |_| {},
            |body, store_len| {
                let (at, issued) = auditor_at(body, store_len);
                body[at + 16..at + 24].copy_from_slice(&(issued + 1).to_le_bytes());
            },
        );
        let unissued_last_pop = resume_forged(
            make,
            |_| {},
            |body, store_len| {
                // `last_pop` is `Some((time, seq))` right before the
                // fingerprint.
                let (at, _) = auditor_at(body, store_len);
                body[at - 8..at].copy_from_slice(&u64::MAX.to_le_bytes());
            },
        );
        for (refused, what) in [
            (completed_past_issued, "KernelAuditor completions"),
            (unissued_last_pop, "KernelAuditor last pop"),
        ] {
            match refused {
                Err(SnapError::BadTag { what: got, .. }) if got == what => {}
                other => panic!("expected BadTag {{ {what} }}, got {other:?}"),
            }
        }
    }

    /// `name` built over four nodes of `cluster` at scale 0.0005, with the
    /// client fleet the harness gives it (Redis' is doubled, §5.1).
    fn store_named(
        name: &str,
        engine: &mut Engine,
        cluster: ClusterSpec,
    ) -> Box<dyn DistributedStore> {
        let clients = match name {
            "redis" => crate::redis::RedisStore::client_machines(4),
            _ => StoreCtx::standard_client_machines(4),
        };
        let ctx = StoreCtx::new(engine, cluster, 4, clients, 0.0005, 29);
        match name {
            "cassandra" => Box::new(crate::cassandra::CassandraStore::new(
                ctx,
                crate::cassandra::CassandraConfig::default(),
            )),
            "hbase" => Box::new(crate::hbase::HbaseStore::new(ctx, engine)),
            "voldemort" => Box::new(crate::voldemort::VoldemortStore::new(ctx, engine)),
            "voltdb" => Box::new(crate::voltdb::VoltDbStore::new(ctx, engine)),
            "redis" => Box::new(crate::redis::RedisStore::new(ctx, engine)),
            "mysql" => Box::new(crate::mysql::MysqlStore::new(ctx, engine)),
            "mongodb" => Box::new(crate::mongodb::MongoStore::new(ctx, engine)),
            other => panic!("no store called {other:?}"),
        }
    }

    /// Restores `cp` into a freshly constructed engine, store and driver,
    /// in [`resume_benchmark`]'s order, and seals that state again through
    /// [`capture_checkpoint`].
    fn recapture(name: &str, cluster: ClusterSpec, cfg: &RunConfig, cp: &Checkpoint) -> Vec<u8> {
        let mut engine = Engine::new();
        let mut store = store_named(name, &mut engine, cluster);
        let (header, body) = snap::open(&cp.bytes).expect("own checkpoint opens");
        let mut r = SnapReader::new(body);
        store
            .restore_state(&mut r, &mut engine)
            .expect("store restores");
        engine.restore_state(&mut r).expect("kernel restores");
        let d = Driver::resume(cfg, store.as_ref(), &engine, &mut r).expect("driver restores");
        r.finish().expect("nothing trails the driver");
        capture_checkpoint(&engine, store.as_ref(), cfg, &d, header.checkpoint_index, 0).bytes
    }

    #[test]
    fn a_restored_checkpoint_recaptures_byte_identically() {
        // Decode order is encode order: a decoder that reads two fields in
        // swapped order restores a state that re-encodes differently. Every
        // in-place codec pair is in one of these bodies — the stores' own,
        // their engines (LSM, B+tree, buffer pool, paged tree, hash store,
        // commit log, page cache), the kernel, and the driver with its
        // generator and key chooser.
        let mut resilient = RunConfig::new(
            Workload::rw(),
            ClientConfig::cluster_m(4).with_window(0.2, 0.8),
            5_000,
            4,
            0xD21F,
        );
        resilient.faults =
            FaultSchedule::none().crash(1, SimTime(200_000_000), SimTime(500_000_000));
        resilient.op_deadline = Some(SimDuration::from_millis(50));
        resilient.telemetry_window_secs = Some(0.2);
        resilient.checkpoints = Some(CheckpointSpec::every(0.2));
        resilient.resilience = Some(ResiliencePolicy {
            retry: Some(RetryPolicy::standard()),
            hedge: Some(HedgePolicy::standard()),
            breaker: Some(BreakerPolicy::standard()),
            admission: Some(AdmissionPolicy::standard()),
        });
        // The paged stores again on Cluster D, their trees 9–20× their
        // pools, so the body holds a frame table shaped by evictions.
        let thrashing = |workload: Workload| {
            let client = ClientConfig::cluster_d(4).with_window(0.5, 20.5);
            let mut cfg = RunConfig::new(workload, client, 40_000, 4, 0xD21F);
            cfg.checkpoints = Some(CheckpointSpec::every(20.0));
            cfg
        };
        let m = ClusterSpec::cluster_m();
        let d = ClusterSpec::cluster_d();
        let runs = [
            ("cassandra", m, resilient.clone()),
            ("hbase", m, resilient.clone()),
            ("voldemort", m, resilient.clone()),
            ("voltdb", m, resilient.clone()),
            ("redis", m, resilient.clone()),
            ("mysql", m, resilient.clone()),
            ("mongodb", m, resilient),
            ("mysql", d, thrashing(Workload::rsw())),
            ("mongodb", d, thrashing(Workload::rsw())),
            ("voldemort", d, thrashing(Workload::rw())),
        ];
        for (name, cluster, cfg) in runs {
            let mut engine = Engine::new();
            let mut store = store_named(name, &mut engine, cluster);
            let run = run_benchmark(&mut engine, store.as_mut(), &cfg);
            let cp = &run.checkpoints[0];
            assert!(
                recapture(name, cluster, &cfg, cp) == cp.bytes,
                "{name}: checkpoint 0 re-encodes differently after a restore"
            );
        }
    }

    #[test]
    fn bisect_localizes_an_injected_divergence() {
        // One config, one fail-slow window 1.1 s after warm-up; the
        // masked runs never dispatch it, the other does.
        let mut cfg = quick_config(Workload::rw());
        cfg.checkpoints = Some(CheckpointSpec::every(0.25));
        cfg.faults =
            FaultSchedule::none().fail_slow(0, SimTime(1_100_000_000), SimTime(1_900_000_000), 8);
        let run = |mask: Option<&[bool]>| {
            let mut engine = Engine::new();
            let mut store = FixtureStore::new(&mut engine, 100);
            run_benchmark_masked(&mut engine, &mut store, &cfg, mask)
        };
        let masked = [false; 2];
        let clean = run(Some(&masked));
        let twin = run(Some(&masked));
        let slowed = run(None);

        // Identical runs: no divergence at any common checkpoint.
        assert_eq!(
            bisect_divergence(&clean.checkpoints, &twin.checkpoints),
            Ok(None)
        );
        assert_eq!(
            bisect_divergence(&clean.checkpoints, &clean.checkpoints),
            Ok(None)
        );

        // The fail-slow lands inside checkpoint window 4 (boundaries every
        // 0.25 s, checkpoint k at 0.25·(k+1); 1.1 s lies in (1.0, 1.25]).
        let first = bisect_divergence(&clean.checkpoints, &slowed.checkpoints);
        assert_eq!(
            first,
            Ok(Some(4)),
            "divergence localized to the wrong window"
        );
        for k in 0..4 {
            assert_eq!(
                clean.checkpoints[k].bytes, slowed.checkpoints[k].bytes,
                "checkpoint {k} before the dispatch diverged"
            );
        }
        assert_ne!(
            clean.checkpoints[4].state_hash(),
            slowed.checkpoints[4].state_hash()
        );
    }

    #[test]
    fn a_checkpoint_that_does_not_open_is_refused_not_a_panic() {
        // Every field is public, so any bytes can stand in a checkpoint.
        let forged = |bytes: Vec<u8>| Checkpoint {
            index: 0,
            at: SimTime(0),
            bytes,
        };
        let mut cfg = quick_config(Workload::rw());
        cfg.checkpoints = Some(CheckpointSpec::every(0.5));
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let own = run_benchmark(&mut engine, &mut store, &cfg).checkpoints;
        assert!(own.len() >= 2, "{} checkpoints", own.len());
        let mut flipped = own[0].bytes.clone();
        flipped[20] ^= 1;
        for bad in [vec![], b"APMSNAP".to_vec(), flipped] {
            let want = snap::open(&bad).map(|_| ()).expect_err("no container");
            let cp = forged(bad);
            assert_eq!(cp.state_hash(), Err(want.clone()));
            assert_eq!(cp.header().map(|_| ()), Err(want.clone()));
            let cps = [cp];
            assert_eq!(bisect_divergence(&cps, &cps), Err(want.clone()));
            // Refused wherever the search opens it: the last common
            // checkpoint first, then the midpoints.
            let mut late = own.clone();
            late[0].bytes = cps[0].bytes.clone();
            assert_eq!(bisect_divergence(&own, &late), Ok(None));
            late.last_mut().expect("checkpoints").bytes = cps[0].bytes.clone();
            assert_eq!(bisect_divergence(&own, &late), Err(want));
        }
    }

    #[test]
    fn ledger_balances_and_records_acked_inserts() {
        // Without a policy every issued op is logical; the ledger resolves
        // all but the in-flight residue, and every acked insert key is
        // readable from the store afterwards.
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let cfg = quick_config(Workload::rw());
        let r = run_benchmark(&mut engine, &mut store, &cfg);
        assert_eq!(
            r.ledger.logical, r.issued,
            "policy-free ops are all logical"
        );
        assert!(r.ledger.resolved <= r.ledger.logical);
        let connections = u64::from(cfg.client.connections);
        assert!(
            r.ledger.logical - r.ledger.resolved <= connections,
            "in-flight residue {} exceeds {} connections",
            r.ledger.logical - r.ledger.resolved,
            connections
        );
        assert!(
            !r.ledger.acked_inserts.is_empty(),
            "RW run acked no inserts"
        );
        for key in &r.ledger.acked_inserts {
            assert!(store.data.contains_key(key), "acked key not durable");
        }

        // With retries and hedging: extra attempts inflate `issued` but
        // not `logical`, and the balance still holds.
        let mut engine2 = Engine::new();
        let mut store2 = FixtureStore::new(&mut engine2, 100);
        store2.hedged = true;
        let cfg2 = faulty_config_with_every_policy();
        let r2 = run_benchmark(&mut engine2, &mut store2, &cfg2);
        assert!(
            r2.ledger.logical < r2.issued,
            "extra attempts must not be logical"
        );
        assert!(r2.ledger.resolved <= r2.ledger.logical);
        assert!(r2.ledger.logical - r2.ledger.resolved <= connections);
        for key in &r2.ledger.acked_inserts {
            assert!(store2.data.contains_key(key), "acked key not durable");
        }
    }

    #[test]
    fn fully_masked_faults_match_the_fault_free_run() {
        let faulty = || {
            let mut cfg = quick_config(Workload::rw());
            cfg.faults = FaultSchedule::none()
                .crash(0, SimTime(400_000_000), SimTime(900_000_000))
                .slow_disk(0, SimTime(1_000_000_000), SimTime(1_500_000_000), 4);
            cfg
        };
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let mask = vec![false; 4];
        let masked = run_benchmark_masked(&mut engine, &mut store, &faulty(), Some(&mask));

        let mut engine2 = Engine::new();
        let mut store2 = FixtureStore::new(&mut engine2, 100);
        let clean = run_benchmark(&mut engine2, &mut store2, &quick_config(Workload::rw()));
        // Masked-out events still fire their sentinels but dispatch
        // nothing, so the observable run equals the fault-free one.
        assert_eq!(result_sig(&masked), result_sig(&clean));
        assert_eq!(masked.ledger, clean.ledger);

        // An all-true mask is the identity.
        let mut engine3 = Engine::new();
        let mut store3 = FixtureStore::new(&mut engine3, 100);
        let mask_on = vec![true; 4];
        let full = run_benchmark_masked(&mut engine3, &mut store3, &faulty(), Some(&mask_on));
        let mut engine4 = Engine::new();
        let mut store4 = FixtureStore::new(&mut engine4, 100);
        let unmasked = run_benchmark(&mut engine4, &mut store4, &faulty());
        assert_eq!(result_sig(&full), result_sig(&unmasked));
    }

    #[test]
    fn masked_probe_resumes_from_a_pre_divergence_checkpoint() {
        // The shrinker's resume trick: a probe that disables fault events
        // may resume from any checkpoint of the full-schedule run taken
        // before the first disabled event dispatches.
        let mut cfg = quick_config(Workload::rw());
        // Crash dispatches at warmup_end + 0.4 s; checkpoint 0 lands at
        // ~warmup_end + 0.25 s — strictly before it.
        cfg.faults = FaultSchedule::none().crash(0, SimTime(400_000_000), SimTime(900_000_000));
        cfg.checkpoints = Some(CheckpointSpec::every(0.25));
        let mut engine = Engine::new();
        let mut store = FixtureStore::new(&mut engine, 100);
        let base = run_benchmark(&mut engine, &mut store, &cfg);
        let cp = &base.checkpoints[0];
        assert!(
            cp.at < SimTime(500_000_000 + 400_000_000),
            "checkpoint not pre-fault"
        );

        let mask = vec![false, false];
        let mut engine2 = Engine::new();
        let mut store2 = FixtureStore::new(&mut engine2, 100);
        let scratch = run_benchmark_masked(&mut engine2, &mut store2, &cfg, Some(&mask));

        let mut engine3 = Engine::new();
        let mut store3 = FixtureStore::new(&mut engine3, 100);
        let resumed =
            resume_benchmark_masked(&mut engine3, &mut store3, &cfg, &cp.bytes, Some(&mask))
                .expect("masked resume succeeds");
        assert_eq!(
            result_sig(&resumed),
            result_sig(&scratch),
            "masked resume drifted from the masked from-scratch run"
        );
        assert_eq!(resumed.ledger, scratch.ledger);
        // And the probe genuinely differs from the faulty base run.
        assert_ne!(result_sig(&scratch), result_sig(&base));
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        let run = || {
            let mut engine = Engine::new();
            let mut store = FixtureStore::new(&mut engine, 100);
            store.hedged = true;
            let cfg = faulty_config_with_every_policy();
            let r = run_benchmark(&mut engine, &mut store, &cfg);
            (
                r.issued,
                r.stats.total_ops(),
                r.stats.total_errors(),
                *r.stats.resilience(),
                r.stats.throughput().to_bits(),
            )
        };
        assert_eq!(run(), run());
    }
}
