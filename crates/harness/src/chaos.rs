//! Chaos search: seeded fault-schedule generation, correctness oracles,
//! and automatic schedule shrinking.
//!
//! The pipeline has three stages, all deterministic in one campaign
//! seed:
//!
//! 1. A [`ChaosGenerator`] samples random-but-reproducible
//!    [`ChaosSchedule`]s — time-disjoint fault *windows*
//!    ([`FaultWindow`]: crash/restart, fail-slow, disk slowdown, network
//!    partition, cluster-wide deadline storms) drawn from a SplitMix64
//!    stream — optionally composed with a client-side
//!    [`ResiliencePolicy`] under test.
//! 2. Each schedule runs against the store and four correctness
//!    *oracles* judge the outcome ([`OracleKind`]):
//!    durability (every client-acked insert readable after all
//!    recoveries, via the runner's
//!    [`RunLedger`](apm_stores::runner::RunLedger)), conservation (logical
//!    op accounting balances), an availability floor, and
//!    recovery-convergence (post-fault throughput returns to a band of
//!    the fault-free baseline).
//! 3. A delta-debugging *shrinker* minimizes every failing schedule to
//!    a 1-minimal set of fault windows. Probes are masked replays of
//!    the original run
//!    ([`run_benchmark_masked`](apm_stores::runner::run_benchmark_masked))
//!    and resume from the last checkpoint the full run captured before
//!    the first suppressed event instead of replaying from t = 0;
//!    schedules that fail to replay identically are flagged
//!    non-deterministic and localized with [`bisect_divergence`] instead of shrunk.
//!
//! Shrinking works on windows, not raw events, so a probe never strands
//! a `Crash` without its matching `Restart` — which would make the
//! durability oracle fire for mere unavailability rather than data
//! loss.
//!
//! Everything is off by default: no chaos code runs unless the
//! `repro chaos` subcommand or the `ext-chaos-*` experiments invoke it,
//! and the campaign report is a pure function of (store, seed, budget).

use crate::experiment::{ExperimentProfile, Scenario, ScenarioRun, StoreKind, StoreSpec};
use apm_core::json::Json;
use apm_core::ops::{OpOutcome, Operation};
use apm_core::rng::SplitMix64;
use apm_core::snap::{fnv1a64, SnapError, SnapWriter};
use apm_core::stats::BenchStats;
use apm_core::workload::Workload;
use apm_sim::{
    ClusterSpec, FaultEvent, FaultSchedule, FaultWindow, SimDuration, SimTime, WindowShape,
};
use apm_stores::cassandra::CassandraConfig;
use apm_stores::resilience::{ResiliencePolicy, RetryPolicy};
use apm_stores::runner::{bisect_divergence, Checkpoint, CheckpointSpec, RunResult};
use std::collections::BTreeMap;

/// Node count of the canonical chaos scenario (Cluster M).
pub const NODES: u32 = 4;

/// Schedules sampled when the caller does not pick a budget.
pub const DEFAULT_BUDGET: u32 = 4;

/// Client-side deadline for every chaos run: stalled requests (network
/// partitions, storms) must surface as timeouts for the closed loop to
/// keep moving.
const OP_DEADLINE: SimDuration = SimDuration::from_millis(250);

// ---------------------------------------------------------------------------
// Campaign data model: which schedules were tried, which oracles fired,
// and what the minimized reproducers look like. Plain data with
// deterministic ordering: serialising the same campaign twice yields
// identical bytes.

/// Version stamp written into every serialized campaign report. Bump on
/// any structural change so downstream consumers can reject reports
/// they do not understand.
pub const CAMPAIGN_FORMAT_VERSION: u32 = 1;

/// The correctness invariants evaluated over each chaos run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OracleKind {
    /// Every client-acknowledged insert is readable after all
    /// recoveries complete (requires the runner's acked-write ledger).
    Durability,
    /// Logical-operation accounting balances: every issued op resolves
    /// at most once and the in-flight residue is bounded by the client
    /// population.
    Conservation,
    /// Availability over the whole run stays above a lenient floor —
    /// faults may dent throughput but must not zero it.
    AvailabilityFloor,
    /// After the last fault event the per-second throughput returns to
    /// within a band of the fault-free baseline.
    RecoveryConvergence,
}

impl OracleKind {
    /// All oracles, in evaluation order.
    pub const ALL: [OracleKind; 4] = [
        OracleKind::Durability,
        OracleKind::Conservation,
        OracleKind::AvailabilityFloor,
        OracleKind::RecoveryConvergence,
    ];

    /// Stable identifier used in reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Durability => "durability",
            OracleKind::Conservation => "conservation",
            OracleKind::AvailabilityFloor => "availability-floor",
            OracleKind::RecoveryConvergence => "recovery-convergence",
        }
    }
}

/// One oracle's verdict over one run.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleVerdict {
    pub kind: OracleKind,
    pub pass: bool,
    /// Human-readable evidence (counts, ratios, offending keys).
    pub detail: String,
}

/// How one sampled schedule resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleOutcome {
    /// Every oracle held.
    Pass,
    /// At least one oracle fired; a minimized reproducer was attempted.
    Violation,
    /// Two identical replays of the schedule disagreed — a determinism
    /// bug in the stack itself. Shrinking is skipped and the divergence
    /// is localized by checkpoint bisection instead.
    NonDeterministic,
}

impl ScheduleOutcome {
    /// Stable identifier used in reports and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleOutcome::Pass => "pass",
            ScheduleOutcome::Violation => "violation",
            ScheduleOutcome::NonDeterministic => "non-deterministic",
        }
    }
}

/// One schedule tried by the campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleRecord {
    /// Zero-based index within the campaign.
    pub index: u32,
    /// The schedule's fault events, in dispatch order.
    pub events: Vec<FaultEvent>,
    pub outcome: ScheduleOutcome,
    /// Verdicts in [`OracleKind::ALL`] order (the durability oracle is
    /// absent for a target it does not judge).
    pub verdicts: Vec<OracleVerdict>,
}

/// A minimized failing reproducer produced by the delta-debugging
/// shrinker.
#[derive(Clone, Debug, PartialEq)]
pub struct MinimizedRepro {
    /// Index of the originating [`ScheduleRecord`].
    pub schedule_index: u32,
    /// Event count of the original failing schedule.
    pub original_events: usize,
    /// Event count after shrinking.
    pub minimized_events: usize,
    /// The minimal failing schedule's events, in dispatch order.
    pub events: Vec<FaultEvent>,
    /// Probe runs the shrinker spent.
    pub probes: u32,
    /// Of those, probes that resumed from a pre-divergence checkpoint
    /// instead of replaying from t=0.
    pub resumed_probes: u32,
    /// Oracles that still fire on the minimized schedule.
    pub failing_oracles: Vec<OracleKind>,
    /// For [`ScheduleOutcome::NonDeterministic`] schedules: the first
    /// divergent checkpoint window located by bisection (no shrinking
    /// was performed).
    pub divergent_checkpoint: Option<u32>,
}

/// A full search campaign over one store.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// [`CAMPAIGN_FORMAT_VERSION`] at serialisation time.
    pub version: u32,
    /// Store legend name (`cassandra`, `redis`, …).
    pub store: String,
    /// Campaign seed; the whole report is a pure function of it.
    pub seed: u64,
    /// Schedules sampled.
    pub budget: u32,
    /// Whether a resilience policy was composed under test.
    pub resilient: bool,
    /// One record per sampled schedule, in sample order.
    pub schedules: Vec<ScheduleRecord>,
    /// One minimized reproducer per non-passing schedule.
    pub minimized: Vec<MinimizedRepro>,
}

impl CampaignReport {
    /// Number of schedules whose outcome was not a clean pass.
    pub fn violations(&self) -> usize {
        self.schedules
            .iter()
            .filter(|s| s.outcome != ScheduleOutcome::Pass)
            .count()
    }
}

// ---------------------------------------------------------------------------
// Schedules

/// A sampled schedule: the windows, the flattened [`FaultSchedule`] fed
/// to the runner, and the event → window mapping the shrinker masks by.
#[derive(Clone, Debug)]
pub struct ChaosSchedule {
    pub windows: Vec<FaultWindow>,
    /// The composed schedule, merged time-sorted exactly as the runner
    /// dispatches it.
    pub schedule: FaultSchedule,
    /// `tags[i]` is the window index owning `schedule.events()[i]`.
    tags: Vec<usize>,
}

impl ChaosSchedule {
    /// Flattens windows into one time-sorted schedule, tagging every
    /// event with its owning window at the index [`FaultSchedule::push`]
    /// put it, so index `i` of `tags` lines up with index `i` of
    /// `schedule.events()` — which is the index the runner's fault mask
    /// addresses.
    pub fn from_windows(windows: Vec<FaultWindow>, nodes: usize) -> ChaosSchedule {
        let mut schedule = FaultSchedule::none();
        let mut tags = Vec::new();
        for (tag, window) in windows.iter().enumerate() {
            for event in window.events(nodes) {
                tags.insert(schedule.push(event), tag);
            }
        }
        ChaosSchedule {
            windows,
            schedule,
            tags,
        }
    }

    /// Per-event dispatch mask for a subset of enabled windows.
    pub fn mask(&self, enabled: &[bool]) -> Vec<bool> {
        self.tags.iter().map(|&tag| enabled[tag]).collect()
    }

    /// The events that dispatch under a window subset, in order.
    pub fn enabled_events(&self, enabled: &[bool]) -> Vec<FaultEvent> {
        self.schedule
            .events()
            .iter()
            .zip(&self.tags)
            .filter(|(_, &tag)| enabled[tag])
            .map(|(event, _)| *event)
            .collect()
    }
}

/// Seeded sampler of [`ChaosSchedule`]s. Windows are drawn into
/// disjoint time slots covering 5–60 % of the measurement window —
/// disjointness keeps fault pairs well-nested per node, and capping at
/// 60 % leaves a recovery tail for the convergence oracle to judge.
pub struct ChaosGenerator {
    rng: SplitMix64,
    nodes: usize,
}

impl ChaosGenerator {
    /// A generator over `nodes`-node clusters, deterministic in `seed`.
    pub fn new(seed: u64, nodes: usize) -> ChaosGenerator {
        ChaosGenerator {
            rng: SplitMix64::new(seed),
            nodes,
        }
    }

    /// Samples the next schedule: 1–3 windows with random shape,
    /// density, duration, and targeting.
    pub fn sample(&mut self, measure_secs: f64) -> ChaosSchedule {
        let count = 1 + (self.rng.next_u64() % 3) as usize;
        let span = (measure_secs * 1e9) as u64;
        let lo = span / 20; // 5 %
        let hi = span * 3 / 5; // 60 %
        let slot = (hi - lo) / count as u64;
        let mut windows = Vec::with_capacity(count);
        for i in 0..count {
            let base = lo + slot * i as u64;
            // Start in the first 40 % of the slot, last 24–60 % of it:
            // the window always ends inside its own slot.
            let start = base + self.rng.next_u64() % (slot * 2 / 5).max(1);
            // At least a nanosecond, so a tiny measurement window still
            // yields windows that end after they start.
            let len = (slot * 6 / 25 + self.rng.next_u64() % (slot * 9 / 25).max(1)).max(1);
            let node = (self.rng.next_u64() % self.nodes as u64) as usize;
            let shape = match self.rng.next_u64() % 5 {
                0 => WindowShape::Crash,
                1 => WindowShape::SlowDisk {
                    factor: 2 + (self.rng.next_u64() % 7) as u32,
                },
                2 => WindowShape::Partition,
                3 => WindowShape::FailSlow {
                    factor: 2 + (self.rng.next_u64() % 3) as u32,
                },
                _ => WindowShape::Storm {
                    factor: 4 + (self.rng.next_u64() % 5) as u32,
                },
            };
            windows.push(FaultWindow {
                node,
                start: SimTime(start),
                until: SimTime(start + len),
                shape,
            });
        }
        ChaosSchedule::from_windows(windows, self.nodes)
    }
}

// ---------------------------------------------------------------------------
// Oracles

/// Whole-run throughput must stay above this fraction of the fault-free
/// baseline.
const AVAILABILITY_FLOOR: f64 = 0.05;
/// Post-fault tail throughput must return to this fraction of the
/// baseline's tail.
const CONVERGENCE_BAND: f64 = 0.5;

/// The fault-free reference the availability and convergence oracles
/// compare against. `resolution` is the per-second count of resolved
/// operations — successes plus errors — so the convergence oracle
/// measures "the request loop keeps turning at baseline rate" rather
/// than penalising a store that legitimately answers with errors after
/// recovery (e.g. Redis misses on keys a crash wiped); data correctness
/// stays the durability oracle's job.
struct Baseline {
    throughput: f64,
    resolution: Vec<u64>,
}

fn timeline_count(timeline: &[u64], second: usize) -> u64 {
    timeline.get(second).copied().unwrap_or(0)
}

/// Per-second resolved operations: successes plus errors.
fn resolution_timeline(stats: &BenchStats) -> Vec<u64> {
    let ok = stats.timeline();
    let err = stats.error_timeline();
    (0..ok.len().max(err.len()))
        .map(|s| timeline_count(ok, s) + timeline_count(err, s))
        .collect()
}

/// Judges one completed run. `enabled` lists the fault events that
/// actually dispatched (the mask's view of the schedule); the
/// convergence oracle measures the tail after the last of them. The
/// durability oracle runs when `durability` is set (see
/// [`ChaosTarget`]).
fn evaluate_oracles(
    durability: bool,
    scenario: &Scenario,
    run: &mut ScenarioRun,
    enabled: &[FaultEvent],
    baseline: &Baseline,
) -> Vec<OracleVerdict> {
    let ScenarioRun {
        engine,
        store,
        result,
    } = run;
    let client = &scenario.config.client;
    let mut verdicts = Vec::new();

    if durability {
        let mut lost = 0u64;
        let mut first_lost = None;
        for key in &result.ledger.acked_inserts {
            let (outcome, _plan) = store.plan_op(0, &Operation::Read { key: *key }, engine);
            let readable = match outcome {
                OpOutcome::Found(_) => true,
                OpOutcome::Scanned(_) | OpOutcome::Done => true,
                OpOutcome::Missing | OpOutcome::Rejected(_) => false,
            };
            if !readable {
                lost += 1;
                if first_lost.is_none() {
                    first_lost = Some(*key);
                }
            }
        }
        let detail = match first_lost {
            None => format!(
                "{} acked inserts all readable",
                result.ledger.acked_inserts.len()
            ),
            Some(key) => format!(
                "{lost} of {} acked inserts unreadable after recovery (first: {key:?})",
                result.ledger.acked_inserts.len()
            ),
        };
        verdicts.push(OracleVerdict {
            kind: OracleKind::Durability,
            pass: lost == 0,
            detail,
        });
    }

    {
        let ledger = &result.ledger;
        let recorded =
            result.stats.total_ops() + result.stats.total_errors() + result.stats.total_rejected();
        let balanced = ledger.resolved <= ledger.logical
            && ledger.logical - ledger.resolved <= u64::from(client.connections)
            && ledger.rejected <= ledger.resolved
            && recorded <= ledger.logical;
        verdicts.push(OracleVerdict {
            kind: OracleKind::Conservation,
            pass: balanced,
            detail: format!(
                "logical {} resolved {} rejected {} residue {} recorded {}",
                ledger.logical,
                ledger.resolved,
                ledger.rejected,
                ledger.logical - ledger.resolved.min(ledger.logical),
                recorded
            ),
        });
    }

    {
        let floor = AVAILABILITY_FLOOR * baseline.throughput;
        let throughput = result.throughput();
        verdicts.push(OracleVerdict {
            kind: OracleKind::AvailabilityFloor,
            pass: throughput >= floor,
            detail: format!(
                "{throughput:.0} ops/s vs floor {floor:.0} ({:.0} baseline)",
                baseline.throughput
            ),
        });
    }

    {
        let last = enabled.iter().map(|e| e.at.as_nanos()).max();
        let total_secs = client.measure_secs.ceil() as usize;
        let (pass, detail) = match last {
            None => (true, "no fault dispatched; trivially converged".to_string()),
            Some(last_ns) => {
                let tail_from = (last_ns / 1_000_000_000) as usize + 1;
                if tail_from >= total_secs {
                    (true, format!("no tail after t={tail_from}s; skipped"))
                } else {
                    let run_resolution = resolution_timeline(&result.stats);
                    let run_tail: u64 = (tail_from..total_secs)
                        .map(|s| timeline_count(&run_resolution, s))
                        .sum();
                    let base_tail: u64 = (tail_from..total_secs)
                        .map(|s| timeline_count(&baseline.resolution, s))
                        .sum();
                    let need = CONVERGENCE_BAND * base_tail as f64;
                    (
                        base_tail == 0 || run_tail as f64 >= need,
                        format!(
                            "tail [{tail_from}s..{total_secs}s): {run_tail} resolved vs baseline {base_tail}"
                        ),
                    )
                }
            }
        };
        verdicts.push(OracleVerdict {
            kind: OracleKind::RecoveryConvergence,
            pass,
            detail,
        });
    }

    verdicts
}

fn failing_kinds(verdicts: &[OracleVerdict]) -> Vec<OracleKind> {
    verdicts
        .iter()
        .filter(|v| !v.pass)
        .map(|v| v.kind)
        .collect()
}

// ---------------------------------------------------------------------------
// Campaign targets and options

/// What a campaign runs against: a store, and whether the durability
/// oracle judges it.
pub struct ChaosTarget {
    label: String,
    /// Read back every acked insert after the run. Off for stores whose
    /// crash semantics legitimately lose acked data (Redis holds its
    /// shard purely in memory — a crash *is* data loss there, by
    /// design, not by bug).
    durability: bool,
    store: StoreSpec,
}

impl ChaosTarget {
    /// A healthy store, as benchmarked.
    pub fn store(kind: StoreKind) -> ChaosTarget {
        ChaosTarget {
            label: kind.name().to_string(),
            durability: kind != StoreKind::Redis,
            store: kind.into(),
        }
    }

    /// The seeded known-bug fixture: Cassandra at rf=2 with
    /// [`CassandraConfig::skip_hint_replay`] set, so a rejoining node
    /// silently discards the writes acked on its behalf during the
    /// outage. Only the end-to-end durability oracle can catch it —
    /// the store's own hint auditor is told the queue drained.
    pub fn broken_cassandra() -> ChaosTarget {
        ChaosTarget {
            label: "cassandra-skip-hints".to_string(),
            durability: true,
            store: StoreSpec::Cassandra(CassandraConfig {
                replication: 2,
                skip_hint_replay: true,
                ..CassandraConfig::default()
            }),
        }
    }

    /// The campaign label (store legend name or fixture name).
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Campaign knobs.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOptions {
    /// Seeds the schedule generator; the whole report is a pure
    /// function of (target, profile, options).
    pub seed: u64,
    /// Schedules to sample.
    pub budget: u32,
    /// Compose a standard retry policy under test.
    pub resilient: bool,
}

impl ChaosOptions {
    /// Default-budget options.
    pub fn new(seed: u64) -> ChaosOptions {
        ChaosOptions {
            seed,
            budget: DEFAULT_BUDGET,
            resilient: false,
        }
    }
}

/// A campaign's machine-readable report plus the harness-level
/// reproducers backing each `minimized` entry, re-executable by
/// [`probe_schedule`] for independent verification.
pub struct CampaignOutcome {
    pub report: CampaignReport,
    pub repros: Vec<ScheduleRepro>,
}

/// One minimized reproducer in executable form.
pub struct ScheduleRepro {
    /// The originating schedule.
    pub schedule: ChaosSchedule,
    /// The minimized window subset (`enabled[w]` = window `w` kept).
    pub enabled: Vec<bool>,
}

// ---------------------------------------------------------------------------
// Campaign execution

/// The canonical chaos scenario: workload RW on [`NODES`] Cluster-M
/// nodes under `faults`, every op bounded by [`OP_DEADLINE`].
fn chaos_scenario(
    target: &ChaosTarget,
    profile: &ExperimentProfile,
    faults: FaultSchedule,
    checkpoints: Option<CheckpointSpec>,
    resilient: bool,
) -> Scenario {
    let mut scenario = Scenario::new(
        target.store,
        ClusterSpec::cluster_m(),
        NODES,
        &Workload::rw(),
        profile,
    );
    scenario.config.faults = faults;
    scenario.config.op_deadline = Some(OP_DEADLINE);
    scenario.config.resilience = resilient.then(|| ResiliencePolicy {
        retry: Some(RetryPolicy::standard()),
        ..ResiliencePolicy::default()
    });
    scenario.config.checkpoints = checkpoints;
    scenario
}

/// Runs the fault-free reference for the availability and convergence
/// oracles.
fn baseline(target: &ChaosTarget, profile: &ExperimentProfile, opts: &ChaosOptions) -> Baseline {
    let result = chaos_scenario(target, profile, FaultSchedule::none(), None, opts.resilient)
        .run()
        .result;
    Baseline {
        throughput: result.throughput(),
        resolution: resolution_timeline(&result.stats),
    }
}

/// Replay-equality fingerprint: stats, ledger, and every checkpoint's
/// state hash. Two runs of the same schedule must agree on all of it; a
/// checkpoint that does not open has no state hash to agree on.
fn run_fingerprint(result: &RunResult) -> Result<u64, SnapError> {
    let mut w = SnapWriter::new();
    w.put(&result.stats);
    w.put_u64(result.issued);
    w.put(&result.ledger);
    for cp in &result.checkpoints {
        w.put_u64(cp.state_hash()?);
    }
    Ok(fnv1a64(w.bytes()))
}

/// The shrinker's probe engine: runs window subsets of one fixed
/// schedule, resuming from the full run's checkpoints where sound, and
/// memoizes verdicts per subset.
struct Prober<'a> {
    durability: bool,
    scenario: &'a Scenario,
    schedule: &'a ChaosSchedule,
    baseline: &'a Baseline,
    full_checkpoints: &'a [Checkpoint],
    memo: BTreeMap<Vec<bool>, Vec<OracleKind>>,
    probes: u32,
    resumed_probes: u32,
}

impl Prober<'_> {
    /// The oracle kinds that fire when only `enabled` windows dispatch.
    fn failing(&mut self, enabled: &[bool]) -> Vec<OracleKind> {
        if let Some(hit) = self.memo.get(enabled) {
            return hit.clone();
        }
        let mask = self.schedule.mask(enabled);
        // A checkpoint is reusable iff it was captured strictly before
        // the first suppressed dispatch: up to that point the masked
        // run is byte-identical to the full run that sealed it.
        let first_disabled = self
            .schedule
            .schedule
            .events()
            .iter()
            .zip(&mask)
            .filter(|(_, &enabled)| !enabled)
            .map(|(event, _)| event.at.as_nanos())
            .min();
        // Fault offsets count from the measurement-window start; load is
        // untimed, so that is `warmup_secs` of absolute virtual time.
        let warmup = SimDuration::from_secs_f64(self.scenario.config.client.warmup_secs);
        let snapshot = first_disabled.and_then(|offset| {
            let limit = warmup.as_nanos() + offset;
            self.full_checkpoints
                .iter()
                .rev()
                .find(|cp| cp.at.as_nanos() < limit)
        });
        self.probes += 1;
        // A refused resume (feature mismatch) falls back to a full
        // replay; determinism is unaffected either way.
        let resumed =
            snapshot.and_then(|cp| self.scenario.resume_masked(&cp.bytes, Some(&mask)).ok());
        self.resumed_probes += u32::from(resumed.is_some());
        let mut run = resumed.unwrap_or_else(|| self.scenario.run_masked(Some(&mask)));
        let enabled_events = self.schedule.enabled_events(enabled);
        let verdicts = evaluate_oracles(
            self.durability,
            self.scenario,
            &mut run,
            &enabled_events,
            self.baseline,
        );
        let failing = failing_kinds(&verdicts);
        self.memo.insert(enabled.to_vec(), failing.clone());
        failing
    }
}

fn mask_of(kept: &[usize], windows: usize) -> Vec<bool> {
    let mut mask = vec![false; windows];
    for &w in kept {
        mask[w] = true;
    }
    mask
}

/// Zeller–Hildebrandt ddmin over fault windows: returns a 1-minimal
/// failing subset (removing any single remaining window makes the
/// schedule pass).
fn ddmin(prober: &mut Prober<'_>, windows: usize) -> Vec<bool> {
    let mut current: Vec<usize> = (0..windows).collect();
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let subsets: Vec<Vec<usize>> = current.chunks(chunk).map(<[usize]>::to_vec).collect();
        let mut next: Option<(Vec<usize>, usize)> = None;
        for subset in &subsets {
            if subset.len() < current.len() && !prober.failing(&mask_of(subset, windows)).is_empty()
            {
                next = Some((subset.clone(), 2));
                break;
            }
        }
        if next.is_none() && subsets.len() > 2 {
            for subset in &subsets {
                let complement: Vec<usize> = current
                    .iter()
                    .copied()
                    .filter(|w| !subset.contains(w))
                    .collect();
                if complement.len() < current.len()
                    && !prober.failing(&mask_of(&complement, windows)).is_empty()
                {
                    next = Some((complement, granularity.saturating_sub(1).max(2)));
                    break;
                }
            }
        }
        match next {
            Some((reduced, coarseness)) => {
                current = reduced;
                granularity = coarseness;
            }
            None => {
                if granularity >= current.len() {
                    break;
                }
                granularity = (granularity * 2).min(current.len());
            }
        }
    }
    mask_of(&current, windows)
}

/// Runs a full chaos campaign: sample `budget` schedules, judge each
/// with the oracles, shrink every failure, and localize any
/// non-deterministic replay with checkpoint bisection.
pub fn run_campaign(
    target: &ChaosTarget,
    profile: &ExperimentProfile,
    opts: &ChaosOptions,
) -> CampaignOutcome {
    let spec = CheckpointSpec::every(profile.measure_secs / 4.0);

    // Fault-free baseline for the availability and convergence oracles.
    let baseline = baseline(target, profile, opts);

    let mut generator = ChaosGenerator::new(opts.seed, NODES as usize);
    let mut schedules = Vec::new();
    let mut minimized = Vec::new();
    let mut repros = Vec::new();

    for index in 0..opts.budget {
        let chaos = generator.sample(profile.measure_secs);
        let scenario = chaos_scenario(
            target,
            profile,
            chaos.schedule.clone(),
            Some(spec.clone()),
            opts.resilient,
        );
        let mut full = scenario.run();
        let events = chaos.schedule.events().to_vec();
        let verdicts =
            evaluate_oracles(target.durability, &scenario, &mut full, &events, &baseline);
        let failing = failing_kinds(&verdicts);

        if failing.is_empty() {
            schedules.push(ScheduleRecord {
                index,
                events,
                outcome: ScheduleOutcome::Pass,
                verdicts,
            });
            continue;
        }

        // A failing schedule must replay identically before it is worth
        // shrinking; a replay mismatch is a determinism bug in the
        // stack itself, localized by checkpoint bisection instead.
        let mut replay = scenario.run();
        let replay_verdicts = evaluate_oracles(
            target.durability,
            &scenario,
            &mut replay,
            &events,
            &baseline,
        );
        let replayed = match (
            run_fingerprint(&full.result),
            run_fingerprint(&replay.result),
        ) {
            (Ok(full), Ok(replay)) => full == replay,
            _ => false,
        };
        if !replayed || verdicts != replay_verdicts {
            // An unopenable checkpoint localizes nothing.
            let divergent = bisect_divergence(&full.result.checkpoints, &replay.result.checkpoints)
                .unwrap_or(None);
            minimized.push(MinimizedRepro {
                schedule_index: index,
                original_events: events.len(),
                minimized_events: events.len(),
                events: events.clone(),
                probes: 0,
                resumed_probes: 0,
                failing_oracles: failing,
                divergent_checkpoint: divergent,
            });
            schedules.push(ScheduleRecord {
                index,
                events,
                outcome: ScheduleOutcome::NonDeterministic,
                verdicts,
            });
            continue;
        }

        let mut prober = Prober {
            durability: target.durability,
            scenario: &scenario,
            schedule: &chaos,
            baseline: &baseline,
            full_checkpoints: &full.result.checkpoints,
            memo: BTreeMap::new(),
            probes: 0,
            resumed_probes: 0,
        };
        prober
            .memo
            .insert(vec![true; chaos.windows.len()], failing.clone());
        let enabled = ddmin(&mut prober, chaos.windows.len());
        let failing_oracles = prober.failing(&enabled);
        let (probes, resumed_probes) = (prober.probes, prober.resumed_probes);
        let minimized_events = chaos.enabled_events(&enabled);
        minimized.push(MinimizedRepro {
            schedule_index: index,
            original_events: events.len(),
            minimized_events: minimized_events.len(),
            events: minimized_events,
            probes,
            resumed_probes,
            failing_oracles,
            divergent_checkpoint: None,
        });
        repros.push(ScheduleRepro {
            schedule: chaos.clone(),
            enabled,
        });
        schedules.push(ScheduleRecord {
            index,
            events,
            outcome: ScheduleOutcome::Violation,
            verdicts,
        });
    }

    CampaignOutcome {
        report: CampaignReport {
            version: CAMPAIGN_FORMAT_VERSION,
            store: target.label.clone(),
            seed: opts.seed,
            budget: opts.budget,
            resilient: opts.resilient,
            schedules,
            minimized,
        },
        repros,
    }
}

/// Re-executes one reproducer subset from scratch (no checkpoint
/// resume, fresh store) and returns the oracles that fire. Used by the
/// property tests and CI to verify minimized schedules independently
/// of the shrinker's own probe path.
pub fn probe_schedule(
    target: &ChaosTarget,
    profile: &ExperimentProfile,
    opts: &ChaosOptions,
    schedule: &ChaosSchedule,
    enabled: &[bool],
) -> Vec<OracleKind> {
    let baseline = baseline(target, profile, opts);
    let scenario = chaos_scenario(
        target,
        profile,
        schedule.schedule.clone(),
        None,
        opts.resilient,
    );
    let mut run = scenario.run_masked(Some(&schedule.mask(enabled)));
    let enabled_events = schedule.enabled_events(enabled);
    let verdicts = evaluate_oracles(
        target.durability,
        &scenario,
        &mut run,
        &enabled_events,
        &baseline,
    );
    failing_kinds(&verdicts)
}

// ---------------------------------------------------------------------------
// Report serialisation

fn events_to_json(events: &[FaultEvent]) -> Json {
    Json::Arr(
        events
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("at_ns".to_string(), Json::Num(e.at.as_nanos() as f64)),
                    ("node".to_string(), Json::Num(e.node as f64)),
                    ("kind".to_string(), Json::Str(e.kind.to_string())),
                ])
            })
            .collect(),
    )
}

/// Serialises a campaign report. Key order is fixed and every value is
/// derived from the report alone, so the same campaign always yields
/// identical bytes.
pub fn report_to_json(report: &CampaignReport) -> Json {
    let schedules = report
        .schedules
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("index".to_string(), Json::Num(f64::from(s.index))),
                (
                    "outcome".to_string(),
                    Json::Str(s.outcome.name().to_string()),
                ),
                ("events".to_string(), events_to_json(&s.events)),
                (
                    "verdicts".to_string(),
                    Json::Arr(
                        s.verdicts
                            .iter()
                            .map(|v| {
                                Json::Obj(vec![
                                    ("oracle".to_string(), Json::Str(v.kind.name().to_string())),
                                    ("pass".to_string(), Json::Bool(v.pass)),
                                    ("detail".to_string(), Json::Str(v.detail.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let minimized = report
        .minimized
        .iter()
        .map(|m| {
            Json::Obj(vec![
                (
                    "schedule_index".to_string(),
                    Json::Num(f64::from(m.schedule_index)),
                ),
                (
                    "original_events".to_string(),
                    Json::Num(m.original_events as f64),
                ),
                (
                    "minimized_events".to_string(),
                    Json::Num(m.minimized_events as f64),
                ),
                ("events".to_string(), events_to_json(&m.events)),
                ("probes".to_string(), Json::Num(f64::from(m.probes))),
                (
                    "resumed_probes".to_string(),
                    Json::Num(f64::from(m.resumed_probes)),
                ),
                (
                    "failing_oracles".to_string(),
                    Json::Arr(
                        m.failing_oracles
                            .iter()
                            .map(|k| Json::Str(k.name().to_string()))
                            .collect(),
                    ),
                ),
                (
                    "divergent_checkpoint".to_string(),
                    match m.divergent_checkpoint {
                        Some(k) => Json::Num(f64::from(k)),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("version".to_string(), Json::Num(f64::from(report.version))),
        ("store".to_string(), Json::Str(report.store.clone())),
        ("seed".to_string(), Json::Str(format!("{:#x}", report.seed))),
        ("budget".to_string(), Json::Num(f64::from(report.budget))),
        ("resilient".to_string(), Json::Bool(report.resilient)),
        (
            "violations".to_string(),
            Json::Num(report.violations() as f64),
        ),
        ("schedules".to_string(), Json::Arr(schedules)),
        ("minimized".to_string(), Json::Arr(minimized)),
    ])
}

/// The sorted set of key paths in a report document — the schema the CI
/// golden-file check pins. Array elements share the `[]` path segment;
/// leaves record their JSON type.
pub fn report_schema(value: &Json) -> Vec<String> {
    let mut paths = std::collections::BTreeSet::new();
    schema_walk(value, "", &mut paths);
    paths.into_iter().collect()
}

fn schema_walk(value: &Json, prefix: &str, out: &mut std::collections::BTreeSet<String>) {
    match value {
        Json::Obj(pairs) => {
            for (key, inner) in pairs {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                schema_walk(inner, &path, out);
            }
        }
        Json::Arr(items) => {
            let path = format!("{prefix}[]");
            if items.is_empty() {
                out.insert(path.clone());
            }
            for item in items {
                schema_walk(item, &path, out);
            }
        }
        Json::Null => {
            out.insert(format!("{prefix}:null"));
        }
        Json::Bool(_) => {
            out.insert(format!("{prefix}:bool"));
        }
        Json::Num(_) => {
            out.insert(format!("{prefix}:number"));
        }
        Json::Str(_) => {
            out.insert(format!("{prefix}:string"));
        }
    }
}

// ---------------------------------------------------------------------------
// Experiments

use apm_core::report::Table;

/// Campaign seed for the extension tables, derived from the profile
/// seed so `--seed` reseeds the whole search.
fn campaign_seed(profile: &ExperimentProfile) -> u64 {
    profile.seed ^ 0xC4A0_5EED
}

/// `ext-chaos-campaign`: a small fixed-budget campaign per store. Every
/// healthy store must pass every oracle on every sampled schedule, and
/// every schedule must replay deterministically.
pub fn chaos_campaign(profile: &ExperimentProfile) -> Table {
    let opts = ChaosOptions {
        seed: campaign_seed(profile),
        budget: 3,
        resilient: false,
    };
    let mut table = Table::new(
        crate::figures::title("ext-chaos-campaign"),
        "store",
        "count | count | 0/1",
    );
    table.columns = vec![
        "schedules".into(),
        "violations".into(),
        "deterministic".into(),
    ];
    for kind in StoreKind::ALL {
        let target = ChaosTarget::store(kind);
        let outcome = run_campaign(&target, profile, &opts);
        let nondet = outcome
            .report
            .schedules
            .iter()
            .filter(|s| s.outcome == ScheduleOutcome::NonDeterministic)
            .count();
        table.push_row(
            kind.name(),
            vec![
                Some(outcome.report.schedules.len() as f64),
                Some(outcome.report.violations() as f64),
                Some(if nondet == 0 { 1.0 } else { 0.0 }),
            ],
        );
    }
    table
}

/// `ext-chaos-shrink`: the seeded known-bug fixture. The campaign must
/// find the skip-hint-replay durability bug, and the shrinker must
/// reduce the failing schedule to a single crash window (two events)
/// that still fails when re-executed from scratch.
pub fn chaos_shrink(profile: &ExperimentProfile) -> Table {
    let opts = ChaosOptions {
        seed: campaign_seed(profile),
        budget: DEFAULT_BUDGET,
        resilient: false,
    };
    let target = ChaosTarget::broken_cassandra();
    let outcome = run_campaign(&target, profile, &opts);
    let mut table = Table::new(
        crate::figures::title("ext-chaos-shrink"),
        "fixture",
        "count | count | count | count | 0/1",
    );
    table.columns = vec![
        "violations".into(),
        "min_events".into(),
        "probes".into(),
        "resumed_probes".into(),
        "still_fails".into(),
    ];
    // The smallest minimized reproducer of any durability violation,
    // independently re-executed from scratch.
    let best = outcome
        .report
        .minimized
        .iter()
        .zip(&outcome.repros)
        .filter(|(m, _)| m.failing_oracles.contains(&OracleKind::Durability))
        .min_by_key(|(m, _)| m.minimized_events);
    let (min_events, probes, resumed, still_fails) = match best {
        Some((m, repro)) => {
            let refail = probe_schedule(&target, profile, &opts, &repro.schedule, &repro.enabled);
            (
                Some(m.minimized_events as f64),
                Some(f64::from(m.probes)),
                Some(f64::from(m.resumed_probes)),
                Some(if refail.contains(&OracleKind::Durability) {
                    1.0
                } else {
                    0.0
                }),
            )
        }
        None => (None, None, None, Some(0.0)),
    };
    table.push_row(
        "skip-hint-replay",
        vec![
            Some(outcome.report.violations() as f64),
            min_events,
            probes,
            resumed,
            still_fails,
        ],
    );
    table
}

/// Fixture campaign seed used by the regression tests, the
/// `ext-chaos-shrink` CI checks, and the schema golden. Chosen so the
/// sampled schedules include a multi-window schedule with a crash
/// window — the shrinker then has real work to do (probes, checkpoint
/// resumes) and converges to the single crash window.
pub const FIXTURE_SEED: u64 = 0xC4A0_5EED ^ 0xA9A1_2012;

/// Budget paired with [`FIXTURE_SEED`].
pub const FIXTURE_BUDGET: u32 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use apm_sim::FaultKind;

    fn profile() -> ExperimentProfile {
        ExperimentProfile::test()
    }

    #[test]
    fn oracle_names_are_stable_and_distinct() {
        let names: Vec<&str> = OracleKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "durability",
                "conservation",
                "availability-floor",
                "recovery-convergence"
            ]
        );
    }

    #[test]
    fn violations_counts_non_passing_schedules() {
        let schedule = |index, outcome| ScheduleRecord {
            index,
            events: Vec::new(),
            outcome,
            verdicts: Vec::new(),
        };
        let report = CampaignReport {
            version: CAMPAIGN_FORMAT_VERSION,
            store: "fixture".into(),
            seed: 7,
            budget: 3,
            resilient: false,
            schedules: vec![
                schedule(0, ScheduleOutcome::Pass),
                schedule(1, ScheduleOutcome::Violation),
                schedule(2, ScheduleOutcome::NonDeterministic),
            ],
            minimized: Vec::new(),
        };
        assert_eq!(report.violations(), 2);
    }

    #[test]
    fn generator_is_deterministic_and_windows_stay_disjoint() {
        let mut a = ChaosGenerator::new(11, 4);
        let mut b = ChaosGenerator::new(11, 4);
        for _ in 0..6 {
            let sa = a.sample(8.0);
            let sb = b.sample(8.0);
            assert_eq!(sa.windows, sb.windows);
            assert_eq!(sa.schedule, sb.schedule);
            // Windows are time-disjoint and inside [5 %, 60 %] of the
            // measurement window.
            let mut windows = sa.windows.clone();
            windows.sort_by_key(|w| w.start);
            for pair in windows.windows(2) {
                assert!(pair[0].until <= pair[1].start, "overlap: {pair:?}");
            }
            for w in &windows {
                assert!(w.start.as_nanos() >= 8_000_000_000 / 20);
                assert!(w.until.as_nanos() <= 8_000_000_000 * 3 / 5);
            }
        }
    }

    #[test]
    fn a_tiny_measurement_window_still_samples_well_formed_windows() {
        let mut generator = ChaosGenerator::new(5, 4);
        for _ in 0..8 {
            // `events` asserts every window ends after it starts.
            let chaos = generator.sample(1e-8);
            assert!(chaos.windows.iter().all(|w| w.start < w.until));
        }
    }

    #[test]
    fn schedule_tags_line_up_with_runner_event_order() {
        let mut generator = ChaosGenerator::new(3, 4);
        let chaos = generator.sample(8.0);
        assert_eq!(chaos.tags.len(), chaos.schedule.len());
        // Enabling everything masks nothing.
        let all = vec![true; chaos.windows.len()];
        assert!(chaos.mask(&all).iter().all(|&m| m));
        assert_eq!(chaos.enabled_events(&all), chaos.schedule.events().to_vec());
        // Disabling one window removes exactly its events.
        if chaos.windows.len() > 1 {
            let mut some = all.clone();
            some[0] = false;
            let kept = chaos.enabled_events(&some);
            assert!(kept.len() < chaos.schedule.len());
        }
    }

    #[test]
    fn fixture_bug_is_found_and_shrunk_to_one_window() {
        let p = profile();
        let opts = ChaosOptions {
            seed: FIXTURE_SEED,
            budget: FIXTURE_BUDGET,
            resilient: false,
        };
        let target = ChaosTarget::broken_cassandra();
        let outcome = run_campaign(&target, &p, &opts);
        assert!(
            outcome.report.violations() >= 1,
            "fixture bug not found: {:?}",
            outcome.report.schedules
        );
        let durability = outcome
            .report
            .minimized
            .iter()
            .find(|m| m.failing_oracles.contains(&OracleKind::Durability))
            .expect("a durability violation is minimized");
        assert!(
            durability.minimized_events <= 2,
            "shrinker left {} events",
            durability.minimized_events
        );
        assert!(
            durability.events.iter().any(|e| e.kind == FaultKind::Crash),
            "minimized schedule lost the crash: {:?}",
            durability.events
        );
        assert!(durability.probes >= 1, "shrinker never probed");
        assert!(
            durability.resumed_probes >= 1,
            "no probe resumed from a checkpoint ({} probes)",
            durability.probes
        );
    }

    #[test]
    fn minimized_schedule_still_fails_and_strict_subsets_pass() {
        let p = profile();
        let opts = ChaosOptions {
            seed: FIXTURE_SEED,
            budget: FIXTURE_BUDGET,
            resilient: false,
        };
        let target = ChaosTarget::broken_cassandra();
        let outcome = run_campaign(&target, &p, &opts);
        let (m, repro) = outcome
            .report
            .minimized
            .iter()
            .zip(&outcome.repros)
            .find(|(m, _)| m.failing_oracles.contains(&OracleKind::Durability))
            .expect("a durability repro");
        // The minimized subset still fails when re-executed from
        // scratch, with no checkpoint resume in the loop.
        let refail = probe_schedule(&target, &p, &opts, &repro.schedule, &repro.enabled);
        assert!(
            refail.contains(&OracleKind::Durability),
            "minimized schedule no longer fails: {refail:?}"
        );
        // 1-minimality: every strict subset of the kept windows passes.
        let kept: Vec<usize> = repro
            .enabled
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(w, _)| w)
            .collect();
        assert_eq!(kept.len() * 2, m.minimized_events, "windows are pairs");
        for drop in &kept {
            let mut subset = repro.enabled.clone();
            subset[*drop] = false;
            let failing = probe_schedule(&target, &p, &opts, &repro.schedule, &subset);
            assert!(
                failing.is_empty(),
                "dropping window {drop} still fails: {failing:?}"
            );
        }
    }

    #[test]
    fn a_resilient_campaign_replays_and_retries() {
        let p = profile();
        let opts = ChaosOptions {
            seed: FIXTURE_SEED,
            budget: 1,
            resilient: true,
        };
        let target = ChaosTarget::store(StoreKind::Cassandra);
        let outcome = run_campaign(&target, &p, &opts);
        assert!(outcome.report.resilient);
        assert_eq!(outcome.report.schedules.len(), 1);
        // Each sampled schedule, run twice from scratch under the
        // standard retry policy: the same bytes both times, and retries.
        let spec = CheckpointSpec::every(p.measure_secs / 4.0);
        let mut generator = ChaosGenerator::new(opts.seed, NODES as usize);
        for record in &outcome.report.schedules {
            assert_ne!(record.outcome, ScheduleOutcome::NonDeterministic);
            let chaos = generator.sample(p.measure_secs);
            assert_eq!(chaos.schedule.events(), &record.events[..]);
            let scenario = chaos_scenario(
                &target,
                &p,
                chaos.schedule,
                Some(spec.clone()),
                opts.resilient,
            );
            let (first, replay) = (scenario.run(), scenario.run());
            assert_eq!(
                run_fingerprint(&first.result),
                run_fingerprint(&replay.result),
                "schedule {} replayed differently",
                record.index
            );
            assert!(
                first.result.stats.resilience().retries > 0,
                "schedule {} recorded no retry",
                record.index
            );
        }
    }

    #[test]
    fn same_seed_yields_byte_identical_reports() {
        let p = profile();
        let opts = ChaosOptions {
            seed: FIXTURE_SEED,
            budget: FIXTURE_BUDGET,
            resilient: false,
        };
        let a = run_campaign(&ChaosTarget::broken_cassandra(), &p, &opts);
        let b = run_campaign(&ChaosTarget::broken_cassandra(), &p, &opts);
        assert_eq!(
            report_to_json(&a.report).to_pretty(),
            report_to_json(&b.report).to_pretty()
        );
    }

    #[test]
    fn report_schema_matches_the_golden_file() {
        let p = profile();
        let opts = ChaosOptions {
            seed: FIXTURE_SEED,
            budget: FIXTURE_BUDGET,
            resilient: false,
        };
        let outcome = run_campaign(&ChaosTarget::broken_cassandra(), &p, &opts);
        let report = report_to_json(&outcome.report);
        let schema = report_schema(&report).join("\n") + "\n";
        let golden = include_str!("../golden/chaos-report-schema.txt");
        assert_eq!(
            schema, golden,
            "report schema drifted; update crates/harness/golden/chaos-report-schema.txt \
             and bump CAMPAIGN_FORMAT_VERSION if the change is structural"
        );
        // The bytes, not just the shape: this campaign has full and
        // minimized event lists, so every event field and fault-kind
        // name the writer renders is pinned here.
        assert_eq!(
            fnv1a64(report.to_pretty().as_bytes()),
            0xa645_1baf_93ac_6fef,
            "fixture campaign report bytes moved"
        );
    }
}
