//! Qualitative shape checks: the paper's claims as executable assertions.
//!
//! Matching absolute numbers on a simulator is not the bar — matching the
//! *shape* is: who wins, by roughly what factor, where the crossovers
//! fall. Each check encodes one claim from §5/§8 and evaluates it against
//! a generated figure table. The integration tests run them; `repro`
//! prints them under each figure.

use apm_core::report::Table;

/// Result of one shape check.
#[derive(Clone, Debug)]
pub struct ShapeResult {
    /// The paper claim, quoted or paraphrased.
    pub claim: &'static str,
    /// Whether the measured table satisfies it.
    pub pass: bool,
    /// Human-readable evidence.
    pub detail: String,
}

impl ShapeResult {
    fn of(claim: &'static str, pass: bool, detail: String) -> ShapeResult {
        ShapeResult {
            claim,
            pass,
            detail,
        }
    }
}

fn cell(t: &Table, row: &str, col: &str) -> Option<f64> {
    t.get(row, col)
}

fn ratio_check(
    claim: &'static str,
    numer: Option<f64>,
    denom: Option<f64>,
    min: f64,
    max: f64,
) -> ShapeResult {
    match (numer, denom) {
        (Some(n), Some(d)) if d > 0.0 => {
            let r = n / d;
            ShapeResult::of(
                claim,
                r >= min && r <= max,
                format!("ratio {r:.2} (want {min:.2}..{max:.2})"),
            )
        }
        _ => ShapeResult::of(claim, false, "missing cells".into()),
    }
}

fn order_check(
    claim: &'static str,
    t: &Table,
    row: &str,
    smaller: &str,
    larger: &str,
) -> ShapeResult {
    match (cell(t, row, smaller), cell(t, row, larger)) {
        (Some(s), Some(l)) => ShapeResult::of(
            claim,
            s < l,
            format!("{smaller}={s:.1} vs {larger}={l:.1} at {row}"),
        ),
        _ => ShapeResult::of(claim, false, "missing cells".into()),
    }
}

/// Shape checks for a figure id against its generated table.
pub fn checks_for(figure: &str, t: &Table) -> Vec<ShapeResult> {
    match figure {
        "fig3" => vec![
            order_check("§5.1: Redis has the highest single-node throughput", t, "1", "cassandra", "redis"),
            order_check("§5.1: HBase is the slowest single-node system", t, "1", "hbase", "voldemort"),
            ratio_check(
                "§5.1: Cassandra scales linearly 1→12",
                cell(t, "12", "cassandra"),
                cell(t, "1", "cassandra"),
                8.0,
                14.0,
            ),
            ratio_check(
                "§5.1: Voldemort scales linearly 1→12",
                cell(t, "12", "voldemort"),
                cell(t, "1", "voldemort"),
                8.0,
                14.0,
            ),
            ratio_check(
                "§5.1: HBase scales linearly 1→12",
                cell(t, "12", "hbase"),
                cell(t, "1", "hbase"),
                8.0,
                14.0,
            ),
            ratio_check(
                "§5.1: VoltDB slows down for multiple nodes",
                cell(t, "4", "voltdb"),
                cell(t, "1", "voltdb"),
                0.0,
                0.8,
            ),
            ratio_check(
                "§5.1: Redis scaling is sub-linear (sharding library)",
                cell(t, "12", "redis"),
                cell(t, "1", "redis"),
                2.0,
                10.0,
            ),
            ratio_check(
                "§8: Cassandra's 12-node throughput dominates",
                cell(t, "12", "cassandra"),
                cell(t, "12", "voldemort"),
                1.0,
                5.0,
            ),
        ],
        "fig4" => vec![
            order_check("§5.1: Voldemort has the lowest web-store read latency", t, "4", "voldemort", "cassandra"),
            order_check("§5.1: HBase's read latency is much higher than Cassandra's", t, "4", "cassandra", "hbase"),
            ratio_check(
                "§5.1: Voldemort read latency ≈ 230-260 µs, stable",
                cell(t, "12", "voldemort"),
                cell(t, "1", "voldemort"),
                0.5,
                2.0,
            ),
        ],
        "fig5" => vec![
            order_check("§5.1: HBase trades read latency for write latency", t, "4", "hbase", "cassandra"),
            order_check("§5.1: Cassandra has the highest stable write latency (vs voldemort)", t, "4", "voldemort", "cassandra"),
        ],
        "fig6" => vec![
            order_check("§5.2: VoltDB achieves the highest 1-node RW throughput (vs cassandra)", t, "1", "cassandra", "voltdb"),
            ratio_check(
                "§5.2: Cassandra RW scales linearly",
                cell(t, "12", "cassandra"),
                cell(t, "1", "cassandra"),
                8.0,
                14.0,
            ),
        ],
        "fig9" => vec![
            ratio_check(
                "§5.3: HBase throughput grows strongly with the write ratio (W vs R at 12 nodes is checked cross-figure; here 1→12 linear)",
                cell(t, "12", "hbase"),
                cell(t, "1", "hbase"),
                6.0,
                16.0,
            ),
        ],
        "fig10" => vec![
            order_check("§5.3: HBase read latency under W is the worst", t, "12", "cassandra", "hbase"),
        ],
        "fig11" => vec![
            ratio_check(
                "§5.3: HBase's write latency increases by a factor of ~20 under W (vs its sub-ms Workload-R level of ~0.9 ms)",
                cell(t, "4", "hbase"),
                Some(0.9),
                8.0,
                40.0,
            ),
            order_check("§5.3: Voldemort's write latency is almost unchanged (stays below HBase's W level)", t, "4", "voldemort", "hbase"),
        ],
        "fig12" => vec![
            order_check("§5.4: MySQL has the best single-node RS throughput (vs cassandra)", t, "1", "cassandra", "mysql"),
            ratio_check(
                "§5.4: MySQL does not scale with the number of nodes",
                cell(t, "12", "mysql"),
                cell(t, "1", "mysql"),
                0.0,
                3.0,
            ),
            ratio_check(
                "§5.4: Cassandra RS scales linearly",
                cell(t, "12", "cassandra"),
                cell(t, "1", "cassandra"),
                7.0,
                14.0,
            ),
        ],
        "fig13" => vec![
            order_check("§5.4: Redis scans are faster than Cassandra's", t, "4", "redis", "cassandra"),
            order_check("§5.4: HBase scan latency is almost in the second range (worst)", t, "4", "cassandra", "hbase"),
            ratio_check(
                "§5.4: MySQL scans are slow for >2 nodes",
                cell(t, "12", "mysql"),
                cell(t, "2", "mysql"),
                2.0,
                f64::INFINITY,
            ),
        ],
        "fig14" => vec![
            ratio_check(
                "§5.5: MySQL RSW collapses to a tiny fraction of Cassandra",
                cell(t, "4", "mysql"),
                cell(t, "4", "cassandra"),
                0.0,
                0.1,
            ),
            order_check("§5.5: VoltDB achieves the best 1-node RSW throughput (vs cassandra)", t, "1", "cassandra", "voltdb"),
        ],
        "fig15" | "fig16" => vec![
            ratio_check(
                "§5.6: at half load Cassandra's latency falls to a fraction of its saturated level (normalised=100)",
                cell(t, "50", "cassandra"),
                Some(100.0),
                0.0,
                0.45,
            ),
            ratio_check(
                "§5.6: Voldemort shows only small reductions (not query-processing-bound)",
                cell(t, "50", "voldemort"),
                Some(100.0),
                0.6,
                1.05,
            ),
        ],
        "fig17" => vec![
            order_check("§5.7: Cassandra stores the data most efficiently", t, "12", "cassandra", "mysql"),
            order_check("§5.7: HBase is the most inefficient store", t, "12", "voldemort", "hbase"),
            ratio_check(
                "§5.7: HBase uses ~10× the raw data size",
                cell(t, "12", "hbase"),
                cell(t, "12", "raw"),
                8.0,
                13.0,
            ),
        ],
        "fig18" => vec![
            ratio_check(
                "§5.8: Cassandra throughput rises ~26× from R to W on Cluster D",
                cell(t, "W", "cassandra"),
                cell(t, "R", "cassandra"),
                10.0,
                60.0,
            ),
            ratio_check(
                "§5.8: HBase rises ~15× from R to W",
                cell(t, "W", "hbase"),
                cell(t, "R", "hbase"),
                5.0,
                40.0,
            ),
            ratio_check(
                "§5.8: Voldemort rises only ~3× from R to W",
                cell(t, "W", "voldemort"),
                cell(t, "R", "voldemort"),
                1.5,
                8.0,
            ),
        ],
        "fig19" => vec![
            order_check("§5.8: Voldemort has by far the best Cluster-D read latency", t, "R", "voldemort", "cassandra"),
            order_check("§5.8: HBase is worst for W reads on Cluster D", t, "W", "cassandra", "hbase"),
        ],
        "fig20" => vec![
            order_check("§5.8: HBase write latency stays very low on Cluster D", t, "RW", "hbase", "cassandra"),
        ],
        "ext-faults-crash" => vec![
            ratio_check(
                "faults: at rf=2 a single-node crash keeps availability ≥ 99%",
                cell(t, "rf2", "availability"),
                Some(1.0),
                0.99,
                1.001,
            ),
            ratio_check(
                "faults: at rf=1 the crashed node's key range is unavailable (availability clearly below rf=2)",
                cell(t, "rf1", "availability"),
                cell(t, "rf2", "availability"),
                0.0,
                0.96,
            ),
            ratio_check(
                "faults: rf=1 sees errors during the outage",
                cell(t, "rf1", "errors"),
                Some(1.0),
                1.0,
                f64::INFINITY,
            ),
            ratio_check(
                "faults: post-restart throughput recovers within 10% of the pre-fault mean (rf=2)",
                cell(t, "rf2", "recovery_ratio"),
                Some(1.0),
                0.9,
                f64::INFINITY,
            ),
            ratio_check(
                "faults: post-restart throughput recovers within 10% of the pre-fault mean (rf=1)",
                cell(t, "rf1", "recovery_ratio"),
                Some(1.0),
                0.9,
                f64::INFINITY,
            ),
        ],
        "ext-faults-slowdisk" => vec![
            ratio_check(
                "faults: a 16× fail-slow disk dents mid-window throughput",
                cell(t, "x16", "mid_ops_per_sec"),
                cell(t, "x1", "mid_ops_per_sec"),
                0.0,
                0.9,
            ),
            ratio_check(
                "faults: degraded is not down — zero errors at x16",
                cell(t, "x16", "errors"),
                Some(1.0),
                0.0,
                0.0,
            ),
            ratio_check(
                "faults: availability stays 1.0 through the slowdown",
                cell(t, "x16", "availability"),
                Some(1.0),
                0.999,
                1.001,
            ),
            ratio_check(
                "faults: throughput recovers once the disk is restored",
                cell(t, "x16", "recovery_ratio"),
                Some(1.0),
                0.85,
                f64::INFINITY,
            ),
        ],
        "ext-faults-partition" => vec![
            ratio_check(
                "faults: without deadlines a partition stalls the whole closed loop",
                cell(t, "stall", "mid_ops_per_sec"),
                cell(t, "stall", "pre_ops_per_sec"),
                0.0,
                0.1,
            ),
            ratio_check(
                "faults: stalled connections are not errors",
                cell(t, "stall", "errors"),
                Some(1.0),
                0.0,
                0.0,
            ),
            ratio_check(
                "faults: a 10 ms client deadline keeps the surviving shards serving",
                cell(t, "timeout-10ms", "mid_ops_per_sec"),
                cell(t, "timeout-10ms", "pre_ops_per_sec"),
                0.05,
                1.0,
            ),
            ratio_check(
                "faults: deadlines surface the partition as timeout errors",
                cell(t, "timeout-10ms", "errors"),
                Some(1.0),
                1.0,
                f64::INFINITY,
            ),
        ],
        "ext-faults-failover" => vec![
            ratio_check(
                "faults: Cassandra rf=2 failover is near-instant (availability ≥ 99%)",
                cell(t, "cassandra-rf2", "availability"),
                Some(1.0),
                0.99,
                1.001,
            ),
            ratio_check(
                "faults: HBase pays a detection + WAL-replay availability gap",
                cell(t, "hbase", "availability"),
                cell(t, "cassandra-rf2", "availability"),
                0.0,
                0.99,
            ),
            ratio_check(
                "faults: Redis without replication or persistence is worst — the shard's data is gone",
                cell(t, "redis", "availability"),
                cell(t, "hbase", "availability"),
                0.0,
                0.98,
            ),
        ],
        "ext-replication" => vec![
            ratio_check(
                "ext: rf=3 costs throughput vs rf=1 (every write fans out)",
                cell(t, "3", "throughput"),
                cell(t, "1", "throughput"),
                0.0,
                0.999,
            ),
            ratio_check(
                "ext: rf=3 triples per-node disk use at the 10-minute mark",
                cell(t, "3", "disk_gb_per_node_at_10m"),
                cell(t, "1", "disk_gb_per_node_at_10m"),
                2.5,
                3.5,
            ),
        ],
        "ext-compression" => vec![
            ratio_check(
                "ext: compression shrinks on-disk data to 40-70% of raw",
                cell(t, "on", "disk_gb_per_node_at_10m"),
                cell(t, "off", "disk_gb_per_node_at_10m"),
                0.4,
                0.7,
            ),
            ratio_check(
                "ext: decompression costs read throughput",
                cell(t, "on", "thr_R"),
                cell(t, "off", "thr_R"),
                0.0,
                0.999,
            ),
        ],
        "ext-tokens" => vec![ratio_check(
            "§6: random tokens unbalance the ring; the hottest node gates the closed loop",
            cell(t, "random", "throughput"),
            cell(t, "optimal", "throughput"),
            0.0,
            0.97,
        )],
        "ext-skew" => vec![
            ratio_check(
                "ext: zipfian skew keeps the closed loop serving (no collapse vs uniform)",
                cell(t, "zipfian", "throughput"),
                cell(t, "uniform", "throughput"),
                0.25,
                1.5,
            ),
            ratio_check(
                "ext: latest-skew keeps the closed loop serving (no collapse vs uniform)",
                cell(t, "latest", "throughput"),
                cell(t, "uniform", "throughput"),
                0.25,
                1.5,
            ),
        ],
        "ext-compaction" => vec![
            ratio_check(
                "ext: both compaction strategies sustain comparable write throughput",
                cell(t, "leveled", "thr_W"),
                cell(t, "size-tiered", "thr_W"),
                0.25,
                4.0,
            ),
            ratio_check(
                "ext: both compaction strategies sustain comparable read throughput",
                cell(t, "leveled", "thr_R"),
                cell(t, "size-tiered", "thr_R"),
                0.25,
                4.0,
            ),
        ],
        "ext-mongodb" => vec![
            ratio_check(
                "§7 (Jeong): MongoDB's global write lock caps W throughput well below Cassandra's",
                cell(t, "W", "mongodb"),
                cell(t, "W", "cassandra"),
                0.0,
                0.6,
            ),
            ratio_check(
                "§7 (Jeong): MongoDB reads beat HBase's HDFS indirection",
                cell(t, "R", "mongodb"),
                cell(t, "R", "hbase"),
                1.0,
                f64::INFINITY,
            ),
        ],
        "ext-elasticity" => {
            // Rows are per-second timeline indices; the bootstrap lands at
            // the midpoint. Compare the post-bootstrap mean against the
            // steady pre-bootstrap mean (skipping the warmup second and
            // the bootstrap second itself).
            let timeline: Vec<f64> = t
                .rows
                .iter()
                .filter_map(|r| t.get(r, "ops_per_sec"))
                .collect();
            let half = timeline.len() / 2;
            if timeline.len() < 6 || half < 2 {
                vec![ShapeResult::of(
                    "ext: elasticity timeline long enough to judge the bootstrap",
                    false,
                    format!("only {} samples", timeline.len()),
                )]
            } else {
                let pre = timeline[1..half - 1].iter().sum::<f64>() / (half - 2) as f64;
                let post = timeline[half + 1..].iter().sum::<f64>()
                    / (timeline.len() - half - 1) as f64;
                vec![ShapeResult::of(
                    "§6 (elastic speedup): throughput survives a live node bootstrap (post ≥ 75% of pre)",
                    post > pre * 0.75,
                    format!("pre {pre:.0} ops/s, post {post:.0} ops/s"),
                )]
            }
        }
        "ext-res-retry" => vec![
            ratio_check(
                "resilience: the retry ladder outlasts the rf=1 outage — availability strictly above the unprotected run",
                cell(t, "retry-on", "availability"),
                cell(t, "retry-off", "availability"),
                1.000001,
                f64::INFINITY,
            ),
            ratio_check(
                "resilience: retries absorb the crash window's errors",
                cell(t, "retry-on", "errors"),
                cell(t, "retry-off", "errors"),
                0.0,
                0.5,
            ),
            ratio_check(
                "resilience: the retry path actually fires during the outage",
                cell(t, "retry-on", "retries"),
                Some(1.0),
                1.0,
                f64::INFINITY,
            ),
        ],
        "ext-res-hedge" => vec![
            ratio_check(
                "resilience: hedged reads cut the fail-slow read p99 strictly below the unhedged run",
                cell(t, "hedge-on", "p99_read_ms"),
                cell(t, "hedge-off", "p99_read_ms"),
                0.0,
                0.999999,
            ),
            ratio_check(
                "resilience: hedges fire once the tracker sees the slow tail",
                cell(t, "hedge-on", "hedges"),
                Some(1.0),
                1.0,
                f64::INFINITY,
            ),
            ratio_check(
                "resilience: some hedges beat the slow primary, none double-count",
                cell(t, "hedge-on", "hedge_wins"),
                cell(t, "hedge-on", "hedges"),
                1e-9,
                1.0,
            ),
        ],
        "ext-res-breaker" => vec![
            ratio_check(
                "resilience: an open breaker absorbs most of the partition's timeout errors",
                cell(t, "breaker-on", "errors"),
                cell(t, "breaker-off", "errors"),
                0.0,
                0.5,
            ),
            ratio_check(
                "resilience: shed fast-fails replace 10 ms timeouts while the shard is gone",
                cell(t, "breaker-on", "shed"),
                Some(1.0),
                1.0,
                f64::INFINITY,
            ),
            ratio_check(
                "resilience: the breaker both opens and recovers (≥ 2 legal transitions)",
                cell(t, "breaker-on", "breaker_transitions"),
                Some(1.0),
                2.0,
                f64::INFINITY,
            ),
        ],
        "ext-res-storm" => vec![
            ratio_check(
                "resilience: admission control caps the retry storm well below the unbounded run",
                cell(t, "budgeted", "retries"),
                cell(t, "unbounded", "retries"),
                0.0,
                0.9,
            ),
            ratio_check(
                "resilience: the drained token bucket sheds the excess attempts",
                cell(t, "budgeted", "shed"),
                Some(1.0),
                1.0,
                f64::INFINITY,
            ),
            ratio_check(
                "resilience: without a budget nothing is shed (the storm runs free)",
                cell(t, "unbounded", "shed"),
                Some(1.0),
                0.0,
                0.0,
            ),
        ],
        "ext-obs-profile" => vec![
            ratio_check(
                "obs: reads consume real server CPU service time",
                cell(t, "cassandra", "cpu_service_ms"),
                Some(1.0),
                1e-6,
                f64::INFINITY,
            ),
            order_check(
                "obs (§5.6): the saturated loop is processing-bound — CPU queue-wait exceeds CPU service",
                t,
                "cassandra",
                "cpu_service_ms",
                "cpu_queue_ms",
            ),
            ratio_check(
                "obs: the in-memory Redis attributes exactly zero time to server disks",
                cell(t, "redis", "disk_service_ms"),
                Some(1.0),
                0.0,
                0.0,
            ),
            ratio_check(
                "obs: Redis's single-threaded event loop shows up as server compute",
                cell(t, "redis", "cpu_service_ms"),
                Some(1.0),
                1e-6,
                f64::INFINITY,
            ),
        ],
        "ext-obs-telemetry" => {
            // Rows are one-second window indices of a run bounded to 70 %
            // of maximum throughput; judge the whole timeline.
            let windows: Vec<(f64, f64, f64, f64, f64)> = t
                .rows
                .iter()
                .filter_map(|r| {
                    Some((
                        t.get(r, "ops_per_sec")?,
                        t.get(r, "error_rate")?,
                        t.get(r, "p50_ms")?,
                        t.get(r, "p99_ms")?,
                        t.get(r, "cpu_util")?,
                    ))
                })
                .collect();
            if windows.len() < 2 {
                return vec![ShapeResult::of(
                    "obs: telemetry timeline has at least two windows",
                    false,
                    format!("only {} windows", windows.len()),
                )];
            }
            let max_ops = windows.iter().map(|w| w.0).fold(f64::MIN, f64::max);
            let min_ops = windows.iter().map(|w| w.0).fold(f64::MAX, f64::min);
            vec![
                ShapeResult::of(
                    "obs: the throttled timeline is steady — every window within 2× of the busiest",
                    min_ops > 0.0 && max_ops / min_ops < 2.0,
                    format!("ops/s range {min_ops:.0}..{max_ops:.0}"),
                ),
                ShapeResult::of(
                    "obs: quantiles are ordered (p99 ≥ p50) in every window",
                    windows.iter().all(|w| w.3 >= w.2),
                    format!("{} windows checked", windows.len()),
                ),
                ShapeResult::of(
                    "obs (§5.6): at 70% load the run is error-free",
                    windows.iter().all(|w| w.1 == 0.0),
                    "error_rate == 0 in every window".into(),
                ),
                ShapeResult::of(
                    "obs: bounded load keeps CPU utilisation positive but unsaturated",
                    windows.iter().all(|w| w.4 > 0.0 && w.4 < 1.0),
                    format!(
                        "cpu_util range {:.2}..{:.2}",
                        windows.iter().map(|w| w.4).fold(f64::MAX, f64::min),
                        windows.iter().map(|w| w.4).fold(f64::MIN, f64::max)
                    ),
                ),
            ]
        }
        "ext-snap-resume" => {
            let stores: Vec<(String, f64, f64, Option<f64>)> = t
                .rows
                .iter()
                .filter_map(|r| {
                    Some((
                        r.clone(),
                        t.get(r, "checkpoints")?,
                        t.get(r, "resume_match")?,
                        t.get(r, "divergent_at"),
                    ))
                })
                .collect();
            if stores.is_empty() {
                return vec![ShapeResult::of(
                    "snap: at least one store row",
                    false,
                    "no rows".into(),
                )];
            }
            vec![
                ShapeResult::of(
                    "snap: every store captures at least three checkpoints",
                    stores.iter().all(|s| s.1 >= 3.0),
                    format!(
                        "checkpoint counts {:?}",
                        stores.iter().map(|s| s.1).collect::<Vec<_>>()
                    ),
                ),
                ShapeResult::of(
                    "snap: resuming from a mid-run checkpoint is byte-identical for every store",
                    stores.iter().all(|s| s.2 == 1.0),
                    format!(
                        "mismatches: {:?}",
                        stores
                            .iter()
                            .filter(|s| s.2 != 1.0)
                            .map(|s| s.0.as_str())
                            .collect::<Vec<_>>()
                    ),
                ),
                ShapeResult::of(
                    "snap: bisection localizes the injected divergence to window 2 for every store",
                    stores.iter().all(|s| s.3 == Some(2.0)),
                    format!(
                        "divergent_at {:?}",
                        stores.iter().map(|s| s.3).collect::<Vec<_>>()
                    ),
                ),
            ]
        }
        "ext-chaos-campaign" => {
            let stores: Vec<(String, f64, f64, f64)> = t
                .rows
                .iter()
                .filter_map(|r| {
                    Some((
                        r.clone(),
                        t.get(r, "schedules")?,
                        t.get(r, "violations")?,
                        t.get(r, "deterministic")?,
                    ))
                })
                .collect();
            if stores.is_empty() {
                return vec![ShapeResult::of(
                    "chaos: at least one store row",
                    false,
                    "no rows".into(),
                )];
            }
            vec![
                ShapeResult::of(
                    "chaos: every store's campaign completes its full schedule budget",
                    stores.iter().all(|s| s.1 >= 3.0),
                    format!(
                        "schedule counts {:?}",
                        stores.iter().map(|s| s.1).collect::<Vec<_>>()
                    ),
                ),
                ShapeResult::of(
                    "chaos: no healthy store violates any correctness oracle",
                    stores.iter().all(|s| s.2 == 0.0),
                    format!(
                        "violators: {:?}",
                        stores
                            .iter()
                            .filter(|s| s.2 != 0.0)
                            .map(|s| s.0.as_str())
                            .collect::<Vec<_>>()
                    ),
                ),
                ShapeResult::of(
                    "chaos: every schedule replays deterministically for every store",
                    stores.iter().all(|s| s.3 == 1.0),
                    format!(
                        "deterministic flags {:?}",
                        stores.iter().map(|s| s.3).collect::<Vec<_>>()
                    ),
                ),
            ]
        }
        "ext-chaos-shrink" => vec![
            ratio_check(
                "chaos: the campaign finds the seeded skip-hint-replay durability bug",
                cell(t, "skip-hint-replay", "violations"),
                Some(1.0),
                1.0,
                f64::INFINITY,
            ),
            ratio_check(
                "chaos: the shrinker reduces the failing schedule to one crash window (2 events)",
                cell(t, "skip-hint-replay", "min_events"),
                Some(1.0),
                1.0,
                2.0,
            ),
            ratio_check(
                "chaos: shrinking does real search work (at least one probe run)",
                cell(t, "skip-hint-replay", "probes"),
                Some(1.0),
                1.0,
                f64::INFINITY,
            ),
            ratio_check(
                "chaos: at least one probe resumes from a pre-divergence checkpoint",
                cell(t, "skip-hint-replay", "resumed_probes"),
                Some(1.0),
                1.0,
                f64::INFINITY,
            ),
            ratio_check(
                "chaos: the minimized schedule still fails when re-executed from scratch",
                cell(t, "skip-hint-replay", "still_fails"),
                Some(1.0),
                1.0,
                1.0,
            ),
        ],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: &[(&str, &[(&str, f64)])]) -> Table {
        let mut t = Table::new("t", "nodes", "x");
        t.columns = rows[0].1.iter().map(|(c, _)| c.to_string()).collect();
        for (row, cells) in rows {
            t.push_row(row, cells.iter().map(|(_, v)| Some(*v)).collect());
        }
        t
    }

    #[test]
    fn order_check_passes_and_fails_correctly() {
        let t = table(&[("1", &[("a", 1.0), ("b", 2.0)])]);
        assert!(order_check("a<b", &t, "1", "a", "b").pass);
        assert!(!order_check("b<a", &t, "1", "b", "a").pass);
        assert!(!order_check("missing", &t, "2", "a", "b").pass);
    }

    #[test]
    fn ratio_check_respects_bounds() {
        assert!(ratio_check("x", Some(10.0), Some(1.0), 8.0, 14.0).pass);
        assert!(!ratio_check("x", Some(20.0), Some(1.0), 8.0, 14.0).pass);
        assert!(!ratio_check("x", None, Some(1.0), 8.0, 14.0).pass);
        assert!(!ratio_check("x", Some(1.0), Some(0.0), 0.0, 1.0).pass);
    }

    #[test]
    fn every_artifact_has_checks_or_is_exempt() {
        // Asked of the real index and the real `checks_for`: an
        // experiment nobody sanity-checks can drift without failing.
        // Table 1 is the workload definition, and the latency-only
        // figures 7/8 share their siblings' dynamics.
        let exempt = ["table1", "fig7", "fig8"];
        let dummy = table(&[("1", &[("a", 1.0)])]);
        for artifact in crate::figures::ARTIFACTS {
            if exempt.contains(&artifact.id) {
                continue;
            }
            assert!(
                !checks_for(artifact.id, &dummy).is_empty(),
                "{} has no shape checks",
                artifact.id
            );
        }
    }
}
