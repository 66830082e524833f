//! The sharded-MySQL store: independent InnoDB nodes behind the RDBMS
//! YCSB client's consistent hashing.
//!
//! §4.6: the paper did *not* use MySQL Cluster — it spread "independent
//! single-node servers on each node" and used "the already implemented
//! RDBMS YCSB client which connects to the databases using JDBC and
//! shards the data using a consistent hashing algorithm" (which §5.1
//! found "did a much better sharding than the Jedis library").
//!
//! Mechanisms:
//! * Point ops route to exactly one shard and run against a real
//!   InnoDB-style B+tree through a buffer pool; redo + binlog are group
//!   committed (a few ms write latency, Fig 5/8).
//! * Scans are the weak spot (§5.4: the client's scan "is translated to
//!   a SQL query that retrieves all records with a key equal or greater
//!   than the start key. In the case of MySQL this is inefficient."):
//!   every shard is queried and the client merges — so the per-scan work
//!   is duplicated on *all* n nodes, which is why scan throughput stays
//!   flat as the cluster grows while latency climbs (Figs 12/13).
//! * Under insert-heavy churn (workload RSW) the range query degrades to
//!   a full table scan — modelling the optimizer falling off the index
//!   range path once statistics go stale at high insert rates — which
//!   collapses RSW throughput to tens of ops/s and below one op/s on
//!   larger clusters (§5.5, Fig 14).

use crate::api::{load_partitioned, CostModel, DistributedStore, Request, StoreCtx};
use crate::routing::RdbmsShards;
use apm_core::ops::{OpOutcome, Operation};
use apm_core::record::Row;
use apm_core::snap::{SnapError, SnapReader, SnapWriter};
use apm_core::snap_state;
use apm_sim::{Engine, Plan, SimDuration, SimTime};
use apm_storage::btree::BTreeConfig;
use apm_storage::encoding::{mysql_format, StorageFormat};
use apm_storage::paged::{PagedTree, WriteBack};
use apm_storage::wal::{CommitLog, SyncPolicy};
use std::ops::Range;

/// Point query cost (parse, optimize, index dive, row copy) — calibrated
/// to §5.1: "no significant differences between the throughput of
/// Cassandra and MySQL" (~25 K ops/s on one node).
const POINT_COST: CostModel = CostModel {
    base_ns: 270_000,
    per_probe_ns: 6_000,
    per_byte_ns: 30,
};
/// Insert cost (row build, index insert, redo record, binlog event).
const WRITE_COST: CostModel = CostModel {
    base_ns: 290_000,
    per_probe_ns: 6_000,
    per_byte_ns: 30,
};
/// Healthy indexed range scan fragment per shard.
const SCAN_COST: CostModel = CostModel {
    base_ns: 380_000,
    per_probe_ns: 6_000,
    per_byte_ns: 15,
};
/// CPU per row of a degraded full table scan.
const FULL_SCAN_NS_PER_ROW: u64 = 2_500;
/// Client JDBC cost per statement and its size on the wire.
const REQUEST: Request = Request::new(SimDuration::from_micros(20), 130);
/// Redo/binlog group-commit window.
const COMMIT_WINDOW: SimDuration = SimDuration::from_millis(1);
/// InnoDB buffer pool share of RAM (§6: "the size of the buffer pool
/// accordingly to the size of the memory").
const BUFFER_POOL_FRACTION: f64 = 0.75;
/// Per-shard insert rate (ops/s) beyond which the optimizer's statistics
/// churn makes the range scan degrade to a full table scan. Workload RSW
/// (50 % inserts) crosses it; RS (6 % inserts) does not. Hysteresis: the
/// degradation persists until inserts almost stop (stale statistics stay
/// stale while the table keeps changing).
const STATS_CHURN_ON: f64 = 2_000.0;

/// InnoDB page layout: ~250 B effective per record (Fig 17's data file
/// half of the 500 B total) → 16 KB page holds ≈64 records.
const INNODB_PAGE: BTreeConfig = BTreeConfig {
    leaf_capacity: 64,
    internal_capacity: 300,
    page_bytes: 16 << 10,
};
/// Response sizes on the wire (MySQL protocol).
const RESP_READ_BYTES: u64 = 190;
const RESP_WRITE_BYTES: u64 = 60;
const RESP_ROW_BYTES: u64 = 110;

struct Shard {
    pages: PagedTree,
    log: CommitLog,
    /// Insert-rate estimator: window start + count.
    rate_window_start: SimTime,
    rate_window_count: u64,
    insert_rate: f64,
    churning: bool,
}

impl Shard {
    /// Load-phase insert: warms the pool, discarding the IO (untimed).
    fn load(&mut self, row: Row) {
        self.pages.load(row);
        self.log.append(75);
    }

    fn note_insert(&mut self, now: SimTime) {
        self.rate_window_count += 1;
        let elapsed = now.since(self.rate_window_start).as_secs_f64();
        if elapsed >= 1.0 {
            self.insert_rate = self.rate_window_count as f64 / elapsed;
            self.rate_window_start = now;
            self.rate_window_count = 0;
            if self.insert_rate > STATS_CHURN_ON {
                // Sticky for the rest of the run: nothing in the workload
                // re-runs ANALYZE, so the stale plan persists.
                self.churning = true;
            }
        }
    }

    fn stats_churning(&self) -> bool {
        self.churning
    }
}

/// The store.
pub struct MysqlStore {
    ctx: StoreCtx,
    shards_map: RdbmsShards,
    format: StorageFormat,
    shards: Vec<Shard>,
}

impl MysqlStore {
    /// Creates the store.
    pub fn new(ctx: StoreCtx, _engine: &mut Engine) -> MysqlStore {
        let pool_pages = ((ctx.scaled_ram() as f64 * BUFFER_POOL_FRACTION) as u64
            / INNODB_PAGE.page_bytes)
            .max(16) as usize;
        let shards = (0..ctx.node_count())
            .map(|_| Shard {
                pages: PagedTree::new(INNODB_PAGE, pool_pages, WriteBack::InPlace),
                log: CommitLog::new(
                    SyncPolicy::GroupCommit {
                        window: COMMIT_WINDOW,
                    },
                    60,
                ),
                rate_window_start: SimTime::ZERO,
                rate_window_count: 0,
                insert_rate: 0.0,
                churning: false,
            })
            .collect();
        MysqlStore {
            shards_map: RdbmsShards::new(ctx.node_count()),
            format: mysql_format(),
            ctx,
            shards,
        }
    }

    fn scan_plan(
        &mut self,
        client: u32,
        start: &apm_core::record::MetricKey,
        len: usize,
    ) -> (OpOutcome, Plan) {
        let n = self.shards.len();
        let mut branches = Vec::with_capacity(n);
        let mut total = 0usize;
        for (shard_idx, shard) in self.shards.iter_mut().enumerate() {
            let churning = shard.stats_churning();
            let rows_in_shard = shard.pages.record_count();
            let (returned, receipt) = shard.pages.scan_count(start, len);
            total += returned;
            let cpu = SCAN_COST.cpu(&receipt);
            let (cpu, resp_bytes) = if churning {
                // Degraded plan: full table scan, and the driver streams
                // the *unbounded* result set ("all records with a key
                // equal or greater than the start key", §5.4) — on
                // average half the shard — to the client.
                (
                    cpu + SimDuration::from_nanos(rows_in_shard * FULL_SCAN_NS_PER_ROW),
                    RESP_ROW_BYTES * (rows_in_shard / 2).max(returned as u64),
                )
            } else {
                (cpu, RESP_ROW_BYTES * returned.max(1) as u64)
            };
            // One statement of the scatter-gather: the client CPU is paid
            // once, around the fan-out.
            branches.push(self.ctx.round_trip(
                client,
                shard_idx,
                REQUEST.leg(),
                resp_bytes,
                |plan| plan.cpu(shard_idx, cpu).disks(shard_idx, &receipt.io),
            ));
        }
        let merge = SimDuration::from_nanos(3_000 + 400 * (n * len) as u64);
        let plan = self
            .ctx
            .plan()
            .client_cpu(client, REQUEST.client_cpu)
            .join(branches, n)
            .client_cpu(client, merge)
            .finish();
        // Shards hold disjoint keys, so the client-side merge keeps the
        // `len` smallest of `total` distinct rows.
        (OpOutcome::Scanned(total.min(len)), plan)
    }
}

impl DistributedStore for MysqlStore {
    fn name(&self) -> &'static str {
        "mysql"
    }

    fn ctx(&self) -> &StoreCtx {
        &self.ctx
    }

    fn load_row(&mut self, row: Row) {
        self.shards[self.shards_map.route(&row.key())].load(row);
    }

    fn load_range_on(&mut self, seqs: Range<u64>, workers: usize) {
        let map = &self.shards_map;
        load_partitioned(
            &mut self.shards,
            seqs,
            workers,
            |key| [map.route(key)],
            Shard::load,
        );
    }

    fn plan_op(&mut self, client: u32, op: &Operation, engine: &mut Engine) -> (OpOutcome, Plan) {
        match op {
            Operation::Read { key } => {
                let shard_idx = self.shards_map.route(key);
                let shard = &mut self.shards[shard_idx];
                let (found, receipt) = shard.pages.get(key);
                let cpu = POINT_COST.cpu(&receipt);
                let plan =
                    self.ctx
                        .round_trip(client, shard_idx, REQUEST, RESP_READ_BYTES, |plan| {
                            plan.cpu(shard_idx, cpu).disks(shard_idx, &receipt.io)
                        });
                (OpOutcome::read(found), plan)
            }
            Operation::Insert { row } => {
                let shard_idx = self.shards_map.route(&row.key());
                let now = engine.now();
                let shard = &mut self.shards[shard_idx];
                shard.note_insert(now);
                let receipt = shard.pages.insert(*row);
                let wal = shard.log.append(75);
                let cpu = WRITE_COST.cpu(&receipt);
                // Redo + binlog are group committed after the page work.
                let plan =
                    self.ctx
                        .round_trip(client, shard_idx, REQUEST, RESP_WRITE_BYTES, |plan| {
                            plan.cpu(shard_idx, cpu)
                                .disks(shard_idx, &receipt.io)
                                .wal(shard_idx, &wal)
                        });
                (OpOutcome::Done, plan)
            }
            Operation::Scan { start, len } => self.scan_plan(client, start, *len),
        }
    }

    fn disk_bytes_per_node(&self) -> Option<u64> {
        let records: u64 = self.shards.iter().map(|s| s.pages.record_count()).sum();
        Some(self.format.disk_usage(records) / self.shards.len() as u64)
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        apm_core::snap::SnapState::snap_state(self, w);
    }

    fn restore_state(&mut self, r: &mut SnapReader, _engine: &mut Engine) -> Result<(), SnapError> {
        apm_core::snap::SnapState::restore_state(self, r)
    }
}

// Construction-time config and topology are not part of the stream.
snap_state! {
    MysqlStore { ctx: _, shards_map: _, format: _, shards: each }
    Shard { pages, log, rate_window_start, rate_window_count, insert_rate, churning }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_benchmark, RunConfig};
    use apm_core::driver::ClientConfig;
    use apm_core::keyspace::record_for_seq;
    use apm_core::ops::OpKind;
    use apm_core::workload::Workload;
    use apm_sim::ClusterSpec;

    fn make(engine: &mut Engine, nodes: u32, scale: f64) -> MysqlStore {
        let ctx = StoreCtx::new(
            engine,
            ClusterSpec::cluster_m(),
            nodes,
            StoreCtx::standard_client_machines(nodes),
            scale,
            29,
        );
        MysqlStore::new(ctx, engine)
    }

    fn quick_run(nodes: u32, workload: Workload) -> crate::runner::RunResult {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, nodes, 0.01);
        let config = RunConfig::new(
            workload,
            ClientConfig::cluster_m(nodes).with_window(0.5, 3.0),
            20_000,
            nodes,
            31,
        );
        run_benchmark(&mut engine, &mut s, &config)
    }

    #[test]
    fn point_ops_roundtrip() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 3, 0.01);
        for seq in 0..3_000 {
            s.load(&record_for_seq(seq));
        }
        for seq in (0..3_000).step_by(173) {
            let r = record_for_seq(seq);
            let (outcome, _) = s.plan_op(0, &Operation::Read { key: r.key }, &mut engine);
            assert_eq!(outcome, OpOutcome::Found(r.into()), "seq {seq}");
        }
    }

    #[test]
    fn single_node_read_throughput_matches_cassandra_band() {
        // Fig 3: "no significant differences between the throughput of
        // Cassandra and MySQL" (~25 K ops/s).
        let t = quick_run(1, Workload::r()).throughput();
        assert!((15_000.0..40_000.0).contains(&t), "mysql 1-node R: {t}");
    }

    #[test]
    fn write_latency_reflects_group_commit() {
        let result = quick_run(1, Workload::rw());
        let w = result.mean_latency_ms(OpKind::Insert).unwrap();
        let r = result.mean_latency_ms(OpKind::Read).unwrap();
        assert!(
            w > r,
            "redo/binlog group commit must cost writes extra: {w} vs {r}"
        );
    }

    #[test]
    fn rs_scans_hit_every_shard_so_throughput_does_not_scale() {
        // Fig 12: "MySQL has the best throughput for a single node, but
        // does not scale with the number of nodes".
        let one = quick_run(1, Workload::rs()).throughput();
        let four = quick_run(4, Workload::rs()).throughput();
        assert!(
            four < one * 2.5,
            "RS must not scale linearly: {one} → {four}"
        );
        assert!(one > 8_000.0, "1-node RS should be strong: {one}");
    }

    #[test]
    fn rs_scan_latency_grows_with_cluster_size() {
        // Fig 13: MySQL scan latency climbs steeply past 2 nodes.
        let two = quick_run(2, Workload::rs());
        let eight = quick_run(8, Workload::rs());
        let lat2 = two.mean_latency_ms(OpKind::Scan).unwrap();
        let lat8 = eight.mean_latency_ms(OpKind::Scan).unwrap();
        assert!(lat8 > lat2 * 2.0, "scan latency must grow: {lat2} → {lat8}");
    }

    #[test]
    fn rsw_collapses_under_insert_churn() {
        // §5.5: "MySQL's throughput is as low as 20 operations per second
        // for one node and goes below one operation per second for four
        // and more nodes" — insert churn degrades the range scans.
        // Needs a longer window than the other tests: the collapse is a
        // convoy effect that takes a few simulated seconds to converge.
        let long_run = |workload: Workload| {
            let mut engine = Engine::new();
            let mut s = make(&mut engine, 2, 0.01);
            let config = RunConfig::new(
                workload,
                ClientConfig::cluster_m(2).with_window(2.0, 10.0),
                20_000,
                2,
                31,
            );
            run_benchmark(&mut engine, &mut s, &config)
        };
        let rs = long_run(Workload::rs()).throughput();
        let rsw = long_run(Workload::rsw()).throughput();
        assert!(
            rsw < rs / 20.0,
            "RSW must collapse vs RS: rs={rs} rsw={rsw}"
        );
        assert!(rsw < 2_000.0, "RSW absolute throughput must be tiny: {rsw}");
    }

    #[test]
    fn insert_rate_estimator_trips_only_under_heavy_churn() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 1, 0.01);
        for seq in 0..1_000 {
            s.load(&record_for_seq(seq));
        }
        assert!(!s.shards[0].stats_churning(), "fresh shard must not churn");
        // Simulate 10 K inserts/s for 2 simulated seconds.
        for i in 0..20_000u64 {
            let now = SimTime(i * 100_000); // one insert every 100 µs
            s.shards[0].note_insert(now);
        }
        assert!(
            s.shards[0].stats_churning(),
            "10 K inserts/s must trip the estimator"
        );
    }

    #[test]
    fn resume_refuses_a_sealed_checkpoint_whose_page_arena_is_no_tree() {
        use crate::runner::{resume_benchmark, CheckpointSpec};
        use apm_core::record::{FieldValues, MetricKey};
        let client = ClientConfig::cluster_m(1).with_window(0.1, 0.4);
        let mut config = RunConfig::new(Workload::rw(), client, 2_000, 1, 31);
        config.checkpoints = Some(CheckpointSpec::every(0.2));
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 1, 0.01);
        let run = run_benchmark(&mut engine, &mut s, &config);
        let (header, body) = apm_core::snap::open(&run.checkpoints[0].bytes).unwrap();
        // The body opens with shard 0's page arena: the page count, then
        // page 0, the first leaf — tag, entries, `Some(next)`.
        let mut r = SnapReader::new(body);
        assert!(r.u64().unwrap() > 1 && r.u8().unwrap() == 1);
        r.get::<Vec<(MetricKey, FieldValues)>>().unwrap();
        assert_eq!(r.u8(), Ok(1));
        let next = body.len() - r.remaining();
        let mut hostile = body.to_vec();
        hostile[next..next + 8].fill(0xFF);
        // Re-sealed, so the container's checksum passes.
        let sealed = apm_core::snap::seal(&header, &hostile);
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 1, 0.01);
        let refused = resume_benchmark(&mut engine, &mut s, &config, &sealed).map(|_| ());
        assert!(format!("{refused:?}").contains("BTree page"), "{refused:?}");
    }

    #[test]
    fn disk_usage_includes_binlog() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 2, 0.01);
        for seq in 0..10_000 {
            s.load(&record_for_seq(seq));
        }
        let per_node = s.disk_bytes_per_node().unwrap();
        assert_eq!(per_node, mysql_format().disk_usage(5_000));
        assert!(mysql_format().includes_log);
    }
}
