//! The Voldemort-like store: a client-routed DHT over per-node B-trees.
//!
//! §4.3: Voldemort is "a distributed, fault-tolerant, persistent hash
//! table" — keys hash to partitions (the paper set two per node), the
//! *client* routes directly to the owning node, and each node persists
//! through an embedded BerkeleyDB JE B-tree with an in-heap cache.
//!
//! The paper's signature Voldemort observations, and their mechanisms
//! here:
//! * *Lowest, most stable latency* (230–260 µs, Fig 4/5): the fat client
//!   routes in one hop and the per-node service is a cached B-tree probe.
//! * *Moderate throughput* (≈12 K ops/s/node, Fig 3): the client library
//!   is the bottleneck — §6 describes its default 10-thread / 50-connection
//!   limits that "was always reached"; we cap connections per node and
//!   charge the client-side routing CPU.
//! * *Symmetric read/write latency* (Fig 4 vs 5): writes are a cached
//!   leaf update plus an asynchronous JE log append (no group-commit
//!   stall, no fsync on the foreground path).
//! * *Cluster D*: BerkeleyDB JE is log-structured — writes append the
//!   new record version to the log (sequential) and only need the
//!   branch-level BIN, which is partially cache-resident; reads must
//!   fetch the record from the log (random). So writes gain from the
//!   write-heavy workloads, but far less than the pure-LSM stores whose
//!   write path never reads: ×3 from R to W on Cluster D (Fig 18).

use crate::api::{
    load_partitioned, BackgroundWork, CostModel, DistributedStore, Request, StoreCtx,
};
use crate::routing::PartitionMap;
use apm_core::keyspace::SplitRng;
use apm_core::ops::{OpOutcome, Operation, RejectReason};
use apm_core::record::{Row, RAW_RECORD_SIZE};
use apm_core::snap::{SnapError, SnapReader, SnapWriter};
use apm_sim::{Engine, Plan, SimDuration};
use apm_storage::btree::BTreeConfig;
use apm_storage::encoding::{voldemort_format, StorageFormat};
use apm_storage::paged::{PagedTree, WriteBack};
use apm_storage::wal::{CommitLog, SyncPolicy};
use std::ops::Range;

/// Server-side request cost (protobuf parse, store lookup dispatch).
const SERVER_COST: CostModel = CostModel {
    base_ns: 40_000,
    per_probe_ns: 5_000,
    per_byte_ns: 20,
};
/// Client-side routing/versioning cost per operation — the fat client —
/// and the request's size on the wire.
const REQUEST: Request = Request::new(SimDuration::from_micros(200), 110);
/// Connections per node the throttled client sustains (§6's thread and
/// connection limits; calibrated to ≈12 K ops/s per node, Fig 3).
const CONNECTIONS_PER_NODE: u32 = 5;
/// BDB JE pages: sized so a leaf holds ~29 records, matching JE's ~550 B
/// per-record on-disk footprint (Fig 17) rather than a dense layout.
const BDB_PAGE: BTreeConfig = BTreeConfig {
    leaf_capacity: 28,
    internal_capacity: 120,
    page_bytes: 16 << 10,
};
/// Fraction of RAM effectively caching B-tree pages (BDB cache + OS page
/// cache over JE log files).
const CACHE_FRACTION: f64 = 0.8;
/// Probability that a *write* whose target page fell out of the unified
/// pool still needs a random read: JE writes only require the BIN
/// (branch) node, and BINs are preferentially retained by JE's cache, so
/// most write-path misses in our unified pool are for record data the
/// append does not need. Calibrated to Fig 18's ×3 R→W gain on Cluster D.
const WRITE_MISS_READ_PROB: f64 = 0.35;
/// JE log flush granularity (background).
const LOG_FLUSH_BYTES: u64 = 4 << 20;
/// Response sizes on the wire.
const RESP_READ_BYTES: u64 = 160;
const RESP_WRITE_BYTES: u64 = 50;

struct Node {
    pages: PagedTree,
    log: CommitLog,
    rng: SplitRng,
}

/// The store.
pub struct VoldemortStore {
    ctx: StoreCtx,
    map: PartitionMap,
    format: StorageFormat,
    nodes: Vec<Node>,
}

impl VoldemortStore {
    /// Creates the store.
    pub fn new(ctx: StoreCtx, _engine: &mut Engine) -> VoldemortStore {
        let cache_pages = ((ctx.scaled_ram() as f64 * CACHE_FRACTION) as u64 / BDB_PAGE.page_bytes)
            .max(16) as usize;
        let nodes = (0..ctx.node_count())
            .map(|i| Node {
                pages: PagedTree::new(BDB_PAGE, cache_pages, WriteBack::Log),
                log: CommitLog::new(SyncPolicy::Deferred, 50),
                rng: SplitRng::new(ctx.seed ^ ((i as u64) << 24)),
            })
            .collect();
        VoldemortStore {
            map: PartitionMap::new(ctx.node_count()),
            format: voldemort_format(),
            ctx,
            nodes,
        }
    }

    fn maybe_flush_log(&mut self, node: usize, engine: &mut Engine) {
        // JE flushes its log asynchronously; charge it when enough bytes
        // accumulated (scaled with the dataset).
        let threshold = ((LOG_FLUSH_BYTES as f64 * self.ctx.scale) as u64).max(64 << 10);
        if self.nodes[node].log.unflushed() < threshold {
            return;
        }
        let pending = self.nodes[node].log.take_unflushed();
        // Nothing follows a flush's completion.
        let flush = self.ctx.plan().disk_seq(node, pending);
        engine.submit(flush.finish(), BackgroundWork::Stream(node).token());
    }
}

impl DistributedStore for VoldemortStore {
    fn name(&self) -> &'static str {
        "voldemort"
    }

    fn ctx(&self) -> &StoreCtx {
        &self.ctx
    }

    fn load_row(&mut self, row: Row) {
        self.nodes[self.map.route(&row.key())].pages.load(row);
    }

    fn load_range_on(&mut self, seqs: Range<u64>, workers: usize) {
        let map = &self.map;
        load_partitioned(
            &mut self.nodes,
            seqs,
            workers,
            |key| [map.route(key)],
            |node, row| node.pages.load(row),
        );
    }

    fn plan_op(&mut self, client: u32, op: &Operation, engine: &mut Engine) -> (OpOutcome, Plan) {
        match op {
            Operation::Read { key } => {
                let node_idx = self.map.route(key);
                let node = &mut self.nodes[node_idx];
                let (found, receipt) = node.pages.get(key);
                let cpu = SERVER_COST.cpu(&receipt);
                let plan =
                    self.ctx
                        .round_trip(client, node_idx, REQUEST, RESP_READ_BYTES, |plan| {
                            plan.cpu(node_idx, cpu).disks(node_idx, &receipt.io)
                        });
                (OpOutcome::read(found), plan)
            }
            Operation::Insert { row } | Operation::Update { row } => {
                let node_idx = self.map.route(&row.key());
                let node = &mut self.nodes[node_idx];
                let mut receipt = node.pages.insert(*row);
                // JE appends the record to its log, so a page the write
                // path missed only sometimes has to be read: one draw a
                // miss, in page order.
                let rng = &mut node.rng;
                receipt
                    .io
                    .retain(|io| !io.class.is_read() || rng.next_f64() < WRITE_MISS_READ_PROB);
                // The append itself is asynchronous.
                let wal = node.log.append(RAW_RECORD_SIZE as u64);
                debug_assert!(wal.io.is_none(), "deferred log must not sync inline");
                let cpu = SERVER_COST.cpu(&receipt);
                let plan =
                    self.ctx
                        .round_trip(client, node_idx, REQUEST, RESP_WRITE_BYTES, |plan| {
                            plan.cpu(node_idx, cpu).disks(node_idx, &receipt.io)
                        });
                self.maybe_flush_log(node_idx, engine);
                (OpOutcome::Done, plan)
            }
            Operation::Scan { .. } => {
                // §5.4: "the existing YCSB client for Project Voldemort
                // ... does not support scans. Therefore, we omitted
                // Project Voldemort in the following experiments."
                // The error is produced without contacting a server.
                let plan = self
                    .ctx
                    .plan()
                    .client_cpu(client, SimDuration::from_micros(5));
                (
                    OpOutcome::Rejected(RejectReason::Unsupported),
                    plan.finish(),
                )
            }
        }
    }

    fn connection_cap(&self) -> Option<u32> {
        if self.ctx.cluster.name == "D" {
            // §5.8/§6: on the disk-bound cluster the client ran with the
            // reduced 2-connections-per-core budget and Voldemort's fixed
            // client thread limit did not scale with nodes. Little's law
            // on the paper's numbers (≈1 K ops/s at 5–6 ms, Fig 18/19)
            // puts the outstanding-op count near 6.
            Some(8)
        } else {
            Some(CONNECTIONS_PER_NODE * self.ctx.node_count() as u32)
        }
    }

    fn disk_bytes_per_node(&self) -> Option<u64> {
        let records: u64 = self.nodes.iter().map(|n| n.pages.record_count()).sum();
        Some(self.format.disk_usage(records) / self.nodes.len() as u64)
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        // Construction-time config and topology are not part of the stream.
        let VoldemortStore {
            ctx: _,
            map: _,
            format: _,
            nodes,
        } = self;
        for Node { pages, log, rng } in nodes {
            pages.snap_state(w);
            log.snap_state(w);
            w.put(rng);
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader, _engine: &mut Engine) -> Result<(), SnapError> {
        let VoldemortStore {
            ctx: _,
            map: _,
            format: _,
            nodes,
        } = self;
        for Node { pages, log, rng } in nodes {
            pages.restore_state(r)?;
            log.restore_state(r)?;
            *rng = r.get()?;
        }
        Ok(())
    }
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

    fn make(engine: &mut Engine, cluster: ClusterSpec, nodes: u32, scale: f64) -> VoldemortStore {
        let ctx = StoreCtx::new(
            engine,
            cluster,
            nodes,
            StoreCtx::standard_client_machines(nodes),
            scale,
            23,
        );
        VoldemortStore::new(ctx, engine)
    }

    fn quick_run(nodes: u32, workload: Workload) -> crate::runner::RunResult {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, ClusterSpec::cluster_m(), nodes, 0.01);
        let config = RunConfig::new(
            workload,
            ClientConfig::cluster_m(nodes).with_window(0.5, 3.0),
            20_000,
            nodes,
            9,
        );
        run_benchmark(&mut engine, &mut s, &config)
    }

    #[test]
    fn reads_find_loaded_data() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, ClusterSpec::cluster_m(), 3, 0.01);
        for seq in 0..3_000 {
            s.load(&record_for_seq(seq));
        }
        for seq in (0..3_000).step_by(151) {
            let r = record_for_seq(seq);
            let (outcome, _) = s.plan_op(0, &Operation::Read { key: r.key }, &mut engine);
            assert_eq!(outcome, OpOutcome::Found(r.into()), "seq {seq}");
        }
    }

    #[test]
    fn throughput_sits_between_hbase_and_cassandra() {
        // Fig 3: ≈12 K ops/s on one node.
        let t = quick_run(1, Workload::r()).throughput();
        assert!((7_000.0..18_000.0).contains(&t), "voldemort 1-node R: {t}");
    }

    #[test]
    fn latency_is_low_and_read_write_symmetric() {
        // Figs 4/5: ~230-260 µs, reads ≈ writes.
        let result = quick_run(1, Workload::rw());
        let r = result.mean_latency_ms(OpKind::Read).unwrap();
        let w = result.mean_latency_ms(OpKind::Insert).unwrap();
        assert!(r < 1.0, "read latency too high: {r} ms");
        assert!(w < 1.0, "write latency too high: {w} ms");
        assert!(
            (r - w).abs() / r.max(w) < 0.5,
            "latencies should be symmetric: {r} vs {w}"
        );
    }

    #[test]
    fn scaling_is_near_linear() {
        let one = quick_run(1, Workload::r()).throughput();
        let four = quick_run(4, Workload::r()).throughput();
        let speedup = four / one;
        assert!((3.0..5.0).contains(&speedup), "speedup {speedup:.2}");
    }

    #[test]
    fn scans_are_rejected_as_unsupported() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, ClusterSpec::cluster_m(), 1, 0.01);
        let (outcome, _) = s.plan_op(
            0,
            &Operation::Scan {
                start: record_for_seq(0).key,
                len: 50,
            },
            &mut engine,
        );
        assert_eq!(outcome, OpOutcome::Rejected(RejectReason::Unsupported));
    }

    #[test]
    fn cluster_d_reads_pay_buffer_misses() {
        // §5.8: on the disk-bound cluster the B-tree thrashes. Load more
        // data than the scaled pool holds and check reads produce IO.
        let mut engine = Engine::new();
        let mut s = make(&mut engine, ClusterSpec::cluster_d(), 1, 0.002);
        // 4 GB × 0.8 × 0.002 = ~6.7 MB pool = ~420 pages; load 40 K
        // records → ~1400 leaves: guaranteed thrash.
        for seq in 0..40_000 {
            s.load(&record_for_seq(seq));
        }
        let mut io_reads = 0;
        for seq in (0..40_000).step_by(199) {
            let r = record_for_seq(seq);
            let node = s.map.route(&r.key);
            io_reads += s.nodes[node].pages.get(&r.key).1.read_ios();
        }
        assert!(
            io_reads > 50,
            "thrashing pool must issue disk reads: {io_reads}"
        );
    }

    #[test]
    fn load_touches_the_pool_exactly_as_insert_does() {
        // Same thrashing pool as above; one store loads, the other takes
        // the receipt-building path record by record.
        let mut engine = Engine::new();
        let mut loaded = make(&mut engine, ClusterSpec::cluster_d(), 2, 0.002);
        let mut inserted = make(&mut engine, ClusterSpec::cluster_d(), 2, 0.002);
        let mut ios = 0;
        for seq in 0..40_000 {
            let r = record_for_seq(seq);
            loaded.load(&r);
            let node = &mut inserted.nodes[inserted.map.route(&r.key)];
            ios += node.pages.insert(r.into()).io.len();
        }
        assert!(ios > 10_000, "the pool must thrash: {ios} I/Os");
        let state = |s: &VoldemortStore| {
            let mut w = SnapWriter::new();
            s.snap_state(&mut w);
            w.into_bytes()
        };
        assert!(state(&loaded) == state(&inserted));
    }

    #[test]
    fn connection_cap_limits_population() {
        let mut engine = Engine::new();
        let s = make(&mut engine, ClusterSpec::cluster_m(), 4, 0.01);
        assert_eq!(s.connection_cap(), Some(20));
    }

    #[test]
    fn disk_usage_tracks_the_bdb_format() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, ClusterSpec::cluster_m(), 2, 0.01);
        for seq in 0..10_000 {
            s.load(&record_for_seq(seq));
        }
        let per_node = s.disk_bytes_per_node().unwrap();
        let expected = voldemort_format().disk_usage(5_000);
        assert_eq!(per_node, expected);
    }
}
