//! A MongoDB-(2.0-era)-like document store — the architecture class the
//! paper considered and excluded.
//!
//! §4 (Cattell's taxonomy): *"Cartell also describes a fourth type of
//! store, document stores. However, in our initial research we did not
//! find any document store that seemed to match our requirements and
//! therefore did not include them in the comparison."* §7 cites Jeong's
//! three-way benchmark where *"MongoDB is shown to be less performant"*
//! than Cassandra and HBase. §8 closes with *"we will extend the range of
//! tested architectures"* — this store is that extension, so the
//! `ext-mongodb` experiment can show what the comparison would have
//! looked like.
//!
//! 2012 MongoDB (mmapv1) mechanisms modelled:
//! * documents in memory-mapped files — reads go through the OS page
//!   cache (a buffer pool sized to nearly all of RAM);
//! * the **global write lock**: one writer at a time per `mongod` — the
//!   defining 2012 bottleneck, a capacity-1 resource per node that every
//!   insert/update holds while it runs;
//! * range sharding by `_id` through `mongos` routers: clean chunk
//!   routing for point ops *and* scans (unlike the hash-sharded stores);
//! * BSON bloat: a 75-byte record becomes a ~390-byte document
//!   (field-name strings repeated per document, 16-byte ObjectId-style
//!   padding, power-of-two allocation).

use crate::api::{load_partitioned, CostModel, DistributedStore, Request, StoreCtx};
use crate::routing::RegionMap;
use apm_core::ops::{OpOutcome, Operation};
use apm_core::record::Row;
use apm_core::snap::{SnapError, SnapReader, SnapWriter};
use apm_core::snap_state;
use apm_sim::kernel::ResourceId;
use apm_sim::{Engine, Plan, SimDuration};
use apm_storage::btree::BTreeConfig;
use apm_storage::encoding::StorageFormat;
use apm_storage::paged::{PagedTree, WriteBack};
use std::ops::Range;

/// Read cost: BSON decode + `_id` index walk. A receipt counts the 75
/// raw bytes of a record; every `per_byte_ns` here is 390 / 75 of the
/// cost of a document byte (40, 30 and 20 ns), the BSON bloat below.
const READ_COST: CostModel = CostModel {
    base_ns: 190_000,
    per_probe_ns: 6_000,
    per_byte_ns: 208,
};
/// Write cost while holding the global write lock: BSON encode, index
/// insert, mmap page dirtying.
const WRITE_LOCK_COST: CostModel = CostModel {
    base_ns: 90_000,
    per_probe_ns: 4_000,
    per_byte_ns: 156,
};
/// Write-path CPU outside the lock (message parse, validation).
const WRITE_CPU: SimDuration = SimDuration::from_micros(120);
/// Range scan fragment (getmore batches over a chunk).
const SCAN_COST: CostModel = CostModel {
    base_ns: 420_000,
    per_probe_ns: 6_000,
    per_byte_ns: 104,
};
/// Client (driver + mongos hop folded in) cost per op and the request's
/// size on the wire.
const REQUEST: Request = Request::new(SimDuration::from_micros(25), 140);
/// mmapv1 page cache: essentially all of RAM.
const CACHE_FRACTION: f64 = 0.9;
/// BSON document layout: ~390 B per 75-B record (see module docs).
fn mongo_format() -> StorageFormat {
    StorageFormat {
        name: "mongodb",
        bytes_per_record: 390,
        includes_log: false,
    }
}
/// 16 KB extent pages hold ~40 BSON documents.
const MONGO_PAGE: BTreeConfig = BTreeConfig {
    leaf_capacity: 40,
    internal_capacity: 200,
    page_bytes: 16 << 10,
};
/// Chunks per shard (pre-split, like the HBase region map).
const CHUNKS_PER_SHARD: usize = 8;
/// Response sizes on the wire.
const RESP_READ_BYTES: u64 = 420;
const RESP_WRITE_BYTES: u64 = 60;
const RESP_ROW_BYTES: u64 = 400;

struct Shard {
    pages: PagedTree,
    write_lock: ResourceId,
}

/// The store.
pub struct MongoStore {
    ctx: StoreCtx,
    chunks: RegionMap,
    shards: Vec<Shard>,
}

impl MongoStore {
    /// Creates the store: one `mongod` per node, range-sharded chunks.
    pub fn new(ctx: StoreCtx, engine: &mut Engine) -> MongoStore {
        let pool_pages = ((ctx.scaled_ram() as f64 * CACHE_FRACTION) as u64 / MONGO_PAGE.page_bytes)
            .max(16) as usize;
        let shards = (0..ctx.node_count())
            .map(|i| Shard {
                pages: PagedTree::new(MONGO_PAGE, pool_pages, WriteBack::InPlace),
                write_lock: engine.add_resource(format!("mongod{i}.writelock"), 1),
            })
            .collect();
        MongoStore {
            chunks: RegionMap::new(ctx.node_count(), CHUNKS_PER_SHARD),
            ctx,
            shards,
        }
    }
}

impl DistributedStore for MongoStore {
    fn name(&self) -> &'static str {
        "mongodb"
    }

    fn ctx(&self) -> &StoreCtx {
        &self.ctx
    }

    fn load_row(&mut self, row: Row) {
        self.shards[self.chunks.route(&row.key())].pages.load(row);
    }

    fn load_range_on(&mut self, seqs: Range<u64>, workers: usize) {
        let chunks = &self.chunks;
        load_partitioned(
            &mut self.shards,
            seqs,
            workers,
            |key| [chunks.route(key)],
            |shard, row| shard.pages.load(row),
        );
    }

    fn plan_op(&mut self, client: u32, op: &Operation, _engine: &mut Engine) -> (OpOutcome, Plan) {
        match op {
            Operation::Read { key } => {
                let shard_idx = self.chunks.route(key);
                let shard = &mut self.shards[shard_idx];
                let (found, receipt) = shard.pages.get(key);
                let cpu = READ_COST.cpu(&receipt);
                let plan =
                    self.ctx
                        .round_trip(client, shard_idx, REQUEST, RESP_READ_BYTES, |plan| {
                            plan.cpu(shard_idx, cpu).disks(shard_idx, &receipt.io)
                        });
                (OpOutcome::read(found), plan)
            }
            Operation::Insert { row } => {
                let shard_idx = self.chunks.route(&row.key());
                let shard = &mut self.shards[shard_idx];
                let receipt = shard.pages.insert(*row);
                let locked = WRITE_LOCK_COST.cpu(&receipt);
                let write_lock = shard.write_lock;
                let plan =
                    self.ctx
                        .round_trip(client, shard_idx, REQUEST, RESP_WRITE_BYTES, |plan| {
                            // The global write lock serialises all writers on
                            // this mongod.
                            plan.cpu(shard_idx, WRITE_CPU)
                                .acquire(write_lock, locked)
                                .disks(shard_idx, &receipt.io)
                        });
                (OpOutcome::Done, plan)
            }
            Operation::Scan { start, len } => {
                // Range sharding: the scan starts in one chunk and almost
                // always stays on one shard (like HBase's region scans).
                let shard_idx = *self
                    .chunks
                    .scan_route(start, *len)
                    .first()
                    .expect("scan has a home chunk");
                let shard = &mut self.shards[shard_idx];
                let (rows, receipt) = shard.pages.scan_count(start, *len);
                let cpu = SCAN_COST.cpu(&receipt);
                let plan = self.ctx.round_trip(
                    client,
                    shard_idx,
                    REQUEST,
                    RESP_ROW_BYTES * rows.max(1) as u64,
                    |plan| plan.cpu(shard_idx, cpu).disks(shard_idx, &receipt.io),
                );
                (OpOutcome::Scanned(rows), plan)
            }
        }
    }

    fn disk_bytes_per_node(&self) -> Option<u64> {
        let records: u64 = self.shards.iter().map(|s| s.pages.record_count()).sum();
        Some(mongo_format().disk_usage(records) / self.shards.len() as u64)
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
    MongoStore { ctx: _, chunks: _, shards: each }
    Shard { pages, write_lock: _ }
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

    fn make(engine: &mut Engine, nodes: u32) -> MongoStore {
        let ctx = StoreCtx::new(
            engine,
            ClusterSpec::cluster_m(),
            nodes,
            StoreCtx::standard_client_machines(nodes),
            0.01,
            43,
        );
        MongoStore::new(ctx, engine)
    }

    fn quick_run(nodes: u32, workload: Workload) -> crate::runner::RunResult {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, nodes);
        let config = RunConfig::new(
            workload,
            ClientConfig::cluster_m(nodes).with_window(0.5, 3.0),
            20_000,
            nodes,
            47,
        );
        run_benchmark(&mut engine, &mut s, &config)
    }

    #[test]
    fn reads_find_loaded_documents() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 3);
        for seq in 0..3_000 {
            s.load(&record_for_seq(seq));
        }
        for seq in (0..3_000).step_by(251) {
            let r = record_for_seq(seq);
            let (outcome, _) = s.plan_op(0, &Operation::Read { key: r.key }, &mut engine);
            assert_eq!(outcome, OpOutcome::Found(r.into()), "seq {seq}");
        }
    }

    #[test]
    fn global_write_lock_caps_write_throughput() {
        // With the lock serialising writes, the gap between read-heavy
        // and write-heavy throughput must be large — the Jeong result
        // the paper cites (§7).
        let r = quick_run(1, Workload::r()).throughput();
        let w = quick_run(1, Workload::w()).throughput();
        assert!(w < r * 0.6, "the write lock must cap W: R={r} vs W={w}");
        // Lock-bound ceiling: ~1/(write lock hold time) per node.
        assert!(w < 14_000.0, "W above the single-writer ceiling: {w}");
    }

    #[test]
    fn reads_scale_but_writes_do_not() {
        let w1 = quick_run(1, Workload::w()).throughput();
        let w4 = quick_run(4, Workload::w()).throughput();
        // Sharding spreads the locks, so writes do scale with shards —
        // but each node stays single-writer: per-node W is flat.
        let per_node_1 = w1;
        let per_node_4 = w4 / 4.0;
        assert!(
            (per_node_4 / per_node_1 - 1.0).abs() < 0.3,
            "per-node W must stay lock-bound: {per_node_1} vs {per_node_4}"
        );
    }

    #[test]
    fn write_latency_reflects_lock_queueing() {
        let result = quick_run(1, Workload::w());
        let w = result.mean_latency_ms(OpKind::Insert).unwrap();
        let r = quick_run(1, Workload::r());
        let read = r.mean_latency_ms(OpKind::Read).unwrap();
        assert!(
            w > read,
            "lock queueing must show in write latency: {w} vs {read}"
        );
    }

    #[test]
    fn range_scans_stay_on_one_shard() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 4);
        for seq in 0..4_000 {
            s.load(&record_for_seq(seq));
        }
        let (outcome, plan) = s.plan_op(
            0,
            &Operation::Scan {
                start: record_for_seq(10).key,
                len: 50,
            },
            &mut engine,
        );
        assert!(matches!(outcome, OpOutcome::Scanned(n) if n > 0));
        // Single-shard scan: far fewer steps than an n-way fan-out.
        assert!(
            plan.total_steps() < 15,
            "scan should not fan out: {}",
            plan.total_steps()
        );
    }

    #[test]
    fn bson_bloat_shows_in_disk_usage() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 2);
        for seq in 0..10_000 {
            s.load(&record_for_seq(seq));
        }
        let per_node = s.disk_bytes_per_node().unwrap();
        assert_eq!(per_node, 390 * 5_000);
        let expansion = 390.0 / 75.0;
        assert!(expansion > 5.0, "BSON bloat must exceed 5x raw");
    }
}
