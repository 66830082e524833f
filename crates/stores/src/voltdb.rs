//! The VoltDB-like store: partitioned in-memory serial executors.
//!
//! §4.5: the database is split into disjoint partitions, each owned by a
//! single-threaded *site* (6 per host, the paper's setting); stored
//! procedures execute serially without locks. Single-partition
//! transactions (read/insert/update by key) run at one site;
//! scans are multi-partition transactions coordinated across all sites.
//!
//! The multi-node cliff (§5.1: "all configurations that we tested showed
//! a slow-down for multiple nodes ... the synchronous querying in YCSB is
//! not suitable for a distributed VoltDB configuration"): VoltDB 2.x
//! establishes a *global transaction order*; every transaction passes a
//! cluster-wide sequencing stage whose cost grows with the number of
//! nodes to coordinate. With synchronous clients this stage is on every
//! request's critical path, so aggregate throughput *falls* as nodes are
//! added — reproduced here by a capacity-1 "global initiator" resource
//! whose per-transaction service is proportional to the node count.

use crate::api::{load_partitioned, CostModel, DistributedStore, Request, StoreCtx, StorePlan};
use crate::routing::SiteMap;
use apm_core::ops::{OpOutcome, Operation};
use apm_core::record::Row;
use apm_core::snap::{SnapError, SnapReader, SnapWriter};
use apm_sim::kernel::ResourceId;
use apm_sim::{Engine, Plan, SimDuration};
use apm_storage::partition::PartitionTable;
use std::ops::Range;

/// Stored-procedure execution cost at a site. ~115 µs per invocation
/// lands single-node throughput at ≈45–50 K ops/s on 6 sites (Fig 3/6:
/// just below Redis for reads, best for RW).
const PROC_COST: CostModel = CostModel {
    base_ns: 105_000,
    per_probe_ns: 2_000,
    per_byte_ns: 20,
};
/// Multi-partition fragment cost per site (scan fragment).
const FRAGMENT_COST: CostModel = CostModel {
    base_ns: 160_000,
    per_probe_ns: 2_000,
    per_byte_ns: 20,
};
/// Client-side cost per call (VoltDB wire protocol is lean) and the
/// call's size on the wire.
const REQUEST: Request = Request::new(SimDuration::from_micros(15), 90);
/// Per-transaction global ordering cost per cluster node (n > 1). At
/// 20 µs × n on a serial initiator the cluster tops out at 1/(20 µs × n):
/// ≈25 K at 2 nodes, ≈6 K at 8 — the measured decline.
const ORDERING_NS_PER_NODE: u64 = 20_000;
/// Response sizes on the wire.
const RESP_READ_BYTES: u64 = 130;
const RESP_WRITE_BYTES: u64 = 40;

/// The store.
pub struct VoltDbStore {
    ctx: StoreCtx,
    map: SiteMap,
    /// One serial executor resource per site.
    site_res: Vec<ResourceId>,
    /// One partition table per site (real data).
    partitions: Vec<PartitionTable>,
    /// Global transaction initiator/sequencer (meaningful when nodes > 1).
    initiator: ResourceId,
}

impl VoltDbStore {
    /// Creates the store: 6 sites per host.
    pub fn new(ctx: StoreCtx, engine: &mut Engine) -> VoltDbStore {
        let map = SiteMap::new(ctx.node_count());
        let site_res = (0..map.sites())
            .map(|s| engine.add_resource(format!("voltdb.site{s}"), 1))
            .collect();
        let partitions = (0..map.sites()).map(|_| PartitionTable::new()).collect();
        let initiator = engine.add_resource("voltdb.initiator", 1);
        VoltDbStore {
            ctx,
            map,
            site_res,
            partitions,
            initiator,
        }
    }

    /// The global ordering stage every transaction passes on a cluster of
    /// more than one node: a sequencing round in which the initiator
    /// touches every node.
    fn ordered<'a>(&self, plan: StorePlan<'a>, multi_partition: bool) -> StorePlan<'a> {
        let n = self.ctx.node_count() as u64;
        if n <= 1 {
            return plan;
        }
        let factor = if multi_partition { 2 } else { 1 };
        let sequencing = SimDuration::from_nanos(ORDERING_NS_PER_NODE * n * factor);
        plan.acquire(self.initiator, sequencing).latency()
    }

    fn single_partition_plan(
        &mut self,
        client: u32,
        key: &apm_core::record::MetricKey,
        write: Option<Row>,
    ) -> (OpOutcome, Plan) {
        let site = self.map.site(key);
        let node = site / self.map.sites_per_host;
        let (outcome, receipt, resp) = match write {
            Some(row) => {
                let receipt = self.partitions[site].insert(row);
                (OpOutcome::Done, receipt, RESP_WRITE_BYTES)
            }
            None => {
                let (found, receipt) = self.partitions[site].get(key);
                (OpOutcome::read(found), receipt, RESP_READ_BYTES)
            }
        };
        let plan = self.ctx.round_trip(client, node, REQUEST, resp, |plan| {
            self.ordered(plan, false)
                .acquire(self.site_res[site], PROC_COST.cpu(&receipt))
        });
        (outcome, plan)
    }

    fn scan_plan(
        &mut self,
        client: u32,
        start: &apm_core::record::MetricKey,
        len: usize,
    ) -> (OpOutcome, Plan) {
        // Multi-partition transaction: a coordinator site distributes the
        // fragment to every site, merges, and responds.
        let coordinator_site = self.map.site(start);
        let coordinator_node = coordinator_site / self.map.sites_per_host;
        let mut branches = Vec::with_capacity(self.map.sites());
        let mut total = 0usize;
        for site in 0..self.map.sites() {
            let (row_count, receipt) = self.partitions[site].scan_count(start, len);
            total += row_count;
            let node = site / self.map.sites_per_host;
            let fragment = FRAGMENT_COST.cpu(&receipt);
            let branch = if node == coordinator_node {
                self.ctx.plan().acquire(self.site_res[site], fragment)
            } else {
                // The fragment travels out, its rows travel back.
                self.ctx
                    .plan()
                    .latency()
                    .acquire(self.site_res[site], fragment)
                    .hop(node, RESP_READ_BYTES * row_count.max(1) as u64)
            };
            branches.push(branch.finish());
        }
        // Partitions hold disjoint keys, so the coordinator's merge keeps
        // the `len` smallest of `total` distinct rows.
        let returned = total.min(len);
        let merge = SimDuration::from_nanos(20_000 + 500 * total as u64);
        let plan = self.ctx.round_trip(
            client,
            coordinator_node,
            REQUEST,
            RESP_READ_BYTES * returned.max(1) as u64,
            |plan| {
                self.ordered(plan, true)
                    .join(branches, self.map.sites())
                    .cpu(coordinator_node, merge)
            },
        );
        (OpOutcome::Scanned(returned), plan)
    }
}

impl DistributedStore for VoltDbStore {
    fn name(&self) -> &'static str {
        "voltdb"
    }

    fn ctx(&self) -> &StoreCtx {
        &self.ctx
    }

    fn load_row(&mut self, row: Row) {
        let site = self.map.site(&row.key());
        self.partitions[site].insert(row);
    }

    fn load_range_on(&mut self, seqs: Range<u64>, workers: usize) {
        let map = &self.map;
        load_partitioned(
            &mut self.partitions,
            seqs,
            workers,
            |key| [map.site(key)],
            |partition, row| {
                partition.insert(row);
            },
        );
    }

    fn plan_op(&mut self, client: u32, op: &Operation, _engine: &mut Engine) -> (OpOutcome, Plan) {
        match op {
            Operation::Read { key } => self.single_partition_plan(client, key, None),
            Operation::Insert { row } | Operation::Update { row } => {
                self.single_partition_plan(client, &row.key(), Some(*row))
            }
            Operation::Scan { start, len } => self.scan_plan(client, start, *len),
        }
    }

    fn disk_bytes_per_node(&self) -> Option<u64> {
        // In-memory store (§5.7 omits it from the disk usage figure).
        None
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        // Construction-time config and topology, engine handles among
        // them, are not part of the stream.
        let VoltDbStore {
            ctx: _,
            map: _,
            site_res: _,
            partitions,
            initiator: _,
        } = self;
        w.put(partitions);
    }

    fn restore_state(&mut self, r: &mut SnapReader, _engine: &mut Engine) -> Result<(), SnapError> {
        let VoltDbStore {
            ctx: _,
            map: _,
            site_res: _,
            partitions,
            initiator: _,
        } = self;
        *partitions = r.get()?;
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

    fn quick_run(nodes: u32, workload: Workload) -> crate::runner::RunResult {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(
            &mut engine,
            ClusterSpec::cluster_m(),
            nodes,
            StoreCtx::standard_client_machines(nodes),
            0.01,
            17,
        );
        let mut s = VoltDbStore::new(ctx, &mut engine);
        let config = RunConfig::new(
            workload,
            ClientConfig::cluster_m(nodes).with_window(0.5, 3.0),
            20_000,
            nodes,
            3,
        );
        run_benchmark(&mut engine, &mut s, &config)
    }

    #[test]
    fn data_lands_in_the_owning_partition() {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 2, 1, 0.01, 17);
        let mut s = VoltDbStore::new(ctx, &mut engine);
        for seq in 0..1_000 {
            s.load(&record_for_seq(seq));
        }
        let total: usize = s.partitions.iter().map(PartitionTable::len).sum();
        assert_eq!(total, 1_000);
        assert_eq!(s.partitions.len(), 12, "6 sites per host × 2 hosts");
        // Reads find their records.
        let r = record_for_seq(123);
        let (outcome, _) = s.plan_op(0, &Operation::Read { key: r.key }, &mut engine);
        assert_eq!(outcome, OpOutcome::Found(r.into()));
    }

    #[test]
    fn single_node_throughput_is_high() {
        // Fig 3/6: VoltDB single-node ≈45-55 K ops/s, second to Redis for
        // reads and best for RW.
        let t = quick_run(1, Workload::rw()).throughput();
        assert!((35_000.0..65_000.0).contains(&t), "voltdb 1-node RW: {t}");
    }

    #[test]
    fn throughput_declines_with_more_nodes() {
        // §5.1: "For VoltDB, all configurations that we tested showed a
        // slow-down for multiple nodes."
        let one = quick_run(1, Workload::r()).throughput();
        let two = quick_run(2, Workload::r()).throughput();
        let four = quick_run(4, Workload::r()).throughput();
        assert!(two < one * 0.8, "2 nodes must be slower: {two} vs {one}");
        assert!(four < two, "4 nodes must be slower still: {four} vs {two}");
    }

    #[test]
    fn latency_becomes_prohibitive_beyond_four_nodes() {
        // Fig 7/footnote 8: "the prohibitive latency of VoltDB above 4
        // nodes".
        let result = quick_run(8, Workload::r());
        let lat = result.mean_latency_ms(OpKind::Read).unwrap();
        assert!(lat > 25.0, "8-node latency should be prohibitive: {lat} ms");
    }

    #[test]
    fn scans_return_correct_global_windows() {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 3, 1, 0.01, 17);
        let mut s = VoltDbStore::new(ctx, &mut engine);
        for seq in 0..3_000 {
            s.load(&record_for_seq(seq));
        }
        let mut keys: Vec<_> = (0..3_000).map(|q| record_for_seq(q).key).collect();
        keys.sort();
        let (outcome, plan) = s.plan_op(
            0,
            &Operation::Scan {
                start: keys[0],
                len: 50,
            },
            &mut engine,
        );
        assert_eq!(outcome, OpOutcome::Scanned(50));
        assert!(plan.total_steps() >= 18, "multi-partition fan-out expected");
    }

    #[test]
    fn single_partition_ops_skip_global_ordering_on_one_node() {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 1, 1, 0.01, 17);
        let mut s = VoltDbStore::new(ctx, &mut engine);
        let r = record_for_seq(1);
        let (_, plan) = s.plan_op(0, &Operation::Insert { row: r.into() }, &mut engine);
        // No initiator step on a single node: plan = client cpu + 4 nic
        // hops + 2 delays + site.
        assert!(
            plan.total_steps() <= 8,
            "unexpected ordering steps: {}",
            plan.total_steps()
        );
    }
}
