//! A simplified HDFS model under the HBase store.
//!
//! HBase 0.90 reads and writes *everything* through HDFS DataNodes — there
//! was no short-circuit local read yet, so even a block hosted on the same
//! machine goes through the DataNode's transceiver threads (stream setup,
//! checksum verification, copies). That per-access overhead, multiplied by
//! LSM read amplification, is why HBase's read latency is the highest in
//! the paper while its CPU sits idle (§5.1).
//!
//! Writes use the replication pipeline: the block is streamed to `r`
//! DataNodes in a chain; each link adds a network hop and a sequential
//! disk write.

use crate::api::{StoreCtx, StorePlan};
use apm_sim::kernel::ResourceId;
use apm_sim::{Engine, NetSpec, SimDuration};
use apm_storage::receipt::DiskIo;

/// Block replication factor (the paper's single-node HBase setups
/// implicitly degrade to 1).
const REPLICATION: u32 = 3;
/// Concurrent block streams a DataNode serves (xceiver threads that
/// matter for small random reads — bounded by disk/stream setup).
const XCEIVERS_PER_NODE: u32 = 4;
/// Fixed DataNode overhead per block access: stream setup, checksum,
/// buffer copies. Calibrated so a single region server sustains
/// ≈2.5 K reads/s (§5.1, Fig 3).
const STREAM_OVERHEAD: SimDuration = SimDuration::from_micros(1_500);

/// The instantiated HDFS layer: one xceiver pool per DataNode.
#[derive(Clone, Debug)]
pub struct Hdfs {
    net: NetSpec,
    xceivers: Vec<ResourceId>,
}

impl Hdfs {
    /// Registers DataNode resources (one pool per server node).
    pub fn new(engine: &mut Engine, ctx: &StoreCtx) -> Hdfs {
        let xceivers = (0..ctx.servers.len())
            .map(|i| engine.add_resource(format!("datanode{i}.xceiver"), XCEIVERS_PER_NODE))
            .collect();
        Hdfs {
            net: ctx.cluster.net,
            xceivers,
        }
    }

    /// Effective replication given the cluster size.
    pub fn effective_replication(&self, nodes: usize) -> u32 {
        REPLICATION.min(nodes as u32)
    }

    /// A region server on `node` reads `bytes` from a block via its
    /// local DataNode. `cached` skips the disk access (OS page cache on
    /// the DataNode) but never the stream overhead.
    pub fn read<'a>(
        &self,
        plan: StorePlan<'a>,
        node: usize,
        bytes: u64,
        cached: bool,
    ) -> StorePlan<'a> {
        let stream = STREAM_OVERHEAD + self.net.transfer(bytes);
        let plan = plan.acquire(self.xceivers[node], stream);
        if cached {
            plan
        } else {
            plan.disk(node, &DiskIo::random_read(bytes))
        }
    }

    /// Pipeline-writes `bytes` starting at `node`: the primary replica
    /// writes locally, then the chain streams to the next
    /// `replication - 1` nodes (NIC hop + sequential write each).
    pub fn write<'a>(&self, mut plan: StorePlan<'a>, node: usize, bytes: u64) -> StorePlan<'a> {
        let nodes = self.xceivers.len();
        for i in 0..self.effective_replication(nodes) as usize {
            let target = (node + i) % nodes;
            if i > 0 {
                // Pipeline hop: previous node's NIC pushes the block on.
                plan = plan.hop((node + i - 1) % nodes, bytes);
            }
            plan = plan
                .acquire(self.xceivers[target], STREAM_OVERHEAD)
                .disk_seq(target, bytes);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_sim::kernel::Token;
    use apm_sim::ClusterSpec;

    fn setup(nodes: u32) -> (Engine, StoreCtx, Hdfs) {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), nodes, 1, 0.1, 7);
        let hdfs = Hdfs::new(&mut engine, &ctx);
        (engine, ctx, hdfs)
    }

    #[test]
    fn replication_degrades_on_small_clusters() {
        let (_, _, hdfs) = setup(1);
        assert_eq!(hdfs.effective_replication(1), 1);
        assert_eq!(hdfs.effective_replication(2), 2);
        assert_eq!(hdfs.effective_replication(12), 3);
    }

    #[test]
    fn cached_read_skips_disk_but_pays_stream_overhead() {
        let (mut engine, ctx, hdfs) = setup(2);
        let cached = hdfs.read(ctx.plan(), 0, 65_536, true).finish();
        let uncached = hdfs.read(ctx.plan(), 0, 65_536, false).finish();
        assert!(cached.min_duration() >= SimDuration::from_micros(1_500));
        assert!(uncached.min_duration().as_nanos() > cached.min_duration().as_nanos() + 7_000_000);
        engine.submit(cached, Token(0));
        assert!(engine.next_completion().is_some());
    }

    #[test]
    fn xceiver_pool_limits_read_concurrency() {
        let (mut engine, ctx, hdfs) = setup(1);
        // 8 concurrent cached reads on a pool of 4 → two waves.
        for i in 0..8 {
            engine.submit(hdfs.read(ctx.plan(), 0, 1_000, true).finish(), Token(i));
        }
        let completions = engine.run_to_idle();
        assert_eq!(completions.len(), 8);
        let max_latency = completions
            .iter()
            .map(|c| c.latency().as_nanos())
            .max()
            .unwrap();
        let min_latency = completions
            .iter()
            .map(|c| c.latency().as_nanos())
            .min()
            .unwrap();
        assert!(
            max_latency >= 2 * min_latency,
            "queueing must double tail latency"
        );
    }

    #[test]
    fn write_pipeline_touches_all_replicas() {
        let (mut engine, ctx, hdfs) = setup(3);
        engine.submit(hdfs.write(ctx.plan(), 0, 1 << 20).finish(), Token(1));
        engine.run_to_idle();
        // Every node's disk saw one sequential write.
        for node in &ctx.servers {
            assert_eq!(engine.served(node.disk), 1, "replica missing a disk write");
        }
    }

    #[test]
    fn single_node_pipeline_writes_once() {
        let (mut engine, ctx, hdfs) = setup(1);
        engine.submit(hdfs.write(ctx.plan(), 0, 1 << 20).finish(), Token(1));
        engine.run_to_idle();
        assert_eq!(engine.served(ctx.servers[0].disk), 1);
    }
}
