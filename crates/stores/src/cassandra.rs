//! The Cassandra-like store: a symmetric token ring of LSM nodes.
//!
//! Architecture (§4.2): every node is equal; the `RandomPartitioner`
//! hashes keys onto a 2^127 token ring; writes land in a commit log
//! (periodic group commit, 10 ms window) and a memtable; SSTables are
//! size-tiered-compacted in the background. The paper ran replication
//! factor 1 and assigned optimal tokens manually (§6).
//!
//! Calibration (single node, Cluster M, 128 connections — §5.1):
//! * Read service ≈ 300 µs CPU ⇒ ~26 K ops/s on 8 cores (Fig 3) and
//!   ≈ 5 ms closed-loop read latency (Fig 4).
//! * Writes pay the group-commit window ⇒ stable ≈ 5–10 ms write latency,
//!   the highest of the field (Fig 5), while costing similar CPU, so
//!   write-heavy workloads gain only modestly on Cluster M (§5.3: +2 %).
//! * Scans cost ≈ 4 × a read (§5.4: "scans are 4 times slower than
//!   reads").

use crate::api::{
    load_partitioned, BackgroundWork, CostModel, DistributedStore, Request, StoreCtx, StorePlan,
};
use crate::cache::PageCache;
use crate::routing::{TokenAssignment, TokenRing};
use apm_core::ops::{OpOutcome, Operation};
use apm_core::record::{Row, RAW_RECORD_SIZE};
use apm_core::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use apm_core::snap_state;
use apm_sim::{Engine, Plan, SimDuration};
use apm_storage::encoding::{cassandra_format, StorageFormat};
use apm_storage::lsm::{BackgroundJob, CompactionStrategy, LsmConfig, LsmTree};
use apm_storage::sstable::BLOCK_BYTES;
use apm_storage::wal::{CommitLog, SyncPolicy, WalReceipt};
use std::ops::Range;

/// Read path CPU model (thrift parse, row resolution, merge).
const READ_COST: CostModel = CostModel {
    base_ns: 275_000,
    per_probe_ns: 8_000,
    per_byte_ns: 30,
};
/// Write path CPU model (mutation, memtable, commit-log buffer).
const WRITE_COST: CostModel = CostModel {
    base_ns: 285_000,
    per_probe_ns: 8_000,
    per_byte_ns: 30,
};
/// Scan path CPU model — a `get_range_slices` call costs several times a
/// point read in service (§5.4: "scans are 4 times slower than reads"),
/// which under 128-connection saturation lands the absolute scan latency
/// in the paper's 20–25 ms band (Fig 13).
const SCAN_COST: CostModel = CostModel {
    base_ns: 2_400_000,
    per_probe_ns: 8_000,
    per_byte_ns: 30,
};
/// Client-side cost per operation (Hector/thrift serialisation) and the
/// request's size on the wire (thrift framing + payload).
const REQUEST: Request = Request::new(SimDuration::from_micros(20), 120);
/// Commit log group-commit window. Calibrated to Cassandra's effective
/// mutation-acknowledgement batching under load: writes ride a periodic
/// sync/batch boundary, which is why Cassandra's write latency is the
/// highest *stable* one in Fig 5 while staying low enough that Cluster-D
/// write throughput is CPU- not window-bound (Fig 18).
const COMMIT_WINDOW: SimDuration = SimDuration::from_millis(2);
/// Fraction of node RAM available as OS page cache (rest is JVM heap).
const PAGE_CACHE_FRACTION: f64 = 0.6;
/// Response sizes on the wire.
const RESP_READ_BYTES: u64 = 220;
const RESP_WRITE_BYTES: u64 = 60;

/// Tuning of the store (exposed for the ablation experiments).
#[derive(Clone, Copy, Debug)]
pub struct CassandraConfig {
    /// Token assignment policy (paper default after §6: optimal).
    pub tokens: TokenAssignment,
    /// Replication factor (paper: 1; the replication extension sweeps it
    /// — §8: "we will determine the impact of replication").
    pub replication: usize,
    /// SSTable compression (paper: off — §5.7: "can be reduced by using
    /// compression which, however, will decrease the throughput"; the
    /// compression extension turns it on).
    pub compression: bool,
    /// Compaction strategy (paper/Cassandra 1.0 default: size-tiered;
    /// the compaction ablation compares against the leveled policy).
    pub strategy: CompactionStrategy,
    /// **Test-only known bug**: a rejoining node *discards* its hint
    /// queue instead of replaying it, silently losing every write acked
    /// via hinted handoff during its downtime. The node still counts the
    /// whole queue as replayed in the hint auditor, so its queued and
    /// replayed counts balance — modelling a recovery path whose
    /// internal bookkeeping believes it succeeded — and only an
    /// end-to-end durability oracle (the chaos harness's acked-write
    /// readback) can catch it. Exists to prove that oracle and the
    /// schedule shrinker work; never set outside tests and fixtures.
    pub skip_hint_replay: bool,
}

impl Default for CassandraConfig {
    fn default() -> Self {
        CassandraConfig {
            tokens: TokenAssignment::Optimal,
            replication: 1,
            compression: false,
            strategy: CompactionStrategy::SizeTiered,
            skip_hint_replay: false,
        }
    }
}

/// Snappy-style compression of the small APM records: ~0.55 of the
/// on-disk size. Decompression is block-granular: a point read must
/// decompress its whole 64 KB block (~4 ns/byte in 2012), which is the
/// throughput cost §5.7 alludes to.
const COMPRESSION_RATIO: f64 = 0.55;
const DECOMPRESS_NS_PER_BYTE: u64 = 4;

struct Node {
    lsm: LsmTree,
    log: CommitLog,
    cache: PageCache,
}

snap_state! { Node { lsm, log, cache } }

impl Node {
    /// Untimed insert (load phase, bootstrap stream, hint replay): the
    /// flush and compaction work it triggers completes on the spot.
    fn insert_settled(&mut self, row: Row) {
        let (_, job) = self.lsm.insert_row(row);
        self.lsm.settle(job);
    }
}

/// The store.
pub struct CassandraStore {
    ctx: StoreCtx,
    ring: TokenRing,
    format: StorageFormat,
    replication: usize,
    compression: bool,
    skip_hint_replay: bool,
    cache_bytes: u64,
    strategy: CompactionStrategy,
    nodes: Vec<Node>,
    /// Per-node crash flag: a down node takes no reads, writes, or hints.
    down: Vec<bool>,
    /// Hinted handoff queues: writes a down replica missed, replayed to
    /// it when it rejoins the ring (Cassandra's hinted handoff).
    hints: Vec<Vec<Row>>,
    /// Hinted-handoff drain auditor (see `crate::audit`).
    hint_audit: crate::audit::HintAuditor,
    /// Bytes streamed by completed/running bootstraps (diagnostics).
    streamed_bytes: u64,
}

impl CassandraStore {
    /// Creates the store over an instantiated context.
    pub fn new(ctx: StoreCtx, config: CassandraConfig) -> CassandraStore {
        let n = ctx.node_count();
        let cache_bytes = (ctx.scaled_ram() as f64 * PAGE_CACHE_FRACTION) as u64;
        let mut store = CassandraStore {
            ring: TokenRing::new(n, config.tokens),
            format: cassandra_format(),
            replication: config.replication.max(1),
            compression: config.compression,
            skip_hint_replay: config.skip_hint_replay,
            cache_bytes,
            strategy: config.strategy,
            ctx,
            nodes: Vec::new(),
            down: vec![false; n],
            hints: vec![Vec::new(); n],
            hint_audit: crate::audit::HintAuditor::default(),
            streamed_bytes: 0,
        };
        store.nodes = (0..n).map(|i| store.fresh_node(i)).collect();
        store
    }

    /// Builds an empty node from the store's config (construction,
    /// bootstrap, and the shells the restore path fills).
    fn fresh_node(&self, idx: usize) -> Node {
        Node {
            lsm: LsmTree::new(LsmConfig {
                memtable_flush_bytes: self.ctx.memtable_flush_bytes(),
                strategy: self.strategy,
            }),
            log: CommitLog::new(
                SyncPolicy::GroupCommit {
                    window: COMMIT_WINDOW,
                },
                30,
            ),
            cache: PageCache::new(self.cache_bytes, self.ctx.seed ^ ((idx as u64) << 8)),
        }
    }

    /// Bootstraps one new node into the ring (Cassandra 1.0 style): the
    /// newcomer takes a token in the middle of the largest range and the
    /// victim node streams the affected records over. The copies are
    /// immediately readable on the new node; the source keeps its stale
    /// copies until a cleanup (exactly like `nodetool cleanup` semantics).
    /// Returns (victim node, bytes streamed).
    pub fn add_node(&mut self, engine: &mut Engine) -> (usize, u64) {
        use apm_core::record::MetricKey;
        let new_idx = self.nodes.len();
        let victim = self.grow(engine);
        // Stream: every victim record the extended ring now routes to the
        // newcomer. Real data moves between real LSM trees.
        let total = self.nodes[victim].lsm.record_count() as usize;
        let (all, _) = self.nodes[victim].lsm.scan(&MetricKey::MIN, total);
        let moving: Vec<Row> = all
            .into_iter()
            .filter(|row| self.ring.route(&row.key()) == new_idx)
            .collect();
        let moved_raw = (moving.len() * RAW_RECORD_SIZE) as u64;
        for row in moving {
            self.nodes[new_idx].insert_settled(row);
        }
        let bytes = self.expand(moved_raw);
        self.streamed_bytes += bytes;
        // Charge the stream: sequential read at the victim, transfer over
        // both NICs, sequential write at the newcomer — interfering with
        // foreground traffic on both nodes while it runs.
        let stream = self
            .ctx
            .plan()
            .disk_seq(victim, bytes)
            .hop(victim, bytes)
            .nic(new_idx, bytes)
            .disk_seq(new_idx, bytes);
        engine.submit(stream.finish(), BackgroundWork::Stream(new_idx).token());
        (victim, bytes)
    }

    /// The topology half of a bootstrap, which restore replays: the next
    /// node's resources, token and empty shell. Returns the node it split.
    fn grow(&mut self, engine: &mut Engine) -> usize {
        let idx = self.nodes.len();
        let res = self.ctx.cluster.instantiate_node(engine, idx);
        self.ctx.servers.push(res);
        self.nodes.push(self.fresh_node(idx));
        self.down.push(false);
        self.hints.push(Vec::new());
        self.ring.extend()
    }

    /// Bytes on disk at a node, in the store's on-disk format.
    fn node_disk_bytes(&self, node: usize) -> u64 {
        let base = self.format.disk_usage(self.nodes[node].lsm.record_count());
        if self.compression {
            (base as f64 * COMPRESSION_RATIO) as u64
        } else {
            base
        }
    }

    /// On-disk expansion factor applied to the engine's raw I/O sizes.
    fn expand(&self, bytes: u64) -> u64 {
        let expanded = bytes as f64 * self.format.expansion();
        if self.compression {
            (expanded * COMPRESSION_RATIO).round() as u64
        } else {
            expanded.round() as u64
        }
    }

    /// Extra CPU to decompress the blocks a read touched.
    fn compression_cpu(&self, blocks_read: usize) -> SimDuration {
        if self.compression {
            SimDuration::from_nanos(blocks_read as u64 * BLOCK_BYTES * DECOMPRESS_NS_PER_BYTE)
        } else {
            SimDuration::ZERO
        }
    }

    /// Replays the hint queue to a node that just rejoined the ring:
    /// the missed mutations land in its LSM tree and the transfer is
    /// charged as a background stream (NIC in, sequential disk write)
    /// that competes with recovering foreground traffic.
    fn replay_hints(&mut self, node: usize, engine: &mut Engine) {
        let hints = std::mem::take(&mut self.hints[node]);
        self.hint_audit.on_replayed(node, hints.len() as u64);
        if hints.is_empty() {
            return;
        }
        if self.skip_hint_replay {
            // Test-only known bug (see `CassandraConfig::skip_hint_replay`):
            // the queue is dropped on the floor after telling the auditor it
            // drained, so every write acked via hinted handoff during the
            // node's downtime is silently lost. Only the chaos harness's
            // end-to-end durability oracle can observe this.
            return;
        }
        let raw = (hints.len() * RAW_RECORD_SIZE) as u64;
        for &row in &hints {
            self.nodes[node].insert_settled(row);
        }
        let bytes = self.expand(raw);
        let stream = self.ctx.plan().nic(node, bytes).disk_seq(node, bytes);
        engine.submit(stream.finish(), BackgroundWork::Stream(node).token());
    }

    /// Submits the plan of an announced LSM background job.
    fn schedule_job(&mut self, node: usize, job: BackgroundJob, engine: &mut Engine) {
        let mut plan = self.ctx.plan();
        // Compaction reads its inputs (sequential, may be cached).
        if job.read_bytes > 0 {
            plan = plan.disk_seq(node, self.expand(job.read_bytes));
        }
        let written = self.expand(job.write_bytes);
        // CPU to serialise/merge, then the new run goes out.
        plan = plan
            .cpu(node, SimDuration::from_nanos(written * 12))
            .disk_seq(node, written);
        engine.submit(plan.finish(), BackgroundWork::TreeJob(node, job.id).token());
    }

    /// The replica a request for `replicas`' key goes to: the first that
    /// is up. With all of them down there is nowhere to go and the
    /// request fails against the crashed first one.
    fn coordinator(&self, replicas: impl IntoIterator<Item = usize>) -> usize {
        let mut replicas = replicas.into_iter();
        let first = replicas.next().expect("a key has a replica");
        let live = std::iter::once(first)
            .chain(replicas)
            .find(|&n| !self.down[n]);
        live.unwrap_or(first)
    }

    fn read_plan(&mut self, client: u32, node: usize, op: &Operation) -> (OpOutcome, Plan) {
        let node_state = &mut self.nodes[node];
        let data_bytes = cassandra_format().disk_usage(node_state.lsm.record_count());
        let (outcome, receipt, cost, resp) = match op {
            Operation::Read { key } => {
                let (found, receipt) = node_state.lsm.get(key);
                let outcome = OpOutcome::read(found);
                (outcome, receipt, READ_COST, RESP_READ_BYTES)
            }
            Operation::Scan { start, len } => {
                let (rows, receipt) = node_state.lsm.scan_count(start, *len);
                (
                    OpOutcome::Scanned(rows),
                    receipt,
                    SCAN_COST,
                    RESP_READ_BYTES * (*len as u64) / 2,
                )
            }
            Operation::Insert { .. } | Operation::Update { .. } => {
                unreachable!("write ops handled in write_plan")
            }
        };
        let ios = node_state.cache.filter_ios(&receipt.io, data_bytes);
        let cpu = cost.cpu(&receipt) + self.compression_cpu(receipt.read_ios());
        let plan = self.ctx.round_trip(client, node, REQUEST, resp, |server| {
            server.cpu(node, cpu).disks(node, &ios)
        });
        (outcome, plan)
    }

    fn write_plan(&mut self, client: u32, row: Row, engine: &mut Engine) -> (OpOutcome, Plan) {
        let replicas = self.ring.replicas(&row.key(), self.replication);
        let primary = self.coordinator(replicas.iter().copied());
        // With every replica down nothing applies and nothing is hinted:
        // the request dies against the crashed coordinator.
        let targets = if self.down[primary] {
            &[]
        } else {
            &replicas[..]
        };
        // What each live replica does: (node, CPU, commit-log append).
        let mut applied = Vec::with_capacity(targets.len());
        for &node in targets {
            if self.down[node] {
                // Hinted handoff: the live coordinator stores the mutation
                // and replays it when the replica rejoins.
                self.hints[node].push(row);
                self.hint_audit.on_queued(node);
                continue;
            }
            let (receipt, flush) = self.nodes[node].lsm.insert_row(row);
            let wal = self.nodes[node].log.append(RAW_RECORD_SIZE as u64);
            applied.push((node, WRITE_COST.cpu(&receipt), wal));
            if let Some(job) = flush {
                self.schedule_job(node, job, engine);
            }
        }
        // Periodic commit log: the write acknowledges at the next group
        // sync — Cassandra's signature high, stable write latency (Fig 5).
        fn apply<'a>(
            plan: StorePlan<'a>,
            &(node, cpu, wal): &(usize, SimDuration, WalReceipt),
        ) -> StorePlan<'a> {
            plan.cpu(node, cpu).wal(node, &wal)
        }
        let ctx = &self.ctx;
        let plan =
            ctx.round_trip(
                client,
                primary,
                REQUEST,
                RESP_WRITE_BYTES,
                |server| match &applied[..] {
                    // The refusal was decided here: a replica restarting
                    // before the plan reaches the server must not turn it
                    // into a success the store never applied.
                    [] => server.refused(),
                    // Consistency ONE on one live replica is that replica's
                    // own work; with more the client waits for one ack while
                    // the others apply in the background.
                    [only] => apply(server, only),
                    all => {
                        let branches = all.iter().map(|a| apply(ctx.plan(), a).finish());
                        server.join(branches.collect(), 1)
                    }
                },
            );
        (OpOutcome::Done, plan)
    }
}

impl DistributedStore for CassandraStore {
    fn name(&self) -> &'static str {
        "cassandra"
    }

    fn ctx(&self) -> &StoreCtx {
        &self.ctx
    }

    fn load_row(&mut self, row: Row) {
        for node in self.ring.replica_walk(&row.key(), self.replication) {
            self.nodes[node].insert_settled(row);
        }
    }

    fn load_range_on(&mut self, seqs: Range<u64>, workers: usize) {
        let (ring, rf) = (&self.ring, self.replication);
        load_partitioned(
            &mut self.nodes,
            seqs,
            workers,
            |key| ring.replica_walk(key, rf),
            Node::insert_settled,
        );
    }

    fn finish_load(&mut self) {
        for node in &mut self.nodes {
            let job = node.lsm.force_flush();
            node.lsm.settle(job);
        }
    }

    fn plan_op(&mut self, client: u32, op: &Operation, engine: &mut Engine) -> (OpOutcome, Plan) {
        match op {
            Operation::Read { key } | Operation::Scan { start: key, .. } => {
                // Coordinator-side failover.
                let node = self.coordinator(self.ring.replica_walk(key, self.replication));
                self.read_plan(client, node, op)
            }
            Operation::Insert { row } | Operation::Update { row } => {
                self.write_plan(client, *row, engine)
            }
        }
    }

    fn plan_target(&self, op: &Operation) -> Option<usize> {
        // The node the coordinator-side failover in [`Self::plan_op`]
        // would read from (writes target the same primary replica).
        Some(self.coordinator(self.ring.replica_walk(&op.routing_key(), self.replication)))
    }

    fn hedge_read_plan(
        &mut self,
        client: u32,
        op: &Operation,
        _engine: &mut Engine,
    ) -> Option<Plan> {
        let Operation::Read { key } = op else {
            return None;
        };
        // Speculative retry (the feature Cassandra later shipped as
        // "rapid read protection"): duplicate the read to the next
        // replica in ring order that is up and is not the node the
        // primary attempt targeted.
        let replicas = self.ring.replicas(key, self.replication);
        let primary = self.coordinator(replicas.iter().copied());
        let alt = replicas
            .iter()
            .copied()
            .find(|&n| n != primary && !self.down[n])?;
        Some(self.read_plan(client, alt, op).1)
    }

    /// The timed event is a bootstrap: one node joins the ring
    /// (elasticity experiment; cf. the Konstantinou et al. elasticity
    /// study cited in §7).
    fn on_timed_event(&mut self, engine: &mut Engine) {
        self.add_node(engine);
    }

    fn on_fault(&mut self, event: &apm_sim::FaultEvent, engine: &mut Engine) {
        crate::api::apply_node_fault(&self.ctx, engine, event, &[]);
        if event.node >= self.nodes.len() {
            return;
        }
        match event.kind {
            apm_sim::FaultKind::Crash => {
                self.down[event.node] = true;
                // The process is gone: the OS page cache restarts cold.
                self.nodes[event.node].cache =
                    PageCache::new(self.cache_bytes, self.ctx.seed ^ ((event.node as u64) << 8));
            }
            apm_sim::FaultKind::Restart => {
                self.down[event.node] = false;
                self.replay_hints(event.node, engine);
                // Hinted handoff must drain: the rejoined replica's queue
                // is empty and queued/replayed totals balance.
                self.hint_audit
                    .assert_drained(event.node, self.hints[event.node].len());
            }
            // Slowdowns and partitions are applied uniformly by
            // `apply_node_fault` above; no Cassandra-specific bookkeeping.
            apm_sim::FaultKind::DiskSlow { .. }
            | apm_sim::FaultKind::DiskRestore
            | apm_sim::FaultKind::PartitionStart
            | apm_sim::FaultKind::PartitionEnd
            | apm_sim::FaultKind::FailSlow { .. }
            | apm_sim::FaultKind::FailSlowEnd => {}
        }
    }

    fn on_background(&mut self, job_id: u64, engine: &mut Engine) {
        // A finished bootstrap or hint stream completes nothing, and
        // neither does a token only a forged snapshot can hold — a node
        // past the count, a job its tree does not have in flight.
        let Some(BackgroundWork::TreeJob(node, id)) = BackgroundWork::from_payload(job_id) else {
            return;
        };
        let lsm = self.nodes.get_mut(node).map(|n| &mut n.lsm);
        if let Some(next) = lsm.and_then(|t| t.in_flight(id).and_then(|job| t.complete(job))) {
            self.schedule_job(node, next, engine);
        }
    }

    fn disk_bytes_per_node(&self) -> Option<u64> {
        let total: u64 = (0..self.nodes.len()).map(|i| self.node_disk_bytes(i)).sum();
        Some(total / self.nodes.len() as u64)
    }

    fn streamed_bytes(&self) -> u64 {
        self.streamed_bytes
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        // Construction-time config and topology are not part of the stream:
        // the node count says how many bootstraps a restore replays.
        let CassandraStore {
            ctx: _,
            ring: _,
            format: _,
            replication: _,
            compression: _,
            skip_hint_replay: _,
            cache_bytes: _,
            strategy: _,
            nodes,
            down,
            hints,
            hint_audit,
            streamed_bytes,
        } = self;
        w.put_u64(nodes.len() as u64);
        nodes[..].snap_state(w);
        w.put(down);
        w.put(hints);
        w.put(hint_audit);
        w.put_u64(*streamed_bytes);
    }

    fn restore_state(&mut self, r: &mut SnapReader, engine: &mut Engine) -> Result<(), SnapError> {
        // `grow` rebuilds a bootstrapped node before its sections (and the
        // kernel's) are read, once the stream held the nodes before it.
        let n = r.count(1)?;
        for idx in 0..n {
            if idx == self.nodes.len() {
                self.grow(engine);
            }
            self.nodes[idx].restore_state(r)?;
        }
        let CassandraStore {
            ctx: _,
            ring: _,
            format: _,
            replication: _,
            compression: _,
            skip_hint_replay: _,
            cache_bytes: _,
            strategy: _,
            nodes,
            down,
            hints,
            hint_audit,
            streamed_bytes,
        } = self;
        *down = r.get()?;
        *hints = r.get()?;
        // Every later index by node number — the coordinator's `down`, the
        // write path's `hints` — must hold for what a body can say.
        if nodes.len() != n || down.len() != n || hints.len() != n {
            return Err(SnapError::BadTag {
                what: "Cassandra node count",
                tag: n as u64,
            });
        }
        *hint_audit = r.get()?;
        let remaining: Vec<usize> = hints.iter().map(Vec::len).collect();
        if let Some(node) = hint_audit.unbalanced_node(&remaining) {
            return Err(SnapError::BadTag {
                what: "Cassandra hint balance",
                tag: node as u64,
            });
        }
        *streamed_bytes = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Tag;
    use crate::runner::{run_benchmark, RunConfig};
    use apm_core::driver::ClientConfig;
    use apm_core::keyspace::record_for_seq;
    use apm_core::ops::OpKind;
    use apm_core::workload::Workload;
    use apm_sim::ClusterSpec;

    fn store(engine: &mut Engine, nodes: u32) -> CassandraStore {
        let ctx = StoreCtx::new(
            engine,
            ClusterSpec::cluster_m(),
            nodes,
            StoreCtx::standard_client_machines(nodes),
            0.01,
            11,
        );
        CassandraStore::new(ctx, CassandraConfig::default())
    }

    fn quick_run(nodes: u32, workload: Workload) -> crate::runner::RunResult {
        let mut engine = Engine::new();
        let mut s = store(&mut engine, nodes);
        let config = RunConfig::new(
            workload,
            ClientConfig::cluster_m(nodes).with_window(0.5, 3.0),
            20_000,
            nodes,
            5,
        );
        run_benchmark(&mut engine, &mut s, &config)
    }

    #[test]
    fn an_inflated_node_count_is_refused_before_any_node_is_built() {
        let mut engine = Engine::new();
        let mut s = store(&mut engine, 3);
        let mut w = SnapWriter::new();
        s.snap_state(&mut w);
        // The count opens the section.
        let mut body = w.into_bytes();
        let left = body.len() - 8;
        body[..8].copy_from_slice(&(left as u64 + 1).to_le_bytes());
        let refused = s.restore_state(&mut SnapReader::new(&body), &mut engine);
        let eof = SnapError::UnexpectedEof {
            wanted: left + 1,
            remaining: left,
        };
        assert_eq!(refused, Err(eof));
    }

    #[test]
    fn data_is_complete_after_load() {
        let mut engine = Engine::new();
        let mut s = store(&mut engine, 3);
        for seq in 0..5_000 {
            s.load(&record_for_seq(seq));
        }
        s.finish_load();
        let total: u64 = s.nodes.iter().map(|n| n.lsm.record_count()).sum();
        assert_eq!(total, 5_000);
        // Every record readable through the ring.
        for seq in (0..5_000).step_by(199) {
            let r = record_for_seq(seq);
            let node = s.ring.route(&r.key);
            let (found, _) = s.nodes[node].lsm.get(&r.key);
            assert_eq!(found, Some(r.into()), "seq {seq} unreadable");
        }
    }

    #[test]
    fn single_node_throughput_is_in_paper_band() {
        // Fig 3: Cassandra ≈ 25 K ops/s on one Cluster-M node.
        let result = quick_run(1, Workload::r());
        let t = result.throughput();
        assert!((15_000.0..40_000.0).contains(&t), "cassandra 1-node R: {t}");
    }

    #[test]
    fn write_latency_is_dominated_by_group_commit() {
        // Fig 5: Cassandra's write latency is high (≥ several ms) and
        // higher than its own read latency's queueing share would imply.
        let result = quick_run(1, Workload::r());
        let w = result
            .mean_latency_ms(OpKind::Insert)
            .expect("writes measured");
        assert!(
            w >= 4.0,
            "write latency must include the 10 ms group window: {w} ms"
        );
    }

    #[test]
    fn throughput_scales_near_linearly() {
        // Fig 3: "a nice linear behavior in the maximum throughput".
        let one = quick_run(1, Workload::r()).throughput();
        let four = quick_run(4, Workload::r()).throughput();
        let speedup = four / one;
        assert!(speedup > 3.0, "4-node speedup too low: {speedup:.2}");
        assert!(speedup < 5.0, "4-node speedup implausible: {speedup:.2}");
    }

    #[test]
    fn scan_latency_lands_in_the_paper_band() {
        // Fig 13: Cassandra scans are "constant and in the range of
        // 20-25 milliseconds"; under a shared saturated queue the
        // scan-vs-read gap is the service-time gap (§5.4's 4× is a
        // service-time ratio, queueing is common to both).
        let result = quick_run(2, Workload::rs());
        let read = result.mean_latency_ms(OpKind::Read).expect("reads");
        let scan = result.mean_latency_ms(OpKind::Scan).expect("scans");
        assert!(
            scan > read,
            "scans must be slower than reads: {scan:.2} vs {read:.2}"
        );
        assert!(
            (8.0..45.0).contains(&scan),
            "scan latency out of band: {scan:.2} ms"
        );
    }

    #[test]
    fn disk_usage_matches_the_format() {
        let mut engine = Engine::new();
        let mut s = store(&mut engine, 2);
        for seq in 0..10_000 {
            s.load(&record_for_seq(seq));
        }
        s.finish_load();
        let per_node = s.disk_bytes_per_node().unwrap();
        let expected = cassandra_format().disk_usage(5_000);
        let rel = (per_node as f64 - expected as f64).abs() / expected as f64;
        assert!(
            rel < 0.15,
            "per-node usage {per_node} vs expected {expected}"
        );
    }

    #[test]
    fn background_jobs_are_scheduled_and_completed() {
        let mut engine = Engine::new();
        // At this scale the memtable flushes at its 64 KB floor.
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 1, 1, 1e-4, 3);
        assert_eq!(ctx.memtable_flush_bytes(), 64 << 10);
        let mut s = CassandraStore::new(ctx, CassandraConfig::default());
        // Insert enough through plan_op to trip a flush.
        for seq in 0..1_000 {
            let record = record_for_seq(seq);
            let (outcome, plan) =
                s.plan_op(0, &Operation::Insert { row: record.into() }, &mut engine);
            assert_eq!(outcome, OpOutcome::Done);
            engine.submit(plan, apm_sim::kernel::Token(0));
            while let Some(c) = engine.next_completion() {
                let Tag::Background(id) = Tag::of(c.token) else {
                    break;
                };
                s.on_background(id, &mut engine);
            }
        }
        while let Some(c) = engine.next_completion() {
            if let Tag::Background(id) = Tag::of(c.token) {
                s.on_background(id, &mut engine);
            }
        }
        assert!(s.nodes[0].lsm.stats().flushes > 0, "flush never completed");
        // 1 000 inserts announce at most a flush each, and each flush at
        // most one compaction: ids past 2 000 were never handed out.
        let left = (0..=2_000).find(|&id| s.nodes[0].lsm.in_flight(id).is_some());
        assert_eq!(left, None, "a job left in flight once the engine drained");
    }

    #[test]
    fn bootstrap_keeps_every_record_readable() {
        let mut engine = Engine::new();
        let mut s = store(&mut engine, 4);
        for seq in 0..4_000 {
            s.load(&record_for_seq(seq));
        }
        s.finish_load();
        let (victim, bytes) = s.add_node(&mut engine);
        assert!(victim < 4);
        assert!(bytes > 0, "bootstrap must stream data");
        assert_eq!(s.ctx().node_count(), 5);
        // The newcomer owns real data and every record routes correctly.
        assert!(s.nodes[4].lsm.record_count() > 0, "new node got nothing");
        for seq in (0..4_000).step_by(97) {
            let r = record_for_seq(seq);
            let node = s.ring.route(&r.key);
            let (found, _) = s.nodes[node].lsm.get(&r.key);
            assert_eq!(
                found,
                Some(r.into()),
                "seq {seq} unreadable after bootstrap"
            );
        }
        engine.run_to_idle();
        assert!(s.streamed_bytes() >= bytes);
    }

    /// Resumed from any checkpoint after a bootstrap, a run reports what
    /// the full run reported, ends with as many kernel resources, and
    /// captures every later checkpoint byte for byte: the resumed store
    /// holds the node the bootstrap added, wired as the bootstrap wired it.
    /// With circuit breaking on, the driver's breaker table grows to the
    /// new node when the first op routes to it.
    #[test]
    fn a_resume_after_a_bootstrap_matches_the_full_run() {
        use crate::resilience::BreakerPolicy;
        use crate::ResiliencePolicy;
        let mut config = RunConfig::new(
            Workload::rw(),
            ClientConfig::cluster_m(3).with_window(0.2, 0.8),
            5_000,
            3,
            0xB007,
        );
        config.event_at_secs = Some(0.3);
        config.checkpoints = Some(crate::runner::CheckpointSpec::every(0.2));
        let mut breaking = config.clone();
        breaking.resilience = Some(ResiliencePolicy {
            breaker: Some(BreakerPolicy::standard()),
            ..ResiliencePolicy::default()
        });
        assert_resumes_after_a_bootstrap_match(&config);
        assert_resumes_after_a_bootstrap_match(&breaking);
    }

    fn assert_resumes_after_a_bootstrap_match(config: &RunConfig) {
        use crate::runner::resume_benchmark;
        let mut engine = Engine::new();
        let mut s = store(&mut engine, 3);
        let full = run_benchmark(&mut engine, &mut s, config);
        assert_eq!(s.ctx().node_count(), 4, "the timed event bootstraps a node");
        let bootstrap = apm_sim::SimTime(500_000_000);
        let after: Vec<usize> = (0..full.checkpoints.len())
            .filter(|&k| full.checkpoints[k].at > bootstrap)
            .collect();
        assert!(after.len() >= 2, "{:?}", full.checkpoints.len());
        for k in after {
            let mut resumed_engine = Engine::new();
            let mut fresh = store(&mut resumed_engine, 3);
            let resumed = resume_benchmark(
                &mut resumed_engine,
                &mut fresh,
                config,
                &full.checkpoints[k].bytes,
            )
            .expect("own checkpoint resumes");
            assert_eq!(
                resumed.results_fingerprint(),
                full.results_fingerprint(),
                "checkpoint {k}"
            );
            assert_eq!(resumed_engine.resource_count(), engine.resource_count());
            let later: Vec<&[u8]> = full.checkpoints[k + 1..]
                .iter()
                .map(|cp| &cp.bytes[..])
                .collect();
            let recaptured: Vec<&[u8]> =
                resumed.checkpoints.iter().map(|cp| &cp.bytes[..]).collect();
            assert_eq!(recaptured, later, "checkpoints after {k}");
        }
    }

    #[test]
    fn crashed_replica_catches_up_through_hinted_handoff() {
        use apm_sim::{FaultEvent, FaultKind, SimTime};
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 3, 1, 0.01, 3);
        let mut s = CassandraStore::new(
            ctx,
            CassandraConfig {
                replication: 2,
                ..Default::default()
            },
        );
        for seq in 0..200 {
            s.load(&record_for_seq(seq));
        }
        s.finish_load();
        // Crash node 1, write fresh records while it is down.
        s.on_fault(
            &FaultEvent {
                at: SimTime(0),
                node: 1,
                kind: FaultKind::Crash,
            },
            &mut engine,
        );
        let before = s.nodes[1].lsm.record_count();
        for seq in 200..400 {
            let record = record_for_seq(seq);
            let (outcome, _) = s.plan_op(0, &Operation::Insert { row: record.into() }, &mut engine);
            assert_eq!(outcome, OpOutcome::Done);
        }
        assert_eq!(
            s.nodes[1].lsm.record_count(),
            before,
            "down node must take no writes"
        );
        let hinted: usize = s.hints[1].len();
        // Restart: hints replay and the node converges to both copies.
        s.on_fault(
            &FaultEvent {
                at: SimTime(0),
                node: 1,
                kind: FaultKind::Restart,
            },
            &mut engine,
        );
        assert!(s.hints[1].is_empty(), "hints must drain on rejoin");
        assert_eq!(s.nodes[1].lsm.record_count(), before + hinted as u64);
        let total: u64 = s.nodes.iter().map(|n| n.lsm.record_count()).sum();
        assert_eq!(
            total, 800,
            "rf=2 must converge to two copies of all 400 records"
        );
        engine.run_to_idle();
    }

    /// The store auditor's counts must balance: every hint queued while
    /// the replica was down is replayed exactly once on rejoin.
    #[test]
    fn hint_auditor_evidence_stream_balances_on_rejoin() {
        use apm_sim::{FaultEvent, FaultKind, SimTime};
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 3, 1, 0.01, 3);
        let mut s = CassandraStore::new(
            ctx,
            CassandraConfig {
                replication: 2,
                ..Default::default()
            },
        );
        for seq in 0..100 {
            s.load(&record_for_seq(seq));
        }
        s.finish_load();
        s.on_fault(
            &FaultEvent {
                at: SimTime(0),
                node: 1,
                kind: FaultKind::Crash,
            },
            &mut engine,
        );
        for seq in 100..200 {
            let record = record_for_seq(seq);
            s.plan_op(0, &Operation::Insert { row: record.into() }, &mut engine);
        }
        // The drain invariant itself is asserted inside on_fault(Restart).
        s.on_fault(
            &FaultEvent {
                at: SimTime(0),
                node: 1,
                kind: FaultKind::Restart,
            },
            &mut engine,
        );
        let queued = s.hint_audit.queued(1);
        assert!(queued > 0, "crash window must have queued hints");
        assert_eq!(s.hint_audit.replayed(1), queued);
        engine.run_to_idle();
    }

    #[test]
    fn reads_fail_over_to_a_live_replica() {
        use apm_sim::{FaultEvent, FaultKind, SimTime};
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 3, 1, 0.01, 3);
        let mut s = CassandraStore::new(
            ctx,
            CassandraConfig {
                replication: 2,
                ..Default::default()
            },
        );
        for seq in 0..200 {
            s.load(&record_for_seq(seq));
        }
        s.finish_load();
        s.on_fault(
            &FaultEvent {
                at: SimTime(0),
                node: 0,
                kind: FaultKind::Crash,
            },
            &mut engine,
        );
        // Every key primarily owned by node 0 must still be Found via its
        // second replica.
        for seq in 0..200 {
            let r = record_for_seq(seq);
            let (outcome, _) = s.plan_op(0, &Operation::Read { key: r.key }, &mut engine);
            assert_eq!(
                outcome,
                OpOutcome::Found(r.into()),
                "seq {seq} lost during single-node crash"
            );
        }
    }

    #[test]
    fn replication_writes_to_multiple_nodes() {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 3, 1, 0.01, 3);
        let mut s = CassandraStore::new(
            ctx,
            CassandraConfig {
                replication: 2,
                ..Default::default()
            },
        );
        for seq in 0..300 {
            s.load(&record_for_seq(seq));
        }
        let total: u64 = s.nodes.iter().map(|n| n.lsm.record_count()).sum();
        assert_eq!(total, 600, "rf=2 must store each record twice");
    }

    /// Hints queued for a node balance those replayed plus those still
    /// queued at every instant; a checkpoint whose auditor says otherwise
    /// is refused on resume, not left for the node's rejoin to panic on.
    #[test]
    fn forged_hint_balance_is_refused_on_resume() {
        let refused = crate::runner::tests::resume_forged(
            |engine| store(engine, 4),
            |s| s.hint_audit.on_queued(2),
            |_, _| {},
        );
        assert!(
            matches!(
                refused,
                Err(SnapError::BadTag {
                    what: "Cassandra hint balance",
                    tag: 2
                })
            ),
            "{refused:?}"
        );
    }

    /// A body whose node-indexed state disagrees with its node count is
    /// refused on resume — not left for the coordinator or the write path
    /// to index out of bounds on.
    #[test]
    fn forged_node_state_is_refused_on_resume() {
        let resumed = |forge: &dyn Fn(&mut CassandraStore)| {
            crate::runner::tests::resume_forged(|engine| store(engine, 4), forge, |_, _| {})
                .map(|r| r.issued > 0)
        };
        let count = Err(SnapError::BadTag {
            what: "Cassandra node count",
            tag: 4,
        });
        assert_eq!(resumed(&|s| s.down.push(false)), count);
        let fewer = Err(SnapError::BadTag {
            what: "Cassandra node count",
            tag: 3,
        });
        assert_eq!(
            resumed(&|s| {
                s.nodes.pop();
            }),
            fewer
        );
        assert_eq!(
            resumed(&|s| {
                s.hints.pop();
            }),
            count
        );
    }
}
