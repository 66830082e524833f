//! The HBase-like store: region servers over HDFS.
//!
//! §4.1: HBase runs region servers that own contiguous key ranges and
//! persist everything through HDFS. Architecture mirrored here:
//!
//! * a [`RegionMap`] routes keys by range (regions interleaved across
//!   servers);
//! * each server runs a real LSM engine (memstore → HFiles, the same
//!   substrate as the Cassandra store);
//! * *all* file I/O goes through the [`Hdfs`] layer — in 0.90 there were
//!   no short-circuit reads, so even local block reads pay the DataNode
//!   stream overhead on a small xceiver pool. That is the store's
//!   signature: the worst read latency and the lowest single-node
//!   throughput of the field (≈2.5 K ops/s, Fig 3) while writes are the
//!   *fastest* (deferred WAL: the edit is acknowledged from the memstore,
//!   Fig 5), and write-heavy workloads nearly double throughput (§5.3).
//! * flushes and compactions are pipeline writes with 3× replication,
//!   which is also why HBase is the least disk-efficient store (Fig 17).

use crate::api::{
    load_partitioned, BackgroundWork, CostModel, DistributedStore, Request, StoreCtx, StorePlan,
};
use crate::cache::PageCache;
use crate::hdfs::Hdfs;
use crate::routing::RegionMap;
use apm_core::ops::{OpOutcome, Operation};
use apm_core::record::Row;
use apm_core::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use apm_core::snap_state;
use apm_sim::{Engine, Plan, SimDuration};
use apm_storage::encoding::{hbase_format, StorageFormat};
use apm_storage::lsm::{BackgroundJob, LsmConfig, LsmTree};
use apm_storage::receipt::DiskIo;
use apm_storage::wal::{CommitLog, SyncPolicy};
use std::collections::BTreeMap;
use std::ops::Range;

/// Read path CPU (RPC, memstore + block lookup) — cheap; the latency is
/// in HDFS.
const READ_COST: CostModel = CostModel {
    base_ns: 260_000,
    per_probe_ns: 10_000,
    per_byte_ns: 30,
};
/// Write path CPU: building KeyValues (one per field!), CSLM insert, WAL
/// edit. HBase 0.90's write path was heavyweight — calibrated to ≈10 K
/// inserts/s on one 8-core node (Fig 9).
const WRITE_COST: CostModel = CostModel {
    base_ns: 700_000,
    per_probe_ns: 10_000,
    per_byte_ns: 40,
};
/// Scan fragment cost (sequential next() calls on the region scanner).
const SCAN_COST: CostModel = CostModel {
    base_ns: 900_000,
    per_probe_ns: 10_000,
    per_byte_ns: 30,
};
/// Client (HTable) cost per op and the request's size on the wire.
const REQUEST: Request = Request::new(SimDuration::from_micros(25), 150);
/// Page-cache share of RAM on the DataNodes (rest is the two JVMs).
const PAGE_CACHE_FRACTION: f64 = 0.5;
/// Regions per server (pre-split steady state).
const REGIONS_PER_SERVER: usize = 4;
/// Response sizes on the wire.
const RESP_READ_BYTES: u64 = 260;
const RESP_WRITE_BYTES: u64 = 40;
/// Master failure-detection delay before a dead server's regions are
/// reassigned (ZooKeeper session timeout + master processing, scaled
/// down from the production 30–180 s defaults to stay observable in
/// short simulated windows).
const DETECTION_DELAY: SimDuration = SimDuration::from_millis(1_000);
/// Floor on WAL-replay bytes (region-open overhead + meta edits) so a
/// crash is never free even with an empty deferred-WAL backlog.
const MIN_REPLAY_BYTES: u64 = 1 << 20;

struct Server {
    lsm: LsmTree,
    wal: CommitLog,
    cache: PageCache,
}

snap_state! { Server { lsm, wal, cache } }

impl Server {
    /// Load-phase insert: the flush and compaction work it triggers
    /// completes on the spot (load time is not simulated).
    fn load(&mut self, row: Row) {
        let (_, job) = self.lsm.insert_row(row);
        self.lsm.settle(job);
    }
}

/// The store.
pub struct HbaseStore {
    ctx: StoreCtx,
    regions: RegionMap,
    hdfs: Hdfs,
    format: StorageFormat,
    servers_state: Vec<Server>,
    /// Pending deferred-WAL bytes per server (flushed with memstores).
    wal_backlog: Vec<u64>,
    /// Block-cache budget per server (kept to rebuild a cold cache after
    /// a crash).
    cache_bytes: u64,
    /// Crashed region servers (no requests served until reassignment).
    down: Vec<bool>,
    /// Regions of a dead server re-opened on a substitute: dead → host.
    /// The data lives in HDFS, so the substitute serves it with its own
    /// CPU/disk/NIC once WAL replay finishes.
    reassigned: BTreeMap<usize, usize>,
}

impl HbaseStore {
    /// Creates the store.
    pub fn new(ctx: StoreCtx, engine: &mut Engine) -> HbaseStore {
        let flush_bytes = ctx.memtable_flush_bytes();
        let cache_bytes = (ctx.scaled_ram() as f64 * PAGE_CACHE_FRACTION) as u64;
        let n = ctx.node_count();
        let servers_state = (0..n)
            .map(|i| Server {
                lsm: LsmTree::new(LsmConfig {
                    memtable_flush_bytes: flush_bytes,
                    ..LsmConfig::default()
                }),
                wal: CommitLog::new(SyncPolicy::Deferred, 40),
                cache: PageCache::new(cache_bytes, ctx.seed ^ ((i as u64) << 16)),
            })
            .collect();
        let hdfs = Hdfs::new(engine, &ctx);
        HbaseStore {
            regions: RegionMap::new(n, REGIONS_PER_SERVER),
            hdfs,
            format: hbase_format(),
            servers_state,
            wal_backlog: vec![0; n],
            cache_bytes,
            down: vec![false; n],
            reassigned: BTreeMap::new(),
            ctx,
        }
    }

    /// Which live server hosts `server`'s regions right now: itself when
    /// up, its substitute after reassignment, nobody while the master is
    /// still detecting the crash or replaying the WAL.
    fn host_for(&self, server: usize) -> Option<usize> {
        if !self.down[server] {
            return Some(server);
        }
        self.reassigned
            .get(&server)
            .copied()
            .filter(|&h| !self.down[h])
    }

    /// Store audit: see [`crate::audit::region_reassignment_is_bijective`].
    fn assert_reassignment_bijective(&self) {
        assert!(
            crate::audit::region_reassignment_is_bijective(&self.reassigned, &self.down),
            "store audit: region reassignment {:?} is not a bijection onto distinct hosts (down: {:?})",
            self.reassigned,
            self.down
        );
    }

    fn expand(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.format.expansion()).round() as u64
    }

    /// A request to a region whose server is dead and not yet reassigned:
    /// it dies with a connection-refused error and no store-state side
    /// effects. The abort is unconditional because the refusal was
    /// decided at routing time — the server restarting before the plan
    /// executes must not turn it into a phantom success.
    fn dead_region_plan(&self, client: u32, server: usize) -> Plan {
        self.ctx.round_trip(
            client,
            server,
            REQUEST,
            RESP_WRITE_BYTES,
            StorePlan::refused,
        )
    }

    /// A read or scan of `server`'s data served by `host`: CPU, then every
    /// HFile block consulted goes through the DataNode (a page-cache hit
    /// skips only the disk).
    fn read_plan(
        &mut self,
        client: u32,
        server: usize,
        host: usize,
        cpu: SimDuration,
        blocks: &[DiskIo],
        response_bytes: u64,
    ) -> Plan {
        let data_bytes = self
            .format
            .disk_usage(self.servers_state[server].lsm.record_count());
        let (hdfs, cache) = (&self.hdfs, &mut self.servers_state[host].cache);
        self.ctx
            .round_trip(client, host, REQUEST, response_bytes, |plan| {
                blocks.iter().fold(plan.cpu(host, cpu), |plan, io| {
                    hdfs.read(plan, host, io.bytes, cache.sample_hit(data_bytes))
                })
            })
    }

    fn schedule_job(&mut self, server: usize, job: BackgroundJob, engine: &mut Engine) {
        // Background work for a dead server's regions runs on whichever
        // node re-opened them (its token names the region owner).
        let host = self.host_for(server).unwrap_or(server);
        let mut plan = self.ctx.plan();
        // Compaction first streams its inputs back in from HDFS (usually
        // warm, so cached).
        if job.read_bytes > 0 {
            plan = self
                .hdfs
                .read(plan, host, self.expand(job.read_bytes), true);
        }
        let written = self.expand(job.write_bytes);
        plan = plan.cpu(host, SimDuration::from_nanos(written * 10));
        // Flush/compaction output is pipeline-written with replication;
        // piggy-back the deferred WAL backlog on the same sync.
        let wal_bytes = std::mem::take(&mut self.wal_backlog[server]);
        plan = self.hdfs.write(plan, host, written + wal_bytes);
        let token = BackgroundWork::TreeJob(server, job.id).token();
        engine.submit(plan.finish(), token);
    }
}

impl DistributedStore for HbaseStore {
    fn name(&self) -> &'static str {
        "hbase"
    }

    fn ctx(&self) -> &StoreCtx {
        &self.ctx
    }

    fn load_row(&mut self, row: Row) {
        self.servers_state[self.regions.route(&row.key())].load(row);
    }

    fn load_range_on(&mut self, seqs: Range<u64>, workers: usize) {
        let regions = &self.regions;
        load_partitioned(
            &mut self.servers_state,
            seqs,
            workers,
            |key| [regions.route(key)],
            Server::load,
        );
    }

    fn finish_load(&mut self) {
        for server in &mut self.servers_state {
            let job = server.lsm.force_flush();
            server.lsm.settle(job);
        }
    }

    fn plan_op(&mut self, client: u32, op: &Operation, engine: &mut Engine) -> (OpOutcome, Plan) {
        match op {
            Operation::Read { key } => {
                let server = self.regions.route(key);
                let Some(host) = self.host_for(server) else {
                    return (OpOutcome::Missing, self.dead_region_plan(client, server));
                };
                let (found, receipt) = self.servers_state[server].lsm.get(key);
                let cpu = READ_COST.cpu(&receipt);
                let plan = self.read_plan(client, server, host, cpu, &receipt.io, RESP_READ_BYTES);
                (OpOutcome::read(found), plan)
            }
            Operation::Insert { row } | Operation::Update { row } => {
                let server = self.regions.route(&row.key());
                let Some(host) = self.host_for(server) else {
                    return (OpOutcome::Done, self.dead_region_plan(client, server));
                };
                let (receipt, flush) = self.servers_state[server].lsm.insert_row(*row);
                let wal = self.servers_state[server].wal.append(75 * 5); // one WALEdit per KeyValue
                debug_assert!(wal.io.is_none(), "deferred WAL");
                self.wal_backlog[server] += self.servers_state[server].wal.take_unflushed();
                let plan = self
                    .ctx
                    .round_trip(client, host, REQUEST, RESP_WRITE_BYTES, |plan| {
                        plan.cpu(host, WRITE_COST.cpu(&receipt))
                    });
                if let Some(job) = flush {
                    self.schedule_job(server, job, engine);
                }
                (OpOutcome::Done, plan)
            }
            Operation::Scan { start, len } => {
                let server = *self
                    .regions
                    .scan_route(start, *len)
                    .first()
                    .expect("scan has a home region");
                let Some(host) = self.host_for(server) else {
                    return (OpOutcome::Scanned(0), self.dead_region_plan(client, server));
                };
                let (rows, receipt) = self.servers_state[server].lsm.scan_count(start, *len);
                let cpu = SCAN_COST.cpu(&receipt);
                let resp = RESP_READ_BYTES * rows.max(1) as u64 / 2;
                let plan = self.read_plan(client, server, host, cpu, &receipt.io, resp);
                (OpOutcome::Scanned(rows), plan)
            }
        }
    }

    fn on_fault(&mut self, event: &apm_sim::FaultEvent, engine: &mut Engine) {
        crate::api::apply_node_fault(&self.ctx, engine, event, &[]);
        if event.node >= self.servers_state.len() {
            return;
        }
        match event.kind {
            apm_sim::FaultKind::Crash => {
                let dead = event.node;
                self.down[dead] = true;
                // The process is gone: block cache restarts cold.
                self.servers_state[dead].cache =
                    PageCache::new(self.cache_bytes, self.ctx.seed ^ ((dead as u64) << 16));
                let sub = (dead + 1) % self.servers_state.len();
                if sub != dead && !self.down[sub] {
                    // Master recovery: wait out failure detection, then
                    // the substitute splits and replays the dead server's
                    // WAL from HDFS before re-opening its regions. Until
                    // this job completes, the regions serve nothing.
                    let backlog = std::mem::take(&mut self.wal_backlog[dead]);
                    let replay = self.expand(backlog) + MIN_REPLAY_BYTES;
                    let detected = self.ctx.plan().wait(DETECTION_DELAY);
                    let recovery = self
                        .hdfs
                        .read(detected, sub, replay, false)
                        .cpu(sub, SimDuration::from_nanos(replay * 10));
                    engine.submit(recovery.finish(), BackgroundWork::Recovery(dead).token());
                }
            }
            apm_sim::FaultKind::Restart => {
                // The server rejoins and the master moves its regions
                // back (a cheap reopen — the data never left HDFS).
                self.down[event.node] = false;
                self.reassigned.remove(&event.node);
                self.assert_reassignment_bijective();
            }
            // Slowdowns and partitions are applied uniformly by
            // `apply_node_fault`; no HBase-specific bookkeeping.
            apm_sim::FaultKind::DiskSlow { .. }
            | apm_sim::FaultKind::DiskRestore
            | apm_sim::FaultKind::PartitionStart
            | apm_sim::FaultKind::PartitionEnd
            | apm_sim::FaultKind::FailSlow { .. }
            | apm_sim::FaultKind::FailSlowEnd => {}
        }
    }

    fn on_background(&mut self, job_id: u64, engine: &mut Engine) {
        // A token naming a server past the count or a job its tree does
        // not have in flight (only a forged snapshot can hold one) is
        // ignored, as the driver ignores a stray fault sentinel.
        let servers = self.servers_state.len();
        match BackgroundWork::from_payload(job_id) {
            // WAL replay finished: the substitute re-opens the regions —
            // unless the dead server already restarted in the meantime. A
            // substitute already hosting regions hosts its predecessor's
            // (or, in a forged checkpoint, another server's): no change.
            Some(BackgroundWork::Recovery(dead)) if dead < servers && self.down[dead] => {
                let sub = (dead + 1) % servers;
                if !self.down[sub] && !self.reassigned.values().any(|&h| h == sub) {
                    self.reassigned.insert(dead, sub);
                    self.assert_reassignment_bijective();
                }
            }
            Some(BackgroundWork::TreeJob(server, id)) if server < servers => {
                let lsm = &mut self.servers_state[server].lsm;
                if let Some(next) = lsm.in_flight(id).and_then(|job| lsm.complete(job)) {
                    self.schedule_job(server, next, engine);
                }
            }
            Some(BackgroundWork::Recovery(_) | BackgroundWork::TreeJob(..)) => {}
            Some(BackgroundWork::Stream(_)) | None => {}
        }
    }

    fn disk_bytes_per_node(&self) -> Option<u64> {
        let records: u64 = self
            .servers_state
            .iter()
            .map(|s| s.lsm.record_count())
            .sum();
        Some(self.format.disk_usage(records) / self.servers_state.len() as u64)
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        // Construction-time config and topology are not part of the
        // stream: region layout and the HDFS model are static for a run.
        let HbaseStore {
            ctx: _,
            regions: _,
            hdfs: _,
            format: _,
            servers_state,
            wal_backlog,
            cache_bytes: _,
            down,
            reassigned,
        } = self;
        servers_state[..].snap_state(w);
        w.put(wal_backlog);
        w.put(down);
        w.put(reassigned);
    }

    fn restore_state(&mut self, r: &mut SnapReader, _engine: &mut Engine) -> Result<(), SnapError> {
        let HbaseStore {
            ctx: _,
            regions: _,
            hdfs: _,
            format: _,
            servers_state,
            wal_backlog,
            cache_bytes: _,
            down,
            reassigned,
        } = self;
        servers_state[..].restore_state(r)?;
        *wal_backlog = r.get()?;
        *down = r.get()?;
        *reassigned = r.get()?;
        // Every later index by server number — and the runtime bijection
        // assert — must hold for what a body can say.
        let servers = servers_state.len();
        if down.len() != servers
            || wal_backlog.len() != servers
            || !crate::audit::region_reassignment_is_bijective(reassigned, down)
        {
            return Err(SnapError::BadTag {
                what: "HBase region reassignment",
                tag: reassigned.len() as u64,
            });
        }
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

    fn make(engine: &mut Engine, nodes: u32, scale: f64) -> HbaseStore {
        let ctx = StoreCtx::new(
            engine,
            ClusterSpec::cluster_m(),
            nodes,
            StoreCtx::standard_client_machines(nodes),
            scale,
            37,
        );
        HbaseStore::new(ctx, engine)
    }

    fn quick_run(nodes: u32, workload: Workload) -> crate::runner::RunResult {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, nodes, 0.01);
        let config = RunConfig::new(
            workload,
            ClientConfig::cluster_m(nodes).with_window(0.5, 3.0),
            20_000,
            nodes,
            41,
        );
        run_benchmark(&mut engine, &mut s, &config)
    }

    #[test]
    fn reads_find_loaded_records() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 3, 0.01);
        for seq in 0..3_000 {
            s.load(&record_for_seq(seq));
        }
        s.finish_load();
        for seq in (0..3_000).step_by(211) {
            let r = record_for_seq(seq);
            let (outcome, _) = s.plan_op(0, &Operation::Read { key: r.key }, &mut engine);
            assert_eq!(outcome, OpOutcome::Found(r.into()), "seq {seq}");
        }
    }

    #[test]
    fn single_node_read_throughput_is_the_lowest() {
        // Fig 3: "The slowest system in this test on a single node is
        // HBase with 2.5K operations per second."
        let t = quick_run(1, Workload::r()).throughput();
        assert!((1_200.0..6_000.0).contains(&t), "hbase 1-node R: {t}");
    }

    #[test]
    fn read_latency_is_high_and_write_latency_is_low() {
        // Figs 4/5: HBase read latency 50-90 ms; write latency the
        // lowest, well under 2 ms ("clearly trades a read latency for
        // write latency").
        let result = quick_run(1, Workload::r());
        let r = result.mean_latency_ms(OpKind::Read).unwrap();
        let w = result.mean_latency_ms(OpKind::Insert).unwrap();
        assert!(r > 20.0, "hbase read latency too low: {r} ms");
        assert!(
            w < 0.3 * r,
            "hbase writes must be far cheaper than reads: {w} vs {r}"
        );
    }

    #[test]
    fn write_heavy_workloads_increase_throughput() {
        // §5.2/§5.3: RW ≈ +40% over R; W almost 2× RW.
        let r = quick_run(1, Workload::r()).throughput();
        let rw = quick_run(1, Workload::rw()).throughput();
        let w = quick_run(1, Workload::w()).throughput();
        assert!(rw > r * 1.2, "RW must beat R: {r} → {rw}");
        assert!(w > rw * 1.3, "W must beat RW: {rw} → {w}");
    }

    #[test]
    fn throughput_scales_with_region_servers() {
        let one = quick_run(1, Workload::r()).throughput();
        let four = quick_run(4, Workload::r()).throughput();
        let speedup = four / one;
        assert!((2.8..5.2).contains(&speedup), "hbase speedup {speedup:.2}");
    }

    #[test]
    fn background_flushes_replicate_through_hdfs() {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 3, 1, 0.001, 37);
        let mut s = HbaseStore::new(ctx, &mut engine);
        // Insert through plan_op until a flush job fires.
        for seq in 0..3_000 {
            let record = record_for_seq(seq);
            let (_, plan) = s.plan_op(0, &Operation::Insert { row: record.into() }, &mut engine);
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
        let flushed: u64 = s.servers_state.iter().map(|x| x.lsm.stats().flushes).sum();
        assert!(flushed > 0, "no memstore flush happened");
        // Pipeline replication: disks on several nodes saw writes.
        let disks_used = s
            .ctx
            .servers
            .iter()
            .filter(|n| engine.served(n.disk) > 0)
            .count();
        assert!(
            disks_used >= 2,
            "replication pipeline must hit ≥2 nodes: {disks_used}"
        );
    }

    #[test]
    fn crashed_server_regions_reassign_after_wal_replay() {
        use apm_sim::{FaultEvent, FaultKind, SimTime};
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 3, 0.01);
        for seq in 0..3_000 {
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
        // Detection + WAL replay pending: the regions serve nothing.
        assert_eq!(s.host_for(1), None);
        // Drain the recovery job.
        let recovery = Some(BackgroundWork::Recovery(1));
        let mut recoveries = 0;
        while let Some(c) = engine.next_completion() {
            if let Tag::Background(id) = Tag::of(c.token) {
                recoveries += usize::from(BackgroundWork::from_payload(id) == recovery);
                s.on_background(id, &mut engine);
            }
        }
        assert_eq!(recoveries, 1, "crash must start a recovery job");
        assert_eq!(
            s.host_for(1),
            Some(2),
            "regions must re-open on the substitute"
        );
        assert!(
            engine.now() >= SimTime(DETECTION_DELAY.as_nanos()),
            "reassignment cannot precede failure detection"
        );
        // Every record is still readable (served through node 2).
        for seq in (0..3_000).step_by(173) {
            let r = record_for_seq(seq);
            let (outcome, _) = s.plan_op(0, &Operation::Read { key: r.key }, &mut engine);
            assert_eq!(
                outcome,
                OpOutcome::Found(r.into()),
                "seq {seq} lost in failover"
            );
        }
        // Restart: the regions move home.
        s.on_fault(
            &FaultEvent {
                at: SimTime(0),
                node: 1,
                kind: FaultKind::Restart,
            },
            &mut engine,
        );
        assert_eq!(s.host_for(1), Some(1));
    }

    #[test]
    fn disk_usage_is_the_largest_format() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 2, 0.01);
        for seq in 0..10_000 {
            s.load(&record_for_seq(seq));
        }
        s.finish_load();
        let per_node = s.disk_bytes_per_node().unwrap();
        assert_eq!(per_node, hbase_format().disk_usage(5_000));
        assert!(per_node > 9 * 75 * 5_000, "≈10× raw (§5.7)");
    }

    /// A substitute that crashes while it holds a dead server's regions
    /// leaves a reassignment onto a down host: legal (the regions serve
    /// nothing until one of the two restarts), so neither the recovery
    /// that follows nor the restarts trip the bijection check.
    #[test]
    fn a_substitute_crashing_with_borrowed_regions_keeps_the_bijection() {
        use apm_sim::{FaultEvent, FaultKind, SimTime};
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 3, 0.01);
        for seq in 0..3_000 {
            s.load(&record_for_seq(seq));
        }
        s.finish_load();
        let fault = |s: &mut HbaseStore, engine: &mut Engine, node, kind| {
            s.on_fault(
                &FaultEvent {
                    at: SimTime(0),
                    node,
                    kind,
                },
                engine,
            );
            while let Some(c) = engine.next_completion() {
                if let Tag::Background(id) = Tag::of(c.token) {
                    s.on_background(id, engine);
                }
            }
        };
        fault(&mut s, &mut engine, 1, FaultKind::Crash);
        assert_eq!(s.host_for(1), Some(2));
        // Node 2 dies holding node 1's regions; its own go to node 0.
        fault(&mut s, &mut engine, 2, FaultKind::Crash);
        assert_eq!((s.host_for(1), s.host_for(2)), (None, Some(0)));
        fault(&mut s, &mut engine, 2, FaultKind::Restart);
        assert_eq!((s.host_for(1), s.host_for(2)), (Some(2), Some(2)));
        fault(&mut s, &mut engine, 1, FaultKind::Restart);
        assert_eq!(s.host_for(1), Some(1));
    }

    /// A recovery token whose substitute already hosts another dead
    /// server's regions — a forged checkpoint can pair such a map with
    /// such a token — re-opens nothing rather than break the bijection.
    #[test]
    fn a_recovery_onto_a_substitute_hosting_others_is_ignored() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 4, 0.01);
        s.down[0] = true;
        s.down[1] = true;
        s.reassigned.insert(0, 2);
        let Tag::Background(payload) = Tag::of(BackgroundWork::Recovery(1).token()) else {
            panic!("a recovery token is a background one");
        };
        s.on_background(payload, &mut engine);
        assert_eq!((s.host_for(0), s.host_for(1)), (Some(2), None));
    }

    /// A checkpoint whose reassignment map is no bijection — here a live
    /// server's regions "reassigned" — is refused on resume.
    #[test]
    fn forged_region_reassignment_is_refused_on_resume() {
        let refused = crate::runner::tests::resume_forged(
            |engine| make(engine, 4, 0.01),
            |s| {
                s.reassigned.insert(0, 1);
            },
            |_, _| {},
        );
        assert!(
            matches!(
                refused,
                Err(SnapError::BadTag {
                    what: "HBase region reassignment",
                    ..
                })
            ),
            "{refused:?}"
        );
    }
}
