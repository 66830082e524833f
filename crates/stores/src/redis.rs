//! The Redis-like store: independent single-threaded in-memory instances
//! behind a Jedis-style client-side sharding ring.
//!
//! §4.4/§5.1: the Redis cluster version was unusable in 2011, so the
//! paper deployed one standalone instance per node and let the Jedis
//! library shard keys — "considerable advantage ... since there is no
//! interaction between the Redis instances", but also the study's big
//! failure mode: "the data distribution is unbalanced. This actually
//! caused one Redis node to consistently run out of memory in the 12 node
//! configuration" (both Murmur and MD5 ring hashes, footnote 7).
//!
//! Mechanisms modelled:
//! * a capacity-1 event-loop resource per instance (Redis is
//!   single-threaded) — service ≈ 18 µs/command ⇒ ~55 K ops/s/instance,
//!   the best single-node read throughput in Fig 3;
//! * the real Jedis ring (160 virtual nodes, MurmurHash64A) — its
//!   imbalance caps multi-node scaling at the hottest shard;
//! * a physical memory budget per instance — when the ring overloads the
//!   hottest shard it first *swaps* (every command slows 5×, gating the
//!   whole closed loop) and finally rejects writes;
//! * fewer client threads (§6: "we were forced to use a smaller number
//!   of threads") but twice the client machines (§5.1).

use crate::api::{load_partitioned, CostModel, DistributedStore, Request, StoreCtx};
use crate::routing::{JedisHash, JedisRing};
use apm_core::ops::{OpOutcome, Operation, RejectReason};
use apm_core::record::Row;
use apm_core::snap::{SnapError, SnapReader, SnapWriter};
use apm_sim::kernel::ResourceId;
use apm_sim::{Engine, Plan, SimDuration};
use apm_storage::hashstore::HashStore;
use std::ops::Range;

/// Command execution on the event loop: ~18 µs for GET/SET of a 75-byte
/// record ⇒ ≈55 K ops/s per instance (Fig 3's >50 K single-node reads).
const CMD_COST: CostModel = CostModel {
    base_ns: 15_000,
    per_probe_ns: 1_200,
    per_byte_ns: 8,
};
/// Client-side Jedis cost per command and its size on the wire.
const REQUEST: Request = Request::new(SimDuration::from_micros(15), 110);
/// Response sizes on the wire (RESP protocol framing).
const RESP_READ_BYTES: u64 = 140;
const RESP_WRITE_BYTES: u64 = 30;
/// Client thread budget. §6: every YCSB thread must hold a connection to
/// *every* Redis instance, so the total thread count could barely grow
/// with the cluster ("we were forced to use a smaller number of
/// threads") — 64 threads at one node, plus a small increment per added
/// shard. This is what keeps Redis's scaling sub-linear in Fig 3.
const BASE_CONNECTIONS: u32 = 64;
const EXTRA_CONNECTIONS_PER_NODE: u32 = 8;
/// Memory headroom each identically-sized instance has over the fleet's
/// *mean* data volume: 6.5 %. The faithfully rebuilt Jedis ring gives the
/// hottest of n shards 1.02×/1.05×/1.10×/1.08× the mean at n = 2/4/8/12,
/// so on small clusters every shard fits while the larger clusters push
/// their hottest shard past physical memory into swap — the §5.1
/// incident ("one Redis node to consistently run out of memory in the 12
/// node configuration"; our ring's worst-case skew peaks at 8 nodes, so
/// the overflow appears from 8 up — noted in EXPERIMENTS.md).
const SKEW_HEADROOM: f64 = 1.065;
/// Hard allocation limit relative to the planned per-node load, for the
/// terminal `-OOM` phase when a deployment is simply overfilled.
const BUDGET_HEADROOM: f64 = 1.065;
/// Service-time multiplier once an instance's data exceeds its physical
/// budget: the node starts swapping and every command stalls on page
/// faults, gating the whole closed loop at the hot shard.
const SWAP_FACTOR: u64 = 2;
/// Beyond this multiple of the budget, allocation fails outright and the
/// instance rejects writes (`-OOM`-style, the terminal phase).
const HARD_OOM_FACTOR: f64 = 1.25;

struct Instance {
    store: HashStore,
    event_loop: ResourceId,
}

impl Instance {
    /// Load-phase insert. Loads past the hard allocation limit are
    /// dropped, exactly like the paper's OOM-ing node (reads of those
    /// keys will miss), and counted in `rejections`.
    fn load(&mut self, row: Row, rejections: &mut u64) {
        if self.store.insert_row(row).is_err() {
            *rejections += 1;
        }
    }
}

/// The store.
pub struct RedisStore {
    ctx: StoreCtx,
    ring: JedisRing,
    instances: Vec<Instance>,
    /// Hard allocation limit per instance (kept to rebuild a wiped
    /// instance after a crash).
    hard_limit: u64,
    /// Load-phase inserts refused by a full instance (the §5.1 incident).
    load_rejections: u64,
}

impl RedisStore {
    /// Client machines for `nodes` servers: Redis "had to double the
    /// number of machines for the YCSB clients" (§5.1).
    pub fn client_machines(nodes: u32) -> u32 {
        (StoreCtx::standard_client_machines(nodes) * 2).min(10)
    }

    /// Creates the store; one instance per server node.
    pub fn new(ctx: StoreCtx, engine: &mut Engine) -> RedisStore {
        let planned_records_per_node = 10_000_000.0 * ctx.scale;
        let hard_limit = (planned_records_per_node
            * HashStore::bytes_per_record() as f64
            * BUDGET_HEADROOM
            * HARD_OOM_FACTOR) as u64;
        let instances = (0..ctx.node_count())
            .map(|i| Instance {
                store: HashStore::new(Some(hard_limit)),
                event_loop: engine.add_resource(format!("redis{i}.eventloop"), 1),
            })
            .collect();
        let ring = JedisRing::new(ctx.node_count(), JedisHash::Murmur);
        crate::audit::assert_ring_weight_conserved(
            &ring.vnode_weights(),
            crate::routing::JEDIS_VNODES as u64,
        );
        RedisStore {
            ring,
            ctx,
            instances,
            hard_limit,
            load_rejections: 0,
        }
    }

    fn shard(&self, key: &apm_core::record::MetricKey) -> usize {
        self.ring.route(key)
    }

    /// One command on `shard`'s event loop for `base` (stretched while
    /// the instance swaps).
    fn command_plan(
        &self,
        client: u32,
        request: Request,
        shard: usize,
        base: SimDuration,
        resp_bytes: u64,
    ) -> Plan {
        let (event_loop, service) = (self.instances[shard].event_loop, self.service(shard, base));
        self.ctx
            .round_trip(client, shard, request, resp_bytes, |plan| {
                plan.acquire(event_loop, service)
            })
    }

    /// Load-phase inserts refused because an instance was full.
    pub fn load_rejections(&self) -> u64 {
        self.load_rejections
    }

    /// Mean memory footprint across instances.
    fn mean_mem(&self) -> f64 {
        let total: u64 = self.instances.iter().map(|i| i.store.mem_bytes()).sum();
        total as f64 / self.instances.len() as f64
    }

    /// Whether `shard` is past its physical memory (identically-sized
    /// instances hold [`SKEW_HEADROOM`] over the fleet mean, so the shard
    /// the ring overloads beyond that swaps).
    fn is_swapping(&self, shard: usize) -> bool {
        self.instances.len() > 1
            && self.instances[shard].store.mem_bytes() as f64 > self.mean_mem() * SKEW_HEADROOM
    }

    fn service(&self, shard: usize, base: SimDuration) -> SimDuration {
        if self.is_swapping(shard) {
            base.saturating_mul(SWAP_FACTOR)
        } else {
            base
        }
    }

    /// Number of instances currently past their physical memory (swapping).
    pub fn swapping_instances(&self) -> usize {
        (0..self.instances.len())
            .filter(|&i| self.is_swapping(i))
            .count()
    }
}

impl DistributedStore for RedisStore {
    fn name(&self) -> &'static str {
        "redis"
    }

    fn ctx(&self) -> &StoreCtx {
        &self.ctx
    }

    fn load_row(&mut self, row: Row) {
        let shard = self.shard(&row.key());
        self.instances[shard].load(row, &mut self.load_rejections);
    }

    fn load_range_on(&mut self, seqs: Range<u64>, workers: usize) {
        // Each instance carries its own rejection tally through the
        // build, so the workers share nothing; the store's counter is
        // their sum.
        let ring = &self.ring;
        let mut tallied: Vec<(&mut Instance, u64)> =
            self.instances.iter_mut().map(|i| (i, 0)).collect();
        load_partitioned(
            &mut tallied,
            seqs,
            workers,
            |key| [ring.route(key)],
            |(instance, rejections), row| instance.load(row, rejections),
        );
        self.load_rejections += tallied
            .iter()
            .map(|(_, rejections)| rejections)
            .sum::<u64>();
    }

    fn plan_op(&mut self, client: u32, op: &Operation, _engine: &mut Engine) -> (OpOutcome, Plan) {
        match op {
            Operation::Read { key } => {
                let shard = self.shard(key);
                let (found, receipt) = self.instances[shard].store.get(key);
                let cost = CMD_COST.cpu(&receipt);
                let plan = self.command_plan(client, REQUEST, shard, cost, RESP_READ_BYTES);
                (OpOutcome::read(found), plan)
            }
            Operation::Insert { row } | Operation::Update { row } => {
                let shard = self.shard(&row.key());
                let (outcome, cost) = match self.instances[shard].store.insert_row(*row) {
                    Ok(receipt) => (OpOutcome::Done, CMD_COST.cpu(&receipt)),
                    // `-OOM command not allowed`: the server still parses
                    // and answers, the client sees an error.
                    Err(_) => (
                        OpOutcome::Rejected(RejectReason::OutOfMemory),
                        SimDuration::from_nanos(CMD_COST.base_ns),
                    ),
                };
                let plan = self.command_plan(client, REQUEST, shard, cost, RESP_WRITE_BYTES);
                (outcome, plan)
            }
            Operation::Scan { start, len } => {
                // ZRANGEBYLEX + per-key HGETALL, fanned out to every
                // shard (hash sharding scatters a key range everywhere),
                // merged client-side. The slowest shard gates.
                let mut total = 0usize;
                let branches = (0..self.instances.len())
                    .map(|shard| {
                        let (rows, receipt) = self.instances[shard].store.scan_count(start, *len);
                        total += rows;
                        let resp = RESP_READ_BYTES * rows.max(1) as u64;
                        // The client CPU is paid once, around the fan-out.
                        let cost = CMD_COST.cpu(&receipt);
                        self.command_plan(client, REQUEST.leg(), shard, cost, resp)
                    })
                    .collect();
                // Client-side merge of n × len candidates.
                let merge = SimDuration::from_nanos(2_000 + 300 * total as u64);
                let plan = self
                    .ctx
                    .plan()
                    .client_cpu(client, REQUEST.client_cpu)
                    .join(branches, self.instances.len())
                    .client_cpu(client, merge)
                    .finish();
                (OpOutcome::Scanned(total.min(*len)), plan)
            }
        }
    }

    fn on_fault(&mut self, event: &apm_sim::FaultEvent, engine: &mut Engine) {
        // The event loop is a store-private resource on the node's CPU:
        // it crashes, restarts and fail-slows with the node.
        let instance = self.instances.get_mut(event.node);
        let event_loop = instance.as_ref().map(|i| i.event_loop);
        crate::api::apply_node_fault(&self.ctx, engine, event, event_loop.as_slice());
        if let (Some(instance), apm_sim::FaultKind::Crash) = (instance, event.kind) {
            // No persistence in the paper's deployment: the shard's
            // dataset dies with the process. Reads of these keys miss
            // forever after — real data loss, not just downtime.
            instance.store = HashStore::new(Some(self.hard_limit));
        }
    }

    fn plan_target(&self, op: &Operation) -> Option<usize> {
        // Sharded Jedis pins every key to exactly one instance, so the
        // circuit breaker shards on the ring route.
        Some(self.shard(&op.routing_key()))
    }

    fn connection_cap(&self) -> Option<u32> {
        let nodes = self.ctx.node_count() as u32;
        Some(BASE_CONNECTIONS + EXTRA_CONNECTIONS_PER_NODE * (nodes - 1))
    }

    fn disk_bytes_per_node(&self) -> Option<u64> {
        // §5.7: "Redis and VoltDB do not store the data on disk".
        None
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        // Construction-time config and topology are not part of the
        // stream (sharded Jedis has no rebalancing — the ring never
        // changes).
        let RedisStore {
            ctx: _,
            ring: _,
            instances,
            hard_limit: _,
            load_rejections,
        } = self;
        for Instance {
            store,
            event_loop: _,
        } in instances
        {
            store.snap_state(w);
        }
        w.put_u64(*load_rejections);
    }

    fn restore_state(&mut self, r: &mut SnapReader, _engine: &mut Engine) -> Result<(), SnapError> {
        let RedisStore {
            ctx: _,
            ring: _,
            instances,
            hard_limit: _,
            load_rejections,
        } = self;
        for Instance {
            store,
            event_loop: _,
        } in instances.iter_mut()
        {
            store.restore_state(r)?;
        }
        *load_rejections = r.u64()?;
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

    fn make(engine: &mut Engine, nodes: u32, scale: f64) -> RedisStore {
        let ctx = StoreCtx::new(
            engine,
            ClusterSpec::cluster_m(),
            nodes,
            RedisStore::client_machines(nodes),
            scale,
            13,
        );
        RedisStore::new(ctx, engine)
    }

    fn quick_run(nodes: u32, workload: Workload, records: u64) -> crate::runner::RunResult {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, nodes, 0.01);
        let config = RunConfig::new(
            workload,
            ClientConfig::cluster_m(nodes).with_window(0.5, 3.0),
            records,
            nodes,
            7,
        );
        run_benchmark(&mut engine, &mut s, &config)
    }

    #[test]
    fn single_node_read_throughput_tops_50k() {
        // Fig 3: "Redis has the highest throughput (more than 50K ops/sec)".
        let t = quick_run(1, Workload::r(), 20_000).throughput();
        assert!(t > 45_000.0, "redis 1-node R too slow: {t}");
        assert!(t < 75_000.0, "redis 1-node R implausible: {t}");
    }

    #[test]
    fn read_latency_is_the_lowest_band() {
        // Fig 4: Redis has "the best latency among all systems" (~1 ms).
        let result = quick_run(1, Workload::r(), 20_000);
        let lat = result.mean_latency_ms(OpKind::Read).unwrap();
        assert!(lat < 2.5, "redis read latency too high: {lat} ms");
    }

    #[test]
    fn scaling_is_sublinear_due_to_ring_imbalance() {
        // Fig 3: Redis "does not show the expected scalability".
        let one = quick_run(1, Workload::r(), 20_000).throughput();
        let eight = quick_run(8, Workload::r(), 20_000).throughput();
        let speedup = eight / one;
        assert!(speedup > 3.0, "some scaling expected: {speedup:.2}");
        assert!(speedup < 7.5, "imbalance must cost scaling: {speedup:.2}");
    }

    #[test]
    fn hottest_shard_oom_occurs_on_large_clusters_only() {
        // §5.1: "one Redis node to consistently run out of memory in the
        // 12 node configuration". Per-node record count is constant, so
        // the trigger is the ring's worst-case share: on small clusters
        // every shard fits; on the large ones the hottest shard exceeds
        // its physical budget and starts swapping.
        let swap_state = |nodes: u32| {
            let mut engine = Engine::new();
            let mut s = make(&mut engine, nodes, 0.002);
            let per_node = (10_000_000.0 * 0.002) as u64;
            for seq in 0..per_node * u64::from(nodes) {
                s.load(&record_for_seq(seq));
            }
            let hottest = s.instances.iter().map(|i| i.store.mem_bytes()).max();
            (
                s.swapping_instances(),
                s.load_rejections(),
                hottest.unwrap_or(0) as f64 / s.hard_limit as f64,
            )
        };
        let (swap2, rej2, fill2) = swap_state(2);
        let (swap4, rej4, fill4) = swap_state(4);
        let (swap12, _rej12, fill12) = swap_state(12);
        assert_eq!(
            (swap2, rej2),
            (0, 0),
            "2-node hottest shard must fit (fill {fill2:.3})"
        );
        assert_eq!(
            (swap4, rej4),
            (0, 0),
            "4-node hottest shard must fit (fill {fill4:.3})"
        );
        assert!(
            swap12 >= 1,
            "12-node hottest shard must swap (fill {fill12:.3})"
        );
    }

    #[test]
    fn swapping_shard_slows_the_whole_cluster() {
        // The §5.1 incident's throughput effect: the convoy at the
        // swapping shard gates aggregate throughput well below linear.
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 12, 0.002);
        let config = RunConfig::new(
            Workload::r(),
            ClientConfig::cluster_m(12).with_window(0.5, 3.0),
            20_000,
            12,
            7,
        );
        let result = run_benchmark(&mut engine, &mut s, &config);
        assert!(
            s.swapping_instances() >= 1,
            "setup must include a swapping shard"
        );
        let per_node = result.throughput() / 12.0;
        // A healthy instance sustains ~55 K; the convoy must pull the
        // per-node average far below that.
        assert!(
            per_node < 30_000.0,
            "swap convoy missing: {per_node:.0} ops/s/node"
        );
    }

    #[test]
    fn inserts_on_full_shard_are_rejected_but_run_continues() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 12, 0.002);
        // Overfill: 30% beyond the paper load pushes the hottest shards
        // past the hard allocation limit.
        let config = RunConfig::new(
            Workload::w(),
            ClientConfig::cluster_m(12).with_window(0.2, 1.0),
            26_000,
            12,
            7,
        );
        let result = run_benchmark(&mut engine, &mut s, &config);
        assert!(s.load_rejections() > 0, "overfilled load must reject");
        assert!(result.throughput() > 0.0, "other shards keep serving");
    }

    #[test]
    fn scans_fan_out_and_return_global_window() {
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 4, 0.01);
        for seq in 0..8_000 {
            s.load(&record_for_seq(seq));
        }
        let mut keys: Vec<_> = (0..8_000).map(|q| record_for_seq(q).key).collect();
        keys.sort();
        let (outcome, plan) = s.plan_op(
            0,
            &Operation::Scan {
                start: keys[100],
                len: 50,
            },
            &mut engine,
        );
        assert_eq!(outcome, OpOutcome::Scanned(50));
        // The fan-out must reference every shard's event loop.
        assert!(plan.total_steps() > 4 * 5, "expected a 4-way fan-out");
    }

    #[test]
    fn crash_wipes_the_shard_and_restart_does_not_bring_data_back() {
        use apm_sim::{FaultEvent, FaultKind, SimTime};
        let mut engine = Engine::new();
        let mut s = make(&mut engine, 4, 0.01);
        for seq in 0..2_000 {
            s.load(&record_for_seq(seq));
        }
        let victim = 1usize;
        let lost = s.instances[victim].store.len();
        assert!(lost > 0, "victim shard must own data");
        s.on_fault(
            &FaultEvent {
                at: SimTime(0),
                node: victim,
                kind: FaultKind::Crash,
            },
            &mut engine,
        );
        assert!(engine.resource_is_down(s.instances[victim].event_loop));
        assert_eq!(
            s.instances[victim].store.len(),
            0,
            "no persistence: data dies"
        );
        s.on_fault(
            &FaultEvent {
                at: SimTime(0),
                node: victim,
                kind: FaultKind::Restart,
            },
            &mut engine,
        );
        assert!(!engine.resource_is_down(s.instances[victim].event_loop));
        // The process is back but its keyspace is gone: reads miss.
        let mut misses = 0usize;
        for seq in 0..2_000 {
            let r = record_for_seq(seq);
            if s.shard(&r.key) == victim {
                let (outcome, _) = s.plan_op(0, &Operation::Read { key: r.key }, &mut engine);
                assert_eq!(outcome, OpOutcome::Missing, "seq {seq} should be lost");
                misses += 1;
            }
        }
        assert_eq!(misses, lost);
    }

    #[test]
    fn connection_cap_grows_only_slowly_with_node_count() {
        let mut engine = Engine::new();
        let s1 = make(&mut engine, 1, 0.01);
        assert_eq!(s1.connection_cap(), Some(64));
        let mut engine = Engine::new();
        let s12 = make(&mut engine, 12, 0.01);
        assert_eq!(
            s12.connection_cap(),
            Some(152),
            "§6: thread budget barely grows"
        );
        assert_eq!(s12.disk_bytes_per_node(), None);
    }
}
