//! The common interface of the six stores plus shared plan-building
//! helpers (client/server network hops, receipt → plan conversion).

use apm_core::keyspace::{key_for_seq, record_for_seq};
use apm_core::ops::{OpOutcome, Operation};
use apm_core::record::{MetricKey, Record};
use apm_core::snap::{SnapError, SnapReader, SnapWriter};
use apm_sim::cluster::NodeResources;
use apm_sim::kernel::Token;
use apm_sim::{ClusterSpec, Engine, FailMode, FaultEvent, FaultKind, Plan, SimDuration, Step};
use apm_storage::receipt::{CostReceipt, DiskIo};
use std::ops::Range;

/// Bit marking a token as a background job rather than a client op.
pub const BACKGROUND_BIT: u64 = 1 << 63;

/// Bit marking a token as a fault-schedule sentinel (the benchmark
/// runner's timers for node crash/restart/slowdown transitions).
pub const FAULT_BIT: u64 = 1 << 62;

/// Builds the token for background job `job_id`.
pub fn background_token(job_id: u64) -> Token {
    debug_assert!(job_id & (BACKGROUND_BIT | FAULT_BIT) == 0);
    Token(BACKGROUND_BIT | job_id)
}

/// Builds the sentinel token for fault-schedule event `index`.
pub fn fault_token(index: u64) -> Token {
    debug_assert!(index & (BACKGROUND_BIT | FAULT_BIT) == 0);
    Token(FAULT_BIT | index)
}

/// Splits a completed token into `(is_background, id)`.
pub fn split_token(token: Token) -> (bool, u64) {
    (token.0 & BACKGROUND_BIT != 0, token.0 & !BACKGROUND_BIT)
}

/// Splits a completed token into `(is_fault_sentinel, index)`.
pub fn split_fault_token(token: Token) -> (bool, u64) {
    (token.0 & FAULT_BIT != 0, token.0 & !FAULT_BIT)
}

/// Bit marking a client token as a hedge attempt (the speculative
/// duplicate read issued to an alternative replica).
pub const HEDGE_BIT: u64 = 1 << 61;

/// Bit marking a client token as a hedge *trigger*: the pure
/// delay the driver arms alongside a primary read; its completion is the
/// signal to launch the hedge, never a measured response.
pub const HEDGE_TRIGGER_BIT: u64 = 1 << 60;

/// Bits of a client token carrying the client id.
pub const CLIENT_BITS: u32 = 20;

const CLIENT_MASK: u64 = (1 << CLIENT_BITS) - 1;
const EPOCH_MASK: u64 = (1 << (60 - CLIENT_BITS)) - 1;

/// Which role a client attempt token plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptKind {
    /// The primary (or retried) attempt of a logical op.
    Primary,
    /// The speculative hedge attempt.
    Hedge,
    /// The delay event that fires to launch a hedge.
    HedgeTrigger,
}

/// Builds the token for `client`'s attempt `epoch` — the token of every
/// client op, with or without a policy. Epochs advance on every attempt
/// submission, so stale completions (cancelled losers, late stragglers)
/// are recognised by epoch mismatch.
pub fn attempt_token(client: u32, epoch: u64) -> Token {
    debug_assert!(u64::from(client) <= CLIENT_MASK && epoch <= EPOCH_MASK);
    Token((epoch & EPOCH_MASK) << CLIENT_BITS | u64::from(client))
}

/// Builds the hedge-attempt token for `client`'s attempt `epoch`.
pub fn hedge_token(client: u32, epoch: u64) -> Token {
    Token(HEDGE_BIT | attempt_token(client, epoch).0)
}

/// Builds the hedge-trigger token for `client`'s attempt `epoch`.
pub fn hedge_trigger_token(client: u32, epoch: u64) -> Token {
    Token(HEDGE_TRIGGER_BIT | attempt_token(client, epoch).0)
}

/// Splits a client token into `(client, epoch, kind)`.
/// Callers must have already excluded background and fault sentinels.
pub fn split_attempt_token(token: Token) -> (u32, u64, AttemptKind) {
    let kind = if token.0 & HEDGE_BIT != 0 {
        AttemptKind::Hedge
    } else if token.0 & HEDGE_TRIGGER_BIT != 0 {
        AttemptKind::HedgeTrigger
    } else {
        AttemptKind::Primary
    };
    let client = (token.0 & CLIENT_MASK) as u32;
    let epoch = (token.0 >> CLIENT_BITS) & EPOCH_MASK;
    (client, epoch, kind)
}

/// Applies a fault transition to the kernel resources of the affected
/// node: the engine-level half of failure injection, common to every
/// store. Stores layer their recovery logic (replica failover, hinted
/// handoff, region reassignment, data loss) on top in
/// [`DistributedStore::on_fault`].
pub fn apply_node_fault(ctx: &StoreCtx, engine: &mut Engine, event: &FaultEvent) {
    if event.node >= ctx.servers.len() {
        return; // schedule refers to a node this run doesn't have
    }
    let node = &ctx.servers[event.node];
    let reject = FailMode::Reject {
        latency: apm_sim::fault::CRASH_ERROR_LATENCY,
    };
    match event.kind {
        FaultKind::Crash => {
            engine.fail_resource(node.cpu, reject);
            engine.fail_resource(node.disk, reject);
            engine.fail_resource(node.nic, reject);
        }
        FaultKind::Restart => {
            engine.restore_resource(node.cpu);
            engine.restore_resource(node.disk);
            engine.restore_resource(node.nic);
            engine.set_resource_slowdown(node.cpu, 1);
            engine.set_resource_slowdown(node.disk, 1);
            engine.set_resource_slowdown(node.nic, 1);
        }
        FaultKind::DiskSlow { factor } => engine.set_resource_slowdown(node.disk, factor.max(1)),
        FaultKind::DiskRestore => engine.set_resource_slowdown(node.disk, 1),
        FaultKind::PartitionStart => engine.fail_resource(node.nic, FailMode::Stall),
        FaultKind::PartitionEnd => engine.restore_resource(node.nic),
        FaultKind::FailSlow { factor } => {
            let factor = factor.max(1);
            engine.set_resource_slowdown(node.cpu, factor);
            engine.set_resource_slowdown(node.disk, factor);
            engine.set_resource_slowdown(node.nic, factor);
        }
        FaultKind::FailSlowEnd => {
            engine.set_resource_slowdown(node.cpu, 1);
            engine.set_resource_slowdown(node.disk, 1);
            engine.set_resource_slowdown(node.nic, 1);
        }
    }
}

/// Everything a store needs about its simulated environment.
#[derive(Clone, Debug)]
pub struct StoreCtx {
    /// The hardware platform.
    pub cluster: ClusterSpec,
    /// Server node resources, one entry per storage node.
    pub servers: Vec<NodeResources>,
    /// Client (workload generator) machine resources.
    pub clients: Vec<NodeResources>,
    /// Dataset scale factor (1.0 = the paper's 10 M records/node). Memory
    /// budgets (page cache, buffer pools, maxmemory) scale with it so the
    /// data:RAM ratio matches the paper.
    pub scale: f64,
    /// Seed for store-internal randomness (cache sampling, token draws).
    pub seed: u64,
}

impl StoreCtx {
    /// Instantiates server and client machines on `engine`.
    ///
    /// `client_machines` follows §3: "we used up to 5 nodes to generate
    /// the workload" for up to 12 server nodes — a ≈2.4:1 ratio — except
    /// Redis, which "had to double the number of machines for the YCSB
    /// clients" (§5.1).
    pub fn new(
        engine: &mut Engine,
        cluster: ClusterSpec,
        server_count: u32,
        client_machines: u32,
        scale: f64,
        seed: u64,
    ) -> StoreCtx {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let servers = cluster.instantiate(engine, server_count);
        let clients: Vec<NodeResources> = (0..client_machines.max(1))
            .map(|i| NodeResources {
                cpu: engine.add_resource(format!("client{i}.cpu"), cluster.node.cores),
                disk: engine.add_resource(format!("client{i}.disk"), 1),
                nic: engine.add_resource(format!("client{i}.nic"), 1),
            })
            .collect();
        StoreCtx {
            cluster,
            servers,
            clients,
            scale,
            seed,
        }
    }

    /// The paper's standard client fleet size for `servers` server nodes.
    pub fn standard_client_machines(servers: u32) -> u32 {
        ((servers as f64 / 2.4).ceil() as u32).clamp(1, 5)
    }

    /// Number of server nodes.
    pub fn node_count(&self) -> usize {
        self.servers.len()
    }

    /// Client machine serving connection `client_id` (round-robin).
    pub fn client_machine(&self, client_id: u32) -> &NodeResources {
        &self.clients[client_id as usize % self.clients.len()]
    }

    /// A node's RAM budget scaled to the dataset scale factor.
    pub fn scaled_ram(&self) -> u64 {
        (self.cluster.node.ram_bytes as f64 * self.scale) as u64
    }
}

/// CPU service-demand model converting a [`CostReceipt`] into core time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed per-operation CPU time (request parsing, dispatch), ns.
    pub base_ns: u64,
    /// CPU time per data-structure probe, ns.
    pub per_probe_ns: u64,
    /// CPU time per payload byte (serialisation), ns.
    pub per_byte_ns: u64,
}

impl CostModel {
    /// Core time for `receipt`.
    pub fn cpu(&self, receipt: &CostReceipt) -> SimDuration {
        SimDuration::from_nanos(
            self.base_ns
                + receipt.probes * self.per_probe_ns
                + receipt.bytes_touched * self.per_byte_ns,
        )
    }
}

/// Builds the server-local steps for an operation: CPU work, then each
/// disk access queued on the node's disk.
pub fn server_steps(
    node: &NodeResources,
    cluster: &ClusterSpec,
    cpu: SimDuration,
    ios: &[DiskIo],
) -> Vec<Step> {
    let mut steps = Vec::with_capacity(1 + ios.len());
    if cpu != SimDuration::ZERO {
        steps.push(Step::Acquire {
            resource: node.cpu,
            service: cpu,
        });
    }
    for io in ios {
        let pattern = if io.class.is_random() {
            apm_sim::IoPattern::Random
        } else {
            apm_sim::IoPattern::Sequential
        };
        steps.push(Step::Acquire {
            resource: node.disk,
            service: cluster.node.disk.service(io.bytes, pattern),
        });
    }
    steps
}

/// Wraps server-side steps into a full client round trip:
/// client CPU → client NIC → wire → server NIC → *server steps* →
/// server NIC → wire → client NIC.
#[allow(clippy::too_many_arguments)]
pub fn round_trip_plan(
    ctx: &StoreCtx,
    client_id: u32,
    server: &NodeResources,
    client_cpu: SimDuration,
    request_bytes: u64,
    response_bytes: u64,
    server_plan: Vec<Step>,
) -> Plan {
    let client = ctx.client_machine(client_id);
    let net = &ctx.cluster.net;
    let mut steps = Vec::with_capacity(server_plan.len() + 7);
    if client_cpu != SimDuration::ZERO {
        steps.push(Step::Acquire {
            resource: client.cpu,
            service: client_cpu,
        });
    }
    steps.push(Step::Acquire {
        resource: client.nic,
        service: net.transfer(request_bytes),
    });
    steps.push(Step::Delay(net.one_way_latency));
    steps.push(Step::Acquire {
        resource: server.nic,
        service: net.transfer(request_bytes),
    });
    steps.extend(server_plan);
    steps.push(Step::Acquire {
        resource: server.nic,
        service: net.transfer(response_bytes),
    });
    steps.push(Step::Delay(net.one_way_latency));
    steps.push(Step::Acquire {
        resource: client.nic,
        service: net.transfer(response_bytes),
    });
    Plan(steps)
}

/// A client-local plan (for rejected operations: the error is produced
/// without contacting a server, e.g. Voldemort scans).
pub fn client_only_plan(ctx: &StoreCtx, client_id: u32, cpu: SimDuration) -> Plan {
    let client = ctx.client_machine(client_id);
    Plan(vec![Step::Acquire {
        resource: client.cpu,
        service: cpu,
    }])
}

/// Worker count of the load phase: one per CPU the process may run on.
fn load_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The load phase of a sharded store: applies `insert(node, record)` for
/// `record_for_seq(seq)` of every `seq` in `seqs`, ascending, to each
/// node `owners(&record.key)` names — the per-node engines are disjoint
/// state, so they are built side by side.
///
/// `nodes` is split into at most `workers` contiguous groups. Every
/// worker walks all of `seqs`, derives each key and its owners, and
/// applies only the inserts that land in its own group: a node sees
/// exactly the inserts, in exactly the order, of the one-thread loop,
/// whatever the group split, so no byte of its state can depend on
/// `workers`. Group 0 runs on the calling thread — one node or one CPU
/// spawns nothing, and each spawned thread costs a malloc arena.
pub fn load_partitioned<N: Send, O: IntoIterator<Item = usize>>(
    nodes: &mut [N],
    seqs: Range<u64>,
    workers: usize,
    owners: impl Fn(&MetricKey) -> O + Sync,
    insert: impl Fn(&mut N, &Record) + Sync,
) {
    let group_len = nodes.len().div_ceil(workers.max(1)).max(1);
    let build = |first: usize, group: &mut [N]| {
        for seq in seqs.clone() {
            // The fields are only worth deriving for a record that stays.
            let mut record = None;
            for owner in owners(&key_for_seq(seq)) {
                if let Some(node) = owner.checked_sub(first).and_then(|i| group.get_mut(i)) {
                    insert(node, record.get_or_insert_with(|| record_for_seq(seq)));
                }
            }
        }
    };
    std::thread::scope(|scope| {
        let mut groups = nodes.chunks_mut(group_len).enumerate();
        let own = groups.next();
        for (g, group) in groups {
            let build = &build;
            scope.spawn(move || build(g * group_len, group));
        }
        if let Some((_, group)) = own {
            build(0, group);
        }
    });
}

/// The interface every benchmarked store implements.
pub trait DistributedStore {
    /// Store name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// The store's simulated environment (used by the default fault
    /// handling to locate the affected node's resources).
    fn ctx(&self) -> &StoreCtx;

    /// Load-phase insert: updates real state, settling any background
    /// work immediately (load time is not measured, §3 reloads per run).
    fn load(&mut self, record: &Record);

    /// Load-phase insert of `record_for_seq(seq)` for every `seq` in
    /// `seqs`, ascending: the same state as calling
    /// [`DistributedStore::load`] per record, built with one worker per
    /// CPU where the store's nodes allow it.
    fn load_range(&mut self, seqs: Range<u64>) {
        self.load_range_on(seqs, load_workers());
    }

    /// [`DistributedStore::load_range`] on at most `workers` threads.
    /// The argument exists for the tests that show the loaded state does
    /// not depend on it; everything else calls `load_range`. The default
    /// is the per-record loop; sharded stores override it with
    /// [`load_partitioned`] over their per-node state.
    #[doc(hidden)]
    fn load_range_on(&mut self, seqs: Range<u64>, workers: usize) {
        let _ = workers;
        for seq in seqs {
            self.load(&record_for_seq(seq));
        }
    }

    /// Hook called once after the load phase (flush memtables, etc.).
    fn finish_load(&mut self) {}

    /// Executes `op` against real state and returns the outcome plus the
    /// physical plan for the simulator. May submit background plans on
    /// `engine` (tagged with [`background_token`]).
    fn plan_op(&mut self, client_id: u32, op: &Operation, engine: &mut Engine)
        -> (OpOutcome, Plan);

    /// Called when a background job's plan completes.
    fn on_background(&mut self, job_id: u64, engine: &mut Engine) {
        let _ = (job_id, engine);
    }

    /// Called once mid-run when `RunConfig::event_at_secs` fires —
    /// topology-change experiments (e.g. Cassandra node bootstrap).
    fn on_timed_event(&mut self, engine: &mut Engine) {
        let _ = engine;
    }

    /// Called when a scheduled [`FaultEvent`] fires. The default applies
    /// the engine-level resource transition only (requests to the node
    /// fail or stall); stores with richer failure semantics override this
    /// to add failover, hinted handoff, WAL replay, or data loss, and
    /// must still call [`apply_node_fault`] for the kernel half.
    fn on_fault(&mut self, event: &FaultEvent, engine: &mut Engine) {
        apply_node_fault(self.ctx(), engine, event);
    }

    /// The server node the store's client-side routing would send `op`
    /// to right now — the key a per-target circuit breaker shards on.
    /// `None` (the default) disables breaking for this store.
    fn plan_target(&self, op: &Operation) -> Option<usize> {
        let _ = op;
        None
    }

    /// Builds the plan for a *hedged* duplicate of a read: the same
    /// logical op sent to a different live replica/coordinator than the
    /// primary attempt would use. `None` (the default) means the store
    /// has no alternative target and the hedge is skipped.
    fn hedge_read_plan(
        &mut self,
        client_id: u32,
        op: &Operation,
        engine: &mut Engine,
    ) -> Option<Plan> {
        let _ = (client_id, op, engine);
        None
    }

    /// Whether the store's YCSB client supports scans (§5.4: Voldemort's
    /// does not).
    fn supports_scans(&self) -> bool {
        true
    }

    /// Client connection cap, if the store's client library imposes one
    /// (§6: Voldemort).
    fn connection_cap(&self) -> Option<u32> {
        None
    }

    /// Per-node disk usage in bytes after load (Fig 17); `None` for
    /// memory-only stores (Redis, VoltDB — "do not store the data on
    /// disk", §5.7).
    fn disk_bytes_per_node(&self) -> Option<u64>;

    /// Bytes streamed between nodes by topology changes so far (a node
    /// bootstrap, §7's elasticity question); zero for a store whose
    /// topology is fixed for the run.
    fn streamed_bytes(&self) -> u64 {
        0
    }

    /// Serializes all run-varying store state (data structures, background
    /// job queues, failure bookkeeping) for a checkpoint. Configuration
    /// that the constructor re-derives (topology sizes, budgets, cost
    /// models) is *not* written. The default writes nothing — correct only
    /// for stores whose state is fully reconstructed by `load`.
    fn snap_state(&self, w: &mut SnapWriter) {
        let _ = w;
    }

    /// Restores the state written by [`DistributedStore::snap_state`] into
    /// a freshly constructed *and loaded* store built from the same
    /// config. Implementations must leave the store byte-equivalent to
    /// the one that was snapshotted, including any topology grown mid-run.
    fn restore_state(&mut self, r: &mut SnapReader, engine: &mut Engine) -> Result<(), SnapError> {
        let _ = (r, engine);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_sim::SimTime;

    #[test]
    fn token_split_roundtrips() {
        let t = background_token(42);
        assert_eq!(split_token(t), (true, 42));
        assert_eq!(split_token(Token(7)), (false, 7));
    }

    #[test]
    fn background_token_roundtrips_across_the_id_space() {
        for id in [0u64, 1, 2, 1 << 20, (1 << 62) - 1] {
            let (bg, back) = split_token(background_token(id));
            assert!(bg, "id {id} lost the background bit");
            assert_eq!(back, id, "id {id} did not roundtrip");
        }
    }

    #[test]
    fn fault_token_roundtrips_and_is_disjoint_from_background() {
        for idx in [0u64, 1, 5, 1 << 10] {
            let t = fault_token(idx);
            let (is_fault, back) = split_fault_token(t);
            assert!(is_fault);
            assert_eq!(back, idx);
            let (is_bg, _) = split_token(t);
            assert!(!is_bg, "fault tokens must not read as background");
        }
        let (is_fault, _) = split_fault_token(background_token(3));
        assert!(!is_fault, "background tokens must not read as fault");
        let (is_fault, idx) = split_fault_token(Token(9));
        assert_eq!((is_fault, idx), (false, 9));
    }

    #[test]
    fn attempt_tokens_roundtrip_client_epoch_and_kind() {
        for (client, epoch) in [
            (0u32, 0u64),
            (7, 1),
            (999, 12_345),
            ((1 << 20) - 1, (1 << 40) - 1),
        ] {
            assert_eq!(
                split_attempt_token(attempt_token(client, epoch)),
                (client, epoch, AttemptKind::Primary)
            );
            assert_eq!(
                split_attempt_token(hedge_token(client, epoch)),
                (client, epoch, AttemptKind::Hedge)
            );
            assert_eq!(
                split_attempt_token(hedge_trigger_token(client, epoch)),
                (client, epoch, AttemptKind::HedgeTrigger)
            );
        }
    }

    #[test]
    fn attempt_tokens_are_disjoint_from_background_and_fault_sentinels() {
        for t in [
            attempt_token(3, 17),
            hedge_token(3, 17),
            hedge_trigger_token(3, 17),
        ] {
            assert!(!split_token(t).0, "attempt token read as background");
            assert!(!split_fault_token(t).0, "attempt token read as fault");
        }
    }

    #[test]
    fn apply_node_fault_drives_kernel_resource_state() {
        use apm_sim::SimTime;
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 2, 1, 0.1, 1);
        let node = ctx.servers[1];
        let at = SimTime::ZERO;
        apply_node_fault(
            &ctx,
            &mut engine,
            &FaultEvent {
                at,
                node: 1,
                kind: FaultKind::Crash,
            },
        );
        assert!(engine.resource_is_down(node.cpu));
        assert!(engine.resource_is_down(node.disk));
        assert!(engine.resource_is_down(node.nic));
        assert!(
            !engine.resource_is_down(ctx.servers[0].cpu),
            "other nodes unaffected"
        );
        apply_node_fault(
            &ctx,
            &mut engine,
            &FaultEvent {
                at,
                node: 1,
                kind: FaultKind::Restart,
            },
        );
        assert!(!engine.resource_is_down(node.cpu));
        apply_node_fault(
            &ctx,
            &mut engine,
            &FaultEvent {
                at,
                node: 1,
                kind: FaultKind::DiskSlow { factor: 6 },
            },
        );
        assert_eq!(engine.resource_slowdown(node.disk), 6);
        apply_node_fault(
            &ctx,
            &mut engine,
            &FaultEvent {
                at,
                node: 1,
                kind: FaultKind::DiskRestore,
            },
        );
        assert_eq!(engine.resource_slowdown(node.disk), 1);
        // Out-of-range node indices are ignored, not a panic.
        apply_node_fault(
            &ctx,
            &mut engine,
            &FaultEvent {
                at,
                node: 99,
                kind: FaultKind::Crash,
            },
        );
    }

    #[test]
    fn ctx_instantiates_servers_and_clients() {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 4, 2, 0.02, 1);
        assert_eq!(ctx.node_count(), 4);
        assert_eq!(ctx.clients.len(), 2);
        // Round-robin client machine assignment.
        assert_eq!(ctx.client_machine(0).nic, ctx.client_machine(2).nic);
        assert_ne!(ctx.client_machine(0).nic, ctx.client_machine(1).nic);
    }

    #[test]
    fn standard_client_fleet_matches_paper_ratio() {
        assert_eq!(StoreCtx::standard_client_machines(1), 1);
        assert_eq!(StoreCtx::standard_client_machines(4), 2);
        assert_eq!(StoreCtx::standard_client_machines(12), 5);
        assert_eq!(
            StoreCtx::standard_client_machines(16),
            5,
            "fleet caps at 5 (§3)"
        );
    }

    #[test]
    fn no_client_machine_runs_more_than_307_threads() {
        // §3: "So no client node was running more than 307 threads" —
        // 1536 connections over 5 machines.
        let machines = StoreCtx::standard_client_machines(12);
        let connections = 128 * 12u32;
        let per_machine = connections.div_ceil(machines);
        assert_eq!(
            per_machine,
            308 - 1 + 1,
            "1536 / 5 rounds to 308; the paper's 307 is the floor"
        );
        assert!(connections / machines <= 307);
    }

    #[test]
    fn scaled_ram_follows_scale() {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 1, 1, 0.5, 1);
        assert_eq!(ctx.scaled_ram(), 8 << 30);
    }

    #[test]
    fn cost_model_is_linear() {
        let model = CostModel {
            base_ns: 1_000,
            per_probe_ns: 100,
            per_byte_ns: 2,
        };
        let mut r = CostReceipt::new();
        r.probe(3).touch(75);
        assert_eq!(model.cpu(&r), SimDuration::from_nanos(1_000 + 300 + 150));
    }

    #[test]
    fn round_trip_plan_includes_both_nics_and_latency() {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 1, 1, 0.1, 1);
        let server = ctx.servers[0];
        let plan = round_trip_plan(
            &ctx,
            0,
            &server,
            SimDuration::from_micros(10),
            100,
            200,
            vec![Step::Acquire {
                resource: server.cpu,
                service: SimDuration::from_micros(50),
            }],
        );
        // Minimum duration: client cpu + 2 latencies + transfers + server work.
        let expected_floor = SimDuration::from_micros(10 + 80 + 80 + 50);
        assert!(plan.min_duration() >= expected_floor);
        // Executes cleanly on the engine.
        engine.submit(plan, Token(1));
        let c = engine.next_completion().expect("plan runs");
        assert!(c.latency() >= expected_floor);
        assert!(c.finished > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn out_of_range_scale_panics() {
        let mut engine = Engine::new();
        StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 1, 1, 0.0, 1);
    }
}
