//! The common interface of the six stores plus the vocabulary their
//! planners describe work in ([`StorePlan`]: node CPU, disk, NIC, WAL,
//! client round trip).

use apm_core::keyspace::{key_for_seq, scramble};
use apm_core::ops::{OpOutcome, Operation};
use apm_core::record::{MetricKey, Record, Row};
use apm_core::snap::{SnapError, SnapReader, SnapWriter};
use apm_sim::cluster::NodeResources;
use apm_sim::kernel::ResourceId;
use apm_sim::kernel::Token;
use apm_sim::{ClusterSpec, Engine, FaultEvent, IoPattern, Plan, PlanBuilder, SimDuration};
use apm_storage::receipt::{CostReceipt, DiskIo};
use apm_storage::wal::WalReceipt;
use std::ops::Range;

/// Bit marking a token as a background job rather than a client op.
pub const BACKGROUND_BIT: u64 = 1 << 63;

/// Bit marking a token as a fault-schedule sentinel (the benchmark
/// runner's timers for node crash/restart/slowdown transitions).
pub const FAULT_BIT: u64 = 1 << 62;

/// Builds the token of a background plan from its payload, which
/// [`BackgroundWork::token`] encodes.
pub fn background_token(job_id: u64) -> Token {
    debug_assert!(job_id & (BACKGROUND_BIT | FAULT_BIT) == 0);
    Token(BACKGROUND_BIT | job_id)
}

/// What a store's background plan completes, at which node. The plan's
/// token carries it, so a store keeps no table from token to job and a
/// checkpoint holds each plan's work once, in the kernel section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackgroundWork {
    /// Bytes streamed to or written at the node, which nothing follows:
    /// a bootstrap or hint stream, a commit-log flush.
    Stream(usize),
    /// The node's LSM tree job with this id (a flush or compaction).
    TreeJob(usize, u64),
    /// Recovery of the node, a crashed server: HBase's master re-opens
    /// its regions on the substitute.
    Recovery(usize),
}

/// Bits of a background payload carrying the node; then two of kind,
/// then the tree job id up to bit 61, so [`FAULT_BIT`] stays clear.
const NODE_BITS: u32 = 20;
const JOB_SHIFT: u32 = NODE_BITS + 2;
const NODE_MASK: u64 = (1 << NODE_BITS) - 1;

impl BackgroundWork {
    /// The token of the plan that does this work.
    pub fn token(self) -> Token {
        let (kind, node, job) = match self {
            BackgroundWork::Stream(node) => (0, node, 0),
            BackgroundWork::TreeJob(node, job) => (1, node, job),
            BackgroundWork::Recovery(node) => (2, node, 0),
        };
        debug_assert!(node as u64 <= NODE_MASK && job < 1 << (62 - JOB_SHIFT));
        background_token(job << JOB_SHIFT | kind << NODE_BITS | node as u64)
    }

    /// The work a background token's payload names — `None` for a payload
    /// no [`BackgroundWork::token`] makes. The node and job are the
    /// token's word only: a store checks them against what it holds.
    pub fn from_payload(payload: u64) -> Option<BackgroundWork> {
        let node = (payload & NODE_MASK) as usize;
        let work = match (payload >> NODE_BITS) & 3 {
            0 => BackgroundWork::Stream(node),
            1 => BackgroundWork::TreeJob(node, payload >> JOB_SHIFT),
            2 => BackgroundWork::Recovery(node),
            _ => return None,
        };
        (payload & (BACKGROUND_BIT | FAULT_BIT) == 0).then_some(work)
    }
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
/// node — [`FaultKind::apply`](apm_sim::FaultKind::apply) on its CPU,
/// disk and NIC, then on `cpu_class`, the node's store-private resources
/// that share its CPU's fate (Redis passes its event loop). This is the
/// engine-level half of failure injection, common to every store. Stores
/// layer their recovery logic (replica failover, hinted handoff, region
/// reassignment, data loss) on top in [`DistributedStore::on_fault`].
pub fn apply_node_fault(
    ctx: &StoreCtx,
    engine: &mut Engine,
    event: &FaultEvent,
    cpu_class: &[ResourceId],
) {
    // A schedule may name a node this run doesn't have.
    if let Some(node) = ctx.servers.get(event.node) {
        event.kind.apply(engine, node, cpu_class);
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

    /// The LSM stores' memtable flush threshold: 64 MB at paper scale,
    /// shrunk with the dataset so the flush/compaction cadence per record
    /// matches, and never below 64 KB.
    pub fn memtable_flush_bytes(&self) -> u64 {
        (((64u64 << 20) as f64 * self.scale) as u64).max(64 << 10)
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

/// What it costs a store's client library to issue one request: CPU on
/// the client machine and bytes on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-side CPU per request (serialisation, routing).
    pub client_cpu: SimDuration,
    /// Request size on the wire.
    pub bytes: u64,
}

impl Request {
    /// A request costing `client_cpu` and `bytes`.
    pub const fn new(client_cpu: SimDuration, bytes: u64) -> Request {
        Request { client_cpu, bytes }
    }

    /// The same request as one leg of a scatter-gather, whose client CPU
    /// is paid once, around the fan-out.
    pub const fn leg(self) -> Request {
        Request::new(SimDuration::ZERO, self.bytes)
    }
}

/// A plan under construction in a store's own vocabulary: which node's
/// CPU, disk and NIC an operation crosses, not which `ResourceId`s and
/// service-time conversions that means. Started by [`StoreCtx::plan`];
/// a thin layer over [`PlanBuilder`], so every step lands in one `Vec`.
///
/// Elision: [`cpu`](Self::cpu) and [`client_cpu`](Self::client_cpu) add
/// nothing for a zero duration (engines report zero-cost phases);
/// everything else — NIC transfers of zero bytes and zero delays
/// included — is always a step, so a plan's shape never depends on a
/// configured size or latency.
#[derive(Debug)]
pub struct StorePlan<'a> {
    ctx: &'a StoreCtx,
    b: PlanBuilder,
}

impl StorePlan<'_> {
    /// Core time on server `node`; a zero `d` adds no step.
    pub fn cpu(mut self, node: usize, d: SimDuration) -> Self {
        self.b = self.b.acquire_nonzero(self.ctx.servers[node].cpu, d);
        self
    }

    /// Core time on `client`'s machine; a zero `d` adds no step.
    pub fn client_cpu(mut self, client: u32, d: SimDuration) -> Self {
        self.b = self
            .b
            .acquire_nonzero(self.ctx.client_machine(client).cpu, d);
        self
    }

    /// One access on `node`'s disk, random or sequential as `io` says.
    pub fn disk(self, node: usize, io: &DiskIo) -> Self {
        let pattern = if io.class.is_random() {
            IoPattern::Random
        } else {
            IoPattern::Sequential
        };
        let service = self.ctx.cluster.node.disk.service(io.bytes, pattern);
        let disk = self.ctx.servers[node].disk;
        self.acquire(disk, service)
    }

    /// Each of `ios` in turn on `node`'s disk.
    pub fn disks(self, node: usize, ios: &[DiskIo]) -> Self {
        ios.iter().fold(self, |plan, io| plan.disk(node, io))
    }

    /// A sequential transfer of `bytes` on `node`'s disk.
    pub fn disk_seq(self, node: usize, bytes: u64) -> Self {
        self.disk(node, &DiskIo::seq_write(bytes))
    }

    /// The foreground cost of a commit-log append on `node`: its sync
    /// I/O if the policy has one, then the wait for the group-commit
    /// boundary if it has one. A deferred log adds nothing.
    pub fn wal(mut self, node: usize, append: &WalReceipt) -> Self {
        if let Some(io) = &append.io {
            self = self.disk_seq(node, io.bytes);
        }
        if let Some(window) = append.align {
            self.b = self.b.align_to(window, SimDuration::ZERO);
        }
        self
    }

    /// `bytes` through server `node`'s NIC.
    pub fn nic(self, node: usize, bytes: u64) -> Self {
        let service = self.ctx.cluster.net.transfer(bytes);
        let nic = self.ctx.servers[node].nic;
        self.acquire(nic, service)
    }

    /// One trip over the wire.
    pub fn latency(self) -> Self {
        let one_way = self.ctx.cluster.net.one_way_latency;
        self.wait(one_way)
    }

    /// Server `from` sends `bytes` to another server: its NIC, then the
    /// wire. (The receiving side is the caller's: a DataNode charges its
    /// xceiver, a bootstrapping node its NIC.)
    pub fn hop(self, from: usize, bytes: u64) -> Self {
        self.nic(from, bytes).latency()
    }

    /// Holds a store-private resource (an event loop, a site, a lock, an
    /// xceiver pool) for `service`.
    pub fn acquire(mut self, resource: ResourceId, service: SimDuration) -> Self {
        self.b = self.b.acquire(resource, service);
        self
    }

    /// Pure delay.
    pub fn wait(mut self, d: SimDuration) -> Self {
        self.b = self.b.wait(d);
        self
    }

    /// The request was refused when it was routed: the plan ends failed
    /// after the crash-error latency, whatever restarts in the meantime.
    pub fn refused(mut self) -> Self {
        self.b = self.b.fail(apm_sim::fault::CRASH_ERROR_LATENCY);
        self
    }

    /// Parallel fan-out; the plan goes on when `need` branches are done.
    pub fn join(mut self, branches: Vec<Plan>, need: usize) -> Self {
        self.b = self.b.join_quorum(branches, need);
        self
    }

    /// Finishes the plan.
    pub fn finish(self) -> Plan {
        self.b.finish()
    }
}

impl StoreCtx {
    /// Starts a plan against this environment, with room for a round
    /// trip's seven envelope steps and five of the server's: most plans
    /// are built in one allocation.
    pub fn plan(&self) -> StorePlan<'_> {
        StorePlan {
            ctx: self,
            b: Plan::build_for(12),
        }
    }

    /// A full client round trip to server `node`: client CPU → client NIC
    /// → wire → server NIC → *`server`'s steps* → server NIC → wire →
    /// client NIC.
    pub fn round_trip<'a>(
        &'a self,
        client: u32,
        node: usize,
        request: Request,
        response_bytes: u64,
        server: impl FnOnce(StorePlan<'a>) -> StorePlan<'a>,
    ) -> Plan {
        let (client_nic, net) = (self.client_machine(client).nic, self.cluster.net);
        let arrived = self
            .plan()
            .client_cpu(client, request.client_cpu)
            .acquire(client_nic, net.transfer(request.bytes))
            .latency()
            .nic(node, request.bytes);
        server(arrived)
            .nic(node, response_bytes)
            .latency()
            .acquire(client_nic, net.transfer(response_bytes))
            .finish()
    }
}

/// Worker count of the load phase: one per CPU the process may run on.
fn load_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Sequences routed before their nodes are built: the transient lists
/// are at most 4 bytes × this × the replication factor, whatever the
/// load's size (DESIGN.md §15 has the sweep).
const BLOCK_SEQS: u32 = 1 << 17;

/// The load phase of a sharded store: applies `insert(node, row)` for
/// the row of every `seq` in `seqs` — `record_for_seq(seq)`, handed as
/// `Row::Generated(scramble(seq))` with no field generated —, ascending,
/// to each node `owners(&key_for_seq(seq))` names. The per-node engines
/// are disjoint state, so they are built side by side, each in one
/// uninterrupted run.
///
/// `seqs` is taken a block at a time, each block in two passes. *Route:*
/// the block is cut into `workers` contiguous slices and every slice's
/// keys and owners are derived once, into one list of sequences per
/// node. *Build:* `nodes` is split into at most `workers` contiguous
/// groups and each worker finishes its nodes one after the other from
/// their lists, slice by slice. A node sees exactly the inserts, in
/// exactly the order, of the one-thread loop, whatever either split, so
/// no byte of its state can depend on `workers`. Slice 0 and group 0
/// run on the calling thread — one CPU spawns nothing, and each spawned
/// thread costs a malloc arena.
pub fn load_partitioned<N: Send, O: IntoIterator<Item = usize>>(
    nodes: &mut [N],
    seqs: Range<u64>,
    workers: usize,
    owners: impl Fn(&MetricKey) -> O + Sync,
    insert: impl Fn(&mut N, Row) + Sync,
) {
    load_in_blocks(nodes, seqs, workers, BLOCK_SEQS, owners, insert);
}

/// Runs `work` on every item at once: the first on the calling thread,
/// each other on a thread of its own, and returns when all have
/// *exited*. A scope's end only waits for its closures to return; a
/// thread still holding its malloc arena when the next pass spawns makes
/// glibc open a fresh arena for that pass, and what is built there
/// stays there (`load_disk` peaked at 58–72 MB run to run instead of
/// 58–60).
fn side_by_side<T: Send>(items: impl IntoIterator<Item = T>, work: impl Fn(T) + Sync) {
    std::thread::scope(|scope| {
        let (mut items, work) = (items.into_iter(), &work);
        let own = items.next();
        let spawned: Vec<_> = items.map(|item| scope.spawn(move || work(item))).collect();
        if let Some(item) = own {
            work(item);
        }
        for worker in spawned {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// [`load_partitioned`] with the block length as an argument.
fn load_in_blocks<N: Send, O: IntoIterator<Item = usize>>(
    nodes: &mut [N],
    seqs: Range<u64>,
    workers: usize,
    block_seqs: u32,
    owners: impl Fn(&MetricKey) -> O + Sync,
    insert: impl Fn(&mut N, Row) + Sync,
) {
    let node_count = nodes.len();
    // At most one worker a node, in both passes: a second thread's route
    // slice buys a 1-node load nothing (measured, DESIGN.md §15).
    let workers = workers.clamp(1, node_count.max(1));
    let block_seqs = u64::from(block_seqs.max(1));
    let group_len = node_count.div_ceil(workers).max(1);
    let mut base = seqs.start;
    while base < seqs.end {
        let end = seqs.end.min(base.saturating_add(block_seqs));
        let slice_len = (end - base).div_ceil(workers as u64);
        // Per slice, per node: the offsets from `base` the node owns.
        let mut routed: Vec<(Range<u64>, Vec<Vec<u32>>)> = (base..end)
            .step_by(slice_len as usize)
            .map(|from| from..end.min(from.saturating_add(slice_len)))
            .map(|slice| (slice, vec![Vec::new(); node_count]))
            .collect();
        side_by_side(routed.iter_mut(), |(slice, lists)| {
            for seq in slice.clone() {
                for owner in owners(&key_for_seq(seq)) {
                    debug_assert!(
                        owner < node_count,
                        "owner {owner} of seq {seq} is not one of {node_count} nodes"
                    );
                    lists[owner].push((seq - base) as u32); // < block_seqs <= u32::MAX
                }
            }
        });
        // A node is finished before the next starts, so its engine stays
        // cache-resident for its whole run of inserts.
        side_by_side(nodes.chunks_mut(group_len).enumerate(), |(g, group)| {
            for (node, index) in group.iter_mut().zip(g * group_len..) {
                for (_, lists) in &routed {
                    for &offset in &lists[index] {
                        insert(node, Row::Generated(scramble(base + u64::from(offset))));
                    }
                }
            }
        });
        base = end;
    }
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
    fn load_row(&mut self, row: Row);

    /// [`DistributedStore::load_row`] of `record`'s row.
    fn load(&mut self, record: &Record) {
        self.load_row(Row::new(record.key, record.fields));
    }

    /// Load-phase insert of `record_for_seq(seq)` for every `seq` in
    /// `seqs`, ascending: the same state as calling
    /// [`DistributedStore::load`] per record, built with one worker per
    /// CPU where the store's nodes allow it. Each record is handed as its
    /// id: no field is generated.
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
            self.load_row(Row::Generated(scramble(seq)));
        }
    }

    /// Hook called once after the load phase (flush memtables, etc.).
    fn finish_load(&mut self) {}

    /// Executes `op` against real state and returns the outcome plus the
    /// physical plan for the simulator. May submit background plans on
    /// `engine` (tagged with [`BackgroundWork::token`]).
    fn plan_op(&mut self, client_id: u32, op: &Operation, engine: &mut Engine)
        -> (OpOutcome, Plan);

    /// Called when a background plan completes, with its token's payload
    /// ([`BackgroundWork::from_payload`]); one naming no node or no job
    /// in flight is ignored, as the driver ignores a stray fault sentinel.
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
        apply_node_fault(self.ctx(), engine, event, &[]);
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
    /// job queues, failure bookkeeping) for a checkpoint. What the
    /// constructor builds from the config (topology — nodes, resources,
    /// routing —, budgets, cost models) is *not* written.
    fn snap_state(&self, w: &mut SnapWriter);

    /// Restores the state written by [`DistributedStore::snap_state`] into
    /// a freshly *constructed* store built from the same config — never
    /// loaded: the stream carries every byte `load` and the run produced,
    /// and whatever the store held before is replaced. Implementations
    /// must leave the store byte-equivalent to the one that was
    /// snapshotted, and rebuild any topology grown mid-run — registering
    /// its resources on `engine` — before the kernel section is restored.
    fn restore_state(&mut self, r: &mut SnapReader, engine: &mut Engine) -> Result<(), SnapError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::scramble;

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
    fn background_work_roundtrips_through_its_token() {
        let works = [
            BackgroundWork::Stream(0),
            BackgroundWork::TreeJob(3, 1),
            BackgroundWork::TreeJob(23, (1 << 40) - 1),
            BackgroundWork::Recovery((1 << 20) - 1),
        ];
        for work in works {
            let (bg, payload) = split_token(work.token());
            assert!(bg, "{work:?} lost the background bit");
            assert!(
                !split_fault_token(work.token()).0,
                "{work:?} reads as a fault"
            );
            assert_eq!(BackgroundWork::from_payload(payload), Some(work));
        }
        for stray in [3 << 20, FAULT_BIT, u64::MAX] {
            assert_eq!(BackgroundWork::from_payload(stray), None, "{stray:#x}");
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
        use apm_sim::{FaultKind, SimTime};
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 2, 1, 0.1, 1);
        let event_loop = engine.add_resource("store1.loop", 1);
        let mut fault = |node, kind| {
            let event = FaultEvent {
                at: SimTime::ZERO,
                node,
                kind,
            };
            apply_node_fault(&ctx, &mut engine, &event, &[event_loop]);
            let n = ctx.servers[1];
            (
                [n.cpu, n.disk, n.nic, event_loop].map(|r| engine.resource_is_down(r)),
                [n.cpu, n.disk, n.nic, event_loop].map(|r| engine.resource_slowdown(r)),
                engine.resource_is_down(ctx.servers[0].cpu),
            )
        };
        let (down, _, other) = fault(1, FaultKind::Crash);
        assert_eq!(
            down, [true; 4],
            "crash fails cpu, disk, nic and the cpu class"
        );
        assert!(!other, "other nodes unaffected");
        let (down, _, _) = fault(1, FaultKind::Restart);
        assert_eq!(down, [false; 4]);
        let (_, slow, _) = fault(1, FaultKind::FailSlow { factor: 5 });
        assert_eq!(slow, [5; 4], "fail-slow reaches the cpu class");
        let (_, slow, _) = fault(1, FaultKind::FailSlowEnd);
        assert_eq!(slow, [1; 4]);
        let (_, slow, _) = fault(1, FaultKind::DiskSlow { factor: 6 });
        assert_eq!(slow, [1, 6, 1, 1], "a slow disk spares the cpu class");
        let (_, slow, _) = fault(1, FaultKind::DiskRestore);
        assert_eq!(slow, [1; 4]);
        let (down, _, _) = fault(1, FaultKind::PartitionStart);
        assert_eq!(
            down,
            [false, false, true, false],
            "a partition downs the nic"
        );
        // Out-of-range node indices are ignored, not a panic.
        let (down, _, _) = fault(99, FaultKind::Crash);
        assert_eq!(down, [false, false, true, false]);
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
    fn round_trip_crosses_both_nics_and_two_latencies() {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 1, 1, 0.1, 1);
        let request = Request::new(SimDuration::from_micros(10), 100);
        let plan = ctx.round_trip(0, 0, request, 200, |server| {
            server.cpu(0, SimDuration::from_micros(50))
        });
        // Client CPU, 2 × (client NIC, wire, server NIC), server work.
        assert_eq!(plan.total_steps(), 8);
        // Minimum duration: client cpu + 2 latencies + transfers + server work.
        let expected_floor = SimDuration::from_micros(10 + 80 + 80 + 50);
        assert!(plan.min_duration() >= expected_floor);
        // Executes cleanly on the engine, through every resource once or
        // (the NICs) twice.
        engine.submit(plan, Token(1));
        let c = engine.next_completion().expect("plan runs");
        assert!(c.outcome.is_ok());
        assert!(c.latency() >= expected_floor);
        let (client, server) = (ctx.clients[0], ctx.servers[0]);
        let served = [client.cpu, client.nic, server.nic, server.cpu].map(|r| engine.served(r));
        assert_eq!(served, [1, 2, 2, 1]);
    }

    /// What each verb adds for a zero input: only the two CPU verbs
    /// elide; sizes and latencies never change a plan's shape.
    #[test]
    fn only_zero_cpu_is_elided() {
        let mut engine = Engine::new();
        let ctx = StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 2, 1, 0.1, 1);
        let zero = SimDuration::ZERO;
        let (io, align) = (Some(DiskIo::seq_write(0)), Some(zero));
        let steps_at_zero = [
            ("cpu", ctx.plan().cpu(0, zero), 0),
            ("client_cpu", ctx.plan().client_cpu(0, zero), 0),
            ("acquire", ctx.plan().acquire(ResourceId(0), zero), 1),
            ("wait", ctx.plan().wait(zero), 1),
            ("nic", ctx.plan().nic(0, 0), 1),
            ("hop", ctx.plan().hop(0, 0), 2),
            ("disk_seq", ctx.plan().disk_seq(0, 0), 1),
            (
                "deferred wal",
                ctx.plan().wal(
                    0,
                    &WalReceipt {
                        io: None,
                        align: None,
                    },
                ),
                0,
            ),
            (
                "group-commit wal",
                ctx.plan().wal(0, &WalReceipt { io, align }),
                2,
            ),
        ];
        for (verb, plan, steps) in steps_at_zero {
            assert_eq!(plan.finish().total_steps(), steps, "{verb}");
        }
        // A zero client CPU leaves the round trip's six network steps,
        // and `refused` ends the plan: nothing after it counts.
        let empty = Request::new(zero, 0);
        assert_eq!(
            ctx.round_trip(0, 1, empty, 0, |server| server)
                .total_steps(),
            6
        );
        let refused = ctx.round_trip(0, 1, empty, 0, StorePlan::refused);
        let refusal = ctx.cluster.net.one_way_latency + apm_sim::fault::CRASH_ERROR_LATENCY;
        assert_eq!(
            (refused.total_steps(), refused.min_duration()),
            (7, refusal)
        );
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn out_of_range_scale_panics() {
        let mut engine = Engine::new();
        StoreCtx::new(&mut engine, ClusterSpec::cluster_m(), 1, 1, 0.0, 1);
    }

    /// `rf` ring neighbours starting at the key's home node (the same
    /// node more than once where the ring is shorter than `rf`).
    fn ring_owners(key: &MetricKey, nodes: usize, rf: usize) -> impl Iterator<Item = usize> {
        let home = key.to_id().expect("a benchmark key") as usize % nodes;
        (0..rf).map(move |r| (home + r) % nodes)
    }

    /// A toy node is the ids of the records it was handed, in order.
    fn toy_insert(node: &mut Vec<u64>, row: Row) {
        let Row::Generated(id) = row else {
            panic!("a generated record handed whole: {row:?}");
        };
        node.push(id);
    }

    #[test]
    fn load_in_blocks_hands_every_node_what_the_one_thread_loop_does() {
        const N: u64 = 1_500;
        for seqs in [0..0, 0..N, 7_777..12_345] {
            for nodes in [1usize, 2, 5, 12] {
                for rf in 1..=3usize {
                    let mut want = vec![Vec::new(); nodes];
                    for seq in seqs.clone() {
                        let record = apm_core::keyspace::record_for_seq(seq);
                        for owner in ring_owners(&record.key, nodes, rf) {
                            toy_insert(&mut want[owner], record.into());
                        }
                    }
                    let mut handed: Vec<u64> = want.concat();
                    handed.sort_unstable();
                    let mut owed: Vec<u64> = seqs
                        .clone()
                        .flat_map(|seq| std::iter::repeat_n(scramble(seq), rf))
                        .collect();
                    owed.sort_unstable();
                    assert_eq!(handed, owed, "the reference loop itself");
                    // Blocks of one sequence up to blocks longer than the
                    // range: every way a node's lists can be cut.
                    for block in [1, 3, 5, 1_000, u32::MAX] {
                        for workers in [1usize, 2, 3, 5, 64] {
                            let mut got = vec![Vec::new(); nodes];
                            load_in_blocks(
                                &mut got,
                                seqs.clone(),
                                workers,
                                block,
                                |key| ring_owners(key, nodes, rf),
                                toy_insert,
                            );
                            assert!(
                                got == want,
                                "{seqs:?}, {nodes} nodes, rf {rf}, block {block}, {workers} workers"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "owner 5 of seq 0 is not one of 5 nodes")]
    fn an_owner_that_is_no_node_is_a_routing_bug_not_a_dropped_record() {
        let mut nodes = vec![Vec::new(); 5];
        load_partitioned(&mut nodes, 0..10, 1, |_| [5], toy_insert);
    }
}
