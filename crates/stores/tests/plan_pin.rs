//! Plan-level byte-neutrality pins.
//!
//! Host-time work on `plan_op` (count-only scans, the streaming merge
//! cursor, how a planner spells its steps) must not move a single
//! simulated number. End-to-end fingerprints catch that late; these tests
//! catch it at the planner boundary, on a loaded 4-node cluster.
//!
//! * **Scan path** ([`rs_plans`]) — 2 000 seeded Workload-RS ops, FNV-1a
//!   over every `(OpOutcome, Plan)` the store hands back. The six
//!   scanning stores' constants were captured on the commit *before* the
//!   scan path was rewritten (0193663); a change here means outcomes,
//!   receipts, page traces or buffer-pool replays moved.
//! * **Write, disk-bound, fault-time and background plans**
//!   ([`ClosedLoop`]) — 64 ops in flight; every plan is also submitted
//!   and the kernel's completion stream `(token, finished, outcome)` is
//!   folded into the same FNV, so the plans a store submits *itself*
//!   (flush, compaction, JE log flush, hint replay, bootstrap stream, WAL
//!   replay) are pinned through when and how they finish. These, and the
//!   RS constants of Voldemort and of Cassandra at `replication: 3`, were
//!   captured on the commit *before* the planners were cut over to
//!   `PlanBuilder` (7b2de44). The driver's own plans (hedge trigger,
//!   breaker shed) are pinned next door, in `driver_pin.rs`.
//! * A background completion is folded as `(background, finished,
//!   outcome)`, without its token: a background token's value is the
//!   store's own name for the job, not something it plans, and the
//!   encoding of that name may change while every plan and completion
//!   time holds. The closed-loop pins of Cassandra, HBase and Voldemort
//!   and the two fault-time pins (the only ones with background
//!   completions) were recaptured for this fold on a14e8f7, the commit
//!   whose tokens were still counter values; every other constant held.

mod common;

use apm_core::ops::{OpOutcome, Operation};
use apm_core::workload::{Workload, WorkloadGenerator};
use apm_sim::kernel::Token;
use apm_sim::{ClusterSpec, Engine, FaultEvent, FaultKind};
use apm_stores::api::split_token;
use apm_stores::hashes::fnv1a64;
use apm_stores::DistributedStore;

const RECORDS: u64 = 40_000;

/// A fingerprint and the two counts that show what it covered.
type Pin = (u64, usize, usize);

/// Ops in flight in a [`ClosedLoop`] — enough concurrency that group
/// commits, quorum stragglers and background jobs overlap client work.
const WINDOW: usize = 64;

/// Seeded ops against the store called `name` on 4 nodes of `cluster`,
/// loaded with `records`. Every `(OpOutcome, Plan)` the planner returns
/// is folded into the fingerprint.
struct ClosedLoop {
    engine: Engine,
    store: Box<dyn DistributedStore>,
    generator: WorkloadGenerator,
    fp: u64,
    issued: u64,
    in_flight: usize,
    background: usize,
    refused: usize,
    /// Also fold the hedge plan the store offers for every read.
    hedged: bool,
}

impl ClosedLoop {
    fn new(name: &str, cluster: ClusterSpec, workload: Workload, records: u64) -> ClosedLoop {
        let mut engine = Engine::new();
        let ctx = common::ctx_on(name, &mut engine, cluster, 4, 0.001);
        let mut store = common::build(name, &mut engine, ctx);
        store.load_range(0..records);
        store.finish_load();
        ClosedLoop {
            engine,
            store,
            generator: WorkloadGenerator::new(workload, records, 0x5CA9),
            fp: 0,
            issued: 0,
            in_flight: 0,
            background: 0,
            refused: 0,
            hedged: false,
        }
    }

    fn fold(&mut self, what: std::fmt::Arguments) {
        self.fp = fnv1a64(format!("{:016x}|{what}", self.fp).as_bytes());
    }

    /// Plans the next op and folds it in.
    fn plan_op(&mut self) -> (OpOutcome, apm_sim::Plan) {
        let op = self.generator.next_op();
        let client = (self.issued % WINDOW as u64) as u32;
        self.issued += 1;
        let (outcome, plan) = self.store.plan_op(client, &op, &mut self.engine);
        if matches!(op, Operation::Insert { .. }) && outcome == OpOutcome::Done {
            self.generator.ack_insert();
        }
        self.fold(format_args!("{outcome:?}|{plan:?}"));
        if self.hedged && matches!(op, Operation::Read { .. }) {
            let hedge = self.store.hedge_read_plan(client, &op, &mut self.engine);
            self.fold(format_args!("hedge|{hedge:?}"));
        }
        (outcome, plan)
    }

    /// Plans `n` more ops as a closed loop of [`WINDOW`] in flight: every
    /// plan is submitted, and every completion the kernel reports — the
    /// store's own background plans included — is folded in too as
    /// `(token, finished, outcome)`.
    fn ops(&mut self, n: usize) {
        for _ in 0..n {
            while self.in_flight >= WINDOW {
                self.complete();
            }
            let (outcome, plan) = self.plan_op();
            self.refused += usize::from(matches!(outcome, OpOutcome::Rejected(_)));
            self.engine.submit(plan, Token(self.issued - 1));
            self.in_flight += 1;
        }
    }

    /// Takes the next completion; false once the engine has run dry.
    fn complete(&mut self) -> bool {
        let Some(c) = self.engine.next_completion() else {
            return false;
        };
        let (token, finished, outcome) = (c.token, c.finished, c.outcome);
        let (background, id) = split_token(token);
        if background {
            self.fold(format_args!("background|{finished:?}|{outcome:?}"));
            self.background += 1;
            self.store.on_background(id, &mut self.engine);
        } else {
            self.fold(format_args!("{token:?}|{finished:?}|{outcome:?}"));
            self.in_flight -= 1;
            self.refused += usize::from(!c.outcome.is_ok());
        }
        true
    }

    fn fault(&mut self, node: usize, kind: FaultKind) {
        let at = self.engine.now();
        self.store
            .on_fault(&FaultEvent { at, node, kind }, &mut self.engine);
    }

    /// Runs the engine dry — everything in flight and every background
    /// job that follows from it — and returns (fingerprint, background
    /// plans completed, ops refused or failed).
    fn drain(&mut self) -> Pin {
        while self.complete() {}
        (self.fp, self.background, self.refused)
    }
}

/// (fingerprint, scans seen, rows scanned) of 2 000 seeded RS ops planned,
/// never submitted, against the store called `name`.
fn rs_plans(name: &str) -> Pin {
    let mut run = ClosedLoop::new(name, ClusterSpec::cluster_m(), Workload::rs(), RECORDS);
    let (mut scans, mut rows) = (0, 0);
    for _ in 0..2_000 {
        if let (OpOutcome::Scanned(n), _) = run.plan_op() {
            scans += 1;
            rows += n;
        }
    }
    (run.fp, scans, rows)
}

/// 4 000 ops each of Workload RW and Workload W on Cluster M and of
/// Workload RSW on Cluster D — where the data outgrows page cache and
/// buffer pool, so reads, writes and scans carry their disk steps —
/// folded into one pin. Redis is loaded to the brim first, so Workload W
/// runs its hottest instance into `-OOM`.
fn closed_loops(name: &str) -> Pin {
    let records = if name == "redis" { 50_000 } else { RECORDS };
    let shapes = [
        (Workload::rw(), ClusterSpec::cluster_m()),
        (Workload::w(), ClusterSpec::cluster_m()),
        (Workload::rsw(), ClusterSpec::cluster_d()),
    ];
    shapes
        .into_iter()
        .fold((0, 0, 0), |pin, (workload, cluster)| {
            let mut run = ClosedLoop::new(name, cluster, workload, records);
            run.ops(4_000);
            let (fp, background, refused) = run.drain();
            let fp = fnv1a64(format!("{:016x}|{fp:016x}", pin.0).as_bytes());
            (fp, pin.1 + background, pin.2 + refused)
        })
}

/// Store, its [`rs_plans`] pin and its [`closed_loops`] pin. Cassandra is
/// pinned as the paper ran it and at `replication: 3`, where a write is
/// a quorum `Join`.
const PINS: [(&str, Pin, Pin); 8] = [
    (
        "cassandra",
        (0xcd2b_9637_d852_d13c, 883, 44_102),
        (0x25ee_a674_b015_d9e5, 8, 0),
    ),
    (
        "cassandra rf=3",
        (0x3ea7_b8ef_b2fd_0501, 883, 44_150),
        (0xc177_8944_5f1d_1bc8, 24, 0),
    ),
    (
        "hbase",
        (0xae0e_85aa_37db_f4ec, 883, 44_098),
        (0x0ef3_f0b7_34c9_018d, 8, 0),
    ),
    (
        "voldemort",
        (0xb35c_c551_f39d_7868, 0, 0),
        (0xca61_3638_5bad_690c, 4, 1_010),
    ),
    (
        "voltdb",
        (0xf33a_033b_c973_e404, 883, 44_150),
        (0x7771_1cd7_53b4_7717, 0, 0),
    ),
    (
        "redis",
        (0x91e1_fdd7_0541_1450, 883, 44_150),
        (0x82bd_a766_6513_a900, 0, 2_409),
    ),
    (
        "mysql",
        (0x7837_b0dc_8214_d3da, 883, 44_150),
        (0xc7b7_6690_a870_05b4, 0, 0),
    ),
    (
        "mongodb",
        (0xfb44_de2e_5e9e_6192, 883, 44_097),
        (0xdf4b_83f4_7b16_bb6a, 0, 0),
    ),
];

#[test]
fn rs_plans_and_closed_loops_are_pinned() {
    let moved: Vec<String> = PINS
        .iter()
        .filter_map(|&(name, rs, loops)| {
            let got = (rs_plans(name), closed_loops(name));
            (got != (rs, loops)).then(|| format!("{name}: {got:x?}, pinned {:x?}", (rs, loops)))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "((fingerprint, scans, rows), (fingerprint, background, refused)), in hex, moved:\n{}",
        moved.join("\n")
    );
}

/// MySQL's range scan degrades to a full table scan once a shard has
/// seen more than 2 000 inserts/s for a second. 38 000 ops of Workload RSW
/// trip the estimator (each shard's churn flag, read on the capturing commit);
/// from then on the churn branch plans.
#[test]
fn mysql_rsw_churn_plans_are_pinned() {
    let mut run = ClosedLoop::new("mysql", ClusterSpec::cluster_m(), Workload::rsw(), RECORDS);
    run.ops(38_500);
    let got = run.drain();
    assert_eq!(got, (0x6798_e796_0cc0_23a7, 0, 0), "got (hex) {got:x?}");
}

/// Cassandra's fault-time plans at `replication: 3` on 4 nodes: a write
/// with one replica down (two live branches and a hint), with three
/// nodes down (one live branch inlined, or every replica down → `Fail`),
/// failover reads and the hedge plan offered for each, then the hint
/// replay streams of the three rejoining nodes and a bootstrap stream.
#[test]
fn cassandra_fault_time_plans_are_pinned() {
    let cluster = ClusterSpec::cluster_m();
    let mut run = ClosedLoop::new("cassandra rf=3", cluster, Workload::rw(), RECORDS);
    run.hedged = true;
    run.ops(300);
    run.fault(1, FaultKind::Crash);
    run.ops(600);
    run.fault(2, FaultKind::Crash);
    run.fault(3, FaultKind::Crash);
    run.ops(600);
    for node in 1..=3 {
        run.fault(node, FaultKind::Restart);
    }
    run.ops(300);
    run.store.on_timed_event(&mut run.engine); // bootstraps a fifth node
    run.ops(300);
    let got = run.drain();
    assert_eq!(got, (0x35f4_4261_0a3f_7885, 4, 203), "got (hex) {got:x?}");
}

/// HBase's fault-time plans: requests to a dead server's regions
/// (`dead_region_plan`) until the master's recovery job — failure
/// detection, then WAL replay through HDFS — re-opens them on the
/// substitute, plans served by the substitute, and the move home.
#[test]
fn hbase_fault_time_plans_are_pinned() {
    let mut run = ClosedLoop::new("hbase", ClusterSpec::cluster_m(), Workload::rs(), RECORDS);
    run.ops(300);
    run.fault(1, FaultKind::Crash);
    run.ops(600);
    run.drain(); // the recovery job finishes here
    run.ops(600);
    run.fault(1, FaultKind::Restart);
    run.ops(300);
    let got = run.drain();
    assert_eq!(got, (0xe687_84e2_41ca_4487, 1, 172), "got (hex) {got:x?}");
}
