//! Fixed-iteration probes of single layers.
//!
//! Iteration counts, not time budgets: every count a probe reports
//! (amplifications, depths, hit rates) repeats exactly, and a probe's
//! time is its whole loop divided by a known number of operations.
//! Every traced run executes all of them (about two seconds), so each
//! per-layer probe metric is measured on every workload; the workload
//! a probe explains is named in the catalogue.
//!
//! These are the bodies of the legacy `cargo bench` micro-benches
//! (`micro_storage`, `micro_routing`, `micro_workload`, `kernel`) with
//! fixed counts, and with the kernel probe corrected: the engine is
//! built outside the timed region and time is divided by services
//! (`Engine::served`), not by completions of a one-step plan.

use crate::traced::total_served;
use apm_core::keyspace::{key_for_seq, record_for_seq};
use apm_core::ops::OpKind;
use apm_core::record::RAW_RECORD_SIZE;
use apm_core::stats::BenchStats;
use apm_core::workload::{Workload, WorkloadGenerator};
use apm_sim::kernel::{Engine, ResourceId, Token};
use apm_sim::plan::Plan;
use apm_sim::time::SimDuration;
use apm_storage::bloom::Bloom;
use apm_storage::btree::{BTree, BTreeConfig};
use apm_storage::bufferpool::{Access, BufferPool, PageId};
use apm_storage::hashstore::HashStore;
use apm_storage::lsm::{BackgroundJob, JobKind, LsmConfig, LsmTree};
use apm_stores::hashes::{md5, murmur2_64a};
use apm_stores::routing::{JedisHash, JedisRing, TokenAssignment, TokenRing};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Probe results by metric name.
pub type Probes = BTreeMap<&'static str, f64>;

/// Records loaded into each storage engine before it is probed.
const LOADED: u64 = 100_000;
/// Stride that walks the loaded keys in a scattered, repeatable order.
const STRIDE: u64 = 7_919;
/// Raw payload bytes per record (§5.7: 75).
const RAW_RECORD_BYTES: u64 = RAW_RECORD_SIZE as u64;

/// Host nanoseconds per operation of `f` run `iters` times.
fn ns_per_op(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    // Wall-clock by design: a probe measures host time.
    let t0 = Instant::now(); // audit:allow(clock)
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// A 64-client closed loop re-submitting `plan` until `completions`
/// plans have finished; host nanoseconds per *service*. The engine and
/// its resources are built by the caller, outside the timed region.
fn kernel_loop(
    engine: &mut Engine,
    completions: u64,
    mut submit: impl FnMut(&mut Engine, Token),
) -> f64 {
    let before = total_served(engine);
    let t0 = Instant::now(); // audit:allow(clock)
    for client in 0..64 {
        submit(engine, Token(client));
    }
    let mut batch = VecDeque::new();
    let mut done = 0u64;
    while done < completions {
        if batch.is_empty() && !engine.drain_completions(&mut batch) {
            panic!("kernel probe starved");
        }
        let completion = batch.pop_front().expect("a drained batch is not empty");
        done += 1;
        submit(engine, completion.token);
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    black_box(engine.now());
    elapsed / (total_served(engine) - before) as f64
}

/// `sim.kernel.probe.*`: one-step acquire, 3-branch quorum join, and
/// the deadline submit path.
fn kernel(out: &mut Probes) {
    let service = SimDuration::from_micros(100);

    let mut engine = Engine::new();
    let cpu = engine.add_resource("cpu", 8);
    let prepared = engine.prepare(&Plan::build().acquire(cpu, service).finish());
    out.insert(
        "sim.kernel.probe.acquire_ns",
        kernel_loop(&mut engine, 2_000_000, |engine, token| {
            engine.submit_prepared(prepared, token);
        }),
    );

    let mut engine = Engine::new();
    let replicas: Vec<ResourceId> = (0..3)
        .map(|i| engine.add_resource(format!("replica{i}.cpu"), 8))
        .collect();
    let branches = replicas
        .iter()
        .map(|&r| Plan::build().acquire(r, service).finish())
        .collect();
    let prepared = engine.prepare(&Plan::build().join_quorum(branches, 2).finish());
    out.insert(
        "sim.kernel.probe.quorum_join_ns",
        kernel_loop(&mut engine, 400_000, |engine, token| {
            engine.submit_prepared(prepared, token);
        }),
    );

    let mut engine = Engine::new();
    let cpu = engine.add_resource("cpu", 8);
    let plan = Plan::build().acquire(cpu, service).finish();
    let deadline = SimDuration::from_millis(50);
    out.insert(
        "sim.kernel.probe.deadline_ns",
        kernel_loop(&mut engine, 600_000, |engine, token| {
            let now = engine.now();
            engine.submit_at_with_deadline(now, plan.clone(), token, deadline);
        }),
    );
}

/// `core.workload.probe.next_op_ns` and `core.stats.probe.record_ns`.
fn core(out: &mut Probes) {
    let mut generator = WorkloadGenerator::new(Workload::rsw(), 1_000_000, 7);
    out.insert(
        "core.workload.probe.next_op_ns",
        ns_per_op(2_000_000, |_| {
            let op = generator.next_op();
            if op.kind() == OpKind::Insert {
                generator.ack_insert();
            }
            black_box(op.kind());
        }),
    );
    let mut stats = BenchStats::new();
    let mut v = 1u64;
    out.insert(
        "core.stats.probe.record_ns",
        ns_per_op(4_000_000, |_| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            stats.record(OpKind::Insert, v % 10_000_000);
        }),
    );
    black_box(stats.total_ops());
}

/// `stores.routing.probe.*` and `stores.hashes.probe.*`.
fn routing(out: &mut Probes) {
    let jedis = JedisRing::new(12, JedisHash::Murmur);
    out.insert(
        "stores.routing.probe.jedis_ring_ns",
        ns_per_op(1_000_000, |i| {
            black_box(jedis.route(&key_for_seq(i)));
        }),
    );
    let tokens = TokenRing::new(12, TokenAssignment::Optimal);
    out.insert(
        "stores.routing.probe.token_ring_ns",
        ns_per_op(1_000_000, |i| {
            black_box(tokens.route(&key_for_seq(i)));
        }),
    );
    let key = key_for_seq(12_345);
    out.insert(
        "stores.hashes.probe.murmur_ns",
        ns_per_op(4_000_000, |i| {
            black_box(murmur2_64a(black_box(key.as_bytes()), i));
        }),
    );
    out.insert(
        "stores.hashes.probe.md5_ns",
        ns_per_op(1_000_000, |_| {
            black_box(md5(black_box(key.as_bytes())));
        }),
    );
}

/// Completes a flush or compaction and everything it triggers.
fn settle(tree: &mut LsmTree, job: Option<BackgroundJob>) {
    let mut next = job;
    while let Some(j) = next {
        next = match j.kind {
            JobKind::Flush => tree.complete_flush(j.id),
            JobKind::Compaction => tree.complete_compaction(j.id),
        };
    }
}

fn scattered(i: u64) -> u64 {
    (i + 1) * STRIDE % LOADED
}

/// `storage.lsm.*`: bulk insert (the load probe), then point reads and
/// 50-record scans over the loaded tree.
fn lsm(out: &mut Probes) {
    let mut tree = LsmTree::new(LsmConfig {
        memtable_flush_bytes: RAW_RECORD_BYTES * 10_000,
        ..LsmConfig::default()
    });
    out.insert(
        "storage.lsm.probe.insert_ns",
        ns_per_op(LOADED, |seq| {
            let r = record_for_seq(seq);
            let (receipt, job) = tree.insert(r.key, r.fields);
            settle(&mut tree, job);
            black_box(receipt);
        }),
    );
    let loaded = tree.stats();
    out.insert(
        "storage.lsm.write_amplification",
        (loaded.bytes_flushed + loaded.bytes_compacted) as f64 / (LOADED * RAW_RECORD_BYTES) as f64,
    );
    out.insert("storage.lsm.flushes", loaded.flushes as f64);
    out.insert("storage.lsm.compactions", loaded.compactions as f64);

    let gets = 200_000;
    let mut probes = 0u64;
    out.insert(
        "storage.lsm.probe.get_ns",
        ns_per_op(gets, |i| {
            let (found, receipt) = tree.get(&record_for_seq(scattered(i)).key);
            probes += receipt.probes;
            black_box(found);
        }),
    );
    let read = tree.stats();
    let consulted = read.tables_consulted - loaded.tables_consulted;
    let skipped = read.bloom_skips - loaded.bloom_skips;
    out.insert(
        "storage.lsm.read_amplification",
        consulted as f64 / gets as f64,
    );
    out.insert(
        "storage.lsm.bloom_skip_share",
        skipped as f64 / (skipped + consulted).max(1) as f64,
    );
    out.insert("storage.lsm.probes_per_get", probes as f64 / gets as f64);
    out.insert(
        "storage.lsm.probe.scan50_ns",
        ns_per_op(20_000, |i| {
            black_box(tree.scan(&record_for_seq(scattered(i)).key, 50).0.len());
        }),
    );
}

/// `storage.btree.*`.
fn btree(out: &mut Probes) {
    let mut tree = BTree::new(BTreeConfig::default());
    out.insert(
        "storage.btree.probe.insert_ns",
        ns_per_op(LOADED, |seq| {
            let r = record_for_seq(seq);
            black_box(tree.insert(r.key, r.fields).0);
        }),
    );
    out.insert("storage.btree.depth", f64::from(tree.depth()));
    out.insert(
        "storage.btree.probe.get_ns",
        ns_per_op(200_000, |i| {
            black_box(tree.get(&record_for_seq(scattered(i)).key).0);
        }),
    );
    out.insert(
        "storage.btree.probe.scan50_ns",
        ns_per_op(20_000, |i| {
            black_box(tree.scan(&record_for_seq(scattered(i)).key, 50).0.len());
        }),
    );
}

/// `storage.hashstore.*`.
fn hashstore(out: &mut Probes) {
    let mut store = HashStore::new(None);
    out.insert(
        "storage.hashstore.probe.insert_ns",
        ns_per_op(LOADED, |seq| {
            let r = record_for_seq(seq);
            black_box(store.insert(r.key, r.fields).is_ok());
        }),
    );
    out.insert(
        "storage.hashstore.probe.scan50_ns",
        ns_per_op(20_000, |i| {
            black_box(store.scan(&record_for_seq(scattered(i)).key, 50).0.len());
        }),
    );
}

/// `storage.bufferpool.*` and `storage.bloom.*`.
fn caches(out: &mut Probes) {
    // A pool of a tenth of the pages: every other access goes to a hot
    // twentieth that fits, the rest walk all pages and always miss.
    let mut pool = BufferPool::new(10_000);
    out.insert(
        "storage.bufferpool.probe.access_ns",
        ns_per_op(2_000_000, |i| {
            let page = scattered(i) % if i % 2 == 0 { LOADED / 20 } else { LOADED };
            black_box(pool.access(PageId(page), Access::Read).hit);
        }),
    );
    out.insert("storage.bufferpool.hit_rate", pool.stats().hit_rate());

    let mut bloom = Bloom::with_capacity(LOADED as usize, 10);
    for seq in 0..LOADED {
        bloom.insert(&record_for_seq(seq).key);
    }
    // Alternate present and absent keys.
    out.insert(
        "storage.bloom.probe.may_contain_ns",
        ns_per_op(2_000_000, |i| {
            let seq = scattered(i) + (i % 2) * LOADED;
            black_box(bloom.may_contain(&record_for_seq(seq).key));
        }),
    );
}

/// Runs every probe.
pub fn run_all() -> Probes {
    let mut out = Probes::new();
    kernel(&mut out);
    core(&mut out);
    routing(&mut out);
    lsm(&mut out);
    btree(&mut out);
    hashstore(&mut out);
    caches(&mut out);
    out
}
