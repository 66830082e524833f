//! The partitioned load phase builds the same bytes at any worker count.
//!
//! `DistributedStore::load_range` splits a store's per-node engines
//! among worker threads; every node must still see exactly the inserts,
//! in exactly the order, of the per-record `load` loop. Checked here at
//! the strongest boundary there is: the store's full `snap_state` stream
//! (LSM table ids, B+tree page ids, pool frames, clock hands, counters)
//! after load + `finish_load`, for all seven stores, node counts whose
//! groups come out equal, unequal and singleton, and every worker count
//! from "nothing spawned" to "one thread per node".

mod common;

use apm_core::keyspace::record_for_seq;
use apm_core::snap::SnapWriter;
use apm_sim::{ClusterSpec, Engine};
use apm_stores::redis::RedisStore;
use apm_stores::{DistributedStore, StoreCtx};
use common::STORES;
use std::ops::Range;

/// Enough records per node for several memtable flushes and a
/// compaction in the LSM stores and a three-level B+tree in the others.
const RECORDS_PER_NODE: u64 = 3_000;
const SCALE: f64 = 0.0005;

/// How a store gets loaded.
#[derive(Clone, Copy, Debug)]
enum Via {
    /// The reference: `load` per record.
    PerRecord,
    /// `load_range_on` with this worker count.
    Workers(usize),
    /// `load_range`, at whatever this host's CPU count is.
    HostCpus,
}

fn load_via(store: &mut dyn DistributedStore, seqs: Range<u64>, via: Via) {
    match via {
        Via::PerRecord => seqs.for_each(|seq| store.load(&record_for_seq(seq))),
        Via::Workers(workers) => store.load_range_on(seqs, workers),
        Via::HostCpus => store.load_range(seqs),
    }
}

fn ctx(engine: &mut Engine, nodes: u32, scale: f64) -> StoreCtx {
    StoreCtx::new(engine, ClusterSpec::cluster_d(), nodes, 1, scale, 31)
}

fn snapshot(store: &dyn DistributedStore) -> Vec<u8> {
    let mut w = SnapWriter::new();
    store.snap_state(&mut w);
    w.into_bytes()
}

/// Asserts that a fresh store of `nodes` nodes at `scale` loaded with
/// `seqs` each way in `vias` snapshots to the bytes of one loaded by the
/// per-record loop.
fn assert_loads_like_the_loop(
    name: &str,
    (nodes, scale): (u32, f64),
    seqs: Range<u64>,
    vias: &[Via],
) {
    let loaded = |via: Via| {
        let mut engine = Engine::new();
        let ctx = ctx(&mut engine, nodes, scale);
        let mut store = common::build(name, &mut engine, ctx);
        load_via(store.as_mut(), seqs.clone(), via);
        store.finish_load();
        snapshot(store.as_ref())
    };
    let reference = loaded(Via::PerRecord);
    for &via in vias {
        assert!(
            loaded(via) == reference,
            "{name}, {nodes} nodes, {via:?}: snapshot differs from the per-record load's"
        );
    }
}

/// [`assert_loads_like_the_loop`] at any worker count and through
/// `load_range` itself.
fn assert_worker_independent(name: &str, nodes: u32, seqs: Range<u64>) {
    let sweep = [1, 2, 3, nodes as usize].map(Via::Workers);
    let vias = [&sweep[..], &[Via::HostCpus]].concat();
    assert_loads_like_the_loop(name, (nodes, SCALE), seqs, &vias);
}

#[test]
fn every_store_loads_the_same_bytes_at_any_worker_count() {
    for name in STORES {
        // 5 nodes on 2 or 3 workers: groups of unequal size; 12 on 5:
        // fewer groups than workers.
        for nodes in [1u32, 2, 5, 12] {
            assert_worker_independent(name, nodes, 0..RECORDS_PER_NODE * u64::from(nodes));
        }
    }
}

#[test]
fn replicas_that_straddle_groups_land_on_every_owner() {
    // With rf > 1 a record's replicas are ring neighbours, so at any
    // split some records belong to two workers at once.
    for name in ["cassandra rf=2", "cassandra rf=3"] {
        for nodes in [2u32, 5] {
            assert_worker_independent(name, nodes, 0..RECORDS_PER_NODE * u64::from(nodes));
        }
    }
    // 12 nodes on 5 workers: four groups of three, fewer than workers,
    // and every record's three replicas in up to two of them.
    let seqs = 0..RECORDS_PER_NODE * 12;
    assert_loads_like_the_loop("cassandra rf=3", (12, SCALE), seqs, &[Via::Workers(5)]);
}

#[test]
fn a_load_longer_than_one_block_builds_the_same_bytes() {
    // `load_partitioned` routes 128 Ki sequences at a time (`BLOCK_SEQS`
    // in api.rs): this range ends a few thousand into its third block,
    // on the two stores cheapest to load, sized to hold it. (The
    // in-module sweep in api.rs crosses block lengths 1, 3, 5 and 1 000
    // with every worker and node count over a toy node.)
    let seqs = 0..(2u64 << 17) + 4_321;
    for name in ["voltdb", "redis"] {
        let vias = [Via::Workers(1), Via::Workers(2)];
        assert_loads_like_the_loop(name, (3, 0.03), seqs.clone(), &vias);
    }
}

#[test]
fn a_node_list_of_any_length_mod_four_builds_the_same_bytes() {
    // The build pass takes a node's sequences four at a time and the
    // rest one by one. On one node the list is the range, so these are
    // lists with nothing, one, two and three left over — and, at 0..r,
    // lists that are all tail.
    for name in STORES {
        for rest in 0..4 {
            let vias = [Via::Workers(1)];
            assert_loads_like_the_loop(name, (1, SCALE), 0..RECORDS_PER_NODE + rest, &vias);
            assert_loads_like_the_loop(name, (1, SCALE), 0..rest, &vias);
        }
    }
}

#[test]
fn empty_and_offset_ranges_load_what_the_loop_loads() {
    for name in STORES {
        assert_worker_independent(name, 5, 0..0);
        assert_worker_independent(name, 5, 7_777..12_345);
    }
}

#[test]
fn redis_rejections_and_survivors_match_the_loop() {
    // §5.1's incident: instances sized for 1 000 records each are fed
    // 3 000, so the load overruns the hard allocation limit. Which keys
    // were refused is per-instance state; the count is the one number
    // the workers have to add up.
    let nodes = 5u32;
    let end = RECORDS_PER_NODE * u64::from(nodes);
    let loaded = |parts: &[(Range<u64>, Via)]| {
        let mut engine = Engine::new();
        let ctx = ctx(&mut engine, nodes, 0.0001);
        let mut store = RedisStore::new(ctx, &mut engine);
        for (seqs, via) in parts {
            load_via(&mut store, seqs.clone(), *via);
        }
        (store.load_rejections(), snapshot(&store))
    };
    let reference = loaded(&[(0..end, Via::PerRecord)]);
    assert!(reference.0 > 0, "the overfilled load must reject");
    for workers in [1, 2, 3, nodes as usize] {
        assert!(
            loaded(&[(0..end, Via::Workers(workers))]) == reference,
            "{workers} workers: rejection count or surviving keys differ"
        );
    }
    // A second call adds to the counter the first one left.
    let halves = [
        (0..end / 2, Via::Workers(2)),
        (end / 2..end, Via::Workers(3)),
    ];
    assert!(loaded(&halves) == reference, "load in two calls");
}
