//! Microbenchmarks of the storage engine substrates.

use apm_bench::runner::{black_box, Group};
use apm_core::keyspace::{key_for_seq, record_for_seq};
use apm_storage::bloom::Bloom;
use apm_storage::btree::{BTree, BTreeConfig};
use apm_storage::bufferpool::{Access, BufferPool, PageId};
use apm_storage::hashstore::HashStore;
use apm_storage::lsm::{LsmConfig, LsmTree};

const N: u64 = 100_000;

fn loaded_lsm() -> LsmTree {
    let mut tree = LsmTree::new(LsmConfig {
        memtable_flush_bytes: 75 * 10_000,
        ..LsmConfig::default()
    });
    for seq in 0..N {
        let r = record_for_seq(seq);
        let (_, job) = tree.insert(r.key, r.fields);
        tree.settle(job);
    }
    tree
}

fn loaded_btree() -> BTree {
    let mut tree = BTree::new(BTreeConfig::default());
    for seq in 0..N {
        let r = record_for_seq(seq);
        tree.insert(r.key, r.fields);
    }
    tree
}

fn bench_lsm() {
    let group = Group::new("lsm");
    let mut tree = loaded_lsm();
    let mut seq = N;
    group.bench("insert", || {
        let r = record_for_seq(seq);
        seq += 1;
        let (receipt, job) = tree.insert(r.key, r.fields);
        tree.settle(job);
        black_box(receipt);
    });
    let mut i = 0u64;
    group.bench("get_hit", || {
        i = (i + 7919) % N;
        let key = record_for_seq(i).key;
        black_box(tree.get(&key).0)
    });
    group.bench("scan50", || {
        i = (i + 7919) % N;
        let key = record_for_seq(i).key;
        black_box(tree.scan(&key, 50).0.len())
    });
    group.bench("scan50_count", || {
        i = (i + 7919) % N;
        let key = record_for_seq(i).key;
        black_box(tree.scan_count(&key, 50).0)
    });
}

fn bench_btree() {
    let group = Group::new("btree");
    let mut tree = loaded_btree();
    let mut seq = N;
    group.bench("insert", || {
        let r = record_for_seq(seq);
        seq += 1;
        black_box(tree.insert(r.key, r.fields).1.read.len())
    });
    // The B+tree stores' write path: insert, then replay the page trace
    // through a pool that holds the whole tree.
    let mut pool = BufferPool::new(1 << 20);
    group.bench("insert_with_pool", || {
        let r = record_for_seq(seq);
        seq += 1;
        let (_, trace) = tree.insert(r.key, r.fields);
        for page in trace.read.iter().chain(&trace.written) {
            black_box(pool.access(*page, Access::Write));
        }
    });
    let mut i = 0u64;
    group.bench("get_hit", || {
        i = (i + 7919) % N;
        let key = record_for_seq(i).key;
        black_box(tree.get(&key).0)
    });
    group.bench("scan50", || {
        i = (i + 7919) % N;
        let key = record_for_seq(i).key;
        black_box(tree.scan(&key, 50).0.len())
    });
    group.bench("scan50_count", || {
        i = (i + 7919) % N;
        let key = record_for_seq(i).key;
        black_box(tree.scan_count(&key, 50).0)
    });
}

fn bench_keys() {
    let group = Group::new("keys");
    // Neighbours in key order share a long prefix, like the last steps
    // of a binary search.
    let mut keys: Vec<_> = (0..1024).map(key_for_seq).collect();
    keys.sort_unstable();
    let mut i = 0usize;
    group.bench("metric_key_cmp", || {
        i = (i + 1) % 1023;
        black_box(black_box(&keys[i]).cmp(black_box(&keys[i + 1])))
    });
}

fn bench_bloom() {
    let group = Group::new("bloom");
    let mut bloom = Bloom::with_capacity(N as usize, 10);
    for seq in 0..N {
        bloom.insert(&record_for_seq(seq).key);
    }
    let mut i = 0u64;
    group.bench("probe_hit", || {
        i = (i + 7919) % N;
        black_box(bloom.may_contain(&record_for_seq(i).key))
    });
    group.bench("probe_miss", || {
        i = (i + 7919) % N;
        black_box(bloom.may_contain(&record_for_seq(N + i).key))
    });
}

fn bench_hashstore() {
    let group = Group::new("hashstore");
    let mut store = HashStore::new(None);
    for seq in 0..N {
        let r = record_for_seq(seq);
        store.insert(r.key, r.fields).unwrap();
    }
    let mut i = 0u64;
    group.bench("get", || {
        i = (i + 7919) % N;
        black_box(store.get(&record_for_seq(i).key).0)
    });
    group.bench("scan50", || {
        i = (i + 7919) % N;
        black_box(store.scan(&record_for_seq(i).key, 50).0.len())
    });
    group.bench("scan50_count", || {
        i = (i + 7919) % N;
        black_box(store.scan_count(&record_for_seq(i).key, 50).0)
    });
}

fn bench_bufferpool() {
    let group = Group::new("bufferpool");
    let mut pool = BufferPool::new(10_000);
    let mut i = 0u64;
    group.bench("access_thrash", || {
        i = (i + 7919) % 100_000;
        black_box(pool.access(PageId(i), Access::Read).hit)
    });
}

fn main() {
    bench_lsm();
    bench_btree();
    bench_keys();
    bench_bloom();
    bench_hashstore();
    bench_bufferpool();
}
