//! Client-side data placement: token rings, sharding libraries, region
//! and partition maps.
//!
//! How keys map to nodes is one of the paper's recurring themes: Cassandra
//! needed manually assigned tokens to balance (§6); the Jedis library
//! balanced poorly enough to drive one Redis node out of memory (§5.1);
//! the RDBMS client's consistent hashing "did a much better sharding than
//! the Jedis library" (§5.1). These routers reproduce those layers.

use crate::hashes::{md5_u128, murmur2_64a};
use apm_core::record::MetricKey;
use apm_core::snap_struct;
use std::collections::BTreeMap;

/// Reports how evenly a router spreads a key sample over `n` nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct BalanceReport {
    /// Fraction of keys per node.
    pub shares: Vec<f64>,
    /// max(share) / mean(share): 1.0 is perfect balance.
    pub max_over_mean: f64,
}

/// Computes a balance report for any routing function.
pub fn balance_of(
    nodes: usize,
    sample: u64,
    mut route: impl FnMut(&MetricKey) -> usize,
) -> BalanceReport {
    let mut counts = vec![0u64; nodes];
    for seq in 0..sample {
        let key = apm_core::keyspace::key_for_seq(seq);
        counts[route(&key)] += 1;
    }
    let mean = sample as f64 / nodes as f64;
    let shares: Vec<f64> = counts.iter().map(|&c| c as f64 / sample as f64).collect();
    let max_over_mean = counts.iter().copied().max().unwrap_or(0) as f64 / mean;
    BalanceReport {
        shares,
        max_over_mean,
    }
}

/// How Cassandra tokens are assigned (§6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenAssignment {
    /// Default: each node picks a random token — "frequently resulted in
    /// a highly unbalanced workload" (§6).
    Random {
        /// Seed for the random token draw.
        seed: u64,
    },
    /// The paper's fix: "we assigned an optimal set of tokens to the
    /// nodes", i.e. evenly spaced over the 2^127 range.
    Optimal,
}

/// Cassandra's token ring over the `RandomPartitioner` (MD5) key space.
#[derive(Clone, Debug)]
pub struct TokenRing {
    /// Sorted (token, node) pairs.
    tokens: Vec<(u128, usize)>,
    nodes: usize,
}

/// The RandomPartitioner token space is `[0, 2^127)`.
const TOKEN_SPACE: u128 = 1 << 127;

impl TokenRing {
    /// Builds a ring for `nodes` nodes.
    pub fn new(nodes: usize, assignment: TokenAssignment) -> TokenRing {
        assert!(nodes > 0);
        let mut tokens: Vec<(u128, usize)> = match assignment {
            TokenAssignment::Optimal => (0..nodes)
                .map(|i| (TOKEN_SPACE / nodes as u128 * i as u128, i))
                .collect(),
            TokenAssignment::Random { seed } => (0..nodes)
                .map(|i| {
                    let h =
                        md5_u128(format!("token-seed-{seed}-node-{i}").as_bytes()) % TOKEN_SPACE;
                    (h, i)
                })
                .collect(),
        };
        tokens.sort_unstable();
        TokenRing { tokens, nodes }
    }

    /// Ring position owning `key`: that of the greatest token
    /// `<= hash(key)` (Cassandra semantics: a token owns the range
    /// (previous token, token], we use the equivalent successor form).
    fn owner_pos(&self, key: &MetricKey) -> usize {
        let h = md5_u128(key.as_bytes()) % TOKEN_SPACE;
        match self.tokens.binary_search_by(|(t, _)| t.cmp(&h)) {
            Ok(i) => i,
            Err(0) => self.tokens.len() - 1,
            Err(i) => i - 1,
        }
    }

    /// Node owning `key`.
    pub fn route(&self, key: &MetricKey) -> usize {
        self.tokens[self.owner_pos(key)].1
    }

    /// Nodes holding replicas of `key` for replication factor `rf`, in
    /// ring order: the owner, then the next `rf - 1` distinct ring
    /// successors (SimpleStrategy). Walks the ring in place — the load
    /// route and every planned op ask, and none of them keeps the list.
    pub fn replica_walk(&self, key: &MetricKey, rf: usize) -> impl Iterator<Item = usize> + '_ {
        let (start, len) = (self.owner_pos(key), self.tokens.len());
        let at = move |step: usize| self.tokens[(start + step) % len].1;
        (0..len)
            .filter(move |&step| (0..step).all(|earlier| at(earlier) != at(step)))
            .map(at)
            .take(rf.min(self.nodes))
    }

    /// [`TokenRing::replica_walk`] as a list, for callers that keep it.
    pub fn replicas(&self, key: &MetricKey, rf: usize) -> Vec<usize> {
        self.replica_walk(key, rf).collect()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Whether the ring is one of exactly `nodes` nodes that routes every
    /// key to one of them: what a restored ring must be before a route
    /// indexes a node's state.
    pub fn spans(&self, nodes: usize) -> bool {
        self.nodes == nodes && !self.tokens.is_empty() && self.tokens.iter().all(|t| t.1 < nodes)
    }

    /// Bootstraps a new node into the ring the way Cassandra operators
    /// did it in 1.0: the newcomer takes a token in the middle of the
    /// *largest* existing range, claiming half of one node's data.
    /// Returns the index of the node whose range was split.
    pub fn extend(&mut self) -> usize {
        let new_node = self.nodes;
        // Find the largest circular gap between consecutive tokens.
        let mut best = (0u128, 0usize);
        for i in 0..self.tokens.len() {
            let here = self.tokens[i].0;
            let next = if i + 1 < self.tokens.len() {
                self.tokens[i + 1].0
            } else {
                self.tokens[0].0 + TOKEN_SPACE
            };
            let gap = next - here;
            if gap > best.0 {
                best = (gap, i);
            }
        }
        let (gap, i) = best;
        // The owner of the split range is the *successor* position's
        // owner in our successor-form routing... with the owner form used
        // here (greatest token <= hash), range (tokens[i], tokens[i+1])
        // belongs to tokens[i].1.
        let victim = self.tokens[i].1;
        let new_token = (self.tokens[i].0 + gap / 2) % TOKEN_SPACE;
        self.tokens.push((new_token, new_node));
        self.tokens.sort_unstable();
        self.nodes += 1;
        victim
    }
}

snap_struct! { TokenRing { tokens, nodes } }

/// A consistent-hash ring of virtual nodes: every shard sits at `vnodes`
/// hashed positions, and a hash belongs to the shard of the first
/// position at or after it, wrapping to the ring's first.
#[derive(Clone, Debug)]
struct VnodeRing {
    ring: BTreeMap<u64, usize>,
    shards: usize,
}

impl VnodeRing {
    /// Places vnode `n` of shard `i` at `position(i, n)`.
    fn new(shards: usize, vnodes: usize, position: impl Fn(usize, usize) -> u64) -> VnodeRing {
        assert!(shards > 0);
        let mut ring = BTreeMap::new();
        for shard in 0..shards {
            for vnode in 0..vnodes {
                ring.insert(position(shard, vnode), shard);
            }
        }
        VnodeRing { ring, shards }
    }

    fn owner(&self, hash: u64) -> usize {
        match self.ring.range(hash..).next() {
            Some((_, shard)) => *shard,
            None => *self.ring.values().next().expect("non-empty ring"),
        }
    }
}

/// The Jedis `ShardedJedisPool` ring: 160 weighted virtual nodes per
/// shard, hashed with MurmurHash (the library's default; §5.1 footnote 7:
/// "We tried both supported hashing algorithms in Jedis, MurMurHash and
/// MD5, with the same result").
#[derive(Clone, Debug)]
pub struct JedisRing(VnodeRing);

/// Virtual nodes per shard, matching Jedis's `Hashing.MURMUR_HASH` setup.
pub const JEDIS_VNODES: usize = 160;

/// Key hasher choice for the Jedis ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JedisHash {
    /// MurmurHash64A (Jedis default).
    Murmur,
    /// MD5 folded to 64 bits (Jedis alternative).
    Md5,
}

impl JedisRing {
    /// Builds the ring exactly the way Jedis does: vnode `n` of shard `i`
    /// hashes the string `"SHARD-{i}-NODE-{n}"`.
    pub fn new(shards: usize, hash: JedisHash) -> JedisRing {
        JedisRing(VnodeRing::new(shards, JEDIS_VNODES, |shard, vnode| {
            Self::hash_with(hash, format!("SHARD-{shard}-NODE-{vnode}").as_bytes())
        }))
    }

    fn hash_with(hash: JedisHash, data: &[u8]) -> u64 {
        match hash {
            JedisHash::Murmur => murmur2_64a(data, 0x1234ABCD),
            JedisHash::Md5 => {
                let d = crate::hashes::md5(data);
                u64::from_le_bytes(d[0..8].try_into().expect("8 bytes"))
            }
        }
    }

    /// Shard owning `key` (successor vnode on the ring).
    pub fn route_with(&self, hash: JedisHash, key: &MetricKey) -> usize {
        self.0.owner(Self::hash_with(hash, key.as_bytes()))
    }

    /// Shard owning `key`, using the default Murmur hasher.
    pub fn route(&self, key: &MetricKey) -> usize {
        self.route_with(JedisHash::Murmur, key)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.0.shards
    }

    /// Virtual nodes each shard owns on the ring — the conserved weight:
    /// Jedis always places [`JEDIS_VNODES`] per shard, and a hash
    /// collision that silently dropped one would skew key distribution.
    pub fn vnode_weights(&self) -> Vec<u64> {
        let mut weights = vec![0u64; self.0.shards];
        for &shard in self.0.ring.values() {
            weights[shard] += 1;
        }
        weights
    }
}

/// The RDBMS YCSB client's consistent hashing — observed to shard "much
/// better than the Jedis library" (§5.1). Modelled as a ring with many
/// more virtual nodes per shard, which is what flattens the imbalance.
#[derive(Clone, Debug)]
pub struct RdbmsShards(VnodeRing);

const RDBMS_VNODES: usize = 1024;

impl RdbmsShards {
    /// Builds the sharding ring.
    pub fn new(shards: usize) -> RdbmsShards {
        RdbmsShards(VnodeRing::new(shards, RDBMS_VNODES, |shard, vnode| {
            murmur2_64a(format!("jdbc:{shard}:{vnode}").as_bytes(), 97)
        }))
    }

    /// Shard owning `key`.
    pub fn route(&self, key: &MetricKey) -> usize {
        self.0.owner(murmur2_64a(key.as_bytes(), 97))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.0.shards
    }
}

/// Voldemort's partition map: the paper set "two partitions per node"
/// (§4.3); a key hashes to a partition, each partition belongs to a node.
#[derive(Clone, Debug)]
pub struct PartitionMap {
    partitions_per_node: usize,
    nodes: usize,
}

impl PartitionMap {
    /// Builds the map with the paper's two partitions per node.
    pub fn new(nodes: usize) -> PartitionMap {
        assert!(nodes > 0);
        PartitionMap {
            partitions_per_node: 2,
            nodes,
        }
    }

    /// Total partition count.
    pub fn partitions(&self) -> usize {
        self.partitions_per_node * self.nodes
    }

    /// Partition owning `key`.
    pub fn partition(&self, key: &MetricKey) -> usize {
        (murmur2_64a(key.as_bytes(), 3) % self.partitions() as u64) as usize
    }

    /// Node owning `key`. Partitions are interleaved round-robin across
    /// nodes (partition p lives on node p mod n), like Voldemort's
    /// default cluster.xml generator.
    pub fn route(&self, key: &MetricKey) -> usize {
        self.partition(key) % self.nodes
    }
}

/// HBase's region map: ranges of the key space assigned to region
/// servers. We pre-split into `regions_per_server × servers` equal ranges
/// (the benchmark's hashed keys are uniform over the key space, so equal
/// ranges balance — matching the paper's loaded steady state).
#[derive(Clone, Debug)]
pub struct RegionMap {
    boundaries: Vec<MetricKey>,
    servers: usize,
}

impl RegionMap {
    /// Creates `servers × regions_per_server` regions.
    pub fn new(servers: usize, regions_per_server: usize) -> RegionMap {
        assert!(servers > 0 && regions_per_server > 0);
        let regions = servers * regions_per_server;
        // Key space: base-36 "m"-prefixed ids over u64 (see MetricKey);
        // split the u64 id space evenly.
        let boundaries = (1..regions)
            .map(|i| {
                let id = (u64::MAX / regions as u64).saturating_mul(i as u64);
                MetricKey::from_id(id)
            })
            .collect();
        RegionMap {
            boundaries,
            servers,
        }
    }

    /// Region index holding `key`.
    pub fn region(&self, key: &MetricKey) -> usize {
        self.boundaries.partition_point(|b| b <= key)
    }

    /// Total region count.
    pub fn regions(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// Region server hosting `key`'s region (regions assigned round-robin).
    pub fn route(&self, key: &MetricKey) -> usize {
        self.region(key) % self.servers
    }

    /// Servers hosting the (contiguous) regions a scan of `len` records
    /// starting at `start` may touch. The benchmark's 50-record scans
    /// almost always stay within one region; crossing a boundary adds the
    /// successor region's server.
    pub fn scan_route(&self, start: &MetricKey, _len: usize) -> Vec<usize> {
        let first = self.region(start);
        let mut servers = vec![first % self.servers];
        // A 50-record scan out of millions spans a boundary only when the
        // start falls in the region's last sliver; include the next
        // region's server when the start key is near the boundary.
        if first < self.boundaries.len() {
            let next_server = (first + 1) % self.servers;
            if !servers.contains(&next_server) && self.near_boundary(start, first) {
                servers.push(next_server);
            }
        }
        servers
    }

    fn near_boundary(&self, key: &MetricKey, region: usize) -> bool {
        // "Near" = within the top 1/64 of the region's id range.
        let hi = if region < self.boundaries.len() {
            self.boundaries[region].to_id().unwrap_or(u64::MAX)
        } else {
            u64::MAX
        };
        let lo = if region == 0 {
            0
        } else {
            self.boundaries[region - 1].to_id().unwrap_or(0)
        };
        match key.to_id() {
            Some(id) => {
                let width = hi.saturating_sub(lo).max(1);
                id.saturating_sub(lo) >= width - width / 64
            }
            None => false,
        }
    }
}

/// VoltDB's partitioner: key → site, `sites_per_host` sites per node.
#[derive(Clone, Copy, Debug)]
pub struct SiteMap {
    /// Paper setting: "6 sites per host" (§4.5).
    pub sites_per_host: usize,
    /// Node count.
    pub nodes: usize,
}

impl SiteMap {
    /// Creates the map with the paper's 6 sites per host.
    pub fn new(nodes: usize) -> SiteMap {
        assert!(nodes > 0);
        SiteMap {
            sites_per_host: 6,
            nodes,
        }
    }

    /// Total sites in the cluster.
    pub fn sites(&self) -> usize {
        self.sites_per_host * self.nodes
    }

    /// Site executing single-partition transactions on `key`.
    pub fn site(&self, key: &MetricKey) -> usize {
        (murmur2_64a(key.as_bytes(), 11) % self.sites() as u64) as usize
    }

    /// Host owning `key`'s site.
    pub fn route(&self, key: &MetricKey) -> usize {
        self.site(key) / self.sites_per_host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::key_for_seq;

    #[test]
    fn optimal_tokens_balance_well() {
        let ring = TokenRing::new(12, TokenAssignment::Optimal);
        let report = balance_of(12, 24_000, |k| ring.route(k));
        assert!(
            report.max_over_mean < 1.1,
            "optimal tokens unbalanced: {}",
            report.max_over_mean
        );
    }

    #[test]
    fn random_tokens_balance_worse_than_optimal() {
        // §6: the default random token draw "frequently resulted in a
        // highly unbalanced workload".
        let optimal = TokenRing::new(12, TokenAssignment::Optimal);
        let random = TokenRing::new(12, TokenAssignment::Random { seed: 1 });
        let ob = balance_of(12, 24_000, |k| optimal.route(k));
        let rb = balance_of(12, 24_000, |k| random.route(k));
        assert!(
            rb.max_over_mean > ob.max_over_mean + 0.15,
            "random {} vs optimal {}",
            rb.max_over_mean,
            ob.max_over_mean
        );
    }

    #[test]
    fn token_ring_routes_consistently() {
        let ring = TokenRing::new(4, TokenAssignment::Optimal);
        for seq in 0..100 {
            let k = key_for_seq(seq);
            assert_eq!(ring.route(&k), ring.route(&k));
            assert!(ring.route(&k) < 4);
        }
    }

    #[test]
    fn replicas_are_distinct_successors() {
        let ring = TokenRing::new(6, TokenAssignment::Optimal);
        let k = key_for_seq(7);
        let reps = ring.replicas(&k, 3);
        assert_eq!(reps.len(), 3);
        assert_eq!(reps[0], ring.route(&k));
        let distinct: std::collections::BTreeSet<_> = reps.iter().collect();
        assert_eq!(distinct.len(), 3);
        // rf larger than the cluster clamps.
        assert_eq!(ring.replicas(&k, 10).len(), 6);
    }

    #[test]
    fn replica_walk_yields_what_the_collecting_loop_did() {
        // `replicas` as it was first written: collect ring successors,
        // skipping nodes already taken, until `rf` (or every node) is in.
        fn reference(ring: &TokenRing, key: &MetricKey, rf: usize) -> Vec<usize> {
            let mut out = Vec::new();
            let mut pos = ring
                .tokens
                .iter()
                .position(|&(_, node)| node == ring.route(key))
                .expect("the owner holds a token");
            while out.len() < rf.min(ring.nodes) {
                let node = ring.tokens[pos].1;
                if !out.contains(&node) {
                    out.push(node);
                }
                pos = (pos + 1) % ring.tokens.len();
            }
            out
        }
        for assignment in [
            TokenAssignment::Optimal,
            TokenAssignment::Random { seed: 9 },
        ] {
            for nodes in [1, 2, 5] {
                let mut ring = TokenRing::new(nodes, assignment);
                for grown in 0..3 {
                    for rf in [1, 2, 3, ring.nodes() + 2] {
                        for key in (0..200).map(key_for_seq) {
                            let walked: Vec<usize> = ring.replica_walk(&key, rf).collect();
                            let case = format!("{assignment:?} {nodes}+{grown} rf {rf} {key}");
                            assert_eq!(walked, reference(&ring, &key, rf), "{case}");
                            assert_eq!(ring.replicas(&key, rf), walked, "{case}");
                            assert_eq!(walked[0], ring.route(&key), "{case}");
                        }
                    }
                    ring.extend();
                }
            }
        }
    }

    #[test]
    fn extend_gives_the_new_node_half_of_one_range() {
        let mut ring = TokenRing::new(4, TokenAssignment::Optimal);
        let before = balance_of(4, 40_000, |k| ring.route(k));
        let victim = ring.extend();
        assert!(victim < 4);
        assert_eq!(ring.nodes(), 5);
        let after = balance_of(5, 40_000, |k| ring.route(k));
        // The newcomer and the victim each hold ≈ half the old share.
        let new_share = after.shares[4];
        assert!(
            (new_share - 0.125).abs() < 0.02,
            "new node share {new_share}"
        );
        assert!(
            (after.shares[victim] - 0.125).abs() < 0.02,
            "victim share {}",
            after.shares[victim]
        );
        // Untouched nodes keep their share.
        let untouched: f64 = (0..4)
            .filter(|&i| i != victim)
            .map(|i| after.shares[i])
            .sum();
        assert!((untouched - 0.75).abs() < 0.03);
        let _ = before;
    }

    #[test]
    fn jedis_ring_is_less_balanced_than_rdbms_sharding() {
        // §5.1: "the YCSB client for MySQL did a much better sharding
        // than the Jedis library".
        let jedis = JedisRing::new(12, JedisHash::Murmur);
        let rdbms = RdbmsShards::new(12);
        let jb = balance_of(12, 48_000, |k| jedis.route(k));
        let rb = balance_of(12, 48_000, |k| rdbms.route(k));
        assert!(
            jb.max_over_mean > rb.max_over_mean,
            "jedis {} vs rdbms {}",
            jb.max_over_mean,
            rb.max_over_mean
        );
        assert!(
            jb.max_over_mean > 1.1,
            "jedis should show visible imbalance: {}",
            jb.max_over_mean
        );
        assert!(
            rb.max_over_mean < 1.12,
            "rdbms sharding should be near-uniform: {}",
            rb.max_over_mean
        );
    }

    #[test]
    fn jedis_md5_variant_shows_the_same_imbalance() {
        // Footnote 7: both hashing algorithms gave "the same result".
        let ring = JedisRing::new(12, JedisHash::Md5);
        let report = balance_of(12, 48_000, |k| ring.route_with(JedisHash::Md5, k));
        assert!(
            report.max_over_mean > 1.1,
            "md5 ring too balanced: {}",
            report.max_over_mean
        );
    }

    #[test]
    fn partition_map_has_two_partitions_per_node() {
        let map = PartitionMap::new(6);
        assert_eq!(map.partitions(), 12);
        let report = balance_of(6, 24_000, |k| map.route(k));
        assert!(
            report.max_over_mean < 1.1,
            "hash partitioning should balance: {}",
            report.max_over_mean
        );
    }

    #[test]
    fn region_map_balances_hashed_keys_and_routes_ranges() {
        let map = RegionMap::new(4, 4);
        assert_eq!(map.regions(), 16);
        let report = balance_of(4, 24_000, |k| map.route(k));
        assert!(
            report.max_over_mean < 1.1,
            "uniform keys over equal ranges: {}",
            report.max_over_mean
        );
        // Scan routing: contiguous keys stay on one or two servers.
        for seq in 0..100 {
            let servers = map.scan_route(&key_for_seq(seq), 50);
            assert!(!servers.is_empty() && servers.len() <= 2);
        }
    }

    #[test]
    fn region_map_region_is_monotone_in_key() {
        let map = RegionMap::new(3, 5);
        let mut keys: Vec<MetricKey> = (0..1000).map(key_for_seq).collect();
        keys.sort();
        let regions: Vec<usize> = keys.iter().map(|k| map.region(k)).collect();
        assert!(
            regions.windows(2).all(|w| w[0] <= w[1]),
            "regions must be ordered by key"
        );
    }

    #[test]
    fn site_map_uses_six_sites_per_host() {
        let map = SiteMap::new(4);
        assert_eq!(map.sites(), 24);
        for seq in 0..200 {
            let k = key_for_seq(seq);
            let site = map.site(&k);
            assert_eq!(map.route(&k), site / 6);
        }
        let report = balance_of(4, 24_000, |k| map.route(k));
        assert!(report.max_over_mean < 1.1);
    }
}
