//! A page-based B+tree.
//!
//! The engine behind the MySQL-like store (InnoDB's clustered index) and
//! the Voldemort-like store (BerkeleyDB's per-node B-tree). Nodes are
//! pages in an arena; every operation returns the list of pages it
//! visited (and dirtied), which the caller replays through a
//! [`crate::bufferpool::BufferPool`] to decide which accesses become disk
//! I/O. Leaves are chained for range scans. A leaf's rows are a
//! [`SortedRows`]: generated rows as their ids beside every other row,
//! split at the same merged-order index a leaf of whole records would be,
//! so the page graph — and every trace — is the one whole records give.

use crate::bufferpool::PageId;
use crate::table::{RowRef, SortedRows, Window};
use apm_core::record::{FieldValues, MetricKey, Row};
use apm_core::snap::{Snap, SnapError, SnapReader, SnapState, SnapWriter};

/// Tree shape parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BTreeConfig {
    /// Max records per leaf page (16 KB InnoDB page / ~100 B record ≈ 150).
    pub leaf_capacity: usize,
    /// Max children per internal page.
    pub internal_capacity: usize,
    /// Page size in bytes, for I/O accounting.
    pub page_bytes: u64,
}

impl Default for BTreeConfig {
    fn default() -> Self {
        BTreeConfig {
            leaf_capacity: 150,
            internal_capacity: 400,
            page_bytes: 16 << 10,
        }
    }
}

/// Pages touched by an operation, in visit order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PageTrace {
    /// Pages read on the way down.
    pub read: Vec<PageId>,
    /// Existing pages modified (must be resident: read-if-absent, then
    /// dirtied).
    pub written: Vec<PageId>,
    /// Pages freshly created by splits: dirtied but never read from disk.
    pub allocated: Vec<PageId>,
}

impl PageTrace {
    /// Empties the three lists, keeping their capacity.
    pub fn clear(&mut self) {
        self.read.clear();
        self.written.clear();
        self.allocated.clear();
    }
}

#[derive(Clone, Debug)]
enum Node {
    Internal {
        keys: Vec<MetricKey>,
        children: Vec<usize>,
    },
    Leaf {
        rows: SortedRows,
        next: Option<usize>,
    },
}

/// The B+tree.
#[derive(Clone, Debug)]
pub struct BTree {
    config: BTreeConfig,
    nodes: Vec<Node>,
    root: usize,
    len: u64,
    depth: u32,
}

impl BTree {
    /// Creates an empty tree.
    pub fn new(config: BTreeConfig) -> BTree {
        assert!(
            config.leaf_capacity >= 2 && config.internal_capacity >= 3,
            "degenerate page capacities"
        );
        BTree {
            config,
            nodes: vec![Node::Leaf {
                rows: SortedRows::default(),
                next: None,
            }],
            root: 0,
            len: 0,
            depth: 1,
        }
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = a single leaf).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of pages (nodes) allocated.
    pub fn page_count(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// Total on-disk footprint in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.page_count() * self.config.page_bytes
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.config.page_bytes
    }

    fn leaf_for(&self, key: &MetricKey, trace: &mut PageTrace) -> usize {
        let mut idx = self.root;
        loop {
            trace.read.push(PageId(idx as u64));
            match &self.nodes[idx] {
                Node::Internal { keys, children } => {
                    let slot = keys.partition_point(|k| k <= key);
                    idx = children[slot];
                }
                Node::Leaf { .. } => return idx,
            }
        }
    }

    /// Point lookup. Returns the row and the page trace.
    pub fn get(&self, key: &MetricKey) -> (Option<Row>, PageTrace) {
        let mut trace = PageTrace::default();
        let leaf = self.leaf_for(key, &mut trace);
        let Node::Leaf { rows, .. } = &self.nodes[leaf] else {
            unreachable!()
        };
        (rows.get(key), trace)
    }

    /// Inserts or replaces the row of `key` and `value`. Returns whether
    /// the key was new plus the trace (split pages appear in `written`).
    pub fn insert(&mut self, key: MetricKey, value: FieldValues) -> (bool, PageTrace) {
        let mut trace = PageTrace::default();
        let new = self.insert_into(Row::new(key, value), &mut trace);
        (new, trace)
    }

    /// Inserts or replaces `row`, the trace written over `trace`,
    /// whatever it held: a caller that keeps one across inserts allocates
    /// nothing once its lists have grown to the tree's depth.
    pub fn insert_into(&mut self, row: Row, trace: &mut PageTrace) -> bool {
        trace.clear();
        let leaf = self.leaf_for(&row.key(), trace);
        trace.written.push(PageId(leaf as u64));
        let Node::Leaf { rows, .. } = &mut self.nodes[leaf] else {
            unreachable!()
        };
        let new = rows.insert(row);
        let overfull = rows.len() > self.config.leaf_capacity;
        self.len += u64::from(new);
        if overfull {
            self.split(leaf, trace);
        }
        new
    }

    /// Splits an over-full node, recursing up through its ancestors. The
    /// parent chain is re-derived by key because nodes carry no parent
    /// pointers (pages don't in InnoDB either; it uses a latched descent).
    fn split(&mut self, node_idx: usize, trace: &mut PageTrace) {
        let (sep, right_idx) = match &mut self.nodes[node_idx] {
            Node::Leaf { rows, next } => {
                let right_rows = rows.split_off(rows.len() / 2);
                let Some(first) = right_rows.rows().next() else {
                    unreachable!("an over-full leaf's upper half has rows")
                };
                let sep = first.key();
                let right = Node::Leaf {
                    rows: right_rows,
                    next: *next,
                };
                let right_idx = self.nodes.len();
                self.nodes.push(right);
                if let Node::Leaf { next, .. } = &mut self.nodes[node_idx] {
                    *next = Some(right_idx);
                }
                (sep, right_idx)
            }
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let sep = keys[mid];
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // the separator moves up
                let right_children = children.split_off(mid + 1);
                let right = Node::Internal {
                    keys: right_keys,
                    children: right_children,
                };
                let right_idx = self.nodes.len();
                self.nodes.push(right);
                (sep, right_idx)
            }
        };
        trace.allocated.push(PageId(right_idx as u64));
        if node_idx == self.root {
            let new_root = Node::Internal {
                keys: vec![sep],
                children: vec![node_idx, right_idx],
            };
            self.nodes.push(new_root);
            self.root = self.nodes.len() - 1;
            self.depth += 1;
            trace.allocated.push(PageId(self.root as u64));
            return;
        }
        // Find the parent of node_idx by descending towards `sep`.
        let parent_idx = self
            .find_parent(self.root, node_idx, &sep)
            .expect("non-root node has a parent");
        trace.written.push(PageId(parent_idx as u64));
        let overfull = {
            let Node::Internal { keys, children } = &mut self.nodes[parent_idx] else {
                unreachable!()
            };
            let slot = keys.partition_point(|k| *k <= sep);
            keys.insert(slot, sep);
            children.insert(slot + 1, right_idx);
            children.len() > self.config.internal_capacity
        };
        if overfull {
            self.split(parent_idx, trace);
        }
    }

    fn find_parent(&self, from: usize, target: usize, hint: &MetricKey) -> Option<usize> {
        match &self.nodes[from] {
            Node::Leaf { .. } => None,
            Node::Internal { keys, children } => {
                if children.contains(&target) {
                    return Some(from);
                }
                let slot = keys.partition_point(|k| k <= hint);
                self.find_parent(children[slot], target, hint)
            }
        }
    }

    /// The one range walk: follows leaf links from `start`, handing
    /// `visit` each leaf's share of the first `len` records. Returns how
    /// many records that was and the pages read.
    fn walk(
        &self,
        start: &MetricKey,
        len: usize,
        mut visit: impl FnMut(Window<'_>),
    ) -> (usize, PageTrace) {
        let mut trace = PageTrace::default();
        let mut leaf = self.leaf_for(start, &mut trace);
        let mut seen = 0;
        loop {
            let Node::Leaf { rows, next } = &self.nodes[leaf] else {
                unreachable!()
            };
            let window = rows.window(start, len - seen);
            seen += window.len();
            visit(window);
            match next {
                Some(n) if seen < len => {
                    leaf = *n;
                    trace.read.push(PageId(leaf as u64));
                }
                _ => return (seen, trace),
            }
        }
    }

    /// Range scan of up to `len` records from `start`, following leaf links.
    pub fn scan(&self, start: &MetricKey, len: usize) -> (Vec<Row>, PageTrace) {
        let mut out = Vec::with_capacity(len.min(self.len as usize));
        let (_, trace) = self.walk(start, len, |window| {
            out.extend(window.rows().map(RowRef::to_row));
        });
        (out, trace)
    }

    /// [`BTree::scan`] for callers that only need the row count: the same
    /// leaf walk and page trace, with no row copied.
    pub fn scan_count(&self, start: &MetricKey, len: usize) -> (usize, PageTrace) {
        self.walk(start, len, |_| {})
    }
}

/// By hand: restore refuses a page arena that is not a tree, or whose
/// keys a descent would not find (`check_shape`).
impl SnapState for BTree {
    /// Serializes the page arena and tree shape (the config is re-supplied
    /// at construction).
    fn snap_state(&self, w: &mut SnapWriter) {
        let BTree {
            config: _,
            nodes,
            root,
            len,
            depth,
        } = self;
        w.put(nodes);
        w.put(root);
        w.put_u64(*len);
        w.put_u32(*depth);
    }

    /// Restores the state written by [`BTree::snap_state`] into a tree
    /// built with the same config. The arena is input: a stream whose
    /// checksum passes can still hold a page graph that is no tree, so
    /// everything the walks index by is checked first.
    fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let BTree {
            config: _,
            nodes,
            root,
            len,
            depth,
        } = self;
        let restored = (r.get::<Vec<Node>>()?, r.get::<usize>()?, r.u64()?, r.u32()?);
        check_shape(&restored.0, restored.1, restored.2, restored.3)?;
        (*nodes, *root, *len, *depth) = restored;
        Ok(())
    }
}

/// Refuses a page arena the tree's walks would index out of, loop in,
/// miscount or split wrongly: from `root`, every edge stays inside the
/// arena and reaches every page exactly once, an internal page has one
/// more child than keys, every leaf sits at `depth` and links to the next
/// leaf in key order (the last to none), and the leaves hold `len`
/// records. And every key sits where a descent looks for it: an internal
/// page's keys ascend strictly, and every key below a page — its own
/// separators and its leaves' rows — lies in `[lo, hi)`, the range its
/// ancestors' separators give it (a descent takes the child after every
/// separator at or below the key). A row outside it would be found by
/// no descent, and the next split through its page would look for a
/// parent no descent reaches.
fn check_shape(nodes: &[Node], root: usize, len: u64, depth: u32) -> Result<(), SnapError> {
    let bad_page = |page: usize| SnapError::BadTag {
        what: "BTree page",
        tag: page as u64,
    };
    let out_of_range = |page: usize| SnapError::BadTag {
        what: "BTree key outside its separators' range",
        tag: page as u64,
    };
    let within = |key: &MetricKey, lo: Option<&MetricKey>, hi: Option<&MetricKey>| {
        lo.is_none_or(|lo| lo <= key) && hi.is_none_or(|hi| key < hi)
    };
    let mut reached = vec![false; nodes.len()];
    // Pages to visit with their level (the root's is 1) and key range,
    // leftmost on top.
    let mut stack: Vec<(usize, usize, Option<&MetricKey>, Option<&MetricKey>)> =
        vec![(root, 1, None, None)];
    // The previous leaf's `next`, once a leaf has been met.
    let (mut link, mut records) = (None, 0u64);
    while let Some((page, level, lo, hi)) = stack.pop() {
        let node = nodes.get(page).ok_or(bad_page(page))?;
        if std::mem::replace(&mut reached[page], true) {
            return Err(bad_page(page));
        }
        match node {
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err(bad_page(page));
                }
                let ascending = keys.windows(2).all(|pair| pair[0] < pair[1]);
                if !ascending || !keys.iter().all(|key| within(key, lo, hi)) {
                    return Err(out_of_range(page));
                }
                // Child `i` holds keys from separator `i - 1` up to `i`.
                let bounds = (0..children.len()).map(|i| {
                    let below = if i == 0 { lo } else { keys.get(i - 1) };
                    (below, keys.get(i).or(hi))
                });
                let visits = children.iter().zip(bounds).rev();
                stack.extend(visits.map(|(&child, (lo, hi))| (child, level + 1, lo, hi)));
            }
            Node::Leaf { rows, next } => {
                if level != depth as usize || link.is_some_and(|next| next != Some(page)) {
                    return Err(bad_page(page));
                }
                if let Some((first, last)) = rows.key_range() {
                    if !within(&first, lo, hi) || !within(&last, lo, hi) {
                        return Err(out_of_range(page));
                    }
                }
                link = Some(*next);
                records += rows.len() as u64;
            }
        }
    }
    if link != Some(None) || records != len || reached.contains(&false) {
        return Err(SnapError::BadTag {
            what: "BTree shape",
            tag: records,
        });
    }
    Ok(())
}

// Hand-written: a leaf's rows are written merged, as the `Vec` of its
// records would be, and read back refusing a row that is not after the
// one before it.
impl Snap for Node {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            Node::Internal { keys, children } => {
                w.put_u8(0);
                w.put(keys);
                w.put(children);
            }
            Node::Leaf { rows, next } => {
                w.put_u8(1);
                rows.snap(w);
                w.put(next);
            }
        }
    }
    fn restore(r: &mut SnapReader) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Node::Internal {
                keys: r.get()?,
                children: r.get()?,
            }),
            1 => Ok(Node::Leaf {
                rows: SortedRows::restore(r, "BTree leaf row not after the one before it")?,
                next: r.get()?,
            }),
            tag => Err(SnapError::BadTag {
                what: "Node",
                tag: u64::from(tag),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apm_core::keyspace::record_for_seq;

    fn tiny() -> BTreeConfig {
        BTreeConfig {
            leaf_capacity: 8,
            internal_capacity: 8,
            page_bytes: 1 << 10,
        }
    }

    fn load(tree: &mut BTree, seqs: std::ops::Range<u64>) {
        for seq in seqs {
            let r = record_for_seq(seq);
            tree.insert(r.key, r.fields);
        }
    }

    #[test]
    fn insert_get_roundtrip_across_splits() {
        let mut tree = BTree::new(tiny());
        load(&mut tree, 0..2_000);
        assert_eq!(tree.len(), 2_000);
        assert!(tree.depth() >= 3, "tiny pages must force a deep tree");
        for seq in (0..2_000).step_by(97) {
            let r = record_for_seq(seq);
            assert_eq!(tree.get(&r.key).0, Some(r.into()), "seq {seq} lost");
        }
        assert_eq!(tree.get(&record_for_seq(9_999).key).0, None);
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut tree = BTree::new(tiny());
        let key = record_for_seq(1).key;
        let v1 = record_for_seq(10).fields;
        let v2 = record_for_seq(20).fields;
        let (new1, _) = tree.insert(key, v1);
        let (new2, _) = tree.insert(key, v2);
        assert!(new1 && !new2);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.get(&key).0, Some(Row::new(key, v2)));
    }

    #[test]
    fn trace_depth_matches_tree_depth() {
        let mut tree = BTree::new(tiny());
        load(&mut tree, 0..2_000);
        let (_, trace) = tree.get(&record_for_seq(100).key);
        assert_eq!(trace.read.len(), tree.depth() as usize);
    }

    #[test]
    fn insert_trace_includes_dirtied_leaf() {
        let mut tree = BTree::new(tiny());
        let r = record_for_seq(0);
        let (_, trace) = tree.insert(r.key, r.fields);
        assert_eq!(trace.written.len(), 1);
        assert_eq!(trace.read.len(), 1);
    }

    #[test]
    fn a_reused_trace_is_the_trace_a_fresh_one_would_be() {
        // Two trees in lockstep, through leaf splits, internal splits and
        // root growth; a long trace (a split chain) is followed by short
        // ones, so anything `insert_into` left behind would show.
        let (mut fresh, mut reusing) = (BTree::new(tiny()), BTree::new(tiny()));
        let mut trace = PageTrace::default();
        let (mut grew_root, mut longest) = (0, 0);
        for seq in 0..2_000 {
            let r = record_for_seq(seq);
            let depth = fresh.depth();
            let (new, want) = fresh.insert(r.key, r.fields);
            assert_eq!(reusing.insert_into(r.into(), &mut trace), new);
            assert_eq!(trace, want, "seq {seq}");
            grew_root += u32::from(fresh.depth() > depth);
            longest = longest.max(want.written.len() + want.allocated.len());
        }
        assert!(grew_root >= 2 && longest >= 5, "{grew_root} {longest}");
        // An overwrite after all that: one leaf written, nothing allocated.
        let r = record_for_seq(7);
        assert!(!reusing.insert_into(r.into(), &mut trace));
        assert_eq!((trace.written.len(), trace.allocated.len()), (1, 0));
        assert_eq!(trace.read.len(), reusing.depth() as usize);
    }

    #[test]
    fn scan_is_sorted_and_complete() {
        let mut tree = BTree::new(tiny());
        load(&mut tree, 0..1_000);
        let mut keys: Vec<MetricKey> = (0..1_000).map(|s| record_for_seq(s).key).collect();
        keys.sort();
        let (result, trace) = tree.scan(&keys[200], 50);
        let got: Vec<MetricKey> = result.iter().map(Row::key).collect();
        assert_eq!(got, keys[200..250].to_vec());
        // A 50-record scan over 8-entry leaves crosses several leaves.
        assert!(
            trace.read.len() > 5,
            "leaf chain not followed: {}",
            trace.read.len()
        );
    }

    #[test]
    fn scan_from_before_first_and_past_last() {
        let mut tree = BTree::new(tiny());
        load(&mut tree, 0..100);
        let (all, _) = tree.scan(&MetricKey::MIN, 1_000);
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].key() < w[1].key()));
        let (none, _) = tree.scan(&MetricKey::MAX, 10);
        assert!(none.len() <= 1);
    }

    #[test]
    fn page_count_and_disk_bytes_grow() {
        let mut tree = BTree::new(tiny());
        let before = tree.page_count();
        load(&mut tree, 0..1_000);
        assert!(tree.page_count() > before);
        assert_eq!(tree.disk_bytes(), tree.page_count() * 1_024);
    }

    #[test]
    fn default_config_packs_many_records_per_leaf() {
        let mut tree = BTree::new(BTreeConfig::default());
        load(&mut tree, 0..10_000);
        // 10_000 records / 150 per leaf ≈ 67 leaves (+ internals).
        assert!(tree.page_count() < 200, "pages: {}", tree.page_count());
        assert!(tree.depth() <= 3);
    }

    /// The root page of the 200-record, three-level tree of [`restored`].
    const ROOT: usize = 11;

    /// What `PagedTree::restore_state` makes of that tree once `corrupt`
    /// has been at it.
    fn restored(corrupt: impl FnOnce(&mut BTree)) -> Result<(), SnapError> {
        use crate::paged::{PagedTree, WriteBack};
        let mut tree = BTree::new(tiny());
        load(&mut tree, 0..200);
        assert_eq!((tree.depth(), tree.root), (3, ROOT));
        corrupt(&mut tree);
        let mut w = SnapWriter::new();
        tree.snap_state(&mut w);
        crate::bufferpool::BufferPool::new(4).snap_state(&mut w);
        PagedTree::new(tiny(), 4, WriteBack::InPlace).restore_state(&mut SnapReader::new(w.bytes()))
    }

    fn children(tree: &mut BTree, page: usize) -> &mut Vec<usize> {
        match &mut tree.nodes[page] {
            Node::Internal { children, .. } => children,
            Node::Leaf { .. } => panic!("page {page} is a leaf"),
        }
    }

    fn bad(what: &'static str, tag: usize) -> Result<(), SnapError> {
        Err(SnapError::BadTag {
            what,
            tag: tag as u64,
        })
    }

    #[test]
    fn restore_accepts_its_own_tree_and_refuses_a_miscounted_one() {
        assert_eq!(restored(|_| {}), Ok(()));
        assert_eq!(restored(|tree| tree.len = 201), bad("BTree shape", 200));
        // Every leaf is at level 3; the first one met is page 0.
        assert_eq!(restored(|tree| tree.depth = 2), bad("BTree page", 0));
        // A page no edge reaches.
        let orphan = restored(|tree| tree.nodes.push(tree.nodes[0].clone()));
        assert_eq!(orphan, bad("BTree shape", 200));
    }

    #[test]
    fn restore_refuses_a_child_past_the_arena() {
        // 200 records in pages of 8 come nowhere near page 1 000.
        let past = bad("BTree page", 1_000);
        assert_eq!(restored(|tree| tree.root = 1_000), past);
        assert_eq!(restored(|tree| children(tree, ROOT)[0] = 1_000), past);
    }

    #[test]
    fn restore_refuses_a_leaf_link_that_is_not_the_next_leaf() {
        let link = |from: &'static MetricKey, to| {
            restored(move |tree| {
                let leaf = tree.leaf_for(from, &mut PageTrace::default());
                let Node::Leaf { next, .. } = &mut tree.nodes[leaf] else {
                    unreachable!()
                };
                *next = to;
            })
        };
        // Past the arena, refused at the leaf that should have been
        // linked to; and the last leaf, which links to nothing, back to
        // the first — a scan of empty tail leaves would never end.
        let past = link(&MetricKey::MIN, Some(1_000));
        assert!(format!("{past:?}").contains("BTree page"), "{past:?}");
        assert_eq!(link(&MetricKey::MAX, Some(0)), bad("BTree shape", 200));
    }

    #[test]
    fn restore_refuses_an_internal_page_with_a_child_missing() {
        let short = restored(|tree| children(tree, ROOT).truncate(1));
        assert_eq!(short, bad("BTree page", ROOT));
    }

    #[test]
    fn restore_refuses_an_edge_back_up() {
        // A grandchild slot naming the root: `leaf_for` would never return.
        let looped = restored(|tree| {
            let child = children(tree, ROOT)[0];
            children(tree, child)[0] = ROOT;
        });
        assert_eq!(looped, bad("BTree page", ROOT));
    }

    /// The page `key`'s descent ends at.
    fn leaf_of(tree: &BTree, key: &MetricKey) -> usize {
        tree.leaf_for(key, &mut PageTrace::default())
    }

    fn leaf_rows(tree: &mut BTree, page: usize) -> &mut SortedRows {
        match &mut tree.nodes[page] {
            Node::Leaf { rows, .. } => rows,
            Node::Internal { .. } => panic!("page {page} is an internal page"),
        }
    }

    #[test]
    fn restore_refuses_rows_outside_their_separators() {
        // The rightmost leaf refilled with as many of the smallest ids:
        // the shape and the count hold, but no descent finds those rows,
        // and the next split through that leaf looks for a parent by a
        // separator no descent reaches.
        let rightmost = |tree: &mut BTree| {
            let page = leaf_of(tree, &MetricKey::MAX);
            let rows = leaf_rows(tree, page);
            *rows = (0..rows.len() as u64).map(Row::Generated).collect();
            page
        };
        let mut page = 0;
        let refused = restored(|tree| page = rightmost(tree));
        assert_eq!(
            refused,
            bad("BTree key outside its separators' range", page)
        );
        // One row below its leaf's lower bound: the leftmost leaf's first
        // row written over its right neighbour's first.
        let spilled = restored(|tree| {
            let first = leaf_of(tree, &MetricKey::MIN);
            let Node::Leaf {
                next: Some(second), ..
            } = tree.nodes[first]
            else {
                panic!("a second leaf");
            };
            let below = leaf_rows(tree, first).rows().next().map(RowRef::to_row);
            let mut rows: Vec<Row> = leaf_rows(tree, second).rows().map(RowRef::to_row).collect();
            rows[0] = below.expect("a row");
            rows.sort_by_key(Row::key);
            *leaf_rows(tree, second) = rows.into_iter().collect();
            page = second;
        });
        assert_eq!(
            spilled,
            bad("BTree key outside its separators' range", page)
        );
        // Separators out of order.
        let swapped = restored(|tree| {
            let Node::Internal { keys, .. } = &mut tree.nodes[ROOT] else {
                panic!("the root is internal");
            };
            keys.swap(0, 1);
        });
        assert_eq!(
            swapped,
            bad("BTree key outside its separators' range", ROOT)
        );
        // A leaf whose rows descend is refused as it is decoded.
        let descending = restored(|tree| {
            let page = leaf_of(tree, &MetricKey::MIN);
            let rows = leaf_rows(tree, page);
            let mut ids: Vec<Row> = rows.rows().map(RowRef::to_row).collect();
            ids.swap(0, 1);
            *rows = ids.into_iter().collect();
        });
        assert_eq!(
            descending,
            bad("BTree leaf row not after the one before it", 1)
        );
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_config_panics() {
        BTree::new(BTreeConfig {
            leaf_capacity: 1,
            internal_capacity: 2,
            page_bytes: 1,
        });
    }
}
