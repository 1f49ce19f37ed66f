//! The shared prefix index: a radix tree over hashed token-id chunks.
//!
//! Each node owns one sealed, `chunk_tokens`-long chunk as a
//! [`ChunkRecord`] (the same form the chunk takes in the spill tier, in
//! peer transfer and in a cache image) and is addressed by a 128-bit key
//! hashed from its parent's key and its chunk's token ids — a
//! path-dependent content hash, so a chunk
//! of ids is shared only when its *entire prefix* matches (the radix-tree
//! property, without storing per-node child maps). Stored ids are
//! compared on every lookup, so a hash collision degrades to a miss,
//! never to wrong planes.
//!
//! Nodes carry a lease refcount (live sessions reading the chunk), a
//! resident-child count (nodes whose parent is this node) and LRU
//! bookkeeping. Eviction candidates are exactly the nodes with zero
//! leases *and* zero resident children: evicting leaf-first keeps every
//! remaining node reachable from the root walk, and never touching a
//! leased node keeps the budget from freeing planes a session still
//! reads.

use std::collections::HashMap;
use std::sync::Arc;

use pade_quant::BitPlaneMatrix;
use pade_tier::ChunkRecord;

/// SplitMix64-style finalizer (same constants as `pade-testutil`).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 128-bit path-dependent key of a chunk: two independently-seeded 64-bit
/// lanes folded over the parent key and the chunk's token ids.
pub(crate) fn chunk_key(parent: Option<u128>, ids: &[u32]) -> u128 {
    let (ph, pl) = match parent {
        Some(p) => ((p >> 64) as u64, p as u64),
        None => (0x7ADE_CA4E_0000_0001, 0x7ADE_CA4E_0000_0002),
    };
    let mut h0 = splitmix64(ph ^ 0xC0FF_EE00_0000_0001);
    let mut h1 = splitmix64(pl ^ 0xC0FF_EE00_0000_0002);
    for &id in ids {
        h0 = splitmix64(h0 ^ u64::from(id));
        h1 = splitmix64(h1 ^ u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    (u128::from(h0) << 64) | u128::from(h1)
}

#[derive(Debug)]
struct Node {
    record: ChunkRecord,
    /// Live sessions holding a lease over this chunk.
    refs: usize,
    /// Resident nodes whose parent is this node.
    children: usize,
    /// Logical tick of the last resolve/insert touching this node.
    last_use: u64,
    /// Unique insertion sequence number — the deterministic LRU tie-break.
    seq: u64,
}

/// What a prefix resolve found: the node keys of the matched path and the
/// matched chunks' planes, in token order.
#[derive(Debug)]
pub(crate) struct Resolved {
    pub(crate) path: Vec<u128>,
    pub(crate) chunks: Vec<Arc<BitPlaneMatrix>>,
}

/// The shared prefix index over sealed plane chunks.
#[derive(Debug, Default)]
pub struct PrefixIndex {
    nodes: HashMap<u128, Node>,
    next_seq: u64,
}

impl PrefixIndex {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resident chunks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the index holds no chunks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Sum of the resident chunks' plane bytes (no deduplication against
    /// session stores — the manager does that).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.nodes.values().map(|n| n.record.plane_bytes()).sum()
    }

    /// Walks the longest cached chunk-aligned prefix of `ids`, bumping
    /// each matched node's LRU clock to `tick`. Stops at the first
    /// missing chunk (or id mismatch under a hash collision).
    pub(crate) fn resolve(&mut self, ids: &[u32], chunk_tokens: usize, tick: u64) -> Resolved {
        let mut out = Resolved { path: Vec::new(), chunks: Vec::new() };
        let mut parent = None;
        for chunk in ids.chunks_exact(chunk_tokens) {
            let key = chunk_key(parent, chunk);
            match self.nodes.get_mut(&key) {
                Some(node) if node.record.parent == parent && *node.record.ids == *chunk => {
                    node.last_use = tick;
                    out.path.push(key);
                    out.chunks.push(Arc::clone(&node.record.planes));
                    parent = Some(key);
                }
                _ => break,
            }
        }
        out
    }

    /// Walks the longest cached chunk-aligned prefix of `ids` **without
    /// mutating any LRU state**, returning the number of matched chunks
    /// and the last matched node key — the parent from which a spill-tier
    /// probe continues the path-dependent key chain past the resident
    /// prefix. This is the read-only probe behind hit-aware admission
    /// ordering: a scheduler may consult it on every enqueue without
    /// perturbing the eviction clock (probing must never change what gets
    /// evicted).
    pub(crate) fn peek_hit_walk(&self, ids: &[u32], chunk_tokens: usize) -> (usize, Option<u128>) {
        let mut parent = None;
        let mut matched = 0usize;
        for chunk in ids.chunks_exact(chunk_tokens.max(1)) {
            let key = chunk_key(parent, chunk);
            match self.nodes.get(&key) {
                Some(node) if node.record.parent == parent && *node.record.ids == *chunk => {
                    matched += 1;
                    parent = Some(key);
                }
                _ => break,
            }
        }
        (matched, parent)
    }

    /// Whether a node with `key` is resident (no id validation — callers
    /// pairing this with a later lookup re-validate there).
    pub(crate) fn contains_key(&self, key: u128) -> bool {
        self.nodes.contains_key(&key)
    }

    /// Borrows one resident node's record without any LRU touch — the
    /// read-only building block of shard-record export.
    pub(crate) fn peek_node(&self, key: u128) -> Option<&ChunkRecord> {
        self.nodes.get(&key).map(|n| &n.record)
    }

    /// Inserts a sealed chunk record under its key, returning the
    /// resident planes (the existing node's planes when the same chunk is
    /// already indexed, so callers dedup on the index's allocation) and
    /// whether a node was actually created (the caller's residency
    /// accounting pairs one track per creation). Returns `None` on a hash
    /// collision with a different parent or id sequence — the chunk then
    /// stays private to the inserting session. The caller guarantees
    /// `record.key == chunk_key(record.parent, &record.ids)`.
    pub(crate) fn insert(
        &mut self,
        record: ChunkRecord,
        tick: u64,
    ) -> Option<(Arc<BitPlaneMatrix>, bool)> {
        debug_assert_eq!(record.key, chunk_key(record.parent, &record.ids));
        if let Some(node) = self.nodes.get_mut(&record.key) {
            if node.record.parent == record.parent && node.record.ids == record.ids {
                node.last_use = tick;
                return Some((Arc::clone(&node.record.planes), false));
            }
            return None;
        }
        let (key, parent) = (record.key, record.parent);
        let shared = Arc::clone(&record.planes);
        self.nodes
            .insert(key, Node { record, refs: 0, children: 0, last_use: tick, seq: self.next_seq });
        self.next_seq += 1;
        if let Some(p) = parent {
            if let Some(parent_node) = self.nodes.get_mut(&p) {
                parent_node.children += 1;
            }
        }
        Some((shared, true))
    }

    /// Takes one lease on every node of `path`.
    pub(crate) fn acquire(&mut self, path: &[u128]) {
        for key in path {
            if let Some(node) = self.nodes.get_mut(key) {
                node.refs += 1;
            }
        }
    }

    /// Releases one lease on every node of `path` (nodes evicted while
    /// unleased in between are skipped).
    pub(crate) fn release(&mut self, path: &[u128]) {
        for key in path {
            if let Some(node) = self.nodes.get_mut(key) {
                node.refs = node.refs.saturating_sub(1);
            }
        }
    }

    /// The least-recently-used eviction candidate: zero leases, zero
    /// resident children. Ties on `last_use` (a whole path is bumped in
    /// one tick) break on the unique insertion sequence, so the choice is
    /// deterministic despite the hash-map storage.
    pub(crate) fn lru_evictable(&self) -> Option<u128> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.refs == 0 && n.children == 0)
            .min_by_key(|(_, n)| (n.last_use, n.seq))
            .map(|(&k, _)| k)
    }

    /// Removes a node, returning its record — the planes for the
    /// caller's residency accounting, the whole record so a spill tier can
    /// keep the chunk instead of dropping it. The parent's resident-child
    /// count is decremented so it becomes evictable once its own leases
    /// drain.
    pub(crate) fn remove(&mut self, key: u128) -> Option<ChunkRecord> {
        let node = self.nodes.remove(&key)?;
        debug_assert_eq!(node.refs, 0, "evicting a leased chunk");
        debug_assert_eq!(node.children, 0, "evicting a chunk with resident children");
        if let Some(p) = node.record.parent {
            if let Some(parent_node) = self.nodes.get_mut(&p) {
                parent_node.children = parent_node.children.saturating_sub(1);
            }
        }
        Some(node.record)
    }

    /// Iterates the resident chunks' `Arc` allocations (for the slow
    /// test-only residency recomputation).
    #[cfg(test)]
    pub(crate) fn chunk_arcs(&self) -> impl Iterator<Item = &Arc<BitPlaneMatrix>> {
        self.nodes.values().map(|n| &n.record.planes)
    }

    /// Every resident node's record in a deterministic
    /// parent-before-child order (depth first, then key), so a serializer
    /// can write them out and a loader can re-insert them in file order
    /// with each parent already resident. Hash-map iteration order never
    /// leaks: the sort key is `(depth, key)`, both pure functions of the
    /// content.
    pub(crate) fn export_nodes(&self) -> Vec<&ChunkRecord> {
        let depth_of = |record: &ChunkRecord| {
            let mut depth = 0usize;
            let mut parent = record.parent;
            while let Some(p) = parent {
                depth += 1;
                parent = self.nodes.get(&p).and_then(|n| n.record.parent);
            }
            depth
        };
        let mut out: Vec<&ChunkRecord> = self.nodes.values().map(|n| &n.record).collect();
        out.sort_by_cached_key(|r| (depth_of(r), r.key));
        out
    }
}

/// The deterministic 64-bit shard key of a prompt's leading chunks — the
/// routing hash a cache-aware request router uses to co-locate requests
/// that would share index chunks.
///
/// The key folds the same path-dependent `chunk_key` hash the
/// [`PrefixIndex`] addresses its nodes with over the first
/// `min(affinity_chunks, ⌊ids.len() / chunk_tokens⌋)` chunks, so two
/// prompts map to the same shard key exactly when their leading indexed
/// chunks would coincide. Returns `None` when the prompt is shorter than
/// one full chunk (nothing indexable to share).
#[must_use]
pub fn prefix_shard_key(ids: &[u32], chunk_tokens: usize, affinity_chunks: usize) -> Option<u64> {
    let chunk_tokens = chunk_tokens.max(1);
    if ids.len() < chunk_tokens || affinity_chunks == 0 {
        return None;
    }
    let mut parent = None;
    for chunk in ids.chunks_exact(chunk_tokens).take(affinity_chunks) {
        parent = Some(chunk_key(parent, chunk));
    }
    parent.map(|key| (key >> 64) as u64 ^ key as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk_planes(ids: &[u32], dims: usize) -> Arc<BitPlaneMatrix> {
        let rows: Vec<i8> = ids
            .iter()
            .flat_map(|&id| {
                (0..dims).map(move |d| (splitmix64(u64::from(id) ^ d as u64) >> 40) as u8 as i8)
            })
            .collect();
        Arc::new(BitPlaneMatrix::from_rows(&rows, dims, 8).unwrap())
    }

    fn record(parent: Option<u128>, ids: &[u32], planes: Arc<BitPlaneMatrix>) -> ChunkRecord {
        ChunkRecord { key: chunk_key(parent, ids), parent, ids: ids.into(), planes }
    }

    /// Inserts a freshly decomposed chunk and returns its key.
    fn put(index: &mut PrefixIndex, parent: Option<u128>, ids: &[u32], tick: u64) -> u128 {
        let rec = record(parent, ids, chunk_planes(ids, 4));
        let key = rec.key;
        index.insert(rec, tick).unwrap();
        key
    }

    #[test]
    fn resolve_walks_the_longest_chunk_aligned_prefix() {
        let mut index = PrefixIndex::new();
        let ids: Vec<u32> = (0..8).collect();
        let a = put(&mut index, None, &ids[0..4], 1);
        let _b = put(&mut index, Some(a), &ids[4..8], 1);
        assert_eq!(index.len(), 2);

        // Full match, partial match, diverging match, short prompt.
        assert_eq!(index.resolve(&ids, 4, 2).chunks.len(), 2);
        let mut longer = ids.clone();
        longer.extend([9, 9, 9, 9]);
        assert_eq!(index.resolve(&longer, 4, 2).chunks.len(), 2);
        let mut diverges = ids.clone();
        diverges[5] = 99;
        assert_eq!(index.resolve(&diverges, 4, 2).chunks.len(), 1);
        assert_eq!(index.resolve(&ids[..3], 4, 2).chunks.len(), 0);
    }

    #[test]
    fn reinsert_returns_the_resident_allocation() {
        let mut index = PrefixIndex::new();
        let ids: Vec<u32> = (0..4).collect();
        let first = chunk_planes(&ids, 4);
        let (shared, created) = index.insert(record(None, &ids, Arc::clone(&first)), 1).unwrap();
        assert!(Arc::ptr_eq(&shared, &first));
        assert!(created);
        let other = chunk_planes(&ids, 4);
        let (shared2, created2) = index.insert(record(None, &ids, other), 2).unwrap();
        assert!(Arc::ptr_eq(&shared2, &first), "dedup must keep the resident allocation");
        assert!(!created2, "a dedup hit creates no node");
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn leased_and_parent_nodes_are_not_evictable() {
        let mut index = PrefixIndex::new();
        let ids: Vec<u32> = (0..8).collect();
        let a = put(&mut index, None, &ids[0..4], 1);
        let b = put(&mut index, Some(a), &ids[4..8], 1);
        // The parent has a resident child: only the leaf is evictable.
        assert_eq!(index.lru_evictable(), Some(b));
        index.acquire(&[a, b]);
        assert_eq!(index.lru_evictable(), None, "leased nodes must not be candidates");
        index.release(&[a, b]);
        assert_eq!(index.lru_evictable(), Some(b));
        index.remove(b);
        assert_eq!(index.lru_evictable(), Some(a), "parent becomes evictable after its child");
        index.remove(a);
        assert!(index.is_empty());
    }

    #[test]
    fn peek_matches_resolve_without_touching_lru() {
        let mut index = PrefixIndex::new();
        let ids: Vec<u32> = (0..8).collect();
        let a = put(&mut index, None, &ids[0..4], 1);
        put(&mut index, Some(a), &ids[4..8], 1);
        assert_eq!(index.peek_hit_walk(&ids, 4).0, 2);
        assert_eq!(index.peek_hit_walk(&ids[..6], 4).0, 1);
        assert_eq!(index.peek_hit_walk(&[9, 9, 9, 9], 4).0, 0);
        // A second index with a later LRU touch diverges from this one's
        // eviction choice; peeking must not create such a divergence.
        let before = index.lru_evictable();
        let _ = index.peek_hit_walk(&ids, 4);
        assert_eq!(index.lru_evictable(), before);
    }

    #[test]
    fn export_orders_parents_before_children() {
        let mut index = PrefixIndex::new();
        let ids: Vec<u32> = (0..12).collect();
        let a = put(&mut index, None, &ids[0..4], 1);
        let b = put(&mut index, Some(a), &ids[4..8], 1);
        put(&mut index, Some(b), &ids[8..12], 1);
        put(&mut index, None, &[7, 7, 7, 7], 2);
        let exported = index.export_nodes();
        assert_eq!(exported.len(), 4);
        let mut seen = std::collections::HashSet::new();
        for chunk in &exported {
            if let Some(p) = chunk.parent {
                assert!(seen.contains(&p), "parent must precede child in export order");
            }
            seen.insert(chunk.key);
        }
        assert_eq!(exported.iter().filter(|c| c.parent.is_none()).count(), 2);
    }

    #[test]
    fn shard_key_tracks_leading_chunk_identity() {
        let ids: Vec<u32> = (0..16).collect();
        let same = prefix_shard_key(&ids, 4, 2);
        assert!(same.is_some());
        // Same leading chunks, different suffix: same shard key.
        let mut longer = ids.clone();
        longer.extend([99, 98, 97]);
        assert_eq!(prefix_shard_key(&longer, 4, 2), same);
        // Diverging inside the hashed window: different key.
        let mut diverges = ids.clone();
        diverges[5] = 1000;
        assert_ne!(prefix_shard_key(&diverges, 4, 2), same);
        // Diverging past the hashed window: same key.
        let mut late = ids.clone();
        late[15] = 1000;
        assert_eq!(prefix_shard_key(&late, 4, 2), same);
        // Shorter than one chunk: nothing indexable.
        assert_eq!(prefix_shard_key(&ids[..3], 4, 2), None);
        assert_eq!(prefix_shard_key(&ids, 4, 0), None);
    }

    #[test]
    fn lru_prefers_the_oldest_touch() {
        let mut index = PrefixIndex::new();
        let a = put(&mut index, None, &[1, 2], 1);
        let b = put(&mut index, None, &[3, 4], 2);
        assert_eq!(index.lru_evictable(), Some(a));
        // Touching A through a resolve makes B the LRU candidate.
        index.resolve(&[1, 2], 2, 3);
        assert_eq!(index.lru_evictable(), Some(b));
    }
}
