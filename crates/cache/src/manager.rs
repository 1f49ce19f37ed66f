//! The cache manager: attach/detach orchestration over the prefix index,
//! the session store and the byte budget.

use std::collections::HashMap;
#[cfg(test)]
use std::collections::HashSet;
use std::sync::Arc;

use pade_quant::{BitPlaneMatrix, GrowableKeyCache, QuantError};
use pade_tier::{ChunkRecord, TierStore};
use pade_trace::{Cycle, Tracer};

use crate::budget::CacheBudget;
use crate::index::{chunk_key, PrefixIndex};
use crate::store::SessionStore;

/// Shape and budget of one [`KvCacheManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Hidden dimensions per key token.
    pub dims: usize,
    /// Bit width of the decomposition.
    pub bits: u32,
    /// Tokens per sealed chunk — the sharing granularity, aligned with
    /// the serving layer's `kv_chunk_tokens`. Output-invariant: any
    /// positive value yields byte-identical planes, only the hit
    /// alignment changes.
    pub chunk_tokens: usize,
    /// Resident-byte budget enforced after every attach/detach.
    pub budget: CacheBudget,
}

impl CacheConfig {
    /// A configuration with an unlimited budget.
    #[must_use]
    pub fn new(dims: usize, bits: u32, chunk_tokens: usize) -> Self {
        Self { dims, bits, chunk_tokens, budget: CacheBudget::unlimited() }
    }

    /// The same configuration under a byte budget.
    #[must_use]
    pub fn with_budget(self, budget: CacheBudget) -> Self {
        Self { budget, ..self }
    }
}

/// Running counters of one manager. Hit/decomposed tokens partition every
/// attached prompt token: `hit_tokens` were served from resident planes
/// (index chunks or a resumed session cache) and skipped decomposition
/// entirely; `decomposed_tokens` paid the full bit-plane decomposition.
///
/// Every counter accumulates through [`u64::saturating_add`]: a run long
/// enough to exhaust a `u64` pins at the maximum instead of wrapping —
/// release builds already wrap silently on `+=`, and a wrapped counter
/// would corrupt every derived rate, so saturation is the only honest
/// overflow behavior for telemetry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Attach calls.
    pub lookups: u64,
    /// Prompt tokens served from resident planes (no decomposition).
    pub hit_tokens: u64,
    /// Prompt tokens decomposed at attach.
    pub decomposed_tokens: u64,
    /// Sealed chunks inserted into the shared index.
    pub inserted_chunks: u64,
    /// Attaches resumed from the session store.
    pub session_resumes: u64,
    /// Sealed chunks evicted from the index.
    pub evicted_chunks: u64,
    /// Stored sessions evicted.
    pub evicted_sessions: u64,
    /// Resident bytes actually freed by eviction.
    pub evicted_bytes: u64,
    /// Evicted index chunks demoted to the spill tier instead of dropped
    /// (always `<= evicted_chunks`; the difference was dropped for real —
    /// no tier configured, or the tier's `put` failed).
    pub spilled_chunks: u64,
    /// Plane-word payload bytes written to the spill tier.
    pub spilled_bytes: u64,
    /// Chunks re-adopted from the spill tier at attach instead of being
    /// re-decomposed.
    pub fetched_chunks: u64,
    /// Prompt tokens covered by tier-fetched chunks (a subset of
    /// [`hit_tokens`](Self::hit_tokens) — fetched tokens skip
    /// decomposition just like resident hits).
    pub fetched_tokens: u64,
    /// Faults of the optional plane sources — at attach, a spill-tier
    /// `get` that failed or a record adoption refused as invalid; at
    /// peer export, a spill-tier `get` that failed; at startup, a cache
    /// image that failed to load ([`KvCacheManager::count_tier_fault`]).
    /// Each one falls back to decomposing the chunk, a shorter export or
    /// a cold start, so outputs are unaffected; this counter surfaces it.
    pub tier_faults: u64,
}

impl CacheStats {
    /// Fraction of attached prompt tokens served without decomposition.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hit_tokens + self.decomposed_tokens;
        if total == 0 {
            0.0
        } else {
            self.hit_tokens as f64 / total as f64
        }
    }
}

/// Why [`KvCacheManager::adopt`] refused a chunk record.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Refusal {
    /// Wrong shape, a key that is not `chunk_key(parent, ids)`, or a
    /// parent that is not resident.
    Invalid,
    /// A different chunk already holds the record's key.
    Collision,
}

/// A live session's claim on the index chunks it reads. Returned by
/// [`KvCacheManager::attach`] and surrendered through
/// [`KvCacheManager::detach`]; while outstanding, the leased chunks are
/// exempt from eviction. Deliberately neither `Clone` nor `Copy` — one
/// lease, one release.
#[derive(Debug, Default)]
pub struct CacheLease {
    pub(crate) path: Vec<u128>,
}

impl CacheLease {
    /// Index chunks this lease pins.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.path.len()
    }
}

/// The result of attaching a prompt: a growable cache covering the whole
/// prompt, plus what it cost.
#[derive(Debug)]
pub struct Attached {
    /// The session's key-plane cache: resolved prefix chunks by `Arc`
    /// (zero decomposition), the unseen suffix freshly decomposed. The
    /// session appends decode-step tokens to it and snapshots per step
    /// exactly as with a privately-built [`GrowableKeyCache`].
    pub cache: GrowableKeyCache,
    /// The eviction-exemption lease over the index chunks the cache
    /// borrows; pass back to [`KvCacheManager::detach`].
    pub lease: CacheLease,
    /// Prompt tokens served from resident planes.
    pub hit_tokens: usize,
    /// Prompt tokens decomposed by this attach.
    pub decomposed_tokens: usize,
    /// Tokens of [`hit_tokens`](Self::hit_tokens) that were re-adopted
    /// from the spill tier (fetched, parsed from plane words, republished
    /// to the index) rather than found resident.
    pub fetched_tokens: usize,
    /// Whether the attach resumed the session's stored cache instead of
    /// walking the shared index.
    pub resumed_session: bool,
}

/// Deduplicated resident-byte accounting, maintained incrementally: a
/// chunk held by the index node *and* any number of stored caches is
/// billed once, and the running total is `O(1)` to read — eviction loops
/// and the serving layer's residency gauge must not pay a full scan per
/// step. Keyed on `Arc` pointer identity; an entry only exists while at
/// least one manager-side holder keeps the allocation alive, so
/// addresses cannot be reused under a live entry.
#[derive(Debug, Default)]
pub(crate) struct Residency {
    /// Manager-side holder count and cached byte size per chunk
    /// allocation.
    holders: HashMap<usize, (usize, u64)>,
    total: u64,
}

impl Residency {
    pub(crate) fn track_chunk(&mut self, chunk: &Arc<BitPlaneMatrix>) {
        let entry = self
            .holders
            .entry(Arc::as_ptr(chunk) as usize)
            .or_insert_with(|| (0, chunk.resident_bytes() as u64));
        if entry.0 == 0 {
            self.total += entry.1;
        }
        entry.0 += 1;
    }

    fn untrack_chunk(&mut self, chunk: &Arc<BitPlaneMatrix>) {
        let ptr = Arc::as_ptr(chunk) as usize;
        let entry = self.holders.get_mut(&ptr).expect("untracking a chunk never tracked");
        entry.0 -= 1;
        if entry.0 == 0 {
            self.total -= entry.1;
            self.holders.remove(&ptr);
        }
    }

    /// Bills a stored cache: its sealed chunks (deduplicated against the
    /// index and other stored caches) plus its always-private open tail.
    pub(crate) fn track_cache(&mut self, cache: &GrowableKeyCache) {
        for chunk in cache.sealed_chunks() {
            self.track_chunk(chunk);
        }
        self.total += cache.tail_resident_bytes() as u64;
    }

    fn untrack_cache(&mut self, cache: &GrowableKeyCache) {
        for chunk in cache.sealed_chunks() {
            self.untrack_chunk(chunk);
        }
        self.total -= cache.tail_resident_bytes() as u64;
    }
}

/// The workspace-wide KV plane cache manager: cross-request prefix
/// sharing (the index), cross-turn session persistence (the store) and a
/// byte-accounted budget with LRU eviction.
///
/// Every operation is a pure function of the call sequence — hash-map
/// iteration is only ever reduced with order-independent folds (min by a
/// unique key, sums) — so equal request sequences produce equal hit and
/// eviction sequences on every run.
#[derive(Debug)]
pub struct KvCacheManager {
    pub(crate) config: CacheConfig,
    pub(crate) index: PrefixIndex,
    pub(crate) store: SessionStore,
    pub(crate) residency: Residency,
    pub(crate) stats: CacheStats,
    pub(crate) tick: u64,
    /// The spill tier: evicted sealed index chunks are demoted here
    /// instead of dropped, and the attach prefix walk fetches from here
    /// before re-decomposing. `None` (the default) preserves PR-5
    /// drop-on-evict behavior exactly.
    tier: Option<Box<dyn TierStore>>,
    /// Telemetry hookup: `(tracer, track)`. The manager's logical clock
    /// is its attach/detach tick, so equal request sequences replay as
    /// identical event streams. A pure side channel — hit, eviction and
    /// plane outcomes never read it.
    trace: Option<(Tracer, u64)>,
}

impl KvCacheManager {
    /// A manager for `config`-shaped key planes.
    ///
    /// # Errors
    ///
    /// Returns the [`GrowableKeyCache::new`] shape errors for an invalid
    /// width, zero dims or zero chunk size.
    pub fn new(config: CacheConfig) -> Result<Self, QuantError> {
        // Validate the shape once through the storage it governs.
        GrowableKeyCache::new(config.dims, config.bits, config.chunk_tokens)?;
        Ok(Self {
            config,
            index: PrefixIndex::new(),
            store: SessionStore::new(),
            residency: Residency::default(),
            stats: CacheStats::default(),
            tick: 0,
            tier: None,
            trace: None,
        })
    }

    /// Installs (or replaces) the spill tier. Evictions from now on
    /// demote sealed index chunks into it, and attaches fetch from it
    /// before re-decomposing. Pass `None` to restore drop-on-evict.
    /// Outputs are invariant either way — the tier only changes *where*
    /// byte-identical planes come from.
    pub fn set_tier(&mut self, tier: Option<Box<dyn TierStore>>) {
        self.tier = tier;
    }

    /// The installed spill tier, if any.
    #[must_use]
    pub fn tier(&self) -> Option<&dyn TierStore> {
        self.tier.as_deref()
    }

    /// Binds this manager's telemetry to `track` of `tracer`. Attaches,
    /// evictions and session resumes record onto that track from now on;
    /// outputs are unaffected.
    pub fn set_tracer(&mut self, tracer: Tracer, track: u64) {
        self.trace = if tracer.is_active() { Some((tracer, track)) } else { None };
    }

    /// The manager's shape and budget.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Running counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Counts one fault outside attach in [`CacheStats::tier_faults`]:
    /// the caller fell back to this cold manager because a cache image
    /// failed to load.
    pub fn count_tier_fault(&mut self) {
        self.stats.tier_faults = self.stats.tier_faults.saturating_add(1);
    }

    /// Sealed chunks resident in the shared index.
    #[must_use]
    pub fn resident_chunks(&self) -> usize {
        self.index.len()
    }

    /// Sessions resident in the session store.
    #[must_use]
    pub fn stored_sessions(&self) -> usize {
        self.store.len()
    }

    /// Bytes of decomposed planes this manager keeps alive, deduplicated
    /// by chunk identity (a chunk referenced by the index *and* a stored
    /// session is billed once). `O(1)`: maintained incrementally on every
    /// publish, store and eviction.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.residency.total
    }

    /// The slow ground truth of [`resident_bytes`](Self::resident_bytes):
    /// a full deduplicating scan over the index and every stored cache.
    /// Test-only — the incremental accounting is asserted against it.
    #[cfg(test)]
    fn recompute_resident_bytes(&self) -> u64 {
        let mut seen: HashSet<*const BitPlaneMatrix> = HashSet::new();
        let mut total = 0u64;
        for chunk in self.index.chunk_arcs() {
            if seen.insert(Arc::as_ptr(chunk)) {
                total += chunk.resident_bytes() as u64;
            }
        }
        for cache in self.store.caches() {
            for chunk in cache.sealed_chunks() {
                if seen.insert(Arc::as_ptr(chunk)) {
                    total += chunk.resident_bytes() as u64;
                }
            }
            // The open tail is always private to the stored cache.
            total += cache.tail_resident_bytes() as u64;
        }
        total
    }

    /// Resolves `ids` (whose decomposable key rows are `rows`, row-major
    /// `ids.len() × dims`) into a growable plane cache for `session`,
    /// decomposing only what no resident plane covers:
    ///
    /// 1. **Session resume** — when the store holds this session's grown
    ///    cache and `ids` extends the ids it covers, the cache is taken
    ///    out whole and only the extension is decomposed.
    /// 2. **Prefix sharing** — otherwise the index is walked for the
    ///    longest chunk-aligned cached prefix; hit chunks are adopted by
    ///    `Arc`, the unseen suffix is decomposed, and every new *full*
    ///    chunk is published to the index for later requests.
    ///
    /// The returned cache is byte-identical to a from-scratch
    /// decomposition of `rows` (property-tested in `tests/`). The budget
    /// is enforced before returning; the returned lease exempts the
    /// borrowed index chunks from that and every later eviction pass.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DimensionMismatch`] when `rows` is not
    /// `ids.len() × dims`, and decomposition errors for rows that do not
    /// fit the configured width.
    pub fn attach(
        &mut self,
        session: u64,
        ids: &[u32],
        rows: &[i8],
    ) -> Result<Attached, QuantError> {
        if rows.len() != ids.len() * self.config.dims {
            return Err(QuantError::DimensionMismatch {
                expected: ids.len() * self.config.dims,
                actual: rows.len(),
            });
        }
        self.tick += 1;
        self.stats.lookups = self.stats.lookups.saturating_add(1);
        let attach_wall = self.trace.is_some().then(std::time::Instant::now);
        let dims = self.config.dims;

        // 1. Session resume. The resumed cache leaves the store (its
        // bytes now live with the session, not the manager), and the
        // still-indexed prefix chunks it reads are leased so eviction
        // honors the same exemption the prefix-sharing path gets.
        if let Some((mut cache, covered)) = self.store.take_if_prefix(session, ids) {
            self.residency.untrack_cache(&cache);
            let resolved = self.index.resolve(&ids[..covered], self.config.chunk_tokens, self.tick);
            self.index.acquire(&resolved.path);
            cache.append_rows(&rows[covered * dims..])?;
            self.stats.session_resumes = self.stats.session_resumes.saturating_add(1);
            self.stats.hit_tokens = self.stats.hit_tokens.saturating_add(covered as u64);
            self.stats.decomposed_tokens =
                self.stats.decomposed_tokens.saturating_add((ids.len() - covered) as u64);
            self.evict_to_budget();
            self.trace_attach(attach_wall, covered, ids.len() - covered, 0, true);
            return Ok(Attached {
                cache,
                lease: CacheLease { path: resolved.path },
                hit_tokens: covered,
                decomposed_tokens: ids.len() - covered,
                fetched_tokens: 0,
                resumed_session: true,
            });
        }

        // 2. Prefix sharing through the index.
        let chunk_tokens = self.config.chunk_tokens;
        let resolved = self.index.resolve(ids, chunk_tokens, self.tick);
        let mut path = resolved.path;
        let mut sealed = resolved.chunks;
        let resident_hit_chunks = sealed.len();
        let mut parent = path.last().copied();
        let full_chunks = ids.len() / chunk_tokens;
        let mut indexable = true;
        let mut fetched_chunks = 0usize;
        for c in sealed.len()..full_chunks {
            let (lo, hi) = (c * chunk_tokens, (c + 1) * chunk_tokens);
            let chunk_ids = &ids[lo..hi];
            let key = chunk_key(parent, chunk_ids);
            // Before paying decomposition, try the spill tier: a chunk
            // evicted earlier (or imported from a peer) whose recorded
            // ids and parent match this exact prefix position carries the
            // byte-identical planes — re-adopt and republish them. Only
            // while the path is still indexable: a private chunk cannot
            // be republished, and a fetch that stays private would be
            // pure I/O waste over an equal-cost parse. A failed fetch or a
            // record that fails validation is a counted tier fault and
            // falls back to decomposition.
            let spilled = if indexable { self.fetch_spilled(key, parent, chunk_ids) } else { None };
            if let Some(rec) = spilled {
                match self.adopt(rec) {
                    Ok((resident, _)) => {
                        path.push(key);
                        parent = Some(key);
                        sealed.push(resident);
                        fetched_chunks += 1;
                        continue;
                    }
                    Err(Refusal::Collision) => indexable = false,
                    Err(Refusal::Invalid) => {
                        self.stats.tier_faults = self.stats.tier_faults.saturating_add(1);
                    }
                }
            }
            let planes = Arc::new(BitPlaneMatrix::from_rows(
                &rows[lo * dims..hi * dims],
                dims,
                self.config.bits,
            )?);
            // A collision (or a broken parent chain after one) keeps the
            // chunk private: still used by this session, never shared.
            if indexable {
                let rec =
                    ChunkRecord { key, parent, ids: chunk_ids.into(), planes: Arc::clone(&planes) };
                match self.adopt(rec) {
                    Ok((resident, _)) => {
                        path.push(key);
                        parent = Some(key);
                        sealed.push(resident);
                        continue;
                    }
                    Err(_) => indexable = false,
                }
            }
            sealed.push(planes);
        }
        let mut cache =
            GrowableKeyCache::from_chunks(sealed, dims, self.config.bits, chunk_tokens)?;
        cache.append_rows(&rows[full_chunks * chunk_tokens * dims..])?;
        // Fetched chunks skipped decomposition exactly like resident
        // hits, so they count into hit_tokens — and into their own
        // subset counters so the tier's contribution stays visible.
        let fetched_tokens = fetched_chunks * chunk_tokens;
        let hit_tokens = resident_hit_chunks * chunk_tokens + fetched_tokens;
        let decomposed_tokens = ids.len() - hit_tokens;
        self.index.acquire(&path);
        self.stats.hit_tokens = self.stats.hit_tokens.saturating_add(hit_tokens as u64);
        self.stats.decomposed_tokens =
            self.stats.decomposed_tokens.saturating_add(decomposed_tokens as u64);
        self.stats.fetched_chunks = self.stats.fetched_chunks.saturating_add(fetched_chunks as u64);
        self.stats.fetched_tokens = self.stats.fetched_tokens.saturating_add(fetched_tokens as u64);
        self.evict_to_budget();
        self.trace_attach(attach_wall, hit_tokens, decomposed_tokens, fetched_tokens, false);
        Ok(Attached {
            cache,
            lease: CacheLease { path },
            hit_tokens,
            decomposed_tokens,
            fetched_tokens,
            resumed_session: false,
        })
    }

    /// Records one attach outcome on the bound track (no-op when no
    /// tracer is bound). Clocked at the attach's own tick.
    fn trace_attach(
        &self,
        wall: Option<std::time::Instant>,
        hit_tokens: usize,
        decomposed_tokens: usize,
        fetched_tokens: usize,
        resumed: bool,
    ) {
        if let (Some((tracer, track)), Some(t0)) = (&self.trace, wall) {
            let clock = Cycle(self.tick);
            tracer.span_at(*track, "cache.attach", clock, clock, t0.elapsed().as_nanos() as u64);
            if resumed {
                tracer.instant(*track, "cache.session_resume", clock);
            }
            if hit_tokens > 0 {
                tracer.instant(*track, "cache.hit", clock);
            }
            if decomposed_tokens > 0 {
                tracer.instant(*track, "cache.suffix_decompose", clock);
            }
            if fetched_tokens > 0 {
                tracer.instant(*track, "cache.tier_fetch", clock);
                // Counted under the tier name too, so StageBreakdown
                // counter tables surface tier traffic directly.
                tracer.count(*track, "cache.tier_fetch", clock, fetched_tokens as u64);
                tracer.count(*track, "cache.fetched_tokens", clock, fetched_tokens as u64);
            }
            tracer.count(*track, "cache.hit_tokens", clock, hit_tokens as u64);
            tracer.count(*track, "cache.decomposed_tokens", clock, decomposed_tokens as u64);
        }
    }

    /// Predicted prompt tokens an [`attach`](Self::attach) of `(session,
    /// ids)` would serve from resident planes right now, **without
    /// mutating anything** — no LRU touch, no lease, no stats. Mirrors
    /// the attach preference order: a resumable stored session first,
    /// the shared index walk otherwise. A hit-aware admission scheduler
    /// may call this on every enqueue; because nothing is touched, the
    /// probe can never change which chunks a later budget pass evicts.
    #[must_use]
    pub fn predicted_hit_tokens(&self, session: u64, ids: &[u32]) -> usize {
        let covered = self.store.peek_covered(session, ids);
        if covered > 0 {
            return covered;
        }
        let chunk_tokens = self.config.chunk_tokens;
        let (resident, mut parent) = self.index.peek_hit_walk(ids, chunk_tokens);
        let mut chunks = resident;
        // Spilled-but-fetchable chunks extend the prediction: an attach
        // would re-adopt them from the tier without decomposing, so an
        // admission scheduler must see them as hits, not misses.
        if let Some(tier) = &self.tier {
            let full_chunks = ids.len() / chunk_tokens;
            for c in resident..full_chunks {
                let lo = c * chunk_tokens;
                let key = chunk_key(parent, &ids[lo..lo + chunk_tokens]);
                if !tier.contains(key) {
                    break;
                }
                chunks += 1;
                parent = Some(key);
            }
        }
        chunks * chunk_tokens
    }

    /// Exports the chunk records covering the longest chunk-aligned
    /// prefix of `ids` this manager can produce — resident index chunks
    /// by `Arc` (no copy), spilled chunks fetched from the tier — in
    /// root-to-leaf order, at most `max_chunks` of them. The building
    /// block of peer shard fetch and shard migration: every record is
    /// content-addressed, so an importer re-validates each key before
    /// adopting anything. No LRU touch; the only stat it moves is
    /// [`CacheStats::tier_faults`], counted once when a tier read fails
    /// and the export stops at that chunk.
    #[must_use]
    pub fn export_prefix_path(&mut self, ids: &[u32], max_chunks: usize) -> Vec<ChunkRecord> {
        let chunk_tokens = self.config.chunk_tokens;
        let mut out = Vec::new();
        let mut parent = None;
        for chunk in ids.chunks_exact(chunk_tokens) {
            if out.len() >= max_chunks {
                break;
            }
            let key = chunk_key(parent, chunk);
            match self.index.peek_node(key) {
                Some(rec) if rec.parent == parent && *rec.ids == *chunk => {
                    out.push(rec.clone());
                    parent = Some(key);
                    continue;
                }
                // A resident node under this key with different content
                // is a hash collision: the chain is unservable past it.
                Some(_) => break,
                None => {}
            }
            match self.fetch_spilled(key, parent, chunk) {
                Some(rec) => {
                    out.push(rec);
                    parent = Some(key);
                }
                None => break,
            }
        }
        out
    }

    /// Adopts peer-exported chunk records into the shared index. Each
    /// record goes through the same validation as a tier fetch or a cache
    /// image load: the recomputed `chunk_key(parent, ids)` must equal the
    /// recorded key, the planes must match this manager's shape, and the
    /// parent must already be resident (records arrive root-to-leaf, so a
    /// broken chain stops adopting at the break). Returns how many
    /// records were newly adopted; invalid, orphaned, colliding or
    /// already-resident records are skipped. The budget is enforced once
    /// at the end.
    pub fn import_chunk_records(&mut self, records: &[ChunkRecord]) -> usize {
        self.tick += 1;
        let mut imported = 0usize;
        for rec in records {
            if let Ok((_, true)) = self.adopt(rec.clone()) {
                imported += 1;
            }
        }
        self.evict_to_budget();
        imported
    }

    /// Reads the spilled record under `key` if it sits at this exact
    /// prefix position (`parent`, `ids`). A failed read is a counted
    /// [`CacheStats::tier_faults`] and, like a miss, returns `None`.
    fn fetch_spilled(
        &mut self,
        key: u128,
        parent: Option<u128>,
        ids: &[u32],
    ) -> Option<ChunkRecord> {
        match self.tier.as_ref()?.get(key) {
            Ok(rec) => rec.filter(|rec| rec.parent == parent && *rec.ids == *ids),
            Err(_) => {
                self.stats.tier_faults = self.stats.tier_faults.saturating_add(1);
                None
            }
        }
    }

    /// Adopts one already-built chunk record into the shared index — the
    /// single path by which decomposed chunks enter it, whether freshly
    /// decomposed at attach, fetched from the spill tier, imported from a
    /// peer or replayed from a cache image. The record must have this
    /// manager's chunk shape, its key must be `chunk_key(parent, ids)`,
    /// and its parent must be resident. On success returns the resident
    /// planes (the index's allocation on a dedup hit) and whether a node
    /// was created, which is then billed and counted in
    /// [`CacheStats::inserted_chunks`]. Callers pick the policy for a
    /// refusal.
    pub(crate) fn adopt(
        &mut self,
        rec: ChunkRecord,
    ) -> Result<(Arc<BitPlaneMatrix>, bool), Refusal> {
        let chunk_tokens = self.config.chunk_tokens;
        if rec.ids.len() != chunk_tokens
            || rec.planes.tokens() != chunk_tokens
            || rec.planes.dims() != self.config.dims
            || rec.planes.bits() != self.config.bits
            || chunk_key(rec.parent, &rec.ids) != rec.key
            || rec.parent.is_some_and(|p| !self.index.contains_key(p))
        {
            return Err(Refusal::Invalid);
        }
        let (resident, created) = self.index.insert(rec, self.tick).ok_or(Refusal::Collision)?;
        if created {
            self.residency.track_chunk(&resident);
            self.stats.inserted_chunks = self.stats.inserted_chunks.saturating_add(1);
        }
        Ok((resident, created))
    }

    /// Surrenders a finished request's lease and stores its grown cache
    /// for the session's next request. `ids` is the request's full
    /// `Arc`-shared prompt id sequence (the store shares the allocation,
    /// never copies it); the store records the leading `cache.tokens()`
    /// of them as covered (a decode session's final generated token is
    /// never appended, so the cache may cover slightly fewer ids than
    /// the prompt).
    ///
    /// # Panics
    ///
    /// Panics if the cache covers more tokens than `ids` — the cache and
    /// the prompt would disagree about what the planes mean.
    pub fn detach(
        &mut self,
        session: u64,
        ids: Arc<[u32]>,
        cache: GrowableKeyCache,
        lease: CacheLease,
    ) {
        assert!(
            cache.tokens() <= ids.len(),
            "detached cache covers {} tokens but the prompt has {} ids",
            cache.tokens(),
            ids.len()
        );
        self.tick += 1;
        self.index.release(&lease.path);
        self.residency.track_cache(&cache);
        if let Some(replaced) = self.store.insert(session, ids, cache, self.tick) {
            self.residency.untrack_cache(&replaced);
        }
        self.evict_to_budget();
    }

    /// Releases a lease without storing anything (a session that will
    /// never come back).
    pub fn release(&mut self, lease: CacheLease) {
        self.tick += 1;
        self.index.release(&lease.path);
        self.evict_to_budget();
    }

    /// LRU-evicts until resident bytes fit the budget: idle stored
    /// sessions first (each serves only its own session's next turn),
    /// then unleased childless index chunks (each may serve every future
    /// request — the more valuable asset, surrendered last). Stops early
    /// when everything left is leased — the budget never frees planes a
    /// live session reads.
    pub(crate) fn evict_to_budget(&mut self) {
        if self.config.budget.is_unlimited() {
            return;
        }
        let evict_wall = self.trace.is_some().then(std::time::Instant::now);
        let bytes_before = self.residency.total;
        let max = self.config.budget.max_bytes();
        let mut spilled_this_pass = 0u64;
        while self.residency.total > max {
            let before = self.residency.total;
            if let Some(session) = self.store.lru_session() {
                if let Some(cache) = self.store.remove(session) {
                    self.residency.untrack_cache(&cache);
                }
                self.stats.evicted_sessions = self.stats.evicted_sessions.saturating_add(1);
            } else if let Some(key) = self.index.lru_evictable() {
                if let Some(record) = self.index.remove(key) {
                    // Demote to the spill tier before surrendering the
                    // planes: a later prefix hit fetches them back
                    // byte-identical instead of re-decomposing. An I/O
                    // failure degrades to PR-5 drop-on-evict — the
                    // budget must drain either way.
                    if let Some(tier) = &mut self.tier {
                        if tier.put(&record).is_ok() {
                            self.stats.spilled_chunks = self.stats.spilled_chunks.saturating_add(1);
                            self.stats.spilled_bytes =
                                self.stats.spilled_bytes.saturating_add(record.plane_bytes());
                            spilled_this_pass += 1;
                        }
                    }
                    self.residency.untrack_chunk(&record.planes);
                }
                self.stats.evicted_chunks = self.stats.evicted_chunks.saturating_add(1);
            } else {
                break;
            }
            // Evicting a holder frees bytes only when it was the chunk's
            // last manager-side holder — the dedup accounting records
            // exactly what was actually freed.
            self.stats.evicted_bytes =
                self.stats.evicted_bytes.saturating_add(before - self.residency.total);
        }
        let freed = bytes_before - self.residency.total;
        if freed > 0 {
            if let (Some((tracer, track)), Some(t0)) = (&self.trace, evict_wall) {
                let clock = Cycle(self.tick);
                tracer.span_at(*track, "cache.evict", clock, clock, t0.elapsed().as_nanos() as u64);
                tracer.count(*track, "cache.evicted_bytes", clock, freed);
                if spilled_this_pass > 0 {
                    tracer.instant(*track, "cache.tier_spill", clock);
                    // Counted under the tier name too, so StageBreakdown
                    // counter tables surface tier traffic directly.
                    tracer.count(*track, "cache.tier_spill", clock, spilled_this_pass);
                    tracer.count(*track, "cache.spilled_chunks", clock, spilled_this_pass);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32).map(|i| i.wrapping_mul(2654435761).wrapping_add(seed) % 1000).collect()
    }

    /// Deterministic rows for an id sequence (a stand-in for the
    /// workload's token-key derivation; the manager only requires that
    /// equal ids come with equal rows).
    fn rows_for(ids: &[u32], dims: usize) -> Vec<i8> {
        ids.iter()
            .flat_map(|&id| {
                (0..dims).map(move |d| {
                    (u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (8 + (d % 8) * 4)) as u8
                        as i8
                })
            })
            .collect()
    }

    fn manager(chunk_tokens: usize) -> KvCacheManager {
        KvCacheManager::new(CacheConfig::new(8, 8, chunk_tokens)).unwrap()
    }

    #[test]
    fn second_request_hits_the_shared_prefix() {
        let mut m = manager(4);
        let shared = ids(16, 1);
        let mut a_ids = shared.clone();
        a_ids.extend(ids(6, 2));
        let mut b_ids = shared.clone();
        b_ids.extend(ids(6, 3));

        let a = m.attach(1, &a_ids, &rows_for(&a_ids, 8)).unwrap();
        assert_eq!((a.hit_tokens, a.decomposed_tokens), (0, 22));
        // 22 tokens = 5 full chunks published + 2 tail tokens private.
        assert_eq!(m.resident_chunks(), 5);

        let b = m.attach(2, &b_ids, &rows_for(&b_ids, 8)).unwrap();
        // The 16 shared tokens hit; chunk 5 diverges (a's suffix ids).
        assert_eq!((b.hit_tokens, b.decomposed_tokens), (16, 6));
        assert_eq!(b.lease.chunks(), 5);
        assert!(!b.resumed_session);
        // Hit planes are literally a's allocations.
        assert!(Arc::ptr_eq(&b.cache.sealed_chunks()[0], &a.cache.sealed_chunks()[0]));
    }

    #[test]
    fn attached_cache_matches_from_scratch_decomposition() {
        for chunk in [1usize, 3, 4, 7] {
            let mut m = manager(chunk);
            let shared = ids(13, 5);
            let mut p = shared.clone();
            p.extend(ids(9, 6));
            let rows = rows_for(&p, 8);
            m.attach(1, &shared, &rows_for(&shared, 8)).unwrap();
            let b = m.attach(2, &p, &rows).unwrap();
            let scratch = BitPlaneMatrix::from_rows(&rows, 8, 8).unwrap();
            assert_eq!(b.cache.snapshot().materialize(), scratch, "chunk_tokens {chunk}");
        }
    }

    #[test]
    fn session_resume_skips_the_covered_prefix() {
        let mut m = manager(4);
        let turn1 = ids(10, 7);
        let a = m.attach(9, &turn1, &rows_for(&turn1, 8)).unwrap();
        m.detach(9, turn1.clone().into(), a.cache, a.lease);
        assert_eq!(m.stored_sessions(), 1);

        let mut turn2 = turn1.clone();
        turn2.extend(ids(5, 8));
        let b = m.attach(9, &turn2, &rows_for(&turn2, 8)).unwrap();
        assert!(b.resumed_session);
        assert_eq!((b.hit_tokens, b.decomposed_tokens), (10, 5));
        assert_eq!(m.stored_sessions(), 0, "resume takes the entry out while live");
        let scratch = BitPlaneMatrix::from_rows(&rows_for(&turn2, 8), 8, 8).unwrap();
        assert_eq!(b.cache.snapshot().materialize(), scratch);
    }

    #[test]
    fn eviction_honors_leases_and_frees_after_release() {
        let mut m =
            KvCacheManager::new(CacheConfig::new(8, 8, 4).with_budget(CacheBudget::bytes(0)))
                .unwrap();
        let p = ids(8, 11);
        let a = m.attach(1, &p, &rows_for(&p, 8)).unwrap();
        // Budget zero, but both chunks are leased: nothing freed.
        assert_eq!(m.resident_chunks(), 2);
        assert_eq!(m.stats().evicted_chunks, 0);
        assert!(m.resident_bytes() > 0);

        m.release(a.lease);
        // Lease gone: the budget drains the index (leaf first, then its
        // parent) and nothing is stored.
        assert_eq!(m.resident_chunks(), 0);
        assert_eq!(m.stats().evicted_chunks, 2);
        assert_eq!(m.resident_bytes(), 0);

        // A re-attach must now decompose from scratch.
        let b = m.attach(2, &p, &rows_for(&p, 8)).unwrap();
        assert_eq!((b.hit_tokens, b.decomposed_tokens), (0, 8));
    }

    #[test]
    fn detach_under_zero_budget_evicts_the_stored_session() {
        let mut m =
            KvCacheManager::new(CacheConfig::new(8, 8, 4).with_budget(CacheBudget::bytes(0)))
                .unwrap();
        let p = ids(8, 13);
        let a = m.attach(1, &p, &rows_for(&p, 8)).unwrap();
        m.detach(1, p.clone().into(), a.cache, a.lease);
        assert_eq!(m.stored_sessions(), 0);
        assert_eq!(m.resident_bytes(), 0);
        assert!(m.stats().evicted_sessions >= 1);
        assert!(m.stats().evicted_bytes > 0);
    }

    #[test]
    fn shape_errors_are_reported() {
        assert!(KvCacheManager::new(CacheConfig::new(0, 8, 4)).is_err());
        assert!(KvCacheManager::new(CacheConfig::new(8, 1, 4)).is_err());
        assert!(KvCacheManager::new(CacheConfig::new(8, 8, 0)).is_err());
        let mut m = manager(4);
        assert!(m.attach(1, &[1, 2, 3], &[0; 7]).is_err());
    }

    #[test]
    fn incremental_residency_matches_the_full_scan() {
        let mut m =
            KvCacheManager::new(CacheConfig::new(8, 8, 4).with_budget(CacheBudget::bytes(1_500)))
                .unwrap();
        // A busy mixed sequence: shared prefixes, resumes, replacements,
        // evictions — the O(1) counter must track the slow dedup scan at
        // every step.
        let shared = ids(12, 21);
        for turn in 0..3u64 {
            for session in 0..4u64 {
                let mut p = shared.clone();
                p.extend(ids(3 + 2 * turn as usize, session as u32 ^ 0x55));
                let attached = m.attach(session, &p, &rows_for(&p, 8)).unwrap();
                assert_eq!(m.resident_bytes(), m.recompute_resident_bytes());
                m.detach(session, p.clone().into(), attached.cache, attached.lease);
                assert_eq!(m.resident_bytes(), m.recompute_resident_bytes());
            }
        }
        assert!(m.stats().evicted_sessions + m.stats().evicted_chunks > 0);
    }

    #[test]
    fn session_resume_leases_its_indexed_prefix() {
        let mut m = manager(4);
        let turn1 = ids(8, 31);
        let a = m.attach(3, &turn1, &rows_for(&turn1, 8)).unwrap();
        assert_eq!(a.lease.chunks(), 2);
        m.detach(3, turn1.clone().into(), a.cache, a.lease);
        let mut turn2 = turn1.clone();
        turn2.extend(ids(4, 32));
        let b = m.attach(3, &turn2, &rows_for(&turn2, 8)).unwrap();
        assert!(b.resumed_session);
        // The resumed session leases the prefix chunks still in the
        // index, so they enjoy the same eviction exemption as a
        // prefix-sharing attach.
        assert_eq!(b.lease.chunks(), 2);
        m.detach(3, turn2.clone().into(), b.cache, b.lease);
    }

    #[test]
    fn probe_predicts_attach_hits_without_mutation() {
        let mut m = manager(4);
        let p = ids(10, 41);
        // Empty manager: nothing to hit.
        assert_eq!(m.predicted_hit_tokens(1, &p), 0);
        let a = m.attach(1, &p, &rows_for(&p, 8)).unwrap();
        // Index path: 2 full chunks resident → 8 predicted hit tokens,
        // exactly what a second attach then observes.
        assert_eq!(m.predicted_hit_tokens(2, &p), 8);
        let before_stats = *m.stats();
        let probed = m.predicted_hit_tokens(2, &p);
        assert_eq!(*m.stats(), before_stats, "probing never counts as a lookup");
        let b = m.attach(2, &p, &rows_for(&p, 8)).unwrap();
        assert_eq!(b.hit_tokens, probed);
        // Store path: a detached session predicts its covered resume.
        m.detach(1, p.clone().into(), a.cache, a.lease);
        let mut turn2 = p.clone();
        turn2.extend(ids(4, 42));
        assert_eq!(m.predicted_hit_tokens(1, &turn2), 10);
        let c = m.attach(1, &turn2, &rows_for(&turn2, 8)).unwrap();
        assert!(c.resumed_session);
        assert_eq!(c.hit_tokens, 10);
    }

    #[test]
    fn evicted_chunks_spill_and_fetch_back_byte_identical() {
        let mut m =
            KvCacheManager::new(CacheConfig::new(8, 8, 4).with_budget(CacheBudget::bytes(0)))
                .unwrap();
        m.set_tier(Some(pade_tier::TierConfig::Memory.build().unwrap()));
        let p = ids(8, 51);
        let rows = rows_for(&p, 8);
        let a = m.attach(1, &p, &rows).unwrap();
        m.release(a.lease);
        // Budget zero drains the index, but the tier caught both chunks.
        assert_eq!(m.resident_chunks(), 0);
        assert_eq!(m.stats().spilled_chunks, 2);
        assert!(m.stats().spilled_bytes > 0);
        assert_eq!(m.tier().unwrap().len(), 2);

        // The re-attach re-adopts the spilled planes instead of
        // decomposing: all 8 prompt tokens are hits, all of them fetched.
        let b = m.attach(2, &p, &rows).unwrap();
        assert_eq!((b.hit_tokens, b.decomposed_tokens, b.fetched_tokens), (8, 0, 8));
        assert_eq!(m.stats().fetched_chunks, 2);
        assert_eq!(m.stats().fetched_tokens, 8);
        let scratch = BitPlaneMatrix::from_rows(&rows, 8, 8).unwrap();
        assert_eq!(b.cache.snapshot().materialize(), scratch, "fetched planes byte-identical");
    }

    #[test]
    fn attach_decomposes_past_a_refused_tier_record() {
        // The tier holds a record at the prompt's first chunk position
        // whose planes have the wrong token count: adoption refuses it,
        // so the attach decomposes that chunk and publishes its own.
        let p = ids(8, 55);
        let rows = rows_for(&p, 8);
        let bad = BitPlaneMatrix::from_rows(&rows[..3 * 8], 8, 8).unwrap();
        let mut tier = pade_tier::MemoryTierStore::new();
        tier.put(&ChunkRecord {
            key: chunk_key(None, &p[..4]),
            parent: None,
            ids: p[..4].into(),
            planes: Arc::new(bad),
        })
        .unwrap();
        let mut m = manager(4);
        m.set_tier(Some(Box::new(tier)));
        let a = m.attach(1, &p, &rows).unwrap();
        assert_eq!((a.hit_tokens, a.decomposed_tokens, a.fetched_tokens), (0, 8, 0));
        assert_eq!(m.stats().tier_faults, 1, "the refused record is a counted fault");
        assert_eq!(m.resident_chunks(), 2, "the decomposed chunks are still published");
        let scratch = BitPlaneMatrix::from_rows(&rows, 8, 8).unwrap();
        assert_eq!(a.cache.snapshot().materialize(), scratch);
    }

    /// A spill tier that stores records but fails to read any back.
    #[derive(Debug, Default)]
    struct FailingGets(pade_tier::MemoryTierStore);

    impl TierStore for FailingGets {
        fn put(&mut self, record: &ChunkRecord) -> std::io::Result<()> {
            self.0.put(record)
        }
        fn get(&self, key: u128) -> std::io::Result<Option<ChunkRecord>> {
            if self.0.contains(key) {
                Err(std::io::Error::other("injected read fault"))
            } else {
                Ok(None)
            }
        }
        fn remove(&mut self, key: u128) -> std::io::Result<bool> {
            self.0.remove(key)
        }
        fn contains(&self, key: u128) -> bool {
            self.0.contains(key)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn spilled_bytes(&self) -> u64 {
            self.0.spilled_bytes()
        }
    }

    #[test]
    fn attach_decomposes_past_a_failing_tier_get() {
        // Budget zero spills both chunks of the first attach; the second
        // attach finds them in the tier, every fetch fails, and each
        // failure is counted and decomposed instead.
        let mut m =
            KvCacheManager::new(CacheConfig::new(8, 8, 4).with_budget(CacheBudget::bytes(0)))
                .unwrap();
        m.set_tier(Some(Box::new(FailingGets::default())));
        let p = ids(8, 59);
        let rows = rows_for(&p, 8);
        let a = m.attach(1, &p, &rows).unwrap();
        m.release(a.lease);
        assert_eq!((m.resident_chunks(), m.tier().unwrap().len()), (0, 2));
        assert_eq!(m.stats().tier_faults, 0, "nothing was fetched yet");

        let b = m.attach(2, &p, &rows).unwrap();
        assert_eq!((b.hit_tokens, b.decomposed_tokens, b.fetched_tokens), (0, 8, 0));
        assert_eq!(m.stats().tier_faults, 2, "one fault per chunk the tier failed to return");
        let scratch = BitPlaneMatrix::from_rows(&rows, 8, 8).unwrap();
        assert_eq!(b.cache.snapshot().materialize(), scratch, "outputs are unchanged");
    }

    #[test]
    fn probe_counts_spilled_but_fetchable_chunks() {
        let mut m =
            KvCacheManager::new(CacheConfig::new(8, 8, 4).with_budget(CacheBudget::bytes(0)))
                .unwrap();
        m.set_tier(Some(pade_tier::TierConfig::Memory.build().unwrap()));
        let p = ids(12, 53);
        let a = m.attach(1, &p, &rows_for(&p, 8)).unwrap();
        m.release(a.lease);
        assert_eq!(m.resident_chunks(), 0);
        // Nothing is resident, yet an attach would fetch all 3 chunks —
        // the probe must predict exactly that, without mutating anything.
        let before_stats = *m.stats();
        assert_eq!(m.predicted_hit_tokens(2, &p), 12);
        assert_eq!(*m.stats(), before_stats);
        let b = m.attach(2, &p, &rows_for(&p, 8)).unwrap();
        assert_eq!(b.hit_tokens, 12);
    }

    #[test]
    fn export_import_moves_a_prefix_between_managers() {
        let mut a = manager(4);
        let p = ids(12, 57);
        let rows = rows_for(&p, 8);
        let att = a.attach(1, &p, &rows).unwrap();
        a.release(att.lease);
        let records = a.export_prefix_path(&p, usize::MAX);
        assert_eq!(records.len(), 3);

        let mut b = manager(4);
        assert_eq!(b.import_chunk_records(&records), 3);
        assert_eq!(b.resident_chunks(), 3);
        // Importing again is a no-op (already resident).
        assert_eq!(b.import_chunk_records(&records), 0);
        // The importer serves the prefix without decomposing it, and the
        // planes are literally the exporter's allocations.
        let att_b = b.attach(9, &p, &rows).unwrap();
        assert_eq!((att_b.hit_tokens, att_b.decomposed_tokens), (12, 0));
        let scratch = BitPlaneMatrix::from_rows(&rows, 8, 8).unwrap();
        assert_eq!(att_b.cache.snapshot().materialize(), scratch);
    }

    #[test]
    fn import_rejects_tampered_and_orphaned_records() {
        let mut a = manager(4);
        let p = ids(8, 61);
        let att = a.attach(1, &p, &rows_for(&p, 8)).unwrap();
        a.release(att.lease);
        let records = a.export_prefix_path(&p, usize::MAX);
        assert_eq!(records.len(), 2);

        // A tampered key fails the content-address check.
        let mut tampered = records.clone();
        tampered[0].key ^= 1;
        let mut b = manager(4);
        // Record 0 is rejected; record 1's parent is then absent.
        assert_eq!(b.import_chunk_records(&tampered), 0);
        assert_eq!(b.resident_chunks(), 0);

        // The leaf alone is an orphan: its parent is not resident.
        let mut c = manager(4);
        assert_eq!(c.import_chunk_records(&records[1..]), 0);
        // Root-to-leaf order adopts both.
        assert_eq!(c.import_chunk_records(&records), 2);
    }

    #[test]
    fn export_continues_through_the_spill_tier() {
        let mut m =
            KvCacheManager::new(CacheConfig::new(8, 8, 4).with_budget(CacheBudget::bytes(0)))
                .unwrap();
        m.set_tier(Some(pade_tier::TierConfig::Memory.build().unwrap()));
        let p = ids(8, 63);
        let att = m.attach(1, &p, &rows_for(&p, 8)).unwrap();
        m.release(att.lease);
        assert_eq!(m.resident_chunks(), 0);
        // Both chunks live only in the tier; export still walks them.
        let records = m.export_prefix_path(&p, usize::MAX);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].parent, None);
        assert_eq!(records[1].parent, Some(records[0].key));
    }

    #[test]
    fn export_stops_at_a_failing_tier_get_and_counts_the_fault() {
        let p = ids(8, 67);
        let rows = rows_for(&p, 8);
        let mut probe = manager(4);
        let att = probe.attach(1, &p, &rows).unwrap();
        probe.release(att.lease);
        let chunk_bytes = probe.resident_bytes() / 2;
        // A one-chunk budget evicts leaf first: the root stays resident
        // and the leaf spills into a tier that fails every read.
        let mut m = KvCacheManager::new(
            CacheConfig::new(8, 8, 4).with_budget(CacheBudget::bytes(chunk_bytes)),
        )
        .unwrap();
        m.set_tier(Some(Box::new(FailingGets::default())));
        let att = m.attach(1, &p, &rows).unwrap();
        m.release(att.lease);
        assert_eq!((m.resident_chunks(), m.tier().unwrap().len()), (1, 1));
        let before = m.stats().tier_faults;
        let records = m.export_prefix_path(&p, usize::MAX);
        assert_eq!(records.len(), 1, "the export stops at the chunk the tier failed to return");
        assert_eq!(records[0].parent, None);
        assert_eq!(m.stats().tier_faults, before + 1, "the failed read is one counted fault");
    }

    #[test]
    fn hit_rate_partitions_attached_tokens() {
        let mut m = manager(4);
        let p = ids(8, 17);
        m.attach(1, &p, &rows_for(&p, 8)).unwrap();
        m.attach(2, &p, &rows_for(&p, 8)).unwrap();
        let s = m.stats();
        assert_eq!(s.hit_tokens + s.decomposed_tokens, 16);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }
}
