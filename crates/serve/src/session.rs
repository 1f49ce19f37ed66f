//! Session lifecycle: one admitted request, its operands and its engine
//! blocks.
//!
//! A session is created at admission. **Prefill** requests generate their
//! synthetic operand trace and decompose the key tensor into bit planes
//! **once**, held behind [`SharedKeyPlanes`] so every block the scheduler
//! dispatches — and every worker thread running one — borrows the same
//! immutable plane allocation. **Decode** requests instead run
//! autoregressive multi-step decode over a growable per-session KV plane
//! cache ([`GrowableKeyCache`]): the prompt prefix is decomposed into the
//! cache at admission, each completed step appends the key of the token
//! it just generated (one `O(H·bits)` decomposition, never a re-scan of
//! the prefix), and the next step attends over the grown prefix through a
//! cheap [`KeyCacheSnapshot`](pade_quant::KeyCacheSnapshot). The growth
//! schedule lives in [`RequestKind::context_len`], shared with the
//! from-scratch oracle below.
//!
//! Blocks are the scheduling quantum. A prefill request of `R` rows is
//! cut into `⌈R / pe_rows⌉` *tiles* (exactly the tiling of
//! [`pade_core::engine::run_qk_batch`]) and each tile into slices of the
//! configured prefill chunk, so no slice crosses a tile boundary; a
//! decode request of `T` steps yields `T` single-row blocks. The engine
//! runs each tile once, when its first slice is dispatched, and that
//! run's result is the request's output for the tile's rows. Because
//! each tile simulates its own HBM/SRAM instances — and because
//! incremental appends decompose tokens exactly as
//! [`BitPlaneMatrix::from_rows`] does — the session's outputs are
//! bit-identical to running the same request alone over from-scratch
//! decompositions: the property `tests/` pins against the seed oracle
//! [`run_qk_block_reference`].
//!
//! [`run_qk_block_reference`]: pade_core::engine::run_qk_block_reference

use std::ops::Range;
use std::sync::Arc;

use pade_cache::{CacheLease, KvCacheManager};
use pade_core::config::PadeConfig;
use pade_core::engine::{KeySource, QkBatchJob, QkBlockResult, SharedKeyPlanes};
use pade_quant::{BitPlaneMatrix, GrowableKeyCache};
use pade_sim::Cycle;
use pade_workload::trace::{AttentionTrace, RequestArrival, RequestKind};

/// How a session stores its key planes.
#[derive(Debug)]
enum SessionKeys {
    /// Whole context decomposed once at admission (prefill without a
    /// cache manager).
    Shared(SharedKeyPlanes),
    /// Growable per-session cache: decode sessions append to it after
    /// every completed step; cache-managed sessions (decode *and*
    /// prefill) receive it pre-populated from
    /// [`KvCacheManager::attach`].
    Grown(GrowableKeyCache),
    /// The cache was handed back to the manager at retirement
    /// ([`Session::detach_cache`]); no further jobs exist.
    Detached,
}

/// One admitted request with its operands, key planes and progress: the
/// blocks (slices) dispatched so far and one engine result per tile.
#[derive(Debug)]
pub struct Session {
    spec: RequestArrival,
    trace: AttentionTrace,
    keys: SessionKeys,
    /// Key rows derived from the prompt token ids (`seq_len × H`,
    /// row-major) when the request carries a prompt; `None` means the
    /// operand trace's keys are the key tensor, as before.
    prompt_rows: Option<Vec<i8>>,
    /// Lease over shared index chunks, surrendered at retirement.
    lease: Option<CacheLease>,
    /// Whether the key planes came from a cache manager (and must go
    /// back to it through [`Session::detach_cache`]).
    managed: bool,
    /// Query rows per engine tile: `pe_rows` for prefill, 1 for decode.
    tile_rows: usize,
    /// Query-row range of every block (slice), in dispatch order.
    blocks: Vec<Range<usize>>,
    next_block: usize,
    /// One result per tile, in tile order.
    results: Vec<QkBlockResult>,
    /// Cycles of the last tile run, charged to each of its slices.
    tile_cycles: Cycle,
    admitted: Cycle,
}

impl Session {
    /// Admits a request at time `admitted`: generates its operand trace
    /// and prepares its key planes — the whole context for prefill, the
    /// prompt prefix of a growable cache (sealing `kv_chunk_tokens`-token
    /// chunks) for decode.
    ///
    /// Requests carrying a [`prompt`](RequestArrival::prompt) derive
    /// their key rows from the prompt token ids instead of the operand
    /// trace, which is prompt-keyed and never draws its own keys, and —
    /// when a [`KvCacheManager`] is supplied — attach
    /// through it: the longest cached prefix (shared index or the
    /// session's stored cache) is adopted without decomposition and only
    /// the unseen suffix is decomposed. With `cache` absent the same
    /// prompt-derived rows are decomposed from scratch, so outputs are
    /// byte-identical with the manager on or off.
    ///
    /// `prefill_chunk_tokens` caps the query rows per prefill block
    /// (chunked prefill): `None` dispatches whole `pe_rows` tiles, `Some(c)`
    /// cuts each tile into `⌈tile rows / c'⌉` slices of at most `c' =
    /// c.clamp(1, pe_rows)` rows. Slices are a scheduling quantum only:
    /// the tile runs once, at its first slice ([`next_job`](Self::next_job)),
    /// so per-request output bytes are those of the native tiling for
    /// every chunk size (property-tested in `tests/`).
    ///
    /// # Panics
    ///
    /// Panics if the request's trace cannot be decomposed under
    /// `config.bits`, `kv_chunk_tokens` is zero, the prompt length
    /// differs from the trace context, the trace's
    /// [`prompt_keys`](pade_workload::trace::TraceConfig::prompt_keys)
    /// flag disagrees with whether the request carries a prompt, or the
    /// manager's shape differs from the request's.
    #[must_use]
    pub fn admit(
        spec: &RequestArrival,
        config: &PadeConfig,
        kv_chunk_tokens: usize,
        prefill_chunk_tokens: Option<usize>,
        admitted: Cycle,
        cache: Option<&mut KvCacheManager>,
    ) -> Self {
        let trace = generate_trace(spec);
        let (dims, seq_len) = (spec.trace.head_dim, spec.trace.seq_len);
        // Prefill tiles by PE-row height, exactly as run_qk_batch tiles a
        // job, and slices each tile by the configured chunk; decode runs
        // one query row per step.
        let (tile_rows, chunk) = match spec.kind {
            RequestKind::Prefill { .. } => (
                config.pe_rows,
                prefill_chunk_tokens.map_or(config.pe_rows, |c| c.clamp(1, config.pe_rows)),
            ),
            RequestKind::Decode { .. } => (1, 1),
        };
        let total = spec.kind.tokens();
        let blocks = (0..total)
            .step_by(tile_rows)
            .flat_map(|tile| {
                let end = (tile + tile_rows).min(total);
                (tile..end).step_by(chunk).map(move |lo| lo..(lo + chunk).min(end))
            })
            .collect();
        let prompt_rows: Option<Vec<i8>> = spec.prompt.as_ref().map(|p| {
            assert_eq!(p.len(), seq_len, "prompt must carry one token id per key-context token");
            p.key_rows(dims, config.bits)
        });
        // The key prefix a block attends: prompt-derived when a prompt is
        // present, the operand trace's keys otherwise.
        let key_prefix = |tokens: usize| -> &[i8] {
            match &prompt_rows {
                Some(rows) => &rows[..tokens * dims],
                None => trace.key_prefix(tokens),
            }
        };
        // Tokens resident at admission: the whole context for prefill,
        // the step-0 prompt prefix for decode.
        let base = spec.kind.context_len(seq_len, 0);
        let mut lease = None;
        let mut managed = false;
        let keys = match (cache, &spec.prompt) {
            (Some(manager), Some(prompt)) => {
                let attached = manager
                    .attach(spec.session, &prompt.ids()[..base], key_prefix(base))
                    .expect("prompt key rows decompose under the manager's shape");
                lease = Some(attached.lease);
                managed = true;
                SessionKeys::Grown(attached.cache)
            }
            _ => match spec.kind {
                RequestKind::Prefill { .. } => SessionKeys::Shared(Arc::new(
                    BitPlaneMatrix::from_rows(key_prefix(base), dims, config.bits)
                        .expect("request key tensor decomposes into bit planes"),
                )),
                RequestKind::Decode { .. } => {
                    let mut cache = GrowableKeyCache::new(dims, config.bits, kv_chunk_tokens)
                        .expect("request key tensor decomposes into bit planes");
                    cache
                        .append_rows(key_prefix(base))
                        .expect("prompt prefix decomposes into the cache");
                    SessionKeys::Grown(cache)
                }
            },
        };
        Self {
            spec: spec.clone(),
            trace,
            keys,
            prompt_rows,
            lease,
            managed,
            tile_rows,
            blocks,
            next_block: 0,
            results: Vec::with_capacity(total.div_ceil(tile_rows)),
            tile_cycles: Cycle::ZERO,
            admitted,
        }
    }

    /// Binds the session's growable key cache (when it holds one) to
    /// `track` of `tracer`, so each decode-step append and chunk seal is
    /// recorded. A no-op for shared-plane prefill sessions. Outputs are
    /// unaffected.
    pub fn bind_trace(&mut self, tracer: &pade_trace::Tracer, track: u64) {
        if let SessionKeys::Grown(cache) = &mut self.keys {
            cache.set_trace(tracer.clone(), track);
        }
    }

    /// The admitted request.
    #[must_use]
    pub fn spec(&self) -> &RequestArrival {
        &self.spec
    }

    /// Admission time (≥ the request's arrival time).
    #[must_use]
    pub fn admitted(&self) -> Cycle {
        self.admitted
    }

    /// Blocks (slices) this request is dispatched as — more than its
    /// engine tiles when prefill is chunked below `pe_rows`.
    #[must_use]
    pub fn blocks_total(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks (slices) already dispatched. Tracked by dispatch progress,
    /// not `results.len()`: results hold one entry per tile, however many
    /// slices the tile was cut into.
    #[must_use]
    pub fn blocks_done(&self) -> usize {
        self.next_block
    }

    /// Whether every block has been dispatched.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.next_block == self.blocks.len()
    }

    /// Query rows (≙ tokens) this request executes in total.
    #[must_use]
    pub fn tokens(&self) -> u64 {
        self.spec.kind.tokens() as u64
    }

    /// Key tokens currently resident in this session's planes (grows step
    /// by step for decode sessions, constant for prefill; zero once the
    /// cache has been detached back to its manager).
    #[must_use]
    pub fn cached_key_tokens(&self) -> usize {
        match &self.keys {
            SessionKeys::Shared(planes) => planes.tokens(),
            SessionKeys::Grown(cache) => cache.tokens(),
            SessionKeys::Detached => 0,
        }
    }

    /// A bitwise fingerprint of this session's resident key planes: the
    /// whole plane set materialized into one [`BitPlaneMatrix`] (whose
    /// derived equality compares the packed plane words of every token).
    /// `None` once the cache has been detached.
    ///
    /// Determinism-suite introspection: the preemption property tests use
    /// it to prove a suspended-then-resumed session's planes are bitwise
    /// equal to a never-suspended session's at the same context length.
    #[must_use]
    pub fn key_planes(&self) -> Option<BitPlaneMatrix> {
        match &self.keys {
            SessionKeys::Shared(planes) => Some(planes.as_ref().clone()),
            SessionKeys::Grown(cache) => Some(cache.snapshot().materialize()),
            SessionKeys::Detached => None,
        }
    }

    /// Query-row (token) cost of the next block — the unit the scheduler's
    /// max-batch-tokens cap counts.
    ///
    /// # Panics
    ///
    /// Panics if the session is finished.
    #[must_use]
    pub fn next_block_tokens(&self) -> usize {
        assert!(!self.is_finished(), "finished session has no next block");
        self.blocks[self.next_block].len()
    }

    /// The engine job the next block starts: at a tile's first slice, the
    /// whole tile (at most `pe_rows` rows, so one engine tile) borrowing
    /// this session's operands and sharing its key planes — prefill tiles
    /// carry the `Arc`-shared whole tensor, decode steps a snapshot of the
    /// grown prefix. `None` for the tile's later slices, whose rows the
    /// tile's run already scored.
    ///
    /// # Panics
    ///
    /// Panics if the session is finished.
    #[must_use]
    pub fn next_job(&self) -> Option<QkBatchJob<'_>> {
        assert!(!self.is_finished(), "finished session has no next job");
        let lo = self.blocks[self.next_block].start;
        if !lo.is_multiple_of(self.tile_rows) {
            return None;
        }
        let tile = lo..(lo + self.tile_rows).min(self.spec.kind.tokens());
        let keys = match &self.keys {
            SessionKeys::Shared(planes) => KeySource::Planes(Arc::clone(planes)),
            SessionKeys::Grown(cache) => KeySource::Cache(cache.snapshot()),
            SessionKeys::Detached => unreachable!("detached sessions are finished"),
        };
        Some(QkBatchJob {
            queries: tile.map(|i| self.trace.queries().row(i)).collect(),
            keys,
            logit_scale: self.trace.logit_scale(),
        })
    }

    /// Completes the block whose job [`next_job`](Self::next_job) last
    /// handed out: `result` is the tile's engine result when that job was
    /// `Some`, `None` otherwise. Returns the cycles the block is charged —
    /// its tile's full cycle count, since PE rows run in parallel and a
    /// partial-height slice costs about one whole tile. For decode
    /// sessions the completed step appends its generated token's key
    /// planes, so the next step attends over the grown prefix.
    pub fn absorb(&mut self, result: Option<QkBlockResult>) -> Cycle {
        debug_assert!(!self.is_finished());
        debug_assert_eq!(
            result.is_some(),
            self.blocks[self.next_block].start.is_multiple_of(self.tile_rows)
        );
        if let Some(result) = result {
            self.tile_cycles = result.cycles;
            self.results.push(result);
        }
        self.next_block += 1;
        if let SessionKeys::Grown(cache) = &mut self.keys {
            if self.next_block < self.blocks.len() {
                let dims = self.spec.trace.head_dim;
                let target = self.spec.kind.context_len(self.spec.trace.seq_len, self.next_block);
                while cache.tokens() < target {
                    let row = cache.tokens();
                    let values = match &self.prompt_rows {
                        Some(rows) => &rows[row * dims..(row + 1) * dims],
                        None => self.trace.keys().row(row),
                    };
                    cache
                        .append_token(values)
                        .expect("generated key row decomposes into the cache");
                }
            }
        }
        self.tile_cycles
    }

    /// Hands a finished cache-managed session's grown planes back to the
    /// manager: the lease over shared index chunks is surrendered and the
    /// cache is stored for the session's next request (multi-turn
    /// resume). A no-op for sessions that were not admitted through a
    /// manager.
    ///
    /// # Panics
    ///
    /// Panics if the session still has blocks to run.
    pub fn detach_cache(&mut self, manager: &mut KvCacheManager) {
        assert!(self.is_finished(), "only finished sessions detach their caches");
        if !self.managed {
            return;
        }
        let SessionKeys::Grown(cache) = std::mem::replace(&mut self.keys, SessionKeys::Detached)
        else {
            unreachable!("managed sessions hold grown caches")
        };
        let prompt = self.spec.prompt.as_ref().expect("managed sessions carry prompts");
        // The store retains the id sequence; hand it the request's Arc
        // instead of letting it copy the ids eagerly.
        manager.detach(
            self.spec.session,
            prompt.shared_ids(),
            cache,
            self.lease.take().unwrap_or_default(),
        );
        self.managed = false;
    }

    /// Per-tile engine results, in tile order.
    #[must_use]
    pub fn results(&self) -> &[QkBlockResult] {
        &self.results
    }

    /// Consumes the session into its per-tile results.
    #[must_use]
    pub fn into_results(self) -> Vec<QkBlockResult> {
        self.results
    }
}

/// The operand trace of `spec`: prompt-keyed exactly when the request
/// carries a prompt, so a prompt request's keys are never drawn (its key
/// rows come from [`PromptTokens::key_rows`]).
///
/// # Panics
///
/// Panics if [`TraceConfig::prompt_keys`] disagrees with whether the
/// request carries a prompt.
///
/// [`PromptTokens::key_rows`]: pade_workload::prompt::PromptTokens::key_rows
/// [`TraceConfig::prompt_keys`]: pade_workload::trace::TraceConfig::prompt_keys
fn generate_trace(spec: &RequestArrival) -> AttentionTrace {
    assert_eq!(
        spec.trace.prompt_keys,
        spec.prompt.is_some(),
        "a request's trace is prompt-keyed exactly when it carries a prompt"
    );
    AttentionTrace::generate(&spec.trace)
}

/// Serializes per-block retained outputs into a canonical byte string —
/// the "per-request output bytes" the bit-identity property compares.
///
/// Layout per block, little-endian: for each query row a `u32` pair count
/// followed by `(u32 token, i64 score)` pairs in token order.
#[must_use]
pub fn output_bytes(results: &[QkBlockResult]) -> Vec<u8> {
    let mut out = Vec::new();
    for block in results {
        for row in &block.retained {
            out.extend_from_slice(&u32::try_from(row.len()).expect("row fits u32").to_le_bytes());
            for &(token, score) in row {
                out.extend_from_slice(&u32::try_from(token).expect("token fits u32").to_le_bytes());
                out.extend_from_slice(&score.to_le_bytes());
            }
        }
    }
    out
}

/// Runs every block of `spec` alone through the seed oracle
/// [`run_qk_block_reference`], re-decomposing the key prefix from scratch
/// with [`BitPlaneMatrix::from_rows`] at every block — the ground truth
/// the batched server's per-request outputs (and the growable caches'
/// incremental appends, shared or private) must match byte for byte.
/// Prompt-carrying requests re-derive their key rows from the prompt
/// token ids, exactly as admission does, so the oracle never touches a
/// cache of any kind.
///
/// [`run_qk_block_reference`]: pade_core::engine::run_qk_block_reference
#[must_use]
pub fn reference_outputs(spec: &RequestArrival, config: &PadeConfig) -> Vec<QkBlockResult> {
    let trace = generate_trace(spec);
    let (dims, seq_len) = (spec.trace.head_dim, spec.trace.seq_len);
    let (rows_per_block, blocks_total) = match spec.kind {
        RequestKind::Prefill { rows } => (config.pe_rows, rows.div_ceil(config.pe_rows)),
        RequestKind::Decode { steps } => (1, steps),
    };
    let total = spec.kind.tokens();
    let prompt_rows: Option<Vec<i8>> = spec.prompt.as_ref().map(|p| {
        assert_eq!(p.len(), seq_len, "prompt must cover the whole key context");
        p.key_rows(dims, config.bits)
    });
    let decompose_prefix = |prefix: usize| {
        let rows = match &prompt_rows {
            Some(rows) => &rows[..prefix * dims],
            None => trace.key_prefix(prefix),
        };
        BitPlaneMatrix::from_rows(rows, dims, config.bits)
            .expect("key prefix decomposes into bit planes")
    };
    // Prefill blocks all attend the same full context — decompose once;
    // decode steps attend a growing prefix — re-decompose per step.
    let whole = match spec.kind {
        RequestKind::Prefill { .. } => Some(decompose_prefix(seq_len)),
        RequestKind::Decode { .. } => None,
    };
    (0..blocks_total)
        .map(|b| {
            let grown;
            let keys = match &whole {
                Some(k) => k,
                None => {
                    grown = decompose_prefix(spec.kind.context_len(seq_len, b));
                    &grown
                }
            };
            let lo = b * rows_per_block;
            let queries: Vec<&[i8]> =
                (lo..(lo + rows_per_block).min(total)).map(|i| trace.queries().row(i)).collect();
            pade_core::engine::run_qk_block_reference(config, &queries, keys, trace.logit_scale())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pade_cache::CacheConfig;
    use pade_core::engine::run_qk_batch;
    use pade_quant::PlaneSource;
    use pade_workload::prompt::{generate_shared_prefix_arrivals, SharedPrefixConfig};
    use pade_workload::trace::{generate_arrivals, ArrivalConfig};

    const KV_CHUNK: usize = 64;

    fn specs() -> Vec<RequestArrival> {
        generate_arrivals(&ArrivalConfig::small_demo())
    }

    /// Requests with ragged and tile-aligned prefill heights.
    fn ragged_specs() -> Vec<RequestArrival> {
        [10, 16, 21]
            .into_iter()
            .flat_map(|prefill_rows| {
                generate_arrivals(&ArrivalConfig {
                    prefill_rows,
                    seq_len: 128,
                    ..ArrivalConfig::small_demo()
                })
            })
            .collect()
    }

    /// Every chunk setting: unset, each size in `1..=pe_rows` (divisors
    /// and non-divisors alike) and one past `pe_rows`, which clamps.
    fn chunk_sizes(config: &PadeConfig) -> impl Iterator<Item = Option<usize>> {
        std::iter::once(None).chain((1..=config.pe_rows + 1).map(Some))
    }

    #[test]
    fn prefill_chunks_by_pe_rows_and_decode_by_step() {
        let config = PadeConfig::standard();
        let pe = config.pe_rows;
        for chunk in chunk_sizes(&config) {
            let c = chunk.map_or(pe, |c| c.min(pe));
            for spec in ragged_specs() {
                let s = Session::admit(&spec, &config, KV_CHUNK, chunk, Cycle::ZERO, None);
                match spec.kind {
                    RequestKind::Prefill { rows } => {
                        // Each tile is sliced on its own: ⌈tile / c⌉ slices.
                        let tile_aligned: usize =
                            (0..rows).step_by(pe).map(|t| (rows - t).min(pe).div_ceil(c)).sum();
                        assert_eq!(s.blocks_total(), tile_aligned, "{rows} rows, chunk {chunk:?}");
                        assert_eq!(s.next_block_tokens(), rows.min(c));
                    }
                    RequestKind::Decode { steps } => {
                        assert_eq!(s.blocks_total(), steps);
                        assert_eq!(s.next_block_tokens(), 1);
                    }
                }
            }
        }
    }

    #[test]
    fn session_blocks_cover_every_query_row_once() {
        let config = PadeConfig::standard();
        let pe = config.pe_rows;
        // One multi-tile prefill per height, with its oracle outputs.
        let mut specs: Vec<_> = ragged_specs()
            .into_iter()
            .filter(|s| matches!(s.kind, RequestKind::Prefill { rows } if rows > pe))
            .collect();
        specs.dedup_by_key(|s| s.kind.tokens());
        assert_eq!(specs.len(), 3);
        let oracles: Vec<_> =
            specs.iter().map(|s| output_bytes(&reference_outputs(s, &config))).collect();
        for chunk in chunk_sizes(&config) {
            for (spec, oracle) in specs.iter().zip(&oracles) {
                let mut session = Session::admit(spec, &config, KV_CHUNK, chunk, Cycle::ZERO, None);
                let mut covered = Vec::new();
                while !session.is_finished() {
                    let rows = session.blocks[session.blocks_done()].clone();
                    assert_eq!(rows.start / pe, (rows.end - 1) / pe, "slice crosses a tile");
                    covered.extend(rows.clone());
                    // A job exactly at tile starts, carrying the whole tile.
                    let job = session.next_job();
                    assert_eq!(job.is_some(), rows.start.is_multiple_of(pe), "chunk {chunk:?}");
                    let result = job.map(|job| {
                        let tile = rows.start..(rows.start + pe).min(spec.kind.tokens());
                        assert_eq!(job.queries.len(), tile.len());
                        run_qk_batch(&config, &[job]).pop().unwrap()
                    });
                    let tile_cycles = result.as_ref().map(|r| r.cycles);
                    let charged = session.absorb(result);
                    if let Some(cycles) = tile_cycles {
                        assert_eq!(charged, cycles);
                    }
                }
                assert_eq!(covered, (0..spec.kind.tokens()).collect::<Vec<_>>());
                assert_eq!(&output_bytes(session.results()), oracle);
            }
        }
    }

    #[test]
    fn prefill_key_planes_are_shared_not_cloned() {
        let config = PadeConfig::standard();
        let spec =
            specs().into_iter().find(|s| matches!(s.kind, RequestKind::Prefill { .. })).unwrap();
        let session = Session::admit(&spec, &config, KV_CHUNK, None, Cycle::ZERO, None);
        let job_a = session.next_job().unwrap();
        let job_b = session.next_job().unwrap();
        match (&job_a.keys, &job_b.keys) {
            (KeySource::Planes(a), KeySource::Planes(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("prefill jobs must carry shared planes, got {other:?}"),
        }
    }

    #[test]
    fn decode_prefix_grows_one_key_per_completed_step() {
        let config = PadeConfig::standard();
        let spec =
            specs().into_iter().find(|s| matches!(s.kind, RequestKind::Decode { .. })).unwrap();
        let seq_len = spec.trace.seq_len;
        let mut session = Session::admit(&spec, &config, KV_CHUNK, None, Cycle::ZERO, None);
        let mut prefixes = Vec::new();
        while !session.is_finished() {
            let step = session.blocks_done();
            assert_eq!(session.cached_key_tokens(), spec.kind.context_len(seq_len, step));
            let job = session.next_job().unwrap();
            match &job.keys {
                KeySource::Cache(snap) => prefixes.push(snap.tokens()),
                other => panic!("decode jobs must carry cache snapshots, got {other:?}"),
            }
            let result = run_qk_batch(&config, &[job]).pop().unwrap();
            session.absorb(Some(result));
        }
        // One more key per step; the final step attends over the full
        // prefix minus the token it is itself generating.
        let expect: Vec<usize> =
            (0..spec.kind.tokens()).map(|t| spec.kind.context_len(seq_len, t)).collect();
        assert_eq!(prefixes, expect);
        assert_eq!(*prefixes.last().unwrap(), seq_len - 1);
        for w in prefixes.windows(2) {
            assert_eq!(w[1], w[0] + 1, "prefix grows by exactly one key per step");
        }
    }

    #[test]
    fn decode_session_matches_growing_oracle() {
        let config = PadeConfig::standard();
        let spec =
            specs().into_iter().find(|s| matches!(s.kind, RequestKind::Decode { .. })).unwrap();
        let mut session = Session::admit(&spec, &config, KV_CHUNK, None, Cycle::ZERO, None);
        while !session.is_finished() {
            let job = session.next_job().unwrap();
            let result = run_qk_batch(&config, &[job]).pop().unwrap();
            session.absorb(Some(result));
        }
        let oracle = reference_outputs(&spec, &config);
        assert_eq!(output_bytes(session.results()), output_bytes(&oracle));
    }

    #[test]
    fn prompt_sessions_never_draw_trace_keys() {
        let config = PadeConfig::standard();
        let arrivals = generate_shared_prefix_arrivals(&SharedPrefixConfig::small_demo());
        assert!(arrivals.iter().any(|r| matches!(r.kind, RequestKind::Prefill { .. })));
        assert!(arrivals.iter().any(|r| matches!(r.kind, RequestKind::Decode { .. })));
        // Served from scratch, then through a cache manager whose later
        // turns adopt cached prefixes and resume stored sessions.
        for managed in [false, true] {
            let mut manager = managed.then(|| {
                KvCacheManager::new(CacheConfig::new(64, config.bits, KV_CHUNK))
                    .expect("valid cache shape")
            });
            for spec in &arrivals {
                let mut session =
                    Session::admit(spec, &config, KV_CHUNK, None, Cycle::ZERO, manager.as_mut());
                while !session.is_finished() {
                    let result =
                        session.next_job().map(|job| run_qk_batch(&config, &[job]).pop().unwrap());
                    session.absorb(result);
                }
                assert!(!session.trace.keys_drawn(), "request {} drew K", spec.id);
                let oracle = reference_outputs(spec, &config);
                assert_eq!(output_bytes(session.results()), output_bytes(&oracle));
                if let Some(manager) = manager.as_mut() {
                    session.detach_cache(manager);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "prompt-keyed exactly when it carries a prompt")]
    fn admission_rejects_a_prompt_without_a_prompt_keyed_trace() {
        let mut spec =
            generate_shared_prefix_arrivals(&SharedPrefixConfig::small_demo()).swap_remove(0);
        spec.trace.prompt_keys = false;
        let _ = Session::admit(&spec, &PadeConfig::standard(), KV_CHUNK, None, Cycle::ZERO, None);
    }

    #[test]
    fn output_bytes_round_trip_distinguish_results() {
        let config = PadeConfig::standard();
        let all = specs();
        let a = reference_outputs(&all[0], &config);
        let b = reference_outputs(&all[1], &config);
        assert_eq!(output_bytes(&a), output_bytes(&a));
        assert_ne!(output_bytes(&a), output_bytes(&b));
        assert!(!output_bytes(&a).is_empty());
    }
}
