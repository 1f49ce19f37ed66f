//! Growable per-session key plane caches.
//!
//! PADE's predictor-free filtering re-reads the same key bit planes on
//! every decode step, so a serving stack must *grow* a session's plane
//! tensor incrementally instead of re-decomposing the whole prefix each
//! step — the cross-stage reuse that stage fusion exploits across the
//! time axis. The storage here is **chunked and append-only**:
//!
//! * sealed chunks are immutable [`BitPlaneMatrix`] blocks of exactly
//!   `chunk_tokens` tokens, held behind [`Arc`] — appending never moves,
//!   reallocates or invalidates a sealed chunk, so every snapshot handed
//!   to an in-flight engine block stays valid (and cheap: one refcount
//!   per chunk) while the session keeps growing;
//! * the open tail is itself a [`BitPlaneMatrix`]: appended tokens are
//!   decomposed straight into its flat word store, and when it reaches
//!   `chunk_tokens` it is moved out whole (no copy) as the next sealed
//!   chunk.
//!
//! [`GrowableKeyCache::snapshot`] freezes the current prefix into a
//! [`KeyCacheSnapshot`]: the sealed chunks by reference plus a clone of
//! the tail (two flat vectors). A snapshot implements [`PlaneSource`], so
//! the engine runs over it exactly as over a from-scratch
//! [`BitPlaneMatrix`] — and because appends go through the same
//! [`BitPlaneMatrix::append_rows`] that [`BitPlaneMatrix::from_rows`]
//! uses, N incremental appends produce **byte-identical** engine outputs
//! to a from-scratch decomposition of the same N tokens (property-tested
//! in `tests/properties.rs` and `pade-core`'s suite).

use std::sync::Arc;

use pade_trace::{Cycle, Tracer};

use crate::bitplane::{BitPlaneMatrix, TokenPlanes};
use crate::QuantError;

/// Read-only access to a key tensor's bit planes, however they are stored.
///
/// Implemented by the monolithic [`BitPlaneMatrix`], by [`Arc`]-shared
/// tensors and by chunked [`KeyCacheSnapshot`]s; the engine's hot path is
/// generic over this trait, so optimized storage never forks the kernel.
pub trait PlaneSource {
    /// Number of tokens (rows).
    fn tokens(&self) -> usize;
    /// Number of hidden dimensions per token.
    fn dims(&self) -> usize;
    /// Bit width of the decomposition.
    fn bits(&self) -> u32;
    /// All planes of token `j`, as a view into the backing store.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.tokens()`.
    fn token(&self, j: usize) -> TokenPlanes<'_>;
    /// Bytes occupied by a single bit plane of a single token, rounded up
    /// to whole bytes (what one OOE bit-plane fetch transfers).
    fn plane_bytes(&self) -> usize {
        self.dims().div_ceil(8)
    }
}

impl PlaneSource for BitPlaneMatrix {
    fn tokens(&self) -> usize {
        BitPlaneMatrix::tokens(self)
    }
    fn dims(&self) -> usize {
        BitPlaneMatrix::dims(self)
    }
    fn bits(&self) -> u32 {
        BitPlaneMatrix::bits(self)
    }
    fn token(&self, j: usize) -> TokenPlanes<'_> {
        BitPlaneMatrix::token(self, j)
    }
    fn plane_bytes(&self) -> usize {
        BitPlaneMatrix::plane_bytes(self)
    }
}

impl<K: PlaneSource + ?Sized> PlaneSource for &K {
    fn tokens(&self) -> usize {
        (**self).tokens()
    }
    fn dims(&self) -> usize {
        (**self).dims()
    }
    fn bits(&self) -> u32 {
        (**self).bits()
    }
    fn token(&self, j: usize) -> TokenPlanes<'_> {
        (**self).token(j)
    }
    fn plane_bytes(&self) -> usize {
        (**self).plane_bytes()
    }
}

impl<K: PlaneSource + ?Sized> PlaneSource for Arc<K> {
    fn tokens(&self) -> usize {
        (**self).tokens()
    }
    fn dims(&self) -> usize {
        (**self).dims()
    }
    fn bits(&self) -> u32 {
        (**self).bits()
    }
    fn token(&self, j: usize) -> TokenPlanes<'_> {
        (**self).token(j)
    }
    fn plane_bytes(&self) -> usize {
        (**self).plane_bytes()
    }
}

/// Append-only, chunked bit-plane storage for one session's key cache.
///
/// # Example
///
/// ```
/// use pade_quant::{BitPlaneMatrix, GrowableKeyCache, PlaneSource};
///
/// let rows: Vec<i8> = vec![5, -5, 7, -8, 1, 2];
/// let mut cache = GrowableKeyCache::new(2, 4, 2).unwrap();
/// cache.append_rows(&rows).unwrap();
/// let snap = cache.snapshot();
/// let scratch = BitPlaneMatrix::from_rows(&rows, 2, 4).unwrap();
/// assert_eq!(snap.tokens(), 3);
/// for j in 0..3 {
///     assert_eq!(snap.token(j), scratch.token(j));
/// }
/// ```
#[derive(Debug)]
pub struct GrowableKeyCache {
    dims: usize,
    bits: u32,
    chunk_tokens: usize,
    sealed: Vec<Arc<BitPlaneMatrix>>,
    /// The open chunk, fewer than `chunk_tokens` tokens.
    tail: BitPlaneMatrix,
    /// Telemetry hookup: `(tracer, track)`. Events are stamped with the
    /// cache's token count (monotonic under append-only growth). A pure
    /// side channel — storage and decomposition never read it.
    trace: Option<(Tracer, u64)>,
}

impl Clone for GrowableKeyCache {
    /// Clones the stored planes but **not** the telemetry hookup: a track
    /// is owned by exactly one emitter, and a clone diverging from the
    /// original would interleave non-monotonic clocks on it.
    fn clone(&self) -> Self {
        Self {
            dims: self.dims,
            bits: self.bits,
            chunk_tokens: self.chunk_tokens,
            sealed: self.sealed.clone(),
            tail: self.tail.clone(),
            trace: None,
        }
    }
}

impl GrowableKeyCache {
    /// An empty cache for `dims`-wide, `bits`-bit tokens, sealing chunks of
    /// `chunk_tokens` tokens.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedWidth`] for a width outside `2..=8`
    /// and [`QuantError::DimensionMismatch`] for `chunk_tokens == 0` or
    /// `dims` of 0 or past [`BitPlaneMatrix::MAX_DIMS`].
    pub fn new(dims: usize, bits: u32, chunk_tokens: usize) -> Result<Self, QuantError> {
        BitPlaneMatrix::check_shape(dims, bits)?;
        if chunk_tokens == 0 {
            return Err(QuantError::DimensionMismatch { expected: 1, actual: 0 });
        }
        let tail = BitPlaneMatrix::with_capacity(dims, bits, 0);
        Ok(Self { dims, bits, chunk_tokens, sealed: Vec::new(), tail, trace: None })
    }

    /// Binds this cache's telemetry to `track` of `tracer`. Appends and
    /// chunk seals record onto that track from now on; outputs are
    /// unaffected.
    pub fn set_trace(&mut self, tracer: Tracer, track: u64) {
        self.trace = if tracer.is_active() { Some((tracer, track)) } else { None };
    }

    /// A cache pre-populated with already-sealed chunks — the reuse path
    /// of a prefix-sharing cache manager: chunks resolved from a shared
    /// index are adopted by `Arc` clone (no decomposition, no copy) and
    /// the cache keeps growing past them with
    /// [`append_token`](Self::append_token)/[`append_rows`](Self::append_rows).
    ///
    /// # Errors
    ///
    /// Returns the same shape errors as [`GrowableKeyCache::new`], plus —
    /// per offending field, so the diagnostic names the actual mismatch —
    /// [`QuantError::DimensionMismatch`] when any chunk's token count is
    /// not exactly `chunk_tokens` (sealed chunks are full by
    /// construction; a short chunk would silently corrupt token
    /// addressing) or its `dims` differ, and
    /// [`QuantError::UnsupportedWidth`] carrying the chunk's width when
    /// its `bits` differ from the cache's.
    pub fn from_chunks(
        chunks: Vec<Arc<BitPlaneMatrix>>,
        dims: usize,
        bits: u32,
        chunk_tokens: usize,
    ) -> Result<Self, QuantError> {
        let mut cache = Self::new(dims, bits, chunk_tokens)?;
        for chunk in &chunks {
            if chunk.tokens() != chunk_tokens {
                return Err(QuantError::DimensionMismatch {
                    expected: chunk_tokens,
                    actual: chunk.tokens(),
                });
            }
            if chunk.dims() != dims {
                return Err(QuantError::DimensionMismatch { expected: dims, actual: chunk.dims() });
            }
            if chunk.bits() != bits {
                return Err(QuantError::UnsupportedWidth { bits: chunk.bits() });
            }
        }
        cache.sealed = chunks;
        Ok(cache)
    }

    /// Number of hidden dimensions per token.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bit width of the decomposition.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Tokens per sealed chunk.
    #[must_use]
    pub fn chunk_tokens(&self) -> usize {
        self.chunk_tokens
    }

    /// Total tokens appended so far.
    #[must_use]
    pub fn tokens(&self) -> usize {
        self.sealed.len() * self.chunk_tokens + self.tail.tokens()
    }

    /// The sealed (immutable, `Arc`-shared) chunks, oldest first. Exposed
    /// so a cache manager can refcount, deduplicate and bill chunks
    /// without reaching into the storage internals; cloning an element
    /// clones an `Arc`, never planes.
    #[must_use]
    pub fn sealed_chunks(&self) -> &[Arc<BitPlaneMatrix>] {
        &self.sealed
    }

    /// Tokens still in the open (unsealed) tail.
    #[must_use]
    pub fn tail_tokens(&self) -> usize {
        self.tail.tokens()
    }

    /// Heap bytes held by the packed plane words of every resident token
    /// (sealed chunks plus the open tail) — the quantity a byte-accounted
    /// cache budget bills for this cache.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        let sealed: usize = self.sealed.iter().map(|c| c.resident_bytes()).sum();
        sealed + self.tail_resident_bytes()
    }

    /// Heap bytes of the open tail alone — the part of
    /// [`resident_bytes`](Self::resident_bytes) never shared with other
    /// caches, so a deduplicating accountant bills it unconditionally.
    #[must_use]
    pub fn tail_resident_bytes(&self) -> usize {
        self.tail.resident_bytes()
    }

    /// Decomposes and appends one token's values — the per-decode-step
    /// growth operation. Cost is `O(dims · bits)` regardless of how many
    /// tokens the cache already holds; no existing chunk is touched.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DimensionMismatch`] when `values.len()`
    /// differs from the cache width.
    pub fn append_token(&mut self, values: &[i8]) -> Result<(), QuantError> {
        if values.len() != self.dims {
            return Err(QuantError::DimensionMismatch {
                expected: self.dims,
                actual: values.len(),
            });
        }
        if self.tail.tokens() == 0 {
            // A sealed chunk keeps exactly the words it bills.
            self.tail.reserve_exact(self.chunk_tokens);
        }
        self.tail.append_rows(values)?;
        if self.tail.tokens() == self.chunk_tokens {
            let seal_wall = self.trace.is_some().then(std::time::Instant::now);
            let empty = BitPlaneMatrix::with_capacity(self.dims, self.bits, 0);
            self.sealed.push(Arc::new(std::mem::replace(&mut self.tail, empty)));
            if let (Some((tracer, track)), Some(t0)) = (&self.trace, seal_wall) {
                let clock = Cycle(self.tokens() as u64);
                tracer.span_at(
                    *track,
                    "quant.seal_chunk",
                    clock,
                    clock,
                    t0.elapsed().as_nanos() as u64,
                );
                tracer.count(*track, "quant.sealed_tokens", clock, self.chunk_tokens as u64);
            }
        }
        Ok(())
    }

    /// Appends a row-major block of tokens (e.g. the prompt prefix at
    /// admission).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DimensionMismatch`] when `data.len()` is not a
    /// multiple of the cache width (no rows are appended in that case).
    pub fn append_rows(&mut self, data: &[i8]) -> Result<(), QuantError> {
        if !data.len().is_multiple_of(self.dims) {
            return Err(QuantError::DimensionMismatch { expected: self.dims, actual: data.len() });
        }
        let wall = self.trace.is_some().then(std::time::Instant::now);
        let rows = data.len() / self.dims;
        for row in data.chunks(self.dims) {
            self.append_token(row)?;
        }
        if let (Some((tracer, track)), Some(t0)) = (&self.trace, wall) {
            // Zero-length span at the *post-append* token count: any seal
            // events emitted by the loop carry earlier (or equal) clocks,
            // keeping the track monotone.
            let clock = Cycle(self.tokens() as u64);
            tracer.span_at(
                *track,
                "quant.append_rows",
                clock,
                clock,
                t0.elapsed().as_nanos() as u64,
            );
            tracer.count(*track, "quant.tokens_appended", clock, rows as u64);
        }
        Ok(())
    }

    /// Freezes the current prefix into an immutable snapshot: sealed
    /// chunks by reference (one `Arc` clone each), the open tail cloned
    /// into one short chunk. Later appends never invalidate a snapshot.
    #[must_use]
    pub fn snapshot(&self) -> KeyCacheSnapshot {
        let mut chunks = self.sealed.clone();
        if self.tail.tokens() > 0 {
            chunks.push(Arc::new(self.tail.clone()));
        }
        KeyCacheSnapshot {
            chunks,
            chunk_tokens: self.chunk_tokens,
            tokens: self.tokens(),
            dims: self.dims,
            bits: self.bits,
        }
    }
}

/// An immutable view of a [`GrowableKeyCache`] prefix: the sealed chunks
/// plus a frozen copy of the tail, addressable as one contiguous token
/// range through [`PlaneSource`].
///
/// Cloning a snapshot clones `Arc`s, not planes, so dispatching one to
/// many engine blocks or worker threads is cheap.
#[derive(Debug, Clone)]
pub struct KeyCacheSnapshot {
    chunks: Vec<Arc<BitPlaneMatrix>>,
    chunk_tokens: usize,
    tokens: usize,
    dims: usize,
    bits: u32,
}

impl KeyCacheSnapshot {
    /// Number of storage chunks behind the snapshot.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The `i`-th backing chunk (sealed chunks first, frozen tail last).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.chunks()`.
    #[must_use]
    pub fn chunk(&self, i: usize) -> &Arc<BitPlaneMatrix> {
        &self.chunks[i]
    }

    /// Heap bytes held by the packed plane words behind the snapshot
    /// (every backing chunk, including the frozen tail). Chunks shared
    /// with other snapshots or a cache manager are billed here too — the
    /// deduplicated accounting lives in the manager, which sees the
    /// `Arc` identities via [`KeyCacheSnapshot::chunk`].
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.resident_bytes()).sum()
    }

    /// Copies the snapshot into one contiguous [`BitPlaneMatrix`] — the
    /// from-scratch form, for equality checks and tests.
    #[must_use]
    pub fn materialize(&self) -> BitPlaneMatrix {
        let mut all = BitPlaneMatrix::with_capacity(self.dims, self.bits, self.tokens);
        for chunk in &self.chunks {
            all.extend_from(chunk);
        }
        all
    }
}

impl PlaneSource for KeyCacheSnapshot {
    fn tokens(&self) -> usize {
        self.tokens
    }
    fn dims(&self) -> usize {
        self.dims
    }
    fn bits(&self) -> u32 {
        self.bits
    }
    fn token(&self, j: usize) -> TokenPlanes<'_> {
        assert!(j < self.tokens, "token {j} out of bounds ({} tokens)", self.tokens);
        self.chunks[j / self.chunk_tokens].token(j % self.chunk_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize, dims: usize, seed: u64) -> Vec<i8> {
        (0..n * dims)
            .map(|i| {
                let h = seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                (h >> 40) as u8 as i8
            })
            .collect()
    }

    #[test]
    fn appends_match_from_scratch_decomposition() {
        let dims = 9;
        let data = rows(23, dims, 3);
        let mut cache = GrowableKeyCache::new(dims, 8, 4).unwrap();
        for row in data.chunks(dims) {
            cache.append_token(row).unwrap();
        }
        let scratch = BitPlaneMatrix::from_rows(&data, dims, 8).unwrap();
        let snap = cache.snapshot();
        assert_eq!(PlaneSource::tokens(&snap), 23);
        assert_eq!(snap.materialize(), scratch);
        for j in 0..23 {
            assert_eq!(PlaneSource::token(&snap, j), scratch.token(j), "token {j}");
        }
    }

    #[test]
    fn sealed_chunks_survive_later_appends() {
        let dims = 4;
        let mut cache = GrowableKeyCache::new(dims, 8, 2).unwrap();
        cache.append_rows(&rows(4, dims, 7)).unwrap();
        let early = cache.snapshot();
        assert_eq!(cache.sealed_chunks().len(), 2);
        cache.append_rows(&rows(6, dims, 11)).unwrap();
        let late = cache.snapshot();
        // The early snapshot still reads the same planes, and the sealed
        // chunks are literally shared, not copied.
        assert_eq!(PlaneSource::tokens(&early), 4);
        assert_eq!(PlaneSource::tokens(&late), 10);
        for i in 0..2 {
            assert!(Arc::ptr_eq(early.chunk(i), late.chunk(i)), "chunk {i} must be shared");
        }
        for j in 0..4 {
            assert_eq!(PlaneSource::token(&early, j), PlaneSource::token(&late, j));
        }
    }

    #[test]
    fn tail_snapshot_is_frozen_against_growth() {
        let dims = 3;
        let mut cache = GrowableKeyCache::new(dims, 8, 8).unwrap();
        cache.append_rows(&rows(3, dims, 1)).unwrap();
        let snap = cache.snapshot();
        cache.append_rows(&rows(2, dims, 2)).unwrap();
        assert_eq!(PlaneSource::tokens(&snap), 3);
        assert_eq!(cache.tokens(), 5);
    }

    #[test]
    fn shape_errors_are_reported() {
        assert!(GrowableKeyCache::new(4, 1, 8).is_err());
        assert!(GrowableKeyCache::new(4, 9, 8).is_err());
        assert!(GrowableKeyCache::new(0, 8, 8).is_err());
        assert!(GrowableKeyCache::new(4, 8, 0).is_err());
        let mut cache = GrowableKeyCache::new(4, 8, 8).unwrap();
        assert!(cache.append_token(&[1, 2, 3]).is_err());
        assert!(cache.append_rows(&[1, 2, 3, 4, 5]).is_err());
        assert_eq!(cache.tokens(), 0);
    }

    #[test]
    fn from_chunks_adopts_sealed_chunks_without_copying() {
        let dims = 4;
        let data = rows(8, dims, 5);
        let mut donor = GrowableKeyCache::new(dims, 8, 4).unwrap();
        donor.append_rows(&data).unwrap();
        let chunks: Vec<Arc<BitPlaneMatrix>> = donor.sealed_chunks().to_vec();
        assert_eq!(chunks.len(), 2);

        let mut adopted = GrowableKeyCache::from_chunks(chunks.clone(), dims, 8, 4).unwrap();
        assert_eq!(adopted.tokens(), 8);
        for (a, b) in adopted.sealed_chunks().iter().zip(&chunks) {
            assert!(Arc::ptr_eq(a, b), "adoption must share, not copy");
        }
        // Growth continues past the adopted prefix with identical planes.
        let extra = rows(3, dims, 9);
        adopted.append_rows(&extra).unwrap();
        let mut all = data.clone();
        all.extend_from_slice(&extra);
        let scratch = BitPlaneMatrix::from_rows(&all, dims, 8).unwrap();
        assert_eq!(adopted.snapshot().materialize(), scratch);
    }

    #[test]
    fn from_chunks_rejects_short_or_misshapen_chunks() {
        let dims = 4;
        let full = Arc::new(BitPlaneMatrix::from_rows(&rows(4, dims, 1), dims, 8).unwrap());
        let short = Arc::new(BitPlaneMatrix::from_rows(&rows(3, dims, 1), dims, 8).unwrap());
        let narrow = Arc::new(BitPlaneMatrix::from_rows(&rows(4, 3, 1), 3, 8).unwrap());
        assert!(GrowableKeyCache::from_chunks(vec![full.clone()], dims, 8, 4).is_ok());
        assert!(GrowableKeyCache::from_chunks(vec![short], dims, 8, 4).is_err());
        assert!(GrowableKeyCache::from_chunks(vec![narrow], dims, 8, 4).is_err());
        assert!(GrowableKeyCache::from_chunks(vec![full], dims, 4, 4).is_err());
    }

    #[test]
    fn resident_bytes_bill_sealed_and_tail_tokens() {
        let dims = 70usize; // 2 words per plane: exercises the div_ceil path
        let bits = 8u32;
        let per_token = bits as usize * dims.div_ceil(64) * 8;
        let mut cache = GrowableKeyCache::new(dims, bits, 4).unwrap();
        assert_eq!(cache.resident_bytes(), 0);
        cache.append_rows(&rows(6, dims, 3)).unwrap();
        assert_eq!(cache.tail_tokens(), 2);
        assert_eq!(cache.resident_bytes(), 6 * per_token);
        let snap = cache.snapshot();
        assert_eq!(snap.resident_bytes(), 6 * per_token);
        assert_eq!(snap.materialize().resident_bytes(), 6 * per_token);
    }

    #[test]
    fn empty_cache_snapshots_to_zero_tokens() {
        let cache = GrowableKeyCache::new(4, 8, 8).unwrap();
        let snap = cache.snapshot();
        assert_eq!(PlaneSource::tokens(&snap), 0);
        assert_eq!(snap.chunks(), 0);
        assert_eq!(PlaneSource::plane_bytes(&snap), 1);
    }
}
