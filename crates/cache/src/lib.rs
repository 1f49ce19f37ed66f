//! `pade-cache` — cross-request prefix-sharing KV plane cache manager
//! with budgeted eviction and session persistence.
//!
//! PADE's decomposed bit-plane keys are cheap to score but expensive to
//! rebuild, so at serving scale the planes themselves are the asset to
//! manage. This crate manages them *across requests*, one level above
//! the per-session [`GrowableKeyCache`](pade_quant::GrowableKeyCache)
//! that PR 3 introduced:
//!
//! * [`PrefixIndex`] — a radix tree over hashed token-id chunks (chunk
//!   granularity aligned to the serving layer's `kv_chunk_tokens`). An
//!   incoming prompt resolves to its longest cached chunk-aligned
//!   prefix; hits adopt the sealed `Arc<BitPlaneMatrix>` chunks already
//!   produced by earlier requests and **skip decomposition entirely** —
//!   only the unseen suffix is decomposed, and its full chunks are
//!   published for the next request.
//! * [`SessionStore`] — keeps a session's grown cache alive between that
//!   session's requests, so a multi-turn conversation resumes its
//!   context instead of re-decomposing history.
//! * [`CacheBudget`] — a byte-accounted cap on resident planes with
//!   deterministic LRU eviction of unreferenced sealed chunks (leaf
//!   first, so the index stays reachable) and idle stored sessions.
//!   Chunks leased by live sessions are never eviction candidates.
//! * [`KvCacheManager`] — ties the three together behind
//!   [`attach`](KvCacheManager::attach)/[`detach`](KvCacheManager::detach)
//!   and counts [`CacheStats`] (hit/decomposed tokens, evictions). A
//!   warm manager persists across serve runs through
//!   [`save_to`](KvCacheManager::save_to)/[`load_from`](KvCacheManager::load_from)
//!   (a versioned binary image: a header, the index as a stream of
//!   [`ChunkRecord`]s and the session store's planes, all through
//!   [`pade_tier::wire`]), and
//!   [`predicted_hit_tokens`](KvCacheManager::predicted_hit_tokens) is
//!   the read-only probe behind hit-aware admission ordering.
//! * [`prefix_shard_key`] — the deterministic routing hash of a prompt's
//!   leading chunks, folded with the same path-dependent key the index
//!   addresses its nodes with; a multi-node router uses it to send
//!   requests that would share chunks to the node that holds them.
//! * **Spill tier** — an optional [`pade_tier::TierStore`] installed via
//!   [`set_tier`](KvCacheManager::set_tier): budget-evicted sealed chunks
//!   are demoted into it instead of dropped, the attach prefix walk
//!   fetches them back (pure word parsing, no decomposition) and
//!   [`export_prefix_path`](KvCacheManager::export_prefix_path)/
//!   [`import_chunk_records`](KvCacheManager::import_chunk_records) move
//!   content-addressed chunk records between managers — the building
//!   blocks of peer shard fetch, replication and migration. Index nodes
//!   hold their chunk as a [`ChunkRecord`], and every record entering the
//!   index — fetched, imported or loaded — passes the same validation
//!   (shape, content key, resident parent).
//!
//! Two invariants make the manager safe to put on the serving path:
//!
//! 1. **Bit-identity** — an attached cache is byte-identical to a
//!    from-scratch decomposition of the same key rows, at every chunk
//!    granularity, whether the tokens came from the index, a resumed
//!    session or fresh decomposition (property-tested in `tests/`
//!    against the seed oracle).
//! 2. **Determinism** — equal attach/detach sequences produce equal hit
//!    and eviction sequences: hash-map state is only ever reduced with
//!    order-independent folds, and LRU ties break on unique sequence
//!    numbers.
//!
//! # Example
//!
//! ```
//! use pade_cache::{CacheConfig, KvCacheManager};
//! use pade_quant::PlaneSource;
//!
//! let mut manager = KvCacheManager::new(CacheConfig::new(4, 8, 2)).unwrap();
//! let ids = [7u32, 7, 9, 2];
//! let rows: Vec<i8> = ids.iter().flat_map(|&t| (0..4).map(move |d| (t as i8) * 3 + d)).collect();
//! let first = manager.attach(1, &ids, &rows).unwrap();
//! assert_eq!((first.hit_tokens, first.decomposed_tokens), (0, 4));
//! // A second request with the same prompt hits every full chunk.
//! let second = manager.attach(2, &ids, &rows).unwrap();
//! assert_eq!((second.hit_tokens, second.decomposed_tokens), (4, 0));
//! assert_eq!(second.cache.snapshot().tokens(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod index;
mod manager;
mod persist;
mod store;

pub use budget::CacheBudget;
pub use index::{prefix_shard_key, PrefixIndex};
pub use manager::{Attached, CacheConfig, CacheLease, CacheStats, KvCacheManager};
// Downstream crates configure and inspect the spill tier through the
// manager, so its vocabulary types ship from here too.
pub use pade_tier::{ChunkRecord, TierConfig, TierStore};
pub use store::SessionStore;
