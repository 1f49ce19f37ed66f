//! Versioned binary persistence of a [`KvCacheManager`]'s warm state.
//!
//! A serve run ends with a prefix index full of decomposed shared
//! prefixes and a session store full of resumable conversations — state
//! that is expensive to rebuild. [`KvCacheManager::save_to`] writes it as
//! a hand-rolled binary image (the environment has no serde) built from
//! the same pieces the spill tier and peer transfer use:
//!
//! 1. a header: magic, [`VERSION`], and the manager shape (dims, bits,
//!    chunk tokens);
//! 2. the prefix index as a count plus a stream of
//!    [`pade_tier::write_chunk`] records, parents before children;
//! 3. the session store as a count plus, per session in ascending id
//!    order, the session id, its covered token ids, how many of its
//!    leading sealed chunks are the index's own allocations, and the
//!    planes of the rest — its private sealed chunks, then the open tail
//!    when there is one — each through [`wire::write_planes`].
//!
//! Every plane is stored as packed words, so nothing is re-decomposed on
//! load. [`KvCacheManager::load_from`] adopts each index record through
//! the same validated path as a tier fetch or a peer import (shape,
//! content key, resident parent); any refusal fails the load. Stored
//! sessions re-adopt exactly their recorded shared chunks by `Arc` from
//! the restored index, so sharing and deduplicated billing match the
//! saved manager, and the open tail is re-appended from the rows its
//! planes encode, landing on the same bytes. Only the current
//! [`VERSION`] loads; older images are `InvalidData`.
//!
//! What is deliberately *not* persisted: leases (transient claims of live
//! sessions — a saved manager must be quiescent), running [`CacheStats`]
//! (a new run starts its own counters) and LRU clocks (restored entries
//! are re-aged in file order, which is itself deterministic). The budget
//! comes from the *loading* configuration, not the file, and is enforced
//! once after the replay.
//!
//! [`CacheStats`]: crate::CacheStats

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use pade_quant::{BitPlaneMatrix, GrowableKeyCache};
use pade_tier::{read_chunk, wire, write_chunk};

use crate::index::chunk_key;
use crate::manager::{CacheConfig, CacheStats, KvCacheManager};

/// File magic: `PADEKVC` + a format byte.
const MAGIC: [u8; 8] = *b"PADEKVC\x01";
/// The image format version; bump on any layout change. It is the only
/// version [`KvCacheManager::load_from`] accepts.
const VERSION: u32 = 3;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reassembles the row-major i8 key rows a plane chunk was decomposed
/// from — re-appending them decomposes to the same bytes.
fn chunk_rows(planes: &BitPlaneMatrix) -> Vec<i8> {
    let mut rows = Vec::with_capacity(planes.tokens() * planes.dims());
    for j in 0..planes.tokens() {
        rows.extend(planes.token(j).reconstruct().into_iter().map(|v| v as i8));
    }
    rows
}

impl KvCacheManager {
    /// Writes the manager's warm state (prefix index + session store) to
    /// `path` as a versioned binary image. The manager should be
    /// quiescent — outstanding leases are not recorded and simply lapse
    /// on restore.
    ///
    /// The write is atomic: the image is streamed to a `.tmp` sibling,
    /// synced to disk and only then renamed over `path`, so a crash or
    /// full disk mid-save can never leave a truncated image that bricks
    /// every later warm start (the loader treats corrupt files as
    /// hard errors by design).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating, writing, syncing or renaming.
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension(match path.extension() {
            Some(ext) => format!("{}.tmp", ext.to_string_lossy()),
            None => "tmp".to_string(),
        });
        self.save_image(&tmp)?;
        std::fs::rename(&tmp, path)
    }

    /// Streams the image to exactly `path` and syncs it (the non-atomic
    /// inner write).
    fn save_image(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&MAGIC)?;
        wire::write_u32(&mut w, VERSION)?;
        wire::write_u32(&mut w, u32::try_from(self.config.dims).map_err(|_| invalid("dims"))?)?;
        wire::write_u32(&mut w, self.config.bits)?;
        wire::write_u32(
            &mut w,
            u32::try_from(self.config.chunk_tokens).map_err(|_| invalid("chunk_tokens"))?,
        )?;

        let nodes = self.index.export_nodes();
        wire::write_u64(&mut w, nodes.len() as u64)?;
        for record in nodes {
            write_chunk(&mut w, record)?;
        }

        // A session covers `ids.len() / chunk_tokens` sealed chunks and a
        // tail of the remaining tokens. Its leading sealed chunks that are
        // the index's own allocations are only counted — the loader
        // re-adopts them from the restored index — and the rest of its
        // planes are written out, so restored sharing (and billing) is
        // exactly the saved one.
        let sessions = self.store.export_sessions();
        wire::write_u64(&mut w, sessions.len() as u64)?;
        for (session, ids, cache) in sessions {
            let mut parent = None;
            let shared = ids
                .chunks_exact(self.config.chunk_tokens)
                .zip(cache.sealed_chunks())
                .take_while(|&(chunk_ids, planes)| {
                    let key = chunk_key(parent, chunk_ids);
                    parent = Some(key);
                    self.index.peek_node(key).is_some_and(|rec| Arc::ptr_eq(&rec.planes, planes))
                })
                .count();
            wire::write_u64(&mut w, session)?;
            wire::write_ids(&mut w, ids)?;
            wire::write_u64(&mut w, shared as u64)?;
            let snap = cache.snapshot();
            for c in shared..snap.chunks() {
                wire::write_planes(&mut w, snap.chunk(c))?;
            }
        }
        w.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()
    }

    /// Loads a warm manager from `path`. The file's shape (dims, bits,
    /// chunk tokens) must match `config` exactly — a cache image is only
    /// meaningful for the decomposition it was built under; the budget is
    /// taken from `config` and enforced once after the replay.
    ///
    /// Restored planes are byte-identical to the saved ones, and restored
    /// sessions re-adopt the prefix chunks they shared with the index by
    /// `Arc` (the loader resolves each session's covered ids against the
    /// restored index, so the index/store sharing — and therefore
    /// deduplicated residency — survives the round trip).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] for a bad magic, any version
    /// other than the current one, a shape mismatch or an inconsistent
    /// image (an index record the manager refuses to adopt, a session
    /// sharing chunks the restored index lacks), and propagates I/O
    /// errors — including a short read from a truncated file.
    pub fn load_from(path: &Path, config: CacheConfig) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(invalid("not a PADE KV cache image"));
        }
        let version = wire::read_u32(&mut r)?;
        if version != VERSION {
            return Err(invalid(format!("unsupported cache image version {version}")));
        }
        let dims = wire::read_u32(&mut r)? as usize;
        let bits = wire::read_u32(&mut r)?;
        let chunk_tokens = wire::read_u32(&mut r)? as usize;
        if dims != config.dims || bits != config.bits || chunk_tokens != config.chunk_tokens {
            return Err(invalid(format!(
                "cache image shape {dims}x{bits}b/{chunk_tokens} differs from configured \
                 {}x{}b/{}",
                config.dims, config.bits, config.chunk_tokens
            )));
        }
        let mut manager = Self::new(config).map_err(|e| invalid(format!("invalid shape: {e}")))?;

        // Index records arrive parents first, so each one's parent is
        // already resident when it is adopted.
        for _ in 0..wire::read_u64(&mut r)? {
            let record = read_chunk(&mut r)?;
            manager.tick += 1;
            manager.adopt(record).map_err(|refusal| {
                invalid(format!("cache image holds an unadoptable chunk ({refusal:?})"))
            })?;
        }

        // Stored sessions: the recorded leading chunks are re-adopted by
        // `Arc` from the restored index, the rest stay private.
        for _ in 0..wire::read_u64(&mut r)? {
            let session = wire::read_u64(&mut r)?;
            let ids = wire::read_ids(&mut r)?;
            let shared = wire::read_u64(&mut r)?;
            manager.tick += 1;
            let mut sealed = manager.index.resolve(&ids, chunk_tokens, manager.tick).chunks;
            if shared > sealed.len() as u64 {
                return Err(invalid("cache image session shares chunks the index lacks"));
            }
            sealed.truncate(shared as usize);
            for _ in sealed.len()..ids.len() / chunk_tokens {
                sealed.push(Arc::new(wire::read_planes(&mut r, dims, bits)?));
            }
            let mut cache = GrowableKeyCache::from_chunks(sealed, dims, bits, chunk_tokens)
                .map_err(|e| invalid(format!("cache image session chunks malformed: {e}")))?;
            let tail_tokens = ids.len() % chunk_tokens;
            if tail_tokens > 0 {
                let tail = wire::read_planes(&mut r, dims, bits)?;
                if tail.tokens() != tail_tokens {
                    return Err(invalid("cache image session tail has a wrong token count"));
                }
                cache.append_rows(&chunk_rows(&tail)).map_err(|e| {
                    invalid(format!("cache image session tail does not decompose: {e}"))
                })?;
            }
            manager.residency.track_cache(&cache);
            if manager.store.insert(session, ids.into(), cache, manager.tick).is_some() {
                return Err(invalid("cache image stores a session twice"));
            }
        }

        // The replay's adoptions are not this run's inserts: a loaded
        // manager starts its counters from zero.
        manager.stats = CacheStats::default();
        manager.evict_to_budget();
        Ok(manager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CacheBudget;

    fn ids(n: usize, seed: u32) -> Vec<u32> {
        (0..n as u32).map(|i| i.wrapping_mul(2654435761).wrapping_add(seed) % 1000).collect()
    }

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

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pade_cache_persist_{name}.bin"))
    }

    /// A manager with shared prefixes, a private (non-chunk-aligned)
    /// tail, and a stored multi-turn session.
    fn warm_manager() -> KvCacheManager {
        let mut m = KvCacheManager::new(CacheConfig::new(8, 8, 4)).unwrap();
        let shared = ids(12, 1);
        for session in 0..3u64 {
            let mut p = shared.clone();
            p.extend(ids(5, 10 + session as u32));
            let a = m.attach(session, &p, &rows_for(&p, 8)).unwrap();
            m.detach(session, p.into(), a.cache, a.lease);
        }
        m
    }

    #[test]
    fn round_trip_restores_hits_and_planes_byte_identically() {
        let m = warm_manager();
        let path = temp("round_trip");
        m.save_to(&path).unwrap();
        let restored = KvCacheManager::load_from(&path, *m.config()).unwrap();
        assert_eq!(restored.resident_chunks(), m.resident_chunks());
        assert_eq!(restored.stored_sessions(), m.stored_sessions());
        assert_eq!(restored.resident_bytes(), m.resident_bytes(), "dedup must survive");

        // A fresh prompt over the shared prefix hits the restored index
        // exactly as it would the live one, and the planes are
        // byte-identical to a from-scratch decomposition.
        let mut live = warm_manager();
        let mut restored = restored;
        let mut p = ids(12, 1);
        p.extend(ids(3, 99));
        let rows = rows_for(&p, 8);
        let a = live.attach(7, &p, &rows).unwrap();
        let b = restored.attach(7, &p, &rows).unwrap();
        assert_eq!((a.hit_tokens, a.decomposed_tokens), (b.hit_tokens, b.decomposed_tokens));
        assert!(a.hit_tokens > 0);
        assert_eq!(a.cache.snapshot().materialize(), b.cache.snapshot().materialize());
        let scratch = BitPlaneMatrix::from_rows(&rows, 8, 8).unwrap();
        assert_eq!(b.cache.snapshot().materialize(), scratch);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restored_sessions_resume_and_share_index_chunks() {
        let m = warm_manager();
        let path = temp("resume");
        m.save_to(&path).unwrap();
        let mut restored = KvCacheManager::load_from(&path, *m.config()).unwrap();
        // Session 0's next turn extends its stored context: must resume.
        let mut turn2 = ids(12, 1);
        turn2.extend(ids(5, 10));
        turn2.extend(ids(4, 50));
        let a = restored.attach(0, &turn2, &rows_for(&turn2, 8)).unwrap();
        assert!(a.resumed_session, "restored store must resume extended sessions");
        assert!(a.hit_tokens >= 12);
        let scratch = BitPlaneMatrix::from_rows(&rows_for(&turn2, 8), 8, 8).unwrap();
        assert_eq!(a.cache.snapshot().materialize(), scratch);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_enforces_the_loading_budget() {
        let m = warm_manager();
        let path = temp("budget");
        m.save_to(&path).unwrap();
        let tight = (*m.config()).with_budget(CacheBudget::bytes(0));
        let restored = KvCacheManager::load_from(&path, tight).unwrap();
        assert_eq!(restored.resident_bytes(), 0, "zero budget drains the restored state");
        assert_eq!(restored.resident_chunks(), 0);
        assert_eq!(restored.stored_sessions(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shape_mismatch_and_corruption_are_rejected() {
        let m = warm_manager();
        let path = temp("reject");
        m.save_to(&path).unwrap();
        let other = CacheConfig::new(8, 8, 5);
        assert!(KvCacheManager::load_from(&path, other).is_err(), "chunk shape must match");
        // Truncate: mid-file EOF is an error, not a partial load.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(KvCacheManager::load_from(&path, *m.config()).is_err());
        // Bad magic.
        std::fs::write(&path, b"NOTACACHE").unwrap();
        let err = KvCacheManager::load_from(&path, *m.config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // An older format version: only the current one loads.
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        let err = KvCacheManager::load_from(&path, *m.config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A flipped byte in the first index record's key (after the
        // 24-byte header, the u64 record count and the record's magic)
        // no longer matches the recomputed content key.
        let mut flipped = bytes;
        flipped[24 + 8 + pade_tier::CHUNK_MAGIC.len()] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let err = KvCacheManager::load_from(&path, *m.config()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_torn_image_is_rejected() {
        // One shared two-chunk prefix and two stored sessions whose
        // tails are not chunk-aligned.
        let mut m = KvCacheManager::new(CacheConfig::new(8, 8, 4)).unwrap();
        for (session, tail) in [(0u64, 3usize), (1, 2)] {
            let mut p = ids(8, 1);
            p.extend(ids(tail, 10 + session as u32));
            let a = m.attach(session, &p, &rows_for(&p, 8)).unwrap();
            m.detach(session, p.into(), a.cache, a.lease);
        }
        let path = temp("torn");
        m.save_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(KvCacheManager::load_from(&path, *m.config()).is_ok());
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                KvCacheManager::load_from(&path, *m.config()).is_err(),
                "a {cut}-byte prefix of a {}-byte image loaded",
                bytes.len()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_manager_round_trips() {
        let m = KvCacheManager::new(CacheConfig::new(4, 8, 2)).unwrap();
        let path = temp("empty");
        m.save_to(&path).unwrap();
        let restored = KvCacheManager::load_from(&path, *m.config()).unwrap();
        assert_eq!(restored.resident_chunks(), 0);
        assert_eq!(restored.stored_sessions(), 0);
        assert_eq!(restored.resident_bytes(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
