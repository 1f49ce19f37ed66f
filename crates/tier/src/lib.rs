//! Tiered KV plane store — the second cache tier behind
//! `pade-cache`'s budgeted resident tier.
//!
//! PR 5's `CacheBudget` eviction simply *drops* decomposed bit planes:
//! under memory pressure a node re-decomposes work it already paid for,
//! which is exactly the cross-stage redundancy PADE's unified execution
//! eliminates on-chip. This crate makes eviction a *demotion* instead:
//!
//! * [`ChunkRecord`] — one sealed, chunk-granular unit of decomposed KV
//!   state (the prefix index's `(key, parent, ids, planes)` quadruple),
//!   serialized as **packed plane words** so re-adoption parses
//!   `⌈dims/64⌉` words per plane instead of re-running bit-plane
//!   decomposition. A round trip is `==`-identical by construction
//!   ([`BitPlaneMatrix::from_plane_words`] recomputes every derived
//!   field from the words).
//! * [`TierStore`] — the pluggable tier boundary (the vLLM
//!   KV-connector `wait_for`/`maybe_save` shape): `put` on evict,
//!   `get`/`contains` on a later prefix walk. Implementations:
//!   [`MemoryTierStore`] (tests, modeled remote peers) and
//!   [`DiskTierStore`] (one atomic file per chunk in a spill
//!   directory, re-indexed on open so a restart keeps its tier).
//! * [`wire`] — the little-endian wire helpers shared with
//!   `pade-cache`'s `persist` image, whose index section is a stream of
//!   [`write_chunk`] records — so the spill format and the warm-start
//!   image cannot drift apart.
//!
//! Everything here is content-addressed by the prefix index's
//! path-dependent chunk key, so a fetched record re-enters the index
//! under the exact key it left with — byte-identical planes, identical
//! scores, identical outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pade_quant::BitPlaneMatrix;

pub mod wire;

/// One sealed chunk of decomposed KV plane state, addressed by the
/// prefix index's path-dependent chunk key.
///
/// `planes` rides an `Arc`, so demoting a chunk to the tier never copies
/// the plane words — only serialization (in [`DiskTierStore::put`])
/// touches them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Path-dependent chunk key (`pade-cache`'s `chunk_key(parent, ids)`).
    pub key: u128,
    /// Key of the parent chunk (`None` for a depth-0 chunk). Because keys
    /// are content-addressed, the same prefix chain yields the same
    /// parent key on every node — an importer can verify its walk agrees.
    pub parent: Option<u128>,
    /// The token ids this chunk covers (exactly `chunk_tokens` of them).
    pub ids: Arc<[u32]>,
    /// The sealed decomposed planes.
    pub planes: Arc<BitPlaneMatrix>,
}

impl ChunkRecord {
    /// Heap bytes of the packed plane words this record carries — the
    /// unit tier accounting bills, matching the resident tier's budget
    /// arithmetic.
    #[must_use]
    pub fn plane_bytes(&self) -> u64 {
        self.planes.resident_bytes() as u64
    }
}

/// The pluggable tier boundary behind the cache manager: evicted sealed
/// chunks are `put` instead of dropped, and a later prefix walk `get`s
/// them back instead of re-decomposing.
///
/// Implementations must be content-faithful: `get(key)` after
/// `put(record)` returns a record equal to the original (the cache
/// manager's byte-identity invariant rests on this, and the property
/// tests pin it).
pub trait TierStore: std::fmt::Debug + Send {
    /// Stores (or replaces) a spilled chunk.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the backing medium.
    fn put(&mut self, record: &ChunkRecord) -> io::Result<()>;

    /// Fetches a spilled chunk by key; `None` when the tier never saw it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, including corruption of a present record.
    fn get(&self, key: u128) -> io::Result<Option<ChunkRecord>>;

    /// Removes a spilled chunk (a migrated-away shard leaves the tier).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the backing medium.
    fn remove(&mut self, key: u128) -> io::Result<bool>;

    /// Whether the tier currently holds `key` — `O(1)`, no I/O, so hit
    /// prediction can probe it on the admission path.
    fn contains(&self, key: u128) -> bool;

    /// Number of chunks currently held.
    fn len(&self) -> usize;

    /// Whether the tier holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total plane-word payload bytes currently held.
    fn spilled_bytes(&self) -> u64;
}

/// How a node builds its spill tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierConfig {
    /// In-process tier (tests, modeled remote peers): survives eviction,
    /// not process exit.
    Memory,
    /// One atomic file per chunk under the given directory; the
    /// directory is re-indexed on open, so a restart keeps its tier.
    Disk(PathBuf),
}

impl TierConfig {
    /// Builds the configured store.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or indexing a disk tier's
    /// directory.
    pub fn build(&self) -> io::Result<Box<dyn TierStore>> {
        Ok(match self {
            TierConfig::Memory => Box::new(MemoryTierStore::new()),
            TierConfig::Disk(dir) => Box::new(DiskTierStore::open(dir)?),
        })
    }
}

/// In-memory [`TierStore`]: a `BTreeMap` keyed by chunk key (ordered, so
/// any iteration a test does is deterministic).
#[derive(Debug, Default)]
pub struct MemoryTierStore {
    records: BTreeMap<u128, ChunkRecord>,
    bytes: u64,
}

impl MemoryTierStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl TierStore for MemoryTierStore {
    fn put(&mut self, record: &ChunkRecord) -> io::Result<()> {
        if let Some(old) = self.records.insert(record.key, record.clone()) {
            self.bytes -= old.plane_bytes();
        }
        self.bytes += record.plane_bytes();
        Ok(())
    }

    fn get(&self, key: u128) -> io::Result<Option<ChunkRecord>> {
        Ok(self.records.get(&key).cloned())
    }

    fn remove(&mut self, key: u128) -> io::Result<bool> {
        match self.records.remove(&key) {
            Some(old) => {
                self.bytes -= old.plane_bytes();
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn contains(&self, key: u128) -> bool {
        self.records.contains_key(&key)
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn spilled_bytes(&self) -> u64 {
        self.bytes
    }
}

/// On-disk [`TierStore`]: one `chunk_<key>.tier` file per spilled chunk,
/// written atomically (`.tmp` + rename, the `persist` discipline) and
/// re-indexed from the directory listing on [`DiskTierStore::open`].
#[derive(Debug)]
pub struct DiskTierStore {
    dir: PathBuf,
    /// In-memory index: key → payload plane bytes. Ordered so byte
    /// totals and listings never depend on directory iteration order.
    index: BTreeMap<u128, u64>,
}

impl DiskTierStore {
    /// Opens (creating if absent) a spill directory and indexes the
    /// chunk files already in it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a file with the `.tier` suffix but an
    /// unparsable name or header is reported as corruption rather than
    /// silently skipped.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut index = BTreeMap::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(hex) = name.strip_prefix("chunk_").and_then(|n| n.strip_suffix(".tier"))
            else {
                continue;
            };
            let key = u128::from_str_radix(hex, 16).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unparsable tier chunk file name {name}"),
                )
            })?;
            let record = read_chunk_file(&path)?;
            if record.key != key {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("tier chunk file {name} holds key {:032x}", record.key),
                ));
            }
            index.insert(key, record.plane_bytes());
        }
        Ok(Self { dir: dir.to_path_buf(), index })
    }

    fn chunk_path(&self, key: u128) -> PathBuf {
        self.dir.join(format!("chunk_{key:032x}.tier"))
    }
}

impl TierStore for DiskTierStore {
    fn put(&mut self, record: &ChunkRecord) -> io::Result<()> {
        let path = self.chunk_path(record.key);
        let tmp = path.with_extension("tier.tmp");
        {
            let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
            write_chunk(&mut f, record)?;
            use std::io::Write as _;
            f.flush()?;
        }
        std::fs::rename(&tmp, &path)?;
        self.index.insert(record.key, record.plane_bytes());
        Ok(())
    }

    fn get(&self, key: u128) -> io::Result<Option<ChunkRecord>> {
        if !self.index.contains_key(&key) {
            return Ok(None);
        }
        let record = read_chunk_file(&self.chunk_path(key))?;
        if record.key != key {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("tier chunk file for {key:032x} holds key {:032x}", record.key),
            ));
        }
        Ok(Some(record))
    }

    fn remove(&mut self, key: u128) -> io::Result<bool> {
        if self.index.remove(&key).is_none() {
            return Ok(false);
        }
        std::fs::remove_file(self.chunk_path(key))?;
        Ok(true)
    }

    fn contains(&self, key: u128) -> bool {
        self.index.contains_key(&key)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn spilled_bytes(&self) -> u64 {
        self.index.values().sum()
    }
}

/// Magic bytes opening every chunk file (`PADETIER`, version-tagged by
/// the trailing byte).
pub const CHUNK_MAGIC: [u8; 8] = *b"PADETI\x00\x01";

/// Serializes one chunk record to a writer (the on-disk / on-wire chunk
/// format; see [`wire`] for the primitive encodings).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_chunk<W: io::Write>(w: &mut W, record: &ChunkRecord) -> io::Result<()> {
    w.write_all(&CHUNK_MAGIC)?;
    wire::write_u128(w, record.key)?;
    w.write_all(&[u8::from(record.parent.is_some())])?;
    wire::write_u128(w, record.parent.unwrap_or(0))?;
    wire::write_u64(w, record.planes.dims() as u64)?;
    wire::write_u32(w, record.planes.bits())?;
    wire::write_ids(w, &record.ids)?;
    wire::write_planes(w, &record.planes)
}

/// Parses one chunk record from a reader — the inverse of
/// [`write_chunk`], rebuilding planes from packed words without any
/// re-decomposition.
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic/shape and propagates reader
/// errors.
pub fn read_chunk<R: io::Read>(r: &mut R) -> io::Result<ChunkRecord> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != CHUNK_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a pade-tier chunk record"));
    }
    let key = wire::read_u128(r)?;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let parent_raw = wire::read_u128(r)?;
    let parent = match tag[0] {
        0 => None,
        1 => Some(parent_raw),
        t => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad parent tag {t} in tier chunk record"),
            ))
        }
    };
    let dims = wire::read_u64(r)? as usize;
    let bits = wire::read_u32(r)?;
    let ids = wire::read_ids(r)?;
    let planes = wire::read_planes(r, dims, bits)?;
    Ok(ChunkRecord { key, parent, ids: ids.into(), planes: Arc::new(planes) })
}

fn read_chunk_file(path: &Path) -> io::Result<ChunkRecord> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    read_chunk(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record(seed: u64, tokens: usize, dims: usize, bits: u32) -> ChunkRecord {
        let rows: Vec<i8> = (0..tokens * dims)
            .map(|i| {
                let h = seed.wrapping_mul(i as u64 + 1).wrapping_add(0x9E37);
                ((h >> 24) as u8 as i8) >> (8 - bits)
            })
            .collect();
        let planes = BitPlaneMatrix::from_rows(&rows, dims, bits).unwrap();
        ChunkRecord {
            key: u128::from(seed) << 64 | 0xBEEF,
            parent: seed.is_multiple_of(2).then_some(u128::from(seed)),
            ids: (0..tokens as u32).collect::<Vec<_>>().into(),
            planes: Arc::new(planes),
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pade_tier_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_store_round_trips_and_accounts_bytes() {
        let mut store = MemoryTierStore::new();
        let a = record(1, 4, 64, 8);
        let b = record(2, 4, 64, 8);
        store.put(&a).unwrap();
        store.put(&b).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.spilled_bytes(), a.plane_bytes() + b.plane_bytes());
        assert!(store.contains(a.key) && !store.contains(999));
        assert_eq!(store.get(a.key).unwrap().unwrap(), a);
        assert!(store.remove(a.key).unwrap());
        assert!(!store.remove(a.key).unwrap());
        assert_eq!(store.spilled_bytes(), b.plane_bytes());
    }

    #[test]
    fn disk_store_round_trips_atomically_and_reindexes_on_open() {
        let dir = temp_dir("roundtrip");
        let a = record(7, 4, 96, 8);
        let b = record(8, 2, 96, 4);
        {
            let mut store = DiskTierStore::open(&dir).unwrap();
            store.put(&a).unwrap();
            store.put(&b).unwrap();
            assert_eq!(store.get(a.key).unwrap().unwrap(), a);
        }
        // A fresh open re-indexes the directory: both chunks survive the
        // "restart" with identical contents and byte accounting.
        let mut store = DiskTierStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.spilled_bytes(), a.plane_bytes() + b.plane_bytes());
        assert_eq!(store.get(a.key).unwrap().unwrap(), a);
        assert_eq!(store.get(b.key).unwrap().unwrap(), b);
        assert!(store.remove(b.key).unwrap());
        assert_eq!(DiskTierStore::open(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_rejects_corrupt_records() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("chunk_00000000000000000000000000000001.tier"), b"garbage!")
            .unwrap();
        assert!(DiskTierStore::open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tier_config_builds_both_backends() {
        assert_eq!(TierConfig::Memory.build().unwrap().len(), 0);
        let dir = temp_dir("config");
        let store = TierConfig::Disk(dir.clone()).build().unwrap();
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #[test]
        fn prop_chunk_record_serialization_is_identity(
            seed in any::<u64>(),
            tokens in 1usize..8,
            dims_sel in 0usize..4,
            bits in 2u32..=8,
        ) {
            // Dims straddling word boundaries: 1, 63, 64, 65.
            let dims = [1usize, 63, 64, 65][dims_sel];
            let rec = record(seed, tokens, dims, bits);
            let mut buf = Vec::new();
            write_chunk(&mut buf, &rec).unwrap();
            let back = read_chunk(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(&back, &rec);
            // The materialized planes are `==`-identical, which (with
            // derived Eq over packed words) is byte-identity of the
            // decomposed state.
            prop_assert_eq!(back.planes.as_ref(), rec.planes.as_ref());
        }
    }
}
