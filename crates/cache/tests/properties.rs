//! Cache-manager guarantees, property-tested:
//!
//! 1. **Bit-identity** — prefix-hit + suffix-decompose equals a
//!    from-scratch decomposition byte for byte, at every chunk
//!    granularity, whether the prefix came from the shared index or a
//!    resumed session cache — and engine outputs over the cached planes
//!    equal the seed oracle `run_qk_block_reference`.
//! 2. **Lease safety** — eviction never frees a chunk still referenced
//!    by a live session: leased chunks are not eviction candidates, and
//!    an attached cache keeps reading correct planes under any budget.
//! 3. **Determinism** — the manager is a pure function of its call
//!    sequence: same seed ⇒ identical hit/eviction sequences, and
//!    identical engine outputs with the cache on or off.
//! 4. **Persistence** — a saved and reloaded manager holds the same
//!    chunks, sessions and deduplicated bytes, and serves the same hits.
//! 5. **Spill media agree** — a memory and a disk spill tier give the
//!    same counters on a cache-thrashing trace, and both re-adopt planes
//!    a tierless manager has to decompose again.

use pade_cache::{CacheBudget, CacheConfig, CacheStats, KvCacheManager, TierConfig};
use pade_core::config::PadeConfig;
use pade_core::engine::{run_qk_block, run_qk_block_reference};
use pade_quant::{BitPlaneMatrix, PlaneSource};
use pade_workload::prompt::{
    generate_shared_prefix_arrivals, generate_thrash_arrivals, PromptTokens, SharedPrefixConfig,
    ThrashConfig,
};
use proptest::prelude::*;

const DIMS: usize = 24;
const BITS: u32 = 8;

/// A seeded token-id sequence.
fn ids(n: usize, seed: u64) -> Vec<u32> {
    (0..n)
        .map(|i| {
            let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z >> 33) as u32 % 10_000
        })
        .collect()
}

/// The workload's canonical id → key-row derivation.
fn rows_for(ids: &[u32]) -> Vec<i8> {
    PromptTokens::new(ids.to_vec()).key_rows(DIMS, BITS)
}

fn manager(chunk_tokens: usize, budget: CacheBudget) -> KvCacheManager {
    KvCacheManager::new(CacheConfig::new(DIMS, BITS, chunk_tokens).with_budget(budget))
        .expect("test shape is valid")
}

proptest! {
    /// (a) Prefix-hit + suffix-decompose == from-scratch decomposition,
    /// byte for byte, at every chunk granularity: a second request
    /// sharing an arbitrary id prefix with the first resolves hits from
    /// the index and still materializes exactly the planes a whole-prompt
    /// `BitPlaneMatrix::from_rows` produces.
    #[test]
    fn hit_plus_suffix_equals_from_scratch(
        chunk in 1usize..10,
        shared in 1usize..40,
        suffix_a in 0usize..12,
        suffix_b in 0usize..12,
        seed in any::<u64>(),
    ) {
        let shared_ids = ids(shared, seed);
        let mut a_ids = shared_ids.clone();
        a_ids.extend(ids(suffix_a, seed ^ 0xA));
        let mut b_ids = shared_ids;
        b_ids.extend(ids(suffix_b, seed ^ 0xB));

        let mut m = manager(chunk, CacheBudget::unlimited());
        let a = m.attach(1, &a_ids, &rows_for(&a_ids)).unwrap();
        let b = m.attach(2, &b_ids, &rows_for(&b_ids)).unwrap();

        // The second request hits every full chunk of the common prefix
        // (the common prefix of the *requests*, which may extend past
        // `shared` if the derived suffix ids happen to agree).
        let common = a_ids.iter().zip(&b_ids).take_while(|(x, y)| x == y).count();
        let expected_hit = (common / chunk) * chunk;
        prop_assert_eq!(b.hit_tokens, expected_hit.min((b_ids.len() / chunk) * chunk));
        prop_assert_eq!(b.hit_tokens + b.decomposed_tokens, b_ids.len());

        for (who, attached, prompt) in [("a", &a, &a_ids), ("b", &b, &b_ids)] {
            let scratch = BitPlaneMatrix::from_rows(&rows_for(prompt), DIMS, BITS).unwrap();
            let snap = attached.cache.snapshot();
            prop_assert_eq!(snap.tokens(), prompt.len());
            prop_assert!(snap.materialize() == scratch, "request {} diverged", who);
        }
    }

    /// (a′) The same identity through the *session store*: a multi-turn
    /// resume (turn 2 extends turn 1's ids) reads byte-identically to a
    /// from-scratch decomposition of the full turn-2 prompt.
    #[test]
    fn session_resume_equals_from_scratch(
        chunk in 1usize..9,
        turn1 in 1usize..30,
        extension in 1usize..15,
        seed in any::<u64>(),
    ) {
        let t1 = ids(turn1, seed);
        let mut t2 = t1.clone();
        t2.extend(ids(extension, seed ^ 0x7));

        let mut m = manager(chunk, CacheBudget::unlimited());
        let a = m.attach(5, &t1, &rows_for(&t1)).unwrap();
        m.detach(5, t1.clone().into(), a.cache, a.lease);
        let b = m.attach(5, &t2, &rows_for(&t2)).unwrap();
        prop_assert!(b.resumed_session);
        prop_assert_eq!((b.hit_tokens, b.decomposed_tokens), (turn1, extension));
        let scratch = BitPlaneMatrix::from_rows(&rows_for(&t2), DIMS, BITS).unwrap();
        prop_assert!(b.cache.snapshot().materialize() == scratch);
    }

    /// (b) Eviction never frees a chunk still referenced by a live
    /// session: under *any* budget — including zero — chunks leased by
    /// outstanding attaches survive every eviction pass, and the
    /// attached caches keep reading planes byte-identical to
    /// from-scratch. Once the leases are released, the zero budget
    /// drains everything.
    #[test]
    fn eviction_never_frees_leased_chunks(
        chunk in 1usize..8,
        len_a in 4usize..30,
        len_b in 4usize..30,
        budget in option::of(0u64..4096),
        seed in any::<u64>(),
    ) {
        let budget = budget.map_or(CacheBudget::unlimited(), CacheBudget::bytes);
        let a_ids = ids(len_a, seed);
        let b_ids = ids(len_b, seed ^ 0x1234);
        let mut m = manager(chunk, budget);

        // Two concurrently-live sessions; every detach in between runs an
        // eviction pass under the tight budget.
        let a = m.attach(1, &a_ids, &rows_for(&a_ids)).unwrap();
        let b = m.attach(2, &b_ids, &rows_for(&b_ids)).unwrap();
        let leased = a.lease.chunks() + b.lease.chunks();

        // Leased chunks are exempt: the index can never shrink below the
        // live leases, no matter the budget.
        prop_assert!(m.resident_chunks() >= leased.saturating_sub(
            // Shared chunks between a and b are leased twice but resident once.
            a_ids.iter().zip(&b_ids).take_while(|(x, y)| x == y).count() / chunk
        ));

        // Both live caches still read exactly their from-scratch planes.
        for (attached, prompt) in [(&a, &a_ids), (&b, &b_ids)] {
            let scratch = BitPlaneMatrix::from_rows(&rows_for(prompt), DIMS, BITS).unwrap();
            prop_assert!(attached.cache.snapshot().materialize() == scratch);
        }

        m.detach(1, a_ids.clone().into(), a.cache, a.lease);
        m.detach(2, b_ids.clone().into(), b.cache, b.lease);
        if budget == CacheBudget::bytes(0) {
            prop_assert_eq!(m.resident_chunks(), 0);
            prop_assert_eq!(m.stored_sessions(), 0);
            prop_assert_eq!(m.resident_bytes(), 0);
        }
    }

    /// (c) Same seed ⇒ identical hit/eviction sequence: two managers fed
    /// the same seeded shared-prefix workload step through identical
    /// stats after every attach/detach, under a budget tight enough to
    /// keep evicting.
    #[test]
    fn same_seed_same_hit_and_eviction_sequence(
        seed in any::<u64>(),
        chunk in 1usize..6,
        budget in 512u64..8192,
    ) {
        let arrivals = generate_shared_prefix_arrivals(&SharedPrefixConfig {
            n_sessions: 3,
            turns_per_session: 2,
            shared_prefix_tokens: 12,
            unique_suffix_tokens: 5,
            turn_suffix_tokens: 5,
            head_dim: DIMS,
            seed,
            ..SharedPrefixConfig::small_demo()
        });
        let budget = CacheBudget::bytes(budget);
        let run = |m: &mut KvCacheManager| -> Vec<CacheStats> {
            arrivals
                .iter()
                .map(|r| {
                    let prompt = r.prompt.as_ref().unwrap();
                    let rows = prompt.key_rows(DIMS, BITS);
                    let attached = m.attach(r.session, prompt.ids(), &rows).unwrap();
                    m.detach(r.session, prompt.shared_ids(), attached.cache, attached.lease);
                    *m.stats()
                })
                .collect()
        };
        let mut m1 = manager(chunk, budget);
        let mut m2 = manager(chunk, budget);
        prop_assert_eq!(run(&mut m1), run(&mut m2));
        prop_assert_eq!(m1.resident_bytes(), m2.resident_bytes());
        prop_assert_eq!(m1.resident_chunks(), m2.resident_chunks());
    }

    /// (c′) Identical engine outputs with the cache on vs off: for every
    /// request of a seeded shared-prefix workload, `run_qk_block` over
    /// the manager-attached snapshot equals the same block over a
    /// from-scratch decomposition **and** the seed oracle
    /// `run_qk_block_reference` — under an unlimited and a tight budget
    /// alike.
    #[test]
    fn engine_outputs_identical_cache_on_or_off(
        seed in any::<u64>(),
        chunk in 1usize..6,
        tight_budget in any::<bool>(),
    ) {
        let config = PadeConfig { pe_rows: 4, ..PadeConfig::standard() };
        let arrivals = generate_shared_prefix_arrivals(&SharedPrefixConfig {
            n_sessions: 2,
            turns_per_session: 2,
            shared_prefix_tokens: 10,
            unique_suffix_tokens: 4,
            turn_suffix_tokens: 4,
            head_dim: DIMS,
            seed,
            ..SharedPrefixConfig::small_demo()
        });
        let budget =
            if tight_budget { CacheBudget::bytes(2048) } else { CacheBudget::unlimited() };
        let mut m = manager(chunk, budget);
        for r in &arrivals {
            let prompt = r.prompt.as_ref().unwrap();
            let rows = prompt.key_rows(DIMS, BITS);
            let attached = m.attach(r.session, prompt.ids(), &rows).unwrap();
            let snap = attached.cache.snapshot();
            let scratch = BitPlaneMatrix::from_rows(&rows, DIMS, BITS).unwrap();

            let queries: Vec<i8> = rows_for(&ids(1, seed ^ r.id as u64))[..DIMS].to_vec();
            let q: Vec<&[i8]> = vec![&queries];
            let cached = run_qk_block(&config, &q, &snap, 0.02);
            let off = run_qk_block(&config, &q, &scratch, 0.02);
            let oracle = run_qk_block_reference(&config, &q, &scratch, 0.02);
            prop_assert!(cached == oracle, "request {}: cache-on diverged from oracle", r.id);
            prop_assert!(off == oracle, "request {}: cache-off diverged from oracle", r.id);

            m.detach(r.session, prompt.shared_ids(), attached.cache, attached.lease);
        }
    }

    /// (d) Save → load round-trips the warm state: after a random
    /// attach/detach/release sequence — sessions may repeat each other's
    /// prompts, resume with extensions, and run with or without a spill
    /// tier under any budget — the restored manager holds the same index
    /// chunks, stored sessions and deduplicated bytes, and a follow-up
    /// attach hits and decomposes exactly as on the original, with planes
    /// equal to a from-scratch decomposition.
    #[test]
    fn save_load_round_trips_warm_state(
        chunk in 1usize..6,
        budget in option::of(0u64..6000),
        with_tier in any::<bool>(),
        ops in proptest::collection::vec(
            (0u64..4, 0usize..3, 0usize..10, any::<bool>(), any::<bool>()),
            1..12,
        ),
        seed in any::<u64>(),
    ) {
        let budget = budget.map_or(CacheBudget::unlimited(), CacheBudget::bytes);
        let pool: Vec<Vec<u32>> =
            [5usize, 9, 14].iter().enumerate().map(|(k, &n)| ids(n, seed ^ k as u64)).collect();
        let mut m = manager(chunk, budget);
        if with_tier {
            m.set_tier(Some(TierConfig::Memory.build().unwrap()));
        }
        let mut stored: [Option<Vec<u32>>; 4] = Default::default();
        for (step, &(session, prefix, suffix, extend, store)) in ops.iter().enumerate() {
            // Suffixes are seeded by the prompt shape, not the session, so
            // different sessions can send identical prompts.
            let prompt = match &stored[session as usize] {
                Some(last) if extend => {
                    let mut p = last.clone();
                    p.extend(ids(suffix, seed ^ (step as u64) << 8));
                    p
                }
                _ => {
                    let mut p = pool[prefix].clone();
                    p.extend(ids(suffix, seed ^ (prefix as u64 + 1) << 16));
                    p
                }
            };
            let a = m.attach(session, &prompt, &rows_for(&prompt)).unwrap();
            if store {
                m.detach(session, prompt.clone().into(), a.cache, a.lease);
                stored[session as usize] = Some(prompt);
            } else {
                m.release(a.lease);
                if a.resumed_session {
                    stored[session as usize] = None;
                }
            }
        }

        let path = std::env::temp_dir().join(format!(
            "pade_cache_prop_round_trip_{}_{seed:016x}.bin",
            std::process::id()
        ));
        m.save_to(&path).unwrap();
        let mut restored = KvCacheManager::load_from(&path, *m.config()).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(restored.resident_chunks(), m.resident_chunks());
        prop_assert_eq!(restored.stored_sessions(), m.stored_sessions());
        prop_assert_eq!(restored.resident_bytes(), m.resident_bytes());

        // The tier is not part of the image: compare against the
        // original's resident state alone. LRU clocks are not persisted
        // either, so only the first attach is comparable — the eviction
        // pass it runs may pick differently — and the other follow-ups
        // are compared through the read-only hit probe.
        m.set_tier(None);
        let mut fresh = pool[ops[0].1].clone();
        fresh.extend(ids(3, seed ^ 0xF));
        let mut follow_ups = vec![(99u64, fresh)];
        let last_stored =
            stored.iter().enumerate().rev().find_map(|(s, last)| Some((s, last.as_ref()?)));
        if let Some((session, last)) = last_stored {
            let mut next = last.clone();
            next.extend(ids(2, seed ^ 0xE));
            follow_ups.push((session as u64, next));
        }
        for (session, prompt) in &follow_ups {
            prop_assert_eq!(
                restored.predicted_hit_tokens(*session, prompt),
                m.predicted_hit_tokens(*session, prompt)
            );
        }
        let (session, prompt) = follow_ups.pop().unwrap();
        let rows = rows_for(&prompt);
        let a = m.attach(session, &prompt, &rows).unwrap();
        let b = restored.attach(session, &prompt, &rows).unwrap();
        prop_assert_eq!(
            (a.hit_tokens, a.decomposed_tokens, a.resumed_session),
            (b.hit_tokens, b.decomposed_tokens, b.resumed_session)
        );
        let scratch = BitPlaneMatrix::from_rows(&rows, DIMS, BITS).unwrap();
        prop_assert!(b.cache.snapshot().materialize() == scratch);
    }
}

/// Replays a round-robin thrash trace through a manager whose budget
/// holds 1.5 of the pool's prompts, with the given spill tier, checking
/// every attach against a from-scratch decomposition of its key rows.
fn replay_thrash(tier: Option<TierConfig>) -> CacheStats {
    let workload = ThrashConfig {
        pool_size: 3,
        prompt_tokens: 96,
        visits: 9,
        decode_steps: 2,
        seed: 2026,
        ..ThrashConfig::small_demo()
    };
    let (dims, bits) = (workload.head_dim, workload.bits);
    let prompt_bytes = (workload.prompt_tokens * bits as usize * dims.div_ceil(64) * 8) as u64;
    let config =
        CacheConfig::new(dims, bits, 32).with_budget(CacheBudget::bytes(prompt_bytes * 3 / 2));
    let mut m = KvCacheManager::new(config).expect("test shape is valid");
    m.set_tier(tier.map(|t| t.build().expect("tier store builds")));
    for arrival in generate_thrash_arrivals(&workload) {
        let prompt = arrival.prompt.expect("thrash arrivals carry prompts");
        let rows = prompt.key_rows(dims, bits);
        let attached = m.attach(arrival.session, prompt.ids(), &rows).unwrap();
        let scratch = BitPlaneMatrix::from_rows(&rows, dims, bits).unwrap();
        assert!(
            attached.cache.snapshot().materialize() == scratch,
            "visit {}: attached planes diverged from the from-scratch decomposition",
            arrival.id
        );
        m.detach(arrival.session, prompt.shared_ids(), attached.cache, attached.lease);
    }
    *m.stats()
}

/// The memory and disk spill tiers are one protocol over two media:
/// replaying the same thrash trace through either gives equal counters,
/// and both serve revisits from spilled planes that a tierless manager
/// has already dropped.
#[test]
fn memory_and_disk_spill_tiers_agree_and_beat_drop_on_evict() {
    let dir = std::env::temp_dir().join(format!("pade_cache_spill_agree_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dropped = replay_thrash(None);
    let memory = replay_thrash(Some(TierConfig::Memory));
    let disk = replay_thrash(Some(TierConfig::Disk(dir.clone())));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(memory, disk, "memory and disk spill tiers disagree");
    assert!(memory.spilled_chunks > 0 && memory.fetched_tokens > 0, "the tier never engaged");
    assert!(
        memory.hit_tokens > dropped.hit_tokens,
        "spill {} vs drop {} hit tokens",
        memory.hit_tokens,
        dropped.hit_tokens
    );
}
