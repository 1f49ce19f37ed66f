//! The `prefix-cache` scenario: cross-request prefix sharing vs
//! from-scratch decomposition of every prompt.
//!
//! A serving stack that decomposes every incoming prompt from scratch
//! pays `O(prompt · bits)` per request even when most requests share a
//! long common prefix (system prompts, multi-turn history). The
//! `pade-cache` manager resolves a prompt against its radix index and
//! session store and decomposes only the unseen suffix.
//! [`run_prefix_cache_matrix`] replays three seeded workload variants —
//! **cold** (every prompt distinct: the no-sharing floor), **shared
//! prefix** (requests draw long prompts from a small pool) and
//! **multi-turn** (sessions return with extended contexts) — through
//! both KV-prep paths, hard-checks that every attached cache is
//! byte-identical to a from-scratch [`BitPlaneMatrix`] of the same rows
//! **and** that engine outputs over the cached planes match the seed
//! oracle [`run_qk_block_reference`], and then sweeps the byte budget on
//! the shared-prefix workload down to a point that forces evictions —
//! re-checking bit-identity under eviction pressure.
//! [`write_prefix_cache_json`] serializes the sweep to the
//! `BENCH_<n>.json` trajectory schema (`BENCH_4.json` records the
//! prefix-cache PR).
//!
//! [`run_qk_block_reference`]: pade_core::engine::run_qk_block_reference

use std::io::Write as _;
use std::time::Instant;

use pade_cache::{CacheBudget, CacheConfig, KvCacheManager};
use pade_core::config::PadeConfig;
use pade_core::engine::{run_qk_block, run_qk_block_reference};
use pade_quant::BitPlaneMatrix;
use pade_workload::prompt::{generate_shared_prefix_arrivals, SharedPrefixConfig};

use crate::prep::{prepare, PreparedRequest};

/// One benchmarked prefix-cache workload variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixCacheShapeSpec {
    /// Stable variant label: `"cold"`, `"shared-prefix"` or
    /// `"multi-turn"`.
    pub label: &'static str,
    /// Sessions in the workload.
    pub n_sessions: usize,
    /// Requests per session.
    pub turns_per_session: usize,
    /// Distinct shared prefixes in the pool (= `n_sessions` for the cold
    /// variant, so nothing is ever shared).
    pub pool_size: usize,
    /// Token length of each shared pool prefix.
    pub shared_prefix_tokens: usize,
    /// Unique suffix tokens per session (first turn).
    pub unique_suffix_tokens: usize,
    /// Fresh tokens per later turn.
    pub turn_suffix_tokens: usize,
    /// Per-head hidden dimension.
    pub head_dim: usize,
    /// Tokens per sealed cache chunk.
    pub chunk_tokens: usize,
    /// Requests whose engine outputs are cross-checked against the seed
    /// oracle (cache planes are compared on *every* request regardless).
    pub engine_check_requests: usize,
}

impl PrefixCacheShapeSpec {
    /// Stable identifier, e.g. `shared-prefix_s3072_u128_h64`.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "{}_s{}_u{}_h{}",
            self.label, self.shared_prefix_tokens, self.unique_suffix_tokens, self.head_dim
        )
    }

    fn workload(&self) -> SharedPrefixConfig {
        SharedPrefixConfig {
            n_sessions: self.n_sessions,
            turns_per_session: self.turns_per_session,
            pool_size: self.pool_size,
            shared_prefix_tokens: self.shared_prefix_tokens,
            unique_suffix_tokens: self.unique_suffix_tokens,
            turn_suffix_tokens: self.turn_suffix_tokens,
            decode_steps: 8,
            prefill_fraction: 0.25,
            prefill_rows: 8,
            mean_interarrival_cycles: 2_000.0,
            turn_gap_cycles: 100_000,
            vocab: 50_000,
            head_dim: self.head_dim,
            bits: 8,
            profile: pade_workload::profile::ScoreProfile::standard(),
            seed: 2026,
        }
    }
}

/// Measured outcome of one variant.
#[derive(Debug, Clone)]
pub struct PrefixCacheShapeResult {
    /// The variant.
    pub spec: PrefixCacheShapeSpec,
    /// Requests replayed.
    pub n_requests: usize,
    /// Prompt tokens across all requests.
    pub prompt_tokens: u64,
    /// Wall-clock seconds of the cache-managed path (attach + detach per
    /// request, in arrival order).
    pub cached_wall_s: f64,
    /// Wall-clock seconds of the from-scratch path (one
    /// `BitPlaneMatrix::from_rows` per prompt).
    pub scratch_wall_s: f64,
    /// `scratch_wall_s / cached_wall_s` — the KV-prep speedup.
    pub speedup: f64,
    /// Prompt tokens served from resident planes.
    pub hit_tokens: u64,
    /// Prompt tokens decomposed by the manager.
    pub decomposed_tokens: u64,
    /// Attaches resumed from the session store (multi-turn reuse).
    pub session_resumes: u64,
    /// Requests whose engine outputs were checked against the oracle.
    pub engine_checked_requests: usize,
    /// Whether every cache was byte-identical to from-scratch planes and
    /// every checked engine output matched the seed oracle
    /// (hard-checked; a mismatch panics before this is recorded false).
    pub bit_identical: bool,
}

/// One point of the eviction-under-budget sweep.
#[derive(Debug, Clone, Copy)]
pub struct BudgetPointResult {
    /// Budget in bytes (`u64::MAX` = unlimited).
    pub budget_bytes: u64,
    /// Chunks + stored sessions evicted over the replay.
    pub evictions: u64,
    /// Prompt tokens served from resident planes at this budget.
    pub hit_tokens: u64,
    /// Peak resident bytes observed after attaches.
    pub peak_resident_bytes: u64,
    /// Whether every attached cache stayed byte-identical to from-scratch
    /// planes under eviction pressure (hard-checked).
    pub bit_identical: bool,
}

/// A finished prefix-cache sweep.
#[derive(Debug, Clone)]
pub struct PrefixCacheSweep {
    /// Per-variant results (cold, shared-prefix, multi-turn).
    pub results: Vec<PrefixCacheShapeResult>,
    /// The eviction sweep, run on the shared-prefix variant, largest
    /// budget first.
    pub budget_points: Vec<BudgetPointResult>,
}

/// The fixed variant matrix. `quick` trims context lengths and session
/// counts for CI smoke runs.
#[must_use]
pub fn prefix_cache_matrix(quick: bool) -> Vec<PrefixCacheShapeSpec> {
    if quick {
        return vec![
            PrefixCacheShapeSpec {
                label: "cold",
                n_sessions: 4,
                turns_per_session: 1,
                pool_size: 4,
                shared_prefix_tokens: 96,
                unique_suffix_tokens: 32,
                turn_suffix_tokens: 32,
                head_dim: 64,
                chunk_tokens: 32,
                engine_check_requests: 2,
            },
            PrefixCacheShapeSpec {
                label: "shared-prefix",
                n_sessions: 6,
                turns_per_session: 1,
                pool_size: 2,
                shared_prefix_tokens: 96,
                unique_suffix_tokens: 32,
                turn_suffix_tokens: 32,
                head_dim: 64,
                chunk_tokens: 32,
                engine_check_requests: 2,
            },
            PrefixCacheShapeSpec {
                label: "multi-turn",
                n_sessions: 3,
                turns_per_session: 3,
                pool_size: 2,
                shared_prefix_tokens: 64,
                unique_suffix_tokens: 32,
                turn_suffix_tokens: 32,
                head_dim: 64,
                chunk_tokens: 32,
                engine_check_requests: 2,
            },
        ];
    }
    vec![
        PrefixCacheShapeSpec {
            label: "cold",
            n_sessions: 16,
            turns_per_session: 1,
            pool_size: 16,
            shared_prefix_tokens: 1024,
            unique_suffix_tokens: 128,
            turn_suffix_tokens: 128,
            head_dim: 64,
            chunk_tokens: 64,
            engine_check_requests: 2,
        },
        PrefixCacheShapeSpec {
            label: "shared-prefix",
            n_sessions: 32,
            turns_per_session: 1,
            pool_size: 4,
            shared_prefix_tokens: 3072,
            unique_suffix_tokens: 128,
            turn_suffix_tokens: 128,
            head_dim: 64,
            chunk_tokens: 64,
            engine_check_requests: 3,
        },
        PrefixCacheShapeSpec {
            label: "multi-turn",
            n_sessions: 8,
            turns_per_session: 4,
            pool_size: 2,
            shared_prefix_tokens: 2048,
            unique_suffix_tokens: 128,
            turn_suffix_tokens: 128,
            head_dim: 64,
            chunk_tokens: 64,
            engine_check_requests: 3,
        },
    ]
}

/// Replays attach/detach over all of `requests` into one manager — the
/// timed KV-prep loop (see [`crate::prep::replay_manager`]), kept free
/// of accounting reads (an unlimited budget never consults
/// `resident_bytes`, and with it resident growth is monotone, so the
/// final residency *is* the peak).
fn replay_manager(requests: &[PreparedRequest], config: CacheConfig) -> KvCacheManager {
    crate::prep::replay_manager(requests.iter(), config)
}

/// A deterministic query block for the engine identity checks.
fn check_queries(head_dim: usize, seed: u64) -> Vec<i8> {
    (0..head_dim)
        .map(|i| {
            let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z >> 40) as u8 as i8
        })
        .collect()
}

/// Runs one variant through both KV-prep paths and cross-checks planes
/// and engine outputs.
///
/// # Panics
///
/// Panics if any attached cache diverges from a from-scratch
/// decomposition or any checked engine output diverges from the seed
/// oracle (they are bit-identical by design; divergence is a bug).
#[must_use]
pub fn run_prefix_cache_shape(
    spec: &PrefixCacheShapeSpec,
    engine: &PadeConfig,
) -> PrefixCacheShapeResult {
    let arrivals = generate_shared_prefix_arrivals(&spec.workload());
    let requests = prepare(&arrivals, spec.head_dim, engine.bits);
    let cache_config = CacheConfig::new(spec.head_dim, engine.bits, spec.chunk_tokens);

    // Cache-managed path (timed): attach + detach per request in arrival
    // order — exactly the admission/retirement sequence of `pade-serve`.
    let start = Instant::now();
    let manager = replay_manager(&requests, cache_config);
    let cached_wall_s = start.elapsed().as_secs_f64();
    let stats = *manager.stats();

    // From-scratch path (timed): decompose every prompt whole.
    let start = Instant::now();
    let scratch: Vec<BitPlaneMatrix> = requests
        .iter()
        .map(|req| {
            BitPlaneMatrix::from_rows(&req.rows, spec.head_dim, engine.bits)
                .expect("bench prompt rows decompose")
        })
        .collect();
    let scratch_wall_s = start.elapsed().as_secs_f64();

    // Identity pass (untimed): a fresh manager replays the same sequence
    // (determinism ⇒ the same hit/eviction sequence as the timed run);
    // every cache must equal its from-scratch matrix byte for byte, and
    // sampled requests must produce oracle-identical engine outputs over
    // the cached planes.
    let mut verify = KvCacheManager::new(cache_config).expect("bench cache shape is valid");
    let check_every = (requests.len() / spec.engine_check_requests.clamp(1, requests.len())).max(1);
    let mut engine_checked_requests = 0usize;
    for (i, req) in requests.iter().enumerate() {
        let attached =
            verify.attach(req.session, &req.ids, &req.rows).expect("bench prompt rows decompose");
        let snapshot = attached.cache.snapshot();
        assert!(
            snapshot.materialize() == scratch[i],
            "{}: request {i} cached planes diverged from from-scratch decomposition",
            spec.id()
        );
        if i % check_every == 0 || i + 1 == requests.len() {
            let queries = check_queries(spec.head_dim, 0xBE7C_0000 + i as u64);
            let q: Vec<&[i8]> = vec![&queries];
            let scale = 0.015_f32;
            let cached_out = run_qk_block(engine, &q, &snapshot, scale);
            let oracle = run_qk_block_reference(engine, &q, &scratch[i], scale);
            assert!(
                cached_out == oracle,
                "{}: request {i} engine outputs diverged from the seed oracle",
                spec.id()
            );
            engine_checked_requests += 1;
        }
        verify.detach(req.session, std::sync::Arc::clone(&req.ids), attached.cache, attached.lease);
    }
    assert_eq!(
        (verify.stats().hit_tokens, verify.stats().decomposed_tokens),
        (stats.hit_tokens, stats.decomposed_tokens),
        "{}: replay determinism broken",
        spec.id()
    );

    PrefixCacheShapeResult {
        spec: *spec,
        n_requests: requests.len(),
        prompt_tokens: requests.iter().map(|r| r.ids.len() as u64).sum(),
        cached_wall_s,
        scratch_wall_s,
        speedup: scratch_wall_s / cached_wall_s.max(f64::MIN_POSITIVE),
        hit_tokens: stats.hit_tokens,
        decomposed_tokens: stats.decomposed_tokens,
        session_resumes: stats.session_resumes,
        engine_checked_requests,
        bit_identical: true,
    }
}

/// Replays the shared-prefix variant under shrinking byte budgets: the
/// largest point is unlimited (no evictions), the smallest is a fraction
/// of the observed peak so evictions *must* fire. Bit-identity against
/// from-scratch planes is re-checked at every point — eviction changes
/// what is resident, never what planes contain.
///
/// # Panics
///
/// Panics if any attached cache diverges from its from-scratch planes,
/// or the smallest budget point fails to evict.
#[must_use]
pub fn run_budget_sweep(
    spec: &PrefixCacheShapeSpec,
    engine: &PadeConfig,
) -> Vec<BudgetPointResult> {
    let arrivals = generate_shared_prefix_arrivals(&spec.workload());
    let requests = prepare(&arrivals, spec.head_dim, engine.bits);
    let base = CacheConfig::new(spec.head_dim, engine.bits, spec.chunk_tokens);
    // Unlimited budget ⇒ resident bytes grow monotonically, so the final
    // residency is the replay's peak — the anchor the sweep shrinks from.
    let peak = replay_manager(&requests, base).resident_bytes();

    let budgets =
        [CacheBudget::unlimited(), CacheBudget::bytes(peak / 2), CacheBudget::bytes(peak / 8)];
    let mut out = Vec::with_capacity(budgets.len());
    for budget in budgets {
        let config = base.with_budget(budget);
        let mut manager = KvCacheManager::new(config).expect("bench cache shape is valid");
        let mut peak_seen = 0u64;
        for req in &requests {
            let attached = manager
                .attach(req.session, &req.ids, &req.rows)
                .expect("bench prompt rows decompose");
            peak_seen = peak_seen.max(manager.resident_bytes());
            let scratch = BitPlaneMatrix::from_rows(&req.rows, spec.head_dim, engine.bits)
                .expect("bench prompt rows decompose");
            assert!(
                attached.cache.snapshot().materialize() == scratch,
                "budget {}: cached planes diverged under eviction pressure",
                budget.max_bytes()
            );
            manager.detach(
                req.session,
                std::sync::Arc::clone(&req.ids),
                attached.cache,
                attached.lease,
            );
        }
        let stats = manager.stats();
        out.push(BudgetPointResult {
            budget_bytes: budget.max_bytes(),
            evictions: stats.evicted_chunks + stats.evicted_sessions,
            hit_tokens: stats.hit_tokens,
            peak_resident_bytes: peak_seen,
            bit_identical: true,
        });
    }
    assert_eq!(out[0].evictions, 0, "the unlimited budget must never evict");
    assert!(
        out.last().expect("at least one budget point").evictions > 0,
        "the smallest budget point must exercise eviction"
    );
    out
}

/// Runs the whole prefix-cache matrix (variants + budget sweep) under
/// the standard engine configuration.
#[must_use]
pub fn run_prefix_cache_matrix(quick: bool) -> PrefixCacheSweep {
    let engine = PadeConfig::standard();
    let matrix = prefix_cache_matrix(quick);
    let results = matrix.iter().map(|spec| run_prefix_cache_shape(spec, &engine)).collect();
    let shared = matrix
        .iter()
        .find(|s| s.label == "shared-prefix")
        .expect("the matrix always carries a shared-prefix variant");
    let budget_points = run_budget_sweep(shared, &engine);
    PrefixCacheSweep { results, budget_points }
}

/// Serializes a prefix-cache sweep to the `BENCH_<n>.json` trajectory
/// schema.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_prefix_cache_json(
    path: &std::path::Path,
    sweep: &PrefixCacheSweep,
    mode: &str,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench_id\": {},", crate::bench_id_from_path(path))?;
    writeln!(f, "  \"tool\": \"pade-bench\",")?;
    writeln!(f, "  \"scenario\": \"prefix-cache\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(
        f,
        "  \"paths\": {{\"cached\": \"pade-cache attach/detach (radix prefix index + \
         session store)\", \"baseline\": \"BitPlaneMatrix::from_rows over every whole \
         prompt\"}},"
    )?;
    writeln!(f, "  \"shapes\": [")?;
    for (i, r) in sweep.results.iter().enumerate() {
        let comma = if i + 1 == sweep.results.len() { "" } else { "," };
        writeln!(f, "    {{")?;
        writeln!(f, "      \"id\": \"{}\",", r.spec.id())?;
        writeln!(f, "      \"variant\": \"{}\",", r.spec.label)?;
        writeln!(f, "      \"n_requests\": {},", r.n_requests)?;
        writeln!(f, "      \"turns_per_session\": {},", r.spec.turns_per_session)?;
        writeln!(f, "      \"pool_size\": {},", r.spec.pool_size)?;
        writeln!(f, "      \"shared_prefix_tokens\": {},", r.spec.shared_prefix_tokens)?;
        writeln!(f, "      \"chunk_tokens\": {},", r.spec.chunk_tokens)?;
        writeln!(f, "      \"prompt_tokens\": {},", r.prompt_tokens)?;
        writeln!(f, "      \"cached_wall_s\": {:.6},", r.cached_wall_s)?;
        writeln!(f, "      \"scratch_wall_s\": {:.6},", r.scratch_wall_s)?;
        writeln!(f, "      \"speedup\": {:.3},", r.speedup)?;
        writeln!(f, "      \"hit_tokens\": {},", r.hit_tokens)?;
        writeln!(f, "      \"decomposed_tokens\": {},", r.decomposed_tokens)?;
        writeln!(f, "      \"session_resumes\": {},", r.session_resumes)?;
        writeln!(f, "      \"engine_checked_requests\": {},", r.engine_checked_requests)?;
        writeln!(f, "      \"bit_identical\": {}", r.bit_identical)?;
        writeln!(f, "    }}{comma}")?;
    }
    writeln!(f, "  ],")?;
    writeln!(f, "  \"budget_sweep\": [")?;
    for (i, b) in sweep.budget_points.iter().enumerate() {
        let comma = if i + 1 == sweep.budget_points.len() { "" } else { "," };
        let budget = if b.budget_bytes == u64::MAX {
            "null".to_string()
        } else {
            b.budget_bytes.to_string()
        };
        writeln!(f, "    {{")?;
        writeln!(f, "      \"budget_bytes\": {budget},")?;
        writeln!(f, "      \"evictions\": {},", b.evictions)?;
        writeln!(f, "      \"hit_tokens\": {},", b.hit_tokens)?;
        writeln!(f, "      \"peak_resident_bytes\": {},", b.peak_resident_bytes)?;
        writeln!(f, "      \"bit_identical\": {}", b.bit_identical)?;
        writeln!(f, "    }}{comma}")?;
    }
    writeln!(f, "  ],")?;
    let headline = sweep
        .results
        .iter()
        .find(|r| r.spec.label == "shared-prefix")
        .or_else(|| sweep.results.last())
        .expect("at least one variant");
    let evictions_at_min = sweep.budget_points.last().map_or(0, |b| b.evictions);
    writeln!(
        f,
        "  \"headline\": {{\"variant\": \"{}\", \"speedup\": {:.3}, \"hit_tokens\": {}, \
         \"decomposed_tokens\": {}, \"evictions_at_min_budget\": {}, \"bit_identical\": {}}}",
        headline.spec.label,
        headline.speedup,
        headline.hit_tokens,
        headline.decomposed_tokens,
        evictions_at_min,
        headline.bit_identical
    )?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_checks_identity_and_sharing() {
        let sweep = run_prefix_cache_matrix(true);
        assert_eq!(sweep.results.len(), 3);
        for r in &sweep.results {
            assert!(r.bit_identical, "{}", r.spec.id());
            assert!(r.engine_checked_requests >= 2);
            assert_eq!(r.hit_tokens + r.decomposed_tokens, r.prompt_tokens);
        }
        let by_label = |l: &str| sweep.results.iter().find(|r| r.spec.label == l).unwrap();
        // Cold shares nothing; shared-prefix and multi-turn must hit.
        assert_eq!(by_label("cold").hit_tokens, 0);
        assert!(by_label("shared-prefix").hit_tokens > 0);
        let mt = by_label("multi-turn");
        assert!(mt.hit_tokens > 0);
        assert!(mt.session_resumes > 0, "multi-turn must resume stored sessions");
        // The budget sweep must exercise eviction at its smallest point.
        assert!(sweep.budget_points.last().unwrap().evictions > 0);
        assert_eq!(sweep.budget_points[0].evictions, 0);
    }

    #[test]
    fn prefix_cache_json_is_well_formed_enough() {
        let sweep = run_prefix_cache_matrix(true);
        let path = std::env::temp_dir().join("pade_prefix_cache_bench_test.json");
        write_prefix_cache_json(&path, &sweep, "quick").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"scenario\": \"prefix-cache\""));
        assert!(text.contains("\"budget_sweep\""));
        assert!(text.contains("\"evictions_at_min_budget\""));
        assert_eq!(text.matches("\"variant\"").count(), 4); // 3 shapes + headline
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn full_matrix_covers_the_three_regimes() {
        let m = prefix_cache_matrix(false);
        for label in ["cold", "shared-prefix", "multi-turn"] {
            assert!(m.iter().any(|s| s.label == label), "missing {label}");
        }
        // The shared-prefix variant is the headline: long pool prefixes,
        // many more sessions than pool entries.
        let shared = m.iter().find(|s| s.label == "shared-prefix").unwrap();
        assert!(shared.shared_prefix_tokens >= 2048);
        assert!(shared.n_sessions >= 4 * shared.pool_size);
    }
}
