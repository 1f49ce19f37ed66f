//! Prompt token-id sequences and shared-prefix / multi-turn arrival
//! traces.
//!
//! PADE's decomposed bit-plane keys are cheap to score but expensive to
//! rebuild, so at serving scale the planes are the asset to manage: two
//! requests whose prompts share a prefix can share the *decomposed* prefix
//! instead of decomposing it twice. That sharing is only sound when key
//! content is a pure function of the prompt, which is what this module
//! pins down:
//!
//! * [`PromptTokens`] — an `Arc`-shared token-id sequence attached to a
//!   [`RequestArrival`]. Its [`key_rows`](PromptTokens::key_rows)
//!   derivation maps every token id to a deterministic quantized key row
//!   (a pure function of the id alone), so equal id prefixes yield
//!   byte-equal key-row prefixes — the invariant `pade-cache` dedups on
//!   and the from-scratch oracle re-derives.
//! * [`SharedPrefixConfig`] / [`generate_shared_prefix_arrivals`] — a
//!   seeded arrival generator for the prefix-reuse serving regime: a
//!   small pool of long shared prompt prefixes (common system prompts),
//!   per-request unique suffixes, and multi-turn sessions whose turn
//!   `k+1` prompt extends the full turn-`k` context (prompt plus the
//!   tokens the session "generated"), so a session store can resume the
//!   grown cache instead of re-decomposing history.
//!
//! Everything is a pure function of the configured seed — no wall clock,
//! no global RNG — matching the discipline of
//! [`generate_arrivals`](crate::trace::generate_arrivals).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::profile::ScoreProfile;
use crate::trace::{RequestArrival, RequestKind, TraceConfig};

/// An `Arc`-shared prompt token-id sequence covering a request's whole
/// key context (prompt prefix plus, for decode requests, the ids of the
/// tokens the session will generate).
///
/// Cloning clones the `Arc`, not the ids, so a prompt can ride on many
/// requests of a multi-turn session for free. Equality compares contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromptTokens {
    ids: Arc<[u32]>,
}

impl PromptTokens {
    /// Wraps a token-id sequence.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty — a request always attends at least one
    /// key token.
    #[must_use]
    pub fn new(ids: Vec<u32>) -> Self {
        assert!(!ids.is_empty(), "a prompt must carry at least one token id");
        Self { ids: ids.into() }
    }

    /// The token ids.
    #[must_use]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The underlying `Arc`-shared id allocation — for consumers that
    /// retain the sequence beyond the request's lifetime (e.g. a cache
    /// manager's session store) and must share it instead of copying it.
    #[must_use]
    pub fn shared_ids(&self) -> Arc<[u32]> {
        Arc::clone(&self.ids)
    }

    /// Number of token ids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Always `false` (construction rejects empty prompts); present for
    /// the conventional `len`/`is_empty` pair.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `self` begins with exactly the ids of `prefix`.
    #[must_use]
    pub fn starts_with(&self, prefix: &[u32]) -> bool {
        self.ids.len() >= prefix.len() && &self.ids[..prefix.len()] == prefix
    }

    /// Derives the quantized key matrix (`len() × dims`, row-major) of
    /// this prompt: row `j` is [`token_key_row`] of id `j`. Equal id
    /// prefixes therefore yield byte-equal key-row prefixes, which is the
    /// property prefix caching and its from-scratch oracle both rest on.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero or `bits` is outside `2..=8`.
    #[must_use]
    pub fn key_rows(&self, dims: usize, bits: u32) -> Vec<i8> {
        assert!(dims > 0, "key rows need at least one dimension");
        let mut out = Vec::with_capacity(self.ids.len() * dims);
        for &id in self.ids.iter() {
            extend_token_key_row(&mut out, id, dims, bits);
        }
        out
    }

    /// The quantization scale of prompt-derived key rows: the real value
    /// one integer step of a [`key_rows`](Self::key_rows) row stands for,
    /// which a prompt-keyed [`AttentionTrace`](crate::trace::AttentionTrace)
    /// folds into its `logit_scale` (and so into the guard margin the
    /// engine derives from it).
    ///
    /// The rule is the 2.5σ clipping calibration drawn keys are quantized
    /// with, applied to their nominal spread σ = 1/√`dims`:
    /// `2.5 / (√dims · (2^(bits−1) − 1))`. At 1k-token h64 contexts the
    /// drawn keys' own clipped scale is 1.02–1.03× this rule (pinned by
    /// `prompt_key_scale_tracks_the_drawn_keys_scale`).
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero or `bits` is outside `2..=8`.
    #[must_use]
    pub fn key_scale(dims: usize, bits: u32) -> f32 {
        assert!(dims > 0, "key rows need at least one dimension");
        assert!((2..=8).contains(&bits), "bit width {bits} outside 2..=8");
        let levels = ((1i32 << (bits - 1)) - 1) as f32;
        2.5 / (dims as f32).sqrt() / levels
    }
}

/// SplitMix64-style finalizer (same constants as `pade-testutil`; kept
/// local so the runtime crate stays dependency-light).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn extend_token_key_row(out: &mut Vec<i8>, id: u32, dims: usize, bits: u32) {
    assert!((2..=8).contains(&bits), "bit width {bits} outside 2..=8");
    let seed = splitmix64(0x70AD_E5EE_D000_0001 ^ u64::from(id));
    for d in 0..dims {
        let h = splitmix64(seed ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Arithmetic shift folds the full i8 range into `bits`-wide two's
        // complement, so the row decomposes under any supported width.
        out.push(((h >> 40) as u8 as i8) >> (8 - bits));
    }
}

/// The deterministic quantized key row of one token id — a pure function
/// of `(id, dims, bits)`, independent of the position the token occupies
/// or the request it rides in. See [`PromptTokens::key_rows`].
///
/// # Panics
///
/// Panics if `dims` is zero or `bits` is outside `2..=8`.
#[must_use]
pub fn token_key_row(id: u32, dims: usize, bits: u32) -> Vec<i8> {
    assert!(dims > 0, "key rows need at least one dimension");
    let mut out = Vec::with_capacity(dims);
    extend_token_key_row(&mut out, id, dims, bits);
    out
}

/// Configuration of a seeded shared-prefix / multi-turn arrival trace.
///
/// Sessions draw their prompt prefix from a small pool of shared
/// prefixes (the "common system prompt" regime), append a per-session
/// unique suffix, and optionally come back for further turns: turn `k+1`
/// extends the full turn-`k` context by `turn_suffix_tokens` fresh ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedPrefixConfig {
    /// Number of sessions.
    pub n_sessions: usize,
    /// Requests per session (1 = single-turn).
    pub turns_per_session: usize,
    /// Distinct shared prefixes in the pool.
    pub pool_size: usize,
    /// Token length of each shared pool prefix.
    pub shared_prefix_tokens: usize,
    /// Unique suffix tokens each session appends on its first turn.
    pub unique_suffix_tokens: usize,
    /// Fresh tokens each later turn appends to the session's context.
    pub turn_suffix_tokens: usize,
    /// Tokens generated by each decode request.
    pub decode_steps: usize,
    /// Fraction of requests that are prefill (prompt ingestion) instead
    /// of decode.
    pub prefill_fraction: f64,
    /// Query rows carried by each prefill request.
    pub prefill_rows: usize,
    /// Mean inter-arrival gap between session first turns, in core
    /// cycles.
    pub mean_interarrival_cycles: f64,
    /// Gap between successive turns of one session, in core cycles (kept
    /// large so a turn usually arrives after the previous one finished
    /// and the session store can resume the grown cache).
    pub turn_gap_cycles: u64,
    /// Vocabulary size token ids are drawn from.
    pub vocab: u32,
    /// Per-head hidden dimension.
    pub head_dim: usize,
    /// Quantization bit width.
    pub bits: u32,
    /// Score structure of the per-request operand traces (queries).
    pub profile: ScoreProfile,
    /// RNG seed; equal seeds produce identical arrival traces.
    pub seed: u64,
}

impl SharedPrefixConfig {
    /// A small deterministic configuration for examples and tests.
    #[must_use]
    pub fn small_demo() -> Self {
        Self {
            n_sessions: 6,
            turns_per_session: 2,
            pool_size: 2,
            shared_prefix_tokens: 96,
            unique_suffix_tokens: 24,
            turn_suffix_tokens: 24,
            decode_steps: 4,
            prefill_fraction: 0.25,
            prefill_rows: 8,
            mean_interarrival_cycles: 20_000.0,
            turn_gap_cycles: 400_000,
            vocab: 50_000,
            head_dim: 64,
            bits: 8,
            profile: ScoreProfile::standard(),
            seed: 7,
        }
    }
}

/// Generates a seeded, reproducible shared-prefix / multi-turn arrival
/// trace. Requests are returned in arrival order with dense ids; all
/// turns of one session carry the same [`RequestArrival::session`] and a
/// turn's prompt extends the previous turn's full context ids.
///
/// # Panics
///
/// Panics if any count is zero where one is required (`n_sessions`,
/// `turns_per_session`, `pool_size`, `shared_prefix_tokens`,
/// `decode_steps`, `prefill_rows`, `vocab`), the mean gap is not
/// positive/finite, or `prefill_fraction` is outside `[0, 1]`.
#[must_use]
pub fn generate_shared_prefix_arrivals(config: &SharedPrefixConfig) -> Vec<RequestArrival> {
    assert!(config.n_sessions > 0, "at least one session required");
    assert!(config.turns_per_session > 0, "at least one turn per session required");
    assert!(config.pool_size > 0, "the prefix pool cannot be empty");
    assert!(config.shared_prefix_tokens > 0, "shared prefixes must carry tokens");
    assert!(config.decode_steps > 0, "decode requests must generate tokens");
    assert!(config.prefill_rows > 0, "prefill requests must carry rows");
    assert!(config.vocab > 0, "token ids need a vocabulary");
    assert!(
        config.mean_interarrival_cycles > 0.0 && config.mean_interarrival_cycles.is_finite(),
        "mean inter-arrival gap must be positive and finite"
    );
    assert!((0.0..=1.0).contains(&config.prefill_fraction), "prefill fraction must lie in [0, 1]");

    // The shared pool: prefix p is a pure function of (seed, p), so two
    // runs — and two sessions — drawing pool entry p share ids exactly.
    let pool: Vec<Vec<u32>> = (0..config.pool_size)
        .map(|p| {
            let mut rng =
                StdRng::seed_from_u64(splitmix64(config.seed ^ 0x5EED_F00D_0000_0000) ^ p as u64);
            (0..config.shared_prefix_tokens).map(|_| rng.gen_range(0..config.vocab)).collect()
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA55E_55ED_5EED_0002);
    let mut now = 0u64;
    let mut arrivals: Vec<RequestArrival> = Vec::new();
    for session in 0..config.n_sessions {
        let u: f64 = rng.gen::<f64>().min(1.0 - 1e-12);
        let gap = (-config.mean_interarrival_cycles * (1.0 - u).ln()).ceil() as u64;
        now += gap;

        let mut ids: Vec<u32> = pool[session % config.pool_size].clone();
        let mut turn_arrival = now;
        for turn in 0..config.turns_per_session {
            let fresh =
                if turn == 0 { config.unique_suffix_tokens } else { config.turn_suffix_tokens };
            for _ in 0..fresh {
                ids.push(rng.gen_range(0..config.vocab));
            }
            let kind = if rng.gen::<f64>() < config.prefill_fraction {
                RequestKind::Prefill { rows: config.prefill_rows }
            } else {
                RequestKind::Decode { steps: config.decode_steps.min(ids.len()) }
            };
            let trace = TraceConfig {
                seq_len: ids.len(),
                head_dim: config.head_dim,
                n_queries: kind.tokens(),
                profile: config.profile,
                bits: config.bits,
                seed: splitmix64(
                    config
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((session as u64) << 16 | turn as u64),
                ),
                prompt_keys: true,
            };
            arrivals.push(RequestArrival {
                id: 0, // assigned after the arrival-order sort below
                arrival_cycle: turn_arrival,
                kind,
                trace,
                session: session as u64,
                prompt: Some(PromptTokens::new(ids.clone())),
                priority: 0,
                tenant_slo: None,
            });
            turn_arrival += config.turn_gap_cycles.max(1);
        }
    }
    // Dense ids in arrival order (later turns of early sessions interleave
    // with first turns of late sessions).
    arrivals.sort_by_key(|r| (r.arrival_cycle, r.session));
    for (id, r) in arrivals.iter_mut().enumerate() {
        r.id = id;
    }
    arrivals
}

/// Configuration of a multi-tenant shared-prefix arrival trace: several
/// tenants, each with its **own** pool of shared prompt prefixes.
///
/// This is the workload of a multi-node serving deployment: requests of
/// one tenant share prefixes with each other but never with another
/// tenant's, so a cache-aware router that co-locates a tenant's sessions
/// concentrates their index hits on one node, while tenant-blind
/// scattering (round-robin) decomposes every pool prefix once *per node*
/// it lands on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiTenantConfig {
    /// Number of tenants, each with a disjoint prefix pool.
    pub tenants: usize,
    /// Sessions per tenant.
    pub sessions_per_tenant: usize,
    /// The per-tenant workload shape (pool size, prefix/suffix lengths,
    /// request mix, arrival rate). `n_sessions` is overridden by
    /// [`sessions_per_tenant`](Self::sessions_per_tenant) and `seed` is
    /// re-derived per tenant, so tenant pools never collide.
    pub per_tenant: SharedPrefixConfig,
    /// RNG seed; equal seeds produce identical arrival traces.
    pub seed: u64,
}

impl MultiTenantConfig {
    /// A small deterministic configuration for examples and tests.
    #[must_use]
    pub fn small_demo() -> Self {
        Self {
            tenants: 3,
            sessions_per_tenant: 3,
            per_tenant: SharedPrefixConfig::small_demo(),
            seed: 7,
        }
    }

    /// The tenant a generated [`RequestArrival::session`] belongs to
    /// (the generator packs the tenant into the session id's high bits).
    #[must_use]
    pub fn tenant_of(session: u64) -> u64 {
        session >> 32
    }
}

/// Generates a seeded, reproducible multi-tenant shared-prefix arrival
/// trace. Per tenant the trace is exactly a
/// [`generate_shared_prefix_arrivals`] trace under a tenant-derived seed;
/// tenants are interleaved in arrival order and session ids carry the
/// tenant in their high 32 bits ([`MultiTenantConfig::tenant_of`]).
///
/// # Panics
///
/// Panics if `tenants` or `sessions_per_tenant` is zero, or the
/// per-tenant configuration violates the
/// [`generate_shared_prefix_arrivals`] preconditions.
#[must_use]
pub fn generate_multi_tenant_arrivals(config: &MultiTenantConfig) -> Vec<RequestArrival> {
    assert!(config.tenants > 0, "at least one tenant required");
    assert!(config.sessions_per_tenant > 0, "at least one session per tenant required");
    let mut arrivals: Vec<RequestArrival> = Vec::new();
    for tenant in 0..config.tenants as u64 {
        let tenant_cfg = SharedPrefixConfig {
            n_sessions: config.sessions_per_tenant,
            seed: splitmix64(config.seed ^ (0x7E2A_27E0_0000_0000 | tenant)),
            ..config.per_tenant
        };
        arrivals.extend(generate_shared_prefix_arrivals(&tenant_cfg).into_iter().map(|mut r| {
            r.session |= tenant << 32;
            r
        }));
    }
    // Dense ids in global arrival order; ties break on the (unique per
    // tenant×session) session id so the interleave is deterministic.
    arrivals.sort_by_key(|r| (r.arrival_cycle, r.session));
    for (id, r) in arrivals.iter_mut().enumerate() {
        r.id = id;
    }
    arrivals
}

/// Configuration of a seeded cache-thrashing arrival trace: a pool of
/// distinct long prompts revisited **round-robin**.
///
/// Round-robin revisiting is the LRU adversary: with a plane budget
/// smaller than the pool's footprint, the chunk evicted longest ago is
/// always exactly the one the *next* visit needs, so a drop-on-evict
/// cache re-decomposes every visit while a spill tier re-adopts the
/// evicted planes by parsing words. `pade-cache`'s spill-tier tests
/// replay it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrashConfig {
    /// Distinct prompts in the pool.
    pub pool_size: usize,
    /// Token length of each pool prompt.
    pub prompt_tokens: usize,
    /// Total arrivals; visit `v` replays pool prompt `v % pool_size`,
    /// each as a **fresh session** (so only the prefix index — not the
    /// session store — can serve the repeat).
    pub visits: usize,
    /// Tokens generated by each visit.
    pub decode_steps: usize,
    /// Fixed gap between visits, in core cycles (large enough that a
    /// visit is normally served — and its chunks evicted — before the
    /// pool wraps around to its prompt again).
    pub gap_cycles: u64,
    /// Vocabulary size token ids are drawn from.
    pub vocab: u32,
    /// Per-head hidden dimension.
    pub head_dim: usize,
    /// Quantization bit width.
    pub bits: u32,
    /// Score structure of the per-request operand traces (queries).
    pub profile: ScoreProfile,
    /// RNG seed; equal seeds produce identical arrival traces.
    pub seed: u64,
}

impl ThrashConfig {
    /// A small deterministic configuration for examples and tests.
    #[must_use]
    pub fn small_demo() -> Self {
        Self {
            pool_size: 4,
            prompt_tokens: 96,
            visits: 16,
            decode_steps: 4,
            gap_cycles: 400_000,
            vocab: 50_000,
            head_dim: 64,
            bits: 8,
            profile: ScoreProfile::standard(),
            seed: 9,
        }
    }
}

/// Generates a seeded, reproducible cache-thrashing arrival trace:
/// `visits` single-turn decode requests at fixed `gap_cycles` spacing,
/// visit `v` carrying pool prompt `v % pool_size` under a fresh session
/// id. Prompts are pure functions of `(seed, pool index)`, so every
/// revisit's ids — and therefore its key rows — are byte-equal to the
/// first visit's.
///
/// # Panics
///
/// Panics if `pool_size`, `prompt_tokens`, `visits`, `decode_steps` or
/// `vocab` is zero.
#[must_use]
pub fn generate_thrash_arrivals(config: &ThrashConfig) -> Vec<RequestArrival> {
    assert!(config.pool_size > 0, "the prompt pool cannot be empty");
    assert!(config.prompt_tokens > 0, "pool prompts must carry tokens");
    assert!(config.visits > 0, "at least one visit required");
    assert!(config.decode_steps > 0, "decode requests must generate tokens");
    assert!(config.vocab > 0, "token ids need a vocabulary");
    let pool: Vec<PromptTokens> = (0..config.pool_size)
        .map(|p| {
            let mut rng =
                StdRng::seed_from_u64(splitmix64(config.seed ^ 0x7842_A5ED_0000_0003) ^ p as u64);
            PromptTokens::new(
                (0..config.prompt_tokens).map(|_| rng.gen_range(0..config.vocab)).collect(),
            )
        })
        .collect();
    (0..config.visits)
        .map(|v| {
            let prompt = pool[v % config.pool_size].clone();
            let steps = config.decode_steps.min(prompt.len());
            RequestArrival {
                id: v,
                arrival_cycle: v as u64 * config.gap_cycles.max(1),
                kind: RequestKind::Decode { steps },
                trace: TraceConfig {
                    seq_len: prompt.len(),
                    head_dim: config.head_dim,
                    n_queries: steps,
                    profile: config.profile,
                    bits: config.bits,
                    seed: splitmix64(config.seed.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ v as u64),
                    prompt_keys: true,
                },
                session: v as u64,
                prompt: Some(prompt),
                priority: 0,
                tenant_slo: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use pade_testutil::fnv1a;

    use super::*;

    #[test]
    fn thrash_arrivals_revisit_the_pool_round_robin() {
        let cfg = ThrashConfig::small_demo();
        let arrivals = generate_thrash_arrivals(&cfg);
        assert_eq!(arrivals.len(), cfg.visits);
        for (v, r) in arrivals.iter().enumerate() {
            assert_eq!(r.id, v);
            assert_eq!(r.arrival_cycle, v as u64 * cfg.gap_cycles);
            assert_eq!(r.session, v as u64, "every visit is a fresh session");
            let prompt = r.prompt.as_ref().expect("thrash arrivals carry prompts");
            assert_eq!(prompt.len(), cfg.prompt_tokens);
            assert_eq!(prompt.len(), r.trace.seq_len);
            // The revisit is byte-equal to the first visit of its pool
            // entry — the prefix index must be able to serve it.
            assert_eq!(prompt.ids(), arrivals[v % cfg.pool_size].prompt.as_ref().unwrap().ids());
        }
        // Distinct pool entries never collide.
        for a in 0..cfg.pool_size {
            for b in a + 1..cfg.pool_size {
                assert_ne!(
                    arrivals[a].prompt.as_ref().unwrap().ids(),
                    arrivals[b].prompt.as_ref().unwrap().ids()
                );
            }
        }
        // Determinism per seed.
        assert_eq!(arrivals, generate_thrash_arrivals(&cfg));
        assert_ne!(arrivals, generate_thrash_arrivals(&ThrashConfig { seed: 10, ..cfg }));
    }

    #[test]
    fn prompt_key_rows_are_pure_per_token_id() {
        let a = PromptTokens::new(vec![3, 1, 4, 1, 5]);
        let rows = a.key_rows(16, 8);
        assert_eq!(rows.len(), 5 * 16);
        // Equal ids yield equal rows regardless of position.
        assert_eq!(rows[16..32], rows[48..64]);
        assert_eq!(rows[..16], token_key_row(3, 16, 8)[..]);
        // Prefix-equality of ids ⇒ byte-equality of key-row prefixes.
        let b = PromptTokens::new(vec![3, 1, 4, 9]);
        assert_eq!(b.key_rows(16, 8)[..3 * 16], rows[..3 * 16]);
        assert!(b.starts_with(&[3, 1, 4]));
        assert!(!b.starts_with(&[3, 1, 5]));
    }

    #[test]
    fn key_rows_fit_every_supported_width() {
        let p = PromptTokens::new((0..64).collect());
        for bits in 2..=8u32 {
            let lo = -(1i32 << (bits - 1));
            let hi = (1i32 << (bits - 1)) - 1;
            let rows = p.key_rows(32, bits);
            assert!(rows.iter().all(|&v| (lo..=hi).contains(&i32::from(v))), "bits {bits}");
            // The derivation actually uses the width (not all zeros).
            assert!(rows.iter().any(|&v| v != 0), "bits {bits}");
        }
    }

    #[test]
    fn shared_prefix_arrivals_are_deterministic_per_seed() {
        let cfg = SharedPrefixConfig::small_demo();
        let a = generate_shared_prefix_arrivals(&cfg);
        let b = generate_shared_prefix_arrivals(&cfg);
        assert_eq!(a, b);
        let c = generate_shared_prefix_arrivals(&SharedPrefixConfig { seed: 8, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn sessions_share_pool_prefixes_and_extend_per_turn() {
        let cfg =
            SharedPrefixConfig { n_sessions: 4, pool_size: 2, ..SharedPrefixConfig::small_demo() };
        let arrivals = generate_shared_prefix_arrivals(&cfg);
        assert_eq!(arrivals.len(), cfg.n_sessions * cfg.turns_per_session);
        for (i, r) in arrivals.iter().enumerate() {
            assert_eq!(r.id, i);
            if i > 0 {
                assert!(r.arrival_cycle >= arrivals[i - 1].arrival_cycle);
            }
            let prompt = r.prompt.as_ref().expect("shared-prefix arrivals carry prompts");
            assert_eq!(prompt.len(), r.trace.seq_len);
        }
        // Sessions 0 and 2 drew pool entry 0: identical shared prefixes,
        // distinct suffixes.
        let turn1 = |s: u64| {
            arrivals
                .iter()
                .filter(|r| r.session == s)
                .min_by_key(|r| r.arrival_cycle)
                .unwrap()
                .prompt
                .clone()
                .unwrap()
        };
        let (p0, p2, p1) = (turn1(0), turn1(2), turn1(1));
        assert_eq!(p0.ids()[..cfg.shared_prefix_tokens], p2.ids()[..cfg.shared_prefix_tokens]);
        assert_ne!(p0.ids(), p2.ids());
        assert_ne!(p0.ids()[..cfg.shared_prefix_tokens], p1.ids()[..cfg.shared_prefix_tokens]);
        // Turn 2 of a session extends turn 1's full context.
        for s in 0..cfg.n_sessions as u64 {
            let mut turns: Vec<&RequestArrival> =
                arrivals.iter().filter(|r| r.session == s).collect();
            turns.sort_by_key(|r| r.arrival_cycle);
            assert_eq!(turns.len(), cfg.turns_per_session);
            for w in turns.windows(2) {
                let (a, b) = (w[0].prompt.as_ref().unwrap(), w[1].prompt.as_ref().unwrap());
                assert!(b.starts_with(a.ids()));
                assert_eq!(b.len(), a.len() + cfg.turn_suffix_tokens);
                assert!(w[1].arrival_cycle >= w[0].arrival_cycle + cfg.turn_gap_cycles);
            }
        }
    }

    #[test]
    fn multi_tenant_pools_are_disjoint_across_tenants() {
        let cfg = MultiTenantConfig::small_demo();
        let arrivals = generate_multi_tenant_arrivals(&cfg);
        assert_eq!(
            arrivals.len(),
            cfg.tenants * cfg.sessions_per_tenant * cfg.per_tenant.turns_per_session
        );
        let prefix_len = cfg.per_tenant.shared_prefix_tokens;
        // Same tenant: at least one pair shares a pool prefix (3 sessions
        // over a 2-entry pool must collide). Different tenants: never.
        let prefix = |r: &RequestArrival| r.prompt.as_ref().unwrap().ids()[..prefix_len].to_vec();
        let mut same_tenant_share = false;
        for a in &arrivals {
            for b in &arrivals {
                if a.session == b.session {
                    continue;
                }
                let share = prefix(a) == prefix(b);
                if MultiTenantConfig::tenant_of(a.session)
                    == MultiTenantConfig::tenant_of(b.session)
                {
                    same_tenant_share |= share;
                } else {
                    assert!(!share, "tenant pools must be disjoint");
                }
            }
        }
        assert!(same_tenant_share, "a tenant's sessions must share pool prefixes");
        // Dense ids, monotone arrivals, tenant recoverable from session.
        for (i, r) in arrivals.iter().enumerate() {
            assert_eq!(r.id, i);
            if i > 0 {
                assert!(r.arrival_cycle >= arrivals[i - 1].arrival_cycle);
            }
            assert!(MultiTenantConfig::tenant_of(r.session) < cfg.tenants as u64);
        }
    }

    #[test]
    fn multi_tenant_arrivals_are_deterministic_per_seed() {
        let cfg = MultiTenantConfig::small_demo();
        assert_eq!(generate_multi_tenant_arrivals(&cfg), generate_multi_tenant_arrivals(&cfg));
        let other = generate_multi_tenant_arrivals(&MultiTenantConfig { seed: 8, ..cfg });
        assert_ne!(generate_multi_tenant_arrivals(&cfg), other);
    }

    #[test]
    fn multi_tenant_turns_extend_their_session_context() {
        let cfg = MultiTenantConfig::small_demo();
        let arrivals = generate_multi_tenant_arrivals(&cfg);
        for s in arrivals.iter().map(|r| r.session).collect::<std::collections::BTreeSet<_>>() {
            let mut turns: Vec<&RequestArrival> =
                arrivals.iter().filter(|r| r.session == s).collect();
            turns.sort_by_key(|r| r.arrival_cycle);
            for w in turns.windows(2) {
                let (a, b) = (w[0].prompt.as_ref().unwrap(), w[1].prompt.as_ref().unwrap());
                assert!(b.starts_with(a.ids()), "turn k+1 must extend turn k");
            }
        }
    }

    #[test]
    fn prefill_fraction_shapes_the_mix() {
        let all_prefill = generate_shared_prefix_arrivals(&SharedPrefixConfig {
            prefill_fraction: 1.0,
            ..SharedPrefixConfig::small_demo()
        });
        assert!(all_prefill.iter().all(|r| matches!(r.kind, RequestKind::Prefill { .. })));
        let all_decode = generate_shared_prefix_arrivals(&SharedPrefixConfig {
            prefill_fraction: 0.0,
            ..SharedPrefixConfig::small_demo()
        });
        assert!(all_decode.iter().all(|r| matches!(r.kind, RequestKind::Decode { .. })));
    }

    #[test]
    fn prompt_arrivals_mark_their_traces_prompt_keyed() {
        let prompted = [
            generate_shared_prefix_arrivals(&SharedPrefixConfig::small_demo()),
            generate_multi_tenant_arrivals(&MultiTenantConfig::small_demo()),
            generate_thrash_arrivals(&ThrashConfig::small_demo()),
        ];
        for r in prompted.iter().flatten() {
            assert!(r.prompt.is_some() && r.trace.prompt_keys, "request {}", r.id);
        }
        for r in crate::trace::generate_arrivals(&crate::trace::ArrivalConfig::small_demo()) {
            assert!(r.prompt.is_none() && !r.trace.prompt_keys, "request {}", r.id);
        }
    }

    #[test]
    fn key_scale_is_the_nominal_clipping_rule() {
        // 2.5 / (√64 · 127) and 2.5 / (√7 · 7), bit for bit.
        assert_eq!(PromptTokens::key_scale(64, 8).to_bits(), 0x3b21_4285);
        assert_eq!(PromptTokens::key_scale(7, 4).to_bits(), 0x3e0a_3a1d);
        for bits in 2..=8u32 {
            let levels = ((1i32 << (bits - 1)) - 1) as f32;
            let want = 2.5 / 128f32.sqrt() / levels;
            assert_eq!(PromptTokens::key_scale(128, bits), want, "{bits} bits");
        }
    }

    #[test]
    fn key_rows_bytes_are_pinned() {
        // The purity tests compare rows with each other; these hashes pin
        // the bytes themselves, so a change to any byte of any row fails.
        let ids: Vec<u32> =
            (0..48).map(|i| i * 7919).chain([u32::MAX, 0, 1, 0x8000_0000]).collect();
        let prompt = PromptTokens::new(ids);
        let golden: [(usize, u32, u64); 4] = [
            (64, 3, 0xa206_3280_fb19_357e),
            (64, 8, 0xe499_e9d9_934e_9365),
            (70, 3, 0x4322_965b_b5ed_503b),
            (70, 8, 0x964c_8fca_8eb2_4c94),
        ];
        for (dims, bits, hash) in golden {
            let rows = prompt.key_rows(dims, bits);
            assert_eq!(rows.len(), prompt.len() * dims);
            let got = fnv1a(rows.iter().map(|&x| x as u8));
            assert_eq!(got, hash, "dims {dims}, {bits} bits: {got:#018x}");
        }
    }
}
