//! Synthetic attention trace generation.
//!
//! A trace holds the quantized Q/K/V operands of one attention head plus
//! the exact INT8 ground truth derived from them. Q and K are drawn when
//! the trace is generated; V, which only the dense references read, is
//! drawn on first read, and so is K when the request's keys come from a
//! prompt (see [`AttentionTrace`]). Score structure is
//! injected through a small set of shared *feature directions* rather than
//! per-token boosts: sink tokens carry a sink direction, recent tokens a
//! ramped recency direction, and heavy-tail tokens one of a few retrieval
//! directions that queries subscribe to. This keeps the cross-talk between
//! S ≫ H tokens bounded (it hides in the configured noise floor) while
//! giving precise control over how much softmax mass each structure owns —
//! which is exactly the input property the paper's pruning results depend
//! on.

use std::sync::OnceLock;

use pade_linalg::MatF32;
use pade_quant::{quantize_matrix, quantize_matrix_clipped, QuantizedMatrix};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::profile::ScoreProfile;
use crate::prompt::PromptTokens;

/// Number of distinct heavy-tail retrieval directions.
const TAIL_FAMILIES: usize = 4;

/// Configuration of one synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Context length (number of keys/values).
    pub seq_len: usize,
    /// Per-head hidden dimension.
    pub head_dim: usize,
    /// Number of query rows to materialize (PADE processes 8 per head in
    /// prefill). Arrival traces set it to the request's token count, so a
    /// decode request carries one row per step.
    pub n_queries: usize,
    /// Attention score structure.
    pub profile: ScoreProfile,
    /// Quantization bit width for Q/K/V (8 in the main configuration).
    pub bits: u32,
    /// RNG seed; equal seeds produce identical traces.
    pub seed: u64,
    /// Whether the request's keys come from a prompt
    /// ([`PromptTokens::key_rows`]) rather than from this trace. A
    /// prompt-keyed trace skips K's draws in the seeded stream without
    /// computing them, so Q and V are byte-identical to the drawn trace's,
    /// and takes `logit_scale`'s key factor from
    /// [`PromptTokens::key_scale`]. K is then drawn only if
    /// [`AttentionTrace::keys`] is read. The prompt arrival generators set
    /// it on every request that carries a prompt.
    pub prompt_keys: bool,
}

impl TraceConfig {
    /// A small deterministic configuration for examples and tests.
    #[must_use]
    pub fn small_demo() -> Self {
        Self {
            seq_len: 256,
            head_dim: 64,
            n_queries: 4,
            profile: ScoreProfile::standard(),
            bits: 8,
            seed: 7,
            prompt_keys: false,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            seq_len: 2048,
            head_dim: 64,
            n_queries: 8,
            profile: ScoreProfile::standard(),
            bits: 8,
            seed: 42,
            prompt_keys: false,
        }
    }
}

/// One attention head's operands plus exact INT8 ground truth.
///
/// The feature basis, K and Q are drawn from the seeded generator when the
/// trace is generated, in that order. V comes last in the same stream, so
/// the trace keeps the generator as it stands after the Q draws and draws
/// V from it the first time [`values`](Self::values),
/// [`values_f32`](Self::values_f32),
/// [`reference_output`](Self::reference_output) or
/// [`subset_output`](Self::subset_output) is called. V is
/// therefore bit-identical to an eager draw, whichever operand is read
/// first, and traces that are only scored (the serving path reads Q and K
/// alone) never pay for it.
///
/// A prompt-keyed trace ([`TraceConfig::prompt_keys`]) skips K's draws at
/// generation and draws K from a fresh generator the first time
/// [`keys`](Self::keys) or [`key_prefix`](Self::key_prefix) is read, so
/// serving, whose prompt requests score against prompt-derived keys,
/// never pays for it either.
#[derive(Debug, Clone)]
pub struct AttentionTrace {
    config: TraceConfig,
    q: QuantizedMatrix,
    /// Quantized keys: drawn at generation, or on first read for a
    /// prompt-keyed trace.
    k: OnceLock<QuantizedMatrix>,
    logit_scale: f32,
    /// The generator as it stands after the Q draws: the start of V's
    /// stream.
    v_rng: StdRng,
    /// Quantized and FP32 values, drawn from `v_rng` on first read.
    v: OnceLock<(QuantizedMatrix, MatF32)>,
}

impl AttentionTrace {
    /// Generates a trace from a configuration: draws the feature basis,
    /// the keys and the queries, and quantizes Q and K. The values are
    /// drawn on first read, and so are a prompt-keyed trace's keys (see
    /// [`AttentionTrace`]).
    ///
    /// # Panics
    ///
    /// Panics if `seq_len`, `head_dim` or `n_queries` is zero, or if
    /// `head_dim` is 6 or less, too small for the six-direction feature
    /// basis.
    #[must_use]
    pub fn generate(config: &TraceConfig) -> Self {
        assert!(config.seq_len > 0 && config.head_dim > 0 && config.n_queries > 0);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let h = config.head_dim;
        let p = &config.profile;
        let basis = draw_basis(&mut rng, h);
        let k = if config.prompt_keys {
            skip_keys(&mut rng, config);
            OnceLock::new()
        } else {
            OnceLock::from(draw_keys(&mut rng, config, &basis))
        };
        let (sink_dir, recency_dir, tail_dirs) = (&basis[0], &basis[1], &basis[2..]);

        // Queries: noise floor with configured logit sigma plus direction
        // subscriptions (every query sees sinks and recency; each query
        // subscribes to one tail family).
        let mut q = MatF32::zeros(config.n_queries, h);
        for i in 0..config.n_queries {
            let family = rng.gen_range(0..TAIL_FAMILIES);
            let row = q.row_mut(i);
            for x in row.iter_mut() {
                *x = standard_normal(&mut rng);
            }
            project_out(row, h, &basis);
            // |q_noise| = noise_sigma·√H makes q·k_noise ~ N(0, noise_sigma²).
            let target = p.noise_sigma * (h as f32).sqrt();
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            for x in row.iter_mut() {
                *x *= target / norm;
            }
            for d in 0..h {
                row[d] += p.sink_strength * sink_dir[d]
                    + p.locality_strength * recency_dir[d]
                    + p.tail_strength * tail_dirs[family][d];
            }
        }

        // Queries are quantized with 3σ outlier clipping, the calibration
        // step of any practical INT8 PTQ pipeline (keys use 2.5σ, see
        // `draw_keys`).
        let qq = quantize_matrix_clipped(q.as_slice(), config.n_queries, h, config.bits, 3.0)
            .expect("query quantization");
        let key_scale = match k.get() {
            Some(kq) => kq.params().scale(),
            None => PromptTokens::key_scale(h, config.bits),
        };
        let logit_scale = qq.params().scale() * key_scale;
        Self { config: *config, q: qq, k, logit_scale, v_rng: rng, v: OnceLock::new() }
    }

    /// The quantized and FP32 values, drawn on the first call.
    fn drawn_values(&self) -> &(QuantizedMatrix, MatF32) {
        self.v.get_or_init(|| {
            let (s, h) = (self.config.seq_len, self.config.head_dim);
            let mut rng = self.v_rng.clone();
            // Values: plain activations.
            let mut v = MatF32::zeros(s, h);
            for j in 0..s {
                for x in v.row_mut(j).iter_mut() {
                    *x = standard_normal(&mut rng) * 0.5;
                }
            }
            let vq =
                quantize_matrix(v.as_slice(), s, h, self.config.bits).expect("value quantization");
            (vq, v)
        })
    }

    /// The generating configuration.
    #[must_use]
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Quantized queries (`n_queries × H`).
    #[must_use]
    pub fn queries(&self) -> &QuantizedMatrix {
        &self.q
    }

    /// Quantized keys (`S × H`), drawn on the first read for a
    /// prompt-keyed trace.
    #[must_use]
    pub fn keys(&self) -> &QuantizedMatrix {
        self.k.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(self.config.seed);
            let basis = draw_basis(&mut rng, self.config.head_dim);
            draw_keys(&mut rng, &self.config, &basis)
        })
    }

    /// Whether K has been drawn: always for a trace drawn with its keys,
    /// and for a prompt-keyed trace only once [`keys`](Self::keys) or
    /// [`key_prefix`](Self::key_prefix) has been read.
    #[must_use]
    pub fn keys_drawn(&self) -> bool {
        self.k.get().is_some()
    }

    /// Row-major slice of the first `tokens` quantized key rows — the key
    /// prefix a partially-grown decode session attends over.
    ///
    /// # Panics
    ///
    /// Panics if `tokens > seq_len`.
    #[must_use]
    pub fn key_prefix(&self, tokens: usize) -> &[i8] {
        let k = self.keys();
        assert!(tokens <= k.rows(), "prefix of {tokens} tokens exceeds the context");
        &k.as_slice()[..tokens * k.cols()]
    }

    /// Quantized values (`S × H`), drawn on the first read.
    #[must_use]
    pub fn values(&self) -> &QuantizedMatrix {
        &self.drawn_values().0
    }

    /// The FP32 values used for reference outputs, drawn on the first read.
    #[must_use]
    pub fn values_f32(&self) -> &MatF32 {
        &self.drawn_values().1
    }

    /// Multiplier mapping an integer Q·K dot product into the logit domain
    /// (`Δq·Δk`; the softmax temperature is already folded into the score
    /// structure at generation time).
    #[must_use]
    pub fn logit_scale(&self) -> f32 {
        self.logit_scale
    }

    /// Exact INT8 logits of query row `i` — the ground truth every pruning
    /// decision is judged against.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_queries`.
    #[must_use]
    pub fn exact_logits(&self, i: usize) -> Vec<f32> {
        let q = self.q.row(i);
        let k = self.keys();
        (0..k.rows())
            .map(|j| {
                let dot: i32 =
                    q.iter().zip(k.row(j)).map(|(&a, &b)| i32::from(a) * i32::from(b)).sum();
                dot as f32 * self.logit_scale
            })
            .collect()
    }

    /// Exact attention output of query row `i` over all keys (INT8 scores,
    /// FP32 values) — the dense reference for fidelity metrics.
    #[must_use]
    pub fn reference_output(&self, i: usize) -> Vec<f32> {
        let logits = self.exact_logits(i);
        let weights = pade_linalg::softmax(&logits);
        let v = self.values_f32();
        let mut out = vec![0.0f32; v.cols()];
        for (j, &w) in weights.iter().enumerate() {
            for (o, &x) in out.iter_mut().zip(v.row(j)) {
                *o += w * x;
            }
        }
        out
    }

    /// Exact attention output over a retained subset (the ideal result of a
    /// pruning method that kept exactly `retained`).
    #[must_use]
    pub fn subset_output(&self, i: usize, retained: &[usize]) -> Vec<f32> {
        let logits = self.exact_logits(i);
        let scores: Vec<f32> = retained.iter().map(|&j| logits[j]).collect();
        let weights = pade_linalg::softmax(&scores);
        let v = self.values_f32();
        let mut out = vec![0.0f32; v.cols()];
        for (&j, &w) in retained.iter().zip(&weights) {
            for (o, &x) in out.iter_mut().zip(v.row(j)) {
                *o += w * x;
            }
        }
        out
    }

    /// Dense MAC count for this trace (all queries × all keys × H, for QKᵀ
    /// plus the PV product).
    #[must_use]
    pub fn dense_macs(&self) -> u64 {
        2 * self.config.n_queries as u64 * self.config.seq_len as u64 * self.config.head_dim as u64
    }
}

/// What one served request asks the attention engine to do.
///
/// The serving layer (`pade-serve`) consumes these; the variants mirror
/// the two phases of LLM inference the paper models (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Prompt ingestion: `rows` query rows over the full context.
    Prefill {
        /// Query rows the request brings (the prompt chunk height).
        rows: usize,
    },
    /// Token generation: `steps` single-row decode steps, each over the
    /// session's cached context.
    Decode {
        /// Tokens to generate.
        steps: usize,
    },
}

impl RequestKind {
    /// Query rows (≙ produced/ingested tokens) this request executes.
    #[must_use]
    pub fn tokens(&self) -> usize {
        match *self {
            RequestKind::Prefill { rows } => rows,
            RequestKind::Decode { steps } => steps,
        }
    }

    /// Key-prefix length block `step` of this request attends over, given
    /// a `seq_len`-token operand trace.
    ///
    /// Prefill chunks always see the full context. Decode sessions grow
    /// autoregressively: the prompt prefix is the first `seq_len − steps`
    /// keys (at least one), and each completed step appends the next key
    /// row — the token the step just "generated" — so step `t` attends
    /// over `base + t` tokens. The final step (`t = steps − 1`) therefore
    /// attends `seq_len − 1` tokens: the key of the token it is itself
    /// generating is never attended (the result is clamped to `seq_len`
    /// only for out-of-range `step`). This single definition is shared by
    /// the serving layer's growable caches and the from-scratch oracle,
    /// so the two stay aligned.
    #[must_use]
    pub fn context_len(&self, seq_len: usize, step: usize) -> usize {
        match *self {
            RequestKind::Prefill { .. } => seq_len,
            RequestKind::Decode { steps } => {
                let base = seq_len.saturating_sub(steps).max(1);
                (base + step).min(seq_len)
            }
        }
    }
}

/// Configuration of a synthetic request-arrival trace.
///
/// Arrivals follow a seeded Poisson-like process: inter-arrival gaps are
/// exponentially distributed with the configured mean, drawn from a
/// [`StdRng`] — **no wall clock and no global RNG**, so equal seeds give
/// byte-identical traces on every run and machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalConfig {
    /// Number of requests to generate.
    pub n_requests: usize,
    /// Mean inter-arrival gap in core cycles (1 / arrival rate).
    pub mean_interarrival_cycles: f64,
    /// Fraction of requests that are decode sessions (the rest prefill).
    pub decode_fraction: f64,
    /// Tokens generated by each decode request.
    pub decode_steps: usize,
    /// Query rows carried by each prefill request.
    pub prefill_rows: usize,
    /// Context length every request attends over.
    pub seq_len: usize,
    /// Per-head hidden dimension.
    pub head_dim: usize,
    /// Quantization bit width.
    pub bits: u32,
    /// Score structure of the per-request operand traces.
    pub profile: ScoreProfile,
    /// RNG seed; equal seeds produce identical arrival traces.
    pub seed: u64,
}

impl ArrivalConfig {
    /// A small deterministic configuration for examples and tests.
    #[must_use]
    pub fn small_demo() -> Self {
        Self {
            n_requests: 8,
            mean_interarrival_cycles: 20_000.0,
            decode_fraction: 0.5,
            decode_steps: 4,
            prefill_rows: 16,
            seq_len: 256,
            head_dim: 64,
            bits: 8,
            profile: ScoreProfile::standard(),
            seed: 7,
        }
    }
}

/// One request of an arrival trace: when it arrives, what it asks for and
/// the (seeded) operand trace it executes against.
///
/// Cloning is cheap: the only non-`Copy` field is the `Arc`-shared
/// [`PromptTokens`].
#[derive(Debug, Clone, PartialEq)]
pub struct RequestArrival {
    /// Request id, dense from 0 in arrival order.
    pub id: usize,
    /// Arrival time in core cycles.
    pub arrival_cycle: u64,
    /// Decode or prefill, with its size.
    pub kind: RequestKind,
    /// Per-request operand trace configuration (seed derived from the
    /// arrival seed and the id, so requests are distinct but reproducible).
    pub trace: TraceConfig,
    /// Session the request belongs to. Requests of one session arrive at
    /// different times but share (and extend) a context; a prefix-sharing
    /// cache manager keys its session store on this. Single-turn traces
    /// use the request id, so every request is its own session.
    pub session: u64,
    /// Prompt token-id sequence covering the request's whole key context,
    /// when the workload models token identity (shared-prefix / multi-turn
    /// traces). `None` means the key tensor comes from the operand trace
    /// alone, as in the plain [`generate_arrivals`] workloads.
    pub prompt: Option<PromptTokens>,
    /// Scheduling priority of the request's tenant — higher runs first
    /// under an SLO-aware scheduler. Priority is a **scheduling** input
    /// only: it may reorder dispatch, never change a request's output
    /// bytes. The plain generators stamp 0 (every request equal, FCFS
    /// semantics preserved).
    pub priority: u8,
    /// The tenant's end-to-end latency SLO in core cycles (completion −
    /// arrival), or `None` when the tenant has no latency objective. An
    /// SLO-aware scheduler orders by `arrival + tenant_slo` deadlines and
    /// the serve metrics report per-tenant attainment against it; like
    /// [`priority`](Self::priority) it never changes output bytes.
    pub tenant_slo: Option<u64>,
}

/// Generates a seeded, reproducible arrival trace.
///
/// Inter-arrival gaps are `⌈-mean · ln(1-U)⌉` cycles with `U` uniform in
/// `[0, 1)` (inverse-CDF exponential sampling), so the process is
/// Poisson-like but fully deterministic per seed.
///
/// # Panics
///
/// Panics if `n_requests` is zero, the mean gap is not positive/finite,
/// or `decode_fraction` is outside `[0, 1]`.
#[must_use]
pub fn generate_arrivals(config: &ArrivalConfig) -> Vec<RequestArrival> {
    assert!(config.n_requests > 0, "at least one request required");
    assert!(
        config.mean_interarrival_cycles > 0.0 && config.mean_interarrival_cycles.is_finite(),
        "mean inter-arrival gap must be positive and finite"
    );
    assert!((0.0..=1.0).contains(&config.decode_fraction), "decode fraction must lie in [0, 1]");
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xA55E_55ED_5EED_0001);
    let mut now = 0u64;
    let mut out = Vec::with_capacity(config.n_requests);
    for id in 0..config.n_requests {
        let u: f64 = rng.gen::<f64>().min(1.0 - 1e-12);
        let gap = (-config.mean_interarrival_cycles * (1.0 - u).ln()).ceil() as u64;
        now += gap;
        let kind = if rng.gen::<f64>() < config.decode_fraction {
            RequestKind::Decode { steps: config.decode_steps.max(1) }
        } else {
            RequestKind::Prefill { rows: config.prefill_rows.max(1) }
        };
        let trace = TraceConfig {
            seq_len: config.seq_len,
            head_dim: config.head_dim,
            n_queries: kind.tokens(),
            profile: config.profile,
            bits: config.bits,
            seed: config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(id as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9),
            prompt_keys: false,
        };
        out.push(RequestArrival {
            id,
            arrival_cycle: now,
            kind,
            trace,
            session: id as u64,
            prompt: None,
            priority: 0,
            tenant_slo: None,
        });
    }
    out
}

/// One tenant's slice of a mixed-tenant arrival trace: a plain
/// [`ArrivalConfig`] workload plus the scheduling attributes its requests
/// carry.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLoad {
    /// Tenant id, packed into the high 32 bits of every generated
    /// request's session (the [`MultiTenantConfig::tenant_of`] convention).
    ///
    /// [`MultiTenantConfig::tenant_of`]: crate::prompt::MultiTenantConfig::tenant_of
    pub tenant: u32,
    /// Priority stamped on every request of this tenant.
    pub priority: u8,
    /// Latency SLO stamped on every request of this tenant.
    pub tenant_slo: Option<u64>,
    /// Shape of this tenant's arrival process.
    pub arrivals: ArrivalConfig,
}

/// Generates a merged multi-tenant arrival trace from per-tenant loads —
/// the workload of an SLO-aware scheduler evaluation: e.g. a foreground
/// tenant issuing latency-sensitive decodes while a background tenant
/// floods long prefills.
///
/// Per tenant the trace is exactly [`generate_arrivals`] of its config;
/// tenants are merged in `(arrival_cycle, session)` order and request ids
/// are re-assigned densely over the merge, so the result satisfies the
/// same id/ordering contract as every other generator.
///
/// # Panics
///
/// Panics if `loads` is empty, two loads share a tenant id, or any
/// per-tenant config violates the [`generate_arrivals`] preconditions.
#[must_use]
pub fn generate_tenant_mix(loads: &[TenantLoad]) -> Vec<RequestArrival> {
    assert!(!loads.is_empty(), "at least one tenant load required");
    for (i, a) in loads.iter().enumerate() {
        for b in &loads[i + 1..] {
            assert!(a.tenant != b.tenant, "tenant ids must be distinct");
        }
    }
    let mut out: Vec<RequestArrival> = Vec::new();
    for load in loads {
        out.extend(generate_arrivals(&load.arrivals).into_iter().map(|mut r| {
            r.session |= u64::from(load.tenant) << 32;
            r.priority = load.priority;
            r.tenant_slo = load.tenant_slo;
            r
        }));
    }
    // Dense ids in global arrival order; ties break on the (unique per
    // tenant×request) session id so the interleave is deterministic.
    out.sort_by_key(|r| (r.arrival_cycle, r.session));
    for (id, r) in out.iter_mut().enumerate() {
        r.id = id;
    }
    out
}

/// Draws the shared feature directions (sink, recency, then one per tail
/// family), made exactly orthonormal so structure logits are deterministic
/// and cross-talk lives only in the configured noise floor.
///
/// # Panics
///
/// Panics if `h` is 6 or less, too small for the basis.
fn draw_basis(rng: &mut StdRng, h: usize) -> Vec<Vec<f32>> {
    assert!(h > 2 + TAIL_FAMILIES, "head_dim too small for the feature basis");
    let mut basis: Vec<Vec<f32>> = Vec::with_capacity(2 + TAIL_FAMILIES);
    while basis.len() < 2 + TAIL_FAMILIES {
        let mut v: Vec<f32> = (0..h).map(|_| standard_normal(rng)).collect();
        project_out(&mut v, h, &basis);
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-3 {
            for x in &mut v {
                *x /= norm;
            }
            basis.push(v);
        }
    }
    basis
}

/// Key `j`'s structure-flag draws: the tail family it carries, if any.
/// Each token carries at most one structure (sink ≻ tail ≻ recency);
/// stacking would create outlier logits no real score row exhibits.
fn tail_family(rng: &mut StdRng, p: &ScoreProfile, j: usize) -> Option<usize> {
    (j >= p.sink_tokens && rng.gen::<f32>() < p.tail_rate).then(|| rng.gen_range(0..TAIL_FAMILIES))
}

/// Draws the quantized keys from `rng`, which stands right after the
/// feature basis: isotropic noise of unit expected norm plus the structure
/// directions, quantized with 2.5σ outlier clipping. That clipping keeps
/// the integer scale representative of the bulk data, which is also what
/// makes bit-serial early termination effective.
fn draw_keys(rng: &mut StdRng, config: &TraceConfig, basis: &[Vec<f32>]) -> QuantizedMatrix {
    let (s, h, p) = (config.seq_len, config.head_dim, &config.profile);
    // Each row's noise is drawn before its flags, as one stream; the
    // projection draws nothing, so it runs over all rows afterwards.
    let inv_sqrt_h = 1.0 / (h as f32).sqrt();
    let mut k = MatF32::zeros(s, h);
    let mut families = vec![None; s];
    for (j, family) in families.iter_mut().enumerate() {
        for x in k.row_mut(j) {
            *x = standard_normal(rng) * inv_sqrt_h;
        }
        *family = tail_family(rng, p, j);
    }
    // Keep key noise out of the feature span so query subscriptions see
    // exactly the configured boosts.
    project_out(k.as_mut_slice(), h, basis);
    for (j, family) in families.into_iter().enumerate() {
        // A weight of 1 adds a direction exactly.
        let (weight, dir) = match family {
            _ if j < p.sink_tokens => (1.0, &basis[0]),
            Some(f) => (1.0, &basis[2 + f]),
            // Recency ramp relative to the sequence end, decaying with
            // distance over the locality window.
            None => {
                let dist = (s - 1 - j) as f32;
                ((-dist / p.locality_window.max(1) as f32).exp(), &basis[1])
            }
        };
        for (x, &y) in k.row_mut(j).iter_mut().zip(dir) {
            *x += weight * y;
        }
    }
    quantize_matrix_clipped(k.as_slice(), s, h, config.bits, 2.5).expect("key quantization")
}

/// Advances `rng` past exactly the draws [`draw_keys`] makes, computing
/// none of the keys: each noise value is one [`standard_normal`], two
/// `next_u64` calls, and each row's structure flags are drawn as there.
fn skip_keys(rng: &mut StdRng, config: &TraceConfig) {
    for j in 0..config.seq_len {
        for _ in 0..2 * config.head_dim {
            rng.next_u64();
        }
        tail_family(rng, &config.profile, j);
    }
}

/// Removes from each `h`-wide row of `rows` its components in the span of
/// `basis` (which must be orthonormal).
fn project_out(rows: &mut [f32], h: usize, basis: &[Vec<f32>]) {
    const BLOCK: usize = 8;
    let mut blocks = rows.chunks_exact_mut(BLOCK * h);
    for block in &mut blocks {
        project_block::<BLOCK>(block, h, basis);
    }
    for row in blocks.into_remainder().chunks_exact_mut(h) {
        project_block::<1>(row, h, basis);
    }
}

/// [`project_out`] over `R` consecutive rows. The dot products walk the
/// block dimension by dimension, so its `R` chains advance side by side,
/// while each row still sums `x·y` in dimension order from −0.0 (as `Sum`
/// does) and is bit-identical to a row projected alone.
fn project_block<const R: usize>(block: &mut [f32], h: usize, basis: &[Vec<f32>]) {
    for b in basis {
        let b = &b[..h];
        let mut dots = [-0.0f32; R];
        let rows: [&[f32]; R] = std::array::from_fn(|r| &block[r * h..][..h]);
        for (d, &y) in b.iter().enumerate() {
            for (dot, row) in dots.iter_mut().zip(rows) {
                *dot += row[d] * y;
            }
        }
        for (row, dot) in block.chunks_exact_mut(h).zip(dots) {
            for (x, &y) in row.iter_mut().zip(b) {
                *x -= dot * y;
            }
        }
    }
}

/// Standard normal sample via Box–Muller (keeps the dependency surface to
/// `rand`'s uniform source only). Draws two uniforms, one `next_u64` each,
/// which [`skip_keys`] relies on.
fn standard_normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(1e-7f32..1.0);
    let u2: f32 = rng.gen::<f32>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use pade_testutil::fnv1a;

    use super::*;
    use crate::profile::ScoreProfile;

    fn small(seed: u64) -> AttentionTrace {
        AttentionTrace::generate(&TraceConfig { seed, ..TraceConfig::small_demo() })
    }

    /// V's quantized bytes and FP32 bit patterns.
    fn value_bits(t: &AttentionTrace) -> (Vec<i8>, Vec<u32>) {
        let f32_bits = t.values_f32().as_slice().iter().map(|x| x.to_bits()).collect();
        (t.values().as_slice().to_vec(), f32_bits)
    }

    /// One hash over every operand a trace exposes: Q and K bytes, both
    /// quantization scales, the logit scale, and V's bytes and f32 bits.
    fn operand_hash(t: &AttentionTrace) -> u64 {
        let (v_bytes, v_bits) = value_bits(t);
        let int_bytes = |m: &QuantizedMatrix| m.as_slice().iter().map(|&x| x as u8).collect();
        let parts: [Vec<u8>; 7] = [
            int_bytes(t.queries()),
            int_bytes(t.keys()),
            t.queries().params().scale().to_le_bytes().to_vec(),
            t.keys().params().scale().to_le_bytes().to_vec(),
            t.logit_scale().to_le_bytes().to_vec(),
            v_bytes.iter().map(|&x| x as u8).collect(),
            v_bits.iter().flat_map(|b| b.to_le_bytes()).collect(),
        ];
        fnv1a(parts.into_iter().flatten())
    }

    #[test]
    fn generated_operands_are_pinned() {
        // Any change to a drawn, projected or quantized value fails here.
        // The shapes cover ragged head dims and row counts that are not a
        // multiple of the projection block.
        const SHAPES: [(usize, usize, usize); 5] =
            [(512, 64, 8), (1088, 64, 2), (37, 7, 3), (513, 65, 1), (9, 199, 4)];
        const GOLDEN: [[u64; 5]; 3] = [
            [
                0x4d0f_8e99_af87_f3ea,
                0xba0a_9fa9_549b_04d4,
                0x6d1f_0ec2_e994_cf5c,
                0x1f66_f2ed_55d6_3078,
                0x3943_4282_a5b5_18bf,
            ],
            [
                0x5fdb_0978_f372_21d2,
                0xfcb2_1c72_7b9b_8e58,
                0xb84c_e98b_5fdf_e95a,
                0x9942_93fb_e12b_e157,
                0xc39c_bf51_b326_faab,
            ],
            [
                0xfeda_dbec_cecd_44e5,
                0x6b4c_1119_2c4c_2bb5,
                0x5244_c254_324f_ac14,
                0x9d77_b943_0c5f_1d9c,
                0xb587_7155_6691_bf56,
            ],
        ];
        for (bits, golden) in [2, 4, 8].into_iter().zip(GOLDEN) {
            for ((seq_len, head_dim, n_queries), hash) in SHAPES.into_iter().zip(golden) {
                let t = AttentionTrace::generate(&TraceConfig {
                    seq_len,
                    head_dim,
                    n_queries,
                    profile: ScoreProfile::standard(),
                    bits,
                    seed: 0x601D ^ seq_len as u64,
                    prompt_keys: false,
                });
                let got = operand_hash(&t);
                assert_eq!(
                    got, hash,
                    "{bits} bits, shape ({seq_len}, {head_dim}, {n_queries}): {got:#018x}"
                );
            }
        }
    }

    /// Configurations across ragged shapes, every profile and three
    /// widths, drawn with their keys.
    fn drawn_configs() -> Vec<TraceConfig> {
        let profiles = [
            ScoreProfile::standard(),
            ScoreProfile::long_context(),
            ScoreProfile::vision(),
            ScoreProfile::reasoning(),
            ScoreProfile::flattened(),
        ];
        let shapes = [(1088, 64, 2), (37, 7, 3), (513, 65, 1), (9, 199, 4), (300, 128, 8)];
        let mut out = Vec::new();
        for (i, profile) in profiles.into_iter().enumerate() {
            for (j, (seq_len, head_dim, n_queries)) in shapes.into_iter().enumerate() {
                out.push(TraceConfig {
                    seq_len,
                    head_dim,
                    n_queries,
                    profile,
                    bits: [2, 4, 8][(i + j) % 3],
                    seed: 0x5EED ^ (i * 8 + j) as u64,
                    prompt_keys: false,
                });
            }
        }
        out
    }

    #[test]
    fn prompt_keyed_traces_keep_the_drawn_queries_and_values() {
        for config in drawn_configs() {
            let drawn = AttentionTrace::generate(&config);
            let keyed = AttentionTrace::generate(&TraceConfig { prompt_keys: true, ..config });
            assert!(!keyed.keys_drawn(), "{config:?}: generate must not draw K");
            assert_eq!(keyed.queries(), drawn.queries(), "{config:?}");
            assert_eq!(value_bits(&keyed), value_bits(&drawn), "{config:?}");
            let key_scale = PromptTokens::key_scale(config.head_dim, config.bits);
            assert_eq!(
                keyed.logit_scale().to_bits(),
                (drawn.queries().params().scale() * key_scale).to_bits(),
                "{config:?}"
            );
            assert!(!keyed.keys_drawn(), "{config:?}: reading Q, V and the scale drew K");
        }
    }

    #[test]
    fn lazy_keys_equal_the_drawn_keys() {
        for config in drawn_configs() {
            let drawn = AttentionTrace::generate(&config);
            let keyed = AttentionTrace::generate(&TraceConfig { prompt_keys: true, ..config });
            let tokens = config.seq_len / 2;
            assert_eq!(keyed.key_prefix(tokens), drawn.key_prefix(tokens), "{config:?}");
            assert!(keyed.keys_drawn());
            assert_eq!(keyed.keys(), drawn.keys(), "{config:?}");
            assert_eq!(keyed.exact_logits(0).len(), config.seq_len);
        }
    }

    #[test]
    fn prompt_keyed_logit_scale_is_pinned() {
        // Any change to the key-scale rule or to the query draws fails here.
        const GOLDEN: [(usize, usize, u32, u32); 4] = [
            (1088, 64, 8, 0x391c_68bf),
            (1152, 64, 8, 0x3922_3789),
            (37, 7, 4, 0x3ea5_69e9),
            (513, 65, 2, 0x401b_f73c),
        ];
        for (seq_len, head_dim, bits, golden) in GOLDEN {
            let t = AttentionTrace::generate(&TraceConfig {
                seq_len,
                head_dim,
                n_queries: 2,
                profile: ScoreProfile::standard(),
                bits,
                seed: 0x601D ^ seq_len as u64,
                prompt_keys: true,
            });
            let got = t.logit_scale().to_bits();
            assert_eq!(got, golden, "({seq_len}, {head_dim}, {bits} bits): {got:#010x}");
        }
    }

    #[test]
    fn prompt_key_scale_tracks_the_drawn_keys_scale() {
        // At the shared-prefix serving shapes the drawn keys' clipped scale
        // sits a little above the nominal-σ rule, and close to it.
        for seq_len in [1088, 1152] {
            for seed in 1..=8 {
                let t = AttentionTrace::generate(&TraceConfig {
                    seq_len,
                    seed,
                    n_queries: 1,
                    ..TraceConfig::small_demo()
                });
                let ratio = t.keys().params().scale() / PromptTokens::key_scale(64, 8);
                assert!((1.0..1.05).contains(&ratio), "{seq_len} tokens, seed {seed}: {ratio}");
            }
        }
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let a = small(3);
        let b = small(3);
        assert_eq!(a.keys().as_slice(), b.keys().as_slice());
        assert_eq!(a.queries().as_slice(), b.queries().as_slice());
        assert_eq!(value_bits(&a), value_bits(&b));
        let c = small(4);
        assert_ne!(a.keys().as_slice(), c.keys().as_slice());
        assert_ne!(value_bits(&a), value_bits(&c));
    }

    #[test]
    fn values_are_undrawn_until_read() {
        let t = small(3);
        assert!(t.v.get().is_none(), "generate must not draw V");
        let _ = (t.queries(), t.keys(), t.logit_scale(), t.key_prefix(8));
        assert!(t.v.get().is_none(), "reading Q, K and the logit scale must not draw V");
        let _ = t.values();
        assert!(t.v.get().is_some());
    }

    #[test]
    fn values_do_not_depend_on_read_order() {
        let v_first = small(3);
        let v_bits = value_bits(&v_first);
        let qk_first = small(3);
        let _ = (qk_first.queries(), qk_first.keys(), qk_first.exact_logits(0));
        assert_eq!(value_bits(&qk_first), v_bits);
        let reference_first = small(3);
        let _ = reference_first.reference_output(0);
        assert_eq!(value_bits(&reference_first), v_bits);
    }

    #[test]
    fn clone_before_first_read_draws_the_same_values() {
        let original = small(5);
        let copy = original.clone();
        let original_bits = value_bits(&original);
        assert!(copy.v.get().is_none(), "the clone was taken undrawn");
        assert_eq!(value_bits(&copy), original_bits);
    }

    #[test]
    fn concurrent_first_reads_see_one_draw() {
        let t = small(9);
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| t.values().as_slice().to_vec());
            let b = scope.spawn(|| t.values().as_slice().to_vec());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b);
        assert_eq!(a, t.values().as_slice());
    }

    #[test]
    fn sink_tokens_score_high() {
        let t = small(11);
        let sink_count = t.config().profile.sink_tokens;
        for i in 0..t.config().n_queries {
            let logits = t.exact_logits(i);
            let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            for (j, &logit) in logits.iter().enumerate().take(sink_count) {
                assert!(logit > max - 6.0, "sink token {j} at {logit} vs max {max}");
            }
        }
    }

    #[test]
    fn recent_tokens_score_above_middle_tokens() {
        let t = small(5);
        let s = t.config().seq_len;
        let logits = t.exact_logits(0);
        let recent: f32 = logits[s - 8..].iter().sum::<f32>() / 8.0;
        let middle: f32 = logits[s / 2 - 32..s / 2 + 32].iter().sum::<f32>() / 64.0;
        assert!(recent > middle + 1.0, "recent {recent} vs middle {middle}");
    }

    #[test]
    fn long_context_profile_is_sparser_than_vision() {
        // Long-context profiles are parameterized for S ≥ 4k, where the
        // recency window is a vanishing fraction of the sequence.
        let near_max_fraction = |profile: ScoreProfile| {
            let t = AttentionTrace::generate(&TraceConfig {
                seq_len: 4096,
                profile,
                seed: 9,
                ..TraceConfig::small_demo()
            });
            let logits = t.exact_logits(0);
            let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            logits.iter().filter(|&&x| x > max - 5.0).count() as f64 / logits.len() as f64
        };
        let lc = near_max_fraction(ScoreProfile::long_context());
        let vis = near_max_fraction(ScoreProfile::vision());
        assert!(lc < vis, "long-context keep {lc} should be below vision {vis}");
    }

    #[test]
    fn subset_with_all_keys_matches_reference() {
        let t = small(2);
        let all: Vec<usize> = (0..t.config().seq_len).collect();
        let a = t.reference_output(0);
        let b = t.subset_output(0, &all);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn retained_mass_of_near_max_set_is_high() {
        let t = small(13);
        let logits = t.exact_logits(1);
        let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let retained: Vec<usize> = (0..logits.len()).filter(|&j| logits[j] > max - 5.0).collect();
        let mass = pade_linalg::metrics::retained_mass(&logits, &retained);
        assert!(mass > 0.9, "mass {mass}");
        assert!(retained.len() < logits.len() / 2, "retained {} keys", retained.len());
    }

    #[test]
    fn dense_macs_counts_qk_and_pv() {
        let t = small(1);
        let c = t.config();
        assert_eq!(t.dense_macs(), 2 * (c.n_queries * c.seq_len * c.head_dim) as u64);
    }

    #[test]
    fn int4_traces_generate() {
        let t = AttentionTrace::generate(&TraceConfig { bits: 4, ..TraceConfig::small_demo() });
        assert!(t.queries().as_slice().iter().all(|&x| (-8..=7).contains(&x)));
    }

    #[test]
    fn decode_context_grows_one_token_per_step_to_full_length() {
        let kind = RequestKind::Decode { steps: 4 };
        let s = 256;
        assert_eq!(kind.context_len(s, 0), 252);
        assert_eq!(kind.context_len(s, 1), 253);
        assert_eq!(kind.context_len(s, 3), 255);
        // Clamped past the final step and never below one token.
        assert_eq!(kind.context_len(s, 99), s);
        assert_eq!(RequestKind::Decode { steps: 8 }.context_len(4, 0), 1);
        assert_eq!(RequestKind::Decode { steps: 8 }.context_len(4, 2), 3);
        // Prefill chunks always see the whole context.
        assert_eq!(RequestKind::Prefill { rows: 16 }.context_len(s, 0), s);
        assert_eq!(RequestKind::Prefill { rows: 16 }.context_len(s, 5), s);
    }

    #[test]
    fn key_prefix_slices_leading_rows() {
        let t = small(6);
        let h = t.config().head_dim;
        assert_eq!(t.key_prefix(3), &t.keys().as_slice()[..3 * h]);
        assert_eq!(t.key_prefix(0), &[] as &[i8]);
        assert_eq!(t.key_prefix(t.config().seq_len).len(), t.config().seq_len * h);
    }

    #[test]
    fn arrival_trace_is_deterministic_per_seed() {
        let cfg = ArrivalConfig::small_demo();
        let a = generate_arrivals(&cfg);
        let b = generate_arrivals(&cfg);
        assert_eq!(a, b);
        let c = generate_arrivals(&ArrivalConfig { seed: 8, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn arrival_times_are_monotone_and_ids_dense() {
        let arrivals =
            generate_arrivals(&ArrivalConfig { n_requests: 64, ..ArrivalConfig::small_demo() });
        assert_eq!(arrivals.len(), 64);
        for (i, r) in arrivals.iter().enumerate() {
            assert_eq!(r.id, i);
            if i > 0 {
                assert!(r.arrival_cycle >= arrivals[i - 1].arrival_cycle);
            }
        }
    }

    #[test]
    fn mean_gap_tracks_the_configured_rate() {
        let cfg = ArrivalConfig {
            n_requests: 512,
            mean_interarrival_cycles: 10_000.0,
            ..ArrivalConfig::small_demo()
        };
        let arrivals = generate_arrivals(&cfg);
        let span = arrivals.last().unwrap().arrival_cycle as f64;
        let mean = span / arrivals.len() as f64;
        assert!(
            (mean / cfg.mean_interarrival_cycles - 1.0).abs() < 0.25,
            "empirical mean gap {mean} vs configured {}",
            cfg.mean_interarrival_cycles
        );
    }

    #[test]
    fn decode_fraction_shapes_the_mix() {
        let all_decode = generate_arrivals(&ArrivalConfig {
            n_requests: 32,
            decode_fraction: 1.0,
            ..ArrivalConfig::small_demo()
        });
        assert!(all_decode.iter().all(|r| matches!(r.kind, RequestKind::Decode { .. })));
        let all_prefill = generate_arrivals(&ArrivalConfig {
            n_requests: 32,
            decode_fraction: 0.0,
            ..ArrivalConfig::small_demo()
        });
        assert!(all_prefill.iter().all(|r| matches!(r.kind, RequestKind::Prefill { .. })));
    }

    #[test]
    fn per_request_traces_are_distinct_but_reproducible() {
        let arrivals = generate_arrivals(&ArrivalConfig::small_demo());
        assert_ne!(arrivals[0].trace.seed, arrivals[1].trace.seed);
        for r in &arrivals {
            assert_eq!(r.trace.n_queries, r.kind.tokens());
            let a = AttentionTrace::generate(&r.trace);
            let b = AttentionTrace::generate(&r.trace);
            assert_eq!(a.keys().as_slice(), b.keys().as_slice());
            assert_eq!(a.queries().as_slice(), b.queries().as_slice());
            assert_eq!(value_bits(&a), value_bits(&b));
        }
    }

    #[test]
    fn plain_arrivals_carry_neutral_scheduling_attributes() {
        for r in generate_arrivals(&ArrivalConfig::small_demo()) {
            assert_eq!(r.priority, 0);
            assert_eq!(r.tenant_slo, None);
        }
    }

    #[test]
    fn tenant_mix_merges_stamps_and_renumbers() {
        let fg = TenantLoad {
            tenant: 0,
            priority: 10,
            tenant_slo: Some(50_000),
            arrivals: ArrivalConfig {
                seed: 11,
                decode_fraction: 1.0,
                ..ArrivalConfig::small_demo()
            },
        };
        let bg = TenantLoad {
            tenant: 1,
            priority: 0,
            tenant_slo: None,
            arrivals: ArrivalConfig {
                seed: 12,
                decode_fraction: 0.0,
                ..ArrivalConfig::small_demo()
            },
        };
        let mix = generate_tenant_mix(&[fg.clone(), bg.clone()]);
        assert_eq!(mix.len(), 16);
        for (i, r) in mix.iter().enumerate() {
            assert_eq!(r.id, i, "ids re-assigned densely over the merge");
            if i > 0 {
                assert!(r.arrival_cycle >= mix[i - 1].arrival_cycle);
            }
            match r.session >> 32 {
                0 => {
                    assert_eq!(r.priority, 10);
                    assert_eq!(r.tenant_slo, Some(50_000));
                    assert!(matches!(r.kind, RequestKind::Decode { .. }));
                }
                1 => {
                    assert_eq!(r.priority, 0);
                    assert_eq!(r.tenant_slo, None);
                    assert!(matches!(r.kind, RequestKind::Prefill { .. }));
                }
                t => panic!("unexpected tenant {t}"),
            }
        }
        // Deterministic per input; order-independent of the load list.
        assert_eq!(mix, generate_tenant_mix(&[fg.clone(), bg.clone()]));
        assert_eq!(mix, generate_tenant_mix(&[bg, fg]));
    }

    #[test]
    #[should_panic(expected = "tenant ids must be distinct")]
    fn tenant_mix_rejects_duplicate_tenants() {
        let load = TenantLoad {
            tenant: 0,
            priority: 0,
            tenant_slo: None,
            arrivals: ArrivalConfig::small_demo(),
        };
        let _ = generate_tenant_mix(&[load.clone(), load]);
    }
}
