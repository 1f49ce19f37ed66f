//! The `decode-growth` scenario: incremental KV plane appends vs full
//! re-decomposition per decode step.
//!
//! A multi-step decode session attends over a prefix that grows by one
//! token per step. The naive serving stack rebuilds the whole
//! [`BitPlaneMatrix`] from scratch every step (`O(S·bits)` decomposition
//! work per step, `O(T·S·bits)` per request); the growable cache appends
//! exactly one token's planes per step and freezes a chunked,
//! `Arc`-shared snapshot (`O(bits)` decomposition per step plus one short
//! tail copy). [`run_growth_matrix`] times both KV-prep paths over the
//! same seeded traces, hard-checks that the plane tensors — and the
//! engine outputs computed from them, including the seed oracle
//! [`run_qk_block_reference`] — are **bit-identical** at every checked
//! step, and records the wall-clock and work-count gap.
//! [`write_growth_json`] serializes the sweep to the `BENCH_<n>.json`
//! trajectory schema (`BENCH_3.json` records the KV-growth PR).
//!
//! [`run_qk_block_reference`]: pade_core::engine::run_qk_block_reference

use std::io::Write as _;
use std::time::Instant;

use pade_core::config::PadeConfig;
use pade_core::engine::{run_qk_block, run_qk_block_reference};
use pade_quant::{BitPlaneMatrix, GrowableKeyCache, KeyCacheSnapshot, PlaneSource};
use pade_workload::trace::{AttentionTrace, RequestKind, TraceConfig};

/// One benchmarked decode-growth shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowthShapeSpec {
    /// Prompt-prefix length (tokens resident before the first step).
    pub base_len: usize,
    /// Decode steps (tokens generated, one key appended per step).
    pub steps: usize,
    /// Per-head hidden dimension.
    pub head_dim: usize,
    /// Tokens per sealed cache chunk.
    pub chunk_tokens: usize,
    /// Decode steps whose engine outputs are cross-checked across the
    /// incremental snapshot, the from-scratch tensor and the seed oracle
    /// (plane tensors are compared at *every* step regardless).
    pub engine_check_steps: usize,
}

impl GrowthShapeSpec {
    /// Stable identifier, e.g. `decode_b4096_t64_h128`.
    #[must_use]
    pub fn id(&self) -> String {
        format!("decode_b{}_t{}_h{}", self.base_len, self.steps, self.head_dim)
    }
}

/// Measured outcome of one decode-growth shape.
#[derive(Debug, Clone)]
pub struct GrowthShapeResult {
    /// The shape.
    pub spec: GrowthShapeSpec,
    /// Wall-clock seconds of the incremental path: cache construction
    /// over the prompt prefix plus, per step, one append and one
    /// snapshot.
    pub incremental_wall_s: f64,
    /// Wall-clock seconds of the naive path: a from-scratch
    /// `BitPlaneMatrix::from_rows` over the grown prefix at every step.
    pub redecompose_wall_s: f64,
    /// `redecompose_wall_s / incremental_wall_s` — the KV-prep speedup.
    pub speedup: f64,
    /// Tokens decomposed by the incremental path (prefix + one per step).
    pub tokens_decomposed_incremental: u64,
    /// Tokens decomposed by the naive path (Σ per-step prefix lengths).
    pub tokens_decomposed_full: u64,
    /// Steps whose engine outputs were cross-checked (snapshot vs
    /// from-scratch vs seed oracle).
    pub engine_checked_steps: usize,
    /// Whether every checked plane tensor and engine output was
    /// bit-identical (hard-checked; a mismatch panics before this is ever
    /// recorded false).
    pub bit_identical: bool,
}

/// The fixed shape matrix: long-context prefixes with 32–64 generated
/// tokens, H ∈ {64, 128}. `quick` trims to one small shape for CI smoke
/// runs.
#[must_use]
pub fn growth_matrix(quick: bool) -> Vec<GrowthShapeSpec> {
    if quick {
        return vec![GrowthShapeSpec {
            base_len: 120,
            steps: 8,
            head_dim: 64,
            chunk_tokens: 32,
            engine_check_steps: 8,
        }];
    }
    vec![
        GrowthShapeSpec {
            base_len: 1024,
            steps: 64,
            head_dim: 64,
            chunk_tokens: 64,
            engine_check_steps: 4,
        },
        GrowthShapeSpec {
            base_len: 4096,
            steps: 32,
            head_dim: 64,
            chunk_tokens: 64,
            engine_check_steps: 2,
        },
        GrowthShapeSpec {
            base_len: 4096,
            steps: 64,
            head_dim: 128,
            chunk_tokens: 64,
            engine_check_steps: 2,
        },
    ]
}

fn trace_for(spec: &GrowthShapeSpec) -> AttentionTrace {
    AttentionTrace::generate(&TraceConfig {
        seq_len: spec.base_len + spec.steps,
        head_dim: spec.head_dim,
        n_queries: spec.steps,
        seed: 2026,
        ..TraceConfig::small_demo()
    })
}

/// Runs one shape through both KV-prep paths and cross-checks planes and
/// engine outputs.
///
/// # Panics
///
/// Panics if any step's incremental planes or engine outputs diverge from
/// the from-scratch path (they are bit-identical by design; divergence is
/// a bug).
#[must_use]
pub fn run_growth_shape(spec: &GrowthShapeSpec, config: &PadeConfig) -> GrowthShapeResult {
    let trace = trace_for(spec);
    let dims = trace.keys().cols();
    let seq_len = trace.keys().rows();
    let kind = RequestKind::Decode { steps: spec.steps };
    let prefix_at = |step: usize| kind.context_len(seq_len, step);

    // Incremental path (timed): prompt prefix into the cache once, then
    // one append + one snapshot per step — exactly what a serve session
    // does between engine blocks.
    let start = Instant::now();
    let mut cache = GrowableKeyCache::new(dims, config.bits, spec.chunk_tokens)
        .expect("growth cache for the benchmarked shape");
    cache.append_rows(trace.key_prefix(prefix_at(0))).expect("prompt prefix decomposes");
    let mut snapshots: Vec<KeyCacheSnapshot> = Vec::with_capacity(spec.steps);
    for step in 0..spec.steps {
        while cache.tokens() < prefix_at(step) {
            let row = cache.tokens();
            cache.append_token(trace.keys().row(row)).expect("generated key decomposes");
        }
        snapshots.push(cache.snapshot());
    }
    let incremental_wall_s = start.elapsed().as_secs_f64();
    let tokens_decomposed_incremental = cache.tokens() as u64;

    // Naive path (timed): re-decompose the whole grown prefix per step.
    let start = Instant::now();
    let mut scratch: Vec<BitPlaneMatrix> = Vec::with_capacity(spec.steps);
    let mut tokens_decomposed_full = 0u64;
    for step in 0..spec.steps {
        let prefix = prefix_at(step);
        tokens_decomposed_full += prefix as u64;
        scratch.push(
            BitPlaneMatrix::from_rows(trace.key_prefix(prefix), dims, config.bits)
                .expect("key prefix decomposes"),
        );
    }
    let redecompose_wall_s = start.elapsed().as_secs_f64();

    // Plane identity at every step; engine identity (incremental snapshot
    // vs from-scratch vs seed oracle) on a deterministic subset of steps.
    let check_every = (spec.steps / spec.engine_check_steps.clamp(1, spec.steps)).max(1);
    let mut engine_checked_steps = 0usize;
    for step in 0..spec.steps {
        assert_eq!(
            snapshots[step].tokens(),
            scratch[step].tokens(),
            "{}: step {step} prefix length diverged",
            spec.id()
        );
        assert!(
            snapshots[step].materialize() == scratch[step],
            "{}: step {step} planes diverged between append and re-decompose",
            spec.id()
        );
        if step % check_every == 0 || step + 1 == spec.steps {
            let queries: Vec<&[i8]> = vec![trace.queries().row(step)];
            let scale = trace.logit_scale();
            let cached = run_qk_block(config, &queries, &snapshots[step], scale);
            let from_scratch = run_qk_block(config, &queries, &scratch[step], scale);
            let oracle = run_qk_block_reference(config, &queries, &scratch[step], scale);
            assert!(
                cached == from_scratch && cached == oracle,
                "{}: step {step} engine outputs diverged",
                spec.id()
            );
            engine_checked_steps += 1;
        }
    }

    GrowthShapeResult {
        spec: *spec,
        incremental_wall_s,
        redecompose_wall_s,
        speedup: redecompose_wall_s / incremental_wall_s.max(f64::MIN_POSITIVE),
        tokens_decomposed_incremental,
        tokens_decomposed_full,
        engine_checked_steps,
        bit_identical: true,
    }
}

/// Runs the whole growth matrix under the standard configuration.
#[must_use]
pub fn run_growth_matrix(quick: bool) -> Vec<GrowthShapeResult> {
    let config = PadeConfig::standard();
    growth_matrix(quick).iter().map(|spec| run_growth_shape(spec, &config)).collect()
}

/// Serializes a growth sweep to the `BENCH_<n>.json` trajectory schema.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_growth_json(
    path: &std::path::Path,
    results: &[GrowthShapeResult],
    mode: &str,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench_id\": {},", crate::bench_id_from_path(path))?;
    writeln!(f, "  \"tool\": \"pade-bench\",")?;
    writeln!(f, "  \"scenario\": \"decode-growth\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(
        f,
        "  \"paths\": {{\"incremental\": \"GrowableKeyCache append_token + snapshot per step\", \
         \"baseline\": \"BitPlaneMatrix::from_rows over the grown prefix per step\"}},"
    )?;
    writeln!(f, "  \"shapes\": [")?;
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        writeln!(f, "    {{")?;
        writeln!(f, "      \"id\": \"{}\",", r.spec.id())?;
        writeln!(f, "      \"base_len\": {},", r.spec.base_len)?;
        writeln!(f, "      \"steps\": {},", r.spec.steps)?;
        writeln!(f, "      \"head_dim\": {},", r.spec.head_dim)?;
        writeln!(f, "      \"chunk_tokens\": {},", r.spec.chunk_tokens)?;
        writeln!(f, "      \"incremental_wall_s\": {:.6},", r.incremental_wall_s)?;
        writeln!(f, "      \"redecompose_wall_s\": {:.6},", r.redecompose_wall_s)?;
        writeln!(f, "      \"speedup\": {:.3},", r.speedup)?;
        writeln!(
            f,
            "      \"tokens_decomposed_incremental\": {},",
            r.tokens_decomposed_incremental
        )?;
        writeln!(f, "      \"tokens_decomposed_full\": {},", r.tokens_decomposed_full)?;
        writeln!(f, "      \"engine_checked_steps\": {},", r.engine_checked_steps)?;
        writeln!(f, "      \"bit_identical\": {}", r.bit_identical)?;
        writeln!(f, "    }}{comma}")?;
    }
    writeln!(f, "  ],")?;
    let headline = results
        .iter()
        .max_by(|a, b| {
            (a.spec.base_len * a.spec.steps * a.spec.head_dim)
                .cmp(&(b.spec.base_len * b.spec.steps * b.spec.head_dim))
        })
        .expect("at least one shape");
    writeln!(
        f,
        "  \"headline\": {{\"shape\": \"{}\", \"speedup\": {:.3}, \
         \"tokens_decomposed_incremental\": {}, \"tokens_decomposed_full\": {}, \
         \"bit_identical\": {}}}",
        headline.spec.id(),
        headline.speedup,
        headline.tokens_decomposed_incremental,
        headline.tokens_decomposed_full,
        headline.bit_identical
    )?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_growth_matrix_checks_identity_and_work_gap() {
        let results = run_growth_matrix(true);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert!(r.bit_identical);
        assert!(r.engine_checked_steps >= 2);
        // The naive path decomposes ~steps× more tokens than appends.
        assert!(r.tokens_decomposed_full > 4 * r.tokens_decomposed_incremental);
        assert!(r.incremental_wall_s > 0.0 && r.redecompose_wall_s > 0.0);
    }

    #[test]
    fn growth_json_is_well_formed_enough() {
        let results = run_growth_matrix(true);
        let path = std::env::temp_dir().join("pade_growth_bench_test.json");
        write_growth_json(&path, &results, "quick").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"scenario\": \"decode-growth\""));
        assert!(text.contains("\"speedup\""));
        assert!(text.contains("\"headline\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn full_matrix_covers_long_context_shapes() {
        let m = growth_matrix(false);
        assert!(m.iter().any(|s| s.base_len >= 4096 && s.head_dim == 128));
        assert!(m.len() >= 3);
    }
}
