//! Reproducible performance harness for the simulation hot path.
//!
//! [`run_matrix`] sweeps a fixed matrix of attention shapes (decode and
//! prefill, H ∈ {64, 128}) twice per shape:
//!
//! * **sequential seed path** — [`run_qk_block_reference`] (the original
//!   hash-map/per-bit engine) looped block by block, and
//! * **parallel engine** — the allocation-lean [`run_qk_batch`] over one
//!   job of every query row, tiled into blocks and fanned out over
//!   `pade-par` worker threads,
//!
//! asserts the two produce **bit-identical** results, and records
//! wall-clock, simulated cycles and speedup. [`write_json`] serializes a
//! run to the `BENCH_<n>.json` perf-trajectory files kept at the repo
//! root (see README § Benchmark harness); every later optimisation PR
//! appends a new file so the trajectory stays comparable.
//!
//! The criterion-style micro benches live in `benches/` (`kernels.rs`,
//! `end_to_end.rs`, `extensions.rs`); this module is the end-to-end,
//! machine-readable harness. The [`serve`] module adds the serving
//! scenario (`pade-bench --scenario serve`): continuous batching vs a
//! one-request-at-a-time baseline over seeded arrival traces, recorded to
//! `BENCH_2.json`. The [`decode_growth`] module adds the KV-growth
//! scenario (`pade-bench --scenario decode-growth`): incremental
//! per-step plane appends vs full re-decomposition, recorded to
//! `BENCH_3.json`. The [`prefix_cache`] module adds the cross-request
//! prefix-sharing scenario (`pade-bench --scenario prefix-cache`):
//! `pade-cache` attach/detach vs from-scratch decomposition of every
//! prompt, with an eviction-under-budget sweep, recorded to
//! `BENCH_4.json`. The [`route`] module adds the multi-node routing
//! scenario (`pade-bench --scenario route`): prefix-affinity vs
//! round-robin vs least-loaded placement across 1/2/4/8 `pade-router`
//! nodes, recorded to `BENCH_5.json`. The [`popcount`] module adds the
//! popcount-kernel scenario (`pade-bench --scenario popcount`): bit-plane
//! QK scoring via weighted `popcount(q_plane & k_plane)` vs the PR-1
//! `QRowLut` byte-LUT path on a single worker thread, plus the fused
//! multi-head dispatch vs a per-head loop, recorded to `BENCH_6.json`.
//! The [`preempt`] module adds the SLO-aware preemptive-scheduling
//! scenario (`pade-bench --scenario preempt`): a background tenant
//! flooding long prefills against a foreground decode tenant under a
//! p99 SLO, non-preemptive FCFS vs chunked-prefill SLO-aware
//! preemption, recorded to `BENCH_8.json`. The [`tier`] module adds the
//! tiered-KV scenario (`pade-bench --scenario tier`): drop-on-evict vs
//! `pade-tier` spill/fetch (memory and disk backends) under a
//! cache-thrashing prompt pool, plus fleet drain-migration and
//! hot-shard replication points with interconnect-costed transfers,
//! recorded to `BENCH_9.json`. The [`soak`] module adds the
//! streaming-trace scenario (`pade-bench --scenario soak`): the route
//! trace profile replayed untraced, into the in-memory recorder, and
//! into the bounded-memory on-disk `StreamSink` — fingerprint parity
//! and byte-identity hard-checked, streaming overhead recorded to
//! `BENCH_10.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode_growth;
pub mod popcount;
pub mod preempt;
pub mod prefix_cache;
pub mod route;
pub mod serve;
pub mod soak;
pub mod tier;

/// Shared KV-prep replay machinery for the cache-centric scenarios
/// (`prefix_cache`, `route`): one prepared-operand representation and
/// one attach/detach replay loop, so the two benches measure exactly
/// the same admission protocol and cannot drift apart.
pub(crate) mod prep {
    use std::sync::Arc;

    use pade_cache::{CacheConfig, KvCacheManager};
    use pade_workload::trace::RequestArrival;

    /// The prompt id/row operands of one request, precomputed so timed
    /// replays pay neither trace generation nor key-row derivation.
    pub(crate) struct PreparedRequest {
        pub(crate) id: usize,
        pub(crate) session: u64,
        pub(crate) ids: Arc<[u32]>,
        pub(crate) rows: Vec<i8>,
    }

    pub(crate) fn prepare(
        arrivals: &[RequestArrival],
        head_dim: usize,
        bits: u32,
    ) -> Vec<PreparedRequest> {
        arrivals
            .iter()
            .map(|r| {
                let prompt = r.prompt.as_ref().expect("cache workloads carry prompts");
                PreparedRequest {
                    id: r.id,
                    session: r.session,
                    ids: prompt.shared_ids(),
                    rows: prompt.key_rows(head_dim, bits),
                }
            })
            .collect()
    }

    /// Replays attach/detach over `requests` in order — the timed
    /// KV-prep loop, kept free of accounting reads.
    pub(crate) fn replay_manager<'a>(
        requests: impl IntoIterator<Item = &'a PreparedRequest>,
        config: CacheConfig,
    ) -> KvCacheManager {
        let mut manager = KvCacheManager::new(config).expect("bench cache shape is valid");
        for req in requests {
            let attached = manager
                .attach(req.session, &req.ids, &req.rows)
                .expect("bench prompt rows decompose");
            manager.detach(req.session, Arc::clone(&req.ids), attached.cache, attached.lease);
        }
        manager
    }
}

use std::io::Write as _;
use std::time::Instant;

use pade_core::config::PadeConfig;
use pade_core::engine::{run_qk_batch, run_qk_block_reference, QkBatchJob, QkBlockResult};
use pade_quant::BitPlaneMatrix;
use pade_workload::trace::{AttentionTrace, TraceConfig};

/// One benchmarked attention shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeSpec {
    /// `"decode"` (single query row) or `"prefill"` (a stream of
    /// `pe_rows`-sized query blocks).
    pub phase: &'static str,
    /// Context length (number of keys).
    pub seq_len: usize,
    /// Per-head hidden dimension.
    pub head_dim: usize,
    /// Query rows simulated (1 for decode, a multiple of `pe_rows` for
    /// prefill).
    pub query_rows: usize,
}

impl ShapeSpec {
    /// Stable identifier, e.g. `prefill_s4096_h128`.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}_s{}_h{}", self.phase, self.seq_len, self.head_dim)
    }
}

/// Measured outcome of one shape.
#[derive(Debug, Clone)]
pub struct ShapeResult {
    /// The shape.
    pub spec: ShapeSpec,
    /// Query blocks executed (`⌈query_rows / pe_rows⌉`).
    pub blocks: usize,
    /// Wall-clock seconds of the sequential seed path.
    pub seq_wall_s: f64,
    /// Wall-clock seconds of the parallel engine.
    pub par_wall_s: f64,
    /// `seq_wall_s / par_wall_s`.
    pub speedup: f64,
    /// Simulated QK-PU cycles, summed over blocks (identical across both
    /// paths by construction).
    pub simulated_cycles: u64,
    /// Keys retained across all rows.
    pub retained_keys: u64,
    /// Unique bit planes fetched from DRAM, summed over blocks.
    pub planes_fetched: u64,
    /// Whether the two paths produced bit-identical results (hard-checked;
    /// a mismatch panics before this is ever recorded false).
    pub bit_identical: bool,
}

/// The fixed shape matrix: decode (one query row over a long context) and
/// prefill S ∈ {256, 1k, 4k} × H ∈ {64, 128}. `quick` trims to the two
/// smallest shapes for CI smoke runs.
#[must_use]
pub fn default_matrix(quick: bool) -> Vec<ShapeSpec> {
    if quick {
        return vec![
            ShapeSpec { phase: "decode", seq_len: 256, head_dim: 64, query_rows: 1 },
            ShapeSpec { phase: "prefill", seq_len: 256, head_dim: 64, query_rows: 16 },
        ];
    }
    let mut shapes = Vec::new();
    for &head_dim in &[64usize, 128] {
        // Decode: S = 1 new query row against a 4k context.
        shapes.push(ShapeSpec { phase: "decode", seq_len: 4096, head_dim, query_rows: 1 });
        for &seq_len in &[256usize, 1024, 4096] {
            shapes.push(ShapeSpec { phase: "prefill", seq_len, head_dim, query_rows: 64 });
        }
    }
    shapes
}

pub(crate) fn trace_for(spec: &ShapeSpec) -> AttentionTrace {
    AttentionTrace::generate(&TraceConfig {
        seq_len: spec.seq_len,
        head_dim: spec.head_dim,
        n_queries: spec.query_rows,
        seed: 2026,
        ..TraceConfig::small_demo()
    })
}

pub(crate) fn time_best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(r);
    }
    (out.expect("at least one iteration"), best)
}

/// Runs one shape through both paths and cross-checks the results.
///
/// # Panics
///
/// Panics if the parallel engine's results diverge from the sequential
/// seed path (they are bit-identical by design; divergence is a bug).
#[must_use]
pub fn run_shape(spec: &ShapeSpec, config: &PadeConfig) -> ShapeResult {
    let trace = trace_for(spec);
    let keys = BitPlaneMatrix::from_rows(trace.keys().as_slice(), trace.keys().cols(), config.bits)
        .expect("key bit planes");
    let queries: Vec<&[i8]> = (0..trace.queries().rows()).map(|i| trace.queries().row(i)).collect();
    let scale = trace.logit_scale();
    let job =
        QkBatchJob { queries: queries.clone(), keys: keys.clone().into(), logit_scale: scale };

    // Small shapes are timed best-of-3 to squeeze out scheduler noise;
    // the 4k shapes run long enough that one measurement is stable.
    let iters = if spec.seq_len >= 4096 { 1 } else { 3 };

    let (seq_results, seq_wall_s) = time_best_of(iters, || -> Vec<QkBlockResult> {
        queries
            .chunks(config.pe_rows)
            .map(|block| run_qk_block_reference(config, block, &keys, scale))
            .collect()
    });
    let (par_results, par_wall_s) =
        time_best_of(iters, || run_qk_batch(config, std::slice::from_ref(&job)));

    assert_eq!(
        seq_results,
        par_results,
        "parallel engine diverged from the sequential seed path on {}",
        spec.id()
    );

    ShapeResult {
        spec: *spec,
        blocks: seq_results.len(),
        seq_wall_s,
        par_wall_s,
        speedup: seq_wall_s / par_wall_s,
        simulated_cycles: seq_results.iter().map(|b| b.cycles.0).sum(),
        retained_keys: seq_results
            .iter()
            .flat_map(|b| b.retained.iter())
            .map(|r| r.len() as u64)
            .sum(),
        planes_fetched: seq_results.iter().map(|b| b.planes_fetched).sum(),
        bit_identical: true,
    }
}

/// Runs the whole matrix under the standard configuration.
#[must_use]
pub fn run_matrix(quick: bool) -> Vec<ShapeResult> {
    let config = PadeConfig::standard();
    default_matrix(quick).iter().map(|spec| run_shape(spec, &config)).collect()
}

pub(crate) fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The `<n>` of a `BENCH_<n>.json` file name, so the trajectory metadata
/// tracks the file it lives in; defaults to 1 for non-trajectory paths.
pub(crate) fn bench_id_from_path(path: &std::path::Path) -> u32 {
    path.file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.strip_prefix("BENCH_"))
        .and_then(|n| n.parse().ok())
        .unwrap_or(1)
}

/// Serializes a run to the `BENCH_<n>.json` schema (hand-rolled JSON; the
/// environment has no serde). The recorded `bench_id` is parsed from the
/// file name, so `--out BENCH_2.json` in a later PR stays consistent.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_json(
    path: &std::path::Path,
    results: &[ShapeResult],
    mode: &str,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench_id\": {},", bench_id_from_path(path))?;
    writeln!(f, "  \"tool\": \"pade-bench\",")?;
    writeln!(f, "  \"mode\": \"{}\",", json_escape(mode))?;
    writeln!(f, "  \"worker_threads\": {},", pade_par::max_threads())?;
    writeln!(
        f,
        "  \"paths\": {{\"sequential\": \"run_qk_block_reference per block\", \
         \"parallel\": \"run_qk_batch (allocation-lean engine + thread fan-out)\"}},"
    )?;
    writeln!(f, "  \"shapes\": [")?;
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        writeln!(f, "    {{")?;
        writeln!(f, "      \"id\": \"{}\",", json_escape(&r.spec.id()))?;
        writeln!(f, "      \"phase\": \"{}\",", json_escape(r.spec.phase))?;
        writeln!(f, "      \"seq_len\": {},", r.spec.seq_len)?;
        writeln!(f, "      \"head_dim\": {},", r.spec.head_dim)?;
        writeln!(f, "      \"query_rows\": {},", r.spec.query_rows)?;
        writeln!(f, "      \"blocks\": {},", r.blocks)?;
        writeln!(f, "      \"seq_wall_s\": {:.6},", r.seq_wall_s)?;
        writeln!(f, "      \"par_wall_s\": {:.6},", r.par_wall_s)?;
        writeln!(f, "      \"speedup\": {:.3},", r.speedup)?;
        writeln!(f, "      \"simulated_cycles\": {},", r.simulated_cycles)?;
        writeln!(f, "      \"retained_keys\": {},", r.retained_keys)?;
        writeln!(f, "      \"planes_fetched\": {},", r.planes_fetched)?;
        writeln!(f, "      \"bit_identical\": {}", r.bit_identical)?;
        writeln!(f, "    }}{comma}")?;
    }
    writeln!(f, "  ],")?;
    let headline = results
        .iter()
        .find(|r| r.spec.phase == "prefill" && r.spec.seq_len == 4096 && r.spec.head_dim == 128)
        .or_else(|| results.last());
    if let Some(h) = headline {
        writeln!(
            f,
            "  \"headline\": {{\"shape\": \"{}\", \"speedup\": {:.3}, \"bit_identical\": {}}}",
            json_escape(&h.spec.id()),
            h.speedup,
            h.bit_identical
        )?;
    } else {
        writeln!(f, "  \"headline\": null")?;
    }
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_runs_and_checks_identity() {
        let results = run_matrix(true);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.bit_identical);
            assert!(r.seq_wall_s > 0.0 && r.par_wall_s > 0.0);
            assert!(r.simulated_cycles > 0);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let results = run_matrix(true);
        let path = std::env::temp_dir().join("pade_bench_test.json");
        write_json(&path, &results, "quick").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert_eq!(text.matches("\"id\"").count(), 2);
        assert!(text.contains("\"headline\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bench_id_tracks_the_trajectory_file_name() {
        use std::path::Path;
        assert_eq!(bench_id_from_path(Path::new("BENCH_1.json")), 1);
        assert_eq!(bench_id_from_path(Path::new("/repo/BENCH_17.json")), 17);
        assert_eq!(bench_id_from_path(Path::new("/tmp/custom.json")), 1);
    }

    #[test]
    fn full_matrix_covers_the_issue_shapes() {
        let m = default_matrix(false);
        assert!(m.iter().any(|s| s.phase == "prefill" && s.seq_len == 4096 && s.head_dim == 128));
        assert!(m.iter().any(|s| s.phase == "decode" && s.query_rows == 1));
        assert_eq!(m.len(), 8);
    }
}
