//! The `popcount` scenario: bit-plane QK scoring via weighted
//! `popcount(q_plane & k_plane)` vs the PR-1 [`QRowLut`] byte-LUT path,
//! plus the fused multi-head dispatch vs a per-head loop.
//!
//! The kernel sweep replays the engine's per-absorption loop — one
//! contribution plus one GSAT absorption per `(row, token, plane)` — over
//! the BENCH_1 shape matrix on a **single worker thread**, once through
//! the PR-1 shape (byte-LUT lookups, GSAT stats recomputed per
//! absorption) and once through this PR's shape (AND+`count_ones` with
//! the query decomposed into trimmed bit planes, GSAT stats memoized per
//! `(token, plane)`). Checksums over every contribution and every
//! absorption stat are hard-checked equal — the paths compute the same
//! integers — and the full engine is then cross-checked byte-identical
//! against the seed oracle [`run_qk_block_reference`] at every shape.
//!
//! The fused sweep dispatches one decode step across `H` heads twice:
//! as `H` separate [`run_qk_batch`] calls of one job each (one scheduling
//! round-trip per head) and as one [`run_qk_batch`] over all `H` jobs
//! (one shared query decomposition, one fan-out), hard-checking
//! byte-identity between the two.
//!
//! [`run_qk_block_reference`]: pade_core::engine::run_qk_block_reference
//! [`run_qk_batch`]: pade_core::engine::run_qk_batch
//! [`QRowLut`]: pade_core::bitserial::QRowLut

use std::io::Write as _;

use pade_core::bitserial::{
    plane_contribution_lut, plane_contribution_planes, QRowLut, QRowPlanes,
};
use pade_core::config::PadeConfig;
use pade_core::engine::{run_qk_batch, run_qk_block_reference, QkBatchJob};
use pade_core::gsat::{Gsat, PlaneAbsorb};
use pade_quant::BitPlaneMatrix;
use pade_workload::trace::{AttentionTrace, TraceConfig};

use crate::{time_best_of, ShapeSpec};

/// Measured outcome of one kernel-sweep shape.
#[derive(Debug, Clone)]
pub struct KernelShapeResult {
    /// The shape (shared with the BENCH_1 matrix).
    pub spec: ShapeSpec,
    /// Plane absorptions replayed per path (`rows × seq_len × bits`).
    pub absorptions: u64,
    /// Wall-clock seconds of the PR-1 byte-LUT scoring loop.
    pub lut_wall_s: f64,
    /// Wall-clock seconds of the popcount scoring loop.
    pub popcount_wall_s: f64,
    /// `lut_wall_s / popcount_wall_s` — the QK-scoring speedup.
    pub speedup: f64,
    /// Query bit planes after trimming (8 for full-range int8 rows).
    pub query_planes: usize,
    /// Whether the two scoring paths produced identical contribution and
    /// absorption checksums AND the engine matched the seed oracle
    /// (hard-checked; a mismatch panics before this is recorded false).
    pub bit_identical: bool,
}

/// Measured outcome of the fused multi-head dispatch sweep.
#[derive(Debug, Clone)]
pub struct FusedResult {
    /// Heads dispatched per token step.
    pub heads: usize,
    /// Context length per head.
    pub seq_len: usize,
    /// Per-head hidden dimension.
    pub head_dim: usize,
    /// Wall-clock seconds of the per-head loop (one `run_qk_batch` call
    /// per head).
    pub per_head_wall_s: f64,
    /// Wall-clock seconds of the fused dispatch (one `run_qk_batch` call
    /// over every head).
    pub fused_wall_s: f64,
    /// `per_head_wall_s / fused_wall_s`.
    pub speedup: f64,
    /// Whether both dispatches produced byte-identical results
    /// (hard-checked).
    pub bit_identical: bool,
}

/// A full popcount-scenario sweep: the kernel shape matrix plus the fused
/// dispatch point.
#[derive(Debug, Clone)]
pub struct PopcountSweep {
    /// Kernel-sweep results over the BENCH_1 shape matrix.
    pub kernels: Vec<KernelShapeResult>,
    /// The fused multi-head dispatch result.
    pub fused: FusedResult,
}

/// Checksum accumulated over a scoring loop: every contribution value,
/// selection count and absorption stat folds in, so the loops cannot be
/// dead-code-eliminated and any numeric divergence is caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ScoreChecksum {
    value: i64,
    selected: u64,
    cycles: u64,
    balanced: u64,
}

impl ScoreChecksum {
    fn fold(&mut self, value: i64, selected: u32, stats: PlaneAbsorb) {
        self.value = self.value.wrapping_add(value);
        self.selected += u64::from(selected) + u64::from(stats.selected);
        self.cycles += stats.cycles;
        self.balanced += stats.balanced;
    }
}

/// The PR-1 scoring loop: byte-LUT contributions, GSAT stats recomputed
/// on every absorption (the engine's pre-popcount per-absorption shape).
fn score_with_lut(
    queries: &[&[i8]],
    keys: &BitPlaneMatrix,
    gsat: &Gsat,
    enable_bs: bool,
) -> ScoreChecksum {
    let bits = keys.bits();
    let mut sum = ScoreChecksum::default();
    for q in queries {
        let lut = QRowLut::new(q);
        for token in 0..keys.tokens() {
            let planes = keys.token(token);
            for r in 0..bits {
                let plane = planes.plane(r);
                let contrib = plane_contribution_lut(&lut, plane, r, bits, false);
                let stats = gsat.absorb_stats(plane, enable_bs);
                sum.fold(contrib.value, contrib.selected, stats);
            }
        }
    }
    sum
}

/// This PR's scoring loop: trimmed query bit planes scored as weighted
/// AND+popcounts, GSAT stats memoized per `(token, plane)`.
fn score_with_popcount(
    queries: &[&[i8]],
    keys: &BitPlaneMatrix,
    gsat: &Gsat,
    enable_bs: bool,
) -> ScoreChecksum {
    let bits = keys.bits();
    let mut sum = ScoreChecksum::default();
    let mut memo: Vec<Option<PlaneAbsorb>> = vec![None; keys.tokens() * bits as usize];
    for q in queries {
        let qp = QRowPlanes::new(q);
        for token in 0..keys.tokens() {
            let planes = keys.token(token);
            for r in 0..bits {
                let plane = planes.plane(r);
                let contrib = plane_contribution_planes(&qp, plane, r, bits, false);
                let slot = token * bits as usize + r as usize;
                let stats = match memo[slot] {
                    Some(s) => s,
                    None => {
                        let s = gsat.absorb_stats(plane, enable_bs);
                        memo[slot] = Some(s);
                        s
                    }
                };
                sum.fold(contrib.value, contrib.selected, stats);
            }
        }
    }
    sum
}

/// Runs one shape through both scoring loops and cross-checks checksums
/// and engine outputs.
///
/// # Panics
///
/// Panics if the two loops' checksums differ or the engine diverges from
/// the seed oracle on this shape (both are bit-identical by design;
/// divergence is a bug).
#[must_use]
pub fn run_kernel_shape(spec: &ShapeSpec, config: &PadeConfig) -> KernelShapeResult {
    let trace = crate::trace_for(spec);
    let keys = BitPlaneMatrix::from_rows(trace.keys().as_slice(), trace.keys().cols(), config.bits)
        .expect("key bit planes");
    let queries: Vec<&[i8]> = (0..trace.queries().rows()).map(|i| trace.queries().row(i)).collect();
    let gsat = Gsat::new(config.gsat_width, config.subgroup);

    let absorptions = (queries.len() * keys.tokens() * keys.bits() as usize) as u64;
    // Small sweeps are timed best-of-5 to squeeze out scheduler noise;
    // million-absorption sweeps run long enough for best-of-2.
    let iters = if absorptions >= 1_000_000 { 2 } else { 5 };

    let (lut_sum, lut_wall_s) =
        time_best_of(iters, || score_with_lut(&queries, &keys, &gsat, config.enable_bs));
    let (pop_sum, popcount_wall_s) =
        time_best_of(iters, || score_with_popcount(&queries, &keys, &gsat, config.enable_bs));
    assert_eq!(
        lut_sum,
        pop_sum,
        "popcount scoring diverged from the byte-LUT path on {}",
        spec.id()
    );

    // Engine outputs at this measured point: popcount engine vs the seed
    // oracle, block by block.
    let scale = trace.logit_scale();
    let job =
        QkBatchJob { queries: queries.clone(), keys: keys.clone().into(), logit_scale: scale };
    let engine = run_qk_batch(config, &[job]);
    for (i, block) in queries.chunks(config.pe_rows).enumerate() {
        let oracle = run_qk_block_reference(config, block, &keys, scale);
        assert_eq!(engine[i], oracle, "{}: engine block {i} diverged from the oracle", spec.id());
    }

    KernelShapeResult {
        spec: *spec,
        absorptions,
        lut_wall_s,
        popcount_wall_s,
        speedup: lut_wall_s / popcount_wall_s.max(f64::MIN_POSITIVE),
        query_planes: QRowPlanes::new(queries[0]).planes(),
        bit_identical: true,
    }
}

/// Dispatches one decode step across `heads` heads as a per-head loop and
/// as one fused batch, cross-checking byte-identity.
///
/// # Panics
///
/// Panics if any dispatch variant diverges from the per-head loop.
#[must_use]
pub fn run_fused_point(
    heads: usize,
    seq_len: usize,
    head_dim: usize,
    config: &PadeConfig,
) -> FusedResult {
    // One trace per head (distinct seeds): H key tensors, one query row
    // each — a decode step of an H-head layer.
    let traces: Vec<AttentionTrace> = (0..heads)
        .map(|h| {
            AttentionTrace::generate(&TraceConfig {
                seq_len,
                head_dim,
                n_queries: 1,
                seed: 2026 + h as u64,
                ..TraceConfig::small_demo()
            })
        })
        .collect();
    let jobs: Vec<QkBatchJob> = traces
        .iter()
        .map(|t| QkBatchJob {
            queries: vec![t.queries().row(0)],
            keys: BitPlaneMatrix::from_rows(t.keys().as_slice(), t.keys().cols(), config.bits)
                .expect("key bit planes")
                .into(),
            logit_scale: t.logit_scale(),
        })
        .collect();

    let iters = if seq_len >= 4096 { 2 } else { 5 };
    let (loop_results, per_head_wall_s) = time_best_of(iters, || {
        jobs.iter().flat_map(|h| run_qk_batch(config, std::slice::from_ref(h))).collect::<Vec<_>>()
    });
    let (fused_results, fused_wall_s) = time_best_of(iters, || run_qk_batch(config, &jobs));
    assert_eq!(fused_results, loop_results, "fused dispatch diverged from the per-head loop");

    FusedResult {
        heads,
        seq_len,
        head_dim,
        per_head_wall_s,
        fused_wall_s,
        speedup: per_head_wall_s / fused_wall_s.max(f64::MIN_POSITIVE),
        bit_identical: true,
    }
}

/// Runs the whole popcount sweep under the standard configuration: the
/// BENCH_1 shape matrix through the kernel comparison plus one fused
/// multi-head decode point (8 heads, the quick variant 4).
#[must_use]
pub fn run_popcount_matrix(quick: bool) -> PopcountSweep {
    let config = PadeConfig::standard();
    let kernels =
        crate::default_matrix(quick).iter().map(|s| run_kernel_shape(s, &config)).collect();
    let fused = if quick {
        run_fused_point(4, 256, 64, &config)
    } else {
        run_fused_point(8, 1024, 64, &config)
    };
    PopcountSweep { kernels, fused }
}

/// Serializes a popcount sweep to the `BENCH_<n>.json` trajectory schema
/// (`BENCH_6.json` records the popcount-kernel PR).
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_popcount_json(
    path: &std::path::Path,
    sweep: &PopcountSweep,
    mode: &str,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench_id\": {},", crate::bench_id_from_path(path))?;
    writeln!(f, "  \"tool\": \"pade-bench\",")?;
    writeln!(f, "  \"scenario\": \"popcount\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(f, "  \"kernel_worker_threads\": 1,")?;
    writeln!(
        f,
        "  \"paths\": {{\"baseline\": \"QRowLut byte-LUT scoring, per-absorption GSAT\", \
         \"optimized\": \"QRowPlanes weighted AND+popcount scoring, memoized GSAT\"}},"
    )?;
    writeln!(f, "  \"shapes\": [")?;
    for (i, r) in sweep.kernels.iter().enumerate() {
        let comma = if i + 1 == sweep.kernels.len() { "" } else { "," };
        writeln!(f, "    {{")?;
        writeln!(f, "      \"id\": \"{}\",", r.spec.id())?;
        writeln!(f, "      \"phase\": \"{}\",", r.spec.phase)?;
        writeln!(f, "      \"seq_len\": {},", r.spec.seq_len)?;
        writeln!(f, "      \"head_dim\": {},", r.spec.head_dim)?;
        writeln!(f, "      \"query_rows\": {},", r.spec.query_rows)?;
        writeln!(f, "      \"absorptions\": {},", r.absorptions)?;
        writeln!(f, "      \"lut_wall_s\": {:.6},", r.lut_wall_s)?;
        writeln!(f, "      \"popcount_wall_s\": {:.6},", r.popcount_wall_s)?;
        writeln!(f, "      \"speedup\": {:.3},", r.speedup)?;
        writeln!(f, "      \"query_planes\": {},", r.query_planes)?;
        writeln!(f, "      \"bit_identical\": {}", r.bit_identical)?;
        writeln!(f, "    }}{comma}")?;
    }
    writeln!(f, "  ],")?;
    let fr = &sweep.fused;
    writeln!(f, "  \"fused\": {{")?;
    writeln!(f, "    \"heads\": {},", fr.heads)?;
    writeln!(f, "    \"seq_len\": {},", fr.seq_len)?;
    writeln!(f, "    \"head_dim\": {},", fr.head_dim)?;
    writeln!(f, "    \"per_head_wall_s\": {:.6},", fr.per_head_wall_s)?;
    writeln!(f, "    \"fused_wall_s\": {:.6},", fr.fused_wall_s)?;
    writeln!(f, "    \"speedup\": {:.3},", fr.speedup)?;
    writeln!(f, "    \"bit_identical\": {}", fr.bit_identical)?;
    writeln!(f, "  }},")?;
    let headline = sweep
        .kernels
        .iter()
        .max_by(|a, b| a.speedup.partial_cmp(&b.speedup).expect("finite speedups"))
        .expect("at least one shape");
    writeln!(
        f,
        "  \"headline\": {{\"shape\": \"{}\", \"speedup\": {:.3}, \"bit_identical\": {}}}",
        headline.spec.id(),
        headline.speedup,
        headline.bit_identical
    )?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_popcount_sweep_checks_identity() {
        let sweep = run_popcount_matrix(true);
        assert_eq!(sweep.kernels.len(), 2);
        for r in &sweep.kernels {
            assert!(r.bit_identical);
            assert!(r.lut_wall_s > 0.0 && r.popcount_wall_s > 0.0);
            assert!(r.absorptions > 0);
            assert!(r.query_planes >= 2 && r.query_planes <= 8);
        }
        assert!(sweep.fused.bit_identical);
        assert_eq!(sweep.fused.heads, 4);
    }

    #[test]
    fn popcount_json_is_well_formed_enough() {
        let sweep = run_popcount_matrix(true);
        let path = std::env::temp_dir().join("pade_popcount_bench_test.json");
        write_popcount_json(&path, &sweep, "quick").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"scenario\": \"popcount\""));
        assert!(text.contains("\"fused\""));
        assert!(text.contains("\"headline\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checksums_agree_on_a_small_shape() {
        let config = PadeConfig::standard();
        let trace = AttentionTrace::generate(&TraceConfig::small_demo());
        let keys =
            BitPlaneMatrix::from_rows(trace.keys().as_slice(), trace.keys().cols(), config.bits)
                .unwrap();
        let queries: Vec<&[i8]> =
            (0..trace.queries().rows()).map(|i| trace.queries().row(i)).collect();
        let gsat = Gsat::new(config.gsat_width, config.subgroup);
        for enable_bs in [false, true] {
            assert_eq!(
                score_with_lut(&queries, &keys, &gsat, enable_bs),
                score_with_popcount(&queries, &keys, &gsat, enable_bs),
                "enable_bs = {enable_bs}"
            );
        }
    }
}
