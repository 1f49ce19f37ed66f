//! The assembled PADE accelerator (Fig. 11(a), Table III).
//!
//! [`PadeAccelerator::run_trace`] executes one attention block — up to
//! `pe_rows` query rows against the full key/value tensors — through the
//! cycle-level QK-PU engine, the ISTA tiling layer, RARS V-fetch
//! scheduling and the V-PU model, producing a [`pade_sim::RunStats`]
//! record plus exact outputs and fidelity metrics.
//!
//! Toggling the [`PadeConfig`] feature flags yields every ablation point of
//! Fig. 16(a)/Fig. 19; [`PadeConfig::dense_baseline`] selects the
//! value-level dense accelerator those figures normalize against.
//! [`scale_to_model`] extrapolates a simulated block to a full model ×
//! task (all layers, heads and query blocks, with GQA K/V reuse).

use pade_linalg::metrics::{cosine_similarity, retained_mass};
use pade_mem::{HbmModel, QvLayout};
use pade_quant::BitPlaneMatrix;
use pade_sim::{Cycle, RunStats, UtilizationCounter};
use pade_workload::model::ModelConfig;
use pade_workload::trace::AttentionTrace;

use crate::config::PadeConfig;
use crate::engine::run_qk_block;
use crate::ista::{run_ista, TileOrder};
use crate::rars::{naive_schedule, rars_schedule};
use crate::vpu::Vpu;

/// Result of one accelerator block run.
#[derive(Debug, Clone)]
pub struct PadeRunResult {
    /// Event counts, latency and utilization.
    pub stats: RunStats,
    /// Per query row: retained token indices.
    pub retained: Vec<Vec<usize>>,
    /// Per query row: final attention output.
    pub outputs: Vec<Vec<f32>>,
    /// Mean cosine similarity between the produced outputs and the exact
    /// dense reference (1.0 = exact attention). This is the quantity the
    /// accuracy experiments map onto task metrics.
    pub fidelity: f64,
    /// Mean retained softmax mass over query rows.
    pub retained_mass: f64,
    /// QK-PU latency component.
    pub qk_cycles: Cycle,
    /// V-PU latency component.
    pub vpu_cycles: Cycle,
    /// Running-max updates across all rows (ISTA accounting).
    pub max_updates: u64,
    /// Equivalent ops spent rescaling accumulators on max updates.
    pub rescale_ops: u64,
    /// V-vector DRAM loads (after RARS, if enabled).
    pub v_loads: u64,
    /// DRAM row-buffer hit rate of the QK stream.
    pub row_hit_rate: f64,
    /// DRAM bandwidth utilization of the QK stream.
    pub bandwidth_utilization: f64,
    /// Per-lane utilization counters.
    pub lane_utils: Vec<UtilizationCounter>,
    /// Unique key bit planes fetched.
    pub planes_fetched: u64,
    /// Planes a dense bit-serial run would fetch.
    pub planes_dense: u64,
}

/// The PADE accelerator.
#[derive(Debug, Clone)]
pub struct PadeAccelerator {
    config: PadeConfig,
}

impl PadeAccelerator {
    /// Builds an accelerator, validating the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration violates structural invariants
    /// (see [`PadeConfig::validate`]).
    #[must_use]
    pub fn new(config: PadeConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &PadeConfig {
        &self.config
    }

    /// Runs one attention block. Dense-baseline configurations (every
    /// sparse feature disabled) take the value-level INT8 path; everything
    /// else runs the bit-serial stage-fusion pipeline.
    #[must_use]
    pub fn run_trace(&self, trace: &AttentionTrace) -> PadeRunResult {
        let c = &self.config;
        if !c.enable_bui_gf && !c.enable_bs && !c.enable_ooe && !c.enable_ista {
            return self.run_dense(trace);
        }
        self.run_bit_serial(trace)
    }

    /// Value-level dense INT8 execution (the Fig. 16(a)/19 baseline): all
    /// keys and values are streamed and computed at full width.
    fn run_dense(&self, trace: &AttentionTrace) -> PadeRunResult {
        let c = &self.config;
        let s = trace.keys().rows();
        let h = trace.keys().cols();
        let n_q = trace.queries().rows();
        let mut stats = RunStats::new("pade-dense-baseline");

        // Compute: full QKᵀ + softmax + PV.
        let qk_macs = (n_q * s * h) as u64;
        let pv_macs = (n_q * s * h) as u64;
        stats.ops.int8_mac = qk_macs + pv_macs;
        stats.ops.fp_exp = (n_q * s) as u64;
        stats.ops.fp_add = (n_q * s) as u64;

        // Memory: K and V streamed once for the block (8-bit), Q loaded
        // once. Streams are issued back to back; the HBM model serializes
        // per-channel buses, so the max completion is the stream time.
        let mut hbm = HbmModel::new(c.hbm);
        let mut t = Cycle::ZERO;
        for token in 0..s {
            let k = QvLayout.row_fetch(token, h, c.bits, &c.hbm);
            t = t.max(hbm.access(k.loc, k.bytes, Cycle::ZERO).complete);
            let v = QvLayout.row_fetch(s + token, h, c.bits, &c.hbm);
            t = t.max(hbm.access(v.loc, v.bytes, Cycle::ZERO).complete);
        }
        hbm.write((n_q * h) as u64);
        let mem_cycles = t;
        stats.traffic = hbm.traffic();
        stats.traffic.sram_read_bytes = stats.ops.int8_mac / 8; // operand reads
        stats.traffic.sram_write_bytes = (2 * s * h) as u64;

        // Latency: the same PE area as value-level MACs (each 64-wide
        // bit-serial lane ≈ 8 INT8 MACs/cycle), memory overlapped.
        let macs_per_cycle = (c.total_lanes() * c.gsat_width / 8) as u64;
        let qk_cycles = Cycle(qk_macs.div_ceil(macs_per_cycle));
        let vpu = Vpu::new(c.vpu_rows, c.vpu_cols);
        let vpu_cycles = Cycle(pv_macs.div_ceil(vpu.macs_per_cycle()));
        stats.cycles = qk_cycles.max(mem_cycles) + vpu_cycles;
        stats.retained_keys = (n_q * s) as u64;
        stats.total_keys = (n_q * s) as u64;
        let mut util = UtilizationCounter::new();
        util.busy(stats.cycles.0);
        stats.pe_util = util;

        let retained: Vec<Vec<usize>> = (0..n_q).map(|_| (0..s).collect()).collect();
        let outputs: Vec<Vec<f32>> = (0..n_q).map(|i| trace.reference_output(i)).collect();
        PadeRunResult {
            stats,
            retained,
            outputs,
            fidelity: 1.0,
            retained_mass: 1.0,
            qk_cycles: qk_cycles.max(mem_cycles),
            vpu_cycles,
            max_updates: 0,
            rescale_ops: 0,
            v_loads: s as u64,
            row_hit_rate: hbm.row_hit_rate(),
            bandwidth_utilization: hbm.bandwidth_utilization(mem_cycles.max(Cycle(1))),
            lane_utils: Vec::new(),
            planes_fetched: 0,
            planes_dense: (s as u64) * u64::from(c.bits),
        }
    }

    /// The bit-serial stage-fusion pipeline.
    fn run_bit_serial(&self, trace: &AttentionTrace) -> PadeRunResult {
        let c = &self.config;
        let h = trace.keys().cols();
        let n_q = trace.queries().rows();
        let s = trace.keys().rows();
        let keys = BitPlaneMatrix::from_rows(trace.keys().as_slice(), h, c.bits)
            .expect("key tensor decomposes");
        let queries: Vec<&[i8]> = (0..n_q).map(|i| trace.queries().row(i)).collect();

        let qk = run_qk_block(c, &queries, &keys, trace.logit_scale());
        let mut stats = RunStats::new("pade");
        stats.ops = qk.ops;
        stats.traffic = qk.traffic;

        // ISTA + V-PU per row.
        let vpu = Vpu::new(c.vpu_rows, c.vpu_cols);
        let order = if c.enable_interleave { TileOrder::HeadTail } else { TileOrder::LeftToRight };
        let mut outputs = Vec::with_capacity(n_q);
        let mut retained_ids = Vec::with_capacity(n_q);
        let mut vpu_cycles = 0u64;
        let mut max_updates = 0u64;
        let mut rescale_ops = 0u64;
        let mut fidelity_sum = 0.0f64;
        let mut mass_sum = 0.0f64;
        for (row, row_retained) in qk.retained.iter().enumerate() {
            let logits_retained: Vec<(usize, f32)> = row_retained
                .iter()
                .map(|&(t, score)| (t, score as f32 * trace.logit_scale()))
                .collect();
            let bc = if c.enable_ista { c.tile_bc } else { logits_retained.len().max(1) };
            let ista = run_ista(&logits_retained, trace.values_f32(), bc, order, &vpu);
            vpu_cycles += ista.vpu_cycles;
            max_updates += ista.max_updates as u64;
            rescale_ops += ista.rescale_ops;
            stats.ops.merge(&ista.ops);
            let all_logits = trace.exact_logits(row);
            let ids: Vec<usize> = row_retained.iter().map(|&(t, _)| t).collect();
            mass_sum += f64::from(retained_mass(&all_logits, &ids));
            let reference = trace.reference_output(row);
            fidelity_sum += f64::from(cosine_similarity(&ista.output, &reference));
            retained_ids.push(ids);
            outputs.push(ista.output);
        }

        // V fetch scheduling across rows (RARS vs naive), replayed through
        // an HBM model for consistent activation/byte accounting.
        let v_schedule = if c.enable_rars {
            rars_schedule(&retained_ids, 2, 2 * c.vpu_rows.min(n_q).max(1))
        } else {
            naive_schedule(&retained_ids, 2)
        };
        let mut v_hbm = HbmModel::new(c.hbm);
        let mut t = Cycle::ZERO;
        for round in &v_schedule.rounds {
            for &v_id in round {
                let f = QvLayout.row_fetch(v_id, h, c.bits, &c.hbm);
                t = t.max(v_hbm.access(f.loc, f.bytes, Cycle::ZERO).complete);
            }
        }
        v_hbm.write((n_q * h) as u64); // output write-back
        stats.traffic.merge(&v_hbm.traffic());
        stats.traffic.sram_write_bytes += v_schedule.total_loads as u64 * h as u64;
        stats.traffic.sram_read_bytes +=
            retained_ids.iter().map(|r| r.len() as u64).sum::<u64>() * h as u64;
        if !c.enable_ista {
            // Untiled execution materializes the full retained score rows
            // before the V pass; rows beyond the buffer spill to DRAM.
            let score_bytes: u64 = retained_ids.iter().map(|r| 2 * r.len() as u64).sum();
            let buffer = c.kv_buffer_kb as u64 * 1024 / 4;
            if score_bytes > buffer {
                let spill = score_bytes - buffer;
                stats.traffic.dram_write_bytes += spill;
                stats.traffic.dram_read_bytes += spill;
            }
        }

        let v_mem_cycles = t;
        let vpu_total = Cycle(vpu_cycles).max(v_mem_cycles);
        // QK-PU and V-PU run as a staggered pipeline under ISTA; without
        // tiling, the V pass waits for the full score row.
        stats.cycles = if c.enable_ista {
            qk.cycles.max(vpu_total) + Cycle(c.vpu_rows as u64 + c.vpu_cols as u64)
        } else {
            qk.cycles + vpu_total
        };

        stats.retained_keys = retained_ids.iter().map(|r| r.len() as u64).sum();
        stats.total_keys = (n_q * s) as u64;
        let mut agg = UtilizationCounter::new();
        for u in &qk.lane_utils {
            agg.merge(u);
        }
        stats.pe_util = agg;

        PadeRunResult {
            stats,
            retained: retained_ids,
            outputs,
            fidelity: fidelity_sum / n_q as f64,
            retained_mass: mass_sum / n_q as f64,
            qk_cycles: qk.cycles,
            vpu_cycles: vpu_total,
            max_updates,
            rescale_ops,
            v_loads: v_schedule.total_loads as u64,
            row_hit_rate: qk.row_hit_rate,
            bandwidth_utilization: qk.bandwidth_utilization,
            lane_utils: qk.lane_utils,
            planes_fetched: qk.planes_fetched,
            planes_dense: qk.planes_dense,
        }
    }
}

/// Extrapolates a simulated block's statistics to a full (model, task)
/// workload: `seq_len / n_queries` query blocks per head per layer,
/// `heads × layers` heads, with K/V DRAM traffic divided by the GQA group
/// size (query heads sharing a KV head reuse its stream, the effect the
/// paper credits for PADE's larger gains on Llama-3, Fig. 21).
///
/// `decode` workloads process one query per step instead of a prefill
/// sweep; pass `n_steps` as the number of generated tokens.
#[must_use]
pub fn scale_to_model(
    block: &RunStats,
    model: &ModelConfig,
    seq_len: usize,
    n_queries_simulated: usize,
    decode_steps: Option<usize>,
) -> RunStats {
    let blocks_per_head = match decode_steps {
        Some(steps) => steps.div_ceil(n_queries_simulated.max(1)) as u64,
        None => seq_len.div_ceil(n_queries_simulated.max(1)) as u64,
    };
    let compute_scale = blocks_per_head * (model.heads * model.layers) as u64;
    // `kv_heads` already captures GQA sharing.
    let kv_scale = blocks_per_head * (model.kv_heads * model.layers) as u64;

    // Ops and cycles scale with compute; traffic with KV streams.
    let mut out = block.clone();
    out.ops.for_each_mut(|v| *v = v.saturating_mul(compute_scale));
    out.predictor_ops.for_each_mut(|v| *v = v.saturating_mul(compute_scale));
    out.traffic.for_each_mut(|v| *v = v.saturating_mul(kv_scale));
    out.predictor_traffic.for_each_mut(|v| *v = v.saturating_mul(kv_scale));
    // Latency: blocks serialize within a head; heads/layers share the one
    // accelerator, so latency scales with total blocks.
    out.cycles = Cycle(block.cycles.0.saturating_mul(compute_scale));
    out.retained_keys = block.retained_keys.saturating_mul(compute_scale);
    out.total_keys = block.total_keys.saturating_mul(compute_scale);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pade_workload::model;
    use pade_workload::profile::ScoreProfile;
    use pade_workload::trace::{AttentionTrace, TraceConfig};

    fn small() -> AttentionTrace {
        AttentionTrace::generate(&TraceConfig::small_demo())
    }

    #[test]
    fn standard_run_is_sparse_and_faithful() {
        let trace = small();
        let r = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
        assert!(r.stats.sparsity() > 0.3, "sparsity {}", r.stats.sparsity());
        assert!(r.fidelity > 0.95, "fidelity {}", r.fidelity);
        // Outputs equal exact subset attention over the retained keys.
        for (row, out) in r.outputs.iter().enumerate() {
            let expect = trace.subset_output(row, &r.retained[row]);
            for (a, b) in out.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-3, "row {row}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn aggressive_prunes_more_than_standard() {
        let trace = small();
        let std = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
        let agg = PadeAccelerator::new(PadeConfig::aggressive()).run_trace(&trace);
        assert!(agg.stats.sparsity() >= std.stats.sparsity());
        assert!(agg.fidelity <= std.fidelity + 1e-9);
        assert!(agg.fidelity > 0.9, "aggressive fidelity {}", agg.fidelity);
        assert!(agg.retained_mass > 0.6, "aggressive mass {}", agg.retained_mass);
    }

    #[test]
    fn pade_beats_dense_baseline_on_latency_and_energy_proxies() {
        let trace = small();
        let pade = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
        let dense = PadeAccelerator::new(PadeConfig::dense_baseline()).run_trace(&trace);
        assert!(pade.stats.cycles < dense.stats.cycles);
        assert!(
            pade.stats.traffic.dram_total_bytes() < dense.stats.traffic.dram_total_bytes(),
            "sparse {} vs dense {}",
            pade.stats.traffic.dram_total_bytes(),
            dense.stats.traffic.dram_total_bytes()
        );
    }

    #[test]
    fn dense_baseline_is_exact() {
        let trace = small();
        let dense = PadeAccelerator::new(PadeConfig::dense_baseline()).run_trace(&trace);
        assert_eq!(dense.fidelity, 1.0);
        assert_eq!(dense.stats.sparsity(), 0.0);
        for (row, out) in dense.outputs.iter().enumerate() {
            let expect = trace.reference_output(row);
            for (a, b) in out.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn rars_reduces_v_loads() {
        let trace = small();
        let with = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
        let without =
            PadeAccelerator::new(PadeConfig { enable_rars: false, ..PadeConfig::standard() })
                .run_trace(&trace);
        assert!(with.v_loads <= without.v_loads, "{} vs {}", with.v_loads, without.v_loads);
    }

    #[test]
    fn interleaving_reduces_max_updates() {
        let trace = small();
        let ht = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
        let ltr =
            PadeAccelerator::new(PadeConfig { enable_interleave: false, ..PadeConfig::standard() })
                .run_trace(&trace);
        assert!(ht.max_updates <= ltr.max_updates, "{} vs {}", ht.max_updates, ltr.max_updates);
    }

    #[test]
    fn no_ista_serializes_stages() {
        let trace = small();
        let tiled = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
        let untiled = PadeAccelerator::new(PadeConfig {
            enable_ista: false,
            enable_interleave: false,
            ..PadeConfig::standard()
        })
        .run_trace(&trace);
        assert!(tiled.stats.cycles <= untiled.stats.cycles);
        // Untiled single-tile softmax is still exact.
        for (row, out) in untiled.outputs.iter().enumerate() {
            let expect = trace.subset_output(row, &untiled.retained[row]);
            for (a, b) in out.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn single_query_long_context_blocks_are_faithful_and_sparse() {
        let decode_step = |seq_len: usize, seed: u64| {
            AttentionTrace::generate(&TraceConfig {
                seq_len,
                head_dim: 32,
                n_queries: 1,
                profile: ScoreProfile::long_context(),
                bits: 8,
                seed,
                prompt_keys: false,
            })
        };
        let pade = PadeAccelerator::new(PadeConfig::standard());
        let trace = decode_step(250, 23);
        let sparse = pade.run_trace(&trace);
        assert!(sparse.fidelity > 0.95, "fidelity {}", sparse.fidelity);
        let dense =
            PadeAccelerator::new(PadeConfig { enable_bui_gf: false, ..PadeConfig::standard() })
                .run_trace(&trace);
        assert!(
            sparse.stats.traffic.dram_read_bytes < dense.stats.traffic.dram_read_bytes,
            "{} vs {}",
            sparse.stats.traffic.dram_read_bytes,
            dense.stats.traffic.dram_read_bytes
        );
        let early = pade.run_trace(&decode_step(64, 29));
        let late = pade.run_trace(&decode_step(500, 29));
        assert!(
            late.stats.traffic.dram_read_bytes > early.stats.traffic.dram_read_bytes,
            "a longer cache must stream more keys"
        );
    }

    #[test]
    fn scaling_multiplies_compute_and_traffic() {
        let trace = small();
        let r = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
        let m = model::llama2_7b();
        let scaled = scale_to_model(&r.stats, &m, 2048, trace.queries().rows(), None);
        let blocks = 2048 / trace.queries().rows();
        let compute = (blocks * m.heads * m.layers) as u64;
        assert_eq!(scaled.ops.bit_serial_acc, r.stats.ops.bit_serial_acc * compute);
        assert!(scaled.cycles.0 >= r.stats.cycles.0 * compute);
        // GQA shrinks KV traffic relative to MHA at equal head count.
        let gqa = scale_to_model(&r.stats, &model::llama3_8b(), 2048, trace.queries().rows(), None);
        assert!(gqa.traffic.dram_read_bytes < scaled.traffic.dram_read_bytes);
    }

    #[test]
    fn decode_scaling_counts_steps() {
        let trace = small();
        let r = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
        let m = model::llama2_7b();
        let a = scale_to_model(&r.stats, &m, 4096, trace.queries().rows(), Some(128));
        let b = scale_to_model(&r.stats, &m, 4096, trace.queries().rows(), Some(256));
        assert!(b.cycles > a.cycles);
    }
}
