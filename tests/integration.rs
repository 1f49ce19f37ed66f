//! Cross-crate integration tests: the assembled system against its exact
//! references, ablation monotonicity, and determinism.

use pade::baselines::{dota, energon, sanger, sofa, Accelerator, BitWave};
use pade::core::accelerator::{scale_to_model, PadeAccelerator};
use pade::core::config::PadeConfig;
use pade::energy::{EnergyLedger, Tech};
use pade::linalg::metrics::cosine_similarity;
use pade::workload::profile::ScoreProfile;
use pade::workload::trace::{AttentionTrace, TraceConfig};
use pade::workload::{model, task};

fn mid_trace() -> AttentionTrace {
    AttentionTrace::generate(&TraceConfig {
        seq_len: 1024,
        head_dim: 64,
        n_queries: 8,
        profile: ScoreProfile::standard(),
        bits: 8,
        seed: 77,
        prompt_keys: false,
    })
}

#[test]
fn pade_output_matches_exact_subset_attention() {
    let trace = mid_trace();
    let r = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
    for (row, out) in r.outputs.iter().enumerate() {
        let expect = trace.subset_output(row, &r.retained[row]);
        for (a, b) in out.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3, "row {row}: {a} vs {b}");
        }
        let reference = trace.reference_output(row);
        let cos = cosine_similarity(out, &reference);
        assert!(cos > 0.99, "row {row}: cosine {cos}");
    }
}

#[test]
fn every_feature_helps_latency() {
    let trace = mid_trace();
    let run = |cfg: PadeConfig| PadeAccelerator::new(cfg).run_trace(&trace).stats.cycles;
    let dense = run(PadeConfig::dense_baseline());
    let gf = run(PadeConfig {
        enable_bui_gf: true,
        enable_bs: false,
        enable_ooe: false,
        enable_ista: false,
        enable_rars: false,
        enable_interleave: false,
        ..PadeConfig::standard()
    });
    let bsooe = run(PadeConfig {
        enable_ista: false,
        enable_rars: false,
        enable_interleave: false,
        ..PadeConfig::standard()
    });
    let full = run(PadeConfig::standard());
    assert!(gf < dense, "BUI-GF must beat dense: {gf} vs {dense}");
    assert!(bsooe <= gf, "BS-OOE must not regress: {bsooe} vs {gf}");
    assert!(full <= bsooe, "ISTA must not regress: {full} vs {bsooe}");
}

#[test]
fn pade_is_predictor_free_and_baselines_are_not() {
    let trace = mid_trace();
    let pade = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
    let tech = Tech::cmos28();
    let pl = EnergyLedger::from_stats(&pade.stats, &tech);
    assert_eq!(pl.predictor.total_pj(), 0.0, "PADE must have no predictor stage");
    for design in [sanger(), dota(), sofa(), energon()] {
        let r = design.run(&trace);
        let l = EnergyLedger::from_stats(&r.stats, &tech);
        assert!(l.predictor.total_pj() > 0.0, "{} must pay a predictor", design.name());
    }
}

#[test]
fn pade_beats_every_stage_splitting_design_on_energy_at_scale() {
    let mut t = task::wikilingua();
    t.seq_len = 2048;
    let m = model::llama2_7b();
    let trace = AttentionTrace::generate(&TraceConfig {
        seq_len: 2048,
        head_dim: m.head_dim,
        n_queries: 8,
        profile: ScoreProfile::standard(),
        bits: 8,
        seed: 99,
        prompt_keys: false,
    });
    let tech = Tech::cmos28();
    let pade = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
    let pade_scaled = scale_to_model(&pade.stats, &m, t.seq_len, 8, None);
    let pade_e = EnergyLedger::from_stats(&pade_scaled, &tech).total_pj();
    for design in [sanger(), dota(), sofa(), energon()] {
        let r = design.run(&trace);
        let scaled = scale_to_model(&r.stats, &m, t.seq_len, 8, None);
        let e = EnergyLedger::from_stats(&scaled, &tech).total_pj();
        assert!(pade_e < e, "PADE ({pade_e:.3e}) must beat {} ({e:.3e})", design.name());
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = PadeAccelerator::new(PadeConfig::standard()).run_trace(&mid_trace());
    let b = PadeAccelerator::new(PadeConfig::standard()).run_trace(&mid_trace());
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.retained, b.retained);
    assert_eq!(a.planes_fetched, b.planes_fetched);
    assert_eq!(a.stats.traffic.dram_total_bytes(), b.stats.traffic.dram_total_bytes());
}

#[test]
fn gqa_scaling_reduces_kv_traffic() {
    let trace = mid_trace();
    let r = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
    let mha = scale_to_model(&r.stats, &model::llama2_7b(), 2048, 8, None);
    let gqa = scale_to_model(&r.stats, &model::llama3_8b(), 2048, 8, None);
    assert!(gqa.traffic.dram_read_bytes < mha.traffic.dram_read_bytes);
    assert_eq!(gqa.ops.bit_serial_acc, mha.ops.bit_serial_acc);
}

#[test]
fn bitwave_is_exact_but_less_balanced() {
    // Dense bit-serial runs simulate every plane of every key, so this
    // comparison uses a half-length trace to keep the cycle count sane.
    let trace = AttentionTrace::generate(&TraceConfig {
        seq_len: 512,
        head_dim: 64,
        n_queries: 4,
        profile: ScoreProfile::standard(),
        bits: 8,
        seed: 77,
        prompt_keys: false,
    });
    let bw = BitWave::default().run(&trace);
    assert_eq!(bw.fidelity, 1.0);
    // Isolate the balance mechanisms (BS + OOE vs one-sided lockstep) by
    // comparing at equal work: dense bit-serial PADE, no pruning. Pruning
    // adds data-dependent tail variance that is a separate effect.
    let dense_bitserial = PadeConfig { enable_bui_gf: false, ..PadeConfig::standard() };
    let pade = PadeAccelerator::new(dense_bitserial).run_trace(&trace);
    assert!(
        pade.stats.pe_util.balance_efficiency() > bw.stats.pe_util.balance_efficiency(),
        "PADE {} vs BitWave {}",
        pade.stats.pe_util.balance_efficiency(),
        bw.stats.pe_util.balance_efficiency()
    );
    // And the full design still finishes far sooner with fewer gated adds.
    let full = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
    assert!(full.stats.cycles < bw.stats.cycles);
    assert!(full.stats.ops.bit_serial_acc < bw.stats.ops.bit_serial_acc);
}

#[test]
fn aggressive_config_trades_fidelity_for_sparsity() {
    let trace = mid_trace();
    let std = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
    let agg = PadeAccelerator::new(PadeConfig::aggressive()).run_trace(&trace);
    assert!(agg.stats.sparsity() >= std.stats.sparsity());
    assert!(agg.fidelity <= std.fidelity + 1e-9);
    assert!(agg.stats.cycles <= std.stats.cycles);
    assert!(std.fidelity > 0.99);
    assert!(agg.fidelity > 0.95);
}

#[test]
fn int4_mode_runs_end_to_end() {
    let trace = AttentionTrace::generate(&TraceConfig {
        seq_len: 512,
        bits: 4,
        ..TraceConfig::small_demo()
    });
    let cfg = PadeConfig { bits: 4, ..PadeConfig::standard() };
    let r = PadeAccelerator::new(cfg).run_trace(&trace);
    assert!(r.fidelity > 0.9, "INT4 fidelity {}", r.fidelity);
    assert!(r.planes_dense < 512 * 8, "4-bit keys have at most 4 planes per fetch group");
}
