//! Crate-level tests for the baseline accelerator models: the structural
//! facts the comparisons rest on — every stage-splitting design pays a
//! predictor that scales with the full key tensor, fidelity metrics are
//! well-formed, and the qualitative Table I feature matrix matches the
//! implementations.

use pade_baselines::{
    dota, energon, sanger, sofa, spatten, spatten_finetuned, Accelerator, BitWave,
};
use pade_workload::profile::ScoreProfile;
use pade_workload::trace::{AttentionTrace, TraceConfig};

fn trace(seq_len: usize, seed: u64) -> AttentionTrace {
    AttentionTrace::generate(&TraceConfig {
        seq_len,
        head_dim: 32,
        n_queries: 4,
        profile: ScoreProfile::standard(),
        bits: 8,
        seed,
        prompt_keys: false,
    })
}

fn stage_splitters() -> Vec<Box<dyn Accelerator>> {
    vec![
        Box::new(sanger()),
        Box::new(dota()),
        Box::new(energon()),
        Box::new(sofa()),
        Box::new(spatten()),
        Box::new(spatten_finetuned()),
    ]
}

#[test]
fn every_stage_splitter_pays_a_predictor() {
    let t = trace(256, 41);
    for accel in stage_splitters() {
        let r = accel.run(&t);
        let pred =
            r.stats.predictor_ops.equivalent_adds() + r.stats.predictor_traffic.dram_total_bytes();
        assert!(pred > 0, "{} must carry predictor cost", accel.name());
    }
    // BitWave is dense bit-serial: nothing to predict.
    let r = BitWave::default().run(&t);
    assert_eq!(r.stats.predictor_ops.equivalent_adds(), 0, "BitWave has no predictor");
}

#[test]
fn predictor_traffic_scales_with_context_not_sparsity() {
    // The §I observation: a predictor that estimates scores must stream
    // the full K tensor, so its traffic doubles when S doubles even though
    // sparsity rises. (SpAtten is the exception by design — it reuses the
    // previous layer's scores instead of streaming K, paying in accuracy
    // drift rather than bytes; Table I marks it "Low" memory.)
    let streaming: Vec<Box<dyn Accelerator>> =
        vec![Box::new(sanger()), Box::new(dota()), Box::new(energon()), Box::new(sofa())];
    for accel in streaming {
        let short = accel.run(&trace(256, 43));
        let long = accel.run(&trace(512, 43));
        let ratio = long.stats.predictor_traffic.dram_total_bytes() as f64
            / short.stats.predictor_traffic.dram_total_bytes().max(1) as f64;
        assert!(
            ratio > 1.8,
            "{}: predictor traffic ratio {ratio} should track context",
            accel.name()
        );
    }
}

#[test]
fn fidelity_and_mass_are_well_formed() {
    let t = trace(256, 47);
    for accel in stage_splitters() {
        let r = accel.run(&t);
        assert!(
            (0.0..=1.0 + 1e-6).contains(&r.fidelity),
            "{}: fidelity {}",
            accel.name(),
            r.fidelity
        );
        assert!((0.0..=1.0 + 1e-6).contains(&r.retained_mass));
        assert_eq!(r.retained.len(), 4, "one retained set per query row");
        for row in &r.retained {
            assert!(row.iter().all(|&j| j < 256), "retained ids in range");
        }
        assert!(r.stats.cycles.0 > 0);
    }
}

#[test]
fn bitwave_is_exact_and_retains_everything() {
    let t = trace(128, 53);
    let r = BitWave::default().run(&t);
    assert_eq!(r.fidelity, 1.0);
    assert_eq!(r.stats.sparsity(), 0.0);
    for row in &r.retained {
        assert_eq!(row.len(), 128);
    }
}

#[test]
fn sparse_designs_skip_executor_work() {
    // Every stage splitter prunes keys and runs its executor only on the
    // retained set, so executor MACs fall below the dense 2·n·s·h count.
    let t = trace(512, 59);
    let dense_macs = 2 * 4 * 512 * 32;
    for accel in stage_splitters() {
        let r = accel.run(&t);
        assert!(r.stats.sparsity() > 0.0, "{} must prune", accel.name());
        assert!(
            r.stats.ops.int8_mac < dense_macs,
            "{}: executor MACs {} must undercut dense {dense_macs}",
            accel.name(),
            r.stats.ops.int8_mac
        );
    }
}

#[test]
fn finetuned_spatten_buys_sparsity_not_accuracy_loss() {
    // Table I footnote: previous-layer guidance needs retraining. The
    // finetuned variant models that recovery as lower predictor drift,
    // which it spends on a tighter top-k: more pruning at essentially
    // unchanged fidelity.
    let t = trace(384, 61);
    let raw = spatten().run(&t);
    let tuned = spatten_finetuned().run(&t);
    assert!(
        tuned.stats.sparsity() > raw.stats.sparsity(),
        "{} vs {}",
        tuned.stats.sparsity(),
        raw.stats.sparsity()
    );
    assert!(tuned.fidelity >= raw.fidelity - 1e-3, "{} vs {}", tuned.fidelity, raw.fidelity);
}

#[test]
fn bitwave_lane_count_trades_latency_for_balance() {
    let t = trace(256, 67);
    let narrow = BitWave::new(4).run(&t);
    let wide = BitWave::new(32).run(&t);
    // More lanes finish sooner but balance degrades (Fig. 23(a)).
    assert!(wide.stats.cycles < narrow.stats.cycles);
    assert!(
        wide.stats.pe_util.balance_efficiency() <= narrow.stats.pe_util.balance_efficiency() + 1e-9
    );
}
