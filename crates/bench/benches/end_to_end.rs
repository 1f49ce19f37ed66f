//! Criterion benchmarks of full accelerator runs: one group per evaluation
//! axis (ablation stages, designs, data layouts, context lengths),
//! providing the benchable form of the per-figure parameter sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pade_baselines::{sanger, sofa, Accelerator, BitWave};
use pade_core::accelerator::PadeAccelerator;
use pade_core::config::PadeConfig;
use pade_mem::KeyLayout;
use pade_workload::profile::ScoreProfile;
use pade_workload::trace::{AttentionTrace, TraceConfig};

fn trace(seq: usize) -> AttentionTrace {
    AttentionTrace::generate(&TraceConfig {
        seq_len: seq,
        head_dim: 64,
        n_queries: 8,
        profile: ScoreProfile::standard(),
        bits: 8,
        seed: 42,
    })
}

/// Fig. 16(a): the ablation stages.
fn bench_ablation(c: &mut Criterion) {
    let t = trace(512);
    let mut g = c.benchmark_group("fig16_ablation");
    g.sample_size(10);
    let stages: Vec<(&str, PadeConfig)> = vec![
        ("dense", PadeConfig::dense_baseline()),
        (
            "bui_gf",
            PadeConfig {
                enable_bui_gf: true,
                enable_bs: false,
                enable_ooe: false,
                enable_ista: false,
                enable_rars: false,
                enable_interleave: false,
                ..PadeConfig::standard()
            },
        ),
        (
            "bs_ooe",
            PadeConfig {
                enable_ista: false,
                enable_rars: false,
                enable_interleave: false,
                ..PadeConfig::standard()
            },
        ),
        ("full", PadeConfig::standard()),
    ];
    for (name, cfg) in stages {
        g.bench_function(name, |b| {
            let a = PadeAccelerator::new(cfg.clone());
            b.iter(|| a.run_trace(&t))
        });
    }
    g.finish();
}

/// Fig. 14 / Fig. 21: PADE vs the stage-splitting designs.
fn bench_designs(c: &mut Criterion) {
    let t = trace(512);
    let mut g = c.benchmark_group("fig21_designs");
    g.sample_size(10);
    g.bench_function("pade", |b| {
        let a = PadeAccelerator::new(PadeConfig::standard());
        b.iter(|| a.run_trace(&t))
    });
    g.bench_function("sanger", |b| b.iter(|| sanger().run(&t)));
    g.bench_function("sofa", |b| b.iter(|| sofa().run(&t)));
    g.bench_function("bitwave", |b| b.iter(|| BitWave::default().run(&t)));
    g.finish();
}

/// Fig. 23(b): the data-layout study.
fn bench_layouts(c: &mut Criterion) {
    let t = trace(512);
    let mut g = c.benchmark_group("fig23_layouts");
    g.sample_size(10);
    for layout in
        [KeyLayout::BitPlaneInterleaved, KeyLayout::BitPlaneLinear, KeyLayout::ValueRowMajor]
    {
        g.bench_with_input(BenchmarkId::new("layout", layout.name()), &layout, |b, &layout| {
            let a = PadeAccelerator::new(PadeConfig { layout, ..PadeConfig::standard() });
            b.iter(|| a.run_trace(&t))
        });
    }
    g.finish();
}

/// Fig. 2(b) / Fig. 26(b): scaling with context length.
fn bench_context_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig26_context");
    g.sample_size(10);
    for seq in [256usize, 512, 1024] {
        let t = trace(seq);
        g.bench_with_input(BenchmarkId::new("pade", seq), &seq, |b, _| {
            let a = PadeAccelerator::new(PadeConfig::standard());
            b.iter(|| a.run_trace(&t))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablation, bench_designs, bench_layouts, bench_context_scaling);
criterion_main!(benches);
