//! Vision transformer scenario: flatter attention distributions (ViT vs
//! the long-sequence PVT), showing how achievable sparsity and PADE's
//! advantage grow with sequence length (Fig. 21's ViT-vs-PVT observation).
//!
//! ```text
//! cargo run --release --example vision_transformer
//! ```

use pade::core::accelerator::PadeAccelerator;
use pade::core::config::PadeConfig;
use pade::workload::profile::ScoreProfile;
use pade::workload::trace::{AttentionTrace, TraceConfig};

fn main() {
    println!(
        "{:<12} {:>6} {:>8} {:>10} {:>12} {:>12}",
        "model", "S", "keep", "fidelity", "QK cycles", "dense cyc"
    );
    println!("{}", "-".repeat(64));
    for (name, s) in [("ViT-L/16", 576usize), ("PVT", 3072)] {
        let trace = AttentionTrace::generate(&TraceConfig {
            seq_len: s,
            head_dim: 64,
            n_queries: 8,
            profile: ScoreProfile::vision(),
            bits: 8,
            seed: 31,
            prompt_keys: false,
        });
        let pade = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
        let dense = PadeAccelerator::new(PadeConfig::dense_baseline()).run_trace(&trace);
        println!(
            "{:<12} {:>6} {:>7.1}% {:>10.4} {:>12} {:>12}",
            name,
            s,
            pade.stats.keep_ratio() * 100.0,
            pade.fidelity,
            pade.stats.cycles.0,
            dense.stats.cycles.0,
        );
    }
    println!();
    println!("Patch attention is flatter than language attention, so vision");
    println!("keep ratios are higher — but the longer PVT sequence still gives");
    println!("PADE a larger relative win than the short ViT one.");
}
