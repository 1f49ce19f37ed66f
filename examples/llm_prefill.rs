//! LLM prefill scenario: Llama-2-7B-style attention at a 2k context,
//! comparing PADE against the stage-splitting SOTA accelerators under the
//! paper's normalization.
//!
//! ```text
//! cargo run --release --example llm_prefill
//! ```

use pade::baselines::{dota, sanger, sofa, Accelerator};
use pade::core::accelerator::PadeAccelerator;
use pade::core::config::PadeConfig;
use pade::energy::{EnergyLedger, Tech};
use pade::workload::profile::ScoreProfile;
use pade::workload::trace::{AttentionTrace, TraceConfig};

fn main() {
    let trace = AttentionTrace::generate(&TraceConfig {
        seq_len: 2048,
        head_dim: 128, // Llama-2 head width
        n_queries: 8,
        profile: ScoreProfile::standard(),
        bits: 8,
        seed: 11,
        prompt_keys: false,
    });
    let tech = Tech::cmos28();

    println!(
        "{:<10} {:>8} {:>9} {:>12} {:>12} {:>10}",
        "design", "keep", "fidelity", "energy(uJ)", "pred share", "cycles"
    );
    println!("{}", "-".repeat(66));

    let pade = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
    let e = EnergyLedger::from_stats(&pade.stats, &tech);
    println!(
        "{:<10} {:>7.1}% {:>9.4} {:>12.2} {:>11.1}% {:>10}",
        "PADE",
        pade.stats.keep_ratio() * 100.0,
        pade.fidelity,
        e.total_pj() * 1e-6,
        e.predictor_fraction() * 100.0,
        pade.stats.cycles.0,
    );

    for design in [sanger(), dota(), sofa()] {
        let r = design.run(&trace);
        let e = EnergyLedger::from_stats(&r.stats, &tech);
        println!(
            "{:<10} {:>7.1}% {:>9.4} {:>12.2} {:>11.1}% {:>10}",
            design.name(),
            r.stats.keep_ratio() * 100.0,
            r.fidelity,
            e.total_pj() * 1e-6,
            e.predictor_fraction() * 100.0,
            r.stats.cycles.0,
        );
    }
    println!();
    println!("PADE's predictor share is identically zero: prediction IS the");
    println!("first rounds of execution (bit-serial stage fusion).");
}
