//! Long-context decoding: a single query over a long cached context — the
//! regime where the predictor overhead of stage-splitting designs explodes
//! (Fig. 2(b), Fig. 26(b)).
//!
//! ```text
//! cargo run --release --example long_context_decode
//! ```

use pade::baselines::{sanger, sofa, Accelerator};
use pade::core::accelerator::PadeAccelerator;
use pade::core::config::PadeConfig;
use pade::energy::{EnergyLedger, Tech};
use pade::workload::profile::ScoreProfile;
use pade::workload::trace::{AttentionTrace, TraceConfig};

fn main() {
    let tech = Tech::cmos28();
    println!("decode step energy (uJ) per design vs context length");
    println!("{:<8} {:>10} {:>10} {:>10} {:>16}", "S", "PADE", "Sanger", "SOFA", "PADE keep ratio");
    println!("{}", "-".repeat(58));
    for s in [2048usize, 4096, 8192] {
        let trace = AttentionTrace::generate(&TraceConfig {
            seq_len: s,
            head_dim: 128,
            n_queries: 1, // one decode step
            profile: ScoreProfile::long_context(),
            bits: 8,
            seed: 29,
            prompt_keys: false,
        });
        let pade = PadeAccelerator::new(PadeConfig::standard()).run_trace(&trace);
        let pe = EnergyLedger::from_stats(&pade.stats, &tech).total_pj() * 1e-6;
        let sa = sanger().run(&trace);
        let se = EnergyLedger::from_stats(&sa.stats, &tech).total_pj() * 1e-6;
        let so = sofa().run(&trace);
        let soe = EnergyLedger::from_stats(&so.stats, &tech).total_pj() * 1e-6;
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>10.2} {:>15.1}%",
            s,
            pe,
            se,
            soe,
            pade.stats.keep_ratio() * 100.0
        );
    }
    println!();
    println!("Shape to check: the gap between PADE and the stage-splitting");
    println!("designs widens with S — their predictors must stream the whole");
    println!("key tensor every step, regardless of how sparse attention is.");
}
