//! Extension — cycle-level autoregressive decode (supports Fig. 2(b) and
//! Fig. 26(b) from the cycle model rather than analytic scaling).
//!
//! A decode step is one query against the whole cached context, so each
//! (cache length, step) pair runs as a single-query block through
//! [`PadeAccelerator::run_trace`]: a fresh trace over `kv + t` keys, seeded
//! per step. Every step is priced by the same rule as any other attention
//! block — QK-PU, ISTA tiles on the V-PU, RARS V fetches through the HBM
//! model, the output write-back and the pipeline drain — under PADE's
//! standard guard and with BUI-GF off (the dense bit-serial baseline).
//!
//! The table reports per-step latency, DRAM reads and retention at growing
//! cache lengths. The claim under test: PADE's per-step cost grows with
//! the *retained* set (sub-linear in practice thanks to sinks + locality),
//! while any design that must stream the full key tensor — dense execution
//! or a stage-splitting predictor — grows linearly with the cache.

use pade_core::accelerator::{PadeAccelerator, PadeRunResult};
use pade_core::config::PadeConfig;
use pade_experiments::report::{banner, pct, times, Table};
use pade_workload::profile::ScoreProfile;
use pade_workload::trace::{AttentionTrace, TraceConfig};

fn main() {
    banner("Ext. 4", "Cycle-level decode sessions: per-step cost vs cache length");
    let steps = 4usize;
    let pade = PadeAccelerator::new(PadeConfig::standard());
    let dense = PadeAccelerator::new(PadeConfig { enable_bui_gf: false, ..PadeConfig::standard() });
    let mut table = Table::new(vec![
        "cache len",
        "PADE cyc/step",
        "dense cyc/step",
        "speedup",
        "PADE kB/step",
        "dense kB/step",
        "keep ratio",
        "fidelity",
    ]);
    let mut per_kv_bytes = Vec::new();
    for kv in [512usize, 1024, 2048, 4096] {
        let runs: Vec<(PadeRunResult, PadeRunResult)> = (0..steps)
            .map(|t| {
                let trace = AttentionTrace::generate(&TraceConfig {
                    seq_len: kv + t,
                    head_dim: 64,
                    n_queries: 1,
                    profile: ScoreProfile::long_context(),
                    bits: 8,
                    seed: 71 + t as u64,
                    prompt_keys: false,
                });
                (pade.run_trace(&trace), dense.run_trace(&trace))
            })
            .collect();
        let mean = |f: fn(&(PadeRunResult, PadeRunResult)) -> f64| {
            runs.iter().map(f).sum::<f64>() / steps as f64
        };
        let pc = mean(|(p, _)| p.stats.cycles.0 as f64);
        let dc = mean(|(_, d)| d.stats.cycles.0 as f64);
        let pb = mean(|(p, _)| p.stats.traffic.dram_read_bytes as f64);
        let db = mean(|(_, d)| d.stats.traffic.dram_read_bytes as f64);
        let keep = mean(|(p, _)| p.stats.keep_ratio());
        let fidelity = mean(|(p, _)| p.fidelity);
        per_kv_bytes.push((kv, pb));
        table.row(vec![
            kv.to_string(),
            format!("{pc:.0}"),
            format!("{dc:.0}"),
            times(dc / pc),
            format!("{:.1}", pb / 1024.0),
            format!("{:.1}", db / 1024.0),
            pct(keep),
            format!("{fidelity:.4}"),
        ]);
    }
    println!("{}", table.render());
    let (first_kv, first_pade_bytes) = per_kv_bytes[0];
    let (last_kv, last_pade_bytes) = per_kv_bytes[per_kv_bytes.len() - 1];
    let ctx_growth = last_kv as f64 / first_kv as f64;
    let traffic_growth = last_pade_bytes / first_pade_bytes;
    println!(
        "context grew {ctx_growth:.0}x ({first_kv} -> {last_kv}); PADE per-step traffic grew \
         {traffic_growth:.1}x\n\
         (dense grows with the context by construction). The sub-linear PADE\n\
         growth is the predictor-free analogue of Fig. 26(b): nothing in the\n\
         design has to touch the whole key tensor every step."
    );
}
