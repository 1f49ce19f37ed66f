//! Fig. 26 — robustness studies: (a) energy under PTQ/QAT at INT8/INT4
//! (QAT flattens score distributions, starving predictors of sparsity);
//! (b) ultra-long-sequence decoding energy, where the predictor's full-K
//! cost dominates stage-splitting designs.

use pade_baselines::{sofa, Accelerator};
use pade_core::accelerator::{scale_to_model, PadeAccelerator};
use pade_core::config::PadeConfig;
use pade_energy::{EnergyLedger, Tech};
use pade_experiments::report::{banner, pct, Table};
use pade_experiments::runner::{run_baseline, run_pade, scale_stats_f, Workload, DECODE_STEPS};
use pade_sim::RunStats;
use pade_workload::profile::ScoreProfile;
use pade_workload::trace::{AttentionTrace, TraceConfig};
use pade_workload::{model, task};

fn main() {
    banner("Fig. 26(a)", "Energy under PTQ/QAT quantization at INT8 and INT4");
    let mut table = Table::new(vec!["scenario", "SOFA norm energy", "PADE norm energy"]);
    let mut t = task::wikilingua();
    t.seq_len = 2048;
    let mut base_sofa = 0.0f64;
    let mut base_pade = 0.0f64;
    for (name, flattened, bits) in
        [("PTQ 8", false, 8u32), ("QAT 8", true, 8), ("PTQ 4", false, 4), ("QAT 4", true, 4)]
    {
        let mut w = Workload::new(model::llama2_7b(), t, 3000);
        if flattened || bits != 8 {
            w.trace = AttentionTrace::generate(&TraceConfig {
                seq_len: w.sim_seq,
                head_dim: w.model.head_dim,
                n_queries: 8,
                profile: if flattened {
                    ScoreProfile::flattened()
                } else {
                    ScoreProfile::standard()
                },
                bits,
                seed: 3000,
                prompt_keys: false,
            });
        }
        let sofa_design = sofa().with_exec_bits(bits);
        let (_, so) = run_baseline(&w, &sofa_design);
        let cfg = PadeConfig { bits, ..PadeConfig::standard() };
        let (_, po) = run_pade(&w, cfg);
        if name == "PTQ 8" {
            base_sofa = so.energy.total_pj();
            base_pade = po.energy.total_pj();
        }
        table.row(vec![
            name.into(),
            format!("{:.2}", so.energy.total_pj() / base_sofa),
            format!("{:.2}", po.energy.total_pj() / base_pade),
        ]);
    }
    println!("{}", table.render());
    println!("Shape to check: QAT raises SOFA's energy (~6% in the paper — the");
    println!("flattened distribution starves its predictor) while PADE moves");
    println!("little; at 4-bit the predictor share dominates SOFA, PADE loses");
    println!("only ~2%.");

    banner("Fig. 26(b)", "Long-sequence decoding energy breakdown (S = 4k/8k/16k)");
    let mut table = Table::new(vec![
        "S",
        "design",
        "norm energy",
        "DRAM share",
        "buffer share",
        "compute share",
    ]);
    let m = model::llama2_7b();
    let mut dense4k = 0.0f64;
    for s in [4096usize, 8192, 16384] {
        let sim_seq = s.min(8192);
        // Longer contexts are simulated at `sim_seq` and every counter is
        // extrapolated linearly per key.
        let scale = |stats: &mut RunStats| {
            if s > sim_seq {
                scale_stats_f(stats, s as f64 / sim_seq as f64);
            }
        };
        let trace = AttentionTrace::generate(&TraceConfig {
            seq_len: sim_seq,
            head_dim: m.head_dim,
            n_queries: 1,
            profile: ScoreProfile::long_context(),
            bits: 8,
            seed: 3100,
            prompt_keys: false,
        });
        for (name, cfg) in
            [("Dense", PadeConfig::dense_baseline()), ("PADE", PadeConfig::standard())]
        {
            let block = PadeAccelerator::new(cfg).run_trace(&trace);
            let mut stats = scale_to_model(&block.stats, &m, s, 1, Some(DECODE_STEPS));
            scale(&mut stats);
            let e = EnergyLedger::from_stats(&stats, &Tech::cmos28());
            if name == "Dense" && s == 4096 {
                dense4k = e.total_pj();
            }
            let c = e.combined();
            table.row(vec![
                format!("{}k", s / 1024),
                name.into(),
                format!("{:.2}", e.total_pj() / dense4k),
                pct(c.dram_pj / c.total_pj()),
                pct(c.sram_pj / c.total_pj()),
                pct(c.compute_pj / c.total_pj()),
            ]);
        }
        // SOFA decode: predictor re-reads the full K every step.
        let r = sofa().run(&trace);
        let mut stats = scale_to_model(&r.stats, &m, s, 1, Some(DECODE_STEPS));
        scale(&mut stats);
        let e = EnergyLedger::from_stats(&stats, &Tech::cmos28());
        let c = e.combined();
        table.row(vec![
            format!("{}k", s / 1024),
            "SOFA".into(),
            format!("{:.2}", e.total_pj() / dense4k),
            pct(c.dram_pj / c.total_pj()),
            pct(c.sram_pj / c.total_pj()),
            pct(c.compute_pj / c.total_pj()),
        ]);
    }
    println!("{}", table.render());
    println!("Shape to check: DRAM dominates (>85%) for every design; SOFA's");
    println!("energy rises steeply with S (predictor loads the whole K per");
    println!("step) while PADE grows only mildly (paper: ~40% vs ~5%, 4k→16k).");
}
