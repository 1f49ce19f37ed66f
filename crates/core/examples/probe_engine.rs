//! Developer probe: prints engine statistics at several scales.
use pade_core::accelerator::PadeAccelerator;
use pade_core::config::PadeConfig;
use pade_mem::KeyLayout;
use pade_workload::profile::ScoreProfile;
use pade_workload::trace::{AttentionTrace, TraceConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sizes: Vec<usize> = if args.len() > 1 {
        args[1..].iter().map(|a| a.parse().unwrap()).collect()
    } else {
        vec![256]
    };
    for s in sizes {
        let trace = AttentionTrace::generate(&TraceConfig {
            seq_len: s,
            head_dim: 64,
            n_queries: 8,
            profile: ScoreProfile::standard(),
            bits: 8,
            seed: 7,
            prompt_keys: false,
        });
        for (name, cfg) in [
            ("std", PadeConfig::standard()),
            ("agg", PadeConfig::aggressive()),
            ("noGF", PadeConfig { enable_bui_gf: false, ..PadeConfig::standard() }),
            ("noOOE", PadeConfig { enable_ooe: false, ..PadeConfig::standard() }),
            ("noBS", PadeConfig { enable_bs: false, ..PadeConfig::standard() }),
            ("lin", PadeConfig { layout: KeyLayout::BitPlaneLinear, ..PadeConfig::standard() }),
            ("dense", PadeConfig::dense_baseline()),
        ] {
            let r = PadeAccelerator::new(cfg).run_trace(&trace);
            println!(
                "S={:5} {name:6} cyc={:8} qk={:8} vpu={:8} planes={:6}/{:6} keep={:.3} fid={:.4} dram={:8} hit={:.2} bw={:.2} bitacc={:9}",
                s, r.stats.cycles.0, r.qk_cycles.0, r.vpu_cycles.0,
                r.planes_fetched, r.planes_dense,
                r.stats.keep_ratio(), r.fidelity,
                r.stats.traffic.dram_total_bytes(), r.row_hit_rate, r.bandwidth_utilization,
                r.stats.ops.bit_serial_acc,
            );
        }
        println!();
    }
}
