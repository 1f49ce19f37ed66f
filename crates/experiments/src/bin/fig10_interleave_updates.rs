//! Fig. 10(b) — the cost of running-max updates across ISTA tiles:
//! left-to-right vs head-tail interleaved tile order, S = 2048, Bc = 16.
//!
//! The interleaving pays when the row maximum lives in the *recent* region
//! (attention locality): left-to-right execution walks up the recency ramp
//! and rescales the accumulator at almost every tile, while head-tail
//! visits the recent region second and locks the maximum immediately.

use pade_core::ista::{run_ista, TileOrder};
use pade_core::vpu::Vpu;
use pade_experiments::report::{banner, pct, Table};
use pade_workload::profile::ScoreProfile;
use pade_workload::trace::{AttentionTrace, TraceConfig};

fn main() {
    banner("Fig. 10(b)", "Max-update overhead across tiles: LTR vs head-tail (S=2048)");
    // Recency-dominant rows (decode-like steps where the newest tokens
    // carry the highest weights alongside the initial sinks).
    let profile = ScoreProfile {
        sink_tokens: 4,
        sink_strength: 9.0,
        locality_window: 512,
        locality_strength: 12.0,
        tail_rate: 0.01,
        tail_strength: 8.0,
        noise_sigma: 1.0,
    };
    let trace = AttentionTrace::generate(&TraceConfig {
        seq_len: 2048,
        head_dim: 64,
        n_queries: 8,
        profile,
        bits: 8,
        seed: 55,
        prompt_keys: false,
    });

    let vpu = Vpu::default();
    let mut table = Table::new(vec![
        "Bc",
        "LTR max-updates",
        "HT max-updates",
        "LTR rescale ops",
        "HT rescale ops",
        "op reduction",
    ]);
    for bc in [8usize, 16, 32] {
        let mut ltr_updates = 0usize;
        let mut ht_updates = 0usize;
        let mut ltr_ops = 0u64;
        let mut ht_ops = 0u64;
        for row in 0..trace.queries().rows() {
            let logits = trace.exact_logits(row);
            // Full rows: ISTA tiling applies to the retained stream; here we
            // measure the scheduling effect itself on unpruned rows.
            let retained: Vec<(usize, f32)> =
                logits.iter().enumerate().map(|(j, &x)| (j, x)).collect();
            let ltr = run_ista(&retained, trace.values_f32(), bc, TileOrder::LeftToRight, &vpu);
            let ht = run_ista(&retained, trace.values_f32(), bc, TileOrder::HeadTail, &vpu);
            ltr_updates += ltr.max_updates;
            ht_updates += ht.max_updates;
            ltr_ops += ltr.rescale_ops;
            ht_ops += ht.rescale_ops;
        }
        let red = if ltr_ops == 0 { 0.0 } else { 1.0 - ht_ops as f64 / ltr_ops as f64 };
        table.row(vec![
            bc.to_string(),
            ltr_updates.to_string(),
            ht_updates.to_string(),
            ltr_ops.to_string(),
            ht_ops.to_string(),
            pct(red),
        ]);
    }
    println!("{}", table.render());
    println!("Paper: head-tail interleaving cuts 20-40% of the update-related");
    println!("operations (more at smaller Bc); with no locality it degrades to");
    println!("parity, never worse — asserted by the ISTA property tests.");
}
