//! Fig. 5(f) — why tiling is mandatory: normalized memory access versus
//! query parallelism P when the row-dependent pruning rule forbids
//! tiling, for 240 KB and 320 KB on-chip SRAM (Llama2-7B, S = 2048).
//!
//! Without tiling, P parallel queries materialize a P×S score block plus
//! their output state on chip; once that spills, every softmax/PV pass
//! re-streams the overflow from DRAM, and the re-streaming multiplies with
//! the number of passes.

use pade_experiments::report::{banner, Table};

/// Untiled memory traffic model for one P-query block over S keys of H
/// dims with `sram` bytes of buffering.
///
/// Row-wise pruning needs every query's full fp32 score row live until the
/// row maximum is final. The K stream is consumed in PE-array-width chunks
/// (64 dims), and every chunk updates all P partial rows — so any part of
/// the score state that spilled to DRAM makes a round trip *per chunk*.
fn untiled_bytes(p: usize, s: usize, h: usize, sram_bytes: u64) -> f64 {
    let kv_stream = (2 * s * h) as f64; // K and V once per block
    let stream_buffer = 64.0 * 1024.0; // double-buffered K/V staging
    let state = (p * s) as f64 * 4.0 + (p * h) as f64 * 4.0; // fp32 scores + output
    let avail = (sram_bytes as f64 - stream_buffer).max(1.0);
    let spill = (state - avail).max(0.0);
    let chunks = (s as f64 / 64.0).max(1.0);
    kv_stream + 2.0 * spill * chunks
}

fn main() {
    banner("Fig. 5(f)", "Untiled memory access vs query parallelism (Llama2-7B, S=2k)");
    let s = 2048usize;
    let h = 128usize;
    let base = untiled_bytes(8, s, h, 240 * 1024);
    let mut table = Table::new(vec!["P", "240 KB SRAM", "320 KB SRAM", "ideal (tiled)"]);
    for p in [8usize, 16, 24, 32, 40] {
        let a = untiled_bytes(p, s, h, 240 * 1024) / base;
        let b = untiled_bytes(p, s, h, 320 * 1024) / base;
        // Tiling keeps the state windowed: traffic stays the KV stream.
        let ideal = (2 * s * h) as f64 / base;
        table.row(vec![p.to_string(), format!("{a:.2}"), format!("{b:.2}"), format!("{ideal:.2}")]);
    }
    println!("{}", table.render());
    let blow_up = untiled_bytes(32, s, h, 240 * 1024) / untiled_bytes(8, s, h, 240 * 1024);
    println!("P=8 → P=32 blow-up at 240 KB: {blow_up:.1}x (paper: >12x).");
    println!("Larger SRAM only delays the cliff — the paper's 5 MB alternative");
    println!("would cost 5.47 mm² (7.4x SpAtten's total area). ISTA removes the");
    println!("row dependency instead (see fig10_interleave_updates).");
}
