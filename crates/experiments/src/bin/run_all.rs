//! Runs every experiment binary in sequence (the full reproduction of the
//! paper's evaluation section) and prints the Table III configuration.
//! Each binary's wall time goes to standard error, so a slow experiment
//! shows in a CI log while standard output stays deterministic.
//!
//! Usage: `cargo run --release -p pade-experiments --bin run_all`

use std::process::Command;
use std::time::Instant;

use pade_experiments::FIGURE_BINS;

fn print_table_iii() {
    use pade_core::config::PadeConfig;
    let c = PadeConfig::standard();
    println!("\n================================================================");
    println!("Table III: PADE hardware configuration");
    println!("================================================================");
    println!(
        "QK-PU: {} PE rows x {} bit-wise lanes ({} total)",
        c.pe_rows,
        c.lanes_per_row,
        c.total_lanes()
    );
    println!("  GSAT: {}-input, sub-groups of {}", c.gsat_width, c.subgroup);
    println!("  Scoreboard: {} entries x 45 bit", c.scoreboard_entries);
    println!("V-PU: {}x{} INT8 systolic array + FP16 APM + RARS", c.vpu_rows, c.vpu_cols);
    println!("Buffers: {} KB KV + {} KB Q", c.kv_buffer_kb, c.q_buffer_kb);
    println!(
        "HBM2: {}x64-bit pseudo channels, {} GB/s each, BL={}B, tRC={}ns",
        c.hbm.channels, c.hbm.channel_gbps, c.hbm.burst_bytes, c.hbm.t_rc_ns
    );
    println!("Clock: 800 MHz; guard: alpha={} radius={} (standard)", c.alpha, c.radius);
}

fn main() {
    print_table_iii();
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir").to_path_buf();
    let mut failed = Vec::new();
    let run_start = Instant::now();
    for bin in FIGURE_BINS {
        let path = dir.join(bin);
        if !path.exists() {
            eprintln!("[run_all] missing binary {bin} — build the workspace first");
            failed.push(*bin);
            continue;
        }
        let start = Instant::now();
        let status = Command::new(&path).status();
        eprintln!("[run_all] {bin}: {:.2} s", start.elapsed().as_secs_f64());
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("[run_all] {bin} failed: {other:?}");
                failed.push(*bin);
            }
        }
    }
    eprintln!("[run_all] total: {:.2} s", run_start.elapsed().as_secs_f64());
    println!("\n================================================================");
    if failed.is_empty() {
        println!("All {} experiments completed.", FIGURE_BINS.len());
    } else {
        println!("{} of {} experiments failed: {:?}", failed.len(), FIGURE_BINS.len(), failed);
        std::process::exit(1);
    }
}
