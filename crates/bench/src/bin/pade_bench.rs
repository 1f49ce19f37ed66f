//! `pade-bench` — the reproducible perf harness.
//!
//! ```text
//! cargo run --release -p pade-bench --bin pade-bench            # full QK matrix -> BENCH_1.json
//! cargo run --release -p pade-bench --bin pade-bench -- --quick # CI smoke (2 shapes, no file)
//! cargo run --release -p pade-bench --bin pade-bench -- --out path/to.json
//! cargo run --release -p pade-bench --bin pade-bench -- --scenario soak  # -> BENCH_10.json
//! ```
//!
//! The `qk` scenario (default) runs the sequential seed engine and the
//! parallel engine over the fixed shape matrix, hard-checks the results
//! are bit-identical, prints a table, and (unless `--quick` without
//! `--out`) writes the `BENCH_1.json` perf-trajectory file. The `soak`
//! scenario replays the route trace profile untraced, into the in-memory
//! recorder, and into the bounded-memory on-disk `.padetrace` stream
//! sink — byte-identity and recorder-vs-stream fingerprint parity
//! hard-checked — and writes the streaming overhead to `BENCH_10.json`.
//! Serving, cache, tier and fleet performance is measured by the
//! repository benchmark in `perfbench/`.

use std::path::PathBuf;

use pade_bench::soak::{run_soak, write_soak_json};
use pade_bench::{run_matrix, write_json};

fn main() {
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut scenario = String::from("qk");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
                out = Some(PathBuf::from(path));
            }
            "--scenario" => {
                scenario = args.next().unwrap_or_else(|| {
                    eprintln!("--scenario requires qk or soak");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("usage: pade-bench [--quick] [--scenario qk|soak] [--out FILE.json]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let mode = if quick { "quick" } else { "full" };
    match scenario.as_str() {
        "qk" => run_qk_scenario(quick, mode, out),
        "soak" => run_soak_scenario(quick, mode, out),
        other => {
            eprintln!("unknown scenario: {other} (expected qk or soak)");
            std::process::exit(2);
        }
    }
}

fn run_soak_scenario(quick: bool, mode: &str, out: Option<PathBuf>) {
    println!("pade-bench soak: on-disk trace stream vs in-memory recorder on the route profile\n");
    let r = run_soak(quick);
    println!(
        "workload: {} requests ({} tenants x {} sessions x {} turns, seed {})",
        r.requests,
        r.workload.tenants,
        r.workload.sessions_per_tenant,
        r.workload.per_tenant.turns_per_session,
        r.workload.seed
    );
    println!(
        "\n{:<10} {:>12} {:>12} {:>14} {:>10}",
        "sink", "run wall", "submit", "overhead", "resident"
    );
    println!("{:<10} {:>11.4}s {:>12} {:>14} {:>10}", "none", r.untraced_wall_s, "-", "-", "-");
    println!(
        "{:<10} {:>11.4}s {:>11.4}s {:>13.3}% {:>10}",
        "recorder",
        r.recorder_wall_s,
        r.recorder_submit_s,
        r.recorder_overhead_frac * 100.0,
        "O(events)"
    );
    println!(
        "{:<10} {:>11.4}s {:>11.4}s {:>13.3}% {:>8} B",
        "stream",
        r.stream_wall_s,
        r.stream_submit_s,
        r.stream_overhead_frac * 100.0,
        r.peak_buffered_bytes
    );
    println!(
        "(overhead = sink submission cost of this run's {} events, replayed best-of-N, \
         relative to the untraced wall; the stream row is its delta over the recorder)",
        r.events
    );
    println!(
        "\nstream: {} events / {} spans / {} links in {} frames of {} B ({} B file), \
         fingerprint {:016x} identical to the recorder; {} flight timelines causally \
         complete; {}",
        r.events,
        r.spans,
        r.links,
        r.frames,
        r.frame_size,
        r.file_bytes,
        r.fingerprint,
        r.timelines,
        r.flight
    );
    println!("all outputs byte-identical across untraced, recorder and stream runs");

    let path = match (&out, quick) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some(PathBuf::from("BENCH_10.json")),
        (None, true) => None,
    };
    if let Some(path) = path {
        write_soak_json(&path, &r, mode).unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("wrote {}", path.display());
    }
}

fn run_qk_scenario(quick: bool, mode: &str, out: Option<PathBuf>) {
    println!(
        "pade-bench: sequential seed path vs parallel engine ({} worker threads)\n",
        pade_par::max_threads()
    );
    println!(
        "{:<22} {:>7} {:>12} {:>12} {:>9}   {:>16}",
        "shape", "blocks", "seq wall", "par wall", "speedup", "simulated cyc"
    );
    let results = run_matrix(quick);
    for r in &results {
        println!(
            "{:<22} {:>7} {:>11.4}s {:>11.4}s {:>8.2}x   {:>16}",
            r.spec.id(),
            r.blocks,
            r.seq_wall_s,
            r.par_wall_s,
            r.speedup,
            r.simulated_cycles
        );
    }
    println!("\nall shapes bit-identical across both paths");

    let path = match (&out, quick) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some(PathBuf::from("BENCH_1.json")),
        (None, true) => None,
    };
    if let Some(path) = path {
        write_json(&path, &results, mode).unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("wrote {}", path.display());
    }
}
