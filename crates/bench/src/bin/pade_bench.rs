//! `pade-bench` — the reproducible perf harness.
//!
//! ```text
//! cargo run --release -p pade-bench --bin pade-bench            # full QK matrix -> BENCH_1.json
//! cargo run --release -p pade-bench --bin pade-bench -- --quick # CI smoke (2 shapes, no file)
//! cargo run --release -p pade-bench --bin pade-bench -- --out path/to.json
//! cargo run --release -p pade-bench --bin pade-bench -- --scenario serve  # -> BENCH_2.json
//! cargo run --release -p pade-bench --bin pade-bench -- --scenario decode-growth  # -> BENCH_3.json
//! cargo run --release -p pade-bench --bin pade-bench -- --scenario prefix-cache  # -> BENCH_4.json
//! cargo run --release -p pade-bench --bin pade-bench -- --scenario route  # -> BENCH_5.json
//! cargo run --release -p pade-bench --features trace --bin pade-bench -- \
//!     --scenario route --out BENCH_7.json --trace-out route_trace.json
//! cargo run --release -p pade-bench --bin pade-bench -- --scenario preempt  # -> BENCH_8.json
//! cargo run --release -p pade-bench --bin pade-bench -- --scenario tier  # -> BENCH_9.json
//! cargo run --release -p pade-bench --features trace --bin pade-bench -- \
//!     --scenario soak  # -> BENCH_10.json
//! ```
//!
//! The `qk` scenario (default) runs the sequential seed engine and the
//! parallel engine over the fixed shape matrix, hard-checks the results
//! are bit-identical, prints a table, and (unless `--quick` without
//! `--out`) writes the `BENCH_1.json` perf-trajectory file. The `serve`
//! scenario replays seeded arrival traces through the `pade-serve`
//! continuous-batching loop against a one-request-at-a-time baseline at
//! several arrival rates and writes `BENCH_2.json`. The `decode-growth`
//! scenario times growable-cache KV appends against per-step full
//! re-decomposition and writes `BENCH_3.json`. The `prefix-cache`
//! scenario times `pade-cache` cross-request prefix sharing against
//! from-scratch decomposition of every prompt (cold / shared-prefix /
//! multi-turn, plus an eviction-under-budget sweep) and writes
//! `BENCH_4.json`. The `route` scenario sweeps prefix-affinity vs
//! round-robin vs least-loaded placement across 1/2/4/8 `pade-router`
//! nodes (byte-identity against the single-node run and the seed oracle
//! hard-checked) and writes `BENCH_5.json`. Under
//! `--features trace` the `route` scenario also replays the workload
//! with a `pade-trace` recorder attached (byte-checking that telemetry
//! changes nothing), embeds the per-stage breakdown and tracing-overhead
//! measurement in the JSON (`BENCH_7.json` records the observability
//! PR), and with `--trace-out` writes the recorded stream as
//! Chrome-trace JSON loadable in Perfetto or `chrome://tracing`. The
//! `preempt` scenario contends a background tenant flooding long
//! prefills against a foreground decode tenant under a p99 SLO,
//! compares non-preemptive FCFS with SLO-aware chunked-prefill
//! preemption (byte-identity and SLO attainment hard-checked), and
//! writes `BENCH_8.json`. The `tier` scenario thrashes a prompt pool
//! through a budgeted `pade-cache` manager with eviction set to drop,
//! spill-to-memory or spill-to-disk (`pade-tier`), then runs the fleet
//! drain-migration and hot-shard replication points (every attach and
//! every fleet output byte-identity hard-checked), and writes
//! `BENCH_9.json`. The `soak` scenario replays the route trace profile
//! untraced, into the in-memory recorder, and into the bounded-memory
//! on-disk `.padetrace` stream sink — byte-identity and
//! recorder-vs-stream fingerprint parity hard-checked — and writes the
//! streaming overhead to `BENCH_10.json`.

use std::path::PathBuf;

use pade_bench::decode_growth::{run_growth_matrix, write_growth_json};
use pade_bench::preempt::{run_preempt_matrix, write_preempt_json};
use pade_bench::prefix_cache::{run_prefix_cache_matrix, write_prefix_cache_json};
use pade_bench::route::{run_route_matrix, write_route_json};
use pade_bench::serve::{run_serve_matrix, write_serve_json};
use pade_bench::soak::{run_soak, write_soak_json};
use pade_bench::tier::{run_tier_matrix, write_tier_json};
use pade_bench::{run_matrix, write_json};

fn main() {
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
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
            "--trace-out" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out requires a path");
                    std::process::exit(2);
                });
                trace_out = Some(PathBuf::from(path));
            }
            "--scenario" => {
                scenario = args.next().unwrap_or_else(|| {
                    eprintln!(
                        "--scenario requires qk, serve, decode-growth, prefix-cache, route, \
                         preempt, tier or soak"
                    );
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: pade-bench [--quick] \
                     [--scenario \
                     qk|serve|decode-growth|prefix-cache|route|preempt|tier|soak] \
                     [--out FILE.json] [--trace-out TRACE.json (route scenario)]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if trace_out.is_some() && scenario != "route" {
        eprintln!("--trace-out only applies to the route scenario; ignoring it");
        trace_out = None;
    }
    let mode = if quick { "quick" } else { "full" };
    match scenario.as_str() {
        "qk" => run_qk_scenario(quick, mode, out),
        "serve" => run_serve_scenario(quick, mode, out),
        "decode-growth" => run_growth_scenario(quick, mode, out),
        "prefix-cache" => run_prefix_cache_scenario(quick, mode, out),
        "route" => run_route_scenario(quick, mode, out, trace_out),
        "preempt" => run_preempt_scenario(quick, mode, out),
        "tier" => run_tier_scenario(quick, mode, out),
        "soak" => run_soak_scenario(quick, mode, out),
        other => {
            eprintln!(
                "unknown scenario: {other} (expected qk, serve, decode-growth, prefix-cache, \
                 route, preempt, tier or soak)"
            );
            std::process::exit(2);
        }
    }
}

fn run_prefix_cache_scenario(quick: bool, mode: &str, out: Option<PathBuf>) {
    println!("pade-bench prefix-cache: shared prefix index vs from-scratch decomposition\n");
    println!(
        "{:<28} {:>5} {:>12} {:>12} {:>9} {:>10} {:>10} {:>8}",
        "variant", "reqs", "cached", "scratch", "speedup", "hit tok", "dec tok", "resumes"
    );
    let sweep = run_prefix_cache_matrix(quick);
    for r in &sweep.results {
        println!(
            "{:<28} {:>5} {:>11.4}s {:>11.4}s {:>8.2}x {:>10} {:>10} {:>8}",
            r.spec.id(),
            r.n_requests,
            r.cached_wall_s,
            r.scratch_wall_s,
            r.speedup,
            r.hit_tokens,
            r.decomposed_tokens,
            r.session_resumes
        );
    }
    println!("\nbudget sweep (shared-prefix variant):");
    println!("{:<16} {:>10} {:>10} {:>14}", "budget bytes", "evictions", "hit tok", "peak bytes");
    for b in &sweep.budget_points {
        let budget = if b.budget_bytes == u64::MAX {
            "unlimited".to_string()
        } else {
            b.budget_bytes.to_string()
        };
        println!(
            "{budget:<16} {:>10} {:>10} {:>14}",
            b.evictions, b.hit_tokens, b.peak_resident_bytes
        );
    }
    println!(
        "\nall caches bit-identical to from-scratch planes; checked engine outputs match \
         the seed oracle"
    );

    let path = match (&out, quick) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some(PathBuf::from("BENCH_4.json")),
        (None, true) => None,
    };
    if let Some(path) = path {
        write_prefix_cache_json(&path, &sweep, mode).unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("wrote {}", path.display());
    }
}

fn run_route_scenario(quick: bool, mode: &str, out: Option<PathBuf>, trace_out: Option<PathBuf>) {
    println!("pade-bench route: prefix-affinity vs cache-blind placement across nodes\n");
    println!(
        "{:<6} {:<14} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10} {:>9}",
        "nodes", "policy", "hit chk", "hit tok", "dec tok", "kv-prep", "p99 cyc", "imbal", "aff rt"
    );
    let sweep = run_route_matrix(quick);
    for p in &sweep.points {
        println!(
            "{:<6} {:<14} {:>10} {:>10} {:>10} {:>11.4}s {:>12} {:>10.2} {:>9}",
            p.n_nodes,
            p.policy.label(),
            p.hit_chunks,
            p.hit_tokens,
            p.decomposed_tokens,
            p.kv_prep_wall_s,
            p.p99_cycles,
            p.load_imbalance,
            p.session_affinity_routes + p.prefix_affinity_routes
        );
    }
    println!(
        "\nall fleet outputs byte-identical to the single-node run and the seed oracle; \
         (m,l,O) shard merges bitwise-exact"
    );

    let t = &sweep.trace;
    if t.feature_enabled {
        println!(
            "\ntrace: {} events / {} spans across {} stages (traced replay byte-identical); \
             overhead on {}: {:.2}% (untraced {:.4}s vs recorder {:.4}s)",
            t.events,
            t.spans,
            t.stage_names.len(),
            t.overhead_shape,
            t.overhead_frac * 100.0,
            t.untraced_wall_s,
            t.recorder_wall_s
        );
        println!("trace stages: {}", t.stage_names.join(", "));
    } else {
        println!(
            "\ntrace: built without the `trace` feature — breakdown empty, overhead 0% by \
             construction (rebuild with --features trace to record stages)"
        );
    }
    if let Some(path) = &trace_out {
        pade_trace::save_chrome_trace(&t.snapshot, path).unwrap_or_else(|e| {
            eprintln!("failed to write trace file {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("wrote trace {}", path.display());
    }

    let path = match (&out, quick) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some(PathBuf::from("BENCH_5.json")),
        (None, true) => None,
    };
    if let Some(path) = path {
        write_route_json(&path, &sweep, mode).unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("wrote {}", path.display());
    }
}

fn run_growth_scenario(quick: bool, mode: &str, out: Option<PathBuf>) {
    println!("pade-bench decode-growth: cache appends vs per-step re-decomposition\n");
    println!(
        "{:<22} {:>7} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "shape", "steps", "append", "redecomp", "speedup", "tok inc", "tok full"
    );
    let results = run_growth_matrix(quick);
    for r in &results {
        println!(
            "{:<22} {:>7} {:>11.4}s {:>11.4}s {:>8.2}x {:>12} {:>12}",
            r.spec.id(),
            r.spec.steps,
            r.incremental_wall_s,
            r.redecompose_wall_s,
            r.speedup,
            r.tokens_decomposed_incremental,
            r.tokens_decomposed_full
        );
    }
    println!("\nall checked steps bit-identical across append, re-decompose and seed oracle");

    let path = match (&out, quick) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some(PathBuf::from("BENCH_3.json")),
        (None, true) => None,
    };
    if let Some(path) = path {
        write_growth_json(&path, &results, mode).unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("wrote {}", path.display());
    }
}

fn run_preempt_scenario(quick: bool, mode: &str, out: Option<PathBuf>) {
    println!("pade-bench preempt: SLO-aware preemption vs FCFS under a background prefill flood\n");
    let result = run_preempt_matrix(quick);
    let w = &result.workload;
    println!(
        "workload: {} fg decode reqs (SLO {} cyc) vs {} bg prefills x {} rows, seq {}",
        w.n_foreground, w.slo_cycles, w.n_background, w.background_prefill_rows, w.seq_len
    );
    println!(
        "\n{:<11} {:>12} {:>12} {:>9} {:>9} {:>9} {:>14}",
        "policy", "fg p50", "fg p99", "met", "preempt", "resume", "makespan"
    );
    for (label, p) in [("fcfs", &result.fcfs), ("slo-aware", &result.slo_aware)] {
        println!(
            "{:<11} {:>12} {:>12} {:>6}/{:<2} {:>9} {:>9} {:>14}",
            label,
            p.fg_p50_cycles,
            p.fg_p99_cycles,
            p.fg_met,
            p.fg_total,
            p.preemptions,
            p.resumes,
            p.makespan_cycles
        );
    }
    println!(
        "\nforeground p99 under SLO-aware: {} <= {} (met); fcfs baseline: {} ({:.2}x tail cut); \
         all outputs byte-identical across both policies and the seed oracle",
        result.slo_aware.fg_p99_cycles, w.slo_cycles, result.fcfs.fg_p99_cycles, result.fg_p99_gain
    );

    let path = match (&out, quick) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some(PathBuf::from("BENCH_8.json")),
        (None, true) => None,
    };
    if let Some(path) = path {
        write_preempt_json(&path, &result, mode).unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("wrote {}", path.display());
    }
}

fn run_tier_scenario(quick: bool, mode: &str, out: Option<PathBuf>) {
    println!("pade-bench tier: drop-on-evict vs pade-tier spill/fetch under cache thrash\n");
    let sweep = run_tier_matrix(quick);
    println!(
        "workload: pool {} x {} tok, {} visits, chunk {} tok, budget {} B",
        sweep.workload.pool_size,
        sweep.workload.prompt_tokens,
        sweep.workload.visits,
        sweep.chunk_tokens,
        sweep.budget_bytes
    );
    println!(
        "\n{:<12} {:>9} {:>9} {:>8} {:>8} {:>10} {:>8} {:>9} {:>11}",
        "mode", "hit tok", "dec tok", "evict", "spill", "spill B", "fetch", "fetch tok", "kv-prep"
    );
    for m in &sweep.modes {
        println!(
            "{:<12} {:>9} {:>9} {:>8} {:>8} {:>10} {:>8} {:>9} {:>10.4}s",
            m.mode.label(),
            m.stats.hit_tokens,
            m.stats.decomposed_tokens,
            m.stats.evicted_chunks,
            m.stats.spilled_chunks,
            m.stats.spilled_bytes,
            m.stats.fetched_chunks,
            m.stats.fetched_tokens,
            m.kv_prep_wall_s
        );
    }
    println!(
        "\n{:<12} {:>6} {:>9} {:>9} {:>7} {:>7} {:>11} {:>11} {:>11}",
        "fleet", "nodes", "hit tok", "fetch tok", "migr", "repl", "xfer B", "xfer cyc", "xfer pJ"
    );
    for p in &sweep.fleet {
        println!(
            "{:<12} {:>6} {:>9} {:>9} {:>7} {:>7} {:>11} {:>11} {:>11.1}",
            p.label,
            p.n_nodes,
            p.hit_tokens,
            p.fetched_tokens,
            p.migrations,
            p.replications,
            p.transfer_bytes,
            p.transfer_cycles,
            p.transfer_pj
        );
    }
    println!(
        "\nevery attach byte-identical to from-scratch decomposition; every fleet output \
         byte-identical to the single-node run and the seed oracle"
    );

    let path = match (&out, quick) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some(PathBuf::from("BENCH_9.json")),
        (None, true) => None,
    };
    if let Some(path) = path {
        write_tier_json(&path, &sweep, mode).unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("wrote {}", path.display());
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
    if r.feature_enabled {
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
    } else {
        println!(
            "\ntrace: built without the `trace` feature — both sinks recorded nothing and the \
             overhead is 0% by construction (rebuild with --features trace)"
        );
    }
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

fn run_serve_scenario(quick: bool, mode: &str, out: Option<PathBuf>) {
    println!(
        "pade-bench serve: continuous batching vs one-request-at-a-time ({} worker threads)\n",
        pade_par::max_threads()
    );
    println!(
        "{:<11} {:>9} {:>12} {:>12} {:>12} {:>12} {:>15} {:>8}",
        "rate", "gap cyc", "b.p50", "b.p95", "b.p99", "solo p99", "Mtok/s b/s", "gain"
    );
    let sweep = run_serve_matrix(quick);
    for r in &sweep.results {
        println!(
            "{:<11} {:>9.0} {:>12} {:>12} {:>12} {:>12} {:>7.1}/{:<7.1} {:>7.2}x",
            r.rate.label,
            r.rate.mean_interarrival_cycles,
            r.batched.p50_cycles,
            r.batched.p95_cycles,
            r.batched.p99_cycles,
            r.solo.p99_cycles,
            r.batched.tokens_per_s / 1e6,
            r.solo.tokens_per_s / 1e6,
            r.throughput_gain
        );
    }
    println!("\nall requests byte-identical across batched, solo and seed-oracle runs");

    let path = match (&out, quick) {
        (Some(p), _) => Some(p.clone()),
        (None, false) => Some(PathBuf::from("BENCH_2.json")),
        (None, true) => None,
    };
    if let Some(path) = path {
        write_serve_json(&path, &sweep, mode).unwrap_or_else(|e| {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("wrote {}", path.display());
    }
}
