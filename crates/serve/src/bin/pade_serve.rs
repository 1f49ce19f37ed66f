//! `pade-serve` — run the continuous-batching server on a seeded arrival
//! trace and report latency percentiles and throughput.
//!
//! ```text
//! cargo run --release -p pade-serve --bin pade-serve               # standard workload
//! cargo run --release -p pade-serve --bin pade-serve -- --quick    # CI smoke (tiny trace)
//! cargo run --release -p pade-serve --bin pade-serve -- \
//!     --requests 32 --mean-gap 30000 --seq-len 1024 --slots 8
//! cargo run --release -p pade-serve --bin pade-serve -- \
//!     --shared-prefix --cache-budget 4000000                       # prefix-cache workload
//! ```
//!
//! Every run serves the same arrival trace twice — continuous batching
//! and the one-request-at-a-time baseline — checks that the two produce
//! byte-identical per-request outputs, and prints both so the batching
//! gain is always read against its baseline. Latencies are simulated
//! cycles at the 800 MHz core clock.
//!
//! `--shared-prefix` switches to the multi-turn shared-prefix workload:
//! requests carry prompt token-id sequences drawn from a seeded prefix
//! pool and admission goes through the `pade-cache` prefix cache (hit /
//! decomposed token counts, evictions and resident bytes are printed in
//! the summary). `--no-prefix-cache` serves the same workload with the
//! cache disabled — outputs are byte-identical either way. `--spill-dir`
//! attaches a `pade-tier` disk spill store: budget-evicted sealed chunks
//! demote to one file each instead of dropping, and later prefix hits
//! re-adopt them by parsing the stored plane words (spill/fetch counters
//! join the cache summary; outputs stay byte-identical).
//!
//! `--slo-aware` switches to the two-tenant contention workload: a
//! high-priority foreground tenant decoding under a p99 latency SLO
//! against a low-priority background tenant flooding long prefills, and
//! serves it with the SLO-aware preemptive policy (chunked prefill +
//! forced preemption cadence). Per-tenant SLO-attainment lines and
//! preempt/resume counters join the summary — outputs stay
//! byte-identical to the non-preemptive solo baseline.

use std::process::exit;
use std::sync::Arc;

use pade_cache::{CacheBudget, TierConfig};
use pade_serve::scheduler::{ScheduleMode, SchedulePolicy};
use pade_serve::server::{serve, serve_traced, ServeConfig, ServeReport};
use pade_trace::{save_chrome_trace, Recorder, StreamSink, TraceSink, Tracer};
use pade_workload::prompt::{generate_shared_prefix_arrivals, SharedPrefixConfig};
use pade_workload::trace::{
    generate_arrivals, generate_tenant_mix, ArrivalConfig, RequestArrival, TenantLoad,
};

/// Fans one event stream out to both the in-memory recorder and the
/// on-disk stream sink when `--trace-out` and `--trace-stream` are both
/// given.
struct TeeSink(Arc<Recorder>, Arc<StreamSink>);

impl TraceSink for TeeSink {
    fn submit(&self, track: u64, events: &[pade_trace::TraceEvent]) {
        self.0.submit(track, events);
        self.1.submit(track, events);
    }
}

struct Args {
    quick: bool,
    shared_prefix: bool,
    slo_aware: bool,
    no_prefix_cache: bool,
    hit_aware: bool,
    cache_budget: Option<u64>,
    cache_file: Option<std::path::PathBuf>,
    spill_dir: Option<std::path::PathBuf>,
    trace_out: Option<std::path::PathBuf>,
    trace_stream: Option<std::path::PathBuf>,
    requests: Option<usize>,
    mean_gap: Option<f64>,
    seq_len: Option<usize>,
    slots: Option<usize>,
    max_batch_tokens: Option<usize>,
    decode_fraction: Option<f64>,
    seed: Option<u64>,
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires a valid value");
        exit(2);
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        shared_prefix: false,
        slo_aware: false,
        no_prefix_cache: false,
        hit_aware: false,
        cache_budget: None,
        cache_file: None,
        spill_dir: None,
        trace_out: None,
        trace_stream: None,
        requests: None,
        mean_gap: None,
        seq_len: None,
        slots: None,
        max_batch_tokens: None,
        decode_fraction: None,
        seed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--shared-prefix" => args.shared_prefix = true,
            "--slo-aware" => args.slo_aware = true,
            "--no-prefix-cache" => args.no_prefix_cache = true,
            "--hit-aware" => args.hit_aware = true,
            "--cache-budget" => args.cache_budget = Some(parse("--cache-budget", it.next())),
            "--cache-file" => {
                args.cache_file =
                    Some(std::path::PathBuf::from(parse::<String>("--cache-file", it.next())));
            }
            "--spill-dir" => {
                args.spill_dir =
                    Some(std::path::PathBuf::from(parse::<String>("--spill-dir", it.next())));
            }
            "--trace-out" => {
                args.trace_out =
                    Some(std::path::PathBuf::from(parse::<String>("--trace-out", it.next())));
            }
            "--trace-stream" => {
                args.trace_stream =
                    Some(std::path::PathBuf::from(parse::<String>("--trace-stream", it.next())));
            }
            "--requests" => args.requests = Some(parse("--requests", it.next())),
            "--mean-gap" => args.mean_gap = Some(parse("--mean-gap", it.next())),
            "--seq-len" => args.seq_len = Some(parse("--seq-len", it.next())),
            "--slots" => args.slots = Some(parse("--slots", it.next())),
            "--max-batch-tokens" => {
                args.max_batch_tokens = Some(parse("--max-batch-tokens", it.next()));
            }
            "--decode-fraction" => {
                args.decode_fraction = Some(parse("--decode-fraction", it.next()));
            }
            "--seed" => args.seed = Some(parse("--seed", it.next())),
            "--help" | "-h" => {
                println!(
                    "usage: pade-serve [--quick] [--shared-prefix] [--slo-aware] \
                     [--no-prefix-cache] [--hit-aware] [--cache-budget BYTES] \
                     [--cache-file PATH] [--spill-dir PATH] [--trace-out PATH] \
                     [--trace-stream PATH] [--requests N] \
                     [--mean-gap CYCLES] [--seq-len S] [--slots K] [--max-batch-tokens T] \
                     [--decode-fraction F] [--seed X]"
                );
                exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                exit(2);
            }
        }
    }
    args
}

fn print_report(report: &ServeReport, wall_s: f64) {
    let s = &report.summary;
    // An empty run has no percentiles: "—" columns, never a p99 of zero
    // cycles that reads as an impossibly fast run.
    let (p50, p95, p99) = if s.latency.count == 0 {
        let dash = || "\u{2014}".to_string();
        (dash(), dash(), dash())
    } else {
        (s.latency.p50.0.to_string(), s.latency.p95.0.to_string(), s.latency.p99.0.to_string())
    };
    println!(
        "{:<8} {:>9} {:>12} {:>12} {:>12} {:>13.1} {:>10.2} {:>10.2} {:>9.3}s",
        report.mode.label(),
        s.tokens,
        p50,
        p95,
        p99,
        s.tokens_per_s / 1e6,
        s.queue_depth_mean,
        s.occupancy_mean,
        wall_s
    );
}

/// Flight-recorder totals: where retired requests spent their cycles
/// between arrival and retirement.
fn print_flight_summary(report: &ServeReport) {
    println!("{} {}", report.mode.label(), report.summary.flight);
}

/// Always prints — a run that attached nothing says so explicitly
/// instead of silently omitting the line.
fn print_cache_summary(report: &ServeReport) {
    let s = &report.summary;
    if s.cache_hit_tokens + s.cache_decomposed_tokens == 0 {
        println!(
            "{} prefix cache: no prompt tokens attached (latency {})",
            report.mode.label(),
            s.latency
        );
        return;
    }
    println!(
        "{} prefix cache: {} hit tokens / {} decomposed ({:.1}% hit rate), \
         {} evictions, resident bytes mean {:.0} / peak {:.0} (latency {})",
        report.mode.label(),
        s.cache_hit_tokens,
        s.cache_decomposed_tokens,
        s.cache_hit_rate * 100.0,
        s.cache_evictions,
        s.cache_resident_bytes_mean,
        s.cache_resident_bytes_max,
        s.latency
    );
    if s.cache_spilled_chunks > 0 || s.cache_fetched_tokens > 0 {
        println!(
            "{} spill tier: {} chunks ({} bytes) spilled, {} tokens re-adopted from spill",
            report.mode.label(),
            s.cache_spilled_chunks,
            s.cache_spilled_bytes,
            s.cache_fetched_tokens
        );
    }
}

/// Engine op/traffic totals — the satellite visibility for the counters
/// the kernels have always accumulated per block.
fn print_ops_summary(report: &ServeReport) {
    let s = &report.summary;
    println!(
        "{} engine ops: {} equivalent adds ({} bit-serial acc, {} LUT lookups); \
         traffic: {} DRAM + {} SRAM bytes",
        report.mode.label(),
        s.ops.equivalent_adds(),
        s.ops.bit_serial_acc,
        s.ops.lut_lookup,
        s.traffic.dram_total_bytes(),
        s.traffic.sram_total_bytes()
    );
}

/// Out-of-range values get the same exit-code-2 usage error as unknown
/// flags, not an assert backtrace from deeper in the stack.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    exit(2);
}

fn plain_workload(args: &Args) -> Vec<RequestArrival> {
    let workload = if args.quick {
        ArrivalConfig {
            n_requests: 6,
            mean_interarrival_cycles: 1_000.0,
            decode_steps: 2,
            prefill_rows: 8,
            seq_len: 256,
            ..ArrivalConfig::small_demo()
        }
    } else {
        ArrivalConfig {
            n_requests: 24,
            mean_interarrival_cycles: 4_000.0,
            decode_steps: 8,
            prefill_rows: 16,
            seq_len: 1024,
            ..ArrivalConfig::small_demo()
        }
    };
    let workload = ArrivalConfig {
        n_requests: args.requests.unwrap_or(workload.n_requests),
        mean_interarrival_cycles: args.mean_gap.unwrap_or(workload.mean_interarrival_cycles),
        seq_len: args.seq_len.unwrap_or(workload.seq_len),
        decode_fraction: args.decode_fraction.unwrap_or(workload.decode_fraction),
        seed: args.seed.unwrap_or(workload.seed),
        ..workload
    };
    if workload.n_requests == 0 {
        usage_error("--requests must be at least 1");
    }
    if !(workload.mean_interarrival_cycles > 0.0 && workload.mean_interarrival_cycles.is_finite()) {
        usage_error("--mean-gap must be a positive, finite cycle count");
    }
    if workload.seq_len == 0 {
        usage_error("--seq-len must be at least 1");
    }
    if !(0.0..=1.0).contains(&workload.decode_fraction) {
        usage_error("--decode-fraction must lie in [0, 1]");
    }
    println!(
        "pade-serve: {} requests, mean gap {:.0} cyc, S={}",
        workload.n_requests, workload.mean_interarrival_cycles, workload.seq_len,
    );
    generate_arrivals(&workload)
}

fn shared_prefix_workload(args: &Args) -> Vec<RequestArrival> {
    // Reject flags this mode would otherwise silently ignore — a user
    // benchmarking at a specific shape must not get numbers for a
    // different workload than they asked for.
    if args.seq_len.is_some() {
        usage_error("--seq-len has no effect with --shared-prefix (prompt lengths come from the prefix pool)");
    }
    if args.decode_fraction.is_some() {
        usage_error("--decode-fraction has no effect with --shared-prefix (the workload sets its own prefill fraction)");
    }
    let workload = if args.quick {
        SharedPrefixConfig {
            n_sessions: 4,
            turns_per_session: 2,
            shared_prefix_tokens: 64,
            unique_suffix_tokens: 16,
            turn_suffix_tokens: 16,
            decode_steps: 2,
            mean_interarrival_cycles: 1_000.0,
            turn_gap_cycles: 100_000,
            ..SharedPrefixConfig::small_demo()
        }
    } else {
        SharedPrefixConfig {
            n_sessions: 12,
            turns_per_session: 2,
            shared_prefix_tokens: 512,
            unique_suffix_tokens: 64,
            turn_suffix_tokens: 64,
            decode_steps: 8,
            mean_interarrival_cycles: 4_000.0,
            ..SharedPrefixConfig::small_demo()
        }
    };
    let workload = SharedPrefixConfig {
        n_sessions: args.requests.unwrap_or(workload.n_sessions),
        mean_interarrival_cycles: args.mean_gap.unwrap_or(workload.mean_interarrival_cycles),
        seed: args.seed.unwrap_or(workload.seed),
        ..workload
    };
    if workload.n_sessions == 0 {
        usage_error("--requests must be at least 1");
    }
    if !(workload.mean_interarrival_cycles > 0.0 && workload.mean_interarrival_cycles.is_finite()) {
        usage_error("--mean-gap must be a positive, finite cycle count");
    }
    println!(
        "pade-serve: shared-prefix workload, {} sessions x {} turns, {} shared + {} unique tokens",
        workload.n_sessions,
        workload.turns_per_session,
        workload.shared_prefix_tokens,
        workload.unique_suffix_tokens,
    );
    generate_shared_prefix_arrivals(&workload)
}

/// The two-tenant SLO contention workload: foreground tenant 0 decoding
/// under a p99 SLO at priority 10, background tenant 1 flooding long
/// prefill prompts at priority 0.
fn slo_workload(args: &Args) -> Vec<RequestArrival> {
    if args.decode_fraction.is_some() {
        usage_error(
            "--decode-fraction has no effect with --slo-aware (the tenant mix sets per-tenant \
             fractions)",
        );
    }
    let (slo, n_fg, n_bg, bg_rows, seq_len, fg_gap, bg_gap, decode_steps) = if args.quick {
        (5_000u64, 3usize, 2usize, 16usize, 128usize, 900.0, 300.0, 2usize)
    } else {
        (6_000, 8, 6, 48, 512, 3_000.0, 800.0, 4)
    };
    let n_fg = args.requests.unwrap_or(n_fg);
    if n_fg == 0 {
        usage_error("--requests must be at least 1");
    }
    let fg_gap = args.mean_gap.unwrap_or(fg_gap);
    if !(fg_gap > 0.0 && fg_gap.is_finite()) {
        usage_error("--mean-gap must be a positive, finite cycle count");
    }
    let seq_len = args.seq_len.unwrap_or(seq_len);
    if seq_len == 0 {
        usage_error("--seq-len must be at least 1");
    }
    let seed = args.seed.unwrap_or(2026);
    let fg = ArrivalConfig {
        n_requests: n_fg,
        mean_interarrival_cycles: fg_gap,
        decode_fraction: 1.0,
        decode_steps,
        seq_len,
        seed,
        ..ArrivalConfig::small_demo()
    };
    let bg = ArrivalConfig {
        n_requests: n_bg,
        mean_interarrival_cycles: bg_gap,
        decode_fraction: 0.0,
        prefill_rows: bg_rows,
        seq_len,
        seed: seed ^ 0x9E37_79B9,
        ..ArrivalConfig::small_demo()
    };
    println!(
        "pade-serve: SLO contention mix — {n_fg} fg decode reqs (priority 10, SLO {slo} cyc) vs \
         {n_bg} bg prefills x {bg_rows} rows (priority 0), S={seq_len}",
    );
    generate_tenant_mix(&[
        TenantLoad { tenant: 0, priority: 10, tenant_slo: Some(slo), arrivals: fg },
        TenantLoad { tenant: 1, priority: 0, tenant_slo: None, arrivals: bg },
    ])
}

/// Per-tenant SLO attainment plus the preempt/resume counters. Tenants
/// that completed nothing render as `n=0 —` (the Display handles it);
/// runs with no SLO-carrying tenants print nothing.
fn print_slo_summary(report: &ServeReport) {
    for line in &report.summary.slo {
        println!("{} slo: {line}", report.mode.label());
    }
    if !report.summary.slo.is_empty() {
        println!(
            "{} scheduling: {} preemptions, {} resumes",
            report.mode.label(),
            report.metrics.preemptions,
            report.metrics.resumes
        );
    }
}

fn main() {
    let args = parse_args();
    if args.shared_prefix && args.slo_aware {
        usage_error("--slo-aware conflicts with --shared-prefix (pick one workload)");
    }
    let arrivals = if args.shared_prefix {
        shared_prefix_workload(&args)
    } else if args.slo_aware {
        slo_workload(&args)
    } else {
        plain_workload(&args)
    };
    let prefix_cache = if args.no_prefix_cache {
        if args.cache_budget.is_some() {
            usage_error("--cache-budget conflicts with --no-prefix-cache");
        }
        if args.cache_file.is_some() {
            usage_error("--cache-file conflicts with --no-prefix-cache");
        }
        if args.hit_aware {
            usage_error(
                "--hit-aware conflicts with --no-prefix-cache (no cache, no hit prediction)",
            );
        }
        if args.spill_dir.is_some() {
            usage_error("--spill-dir conflicts with --no-prefix-cache (no cache, no spill tier)");
        }
        None
    } else {
        Some(args.cache_budget.map_or(CacheBudget::unlimited(), CacheBudget::bytes))
    };
    let config = ServeConfig {
        engine_slots: args.slots.unwrap_or(if args.slo_aware { 2 } else { 4 }).max(1),
        max_batch_tokens: args.max_batch_tokens.unwrap_or(64),
        prefix_cache,
        hit_aware: args.hit_aware,
        cache_file: args.cache_file.clone(),
        // Per-mode subdirectories: the batched and solo replays each get
        // their own spill store, so neither warms the other's counters.
        tier: args.spill_dir.as_ref().map(|d| TierConfig::Disk(d.join("batched"))),
        policy: if args.slo_aware { SchedulePolicy::SloAware } else { SchedulePolicy::Fcfs },
        prefill_chunk_tokens: args.slo_aware.then_some(2),
        preempt_every: args.slo_aware.then_some(4),
        ..ServeConfig::standard()
    };

    if args.slo_aware {
        println!(
            "scheduler: SLO-aware preemptive (chunked prefill {} rows, forced preemption every \
             {} iterations)",
            config.prefill_chunk_tokens.unwrap_or(0),
            config.preempt_every.unwrap_or(0)
        );
    }
    println!(
        "device: {} slots, {} max batch tokens, prefix cache {}{}{}{}\n",
        config.engine_slots,
        config.max_batch_tokens,
        match config.prefix_cache {
            None => "off".to_string(),
            Some(b) if b.is_unlimited() => "on (unlimited)".to_string(),
            Some(b) => format!("on ({} byte budget)", b.max_bytes()),
        },
        if config.hit_aware { ", hit-aware admission" } else { "" },
        match &config.cache_file {
            Some(p) if p.exists() => format!(", warm cache file {}", p.display()),
            Some(p) => format!(", cold cache file {}", p.display()),
            None => String::new(),
        },
        match &args.spill_dir {
            Some(d) => format!(", disk spill tier {}", d.display()),
            None => String::new(),
        }
    );
    println!(
        "{:<8} {:>9} {:>12} {:>12} {:>12} {:>13} {:>10} {:>10} {:>10}",
        "mode", "tokens", "p50 cyc", "p95 cyc", "p99 cyc", "Mtok/s sim", "queue", "occup", "wall"
    );

    let recorder = args.trace_out.as_ref().map(|_| Arc::new(Recorder::new()));
    let stream = args.trace_stream.as_ref().map(|path| {
        Arc::new(StreamSink::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create stream file {}: {e}", path.display());
            exit(1);
        }))
    });
    let tracer = match (&recorder, &stream) {
        (Some(r), Some(s)) => {
            Tracer::new(Arc::new(TeeSink(Arc::clone(r), Arc::clone(s))) as Arc<dyn TraceSink>)
        }
        (Some(r), None) => Tracer::new(Arc::clone(r) as Arc<dyn TraceSink>),
        (None, Some(s)) => Tracer::new(Arc::clone(s) as Arc<dyn TraceSink>),
        (None, None) => Tracer::disabled(),
    };

    let start = std::time::Instant::now();
    let batched = serve_traced(&config, &arrivals, ScheduleMode::Batched, &tracer, 0);
    let batched_wall = start.elapsed().as_secs_f64();
    print_report(&batched, batched_wall);

    let solo_config = ServeConfig {
        tier: args.spill_dir.as_ref().map(|d| TierConfig::Disk(d.join("solo"))),
        ..config.clone()
    };
    let start = std::time::Instant::now();
    let solo = serve(&solo_config, &arrivals, ScheduleMode::Solo);
    let solo_wall = start.elapsed().as_secs_f64();
    print_report(&solo, solo_wall);

    // Bit-identity across schedules: batching must never change outputs.
    pade_serve::assert_outputs_identical(&batched, &solo);

    println!();
    print_slo_summary(&batched);
    print_slo_summary(&solo);
    print_flight_summary(&batched);
    print_flight_summary(&solo);
    print_cache_summary(&batched);
    print_cache_summary(&solo);
    print_ops_summary(&batched);
    print_ops_summary(&solo);

    if let (Some(path), Some(recorder)) = (&args.trace_out, &recorder) {
        let snapshot = recorder.snapshot();
        snapshot.check_well_formed().unwrap_or_else(|e| panic!("malformed trace: {e}"));
        save_chrome_trace(&snapshot, path)
            .unwrap_or_else(|e| panic!("failed to write trace file {}: {e}", path.display()));
        let stages: Vec<&str> = snapshot.stage_names().into_iter().collect();
        println!(
            "\ntrace: {} events / {} spans across {} stages -> {}",
            snapshot.event_count(),
            snapshot.span_count(),
            stages.len(),
            path.display()
        );
        println!("trace stages: {}", stages.join(", "));
    }
    if let (Some(path), Some(stream)) = (&args.trace_stream, &stream) {
        stream
            .finish()
            .unwrap_or_else(|e| panic!("failed to write stream file {}: {e}", path.display()));
        println!(
            "trace stream: {} frames of {} B (peak {} B buffered) -> {}",
            stream.frames_written(),
            stream.frame_size(),
            stream.peak_buffered_bytes(),
            path.display()
        );
    }

    let gain = batched.summary.tokens_per_s / solo.summary.tokens_per_s.max(f64::MIN_POSITIVE);
    println!(
        "\nbatched/solo throughput: {gain:.2}x  (makespan {} vs {})",
        batched.summary.makespan, solo.summary.makespan
    );
    println!("all {} requests byte-identical across batched and solo schedules", arrivals.len());
}
