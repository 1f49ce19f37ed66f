//! `pade-trace-query` — interrogate a Chrome-trace JSON file written by
//! `--trace-out`: per-stage cycle histogram, per-request flight timelines
//! (queue / prefill / decode / preempted / stalled accounting assembled
//! from the run's link events), top-K slowest requests, and the
//! `--assert-linked` causality check CI runs after its trace smoke run.
//!
//! ```text
//! pade-trace-query run.json                       # histogram + top-10 slowest
//! pade-trace-query run.json --tenant 1 --top 5    # one tenant's slowest 5
//! pade-trace-query run.json --request 42          # one request's full timeline
//! pade-trace-query run.json --stage serve         # stages matching "serve"
//! pade-trace-query run.json --assert-linked       # fail on broken hop chains
//! ```

use std::process::ExitCode;

use pade_trace::flight::{assemble_timelines, check_linked};
use pade_trace::read_chrome_trace;

struct Args {
    path: String,
    tenant: Option<u64>,
    request: Option<u64>,
    stage: Option<String>,
    top: usize,
    assert_linked: bool,
}

const USAGE: &str = "usage: pade-trace-query <trace.json> [--tenant T] [--request R] \
                     [--stage SUBSTR] [--top K] [--assert-linked]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        path: String::new(),
        tenant: None,
        request: None,
        stage: None,
        top: 10,
        assert_linked: false,
    };
    let mut it = std::env::args().skip(1);
    let num = |flag: &str, v: Option<String>| -> Result<u64, String> {
        v.and_then(|v| v.parse().ok()).ok_or_else(|| format!("{flag} needs an integer"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tenant" => args.tenant = Some(num("--tenant", it.next())?),
            "--request" => args.request = Some(num("--request", it.next())?),
            "--stage" => args.stage = Some(it.next().ok_or("--stage needs a value")?),
            "--top" => args.top = num("--top", it.next())? as usize,
            "--assert-linked" => args.assert_linked = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if args.path.is_empty() && !other.starts_with('-') => {
                args.path = other.to_string();
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if args.path.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let text = std::fs::read_to_string(&args.path).map_err(|e| format!("cannot read: {e}"));
    let snapshot = match text.and_then(|text| read_chrome_trace(&text)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", args.path);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = snapshot.check_well_formed() {
        eprintln!("error: {}: malformed trace: {e}", args.path);
        return ExitCode::FAILURE;
    }

    let mut timelines = assemble_timelines(&snapshot);
    println!(
        "{}: {} events / {} spans / {} links across {} tracks; {} requests",
        args.path,
        snapshot.event_count(),
        snapshot.span_count(),
        snapshot.link_count(),
        snapshot.tracks.len(),
        timelines.len()
    );

    if args.assert_linked {
        if let Err(e) = check_linked(&timelines) {
            eprintln!("error: causality check failed: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "causality: all {} request hop chains complete (admit -> retire)",
            timelines.len()
        );
    }

    // Stage histogram: spans and logical cycles per stage, optionally
    // filtered by substring.
    let breakdown = snapshot.breakdown();
    let matches = |name: &str| args.stage.as_deref().is_none_or(|s| name.contains(s));
    let shown: Vec<_> = breakdown.stages.iter().filter(|s| matches(&s.name)).collect();
    if shown.is_empty() {
        match &args.stage {
            Some(s) => println!("stages: none matching '{s}'"),
            None => println!("stages: none recorded"),
        }
    } else {
        println!("{:<28} {:>8} {:>14} {:>14}", "stage", "spans", "cycles", "wall ns");
        for s in &shown {
            println!(
                "{:<28} {:>8} {:>14} {:>14}",
                s.name, s.spans, s.total_cycles, s.total_wall_nanos
            );
        }
    }
    let counters: Vec<_> = breakdown.counters.iter().filter(|(name, _)| matches(name)).collect();
    if !counters.is_empty() {
        println!("{:<28} {:>14}", "counter", "total");
        for (name, value) in &counters {
            println!("{name:<28} {value:>14}");
        }
    }

    // Request filters, then the top-K slowest by total latency.
    if let Some(t) = args.tenant {
        timelines.retain(|tl| tl.tenant == t);
        println!("tenant {t}: {} requests", timelines.len());
    }
    if let Some(r) = args.request {
        timelines.retain(|tl| tl.request == r);
        if timelines.is_empty() {
            eprintln!("error: request {r} has no link events in this trace");
            return ExitCode::FAILURE;
        }
    }
    timelines.sort_by(|a, b| b.total_cycles.cmp(&a.total_cycles).then(a.request.cmp(&b.request)));
    let k = if args.request.is_some() { timelines.len() } else { args.top.min(timelines.len()) };
    if k > 0 {
        println!("slowest {k} requests:");
        for tl in &timelines[..k] {
            println!("  {tl}");
            if args.request.is_some() {
                println!(
                    "    dispatches {}, preemptions {}, cache hit tokens {}, tier spilled \
                     {} chunks / fetched {} tokens",
                    tl.dispatches,
                    tl.preemptions,
                    tl.cache_hit_tokens,
                    tl.tier_spilled_chunks,
                    tl.tier_fetched_tokens
                );
            }
        }
    }
    ExitCode::SUCCESS
}
