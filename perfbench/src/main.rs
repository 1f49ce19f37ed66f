//! Command line of the repository benchmark.
//!
//! ```text
//! pade-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                [--threads N] [--out FILE]
//! pade-perfbench compare OLD NEW [--spec BENCHMARK.json]
//! ```
//!
//! A run prints its metrics by name and unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. It exits non-zero when any output check fails.

use std::io::Write as _;
use std::num::NonZeroUsize;
use std::process::ExitCode;

use pade_perfbench::bench::{self, Options, DEFAULT_SEED};
use pade_perfbench::compare::{compare, read_bounds, read_records};
use pade_perfbench::json::number;
use pade_perfbench::workloads::{Size, Workload};

const USAGE: &str = "usage: pade-perfbench --workload decode-long|prefill-slo|fleet-prefix \
[--seed N] [--seconds S] [--trace 0|1] [--threads N] [--out FILE]\n       \
pade-perfbench compare OLD NEW [--spec BENCHMARK.json]";

struct Cli {
    opts: Options,
    threads: Option<usize>,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::DecodeLong,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let (mut threads, mut out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--threads" => {
                let n: NonZeroUsize =
                    value.parse().map_err(|_| bad("expected a positive integer"))?;
                threads = Some(n.get());
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(Cli { opts, threads, out })
}

fn run_main(cli: &Cli) -> ExitCode {
    // Pin the engine's worker threads at or below the machine's. One is
    // the default: on a small shared machine it gives the steadiest wall
    // times, and each replayed layer's seconds then add up against the
    // same single thread's wall.
    let nproc = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let threads = cli.threads.unwrap_or(1).clamp(1, nproc);
    std::env::set_var("PADE_THREADS", threads.to_string());

    let outcome = bench::run(&cli.opts);
    let o = &cli.opts;
    println!(
        "workload {} seed {} size {} threads {threads} requests {} {} run",
        o.workload.name(),
        o.seed,
        o.size.label(),
        outcome.requests,
        if o.trace { "per-layer (traced)" } else { "end-to-end" }
    );
    for m in &outcome.metrics {
        println!("  {:<28} {:>22} {}", m.name, number(m.value), m.unit);
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<28} {:>22} ratio ({} of {} request outputs, {} checked against the seed oracle)",
        "failed_frac",
        number(failed_frac),
        outcome.failed,
        outcome.attempted,
        outcome.oracle_checked
    );
    let (q1, q3) = pade_perfbench::stats::quartiles(&outcome.wall_samples);
    println!(
        "  raw host wall over {} untraced replays: q1 {} median {} q3 {}",
        outcome.wall_samples.len(),
        number(q1),
        number(pade_perfbench::stats::median(&outcome.wall_samples)),
        number(q3)
    );
    println!(
        "  fingerprints: outputs {} simulated statistics {}",
        outcome.output_fingerprint, outcome.sim_fingerprint
    );
    if let Some(b) = &outcome.breakdown {
        for s in b.stages.iter().filter(|s| s.total_wall_nanos > 0) {
            println!(
                "  traced stage {:<22} {:>8} spans {:>14} ns",
                s.name, s.spans, s.total_wall_nanos
            );
        }
    }
    if let Some(path) = &cli.out {
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", outcome.record_line(&cli.opts, threads)));
        if let Err(e) = written {
            eprintln!("cannot append the run record to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let correct = outcome.failed == 0;
    println!("{}", outcome.result_line());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            let Some(s) = it.next() else {
                eprintln!("--spec needs a value\n{USAGE}");
                return ExitCode::from(2);
            };
            spec.clone_from(s);
        } else {
            files.push(a.clone());
        }
    }
    let [old, new] = files.as_slice() else {
        eprintln!("compare needs exactly two result files\n{USAGE}");
        return ExitCode::from(2);
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let compared = read(&spec).and_then(|s| read_bounds(&s)).and_then(|bounds| {
        let old = read(old).and_then(|s| read_records(&s))?;
        let new = read(new).and_then(|s| read_records(&s))?;
        Ok(compare(&bounds, &old, &new))
    });
    match compared {
        Ok(c) => {
            print!("{}", c.render());
            if c.passes() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    match parse_run(&args) {
        Ok(cli) => run_main(&cli),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
