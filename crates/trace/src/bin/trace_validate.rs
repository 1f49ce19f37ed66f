//! `pade-trace-validate` — checks a Chrome-trace JSON file written by
//! `--trace-out`: it must read back exactly (`read_chrome_trace`), every
//! track's spans must nest with monotone clocks (`check_well_formed`),
//! and it must hold at least `--min-stages` distinct span stage names.
//! Used by the CI smoke step.
//!
//! Usage: `pade-trace-validate <trace.json> [--min-stages N]`

use std::process::ExitCode;

const USAGE: &str = "usage: pade-trace-validate <trace.json> [--min-stages N]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut path: Option<String> = None;
    let mut min_stages = 0usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--min-stages" => {
                let v = args.next().unwrap_or_default();
                match v.parse() {
                    Ok(n) => min_stages = n,
                    Err(_) => {
                        eprintln!("error: --min-stages needs an integer, got '{v}'");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let snapshot = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| pade_trace::read_chrome_trace(&text))
        .and_then(|snapshot| snapshot.check_well_formed().map(|()| snapshot));
    let snapshot = match snapshot {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stages = snapshot.stage_names();
    println!(
        "{path}: valid — {} events, {} spans, {} links, {} stage names (fingerprint {:016x})",
        snapshot.event_count(),
        snapshot.span_count(),
        snapshot.link_count(),
        stages.len(),
        snapshot.fingerprint()
    );
    for name in &stages {
        println!("  stage {name}");
    }
    if stages.len() < min_stages {
        eprintln!("error: only {} distinct stage names, need >= {min_stages}", stages.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
