//! Pins the reproduction itself: every figure binary's standard output must
//! equal its golden file under `crates/experiments/golden/`, byte for byte.
//!
//! The binaries are deterministic, so any change to a printed number fails
//! here. A declared model change regenerates the files in the same change
//! (run the test with `PADE_BLESS_GOLDEN=1`) and shows their diff. Debug
//! builds take minutes over the 25 binaries, so the test runs in release
//! builds only: `cargo test --release -p pade-experiments --test
//! golden_figures`.

use std::path::{Path, PathBuf};
use std::process::Command;

use pade_experiments::FIGURE_BINS;

/// The built binary `bin`, beside `run_all` in the target directory (cargo
/// builds every binary of the package before its integration tests).
fn binary(bin: &str) -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_run_all"))
        .with_file_name(format!("{bin}{}", std::env::consts::EXE_SUFFIX))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: debug builds take minutes")]
fn every_figure_prints_its_golden_output() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let bless = std::env::var_os("PADE_BLESS_GOLDEN").is_some();
    let mut drifted = Vec::new();
    for bin in FIGURE_BINS {
        let out = Command::new(binary(bin)).output().unwrap_or_else(|e| panic!("{bin}: {e}"));
        assert!(out.status.success(), "{bin} exited with {}", out.status);
        let path = golden_dir.join(format!("{bin}.txt"));
        if bless {
            std::fs::write(&path, &out.stdout).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            continue;
        }
        let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        if out.stdout != golden {
            let (got, want) =
                (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&golden));
            let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
            let line = line.unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            drifted.push(format!(
                "{bin}: line {}\n  got:  {:?}\n  want: {:?}",
                line + 1,
                got.lines().nth(line).unwrap_or("<end of output>"),
                want.lines().nth(line).unwrap_or("<end of output>"),
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "figure output drifted from its golden file:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn every_figure_binary_has_a_golden_file() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let mut files: Vec<String> = std::fs::read_dir(&golden_dir)
        .expect("golden directory")
        .map(|e| e.expect("golden entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut expected: Vec<String> = FIGURE_BINS.iter().map(|b| format!("{b}.txt")).collect();
    expected.sort();
    assert_eq!(files, expected);
}
