//! Experiment harness regenerating every table and figure of the PADE
//! evaluation (§VI).
//!
//! Each binary in `src/bin/` reproduces one artifact (see DESIGN.md §4 for
//! the full index); this library holds the shared machinery:
//!
//! * [`runner`] — builds (model, task) workloads, runs PADE / baselines /
//!   the GPU roofline on them, and extrapolates block-level simulation to
//!   full-model statistics,
//! * [`report`] — aligned text tables and normalization helpers matching
//!   the paper's presentation.
//!
//! Absolute numbers come from this repository's simulators and substitutes
//! (see DESIGN.md §1); EXPERIMENTS.md records paper-vs-measured values and
//! which shapes are preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod runner;

/// Every table, figure and extension binary, in the order `run_all` runs
/// them. Each prints a deterministic report to standard output, pinned by
/// a golden file `golden/<bin>.txt` beside this crate's manifest.
pub const FIGURE_BINS: &[&str] = &[
    "tab1_feature_matrix",
    "fig02_predictor_overhead",
    "fig04_bsf_reduction",
    "fig05_tiling_pressure",
    "fig10_interleave_updates",
    "tab2_accuracy",
    "fig14_comp_mem",
    "fig15_software_methods",
    "fig16_ablation",
    "fig16_alpha_tradeoff",
    "fig17_dse",
    "fig18_gpu_comparison",
    "fig19_gain_breakdown",
    "fig20_area_power",
    "fig21_sota_comparison",
    "fig23_balance_bandwidth",
    "fig24_system_integration",
    "fig25_mxint",
    "fig26_quant_decoding",
    "hero_numbers",
    "ext_multibit",
    "ext_fp_formats",
    "ext_distributed",
    "ext_decode_session",
    "ext_calibration_ablation",
];
