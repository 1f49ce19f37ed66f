//! The repository benchmark: three serving workloads replayed through the
//! public `pade-serve` / `pade-router` entry points, timed on two clocks
//! (host wall and simulated cycles), with every output checked, and a
//! separate traced run that splits host time across the crates.
//!
//! See `README.md` beside this crate for the workloads and metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod compare;
pub mod json;
pub mod layers;
pub mod replay;
pub mod stats;
pub mod workloads;
