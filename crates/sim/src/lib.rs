//! Cycle-level simulation kernel for the PADE workspace.
//!
//! All accelerator models (PADE itself in `pade-core` and the baselines in
//! `pade-baselines`) are built on the same small set of primitives:
//!
//! * [`Cycle`] — the simulation time base (one tick of the 800 MHz core
//!   clock from Table III),
//! * [`EventQueue`] — completion scheduling (DRAM responses, systolic array
//!   drains),
//! * [`UtilizationCounter`] — per-unit busy/stall accounting used by the
//!   workload-balance studies (Fig. 23(a)),
//! * [`RunStats`] / [`OpCounts`] / [`TrafficCounts`] — the common result
//!   record every accelerator run produces; `pade-energy` turns these event
//!   counts into energy,
//! * [`LatencyStats`] / [`TimeWeightedGauge`] — serving-side distribution
//!   collectors (per-request latency percentiles, time-weighted queue
//!   depth and batch occupancy) used by `pade-serve`.
//!
//! # Example
//!
//! ```
//! use pade_sim::Cycle;
//!
//! let t = Cycle(40) + Cycle(2);
//! assert_eq!(t.0, 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod cycle;
mod event;
mod latency;
mod stats;

pub use counters::UtilizationCounter;
pub use cycle::{Cycle, Frequency};
pub use event::EventQueue;
pub use latency::{LatencyStats, LatencySummary, TimeWeightedGauge};
pub use stats::{OpCounts, RunStats, TrafficCounts};
