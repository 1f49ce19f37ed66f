//! Integer quantization and two's-complement bit-plane decomposition for PADE.
//!
//! PADE (HPCA 2026) executes the query–key product *bit-serially*: the key
//! tensor is quantized to a low-bit two's-complement integer format and then
//! sliced into **bit planes** that are streamed MSB-first. This crate provides
//! the numeric substrate for that execution model:
//!
//! * [`QuantParams`] / [`quantize_matrix`] — symmetric integer quantization
//!   (INT8 by default, arbitrary width 2..=8 for the PTQ4/QAT4 studies),
//! * [`BitPlaneMatrix`] — the two's-complement bit-plane store of a key
//!   tensor: one flat token-major word array (the wire layout) plus 4
//!   bytes of counts per plane, cached when a token enters the store —
//!   its ones count and the bits per-sub-group BS selects over its bytes
//!   ([`PlaneRow::bs_selected`], the GSAT cost the engine reads instead of
//!   sweeping the plane) — with the exact reconstruction identity
//!   `x = -b_{p-1}·2^{p-1} + Σ b_i·2^i`; [`TokenPlanes`] and [`PlaneRow`]
//!   are `Copy` views borrowed from it, so reading a plane never allocates,
//! * [`uncertainty_span`] — the residual magnitude `U_r` of all *unknown*
//!   planes after round `r`, the quantity the Bit-wise Uncertainty Interval
//!   (BUI) of the paper is built on,
//! * [`GrowableKeyCache`] / [`KeyCacheSnapshot`] / [`PlaneSource`] —
//!   chunked, append-only per-session plane storage for multi-step decode:
//!   one token decomposed per step into a [`BitPlaneMatrix`] tail that
//!   seals by move, sealed chunks `Arc`-shared across snapshots,
//!   byte-identical to a from-scratch decomposition,
//! * [`mxint`] — the MXINT micro-scaling format (32-element groups) used by
//!   the paper's Fig. 25 extension,
//! * [`DigitPlanes`] / [`DigitPlaneMatrix`] — multi-bit (digit-serial)
//!   decomposition for the paper's future-work extension (§VII),
//! * [`fp`] — IEEE half-precision queries with exponent alignment into the
//!   integer bit-serial pipeline (§VI-F).
//!
//! # Example
//!
//! ```
//! use pade_quant::{BitPlaneMatrix, QuantParams};
//!
//! let params = QuantParams::from_max_abs(1.0, 8);
//! let q = params.quantize(0.5);
//! let keys = BitPlaneMatrix::from_rows(&[q, -q], 2, 8).unwrap();
//! // Bit planes reconstruct the original integers exactly.
//! assert_eq!(keys.token(0).reconstruct(), vec![q as i32, -(q as i32)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitplane;
mod digitplane;
mod error;
pub mod fp;
mod growable;
pub mod mxint;
mod params;

pub use bitplane::{plane_weight, uncertainty_span, BitPlaneMatrix, PlaneRow, TokenPlanes};
pub use digitplane::{
    digit_round_to_plane, digit_rounds, digit_uncertainty_span, digit_weight, DigitPlaneMatrix,
    DigitPlanes, DigitRow,
};
pub use error::QuantError;
pub use growable::{GrowableKeyCache, KeyCacheSnapshot, PlaneSource};
pub use params::{quantize_matrix, quantize_matrix_clipped, QuantParams, QuantizedMatrix};
