//! Minimal dense linear algebra and attention references for PADE.
//!
//! The accelerator models in this workspace are validated against *exact*
//! reference computations. This crate provides:
//!
//! * [`MatF32`] — a small row-major `f32` matrix,
//! * [`softmax`] / [`OnlineSoftmax`] — numerically stable softmax and the
//!   streaming (FlashAttention-style) formulation that ISTA builds on,
//! * [`attention`] — exact dense attention and attention restricted to a
//!   retained key subset,
//! * [`metrics`] — output-fidelity metrics (cosine similarity, retained
//!   softmax mass, top-k recall) used by the accuracy experiments.
//!
//! # Example
//!
//! ```
//! use pade_linalg::{MatF32, attention::dense_attention};
//!
//! let q = MatF32::from_fn(2, 4, |i, j| (i + j) as f32 * 0.1);
//! let k = MatF32::from_fn(3, 4, |i, j| (i * j) as f32 * 0.1);
//! let v = MatF32::from_fn(3, 4, |i, j| (i as f32) - (j as f32));
//! let o = dense_attention(&q, &k, &v, 0.5);
//! assert_eq!((o.rows(), o.cols()), (2, 4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
mod mat;
pub mod metrics;
mod softmax;

pub use mat::MatF32;
pub use softmax::{softmax, softmax_in_place, OnlineSoftmax};
