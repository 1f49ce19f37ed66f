//! Shared seeded-RNG and random-tensor helpers for the workspace's tests.
//!
//! Before this crate, every `tests/` directory (and several inline
//! `mod tests`) carried its own copy of the same golden-ratio hash mix
//! and "fill a vector from a seed" loop. Those copies drifted in
//! constants and ranges, which made cross-crate property tests subtly
//! non-comparable. This crate is the single home for the idiom:
//!
//! * deterministic — a pure function of `(seed, index)`, no global RNG,
//!   no wall clock, identical on every machine (the same discipline the
//!   vendored `proptest` shim and `pade_workload`'s trace generator
//!   follow);
//! * dependency-light — hash mixing only, so it can be a
//!   `dev-dependency` of any crate (including `pade-linalg` itself:
//!   dev-dependency cycles are fine with Cargo).
//!
//! Use [`vec_f32`]/[`mat_f32`] for float tensors, [`vec_i8`] /
//! [`vec_i8_bits`] for quantized operands that must fit a two's-complement
//! width, and [`mix`] when a test needs raw hash bits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pade_linalg::MatF32;

/// SplitMix64-style finalizer: a well-mixed pure function of `x`.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixed hash of `(seed, index)` — the per-element bit source behind
/// every helper here.
#[must_use]
pub fn mix(seed: u64, index: usize) -> u64 {
    splitmix64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// FNV-1a hash of a byte stream: a stable fingerprint for golden tests
/// that pin a generator's output bytes.
#[must_use]
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// A seeded `f32` vector with elements approximately uniform in
/// `[-span, span]`.
#[must_use]
pub fn vec_f32(n: usize, seed: u64, span: f32) -> Vec<f32> {
    (0..n).map(|i| ((mix(seed, i) >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 2.0 * span).collect()
}

/// A seeded `rows × cols` float matrix with elements approximately
/// uniform in `[-span, span]`.
#[must_use]
pub fn mat_f32(rows: usize, cols: usize, seed: u64, span: f32) -> MatF32 {
    MatF32::from_vec(vec_f32(rows * cols, seed, span), rows, cols)
}

/// A seeded `i8` vector covering the full `[-128, 127]` range.
#[must_use]
pub fn vec_i8(n: usize, seed: u64) -> Vec<i8> {
    (0..n).map(|i| (mix(seed, i) >> 40) as u8 as i8).collect()
}

/// A seeded `i8` vector whose values fit `bits`-wide two's complement
/// (`-2^(bits-1) ..= 2^(bits-1)-1`) — valid operands for
/// `BitPlaneMatrix::from_rows` and friends at any supported width.
///
/// # Panics
///
/// Panics if `bits` is outside `1..=8`.
#[must_use]
pub fn vec_i8_bits(n: usize, seed: u64, bits: u32) -> Vec<i8> {
    assert!((1..=8).contains(&bits), "{bits}-bit values do not fit i8");
    let span = 1i64 << bits;
    (0..n)
        .map(|i| {
            let pattern = ((mix(seed, i) >> 40) as i64).rem_euclid(span);
            let value = if pattern >= span / 2 { pattern - span } else { pattern };
            i8::try_from(value).expect("pattern fits the width by construction")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_deterministic_per_seed() {
        assert_eq!(vec_f32(16, 3, 2.0), vec_f32(16, 3, 2.0));
        assert_ne!(vec_f32(16, 3, 2.0), vec_f32(16, 4, 2.0));
        assert_eq!(vec_i8(16, 5), vec_i8(16, 5));
        assert_eq!(vec_i8_bits(16, 5, 4), vec_i8_bits(16, 5, 4));
        assert_eq!(mix(9, 7), mix(9, 7));
        assert_ne!(mix(9, 7), mix(9, 8));
    }

    #[test]
    fn float_values_respect_the_span() {
        for &span in &[0.5f32, 4.0, 100.0] {
            assert!(vec_f32(256, 11, span).iter().all(|x| x.abs() <= span));
        }
        let m = mat_f32(5, 7, 2, 3.0);
        assert_eq!((m.rows(), m.cols()), (5, 7));
    }

    #[test]
    fn i8_values_fit_their_width() {
        for bits in 1..=8u32 {
            let lo = -(1i32 << (bits - 1));
            let hi = (1i32 << (bits - 1)) - 1;
            let v = vec_i8_bits(512, 7, bits);
            assert!(v.iter().all(|&x| (lo..=hi).contains(&i32::from(x))), "bits={bits}");
        }
        // The full-range helper actually exercises the extremes.
        let full = vec_i8(4096, 1);
        assert!(full.iter().any(|&x| x < -100));
        assert!(full.iter().any(|&x| x > 100));
    }

    #[test]
    fn narrow_widths_cover_both_signs() {
        let v = vec_i8_bits(256, 3, 2);
        assert!(v.iter().any(|&x| x < 0) && v.iter().any(|&x| x >= 0));
        assert!(v.iter().all(|&x| (-2..=1).contains(&x)));
    }
}
