//! Exact attention references.
//!
//! Every accelerator model in this workspace is checked against these
//! functions: [`dense_attention`] is the ground truth; [`subset_attention`]
//! is the ideal output of a token-pruning method that retained a given key
//! subset (what PADE's ISTA must reproduce bit-exactly up to fp tolerance).

use crate::{softmax_in_place, MatF32};

/// Exact dense attention `softmax(Q·Kᵀ·scale)·V`, row by row.
///
/// `scale` is typically `1/√H` (optionally folded with dequantization
/// scales).
///
/// # Panics
///
/// Panics if dimensions are inconsistent (`Q.cols != K.cols`,
/// `K.rows != V.rows`).
///
/// # Example
///
/// ```
/// use pade_linalg::{MatF32, attention::dense_attention};
///
/// let q = MatF32::from_fn(1, 2, |_, _| 1.0);
/// let k = MatF32::from_fn(2, 2, |i, _| i as f32);
/// let v = MatF32::from_fn(2, 2, |i, j| (i * 2 + j) as f32);
/// let o = dense_attention(&q, &k, &v, 1.0);
/// // Key 1 dominates, so the output leans toward V row 1.
/// assert!(o.get(0, 0) > 1.0);
/// ```
#[must_use]
pub fn dense_attention(q: &MatF32, k: &MatF32, v: &MatF32, scale: f32) -> MatF32 {
    let mut scores = MatF32::zeros(0, 0);
    let mut out = MatF32::zeros(0, 0);
    dense_attention_into(q, k, v, scale, &mut scores, &mut out);
    out
}

/// [`dense_attention`] into caller-owned buffers: `scores` holds the
/// intermediate `Q·Kᵀ` (resized in place), `out` the final result. Reusing
/// both across calls makes the hot loop allocation-free.
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn dense_attention_into(
    q: &MatF32,
    k: &MatF32,
    v: &MatF32,
    scale: f32,
    scores: &mut MatF32,
    out: &mut MatF32,
) {
    assert_eq!(q.cols(), k.cols(), "Q and K must share the hidden dimension");
    assert_eq!(k.rows(), v.rows(), "one V row per key");
    q.matmul_nt_into(k, scores);
    out.reset_zeroed(q.rows(), v.cols());
    for i in 0..q.rows() {
        let row = scores.row_mut(i);
        for s in row.iter_mut() {
            *s *= scale;
        }
        softmax_in_place(row);
        let out_row = out.row_mut(i);
        for (j, &w) in row.iter().enumerate() {
            for (o, &x) in out_row.iter_mut().zip(v.row(j)) {
                *o += w * x;
            }
        }
    }
}

/// Naive reference attention — the oracle for the blocked kernel (goes
/// through [`MatF32::matmul_nt_naive`]).
#[must_use]
pub fn dense_attention_naive(q: &MatF32, k: &MatF32, v: &MatF32, scale: f32) -> MatF32 {
    assert_eq!(q.cols(), k.cols(), "Q and K must share the hidden dimension");
    assert_eq!(k.rows(), v.rows(), "one V row per key");
    let mut scores = q.matmul_nt_naive(k);
    let mut out = MatF32::zeros(q.rows(), v.cols());
    for i in 0..q.rows() {
        let row = scores.row_mut(i);
        for s in row.iter_mut() {
            *s *= scale;
        }
        softmax_in_place(row);
        let out_row = out.row_mut(i);
        for (j, &w) in row.iter().enumerate() {
            for (o, &x) in out_row.iter_mut().zip(v.row(j)) {
                *o += w * x;
            }
        }
    }
    out
}

/// Raw (pre-softmax) attention scores `Q·Kᵀ·scale`.
///
/// # Panics
///
/// Panics if `Q.cols != K.cols`.
#[must_use]
pub fn attention_scores(q: &MatF32, k: &MatF32, scale: f32) -> MatF32 {
    let mut scores = MatF32::zeros(0, 0);
    attention_scores_into(q, k, scale, &mut scores);
    scores
}

/// [`attention_scores`] into a caller-owned buffer (resized in place).
///
/// # Panics
///
/// Panics if `Q.cols != K.cols`.
pub fn attention_scores_into(q: &MatF32, k: &MatF32, scale: f32, scores: &mut MatF32) {
    assert_eq!(q.cols(), k.cols(), "Q and K must share the hidden dimension");
    q.matmul_nt_into(k, scores);
    for s in scores.as_mut_slice() {
        *s *= scale;
    }
}

/// Attention for one query over a retained key subset: the softmax is
/// renormalized over `retained` only — the exact semantics of a dynamic-
/// sparsity method that pruned everything else.
///
/// Returns zeros when `retained` is empty.
///
/// # Panics
///
/// Panics on dimension mismatch or an out-of-range retained index.
#[must_use]
pub fn subset_attention(
    q_row: &[f32],
    k: &MatF32,
    v: &MatF32,
    scale: f32,
    retained: &[usize],
) -> Vec<f32> {
    assert_eq!(q_row.len(), k.cols(), "query and key dims must match");
    assert_eq!(k.rows(), v.rows(), "one V row per key");
    let mut scores: Vec<f32> = retained
        .iter()
        .map(|&j| {
            assert!(j < k.rows(), "retained index {j} out of range");
            q_row.iter().zip(k.row(j)).map(|(a, b)| a * b).sum::<f32>() * scale
        })
        .collect();
    softmax_in_place(&mut scores);
    let mut out = vec![0.0f32; v.cols()];
    for (&j, &w) in retained.iter().zip(&scores) {
        for (o, &x) in out.iter_mut().zip(v.row(j)) {
            *o += w * x;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn demo(rows: usize, keys: usize, dims: usize) -> (MatF32, MatF32, MatF32) {
        let q = MatF32::from_fn(rows, dims, |i, j| ((i * 7 + j * 3) % 5) as f32 * 0.2 - 0.4);
        let k = MatF32::from_fn(keys, dims, |i, j| ((i * 5 + j * 11) % 7) as f32 * 0.15 - 0.45);
        let v = MatF32::from_fn(keys, dims, |i, j| ((i * 13 + j) % 9) as f32 * 0.1);
        (q, k, v)
    }

    #[test]
    fn dense_attention_rows_are_convex_combinations() {
        let (q, k, v) = demo(3, 6, 4);
        let o = dense_attention(&q, &k, &v, 0.5);
        let vmax = v.as_slice().iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let vmin = v.as_slice().iter().fold(f32::INFINITY, |a, &b| a.min(b));
        for x in o.as_slice() {
            assert!(*x >= vmin - 1e-5 && *x <= vmax + 1e-5);
        }
    }

    #[test]
    fn subset_with_all_keys_equals_dense() {
        let (q, k, v) = demo(2, 5, 3);
        let dense = dense_attention(&q, &k, &v, 0.7);
        let all: Vec<usize> = (0..5).collect();
        for i in 0..2 {
            let sub = subset_attention(q.row(i), &k, &v, 0.7, &all);
            for (a, b) in sub.iter().zip(dense.row(i)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn subset_with_single_key_returns_that_value_row() {
        let (q, k, v) = demo(1, 4, 3);
        let sub = subset_attention(q.row(0), &k, &v, 1.0, &[2]);
        for (a, b) in sub.iter().zip(v.row(2)) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_subset_yields_zeros() {
        let (q, k, v) = demo(1, 4, 3);
        let sub = subset_attention(q.row(0), &k, &v, 1.0, &[]);
        assert_eq!(sub, vec![0.0; 3]);
    }

    #[test]
    fn scores_scale_linearly() {
        let (q, k, _) = demo(2, 3, 4);
        let s1 = attention_scores(&q, &k, 1.0);
        let s2 = attention_scores(&q, &k, 2.0);
        for (a, b) in s1.as_slice().iter().zip(s2.as_slice()) {
            assert!((2.0 * a - b).abs() < 1e-5);
        }
    }

    proptest! {
        #[test]
        fn prop_dropping_lowest_scores_barely_changes_output(
            seed in any::<u64>(),
            keys in 8usize..24,
        ) {
            // Pruning tokens far below the max (Δ ≥ 8 logits) leaves the
            // output nearly unchanged — the softmax-decay bound of Eq. 1.
            let dims = 8usize;
            let h = |a: u64, b: u64| {
                let x = seed.wrapping_mul(a).wrapping_add(b.wrapping_mul(0x9E3779B97F4A7C15));
                ((x >> 32) as f32 / (1u64 << 31) as f32) - 1.0
            };
            let q = MatF32::from_fn(1, dims, |_, j| h(3, j as u64));
            let k = MatF32::from_fn(keys, dims, |i, j| h(5 + i as u64, j as u64));
            let v = MatF32::from_fn(keys, dims, |i, j| h(1000 + i as u64, j as u64));
            let scores = attention_scores(&q, &k, 1.0);
            let max = scores.row(0).iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let retained: Vec<usize> = (0..keys)
                .filter(|&j| scores.get(0, j) > max - 8.0)
                .collect();
            let dense = dense_attention(&q, &k, &v, 1.0);
            let sparse = subset_attention(q.row(0), &k, &v, 1.0, &retained);
            for (a, b) in sparse.iter().zip(dense.row(0)) {
                prop_assert!((a - b).abs() < 0.02, "{} vs {}", a, b);
            }
        }
    }
}
