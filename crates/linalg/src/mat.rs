/// A row-major `f32` matrix sized for simulation workloads.
///
/// Rows index tokens, columns index hidden dimensions, matching the shapes
/// used throughout the paper (`Q, K, V ∈ R^{S×H}`).
///
/// # Example
///
/// ```
/// use pade_linalg::MatF32;
///
/// let m = MatF32::from_fn(2, 3, |i, j| (i * 3 + j) as f32);
/// assert_eq!(m.get(1, 2), 5.0);
/// assert_eq!(m.row(0), &[0.0, 1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl MatF32 {
    /// An all-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds a matrix element-wise from `f(row, col)`.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            data.extend((0..cols).map(|j| f(i, j)));
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert!(i < self.rows && j < self.cols, "({i},{j}) out of bounds");
        self.data[i * self.cols + j]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        assert!(i < self.rows && j < self.cols, "({i},{j}) out of bounds");
        self.data[i * self.cols + j] = v;
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The flat row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes this matrix to `rows × cols`, zeroing every element. The
    /// allocation is reused when capacity allows — the building block of
    /// the allocation-free `*_into` kernels.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// `self · otherᵀ` — the score computation `Q·Kᵀ` when `other` holds keys
    /// as rows.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    #[must_use]
    pub fn matmul_nt(&self, other: &MatF32) -> MatF32 {
        let mut out = MatF32::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `self · otherᵀ` into a caller-owned output buffer (resized and
    /// zeroed in place, reusing its allocation).
    ///
    /// The kernel is blocked over `other`'s rows so a tile of B stays hot
    /// in cache while all of A streams past it, and works on row slices
    /// only — no per-element bounds checks survive in the inner loop. Each
    /// dot product accumulates in the same order as a naive triple loop,
    /// so results are bit-identical to it (pinned by a unit test).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    pub fn matmul_nt_into(&self, other: &MatF32, out: &mut MatF32) {
        assert_eq!(self.cols, other.cols, "inner dimensions must match for A·Bᵀ");
        out.reset_zeroed(self.rows, other.rows);
        let n = other.rows;
        for jb in (0..n).step_by(Self::MATMUL_BLOCK) {
            let je = (jb + Self::MATMUL_BLOCK).min(n);
            let b_tile = &other.data[jb * other.cols..je * other.cols];
            for i in 0..self.rows {
                let a = &self.data[i * self.cols..(i + 1) * self.cols];
                let out_row = &mut out.data[i * n + jb..i * n + je];
                for (o, b) in out_row.iter_mut().zip(b_tile.chunks_exact(self.cols.max(1))) {
                    let mut acc = 0.0f32;
                    for (x, y) in a.iter().zip(b) {
                        acc += x * y;
                    }
                    *o = acc;
                }
            }
        }
    }

    /// Rows-of-B tile size for [`MatF32::matmul_nt_into`]: 32 rows of up
    /// to 256 f32 columns ≈ 32 KiB, sized for L1/L2 residency.
    const MATMUL_BLOCK: usize = 32;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = MatF32::from_fn(2, 2, |i, j| (10 * i + j) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn matmul_nt_matches_hand_computation() {
        let a = MatF32::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = MatF32::from_vec(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        // a · bᵀ = [[1*5+2*6, 1*7+2*8], [3*5+4*6, 3*7+4*8]]
        let c = a.matmul_nt(&b);
        assert_eq!(c.as_slice(), &[17.0, 23.0, 39.0, 53.0]);
    }

    #[test]
    fn blocked_matmul_nt_is_bit_identical_to_a_naive_loop() {
        // Shapes straddle the row tile and include empty inner dims.
        for (m, n, k) in [(3, 70, 5), (1, 33, 64), (5, 32, 0), (2, 1, 129)] {
            let a = MatF32::from_fn(m, k, |i, j| ((i * 31 + j * 7) % 13) as f32 * 0.37 - 2.1);
            let b = MatF32::from_fn(n, k, |i, j| ((i * 17 + j * 5) % 11) as f32 * -0.53 + 1.3);
            let got = a.matmul_nt(&b);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for d in 0..k {
                        acc += a.get(i, d) * b.get(j, d);
                    }
                    assert_eq!(
                        got.get(i, j).to_bits(),
                        acc.to_bits(),
                        "({m}, {n}, {k}) at ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_nt_rejects_mismatched_inner_dims() {
        let a = MatF32::zeros(2, 3);
        let b = MatF32::zeros(2, 4);
        let _ = a.matmul_nt(&b);
    }

    #[test]
    fn row_mut_updates_storage() {
        let mut m = MatF32::zeros(2, 2);
        m.row_mut(1)[0] = 9.0;
        assert_eq!(m.get(1, 0), 9.0);
    }
}
