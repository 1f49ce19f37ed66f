use crate::QuantError;

/// Symmetric (zero-point-free) integer quantization parameters.
///
/// PADE quantizes self-attention operands to signed integers (INT8 in the
/// main configuration, INT4 for the low-precision study of Fig. 26) using
/// symmetric per-tensor scaling: `q = clamp(round(x / scale))`, with the
/// representable range `[-2^(bits-1), 2^(bits-1) - 1]`.
///
/// # Example
///
/// ```
/// use pade_quant::QuantParams;
///
/// let p = QuantParams::from_max_abs(2.0, 8);
/// let q = p.quantize(1.0);
/// assert!((p.dequantize(q as i32) - 1.0).abs() < p.scale());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    bits: u32,
}

impl QuantParams {
    /// Builds parameters so that `max_abs` maps to the largest positive code
    /// (`2^(bits-1) - 1`), the standard symmetric convention used by the
    /// paper's INT8 post-training quantization baseline.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=8`. Use [`QuantParams::try_from_max_abs`]
    /// for a fallible variant.
    #[must_use]
    pub fn from_max_abs(max_abs: f32, bits: u32) -> Self {
        Self::try_from_max_abs(max_abs, bits).expect("bit width must be in 2..=8")
    }

    /// Fallible variant of [`QuantParams::from_max_abs`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedWidth`] when `bits` is outside `2..=8`.
    pub fn try_from_max_abs(max_abs: f32, bits: u32) -> Result<Self, QuantError> {
        if !(2..=8).contains(&bits) {
            return Err(QuantError::UnsupportedWidth { bits });
        }
        let levels = ((1i32 << (bits - 1)) - 1) as f32;
        let max_abs = if max_abs > 0.0 { max_abs } else { 1.0 };
        Ok(Self { scale: max_abs / levels, bits })
    }

    /// Builds parameters directly from a scale factor.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedWidth`] when `bits` is outside `2..=8`.
    pub fn from_scale(scale: f32, bits: u32) -> Result<Self, QuantError> {
        if !(2..=8).contains(&bits) {
            return Err(QuantError::UnsupportedWidth { bits });
        }
        Ok(Self { scale: if scale > 0.0 { scale } else { 1.0 }, bits })
    }

    /// The real value represented by one integer step.
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantized integer bit width.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Smallest representable code, `-2^(bits-1)`.
    #[must_use]
    pub fn min_code(&self) -> i8 {
        (-(1i32 << (self.bits - 1))) as i8
    }

    /// Largest representable code, `2^(bits-1) - 1`.
    #[must_use]
    pub fn max_code(&self) -> i8 {
        ((1i32 << (self.bits - 1)) - 1) as i8
    }

    /// Quantizes a real value, saturating at the representable range:
    /// `(x / scale).round().clamp(min, max) as i8`, with halves rounded
    /// away from zero as [`f32::round`] does, and NaN mapped to 0.
    ///
    /// The body uses float operations only, so quantizing a slice
    /// vectorizes; a `round` call and saturating casts would not on a
    /// baseline x86-64 target.
    #[must_use]
    pub fn quantize(&self, x: f32) -> i8 {
        // 1.5·2²³: `c + ROUNDER` has unit ulp for |c| < 2²², so the add
        // rounds `c` to an integer (ties to even) in the low mantissa bits.
        const ROUNDER: f32 = 12_582_912.0;
        let (lo, hi) = (f32::from(self.min_code()), f32::from(self.max_code()));
        let y = x / self.scale;
        // Rounding is monotone and the bounds are integers, so clamping
        // first gives the same code as clamping the rounded value. NaN
        // fails both comparisons and passes through.
        let c = if y < lo {
            lo
        } else if y > hi {
            hi
        } else {
            y
        };
        let even = (c + ROUNDER) - ROUNDER;
        // A tie sits exactly half an integer from `even` (the difference is
        // exact); stepping half outwards from `c` rounds it away from zero.
        let r = if (c - even).abs() == 0.5 { c + 0.5f32.copysign(c) } else { even };
        let r = if r.is_nan() { 0.0 } else { r };
        // `r + ROUNDER` holds the integer in its low mantissa bits.
        ((r + ROUNDER).to_bits() as i32 - ROUNDER.to_bits() as i32) as i8
    }

    /// Maps an integer (possibly a wide accumulator value) back to the reals.
    #[must_use]
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }
}

impl Default for QuantParams {
    fn default() -> Self {
        Self { scale: 1.0 / 128.0, bits: 8 }
    }
}

/// A row-major integer matrix together with its quantization parameters.
///
/// Rows index tokens and columns index hidden dimensions throughout the
/// workspace (a key matrix is `S×H`).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    data: Vec<i8>,
    rows: usize,
    cols: usize,
    params: QuantParams,
}

impl QuantizedMatrix {
    /// Wraps raw integer data.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DimensionMismatch`] when `data.len() != rows*cols`.
    pub fn new(
        data: Vec<i8>,
        rows: usize,
        cols: usize,
        params: QuantParams,
    ) -> Result<Self, QuantError> {
        if data.len() != rows * cols {
            return Err(QuantError::DimensionMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Self { data, rows, cols, params })
    }

    /// Number of rows (tokens).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (hidden dimensions).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Quantization parameters shared by every element.
    #[must_use]
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Borrow one row (one token vector).
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[must_use]
    pub fn row(&self, row: usize) -> &[i8] {
        assert!(row < self.rows, "row {row} out of bounds ({} rows)", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Borrow the full backing storage, row-major.
    #[must_use]
    pub fn as_slice(&self) -> &[i8] {
        &self.data
    }

    /// Dequantizes the whole matrix into a flat row-major `f32` buffer.
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        self.data.iter().map(|&q| self.params.dequantize(i32::from(q))).collect()
    }

    /// Total bytes occupied by the payload at its nominal bit width
    /// (used by the memory-traffic accounting).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * self.params.bits as usize / 8
    }
}

/// Quantizes a flat row-major `f32` matrix with per-tensor symmetric scaling.
///
/// # Errors
///
/// Returns [`QuantError::DimensionMismatch`] when `values.len() != rows*cols`
/// or [`QuantError::UnsupportedWidth`] for an out-of-range `bits`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), pade_quant::QuantError> {
/// let m = pade_quant::quantize_matrix(&[0.5, -0.25, 1.0, -1.0], 2, 2, 8)?;
/// assert_eq!(m.rows(), 2);
/// # Ok(())
/// # }
/// ```
pub fn quantize_matrix(
    values: &[f32],
    rows: usize,
    cols: usize,
    bits: u32,
) -> Result<QuantizedMatrix, QuantError> {
    if values.len() != rows * cols {
        return Err(QuantError::DimensionMismatch { expected: rows * cols, actual: values.len() });
    }
    let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let params = QuantParams::try_from_max_abs(max_abs, bits)?;
    let data = values.iter().map(|&v| params.quantize(v)).collect();
    QuantizedMatrix::new(data, rows, cols, params)
}

/// Quantizes with outlier clipping: the scale is derived from
/// `clip_sigmas` standard deviations of the data instead of the absolute
/// maximum (the SmoothQuant-style calibration every practical INT8 PTQ
/// pipeline applies; values beyond the clip range saturate).
///
/// # Errors
///
/// Same as [`quantize_matrix`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), pade_quant::QuantError> {
/// let mut xs = vec![0.1f32; 63];
/// xs.push(50.0); // one outlier
/// let clipped = pade_quant::quantize_matrix_clipped(&xs, 1, 64, 8, 3.0)?;
/// let naive = pade_quant::quantize_matrix(&xs, 1, 64, 8)?;
/// // Clipping preserves resolution for the bulk of the data.
/// assert!(clipped.params().scale() < naive.params().scale());
/// # Ok(())
/// # }
/// ```
pub fn quantize_matrix_clipped(
    values: &[f32],
    rows: usize,
    cols: usize,
    bits: u32,
    clip_sigmas: f32,
) -> Result<QuantizedMatrix, QuantError> {
    if values.len() != rows * cols {
        return Err(QuantError::DimensionMismatch { expected: rows * cols, actual: values.len() });
    }
    let n = values.len().max(1) as f32;
    let mean: f32 = values.iter().sum::<f32>() / n;
    let var: f32 = values.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let sigma = var.sqrt();
    let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let clip = (clip_sigmas * sigma).min(max_abs).max(1e-6);
    let params = QuantParams::try_from_max_abs(clip, bits)?;
    let data = values.iter().map(|&v| params.quantize(v)).collect();
    QuantizedMatrix::new(data, rows, cols, params)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The rounding contract `quantize` implements without a `round` call.
    fn round_then_clamp(p: &QuantParams, x: f32) -> i8 {
        (x / p.scale()).round().clamp(f32::from(p.min_code()), f32::from(p.max_code())) as i8
    }

    /// Quantizes every `x` both ways and reports the first disagreement.
    fn assert_matches_contract(p: &QuantParams, xs: &[f32]) {
        for &x in xs {
            let (got, want) = (p.quantize(x), round_then_clamp(p, x));
            assert_eq!(
                got,
                want,
                "{} bits, scale {:e}, x = {x:e} ({:#010x})",
                p.bits(),
                p.scale(),
                x.to_bits()
            );
        }
    }

    #[test]
    fn quantize_rounds_halves_away_from_zero_and_nan_to_zero() {
        let p = QuantParams::from_scale(1.0, 8).unwrap();
        for (x, q) in [(2.5, 3), (-2.5, -3), (3.5, 4), (0.5, 1), (-0.5, -1), (126.5, 127)] {
            assert_eq!(p.quantize(x), q, "x = {x}");
        }
        assert_eq!(p.quantize(f32::NAN), 0);
        assert_eq!(p.quantize(f32::INFINITY), 127);
        assert_eq!(p.quantize(f32::NEG_INFINITY), -128);
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            // NaNs whose payload reaches the low mantissa byte.
            f32::from_bits(0x7FC0_0001),
            f32::from_bits(0xFF80_00FF),
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007F_FFFF),
            f32::from_bits(0x807F_FFFF),
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ];
        for bits in 2..=8 {
            // Unit and subnormal scales, so x / scale spans both ends.
            for scale in [1.0, 1.0 / 127.0, f32::from_bits(0x0000_1000)] {
                assert_matches_contract(&QuantParams::from_scale(scale, bits).unwrap(), &specials);
            }
            // Every half-integer in and just outside the range, ±3 ulps.
            let p = QuantParams::from_scale(1.0, bits).unwrap();
            let (lo, hi) = (i32::from(p.min_code()), i32::from(p.max_code()));
            let halves: Vec<f32> = (lo - 3..=hi + 2)
                .flat_map(|k| {
                    let half = (k as f32 + 0.5).to_bits() as i32;
                    (-3..=3).map(move |ulps| f32::from_bits((half + ulps) as u32))
                })
                .collect();
            assert_matches_contract(&p, &halves);
        }
    }

    proptest! {
        #[test]
        fn quantize_matches_round_then_clamp(
            bits in 2u32..=8,
            max_abs in 1e-4f32..1e4,
            scale_bits in any::<u32>(),
            xs in proptest::collection::vec(any::<u32>(), 64),
            grid in proptest::collection::vec(-300.0f32..300.0, 64),
        ) {
            // A realistic scale with values near its grid, and an arbitrary
            // bit-pattern scale with arbitrary bit-pattern values.
            let p = QuantParams::from_max_abs(max_abs, bits);
            let near_grid: Vec<f32> = grid.iter().map(|&g| g * p.scale()).collect();
            assert_matches_contract(&p, &near_grid);
            let p = QuantParams::from_scale(f32::from_bits(scale_bits), bits).unwrap();
            let any_values: Vec<f32> = xs.iter().map(|&b| f32::from_bits(b)).collect();
            assert_matches_contract(&p, &any_values);
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "sweeps all 2^32 inputs; runs in release builds")]
    fn quantize_matches_round_then_clamp_on_every_f32() {
        // At unit scale `x / scale` is `x`, so sweeping every bit pattern
        // sweeps every value the rounding can see. 8 bits take every
        // input; the narrower widths take every 97th.
        fn sweep(bits: u32, inputs: impl Iterator<Item = u32>) {
            let p = QuantParams::from_scale(1.0, bits).unwrap();
            let mut inputs = inputs.map(f32::from_bits);
            let mut xs = Vec::with_capacity(1 << 16);
            loop {
                xs.clear();
                xs.extend(inputs.by_ref().take(1 << 16));
                if xs.is_empty() {
                    return;
                }
                let got: Vec<i8> = xs.iter().map(|&x| p.quantize(x)).collect();
                let want: Vec<i8> = xs.iter().map(|&x| round_then_clamp(&p, x)).collect();
                if got != want {
                    assert_matches_contract(&p, &xs);
                }
            }
        }
        std::thread::scope(|scope| {
            scope.spawn(|| sweep(8, 0..=u32::MAX / 2));
            scope.spawn(|| sweep(8, u32::MAX / 2 + 1..=u32::MAX));
        });
        for bits in 2..8 {
            sweep(bits, (0..=u32::MAX).step_by(97));
        }
    }

    #[test]
    fn round_trip_error_is_bounded_by_scale() {
        let p = QuantParams::from_max_abs(3.0, 8);
        for i in -300..=300 {
            let x = i as f32 / 100.0;
            let q = p.quantize(x);
            assert!((p.dequantize(i32::from(q)) - x).abs() <= p.scale() * 0.5 + 1e-6);
        }
    }

    #[test]
    fn saturates_out_of_range_values() {
        let p = QuantParams::from_max_abs(1.0, 8);
        assert_eq!(p.quantize(10.0), 127);
        assert_eq!(p.quantize(-10.0), -128);
    }

    #[test]
    fn int4_range_is_respected() {
        let p = QuantParams::from_max_abs(1.0, 4);
        assert_eq!(p.min_code(), -8);
        assert_eq!(p.max_code(), 7);
        assert!(p.quantize(0.99) <= 7);
    }

    #[test]
    fn rejects_width_outside_range() {
        assert!(QuantParams::try_from_max_abs(1.0, 1).is_err());
        assert!(QuantParams::try_from_max_abs(1.0, 9).is_err());
    }

    #[test]
    fn zero_max_abs_falls_back_to_unit_scale() {
        let p = QuantParams::from_max_abs(0.0, 8);
        assert!(p.scale() > 0.0);
    }

    #[test]
    fn matrix_rows_and_payload() {
        let m = quantize_matrix(&[1.0, -1.0, 0.5, -0.5, 0.25, 0.0], 2, 3, 8).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.row(1).len(), 3);
        assert_eq!(m.payload_bytes(), 6);
        let m4 = quantize_matrix(&[1.0, -1.0], 1, 2, 4).unwrap();
        assert_eq!(m4.payload_bytes(), 1);
    }

    #[test]
    fn clipped_quantization_saturates_outliers_only() {
        let mut xs = vec![0.5f32; 127];
        xs.push(100.0);
        let m = quantize_matrix_clipped(&xs, 1, 128, 8, 3.0).unwrap();
        // The bulk value keeps fine resolution...
        let back = m.dequantize();
        assert!((back[0] - 0.5).abs() < 0.1, "bulk {}", back[0]);
        // ...while the outlier saturates.
        assert!(back[127] < 100.0 * 0.5);
        assert!(quantize_matrix_clipped(&xs, 2, 65, 8, 3.0).is_err());
    }

    #[test]
    fn matrix_dimension_mismatch_is_error() {
        assert!(quantize_matrix(&[1.0; 5], 2, 3, 8).is_err());
        assert!(QuantizedMatrix::new(vec![0; 5], 2, 3, QuantParams::default()).is_err());
    }
}
