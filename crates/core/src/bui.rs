//! Bit-wise Uncertainty Interval (BUI) — §IV-A, Fig. 6 and Fig. 11(c).
//!
//! In two's complement every plane except the sign plane contributes
//! non-negatively (Eq. 2), so once the first `r+1` planes of a key are
//! known, each element's missing contribution lies in `[0, U_r]` with
//! `U_r = 2^(bits-1-r) − 1`. For a dot product against a *known* query row
//! the residual therefore lies in
//!
//! ```text
//! [ U_r · Σ min(q_j, 0),   U_r · Σ max(q_j, 0) ]   =  [I_r^min, I_r^max]
//! ```
//!
//! — eight interval pairs that depend only on the query, precomputed once
//! per row into a LUT (the BUI Generator of Fig. 11(c)). The guarantee
//! `S_r + I_r^min ≤ q·k ≤ S_r + I_r^max` is property-tested below.

use pade_quant::{mxint::MxVector, uncertainty_span};

/// The BUI lookup table of one query row.
///
/// # Example
///
/// ```
/// use pade_core::bui::Bui;
///
/// let bui = Bui::new(&[6, -5, 9, -4], 8);
/// let (lo, hi) = bui.interval(0);
/// assert!(lo < 0 && hi > 0);
/// // After the LSB plane nothing is uncertain.
/// assert_eq!(bui.interval(7), (0, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bui {
    pos_sum: i64,
    neg_sum: i64,
    bits: u32,
}

impl Bui {
    /// Precomputes the interval LUT for a query row (one pass; the
    /// hardware's Q-sum generator).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=8`.
    #[must_use]
    pub fn new(q_row: &[i8], bits: u32) -> Self {
        assert!((2..=8).contains(&bits), "bit width must be in 2..=8");
        let mut pos = 0i64;
        let mut neg = 0i64;
        for &q in q_row {
            if q > 0 {
                pos += i64::from(q);
            } else {
                neg += i64::from(q);
            }
        }
        Self { pos_sum: pos, neg_sum: neg, bits }
    }

    /// Sum of the positive query entries (`Σ max(q_j, 0)`).
    #[must_use]
    pub fn pos_sum(&self) -> i64 {
        self.pos_sum
    }

    /// Sum of the negative query entries (`Σ min(q_j, 0)`).
    #[must_use]
    pub fn neg_sum(&self) -> i64 {
        self.neg_sum
    }

    /// The interval `(I_r^min, I_r^max)` after planes `0..=r` of the key
    /// are known.
    ///
    /// # Panics
    ///
    /// Panics if `r >= bits`.
    #[must_use]
    pub fn interval(&self, r: u32) -> (i64, i64) {
        let u = i64::from(uncertainty_span(r, self.bits));
        (u * self.neg_sum, u * self.pos_sum)
    }

    /// Upper bound of the true dot product given the conservative partial
    /// score `s_r` (unknown bits taken as zero) after round `r`.
    #[must_use]
    pub fn upper_bound(&self, s_r: i64, r: u32) -> i64 {
        s_r + self.interval(r).1
    }

    /// Lower bound of the true dot product after round `r`.
    #[must_use]
    pub fn lower_bound(&self, s_r: i64, r: u32) -> i64 {
        s_r + self.interval(r).0
    }
}

/// BUI for MX-format (group-quantized) operands — Fig. 25.
///
/// Each 32-element group gets its own integer BUI, scaled into the
/// accumulation domain by `Δ_Q(g)·Δ_K(g)`; group intervals then add.
/// The result bounds the *real-valued* dot product.
#[derive(Debug, Clone, PartialEq)]
pub struct MxBui {
    group_buis: Vec<Bui>,
    group_scales: Vec<f64>,
    bits: u32,
}

impl MxBui {
    /// Builds the group-wise BUI for an MX query vector against keys
    /// quantized with per-group scales `k_scales`.
    ///
    /// # Panics
    ///
    /// Panics if `k_scales.len()` differs from the query's group count.
    #[must_use]
    pub fn new(q: &MxVector, k_scales: &[f32]) -> Self {
        assert_eq!(q.groups(), k_scales.len(), "one key scale per group");
        let group_buis: Vec<Bui> =
            (0..q.groups()).map(|g| Bui::new(q.group_codes(g), q.bits())).collect();
        let group_scales =
            (0..q.groups()).map(|g| f64::from(q.group_scale(g)) * f64::from(k_scales[g])).collect();
        Self { group_buis, group_scales, bits: q.bits() }
    }

    /// Real-valued interval after round `r` given the per-group integer
    /// partial scores `s_r` (step ❶–❷ of Fig. 25(b): scale each group's
    /// bounds, then add them).
    ///
    /// # Panics
    ///
    /// Panics if `partials.len()` differs from the group count.
    #[must_use]
    pub fn bounds(&self, partials: &[i64], r: u32) -> (f64, f64) {
        assert_eq!(partials.len(), self.group_buis.len(), "one partial score per group");
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for ((bui, &scale), &s) in self.group_buis.iter().zip(&self.group_scales).zip(partials) {
            let (gl, gh) = bui.interval(r);
            lo += scale * (s + gl) as f64;
            hi += scale * (s + gh) as f64;
        }
        (lo, hi)
    }

    /// Number of groups.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.group_buis.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pade_quant::{plane_weight, BitPlaneMatrix, TokenPlanes};
    use proptest::prelude::*;

    /// Conservative partial score: planes 0..=r with unknown bits zeroed.
    fn partial_score(q: &[i8], k: TokenPlanes<'_>, r: u32) -> i64 {
        (0..=r)
            .map(|p| i64::from(plane_weight(p, k.bits())) * i64::from(k.plane(p).masked_sum(q)))
            .sum()
    }

    fn exact_dot(q: &[i8], k: &[i8]) -> i64 {
        q.iter().zip(k).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum()
    }

    #[test]
    fn paper_fig6_example() {
        // Fig. 6: Q = [6, -5, 9, -4] (8-bit), K = [reconstructed values].
        // With only the MSB of K known, S⁰ = -32 and the BUI is
        // [I⁰min, I⁰max] = [-69.75, 116.25] in the paper's fractional scale.
        // The paper uses a Q1.6-style fractional weighting (2⁻² LSB); in
        // integer weighting the same example scales by 4: U_0 = 127·??
        // We verify the *integer* invariant on the same vectors instead,
        // plus the exact ratio structure of the paper's interval.
        let q: [i8; 4] = [6, -5, 9, -4];
        let bui = Bui::new(&q, 8);
        assert_eq!(bui.pos_sum(), 15);
        assert_eq!(bui.neg_sum(), -9);
        let (lo, hi) = bui.interval(0);
        // U_0 = 127 → I_max = 127·15, I_min = -127·9.
        assert_eq!(hi, 127 * 15);
        assert_eq!(lo, -127 * 9);
        // Paper's fractional numbers: I_min = -69.75 = -9·7.75, I_max =
        // 116.25 = 15·7.75 — same ±(pos/neg)·U structure with U = 7.75.
        assert!((f64::from(-9i32) * 7.75 - (-69.75)).abs() < 1e-9);
        assert!((f64::from(15i32) * 7.75 - 116.25).abs() < 1e-9);
    }

    #[test]
    fn interval_shrinks_monotonically() {
        let bui = Bui::new(&[5, -3, 7, -2, 1], 8);
        let mut prev_width = i64::MAX;
        for r in 0..8 {
            let (lo, hi) = bui.interval(r);
            let width = hi - lo;
            assert!(width <= prev_width, "round {r}: {width} > {prev_width}");
            prev_width = width;
        }
        assert_eq!(bui.interval(7), (0, 0));
    }

    #[test]
    fn bounds_are_exact_at_lsb() {
        let q: [i8; 3] = [3, -7, 2];
        let k: [i8; 3] = [-50, 99, 4];
        let key_planes = BitPlaneMatrix::from_rows(&k, k.len(), 8).unwrap();
        let planes = key_planes.token(0);
        let bui = Bui::new(&q, 8);
        let s = partial_score(&q, planes, 7);
        assert_eq!(bui.upper_bound(s, 7), exact_dot(&q, &k));
        assert_eq!(bui.lower_bound(s, 7), exact_dot(&q, &k));
    }

    proptest! {
        #[test]
        fn prop_bui_always_bounds_true_dot(
            q in proptest::collection::vec(any::<i8>(), 1..80),
            seed in any::<u64>(),
            r in 0u32..8,
        ) {
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| {
                    let h = seed.wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add((i as u64).wrapping_mul(0xBF58476D1CE4E5B9));
                    (h >> 24) as u8 as i8
                })
                .collect();
            let key_planes = BitPlaneMatrix::from_rows(&k, k.len(), 8).unwrap();
            let planes = key_planes.token(0);
            let bui = Bui::new(&q, 8);
            let exact = exact_dot(&q, &k);
            for round in 0..=r {
                let s = partial_score(&q, planes, round);
                prop_assert!(bui.lower_bound(s, round) <= exact,
                    "round {}: lb {} > exact {}", round, bui.lower_bound(s, round), exact);
                prop_assert!(bui.upper_bound(s, round) >= exact,
                    "round {}: ub {} < exact {}", round, bui.upper_bound(s, round), exact);
            }
        }

        #[test]
        fn prop_bui_bounds_for_int4(
            q in proptest::collection::vec(-8i8..=7, 1..40),
            seed in any::<u64>(),
        ) {
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| {
                    let h = seed.wrapping_add((i as u64).wrapping_mul(0x94D049BB133111EB));
                    ((h >> 13) % 16) as i8 - 8
                })
                .collect();
            let key_planes = BitPlaneMatrix::from_rows(&k, k.len(), 4).unwrap();
            let planes = key_planes.token(0);
            let bui = Bui::new(&q, 4);
            let exact = exact_dot(&q, &k);
            for round in 0..4u32 {
                let s: i64 = (0..=round)
                    .map(|p| i64::from(plane_weight(p, 4)) * i64::from(planes.plane(p).masked_sum(&q)))
                    .sum();
                prop_assert!(bui.lower_bound(s, round) <= exact);
                prop_assert!(bui.upper_bound(s, round) >= exact);
            }
        }
    }

    mod mx {
        use super::*;
        use pade_quant::mxint::{mx_dot, MxVector};

        #[test]
        fn mx_bounds_contain_real_dot() {
            let qf: Vec<f32> = (0..64).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();
            let kf: Vec<f32> = (0..64).map(|i| ((i * 11) % 17) as f32 - 8.0).collect();
            let q = MxVector::quantize(&qf, 32, 8).unwrap();
            let k = MxVector::quantize(&kf, 32, 8).unwrap();
            let k_scales: Vec<f32> = (0..k.groups()).map(|g| k.group_scale(g)).collect();
            let bui = MxBui::new(&q, &k_scales);
            let real = mx_dot(&q, &k).unwrap() as f64;
            for r in 0..8u32 {
                // Per-group conservative partial scores.
                let partials: Vec<i64> = (0..q.groups())
                    .map(|g| {
                        let codes = k.group_codes(g);
                        let key_planes = BitPlaneMatrix::from_rows(codes, codes.len(), 8).unwrap();
                        let planes = key_planes.token(0);
                        (0..=r)
                            .map(|p| {
                                i64::from(plane_weight(p, 8))
                                    * i64::from(planes.plane(p).masked_sum(q.group_codes(g)))
                            })
                            .sum()
                    })
                    .collect();
                let (lo, hi) = bui.bounds(&partials, r);
                assert!(lo <= real + 1e-3, "round {r}: lo {lo} > {real}");
                assert!(hi >= real - 1e-3, "round {r}: hi {hi} < {real}");
            }
        }

        #[test]
        fn mx_interval_is_sum_of_group_intervals() {
            let qf = vec![1.0f32; 64];
            let q = MxVector::quantize(&qf, 32, 8).unwrap();
            let bui = MxBui::new(&q, &[1.0, 1.0]);
            assert_eq!(bui.groups(), 2);
            let (lo, hi) = bui.bounds(&[0, 0], 0);
            assert_eq!(lo, 0.0); // all-positive query: no negative interval
            assert!(hi > 0.0);
        }
    }
}
