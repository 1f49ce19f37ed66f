//! BUI-enabled Guarded Filtering (BUI-GF) — §IV-A, Fig. 7 and Fig. 11(d/e).
//!
//! The softmax decays exponentially away from the row maximum (Eq. 1), so a
//! token whose score provably sits more than `Δ = α·radius` logits below
//! the maximum contributes less than `e^{-Δ}` relative mass and can be
//! pruned. BUI-GF makes that test safe under partial information:
//!
//! * **Step 0 (threshold updating, Fig. 7(a))** — the running threshold is
//!   built from *lower* bounds: `T = max_j(S_j^{r,min}) − α·radius`.
//! * **Step 1 (comparison, Fig. 7(b))** — token `j` is pruned only when its
//!   *upper* bound falls below `T`.
//!
//! Because `true_j ≤ ub_j ≤ T ≤ max_lb − Δ ≤ max_true − Δ`, every pruned
//! token is guaranteed to be at least `Δ` logits under the true maximum —
//! the invariant the property tests at the bottom of this file pin down.
//!
//! The filter works entirely in the integer score domain (the hardware has
//! no floats in the QK-PU): the logit-domain margin is converted once per
//! trace via the dequantization scale.

/// Outcome of one guarded-filter evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The key can no longer reach the threshold: terminate it.
    Prune,
    /// Verdict unknown: request the next bit plane.
    NeedMore,
    /// All planes processed and never pruned: the key is retained
    /// (the tile-friendly rule of §IV-C).
    Retain,
}

/// The BUI-GF threshold module of one PE row.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardFilter {
    margin_int: i64,
    max_lower_bound: Option<i64>,
    bits: u32,
    compares: u64,
    threshold_updates: u64,
}

impl GuardFilter {
    /// Creates a filter for one query row.
    ///
    /// `margin_logits` is `α·radius` (Eq. 4); `logit_scale` maps integer
    /// scores into the logit domain, so the margin becomes
    /// `⌈margin_logits / logit_scale⌉` integer score units.
    ///
    /// # Panics
    ///
    /// Panics if `logit_scale` is not strictly positive or `margin_logits`
    /// is negative.
    #[must_use]
    pub fn new(margin_logits: f32, logit_scale: f32, bits: u32) -> Self {
        assert!(logit_scale > 0.0, "logit scale must be positive");
        assert!(margin_logits >= 0.0, "margin must be non-negative");
        Self {
            margin_int: (margin_logits / logit_scale).ceil() as i64,
            max_lower_bound: None,
            bits,
            compares: 0,
            threshold_updates: 0,
        }
    }

    /// The integer-domain margin.
    #[must_use]
    pub fn margin_int(&self) -> i64 {
        self.margin_int
    }

    /// Feeds a freshly computed lower bound into the threshold-updating
    /// module (Fig. 11(d)); the threshold only ever rises.
    pub fn observe_lower_bound(&mut self, lower_bound: i64) {
        self.compares += 1;
        match self.max_lower_bound {
            Some(m) if m >= lower_bound => {}
            _ => {
                self.max_lower_bound = Some(lower_bound);
                self.threshold_updates += 1;
            }
        }
    }

    /// Current pruning threshold `T`, or `None` before any score has been
    /// observed (nothing may be pruned against an empty window).
    #[must_use]
    pub fn threshold(&self) -> Option<i64> {
        self.max_lower_bound.map(|m| m.saturating_sub(self.margin_int))
    }

    /// The decision unit (Fig. 11(e)): evaluates a key whose planes
    /// `0..=r` produced upper bound `upper_bound`. Pruning is strict
    /// (`ub < T`): with a zero margin, a key tied with the maximum must
    /// survive rather than prune itself through its own lower bound.
    pub fn decide(&mut self, upper_bound: i64, r: u32) -> Decision {
        self.compares += 1;
        if let Some(t) = self.threshold() {
            if upper_bound < t {
                return Decision::Prune;
            }
        }
        if r + 1 >= self.bits {
            Decision::Retain
        } else {
            Decision::NeedMore
        }
    }

    /// Total comparisons performed (energy accounting).
    #[must_use]
    pub fn compares(&self) -> u64 {
        self.compares
    }

    /// Number of times the threshold actually rose.
    #[must_use]
    pub fn threshold_updates(&self) -> u64 {
        self.threshold_updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitserial::{plane_contribution, q_sum};
    use crate::bui::Bui;
    use pade_quant::BitPlaneMatrix;
    use proptest::prelude::*;

    #[test]
    fn no_pruning_before_first_observation() {
        let mut f = GuardFilter::new(5.0, 0.01, 8);
        assert_eq!(f.threshold(), None);
        assert_eq!(f.decide(-1_000_000, 0), Decision::NeedMore);
    }

    #[test]
    fn threshold_is_monotone_nondecreasing() {
        let mut f = GuardFilter::new(5.0, 1.0, 8);
        f.observe_lower_bound(10);
        let t1 = f.threshold().unwrap();
        f.observe_lower_bound(5); // lower: must not move the threshold
        assert_eq!(f.threshold().unwrap(), t1);
        f.observe_lower_bound(50);
        assert!(f.threshold().unwrap() > t1);
        assert_eq!(f.threshold_updates(), 2);
    }

    #[test]
    fn retain_requires_reaching_lsb() {
        let mut f = GuardFilter::new(5.0, 1.0, 8);
        f.observe_lower_bound(0);
        assert_eq!(f.decide(100, 3), Decision::NeedMore);
        assert_eq!(f.decide(100, 7), Decision::Retain);
    }

    #[test]
    fn margin_converts_logits_to_integer_units() {
        let f = GuardFilter::new(5.0, 0.5, 8);
        assert_eq!(f.margin_int(), 10);
        let g = GuardFilter::new(0.0, 0.5, 8);
        assert_eq!(g.margin_int(), 0);
    }

    /// Full row filtering in the integer domain, key by key, MSB-first —
    /// the functional skeleton the engine and accelerator reuse.
    fn filter_row(q: &[i8], keys: &[Vec<i8>], margin: f32, scale: f32) -> Vec<usize> {
        let bui = Bui::new(q, 8);
        let qs = q_sum(q);
        let mut f = GuardFilter::new(margin, scale, 8);
        let mut retained = Vec::new();
        for (j, k) in keys.iter().enumerate() {
            let key_planes = BitPlaneMatrix::from_rows(k, k.len(), 8).unwrap();
            let planes = key_planes.token(0);
            let mut partial = 0i64;
            for r in 0..8u32 {
                partial += plane_contribution(q, planes.plane(r), r, 8, qs, true).value;
                f.observe_lower_bound(bui.lower_bound(partial, r));
                match f.decide(bui.upper_bound(partial, r), r) {
                    Decision::Prune => break,
                    Decision::Retain => {
                        retained.push(j);
                        break;
                    }
                    Decision::NeedMore => {}
                }
            }
        }
        retained
    }

    #[test]
    fn dominant_key_is_always_retained() {
        let q: Vec<i8> = vec![20; 16];
        let mut keys: Vec<Vec<i8>> = (0..10).map(|_| vec![-10i8; 16]).collect();
        keys.push(vec![100i8; 16]); // the clear maximum
        let retained = filter_row(&q, &keys, 5.0, 0.01);
        assert!(retained.contains(&10), "the max key must survive: {retained:?}");
    }

    proptest! {
        /// The safety invariant: every pruned key's exact score is at least
        /// `margin_int` below the exact row maximum.
        #[test]
        fn prop_pruned_keys_are_margin_below_max(
            q in proptest::collection::vec(any::<i8>(), 4..24),
            seed in any::<u64>(),
            margin_units in 1i64..2000,
        ) {
            let n_keys = 24usize;
            let keys: Vec<Vec<i8>> = (0..n_keys)
                .map(|j| {
                    (0..q.len())
                        .map(|i| {
                            let h = seed
                                .wrapping_mul(0x2545F4914F6CDD1D)
                                .wrapping_add(((j * 131 + i) as u64).wrapping_mul(0x9E3779B97F4A7C15));
                            (h >> 29) as u8 as i8
                        })
                        .collect()
                })
                .collect();
            let exact: Vec<i64> = keys
                .iter()
                .map(|k| q.iter().zip(k).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum())
                .collect();
            let max_exact = *exact.iter().max().unwrap();
            // scale=1.0 → margin_int == margin_units.
            let retained = filter_row(&q, &keys, margin_units as f32, 1.0);
            for (j, &score) in exact.iter().enumerate() {
                if !retained.contains(&j) {
                    prop_assert!(
                        score <= max_exact - margin_units,
                        "pruned key {} at {} vs max {} (margin {})",
                        j, score, max_exact, margin_units
                    );
                }
            }
        }

        /// Zero margin with exact bounds keeps at least the argmax.
        #[test]
        fn prop_argmax_survives_any_margin(
            seed in any::<u64>(),
            margin_units in 0i64..500,
        ) {
            let q: Vec<i8> = (0..16)
                .map(|i| ((seed.wrapping_add(i * 77) >> 11) % 41) as i8 - 20)
                .collect();
            let keys: Vec<Vec<i8>> = (0..12)
                .map(|j| {
                    (0..16)
                        .map(|i| {
                            let h = seed.wrapping_mul(31).wrapping_add((j * 17 + i) as u64 * 255);
                            (h >> 21) as u8 as i8
                        })
                        .collect()
                })
                .collect();
            let exact: Vec<i64> = keys
                .iter()
                .map(|k| q.iter().zip(k).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum())
                .collect();
            let max_exact = *exact.iter().max().unwrap();
            let retained = filter_row(&q, &keys, margin_units as f32, 1.0);
            prop_assert!(
                retained.iter().any(|&j| exact[j] == max_exact),
                "an argmax key must always be retained"
            );
        }
    }
}
