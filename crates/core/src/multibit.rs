//! Multi-bit stage fusion — the paper's future-work direction 2 (§VII).
//!
//! The mainline PADE design streams keys one bit plane per round. This
//! module generalizes the BSF loop to radix-`2^d` *digits* (`d` consecutive
//! bit planes per round, MSB first) and quantifies the trade-off the paper
//! conjectures:
//!
//! * **Fewer rounds** — a `d`-bit digit design makes `bits/d` pruning
//!   decisions per key instead of `bits`, cutting scoreboard traffic,
//!   threshold updates and decision-unit energy per key.
//! * **Coarser termination** — a key that a 1-bit design would kill after
//!   plane `p` cannot be killed before the next digit boundary, so up to
//!   `d−1` extra bit planes of it are fetched and absorbed.
//! * **Never-weaker pruning** — at a shared decision boundary the digit
//!   design has observed lower bounds at least as strong as the bit design
//!   (bounds are nested across rounds), so its retained set is a *subset*
//!   of the 1-bit retained set (property-tested below).
//!
//! `d = 1` reproduces the mainline functional filter exactly; `d = bits`
//! degenerates to value-level execution with a single post-hoc decision.
//!
//! The executor here is functional (event counts, not cycle timing): the
//! cycle-level claims of the paper concern the 1-bit design, and the DSE
//! question for multi-bit fusion — how fetch volume, decision count and
//! retained-set size move with `d` — is a counting question.

use pade_quant::{digit_round_to_plane, digit_rounds, digit_weight, DigitPlaneMatrix, DigitPlanes};

use crate::bui::Bui;
use crate::filter::{Decision, GuardFilter};

/// Statistics of one multi-bit BSF run over a single query row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiBitRowResult {
    /// Retained `(token, exact integer score)` pairs, in token order.
    pub retained: Vec<(usize, i64)>,
    /// Total digit rounds absorbed across all keys.
    pub rounds_executed: u64,
    /// Key payload bits streamed from memory (`d · H` per round).
    pub bits_fetched: u64,
    /// Pruning decisions evaluated (one per absorbed round).
    pub decisions: u64,
    /// Digit multiply–accumulate work in 1-bit add equivalents (a `d`-bit ×
    /// 8-bit MAC costs `d` bit-serial adds; zero digits are skipped).
    pub add_equivalents: u64,
}

/// Runs the multi-bit guarded filter for one query row over all keys.
///
/// Mirrors the mainline BSF loop (observe the lower bound, update the
/// guard threshold, compare the upper bound — Fig. 7) with decisions at
/// digit-round granularity. `margin_logits` and `logit_scale` have the
/// same meaning as in [`GuardFilter::new`].
///
/// # Panics
///
/// Panics if `q.len()` differs from the key dimension.
#[must_use]
pub fn run_multibit_row(
    q: &[i8],
    keys: &DigitPlaneMatrix,
    margin_logits: f32,
    logit_scale: f32,
) -> MultiBitRowResult {
    assert_eq!(q.len(), keys.dims(), "query width must match key dimension");
    let bits = keys.bits();
    let d = keys.digit_bits();
    let n_rounds = digit_rounds(bits, d);
    let bui = Bui::new(q, bits);
    let mut filter = GuardFilter::new(margin_logits, logit_scale, n_rounds);

    let mut retained = Vec::new();
    let mut rounds_executed = 0u64;
    let mut bits_fetched = 0u64;
    let mut add_equivalents = 0u64;
    for j in 0..keys.tokens() {
        let token: &DigitPlanes = keys.token(j);
        let mut partial = 0i64;
        for r in 0..n_rounds {
            let row = token.round(r);
            partial += i64::from(digit_weight(r, d, bits)) * row.masked_dot(q);
            rounds_executed += 1;
            bits_fetched += row.payload_bits() as u64;
            add_equivalents += u64::from(row.count_nonzero()) * u64::from(d);
            let plane = digit_round_to_plane(r, d, bits);
            filter.observe_lower_bound(bui.lower_bound(partial, plane));
            match filter.decide(bui.upper_bound(partial, plane), r) {
                Decision::Prune => break,
                Decision::Retain => {
                    retained.push((j, partial));
                    break;
                }
                Decision::NeedMore => {}
            }
        }
    }

    MultiBitRowResult {
        retained,
        rounds_executed,
        bits_fetched,
        decisions: rounds_executed,
        add_equivalents,
    }
}

/// Aggregate statistics of a multi-bit run over a block of query rows.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBitBlockResult {
    /// Digit width this block was run at.
    pub digit_bits: u32,
    /// Per-row retained sets.
    pub retained: Vec<Vec<(usize, i64)>>,
    /// Summed row statistics.
    pub rounds_executed: u64,
    /// Summed key payload bits fetched.
    pub bits_fetched: u64,
    /// Summed pruning decisions.
    pub decisions: u64,
    /// Summed MAC work in 1-bit add equivalents.
    pub add_equivalents: u64,
    /// Keys retained across all rows.
    pub retained_keys: u64,
    /// `rows × keys` — the dense key-visit count.
    pub total_keys: u64,
}

impl MultiBitBlockResult {
    /// Fraction of keys pruned.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        if self.total_keys == 0 {
            0.0
        } else {
            1.0 - self.retained_keys as f64 / self.total_keys as f64
        }
    }
}

/// Runs the multi-bit filter for a block of query rows sharing one key
/// tensor.
///
/// # Panics
///
/// Panics if any row's width differs from the key dimension.
#[must_use]
pub fn run_multibit_block(
    queries: &[&[i8]],
    keys: &DigitPlaneMatrix,
    margin_logits: f32,
    logit_scale: f32,
) -> MultiBitBlockResult {
    let mut out = MultiBitBlockResult {
        digit_bits: keys.digit_bits(),
        retained: Vec::with_capacity(queries.len()),
        rounds_executed: 0,
        bits_fetched: 0,
        decisions: 0,
        add_equivalents: 0,
        retained_keys: 0,
        total_keys: (queries.len() * keys.tokens()) as u64,
    };
    for q in queries {
        let row = run_multibit_row(q, keys, margin_logits, logit_scale);
        out.rounds_executed += row.rounds_executed;
        out.bits_fetched += row.bits_fetched;
        out.decisions += row.decisions;
        out.add_equivalents += row.add_equivalents;
        out.retained_keys += row.retained.len() as u64;
        out.retained.push(row.retained);
    }
    out
}

/// Sweeps digit widths over one block — the DSE harness behind the
/// `ext_multibit` experiment.
///
/// Returns one [`MultiBitBlockResult`] per width in `widths`, in order.
///
/// # Panics
///
/// Panics if a width does not divide the key bit width, or the key matrix
/// fails to decompose.
#[must_use]
pub fn sweep_digit_widths(
    queries: &[&[i8]],
    key_codes: &[i8],
    dims: usize,
    bits: u32,
    widths: &[u32],
    margin_logits: f32,
    logit_scale: f32,
) -> Vec<MultiBitBlockResult> {
    widths
        .iter()
        .map(|&d| {
            let keys = DigitPlaneMatrix::from_rows(key_codes, dims, d, bits)
                .expect("digit width must divide the bit width");
            run_multibit_block(queries, &keys, margin_logits, logit_scale)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pade_quant::DigitPlaneMatrix;
    use proptest::prelude::*;

    fn keys_from_seed(seed: u64, n: usize, dims: usize) -> Vec<i8> {
        (0..n * dims)
            .map(|i| {
                let h = seed
                    .wrapping_mul(0x2545F4914F6CDD1D)
                    .wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15));
                (h >> 21) as u8 as i8
            })
            .collect()
    }

    fn exact_scores(q: &[i8], codes: &[i8], dims: usize) -> Vec<i64> {
        codes
            .chunks(dims)
            .map(|k| q.iter().zip(k).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum())
            .collect()
    }

    #[test]
    fn retained_scores_are_exact() {
        let dims = 16;
        let codes = keys_from_seed(7, 24, dims);
        let q: Vec<i8> = (0..dims).map(|i| (i as i8) - 8).collect();
        for d in [1u32, 2, 4, 8] {
            let keys = DigitPlaneMatrix::from_rows(&codes, dims, d, 8).unwrap();
            let r = run_multibit_row(&q, &keys, 500.0, 1.0);
            let exact = exact_scores(&q, &codes, dims);
            for &(j, s) in &r.retained {
                assert_eq!(s, exact[j], "d={d} token {j}");
            }
        }
    }

    #[test]
    fn single_digit_run_is_value_level() {
        let dims = 8;
        let codes = keys_from_seed(3, 12, dims);
        let q: Vec<i8> = vec![5; dims];
        let keys = DigitPlaneMatrix::from_rows(&codes, dims, 8, 8).unwrap();
        let r = run_multibit_row(&q, &keys, 100.0, 1.0);
        // One round per key, every key fully fetched: no early termination
        // inside a key is possible at d = bits.
        assert_eq!(r.rounds_executed, 12);
        assert_eq!(r.bits_fetched, 12 * 8 * 8);
    }

    #[test]
    fn zero_keys_block() {
        let keys = DigitPlaneMatrix::from_rows(&[], 4, 2, 8).unwrap();
        let q: [i8; 4] = [1, 2, 3, 4];
        let r = run_multibit_row(&q, &keys, 5.0, 1.0);
        assert!(r.retained.is_empty());
        assert_eq!(r.rounds_executed, 0);
    }

    #[test]
    fn block_aggregates_rows() {
        let dims = 8;
        let codes = keys_from_seed(11, 10, dims);
        let q0: Vec<i8> = vec![3; dims];
        let q1: Vec<i8> = vec![-3; dims];
        let rows: Vec<&[i8]> = vec![&q0, &q1];
        let keys = DigitPlaneMatrix::from_rows(&codes, dims, 2, 8).unwrap();
        let block = run_multibit_block(&rows, &keys, 50.0, 1.0);
        let a = run_multibit_row(&q0, &keys, 50.0, 1.0);
        let b = run_multibit_row(&q1, &keys, 50.0, 1.0);
        assert_eq!(block.rounds_executed, a.rounds_executed + b.rounds_executed);
        assert_eq!(block.retained_keys as usize, a.retained.len() + b.retained.len());
        assert_eq!(block.total_keys, 20);
    }

    #[test]
    fn sweep_returns_one_result_per_width() {
        let dims = 8;
        let codes = keys_from_seed(5, 16, dims);
        let q: Vec<i8> = (0..dims).map(|i| 10 - 2 * i as i8).collect();
        let rows: Vec<&[i8]> = vec![&q];
        let sweep = sweep_digit_widths(&rows, &codes, dims, 8, &[1, 2, 4, 8], 300.0, 1.0);
        assert_eq!(sweep.len(), 4);
        for (r, d) in sweep.iter().zip([1u32, 2, 4, 8]) {
            assert_eq!(r.digit_bits, d);
        }
    }

    proptest! {
        /// Safety at every digit width: a pruned key's exact score is at
        /// least the margin below the exact row maximum.
        #[test]
        fn prop_multibit_pruning_is_safe(
            seed in any::<u64>(),
            margin in 1i64..3000,
            d in prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        ) {
            let dims = 12;
            let codes = keys_from_seed(seed, 20, dims);
            let q: Vec<i8> = (0..dims)
                .map(|i| (seed.wrapping_add(i as u64 * 977) >> 33) as u8 as i8)
                .collect();
            let keys = DigitPlaneMatrix::from_rows(&codes, dims, d, 8).unwrap();
            let r = run_multibit_row(&q, &keys, margin as f32, 1.0);
            let exact = exact_scores(&q, &codes, dims);
            let max = *exact.iter().max().unwrap();
            let kept: Vec<usize> = r.retained.iter().map(|&(j, _)| j).collect();
            for (j, &s) in exact.iter().enumerate() {
                if !kept.contains(&j) {
                    prop_assert!(s <= max - margin,
                        "d={}: pruned key {} at {} vs max {} margin {}", d, j, s, max, margin);
                }
            }
        }

        /// Coarser digits never retain more: the digit design's bounds at a
        /// shared decision boundary are at least as tight, so its retained
        /// set is a subset of the 1-bit set.
        #[test]
        fn prop_coarser_digits_retain_subset(
            seed in any::<u64>(),
            margin in 1i64..2000,
        ) {
            let dims = 10;
            let codes = keys_from_seed(seed, 18, dims);
            let q: Vec<i8> = (0..dims)
                .map(|i| (seed.wrapping_add(i as u64 * 131) >> 29) as u8 as i8)
                .collect();
            let rows: Vec<&[i8]> = vec![&q];
            let sweep = sweep_digit_widths(&rows, &codes, dims, 8, &[1, 2, 4, 8], margin as f32, 1.0);
            let base: Vec<usize> = sweep[0].retained[0].iter().map(|&(j, _)| j).collect();
            for r in &sweep[1..] {
                for &(j, _) in &r.retained[0] {
                    prop_assert!(base.contains(&j),
                        "d={}: token {} retained but 1-bit pruned it", r.digit_bits, j);
                }
            }
        }

        /// Fetch volume grows (weakly) with digit width; decision count
        /// shrinks (weakly) — the trade-off axis of the extension.
        #[test]
        fn prop_fetch_and_decision_tradeoff(
            seed in any::<u64>(),
            margin in 1i64..2000,
        ) {
            let dims = 8;
            let codes = keys_from_seed(seed, 16, dims);
            let q: Vec<i8> = (0..dims)
                .map(|i| (seed.wrapping_add(i as u64 * 389) >> 27) as u8 as i8)
                .collect();
            let rows: Vec<&[i8]> = vec![&q];
            let sweep = sweep_digit_widths(&rows, &codes, dims, 8, &[1, 2, 4, 8], margin as f32, 1.0);
            for w in sweep.windows(2) {
                prop_assert!(w[1].bits_fetched >= w[0].bits_fetched,
                    "d={}→{}: fetched {} < {}", w[0].digit_bits, w[1].digit_bits,
                    w[1].bits_fetched, w[0].bits_fetched);
                prop_assert!(w[1].decisions <= w[0].decisions,
                    "d={}→{}: decisions {} > {}", w[0].digit_bits, w[1].digit_bits,
                    w[1].decisions, w[0].decisions);
            }
        }

        /// d=1 reproduces the mainline bit-serial functional filter: same
        /// retained tokens with the same exact scores.
        #[test]
        fn prop_d1_matches_bit_serial_reference(
            seed in any::<u64>(),
            margin in 1i64..2000,
        ) {
            use crate::bitserial::{plane_contribution, q_sum};
            use pade_quant::BitPlaneMatrix;

            let dims = 8;
            let codes = keys_from_seed(seed, 14, dims);
            let q: Vec<i8> = (0..dims)
                .map(|i| (seed.wrapping_add(i as u64 * 53) >> 25) as u8 as i8)
                .collect();
            let keys = DigitPlaneMatrix::from_rows(&codes, dims, 1, 8).unwrap();
            let multibit = run_multibit_row(&q, &keys, margin as f32, 1.0);

            // Mainline functional loop (as in filter.rs).
            let bui = Bui::new(&q, 8);
            let qs = q_sum(&q);
            let mut f = GuardFilter::new(margin as f32, 1.0, 8);
            let mut reference = Vec::new();
            for (j, k) in codes.chunks(dims).enumerate() {
                let key_planes = BitPlaneMatrix::from_rows(k, k.len(), 8).unwrap();
                let planes = key_planes.token(0);
                let mut partial = 0i64;
                for r in 0..8u32 {
                    partial += plane_contribution(&q, planes.plane(r), r, 8, qs, true).value;
                    f.observe_lower_bound(bui.lower_bound(partial, r));
                    match f.decide(bui.upper_bound(partial, r), r) {
                        Decision::Prune => break,
                        Decision::Retain => { reference.push((j, partial)); break; }
                        Decision::NeedMore => {}
                    }
                }
            }
            prop_assert_eq!(multibit.retained, reference);
        }
    }
}
