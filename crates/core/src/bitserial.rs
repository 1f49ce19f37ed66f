//! Bidirectional sparsity (BS) — §IV-B, Eqs. 5–6.
//!
//! A bit plane's contribution to the dot product is `w_r · Σ_{k_j^r=1} q_j`.
//! Because each bit is 0 or 1, that sum can equally be computed as
//! `Σ_all q_j − Σ_{k_j^r=0} q_j` — so the hardware always accumulates over
//! whichever bit value is *rarer*, bounding the number of selected lanes by
//! 50 % of the vector width and with it the PE load imbalance.

use pade_quant::{plane_weight, PlaneRow};

/// Which bit value was treated as "sparse" (selected for accumulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BsMode {
    /// Accumulate queries where the key bit is 1 (direct form, Eq. 5).
    Ones,
    /// Accumulate queries where the key bit is 0 and subtract from the
    /// query total (flipped form, Eq. 6).
    Zeros,
}

/// Result of absorbing one bit plane into a partial score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneContribution {
    /// Weighted contribution `w_r · Σ_{bit=1} q_j` (numerically identical
    /// in both modes).
    pub value: i64,
    /// Number of query elements actually accumulated.
    pub selected: u32,
    /// The accumulation mode chosen.
    pub mode: BsMode,
}

/// Absorbs plane `r` of a key into the running score for query row `q`.
///
/// With `bidirectional` set, the rarer bit value is selected (the BS
/// scheduler of Fig. 12); otherwise the direct bit-1 form is always used —
/// the naive scheme whose imbalance Fig. 5(c) illustrates. `q_sum` must be
/// `Σ q_j` over the same row (produced once by the Q-sum generator).
///
/// # Panics
///
/// Panics if `q.len() != plane.len()`.
///
/// # Example
///
/// ```
/// use pade_core::bitserial::{plane_contribution, BsMode};
/// use pade_quant::BitPlaneMatrix;
///
/// let q: [i8; 4] = [1, 2, 3, 4];
/// // A dense LSB plane (three 1s): BS flips to accumulate the single 0.
/// let keys = BitPlaneMatrix::from_rows(&[1, 1, 0, 1], 4, 8).unwrap();
/// let c = plane_contribution(&q, keys.token(0).plane(7), 7, 8, 10, true);
/// assert_eq!(c.mode, BsMode::Zeros);
/// assert_eq!(c.selected, 1);
/// assert_eq!(c.value, (1 + 2 + 4) as i64); // w_7 = 1
/// ```
#[must_use]
pub fn plane_contribution(
    q: &[i8],
    plane: PlaneRow<'_>,
    r: u32,
    bits: u32,
    q_sum: i64,
    bidirectional: bool,
) -> PlaneContribution {
    assert_eq!(q.len(), plane.len(), "query row and plane must have equal width");
    let w = i64::from(plane_weight(r, bits));
    let ones = plane.count_ones();
    let zeros = plane.count_zeros();
    if bidirectional && zeros < ones {
        // Flipped form: Σ_{bit=1} q = q_sum − Σ_{bit=0} q.
        let mut zero_sum = 0i64;
        for (i, &qv) in q.iter().enumerate() {
            if !plane.bit(i) {
                zero_sum += i64::from(qv);
            }
        }
        PlaneContribution { value: w * (q_sum - zero_sum), selected: zeros, mode: BsMode::Zeros }
    } else {
        PlaneContribution {
            value: w * i64::from(plane.masked_sum(q)),
            selected: ones,
            mode: BsMode::Ones,
        }
    }
}

/// Σ of a query row — the Q-sum generator output shared by all lanes in a
/// PE row (Fig. 11(a)).
#[must_use]
pub fn q_sum(q: &[i8]) -> i64 {
    q.iter().map(|&x| i64::from(x)).sum()
}

/// Per-query-row lookup tables turning a bit-plane dot product into
/// `⌈H/8⌉` table reads.
///
/// For every 8-dimension chunk of the query row the table stores, for all
/// 256 possible key-bit bytes, the partial sum `Σ_{bit set} q_j`. A
/// plane's masked sum is then the sum of one lookup per byte of the
/// packed plane — ~8× fewer adds than walking set bits, and free of
/// data-dependent branches. The engine builds one per distinct query row
/// of a dispatch (cost `⌈H/8⌉ × 256` adds) and shares it read-only with
/// every lane, head and layer scoring that row.
///
/// Integer addition is associative, so the lookup-based sum is *equal*
/// (not just close) to [`PlaneRow::masked_sum`]; the property tests below
/// pin this down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QRowLut {
    /// One 256-entry table per 8-dimension chunk, in chunk order.
    tables: Vec<[i32; 256]>,
    len: usize,
}

impl QRowLut {
    /// Builds the tables for one query row.
    #[must_use]
    pub fn new(q: &[i8]) -> Self {
        let tables = q
            .chunks(8)
            .map(|chunk| {
                let mut table = [0i32; 256];
                for mask in 1usize..256 {
                    let low_bit = mask.trailing_zeros() as usize;
                    let rest = mask & (mask - 1);
                    let q_val = chunk.get(low_bit).map_or(0, |&v| i32::from(v));
                    table[mask] = table[rest] + q_val;
                }
                table
            })
            .collect();
        Self { tables, len: q.len() }
    }

    /// Query width the tables were built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-width query row.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `Σ_{bit_i=1} q_i` over a packed plane, via table lookups.
    ///
    /// # Panics
    ///
    /// Panics if the plane's width differs from the query row's.
    #[must_use]
    pub fn masked_sum(&self, plane: PlaneRow<'_>) -> i32 {
        assert_eq!(plane.len(), self.len, "query length must match plane length");
        let mut acc = 0i32;
        for (&word, tables) in plane.words().iter().zip(self.tables.chunks(8)) {
            for (byte, table) in word.to_le_bytes().into_iter().zip(tables) {
                acc += table[usize::from(byte)];
            }
        }
        acc
    }
}

/// Table-driven variant of [`plane_contribution`]: numerically identical
/// (same integer sums, same mode selection), but the accumulation runs
/// through [`QRowLut::masked_sum`] instead of a per-bit scan. The engine's
/// hot loop uses this; [`plane_contribution`] stays as the oracle.
///
/// A weighted `popcount(q_plane & k_plane)` kernel lost to it on every
/// repository workload: the default x86-64 target has no hardware
/// `popcnt`, so one byte lookup beats one software popcount per query
/// plane, and a single decode row never amortizes the query's bit
/// decomposition.
///
/// # Panics
///
/// Panics if the plane's width differs from the LUT's query width.
#[must_use]
pub fn plane_contribution_lut(
    lut: &QRowLut,
    plane: PlaneRow<'_>,
    r: u32,
    bits: u32,
    bidirectional: bool,
) -> PlaneContribution {
    let w = i64::from(plane_weight(r, bits));
    let ones = plane.count_ones();
    let zeros = plane.count_zeros();
    let value = w * i64::from(lut.masked_sum(plane));
    if bidirectional && zeros < ones {
        PlaneContribution { value, selected: zeros, mode: BsMode::Zeros }
    } else {
        PlaneContribution { value, selected: ones, mode: BsMode::Ones }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pade_quant::BitPlaneMatrix;
    use proptest::prelude::*;

    /// One token of 0/1 values at 2 bits: plane 1 (the LSB) holds `bits`.
    fn lsb_plane(bits: impl IntoIterator<Item = bool>) -> BitPlaneMatrix {
        let values: Vec<i8> = bits.into_iter().map(i8::from).collect();
        BitPlaneMatrix::from_rows(&values, values.len(), 2).unwrap()
    }

    #[test]
    fn bs_bounds_selection_at_half() {
        let q: Vec<i8> = (0..64).map(|i| (i % 11) as i8 - 5).collect();
        let qs = q_sum(&q);
        for fill in 0..=64usize {
            let keys = lsb_plane((0..64).map(|i| i < fill));
            let c = plane_contribution(&q, keys.token(0).plane(1), 3, 8, qs, true);
            assert!(c.selected <= 32, "fill {fill}: selected {}", c.selected);
        }
    }

    #[test]
    fn naive_mode_selects_all_ones() {
        let q: Vec<i8> = vec![1; 8];
        let keys = lsb_plane([true; 8]);
        let plane = keys.token(0).plane(1);
        let c = plane_contribution(&q, plane, 1, 8, 8, false);
        assert_eq!(c.selected, 8);
        assert_eq!(c.mode, BsMode::Ones);
        let c_bs = plane_contribution(&q, plane, 1, 8, 8, true);
        assert_eq!(c_bs.selected, 0);
        assert_eq!(c_bs.value, c.value);
    }

    #[test]
    fn sign_plane_weight_is_negative() {
        let q: [i8; 2] = [3, 3];
        let keys = lsb_plane([true, false]);
        let c = plane_contribution(&q, keys.token(0).plane(1), 0, 8, 6, true);
        assert_eq!(c.value, -128 * 3);
    }

    #[test]
    fn lut_masked_sum_handles_ragged_widths() {
        for len in [1usize, 7, 8, 9, 63, 64, 65, 130] {
            let q: Vec<i8> = (0..len).map(|i| (i as i8).wrapping_mul(37)).collect();
            let lut = QRowLut::new(&q);
            let keys = lsb_plane((0..len).map(|i| i % 3 != 1));
            let plane = keys.token(0).plane(1);
            assert_eq!(lut.masked_sum(plane), plane.masked_sum(&q), "len {len}");
        }
    }

    proptest! {
        #[test]
        fn prop_lut_contribution_matches_oracle(
            q in proptest::collection::vec(any::<i8>(), 1..150),
            seed in any::<u64>(),
            r_seed in any::<u64>(),
            kbits_idx in 0usize..4,
            bidirectional in any::<bool>(),
        ) {
            // Key widths sweep 2..=8; the plane index is reduced mod width.
            let kbits = [2u32, 4, 7, 8][kbits_idx];
            let r = (r_seed % u64::from(kbits)) as u32;
            let lo = -(1i32 << (kbits - 1));
            let hi = (1i32 << (kbits - 1)) - 1;
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| {
                    let h = seed.wrapping_add((i as u64).wrapping_mul(0xD6E8FEB86659FD93));
                    (lo + ((h >> 17) as i32).rem_euclid(hi - lo + 1)) as i8
                })
                .collect();
            let keys = BitPlaneMatrix::from_rows(&k, k.len(), kbits).unwrap();
            let planes = keys.token(0);
            let lut = QRowLut::new(&q);
            let qs = q_sum(&q);
            let oracle = plane_contribution(&q, planes.plane(r), r, kbits, qs, bidirectional);
            let fast = plane_contribution_lut(&lut, planes.plane(r), r, kbits, bidirectional);
            prop_assert_eq!(oracle, fast);
        }

        #[test]
        fn prop_lut_masked_sum_at_word_boundaries(
            base in 0usize..3,
            tail_idx in 0usize..3,
            seed in any::<u64>(),
        ) {
            // len % 64 ∈ {0, 1, 63}: empty, minimal and nearly-full tail words.
            let len = (base * 64 + [0usize, 1, 63][tail_idx]).max(1);
            let q: Vec<i8> = (0..len)
                .map(|i| (seed.wrapping_mul(i as u64 + 11) >> 23) as u8 as i8)
                .collect();
            let k: Vec<i8> = (0..len)
                .map(|i| (seed.wrapping_mul(i as u64 + 29) >> 31) as u8 as i8)
                .collect();
            let keys = BitPlaneMatrix::from_rows(&k, k.len(), 8).unwrap();
            let planes = keys.token(0);
            let lut = QRowLut::new(&q);
            for r in 0..8u32 {
                let plane = planes.plane(r);
                prop_assert_eq!(lut.masked_sum(plane), plane.masked_sum(&q));
            }
        }

        #[test]
        fn prop_bs_equals_direct_form(
            q in proptest::collection::vec(any::<i8>(), 1..128),
            seed in any::<u64>(),
            r in 0u32..8,
        ) {
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| {
                    let h = seed.wrapping_add((i as u64).wrapping_mul(0xD6E8FEB86659FD93));
                    (h >> 17) as u8 as i8
                })
                .collect();
            let keys = BitPlaneMatrix::from_rows(&k, k.len(), 8).unwrap();
            let planes = keys.token(0);
            let qs = q_sum(&q);
            let direct = plane_contribution(&q, planes.plane(r), r, 8, qs, false);
            let bs = plane_contribution(&q, planes.plane(r), r, 8, qs, true);
            prop_assert_eq!(direct.value, bs.value, "Eq. 6 must be value-preserving");
            prop_assert!(bs.selected <= (q.len() as u32).div_ceil(2),
                "BS must bound selection at 50%: {} of {}", bs.selected, q.len());
            prop_assert!(bs.selected <= direct.selected.max(q.len() as u32 - direct.selected));
        }

        #[test]
        fn prop_accumulating_all_planes_is_exact(
            q in proptest::collection::vec(any::<i8>(), 1..64),
            seed in any::<u64>(),
        ) {
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| {
                    let h = seed.wrapping_mul(0xA24BAED4963EE407)
                        .wrapping_add((i as u64).wrapping_mul(0x9FB21C651E98DF25));
                    (h >> 40) as u8 as i8
                })
                .collect();
            let keys = BitPlaneMatrix::from_rows(&k, k.len(), 8).unwrap();
            let planes = keys.token(0);
            let qs = q_sum(&q);
            let total: i64 = (0..8u32)
                .map(|r| plane_contribution(&q, planes.plane(r), r, 8, qs, true).value)
                .sum();
            let exact: i64 = q.iter().zip(&k).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum();
            prop_assert_eq!(total, exact);
        }
    }
}
