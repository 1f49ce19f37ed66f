//! Multi-bit (digit-serial) plane decomposition — the paper's future-work
//! extension (§VII, direction 2).
//!
//! PADE's main configuration streams keys one *bit* plane per round. A
//! natural generalization streams `d` consecutive bit planes per round — a
//! radix-`2^d` *digit*. Fewer rounds means fewer pruning decisions and less
//! scoreboard traffic, at the cost of fetching `d` bits of every key that a
//! 1-bit design would have terminated after its first plane. `d = bits`
//! degenerates to value-level execution (one round, no early termination
//! inside the key).
//!
//! The MSB-first digit of a `p`-bit two's-complement integer with
//! `d | p` is:
//!
//! * round 0: the top `d` bits interpreted as a **signed** `d`-bit value
//!   (it contains the sign bit), weighted by `2^(p-d)`;
//! * round `r ≥ 1`: the next `d` bits interpreted **unsigned**, weighted
//!   by `2^(p-d(r+1))`.
//!
//! Only round 0 can contribute negatively, so the uncertainty structure of
//! the BUI carries over unchanged: after rounds `0..=r` the missing
//! contribution of each element lies in `[0, 2^(p-d(r+1)) − 1]` — exactly
//! the bit-plane span after plane `d(r+1) − 1`. A digit-serial BUI is
//! therefore the ordinary [`Bui`](crate::uncertainty_span) LUT sampled at
//! digit boundaries; no new uncertainty math is required.

use crate::QuantError;

/// Number of digit rounds for a `bits`-wide value at `digit_bits` per round.
///
/// # Panics
///
/// Panics if `digit_bits` is zero or does not divide `bits`.
///
/// # Example
///
/// ```
/// assert_eq!(pade_quant::digit_rounds(8, 2), 4);
/// assert_eq!(pade_quant::digit_rounds(8, 8), 1);
/// ```
#[must_use]
pub fn digit_rounds(bits: u32, digit_bits: u32) -> u32 {
    assert!(digit_bits > 0, "digit width must be positive");
    assert_eq!(bits % digit_bits, 0, "digit width {digit_bits} must divide {bits}");
    bits / digit_bits
}

/// Positional weight of digit round `r` (MSB-first): `2^(bits − d(r+1))`.
///
/// Unlike [`plane_weight`](crate::plane_weight) the sign is *inside* the
/// digit value (round 0 is signed), so the weight itself is always
/// positive.
///
/// # Panics
///
/// Panics if `digit_bits` does not divide `bits` or `r` is out of range.
///
/// # Example
///
/// ```
/// assert_eq!(pade_quant::digit_weight(0, 2, 8), 64);
/// assert_eq!(pade_quant::digit_weight(3, 2, 8), 1);
/// ```
#[must_use]
pub fn digit_weight(r: u32, digit_bits: u32, bits: u32) -> i32 {
    let rounds = digit_rounds(bits, digit_bits);
    assert!(r < rounds, "digit round {r} out of range ({rounds} rounds)");
    1i32 << (bits - digit_bits * (r + 1))
}

/// Maximum total contribution of the digits still unknown after round `r`:
/// `2^(bits − d(r+1)) − 1`, i.e. the bit-plane
/// [`uncertainty_span`](crate::uncertainty_span) at plane `d(r+1) − 1`.
///
/// # Panics
///
/// Panics if `digit_bits` does not divide `bits` or `r` is out of range.
///
/// # Example
///
/// ```
/// // After the first 2-bit digit of an 8-bit value, 63 is still in play.
/// assert_eq!(pade_quant::digit_uncertainty_span(0, 2, 8), 63);
/// assert_eq!(pade_quant::digit_uncertainty_span(3, 2, 8), 0);
/// // d = 1 coincides with the bit-plane span.
/// assert_eq!(
///     pade_quant::digit_uncertainty_span(2, 1, 8),
///     pade_quant::uncertainty_span(2, 8),
/// );
/// ```
#[must_use]
pub fn digit_uncertainty_span(r: u32, digit_bits: u32, bits: u32) -> i32 {
    let rounds = digit_rounds(bits, digit_bits);
    assert!(r < rounds, "digit round {r} out of range ({rounds} rounds)");
    (1i32 << (bits - digit_bits * (r + 1))) - 1
}

/// The bit plane index whose knowledge is equivalent to digit round `r`:
/// `d(r+1) − 1`. Useful for reusing a bit-plane BUI LUT at digit
/// granularity.
///
/// # Panics
///
/// Panics if `digit_bits` does not divide `bits` or `r` is out of range.
#[must_use]
pub fn digit_round_to_plane(r: u32, digit_bits: u32, bits: u32) -> u32 {
    let rounds = digit_rounds(bits, digit_bits);
    assert!(r < rounds, "digit round {r} out of range ({rounds} rounds)");
    digit_bits * (r + 1) - 1
}

/// One digit round of one token vector: a `digit_bits`-wide value per
/// hidden dimension.
///
/// Round 0 values are signed (`−2^(d−1) ..= 2^(d−1)−1`); later rounds are
/// unsigned (`0 ..= 2^d − 1`). Both fit an `i16`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigitRow {
    digits: Vec<i16>,
    digit_bits: u32,
    signed: bool,
}

impl DigitRow {
    /// Per-dimension digit values.
    #[must_use]
    pub fn digits(&self) -> &[i16] {
        &self.digits
    }

    /// Digit width in bits.
    #[must_use]
    pub fn digit_bits(&self) -> u32 {
        self.digit_bits
    }

    /// `true` for the sign-carrying round-0 digit.
    #[must_use]
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// Number of hidden dimensions covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.digits.len()
    }

    /// `true` when the row covers zero dimensions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.digits.is_empty()
    }

    /// Number of non-zero digits — the work a digit-skipping PE performs.
    #[must_use]
    pub fn count_nonzero(&self) -> u32 {
        self.digits.iter().filter(|&&d| d != 0).count() as u32
    }

    /// Unweighted dot product against a query row: `Σ q_j · digit_j`
    /// (the caller applies [`digit_weight`]).
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != self.len()`.
    #[must_use]
    pub fn masked_dot(&self, q: &[i8]) -> i64 {
        assert_eq!(q.len(), self.digits.len(), "query length must match digit row");
        self.digits.iter().zip(q).map(|(&d, &qv)| i64::from(d) * i64::from(qv)).sum()
    }

    /// Payload size of one digit round in bits (`d` bits per dimension).
    #[must_use]
    pub fn payload_bits(&self) -> usize {
        self.digits.len() * self.digit_bits as usize
    }
}

/// All digit rounds of one token vector, MSB first.
///
/// # Example
///
/// ```
/// use pade_quant::DigitPlanes;
///
/// let d = DigitPlanes::from_values(&[5, -5], 2, 8).unwrap();
/// assert_eq!(d.rounds(), 4);
/// assert_eq!(d.reconstruct(), vec![5, -5]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigitPlanes {
    rounds: Vec<DigitRow>,
    digit_bits: u32,
    bits: u32,
    dims: usize,
}

impl DigitPlanes {
    /// Decomposes a token vector into `bits / digit_bits` MSB-first digit
    /// rounds.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedWidth`] when `bits` is outside
    /// `2..=8` or `digit_bits` is zero / does not divide `bits`.
    ///
    /// # Panics
    ///
    /// Panics if a value does not fit `bits`-wide two's complement (a
    /// caller contract violation, as in
    /// [`BitPlaneMatrix::from_rows`](crate::BitPlaneMatrix::from_rows)).
    pub fn from_values(values: &[i8], digit_bits: u32, bits: u32) -> Result<Self, QuantError> {
        if !(2..=8).contains(&bits) || digit_bits == 0 || !bits.is_multiple_of(digit_bits) {
            return Err(QuantError::UnsupportedWidth { bits: digit_bits.max(bits) });
        }
        let lo = -(1i32 << (bits - 1));
        let hi = (1i32 << (bits - 1)) - 1;
        for &v in values {
            assert!(
                (lo..=hi).contains(&i32::from(v)),
                "value {v} does not fit in {bits}-bit two's complement"
            );
        }
        let n_rounds = bits / digit_bits;
        let mask = (1i32 << digit_bits) - 1;
        let rounds = (0..n_rounds)
            .map(|r| {
                let shift = bits - digit_bits * (r + 1);
                let digits: Vec<i16> = values
                    .iter()
                    .map(|&v| {
                        let raw = (i32::from(v) >> shift) & mask;
                        if r == 0 {
                            // Signed top digit: wrap the range into
                            // [−2^(d−1), 2^(d−1)−1].
                            let half = 1i32 << (digit_bits - 1);
                            (if raw >= half { raw - 2 * half } else { raw }) as i16
                        } else {
                            raw as i16
                        }
                    })
                    .collect();
                DigitRow { digits, digit_bits, signed: r == 0 }
            })
            .collect();
        Ok(Self { rounds, digit_bits, bits, dims: values.len() })
    }

    /// Digit width in bits.
    #[must_use]
    pub fn digit_bits(&self) -> u32 {
        self.digit_bits
    }

    /// Total operand bit width.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of digit rounds.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds.len() as u32
    }

    /// Number of hidden dimensions.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Borrow digit round `r` (0 = signed MSB digit).
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rounds()`.
    #[must_use]
    pub fn round(&self, r: u32) -> &DigitRow {
        &self.rounds[r as usize]
    }

    /// Reassembles the original integers — the digit analogue of Eq. 2,
    /// used as the module's primary self-check.
    #[must_use]
    pub fn reconstruct(&self) -> Vec<i32> {
        let mut out = vec![0i32; self.dims];
        for (r, row) in self.rounds.iter().enumerate() {
            let w = digit_weight(r as u32, self.digit_bits, self.bits);
            for (o, &d) in out.iter_mut().zip(&row.digits) {
                *o += w * i32::from(d);
            }
        }
        out
    }
}

/// Digit rounds for a whole key matrix (`tokens × dims`), MSB first — the
/// DRAM-resident form of the key tensor under multi-bit stage fusion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigitPlaneMatrix {
    tokens: Vec<DigitPlanes>,
    digit_bits: u32,
    bits: u32,
    dims: usize,
}

impl DigitPlaneMatrix {
    /// Decomposes every row of a row-major integer matrix.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DimensionMismatch`] when `data.len()` is not a
    /// multiple of `dims`, or [`QuantError::UnsupportedWidth`] for a bad
    /// width combination.
    pub fn from_rows(
        data: &[i8],
        dims: usize,
        digit_bits: u32,
        bits: u32,
    ) -> Result<Self, QuantError> {
        if dims == 0 || !data.len().is_multiple_of(dims) {
            return Err(QuantError::DimensionMismatch {
                expected: dims.max(1),
                actual: data.len(),
            });
        }
        let tokens = data
            .chunks(dims)
            .map(|row| DigitPlanes::from_values(row, digit_bits, bits))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { tokens, digit_bits, bits, dims })
    }

    /// Number of tokens (rows).
    #[must_use]
    pub fn tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Number of hidden dimensions per token.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Digit width of the decomposition.
    #[must_use]
    pub fn digit_bits(&self) -> u32 {
        self.digit_bits
    }

    /// Total operand bit width.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Digit rounds per token.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.bits / self.digit_bits
    }

    /// All digit rounds of token `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.tokens()`.
    #[must_use]
    pub fn token(&self, j: usize) -> &DigitPlanes {
        &self.tokens[j]
    }

    /// Bytes occupied by a single digit round of a single token, rounded up
    /// to whole bytes (what one digit-round fetch transfers).
    #[must_use]
    pub fn round_bytes(&self) -> usize {
        (self.dims * self.digit_bits as usize).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plane_weight, uncertainty_span, BitPlaneMatrix};
    use proptest::prelude::*;

    #[test]
    fn round_counts_and_weights() {
        assert_eq!(digit_rounds(8, 1), 8);
        assert_eq!(digit_rounds(8, 4), 2);
        assert_eq!(digit_weight(0, 4, 8), 16);
        assert_eq!(digit_weight(1, 4, 8), 1);
        assert_eq!(digit_weight(0, 8, 8), 1);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn ragged_digit_width_is_rejected() {
        let _ = digit_rounds(8, 3);
    }

    #[test]
    fn spans_match_bit_plane_spans_at_digit_boundaries() {
        for d in [1u32, 2, 4, 8] {
            for r in 0..digit_rounds(8, d) {
                assert_eq!(
                    digit_uncertainty_span(r, d, 8),
                    uncertainty_span(digit_round_to_plane(r, d, 8), 8),
                    "d={d} r={r}"
                );
            }
        }
    }

    #[test]
    fn top_digit_is_signed_rest_unsigned() {
        let d = DigitPlanes::from_values(&[-128, 127, -1, 0], 4, 8).unwrap();
        // -128 = 1000_0000 → top digit 1000 = -8, low digit 0000 = 0.
        assert_eq!(d.round(0).digits(), &[-8, 7, -1, 0]);
        assert_eq!(d.round(1).digits(), &[0, 15, 15, 0]);
        assert!(d.round(0).is_signed());
        assert!(!d.round(1).is_signed());
    }

    #[test]
    fn single_round_digit_is_the_value_itself() {
        let vals: [i8; 5] = [-128, -5, 0, 5, 127];
        let d = DigitPlanes::from_values(&vals, 8, 8).unwrap();
        assert_eq!(d.rounds(), 1);
        let digits: Vec<i16> = vals.iter().map(|&v| i16::from(v)).collect();
        assert_eq!(d.round(0).digits(), digits.as_slice());
    }

    #[test]
    fn masked_dot_is_plain_dot_of_digits() {
        let d = DigitPlanes::from_values(&[5, -5, 64], 2, 8).unwrap();
        let q: [i8; 3] = [1, 2, 3];
        // Round 0 digits of [5, -5, 64]: 5=0000_0101→00→0; -5=1111_1011→11→-1;
        // 64=0100_0000→01→1.
        assert_eq!(d.round(0).digits(), &[0, -1, 1]);
        assert_eq!(d.round(0).masked_dot(&q), 0 - 2 + 3);
    }

    #[test]
    fn matrix_round_trip_and_payloads() {
        let data: Vec<i8> = vec![6, -5, 9, -4, 127, -128, 0, 1];
        let m = DigitPlaneMatrix::from_rows(&data, 4, 2, 8).unwrap();
        assert_eq!(m.tokens(), 2);
        assert_eq!(m.rounds(), 4);
        assert_eq!(m.round_bytes(), 1);
        let rec: Vec<i32> = (0..2).flat_map(|j| m.token(j).reconstruct()).collect();
        assert_eq!(rec, data.iter().map(|&v| i32::from(v)).collect::<Vec<_>>());
    }

    #[test]
    fn matrix_rejects_bad_shapes() {
        assert!(DigitPlaneMatrix::from_rows(&[1, 2, 3], 2, 2, 8).is_err());
        assert!(DigitPlaneMatrix::from_rows(&[1, 2], 2, 3, 8).is_err());
        assert!(DigitPlaneMatrix::from_rows(&[1, 2], 0, 2, 8).is_err());
    }

    proptest! {
        #[test]
        fn prop_digit_reconstruction_is_exact(
            values in proptest::collection::vec(any::<i8>(), 1..150),
            d in prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        ) {
            let planes = DigitPlanes::from_values(&values, d, 8).unwrap();
            prop_assert_eq!(
                planes.reconstruct(),
                values.iter().map(|&v| i32::from(v)).collect::<Vec<_>>()
            );
        }

        #[test]
        fn prop_digit_partial_equals_bit_partial_at_boundaries(
            q in proptest::collection::vec(any::<i8>(), 1..64),
            seed in any::<u64>(),
            d in prop_oneof![Just(1u32), Just(2), Just(4)],
        ) {
            // The digit-serial partial after round r must equal the
            // bit-serial partial after plane d(r+1)−1: multi-bit fusion
            // changes the schedule, never the numbers.
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| {
                    let h = seed.wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add((i as u64).wrapping_mul(0xD1B54A32D192ED03));
                    (h >> 17) as u8 as i8
                })
                .collect();
            let digits = DigitPlanes::from_values(&k, d, 8).unwrap();
            let keys = BitPlaneMatrix::from_rows(&k, k.len(), 8).unwrap();
            let bits = keys.token(0);
            let mut digit_partial = 0i64;
            for r in 0..digit_rounds(8, d) {
                digit_partial += i64::from(digit_weight(r, d, 8)) * digits.round(r).masked_dot(&q);
                let plane_r = digit_round_to_plane(r, d, 8);
                let bit_partial: i64 = (0..=plane_r)
                    .map(|p| i64::from(plane_weight(p, 8)) * i64::from(bits.plane(p).masked_sum(&q)))
                    .sum();
                prop_assert_eq!(digit_partial, bit_partial, "d={} round {}", d, r);
            }
        }

        #[test]
        fn prop_full_digit_sum_is_exact_dot(
            q in proptest::collection::vec(any::<i8>(), 1..64),
            seed in any::<u64>(),
            d in prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        ) {
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| {
                    (seed.wrapping_add((i as u64).wrapping_mul(0xA24BAED4963EE407)) >> 23) as u8
                        as i8
                })
                .collect();
            let digits = DigitPlanes::from_values(&k, d, 8).unwrap();
            let exact: i64 = q.iter().zip(&k).map(|(&a, &b)| i64::from(a) * i64::from(b)).sum();
            let total: i64 = (0..digit_rounds(8, d))
                .map(|r| i64::from(digit_weight(r, d, 8)) * digits.round(r).masked_dot(&q))
                .sum();
            prop_assert_eq!(total, exact);
        }

        #[test]
        fn prop_unknown_digits_bounded_by_span(
            v in any::<i8>(),
            d in prop_oneof![Just(1u32), Just(2), Just(4)],
        ) {
            // Zeroing unknown digit rounds under-approximates by at most the
            // digit uncertainty span, never over-approximates.
            let planes = DigitPlanes::from_values(&[v], d, 8).unwrap();
            for r in 0..digit_rounds(8, d) {
                let known: i32 = (0..=r)
                    .map(|p| digit_weight(p, d, 8) * i32::from(planes.round(p).digits()[0]))
                    .sum();
                let diff = i32::from(v) - known;
                prop_assert!(diff >= 0, "d={} r={}: diff {}", d, r, diff);
                prop_assert!(diff <= digit_uncertainty_span(r, d, 8));
            }
        }
    }
}
