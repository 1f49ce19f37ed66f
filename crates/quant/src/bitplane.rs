//! Two's-complement bit-plane decomposition.
//!
//! A `p`-bit two's-complement integer satisfies
//! `x = -b_{p-1}·2^{p-1} + Σ_{i=0}^{p-2} b_i·2^i` (Eq. 2 of the paper).
//! PADE streams key vectors one *bit plane* at a time, MSB first: round
//! `r = 0` delivers the sign plane, round `r = p-1` the LSB plane. Because
//! every plane except the sign plane contributes non-negatively, once the
//! first `r+1` planes are known the still-missing contribution of each
//! element lies in `[0, U_r]` with `U_r = 2^{p-1-r} - 1` — the foundation of
//! the Bit-wise Uncertainty Interval.

use crate::QuantError;

/// Signed weight of bit-plane `r` (MSB-first) for a `bits`-wide integer.
///
/// Round 0 is the sign plane with weight `-2^(bits-1)`; round `r ≥ 1` has
/// weight `2^(bits-1-r)`.
///
/// # Panics
///
/// Panics if `r >= bits`.
///
/// # Example
///
/// ```
/// assert_eq!(pade_quant::plane_weight(0, 8), -128);
/// assert_eq!(pade_quant::plane_weight(7, 8), 1);
/// ```
#[must_use]
pub fn plane_weight(r: u32, bits: u32) -> i32 {
    assert!(r < bits, "plane {r} out of range for {bits}-bit values");
    if r == 0 {
        -(1i32 << (bits - 1))
    } else {
        1i32 << (bits - 1 - r)
    }
}

/// Maximum total contribution of the planes still unknown after round `r`
/// (planes `r+1 .. bits`), i.e. `U_r = 2^(bits-1-r) - 1`.
///
/// All unknown planes carry non-negative weight, so each element's missing
/// contribution lies in `[0, uncertainty_span(r, bits)]`.
///
/// # Panics
///
/// Panics if `r >= bits`.
///
/// # Example
///
/// ```
/// // After only the sign plane of an 8-bit value, 127 is still in play.
/// assert_eq!(pade_quant::uncertainty_span(0, 8), 127);
/// // After the LSB nothing is unknown.
/// assert_eq!(pade_quant::uncertainty_span(7, 8), 0);
/// ```
#[must_use]
pub fn uncertainty_span(r: u32, bits: u32) -> i32 {
    assert!(r < bits, "plane {r} out of range for {bits}-bit values");
    (1i32 << (bits - 1 - r)) - 1
}

/// One bit plane of one token vector: a packed bitvector over the hidden
/// dimension, borrowed from the [`BitPlaneMatrix`] that stores it.
///
/// Bit `i` is set when dimension `i` of the token has a `1` in this plane.
/// A view is `Copy`: kernels take it by value, and reading a plane never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneRow<'a> {
    words: &'a [u64],
    len: usize,
    /// Counts cached by the owning matrix so mode choices and GSAT timing
    /// never re-scan the packed words. Derived from `words`, so the
    /// derived `PartialEq` stays consistent.
    meta: PlaneMeta,
}

/// The counts a [`BitPlaneMatrix`] caches per plane, computed once when
/// the plane enters the store. Two `u16`s keep the per-plane metadata at 4
/// bytes, which is why a matrix holds at most [`BitPlaneMatrix::MAX_DIMS`]
/// dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlaneMeta {
    /// Set bits in the plane.
    ones: u16,
    /// Bits per-sub-group bidirectional selection accumulates with
    /// byte-wide sub-groups: see [`PlaneRow::bs_selected`].
    bs_selected: u16,
}

impl PlaneMeta {
    /// Counts one plane's `⌈dims/64⌉` words (bits past `dims` are zero).
    fn of(plane: &[u64], dims: usize) -> Self {
        let ones: u32 = plane.iter().map(|w| w.count_ones()).sum();
        let mut bs_selected: u32 = plane.iter().map(|&w| byte_min_ones_zeros(w)).sum();
        let tail = (dims % 8) as u32;
        if tail != 0 {
            // The last sub-group holds only `tail` bits: the sweep above
            // counted it as a full byte.
            let byte = dims / 8;
            let ones = ((plane[byte / 8] >> (8 * (byte % 8))) & 0xFF).count_ones();
            bs_selected = bs_selected - ones.min(8 - ones) + ones.min(tail - ones);
        }
        // Both counts are at most `dims`, which construction caps at u16.
        Self { ones: ones as u16, bs_selected: bs_selected as u16 }
    }
}

/// Σ over the eight bytes of `word` of `min(ones, 8 − ones)`: one SWAR
/// byte-popcount, then a per-byte minimum.
fn byte_min_ones_zeros(word: u64) -> u32 {
    const LSB: u64 = 0x0101_0101_0101_0101;
    const MSB: u64 = 0x8080_8080_8080_8080;
    let pairs = word - ((word >> 1) & (0x55 * LSB));
    let nibbles = (pairs & (0x33 * LSB)) + ((pairs >> 2) & (0x33 * LSB));
    let ones = (nibbles + (nibbles >> 4)) & (0x0F * LSB);
    let zeros = 8 * LSB - ones;
    // The high bit of `(zeros | 0x80) - ones` is set where zeros >= ones.
    let keep_ones = ((((zeros | MSB) - ones) & MSB) >> 7) * 0xFF;
    let min = (ones & keep_ones) | (zeros & !keep_ones);
    (min.wrapping_mul(LSB) >> 56) as u32
}

impl<'a> PlaneRow<'a> {
    /// Number of dimensions covered by this plane.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the plane covers zero dimensions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds ({} dims)", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits (`1`s) in the plane. Cached by the owning
    /// matrix — `O(1)`, never re-scans the packed words.
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        u32::from(self.meta.ones)
    }

    /// Bits that per-sub-group bidirectional selection accumulates when
    /// the sub-groups are the plane's bytes (the Table III GSAT shape):
    /// `Σ min(ones, present − ones)` over byte-aligned groups, where
    /// `present` is 8 except in a ragged last byte. Cached by the owning
    /// matrix — `O(1)`, never re-scans the packed words.
    #[must_use]
    pub fn bs_selected(&self) -> u32 {
        u32::from(self.meta.bs_selected)
    }

    /// Number of clear bits (`0`s) in the plane.
    #[must_use]
    pub fn count_zeros(&self) -> u32 {
        self.len as u32 - self.count_ones()
    }

    /// Iterates over the indices of set bits.
    pub fn iter_ones(self) -> impl Iterator<Item = usize> + 'a {
        (0..self.len).filter(move |&i| self.bit(i))
    }

    /// Dot product of this plane against a query row: `Σ_{bit_i=1} q_i`
    /// (unweighted; the caller applies [`plane_weight`]).
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != self.len()`.
    #[must_use]
    pub fn masked_sum(&self, q: &[i8]) -> i32 {
        assert_eq!(q.len(), self.len, "query length must match plane length");
        let mut acc = 0i32;
        for (w, chunk) in self.words.iter().zip(q.chunks(64)) {
            let mut bits = *w;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                acc += i32::from(chunk[i]);
                bits &= bits - 1;
            }
        }
        acc
    }

    /// The packed 64-bit words backing the plane (bit `i` of the plane is
    /// bit `i % 64` of word `i / 64`; bits past [`PlaneRow::len`] are
    /// zero). Exposed so hot kernels can use word-level popcounts and
    /// table lookups instead of per-bit [`PlaneRow::bit`] calls.
    #[must_use]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Number of set bits within positions `[start, end)` (clipped to the
    /// plane length) — the word-level form of counting [`PlaneRow::bit`]
    /// hits over a range.
    #[must_use]
    pub fn count_ones_in_range(&self, start: usize, end: usize) -> u32 {
        let end = end.min(self.len);
        if start >= end {
            return 0;
        }
        let mut count = 0u32;
        let mut pos = start;
        while pos < end {
            let word = self.words[pos / 64];
            let offset = pos % 64;
            let take = (64 - offset).min(end - pos);
            let mask = if take == 64 { !0u64 } else { ((1u64 << take) - 1) << offset };
            count += (word & mask).count_ones();
            pos += take;
        }
        count
    }
}

/// All bit planes of one token vector, MSB first, borrowed from the
/// [`BitPlaneMatrix`] that stores them.
///
/// # Example
///
/// ```
/// use pade_quant::BitPlaneMatrix;
///
/// let keys = BitPlaneMatrix::from_rows(&[5, -5], 2, 8).unwrap();
/// let planes = keys.token(0);
/// assert_eq!(planes.reconstruct(), vec![5, -5]);
/// // Sign plane of -5 is set, of +5 is clear.
/// assert!(!planes.plane(0).bit(0));
/// assert!(planes.plane(0).bit(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenPlanes<'a> {
    /// The token's `bits × ⌈dims/64⌉` words, plane by plane.
    words: &'a [u64],
    /// Cached counts of each plane.
    meta: &'a [PlaneMeta],
    bits: u32,
    dims: usize,
}

impl<'a> TokenPlanes<'a> {
    /// Bit width of the decomposed values.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of hidden dimensions.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Plane `r` (0 = sign plane).
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.bits()`.
    #[must_use]
    pub fn plane(&self, r: u32) -> PlaneRow<'a> {
        let r = r as usize;
        let n = self.dims.div_ceil(64);
        PlaneRow { words: &self.words[r * n..(r + 1) * n], len: self.dims, meta: self.meta[r] }
    }

    /// Reassembles the original integers from the planes — the identity of
    /// Eq. 2, used as the crate's primary self-check.
    #[must_use]
    pub fn reconstruct(&self) -> Vec<i32> {
        let mut out = vec![0i32; self.dims];
        for r in 0..self.bits {
            let w = plane_weight(r, self.bits);
            for i in self.plane(r).iter_ones() {
                out[i] += w;
            }
        }
        out
    }
}

/// Bit planes for a whole key matrix (`tokens × dims`), MSB first.
///
/// This is the DRAM-resident form of the key tensor in PADE: plane `r` of
/// token `j` is an independently addressable memory object at a fixed
/// offset (the paper's bit-plane-interleaved layout, Fig. 22). The host
/// store has the same shape: one token-major word array — token, then
/// plane, then the plane's `⌈dims/64⌉` words, which is also the wire
/// layout — plus 4 bytes of cached counts per plane (its ones count and
/// its [`PlaneRow::bs_selected`] count). [`TokenPlanes`] and [`PlaneRow`]
/// are views into it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlaneMatrix {
    words: Vec<u64>,
    /// Cached counts of each plane, index `token · bits + plane`.
    meta: Vec<PlaneMeta>,
    bits: u32,
    dims: usize,
}

impl BitPlaneMatrix {
    /// Widest supported token: the cached per-plane counts are `u16`.
    pub const MAX_DIMS: usize = u16::MAX as usize;

    /// Checks a width and a dimension count every constructor accepts.
    ///
    /// # Errors
    ///
    /// [`QuantError::UnsupportedWidth`] for a width outside `2..=8`, and
    /// [`QuantError::DimensionMismatch`] for `dims` of 0 or past
    /// [`BitPlaneMatrix::MAX_DIMS`].
    pub(crate) fn check_shape(dims: usize, bits: u32) -> Result<(), QuantError> {
        if !(2..=8).contains(&bits) {
            return Err(QuantError::UnsupportedWidth { bits });
        }
        match dims {
            0 => Err(QuantError::DimensionMismatch { expected: 1, actual: 0 }),
            d if d > Self::MAX_DIMS => {
                Err(QuantError::DimensionMismatch { expected: Self::MAX_DIMS, actual: d })
            }
            _ => Ok(()),
        }
    }

    /// An empty matrix with room for `tokens` tokens. The shape is the
    /// caller's to validate with [`BitPlaneMatrix::check_shape`].
    pub(crate) fn with_capacity(dims: usize, bits: u32, tokens: usize) -> Self {
        let mut m = Self { words: Vec::new(), meta: Vec::new(), bits, dims };
        m.reserve_exact(tokens);
        m
    }

    /// Reserves room for exactly `tokens` more tokens.
    pub(crate) fn reserve_exact(&mut self, tokens: usize) {
        self.words.reserve_exact(tokens * self.token_words());
        self.meta.reserve_exact(tokens * self.bits as usize);
    }

    /// Appends every token of `other`, which has this matrix's shape.
    pub(crate) fn extend_from(&mut self, other: &Self) {
        debug_assert_eq!((self.dims, self.bits), (other.dims, other.bits));
        self.words.extend_from_slice(&other.words);
        self.meta.extend_from_slice(&other.meta);
    }

    /// Words per token: `bits` planes of `⌈dims/64⌉` words.
    fn token_words(&self) -> usize {
        self.bits as usize * self.dims.div_ceil(64)
    }

    /// Decomposes every row of a row-major integer matrix.
    ///
    /// Values are interpreted in `bits`-wide two's complement; they must fit
    /// (this holds by construction for codes produced by
    /// [`QuantParams`](crate::QuantParams) of the same width).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DimensionMismatch`] when `data.len()` is not a
    /// multiple of `dims` or `dims` exceeds [`BitPlaneMatrix::MAX_DIMS`],
    /// or [`QuantError::UnsupportedWidth`] for a width outside `2..=8`.
    ///
    /// # Panics
    ///
    /// Panics if a value does not fit in `bits` two's-complement bits (a
    /// caller contract violation rather than a data-dependent condition).
    pub fn from_rows(data: &[i8], dims: usize, bits: u32) -> Result<Self, QuantError> {
        Self::check_shape(dims.max(1), bits)?;
        if dims == 0 || !data.len().is_multiple_of(dims) {
            return Err(QuantError::DimensionMismatch {
                expected: dims.max(1),
                actual: data.len(),
            });
        }
        let mut m = Self::with_capacity(dims, bits, data.len() / dims);
        m.append_rows(data)?;
        Ok(m)
    }

    /// Adopts already-packed plane words in the token-major layout of
    /// [`BitPlaneMatrix::words`] — the inverse of that accessor, used by
    /// the spill tier and the cache image to re-adopt serialized planes
    /// without re-decomposing any values. The cached counts are recomputed
    /// from the words, so a round trip is `==`-identical.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedWidth`] for a width outside `2..=8`
    /// and [`QuantError::DimensionMismatch`] for `dims` of 0 or past
    /// [`BitPlaneMatrix::MAX_DIMS`], a word count that is not a whole
    /// number of tokens, or a set padding bit past `dims` in any plane
    /// (tail garbage would corrupt word-level kernels).
    pub fn from_plane_words(words: Vec<u64>, dims: usize, bits: u32) -> Result<Self, QuantError> {
        Self::check_shape(dims, bits)?;
        let per_plane = dims.div_ceil(64);
        let per_token = bits as usize * per_plane;
        if !words.len().is_multiple_of(per_token) {
            return Err(QuantError::DimensionMismatch { expected: per_token, actual: words.len() });
        }
        let padding = padding_mask(dims);
        if words.chunks(per_plane).any(|plane| plane[per_plane - 1] & padding != 0) {
            return Err(QuantError::DimensionMismatch { expected: dims, actual: dims + 1 });
        }
        let meta = words.chunks(per_plane).map(|plane| PlaneMeta::of(plane, dims)).collect();
        Ok(Self { meta, words, bits, dims })
    }

    /// Decomposes and appends more token rows in place. Existing tokens are
    /// untouched — indices of already-stored tokens never change.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::DimensionMismatch`] when `data.len()` is not a
    /// multiple of this matrix's `dims` (no rows are appended in that case).
    ///
    /// # Panics
    ///
    /// Panics if a value does not fit in the matrix's width.
    pub fn append_rows(&mut self, data: &[i8]) -> Result<(), QuantError> {
        if !data.len().is_multiple_of(self.dims) {
            return Err(QuantError::DimensionMismatch { expected: self.dims, actual: data.len() });
        }
        let tokens = data.len() / self.dims;
        self.words.reserve(tokens * self.token_words());
        self.meta.reserve(tokens * self.bits as usize);
        for row in data.chunks(self.dims) {
            self.push_row(row);
        }
        Ok(())
    }

    /// Decomposes one `dims`-wide row into `bits` MSB-first planes at the
    /// end of the store.
    fn push_row(&mut self, values: &[i8]) {
        let bits = self.bits;
        let lo = -(1i32 << (bits - 1));
        let hi = (1i32 << (bits - 1)) - 1;
        for &v in values {
            assert!(
                (lo..=hi).contains(&i32::from(v)),
                "value {v} does not fit in {bits}-bit two's complement"
            );
        }
        // Since each value fits in `bits` bits, the low `bits` bits of its i8
        // representation are exactly its two's-complement pattern. Eight
        // values at a time are loaded as one little-endian word; bit `b` of
        // each byte is isolated and the multiply gathers byte `k`'s bit
        // into bit `56 + k` (the partial products never overlap or carry).
        const LSB: u64 = 0x0101_0101_0101_0101;
        const GATHER: u64 = 0x0102_0408_1020_4080;
        let per_plane = self.dims.div_ceil(64);
        let start = self.words.len();
        self.words.resize(start + self.token_words(), 0);
        let planes = &mut self.words[start..];
        for (w, chunk) in values.chunks(64).enumerate() {
            for (c, eight) in chunk.chunks(8).enumerate() {
                let mut bytes = [0u8; 8];
                for (dst, &v) in bytes.iter_mut().zip(eight) {
                    *dst = v as u8;
                }
                let packed = u64::from_le_bytes(bytes);
                for (r, plane) in planes.chunks_mut(per_plane).enumerate() {
                    let lane_bits = (packed >> (bits as usize - 1 - r)) & LSB;
                    plane[w] |= (lane_bits.wrapping_mul(GATHER) >> 56) << (8 * c);
                }
            }
        }
        for plane in planes.chunks(per_plane) {
            debug_assert_eq!(plane[per_plane - 1] & padding_mask(self.dims), 0);
            self.meta.push(PlaneMeta::of(plane, self.dims));
        }
    }

    /// Number of tokens (rows).
    #[must_use]
    pub fn tokens(&self) -> usize {
        self.meta.len() / self.bits as usize
    }

    /// Number of hidden dimensions per token.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Bit width of the decomposition.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// All planes of token `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.tokens()`.
    #[must_use]
    pub fn token(&self, j: usize) -> TokenPlanes<'_> {
        let n = self.token_words();
        let b = self.bits as usize;
        TokenPlanes {
            words: &self.words[j * n..(j + 1) * n],
            meta: &self.meta[j * b..(j + 1) * b],
            bits: self.bits,
            dims: self.dims,
        }
    }

    /// The whole store: for every token, every plane MSB first, the
    /// plane's `⌈dims/64⌉` packed words (bits past `dims` are zero). This
    /// is the wire layout [`BitPlaneMatrix::from_plane_words`] reads back.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Bytes occupied by a single bit plane of a single token, rounded up to
    /// whole bytes (what one OOE bit-plane fetch transfers).
    #[must_use]
    pub fn plane_bytes(&self) -> usize {
        self.dims.div_ceil(8)
    }

    /// Bytes of packed plane words held by this matrix — what a cache
    /// manager bills for keeping the decomposed tensor resident: `bits`
    /// planes of `⌈dims/64⌉` words per token. The cached counts (4 bytes
    /// per plane) are not billed.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.words.as_slice())
    }
}

/// The padding bits past `dims` in a plane's last word.
fn padding_mask(dims: usize) -> u64 {
    match dims % 64 {
        0 => 0,
        tail => !((1u64 << tail) - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One token of 0/1 values at 2 bits: plane 1 (the LSB) holds `bits`.
    fn lsb_plane(bits: &[bool]) -> BitPlaneMatrix {
        let values: Vec<i8> = bits.iter().map(|&b| i8::from(b)).collect();
        BitPlaneMatrix::from_rows(&values, values.len(), 2).unwrap()
    }

    #[test]
    fn plane_weights_sum_to_minus_one() {
        // All-ones pattern is -1 in two's complement.
        let total: i32 = (0..8).map(|r| plane_weight(r, 8)).sum();
        assert_eq!(total, -1);
        let total4: i32 = (0..4).map(|r| plane_weight(r, 4)).sum();
        assert_eq!(total4, -1);
    }

    #[test]
    fn uncertainty_span_matches_remaining_weights() {
        for bits in 2..=8u32 {
            for r in 0..bits {
                let remaining: i32 = (r + 1..bits).map(|i| plane_weight(i, bits)).sum();
                assert_eq!(uncertainty_span(r, bits), remaining);
            }
        }
    }

    #[test]
    fn paper_fig5a_example_msb_speculation() {
        // Fig. 5(a): 4-bit MSB-only speculation of (+5)*(+5) + (+5)*(-5).
        // MSB plane of 0101 (+5) is 0 -> conservative value 0; MSB plane of
        // 1011 (-5) is 1 -> conservative value -8. Estimated: 5*0 + 5*(-8) = -40.
        let keys = BitPlaneMatrix::from_rows(&[5, -5], 2, 4).unwrap();
        let k = keys.token(0);
        let est = plane_weight(0, 4) * k.plane(0).masked_sum(&[5, 5]);
        assert_eq!(est, -40);
        // True result is 0; with all planes the reconstruction is exact.
        let q = [5i32, 5];
        let truth: i32 = k.reconstruct().iter().zip(q.iter()).map(|(a, b)| a * b).sum();
        assert_eq!(truth, 0);
    }

    #[test]
    fn masked_sum_counts_selected_queries() {
        let keys = lsb_plane(&[true, false, true, true]);
        let plane = keys.token(0).plane(1);
        assert_eq!(plane.masked_sum(&[1, 2, 3, 4]), 8);
        assert_eq!(plane.count_ones(), 3);
        assert_eq!(plane.count_zeros(), 1);
    }

    #[test]
    fn plane_row_across_word_boundary() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let keys = lsb_plane(&bits);
        let plane = keys.token(0).plane(1);
        assert_eq!(plane.len(), 130);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(plane.bit(i), b, "bit {i}");
        }
        let q: Vec<i8> = (0..130).map(|i| (i % 7) as i8 - 3).collect();
        let expect: i32 =
            bits.iter().zip(&q).filter(|(b, _)| **b).map(|(_, &v)| i32::from(v)).sum();
        assert_eq!(plane.masked_sum(&q), expect);
    }

    #[test]
    fn matrix_round_trip() {
        let data: Vec<i8> = vec![6, -5, 9, -4, 127, -128, 0, 1];
        let m = BitPlaneMatrix::from_rows(&data, 4, 8).unwrap();
        assert_eq!(m.tokens(), 2);
        assert_eq!(m.plane_bytes(), 1);
        let rec: Vec<i32> = (0..2).flat_map(|j| m.token(j).reconstruct()).collect();
        assert_eq!(rec, data.iter().map(|&v| i32::from(v)).collect::<Vec<_>>());
    }

    #[test]
    fn matrix_rejects_ragged_data() {
        assert!(BitPlaneMatrix::from_rows(&[1, 2, 3], 2, 8).is_err());
        assert!(BitPlaneMatrix::from_rows(&[1, 2], 0, 8).is_err());
    }

    #[test]
    fn from_plane_words_rejects_bad_shapes() {
        // Not a whole number of tokens (2 planes × 1 word each).
        assert!(BitPlaneMatrix::from_plane_words(vec![0u64; 3], 64, 2).is_err());
        // Bad width or zero dims.
        assert!(BitPlaneMatrix::from_plane_words(vec![0u64; 2], 64, 1).is_err());
        assert!(BitPlaneMatrix::from_plane_words(vec![0u64; 9], 64, 9).is_err());
        assert!(BitPlaneMatrix::from_plane_words(Vec::new(), 0, 2).is_err());
        // Tail garbage past dims, in the first or the second plane.
        assert!(BitPlaneMatrix::from_plane_words(vec![0b100, 0], 2, 2).is_err());
        assert!(BitPlaneMatrix::from_plane_words(vec![0, 0b100], 2, 2).is_err());
        // Exact fits adopt the words and recount the ones.
        let m = BitPlaneMatrix::from_plane_words(vec![0b011, 0b001], 2, 2).unwrap();
        assert_eq!((m.tokens(), m.token(0).plane(0).count_ones()), (1, 2));
        assert_eq!(m.token(0).reconstruct(), vec![-1, -2]);
        assert_eq!(BitPlaneMatrix::from_plane_words(Vec::new(), 2, 2).unwrap().tokens(), 0);
    }

    proptest! {
        #[test]
        fn prop_words_round_trip_is_identical(
            values in proptest::collection::vec(any::<i8>(), 1..200),
            bits in 2u32..=8,
        ) {
            // Fold the full i8 range into the width (arithmetic shift keeps
            // two's-complement semantics), decompose, then rebuild the
            // matrix from its serialized words alone.
            let narrowed: Vec<i8> = values.iter().map(|&v| v >> (8 - bits)).collect();
            let m = BitPlaneMatrix::from_rows(&narrowed, narrowed.len(), bits).unwrap();
            let rebuilt = BitPlaneMatrix::from_plane_words(m.words().to_vec(), m.dims(), bits)
                .unwrap();
            prop_assert_eq!(&rebuilt, &m);
            prop_assert_eq!(rebuilt.token(0).reconstruct(), m.token(0).reconstruct());
        }

        #[test]
        fn prop_packed_planes_match_per_bit_build(
            values in proptest::collection::vec(any::<i8>(), 1..=200),
            bits in 2u32..=8,
        ) {
            // Every width and every tail shape (dims % 64 and dims % 8 of
            // any size): the word-packed decomposition must hold each
            // value's bits, cached popcount included, and clear padding.
            let narrowed: Vec<i8> = values.iter().map(|&v| v >> (8 - bits)).collect();
            let m = BitPlaneMatrix::from_rows(&narrowed, narrowed.len(), bits).unwrap();
            for r in 0..bits {
                let plane = m.token(0).plane(r);
                let per_bit: Vec<bool> = narrowed
                    .iter()
                    .map(|&v| (u32::from(v as u8) >> (bits - 1 - r)) & 1 == 1)
                    .collect();
                for (i, &b) in per_bit.iter().enumerate() {
                    prop_assert_eq!(plane.bit(i), b, "plane {} of {}, bit {}", r, bits, i);
                }
                let ones = per_bit.iter().filter(|&&b| b).count() as u32;
                prop_assert_eq!(plane.count_ones(), ones);
                let last = plane.words()[plane.words().len() - 1];
                prop_assert_eq!(last & padding_mask(plane.len()), 0);
            }
        }

        #[test]
        fn prop_reconstruction_is_exact_int8(values in proptest::collection::vec(any::<i8>(), 1..200)) {
            let m = BitPlaneMatrix::from_rows(&values, values.len(), 8).unwrap();
            let rec = m.token(0).reconstruct();
            prop_assert_eq!(rec, values.iter().map(|&v| i32::from(v)).collect::<Vec<_>>());
        }

        #[test]
        fn prop_reconstruction_is_exact_int4(values in proptest::collection::vec(-8i8..=7, 1..100)) {
            let m = BitPlaneMatrix::from_rows(&values, values.len(), 4).unwrap();
            let rec = m.token(0).reconstruct();
            prop_assert_eq!(rec, values.iter().map(|&v| i32::from(v)).collect::<Vec<_>>());
        }

        #[test]
        fn prop_partial_scores_converge_msb_first(
            q in proptest::collection::vec(any::<i8>(), 1..64),
            seed in any::<u64>(),
        ) {
            // Partial score after all planes equals the exact dot product.
            let k: Vec<i8> = q.iter().enumerate()
                .map(|(i, _)| ((seed.wrapping_mul(i as u64 + 1).wrapping_add(i as u64 * 7919)) % 256) as u8 as i8)
                .collect();
            let m = BitPlaneMatrix::from_rows(&k, k.len(), 8).unwrap();
            let exact: i32 = q.iter().zip(&k).map(|(&a, &b)| i32::from(a) * i32::from(b)).sum();
            let mut partial = 0i32;
            for r in 0..8u32 {
                partial += plane_weight(r, 8) * m.token(0).plane(r).masked_sum(&q);
            }
            prop_assert_eq!(partial, exact);
        }

        #[test]
        fn prop_tail_bits_past_len_are_always_zero(
            seed in any::<u64>(),
            base in 0usize..4,
            tail_idx in 0usize..3,
        ) {
            // Shapes with len % 64 ∈ {0, 1, 63} exercise full, minimal and
            // nearly-full tail words.
            let len = (base * 64 + [0usize, 1, 63][tail_idx]).max(1);
            let bits: Vec<bool> =
                (0..len).map(|i| seed.wrapping_mul(i as u64 + 1).wrapping_add(i as u64).is_multiple_of(3)).collect();
            let keys = lsb_plane(&bits);
            let plane = keys.token(0).plane(1);
            prop_assert_eq!(plane.words()[plane.words().len() - 1] & padding_mask(len), 0);
            let expected_ones = bits.iter().filter(|&&b| b).count() as u32;
            prop_assert_eq!(plane.count_ones(), expected_ones);
            prop_assert_eq!(plane.count_zeros(), len as u32 - expected_ones);
        }

        #[test]
        fn prop_unknown_bits_bounded_by_span(v in any::<i8>(), r in 0u32..8) {
            // The value formed by zeroing unknown planes differs from the true
            // value by at most U_r, and never exceeds it.
            let m = BitPlaneMatrix::from_rows(&[v], 1, 8).unwrap();
            let mut known = 0i32;
            for p in 0..=r {
                if m.token(0).plane(p).bit(0) {
                    known += plane_weight(p, 8);
                }
            }
            let diff = i32::from(v) - known;
            prop_assert!(diff >= 0);
            prop_assert!(diff <= uncertainty_span(r, 8));
        }
    }
}
