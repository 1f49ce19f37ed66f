//! Grouped Sparsity ANDer Tree (GSAT) — §V-D, Fig. 11(b).
//!
//! A naive selector for a 64-input bit-gated dot product needs 32 64-input
//! multiplexers. Because BS guarantees ≤50 % selected bits, PADE splits the
//! 64 inputs into eight sub-groups of eight with four sliding 5:1 muxes
//! each: a sub-group absorbs up to four selected query elements per cycle.
//! This module models the *timing* of that structure (the area/power DSE
//! lives in `pade_energy::area::gsat_cost`).

use pade_quant::PlaneRow;

use crate::bitserial::BsMode;

/// Timing model of one grouped ANDer tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gsat {
    width: usize,
    subgroup: usize,
    /// Shape divisions [`Gsat::absorb_stats`] would otherwise repeat on
    /// every plane, computed once by [`Gsat::new`].
    muxes: u32,
    total_muxes: u64,
    /// Words per pass when the shape takes the SWAR byte path (sub-groups
    /// of 8, passes of whole words), else 0.
    swar_words: usize,
}

impl Gsat {
    /// Creates a GSAT of `width` inputs split into sub-groups of
    /// `subgroup` elements (Table III: 64 / 8).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not divisible by `subgroup` or either is zero.
    #[must_use]
    pub fn new(width: usize, subgroup: usize) -> Self {
        assert!(width > 0 && subgroup > 0, "GSAT dimensions must be positive");
        assert_eq!(width % subgroup, 0, "width must be divisible by sub-group size");
        let muxes = (subgroup / 2).max(1);
        Self {
            width,
            subgroup,
            muxes: muxes as u32,
            total_muxes: (muxes * (width / subgroup)) as u64,
            swar_words: if subgroup == 8 && width.is_multiple_of(64) { width / 64 } else { 0 },
        }
    }

    /// Dot-product width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sub-group size.
    #[must_use]
    pub fn subgroup(&self) -> usize {
        self.subgroup
    }

    /// Selectors (muxes) per sub-group: `subgroup / 2`, the worst case
    /// under BS.
    #[must_use]
    pub fn muxes_per_subgroup(&self) -> usize {
        self.muxes as usize
    }

    /// Selected bits per sub-group for the `pass`-th GSAT-width slice of a
    /// plane under the given BS mode.
    ///
    /// The slice may be narrower than the GSAT (tail sub-vector); missing
    /// positions count as unselected.
    #[must_use]
    pub fn subgroup_selected(&self, plane: PlaneRow<'_>, mode: BsMode, pass: usize) -> Vec<u32> {
        let groups = self.width / self.subgroup;
        let mut counts = vec![0u32; groups];
        let base = pass * self.width;
        for i in base..plane.len().min(base + self.width) {
            let bit = plane.bit(i);
            let selected = match mode {
                BsMode::Ones => bit,
                BsMode::Zeros => !bit,
            };
            if selected {
                counts[(i - base) / self.subgroup] += 1;
            }
        }
        counts
    }

    /// Number of GSAT passes a plane of this width needs (a 128-dim key on
    /// a 64-wide tree takes two passes).
    #[must_use]
    pub fn passes(&self, plane_len: usize) -> usize {
        plane_len.div_ceil(self.width).max(1)
    }

    /// The most cycles any plane of this width can take to absorb: every
    /// pass at its worst, a whole sub-group selected on its muxes. The
    /// engine's lane calendar is sized from it.
    #[must_use]
    pub(crate) fn max_plane_cycles(&self, plane_len: usize) -> u64 {
        self.passes(plane_len) as u64 * u64::from((self.subgroup as u32).div_ceil(self.muxes))
    }

    /// Cycles to absorb one plane: per pass, the slowest sub-group
    /// dominates (`⌈selected / muxes⌉`, minimum 1 — even an all-skip pass
    /// costs the pipeline beat that recognises it); passes serialize.
    #[must_use]
    pub fn plane_cycles(&self, plane: PlaneRow<'_>, mode: BsMode) -> u64 {
        let muxes = self.muxes_per_subgroup() as u32;
        (0..self.passes(plane.len()))
            .map(|pass| {
                self.subgroup_selected(plane, mode, pass)
                    .into_iter()
                    .map(|sel| u64::from(sel.div_ceil(muxes)))
                    .max()
                    .unwrap_or(1)
                    .max(1)
            })
            .sum()
    }

    /// Ideal (perfectly balanced) cycles for the same plane: total selected
    /// bits spread evenly over every mux.
    #[must_use]
    pub fn balanced_cycles(&self, plane: PlaneRow<'_>, mode: BsMode) -> u64 {
        let total_muxes = (self.muxes_per_subgroup() * (self.width / self.subgroup)) as u64;
        let selected: u64 = (0..self.passes(plane.len()))
            .map(|pass| {
                self.subgroup_selected(plane, mode, pass).iter().map(|&c| u64::from(c)).sum::<u64>()
            })
            .sum();
        selected.div_ceil(total_muxes).max(self.passes(plane.len()) as u64)
    }

    /// Intra-lane imbalance of one plane in cycles: actual minus perfectly
    /// balanced (the intra-PE stall source of Fig. 23(a)).
    #[must_use]
    pub fn plane_imbalance(&self, plane: PlaneRow<'_>, mode: BsMode) -> u64 {
        self.plane_cycles(plane, mode).saturating_sub(self.balanced_cycles(plane, mode))
    }
}

impl Gsat {
    /// Selected bits per sub-group under *per-sub-group* bidirectional
    /// selection: each sub-group independently accumulates its rarer bit
    /// value (`min(ones, zeros)` ≤ subgroup/2), which is why the paper's
    /// four sliding 5:1 muxes always absorb a sub-group in one cycle — at
    /// the price of one subtractor and local q-sum per sub-group (§V-D).
    #[must_use]
    pub fn bs_subgroup_selected(&self, plane: PlaneRow<'_>, pass: usize) -> Vec<u32> {
        let ones = self.subgroup_selected(plane, BsMode::Ones, pass);
        let base = pass * self.width;
        let groups = self.width / self.subgroup;
        (0..groups)
            .map(|g| {
                let lo = base + g * self.subgroup;
                let hi = (lo + self.subgroup).min(plane.len());
                let present = hi.saturating_sub(lo) as u32;
                ones[g].min(present - ones[g].min(present))
            })
            .collect()
    }

    /// Total selected bits over all passes under per-sub-group BS.
    #[must_use]
    pub fn bs_selected_total(&self, plane: PlaneRow<'_>) -> u32 {
        (0..self.passes(plane.len()))
            .map(|pass| self.bs_subgroup_selected(plane, pass).iter().sum::<u32>())
            .sum()
    }

    /// Cycles to absorb one plane with per-sub-group BS: every sub-group
    /// holds ≤ subgroup/2 selections, matching the mux count — one cycle
    /// per pass, always.
    #[must_use]
    pub fn bs_plane_cycles(&self, plane: PlaneRow<'_>) -> u64 {
        let muxes = self.muxes_per_subgroup() as u32;
        (0..self.passes(plane.len()))
            .map(|pass| {
                self.bs_subgroup_selected(plane, pass)
                    .into_iter()
                    .map(|sel| u64::from(sel.div_ceil(muxes)))
                    .max()
                    .unwrap_or(1)
                    .max(1)
            })
            .sum()
    }
}

/// Everything the engine needs from one plane absorption, computed in a
/// single pass over sub-groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneAbsorb {
    /// Absorption cycles (per-sub-group BS when enabled, else one-sided).
    pub cycles: u64,
    /// Query elements actually accumulated.
    pub selected: u32,
    /// Perfectly balanced cycles, already clamped to `cycles`.
    pub balanced: u64,
}

impl Gsat {
    /// The engine's per-plane bookkeeping, the one function that produces
    /// a [`PlaneAbsorb`]. Values are identical to the naive
    /// [`Gsat::bs_plane_cycles`] / [`Gsat::bs_selected_total`] /
    /// [`Gsat::plane_cycles`] / [`Gsat::balanced_cycles`] methods
    /// (property-tested in this module), without their per-bit scans and
    /// allocations:
    ///
    /// - per-sub-group BS with byte-wide sub-groups reads the plane's
    ///   cached [`PlaneRow::bs_selected`] count and sweeps nothing;
    /// - one-sided selection at the Table III shape takes one SWAR
    ///   byte-popcount per word;
    /// - every other shape takes one masked popcount per sub-group.
    #[must_use]
    pub fn absorb_stats(&self, plane: PlaneRow<'_>, enable_bs: bool) -> PlaneAbsorb {
        if !self.sweeps(enable_bs) {
            // Every sub-group selects at most 4 of its 8 bits and has 4
            // muxes, so every pass takes one cycle and the balanced count
            // equals the pass count.
            let passes =
                if plane.len() <= self.width { 1 } else { plane.len().div_ceil(self.width) as u64 };
            return PlaneAbsorb { cycles: passes, selected: plane.bs_selected(), balanced: passes };
        }
        // A sweep at sub-group 8 is one-sided here.
        if self.swar_words > 0 && plane.len().is_multiple_of(8) {
            return self.absorb_stats_bytes(plane);
        }
        let groups = self.width / self.subgroup;
        let passes = self.passes(plane.len());
        let mut cycles = 0u64;
        let mut selected = 0u32;
        for pass in 0..passes {
            let base = pass * self.width;
            let mut worst = 0u64;
            for g in 0..groups {
                let lo = base + g * self.subgroup;
                let hi = (lo + self.subgroup).min(plane.len());
                let present = hi.saturating_sub(lo) as u32;
                let ones = plane.count_ones_in_range(lo, lo + self.subgroup);
                let sel = if enable_bs { ones.min(present - ones) } else { ones };
                selected += sel;
                worst = worst.max(u64::from(sel.div_ceil(self.muxes)));
            }
            cycles += worst.max(1);
        }
        self.finish(plane, cycles, selected, passes as u64)
    }

    /// Whether [`Gsat::absorb_stats`] sweeps the plane's words. It does
    /// not under per-sub-group BS with sub-groups of 8 — the served
    /// configuration — where the selection count is cached per plane when
    /// the key enters its store.
    #[must_use]
    pub(crate) fn sweeps(&self, enable_bs: bool) -> bool {
        !(enable_bs && self.subgroup == 8)
    }

    /// One-sided [`Gsat::absorb_stats`] for the Table III shape — byte-wide
    /// sub-groups, passes of whole words, a plane of whole sub-groups — one
    /// SWAR byte-popcount per word instead of one masked popcount per
    /// sub-group. Each byte of the popcount is one sub-group's ones count
    /// (0..=8); sub-groups past the plane's end are zero bytes or missing
    /// words, which select nothing. Passes are counted, not divided out:
    /// `⌈⌈len/64⌉ / words⌉ = ⌈len / width⌉`.
    fn absorb_stats_bytes(&self, plane: PlaneRow<'_>) -> PlaneAbsorb {
        const LSB: u64 = 0x0101_0101_0101_0101;
        const MSB: u64 = 0x8080_8080_8080_8080;
        let byte_ones = |word: u64| {
            let pairs = word - ((word >> 1) & (0x55 * LSB));
            let nibbles = (pairs & (0x33 * LSB)) + ((pairs >> 2) & (0x33 * LSB));
            (nibbles + (nibbles >> 4)) & (0x0F * LSB)
        };
        // Every pass costs at least one cycle; four muxes per sub-group
        // absorb up to four selections, so a pass takes a second cycle only
        // when some sub-group selects five or more.
        let mut passes = 0u64;
        let mut second_cycles = 0u64;
        for pass in plane.words().chunks(self.swar_words) {
            passes += 1;
            let five_plus = pass.iter().any(|&word| (byte_ones(word) + 0x7B * LSB) & MSB != 0);
            second_cycles += u64::from(five_plus);
        }
        // An empty plane still takes the one pass that recognises it.
        let passes = passes.max(1);
        self.finish(plane, passes + second_cycles, plane.count_ones(), passes)
    }

    /// Packs a sweep's totals, adding the balanced cycles:
    /// `balanced_cycles(plane, BsMode::Ones)` — always the one-sided count,
    /// matching the engine's imbalance accounting — clamped to `cycles`.
    /// The balanced count is at least `passes`, so a sweep of one cycle per
    /// pass skips the division.
    fn finish(&self, plane: PlaneRow<'_>, cycles: u64, selected: u32, passes: u64) -> PlaneAbsorb {
        let balanced = if cycles == passes {
            passes
        } else {
            u64::from(plane.count_ones()).div_ceil(self.total_muxes).max(passes).min(cycles)
        };
        PlaneAbsorb { cycles, selected, balanced }
    }
}

impl Default for Gsat {
    /// The Table III configuration: 64-input, sub-groups of 8.
    fn default() -> Self {
        Self::new(64, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One token of 0/1 values at 2 bits: plane 1 (the LSB) holds `bits`.
    fn lsb_plane(bits: &[bool]) -> pade_quant::BitPlaneMatrix {
        let values: Vec<i8> = bits.iter().map(|&b| i8::from(b)).collect();
        pade_quant::BitPlaneMatrix::from_rows(&values, values.len(), 2).unwrap()
    }

    #[test]
    fn empty_plane_costs_one_cycle() {
        let g = Gsat::default();
        let keys = lsb_plane(&[false; 64]);
        let p = keys.token(0).plane(1);
        assert_eq!(g.plane_cycles(p, BsMode::Ones), 1);
    }

    #[test]
    fn bs_worst_case_fits_in_one_cycle() {
        // Under BS, at most 4 of 8 bits per sub-group are selected → 4 muxes
        // absorb them in a single cycle.
        let g = Gsat::default();
        let bits: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let keys = lsb_plane(&bits);
        let p = keys.token(0).plane(1);
        assert_eq!(g.plane_cycles(p, BsMode::Ones), 1);
    }

    #[test]
    fn dense_plane_without_bs_takes_two_cycles() {
        let g = Gsat::default();
        let keys = lsb_plane(&[true; 64]);
        let p = keys.token(0).plane(1);
        assert_eq!(g.plane_cycles(p, BsMode::Ones), 2);
        // BS would flip to zeros: nothing selected, 1 cycle.
        assert_eq!(g.plane_cycles(p, BsMode::Zeros), 1);
    }

    #[test]
    fn slowest_subgroup_dominates() {
        let g = Gsat::default();
        // First sub-group full (8 selected → 2 cycles), rest empty.
        let bits: Vec<bool> = (0..64).map(|i| i < 8).collect();
        let keys = lsb_plane(&bits);
        let p = keys.token(0).plane(1);
        assert_eq!(g.plane_cycles(p, BsMode::Ones), 2);
        assert!(g.plane_imbalance(p, BsMode::Ones) > 0);
    }

    #[test]
    fn balanced_plane_has_no_imbalance() {
        let g = Gsat::default();
        let bits: Vec<bool> = (0..64).map(|i| i % 8 < 4).collect();
        let keys = lsb_plane(&bits);
        let p = keys.token(0).plane(1);
        assert_eq!(g.plane_imbalance(p, BsMode::Ones), 0);
    }

    #[test]
    fn narrow_plane_is_padded_with_unselected() {
        let g = Gsat::default();
        let keys = lsb_plane(&[true; 16]);
        let p = keys.token(0).plane(1); // only two sub-groups occupied
        let counts = g.subgroup_selected(p, BsMode::Ones, 0);
        assert_eq!(counts[0], 8);
        assert_eq!(counts[1], 8);
        assert!(counts[2..].iter().all(|&c| c == 0));
    }

    #[test]
    fn wide_plane_takes_multiple_passes() {
        let g = Gsat::default();
        assert_eq!(g.passes(128), 2);
        assert_eq!(g.passes(64), 1);
        assert_eq!(g.passes(1), 1);
        // 128-dim plane, alternating bits: each pass is 1 cycle → 2 total.
        let bits: Vec<bool> = (0..128).map(|i| i % 2 == 0).collect();
        let keys = lsb_plane(&bits);
        let p = keys.token(0).plane(1);
        assert_eq!(g.plane_cycles(p, BsMode::Ones), 2);
        // Dense 128-dim plane without BS: 2 cycles per pass → 4 total.
        let dense_keys = lsb_plane(&[true; 128]);
        let p_dense = dense_keys.token(0).plane(1);
        assert_eq!(g.plane_cycles(p_dense, BsMode::Ones), 4);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn ragged_subgroup_rejected() {
        let _ = Gsat::new(64, 7);
    }

    #[test]
    fn per_subgroup_bs_always_fits_one_cycle_per_pass() {
        let g = Gsat::default();
        // Adversarial plane: one sub-group all ones, one all zeros, rest mixed.
        let bits: Vec<bool> = (0..64).map(|i| i < 8 || (i >= 16 && i % 3 == 0)).collect();
        let keys = lsb_plane(&bits);
        let p = keys.token(0).plane(1);
        assert_eq!(g.bs_plane_cycles(p), 1);
        // Global-mode BS would take 2 cycles on the dense sub-group.
        assert_eq!(g.plane_cycles(p, BsMode::Ones), 2);
        // Selection bounded at half per sub-group.
        for sel in g.bs_subgroup_selected(p, 0) {
            assert!(sel <= 4);
        }
    }

    #[test]
    fn absorb_stats_matches_naive_methods() {
        use proptest::prelude::*;
        // Deterministic sweep over GSAT shapes, plane widths, fills and BS
        // modes rather than a hand-picked case: absorb_stats is the
        // engine's hot path and must agree with the per-bit oracles
        // everywhere. BS with sub-group 8 reads the plane's cached count;
        // one-sided widths 64/128 with sub-group 8 and a length that is a
        // multiple of 8 take the SWAR byte path; every other combination
        // takes the per-sub-group loop.
        let mut rng = TestRng::for_case("gsat::absorb", 0);
        for (width, subgroup) in [(64, 4), (64, 8), (64, 16), (128, 4), (128, 8), (128, 16)] {
            let g = Gsat::new(width, subgroup);
            for len in [1usize, 3, 8, 16, 40, 63, 64, 65, 72, 127, 128, 136, 200, 256] {
                for density in [1u32, 2, 7] {
                    for _ in 0..8 {
                        let bits: Vec<bool> =
                            (0..len).map(|_| (0u32..8).sample(&mut rng) < density).collect();
                        let keys = lsb_plane(&bits);
                        let p = keys.token(0).plane(1);
                        let case = format!("width {width} subgroup {subgroup} len {len}");
                        let bs = g.absorb_stats(p, true);
                        assert_eq!(bs.cycles, g.bs_plane_cycles(p), "{case}");
                        assert!(bs.cycles <= g.max_plane_cycles(len), "{case}");
                        assert_eq!(bs.selected, g.bs_selected_total(p), "{case}");
                        assert_eq!(
                            bs.balanced,
                            g.balanced_cycles(p, BsMode::Ones).min(bs.cycles),
                            "{case}"
                        );
                        let ones = g.absorb_stats(p, false);
                        assert_eq!(ones.cycles, g.plane_cycles(p, BsMode::Ones), "{case}");
                        assert!(ones.cycles <= g.max_plane_cycles(len), "{case}");
                        assert_eq!(ones.selected, p.count_ones(), "{case}");
                        assert_eq!(
                            ones.balanced,
                            g.balanced_cycles(p, BsMode::Ones).min(ones.cycles),
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn per_subgroup_bs_handles_wide_and_narrow_planes() {
        let g = Gsat::default();
        let keys = lsb_plane(&[true; 128]);
        let p = keys.token(0).plane(1);
        assert_eq!(g.bs_plane_cycles(p), 2); // two passes, 1 cycle each
        assert_eq!(g.bs_selected_total(p), 0); // all-ones flips to zeros
        let narrow_keys = lsb_plane(&[true, false, true]);
        let narrow = narrow_keys.token(0).plane(1);
        assert_eq!(g.bs_plane_cycles(narrow), 1);
        assert_eq!(g.bs_selected_total(narrow), 1);
    }
}
