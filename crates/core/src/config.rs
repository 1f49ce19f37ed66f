//! PADE hardware and algorithm configuration (Table III of the paper).

use pade_mem::{HbmConfig, KeyLayout};
use pade_sim::Frequency;

/// Complete configuration of a PADE design point.
///
/// Defaults reproduce Table III: a QK-PU with 8 PE rows × 16 bit-wise
/// lanes of 64-wide grouped ANDer trees and 32-entry scoreboards, an 8×16
/// INT8 V-PU, 320 KB + 32 KB buffers and HBM2 at 256 GB/s, clocked at
/// 800 MHz. The feature toggles select the ablation points of Fig. 16(a)
/// and Fig. 19.
#[derive(Debug, Clone, PartialEq)]
pub struct PadeConfig {
    /// PE rows in the QK-PU (each processes one query).
    pub pe_rows: usize,
    /// Bit-wise PE lanes per row.
    pub lanes_per_row: usize,
    /// Dot-product width of one GSAT (dimensions absorbed per plane pass).
    pub gsat_width: usize,
    /// GSAT sub-group size (DSE optimum is 8, Fig. 17(a)).
    pub subgroup: usize,
    /// Scoreboard entries per PE lane (DSE saturation at 32, Fig. 17(b)).
    pub scoreboard_entries: usize,
    /// Guard-threshold control parameter α ∈ [0, 1] (Eq. 4).
    pub alpha: f32,
    /// Guard radius in logits (paper default 5).
    pub radius: f32,
    /// ISTA tile size Bc (retained keys per V-tile fetch).
    pub tile_bc: usize,
    /// V-PU systolic array rows.
    pub vpu_rows: usize,
    /// V-PU systolic array columns.
    pub vpu_cols: usize,
    /// Key/value SRAM capacity in KiB.
    pub kv_buffer_kb: usize,
    /// Query SRAM capacity in KiB.
    pub q_buffer_kb: usize,
    /// Operand bit width (8 in the main configuration, 4 for Fig. 26(a)).
    pub bits: u32,
    /// Core clock.
    pub clock: Frequency,
    /// Off-chip memory configuration.
    pub hbm: HbmConfig,
    /// DRAM layout of the key tensor.
    pub layout: KeyLayout,
    /// Enable BUI-GF early pruning (off = dense bit-serial execution).
    pub enable_bui_gf: bool,
    /// Enable bidirectional sparsity (off = bit-1-only sparsity).
    pub enable_bs: bool,
    /// Enable out-of-order bit-plane execution (off = in-order per lane).
    pub enable_ooe: bool,
    /// Enable ISTA tiling (off = untiled full-row execution).
    pub enable_ista: bool,
    /// Enable RARS V-fetch reordering (off = naive left-to-right).
    pub enable_rars: bool,
    /// Enable head–tail interleaved tile updating (off = left-to-right).
    pub enable_interleave: bool,
}

impl PadeConfig {
    /// The standard configuration: Table III hardware, α tuned for the
    /// paper's "0 % accuracy loss" operating point.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            pe_rows: 8,
            lanes_per_row: 16,
            gsat_width: 64,
            subgroup: 8,
            scoreboard_entries: 32,
            alpha: 1.0,
            radius: 5.0,
            tile_bc: 16,
            vpu_rows: 8,
            vpu_cols: 16,
            kv_buffer_kb: 320,
            q_buffer_kb: 32,
            bits: 8,
            clock: Frequency::default(),
            hbm: HbmConfig::default(),
            layout: KeyLayout::BitPlaneInterleaved,
            enable_bui_gf: true,
            enable_bs: true,
            enable_ooe: true,
            enable_ista: true,
            enable_rars: true,
            enable_interleave: true,
        }
    }

    /// The aggressive configuration: tighter guard (≤1 % accuracy loss,
    /// higher sparsity).
    #[must_use]
    pub fn aggressive() -> Self {
        Self { alpha: 0.75, ..Self::standard() }
    }

    /// The dense baseline of Fig. 16(a)/Fig. 19: the same datapath areas
    /// with every sparse-processing module disabled (value-level INT8
    /// execution, no pruning, no tiling tricks).
    #[must_use]
    pub fn dense_baseline() -> Self {
        Self {
            enable_bui_gf: false,
            enable_bs: false,
            enable_ooe: false,
            enable_ista: false,
            enable_rars: false,
            enable_interleave: false,
            layout: KeyLayout::ValueRowMajor,
            ..Self::standard()
        }
    }

    /// Total bit-wise PE lanes (128 in Table III).
    #[must_use]
    pub fn total_lanes(&self) -> usize {
        self.pe_rows * self.lanes_per_row
    }

    /// The guard threshold margin `α · radius` in logits: a pruned token is
    /// guaranteed to sit at least this far below the row maximum.
    #[must_use]
    pub fn guard_margin(&self) -> f32 {
        self.alpha * self.radius
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if the GSAT width is not divisible by the sub-group size, if
    /// α is outside `[0, 1]`, if any structural parameter is zero, or if
    /// `pe_rows` exceeds 64 (RARS keeps a block's rows in one `u64` mask).
    pub fn validate(&self) {
        assert!(self.pe_rows > 0 && self.lanes_per_row > 0, "PE array must be non-empty");
        assert!(self.pe_rows <= 64, "pe_rows must be at most 64, got {}", self.pe_rows);
        assert!(self.gsat_width > 0 && self.subgroup > 0, "GSAT must be non-empty");
        assert_eq!(
            self.gsat_width % self.subgroup,
            0,
            "GSAT width {} must be divisible by sub-group size {}",
            self.gsat_width,
            self.subgroup
        );
        assert!((0.0..=1.0).contains(&self.alpha), "alpha must be in [0, 1]");
        assert!(self.radius > 0.0, "radius must be positive");
        assert!(self.scoreboard_entries > 0, "scoreboard must have entries");
        assert!(self.tile_bc > 0, "tile size must be positive");
        assert!((2..=8).contains(&self.bits), "bit width must be in 2..=8");
    }
}

impl Default for PadeConfig {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_defaults() {
        let c = PadeConfig::standard();
        c.validate();
        assert_eq!(c.total_lanes(), 128);
        assert_eq!(c.scoreboard_entries, 32);
        assert_eq!(c.subgroup, 8);
        assert_eq!(c.kv_buffer_kb, 320);
        assert_eq!(c.q_buffer_kb, 32);
        assert_eq!(c.vpu_rows * c.vpu_cols, 128);
    }

    #[test]
    fn aggressive_prunes_harder_than_standard() {
        assert!(PadeConfig::aggressive().guard_margin() < PadeConfig::standard().guard_margin());
    }

    #[test]
    fn dense_baseline_disables_all_features() {
        let c = PadeConfig::dense_baseline();
        c.validate();
        assert!(!c.enable_bui_gf && !c.enable_bs && !c.enable_ooe);
        assert!(!c.enable_ista && !c.enable_rars && !c.enable_interleave);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn validate_rejects_ragged_subgroups() {
        let c = PadeConfig { subgroup: 7, ..PadeConfig::standard() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn validate_rejects_bad_alpha() {
        let c = PadeConfig { alpha: 1.5, ..PadeConfig::standard() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn validate_rejects_more_than_64_pe_rows() {
        let c = PadeConfig { pe_rows: 65, ..PadeConfig::standard() };
        c.validate();
    }
}
