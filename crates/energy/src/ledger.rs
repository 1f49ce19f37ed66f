use pade_sim::{OpCounts, RunStats, TrafficCounts};

use crate::Tech;

/// Energy of one pipeline stage, split by where it was spent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Datapath (arithmetic) energy, pJ.
    pub compute_pj: f64,
    /// On-chip SRAM traffic energy, pJ.
    pub sram_pj: f64,
    /// Off-chip DRAM traffic + activation energy, pJ.
    pub dram_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy of the stage.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.sram_pj + self.dram_pj
    }

    /// Elementwise sum.
    #[must_use]
    pub fn plus(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            compute_pj: self.compute_pj + other.compute_pj,
            sram_pj: self.sram_pj + other.sram_pj,
            dram_pj: self.dram_pj + other.dram_pj,
        }
    }
}

/// Prices the arithmetic events of an [`OpCounts`] record.
#[must_use]
pub fn ops_energy_pj(ops: &OpCounts, tech: &Tech) -> f64 {
    ops.int8_mac as f64 * tech.int8_mac_pj
        + ops.int4_mac as f64 * tech.int4_mac_pj
        + ops.bit_serial_acc as f64 * tech.bit_serial_acc_pj
        + ops.shift_add as f64 * tech.shift_add_pj
        + ops.fp_exp as f64 * tech.fp_exp_pj
        + ops.fp_mul as f64 * tech.fp_mul_pj
        + ops.fp_add as f64 * tech.fp_add_pj
        + ops.compare as f64 * tech.compare_pj
        + ops.lut_lookup as f64 * tech.lut_pj
}

/// Prices the memory traffic of a [`TrafficCounts`] record. `sram_kb` is
/// the capacity of the buffer the SRAM traffic flows through (CACTI-style
/// capacity scaling).
#[must_use]
pub fn traffic_energy_pj(traffic: &TrafficCounts, tech: &Tech, sram_kb: f64) -> (f64, f64) {
    let sram = traffic.sram_total_bytes() as f64 * tech.sram_pj_per_byte(sram_kb);
    let dram = traffic.dram_total_bytes() as f64 * tech.dram_pj_per_byte
        + traffic.dram_row_activations as f64 * tech.dram_activation_pj;
    (sram, dram)
}

/// The complete energy account of one accelerator run: predictor stage vs
/// executor stage, each split compute / SRAM / DRAM.
///
/// The predictor-vs-executor split is the paper's central measurement
/// (Fig. 2); PADE's ledger has an empty predictor by construction.
///
/// # Example
///
/// ```
/// use pade_energy::{EnergyLedger, Tech};
/// use pade_sim::RunStats;
///
/// let mut s = RunStats::new("sanger-like");
/// s.predictor_ops.int4_mac = 1_000_000;
/// s.ops.int8_mac = 200_000;
/// let l = EnergyLedger::from_stats(&s, &Tech::cmos28());
/// assert!(l.predictor_fraction() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    /// Energy of the separate sparsity-prediction stage.
    pub predictor: EnergyBreakdown,
    /// Energy of the execution stage.
    pub executor: EnergyBreakdown,
}

impl EnergyLedger {
    /// Default KV-buffer capacity assumed for SRAM pricing (Table III).
    pub const DEFAULT_SRAM_KB: f64 = 320.0;

    /// Prices a run's event counts with the given technology constants.
    #[must_use]
    pub fn from_stats(stats: &RunStats, tech: &Tech) -> Self {
        Self::from_stats_with_sram(stats, tech, Self::DEFAULT_SRAM_KB)
    }

    /// Variant with an explicit SRAM capacity (for buffer-sizing studies).
    #[must_use]
    pub fn from_stats_with_sram(stats: &RunStats, tech: &Tech, sram_kb: f64) -> Self {
        let (p_sram, p_dram) = traffic_energy_pj(&stats.predictor_traffic, tech, sram_kb);
        let (e_sram, e_dram) = traffic_energy_pj(&stats.traffic, tech, sram_kb);
        Self {
            predictor: EnergyBreakdown {
                compute_pj: ops_energy_pj(&stats.predictor_ops, tech),
                sram_pj: p_sram,
                dram_pj: p_dram,
            },
            executor: EnergyBreakdown {
                compute_pj: ops_energy_pj(&stats.ops, tech),
                sram_pj: e_sram,
                dram_pj: e_dram,
            },
        }
    }

    /// Total energy in picojoules.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.predictor.total_pj() + self.executor.total_pj()
    }

    /// Fraction of the total spent in the predictor stage (Fig. 2(a)).
    #[must_use]
    pub fn predictor_fraction(&self) -> f64 {
        let total = self.total_pj();
        if total == 0.0 {
            0.0
        } else {
            self.predictor.total_pj() / total
        }
    }

    /// Predictor-to-executor power ratio (Fig. 2(b)); `0.0` when the
    /// executor consumed nothing.
    #[must_use]
    pub fn predictor_ratio(&self) -> f64 {
        let e = self.executor.total_pj();
        if e == 0.0 {
            0.0
        } else {
            self.predictor.total_pj() / e
        }
    }

    /// Combined stage breakdown (predictor + executor).
    #[must_use]
    pub fn combined(&self) -> EnergyBreakdown {
        self.predictor.plus(&self.executor)
    }

    /// Elementwise sum of two ledgers.
    #[must_use]
    pub fn plus(&self, other: &EnergyLedger) -> EnergyLedger {
        EnergyLedger {
            predictor: self.predictor.plus(&other.predictor),
            executor: self.executor.plus(&other.executor),
        }
    }
}

/// Energy efficiency in GOPS/W given useful operations, runtime and energy.
///
/// "Useful operations" follow the paper's convention: the nominal dense
/// attention op count (2·S²·H MACs per head for QKᵀ plus S·V work), so a
/// sparser design with the same workload scores higher.
#[must_use]
pub fn gops_per_watt(useful_ops: f64, seconds: f64, energy_pj: f64) -> f64 {
    if energy_pj <= 0.0 || seconds <= 0.0 {
        return 0.0;
    }
    let watts = energy_pj * 1e-12 / seconds;
    let gops = useful_ops / seconds / 1e9;
    gops / watts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_price_to_zero() {
        let l = EnergyLedger::from_stats(&RunStats::new("z"), &Tech::cmos28());
        assert_eq!(l.total_pj(), 0.0);
        assert_eq!(l.predictor_fraction(), 0.0);
        assert_eq!(l.predictor_ratio(), 0.0);
    }

    #[test]
    fn predictor_and_executor_are_separated() {
        let mut s = RunStats::new("x");
        s.predictor_ops.int4_mac = 100;
        s.ops.int8_mac = 100;
        let l = EnergyLedger::from_stats(&s, &Tech::cmos28());
        assert!(l.predictor.compute_pj > 0.0);
        assert!(l.executor.compute_pj > l.predictor.compute_pj); // int8 > int4
    }

    #[test]
    fn dram_dominates_equal_byte_sram() {
        let mut s = RunStats::new("x");
        s.traffic.dram_read_bytes = 1000;
        s.traffic.sram_read_bytes = 1000;
        let l = EnergyLedger::from_stats(&s, &Tech::cmos28());
        assert!(l.executor.dram_pj > 10.0 * l.executor.sram_pj);
    }

    #[test]
    fn activations_add_energy() {
        let mut a = RunStats::new("a");
        a.traffic.dram_read_bytes = 1000;
        let mut b = a.clone();
        b.traffic.dram_row_activations = 10;
        let t = Tech::cmos28();
        assert!(
            EnergyLedger::from_stats(&b, &t).total_pj()
                > EnergyLedger::from_stats(&a, &t).total_pj()
        );
    }

    #[test]
    fn ledger_plus_accumulates() {
        let mut s = RunStats::new("x");
        s.ops.int8_mac = 100;
        let t = Tech::cmos28();
        let l = EnergyLedger::from_stats(&s, &t);
        let double = l.plus(&l);
        assert!((double.total_pj() - 2.0 * l.total_pj()).abs() < 1e-9);
    }

    #[test]
    fn gops_per_watt_sanity() {
        // 1e12 ops in 1 s at 1 J total → 1000 GOPS / 1 W = 1000.
        let g = gops_per_watt(1e12, 1.0, 1e12);
        assert!((g - 1000.0).abs() < 1e-6);
        assert_eq!(gops_per_watt(1.0, 0.0, 1.0), 0.0);
    }
}
