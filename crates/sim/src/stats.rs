use crate::{Cycle, UtilizationCounter};

/// Arithmetic event counts produced by one accelerator run.
///
/// Every model in the workspace counts work in these categories; the
/// `pade-energy` crate assigns a 28 nm energy cost to each. Keeping raw
/// counts (instead of pre-multiplied energy) lets the experiments vary the
/// technology constants without re-simulating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Full INT8×INT8 multiply-accumulates (dense executor, V-PU systolic).
    pub int8_mac: u64,
    /// INT4×INT4 multiply-accumulates (e.g. Sanger's MSB predictor).
    pub int4_mac: u64,
    /// Bit-serial gated accumulates: one 8-bit addend conditionally summed
    /// by a 1-bit key plane value (PADE's GSAT datapath).
    pub bit_serial_acc: u64,
    /// Shift-and-add events applying a bit-plane weight to a partial sum.
    pub shift_add: u64,
    /// FP16 exponentials (softmax / APM).
    pub fp_exp: u64,
    /// FP16 multiplies.
    pub fp_mul: u64,
    /// FP16 additions.
    pub fp_add: u64,
    /// Comparisons (threshold checks, top-k sorting steps, max updates).
    pub compare: u64,
    /// Table lookups (BUI LUT, log-domain LUTs).
    pub lut_lookup: u64,
}

impl OpCounts {
    /// Elementwise accumulation.
    pub fn merge(&mut self, other: &OpCounts) {
        self.int8_mac += other.int8_mac;
        self.int4_mac += other.int4_mac;
        self.bit_serial_acc += other.bit_serial_acc;
        self.shift_add += other.shift_add;
        self.fp_exp += other.fp_exp;
        self.fp_mul += other.fp_mul;
        self.fp_add += other.fp_add;
        self.compare += other.compare;
        self.lut_lookup += other.lut_lookup;
    }

    /// Applies `f` to every counter. The destructuring is exhaustive, so a
    /// new field does not compile until it is handled here.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&mut u64)) {
        let OpCounts {
            int8_mac,
            int4_mac,
            bit_serial_acc,
            shift_add,
            fp_exp,
            fp_mul,
            fp_add,
            compare,
            lut_lookup,
        } = self;
        for v in [
            int8_mac,
            int4_mac,
            bit_serial_acc,
            shift_add,
            fp_exp,
            fp_mul,
            fp_add,
            compare,
            lut_lookup,
        ] {
            f(v);
        }
    }

    /// Total events normalized into *equivalent additions* using the
    /// arithmetic-complexity model the paper cites for Fig. 10(b)
    /// (multiplier ≈ 8 adds at INT8, exp ≈ 20 adds, bit-serial acc ≈ 1 add).
    #[must_use]
    pub fn equivalent_adds(&self) -> u64 {
        self.int8_mac * 8
            + self.int4_mac * 2
            + self.bit_serial_acc
            + self.shift_add
            + self.fp_exp * 20
            + self.fp_mul * 8
            + self.fp_add * 2
            + self.compare
            + self.lut_lookup
    }
}

/// Memory traffic counts produced by one accelerator run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounts {
    /// Bytes read from off-chip DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to off-chip DRAM.
    pub dram_write_bytes: u64,
    /// DRAM row activations (precharge + activate pairs).
    pub dram_row_activations: u64,
    /// DRAM bursts issued.
    pub dram_bursts: u64,
    /// Bytes read from on-chip SRAM.
    pub sram_read_bytes: u64,
    /// Bytes written to on-chip SRAM.
    pub sram_write_bytes: u64,
}

impl TrafficCounts {
    /// Elementwise accumulation.
    pub fn merge(&mut self, other: &TrafficCounts) {
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
        self.dram_row_activations += other.dram_row_activations;
        self.dram_bursts += other.dram_bursts;
        self.sram_read_bytes += other.sram_read_bytes;
        self.sram_write_bytes += other.sram_write_bytes;
    }

    /// Applies `f` to every counter. The destructuring is exhaustive, so a
    /// new field does not compile until it is handled here.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&mut u64)) {
        let TrafficCounts {
            dram_read_bytes,
            dram_write_bytes,
            dram_row_activations,
            dram_bursts,
            sram_read_bytes,
            sram_write_bytes,
        } = self;
        for v in [
            dram_read_bytes,
            dram_write_bytes,
            dram_row_activations,
            dram_bursts,
            sram_read_bytes,
            sram_write_bytes,
        ] {
            f(v);
        }
    }

    /// Total off-chip bytes moved.
    #[must_use]
    pub fn dram_total_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Total on-chip bytes moved.
    #[must_use]
    pub fn sram_total_bytes(&self) -> u64 {
        self.sram_read_bytes + self.sram_write_bytes
    }
}

/// The result record of one accelerator run (one attention workload on one
/// design point).
///
/// # Example
///
/// ```
/// use pade_sim::{Cycle, RunStats};
///
/// let mut s = RunStats::new("pade");
/// s.cycles = Cycle(1000);
/// s.retained_keys = 200;
/// s.total_keys = 1000;
/// assert!((s.keep_ratio() - 0.2).abs() < 1e-9);
/// assert!((s.sparsity() - 0.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Design-point label (e.g. `"pade"`, `"sanger"`).
    pub label: String,
    /// End-to-end latency of the run.
    pub cycles: Cycle,
    /// Arithmetic events, split by the stage that performed them: the
    /// *predictor* (separate sparsity-prediction stage; empty for PADE) and
    /// the *executor*.
    pub predictor_ops: OpCounts,
    /// Executor arithmetic events.
    pub ops: OpCounts,
    /// Memory traffic attributable to the predictor stage.
    pub predictor_traffic: TrafficCounts,
    /// Memory traffic attributable to the executor stage.
    pub traffic: TrafficCounts,
    /// Aggregate PE utilization.
    pub pe_util: UtilizationCounter,
    /// Query–key pairs retained (computed at full precision).
    pub retained_keys: u64,
    /// Total query–key pairs in the workload.
    pub total_keys: u64,
}

impl RunStats {
    /// A zeroed record with the given label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            cycles: Cycle::ZERO,
            predictor_ops: OpCounts::default(),
            ops: OpCounts::default(),
            predictor_traffic: TrafficCounts::default(),
            traffic: TrafficCounts::default(),
            pe_util: UtilizationCounter::new(),
            retained_keys: 0,
            total_keys: 0,
        }
    }

    /// Fraction of QK pairs kept (`retained / total`); `1.0` when the run
    /// saw no keys.
    #[must_use]
    pub fn keep_ratio(&self) -> f64 {
        if self.total_keys == 0 {
            1.0
        } else {
            self.retained_keys as f64 / self.total_keys as f64
        }
    }

    /// Fraction of QK pairs pruned (`1 − keep_ratio`).
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        1.0 - self.keep_ratio()
    }

    /// Combined predictor + executor op counts.
    #[must_use]
    pub fn total_ops(&self) -> OpCounts {
        let mut o = self.predictor_ops;
        o.merge(&self.ops);
        o
    }

    /// Combined predictor + executor traffic.
    #[must_use]
    pub fn total_traffic(&self) -> TrafficCounts {
        let mut t = self.predictor_traffic;
        t.merge(&self.traffic);
        t
    }

    /// Accumulates another run (e.g. per-layer records into a model total).
    /// Latencies add; the label of `self` is kept.
    pub fn merge(&mut self, other: &RunStats) {
        self.cycles += other.cycles;
        self.predictor_ops.merge(&other.predictor_ops);
        self.ops.merge(&other.ops);
        self.predictor_traffic.merge(&other.predictor_traffic);
        self.traffic.merge(&other.traffic);
        self.pe_util.merge(&other.pe_util);
        self.retained_keys += other.retained_keys;
        self.total_keys += other.total_keys;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_ratio_defaults_to_one() {
        assert_eq!(RunStats::new("x").keep_ratio(), 1.0);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = RunStats::new("a");
        a.cycles = Cycle(10);
        a.ops.int8_mac = 5;
        a.traffic.dram_read_bytes = 100;
        a.retained_keys = 1;
        a.total_keys = 2;
        let mut b = RunStats::new("b");
        b.cycles = Cycle(20);
        b.ops.int8_mac = 7;
        b.predictor_ops.int4_mac = 3;
        b.predictor_traffic.dram_read_bytes = 50;
        b.retained_keys = 1;
        b.total_keys = 2;
        a.merge(&b);
        assert_eq!(a.label, "a");
        assert_eq!(a.cycles, Cycle(30));
        assert_eq!(a.ops.int8_mac, 12);
        assert_eq!(a.total_ops().int4_mac, 3);
        assert_eq!(a.total_traffic().dram_read_bytes, 150);
        assert_eq!(a.keep_ratio(), 0.5);
    }

    #[test]
    fn equivalent_adds_weighting() {
        let ops = OpCounts { int8_mac: 1, fp_exp: 1, bit_serial_acc: 3, ..OpCounts::default() };
        assert_eq!(ops.equivalent_adds(), 8 + 20 + 3);
    }

    #[test]
    fn traffic_totals() {
        let t = TrafficCounts {
            dram_read_bytes: 10,
            dram_write_bytes: 5,
            sram_read_bytes: 3,
            sram_write_bytes: 2,
            ..TrafficCounts::default()
        };
        assert_eq!(t.dram_total_bytes(), 15);
        assert_eq!(t.sram_total_bytes(), 5);
    }

    #[test]
    fn for_each_mut_visits_every_counter() {
        let mut ops = OpCounts::default();
        ops.for_each_mut(|v| *v = 1);
        // Every field carries a nonzero weight, so a skipped one shows.
        assert_eq!(ops.equivalent_adds(), 8 + 2 + 1 + 1 + 20 + 8 + 2 + 1 + 1);
        let mut t = TrafficCounts::default();
        t.for_each_mut(|v| *v = 1);
        let ones = TrafficCounts {
            dram_read_bytes: 1,
            dram_write_bytes: 1,
            dram_row_activations: 1,
            dram_bursts: 1,
            sram_read_bytes: 1,
            sram_write_bytes: 1,
        };
        assert_eq!(t, ones);
    }
}
