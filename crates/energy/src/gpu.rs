//! H100 roofline model for the GPU comparisons.
//!
//! The paper benchmarks an Nvidia H100 running TensorRT-LLM with
//! FlashAttention-3 (§VI-A), measuring attention-kernel latency with CUDA
//! events and power with `nvidia-smi`. This module substitutes a roofline:
//! a phase is characterized by its arithmetic and its HBM traffic, and its
//! latency is whichever bound dominates at the achievable fractions of the
//! published peaks. That reproduces exactly the behaviour the paper's GPU
//! experiments exercise — attention is memory-bound at long sequence
//! lengths, and fine-grained sparsity cannot be exploited by the wide
//! tensor-core datapath (Fig. 18(b)).

/// Published H100 SXM parameters with achievable-fraction knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct H100Config {
    /// Dense INT8 tensor-core peak, TOPS.
    pub int8_tops: f64,
    /// Dense FP16 tensor-core peak, TFLOPS.
    pub fp16_tflops: f64,
    /// HBM3 bandwidth, TB/s.
    pub hbm_tbps: f64,
    /// Board power at full load, W.
    pub tdp_w: f64,
    /// Board power when idle, W.
    pub idle_w: f64,
    /// Achievable fraction of peak compute on attention kernels.
    pub attention_mfu: f64,
    /// Achievable fraction of peak bandwidth on attention kernels.
    pub bandwidth_eff: f64,
    /// Per-kernel launch overhead, microseconds.
    pub kernel_overhead_us: f64,
}

impl Default for H100Config {
    fn default() -> Self {
        Self {
            int8_tops: 1979.0,
            fp16_tflops: 989.0,
            hbm_tbps: 3.35,
            tdp_w: 700.0,
            idle_w: 80.0,
            attention_mfu: 0.35,
            bandwidth_eff: 0.65,
            kernel_overhead_us: 8.0,
        }
    }
}

/// One GPU execution phase: arithmetic plus memory traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuPhase {
    /// INT8 tensor-core operations (MAC = 2 ops).
    pub int8_ops: f64,
    /// FP16 operations (softmax and friends).
    pub fp_ops: f64,
    /// Bytes moved to/from HBM.
    pub hbm_bytes: f64,
    /// Number of kernel launches.
    pub kernels: f64,
}

impl GpuPhase {
    /// Sums two phases.
    #[must_use]
    pub fn plus(&self, other: &GpuPhase) -> GpuPhase {
        GpuPhase {
            int8_ops: self.int8_ops + other.int8_ops,
            fp_ops: self.fp_ops + other.fp_ops,
            hbm_bytes: self.hbm_bytes + other.hbm_bytes,
            kernels: self.kernels + other.kernels,
        }
    }
}

/// Roofline latency/energy model of one H100.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct H100Model {
    config: H100Config,
}

impl H100Model {
    /// Builds a model from a configuration.
    #[must_use]
    pub fn new(config: H100Config) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &H100Config {
        &self.config
    }

    /// Roofline latency of a phase, seconds.
    #[must_use]
    pub fn latency_s(&self, phase: &GpuPhase) -> f64 {
        let c = &self.config;
        let compute_s = phase.int8_ops / (c.int8_tops * 1e12 * c.attention_mfu)
            + phase.fp_ops / (c.fp16_tflops * 1e12 * c.attention_mfu);
        let memory_s = phase.hbm_bytes / (c.hbm_tbps * 1e12 * c.bandwidth_eff);
        compute_s.max(memory_s) + phase.kernels * c.kernel_overhead_us * 1e-6
    }

    /// Energy of a phase, joules: run time at an activity-scaled draw. The
    /// activity factor is the roofline utilization of the binding resource.
    #[must_use]
    pub fn energy_j(&self, phase: &GpuPhase) -> f64 {
        let latency = self.latency_s(phase);
        if latency == 0.0 {
            return 0.0;
        }
        let c = &self.config;
        let compute_s =
            phase.int8_ops / (c.int8_tops * 1e12) + phase.fp_ops / (c.fp16_tflops * 1e12);
        let memory_s = phase.hbm_bytes / (c.hbm_tbps * 1e12);
        let activity = ((compute_s + memory_s) / latency).clamp(0.05, 1.0);
        latency * (c.idle_w + (c.tdp_w - c.idle_w) * activity)
    }
}

/// Builds the GPU phase of one dense attention head-batch:
/// `heads` heads of `seq×seq` score computation at `head_dim`, with or
/// without FlashAttention-style tiling (`flash` removes the S-matrix HBM
/// round trip).
#[must_use]
pub fn attention_phase(seq: usize, heads: usize, head_dim: usize, flash: bool) -> GpuPhase {
    let s = seq as f64;
    let h = head_dim as f64;
    let n = heads as f64;
    // QKᵀ + PV: 2 × (S²·H) MACs per head, 2 ops per MAC.
    let int8_ops = n * 2.0 * 2.0 * s * s * h;
    // Softmax: ~5 fp ops per score.
    let fp_ops = n * 5.0 * s * s;
    // Q, K, V in; O out (1 byte each at INT8); the S matrix (2 bytes fp16)
    // travels to HBM twice unless tiling keeps it on chip.
    let qkvo = n * 4.0 * s * h;
    let s_matrix = if flash { 0.0 } else { n * 2.0 * 2.0 * s * s };
    GpuPhase {
        int8_ops,
        fp_ops,
        hbm_bytes: qkvo + s_matrix,
        kernels: if flash { 1.0 } else { 3.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_respects_both_roofs() {
        let model = H100Model::default();
        let compute_bound = GpuPhase { int8_ops: 1e15, fp_ops: 0.0, hbm_bytes: 1.0, kernels: 0.0 };
        let memory_bound = GpuPhase { int8_ops: 1.0, fp_ops: 0.0, hbm_bytes: 1e13, kernels: 0.0 };
        let lc = model.latency_s(&compute_bound);
        let lm = model.latency_s(&memory_bound);
        // 1e15 ops at 1979 TOPS × 0.35 ≈ 1.44 s; 1e13 B at 3.35 TB/s × 0.65 ≈ 4.6 s.
        assert!(lc > 1.0 && lc < 2.0, "compute-bound latency {lc}");
        assert!(lm > 4.0 && lm < 5.0, "memory-bound latency {lm}");
    }

    #[test]
    fn flash_attention_reduces_bytes_and_latency_at_long_seq() {
        let base = attention_phase(8192, 32, 128, false);
        let flash = attention_phase(8192, 32, 128, true);
        assert!(flash.hbm_bytes < base.hbm_bytes / 2.0);
        let model = H100Model::default();
        assert!(model.latency_s(&flash) < model.latency_s(&base));
    }

    #[test]
    fn long_sequences_are_memory_bound_without_flash() {
        let model = H100Model::default();
        let c = model.config();
        let phase = attention_phase(16384, 32, 128, false);
        let compute_s = phase.int8_ops / (c.int8_tops * 1e12 * c.attention_mfu);
        let memory_s = phase.hbm_bytes / (c.hbm_tbps * 1e12 * c.bandwidth_eff);
        assert!(memory_s > compute_s, "attention should be memory-bound");
    }

    #[test]
    fn energy_between_idle_and_tdp_bounds() {
        let model = H100Model::default();
        let phase = attention_phase(2048, 32, 128, true);
        let latency = model.latency_s(&phase);
        let energy = model.energy_j(&phase);
        assert!(energy >= latency * model.config().idle_w * 0.99);
        assert!(energy <= latency * model.config().tdp_w * 1.01);
    }

    #[test]
    fn zero_phase_costs_nothing() {
        let model = H100Model::default();
        assert_eq!(model.energy_j(&GpuPhase::default()), 0.0);
        assert_eq!(model.latency_s(&GpuPhase::default()), 0.0);
    }

    #[test]
    fn phase_plus_accumulates() {
        let a = attention_phase(1024, 8, 64, true);
        let b = a.plus(&a);
        assert!((b.int8_ops - 2.0 * a.int8_ops).abs() < 1.0);
    }
}
