//! Model zoo: architectural parameters of the paper's seven benchmark
//! models (§VI-A).

/// Application domain of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Autoregressive language model.
    Language,
    /// Vision transformer.
    Vision,
}

/// Architectural parameters of one benchmark model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Model name as reported in the paper's tables.
    pub name: &'static str,
    /// Number of transformer layers.
    pub layers: usize,
    /// Number of query heads.
    pub heads: usize,
    /// Number of key/value heads (`== heads` for MHA).
    pub kv_heads: usize,
    /// Per-head hidden dimension.
    pub head_dim: usize,
    /// Application domain.
    pub domain: Domain,
}

impl ModelConfig {
    /// Query heads per KV head (1 for MHA, >1 for GQA).
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.heads / self.kv_heads.max(1)
    }

    /// Nominal dense attention MACs for one layer at sequence length `s`
    /// (QKᵀ plus PV): `2 · heads · s² · head_dim`.
    #[must_use]
    pub fn dense_macs_per_layer(&self, s: usize) -> u64 {
        2 * self.heads as u64 * (s as u64) * (s as u64) * self.head_dim as u64
    }
}

/// Llama-2-7B: 32 layers × 32 MHA heads × 128 dims.
#[must_use]
pub fn llama2_7b() -> ModelConfig {
    ModelConfig {
        name: "Llama2-7B",
        layers: 32,
        heads: 32,
        kv_heads: 32,
        head_dim: 128,
        domain: Domain::Language,
    }
}

/// Llama-3-8B: 32 layers × 32 query heads sharing 8 KV heads (GQA) × 128.
#[must_use]
pub fn llama3_8b() -> ModelConfig {
    ModelConfig {
        name: "Llama3-8B",
        layers: 32,
        heads: 32,
        kv_heads: 8,
        head_dim: 128,
        domain: Domain::Language,
    }
}

/// OPT-1.3B: 24 layers × 32 MHA heads × 64 dims.
#[must_use]
pub fn opt_1b3() -> ModelConfig {
    ModelConfig {
        name: "OPT1B3",
        layers: 24,
        heads: 32,
        kv_heads: 32,
        head_dim: 64,
        domain: Domain::Language,
    }
}

/// Bloom-1B7: 24 layers × 16 MHA heads × 128 dims.
#[must_use]
pub fn bloom_1b7() -> ModelConfig {
    ModelConfig {
        name: "Bloom1B7",
        layers: 24,
        heads: 16,
        kv_heads: 16,
        head_dim: 128,
        domain: Domain::Language,
    }
}

/// Qwen-7B: 32 layers × 32 MHA heads × 128 dims.
#[must_use]
pub fn qwen_7b() -> ModelConfig {
    ModelConfig {
        name: "Qwen7B",
        layers: 32,
        heads: 32,
        kv_heads: 32,
        head_dim: 128,
        domain: Domain::Language,
    }
}

/// ViT-L/16: 24 layers × 16 MHA heads × 64 dims, S = 576 patches.
#[must_use]
pub fn vit_l16() -> ModelConfig {
    ModelConfig {
        name: "ViT-L/16",
        layers: 24,
        heads: 16,
        kv_heads: 16,
        head_dim: 64,
        domain: Domain::Vision,
    }
}

/// PVT (pyramid vision transformer): long early-stage sequences (~3k).
#[must_use]
pub fn pvt() -> ModelConfig {
    ModelConfig {
        name: "PVT",
        layers: 16,
        heads: 8,
        kv_heads: 8,
        head_dim: 64,
        domain: Domain::Vision,
    }
}

/// All seven benchmark models in the paper's reporting order.
#[must_use]
pub fn zoo() -> Vec<ModelConfig> {
    vec![llama2_7b(), llama3_8b(), opt_1b3(), bloom_1b7(), qwen_7b(), vit_l16(), pvt()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_seven_models_with_unique_names() {
        let z = zoo();
        assert_eq!(z.len(), 7);
        let mut names: Vec<_> = z.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn llama3_is_the_only_gqa_model() {
        for m in zoo() {
            if m.name == "Llama3-8B" {
                assert_eq!(m.group_size(), 4);
            } else {
                assert_eq!(m.group_size(), 1);
            }
        }
    }

    #[test]
    fn dense_macs_scale_quadratically_in_seq() {
        let m = llama2_7b();
        let a = m.dense_macs_per_layer(1024);
        let b = m.dense_macs_per_layer(2048);
        assert_eq!(b, a * 4);
    }

    #[test]
    fn vision_models_are_marked() {
        assert_eq!(vit_l16().domain, Domain::Vision);
        assert_eq!(pvt().domain, Domain::Vision);
        assert_eq!(llama2_7b().domain, Domain::Language);
    }
}
