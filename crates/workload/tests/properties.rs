//! Crate-level property tests for the workload substrate: trace
//! determinism, score-structure guarantees per profile, model-zoo
//! consistency and the Table II baseline wiring. The reproduction's
//! accuracy claims are only as good as these generators.

use pade_workload::model;
use pade_workload::profile::ScoreProfile;
use pade_workload::task;
use pade_workload::trace::{AttentionTrace, TraceConfig};
use proptest::prelude::*;

fn config(seq_len: usize, seed: u64, profile: ScoreProfile) -> TraceConfig {
    TraceConfig { seq_len, head_dim: 32, n_queries: 4, profile, bits: 8, seed, prompt_keys: false }
}

proptest! {
    /// Identical seeds produce bit-identical traces; different seeds
    /// produce different key tensors.
    #[test]
    fn generation_is_deterministic_per_seed(seed in any::<u64>()) {
        let cfg = config(64, seed, ScoreProfile::standard());
        let a = AttentionTrace::generate(&cfg);
        let b = AttentionTrace::generate(&cfg);
        prop_assert_eq!(a.keys().as_slice(), b.keys().as_slice());
        prop_assert_eq!(a.queries().as_slice(), b.queries().as_slice());
        let c = AttentionTrace::generate(&config(64, seed.wrapping_add(1), ScoreProfile::standard()));
        prop_assert_ne!(a.keys().as_slice(), c.keys().as_slice());
    }

    /// Every profile produces rows whose softmax mass concentrates on a
    /// strict subset — the property dynamic sparsity exists to exploit.
    #[test]
    fn score_rows_are_compressible(seed in any::<u64>()) {
        for profile in [
            ScoreProfile::standard(),
            ScoreProfile::long_context(),
            ScoreProfile::vision(),
            ScoreProfile::reasoning(),
        ] {
            let t = AttentionTrace::generate(&config(128, seed, profile));
            for row in 0..t.queries().rows() {
                let logits = t.exact_logits(row);
                let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                // Keys within 5 logits of the max carry almost all mass and
                // are a minority of the sequence.
                let vital = logits.iter().filter(|&&l| l > max - 5.0).count();
                prop_assert!(vital < 128, "row {row}: nothing prunable");
                prop_assert!(vital >= 1);
            }
        }
    }

    /// Reference outputs are convex combinations of value rows: each
    /// output coordinate lies within the min/max of the value column.
    #[test]
    fn reference_output_is_convex_combination(seed in any::<u64>()) {
        let t = AttentionTrace::generate(&config(48, seed, ScoreProfile::standard()));
        let v = t.values_f32();
        for row in 0..t.queries().rows() {
            let out = t.reference_output(row);
            for (j, &o) in out.iter().enumerate() {
                let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                for i in 0..v.rows() {
                    lo = lo.min(v.get(i, j));
                    hi = hi.max(v.get(i, j));
                }
                prop_assert!(o >= lo - 1e-4 && o <= hi + 1e-4, "coord {j}: {o} ∉ [{lo}, {hi}]");
            }
        }
    }

    /// Subset output over all keys equals the dense reference.
    #[test]
    fn subset_of_everything_is_reference(seed in any::<u64>()) {
        let t = AttentionTrace::generate(&config(40, seed, ScoreProfile::standard()));
        let all: Vec<usize> = (0..40).collect();
        for row in 0..t.queries().rows() {
            let a = t.subset_output(row, &all);
            let b = t.reference_output(row);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}

mod zoo {
    use super::*;

    /// The flattened (QAT-like) profile retains more guard-margin keys
    /// than the standard profile *in expectation* — the Fig. 26(a)
    /// mechanism. Individual seeds can cross, so this aggregates.
    #[test]
    fn flattened_profile_is_less_sparse_on_average() {
        let margin = 5.0f32;
        let count_vital = |p: fn() -> ScoreProfile| -> usize {
            (0..10u64)
                .map(|seed| {
                    let t = AttentionTrace::generate(&config(256, seed, p()));
                    (0..t.queries().rows())
                        .map(|r| {
                            let l = t.exact_logits(r);
                            let max = l.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                            l.iter().filter(|&&x| x > max - margin).count()
                        })
                        .sum::<usize>()
                })
                .sum()
        };
        let flat = count_vital(ScoreProfile::flattened);
        let std = count_vital(ScoreProfile::standard);
        assert!(flat > std, "flattened {flat} must exceed standard {std}");
    }

    #[test]
    fn model_zoo_shapes_are_consistent() {
        for m in model::zoo() {
            assert!(m.heads >= m.kv_heads, "{}: more KV heads than Q heads", m.name);
            assert!(m.heads % m.kv_heads == 0, "{}: ragged GQA groups", m.name);
            assert!(m.head_dim > 0 && m.layers > 0);
            assert!(m.dense_macs_per_layer(1024) > 0);
        }
        // GQA models actually share KV heads.
        assert!(model::llama3_8b().group_size() > 1);
        assert_eq!(model::llama2_7b().group_size(), 1);
    }

    #[test]
    fn table2_covers_every_model_task_cell() {
        for (model_name, tasks) in task::table2_layout() {
            for t in &tasks {
                assert!(
                    task::table2_baseline(model_name, t.name).is_some(),
                    "missing Table II baseline for {model_name}/{}",
                    t.name
                );
            }
        }
    }

    #[test]
    fn long_context_tasks_have_long_contexts() {
        assert!(task::dolly().seq_len >= 15_000);
        assert!(task::infinitebench().seq_len >= 200_000);
        assert!(task::niah().seq_len >= 1_000_000);
        assert!(task::winogrande().seq_len <= 512);
    }
}
