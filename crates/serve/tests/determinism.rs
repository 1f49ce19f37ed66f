//! Serving-layer guarantees, property-tested:
//!
//! 1. **Scheduler determinism** — the serve loop is a pure function of
//!    (seed, configuration): same seed + same arrival trace ⇒ identical
//!    completion order and identical per-request output bytes, run after
//!    run.
//! 2. **Batched-vs-solo bit-identity** — batching is a scheduling
//!    decision, never a numerical one: every request served in a busy
//!    continuous batch produces byte-identical retained outputs to the
//!    same request run alone through the seed oracle
//!    `run_qk_block_reference`.

use pade_cache::CacheBudget;
use pade_serve::scheduler::ScheduleMode;
use pade_serve::server::{serve, Completion, ServeConfig, ServeReport};
use pade_serve::{output_bytes, reference_outputs};
use pade_workload::prompt::SharedPrefixConfig;
use pade_workload::trace::{generate_arrivals, ArrivalConfig};
use proptest::prelude::*;

/// A small, fast workload: tiny contexts, a handful of requests.
fn workload(seed: u64, n_requests: usize, mean_gap: f64) -> ArrivalConfig {
    ArrivalConfig {
        n_requests,
        mean_interarrival_cycles: mean_gap,
        decode_steps: 2,
        prefill_rows: 10, // not a pe_rows multiple: exercises ragged blocks
        seq_len: 128,
        seed,
        ..ArrivalConfig::small_demo()
    }
}

fn by_id(report: &ServeReport) -> Vec<&Completion> {
    let mut v: Vec<&Completion> = report.completions.iter().collect();
    v.sort_by_key(|c| c.id);
    v
}

/// A small shared-prefix / multi-turn workload whose requests carry
/// prompt token-id sequences (the prefix-cache serving regime).
fn prompt_workload(seed: u64) -> SharedPrefixConfig {
    SharedPrefixConfig {
        n_sessions: 3,
        turns_per_session: 2,
        shared_prefix_tokens: 40,
        unique_suffix_tokens: 12,
        turn_suffix_tokens: 12,
        decode_steps: 2,
        prefill_rows: 6,
        mean_interarrival_cycles: 2_000.0,
        turn_gap_cycles: 50_000,
        head_dim: 64,
        seed,
        ..SharedPrefixConfig::small_demo()
    }
}

proptest! {
    /// Same seed + same arrival trace ⇒ identical completion order and
    /// identical per-request output bytes across repeated runs. (Worker
    /// count invariance is swept over `PADE_THREADS` in `tests/tracing.rs`.)
    #[test]
    fn serve_is_deterministic_per_seed(
        seed in any::<u64>(),
        n in 2usize..5,
        saturated in any::<bool>(),
        slots in 1usize..5,
    ) {
        let gap = if saturated { 400.0 } else { 4_000.0 };
        let arrivals = generate_arrivals(&workload(seed, n, gap));
        let config = ServeConfig {
            engine_slots: slots,
            ..ServeConfig::standard()
        };
        let a = serve(&config, &arrivals, ScheduleMode::Batched);
        let b = serve(&config, &arrivals, ScheduleMode::Batched);
        prop_assert_eq!(a.completion_order(), b.completion_order());
        prop_assert_eq!(a.summary, b.summary);
        for (x, y) in a.completions.iter().zip(&b.completions) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.finished, y.finished);
            prop_assert_eq!(x.output_bytes(), y.output_bytes());
        }
    }

    /// Batched serving, solo serving and the solo seed oracle all produce
    /// byte-identical per-request outputs — under load (deep queues, full
    /// batches) as well as at low rates.
    #[test]
    fn batched_outputs_match_solo_oracle_bytes(
        seed in any::<u64>(),
        n in 2usize..4,
        saturated in any::<bool>(),
    ) {
        let gap = if saturated { 300.0 } else { 3_000.0 };
        let arrivals = generate_arrivals(&workload(seed, n, gap));
        let config = ServeConfig::standard();
        let batched = serve(&config, &arrivals, ScheduleMode::Batched);
        let solo = serve(&config, &arrivals, ScheduleMode::Solo);
        prop_assert_eq!(batched.completions.len(), arrivals.len());
        for (b, s) in by_id(&batched).iter().zip(by_id(&solo)) {
            prop_assert_eq!(b.id, s.id);
            prop_assert_eq!(b.output_bytes(), s.output_bytes());
        }
        for completion in by_id(&batched) {
            let spec = &arrivals[completion.id];
            prop_assert_eq!(spec.id, completion.id);
            let oracle = reference_outputs(spec, &config.engine);
            prop_assert_eq!(
                completion.output_bytes(),
                output_bytes(&oracle),
                "request {} diverged from its solo run_qk_block_reference run",
                completion.id
            );
        }
    }

    /// The growable KV cache's chunk size is a storage knob, never a
    /// numerical one: any positive `kv_chunk_tokens` yields byte-identical
    /// per-request outputs (chunk boundaries land differently, token
    /// planes do not change).
    #[test]
    fn kv_chunk_size_never_changes_outputs(
        seed in any::<u64>(),
        n in 2usize..4,
        chunk in 1usize..9,
    ) {
        let arrivals = generate_arrivals(&ArrivalConfig {
            decode_fraction: 1.0, // all decode: every session grows its cache
            ..workload(seed, n, 600.0)
        });
        let base = serve(&ServeConfig::standard(), &arrivals, ScheduleMode::Batched);
        let odd = serve(
            &ServeConfig { kv_chunk_tokens: chunk, ..ServeConfig::standard() },
            &arrivals,
            ScheduleMode::Batched,
        );
        prop_assert_eq!(base.completion_order(), odd.completion_order());
        for (a, b) in by_id(&base).iter().zip(by_id(&odd)) {
            prop_assert_eq!(a.output_bytes(), b.output_bytes());
        }
    }

    /// The prefix cache is a storage decision, never a numerical one:
    /// serving a shared-prefix / multi-turn workload with the cache on
    /// (unlimited or tightly budgeted) or off yields identical completion
    /// orders and byte-identical per-request outputs — and every request
    /// matches its solo `run_qk_block_reference` oracle run, which
    /// re-derives the prompt key rows from scratch and never touches a
    /// cache.
    #[test]
    fn prefix_cache_on_or_off_never_changes_outputs(
        seed in any::<u64>(),
        chunk in 1usize..9,
        tight in any::<bool>(),
    ) {
        let arrivals =
            pade_workload::prompt::generate_shared_prefix_arrivals(&prompt_workload(seed));
        let budget = if tight { CacheBudget::bytes(16 * 1024) } else { CacheBudget::unlimited() };
        let base = ServeConfig { kv_chunk_tokens: chunk, ..ServeConfig::standard() };
        let cached = serve(
            &ServeConfig { prefix_cache: Some(budget), ..base.clone() },
            &arrivals,
            ScheduleMode::Batched,
        );
        let uncached = serve(
            &ServeConfig { prefix_cache: None, ..base },
            &arrivals,
            ScheduleMode::Batched,
        );
        prop_assert_eq!(cached.completion_order(), uncached.completion_order());
        for (a, b) in by_id(&cached).iter().zip(by_id(&uncached)) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.output_bytes(), b.output_bytes());
        }
        // The cache actually engaged: multi-turn shared prefixes must hit.
        prop_assert!(cached.summary.cache_hit_tokens > 0);
        prop_assert_eq!(uncached.summary.cache_hit_tokens, 0);
        for completion in by_id(&cached) {
            let oracle = reference_outputs(&arrivals[completion.id], &ServeConfig::standard().engine);
            prop_assert_eq!(
                completion.output_bytes(),
                output_bytes(&oracle),
                "request {} diverged from its solo seed-oracle run",
                completion.id
            );
        }
    }

    /// Hit-aware admission is a scheduling knob, never a numerical one:
    /// reordering simultaneously-ready requests by predicted prefix hits
    /// changes (at most) completion order — every request's output bytes
    /// are identical with the flag on or off, and the flag never loses
    /// or duplicates a request.
    #[test]
    fn hit_aware_admission_never_changes_outputs(
        seed in any::<u64>(),
        slots in 1usize..4,
        saturated in any::<bool>(),
    ) {
        let mut workload = prompt_workload(seed);
        if saturated {
            // A burst: many requests ready at one admission instant, so
            // the hit-aware tie-break actually reorders.
            workload.mean_interarrival_cycles = 200.0;
            workload.turn_gap_cycles = 2_000;
        }
        let arrivals = pade_workload::prompt::generate_shared_prefix_arrivals(&workload);
        let base = ServeConfig { engine_slots: slots, ..ServeConfig::standard() };
        let fcfs = serve(&base, &arrivals, ScheduleMode::Batched);
        let aware = serve(
            &ServeConfig { hit_aware: true, ..base.clone() },
            &arrivals,
            ScheduleMode::Batched,
        );
        // Same request set, byte-identical outputs per request.
        pade_serve::assert_outputs_identical(&fcfs, &aware);
        prop_assert_eq!(fcfs.completions.len(), arrivals.len());
        prop_assert_eq!(aware.summary.tokens, fcfs.summary.tokens);
        // And deterministic: the aware schedule reproduces itself.
        let again = serve(
            &ServeConfig { hit_aware: true, ..base },
            &arrivals,
            ScheduleMode::Batched,
        );
        prop_assert_eq!(aware.completion_order(), again.completion_order());
        prop_assert_eq!(aware.summary, again.summary);
    }

    /// Throughput dominance: continuous batching never completes the same
    /// trace later than one-request-at-a-time.
    #[test]
    fn batched_never_slower_than_solo(seed in any::<u64>(), n in 2usize..5) {
        let arrivals = generate_arrivals(&workload(seed, n, 500.0));
        let config = ServeConfig::standard();
        let batched = serve(&config, &arrivals, ScheduleMode::Batched);
        let solo = serve(&config, &arrivals, ScheduleMode::Solo);
        prop_assert!(batched.summary.makespan <= solo.summary.makespan);
        prop_assert!(batched.summary.tokens_per_s >= solo.summary.tokens_per_s);
    }
}

/// A warm cache file changes KV-prep work, never outputs: a run that
/// loads the index a previous run saved produces byte-identical
/// per-request outputs while hitting on the very first request.
#[test]
fn cache_file_round_trip_preserves_outputs_and_warms_the_index() {
    let arrivals = pade_workload::prompt::generate_shared_prefix_arrivals(&prompt_workload(2026));
    let path = std::env::temp_dir().join("pade_serve_cache_file_test.bin");
    let _ = std::fs::remove_file(&path);
    // Chunk small enough that the 40-token pool prefixes actually seal
    // indexable chunks (the standard 64-token chunk would leave this tiny
    // workload's whole prompt in the private tail).
    let warm_config = ServeConfig {
        cache_file: Some(path.clone()),
        kv_chunk_tokens: 16,
        ..ServeConfig::standard()
    };

    // Cold run: builds and saves the index.
    let cold = serve(&warm_config, &arrivals, ScheduleMode::Batched);
    assert!(path.exists(), "the run must save its cache image");
    assert!(cold.summary.cache_decomposed_tokens > 0);

    // Warm run over the same trace: every pool prefix is already
    // resident, so strictly more tokens hit — and outputs are identical.
    let warm = serve(&warm_config, &arrivals, ScheduleMode::Batched);
    pade_serve::assert_outputs_identical(&cold, &warm);
    assert!(
        warm.summary.cache_hit_tokens > cold.summary.cache_hit_tokens,
        "warm {} vs cold {} hit tokens",
        warm.summary.cache_hit_tokens,
        cold.summary.cache_hit_tokens
    );
    assert_eq!(warm.completion_order(), cold.completion_order());

    // And against a no-file baseline, byte-identical too.
    let baseline = serve(
        &ServeConfig { kv_chunk_tokens: 16, ..ServeConfig::standard() },
        &arrivals,
        ScheduleMode::Batched,
    );
    pade_serve::assert_outputs_identical(&warm, &baseline);
    let _ = std::fs::remove_file(&path);
}

/// A cache file that fails to load never stops a run: the node starts
/// cold, counts one tier fault and serves oracle-identical outputs, and
/// the image it saves at the end loads warm on the next run. Covers a
/// garbage file and a valid image of another chunk shape.
#[test]
fn unloadable_cache_file_starts_cold_and_counts_a_fault() {
    let arrivals = pade_workload::prompt::generate_shared_prefix_arrivals(&prompt_workload(7));
    let path = std::env::temp_dir()
        .join(format!("pade_serve_unloadable_cache_{}.bin", std::process::id()));
    let config = ServeConfig {
        cache_file: Some(path.clone()),
        kv_chunk_tokens: 16,
        ..ServeConfig::standard()
    };
    let other_shape = ServeConfig { kv_chunk_tokens: 8, ..config.clone() };
    let garbage = || std::fs::write(&path, b"definitely not a PADE cache image").unwrap();
    let mismatched = || drop(serve(&other_shape, &arrivals, ScheduleMode::Batched));
    for (label, corrupt) in [("garbage", &garbage as &dyn Fn()), ("shape", &mismatched)] {
        corrupt();
        let cold = serve(&config, &arrivals, ScheduleMode::Batched);
        assert_eq!(cold.metrics.cache.tier_faults, 1, "{label}: the failed load is one fault");
        assert_eq!(cold.completions.len(), arrivals.len(), "{label}");
        for completion in &cold.completions {
            let oracle = reference_outputs(&arrivals[completion.id], &config.engine);
            assert_eq!(completion.output_bytes(), output_bytes(&oracle), "{label}");
        }
        let warm = serve(&config, &arrivals, ScheduleMode::Batched);
        assert_eq!(warm.metrics.cache.tier_faults, 0, "{label}: the rewritten file loads");
        assert!(warm.summary.cache_hit_tokens > cold.summary.cache_hit_tokens, "{label}");
        pade_serve::assert_outputs_identical(&cold, &warm);
    }
    let _ = std::fs::remove_file(&path);
}

/// `Solo` is a one-slot batched node: the same completion order, summary
/// and output bytes as a `Batched` run with `engine_slots: 1`.
#[test]
fn solo_equals_a_one_slot_batched_node() {
    let arrivals = generate_arrivals(&workload(2026, 6, 300.0));
    let config = ServeConfig::standard();
    let solo = serve(&config, &arrivals, ScheduleMode::Solo);
    let one_slot =
        serve(&ServeConfig { engine_slots: 1, ..config }, &arrivals, ScheduleMode::Batched);
    assert_eq!(solo.completion_order(), one_slot.completion_order());
    assert_eq!(solo.summary, one_slot.summary);
    for (a, b) in solo.completions.iter().zip(&one_slot.completions) {
        assert_eq!(a.output_bytes(), b.output_bytes(), "request {}", a.id);
    }
}

/// A saturated many-request run exercises deep queues, the token cap and
/// multi-iteration sessions at once; the completion order must still be a
/// permutation of the ids and FCFS-compatible per arrival time.
#[test]
fn saturated_run_completes_everything_deterministically() {
    let arrivals = generate_arrivals(&workload(2026, 12, 300.0));
    let config = ServeConfig { engine_slots: 3, max_batch_tokens: 12, ..ServeConfig::standard() };
    let a = serve(&config, &arrivals, ScheduleMode::Batched);
    let b = serve(&config, &arrivals, ScheduleMode::Batched);
    assert_eq!(a.completion_order(), b.completion_order());
    let mut ids = a.completion_order();
    ids.sort_unstable();
    assert_eq!(ids, (0..arrivals.len()).collect::<Vec<_>>());
    assert_eq!(a.summary.latency.count, arrivals.len());
    assert!(a.summary.queue_depth_max >= 2.0, "saturation must build a queue");
}
