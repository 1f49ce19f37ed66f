//! Cross-crate stack checks: the serving stack — router, serve node,
//! prefix cache, spill tier and engine — run end to end on small
//! workloads, with every request's outputs checked byte for byte against
//! its solo run through the seed oracle (`run_qk_block_reference`).
//!
//! The optional layers only change *where* identical key planes come
//! from, and the scheduler only changes *when* blocks run, so any
//! divergence here is a stack regression.

use pade::cache::{CacheBudget, TierConfig};
use pade::router::{route, DrainPlan, FleetTierConfig, RoutePolicy, RouterConfig};
use pade::workload::prompt::{generate_shared_prefix_arrivals, SharedPrefixConfig};
use pade::workload::trace::{generate_tenant_mix, ArrivalConfig, RequestArrival, TenantLoad};
use pade_serve::scheduler::{ScheduleMode, SchedulePolicy};
use pade_serve::server::{serve, Completion, ServeConfig};
use pade_serve::{output_bytes, reference_outputs};

/// Asserts that `completions` cover every arrival exactly once and that
/// each one's output bytes equal its solo seed-oracle run.
fn assert_oracle_identical(
    completions: &[&Completion],
    arrivals: &[RequestArrival],
    config: &ServeConfig,
) {
    let mut ids: Vec<usize> = completions.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..arrivals.len()).collect::<Vec<_>>(), "every request completes once");
    for completion in completions {
        let spec = &arrivals[completion.id];
        assert_eq!(spec.id, completion.id);
        assert!(
            completion.output_bytes() == output_bytes(&reference_outputs(spec, &config.engine)),
            "request {} diverged from its solo seed-oracle run",
            completion.id
        );
    }
}

/// A two-node prefix-affinity fleet over shared-prefix, multi-turn
/// prompts: a budget tight enough to evict and a memory spill tier that
/// catches the evictions. The fleet tier runs twice: once with a
/// mid-trace drain of node 0, whose shard must migrate, and once with
/// hot-shard replication and no drain.
#[test]
fn affinity_fleet_with_spill_tier_and_drain_matches_the_oracle() {
    let arrivals = generate_shared_prefix_arrivals(&SharedPrefixConfig {
        n_sessions: 4,
        turns_per_session: 2,
        pool_size: 2,
        shared_prefix_tokens: 64,
        unique_suffix_tokens: 8,
        turn_suffix_tokens: 8,
        decode_steps: 2,
        mean_interarrival_cycles: 50_000.0,
        turn_gap_cycles: 500_000,
        ..SharedPrefixConfig::small_demo()
    });
    let node = ServeConfig {
        kv_chunk_tokens: 16,
        prefix_cache: Some(CacheBudget::bytes(4 * 1024)),
        tier: Some(TierConfig::Memory),
        ..ServeConfig::standard()
    };
    let drain_node_0 = DrainPlan { node: 0, after_arrivals: arrivals.len() / 2 };
    let replicate = FleetTierConfig { replicate_hot_after: 2, ..FleetTierConfig::default() };
    for (tier, drain) in [(FleetTierConfig::default(), Some(drain_node_0)), (replicate, None)] {
        let fleet = RouterConfig {
            tier: Some(tier),
            drain,
            ..RouterConfig::homogeneous(node.clone(), 2, RoutePolicy::Affinity)
        };
        let report = route(&fleet, &arrivals, ScheduleMode::Batched);
        assert_oracle_identical(&report.completions_by_id(), &arrivals, &node);
        // The layers under test did work: shared prefixes hit, the tight
        // budget evicted into the spill tier, and the fleet tier moved
        // shards.
        let s = &report.summary;
        assert!(s.cache_hit_tokens > 0, "no prefix-cache hits");
        assert!(s.cache_evictions > 0 && s.cache_spilled_chunks > 0, "the budget never spilled");
        if drain.is_some() {
            for d in &report.decisions[arrivals.len() / 2..] {
                assert_ne!(d.node, 0, "placement on the drained node");
            }
            assert!(s.migrations >= 1, "the drain migrated nothing");
        } else {
            assert!(s.replications >= 1, "the hot shared prefix never replicated");
        }
    }
}

/// One SLO-aware node slicing prefills into 4-row chunks (below the
/// engine's `pe_rows`) while a high-priority decode tenant contends, so
/// blocks are preempted, parked and resumed, and sliced prefills are
/// re-run at the native tiling on completion.
#[test]
fn slo_aware_chunked_prefill_node_matches_the_oracle() {
    let base = ArrivalConfig {
        n_requests: 3,
        mean_interarrival_cycles: 400.0,
        decode_steps: 2,
        prefill_rows: 10,
        seq_len: 128,
        seed: 2026,
        ..ArrivalConfig::small_demo()
    };
    let arrivals = generate_tenant_mix(&[
        TenantLoad {
            tenant: 0,
            priority: 10,
            tenant_slo: Some(200_000),
            arrivals: ArrivalConfig { decode_fraction: 1.0, ..base },
        },
        TenantLoad {
            tenant: 1,
            priority: 0,
            tenant_slo: None,
            arrivals: ArrivalConfig { decode_fraction: 0.0, prefill_rows: 20, seed: 7, ..base },
        },
    ]);
    let config = ServeConfig {
        engine_slots: 1,
        policy: SchedulePolicy::SloAware,
        prefill_chunk_tokens: Some(4),
        preempt_every: Some(3),
        ..ServeConfig::standard()
    };
    let report = serve(&config, &arrivals, ScheduleMode::Batched);
    let completions: Vec<&Completion> = report.completions.iter().collect();
    assert_oracle_identical(&completions, &arrivals, &config);
    assert!(report.summary.preemptions > 0, "the cadence never preempted");
}
