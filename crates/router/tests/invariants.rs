//! Router invariants, property-tested:
//!
//! 1. **Determinism** — same seed ⇒ identical routing decision logs and
//!    byte-identical per-request outputs, run after run.
//! 2. **Placement-independence** — outputs are byte-identical across
//!    node counts {1, 2, 4} and across every policy, and equal to the
//!    single-node `serve` run and the solo seed-oracle
//!    (`run_qk_block_reference`) outputs.
//! 3. **Degraded fleets** — a zero-slot ("failed empty") node never
//!    deadlocks the router: everything still completes.
//! 4. **Shard merge** — the `pade-dist` `(m, l, O)` reduction of the
//!    fleet's per-node states is bitwise the single-node result.

use std::collections::HashMap;

use pade_router::{route, verify_partial_merge, RoutePolicy, RouterConfig};
use pade_serve::scheduler::ScheduleMode;
use pade_serve::server::{serve, ServeConfig};
use pade_serve::{output_bytes, reference_outputs};
use pade_workload::prompt::{
    generate_multi_tenant_arrivals, MultiTenantConfig, SharedPrefixConfig,
};
use proptest::prelude::*;

/// A small multi-tenant workload: every request carries a prompt, several
/// sessions return for a second turn.
fn workload(seed: u64) -> Vec<pade_workload::trace::RequestArrival> {
    generate_multi_tenant_arrivals(&MultiTenantConfig {
        tenants: 2,
        sessions_per_tenant: 3,
        per_tenant: SharedPrefixConfig {
            // One pool prefix per tenant: every session of a tenant
            // shares it, so tenant-blind scattering re-decomposes it on
            // every node it touches.
            pool_size: 1,
            turns_per_session: 2,
            shared_prefix_tokens: 48,
            unique_suffix_tokens: 12,
            turn_suffix_tokens: 12,
            decode_steps: 2,
            prefill_rows: 6,
            mean_interarrival_cycles: 2_000.0,
            turn_gap_cycles: 50_000,
            ..SharedPrefixConfig::small_demo()
        },
        seed,
    })
}

fn node_config() -> ServeConfig {
    ServeConfig { kv_chunk_tokens: 16, ..ServeConfig::standard() }
}

fn output_map(report: &pade_router::RouterReport) -> HashMap<usize, Vec<u8>> {
    report.completions_by_id().iter().map(|c| (c.id, c.output_bytes())).collect()
}

proptest! {
    /// Same seed ⇒ identical routing decisions and byte-identical
    /// outputs, for every policy.
    #[test]
    fn routing_is_deterministic_per_seed(seed in any::<u64>(), n_nodes in 1usize..5) {
        let arrivals = workload(seed);
        for policy in [RoutePolicy::Affinity, RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded] {
            let config = RouterConfig::homogeneous(node_config(), n_nodes, policy);
            let a = route(&config, &arrivals, ScheduleMode::Batched);
            let b = route(&config, &arrivals, ScheduleMode::Batched);
            prop_assert_eq!(&a.decisions, &b.decisions, "{} decisions diverged", policy.label());
            prop_assert_eq!(&a.summary, &b.summary);
            prop_assert_eq!(output_map(&a), output_map(&b));
        }
    }

    /// Outputs are byte-identical across node counts {1, 2, 4}, across
    /// policies, against the single-node serve run, and against the solo
    /// seed-oracle run of every request.
    #[test]
    fn outputs_are_placement_independent(seed in any::<u64>()) {
        let arrivals = workload(seed);
        let config = node_config();
        let single = serve(&config, &arrivals, ScheduleMode::Batched);
        let mut single_bytes: Vec<(usize, Vec<u8>)> =
            single.completions.iter().map(|c| (c.id, c.output_bytes())).collect();
        single_bytes.sort_by_key(|&(id, _)| id);
        let single_map: HashMap<usize, Vec<u8>> = single_bytes.into_iter().collect();

        for n_nodes in [1usize, 2, 4] {
            for policy in
                [RoutePolicy::Affinity, RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded]
            {
                let fleet = RouterConfig::homogeneous(config.clone(), n_nodes, policy);
                let report = route(&fleet, &arrivals, ScheduleMode::Batched);
                let fleet_map = output_map(&report);
                prop_assert_eq!(
                    &fleet_map,
                    &single_map,
                    "{} nodes under {} diverged from single-node serve",
                    n_nodes,
                    policy.label()
                );
            }
        }
        // The single-node map itself equals the seed-oracle outputs, so
        // transitively every fleet does too; check it directly once.
        for completion in &single.completions {
            let oracle = reference_outputs(&arrivals[completion.id], &config.engine);
            prop_assert_eq!(
                completion.output_bytes(),
                output_bytes(&oracle),
                "request {} diverged from its solo seed-oracle run",
                completion.id
            );
        }
    }

    /// A fleet containing a zero-slot node (the "failed empty" node —
    /// present, routable, no capacity beyond the scheduler's clamp to
    /// one) never deadlocks: every request completes under every policy.
    #[test]
    fn zero_slot_node_never_deadlocks(seed in any::<u64>()) {
        let arrivals = workload(seed);
        let healthy = node_config();
        let degraded = ServeConfig { engine_slots: 0, ..node_config() };
        for policy in [RoutePolicy::Affinity, RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded] {
            let fleet = RouterConfig {
                nodes: vec![healthy.clone(), degraded.clone(), healthy.clone()],
                policy,
                tier: None,
                drain: None,
            };
            let report = route(&fleet, &arrivals, ScheduleMode::Batched);
            let ids: Vec<usize> = report.completions_by_id().iter().map(|c| c.id).collect();
            prop_assert_eq!(
                ids,
                (0..arrivals.len()).collect::<Vec<_>>(),
                "{} lost requests on a degraded fleet",
                policy.label()
            );
        }
    }
}

/// The dist-merge proof on a real routed run: per-node `(m, l, O)`
/// states reduce to the single-node result bitwise, in any order.
#[test]
fn sharded_states_merge_bitwise_to_single_node() {
    let arrivals = workload(2026);
    for n_nodes in [1usize, 2, 4] {
        let config = RouterConfig::homogeneous(node_config(), n_nodes, RoutePolicy::Affinity);
        let report = route(&config, &arrivals, ScheduleMode::Batched);
        let rows = verify_partial_merge(&report, 16);
        assert!(rows > 0, "{n_nodes} nodes: merge check must cover retained rows");
    }
}

/// Affinity keeps every session on one node and beats round-robin on
/// fleet cache hits for the multi-tenant workload at 2 and 4 nodes.
#[test]
fn affinity_beats_round_robin_on_hits() {
    let arrivals = workload(7);
    for n_nodes in [2usize, 4] {
        let aff = route(
            &RouterConfig::homogeneous(node_config(), n_nodes, RoutePolicy::Affinity),
            &arrivals,
            ScheduleMode::Batched,
        );
        let rr = route(
            &RouterConfig::homogeneous(node_config(), n_nodes, RoutePolicy::RoundRobin),
            &arrivals,
            ScheduleMode::Batched,
        );
        assert!(
            aff.summary.cache_hit_tokens > rr.summary.cache_hit_tokens,
            "{n_nodes} nodes: affinity {} vs round-robin {} hit tokens",
            aff.summary.cache_hit_tokens,
            rr.summary.cache_hit_tokens
        );
        assert!(aff.summary.cache_decomposed_tokens < rr.summary.cache_decomposed_tokens);
        // Sessions never migrate under affinity.
        let mut home: HashMap<u64, usize> = HashMap::new();
        for d in &aff.decisions {
            assert_eq!(*home.entry(d.session).or_insert(d.node), d.node);
        }
    }
}
