//! Fleet-level metrics: per-node
//! [`MetricsSummary`](pade_serve::metrics::MetricsSummary) digests merged
//! into one [`RouterSummary`].
//!
//! Latency percentiles cannot be merged from per-node percentiles, so
//! the merge pools the raw per-node [`LatencyStats`] samples (the
//! collectors ride along in every [`ServeReport`]) and re-digests —
//! exact aggregate percentiles, not an approximation. Cache counters
//! sum; the makespan is the slowest node's clock (nodes run
//! concurrently); load imbalance is the max/mean ratio of per-node
//! served tokens, the standard fleet-balance figure (1.0 = perfectly
//! even, `N` = one node took everything).

use pade_serve::metrics::{slo_attainment, FlightTotals, TenantSloSummary};
use pade_serve::server::ServeReport;
use pade_sim::{Cycle, Frequency, LatencyStats, LatencySummary, OpCounts, TrafficCounts};
use pade_trace::MetricsRegistry;

use crate::policy::{RouteDecision, RouteReason};

/// The digest of a finished multi-node route run.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterSummary {
    /// Nodes in the fleet.
    pub n_nodes: usize,
    /// Latency percentiles over **all** completed requests, pooled from
    /// the per-node samples (exact, not a percentile-of-percentiles).
    pub latency: LatencySummary,
    /// Query-row tokens completed fleet-wide.
    pub tokens: u64,
    /// The slowest node's makespan — the fleet's end-to-end time, since
    /// nodes step concurrently.
    pub makespan: Cycle,
    /// Fleet tokens per simulated second at the core clock.
    pub tokens_per_s: f64,
    /// Prompt tokens served from resident cache planes, summed over
    /// nodes.
    pub cache_hit_tokens: u64,
    /// Prompt tokens decomposed at admission, summed over nodes.
    pub cache_decomposed_tokens: u64,
    /// Fleet-wide fraction of attached prompt tokens served without
    /// decomposition.
    pub cache_hit_rate: f64,
    /// Cache evictions (chunks + stored sessions), summed over nodes.
    pub cache_evictions: u64,
    /// Evicted chunks demoted to spill tiers instead of dropped, summed
    /// over nodes.
    pub cache_spilled_chunks: u64,
    /// Prompt tokens re-adopted from spill tiers (no decomposition),
    /// summed over nodes — a subset of
    /// [`cache_hit_tokens`](Self::cache_hit_tokens).
    pub cache_fetched_tokens: u64,
    /// Chunk-record transfers between nodes (hot-shard replications plus
    /// load-following migrations). Zero unless the router ran with a
    /// fleet tier/drain configuration.
    pub peer_fetches: u64,
    /// Hot-shard replications performed (a shard's records copied to a
    /// second node once its route count crossed the threshold).
    pub replications: u64,
    /// Load-following migrations (a drained node's shard records moved
    /// to the node its traffic re-homed to).
    pub migrations: u64,
    /// Payload bytes moved between nodes by peer fetches.
    pub transfer_bytes: u64,
    /// Modeled interconnect cycles of those transfers (per-hop latency
    /// plus link serialization), summed. Accounting only — node clocks
    /// never include it, so outputs stay byte-identical.
    pub transfer_cycles: u64,
    /// Modeled interconnect energy of those transfers, in pJ.
    pub transfer_pj: f64,
    /// Tokens served per node, in node order — the imbalance input.
    pub node_tokens: Vec<u64>,
    /// `max(node_tokens) / mean(node_tokens)`: 1.0 is perfectly even,
    /// `n_nodes` is total skew. 0.0 for an empty run.
    pub load_imbalance: f64,
    /// Decisions placed by session affinity (returning sessions).
    pub session_affinity_routes: u64,
    /// Decisions placed by prefix-shard affinity (new sessions joining a
    /// warm node).
    pub prefix_affinity_routes: u64,
    /// Sessions descheduled at a chunk/step boundary after having run,
    /// summed over nodes.
    pub preemptions: u64,
    /// Previously-preempted sessions scheduled again, summed over nodes.
    pub resumes: u64,
    /// Per-tenant SLO attainment pooled over **all** nodes' raw
    /// registries (exact fleet percentiles, not an average of per-node
    /// lines), in tenant order; empty when no request carried an SLO.
    pub slo: Vec<TenantSloSummary>,
    /// Flight-recorder totals (queue / prefill / decode / preempted /
    /// stalled cycles over every retired request), summed over nodes.
    pub flight: FlightTotals,
    /// Engine arithmetic events summed over every node's dispatched
    /// blocks.
    pub ops: OpCounts,
    /// Engine memory traffic summed over every node's dispatched blocks.
    pub traffic: TrafficCounts,
}

/// Pools per-node reports and the decision log into a [`RouterSummary`].
///
/// # Panics
///
/// Panics if `node_reports` is empty.
#[must_use]
pub fn merge_node_reports(
    node_reports: &[ServeReport],
    decisions: &[RouteDecision],
) -> RouterSummary {
    assert!(!node_reports.is_empty(), "a fleet has at least one node");
    let mut latency = LatencyStats::new();
    let mut tokens = 0u64;
    let mut makespan = Cycle::ZERO;
    let mut hit = 0u64;
    let mut decomposed = 0u64;
    let mut evictions = 0u64;
    let mut spilled = 0u64;
    let mut fetched = 0u64;
    let mut node_tokens = Vec::with_capacity(node_reports.len());
    let mut ops = OpCounts::default();
    let mut traffic = TrafficCounts::default();
    let mut preemptions = 0u64;
    let mut resumes = 0u64;
    let mut slo_pool = MetricsRegistry::new();
    let mut flight = FlightTotals::default();
    for report in node_reports {
        latency.merge(&report.metrics.latency);
        preemptions += report.metrics.preemptions;
        resumes += report.metrics.resumes;
        slo_pool.merge(&report.metrics.slo);
        flight.merge(&report.summary.flight);
        tokens += report.summary.tokens;
        makespan = makespan.max(report.summary.makespan);
        hit += report.summary.cache_hit_tokens;
        decomposed += report.summary.cache_decomposed_tokens;
        evictions += report.summary.cache_evictions;
        spilled += report.summary.cache_spilled_chunks;
        fetched += report.summary.cache_fetched_tokens;
        node_tokens.push(report.summary.tokens);
        ops.merge(&report.summary.ops);
        traffic.merge(&report.summary.traffic);
    }
    let attached = hit + decomposed;
    let max = node_tokens.iter().copied().max().unwrap_or(0);
    let mean = tokens as f64 / node_tokens.len() as f64;
    let seconds = Frequency::default().seconds(makespan).max(f64::MIN_POSITIVE);
    RouterSummary {
        n_nodes: node_reports.len(),
        latency: latency.summary(),
        tokens,
        makespan,
        tokens_per_s: tokens as f64 / seconds,
        cache_hit_tokens: hit,
        cache_decomposed_tokens: decomposed,
        cache_hit_rate: if attached == 0 { 0.0 } else { hit as f64 / attached as f64 },
        cache_evictions: evictions,
        cache_spilled_chunks: spilled,
        cache_fetched_tokens: fetched,
        // Peer-transfer accounting lives in the router loop, not the node
        // reports; `route_traced` fills these in after the merge.
        peer_fetches: 0,
        replications: 0,
        migrations: 0,
        transfer_bytes: 0,
        transfer_cycles: 0,
        transfer_pj: 0.0,
        load_imbalance: if tokens == 0 { 0.0 } else { max as f64 / mean },
        node_tokens,
        session_affinity_routes: decisions
            .iter()
            .filter(|d| d.reason == RouteReason::SessionAffinity)
            .count() as u64,
        prefix_affinity_routes: decisions
            .iter()
            .filter(|d| d.reason == RouteReason::PrefixAffinity)
            .count() as u64,
        preemptions,
        resumes,
        slo: slo_attainment(&slo_pool),
        flight,
        ops,
        traffic,
    }
}
