//! The `route` scenario: prefix-affinity routing vs cache-blind
//! placement across 1/2/4/8 serving nodes.
//!
//! At fleet scale the decomposed KV planes are *placed*: a request
//! landing on a node that already ingested its prompt's leading chunks
//! skips KV prep, while the same request scattered to a cold node
//! decomposes everything again — once **per node** the shard touches.
//! [`run_route_matrix`] replays one seeded multi-tenant shared-prefix
//! workload through `pade-router` under the three policies
//! ([`RoutePolicy::Affinity`], [`RoutePolicy::RoundRobin`],
//! [`RoutePolicy::LeastLoaded`]) at each node count, and per point:
//!
//! * hard-checks every request's outputs are **byte-identical** to the
//!   single-node `serve` run (placement never changes outputs) and
//!   spot-checks requests against the solo seed oracle
//!   `run_qk_block_reference`,
//! * runs the `pade-dist` `(m, l, O)` merge proof over the fleet's
//!   states ([`verify_partial_merge`]),
//! * replays each node's admission sequence through a fresh
//!   `KvCacheManager`, timing attach/detach — the fleet's real KV-prep
//!   wall clock under that placement,
//! * records fleet hit/decomposed tokens, pooled latency percentiles
//!   and load imbalance.
//!
//! [`write_route_json`] serializes the sweep to the `BENCH_<n>.json`
//! trajectory schema (`BENCH_5.json` records the routing PR): affinity
//! must beat round-robin on aggregate prefix-hit chunks and KV-prep
//! time at every node count ≥ 2.
//!
//! [`run_route_trace_profile`] additionally replays the workload with a
//! `pade-trace` recorder attached (byte-checking that telemetry changes
//! nothing), folds the recorded stream into a per-stage
//! [`StageBreakdown`], and times the tracing overhead on the headline
//! `prefill_s1024_h128` engine shape — the `"trace"` section of the
//! trajectory file (`BENCH_7.json` records the observability PR).

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pade_cache::CacheConfig;
use pade_core::config::PadeConfig;
use pade_core::engine::{run_qk_batch, run_qk_batch_traced, QkBatchJob};
use pade_quant::BitPlaneMatrix;
use pade_router::{
    route, route_traced, verify_partial_merge, RoutePolicy, RouterConfig, RouterReport,
};
use pade_serve::scheduler::ScheduleMode;
use pade_serve::server::{serve, ServeConfig};
use pade_serve::{output_bytes, reference_outputs};
use pade_trace::{track as trace_track, Recorder, StageBreakdown, TraceSnapshot, Tracer};
use pade_workload::prompt::{
    generate_multi_tenant_arrivals, MultiTenantConfig, SharedPrefixConfig,
};
use pade_workload::trace::RequestArrival;

use crate::prep::{prepare, PreparedRequest};
use crate::{time_best_of, trace_for, ShapeSpec};

/// The three policies every node count is swept over.
const POLICIES: [RoutePolicy; 3] =
    [RoutePolicy::Affinity, RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded];

/// Measured outcome of one (node count, policy) point.
#[derive(Debug, Clone)]
pub struct RoutePointResult {
    /// Nodes in the fleet.
    pub n_nodes: usize,
    /// The placement policy.
    pub policy: RoutePolicy,
    /// Prompt tokens served from resident planes, fleet-wide — index
    /// chunk adoptions *and* session-resume coverage alike.
    pub hit_tokens: u64,
    /// The same hits normalized to chunk units (`hit_tokens` ÷
    /// `chunk_tokens`) — a chunk-equivalent count for cross-node-count
    /// comparison, not a literal tally of index-chunk adoptions (resume
    /// coverage is not chunk-aligned).
    pub hit_chunks: u64,
    /// Prompt tokens decomposed at admission, fleet-wide.
    pub decomposed_tokens: u64,
    /// Wall-clock seconds of the per-node KV-prep replay (attach +
    /// detach of every routed request, summed over nodes).
    pub kv_prep_wall_s: f64,
    /// Wall-clock seconds of the routed serve run itself.
    pub route_wall_s: f64,
    /// Median request latency in cycles, pooled across nodes.
    pub p50_cycles: u64,
    /// 99th-percentile request latency in cycles, pooled across nodes.
    pub p99_cycles: u64,
    /// Fleet tokens per simulated second.
    pub tokens_per_s: f64,
    /// `max/mean` of per-node served tokens (1.0 = perfectly even).
    pub load_imbalance: f64,
    /// Routing decisions placed by session affinity.
    pub session_affinity_routes: u64,
    /// Routing decisions placed by prefix-shard affinity.
    pub prefix_affinity_routes: u64,
    /// Query rows covered by the `(m, l, O)` shard-merge proof.
    pub merge_rows_checked: usize,
    /// Whether fleet outputs matched the single-node run and the sampled
    /// seed-oracle runs byte-for-byte (hard-checked; a mismatch panics
    /// before this is recorded false).
    pub bit_identical: bool,
}

/// A finished route sweep.
#[derive(Debug, Clone)]
pub struct RouteSweep {
    /// The workload every point replayed.
    pub workload: MultiTenantConfig,
    /// Tokens per sealed cache chunk (the shard-key granularity).
    pub chunk_tokens: usize,
    /// One entry per (node count, policy), node counts ascending.
    pub points: Vec<RoutePointResult>,
    /// Stage attribution + tracing-overhead check of the traced replay.
    pub trace: RouteTraceProfile,
}

/// Stage attribution and overhead check of the traced route replay —
/// the `"trace"` section of the route `BENCH_<n>.json` trajectory.
///
/// Without the `trace` feature the recorder is compiled out:
/// `feature_enabled` is false, the breakdown is empty, and the overhead
/// is 0% by construction (the guarded telemetry folds away).
#[derive(Debug, Clone)]
pub struct RouteTraceProfile {
    /// Whether the recorder was compiled in (`trace` feature).
    pub feature_enabled: bool,
    /// Events recorded by the traced affinity replay.
    pub events: usize,
    /// Spans recorded by the traced affinity replay.
    pub spans: usize,
    /// Distinct stage names observed across the replay, sorted.
    pub stage_names: Vec<String>,
    /// Per-stage cycle/wall attribution of the replay.
    pub breakdown: StageBreakdown,
    /// The raw recorded stream (for `--trace-out` Chrome export).
    pub snapshot: TraceSnapshot,
    /// The engine shape the overhead was measured on.
    pub overhead_shape: String,
    /// Best-of wall seconds of the untraced engine run on that shape.
    pub untraced_wall_s: f64,
    /// Best-of wall seconds of the same run with a recorder attached.
    pub recorder_wall_s: f64,
    /// `recorder_wall_s / untraced_wall_s − 1`, clamped at zero.
    pub overhead_frac: f64,
}

/// Times the parallel engine on one shape untraced vs with a recorder
/// sink attached; returns `(shape_id, untraced_wall_s, recorder_wall_s)`.
///
/// The full sweep measures the headline `prefill_s1024_h128` shape;
/// `quick` drops to `prefill_s256_h64` for CI smoke runs.
fn measure_engine_overhead(quick: bool) -> (String, f64, f64) {
    let spec = if quick {
        ShapeSpec { phase: "prefill", seq_len: 256, head_dim: 64, query_rows: 16 }
    } else {
        ShapeSpec { phase: "prefill", seq_len: 1024, head_dim: 128, query_rows: 64 }
    };
    let config = PadeConfig::standard();
    let trace = trace_for(&spec);
    let keys = BitPlaneMatrix::from_rows(trace.keys().as_slice(), trace.keys().cols(), config.bits)
        .expect("key bit planes");
    let job = QkBatchJob {
        queries: (0..trace.queries().rows()).map(|i| trace.queries().row(i)).collect(),
        keys: keys.into(),
        logit_scale: trace.logit_scale(),
    };
    let jobs = std::slice::from_ref(&job);
    let iters = if quick { 3 } else { 5 };

    let (base, untraced_wall_s) = time_best_of(iters, || run_qk_batch(&config, jobs));
    let recorder = Arc::new(Recorder::new());
    let tracer = Tracer::new(Arc::clone(&recorder) as Arc<dyn pade_trace::TraceSink>);
    let base_track = trace_track::id(trace_track::ENGINE, 0, 0);
    let (traced, recorder_wall_s) = time_best_of(iters, || {
        // Each iteration records into an empty sink, so every run pays
        // the same submission cost.
        recorder.clear();
        run_qk_batch_traced(&config, jobs, &tracer, base_track)
    });
    assert_eq!(base, traced, "tracing changed engine results on {}", spec.id());
    (spec.id(), untraced_wall_s, recorder_wall_s)
}

/// Replays the route workload once more with a recorder attached (2-node
/// affinity fleet), byte-checks the traced run against the untraced one,
/// and times the tracing overhead on the headline engine shape.
///
/// # Panics
///
/// Panics if the traced replay's outputs diverge from the untraced run
/// (telemetry must never change a byte) or the recorded stream is
/// malformed.
#[must_use]
pub fn run_route_trace_profile(quick: bool) -> RouteTraceProfile {
    let (workload, chunk_tokens) = route_workload(quick);
    let arrivals = generate_multi_tenant_arrivals(&workload);
    let node = ServeConfig { kv_chunk_tokens: chunk_tokens, ..ServeConfig::standard() };
    let fleet = RouterConfig::homogeneous(node, 2, RoutePolicy::Affinity);

    let untraced = route(&fleet, &arrivals, ScheduleMode::Batched);
    let recorder = Arc::new(Recorder::new());
    let tracer = Tracer::new(Arc::clone(&recorder) as Arc<dyn pade_trace::TraceSink>);
    let traced = route_traced(&fleet, &arrivals, ScheduleMode::Batched, &tracer);

    let untraced_bytes: HashMap<usize, Vec<u8>> =
        untraced.completions_by_id().iter().map(|c| (c.id, c.output_bytes())).collect();
    let traced_completions = traced.completions_by_id();
    assert_eq!(traced_completions.len(), arrivals.len(), "traced replay lost requests");
    for completion in &traced_completions {
        assert!(
            completion.output_bytes() == untraced_bytes[&completion.id],
            "request {}: tracing changed an output byte",
            completion.id
        );
    }
    let snapshot = recorder.snapshot();
    snapshot.check_well_formed().unwrap_or_else(|e| panic!("malformed trace: {e}"));

    let (overhead_shape, untraced_wall_s, recorder_wall_s) = measure_engine_overhead(quick);
    let overhead_frac = if untraced_wall_s > 0.0 {
        (recorder_wall_s / untraced_wall_s - 1.0).max(0.0)
    } else {
        0.0
    };
    RouteTraceProfile {
        feature_enabled: tracer.is_active(),
        events: snapshot.event_count(),
        spans: snapshot.span_count(),
        stage_names: snapshot.stage_names().into_iter().map(str::to_string).collect(),
        breakdown: snapshot.breakdown(),
        snapshot,
        overhead_shape,
        untraced_wall_s,
        recorder_wall_s,
        overhead_frac,
    }
}

/// Node counts of the sweep. `quick` trims for CI smoke runs.
#[must_use]
pub fn node_counts(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// The multi-tenant workload behind the sweep: one long shared prefix
/// per tenant (the decomposition-heavy asset affinity keeps resident),
/// several sessions per tenant, each returning for a second turn.
#[must_use]
pub fn route_workload(quick: bool) -> (MultiTenantConfig, usize) {
    if quick {
        let workload = MultiTenantConfig {
            tenants: 2,
            sessions_per_tenant: 3,
            per_tenant: SharedPrefixConfig {
                turns_per_session: 2,
                pool_size: 1,
                shared_prefix_tokens: 96,
                unique_suffix_tokens: 16,
                turn_suffix_tokens: 16,
                decode_steps: 2,
                prefill_fraction: 0.25,
                prefill_rows: 8,
                mean_interarrival_cycles: 2_000.0,
                turn_gap_cycles: 100_000,
                ..SharedPrefixConfig::small_demo()
            },
            seed: 2026,
        };
        return (workload, 32);
    }
    let workload = MultiTenantConfig {
        tenants: 4,
        sessions_per_tenant: 6,
        per_tenant: SharedPrefixConfig {
            turns_per_session: 2,
            pool_size: 1,
            shared_prefix_tokens: 1024,
            unique_suffix_tokens: 64,
            turn_suffix_tokens: 64,
            decode_steps: 8,
            prefill_fraction: 0.25,
            prefill_rows: 8,
            mean_interarrival_cycles: 4_000.0,
            turn_gap_cycles: 400_000,
            ..SharedPrefixConfig::small_demo()
        },
        seed: 2026,
    };
    (workload, 64)
}

/// Replays each node's routed admission sequence through a fresh cache
/// manager (the shared [`crate::prep::replay_manager`] loop), attach +
/// detach per request in arrival order — the fleet's KV-prep wall clock
/// under this placement.
fn kv_prep_replay(
    report: &RouterReport,
    requests: &[PreparedRequest],
    cache_config: CacheConfig,
    n_nodes: usize,
) -> f64 {
    let placement = report.placement();
    let mut per_node: Vec<Vec<&PreparedRequest>> = vec![Vec::new(); n_nodes];
    for req in requests {
        per_node[placement[&req.id]].push(req);
    }
    let start = Instant::now();
    for node_requests in &per_node {
        crate::prep::replay_manager(node_requests.iter().copied(), cache_config);
    }
    start.elapsed().as_secs_f64()
}

/// Runs one (node count, policy) point: routed serve, identity checks,
/// merge proof, KV-prep replay.
///
/// # Panics
///
/// Panics if any request's fleet output diverges from `single_bytes`
/// (the single-node run) or a sampled request diverges from the seed
/// oracle.
fn run_route_point(
    arrivals: &[RequestArrival],
    requests: &[PreparedRequest],
    node: &ServeConfig,
    n_nodes: usize,
    policy: RoutePolicy,
    single_bytes: &HashMap<usize, Vec<u8>>,
) -> RoutePointResult {
    let fleet = RouterConfig::homogeneous(node.clone(), n_nodes, policy);
    let start = Instant::now();
    let report = route(&fleet, arrivals, ScheduleMode::Batched);
    let route_wall_s = start.elapsed().as_secs_f64();

    // Byte-identity against the single-node run, for every request.
    let completions = report.completions_by_id();
    assert_eq!(completions.len(), arrivals.len(), "{} lost requests", policy.label());
    for completion in &completions {
        assert!(
            completion.output_bytes() == single_bytes[&completion.id],
            "{} nodes under {}: request {} diverged from the single-node run",
            n_nodes,
            policy.label(),
            completion.id
        );
    }
    // Spot-check against the solo seed oracle (the single-node map is
    // itself oracle-checked once by the caller; this pins the fleet path
    // directly too).
    let check_every = (arrivals.len() / 2).max(1);
    for completion in completions.iter().step_by(check_every) {
        let oracle = reference_outputs(&arrivals[completion.id], &node.engine);
        assert!(
            completion.output_bytes() == output_bytes(&oracle),
            "{} nodes under {}: request {} diverged from the seed oracle",
            n_nodes,
            policy.label(),
            completion.id
        );
    }
    let merge_rows_checked = verify_partial_merge(&report, 8);

    let cache_config =
        CacheConfig::new(arrivals[0].trace.head_dim, node.engine.bits, node.kv_chunk_tokens.max(1));
    let kv_prep_wall_s = kv_prep_replay(&report, requests, cache_config, n_nodes);

    let s = &report.summary;
    RoutePointResult {
        n_nodes,
        policy,
        hit_tokens: s.cache_hit_tokens,
        hit_chunks: s.cache_hit_tokens / node.kv_chunk_tokens.max(1) as u64,
        decomposed_tokens: s.cache_decomposed_tokens,
        kv_prep_wall_s,
        route_wall_s,
        p50_cycles: s.latency.p50.0,
        p99_cycles: s.latency.p99.0,
        tokens_per_s: s.tokens_per_s,
        load_imbalance: s.load_imbalance,
        session_affinity_routes: s.session_affinity_routes,
        prefix_affinity_routes: s.prefix_affinity_routes,
        merge_rows_checked,
        bit_identical: true,
    }
}

/// Runs the full sweep: every policy at every node count, all against
/// one oracle-checked single-node baseline.
///
/// # Panics
///
/// Panics on any byte-identity violation, and — the headline claim — if
/// affinity fails to beat round-robin on hit chunks at any node count
/// ≥ 2.
#[must_use]
pub fn run_route_matrix(quick: bool) -> RouteSweep {
    let (workload, chunk_tokens) = route_workload(quick);
    let arrivals = generate_multi_tenant_arrivals(&workload);
    let node = ServeConfig { kv_chunk_tokens: chunk_tokens, ..ServeConfig::standard() };
    let requests = prepare(&arrivals, workload.per_tenant.head_dim, node.engine.bits);

    // The single-node baseline, checked against the seed oracle once.
    let single = serve(&node, &arrivals, ScheduleMode::Batched);
    let single_bytes: HashMap<usize, Vec<u8>> =
        single.completions.iter().map(|c| (c.id, c.output_bytes())).collect();
    let oracle_every = (arrivals.len() / 3).max(1);
    for spec in arrivals.iter().step_by(oracle_every) {
        let oracle = reference_outputs(spec, &node.engine);
        assert!(
            single_bytes[&spec.id] == output_bytes(&oracle),
            "single-node request {} diverged from the seed oracle",
            spec.id
        );
    }

    let mut points = Vec::new();
    for n_nodes in node_counts(quick) {
        for policy in POLICIES {
            points.push(run_route_point(
                &arrivals,
                &requests,
                &node,
                n_nodes,
                policy,
                &single_bytes,
            ));
        }
    }

    // The headline claim, enforced not just recorded: at every multi-node
    // count, affinity serves strictly more chunks from resident planes
    // than tenant-blind rotation.
    for n_nodes in node_counts(quick) {
        if n_nodes < 2 {
            continue;
        }
        let by = |p: RoutePolicy| {
            points
                .iter()
                .find(|r| r.n_nodes == n_nodes && r.policy == p)
                .expect("every point was run")
        };
        let (aff, rr) = (by(RoutePolicy::Affinity), by(RoutePolicy::RoundRobin));
        assert!(
            aff.hit_chunks > rr.hit_chunks,
            "{n_nodes} nodes: affinity {} vs round-robin {} hit chunks",
            aff.hit_chunks,
            rr.hit_chunks
        );
        assert!(aff.decomposed_tokens < rr.decomposed_tokens);
    }
    let trace = run_route_trace_profile(quick);
    RouteSweep { workload, chunk_tokens, points, trace }
}

/// Serializes a route sweep to the `BENCH_<n>.json` trajectory schema.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_route_json(
    path: &std::path::Path,
    sweep: &RouteSweep,
    mode: &str,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench_id\": {},", crate::bench_id_from_path(path))?;
    writeln!(f, "  \"tool\": \"pade-bench\",")?;
    writeln!(f, "  \"scenario\": \"route\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(
        f,
        "  \"paths\": {{\"affinity\": \"pade-router session/prefix-shard affinity over \
         per-node KvCacheManagers\", \"baselines\": \"round-robin and least-loaded \
         (cache-blind)\"}},"
    )?;
    writeln!(
        f,
        "  \"workload\": {{\"tenants\": {}, \"sessions_per_tenant\": {}, \
         \"turns_per_session\": {}, \"shared_prefix_tokens\": {}, \"chunk_tokens\": {}, \
         \"seed\": {}}},",
        sweep.workload.tenants,
        sweep.workload.sessions_per_tenant,
        sweep.workload.per_tenant.turns_per_session,
        sweep.workload.per_tenant.shared_prefix_tokens,
        sweep.chunk_tokens,
        sweep.workload.seed
    )?;
    writeln!(f, "  \"points\": [")?;
    for (i, p) in sweep.points.iter().enumerate() {
        let comma = if i + 1 == sweep.points.len() { "" } else { "," };
        writeln!(f, "    {{")?;
        writeln!(f, "      \"n_nodes\": {},", p.n_nodes)?;
        writeln!(f, "      \"policy\": \"{}\",", p.policy.label())?;
        writeln!(f, "      \"hit_tokens\": {},", p.hit_tokens)?;
        writeln!(f, "      \"hit_chunks\": {},", p.hit_chunks)?;
        writeln!(f, "      \"decomposed_tokens\": {},", p.decomposed_tokens)?;
        writeln!(f, "      \"kv_prep_wall_s\": {:.6},", p.kv_prep_wall_s)?;
        writeln!(f, "      \"route_wall_s\": {:.6},", p.route_wall_s)?;
        writeln!(f, "      \"p50_cycles\": {},", p.p50_cycles)?;
        writeln!(f, "      \"p99_cycles\": {},", p.p99_cycles)?;
        writeln!(f, "      \"tokens_per_s_sim\": {:.1},", p.tokens_per_s)?;
        writeln!(f, "      \"load_imbalance\": {:.3},", p.load_imbalance)?;
        writeln!(f, "      \"session_affinity_routes\": {},", p.session_affinity_routes)?;
        writeln!(f, "      \"prefix_affinity_routes\": {},", p.prefix_affinity_routes)?;
        writeln!(f, "      \"merge_rows_checked\": {},", p.merge_rows_checked)?;
        writeln!(f, "      \"bit_identical\": {}", p.bit_identical)?;
        writeln!(f, "    }}{comma}")?;
    }
    writeln!(f, "  ],")?;
    let t = &sweep.trace;
    writeln!(f, "  \"trace\": {{")?;
    writeln!(f, "    \"feature_enabled\": {},", t.feature_enabled)?;
    writeln!(f, "    \"events\": {},", t.events)?;
    writeln!(f, "    \"spans\": {},", t.spans)?;
    writeln!(
        f,
        "    \"stage_names\": [{}],",
        t.stage_names
            .iter()
            .map(|s| format!("\"{}\"", crate::json_escape(s)))
            .collect::<Vec<_>>()
            .join(", ")
    )?;
    writeln!(f, "    \"overhead_shape\": \"{}\",", crate::json_escape(&t.overhead_shape))?;
    writeln!(f, "    \"untraced_wall_s\": {:.6},", t.untraced_wall_s)?;
    writeln!(f, "    \"recorder_wall_s\": {:.6},", t.recorder_wall_s)?;
    writeln!(f, "    \"overhead_pct\": {:.2},", t.overhead_frac * 100.0)?;
    writeln!(f, "    \"breakdown\": {}", t.breakdown.to_json())?;
    writeln!(f, "  }},")?;
    let max_nodes = sweep.points.iter().map(|p| p.n_nodes).max().expect("non-empty sweep");
    let at = |policy: RoutePolicy| {
        sweep
            .points
            .iter()
            .find(|p| p.n_nodes == max_nodes && p.policy == policy)
            .expect("every point was run")
    };
    let (aff, rr) = (at(RoutePolicy::Affinity), at(RoutePolicy::RoundRobin));
    writeln!(
        f,
        "  \"headline\": {{\"n_nodes\": {}, \"affinity_hit_chunks\": {}, \
         \"round_robin_hit_chunks\": {}, \"kv_prep_speedup_vs_round_robin\": {:.3}, \
         \"bit_identical\": {}}}",
        max_nodes,
        aff.hit_chunks,
        rr.hit_chunks,
        rr.kv_prep_wall_s / aff.kv_prep_wall_s.max(f64::MIN_POSITIVE),
        aff.bit_identical && rr.bit_identical
    )?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_checks_identity_and_affinity_dominance() {
        let sweep = run_route_matrix(true);
        assert_eq!(sweep.points.len(), node_counts(true).len() * POLICIES.len());
        for p in &sweep.points {
            assert!(p.bit_identical);
            assert!(p.merge_rows_checked > 0);
            assert!(p.kv_prep_wall_s > 0.0 && p.route_wall_s > 0.0);
        }
        // At one node every policy sees identical cache behavior — the
        // fleet degenerates to one shared manager.
        let one_node: Vec<&RoutePointResult> =
            sweep.points.iter().filter(|p| p.n_nodes == 1).collect();
        for p in &one_node[1..] {
            assert_eq!(p.hit_tokens, one_node[0].hit_tokens);
        }
        // The multi-node dominance assertions already ran inside
        // run_route_matrix; double-check the recorded numbers agree.
        let at = |n: usize, policy: RoutePolicy| {
            sweep.points.iter().find(|p| p.n_nodes == n && p.policy == policy).unwrap()
        };
        assert!(
            at(2, RoutePolicy::Affinity).hit_chunks > at(2, RoutePolicy::RoundRobin).hit_chunks
        );
    }

    #[test]
    fn route_json_is_well_formed_enough() {
        let sweep = run_route_matrix(true);
        let path = std::env::temp_dir().join("pade_route_bench_test.json");
        write_route_json(&path, &sweep, "quick").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"scenario\": \"route\""));
        assert_eq!(text.matches("\"policy\"").count(), 6); // 2 node counts x 3 policies
        assert!(text.contains("\"kv_prep_speedup_vs_round_robin\""));
        assert!(text.contains("\"overhead_pct\""));
        assert!(text.contains("\"breakdown\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_profile_preserves_outputs_and_attributes_stages() {
        let p = run_route_trace_profile(true);
        assert!(p.untraced_wall_s > 0.0 && p.recorder_wall_s > 0.0);
        if cfg!(feature = "trace") {
            assert!(p.feature_enabled);
            assert!(p.events > 0 && p.spans > 0);
            assert!(p.stage_names.len() >= 6, "stages: {:?}", p.stage_names);
            assert!(p.breakdown.get("serve.prefill").is_some());
            assert!(p.breakdown.get("cache.attach").is_some());
        } else {
            assert!(!p.feature_enabled);
            assert_eq!(p.events, 0);
            assert!(p.stage_names.is_empty());
        }
    }

    #[test]
    fn full_matrix_scales_to_eight_nodes() {
        assert_eq!(node_counts(false), vec![1, 2, 4, 8]);
        let (workload, chunk) = route_workload(false);
        assert!(workload.per_tenant.shared_prefix_tokens >= 1024);
        assert!(workload.tenants >= 4);
        assert_eq!(chunk, 64);
    }
}
