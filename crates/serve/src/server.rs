//! The deterministic continuous-batching serve loop.
//!
//! [`serve`] replays a seeded arrival trace against a modeled PADE device
//! with `engine_slots` QK-PU instances stepping in lockstep iterations:
//!
//! 1. **admit** every request whose arrival time has passed (FCFS),
//! 2. **form** a batch — at most one block per active session, capped by
//!    slots and max-batch-tokens
//!    ([`form_batch`](crate::scheduler::form_batch)),
//! 3. **dispatch** the blocks through the engine in one
//!    [`run_qk_batch_traced`](pade_core::engine::run_qk_batch_traced)
//!    call; the iteration advances the clock by the *slowest* block in
//!    the batch (lockstep slots),
//! 4. **retire** finished sessions, recording completion time and
//!    latency.
//!
//! Every step is a pure function of the arrival trace and the
//! configuration — no wall clock, no unordered maps — so two runs with
//! the same seed produce identical completion orders and identical
//! per-request output bytes. And because each block simulates its own
//! memory system, batched outputs are **bit-identical** to running every
//! request alone through the seed oracle (property-tested in `tests/`).

use std::path::PathBuf;

use pade_cache::{CacheBudget, TierConfig};
use pade_core::config::PadeConfig;
use pade_core::engine::QkBlockResult;
use pade_sim::Cycle;
use pade_workload::trace::{RequestArrival, RequestKind};

use crate::metrics::{MetricsSummary, ServeMetrics};
use crate::node::Node;
use crate::scheduler::{ScheduleMode, SchedulePolicy};
use crate::session::output_bytes;

/// Configuration of one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Engine (accelerator) configuration shared by every block.
    pub engine: PadeConfig,
    /// Parallel QK-PU instances the device steps in lockstep (the batched
    /// mode's per-iteration block cap; solo mode always uses one).
    pub engine_slots: usize,
    /// Cap on summed query-row tokens per iteration.
    pub max_batch_tokens: usize,
    /// Tokens per sealed chunk of a decode session's growable KV plane
    /// cache (storage granularity only — outputs are byte-identical for
    /// any positive value).
    pub kv_chunk_tokens: usize,
    /// Budget of the cross-request prefix cache, or `None` to disable
    /// it. Only prompt-carrying requests (shared-prefix / multi-turn
    /// workloads) consult the cache; outputs are byte-identical with the
    /// cache on or off — the manager only changes *how* planes are
    /// obtained, never what they contain.
    pub prefix_cache: Option<CacheBudget>,
    /// Break admission ties among simultaneously-ready requests by
    /// predicted prefix-cache hit tokens (probed read-only at the
    /// admission instant, so chunks decomposed earlier in the run count),
    /// hit-heavy first. A scheduling knob only: per-request outputs are
    /// byte-identical with the flag on or off (property-tested); only
    /// completion order may change.
    pub hit_aware: bool,
    /// Persist the prefix cache manager across serve runs: load a warm
    /// index/session-store image from this file at startup (when it
    /// exists) and save the grown state back at the end of the run. The
    /// image ([`pade_cache::KvCacheManager::save_to`]) is a versioned header, the
    /// prefix index as a stream of chunk records and the stored
    /// sessions' packed planes. A missing file starts cold. A corrupt,
    /// shape-mismatched or older-version one also starts cold, but never
    /// silently: the node prints one stderr line naming the file and the
    /// error and counts the fault in
    /// [`CacheStats::tier_faults`](pade_cache::CacheStats::tier_faults).
    pub cache_file: Option<PathBuf>,
    /// Spill tier of the prefix cache: budget-evicted sealed chunks are
    /// demoted here ([`TierConfig::Memory`] or a
    /// [`TierConfig::Disk`] directory) instead of dropped, and later
    /// attaches fetch them back without re-decomposing. `None` — the
    /// default — keeps drop-on-evict. Output-invariant: the tier only
    /// changes where byte-identical planes come from.
    pub tier: Option<TierConfig>,
    /// Batch-forming policy: FCFS baseline, or SLO-aware priority/
    /// deadline ordering honoring the arrivals'
    /// [`priority`](pade_workload::trace::RequestArrival::priority)/
    /// [`tenant_slo`](pade_workload::trace::RequestArrival::tenant_slo)
    /// attributes. A scheduling knob only: outputs are byte-identical
    /// under either policy (property-tested); only dispatch order,
    /// latency and completion order change.
    pub policy: SchedulePolicy,
    /// Cap on query rows per prefill block (chunked prefill): `Some(c)`
    /// splits each `pe_rows` tile into slices of at most `c.clamp(1,
    /// pe_rows)` rows that interleave with decode steps, each charged the
    /// tile's cycles; `None` dispatches whole tiles. Like
    /// [`kv_chunk_tokens`](ServeConfig::kv_chunk_tokens) this is
    /// output-invariant for every value (property-tested) — it changes
    /// the scheduling quantum, never the bytes.
    pub prefill_chunk_tokens: Option<usize>,
    /// Forced preemption cadence: every `p`-th iteration the scheduler's
    /// head candidate yields its slot for that iteration (a no-op when it
    /// is the only active session, so progress is guaranteed). `None` —
    /// the default — leaves preemption purely policy-driven. The cadence
    /// is output-invariant for every value (property-tested).
    pub preempt_every: Option<u64>,
}

impl ServeConfig {
    /// The standard serving device: 4 lockstep engine slots, a 64-token
    /// iteration cap, an unbounded prefix cache.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            engine: PadeConfig::standard(),
            engine_slots: 4,
            max_batch_tokens: 64,
            kv_chunk_tokens: 64,
            prefix_cache: Some(CacheBudget::unlimited()),
            hit_aware: false,
            cache_file: None,
            tier: None,
            policy: SchedulePolicy::Fcfs,
            prefill_chunk_tokens: None,
            preempt_every: None,
        }
    }
}

/// One completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Request id from the arrival trace.
    pub id: usize,
    /// What the request asked for.
    pub kind: RequestKind,
    /// Arrival time from the trace.
    pub arrival: Cycle,
    /// Admission time (first scheduler look at or after arrival).
    pub admitted: Cycle,
    /// Completion time.
    pub finished: Cycle,
    /// Query-row tokens executed.
    pub tokens: u64,
    /// Per-block engine results, in block order.
    pub results: Vec<QkBlockResult>,
}

impl Completion {
    /// End-to-end latency (completion − arrival).
    #[must_use]
    pub fn latency(&self) -> Cycle {
        self.finished - self.arrival
    }

    /// Canonical byte serialization of the request's retained outputs.
    #[must_use]
    pub fn output_bytes(&self) -> Vec<u8> {
        output_bytes(&self.results)
    }
}

/// The result of one serve run.
#[derive(Debug)]
pub struct ServeReport {
    /// The schedule mode that produced this report.
    pub mode: ScheduleMode,
    /// Completions in completion order (ties broken FCFS).
    pub completions: Vec<Completion>,
    /// Metric digest (latency percentiles, queue depth, occupancy,
    /// tokens/s at the 800 MHz core clock).
    pub summary: MetricsSummary,
    /// The raw collectors, for callers composing further statistics.
    pub metrics: ServeMetrics,
}

impl ServeReport {
    /// Completion ids in completion order — the scheduler-determinism
    /// fingerprint.
    #[must_use]
    pub fn completion_order(&self) -> Vec<usize> {
        self.completions.iter().map(|c| c.id).collect()
    }
}

/// Asserts that two serve runs of the same arrival trace produced
/// byte-identical per-request outputs — the batching-never-changes-
/// outputs invariant, checked by the CLI and the tests alike.
///
/// # Panics
///
/// Panics if the reports cover different request sets or any request's
/// output bytes diverge.
pub fn assert_outputs_identical(a: &ServeReport, b: &ServeReport) {
    let by_id = |r: &ServeReport| {
        let mut v: Vec<(usize, Vec<u8>)> =
            r.completions.iter().map(|c| (c.id, c.output_bytes())).collect();
        v.sort_by_key(|&(id, _)| id);
        v
    };
    let (a, b) = (by_id(a), by_id(b));
    assert_eq!(
        a.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        b.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        "reports cover different request sets"
    );
    for ((id, x), (_, y)) in a.iter().zip(&b) {
        assert!(x == y, "request {id}: outputs diverged between the two schedules");
    }
}

/// Replays `arrivals` through the serve loop under `mode` — a thin
/// wrapper over one [`Node`]: enqueue everything in `(arrival_cycle,
/// id)` order, drain, close the books. A multi-node deployment
/// (`pade-router`) drives the same [`Node`] incrementally instead.
///
/// # Panics
///
/// Panics if `arrivals` is empty or the engine configuration is invalid.
#[must_use]
pub fn serve(config: &ServeConfig, arrivals: &[RequestArrival], mode: ScheduleMode) -> ServeReport {
    serve_traced(config, arrivals, mode, &pade_trace::Tracer::disabled(), 0)
}

/// [`serve`] with telemetry: the node records stage spans, instants and
/// gauges onto `node_id`-owned tracks of `tracer` (serve, engine, cache
/// and quant layers). With a disabled tracer this **is** [`serve`];
/// either way the report is byte-identical — tracing is a pure side
/// channel (property-tested in `tests/`).
///
/// # Panics
///
/// Panics if `arrivals` is empty or the engine configuration is invalid.
#[must_use]
pub fn serve_traced(
    config: &ServeConfig,
    arrivals: &[RequestArrival],
    mode: ScheduleMode,
    tracer: &pade_trace::Tracer,
    node_id: u32,
) -> ServeReport {
    assert!(!arrivals.is_empty(), "at least one request required");
    let mut node = Node::new(config, mode);
    node.set_tracer(tracer.clone(), node_id);
    // FCFS admission order: arrival time, then id (stable for equal times).
    let mut sorted: Vec<&RequestArrival> = arrivals.iter().collect();
    sorted.sort_by_key(|r| (r.arrival_cycle, r.id));
    for spec in sorted {
        node.enqueue(spec);
    }
    node.drain();
    node.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pade_workload::trace::{generate_arrivals, ArrivalConfig};

    fn arrivals() -> Vec<RequestArrival> {
        generate_arrivals(&ArrivalConfig::small_demo())
    }

    #[test]
    fn every_request_completes_exactly_once() {
        let arrivals = arrivals();
        let report = serve(&ServeConfig::standard(), &arrivals, ScheduleMode::Batched);
        assert_eq!(report.completions.len(), arrivals.len());
        let mut ids = report.completion_order();
        ids.sort_unstable();
        assert_eq!(ids, (0..arrivals.len()).collect::<Vec<_>>());
        for c in &report.completions {
            assert!(c.finished.0 >= c.arrival.0);
            assert!(c.admitted.0 >= c.arrival.0);
            assert_eq!(c.tokens, c.kind.tokens() as u64);
        }
    }

    #[test]
    fn batched_makespan_never_exceeds_solo() {
        let arrivals = arrivals();
        let config = ServeConfig::standard();
        let batched = serve(&config, &arrivals, ScheduleMode::Batched);
        let solo = serve(&config, &arrivals, ScheduleMode::Solo);
        assert!(
            batched.summary.makespan <= solo.summary.makespan,
            "batched {} vs solo {}",
            batched.summary.makespan,
            solo.summary.makespan
        );
        assert!(batched.summary.tokens_per_s >= solo.summary.tokens_per_s);
        assert_eq!(batched.summary.tokens, solo.summary.tokens);
    }

    #[test]
    fn metrics_cover_the_whole_run() {
        let report = serve(&ServeConfig::standard(), &arrivals(), ScheduleMode::Batched);
        let s = &report.summary;
        assert_eq!(s.latency.count, report.completions.len());
        assert!(s.latency.p50 <= s.latency.p95 && s.latency.p95 <= s.latency.p99);
        assert!(s.queue_depth_max >= 1.0);
        assert!(s.occupancy_mean > 0.0 && s.occupancy_mean <= 1.0);
        assert!(s.iterations > 0);
        assert!(report.metrics.ops.bit_serial_acc > 0);
        assert!(report.metrics.traffic.dram_read_bytes > 0);
        // Batching overlaps blocks, so summed engine time exceeds the time
        // the device spends busy (makespan minus idle arrival gaps).
        assert!(report.metrics.engine_cycles > 0);
    }

    #[test]
    fn solo_serves_strictly_one_request_at_a_time() {
        let arrivals = arrivals();
        let report = serve(&ServeConfig::standard(), &arrivals, ScheduleMode::Solo);
        // Under solo FCFS, completion order is arrival order.
        let mut by_arrival: Vec<&RequestArrival> = arrivals.iter().collect();
        by_arrival.sort_by_key(|r| (r.arrival_cycle, r.id));
        assert_eq!(report.completion_order(), by_arrival.iter().map(|r| r.id).collect::<Vec<_>>());
        assert!(report.summary.occupancy_mean <= 1.0 + 1e-12);
    }
}
