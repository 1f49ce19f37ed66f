//! Observability invariants at fleet scale:
//!
//! 1. **Telemetry is a pure side channel** — `route_traced` with a
//!    recorder attached produces byte-identical per-request outputs and
//!    an identical fleet summary to the untraced `route` run, for every
//!    placement policy.
//! 2. **Span streams are well-formed and deterministic** — the merged
//!    router/serve/cache/engine stream has strictly nested begin/end
//!    pairs and monotone per-track clocks, and its fingerprint is
//!    identical at any `PADE_THREADS` (tracks are keyed by node id and
//!    logical dispatch index, never worker identity).
//! 3. **The on-disk stream is lossless at fleet scale** — the same run
//!    teed into a bounded-memory `StreamSink` reads back to the
//!    recorder's exact fingerprint, every request's causality chain is
//!    complete (place → admit → retire), and the assembled flight
//!    timelines match the fleet's native cycle accounting.

use std::collections::HashMap;
use std::sync::Arc;

use pade_router::{route, route_traced, RoutePolicy, RouterConfig};
use pade_serve::scheduler::ScheduleMode;
use pade_serve::server::ServeConfig;
use pade_trace::flight::{assemble_timelines, check_linked};
use pade_trace::{read_stream, Recorder, StreamSink, TraceSink, Tracer};
use pade_workload::prompt::{
    generate_multi_tenant_arrivals, MultiTenantConfig, SharedPrefixConfig,
};
use proptest::prelude::*;

/// Fans one event stream into both the in-memory recorder and the
/// on-disk stream sink, so one run feeds both parity sides.
struct Tee(Arc<Recorder>, Arc<StreamSink>);

impl TraceSink for Tee {
    fn submit(&self, track: u64, events: &[pade_trace::TraceEvent]) {
        self.0.submit(track, events);
        self.1.submit(track, events);
    }
}

/// A small multi-tenant workload: every request carries a prompt,
/// several sessions return for a second turn.
fn workload(seed: u64) -> Vec<pade_workload::trace::RequestArrival> {
    generate_multi_tenant_arrivals(&MultiTenantConfig {
        tenants: 2,
        sessions_per_tenant: 3,
        per_tenant: SharedPrefixConfig {
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

fn recording_tracer() -> (Arc<Recorder>, Tracer) {
    let recorder = Arc::new(Recorder::new());
    let tracer = Tracer::new(Arc::clone(&recorder) as Arc<dyn TraceSink>);
    (recorder, tracer)
}

/// Sweeps explicit worker counts via `PADE_THREADS`. All env twiddling
/// in this binary lives in this one test; the proptest below is
/// thread-count-agnostic, so concurrent execution never observes a
/// half-set variable.
#[test]
fn traced_route_is_identical_and_fingerprint_stable_across_worker_counts() {
    let arrivals = workload(2026);
    let fleet = RouterConfig::homogeneous(node_config(), 2, RoutePolicy::Affinity);
    let baseline = route(&fleet, &arrivals, ScheduleMode::Batched);
    let baseline_bytes = output_map(&baseline);

    // Tiny frames force many flushes, so the bounded-memory assertion
    // below actually exercises the frame boundary path.
    const FRAME: usize = 1024;
    let mut fingerprints = Vec::new();
    for workers in ["1", "2", "4"] {
        std::env::set_var("PADE_THREADS", workers);
        let stream_path = std::env::temp_dir()
            .join(format!("pade-router-tracing-{}-{workers}.padetrace", std::process::id()));
        let recorder = Arc::new(Recorder::new());
        let stream = Arc::new(StreamSink::with_frame_size(&stream_path, FRAME).unwrap());
        let tracer = Tracer::new(
            Arc::new(Tee(Arc::clone(&recorder), Arc::clone(&stream))) as Arc<dyn TraceSink>
        );
        let report = route_traced(&fleet, &arrivals, ScheduleMode::Batched, &tracer);
        assert_eq!(report.summary, baseline.summary, "workers={workers}");
        for completion in &report.completions_by_id() {
            assert!(
                completion.output_bytes() == baseline_bytes[&completion.id],
                "workers={workers}: tracing changed request {} output bytes",
                completion.id
            );
        }
        let snap = recorder.snapshot();
        snap.check_well_formed().unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        fingerprints.push(snap.fingerprint());

        // Stream parity: the file round-trips to the recorder's exact
        // fingerprint, with resident memory bounded by the frame size.
        stream.finish().unwrap_or_else(|e| panic!("workers={workers}: stream write: {e}"));
        assert!(
            stream.peak_buffered_bytes() <= FRAME,
            "workers={workers}: stream buffered {} bytes over the {FRAME}-byte frame",
            stream.peak_buffered_bytes()
        );
        let streamed = read_stream(&stream_path)
            .unwrap_or_else(|e| panic!("workers={workers}: stream read: {e}"));
        std::fs::remove_file(&stream_path).ok();
        streamed.check_well_formed().unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        assert_eq!(
            streamed.fingerprint(),
            snap.fingerprint(),
            "workers={workers}: streamed snapshot diverged from the recorder"
        );

        let stages = snap.stage_names();
        assert!(stages.len() >= 6, "workers={workers}: stages {stages:?}");
        for expect in ["router.route", "serve.prefill", "cache.attach", "engine.qk_block"] {
            assert!(stages.contains(expect), "workers={workers}: missing {expect}");
        }
        // Causality + flight parity from the *streamed* snapshot: a
        // router trace must place every request, chain admit → retire,
        // and reproduce the fleet's native flight totals.
        let timelines = assemble_timelines(&streamed);
        check_linked(&timelines).unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        assert!(
            timelines.iter().all(|t| t.placed),
            "workers={workers}: a request is missing its router placement hop"
        );
        let flight = report.summary.flight;
        assert_eq!(timelines.len() as u64, flight.requests, "workers={workers}");
        let sums = timelines.iter().fold([0u64; 5], |mut acc, t| {
            acc[0] += t.queue_cycles;
            acc[1] += t.prefill_cycles;
            acc[2] += t.decode_cycles;
            acc[3] += t.preempted_cycles;
            acc[4] += t.stalled_cycles;
            acc
        });
        assert_eq!(
            sums,
            [
                flight.queue_cycles,
                flight.prefill_cycles,
                flight.decode_cycles,
                flight.preempted_cycles,
                flight.stalled_cycles
            ],
            "workers={workers}: assembled flight sums diverged from native accounting"
        );
    }
    std::env::remove_var("PADE_THREADS");
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "snapshot fingerprints varied with worker count: {fingerprints:?}"
    );
}

proptest! {
    /// Telemetry never changes a byte at fleet scale, for any seed,
    /// policy and node count.
    #[test]
    fn tracing_never_changes_fleet_outputs(
        seed in any::<u64>(),
        n_nodes in 1usize..4,
        policy in prop_oneof![
            Just(RoutePolicy::Affinity),
            Just(RoutePolicy::RoundRobin),
            Just(RoutePolicy::LeastLoaded),
        ],
    ) {
        let arrivals = workload(seed);
        let fleet = RouterConfig::homogeneous(node_config(), n_nodes, policy);
        let untraced = route(&fleet, &arrivals, ScheduleMode::Batched);
        let (recorder, tracer) = recording_tracer();
        let traced = route_traced(&fleet, &arrivals, ScheduleMode::Batched, &tracer);
        prop_assert_eq!(untraced.summary, traced.summary);
        let untraced_bytes = output_map(&untraced);
        for completion in &traced.completions_by_id() {
            prop_assert_eq!(&completion.output_bytes(), &untraced_bytes[&completion.id]);
        }
        prop_assert!(recorder.snapshot().check_well_formed().is_ok());
    }
}
