//! Observability invariants of the serving loop:
//!
//! 1. **Telemetry is a pure side channel** — `serve_traced` with a
//!    recorder attached or with a disabled tracer produces
//!    byte-identical completions and an identical metrics summary;
//!    spot-checked against the solo seed oracle
//!    (`run_qk_block_reference`).
//! 2. **Span streams are well-formed and deterministic** — strictly
//!    nested begin/end pairs with monotone per-track clocks, and the
//!    snapshot fingerprint is identical at any `PADE_THREADS` (tracks
//!    are keyed by logical dispatch index, never worker identity).
//! 3. **The trace file is lossless** — the run's Chrome JSON reads back
//!    to a well-formed snapshot whose fingerprint equals the in-memory
//!    recorder's, and the flight timelines assembled from its link
//!    events match the node's native cycle accounting request for
//!    request.
//! 4. **Chunked prefill traces every slice** — slices that start no
//!    engine run still emit well-formed serve spans, and every
//!    `req.dispatch` link names the engine dispatch that ran its tile.

use std::sync::Arc;

use pade_serve::scheduler::{ScheduleMode, SchedulePolicy};
use pade_serve::server::{serve, serve_traced, Completion, ServeConfig, ServeReport};
use pade_serve::{output_bytes, reference_outputs};
use pade_trace::flight::hop;
use pade_trace::flight::{assemble_timelines, check_linked};
use pade_trace::{read_chrome_trace, write_chrome_trace, Recorder, TraceEvent, TraceSink, Tracer};
use pade_workload::prompt::{generate_shared_prefix_arrivals, SharedPrefixConfig};
use pade_workload::trace::{generate_arrivals, ArrivalConfig, RequestKind};
use proptest::prelude::*;

/// A small shared-prefix / multi-turn workload whose requests carry
/// prompt token-id sequences, so the cache and quant layers emit too.
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

fn by_id(report: &ServeReport) -> Vec<&Completion> {
    let mut v: Vec<&Completion> = report.completions.iter().collect();
    v.sort_by_key(|c| c.id);
    v
}

fn recording_tracer() -> (Arc<Recorder>, Tracer) {
    let recorder = Arc::new(Recorder::new());
    let tracer = Tracer::new(Arc::clone(&recorder) as Arc<dyn TraceSink>);
    (recorder, tracer)
}

/// Sweeps explicit worker counts via `PADE_THREADS`. All env twiddling
/// in this binary lives in this one test; the proptest below is
/// thread-count-agnostic (that is the very property this file proves),
/// so concurrent execution never observes a half-set variable.
#[test]
fn traced_serve_is_identical_and_fingerprint_stable_across_worker_counts() {
    let arrivals = generate_shared_prefix_arrivals(&prompt_workload(2026));
    let config = ServeConfig::standard();
    let baseline = serve(&config, &arrivals, ScheduleMode::Batched);
    let baseline_by_id = by_id(&baseline);

    let mut fingerprints = Vec::new();
    for workers in ["1", "2", "4"] {
        std::env::set_var("PADE_THREADS", workers);
        let (recorder, tracer) = recording_tracer();
        let report = serve_traced(&config, &arrivals, ScheduleMode::Batched, &tracer, 0);
        assert_eq!(report.summary, baseline.summary, "workers={workers}");
        for (traced, untraced) in by_id(&report).iter().zip(&baseline_by_id) {
            assert_eq!(traced.id, untraced.id);
            assert!(
                traced.output_bytes() == untraced.output_bytes(),
                "workers={workers}: tracing changed request {} output bytes",
                traced.id
            );
        }
        let snap = recorder.snapshot();
        snap.check_well_formed().unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        fingerprints.push(snap.fingerprint());

        // File parity: the run's Chrome JSON reads back to the recorder's
        // exact fingerprint.
        let mut json = Vec::new();
        write_chrome_trace(&snap, &mut json).unwrap();
        let read = read_chrome_trace(&String::from_utf8(json).unwrap())
            .unwrap_or_else(|e| panic!("workers={workers}: trace read: {e}"));
        read.check_well_formed().unwrap_or_else(|e| panic!("workers={workers}: {e}"));
        assert_eq!(
            read.fingerprint(),
            snap.fingerprint(),
            "workers={workers}: read-back snapshot diverged from the recorder"
        );

        let stages = snap.stage_names();
        assert!(stages.len() >= 6, "workers={workers}: stages {stages:?}");
        for expect in ["serve.prefill", "serve.decode", "cache.attach", "engine.qk_block"] {
            assert!(stages.contains(expect), "workers={workers}: missing {expect}");
        }
        // Flight parity: timelines assembled from the *read-back* link
        // events must reproduce the node's native cycle accounting.
        let timelines = assemble_timelines(&read);
        check_linked(&timelines).unwrap_or_else(|e| panic!("workers={workers}: {e}"));
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

/// A chunked SLO-aware run: 3-row slices of 8-row tiles leave most
/// slices without an engine run of their own. Each one still traces a
/// balanced `serve.prefill` span, its `req.dispatch` link points at a
/// dispatcher track that recorded the tile's fan-out, and the assembled
/// flight totals equal the node's native accounting.
#[test]
fn chunked_prefill_slices_link_to_the_dispatch_that_ran_their_tile() {
    let arrivals = generate_arrivals(&ArrivalConfig {
        n_requests: 4,
        decode_fraction: 0.25,
        prefill_rows: 21,
        seq_len: 128,
        mean_interarrival_cycles: 300.0,
        ..ArrivalConfig::small_demo()
    });
    let config = ServeConfig {
        engine_slots: 2,
        policy: SchedulePolicy::SloAware,
        prefill_chunk_tokens: Some(3),
        preempt_every: Some(2),
        ..ServeConfig::standard()
    };
    let untraced = serve(&config, &arrivals, ScheduleMode::Batched);
    let (recorder, tracer) = recording_tracer();
    let report = serve_traced(&config, &arrivals, ScheduleMode::Batched, &tracer, 0);
    assert_eq!(report.summary, untraced.summary);
    let snap = recorder.snapshot();
    snap.check_well_formed().unwrap();
    let fanout_tracks: Vec<u64> = snap
        .tracks
        .iter()
        .filter(|t| {
            t.events
                .iter()
                .any(|e| matches!(e, TraceEvent::Begin { name: "engine.fused_fanout", .. }))
        })
        .map(|t| t.track)
        .collect();
    let (mut dispatches, mut prefill_spans) = (0u64, 0u64);
    for t in &snap.tracks {
        for e in &t.events {
            match *e {
                TraceEvent::Link { name, info, .. } if name == hop::DISPATCH => {
                    assert!(fanout_tracks.contains(&info), "dispatch link to idle track {info}");
                    dispatches += 1;
                }
                TraceEvent::Begin { name: "serve.prefill", .. } => prefill_spans += 1,
                _ => {}
            }
        }
    }
    // One span and one link per slice: ⌈tile rows / 3⌉ slices per tile.
    let pe = config.engine.pe_rows;
    let (mut prefill_slices, mut decode_steps) = (0u64, 0u64);
    for a in &arrivals {
        match a.kind {
            RequestKind::Prefill { rows } => {
                prefill_slices += (0..rows)
                    .step_by(pe)
                    .map(|t| (rows - t).min(pe).div_ceil(3) as u64)
                    .sum::<u64>();
            }
            RequestKind::Decode { steps } => decode_steps += steps as u64,
        }
    }
    assert_eq!(prefill_spans, prefill_slices);
    assert_eq!(dispatches, prefill_slices + decode_steps);
    assert!((fanout_tracks.len() as u64) < dispatches, "some slices must start no engine run");
    let timelines = assemble_timelines(&snap);
    check_linked(&timelines).unwrap();
    let flight = report.summary.flight;
    let prefill: u64 = timelines.iter().map(|t| t.prefill_cycles).sum();
    assert_eq!(prefill, flight.prefill_cycles);
}

proptest! {
    /// Telemetry on or off never changes a byte: the
    /// traced run equals the untraced run request for request (and the
    /// first request equals the solo seed oracle).
    #[test]
    fn tracing_never_changes_serve_outputs(seed in any::<u64>()) {
        let arrivals = generate_shared_prefix_arrivals(&prompt_workload(seed));
        let config = ServeConfig::standard();
        let untraced = serve(&config, &arrivals, ScheduleMode::Batched);
        let (recorder, tracer) = recording_tracer();
        let traced = serve_traced(&config, &arrivals, ScheduleMode::Batched, &tracer, 0);
        prop_assert_eq!(untraced.completion_order(), traced.completion_order());
        prop_assert_eq!(untraced.summary, traced.summary);
        for (a, b) in by_id(&untraced).iter().zip(by_id(&traced)) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.output_bytes(), b.output_bytes());
        }
        let first = by_id(&traced)[0];
        let oracle = reference_outputs(&arrivals[first.id], &config.engine);
        prop_assert_eq!(first.output_bytes(), output_bytes(&oracle));
        prop_assert!(recorder.snapshot().check_well_formed().is_ok());
    }
}
