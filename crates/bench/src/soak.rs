//! The `soak` scenario: streamed tracing vs in-memory recording on the
//! route trace profile.
//!
//! The claim under test is that the bounded-memory on-disk
//! [`StreamSink`] is a drop-in replacement for the in-memory
//! [`Recorder`]: same events, same fingerprint, same zero effect on
//! outputs, at O(frame) resident cost instead of O(events). [`run_soak`]
//! replays the seeded multi-tenant [`route_workload`] (2-node affinity
//! fleet) three ways:
//!
//! * **untraced** — plain `route`, the wall-clock floor,
//! * **recorder** — `route_traced` into a fresh in-memory `Recorder`,
//! * **stream** — `route_traced` into a fresh `StreamSink` with small
//!   (4 KiB) frames, so even the quick workload crosses many frame
//!   boundaries; sink creation and `finish()` are inside the timed
//!   region, so the stream pays its real end-to-end cost.
//!
//! It hard-checks that the traced runs' outputs are byte-identical to
//! the untraced run, that the `.padetrace` file reads back to the
//! recorder's **exact fingerprint** (the two sinks saw the same
//! deterministic submission sequence), that resident buffering never
//! exceeded one frame, and that the flight timelines assembled from the
//! streamed link events are causally complete and match the fleet's
//! native cycle accounting.
//!
//! The headline overhead is measured by replaying the recorded event
//! stream into fresh sinks one event per submit (fleet-run wall jitter
//! is larger than the sink cost itself, so end-to-end walls are
//! recorded for context but not used as the figure): the
//! recorder-vs-stream submission delta as a fraction of the untraced
//! profile wall. [`write_soak_json`] records the sweep as
//! `BENCH_10.json` (target: streaming ≤ 2% over the recorder on the
//! full profile).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pade_router::{route, route_traced, RoutePolicy, RouterConfig, RouterReport};
use pade_serve::metrics::FlightTotals;
use pade_serve::scheduler::ScheduleMode;
use pade_serve::server::ServeConfig;
use pade_trace::flight::{assemble_timelines, check_linked};
use pade_trace::{read_stream, Recorder, StreamSink, TraceSink, Tracer};
use pade_workload::prompt::{
    generate_multi_tenant_arrivals, MultiTenantConfig, SharedPrefixConfig,
};

use crate::time_best_of;

/// Frame size of the soak stream. Small enough that even the quick
/// workload spans several frames (so the bounded-memory claim is
/// exercised, not vacuous), large enough to hold any single event batch.
pub const SOAK_FRAME_SIZE: usize = 4096;

/// The route trace profile the soak replays: one long shared prefix per
/// tenant (the decomposition-heavy asset affinity keeps resident),
/// several sessions per tenant, each returning for a second turn.
/// Returns the workload and its KV chunk size in tokens.
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

/// Measured outcome of the soak run.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// The workload all three runs replayed.
    pub workload: MultiTenantConfig,
    /// Whether the tracer was compiled in (`trace` feature).
    pub feature_enabled: bool,
    /// Requests in the workload.
    pub requests: usize,
    /// Best-of wall seconds of the untraced fleet run.
    pub untraced_wall_s: f64,
    /// Best-of wall seconds with an in-memory recorder attached.
    pub recorder_wall_s: f64,
    /// Best-of wall seconds with the on-disk stream sink attached
    /// (including sink creation and final flush).
    pub stream_wall_s: f64,
    /// Best-of wall seconds of replaying the recorded event stream into
    /// a fresh in-memory `Recorder`, one event per submit (the sink's
    /// isolated cost, free of fleet-run jitter).
    pub recorder_submit_s: f64,
    /// Best-of wall seconds of the same replay into a fresh
    /// `StreamSink` (creation + final flush included).
    pub stream_submit_s: f64,
    /// `max(0, stream_submit_s − recorder_submit_s) / untraced_wall_s`
    /// — the headline figure: what streaming costs *over* in-memory
    /// recording, as a fraction of the profile's untraced wall.
    pub stream_overhead_frac: f64,
    /// `recorder_submit_s / untraced_wall_s` — what in-memory recording
    /// itself costs, on the same scale.
    pub recorder_overhead_frac: f64,
    /// Events in the recorded snapshot.
    pub events: usize,
    /// Spans in the recorded snapshot.
    pub spans: usize,
    /// Causal link events in the recorded snapshot.
    pub links: usize,
    /// Frames the stream sink wrote.
    pub frames: u64,
    /// Frame size the sink ran with ([`SOAK_FRAME_SIZE`]).
    pub frame_size: usize,
    /// Peak bytes the sink ever held in memory (≤ `frame_size`,
    /// hard-checked).
    pub peak_buffered_bytes: usize,
    /// Final `.padetrace` file size in bytes.
    pub file_bytes: u64,
    /// Snapshot fingerprint (identical for recorder and stream,
    /// hard-checked).
    pub fingerprint: u64,
    /// Whether the streamed snapshot's fingerprint equalled the
    /// recorder's (hard-checked; a mismatch panics before this is ever
    /// recorded false).
    pub fingerprint_parity: bool,
    /// Flight timelines assembled from the streamed link events.
    pub timelines: usize,
    /// The fleet's native per-request cycle accounting.
    pub flight: FlightTotals,
    /// Whether both traced runs were byte-identical to the untraced run
    /// (hard-checked).
    pub bit_identical: bool,
}

fn output_map(report: &RouterReport) -> HashMap<usize, Vec<u8>> {
    report.completions_by_id().iter().map(|c| (c.id, c.output_bytes())).collect()
}

fn assert_identical(report: &RouterReport, baseline: &HashMap<usize, Vec<u8>>, label: &str) {
    let completions = report.completions_by_id();
    assert_eq!(completions.len(), baseline.len(), "{label} run lost requests");
    for completion in &completions {
        assert!(
            completion.output_bytes() == baseline[&completion.id],
            "{label} run changed request {} output bytes",
            completion.id
        );
    }
}

/// Runs the soak: untraced / recorder / stream, with parity and
/// bounded-memory checks.
///
/// # Panics
///
/// Panics if a traced run changes an output byte, the stream file fails
/// to read back, the streamed fingerprint diverges from the recorder's,
/// resident buffering exceeds one frame, or (with the `trace` feature)
/// any request's causality chain is incomplete.
#[must_use]
pub fn run_soak(quick: bool) -> SoakResult {
    let (workload, chunk_tokens) = route_workload(quick);
    let arrivals = generate_multi_tenant_arrivals(&workload);
    let node = ServeConfig { kv_chunk_tokens: chunk_tokens, ..ServeConfig::standard() };
    let fleet = RouterConfig::homogeneous(node, 2, RoutePolicy::Affinity);
    let iters = if quick { 2 } else { 7 };

    // The three variants are timed *interleaved* (one of each per
    // iteration, best-of over iterations) rather than back-to-back
    // blocks: each fleet run lasts long enough that ambient machine
    // drift between blocks would otherwise dwarf the sink cost being
    // measured. Interleaving exposes every variant to the same drift,
    // and min-of-N keeps the cleanest sample of each.
    let recorder = Arc::new(Recorder::new());
    let recorder_tracer = Tracer::new(Arc::clone(&recorder) as Arc<dyn TraceSink>);
    let stream_path = soak_stream_path("run");
    let mut untraced_wall_s = f64::INFINITY;
    let mut recorder_wall_s = f64::INFINITY;
    let mut stream_wall_s = f64::INFINITY;
    let mut untraced = None;
    let mut recorded = None;
    let mut stream_run = None;
    for _ in 0..iters {
        let start = std::time::Instant::now();
        let report = route(&fleet, &arrivals, ScheduleMode::Batched);
        untraced_wall_s = untraced_wall_s.min(start.elapsed().as_secs_f64());
        untraced = Some(report);

        // In-memory recorder: cleared per iteration so every measurement
        // pays the same submission cost into an empty sink.
        recorder.clear();
        let start = std::time::Instant::now();
        let report = route_traced(&fleet, &arrivals, ScheduleMode::Batched, &recorder_tracer);
        recorder_wall_s = recorder_wall_s.min(start.elapsed().as_secs_f64());
        recorded = Some(report);

        // On-disk stream: a fresh sink (and file) per iteration, with
        // creation and the final flush inside the timed region.
        let start = std::time::Instant::now();
        let sink = Arc::new(
            StreamSink::with_frame_size(&stream_path, SOAK_FRAME_SIZE).expect("create soak stream"),
        );
        let tracer = Tracer::new(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let report = route_traced(&fleet, &arrivals, ScheduleMode::Batched, &tracer);
        sink.finish().expect("flush soak stream");
        stream_wall_s = stream_wall_s.min(start.elapsed().as_secs_f64());
        stream_run = Some((report, sink));
    }
    let untraced = untraced.expect("at least one iteration");
    let untraced_bytes = output_map(&untraced);
    let recorded = recorded.expect("at least one iteration");
    assert_identical(&recorded, &untraced_bytes, "recorder-traced");
    let snapshot = recorder.snapshot();
    snapshot.check_well_formed().unwrap_or_else(|e| panic!("malformed recorder trace: {e}"));
    let (streamed_report, sink) = stream_run.expect("at least one iteration");
    assert_identical(&streamed_report, &untraced_bytes, "stream-traced");
    assert!(
        sink.peak_buffered_bytes() <= SOAK_FRAME_SIZE,
        "stream buffered {} bytes over the {SOAK_FRAME_SIZE}-byte frame",
        sink.peak_buffered_bytes()
    );
    let file_bytes = std::fs::metadata(&stream_path).map(|m| m.len()).unwrap_or(0);
    let streamed = read_stream(&stream_path).unwrap_or_else(|e| panic!("soak stream read: {e}"));
    std::fs::remove_file(&stream_path).ok();
    streamed.check_well_formed().unwrap_or_else(|e| panic!("malformed streamed trace: {e}"));
    assert_eq!(
        streamed.fingerprint(),
        snapshot.fingerprint(),
        "streamed snapshot diverged from the in-memory recorder"
    );

    let timelines = assemble_timelines(&streamed);
    let tracer_active = recorder_tracer.is_active();
    if tracer_active {
        check_linked(&timelines).unwrap_or_else(|e| panic!("incomplete causality chain: {e}"));
        assert_eq!(timelines.len(), arrivals.len(), "flight recorder missed requests");
    }

    // The headline overhead comes from replaying the recorded event
    // stream into fresh sinks, one event per submit (the emission
    // granularity real tracers use): the fleet run's own wall-clock
    // jitter is larger than the sink cost it would be measuring, while
    // this isolates exactly the recorder-vs-stream delta. The delta is
    // charged against the untraced profile wall — "what does streaming
    // this run's telemetry cost, relative to the run".
    let submit_iters = if quick { 8 } else { 32 };
    let (_, recorder_submit_s) = time_best_of(submit_iters, || {
        let sink = Recorder::new();
        for track in &snapshot.tracks {
            for event in &track.events {
                sink.submit(track.track, std::slice::from_ref(event));
            }
        }
        sink
    });
    let submit_path = soak_stream_path("submit");
    let (_, stream_submit_s) = time_best_of(submit_iters, || {
        let sink = StreamSink::with_frame_size(&submit_path, SOAK_FRAME_SIZE)
            .expect("create submit-replay stream");
        for track in &snapshot.tracks {
            for event in &track.events {
                sink.submit(track.track, std::slice::from_ref(event));
            }
        }
        sink.finish().expect("flush submit-replay stream");
        sink
    });
    std::fs::remove_file(&submit_path).ok();

    let scale = untraced_wall_s.max(f64::MIN_POSITIVE);
    SoakResult {
        workload,
        feature_enabled: tracer_active,
        requests: arrivals.len(),
        untraced_wall_s,
        recorder_wall_s,
        stream_wall_s,
        recorder_submit_s,
        stream_submit_s,
        stream_overhead_frac: (stream_submit_s - recorder_submit_s).max(0.0) / scale,
        recorder_overhead_frac: recorder_submit_s / scale,
        events: snapshot.event_count(),
        spans: snapshot.span_count(),
        links: snapshot.link_count(),
        frames: sink.frames_written(),
        frame_size: sink.frame_size(),
        peak_buffered_bytes: sink.peak_buffered_bytes(),
        file_bytes,
        fingerprint: streamed.fingerprint(),
        fingerprint_parity: true,
        timelines: timelines.len(),
        flight: recorded.summary.flight,
        bit_identical: true,
    }
}

/// A temp path unique to the process and the call: parallel test
/// binaries never collide, and neither do concurrent soak runs inside one
/// test binary (each removes its own file when done).
fn soak_stream_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let call = NEXT.fetch_add(1, Ordering::Relaxed);
    let name = format!("pade-bench-soak-{tag}-{}-{call}.padetrace", std::process::id());
    std::env::temp_dir().join(name)
}

/// Serializes a soak run to the `BENCH_<n>.json` trajectory schema.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_soak_json(
    path: &std::path::Path,
    result: &SoakResult,
    mode: &str,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench_id\": {},", crate::bench_id_from_path(path))?;
    writeln!(f, "  \"tool\": \"pade-bench\",")?;
    writeln!(f, "  \"scenario\": \"soak\",")?;
    writeln!(f, "  \"mode\": \"{}\",", crate::json_escape(mode))?;
    writeln!(
        f,
        "  \"paths\": {{\"recorder\": \"route_traced into the in-memory Recorder\", \
         \"stream\": \"route_traced into the bounded-memory on-disk StreamSink \
         (.padetrace, creation + finish timed)\", \"baseline\": \"untraced route\"}},"
    )?;
    writeln!(
        f,
        "  \"workload\": {{\"tenants\": {}, \"sessions_per_tenant\": {}, \
         \"turns_per_session\": {}, \"shared_prefix_tokens\": {}, \"requests\": {}, \
         \"seed\": {}}},",
        result.workload.tenants,
        result.workload.sessions_per_tenant,
        result.workload.per_tenant.turns_per_session,
        result.workload.per_tenant.shared_prefix_tokens,
        result.requests,
        result.workload.seed
    )?;
    writeln!(f, "  \"feature_enabled\": {},", result.feature_enabled)?;
    writeln!(f, "  \"untraced_wall_s\": {:.6},", result.untraced_wall_s)?;
    writeln!(f, "  \"recorder_wall_s\": {:.6},", result.recorder_wall_s)?;
    writeln!(f, "  \"stream_wall_s\": {:.6},", result.stream_wall_s)?;
    writeln!(f, "  \"recorder_submit_s\": {:.6},", result.recorder_submit_s)?;
    writeln!(f, "  \"stream_submit_s\": {:.6},", result.stream_submit_s)?;
    writeln!(f, "  \"recorder_overhead_pct\": {:.3},", result.recorder_overhead_frac * 100.0)?;
    writeln!(f, "  \"stream_overhead_pct\": {:.3},", result.stream_overhead_frac * 100.0)?;
    writeln!(f, "  \"events\": {},", result.events)?;
    writeln!(f, "  \"spans\": {},", result.spans)?;
    writeln!(f, "  \"links\": {},", result.links)?;
    writeln!(
        f,
        "  \"stream\": {{\"frames\": {}, \"frame_size\": {}, \"peak_buffered_bytes\": {}, \
         \"file_bytes\": {}, \"fingerprint\": \"{:016x}\", \"fingerprint_parity\": {}}},",
        result.frames,
        result.frame_size,
        result.peak_buffered_bytes,
        result.file_bytes,
        result.fingerprint,
        result.fingerprint_parity
    )?;
    let fl = &result.flight;
    writeln!(
        f,
        "  \"flight\": {{\"timelines\": {}, \"requests\": {}, \"queue_cycles\": {}, \
         \"prefill_cycles\": {}, \"decode_cycles\": {}, \"preempted_cycles\": {}, \
         \"stalled_cycles\": {}}},",
        result.timelines,
        fl.requests,
        fl.queue_cycles,
        fl.prefill_cycles,
        fl.decode_cycles,
        fl.preempted_cycles,
        fl.stalled_cycles
    )?;
    writeln!(
        f,
        "  \"headline\": {{\"stream_overhead_pct\": {:.3}, \"peak_buffered_bytes\": {}, \
         \"fingerprint_parity\": {}, \"bit_identical\": {}}}",
        result.stream_overhead_frac * 100.0,
        result.peak_buffered_bytes,
        result.fingerprint_parity,
        result.bit_identical
    )?;
    writeln!(f, "}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_checks_parity_and_bounded_memory() {
        let r = run_soak(true);
        assert!(r.bit_identical && r.fingerprint_parity);
        assert!(r.untraced_wall_s > 0.0 && r.recorder_wall_s > 0.0 && r.stream_wall_s > 0.0);
        assert!(r.recorder_submit_s >= 0.0 && r.stream_submit_s >= 0.0);
        assert!(r.peak_buffered_bytes <= SOAK_FRAME_SIZE);
        if cfg!(feature = "trace") {
            assert!(r.feature_enabled);
            assert!(r.events > 0 && r.spans > 0 && r.links > 0);
            assert!(r.frames >= 2, "soak stream spanned only {} frame(s)", r.frames);
            assert_eq!(r.timelines, r.requests);
            assert_eq!(r.flight.requests, r.requests as u64);
        } else {
            assert!(!r.feature_enabled);
            assert_eq!(r.events, 0);
            assert_eq!(r.frames, 0);
        }
    }

    #[test]
    fn soak_json_is_well_formed_enough() {
        let r = run_soak(true);
        let path = std::env::temp_dir().join("pade_soak_bench_test.json");
        write_soak_json(&path, &r, "quick").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"scenario\": \"soak\""));
        assert!(text.contains("\"stream_overhead_pct\""));
        assert!(text.contains("\"fingerprint_parity\": true"));
        assert!(text.contains("\"flight\""));
        let _ = std::fs::remove_file(&path);
    }
}
