//! Deterministic observability for the PADE stack: hierarchical spans
//! keyed by the logical [`Cycle`] clock, a typed metrics registry, and a
//! Chrome-trace/Perfetto exporter.
//!
//! # Design
//!
//! Every span, instant, counter and gauge is stamped with the **logical**
//! clock of the subsystem that emitted it (engine block cycles, serve node
//! time, cache ticks), never wall time — so a trace is a pure function of
//! the workload and seed. Wall-clock durations ride along as optional
//! annotations on span ends and are excluded from determinism fingerprints.
//!
//! Events are recorded onto *tracks*: a track is a totally-ordered event
//! stream owned by exactly one logical unit of work (one engine block
//! dispatch, one serve node, one cache manager). Owners either batch
//! events through a [`TraceCtx`] or submit one-shots through [`Tracer`];
//! either way all events of a track originate from a single thread in
//! deterministic program order. The [`Recorder`] keys its store by track
//! id, so a snapshot is ordered by `(track, emission order)` no matter how
//! `pade-par` interleaves worker flushes — the same idiom as the ordered
//! fork-join itself.
//!
//! # Cheap when disabled
//!
//! A [`Tracer::disabled`] handle has no sink: every recording method is
//! one `None` check, and instrumented hot loops guard their telemetry on
//! [`Tracer::is_active`], so an untraced run skips it entirely.
//!
//! # Example
//!
//! ```
//! use pade_sim::Cycle;
//! use pade_trace::{Recorder, Tracer};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(Recorder::new());
//! let tracer = Tracer::new(recorder.clone());
//! let mut ctx = tracer.ctx(pade_trace::track::id(pade_trace::track::SERVE, 0, 0));
//! ctx.begin("serve.dispatch", Cycle(10));
//! ctx.count("serve.batch_tokens", Cycle(10), 64);
//! ctx.end(Cycle(42));
//! ctx.flush();
//! let snap = recorder.snapshot();
//! assert_eq!(snap.span_count(), 1);
//! snap.check_well_formed().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
pub mod flight;
mod metrics;
mod sink;
pub mod stream;

pub use chrome::{
    save_chrome_trace, validate_chrome_trace, write_chrome_trace, ChromeTraceSummary,
};
pub use flight::{assemble_timelines, RequestTimeline};
pub use metrics::{MetricsRegistry, StageBreakdown, StageStat};
pub use sink::{NullSink, Recorder, TraceSink, TraceSnapshot, TrackEvents};
pub use stream::{read_stream, read_stream_lossy, StreamSink};

/// Re-exported so layers without a `pade-sim` dependency can stamp events.
pub use pade_sim::Cycle;
use std::fmt;
use std::sync::Arc;

/// One telemetry event on a track. `name` fields are `&'static str` so
/// recording a span costs two enum pushes, no allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// Opens a span at `clock`. Spans on one track nest strictly.
    Begin {
        /// Stage name, e.g. `"engine.qk_block"`.
        name: &'static str,
        /// Logical open time.
        clock: Cycle,
    },
    /// Closes the innermost open span. `wall_nanos` is the measured
    /// wall-clock duration (0 when untimed) — annotation only, never part
    /// of determinism fingerprints.
    End {
        /// Logical close time (≥ the matching begin).
        clock: Cycle,
        /// Optional wall-clock duration annotation in nanoseconds.
        wall_nanos: u64,
    },
    /// A point event.
    Instant {
        /// Event name.
        name: &'static str,
        /// Logical time.
        clock: Cycle,
    },
    /// A monotonic counter increment.
    Count {
        /// Counter name.
        name: &'static str,
        /// Logical time.
        clock: Cycle,
        /// Amount added (counters only go up).
        delta: u64,
    },
    /// A level sample (queue depth, occupancy, …).
    Gauge {
        /// Gauge name.
        name: &'static str,
        /// Logical time.
        clock: Cycle,
        /// Sampled level.
        value: f64,
    },
    /// A causality edge: one hop of a request's journey through the
    /// stack (router placement, node admit, dispatch, cache attach, tier
    /// spill/fetch, retire). Links sharing a `request` id form a flow
    /// chain exported as Perfetto flow events and folded into
    /// [`RequestTimeline`]s by [`assemble_timelines`].
    Link {
        /// Hop name, e.g. `"req.admit"`.
        name: &'static str,
        /// Logical time.
        clock: Cycle,
        /// Request id the hop belongs to.
        request: u64,
        /// Hop-specific payload (node index, token count, latency, …).
        info: u64,
    },
}

impl TraceEvent {
    /// Logical timestamp of the event.
    #[must_use]
    pub fn clock(&self) -> Cycle {
        match *self {
            TraceEvent::Begin { clock, .. }
            | TraceEvent::End { clock, .. }
            | TraceEvent::Instant { clock, .. }
            | TraceEvent::Count { clock, .. }
            | TraceEvent::Gauge { clock, .. }
            | TraceEvent::Link { clock, .. } => clock,
        }
    }
}

/// Deterministic track-id scheme: `layer ≪ 56 | owner ≪ 32 | seq`.
///
/// Callers assign ids from values that are themselves deterministic (node
/// index, dispatch sequence number), never from thread identity, so the
/// same workload produces the same track set at any worker count.
pub mod track {
    /// Engine layer tag (per-dispatch block tracks).
    pub const ENGINE: u8 = 1;
    /// Quantization layer tag (growable key caches).
    pub const QUANT: u8 = 2;
    /// KV cache-manager layer tag.
    pub const CACHE: u8 = 3;
    /// Serving-node layer tag.
    pub const SERVE: u8 = 4;
    /// Router layer tag.
    pub const ROUTER: u8 = 5;
    /// Bench-harness layer tag.
    pub const BENCH: u8 = 6;
    /// Spill-tier layer tag (per-node tier traffic tracks).
    pub const TIER: u8 = 7;

    /// Consecutive track ids reserved per engine dispatch unit: the block's
    /// main track plus aggregate-stage and wrapper subtracks.
    pub const DISPATCH_STRIDE: u64 = 4;

    /// Packs a track id. `owner` is truncated to its low 24 bits (node
    /// counts are small; the layer tag owns the top byte).
    #[must_use]
    pub fn id(layer: u8, owner: u32, seq: u32) -> u64 {
        (u64::from(layer) << 56) | (u64::from(owner & 0x00ff_ffff) << 32) | u64::from(seq)
    }

    /// Layer tag of a track id.
    #[must_use]
    pub fn layer(track: u64) -> u8 {
        (track >> 56) as u8
    }

    /// Owner (e.g. node index) of a track id.
    #[must_use]
    pub fn owner(track: u64) -> u32 {
        ((track >> 32) & 0x00ff_ffff) as u32
    }

    /// Sequence field of a track id.
    #[must_use]
    pub fn seq(track: u64) -> u32 {
        track as u32
    }

    /// Human label used for Perfetto thread names, e.g. `engine/n0/s12`.
    #[must_use]
    pub fn label(track: u64) -> String {
        let name = match layer(track) {
            ENGINE => "engine",
            QUANT => "quant",
            CACHE => "cache",
            SERVE => "serve",
            ROUTER => "router",
            BENCH => "bench",
            TIER => "tier",
            _ => "track",
        };
        format!("{name}/n{}/s{}", owner(track), seq(track))
    }
}

/// A cloneable handle to a [`TraceSink`]. A disabled handle makes all
/// recording methods no-ops.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tracer(active: {})", self.is_active())
    }
}

impl Tracer {
    /// A handle that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A handle recording into `sink`.
    #[must_use]
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Self { sink: Some(sink) }
    }

    /// `true` when recording, so callers can skip building telemetry
    /// that a disabled handle would drop.
    #[inline]
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a buffering context that records onto `track` and submits on
    /// [`TraceCtx::flush`] / drop.
    #[must_use]
    pub fn ctx(&self, track: u64) -> TraceCtx {
        TraceCtx {
            inner: self.sink.as_ref().map(|sink| {
                Box::new(CtxInner {
                    sink: sink.clone(),
                    track,
                    events: Vec::new(),
                    open: Vec::new(),
                })
            }),
        }
    }

    /// One-shot complete span (begin + end in a single submission).
    #[inline]
    pub fn span_at(
        &self,
        track: u64,
        name: &'static str,
        begin: Cycle,
        end: Cycle,
        wall_nanos: u64,
    ) {
        if let Some(sink) = &self.sink {
            sink.submit(
                track,
                &[
                    TraceEvent::Begin { name, clock: begin },
                    TraceEvent::End { clock: end, wall_nanos },
                ],
            );
        }
    }

    /// One-shot point event.
    #[inline]
    pub fn instant(&self, track: u64, name: &'static str, clock: Cycle) {
        if let Some(sink) = &self.sink {
            sink.submit(track, &[TraceEvent::Instant { name, clock }]);
        }
    }

    /// One-shot counter increment.
    #[inline]
    pub fn count(&self, track: u64, name: &'static str, clock: Cycle, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.submit(track, &[TraceEvent::Count { name, clock, delta }]);
        }
    }

    /// One-shot gauge sample.
    #[inline]
    pub fn gauge(&self, track: u64, name: &'static str, clock: Cycle, value: f64) {
        if let Some(sink) = &self.sink {
            sink.submit(track, &[TraceEvent::Gauge { name, clock, value }]);
        }
    }

    /// One-shot causality link: one hop of request `request`'s journey.
    #[inline]
    pub fn link(&self, track: u64, name: &'static str, clock: Cycle, request: u64, info: u64) {
        if let Some(sink) = &self.sink {
            sink.submit(track, &[TraceEvent::Link { name, clock, request, info }]);
        }
    }
}

struct CtxInner {
    sink: Arc<dyn TraceSink>,
    track: u64,
    events: Vec<TraceEvent>,
    /// Wall timers of currently-open spans (`None` for untimed begins).
    open: Vec<Option<std::time::Instant>>,
}

/// A per-unit-of-work event buffer bound to one track. Events accumulate
/// locally (no locking) and reach the sink on [`flush`](TraceCtx::flush)
/// or drop, as one ordered batch.
#[derive(Default)]
pub struct TraceCtx {
    inner: Option<Box<CtxInner>>,
}

impl fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TraceCtx(active: {})", self.is_active())
    }
}

impl TraceCtx {
    /// A context that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// `true` when events are being recorded.
    #[inline]
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span at `clock`.
    #[inline]
    pub fn begin(&mut self, name: &'static str, clock: Cycle) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(TraceEvent::Begin { name, clock });
            inner.open.push(None);
        }
    }

    /// Opens a span at `clock` and starts a wall-clock timer whose elapsed
    /// nanoseconds annotate the matching [`end`](TraceCtx::end).
    #[inline]
    pub fn begin_timed(&mut self, name: &'static str, clock: Cycle) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(TraceEvent::Begin { name, clock });
            inner.open.push(Some(std::time::Instant::now()));
        }
    }

    /// Closes the innermost open span at `clock`.
    #[inline]
    pub fn end(&mut self, clock: Cycle) {
        if let Some(inner) = &mut self.inner {
            let wall_nanos = match inner.open.pop() {
                Some(Some(t)) => u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
                _ => 0,
            };
            inner.events.push(TraceEvent::End { clock, wall_nanos });
        }
    }

    /// Records a complete span in one call.
    #[inline]
    pub fn span(&mut self, name: &'static str, begin: Cycle, end: Cycle) {
        self.begin(name, begin);
        self.end(end);
    }

    /// Records a point event.
    #[inline]
    pub fn instant(&mut self, name: &'static str, clock: Cycle) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(TraceEvent::Instant { name, clock });
        }
    }

    /// Records a counter increment.
    #[inline]
    pub fn count(&mut self, name: &'static str, clock: Cycle, delta: u64) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(TraceEvent::Count { name, clock, delta });
        }
    }

    /// Records a gauge sample.
    #[inline]
    pub fn gauge(&mut self, name: &'static str, clock: Cycle, value: f64) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(TraceEvent::Gauge { name, clock, value });
        }
    }

    /// Records a causality link for request `request`.
    #[inline]
    pub fn link(&mut self, name: &'static str, clock: Cycle, request: u64, info: u64) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(TraceEvent::Link { name, clock, request, info });
        }
    }

    /// Submits all buffered events to the sink. Called automatically on
    /// drop; explicit flushes let a long-lived context publish early.
    pub fn flush(&mut self) {
        if let Some(inner) = &mut self.inner {
            if !inner.events.is_empty() {
                inner.sink.submit(inner.track, &inner.events);
                inner.events.clear();
            }
        }
    }
}

impl Drop for TraceCtx {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_id_round_trips() {
        let t = track::id(track::SERVE, 7, 42);
        assert_eq!(track::layer(t), track::SERVE);
        assert_eq!(track::owner(t), 7);
        assert_eq!(track::seq(t), 42);
        assert_eq!(track::label(t), "serve/n7/s42");
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_active());
        let mut ctx = t.ctx(1);
        assert!(!ctx.is_active());
        ctx.begin("x", Cycle(0));
        ctx.end(Cycle(1));
        ctx.flush();
    }

    #[test]
    fn ctx_buffers_and_flushes_in_order() {
        let rec = Arc::new(Recorder::new());
        let tracer = Tracer::new(rec.clone());
        assert!(tracer.is_active());
        let mut ctx = tracer.ctx(9);
        ctx.begin("outer", Cycle(0));
        ctx.begin_timed("inner", Cycle(2));
        ctx.count("n", Cycle(2), 3);
        ctx.end(Cycle(5));
        ctx.end(Cycle(8));
        drop(ctx);
        let snap = rec.snapshot();
        assert_eq!(snap.tracks.len(), 1);
        assert_eq!(snap.tracks[0].track, 9);
        assert_eq!(snap.span_count(), 2);
        snap.check_well_formed().unwrap();
        // The timed inner end carries a wall annotation; the untimed outer
        // end does not.
        let walls: Vec<u64> = snap.tracks[0]
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::End { wall_nanos, .. } => Some(*wall_nanos),
                _ => None,
            })
            .collect();
        assert_eq!(walls[1], 0);
    }
}
