//! Sinks: where submitted track buffers go, and the deterministic
//! [`TraceSnapshot`] the in-memory [`Recorder`] produces.

use crate::{track, TraceEvent};
use pade_sim::Cycle;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Receives batches of events for a track.
///
/// All events of one track are submitted by that track's single owner in
/// program order; batches for *different* tracks may arrive interleaved
/// from `pade-par` workers in any order. A sink must therefore key its
/// store by track, never by arrival.
pub trait TraceSink: Send + Sync {
    /// Appends `events` to `track`'s stream.
    fn submit(&self, track: u64, events: &[TraceEvent]);
}

/// In-memory sink whose [`snapshot`](Recorder::snapshot) is deterministic:
/// tracks come out ordered by id and each track's events in emission
/// order, independent of worker count or flush interleaving.
#[derive(Debug, Default)]
pub struct Recorder {
    tracks: Mutex<BTreeMap<u64, Vec<TraceEvent>>>,
}

impl Recorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The events recorded so far, ordered by `(track id, emission order)`.
    ///
    /// # Panics
    ///
    /// Panics if a submitting thread panicked while holding the store lock.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let tracks = self.tracks.lock().expect("recorder lock poisoned");
        TraceSnapshot {
            tracks: tracks
                .iter()
                .map(|(&track, events)| TrackEvents { track, events: events.clone() })
                .collect(),
        }
    }

    /// Drops everything recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if a submitting thread panicked while holding the store lock.
    pub fn clear(&self) {
        self.tracks.lock().expect("recorder lock poisoned").clear();
    }
}

impl TraceSink for Recorder {
    fn submit(&self, track: u64, events: &[TraceEvent]) {
        let mut tracks = self.tracks.lock().expect("recorder lock poisoned");
        tracks.entry(track).or_default().extend_from_slice(events);
    }
}

/// One track's ordered event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackEvents {
    /// Track id (see [`crate::track`]).
    pub track: u64,
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
}

/// A deterministic view of everything a [`Recorder`] captured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// Tracks ordered by id.
    pub tracks: Vec<TrackEvents>,
}

impl TraceSnapshot {
    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// Total event count.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Number of spans (matched or not, counted by their begins).
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| matches!(e, TraceEvent::Begin { .. }))
            .count()
    }

    /// Number of causality link events across all tracks.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| matches!(e, TraceEvent::Link { .. }))
            .count()
    }

    /// Distinct span stage names, sorted.
    #[must_use]
    pub fn stage_names(&self) -> BTreeSet<&'static str> {
        self.tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter_map(|e| match e {
                TraceEvent::Begin { name, .. } => Some(*name),
                _ => None,
            })
            .collect()
    }

    /// Checks the span-stream invariants every instrumented layer must
    /// uphold, per track: logical clocks never decrease, every end closes
    /// an open begin, and nothing is left open.
    ///
    /// # Errors
    ///
    /// Describes the first violated track.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for t in &self.tracks {
            let label = track::label(t.track);
            let mut last = Cycle::ZERO;
            let mut open: Vec<&'static str> = Vec::new();
            for (i, e) in t.events.iter().enumerate() {
                let clock = e.clock();
                if clock < last {
                    return Err(format!(
                        "track {label}: clock went backwards at event {i} ({} -> {})",
                        last.0, clock.0
                    ));
                }
                last = clock;
                match e {
                    TraceEvent::Begin { name, .. } => open.push(name),
                    // The guard pops: a matched End consumes its Begin
                    // whether or not the error arm is taken.
                    TraceEvent::End { .. } if open.pop().is_none() => {
                        return Err(format!("track {label}: end without begin at event {i}"));
                    }
                    _ => {}
                }
            }
            if let Some(name) = open.pop() {
                return Err(format!("track {label}: span '{name}' never ended"));
            }
        }
        Ok(())
    }

    /// FNV-1a fingerprint of the logical event stream. Wall-clock
    /// annotations are excluded, so two runs of the same workload hash
    /// equal exactly when their logical traces are identical — the
    /// determinism property the cross-worker tests pin down.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for t in &self.tracks {
            eat(&t.track.to_le_bytes());
            for e in &t.events {
                match *e {
                    TraceEvent::Begin { name, clock } => {
                        eat(&[1]);
                        eat(name.as_bytes());
                        eat(&clock.0.to_le_bytes());
                    }
                    TraceEvent::End { clock, .. } => {
                        eat(&[2]);
                        eat(&clock.0.to_le_bytes());
                    }
                    TraceEvent::Instant { name, clock } => {
                        eat(&[3]);
                        eat(name.as_bytes());
                        eat(&clock.0.to_le_bytes());
                    }
                    TraceEvent::Count { name, clock, delta } => {
                        eat(&[4]);
                        eat(name.as_bytes());
                        eat(&clock.0.to_le_bytes());
                        eat(&delta.to_le_bytes());
                    }
                    TraceEvent::Gauge { name, clock, value } => {
                        eat(&[5]);
                        eat(name.as_bytes());
                        eat(&clock.0.to_le_bytes());
                        eat(&value.to_bits().to_le_bytes());
                    }
                    TraceEvent::Link { name, clock, request, info } => {
                        eat(&[6]);
                        eat(name.as_bytes());
                        eat(&clock.0.to_le_bytes());
                        eat(&request.to_le_bytes());
                        eat(&info.to_le_bytes());
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, b: u64, e: u64) -> Vec<TraceEvent> {
        vec![
            TraceEvent::Begin { name, clock: Cycle(b) },
            TraceEvent::End { clock: Cycle(e), wall_nanos: 0 },
        ]
    }

    #[test]
    fn snapshot_orders_tracks_by_id() {
        let rec = Recorder::new();
        rec.submit(7, &span("b", 0, 1));
        rec.submit(3, &span("a", 0, 1));
        rec.submit(7, &span("c", 1, 2));
        let snap = rec.snapshot();
        assert_eq!(snap.tracks.iter().map(|t| t.track).collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(snap.tracks[1].events.len(), 4);
        assert_eq!(snap.span_count(), 3);
        snap.check_well_formed().unwrap();
    }

    #[test]
    fn fingerprint_ignores_wall_annotations() {
        let rec = Recorder::new();
        rec.submit(1, &span("s", 0, 5));
        let a = rec.snapshot().fingerprint();
        let rec2 = Recorder::new();
        rec2.submit(
            1,
            &[
                TraceEvent::Begin { name: "s", clock: Cycle(0) },
                TraceEvent::End { clock: Cycle(5), wall_nanos: 12345 },
            ],
        );
        assert_eq!(a, rec2.snapshot().fingerprint());
        let rec3 = Recorder::new();
        rec3.submit(1, &span("s", 0, 6));
        assert_ne!(a, rec3.snapshot().fingerprint());
    }

    #[test]
    fn well_formedness_catches_violations() {
        let rec = Recorder::new();
        rec.submit(1, &[TraceEvent::End { clock: Cycle(0), wall_nanos: 0 }]);
        assert!(rec.snapshot().check_well_formed().is_err());

        let rec = Recorder::new();
        rec.submit(1, &[TraceEvent::Begin { name: "open", clock: Cycle(0) }]);
        assert!(rec.snapshot().check_well_formed().is_err());

        let rec = Recorder::new();
        rec.submit(
            1,
            &[
                TraceEvent::Instant { name: "late", clock: Cycle(9) },
                TraceEvent::Instant { name: "early", clock: Cycle(3) },
            ],
        );
        assert!(rec.snapshot().check_well_formed().is_err());
    }
}
