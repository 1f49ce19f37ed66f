//! Property test for the Chrome-trace file: any event sequence a
//! [`Recorder`] captures reads back from [`write_chrome_trace`] output
//! through [`read_chrome_trace`] event for event — wall annotations,
//! arbitrary `u64` payloads and gauge bit patterns (NaN payloads and
//! infinities included) all survive.

use pade_sim::Cycle;
use pade_trace::{read_chrome_trace, write_chrome_trace, Recorder, TraceEvent, TraceSink};
use proptest::prelude::*;

const NAMES: [&str; 4] = ["stage.alpha", "stage.beta", "stage.gamma", "stage.delta"];

/// One generated submission: `(track, kind, clock delta, name pick,
/// payload)` folded into a concrete event with per-track cumulative
/// clocks (monotone per track, like real emitters).
fn materialize(ops: &[(u8, u8, u16, u8, u64)]) -> Vec<(u64, TraceEvent)> {
    let mut clocks = [0u64; 4];
    ops.iter()
        .map(|&(tr, kind, delta, ni, payload)| {
            let t = (tr % 4) as usize;
            clocks[t] += u64::from(delta);
            let name = NAMES[(ni % 4) as usize];
            let clock = Cycle(clocks[t]);
            let event = match kind % 6 {
                0 => TraceEvent::Begin { name, clock },
                1 => TraceEvent::End { clock, wall_nanos: payload },
                2 => TraceEvent::Instant { name, clock },
                3 => TraceEvent::Count { name, clock, delta: payload },
                4 => TraceEvent::Gauge { name, clock, value: f64::from_bits(payload) },
                _ => TraceEvent::Link { name, clock, request: payload % 17, info: payload },
            };
            (t as u64 + 1, event)
        })
        .collect()
}

/// Event equality that compares gauges by their bits, so a NaN equals
/// itself and `-0.0` differs from `0.0`.
fn same(a: &TraceEvent, b: &TraceEvent) -> bool {
    match (a, b) {
        (
            TraceEvent::Gauge { name, clock, value },
            TraceEvent::Gauge { name: n, clock: c, value: v },
        ) => name == n && clock == c && value.to_bits() == v.to_bits(),
        _ => a == b,
    }
}

proptest! {
    #[test]
    fn read_inverts_write_event_for_event(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u16>(), any::<u8>(), any::<u64>()),
            0..200,
        ),
    ) {
        let recorder = Recorder::new();
        for (track, event) in materialize(&ops) {
            recorder.submit(track, &[event]);
        }
        let snapshot = recorder.snapshot();
        let mut out = Vec::new();
        write_chrome_trace(&snapshot, &mut out).unwrap();
        let read = read_chrome_trace(&String::from_utf8(out).unwrap());
        let read = read.expect("an intact trace reads back");
        prop_assert_eq!(read.tracks.len(), snapshot.tracks.len());
        for (r, s) in read.tracks.iter().zip(&snapshot.tracks) {
            prop_assert_eq!(r.track, s.track);
            prop_assert_eq!(r.events.len(), s.events.len());
            for (a, b) in r.events.iter().zip(&s.events) {
                prop_assert!(same(a, b), "track {}: read {:?}, wrote {:?}", s.track, a, b);
            }
        }
        prop_assert_eq!(read.fingerprint(), snapshot.fingerprint());
    }
}
