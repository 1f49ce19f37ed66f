//! Per-request flight recorder: folds the causality [`Link`] events a run
//! emitted at every hop (router placement → node admit → prefill/decode
//! dispatch → cache attach / tier spill / fetch → retire) into one
//! [`RequestTimeline`] per request.
//!
//! The serving layer computes the same cycle accounting natively (so
//! summaries are identical with tracing on or off); this
//! module reconstructs it *from the trace alone*, which is what
//! `pade-trace-query` runs on and what the parity tests pin against the
//! native digests.
//!
//! [`Link`]: crate::TraceEvent::Link

use crate::sink::TraceSnapshot;
use crate::TraceEvent;
use std::collections::BTreeMap;

/// Hop names the serving stack emits; assembly keys off these.
pub mod hop {
    /// Router chose a node (`info` = node index).
    pub const PLACE: &str = "req.place";
    /// Node admitted the request (`info` = session id; tenant in the
    /// high 32 bits).
    pub const ADMIT: &str = "req.admit";
    /// Queue-wait accounting at admit (`info` = admitted − arrival cycles).
    pub const QUEUE: &str = "req.queue";
    /// One prefill dispatch chunk (`info` = engine cycles).
    pub const PREFILL: &str = "req.prefill";
    /// One decode dispatch chunk (`info` = engine cycles).
    pub const DECODE: &str = "req.decode";
    /// Engine dispatch hop (`info` = engine base track id).
    pub const DISPATCH: &str = "req.dispatch";
    /// Session parked by the scheduler.
    pub const PREEMPT: &str = "req.preempt";
    /// Session resumed (`info` = cycles spent parked).
    pub const RESUME: &str = "req.resume";
    /// Prefix-cache attach served hits (`info` = hit tokens).
    pub const CACHE: &str = "req.cache";
    /// Attach spilled chunks to the tier store (`info` = chunks).
    pub const TIER_SPILL: &str = "req.tier_spill";
    /// Attach re-adopted tokens from the tier store (`info` = tokens).
    pub const TIER_FETCH: &str = "req.tier_fetch";
    /// Request finished (`info` = arrival→finish latency in cycles).
    pub const RETIRE: &str = "req.retire";
}

/// Cycle accounting for one request, assembled from its link chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestTimeline {
    /// Request id.
    pub request: u64,
    /// Tenant (high 32 bits of the admit hop's session id).
    pub tenant: u64,
    /// Node the router placed the request on, when a placement hop exists.
    pub node: Option<u64>,
    /// Cycles between arrival and admission.
    pub queue_cycles: u64,
    /// Engine cycles spent in prefill dispatches.
    pub prefill_cycles: u64,
    /// Engine cycles spent in decode dispatches.
    pub decode_cycles: u64,
    /// Cycles spent parked by the preemptive scheduler.
    pub preempted_cycles: u64,
    /// Cycles admitted-but-idle: total − queue − prefill − decode −
    /// preempted (batch waits, head-of-line blocking).
    pub stalled_cycles: u64,
    /// Arrival→finish latency (the retire hop's payload).
    pub total_cycles: u64,
    /// Times the scheduler parked this request.
    pub preemptions: u64,
    /// Engine dispatches that ran work for this request.
    pub dispatches: u64,
    /// Prompt tokens served from the prefix cache.
    pub cache_hit_tokens: u64,
    /// Chunks its attach spilled to the tier store.
    pub tier_spilled_chunks: u64,
    /// Tokens its attach re-adopted from the tier store.
    pub tier_fetched_tokens: u64,
    /// Total link hops observed.
    pub hops: u64,
    /// A placement hop was seen.
    pub placed: bool,
    /// An admit hop was seen.
    pub admitted: bool,
    /// A retire hop was seen.
    pub retired: bool,
}

impl std::fmt::Display for RequestTimeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "req {:>4} tenant {} {:>9} cyc = queue {:>7} + prefill {:>7} + decode {:>7} + \
             preempted {:>7} + stalled {:>7}  ({} hops{})",
            self.request,
            self.tenant,
            self.total_cycles,
            self.queue_cycles,
            self.prefill_cycles,
            self.decode_cycles,
            self.preempted_cycles,
            self.stalled_cycles,
            self.hops,
            match self.node {
                Some(n) => format!(", node {n}"),
                None => String::new(),
            }
        )
    }
}

/// Folds every [`Link`](crate::TraceEvent::Link) event in `snapshot` into
/// per-request timelines, ordered by request id. Hops are processed in
/// `(clock, track, emission order)` order so the fold is deterministic
/// regardless of how tracks interleaved.
#[must_use]
pub fn assemble_timelines(snapshot: &TraceSnapshot) -> Vec<RequestTimeline> {
    // One raw hop: (clock, track, emission index, hop name, info payload).
    type RawHop = (u64, u64, usize, &'static str, u64);
    let mut links: BTreeMap<u64, Vec<RawHop>> = BTreeMap::new();
    for t in &snapshot.tracks {
        for (i, e) in t.events.iter().enumerate() {
            if let TraceEvent::Link { name, clock, request, info } = *e {
                links.entry(request).or_default().push((clock.0, t.track, i, name, info));
            }
        }
    }
    links
        .into_iter()
        .map(|(request, mut hops)| {
            hops.sort_by_key(|&(clock, track, index, _, _)| (clock, track, index));
            let mut tl = RequestTimeline { request, ..RequestTimeline::default() };
            for &(_, _, _, name, info) in &hops {
                tl.hops += 1;
                match name {
                    hop::PLACE => {
                        tl.node = Some(info);
                        tl.placed = true;
                    }
                    hop::ADMIT => {
                        tl.tenant = info >> 32;
                        tl.admitted = true;
                    }
                    hop::QUEUE => tl.queue_cycles += info,
                    hop::PREFILL => tl.prefill_cycles += info,
                    hop::DECODE => tl.decode_cycles += info,
                    hop::DISPATCH => tl.dispatches += 1,
                    hop::PREEMPT => tl.preemptions += 1,
                    hop::RESUME => tl.preempted_cycles += info,
                    hop::CACHE => tl.cache_hit_tokens += info,
                    hop::TIER_SPILL => tl.tier_spilled_chunks += info,
                    hop::TIER_FETCH => tl.tier_fetched_tokens += info,
                    hop::RETIRE => {
                        tl.total_cycles = info;
                        tl.retired = true;
                    }
                    _ => {}
                }
            }
            tl.stalled_cycles = tl.total_cycles.saturating_sub(
                tl.queue_cycles + tl.prefill_cycles + tl.decode_cycles + tl.preempted_cycles,
            );
            tl
        })
        .collect()
}

/// The `--assert-linked` causality check: every request with any hop must
/// have a complete admit→retire chain, and when the trace contains router
/// placements at all, every admitted request must also have one.
///
/// # Errors
///
/// Names the first request with a broken chain.
pub fn check_linked(timelines: &[RequestTimeline]) -> Result<(), String> {
    let any_placed = timelines.iter().any(|t| t.placed);
    for t in timelines {
        if !t.admitted {
            return Err(format!("request {} has link hops but no admit hop", t.request));
        }
        if !t.retired {
            return Err(format!("request {} was admitted but never retired", t.request));
        }
        if any_placed && !t.placed {
            return Err(format!(
                "request {} has no placement hop in a router trace that places others",
                t.request
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{Recorder, TraceSink};
    use pade_sim::Cycle;

    fn link(name: &'static str, clock: u64, request: u64, info: u64) -> TraceEvent {
        TraceEvent::Link { name, clock: Cycle(clock), request, info }
    }

    #[test]
    fn assembles_one_timeline_per_request() {
        let rec = Recorder::new();
        rec.submit(
            1,
            &[
                link(hop::PLACE, 0, 7, 2),
                link(hop::ADMIT, 5, 7, 3 << 32),
                link(hop::QUEUE, 5, 7, 5),
                link(hop::PREFILL, 6, 7, 40),
                link(hop::DECODE, 50, 7, 10),
                link(hop::PREEMPT, 60, 7, 0),
                link(hop::RESUME, 80, 7, 20),
                link(hop::RETIRE, 100, 7, 100),
            ],
        );
        rec.submit(2, &[link(hop::ADMIT, 1, 9, 0), link(hop::RETIRE, 9, 9, 9)]);
        let tls = assemble_timelines(&rec.snapshot());
        assert_eq!(tls.len(), 2);
        let t = &tls[0];
        assert_eq!((t.request, t.tenant, t.node), (7, 3, Some(2)));
        assert_eq!(
            (t.queue_cycles, t.prefill_cycles, t.decode_cycles, t.preempted_cycles),
            (5, 40, 10, 20)
        );
        // 100 total − 5 queue − 40 prefill − 10 decode − 20 preempted.
        assert_eq!(t.stalled_cycles, 25);
        assert_eq!(t.preemptions, 1);
        assert!(t.placed && t.admitted && t.retired);
    }

    #[test]
    fn check_linked_flags_broken_chains() {
        let rec = Recorder::new();
        rec.submit(1, &[link(hop::ADMIT, 0, 1, 0), link(hop::RETIRE, 5, 1, 5)]);
        assert!(check_linked(&assemble_timelines(&rec.snapshot())).is_ok());

        rec.submit(1, &[link(hop::ADMIT, 6, 2, 0)]);
        let err = check_linked(&assemble_timelines(&rec.snapshot())).unwrap_err();
        assert!(err.contains("never retired"), "{err}");

        // A router trace that placed request 1 but not request 2.
        let rec = Recorder::new();
        rec.submit(
            1,
            &[
                link(hop::PLACE, 0, 1, 0),
                link(hop::ADMIT, 1, 1, 0),
                link(hop::RETIRE, 5, 1, 5),
                link(hop::ADMIT, 2, 2, 0),
                link(hop::RETIRE, 6, 2, 4),
            ],
        );
        let err = check_linked(&assemble_timelines(&rec.snapshot())).unwrap_err();
        assert!(err.contains("no placement hop"), "{err}");
    }
}
