//! Typed metrics registry and the per-stage report built from a snapshot.

use crate::{TraceEvent, TraceSnapshot};
use pade_sim::{Cycle, LatencyStats, LatencySummary};
use std::collections::BTreeMap;

/// A deterministic metrics store: monotonic counters, last-write gauges
/// and latency histograms (reusing [`LatencyStats`] exact-sample merge
/// semantics). Keys are sorted, so iteration — and therefore any report
/// built from a registry — is deterministic.
///
/// # Example
///
/// ```
/// use pade_sim::Cycle;
/// use pade_trace::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.add("engine.popcounts", 3);
/// m.add("engine.popcounts", 2);
/// m.observe("serve.latency", Cycle(40));
/// assert_eq!(m.counter("engine.popcounts"), 5);
/// assert_eq!(m.histogram("serve.latency").unwrap().count, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LatencyStats>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn add(&mut self, name: impl Into<String>, delta: u64) {
        *self.counters.entry(name.into()).or_insert(0) += delta;
    }

    /// Sets the named gauge (last write wins).
    pub fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Records one sample into the named histogram.
    pub fn observe(&mut self, name: impl Into<String>, sample: Cycle) {
        self.histograms.entry(name.into()).or_default().record(sample);
    }

    /// Current value of a counter (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Percentile digest of a histogram, if it has samples.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<LatencySummary> {
        self.histograms.get(name).map(LatencyStats::summary)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms' raw collectors, sorted by name — for callers that
    /// digest or re-pool samples themselves (e.g. the per-tenant SLO
    /// attainment lines of `pade-serve`/`pade-router`).
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &LatencyStats)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds another registry in: counters add, gauges keep the maximum,
    /// histograms pool their samples.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(v);
            *g = g.max(v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

/// Aggregate of one span stage across a whole trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageStat {
    /// Stage (span) name.
    pub name: String,
    /// Number of spans.
    pub spans: u64,
    /// Summed logical duration (end − begin) in cycles.
    pub total_cycles: u64,
    /// Summed wall-clock annotations in nanoseconds (0 for untimed spans).
    pub total_wall_nanos: u64,
}

/// Per-stage attribution report: where the cycles went, stage by stage
/// (`BENCH_7.json` records one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageBreakdown {
    /// Stage aggregates, sorted by name.
    pub stages: Vec<StageStat>,
    /// Counter totals `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl StageBreakdown {
    /// Folds a snapshot's spans and counters into per-stage totals.
    #[must_use]
    pub fn from_snapshot(snapshot: &TraceSnapshot) -> Self {
        let mut stages: BTreeMap<&'static str, StageStat> = BTreeMap::new();
        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        for t in &snapshot.tracks {
            let mut open: Vec<(&'static str, Cycle)> = Vec::new();
            for e in &t.events {
                match *e {
                    TraceEvent::Begin { name, clock } => open.push((name, clock)),
                    TraceEvent::End { clock, wall_nanos } => {
                        if let Some((name, begin)) = open.pop() {
                            let s = stages.entry(name).or_insert_with(|| StageStat {
                                name: name.to_string(),
                                ..StageStat::default()
                            });
                            s.spans += 1;
                            s.total_cycles += (clock - begin).0;
                            s.total_wall_nanos += wall_nanos;
                        }
                    }
                    TraceEvent::Count { name, delta, .. } => {
                        *counters.entry(name).or_insert(0) += delta;
                    }
                    _ => {}
                }
            }
        }
        Self {
            stages: stages.into_values().collect(),
            counters: counters.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// Looks up one stage by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.name == name)
    }
}

impl TraceSnapshot {
    /// Folds all [`TraceEvent::Count`] and [`TraceEvent::Gauge`] events
    /// into a registry (gauges keep their maximum observed level).
    #[must_use]
    pub fn registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for t in &self.tracks {
            for e in &t.events {
                match *e {
                    TraceEvent::Count { name, delta, .. } => reg.add(name, delta),
                    TraceEvent::Gauge { name, value, .. } => {
                        let cur = reg.gauge(name).unwrap_or(f64::MIN);
                        reg.set_gauge(name, cur.max(value));
                    }
                    _ => {}
                }
            }
        }
        reg
    }

    /// Per-stage attribution of this snapshot.
    #[must_use]
    pub fn breakdown(&self) -> StageBreakdown {
        StageBreakdown::from_snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, TraceSink};

    #[test]
    fn registry_merge_semantics() {
        let mut a = MetricsRegistry::new();
        a.add("c", 2);
        a.set_gauge("g", 3.0);
        a.observe("h", Cycle(10));
        let mut b = MetricsRegistry::new();
        b.add("c", 5);
        b.set_gauge("g", 1.0);
        b.observe("h", Cycle(30));
        a.merge(&b);
        assert_eq!(a.counter("c"), 7);
        assert_eq!(a.gauge("g"), Some(3.0));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, Cycle(30));
    }

    #[test]
    fn breakdown_aggregates_spans_and_counters() {
        let rec = Recorder::new();
        rec.submit(
            1,
            &[
                TraceEvent::Begin { name: "outer", clock: Cycle(0) },
                TraceEvent::Begin { name: "inner", clock: Cycle(2) },
                TraceEvent::Count { name: "n", clock: Cycle(2), delta: 4 },
                TraceEvent::End { clock: Cycle(5), wall_nanos: 100 },
                TraceEvent::End { clock: Cycle(10), wall_nanos: 0 },
            ],
        );
        rec.submit(
            2,
            &[
                TraceEvent::Begin { name: "inner", clock: Cycle(1) },
                TraceEvent::Count { name: "n", clock: Cycle(1), delta: 1 },
                TraceEvent::End { clock: Cycle(2), wall_nanos: 50 },
            ],
        );
        let snap = rec.snapshot();
        let bd = snap.breakdown();
        let inner = bd.get("inner").unwrap();
        assert_eq!(inner.spans, 2);
        assert_eq!(inner.total_cycles, 4);
        assert_eq!(inner.total_wall_nanos, 150);
        assert_eq!(bd.get("outer").unwrap().total_cycles, 10);
        assert_eq!(bd.counters, vec![("n".to_string(), 5)]);
        assert_eq!(snap.registry().counter("n"), 5);
    }
}
