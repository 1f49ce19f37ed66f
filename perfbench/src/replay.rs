//! One replay of a workload through the public serving entry points, and
//! the simulated statistics read back from its report.

use pade_router::{route, route_traced, RouterReport};
use pade_serve::server::{serve, serve_traced, Completion, ServeReport};
use pade_serve::ScheduleMode;
use pade_trace::Tracer;
use pade_workload::trace::RequestKind;

use crate::workloads::{Plan, Target, FOREGROUND};

/// The report of one replay: one node's or the whole fleet's.
// One report lives per replay and none sit in collections, so the larger
// variant costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Report {
    /// From `pade_serve::serve`.
    Serve(ServeReport),
    /// From `pade_router::route`.
    Route(RouterReport),
}

impl Report {
    /// Per-node serve reports, in node order.
    #[must_use]
    pub fn node_reports(&self) -> Vec<&ServeReport> {
        match self {
            Report::Serve(r) => vec![r],
            Report::Route(r) => r.node_reports.iter().collect(),
        }
    }

    /// `(node, completion)` for every completed request, sorted by id.
    #[must_use]
    pub fn completions(&self) -> Vec<(usize, &Completion)> {
        let mut out: Vec<(usize, &Completion)> = self
            .node_reports()
            .into_iter()
            .enumerate()
            .flat_map(|(k, r)| r.completions.iter().map(move |c| (k, c)))
            .collect();
        out.sort_by_key(|(_, c)| c.id);
        out
    }
}

/// Replays `plan` once. With a disabled tracer this calls `serve`/`route`;
/// otherwise `serve_traced`/`route_traced`.
#[must_use]
pub fn run(plan: &Plan, tracer: &Tracer) -> Report {
    let mode = ScheduleMode::Batched;
    match (&plan.target, tracer.is_active()) {
        (Target::Serve(c), false) => Report::Serve(serve(c, &plan.arrivals, mode)),
        (Target::Serve(c), true) => Report::Serve(serve_traced(c, &plan.arrivals, mode, tracer, 0)),
        (Target::Route(r), false) => Report::Route(route(r, &plan.arrivals, mode)),
        (Target::Route(r), true) => Report::Route(route_traced(r, &plan.arrivals, mode, tracer)),
    }
}

/// One request's simulated timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Node the request ran on.
    pub node: usize,
    /// Arrival, admission and completion cycles.
    pub arrival: u64,
    /// Admission cycle.
    pub admitted: u64,
    /// Completion cycle.
    pub finished: u64,
}

/// Everything simulated about one replay. Deterministic: two replays of
/// one plan must produce equal values, at any thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Per-request timelines, indexed by request id.
    pub requests: Vec<RequestRecord>,
    /// Σ simulated QK-PU block cycles.
    pub engine_cycles: u64,
    /// Query-row tokens per simulated second at the core clock.
    pub tokens_per_s: f64,
    /// Foreground requests that met their SLO, and foreground total.
    pub slo_met: u64,
    /// Foreground requests completed.
    pub slo_total: u64,
    /// Engine retained (token, score) pairs and scored (row, key) pairs.
    pub retained_pairs: u64,
    /// Query rows × keys attended, over every block.
    pub scored_pairs: u64,
    /// Key planes fetched and the dense plane count.
    pub planes_fetched: u64,
    /// Planes a dense engine would fetch.
    pub planes_dense: u64,
    /// Engine DRAM bytes read.
    pub dram_read_bytes: u64,
    /// Engine SRAM bytes read.
    pub sram_read_bytes: u64,
    /// Serve iterations over all nodes.
    pub iterations: u64,
    /// Mean batch occupancy, averaged over nodes that served requests.
    pub occupancy_mean: f64,
    /// Sessions preempted at a chunk or step boundary.
    pub preemptions: u64,
    /// Flight-recorder cycle totals: queued, stalled, preempted.
    pub queue_cycles: u64,
    /// Admitted cycles neither running nor parked.
    pub stalled_cycles: u64,
    /// Cycles parked after a preemption.
    pub preempted_cycles: u64,
    /// Prefix-cache hit rate over attached tokens.
    pub cache_hit_rate: f64,
    /// Prompt tokens decomposed at attach.
    pub cache_decomposed_tokens: u64,
    /// Cache chunks evicted.
    pub cache_evictions: u64,
    /// Largest per-node resident plane bytes.
    pub cache_resident_bytes_max: f64,
    /// Chunks and bytes spilled to the tier, tokens fetched back.
    pub tier_spilled_chunks: u64,
    /// Bytes spilled to the tier.
    pub tier_spilled_bytes: u64,
    /// Tokens fetched back from the tier.
    pub tier_fetched_tokens: u64,
    /// Router: share of placements by session or prefix affinity.
    pub affinity_frac: f64,
    /// Router: max ÷ mean of per-node served tokens.
    pub load_imbalance: f64,
    /// Router: bytes and modelled interconnect cycles of peer transfers.
    pub transfer_bytes: u64,
    /// Modelled interconnect cycles of peer transfers.
    pub transfer_cycles: u64,
    /// Hot-shard replications.
    pub replications: u64,
    /// Drain migrations.
    pub migrations: u64,
}

impl SimStats {
    /// Reads the simulated statistics of `report`, a replay of `plan`.
    #[must_use]
    pub fn of(plan: &Plan, report: &Report) -> Self {
        let mut s = SimStats::default();
        let mut requests = vec![None; plan.arrivals.len()];
        for (node, c) in report.completions() {
            requests[c.id] = Some(RequestRecord {
                node,
                arrival: c.arrival.0,
                admitted: c.admitted.0,
                finished: c.finished.0,
            });
            let spec = &plan.arrivals[c.id];
            let seq_len = spec.trace.seq_len;
            for (block, r) in c.results.iter().enumerate() {
                s.retained_pairs += r.retained.iter().map(|row| row.len() as u64).sum::<u64>();
                let context = match spec.kind {
                    RequestKind::Prefill { .. } => seq_len,
                    RequestKind::Decode { .. } => spec.kind.context_len(seq_len, block),
                };
                s.scored_pairs += (r.retained.len() * context) as u64;
                s.planes_fetched += r.planes_fetched;
                s.planes_dense += r.planes_dense;
            }
        }
        s.requests = requests.into_iter().flatten().collect();
        let nodes = report.node_reports();
        let busy: Vec<_> = nodes.iter().filter(|r| !r.completions.is_empty()).collect();
        for r in &nodes {
            s.engine_cycles += r.metrics.engine_cycles;
            s.iterations += r.summary.iterations;
            s.preemptions += r.metrics.preemptions;
            s.dram_read_bytes += r.summary.traffic.dram_read_bytes;
            s.sram_read_bytes += r.summary.traffic.sram_read_bytes;
            s.queue_cycles += r.summary.flight.queue_cycles;
            s.stalled_cycles += r.summary.flight.stalled_cycles;
            s.preempted_cycles += r.summary.flight.preempted_cycles;
            s.tier_spilled_bytes += r.summary.cache_spilled_bytes;
            s.cache_resident_bytes_max =
                s.cache_resident_bytes_max.max(r.summary.cache_resident_bytes_max);
            for t in r.summary.slo.iter().filter(|t| t.tenant == FOREGROUND) {
                s.slo_met += t.met;
                s.slo_total += t.total;
            }
        }
        s.occupancy_mean =
            busy.iter().map(|r| r.summary.occupancy_mean).sum::<f64>() / busy.len().max(1) as f64;
        match report {
            Report::Serve(r) => {
                let m = &r.summary;
                s.tokens_per_s = m.tokens_per_s;
                s.cache_hit_rate = m.cache_hit_rate;
                s.cache_decomposed_tokens = m.cache_decomposed_tokens;
                s.cache_evictions = m.cache_evictions;
                s.tier_spilled_chunks = m.cache_spilled_chunks;
                s.tier_fetched_tokens = m.cache_fetched_tokens;
            }
            Report::Route(r) => {
                let m = &r.summary;
                s.tokens_per_s = m.tokens_per_s;
                s.cache_hit_rate = m.cache_hit_rate;
                s.cache_decomposed_tokens = m.cache_decomposed_tokens;
                s.cache_evictions = m.cache_evictions;
                s.tier_spilled_chunks = m.cache_spilled_chunks;
                s.tier_fetched_tokens = m.cache_fetched_tokens;
                s.affinity_frac = (m.session_affinity_routes + m.prefix_affinity_routes) as f64
                    / r.decisions.len().max(1) as f64;
                s.load_imbalance = m.load_imbalance;
                s.transfer_bytes = m.transfer_bytes;
                s.transfer_cycles = m.transfer_cycles;
                s.replications = m.replications;
                s.migrations = m.migrations;
            }
        }
        s
    }

    /// Request latencies (completion − arrival) in cycles, sorted, pooled
    /// over nodes.
    #[must_use]
    pub fn latencies(&self) -> Vec<u64> {
        let mut l: Vec<u64> = self.requests.iter().map(|r| r.finished - r.arrival).collect();
        l.sort_unstable();
        l
    }
}

/// Nearest-rank percentile `p` (0..=1) of sorted `values`; 0 when empty.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-request output bytes indexed by request id; `None` for a request
/// the report does not contain.
#[must_use]
pub fn outputs(plan: &Plan, report: &Report) -> Vec<Option<Vec<u8>>> {
    let mut out = vec![None; plan.arrivals.len()];
    for (_, c) in report.completions() {
        out[c.id] = Some(c.output_bytes());
    }
    out
}

/// FNV-1a over a byte stream, for output and statistics fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Fingerprint of every request's output bytes, in id order.
#[must_use]
pub fn output_fingerprint(outputs: &[Option<Vec<u8>>]) -> String {
    let mut h = Fnv::default();
    for (id, bytes) in outputs.iter().enumerate() {
        h.write(&(id as u64).to_le_bytes());
        if let Some(bytes) = bytes {
            h.write(&(bytes.len() as u64).to_le_bytes());
            h.write(bytes);
        }
    }
    h.hex()
}

/// Fingerprint of the simulated statistics.
#[must_use]
pub fn sim_fingerprint(sim: &SimStats) -> String {
    let mut h = Fnv::default();
    h.write(format!("{sim:?}").as_bytes());
    h.hex()
}
