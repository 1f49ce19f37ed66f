//! The router proper: one global clock, N serving nodes, one placement
//! decision per arrival.
//!
//! The fleet replays a seeded arrival trace in **global arrival order**.
//! For each arrival the router first advances every node's lockstep loop
//! to the arrival's cycle (so load reads are consistent across nodes at
//! that instant), then places the request:
//!
//! * [`RoutePolicy::Affinity`] — a returning session goes to its home
//!   node (where its stored cache lives); a new session whose prompt's
//!   leading chunks hash ([`prefix_shard_key`]) to a shard some node has
//!   already ingested goes there (the decomposed chunks are resident);
//!   anything else takes deterministic least-loaded placement and
//!   *claims* its shard key for that node.
//! * [`RoutePolicy::RoundRobin`] / [`RoutePolicy::LeastLoaded`] — the
//!   cache-blind baselines.
//!
//! With a [`FleetTierConfig`] the router also moves warm state, not
//! just requests: shards whose placement count crosses the hot
//! threshold are **replicated** (their content-addressed chunk records
//! copied to a second node, placements then balancing across the
//! residents), and a [`DrainPlan`] makes a node's shards **migrate**
//! to wherever its traffic re-homes. Transfers are costed against the
//! `pade-dist` interconnect model as pure accounting — node clocks
//! never include them.
//!
//! Placement changes **which node pays the KV-prep cost**, never what
//! any request computes: per-request outputs are placement-independent
//! (each block simulates its own memory system), so the fleet's merged
//! outputs are byte-identical to a single-node run of the same trace at
//! every node count and policy — the invariant `tests/` pins against
//! the seed oracle.

use std::collections::HashMap;

use pade_cache::{prefix_shard_key, ChunkRecord};
use pade_dist::{InterconnectConfig, Topology};
use pade_serve::node::Node;
use pade_serve::scheduler::ScheduleMode;
use pade_serve::server::{Completion, ServeConfig, ServeReport};
use pade_sim::Cycle;
use pade_trace::{flight::hop, track as trace_track, Tracer};
use pade_workload::trace::RequestArrival;

use crate::metrics::{merge_node_reports, RouterSummary};
use crate::policy::{RouteDecision, RoutePolicy, RouteReason};

/// Leading prompt chunks (of `kv_chunk_tokens` tokens each) hashed into
/// the affinity shard key: the first chunk, so every prompt sharing one
/// system prompt maps to one key.
const AFFINITY_CHUNKS: usize = 1;

/// Most chunks one fleet-tier transfer moves (prefix-leading chunks
/// first). Without a fleet tier, a drain migration moves every chunk.
const FETCH_CHUNKS: usize = 64;

/// Configuration of one routed fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Per-node serving configurations — one entry per node. Usually
    /// homogeneous ([`RouterConfig::homogeneous`]); heterogeneous fleets
    /// (including degraded zero-slot nodes) are allowed and must not
    /// deadlock.
    pub nodes: Vec<ServeConfig>,
    /// The placement policy.
    pub policy: RoutePolicy,
    /// Fleet tier behavior: the interconnect model chunk-record
    /// transfers are costed against, and the hot-shard replication
    /// threshold. `None` disables replication and books transfers
    /// (e.g. drain migrations) without interconnect cost.
    pub tier: Option<FleetTierConfig>,
    /// A scheduled node drain. `None` drains nothing.
    pub drain: Option<DrainPlan>,
}

/// Fleet-level tier behavior: how peer chunk-record transfers are
/// costed and when a hot shard earns a replica.
///
/// Transfers move sealed, content-addressed plane chunks
/// ([`ChunkRecord`]) between node cache managers; importers re-derive
/// every record's key, so a replica is byte-identical to the home copy
/// by construction. All costs are **accounting only** — node clocks
/// never include transfer cycles, so fleet outputs stay byte-identical
/// with the tier on, off, or mid-migration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTierConfig {
    /// The interconnect model transfers are costed against (hop latency
    /// plus link serialization, per-hop energy).
    pub interconnect: InterconnectConfig,
    /// A shard placed this many times — with proven cache hits at its
    /// home node — gets one replica on the least-loaded other node,
    /// after which residency-aware placement picks the least-loaded
    /// resident. `0` disables replication.
    pub replicate_hot_after: u64,
}

impl Default for FleetTierConfig {
    fn default() -> Self {
        Self { interconnect: InterconnectConfig::wafer_ring(), replicate_hot_after: 3 }
    }
}

/// A scheduled drain: from arrival index `after_arrivals` of the
/// globally sorted trace on, node `node` takes no new placements, and
/// affinity traffic that would have gone there re-homes to the
/// least-loaded node **with its shard's chunk records migrated along**,
/// so the drained node's warm state follows the load instead of
/// stranding. Inert on single-node fleets (nowhere else to place).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainPlan {
    /// The node to drain.
    pub node: usize,
    /// Arrival index at which the drain begins (`0` = from the start).
    pub after_arrivals: usize,
}

impl RouterConfig {
    /// `n_nodes` identical nodes under `policy`.
    ///
    /// A configured [`cache_file`](ServeConfig::cache_file) is made
    /// **per-node** (`<path>.node<k>`): each node owns its own cache
    /// manager, so sharing one image path would have the last node to
    /// finish silently overwrite every other node's warm state.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero.
    #[must_use]
    pub fn homogeneous(node: ServeConfig, n_nodes: usize, policy: RoutePolicy) -> Self {
        assert!(n_nodes > 0, "a fleet needs at least one node");
        let nodes = (0..n_nodes)
            .map(|k| {
                let mut node = node.clone();
                if let Some(path) = &node.cache_file {
                    let mut file = path.as_os_str().to_os_string();
                    file.push(format!(".node{k}"));
                    node.cache_file = Some(file.into());
                }
                node
            })
            .collect();
        Self { nodes, policy, tier: None, drain: None }
    }
}

/// The result of one routed fleet run.
#[derive(Debug)]
pub struct RouterReport {
    /// The placement policy that produced this report.
    pub policy: RoutePolicy,
    /// One routing decision per arrival, in arrival order — the
    /// determinism fingerprint (equal seeds ⇒ equal decision logs).
    pub decisions: Vec<RouteDecision>,
    /// Per-node serve reports, in node order. Nodes that received no
    /// requests report zero completions.
    pub node_reports: Vec<ServeReport>,
    /// The fleet-level digest.
    pub summary: RouterSummary,
}

impl RouterReport {
    /// All completions across the fleet, sorted by request id.
    #[must_use]
    pub fn completions_by_id(&self) -> Vec<&Completion> {
        let mut out: Vec<&Completion> =
            self.node_reports.iter().flat_map(|r| r.completions.iter()).collect();
        out.sort_by_key(|c| c.id);
        out
    }

    /// The node each request was placed on, indexed by request id.
    #[must_use]
    pub fn placement(&self) -> HashMap<usize, usize> {
        self.decisions.iter().map(|d| (d.id, d.node)).collect()
    }
}

/// Replays `arrivals` through an N-node fleet under `config.policy`,
/// every node serving under `mode`.
///
/// # Panics
///
/// Panics if `arrivals` or `config.nodes` is empty, or any node's engine
/// configuration is invalid.
#[must_use]
pub fn route(
    config: &RouterConfig,
    arrivals: &[RequestArrival],
    mode: ScheduleMode,
) -> RouterReport {
    route_traced(config, arrivals, mode, &Tracer::disabled())
}

/// [`route`] with telemetry: node `k` records onto its `k`-owned serve,
/// engine, cache and quant tracks of `tracer`, and the router itself
/// records one `router.route` span bracketing the arrival replay, a
/// `router.place` instant plus a per-reason counter per decision. With a
/// disabled tracer this **is** [`route`]; either way the report is
/// byte-identical — tracing is a pure side channel (property-tested in
/// `tests/`).
///
/// # Panics
///
/// Panics if `arrivals` or `config.nodes` is empty, or any node's engine
/// configuration is invalid.
#[must_use]
pub fn route_traced(
    config: &RouterConfig,
    arrivals: &[RequestArrival],
    mode: ScheduleMode,
    tracer: &Tracer,
) -> RouterReport {
    assert!(!arrivals.is_empty(), "at least one request required");
    assert!(!config.nodes.is_empty(), "at least one node required");
    // Each node saves its own cache image at finish; two nodes sharing
    // one path would overwrite each other, destroying warm state.
    for (i, a) in config.nodes.iter().enumerate() {
        for b in &config.nodes[i + 1..] {
            assert!(
                a.cache_file.is_none() || a.cache_file != b.cache_file,
                "two nodes share cache file {:?}; give each node its own path \
                 (RouterConfig::homogeneous derives <path>.node<k> automatically)",
                a.cache_file
            );
        }
    }
    let n = config.nodes.len();
    let mut nodes: Vec<Node> = config.nodes.iter().map(|c| Node::new(c, mode)).collect();
    for (k, node) in nodes.iter_mut().enumerate() {
        node.set_tracer(tracer.clone(), k as u32);
    }
    // The shard-key granularity must match what the nodes' cache
    // managers index, or affinity would cluster on boundaries no node
    // shares chunks at — so an affinity fleet must agree on it.
    let chunk_tokens = config.nodes[0].kv_chunk_tokens.max(1);
    if config.policy == RoutePolicy::Affinity {
        for (k, node) in config.nodes.iter().enumerate() {
            assert!(
                node.kv_chunk_tokens.max(1) == chunk_tokens,
                "affinity routing needs one chunk granularity fleet-wide: node {k} indexes \
                 {}-token chunks but the shard key hashes {}-token chunks",
                node.kv_chunk_tokens.max(1),
                chunk_tokens
            );
        }
    }

    let mut sorted: Vec<&RequestArrival> = arrivals.iter().collect();
    sorted.sort_by_key(|r| (r.arrival_cycle, r.id));

    let mut session_home: HashMap<u64, usize> = HashMap::new();
    let mut prefix_home: HashMap<u64, usize> = HashMap::new();
    // Fleet-tier state: per-shard placement counts (the heat signal),
    // established replicas, and the transfer ledger. Every keyed walk
    // below is over owned Vec data — never hash-map iteration order.
    let mut shard_routed: HashMap<u64, u64> = HashMap::new();
    let mut shard_replicas: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut ledger = TransferLedger::default();
    let fetch_chunks = if config.tier.is_some() { FETCH_CHUNKS } else { usize::MAX };
    let replicate_after = config.tier.as_ref().map_or(0, |t| t.replicate_hot_after);
    let mut decisions: Vec<RouteDecision> = Vec::with_capacity(sorted.len());

    // Buffered so the bracketing span's Begin precedes every placement
    // instant in stream order (sorted arrivals keep clocks monotone).
    let mut router_ctx = tracer.ctx(trace_track::id(trace_track::ROUTER, 0, 0));
    router_ctx.begin_timed("router.route", Cycle(sorted[0].arrival_cycle));

    for (i, spec) in sorted.iter().enumerate() {
        let now = Cycle(spec.arrival_cycle);
        for node in &mut nodes {
            node.advance_to(now);
        }
        // A draining node takes no new placements once its plan fires.
        // Inert on a single-node fleet — there is nowhere else to place.
        let drained = config
            .drain
            .as_ref()
            .filter(|p| n > 1 && p.node < n && i >= p.after_arrivals)
            .map(|p| p.node);
        // Deterministic least-loaded: fewest in system, lowest id wins
        // ties. The argmin is over a Vec walk, never hash-map order.
        let least_loaded = (0..n)
            .filter(|&k| Some(k) != drained)
            .min_by_key(|&k| (nodes[k].in_system(), k))
            .expect("fleet has at least one undrained node");
        // Shard-key hashing and home-map bookkeeping live entirely in
        // the affinity arm: the cache-blind baselines never read them,
        // and their timed route loop must not pay for them either.
        let (target, reason) = match config.policy {
            RoutePolicy::RoundRobin => {
                let t = i % n;
                (if Some(t) == drained { least_loaded } else { t }, RouteReason::RoundRobin)
            }
            RoutePolicy::LeastLoaded => (least_loaded, RouteReason::LeastLoaded),
            RoutePolicy::Affinity => {
                let shard_key = spec
                    .prompt
                    .as_ref()
                    .and_then(|p| prefix_shard_key(p.ids(), chunk_tokens, AFFINITY_CHUNKS));
                let (mut target, mut reason) = if let Some(&home) = session_home.get(&spec.session)
                {
                    (home, RouteReason::SessionAffinity)
                } else if let Some(&home) = shard_key.and_then(|k| prefix_home.get(&k)) {
                    // Residency-aware placement: the home and every
                    // established replica hold the shard's chunks, so
                    // the least-loaded resident takes the request.
                    let mut residents = vec![home];
                    if let Some(replicas) = shard_key.and_then(|k| shard_replicas.get(&k)) {
                        residents.extend(replicas.iter().copied());
                    }
                    match residents
                        .into_iter()
                        .filter(|&k| Some(k) != drained)
                        .min_by_key(|&k| (nodes[k].in_system(), k))
                    {
                        Some(resident) => (resident, RouteReason::PrefixAffinity),
                        None => (least_loaded, RouteReason::LeastLoaded),
                    }
                } else {
                    (least_loaded, RouteReason::LeastLoaded)
                };
                if Some(target) == drained {
                    // Load-following migration: this traffic re-homes to
                    // the least-loaded node, and the drained node's
                    // records for its prefix move along with it, so the
                    // affinity hit survives the drain.
                    let dst = least_loaded;
                    if let Some(p) = &spec.prompt {
                        let records = nodes[target].export_prefix_records(p.ids(), fetch_chunks);
                        if !records.is_empty() {
                            // The push pays wire cost for the full batch
                            // either way; the importer dedups receiver-side
                            // (records it already holds adopt as no-ops).
                            nodes[dst].import_chunk_records(&records);
                            ledger.charge(config.tier.as_ref(), n, target, dst, &records);
                            ledger.migrations += 1;
                            router_ctx.instant("router.migrate", now);
                            router_ctx.count("router.migrations", now, 1);
                        }
                    }
                    if let Some(key) = shard_key {
                        prefix_home.insert(key, dst);
                    }
                    target = dst;
                    reason = RouteReason::LeastLoaded;
                }
                session_home.insert(spec.session, target);
                if let Some(key) = shard_key {
                    // First claim wins: the node that first decomposes a
                    // shard's chunks stays its home even if later load
                    // pulls sessions elsewhere — moving the shard would
                    // strand the planes.
                    prefix_home.entry(key).or_insert(target);
                }
                if replicate_after > 0 {
                    if let (Some(key), Some(p)) = (shard_key, &spec.prompt) {
                        let routed = shard_routed.entry(key).or_insert(0);
                        *routed += 1;
                        let home = *prefix_home.get(&key).expect("claimed above");
                        let replicated = shard_replicas.get(&key).is_some_and(|r| !r.is_empty());
                        // Hot once its placements cross the threshold AND
                        // the home shows proven hits (a shard nobody
                        // re-uses is traffic, not heat). Retries until
                        // the export lands — the home may not have sealed
                        // the chunks at the first qualifying arrival.
                        if *routed >= replicate_after
                            && !replicated
                            && Some(home) != drained
                            && nodes[home].cache_stats().hit_tokens > 0
                        {
                            let dst = (0..n)
                                .filter(|&k| k != home && Some(k) != drained)
                                .min_by_key(|&k| (nodes[k].in_system(), k));
                            if let Some(dst) = dst {
                                let records =
                                    nodes[home].export_prefix_records(p.ids(), fetch_chunks);
                                if !records.is_empty() {
                                    // After the push the destination
                                    // provably holds the shard (imported
                                    // or already ingested) — either way
                                    // it is now a resident.
                                    nodes[dst].import_chunk_records(&records);
                                    shard_replicas.entry(key).or_default().push(dst);
                                    ledger.charge(config.tier.as_ref(), n, home, dst, &records);
                                    ledger.replications += 1;
                                    router_ctx.instant("router.replicate", now);
                                    router_ctx.count("router.replications", now, 1);
                                }
                            }
                        }
                    }
                }
                (target, reason)
            }
        };
        nodes[target].enqueue(spec);
        router_ctx.instant("router.place", now);
        // The first hop of the request's causality chain: the flight
        // recorder joins it to the node-side admit→retire hops.
        router_ctx.link(hop::PLACE, now, spec.id as u64, target as u64);
        router_ctx.count(reason_counter(reason), now, 1);
        decisions.push(RouteDecision { id: spec.id, session: spec.session, node: target, reason });
    }
    router_ctx.end(Cycle(sorted.last().expect("non-empty").arrival_cycle));
    drop(router_ctx);

    let node_reports: Vec<ServeReport> = nodes
        .into_iter()
        .map(|mut node| {
            node.drain();
            node.finish()
        })
        .collect();
    let mut summary = merge_node_reports(&node_reports, &decisions);
    // The merge pools node-local counters; transfers are a router-level
    // phenomenon booked here from the ledger.
    summary.peer_fetches = ledger.peer_fetches;
    summary.replications = ledger.replications;
    summary.migrations = ledger.migrations;
    summary.transfer_bytes = ledger.bytes;
    summary.transfer_cycles = ledger.cycles;
    summary.transfer_pj = ledger.pj;
    RouterReport { policy: config.policy, decisions, node_reports, summary }
}

/// Running totals of inter-node chunk-record transfers, costed against
/// the fleet interconnect model. Pure accounting: node clocks never
/// include these cycles, so outputs stay byte-identical.
#[derive(Debug, Default)]
struct TransferLedger {
    peer_fetches: u64,
    replications: u64,
    migrations: u64,
    bytes: u64,
    cycles: u64,
    pj: f64,
}

impl TransferLedger {
    /// Books one record batch moved `src → dst` on an `n`-node fabric.
    /// Interconnect cost (hop latency + link serialization, per-hop
    /// energy) is modeled only when a fleet tier configuration is
    /// present; the byte total is booked either way.
    fn charge(
        &mut self,
        tier: Option<&FleetTierConfig>,
        n: usize,
        src: usize,
        dst: usize,
        records: &[ChunkRecord],
    ) {
        let bytes = records_bytes(records);
        self.peer_fetches += 1;
        self.bytes += bytes;
        if let Some(tier) = tier {
            let ic = &tier.interconnect;
            let hops = transfer_hops(ic.topology, n, src, dst);
            self.cycles +=
                hops * ic.hop_latency_cycles + bytes.div_ceil(ic.link_bytes_per_cycle.max(1));
            self.pj += bytes as f64 * ic.pj_per_byte * hops as f64;
        }
    }
}

/// Hop count between `src` and `dst` on an `n`-node fabric (minimum 1 —
/// any transfer crosses at least one link in this model).
fn transfer_hops(topology: Topology, n: usize, src: usize, dst: usize) -> u64 {
    let hops = match topology {
        Topology::Ring => {
            let d = src.abs_diff(dst);
            d.min(n - d)
        }
        Topology::Mesh2D => {
            let side = (n as f64).sqrt().ceil().max(1.0) as usize;
            (src / side).abs_diff(dst / side) + (src % side).abs_diff(dst % side)
        }
    };
    hops.max(1) as u64
}

/// Wire size of a record batch: plane-word payload plus token ids plus
/// a fixed per-record framing overhead (key, parent, shape).
fn records_bytes(records: &[ChunkRecord]) -> u64 {
    records.iter().map(|r| r.plane_bytes() + r.ids.len() as u64 * 4 + 64).sum()
}

/// Counter name for a placement reason (static, for the trace registry).
fn reason_counter(reason: RouteReason) -> &'static str {
    match reason {
        RouteReason::SessionAffinity => "router.place_session_affinity",
        RouteReason::PrefixAffinity => "router.place_prefix_affinity",
        RouteReason::LeastLoaded => "router.place_least_loaded",
        RouteReason::RoundRobin => "router.place_round_robin",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pade_workload::prompt::{generate_multi_tenant_arrivals, MultiTenantConfig};

    fn workload() -> Vec<RequestArrival> {
        generate_multi_tenant_arrivals(&MultiTenantConfig::small_demo())
    }

    fn fleet(n: usize, policy: RoutePolicy) -> RouterConfig {
        RouterConfig::homogeneous(
            ServeConfig { kv_chunk_tokens: 32, ..ServeConfig::standard() },
            n,
            policy,
        )
    }

    #[test]
    fn every_request_completes_exactly_once_across_the_fleet() {
        let arrivals = workload();
        for policy in [RoutePolicy::Affinity, RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded] {
            let report = route(&fleet(3, policy), &arrivals, ScheduleMode::Batched);
            let ids: Vec<usize> = report.completions_by_id().iter().map(|c| c.id).collect();
            assert_eq!(ids, (0..arrivals.len()).collect::<Vec<_>>(), "{}", policy.label());
            assert_eq!(report.decisions.len(), arrivals.len());
            assert_eq!(report.summary.tokens, report.summary.node_tokens.iter().sum::<u64>());
        }
    }

    #[test]
    fn round_robin_rotates_and_affinity_keeps_sessions_home() {
        let arrivals = workload();
        let rr = route(&fleet(3, RoutePolicy::RoundRobin), &arrivals, ScheduleMode::Batched);
        for (i, d) in rr.decisions.iter().enumerate() {
            assert_eq!(d.node, i % 3);
        }
        let aff = route(&fleet(3, RoutePolicy::Affinity), &arrivals, ScheduleMode::Batched);
        // All turns of one session land on one node.
        let mut home: HashMap<u64, usize> = HashMap::new();
        for d in &aff.decisions {
            assert_eq!(*home.entry(d.session).or_insert(d.node), d.node);
        }
        // The multi-turn workload must exercise session affinity.
        assert!(aff.summary.session_affinity_routes > 0);
    }

    #[test]
    fn affinity_outhits_round_robin_at_two_nodes() {
        let arrivals = workload();
        let aff = route(&fleet(2, RoutePolicy::Affinity), &arrivals, ScheduleMode::Batched);
        let rr = route(&fleet(2, RoutePolicy::RoundRobin), &arrivals, ScheduleMode::Batched);
        assert!(
            aff.summary.cache_hit_tokens >= rr.summary.cache_hit_tokens,
            "affinity {} vs round-robin {} hit tokens",
            aff.summary.cache_hit_tokens,
            rr.summary.cache_hit_tokens
        );
        assert!(aff.summary.cache_decomposed_tokens <= rr.summary.cache_decomposed_tokens);
    }

    #[test]
    fn homogeneous_fleets_get_per_node_cache_files() {
        let node = ServeConfig {
            cache_file: Some(std::path::PathBuf::from("/tmp/fleet.bin")),
            ..ServeConfig::standard()
        };
        let fleet = RouterConfig::homogeneous(node, 3, RoutePolicy::Affinity);
        let files: Vec<String> = fleet
            .nodes
            .iter()
            .map(|n| n.cache_file.as_ref().unwrap().display().to_string())
            .collect();
        assert_eq!(files, ["/tmp/fleet.bin.node0", "/tmp/fleet.bin.node1", "/tmp/fleet.bin.node2"]);
        // Without a cache file nothing is invented.
        let plain = RouterConfig::homogeneous(ServeConfig::standard(), 2, RoutePolicy::Affinity);
        assert!(plain.nodes.iter().all(|n| n.cache_file.is_none()));
    }

    #[test]
    #[should_panic(expected = "share cache file")]
    fn shared_cache_file_across_nodes_is_rejected() {
        let node = ServeConfig {
            cache_file: Some(std::path::PathBuf::from("/tmp/clobber.bin")),
            ..ServeConfig::standard()
        };
        let fleet = RouterConfig {
            nodes: vec![node.clone(), node],
            policy: RoutePolicy::Affinity,
            tier: None,
            drain: None,
        };
        let _ = route(&fleet, &workload(), ScheduleMode::Batched);
    }

    /// Shared-prefix traffic with inter-arrival gaps long enough that
    /// nodes finish turns between arrivals — so cache hits (the
    /// replication heat signal) accrue mid-trace, not only at drain.
    fn spread_workload() -> Vec<RequestArrival> {
        use pade_workload::prompt::{generate_shared_prefix_arrivals, SharedPrefixConfig};
        generate_shared_prefix_arrivals(&SharedPrefixConfig {
            n_sessions: 6,
            turns_per_session: 3,
            pool_size: 2,
            shared_prefix_tokens: 64,
            unique_suffix_tokens: 8,
            turn_suffix_tokens: 8,
            decode_steps: 2,
            mean_interarrival_cycles: 50_000.0,
            turn_gap_cycles: 500_000,
            ..SharedPrefixConfig::small_demo()
        })
    }

    #[test]
    fn affinity_hits_survive_a_node_drain() {
        let arrivals = spread_workload();
        let base = fleet(2, RoutePolicy::Affinity);
        let undrained = route(&base, &arrivals, ScheduleMode::Batched);
        // Drain the node the trace warmed first, mid-trace.
        let hot = undrained.decisions[0].node;
        let cut = arrivals.len() / 2;
        let cfg = RouterConfig {
            tier: Some(FleetTierConfig::default()),
            drain: Some(DrainPlan { node: hot, after_arrivals: cut }),
            ..base
        };
        let drained = route(&cfg, &arrivals, ScheduleMode::Batched);
        // The drained node takes nothing after the cut, and the warm
        // state moved rather than stranded.
        for d in &drained.decisions[cut..] {
            assert_ne!(d.node, hot, "placement on the drained node");
        }
        assert!(drained.summary.migrations >= 1, "drain must migrate the hot shard");
        assert!(drained.summary.transfer_bytes > 0);
        assert!(drained.summary.transfer_cycles > 0);
        // Affinity hit levels survive: migrated records keep serving
        // prefix hits on the new home.
        assert!(
            2 * drained.summary.cache_hit_tokens >= undrained.summary.cache_hit_tokens,
            "hits collapsed under drain: {} vs {} undrained",
            drained.summary.cache_hit_tokens,
            undrained.summary.cache_hit_tokens
        );
        // Placement never changes outputs — drained or not.
        for (a, b) in drained.completions_by_id().iter().zip(undrained.completions_by_id()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.results, b.results, "request {} output changed under drain", a.id);
        }
    }

    #[test]
    fn outputs_stay_byte_identical_mid_migration_at_every_node_count() {
        let arrivals = spread_workload();
        let solo = route(&fleet(1, RoutePolicy::Affinity), &arrivals, ScheduleMode::Batched);
        for n in [1usize, 2, 4] {
            let cfg = RouterConfig {
                tier: Some(FleetTierConfig::default()),
                drain: Some(DrainPlan { node: 0, after_arrivals: arrivals.len() / 2 }),
                ..fleet(n, RoutePolicy::Affinity)
            };
            let report = route(&cfg, &arrivals, ScheduleMode::Batched);
            let ids: Vec<usize> = report.completions_by_id().iter().map(|c| c.id).collect();
            assert_eq!(ids, (0..arrivals.len()).collect::<Vec<_>>(), "n={n}");
            for (a, b) in report.completions_by_id().iter().zip(solo.completions_by_id()) {
                assert_eq!(a.results, b.results, "request {} differs at n={n}", a.id);
            }
            if n > 1 {
                for d in &report.decisions[arrivals.len() / 2..] {
                    assert_ne!(d.node, 0, "placement on the drained node at n={n}");
                }
            } else {
                // A one-node fleet has nowhere to drain to: inert.
                assert_eq!(report.summary.migrations, 0);
            }
        }
    }

    #[test]
    fn hot_shards_earn_replicas_and_outputs_do_not_change() {
        let arrivals = spread_workload();
        let base = fleet(3, RoutePolicy::Affinity);
        let plain = route(&base, &arrivals, ScheduleMode::Batched);
        let cfg = RouterConfig {
            tier: Some(FleetTierConfig { replicate_hot_after: 2, ..FleetTierConfig::default() }),
            ..base
        };
        let report = route(&cfg, &arrivals, ScheduleMode::Batched);
        assert!(report.summary.replications >= 1, "the shared prefix pool must run hot");
        assert!(report.summary.peer_fetches >= report.summary.replications);
        assert!(report.summary.transfer_bytes > 0);
        assert!(report.summary.transfer_pj > 0.0);
        // Replication spreads placements without changing any output.
        for (a, b) in report.completions_by_id().iter().zip(plain.completions_by_id()) {
            assert_eq!(a.results, b.results, "request {} output changed", a.id);
        }
        // Determinism: the same configuration replays identically.
        let again = route(&cfg, &arrivals, ScheduleMode::Batched);
        assert_eq!(report.decisions, again.decisions);
        assert_eq!(report.summary.replications, again.summary.replications);
        assert_eq!(report.summary.transfer_bytes, again.summary.transfer_bytes);
    }

    #[test]
    fn transfer_hops_follow_the_topology() {
        assert_eq!(transfer_hops(Topology::Ring, 4, 0, 3), 1, "ring wraps");
        assert_eq!(transfer_hops(Topology::Ring, 4, 0, 2), 2);
        assert_eq!(transfer_hops(Topology::Ring, 2, 0, 1), 1);
        assert_eq!(transfer_hops(Topology::Mesh2D, 4, 0, 3), 2, "manhattan on a 2x2 grid");
        assert_eq!(transfer_hops(Topology::Mesh2D, 4, 0, 1), 1);
        // Degenerate same-node transfer still crosses one link.
        assert_eq!(transfer_hops(Topology::Ring, 4, 1, 1), 1);
    }

    #[test]
    fn single_node_fleet_matches_plain_serve() {
        let arrivals = workload();
        let config = ServeConfig { kv_chunk_tokens: 32, ..ServeConfig::standard() };
        let solo = pade_serve::server::serve(&config, &arrivals, ScheduleMode::Batched);
        for policy in [RoutePolicy::Affinity, RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded] {
            let fleet = route(
                &RouterConfig::homogeneous(config.clone(), 1, policy),
                &arrivals,
                ScheduleMode::Batched,
            );
            assert_eq!(fleet.node_reports.len(), 1);
            let node = &fleet.node_reports[0];
            assert_eq!(node.completion_order(), solo.completion_order(), "{}", policy.label());
            assert_eq!(node.summary, solo.summary, "{}", policy.label());
            for (a, b) in node.completions.iter().zip(&solo.completions) {
                assert_eq!(a, b);
            }
        }
    }
}
