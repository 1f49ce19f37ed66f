//! `pade-router` — sharded multi-node serving with prefix-affinity
//! routing over distributed KV plane caches.
//!
//! PR 4's `pade-cache` made decomposed bit-plane KV state shareable
//! across requests — but only inside one node. At fleet scale the planes
//! are *placed*: a request served by a node that already holds its
//! prompt's decomposed chunks skips KV prep entirely, while the same
//! request scattered to a cold node decomposes everything again. This
//! crate attacks exactly that placement problem:
//!
//! * [`Node`](pade_serve::node::Node) (extracted from `pade-serve`'s
//!   loop) — each worker owns its own scheduler, engine slots and
//!   [`KvCacheManager`](pade_cache::KvCacheManager), stepped in
//!   simulated lockstep cycles,
//! * [`route`] — one global clock: every arrival advances
//!   the fleet to its cycle, then lands on a node chosen by
//!   [`RoutePolicy`] — **affinity** (returning
//!   sessions go home; new sessions follow their prompt's
//!   [`prefix_shard_key`](pade_cache::prefix_shard_key) to the node that
//!   first ingested that shard; cold requests take deterministic
//!   least-loaded placement) against the **round-robin** and
//!   **least-loaded** cache-blind baselines,
//! * [`FleetTierConfig`] / [`DrainPlan`] — the warm state itself moves:
//!   hot shards replicate their content-addressed chunk records to a
//!   second node (placement then balances across residents), and a
//!   drained node's shards migrate to wherever its traffic re-homes,
//!   with every transfer costed against the `pade-dist` interconnect
//!   model (accounting only — outputs stay byte-identical),
//! * [`RouterSummary`] — per-node
//!   [`MetricsSummary`](pade_serve::metrics::MetricsSummary) digests
//!   merged exactly: pooled latency percentiles, fleet cache hit rates,
//!   per-node load imbalance,
//! * [`verify_partial_merge`] — reuses
//!   `pade-dist`'s mergeable `(m, l, O)` online-softmax states to prove
//!   the fleet's reduction step is bitwise-lossless: per query row, the
//!   owning node's state merged against every other node's neutral
//!   state reproduces the single-node result **byte for byte**, in any
//!   reduction order (placement and output correctness are pinned
//!   separately by byte-comparison against the single-node run).
//!
//! Placement is a scheduling decision, never a numerical one: per-request
//! outputs are byte-identical across every policy and node count, and
//! identical to the single-node seed-oracle run (property-tested in
//! `tests/`). What placement *does* change is who pays KV prep:
//! `tests/invariants.rs` checks that affinity beats round-robin on fleet
//! prefix-cache hits, and `BENCH_5.json` records the sweep that measured
//! it.
//!
//! # Example
//!
//! ```
//! use pade_router::{route, RouterConfig, RoutePolicy};
//! use pade_serve::scheduler::ScheduleMode;
//! use pade_serve::server::ServeConfig;
//! use pade_workload::prompt::{generate_multi_tenant_arrivals, MultiTenantConfig};
//!
//! let arrivals = generate_multi_tenant_arrivals(&MultiTenantConfig::small_demo());
//! let node = ServeConfig { kv_chunk_tokens: 32, ..ServeConfig::standard() };
//! let fleet = RouterConfig::homogeneous(node, 2, RoutePolicy::Affinity);
//! let report = route(&fleet, &arrivals, ScheduleMode::Batched);
//! assert_eq!(report.completions_by_id().len(), arrivals.len());
//! // Multi-turn sessions returned to their home node and hit its cache.
//! assert!(report.summary.session_affinity_routes > 0);
//! assert!(report.summary.cache_hit_tokens > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod merge;
pub mod metrics;
pub mod policy;
pub mod router;

pub use merge::verify_partial_merge;
pub use metrics::{merge_node_reports, RouterSummary};
pub use policy::{RouteDecision, RoutePolicy, RouteReason};
pub use router::{route, route_traced, DrainPlan, FleetTierConfig, RouterConfig, RouterReport};
