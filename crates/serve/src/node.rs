//! One serving node: the admission → batch → dispatch → retire loop of
//! [`serve`](crate::server::serve), reified as a stepwise state machine.
//!
//! A [`Node`] owns everything a single PADE device needs to serve
//! traffic — its engine slots, its FCFS (or hit-aware) admission queue,
//! its active sessions, its scheduling policy
//! ([`ServeConfig::policy`]: FCFS or SLO-aware preemptive), its own
//! [`KvCacheManager`] and its metric collectors — and exposes the loop
//! as three operations:
//!
//! * [`enqueue`](Node::enqueue) — hand the node a routed arrival,
//! * [`advance_to`](Node::advance_to) — run lockstep iterations until the
//!   node's clock reaches a target cycle (iterations are the lockstep
//!   quantum: one that starts before the target may overrun it),
//! * [`drain`](Node::drain) / [`finish`](Node::finish) — run to
//!   completion and close the books into a [`ServeReport`].
//!
//! The single-node [`serve`](crate::server::serve) entry point is now a
//! thin wrapper (enqueue everything, drain, finish); a multi-node router
//! (`pade-router`) instead interleaves `enqueue`/`advance_to` across N
//! nodes under a global clock, reading [`in_system`](Node::in_system)
//! for least-loaded placement. Either way every step is a pure function
//! of the enqueue sequence and the configuration — no wall clock, no
//! unordered iteration — so equal inputs give byte-identical outputs.
//!
//! **Hit-aware admission** ([`ServeConfig::hit_aware`]): when several
//! requests are ready at the same admission instant, FCFS order is a
//! scheduling choice, not a correctness constraint — each request's
//! outputs are placement-independent. With the flag set, ties among
//! simultaneously-ready requests break by predicted prefix-cache hit
//! tokens (probed **read-only** at the admission instant via
//! [`KvCacheManager::predicted_hit_tokens`]), so hit-heavy requests admit
//! first, adopt their shared chunks while those are hottest, and release
//! engine slots sooner. Outputs are byte-identical with the flag on or
//! off (property-tested in `tests/`); only completion *order* may change.
//!
//! **Warm cache files** ([`ServeConfig::cache_file`]): when set, the
//! node's cache manager is loaded from the file at creation (if it
//! exists) and saved back at [`finish`](Node::finish), so a later serve
//! run starts with the prefix index and session store this run built.
//! A file that fails to load starts the node cold, with the fault
//! counted, and the save at the end of the run replaces it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

use pade_cache::{CacheConfig, KvCacheManager};
use pade_sim::{Cycle, Frequency};
use pade_trace::{flight::hop, track as trace_track, Tracer};
use pade_workload::trace::{RequestArrival, RequestKind};

use crate::metrics::ServeMetrics;
use crate::scheduler::{form_batch, ScheduleMode, SchedulerLimits};
use crate::server::{Completion, ServeConfig, ServeReport};
use crate::session::Session;

/// What one lockstep step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Dispatched a batch; the clock advanced by the slowest block.
    Ran,
    /// No active work: jumped the clock to the next queued arrival.
    Jumped,
    /// No active and no queued work: the node is fully drained.
    Exhausted,
}

/// Native per-request flight accounting, accumulated from admission to
/// retirement. Kept independent of the tracer — the flight digest in
/// [`MetricsSummary`](crate::metrics::MetricsSummary) must be identical
/// with tracing on or off — while the link events emitted
/// alongside carry the same numbers into the trace for
/// `pade_trace::flight::assemble_timelines`.
#[derive(Debug, Default, Clone, Copy)]
struct FlightAccum {
    /// Cycles between arrival and admission.
    queue_cycles: u64,
    /// Engine cycles of the request's prefill dispatches.
    prefill_cycles: u64,
    /// Engine cycles of the request's decode dispatches.
    decode_cycles: u64,
    /// Cycles spent parked over completed preempt→resume intervals.
    preempted_cycles: u64,
    /// Set while the session is parked by the scheduler.
    parked_since: Option<Cycle>,
    /// Base track of the engine dispatch that ran the request's current
    /// tile — where the `req.dispatch` links of its later slices point.
    tile_dispatch: u64,
}

/// One serving node — scheduler, engine slots, KV cache manager and
/// metrics — stepped in simulated lockstep cycles.
#[derive(Debug)]
pub struct Node {
    config: ServeConfig,
    mode: ScheduleMode,
    limits: SchedulerLimits,
    /// Created lazily at the first prompt-carrying enqueue (the manager's
    /// chunk shape comes from that request's head_dim), warm-loaded from
    /// [`ServeConfig::cache_file`] when the file exists.
    cache_manager: Option<KvCacheManager>,
    /// Routed arrivals not yet admitted, in `(arrival_cycle, id)` order.
    pending: VecDeque<RequestArrival>,
    active: Vec<Session>,
    completions: Vec<Completion>,
    metrics: ServeMetrics,
    now: Cycle,
    /// Telemetry sink; [`Tracer::disabled`] by default. A pure side
    /// channel: every simulated outcome is byte-identical with tracing
    /// on or off.
    tracer: Tracer,
    /// Owner id stamped into every track this node emits (one node per
    /// id — the multi-node router assigns them).
    node_id: u32,
    /// Engine dispatch units handed out so far; each dispatched block
    /// (plus the batch dispatcher) claims [`trace_track::DISPATCH_STRIDE`]
    /// consecutive track ids, so worker-thread emission lands on
    /// caller-assigned, index-keyed tracks.
    dispatch_units: u32,
    /// Sessions admitted so far — keys per-session quant tracks.
    session_seq: u32,
    /// Request ids dispatched in the previous iteration's batch — the
    /// baseline for preempt/resume detection: a previously-running
    /// session left out of this iteration's batch was preempted at a
    /// chunk/step boundary; a chosen session with progress that did not
    /// run last iteration resumed.
    ran_last: Vec<usize>,
    /// In-flight requests' native cycle accounting, keyed by request id;
    /// folded into [`ServeMetrics::flight`] at retirement.
    flight: BTreeMap<usize, FlightAccum>,
}

impl Node {
    /// A fresh node for `config`, serving under `mode`. A
    /// [`ScheduleMode::Solo`] node is a one-slot batched node.
    ///
    /// # Panics
    ///
    /// Panics if the engine configuration is invalid.
    #[must_use]
    pub fn new(config: &ServeConfig, mode: ScheduleMode) -> Self {
        config.engine.validate();
        let engine_slots = match mode {
            ScheduleMode::Batched => config.engine_slots.max(1),
            ScheduleMode::Solo => 1,
        };
        let limits = SchedulerLimits { engine_slots, max_batch_tokens: config.max_batch_tokens };
        Self {
            config: config.clone(),
            mode,
            limits,
            cache_manager: None,
            pending: VecDeque::new(),
            active: Vec::new(),
            completions: Vec::new(),
            metrics: ServeMetrics::new(),
            now: Cycle::ZERO,
            tracer: Tracer::disabled(),
            node_id: 0,
            dispatch_units: 0,
            session_seq: 0,
            ran_last: Vec::new(),
            flight: BTreeMap::new(),
        }
    }

    /// Binds this node's telemetry: every subsequent step records spans,
    /// instants and gauges onto `node_id`-owned tracks of `tracer`
    /// (serve, engine, cache and quant layers). Simulated outcomes are
    /// unaffected.
    pub fn set_tracer(&mut self, tracer: Tracer, node_id: u32) {
        self.tracer = tracer;
        self.node_id = node_id;
        if let Some(manager) = self.cache_manager.as_mut() {
            manager
                .set_tracer(self.tracer.clone(), trace_track::id(trace_track::CACHE, node_id, 0));
        }
    }

    /// The node's own serve-layer track.
    fn node_track(&self) -> u64 {
        trace_track::id(trace_track::SERVE, self.node_id, 0)
    }

    /// The node's simulated clock.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Requests in the system — queued for admission or actively being
    /// served. The load signal a least-loaded router reads at routing
    /// time.
    #[must_use]
    pub fn in_system(&self) -> usize {
        self.pending.len() + self.active.len()
    }

    /// Requests completed so far.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completions.len()
    }

    /// Whether the node has neither queued nor active work.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.active.is_empty()
    }

    /// The node's cache manager, if the workload has engaged it.
    #[must_use]
    pub fn cache_manager(&self) -> Option<&KvCacheManager> {
        self.cache_manager.as_ref()
    }

    /// The node's live cache counters (zeroes before the manager
    /// engages) — the hit/spill/fetch signal a router's replication and
    /// migration policies read mid-run.
    #[must_use]
    pub fn cache_stats(&self) -> pade_cache::CacheStats {
        self.cache_manager.as_ref().map(|m| *m.stats()).unwrap_or_default()
    }

    /// Exports the content-addressed chunk records covering the longest
    /// prefix of `ids` this node can produce (resident or spilled), up
    /// to `max_chunks` — the payload of a peer shard fetch or a
    /// migration. Empty when the manager has not engaged. A failed tier
    /// read ends the export and counts in
    /// [`CacheStats::tier_faults`](pade_cache::CacheStats::tier_faults).
    #[must_use]
    pub fn export_prefix_records(
        &mut self,
        ids: &[u32],
        max_chunks: usize,
    ) -> Vec<pade_cache::ChunkRecord> {
        self.cache_manager
            .as_mut()
            .map(|m| m.export_prefix_path(ids, max_chunks))
            .unwrap_or_default()
    }

    /// Adopts peer-exported chunk records into this node's index (each
    /// re-validated against its content address), returning how many
    /// were newly adopted. A cache-enabled node whose manager has not
    /// engaged yet engages it from the records' plane shape (so a
    /// replica can land on a node before its first request); records
    /// whose bit width disagrees with the engine, or any records on a
    /// cache-disabled node, adopt nothing.
    pub fn import_chunk_records(&mut self, records: &[pade_cache::ChunkRecord]) -> usize {
        if self.cache_manager.is_none() {
            match records.first() {
                Some(first) if first.planes.bits() == self.config.engine.bits => {
                    self.ensure_manager(first.planes.dims());
                }
                _ => return 0,
            }
        }
        self.cache_manager.as_mut().map_or(0, |m| m.import_chunk_records(records))
    }

    /// Bitwise fingerprints of every active session's resident key
    /// planes, as `(request id, resident key tokens, planes)` in
    /// admission order — determinism-suite introspection
    /// ([`Session::key_planes`]): the preemption property tests use it to
    /// prove parked planes resume bitwise-intact.
    #[must_use]
    pub fn active_key_planes(&self) -> Vec<(usize, usize, pade_quant::BitPlaneMatrix)> {
        self.active
            .iter()
            .filter_map(|s| Some((s.spec().id, s.cached_key_tokens(), s.key_planes()?)))
            .collect()
    }

    /// Hands the node a routed arrival. Arrivals may be enqueued in any
    /// order; the queue keeps `(arrival_cycle, id)` order internally.
    ///
    /// When the configuration carries a prefix cache and the request a
    /// prompt, the first such enqueue creates the node's manager (warm
    /// from [`ServeConfig::cache_file`] if the file loads, cold with a
    /// counted tier fault if it exists but does not).
    ///
    /// # Panics
    ///
    /// Panics if the manager cannot be created for the request's shape,
    /// or the configured spill tier cannot be built.
    pub fn enqueue(&mut self, spec: &RequestArrival) {
        if self.cache_manager.is_none() && spec.prompt.is_some() {
            self.ensure_manager(spec.trace.head_dim);
        }
        // Insert keeping (arrival_cycle, id) order; the common cases —
        // pre-sorted bulk enqueue and router-time-ordered delivery —
        // append at the back.
        let key = (spec.arrival_cycle, spec.id);
        let at =
            self.pending.iter().rposition(|q| (q.arrival_cycle, q.id) <= key).map_or(0, |i| i + 1);
        self.pending.insert(at, spec.clone());
    }

    /// Engages the node's cache manager for `dims`-lane key rows if the
    /// configuration carries a prefix cache and no manager exists yet:
    /// warm-loaded from [`ServeConfig::cache_file`] when the file
    /// exists, with the configured spill tier installed. A file that
    /// fails to load (corrupt, shape-mismatched or an older version)
    /// starts the manager cold, with one stderr line naming the file and
    /// the error and the fault counted in
    /// [`CacheStats::tier_faults`](pade_cache::CacheStats::tier_faults).
    /// A no-op when the prefix cache is disabled or the manager already
    /// engaged.
    ///
    /// # Panics
    ///
    /// Panics if the configured spill tier cannot be built.
    fn ensure_manager(&mut self, dims: usize) {
        if self.cache_manager.is_some() {
            return;
        }
        let Some(budget) = self.config.prefix_cache else { return };
        let cache_config =
            CacheConfig::new(dims, self.config.engine.bits, self.config.kv_chunk_tokens.max(1))
                .with_budget(budget);
        let cold = || {
            KvCacheManager::new(cache_config)
                .expect("the serve engine configuration is a valid cache shape")
        };
        let mut manager = match &self.config.cache_file {
            Some(path) if path.exists() => KvCacheManager::load_from(path, cache_config)
                .unwrap_or_else(|e| {
                    eprintln!("cache file {}: {e}; starting cold", path.display());
                    let mut manager = cold();
                    manager.count_tier_fault();
                    manager
                }),
            _ => cold(),
        };
        if let Some(tier) = &self.config.tier {
            let store = tier
                .build()
                .unwrap_or_else(|e| panic!("failed to build the configured spill tier: {e}"));
            manager.set_tier(Some(store));
        }
        manager
            .set_tracer(self.tracer.clone(), trace_track::id(trace_track::CACHE, self.node_id, 0));
        self.cache_manager = Some(manager);
    }

    /// Admits every queued request whose arrival time has passed. FCFS by
    /// `(arrival_cycle, id)`; under [`ServeConfig::hit_aware`] the
    /// simultaneously-ready set reorders by predicted hit tokens first
    /// (descending), so hit-heavy requests take engine slots before
    /// cold ones that arrived earlier within the same ready window. The
    /// prediction is probed **read-only at the admission instant** —
    /// against the index state chunks decomposed earlier in this very
    /// run have already reached — never at enqueue, where a cold-start
    /// queue would predict zero for everyone and the tie-break would
    /// silently degenerate to FCFS.
    fn admit_ready(&mut self) {
        let mut ready: Vec<RequestArrival> = Vec::new();
        while self.pending.front().is_some_and(|q| q.arrival_cycle <= self.now.0) {
            ready.push(self.pending.pop_front().expect("front checked"));
        }
        if self.config.hit_aware {
            if let Some(manager) = &self.cache_manager {
                // Cached keys: one index probe per request, not one per
                // comparison.
                ready.sort_by_cached_key(|q| {
                    let predicted = q
                        .prompt
                        .as_ref()
                        .map_or(0, |p| manager.predicted_hit_tokens(q.session, p.ids()));
                    (Reverse(predicted), q.arrival_cycle, q.id)
                });
            }
        }
        for queued in ready {
            // Cache counters before the attach inside `Session::admit`, so
            // the deltas below attribute this request's hits/spills/fetches.
            let stats_before = self.cache_stats();
            let mut session = Session::admit(
                &queued,
                &self.config.engine,
                self.config.kv_chunk_tokens.max(1),
                self.config.prefill_chunk_tokens,
                self.now,
                self.cache_manager.as_mut(),
            );
            let queue_cycles = self.now.0.saturating_sub(queued.arrival_cycle);
            self.flight.insert(queued.id, FlightAccum { queue_cycles, ..FlightAccum::default() });
            if self.tracer.is_active() {
                self.tracer.span_at(self.node_track(), "serve.admit", self.now, self.now, 0);
                session.bind_trace(
                    &self.tracer,
                    trace_track::id(trace_track::QUANT, self.node_id, self.session_seq),
                );
                self.session_seq = self.session_seq.wrapping_add(1);
                // This request's hops of the causality chain: admit and
                // queue-wait on the node track, tier traffic on the node's
                // tier track. Deltas, not totals — the manager's counters
                // are cumulative across requests.
                let tk = self.node_track();
                let req = queued.id as u64;
                self.tracer.link(tk, hop::ADMIT, self.now, req, queued.session);
                self.tracer.link(tk, hop::QUEUE, self.now, req, queue_cycles);
                let stats = self.cache_stats();
                let hit = stats.hit_tokens.saturating_sub(stats_before.hit_tokens);
                if hit > 0 {
                    self.tracer.link(tk, hop::CACHE, self.now, req, hit);
                }
                let tier_tk = trace_track::id(trace_track::TIER, self.node_id, 0);
                let spilled = stats.spilled_chunks.saturating_sub(stats_before.spilled_chunks);
                if spilled > 0 {
                    self.tracer.link(tier_tk, hop::TIER_SPILL, self.now, req, spilled);
                }
                let fetched = stats.fetched_tokens.saturating_sub(stats_before.fetched_tokens);
                if fetched > 0 {
                    self.tracer.link(tier_tk, hop::TIER_FETCH, self.now, req, fetched);
                }
            }
            self.active.push(session);
            if let Some(manager) = &self.cache_manager {
                self.metrics.cache_resident_bytes.set(self.now, manager.resident_bytes() as f64);
            }
        }
    }

    /// One lockstep step: admit, then either dispatch a batch (one slice
    /// per chosen session, advancing the clock by the largest tile cycle
    /// count a slice is charged), jump to the next arrival (capped
    /// at `jump_cap`, so a caller advancing to a target never has its
    /// idle node leap past arrivals it has yet to deliver), or report
    /// exhaustion.
    fn step(&mut self, jump_cap: Option<Cycle>) -> Step {
        self.admit_ready();
        if self.active.is_empty() {
            match self.pending.front() {
                // Idle: jump to the next arrival. All gauges drop to zero
                // over the gap — an idle device has no occupancy.
                Some(next) => {
                    self.metrics.queue_depth.set(self.now, 0.0);
                    self.metrics.occupancy.set(self.now, 0.0);
                    self.metrics.batch_tokens.set(self.now, 0.0);
                    if self.tracer.is_active() {
                        let tk = self.node_track();
                        self.tracer.gauge(tk, "serve.queue_depth", self.now, 0.0);
                        self.tracer.gauge(tk, "serve.batch_tokens", self.now, 0.0);
                    }
                    let mut to = Cycle(next.arrival_cycle);
                    if let Some(cap) = jump_cap {
                        to = to.min(cap);
                    }
                    self.now = to;
                    return Step::Jumped;
                }
                None => return Step::Exhausted,
            }
        }
        self.metrics.queue_depth.set(self.now, self.active.len() as f64);
        if self.tracer.is_active() {
            self.tracer.gauge(
                self.node_track(),
                "serve.queue_depth",
                self.now,
                self.active.len() as f64,
            );
        }

        // Form and dispatch this iteration's batch. On a forced-preempt
        // tick the policy's head candidate yields its slot for one
        // iteration; the knob (like the policy itself) only moves blocks
        // in time, so outputs stay byte-identical at any cadence.
        let yield_head = self
            .config
            .preempt_every
            .is_some_and(|p| p > 0 && self.metrics.iterations % p == p - 1);
        let chosen = form_batch(&self.active, &self.limits, self.config.policy, yield_head);
        debug_assert!(!chosen.is_empty());
        // Preempt/resume bookkeeping against the previous iteration's
        // batch. A previously-running session that is still active but
        // not chosen is preempted at its chunk/step boundary — its grown
        // KV planes stay parked in its Session untouched; a chosen
        // session with progress that sat out the last iteration resumes
        // from exactly those planes.
        let chosen_ids: Vec<usize> = chosen.iter().map(|&i| self.active[i].spec().id).collect();
        for &id in &self.ran_last {
            if !chosen_ids.contains(&id) && self.active.iter().any(|s| s.spec().id == id) {
                self.metrics.preemptions += 1;
                if let Some(f) = self.flight.get_mut(&id) {
                    f.parked_since = Some(self.now);
                }
                if self.tracer.is_active() {
                    self.tracer.span_at(self.node_track(), "serve.preempt", self.now, self.now, 0);
                    self.tracer.link(self.node_track(), hop::PREEMPT, self.now, id as u64, 0);
                }
            }
        }
        for &i in &chosen {
            let id = self.active[i].spec().id;
            if self.active[i].blocks_done() > 0 && !self.ran_last.contains(&id) {
                self.metrics.resumes += 1;
                let parked = self.flight.get_mut(&id).map_or(0, |f| {
                    let parked = f.parked_since.take().map_or(0, |since| (self.now - since).0);
                    f.preempted_cycles += parked;
                    parked
                });
                if self.tracer.is_active() {
                    self.tracer.span_at(self.node_track(), "serve.resume", self.now, self.now, 0);
                    self.tracer.link(self.node_track(), hop::RESUME, self.now, id as u64, parked);
                }
            }
        }
        // Every chosen session advances one slice, but only a slice that
        // opens a tile carries an engine job (the whole tile): each tile
        // runs once, however finely the scheduler slices it.
        let slices: Vec<_> = chosen.iter().map(|&i| self.active[i].next_job()).collect();
        let opens: Vec<bool> = slices.iter().map(Option::is_some).collect();
        let jobs: Vec<_> = slices.into_iter().flatten().collect();
        let batch_tokens: usize = chosen.iter().map(|&i| self.active[i].next_block_tokens()).sum();
        // Caller-assigned engine tracks, keyed by dispatch-unit index —
        // never by worker identity — so the recorded streams are
        // deterministic at any `PADE_THREADS`. One dispatch spends one
        // unit on the dispatcher (prepass + fan-out spans) plus one per
        // slice: tiles first, in job order, then the slices that ran none.
        let dispatch_begin = self.now;
        let base_track = trace_track::id(
            trace_track::ENGINE,
            self.node_id,
            self.dispatch_units.wrapping_mul(trace_track::DISPATCH_STRIDE as u32),
        );
        let results = if jobs.is_empty() {
            Vec::new()
        } else {
            let engine = &self.config.engine;
            pade_core::engine::run_qk_batch_traced(engine, &jobs, &self.tracer, base_track)
        };
        debug_assert_eq!(results.len(), jobs.len(), "one tile per job");
        self.dispatch_units = self.dispatch_units.wrapping_add(1 + chosen.len() as u32);
        drop(jobs);

        // Work is counted once per tile, at the slice that ran it; every
        // slice is charged its tile's full cycle count.
        let mut units = (0, results.len() as u64);
        let mut results = results.into_iter();
        let mut duration = Cycle::ZERO;
        for (&i, &opens) in chosen.iter().zip(&opens) {
            let result = opens.then(|| results.next().expect("one result per tile job"));
            if let Some(result) = &result {
                self.metrics.ops.merge(&result.ops);
                self.metrics.traffic.merge(&result.traffic);
            }
            let cycles = self.active[i].absorb(result);
            duration = duration.max(cycles);
            self.metrics.engine_cycles += cycles.0;
            let spec = self.active[i].spec();
            let f = self.flight.entry(spec.id).or_default();
            let (name, hop_name, spent) = match spec.kind {
                RequestKind::Prefill { .. } => {
                    ("serve.prefill", hop::PREFILL, &mut f.prefill_cycles)
                }
                RequestKind::Decode { .. } => ("serve.decode", hop::DECODE, &mut f.decode_cycles),
            };
            *spent += cycles.0;
            if opens {
                f.tile_dispatch = base_track;
            }
            if self.tracer.is_active() {
                // One span per slice on an engine unit's wrapper subtrack
                // (same-instant siblings would break nesting on the node
                // track), after its links: per-track clocks never rewind.
                let unit = if opens { &mut units.0 } else { &mut units.1 };
                *unit += 1;
                let track = base_track + *unit * trace_track::DISPATCH_STRIDE + 3;
                let req = spec.id as u64;
                self.tracer.link(track, hop::DISPATCH, dispatch_begin, req, f.tile_dispatch);
                self.tracer.link(track, hop_name, dispatch_begin, req, cycles.0);
                self.tracer.span_at(track, name, dispatch_begin, dispatch_begin + cycles, 0);
            }
        }

        let occupancy = chosen.len() as f64 / self.limits.engine_slots as f64;
        self.metrics.occupancy.set(self.now, occupancy);
        self.metrics.batch_tokens.set(self.now, batch_tokens as f64);
        self.metrics.iterations += 1;
        self.now += duration;
        if self.tracer.is_active() {
            self.tracer.gauge(
                self.node_track(),
                "serve.batch_tokens",
                dispatch_begin,
                batch_tokens as f64,
            );
        }

        // Retire finished sessions in FCFS order.
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].is_finished() {
                let mut session = self.active.remove(i);
                if let Some(manager) = self.cache_manager.as_mut() {
                    session.detach_cache(manager);
                    self.metrics
                        .cache_resident_bytes
                        .set(self.now, manager.resident_bytes() as f64);
                }
                let arrival = Cycle(session.spec().arrival_cycle);
                self.metrics.latency.record(self.now - arrival);
                self.metrics.tokens += session.tokens();
                if let Some(target) = session.spec().tenant_slo {
                    // Sessions pack their tenant into the high 32 bits
                    // (the MultiTenantConfig::tenant_of convention).
                    self.metrics.record_slo(
                        session.spec().session >> 32,
                        target,
                        self.now - arrival,
                    );
                }
                // Fold the request's flight accounting into the run
                // totals. Stalled = the admitted span minus every cycle
                // attributed to running or being parked; a session cannot
                // retire parked, but a lingering `parked_since` still
                // folds in defensively.
                let mut f = self.flight.remove(&session.spec().id).unwrap_or_default();
                if let Some(since) = f.parked_since.take() {
                    f.preempted_cycles += (self.now - since).0;
                }
                let admitted_span = (self.now - session.admitted()).0;
                let stalled = admitted_span
                    .saturating_sub(f.prefill_cycles + f.decode_cycles + f.preempted_cycles);
                self.metrics.flight.queue_cycles += f.queue_cycles;
                self.metrics.flight.prefill_cycles += f.prefill_cycles;
                self.metrics.flight.decode_cycles += f.decode_cycles;
                self.metrics.flight.preempted_cycles += f.preempted_cycles;
                self.metrics.flight.stalled_cycles += stalled;
                self.metrics.flight.requests += 1;
                if self.tracer.is_active() {
                    self.tracer.instant(self.node_track(), "serve.retire", self.now);
                    self.tracer.link(
                        self.node_track(),
                        hop::RETIRE,
                        self.now,
                        session.spec().id as u64,
                        (self.now - arrival).0,
                    );
                }
                self.completions.push(Completion {
                    id: session.spec().id,
                    kind: session.spec().kind,
                    arrival,
                    admitted: session.admitted(),
                    finished: self.now,
                    tokens: session.tokens(),
                    results: session.into_results(),
                });
            } else {
                i += 1;
            }
        }
        // Retired ids may linger here; the preempt check above skips ids
        // no longer active, so they never miscount as preemptions.
        self.ran_last = chosen_ids;
        if self.tracer.is_active() {
            self.tracer.gauge(
                self.node_track(),
                "serve.active_sessions",
                self.now,
                self.active.len() as f64,
            );
        }
        Step::Ran
    }

    /// Runs lockstep iterations until the node's clock reaches `target`
    /// or the node drains. A *dispatch* that starts before `target` may
    /// overrun it — the iteration is the lockstep quantum — but an idle
    /// node's jump is capped at `min(next arrival, target)`, so an idle
    /// node never skips past `target` and arrivals a caller delivers at
    /// or before it are admitted at the right clock.
    pub fn advance_to(&mut self, target: Cycle) {
        while self.now < target {
            if self.step(Some(target)) == Step::Exhausted {
                break;
            }
        }
    }

    /// Runs the node until every enqueued request has completed.
    pub fn drain(&mut self) {
        while self.step(None) != Step::Exhausted {}
    }

    /// Closes the books: zeroes the gauges at the final clock, copies the
    /// cache stats, saves the warm cache image to
    /// [`ServeConfig::cache_file`] (when set and the manager engaged) and
    /// digests the metrics into a [`ServeReport`].
    ///
    /// # Panics
    ///
    /// Panics if the node still has queued or active work (call
    /// [`drain`](Node::drain) first), or the cache file cannot be
    /// written.
    #[must_use]
    pub fn finish(mut self) -> ServeReport {
        assert!(self.is_drained(), "finish() on a node with unserved requests");
        self.metrics.queue_depth.set(self.now, 0.0);
        self.metrics.occupancy.set(self.now, 0.0);
        self.metrics.batch_tokens.set(self.now, 0.0);
        if let Some(manager) = &self.cache_manager {
            self.metrics.cache = *manager.stats();
            self.metrics.cache_resident_bytes.set(self.now, manager.resident_bytes() as f64);
            if let Some(path) = &self.config.cache_file {
                manager.save_to(path).unwrap_or_else(|e| {
                    panic!("failed to save cache file {}: {e}", path.display())
                });
            }
        }
        let summary = self.metrics.summarize(self.now, Frequency::default());
        ServeReport {
            mode: self.mode,
            completions: self.completions,
            summary,
            metrics: self.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::serve;
    use pade_workload::prompt::{generate_shared_prefix_arrivals, SharedPrefixConfig};
    use pade_workload::trace::{generate_arrivals, ArrivalConfig};

    fn arrivals() -> Vec<RequestArrival> {
        generate_arrivals(&ArrivalConfig::small_demo())
    }

    #[test]
    fn incremental_enqueue_matches_bulk_serve() {
        let arrivals = arrivals();
        let config = ServeConfig::standard();
        let bulk = serve(&config, &arrivals, ScheduleMode::Batched);

        // Router-style delivery: advance to each arrival's cycle, then
        // enqueue it — the node must end in exactly the same state.
        let mut node = Node::new(&config, ScheduleMode::Batched);
        let mut sorted: Vec<&RequestArrival> = arrivals.iter().collect();
        sorted.sort_by_key(|r| (r.arrival_cycle, r.id));
        for spec in sorted {
            node.advance_to(Cycle(spec.arrival_cycle));
            node.enqueue(spec);
        }
        node.drain();
        let stepped = node.finish();
        assert_eq!(stepped.completion_order(), bulk.completion_order());
        assert_eq!(stepped.summary, bulk.summary);
        for (a, b) in stepped.completions.iter().zip(&bulk.completions) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn out_of_order_enqueue_is_reordered() {
        let arrivals = arrivals();
        let config = ServeConfig::standard();
        let bulk = serve(&config, &arrivals, ScheduleMode::Batched);
        let mut node = Node::new(&config, ScheduleMode::Batched);
        for spec in arrivals.iter().rev() {
            node.enqueue(spec);
        }
        node.drain();
        let report = node.finish();
        assert_eq!(report.completion_order(), bulk.completion_order());
    }

    #[test]
    fn zero_slot_node_still_drains() {
        // A "failed" node modeled as zero engine slots: the scheduler
        // clamps to one slot, so the node limps along instead of
        // deadlocking.
        let config = ServeConfig { engine_slots: 0, ..ServeConfig::standard() };
        let arrivals = arrivals();
        let mut node = Node::new(&config, ScheduleMode::Batched);
        for spec in &arrivals {
            node.enqueue(spec);
        }
        node.drain();
        let report = node.finish();
        assert_eq!(report.completions.len(), arrivals.len());
    }

    #[test]
    fn empty_node_finishes_cleanly() {
        let node = Node::new(&ServeConfig::standard(), ScheduleMode::Batched);
        assert!(node.is_drained());
        let report = node.finish();
        assert!(report.completions.is_empty());
        assert_eq!(report.summary.tokens, 0);
    }

    /// A hand-built decode arrival carrying an explicit prompt.
    fn prompt_arrival(
        id: usize,
        arrival_cycle: u64,
        ids: Vec<u32>,
        steps: usize,
    ) -> RequestArrival {
        use pade_workload::prompt::PromptTokens;
        use pade_workload::trace::{RequestKind, TraceConfig};
        RequestArrival {
            id,
            arrival_cycle,
            kind: RequestKind::Decode { steps },
            trace: TraceConfig {
                seq_len: ids.len(),
                head_dim: 64,
                n_queries: steps,
                seed: 1000 + id as u64,
                prompt_keys: true,
                ..TraceConfig::small_demo()
            },
            session: id as u64,
            prompt: Some(PromptTokens::new(ids)),
            priority: 0,
            tenant_slo: None,
        }
    }

    #[test]
    fn hit_aware_admission_reorders_the_ready_set_by_predicted_hits() {
        // Request 0 runs first and publishes its prompt's chunks to the
        // index. While it runs, a COLD request (1) and a WARM request (2,
        // sharing 0's prefix) arrive at the same cycle. FCFS admits 1
        // before 2; hit-aware must flip them — the warm request's
        // predicted hits are probed at the admission instant, against
        // the chunks request 0 already decomposed this run.
        let shared: Vec<u32> = (100..132).collect();
        let mut warm = shared.clone();
        warm.extend(200..208);
        let cold: Vec<u32> = (900..940).collect();
        let arrivals = vec![
            prompt_arrival(0, 0, shared, 4),
            prompt_arrival(1, 10, cold, 4),
            prompt_arrival(2, 10, warm, 4),
        ];
        let base = ServeConfig {
            engine_slots: 1, // serialize: admission order decides completion order
            kv_chunk_tokens: 8,
            ..ServeConfig::standard()
        };
        let fcfs = serve(&base, &arrivals, ScheduleMode::Batched);
        let aware = serve(
            &ServeConfig { hit_aware: true, ..base.clone() },
            &arrivals,
            ScheduleMode::Batched,
        );
        assert_eq!(fcfs.completion_order(), vec![0, 1, 2], "FCFS admits in (arrival, id) order");
        assert_eq!(
            aware.completion_order(),
            vec![0, 2, 1],
            "hit-aware must admit the warm request past the earlier-id cold one"
        );
        // A scheduling knob only: per-request outputs stay byte-identical.
        crate::server::assert_outputs_identical(&fcfs, &aware);
    }

    #[test]
    fn hit_aware_burst_workload_keeps_outputs_identical() {
        // The broader shared-prefix burst: ordering may shuffle freely,
        // outputs must not.
        let workload = SharedPrefixConfig {
            n_sessions: 4,
            turns_per_session: 2,
            pool_size: 2,
            shared_prefix_tokens: 48,
            unique_suffix_tokens: 8,
            turn_suffix_tokens: 8,
            decode_steps: 2,
            mean_interarrival_cycles: 100.0, // a burst: everyone queues
            turn_gap_cycles: 1_000,
            ..SharedPrefixConfig::small_demo()
        };
        let arrivals = generate_shared_prefix_arrivals(&workload);
        let base = ServeConfig { engine_slots: 1, kv_chunk_tokens: 16, ..ServeConfig::standard() };
        let fcfs = serve(&base, &arrivals, ScheduleMode::Batched);
        let aware =
            serve(&ServeConfig { hit_aware: true, ..base }, &arrivals, ScheduleMode::Batched);
        crate::server::assert_outputs_identical(&fcfs, &aware);
        assert_eq!(fcfs.completions.len(), aware.completions.len());
    }
}
