//! Bit-wise out-of-order QK execution engine — §IV-B / §V, Figs. 8 & 11.
//!
//! The QK-PU streams key bit planes from DRAM on demand: a key's next
//! plane is fetched only if BUI-GF could not resolve it. Each fetch costs
//! tens of cycles of DRAM latency (Fig. 5(d)), so an in-order lane would
//! idle between planes. The OOE engine keeps up to a scoreboard's worth of
//! keys in flight per lane: while one key's plane travels from DRAM, the
//! lane computes whichever other plane has already arrived (Fig. 8(e)).
//!
//! The engine simulates all `pe_rows × lanes_per_row` lanes cycle by cycle
//! against the shared [`HbmModel`]. Fetched planes land in the shared K
//! SRAM buffer, so the eight PE rows working on different queries reuse
//! each other's fetches — a plane reaches DRAM only on the *first* row
//! that needs it. The result carries each query row's retained key set,
//! exact integer scores for retained keys, and the per-lane busy/stall
//! breakdown behind Fig. 23(a).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use pade_mem::{HbmModel, KeyLayout, SramBuffer};
use pade_quant::{BitPlaneMatrix, KeyCacheSnapshot, PlaneSource};
use pade_sim::{Cycle, EventQueue, OpCounts, TrafficCounts, UtilizationCounter};
use pade_trace::{track as trace_track, Tracer};

use crate::bitserial::{plane_contribution, plane_contribution_lut, q_sum, BsMode, QRowLut};
use crate::bui::Bui;
use crate::config::PadeConfig;
use crate::filter::{Decision, GuardFilter};
use crate::gsat::{Gsat, PlaneAbsorb};
use crate::scoreboard::Scoreboard;

mod wheel;
use wheel::EventWheel;

/// Result of one QK block (up to `pe_rows` query rows over all keys).
#[derive(Debug, Clone, PartialEq)]
pub struct QkBlockResult {
    /// End-to-end QK-PU latency.
    pub cycles: Cycle,
    /// Per query row: retained `(token, exact integer score)` pairs in
    /// token order.
    pub retained: Vec<Vec<(usize, i64)>>,
    /// Per-lane utilization (busy / intra-stall / inter-stall).
    pub lane_utils: Vec<UtilizationCounter>,
    /// Arithmetic events.
    pub ops: OpCounts,
    /// Memory traffic (DRAM via the HBM model + K/Q SRAM).
    pub traffic: TrafficCounts,
    /// Unique bit planes fetched from DRAM.
    pub planes_fetched: u64,
    /// Unique bit planes a dense bit-serial execution would fetch.
    pub planes_dense: u64,
    /// DRAM row-buffer hit rate over the run.
    pub row_hit_rate: f64,
    /// Fraction of peak DRAM bandwidth used.
    pub bandwidth_utilization: f64,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    token: usize,
    plane: u32,
}

#[derive(Debug)]
struct Lane {
    row: usize,
    keys: Vec<usize>,
    next_key: usize,
    ready: VecDeque<Job>,
    outstanding: usize,
    inflight_keys: usize,
    resolved_keys: usize,
    sb: Scoreboard,
    busy_until: Cycle,
    util: UtilizationCounter,
    done: bool,
}

/// Shared K-buffer plane state: in flight from DRAM or already on chip.
#[derive(Debug, Clone, Copy)]
enum PlaneState {
    InFlight(Cycle),
    Present,
}

/// Runs the QK-PU over one tile of up to `config.pe_rows` query rows
/// against any [`PlaneSource`]: a from-scratch [`BitPlaneMatrix`], an
/// `Arc`-shared tensor, a [`KeySource`] or a chunked [`KeyCacheSnapshot`]
/// of a growable per-session cache.
///
/// `queries[r]` is the r-th query row (all rows share the key tensor);
/// `logit_scale` maps integer scores to logits for the guard margin.
///
/// This is the allocation-lean hot path, working on whole words where the
/// oracle works on bits and hash maps:
///
/// - the shared K-buffer state lives in a flat `Vec` indexed by
///   `(token, plane)`;
/// - each query row gets one byte-lookup [`QRowLut`], so every plane
///   absorption is `⌈H/8⌉` table reads shared read-only by the row's lanes;
/// - per-plane GSAT bookkeeping is the single-sweep [`Gsat::absorb_stats`]
///   (one SWAR byte-popcount per word at the Table III shape), memoized per
///   `(token, plane)` across the block's query rows (the stats are
///   query-independent);
/// - each scoreboard fold is one [`Scoreboard::accumulate`] scan;
/// - plane arrivals go through an engine-local event wheel (per-cycle
///   buckets) in place of [`EventQueue`]'s binary heap, delivering in the
///   same `(time, insertion)` order.
///
/// Results are bit-identical to [`run_qk_block_reference`]
/// (property-tested below): the restructuring only changes *how* the same
/// integers are computed, and the storage behind `keys` never reaches the
/// arithmetic — only the per-token
/// [`TokenPlanes`](pade_quant::TokenPlanes) do.
///
/// Batches of tiles — many jobs, more than `pe_rows` rows, threads or a
/// tracer — go through [`run_qk_batch`] / [`run_qk_batch_traced`].
///
/// # Panics
///
/// Panics if `queries` is empty, exceeds `config.pe_rows`, or any row's
/// length differs from the key dimension.
#[must_use]
pub fn run_qk_block<K: PlaneSource + ?Sized>(
    config: &PadeConfig,
    queries: &[&[i8]],
    keys: &K,
    logit_scale: f32,
) -> QkBlockResult {
    let luts: Vec<QRowLut> = queries.iter().map(|q| QRowLut::new(q)).collect();
    let borrowed: Vec<&QRowLut> = luts.iter().collect();
    let tracer = Tracer::disabled();
    run_qk_block_prepared(
        config,
        queries,
        &borrowed,
        keys,
        logit_scale,
        BlockTrace { tracer: &tracer, track: 0 },
    )
}

/// Telemetry hookup of one engine block dispatch: a tracer handle plus the
/// dispatch's base track id. Recording is a pure side channel — nothing
/// here reaches the simulated arithmetic or timing.
#[derive(Clone, Copy)]
struct BlockTrace<'a> {
    tracer: &'a Tracer,
    track: u64,
}

/// [`run_qk_block`] with the per-row lookup tables already built — the one
/// code path that scores a tile. [`run_qk_batch_traced`] uses it to share
/// one table across every job (head, layer) scoring the same query rows;
/// `luts[r]` must be built from `queries[r]`. An active tracer records the
/// block span, its per-stage subtracks and the kernel counters (plane
/// absorptions, GSAT sweeps, bytes touched) onto
/// [`DISPATCH_STRIDE`](pade_trace::track::DISPATCH_STRIDE) consecutive
/// tracks starting at `trace.track`.
///
/// # Panics
///
/// As [`run_qk_block`]; additionally if `luts.len() != queries.len()` or
/// any table's width differs from its query row's.
fn run_qk_block_prepared<K: PlaneSource + ?Sized>(
    config: &PadeConfig,
    queries: &[&[i8]],
    luts: &[&QRowLut],
    keys: &K,
    logit_scale: f32,
    trace: BlockTrace<'_>,
) -> QkBlockResult {
    config.validate();
    // Telemetry accumulators — only updated while a sink is attached.
    let tr_active = trace.tracer.is_active();
    let wall_start = tr_active.then(std::time::Instant::now);
    let mut tr_popcounts = 0u64;
    let mut tr_absorb_cycles = 0u64;
    let mut tr_gsat_sweeps = 0u64;
    let mut tr_gsat_cycles = 0u64;
    let mut tr_memo_hits = 0u64;
    assert_eq!(luts.len(), queries.len(), "one lookup table per query row");
    for (q, lut) in queries.iter().zip(luts) {
        assert_eq!(lut.len(), q.len(), "lookup table width must match its query row");
    }
    assert!(!queries.is_empty(), "at least one query row required");
    assert!(queries.len() <= config.pe_rows, "more query rows than PE rows");
    for q in queries {
        assert_eq!(q.len(), keys.dims(), "query width must match key dimension");
    }
    let bits = keys.bits();
    let dims = keys.dims();
    let n_keys = keys.tokens();
    let gsat = Gsat::new(config.gsat_width, config.subgroup);
    let window = if config.enable_ooe { config.scoreboard_entries } else { 1 };

    let mut hbm = HbmModel::new(config.hbm);
    let mut k_sram = SramBuffer::new("kv", config.kv_buffer_kb as u64 * 1024);
    let mut q_sram = SramBuffer::new("q", config.q_buffer_kb as u64 * 1024);
    let mut events: EventWheel<(usize, Job)> = EventWheel::new();
    let mut ops = OpCounts::default();
    // Flat shared K-buffer state: slot `token_key·bits + plane_key` (the
    // layout-dependent cache key always satisfies `token_key < n_keys`).
    let mut plane_cache: Vec<SlotState> = vec![SlotState::Unfetched; n_keys * bits as usize];
    let mut planes_fetched = 0u64;

    // Per-row pruning state; every lane of a row borrows the row's
    // read-only lookup table.
    let mut filters: Vec<GuardFilter> = queries
        .iter()
        .map(|_| {
            let margin = if config.enable_bui_gf { config.guard_margin() } else { f32::INFINITY };
            let margin = if margin.is_finite() { margin } else { 1e30 };
            GuardFilter::new(margin, logit_scale, bits)
        })
        .collect();
    let buis: Vec<Bui> = queries.iter().map(|q| Bui::new(q, bits)).collect();
    let mut retained: Vec<Vec<(usize, i64)>> = vec![Vec::new(); queries.len()];
    // GSAT absorption stats are query-independent, so each `(token, plane)`
    // is swept once and reused by every other query row of the block.
    let mut gsat_memo: Vec<Option<PlaneAbsorb>> = vec![None; n_keys * bits as usize];

    for q in queries {
        q_sram.write(q.len() as u64);
    }

    // Lanes: row-major, keys distributed round-robin within each row.
    let mut lanes: Vec<Lane> = Vec::new();
    for row in 0..queries.len() {
        for lane_idx in 0..config.lanes_per_row {
            lanes.push(Lane {
                row,
                keys: (lane_idx..n_keys).step_by(config.lanes_per_row).collect(),
                next_key: 0,
                ready: VecDeque::new(),
                outstanding: 0,
                inflight_keys: 0,
                resolved_keys: 0,
                sb: Scoreboard::new(config.scoreboard_entries),
                busy_until: Cycle::ZERO,
                util: UtilizationCounter::new(),
                done: false,
            });
        }
    }

    let plane_sram_bytes = keys.plane_bytes() as u64;
    let mut now = Cycle::ZERO;
    let hard_stop = Cycle(100_000_000); // defensive livelock bound

    let coalesce = match config.layout {
        KeyLayout::BitPlaneInterleaved => {
            (config.hbm.burst_bytes / plane_sram_bytes.max(1)).max(1) as usize
        }
        _ => 1,
    };
    let bits_us = bits as usize;
    let cache_slot = |token: usize, plane: u32| -> usize {
        match config.layout {
            KeyLayout::ValueRowMajor => token * bits_us,
            KeyLayout::BitPlaneLinear => token * bits_us + plane as usize,
            KeyLayout::BitPlaneInterleaved => {
                let c = config.hbm.channels;
                let channel = token % c;
                let idx = token / c;
                ((idx / coalesce) * coalesce * c + channel) * bits_us + plane as usize
            }
        }
    };

    let request_plane = |token: usize,
                         plane: u32,
                         now: Cycle,
                         hbm: &mut HbmModel,
                         cache: &mut [SlotState],
                         fetched: &mut u64|
     -> Cycle {
        let slot = cache_slot(token, plane);
        match cache[slot] {
            SlotState::Present => now + Cycle(1),
            SlotState::InFlight(t) => t.max(now + Cycle(1)),
            SlotState::Unfetched => {
                let fetch = config.layout.plane_fetch(token, plane, dims, bits, &config.hbm);
                let arrival = hbm.access(fetch.loc, fetch.bytes, now).complete;
                cache[slot] = SlotState::InFlight(arrival);
                *fetched += 1;
                arrival
            }
        }
    };

    // One subtractor fires per potentially-flipped sub-group under
    // per-sub-group BS (constant per plane: the group count of pass 0).
    let extra_subs =
        if config.enable_bs { (config.gsat_width / config.subgroup) as u64 / 2 } else { 0 };

    while lanes.iter().any(|l| !l.done) && now < hard_stop {
        // Deliver arrivals due this cycle.
        while let Some((lane_id, job)) = events.pop_ready(now) {
            let lane = &mut lanes[lane_id];
            lane.outstanding -= 1;
            lane.ready.push_back(job);
            let slot = cache_slot(job.token, job.plane);
            if let SlotState::InFlight(_) = plane_cache[slot] {
                plane_cache[slot] = SlotState::Present;
                k_sram.write(config.hbm.burst_bytes);
            }
        }

        // `lane_id` travels into the event queue alongside the borrow, so
        // the indexed form is clearer than enumerate-with-reborrow here.
        #[allow(clippy::needless_range_loop)]
        for lane_id in 0..lanes.len() {
            let lane = &mut lanes[lane_id];
            if lane.done || now < lane.busy_until {
                continue;
            }

            let dynamic_window =
                if config.enable_ooe { window.min(2 + 2 * lane.resolved_keys) } else { 1 };
            while lane.inflight_keys < dynamic_window && lane.next_key < lane.keys.len() {
                let token = lane.keys[lane.next_key];
                lane.next_key += 1;
                lane.inflight_keys += 1;
                lane.outstanding += 1;
                let arrival =
                    request_plane(token, 0, now, &mut hbm, &mut plane_cache, &mut planes_fetched);
                events.schedule(arrival, (lane_id, Job { token, plane: 0 }));
                if !config.enable_ooe {
                    break;
                }
            }

            if let Some(job) = lane.ready.pop_front() {
                let plane = keys.token(job.token).plane(job.plane);
                k_sram.read(plane_sram_bytes);
                let contrib = plane_contribution_lut(luts[lane.row], plane, job.plane, bits, false);
                let memo_slot = job.token * bits_us + job.plane as usize;
                let stats = match gsat_memo[memo_slot] {
                    Some(s) => {
                        if tr_active {
                            tr_memo_hits += 1;
                        }
                        s
                    }
                    None => {
                        let s = gsat.absorb_stats(plane, config.enable_bs);
                        gsat_memo[memo_slot] = Some(s);
                        if tr_active {
                            tr_gsat_sweeps += 1;
                            tr_gsat_cycles += s.cycles;
                        }
                        s
                    }
                };
                let (cycles, selected) = (stats.cycles, stats.selected);
                let balanced = stats.balanced;
                if tr_active {
                    tr_popcounts += 1;
                    tr_absorb_cycles += balanced;
                }
                lane.util.busy(balanced);
                lane.util.stall_intra(cycles - balanced);
                lane.busy_until = now + Cycle(cycles);
                ops.bit_serial_acc += u64::from(selected) + extra_subs;
                ops.shift_add += 1; // plane-weight application

                // Fold into the scoreboard and decide.
                let partial = lane
                    .sb
                    .accumulate(job.token, job.plane + 1, contrib.value)
                    .expect("window bounds in-flight keys to scoreboard capacity");
                let f = &mut filters[lane.row];
                let bui = &buis[lane.row];
                f.observe_lower_bound(bui.lower_bound(partial, job.plane));
                ops.lut_lookup += 1; // BUI LUT read
                match f.decide(bui.upper_bound(partial, job.plane), job.plane) {
                    Decision::Prune => {
                        lane.sb.evict(job.token);
                        lane.inflight_keys -= 1;
                        lane.resolved_keys += 1;
                    }
                    Decision::Retain => {
                        lane.sb.evict(job.token);
                        lane.inflight_keys -= 1;
                        lane.resolved_keys += 1;
                        retained[lane.row].push((job.token, partial));
                    }
                    Decision::NeedMore => {
                        lane.outstanding += 1;
                        let arrival = request_plane(
                            job.token,
                            job.plane + 1,
                            now,
                            &mut hbm,
                            &mut plane_cache,
                            &mut planes_fetched,
                        );
                        events.schedule(
                            arrival,
                            (lane_id, Job { token: job.token, plane: job.plane + 1 }),
                        );
                    }
                }
            } else if lane.outstanding > 0 {
                lane.util.stall_mem(1);
            } else if lane.inflight_keys == 0 && lane.next_key >= lane.keys.len() {
                lane.done = true;
            } else {
                lane.util.stall_mem(1);
            }
        }

        // Advance to the next interesting time (skip long memory waits).
        let next_busy =
            lanes.iter().filter(|l| !l.done && l.busy_until > now).map(|l| l.busy_until).min();
        let next_event = events.next_time().filter(|&t| t > now);
        let target = match (next_busy, next_event) {
            (Some(b), Some(e)) => b.min(e),
            (Some(b), None) => b,
            (None, Some(e)) => e,
            (None, None) => now + Cycle(1),
        }
        .max(now + Cycle(1));
        let skipped = (target - now).0;
        if skipped > 1 {
            for lane in lanes.iter_mut().filter(|l| !l.done) {
                if lane.busy_until <= now && lane.ready.is_empty() && lane.outstanding > 0 {
                    lane.util.stall_mem(skipped - 1);
                }
            }
        }
        now = target;
    }

    for r in &mut retained {
        r.sort_unstable_by_key(|&(t, _)| t);
    }

    let mut traffic = hbm.traffic();
    traffic.merge(&k_sram.traffic());
    traffic.merge(&q_sram.traffic());
    for f in &filters {
        ops.compare += f.compares();
    }

    let horizon = now;
    let mut lane_utils = Vec::with_capacity(lanes.len());
    for mut lane in lanes {
        lane.util.pad_to(horizon);
        lane_utils.push(lane.util);
    }

    if let Some(t0) = wall_start {
        // The block span rides the dispatch's main track; the per-stage
        // aggregates are *summed lane-time*, not bracketed intervals
        // (lanes overlap), so they get their own subtracks and every
        // track stays strictly nested.
        let t = trace.tracer;
        let tk = trace.track;
        t.span_at(tk, "engine.qk_block", Cycle::ZERO, horizon, t0.elapsed().as_nanos() as u64);
        t.span_at(tk + 1, "engine.plane_score", Cycle::ZERO, Cycle(tr_absorb_cycles), 0);
        t.span_at(tk + 2, "engine.gsat_absorb", Cycle::ZERO, Cycle(tr_gsat_cycles), 0);
        t.count(tk, "engine.popcounts", horizon, tr_popcounts);
        t.count(tk, "engine.gsat_sweeps", horizon, tr_gsat_sweeps);
        t.count(tk, "engine.gsat_memo_hits", horizon, tr_memo_hits);
        t.count(tk, "engine.planes_fetched", horizon, planes_fetched);
        t.count(tk, "engine.dram_read_bytes", horizon, traffic.dram_read_bytes);
        t.count(tk, "engine.sram_read_bytes", horizon, traffic.sram_read_bytes);
    }

    QkBlockResult {
        cycles: horizon,
        retained,
        lane_utils,
        ops,
        traffic,
        planes_fetched,
        planes_dense: dense_fetches(n_keys, bits, config, coalesce),
        row_hit_rate: hbm.row_hit_rate(),
        bandwidth_utilization: hbm.bandwidth_utilization(horizon),
    }
}

/// Shared K-buffer slot state for the flat plane cache.
#[derive(Debug, Clone, Copy)]
enum SlotState {
    Unfetched,
    InFlight(Cycle),
    Present,
}

/// A key bit-plane tensor shared across blocks, sessions and worker
/// threads without cloning.
///
/// The serving front end (`pade-serve`) decomposes each request's KV
/// cache into bit planes **once** at admission and then dispatches many
/// engine blocks (prefill chunks, decode steps) against the same
/// immutable planes; `Arc` makes that sharing explicit and keeps the
/// plane memory alive exactly as long as any in-flight block needs it.
pub type SharedKeyPlanes = Arc<BitPlaneMatrix>;

/// The key planes one batch job attends over: either a whole
/// [`Arc`]-shared tensor (decomposed once at admission, the prefill path)
/// or a [`KeyCacheSnapshot`] of a growable per-session cache (the
/// multi-step decode path, where each step appends one token).
///
/// Both variants are cheap to clone (refcounts, not planes) and read
/// through [`PlaneSource`], so the engine is oblivious to which one a
/// scheduler hands it.
#[derive(Debug, Clone)]
pub enum KeySource {
    /// A whole, immutable key tensor shared behind an [`Arc`].
    Planes(SharedKeyPlanes),
    /// A frozen prefix of a [`GrowableKeyCache`](pade_quant::GrowableKeyCache).
    Cache(KeyCacheSnapshot),
}

impl PlaneSource for KeySource {
    fn tokens(&self) -> usize {
        match self {
            KeySource::Planes(p) => PlaneSource::tokens(p),
            KeySource::Cache(c) => c.tokens(),
        }
    }
    fn dims(&self) -> usize {
        match self {
            KeySource::Planes(p) => PlaneSource::dims(p),
            KeySource::Cache(c) => c.dims(),
        }
    }
    fn bits(&self) -> u32 {
        match self {
            KeySource::Planes(p) => PlaneSource::bits(p),
            KeySource::Cache(c) => c.bits(),
        }
    }
    fn token(&self, j: usize) -> &pade_quant::TokenPlanes {
        match self {
            KeySource::Planes(p) => PlaneSource::token(p, j),
            KeySource::Cache(c) => c.token(j),
        }
    }
    fn plane_bytes(&self) -> usize {
        match self {
            KeySource::Planes(p) => PlaneSource::plane_bytes(p),
            KeySource::Cache(c) => c.plane_bytes(),
        }
    }
}

impl From<SharedKeyPlanes> for KeySource {
    fn from(planes: SharedKeyPlanes) -> Self {
        KeySource::Planes(planes)
    }
}

impl From<BitPlaneMatrix> for KeySource {
    fn from(planes: BitPlaneMatrix) -> Self {
        KeySource::Planes(Arc::new(planes))
    }
}

impl From<KeyCacheSnapshot> for KeySource {
    fn from(snapshot: KeyCacheSnapshot) -> Self {
        KeySource::Cache(snapshot)
    }
}

/// One job of a heterogeneous batch: its query rows, the [`KeySource`] it
/// attends over and the logit scale mapping its integer scores.
///
/// A batch may mix jobs from *different* requests with different key
/// tensors — and mix whole shared tensors with growable-cache snapshots —
/// the unit of work the serving layer's iteration-level scheduler
/// dispatches. A job may carry any number of query rows: [`run_qk_batch`]
/// tiles them into `config.pe_rows`-row blocks, which is how a prefill of
/// many rows maps onto one QK-PU.
#[derive(Debug, Clone)]
pub struct QkBatchJob<'a> {
    /// Query rows of this job, tiled by `config.pe_rows`.
    pub queries: Vec<&'a [i8]>,
    /// Key planes of this job (cheap to clone: refcounts only).
    pub keys: KeySource,
    /// Logit scale of this job's operands.
    pub logit_scale: f32,
}

/// Runs a heterogeneous batch of engine jobs and returns one result per
/// tile, flattened in job-then-tile order: job `j` contributes one result
/// per `jobs[j].queries.chunks(config.pe_rows)` tile, and a job without
/// rows contributes none.
///
/// Each tile simulates its own HBM/SRAM instances, so every result is
/// **bit-identical** to running that tile alone through [`run_qk_block`] —
/// and therefore to the seed oracle [`run_qk_block_reference`]. Batching,
/// tiling and the worker count change wall-clock and scheduling, never
/// outputs; this is the property the serving layer's bit-identity tests
/// pin down.
///
/// # Panics
///
/// As [`run_qk_block`], per tile.
#[must_use]
pub fn run_qk_batch(config: &PadeConfig, jobs: &[QkBatchJob<'_>]) -> Vec<QkBlockResult> {
    run_qk_batch_traced(config, jobs, &Tracer::disabled(), 0)
}

/// One tile of a batch dispatch: its job, its query rows and per-row
/// indices into the dispatch's shared [`QRowLut`] pool.
type Tile<'j, 'q> = (&'j QkBatchJob<'q>, &'j [&'q [i8]], Vec<usize>);

/// [`run_qk_batch`] with telemetry — the engine's one batch dispatch:
///
/// 1. a prepass builds the lookup table of every distinct query row
///    **once** (rows are deduplicated by slice identity, so jobs sharing a
///    row — the multi-head, multi-layer and grouped-query cases — share one
///    [`QRowLut`]);
/// 2. every tile of every job fans out in **one** `pade-par` round-trip
///    (`PADE_THREADS` sets the worker count, and one worker runs inline).
///
/// The prepass and fan-out spans record onto the dispatcher track
/// `base_track`; tile `u` (in job-then-tile order) records onto tracks
/// `base_track + (1 + u)·DISPATCH_STRIDE`, so a dispatch occupies
/// `1 + tiles` units of [`DISPATCH_STRIDE`](pade_trace::track::DISPATCH_STRIDE)
/// tracks. Tile indices — not worker identity — assign the tracks, so the
/// recorded trace is identical at any `PADE_THREADS`, and the results are
/// byte-identical to the untraced call.
///
/// # Panics
///
/// As [`run_qk_block`], per tile.
#[must_use]
pub fn run_qk_batch_traced(
    config: &PadeConfig,
    jobs: &[QkBatchJob<'_>],
    tracer: &Tracer,
    base_track: u64,
) -> Vec<QkBlockResult> {
    let prep_wall = tracer.is_active().then(std::time::Instant::now);
    let mut dedup: HashMap<(usize, usize), usize> = HashMap::new();
    let mut luts: Vec<QRowLut> = Vec::new();
    let mut tiles: Vec<Tile<'_, '_>> = Vec::new();
    for job in jobs {
        for rows in job.queries.chunks(config.pe_rows) {
            let lut_ids = rows
                .iter()
                .map(|q| {
                    *dedup.entry((q.as_ptr() as usize, q.len())).or_insert_with(|| {
                        luts.push(QRowLut::new(q));
                        luts.len() - 1
                    })
                })
                .collect();
            tiles.push((job, rows, lut_ids));
        }
    }
    if let Some(t0) = prep_wall {
        tracer.span_at(
            base_track,
            "engine.q_decompose",
            Cycle::ZERO,
            Cycle::ZERO,
            t0.elapsed().as_nanos() as u64,
        );
    }
    let fan_wall = tracer.is_active().then(std::time::Instant::now);
    let score = |u: usize| {
        let (job, rows, lut_ids) = &tiles[u];
        let borrowed: Vec<&QRowLut> = lut_ids.iter().map(|&i| &luts[i]).collect();
        let track = base_track + (1 + u as u64) * trace_track::DISPATCH_STRIDE;
        run_qk_block_prepared(
            config,
            rows,
            &borrowed,
            &job.keys,
            job.logit_scale,
            BlockTrace { tracer, track },
        )
    };
    let results = pade_par::par_map_indexed(tiles.len(), score);
    if let Some(t0) = fan_wall {
        // Logical length: the longest tile horizon (tiles run concurrently
        // on hardware); wall annotation: the measured fan-out time.
        let horizon = results.iter().map(|r| r.cycles).max().unwrap_or(Cycle::ZERO);
        tracer.span_at(
            base_track,
            "engine.fused_fanout",
            Cycle::ZERO,
            horizon,
            t0.elapsed().as_nanos() as u64,
        );
    }
    results
}

/// The seed's hash-map-based implementation, kept verbatim as the
/// bit-exact oracle for [`run_qk_block`] and as the sequential baseline
/// the `pade-bench` harness measures speedups against.
///
/// # Panics
///
/// Panics if `queries` is empty, exceeds `config.pe_rows`, or any row's
/// length differs from the key dimension.
#[must_use]
pub fn run_qk_block_reference(
    config: &PadeConfig,
    queries: &[&[i8]],
    keys: &BitPlaneMatrix,
    logit_scale: f32,
) -> QkBlockResult {
    config.validate();
    assert!(!queries.is_empty(), "at least one query row required");
    assert!(queries.len() <= config.pe_rows, "more query rows than PE rows");
    for q in queries {
        assert_eq!(q.len(), keys.dims(), "query width must match key dimension");
    }
    let bits = keys.bits();
    let dims = keys.dims();
    let n_keys = keys.tokens();
    let gsat = Gsat::new(config.gsat_width, config.subgroup);
    let window = if config.enable_ooe { config.scoreboard_entries } else { 1 };

    let mut hbm = HbmModel::new(config.hbm);
    let mut k_sram = SramBuffer::new("kv", config.kv_buffer_kb as u64 * 1024);
    let mut q_sram = SramBuffer::new("q", config.q_buffer_kb as u64 * 1024);
    let mut events: EventQueue<(usize, Job)> = EventQueue::new();
    let mut ops = OpCounts::default();
    let mut plane_cache: HashMap<(usize, u32), PlaneState> = HashMap::new();
    let mut planes_fetched = 0u64;

    // Per-row pruning state.
    let mut filters: Vec<GuardFilter> = queries
        .iter()
        .map(|_| {
            let margin = if config.enable_bui_gf { config.guard_margin() } else { f32::INFINITY };
            let margin = if margin.is_finite() { margin } else { 1e30 };
            GuardFilter::new(margin, logit_scale, bits)
        })
        .collect();
    let buis: Vec<Bui> = queries.iter().map(|q| Bui::new(q, bits)).collect();
    let q_sums: Vec<i64> = queries.iter().map(|q| q_sum(q)).collect();
    let mut retained: Vec<Vec<(usize, i64)>> = vec![Vec::new(); queries.len()];

    for q in queries {
        q_sram.write(q.len() as u64);
    }

    // Lanes: row-major, keys distributed round-robin within each row.
    let mut lanes: Vec<Lane> = Vec::new();
    for row in 0..queries.len() {
        for lane_idx in 0..config.lanes_per_row {
            lanes.push(Lane {
                row,
                keys: (lane_idx..n_keys).step_by(config.lanes_per_row).collect(),
                next_key: 0,
                ready: VecDeque::new(),
                outstanding: 0,
                inflight_keys: 0,
                resolved_keys: 0,
                sb: Scoreboard::new(config.scoreboard_entries),
                busy_until: Cycle::ZERO,
                util: UtilizationCounter::new(),
                done: false,
            });
        }
    }

    let plane_sram_bytes = keys.plane_bytes() as u64;
    let mut now = Cycle::ZERO;
    let hard_stop = Cycle(100_000_000); // defensive livelock bound

    // Under the bit-plane-interleaved layout (Fig. 22) one DRAM burst packs
    // the same plane of several consecutive tokens-in-channel, so a single
    // fetch serves that whole group (they even belong to the same lane).
    let coalesce = match config.layout {
        KeyLayout::BitPlaneInterleaved => {
            (config.hbm.burst_bytes / plane_sram_bytes.max(1)).max(1) as usize
        }
        _ => 1,
    };
    let cache_key = |token: usize, plane: u32| -> (usize, u32) {
        match config.layout {
            KeyLayout::ValueRowMajor => (token, 0),
            KeyLayout::BitPlaneLinear => (token, plane),
            KeyLayout::BitPlaneInterleaved => {
                let c = config.hbm.channels;
                let channel = token % c;
                let idx = token / c;
                ((idx / coalesce) * coalesce * c + channel, plane)
            }
        }
    };

    // Requests a plane through the shared K buffer; returns its arrival
    // cycle. Only the first requester pays DRAM; value-major layouts carry
    // all planes of a token in their first fetch, and interleaved layouts
    // deliver a whole coalescing group per burst.
    let request_plane = |token: usize,
                         plane: u32,
                         now: Cycle,
                         hbm: &mut HbmModel,
                         cache: &mut HashMap<(usize, u32), PlaneState>,
                         fetched: &mut u64|
     -> Cycle {
        let key = cache_key(token, plane);
        match cache.get(&key) {
            Some(PlaneState::Present) => now + Cycle(1),
            Some(PlaneState::InFlight(t)) => (*t).max(now + Cycle(1)),
            None => {
                let fetch = config.layout.plane_fetch(token, plane, dims, bits, &config.hbm);
                let arrival = hbm.access(fetch.loc, fetch.bytes, now).complete;
                cache.insert(key, PlaneState::InFlight(arrival));
                *fetched += 1;
                arrival
            }
        }
    };

    while lanes.iter().any(|l| !l.done) && now < hard_stop {
        // Deliver arrivals due this cycle.
        while let Some((lane_id, job)) = events.pop_ready(now) {
            let lane = &mut lanes[lane_id];
            lane.outstanding -= 1;
            lane.ready.push_back(job);
            let key = cache_key(job.token, job.plane);
            if let Some(state @ PlaneState::InFlight(_)) = plane_cache.get_mut(&key) {
                *state = PlaneState::Present;
                k_sram.write(config.hbm.burst_bytes);
            }
        }

        // `lane_id` travels into the event queue alongside the borrow, so
        // the indexed form is clearer than enumerate-with-reborrow here.
        #[allow(clippy::needless_range_loop)]
        for lane_id in 0..lanes.len() {
            let lane = &mut lanes[lane_id];
            if lane.done || now < lane.busy_until {
                continue;
            }

            // Issue new first-plane fetches while the OOE window allows.
            // The window starts small and grows as keys resolve — the
            // observation-window semantics of Fig. 9: early keys mature the
            // threshold before the bulk enters flight.
            let dynamic_window =
                if config.enable_ooe { window.min(2 + 2 * lane.resolved_keys) } else { 1 };
            while lane.inflight_keys < dynamic_window && lane.next_key < lane.keys.len() {
                let token = lane.keys[lane.next_key];
                lane.next_key += 1;
                lane.inflight_keys += 1;
                lane.outstanding += 1;
                let arrival =
                    request_plane(token, 0, now, &mut hbm, &mut plane_cache, &mut planes_fetched);
                events.schedule(arrival, (lane_id, Job { token, plane: 0 }));
                if !config.enable_ooe {
                    break;
                }
            }

            if let Some(job) = lane.ready.pop_front() {
                let plane = keys.token(job.token).plane(job.plane);
                k_sram.read(plane_sram_bytes);
                // Numeric value is mode-independent (Eq. 6); timing and op
                // counts depend on the selection scheme: per-sub-group BS
                // bounds every sub-group at half occupancy (§V-D), one-sided
                // selection does not.
                let contrib = plane_contribution(
                    queries[lane.row],
                    plane,
                    job.plane,
                    bits,
                    q_sums[lane.row],
                    false,
                );
                let (cycles, selected, extra_subs) = if config.enable_bs {
                    let sel = gsat.bs_selected_total(plane);
                    let flipped_groups = gsat.bs_subgroup_selected(plane, 0).len() as u64; // one potential subtract per group
                    (gsat.bs_plane_cycles(plane), sel, flipped_groups / 2)
                } else {
                    (gsat.plane_cycles(plane, BsMode::Ones), plane.count_ones(), 0)
                };
                let balanced = gsat.balanced_cycles(plane, BsMode::Ones).min(cycles);
                lane.util.busy(balanced);
                lane.util.stall_intra(cycles - balanced);
                lane.busy_until = now + Cycle(cycles);
                ops.bit_serial_acc += u64::from(selected) + extra_subs;
                ops.shift_add += 1; // plane-weight application

                // Fold into the scoreboard and decide.
                let partial = match lane.sb.lookup(job.token) {
                    Some(e) => {
                        let p = e.partial + contrib.value;
                        lane.sb.update(job.token, job.plane + 1, p);
                        p
                    }
                    None => {
                        lane.sb
                            .insert(job.token, job.plane + 1, contrib.value)
                            .expect("window bounds in-flight keys to scoreboard capacity");
                        contrib.value
                    }
                };
                let f = &mut filters[lane.row];
                let bui = &buis[lane.row];
                f.observe_lower_bound(bui.lower_bound(partial, job.plane));
                ops.lut_lookup += 1; // BUI LUT read
                match f.decide(bui.upper_bound(partial, job.plane), job.plane) {
                    Decision::Prune => {
                        lane.sb.evict(job.token);
                        lane.inflight_keys -= 1;
                        lane.resolved_keys += 1;
                    }
                    Decision::Retain => {
                        lane.sb.evict(job.token);
                        lane.inflight_keys -= 1;
                        lane.resolved_keys += 1;
                        retained[lane.row].push((job.token, partial));
                    }
                    Decision::NeedMore => {
                        lane.outstanding += 1;
                        let arrival = request_plane(
                            job.token,
                            job.plane + 1,
                            now,
                            &mut hbm,
                            &mut plane_cache,
                            &mut planes_fetched,
                        );
                        events.schedule(
                            arrival,
                            (lane_id, Job { token: job.token, plane: job.plane + 1 }),
                        );
                    }
                }
            } else if lane.outstanding > 0 {
                lane.util.stall_mem(1);
            } else if lane.inflight_keys == 0 && lane.next_key >= lane.keys.len() {
                lane.done = true;
            } else {
                lane.util.stall_mem(1);
            }
        }

        // Advance to the next interesting time (skip long memory waits).
        let next_busy =
            lanes.iter().filter(|l| !l.done && l.busy_until > now).map(|l| l.busy_until).min();
        let next_event = events.next_time().filter(|&t| t > now);
        let target = match (next_busy, next_event) {
            (Some(b), Some(e)) => b.min(e),
            (Some(b), None) => b,
            (None, Some(e)) => e,
            (None, None) => now + Cycle(1),
        }
        .max(now + Cycle(1));
        let skipped = (target - now).0;
        if skipped > 1 {
            for lane in lanes.iter_mut().filter(|l| !l.done) {
                if lane.busy_until <= now && lane.ready.is_empty() && lane.outstanding > 0 {
                    lane.util.stall_mem(skipped - 1);
                }
            }
        }
        now = target;
    }

    for r in &mut retained {
        r.sort_unstable_by_key(|&(t, _)| t);
    }

    let mut traffic = hbm.traffic();
    traffic.merge(&k_sram.traffic());
    traffic.merge(&q_sram.traffic());
    for f in &filters {
        ops.compare += f.compares();
    }

    let horizon = now;
    let mut lane_utils = Vec::with_capacity(lanes.len());
    for mut lane in lanes {
        lane.util.pad_to(horizon);
        lane_utils.push(lane.util);
    }

    QkBlockResult {
        cycles: horizon,
        retained,
        lane_utils,
        ops,
        traffic,
        planes_fetched,
        planes_dense: dense_fetches(n_keys, bits, config, coalesce),
        row_hit_rate: hbm.row_hit_rate(),
        bandwidth_utilization: hbm.bandwidth_utilization(horizon),
    }
}

/// DRAM fetches a dense (no-pruning) bit-serial run issues under `layout`.
fn dense_fetches(n_keys: usize, bits: u32, config: &PadeConfig, coalesce: usize) -> u64 {
    match config.layout {
        KeyLayout::ValueRowMajor => n_keys as u64,
        KeyLayout::BitPlaneLinear => n_keys as u64 * u64::from(bits),
        KeyLayout::BitPlaneInterleaved => {
            let c = config.hbm.channels;
            let groups: u64 = (0..c)
                .map(|ch| {
                    let tokens_in_channel = (n_keys + c - 1 - ch) / c;
                    tokens_in_channel.div_ceil(coalesce) as u64
                })
                .sum();
            groups * u64::from(bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pade_workload::trace::{AttentionTrace, TraceConfig};

    fn small_trace() -> AttentionTrace {
        AttentionTrace::generate(&TraceConfig::small_demo())
    }

    fn run(config: &PadeConfig, trace: &AttentionTrace) -> QkBlockResult {
        let keys =
            BitPlaneMatrix::from_rows(trace.keys().as_slice(), trace.keys().cols(), config.bits)
                .expect("key bit planes");
        let queries: Vec<&[i8]> =
            (0..trace.queries().rows()).map(|i| trace.queries().row(i)).collect();
        run_qk_block(config, &queries, &keys, trace.logit_scale())
    }

    #[test]
    fn retained_scores_are_exact_dot_products() {
        let trace = small_trace();
        let result = run(&PadeConfig::standard(), &trace);
        for (row, retained) in result.retained.iter().enumerate() {
            let logits = trace.exact_logits(row);
            for &(token, score) in retained {
                let expect = (logits[token] / trace.logit_scale()).round() as i64;
                assert_eq!(score, expect, "row {row} token {token}");
            }
        }
    }

    #[test]
    fn pruning_is_safe_every_retained_max_survives() {
        let trace = small_trace();
        let result = run(&PadeConfig::standard(), &trace);
        for (row, retained) in result.retained.iter().enumerate() {
            assert!(!retained.is_empty(), "row {row} must retain something");
            let logits = trace.exact_logits(row);
            let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let best_retained =
                retained.iter().map(|&(t, _)| logits[t]).fold(f32::NEG_INFINITY, f32::max);
            assert!(
                (best_retained - max).abs() < 1e-3,
                "row {row}: the argmax key must be retained ({best_retained} vs {max})"
            );
        }
    }

    #[test]
    fn pruned_tokens_sit_below_guard_margin() {
        let trace = small_trace();
        let config = PadeConfig::standard();
        let result = run(&config, &trace);
        for (row, retained) in result.retained.iter().enumerate() {
            let logits = trace.exact_logits(row);
            let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let kept: Vec<usize> = retained.iter().map(|&(t, _)| t).collect();
            for (j, &logit) in logits.iter().enumerate() {
                if !kept.contains(&j) {
                    assert!(
                        logit <= max - config.guard_margin() + 0.1,
                        "row {row}: pruned token {j} at {logit} vs max {max}"
                    );
                }
            }
        }
    }

    #[test]
    fn disabling_bui_gf_retains_everything() {
        let trace = small_trace();
        let config = PadeConfig { enable_bui_gf: false, ..PadeConfig::standard() };
        let result = run(&config, &trace);
        for retained in &result.retained {
            assert_eq!(retained.len(), trace.keys().rows());
        }
        // Dense bit-serial fetches every unique plane exactly once.
        assert_eq!(result.planes_fetched, result.planes_dense);
    }

    #[test]
    fn pruning_reduces_plane_fetches() {
        // Needs a sequence long enough for the guard threshold to mature
        // past the first OOE wave (burst groups stay alive while any member
        // key is undecided, so short sequences barely save fetches).
        let trace = AttentionTrace::generate(&pade_workload::trace::TraceConfig {
            seq_len: 1024,
            n_queries: 4,
            ..pade_workload::trace::TraceConfig::small_demo()
        });
        let sparse = run(&PadeConfig::standard(), &trace);
        let dense = run(&PadeConfig { enable_bui_gf: false, ..PadeConfig::standard() }, &trace);
        assert!(
            (sparse.planes_fetched as f64) < 0.85 * dense.planes_fetched as f64,
            "early termination should cut plane fetches: {} vs {}",
            sparse.planes_fetched,
            dense.planes_fetched
        );
        assert!(sparse.traffic.dram_read_bytes < dense.traffic.dram_read_bytes);
        // Compute shrinks much harder than fetches (groups amortize).
        assert!(
            (sparse.ops.bit_serial_acc as f64) < 0.75 * dense.ops.bit_serial_acc as f64,
            "compute: {} vs {}",
            sparse.ops.bit_serial_acc,
            dense.ops.bit_serial_acc
        );
    }

    #[test]
    fn ooe_outperforms_in_order() {
        let trace = small_trace();
        let ooe = run(&PadeConfig::standard(), &trace);
        let in_order = run(&PadeConfig { enable_ooe: false, ..PadeConfig::standard() }, &trace);
        assert!(
            ooe.cycles < in_order.cycles,
            "OOE {} should beat in-order {}",
            ooe.cycles,
            in_order.cycles
        );
    }

    #[test]
    fn bs_improves_ops_and_plane_time() {
        let trace = small_trace();
        let with_bs = run(&PadeConfig::standard(), &trace);
        let without = run(&PadeConfig { enable_bs: false, ..PadeConfig::standard() }, &trace);
        // BS accumulates the rarer bit value: never more gated adds, and
        // never more total plane-absorption time (busy + intra stalls).
        assert!(with_bs.ops.bit_serial_acc <= without.ops.bit_serial_acc);
        let time_with: u64 =
            with_bs.lane_utils.iter().map(|u| u.busy_cycles() + u.intra_stalls()).sum();
        let time_without: u64 =
            without.lane_utils.iter().map(|u| u.busy_cycles() + u.intra_stalls()).sum();
        assert!(
            time_with <= time_without,
            "BS should not lengthen plane time: {time_with} vs {time_without}"
        );
    }

    #[test]
    fn interleaved_layout_beats_linear_layout() {
        let trace = small_trace();
        let with_dl = run(&PadeConfig::standard(), &trace);
        let without_dl = run(
            &PadeConfig { layout: KeyLayout::BitPlaneLinear, ..PadeConfig::standard() },
            &trace,
        );
        // The co-designed layout coalesces plane fetches into shared bursts
        // and spreads planes across banks: fewer fetches, faster finish.
        assert!(with_dl.planes_fetched < without_dl.planes_fetched);
        assert!(with_dl.cycles < without_dl.cycles);
        assert!(
            with_dl.traffic.dram_read_bytes < without_dl.traffic.dram_read_bytes,
            "{} vs {}",
            with_dl.traffic.dram_read_bytes,
            without_dl.traffic.dram_read_bytes
        );
    }

    #[test]
    fn shared_plane_cache_deduplicates_fetches_across_rows() {
        let trace = small_trace();
        let config = PadeConfig { enable_bui_gf: false, ..PadeConfig::standard() };
        let result = run(&config, &trace);
        // 4 query rows × 256 keys × 8 planes of compute, but DRAM only sees
        // one burst per (coalescing group, plane): 256 tokens / (16 channels
        // × 4 tokens-per-burst) = 4 groups per channel → 64 × 8 = 512.
        assert_eq!(result.planes_fetched, 512);
        let compute_planes = result.ops.shift_add;
        assert_eq!(compute_planes, 4 * 256 * 8);
    }

    #[test]
    fn optimized_engine_is_bit_identical_to_reference() {
        // Every config axis that touches the restructured code paths:
        // BS on/off (absorb_stats), layouts (flat cache indexing), OOE.
        let trace = small_trace();
        let configs = [
            PadeConfig::standard(),
            PadeConfig { enable_bs: false, ..PadeConfig::standard() },
            PadeConfig { enable_ooe: false, ..PadeConfig::standard() },
            PadeConfig { enable_bui_gf: false, ..PadeConfig::standard() },
            PadeConfig { layout: KeyLayout::BitPlaneLinear, ..PadeConfig::standard() },
            PadeConfig { layout: KeyLayout::ValueRowMajor, ..PadeConfig::standard() },
            PadeConfig { scoreboard_entries: 4, ..PadeConfig::standard() },
        ];
        for config in configs {
            let keys = BitPlaneMatrix::from_rows(
                trace.keys().as_slice(),
                trace.keys().cols(),
                config.bits,
            )
            .unwrap();
            let queries: Vec<&[i8]> =
                (0..trace.queries().rows()).map(|i| trace.queries().row(i)).collect();
            let fast = run_qk_block(&config, &queries, &keys, trace.logit_scale());
            let reference = run_qk_block_reference(&config, &queries, &keys, trace.logit_scale());
            assert_eq!(fast, reference, "layout {:?} bs {}", config.layout, config.enable_bs);
        }
    }

    #[test]
    fn single_row_block_matches_reference() {
        let trace = small_trace();
        let config = PadeConfig::standard();
        let keys =
            BitPlaneMatrix::from_rows(trace.keys().as_slice(), trace.keys().cols(), config.bits)
                .unwrap();
        let row: Vec<&[i8]> = vec![trace.queries().row(0)];
        let fast = run_qk_block(&config, &row, &keys, trace.logit_scale());
        let reference = run_qk_block_reference(&config, &row, &keys, trace.logit_scale());
        assert_eq!(fast, reference);
    }

    #[test]
    fn batch_tiles_a_long_job_into_pe_row_blocks() {
        let trace = AttentionTrace::generate(&pade_workload::trace::TraceConfig {
            n_queries: 20, // 3 blocks of 8, 8, 4 under the standard config
            ..pade_workload::trace::TraceConfig::small_demo()
        });
        let config = PadeConfig::standard();
        let keys: SharedKeyPlanes = Arc::new(
            BitPlaneMatrix::from_rows(trace.keys().as_slice(), trace.keys().cols(), config.bits)
                .unwrap(),
        );
        let queries: Vec<&[i8]> =
            (0..trace.queries().rows()).map(|i| trace.queries().row(i)).collect();
        let job = QkBatchJob {
            queries: queries.clone(),
            keys: Arc::clone(&keys).into(),
            logit_scale: trace.logit_scale(),
        };
        let blocks = run_qk_batch(&config, &[job]);
        assert_eq!(blocks.len(), 3);
        let rows: usize = blocks.iter().map(|b| b.retained.len()).sum();
        assert_eq!(rows, 20);
        // Each block is exactly the standalone block run.
        for (i, chunk) in queries.chunks(config.pe_rows).enumerate() {
            let solo = run_qk_block(&config, chunk, &*keys, trace.logit_scale());
            assert_eq!(blocks[i], solo, "block {i}");
        }
    }

    #[test]
    fn shared_plane_tiles_match_borrowed_tiles() {
        let trace = small_trace();
        let config = PadeConfig::standard();
        let keys: SharedKeyPlanes = Arc::new(
            BitPlaneMatrix::from_rows(trace.keys().as_slice(), trace.keys().cols(), config.bits)
                .unwrap(),
        );
        let queries: Vec<&[i8]> =
            (0..trace.queries().rows()).map(|i| trace.queries().row(i)).collect();
        let scale = trace.logit_scale();
        assert_eq!(
            run_qk_block(&config, &queries, &keys, scale),
            run_qk_block(&config, &queries, &*keys, scale)
        );
        // The Arc is genuinely shared, not cloned per call.
        assert_eq!(Arc::strong_count(&keys), 1);
    }

    #[test]
    fn mixed_key_batch_is_bit_identical_to_solo_blocks() {
        // Two requests with different key tensors batched together must
        // each produce exactly the result of running alone — through the
        // optimized engine AND the seed oracle.
        let config = PadeConfig::standard();
        let traces: Vec<AttentionTrace> = [3u64, 4]
            .iter()
            .map(|&seed| {
                AttentionTrace::generate(&TraceConfig {
                    seed,
                    ..pade_workload::trace::TraceConfig::small_demo()
                })
            })
            .collect();
        let keys: Vec<SharedKeyPlanes> = traces
            .iter()
            .map(|t| {
                Arc::new(
                    BitPlaneMatrix::from_rows(t.keys().as_slice(), t.keys().cols(), config.bits)
                        .unwrap(),
                )
            })
            .collect();
        let jobs: Vec<QkBatchJob> = traces
            .iter()
            .zip(&keys)
            .map(|(t, k)| QkBatchJob {
                queries: (0..t.queries().rows()).map(|i| t.queries().row(i)).collect(),
                keys: Arc::clone(k).into(),
                logit_scale: t.logit_scale(),
            })
            .collect();
        let batch = run_qk_batch(&config, &jobs);
        assert_eq!(batch.len(), 2);
        for (i, job) in jobs.iter().enumerate() {
            let solo = run_qk_block(&config, &job.queries, &keys[i], job.logit_scale);
            assert_eq!(batch[i], solo, "job {i} diverged from its solo run");
            let oracle = run_qk_block_reference(&config, &job.queries, &keys[i], job.logit_scale);
            assert_eq!(batch[i], oracle, "job {i} diverged from the seed oracle");
        }
    }

    /// A multi-head "token step": H jobs sharing one set of query rows,
    /// each with its own key tensor (mixing whole tensors and growable
    /// cache snapshots so both `KeySource` variants flow through the
    /// shared-row prepass).
    fn multi_head_fixture(
        n_heads: usize,
        n_queries: usize,
    ) -> (AttentionTrace, Vec<KeySource>, f32) {
        let trace =
            AttentionTrace::generate(&TraceConfig { n_queries, ..TraceConfig::small_demo() });
        let config = PadeConfig::standard();
        let dims = trace.keys().cols();
        let sources: Vec<KeySource> = (0..n_heads)
            .map(|h| {
                // Per-head keys: rotate the key rows so heads differ.
                let mut data = trace.keys().as_slice().to_vec();
                data.rotate_left(h * dims);
                if h % 2 == 0 {
                    BitPlaneMatrix::from_rows(&data, dims, config.bits).unwrap().into()
                } else {
                    let mut cache =
                        pade_quant::GrowableKeyCache::new(dims, config.bits, 48).unwrap();
                    for row in data.chunks(dims) {
                        cache.append_token(row).unwrap();
                    }
                    cache.snapshot().into()
                }
            })
            .collect();
        (trace, sources, 0.01)
    }

    fn heads_over<'a>(
        sources: &[KeySource],
        queries: &[&'a [i8]],
        scale: f32,
    ) -> Vec<QkBatchJob<'a>> {
        sources
            .iter()
            .map(|keys| QkBatchJob {
                queries: queries.to_vec(),
                keys: keys.clone(),
                logit_scale: scale,
            })
            .collect()
    }

    #[test]
    fn shared_row_batch_is_byte_identical_to_per_head_tiles() {
        let config = PadeConfig::standard();
        // 12 query rows → two engine blocks per head under pe_rows = 8.
        let (trace, sources, scale) = multi_head_fixture(3, 12);
        let queries: Vec<&[i8]> =
            (0..trace.queries().rows()).map(|i| trace.queries().row(i)).collect();
        let batch = run_qk_batch(&config, &heads_over(&sources, &queries, scale));
        let tiles = queries.chunks(config.pe_rows).count();
        assert_eq!(batch.len(), sources.len() * tiles);
        for (h, keys) in sources.iter().enumerate() {
            for (t, rows) in queries.chunks(config.pe_rows).enumerate() {
                let solo = run_qk_block(&config, rows, keys, scale);
                assert_eq!(batch[h * tiles + t], solo, "head {h} tile {t}");
            }
        }
    }

    #[test]
    fn multi_head_decode_step_matches_solo_block_and_oracle() {
        // The decode shape: one query row, several heads, one block each.
        let config = PadeConfig::standard();
        let (trace, sources, scale) = multi_head_fixture(4, 1);
        let row: Vec<&[i8]> = vec![trace.queries().row(0)];
        let batch = run_qk_batch(&config, &heads_over(&sources, &row, scale));
        assert_eq!(batch.len(), sources.len());
        for (h, keys) in sources.iter().enumerate() {
            let solo = run_qk_block(&config, &row, keys, scale);
            assert_eq!(batch[h], solo, "head {h}");
            let oracle = match keys {
                KeySource::Planes(p) => run_qk_block_reference(&config, &row, p, scale),
                KeySource::Cache(_) => solo.clone(),
            };
            assert_eq!(batch[h], oracle, "head {h} vs seed oracle");
        }
    }

    #[test]
    fn cache_snapshot_runs_bit_identical_to_from_scratch() {
        // Grow a cache token by token (the decode path), snapshot it, and
        // run the engine over the snapshot: outputs must be byte-identical
        // to a from-scratch decomposition — and to the seed oracle.
        let trace = small_trace();
        let config = PadeConfig::standard();
        let dims = trace.keys().cols();
        let mut cache = pade_quant::GrowableKeyCache::new(dims, config.bits, 48).unwrap();
        for j in 0..trace.keys().rows() {
            cache.append_token(trace.keys().row(j)).unwrap();
        }
        let snap = cache.snapshot();
        let scratch =
            BitPlaneMatrix::from_rows(trace.keys().as_slice(), dims, config.bits).unwrap();
        let queries: Vec<&[i8]> =
            (0..trace.queries().rows()).map(|i| trace.queries().row(i)).collect();
        let scale = trace.logit_scale();
        let cached = run_qk_block(&config, &queries, &snap, scale);
        assert_eq!(cached, run_qk_block(&config, &queries, &scratch, scale));
        assert_eq!(cached, run_qk_block_reference(&config, &queries, &scratch, scale));
        // A KeySource wrapping the snapshot reads the same planes.
        let job = QkBatchJob { queries, keys: snap.into(), logit_scale: scale };
        assert_eq!(run_qk_batch(&config, &[job]), vec![cached]);
    }

    #[test]
    fn utilization_accounts_for_full_horizon() {
        let trace = small_trace();
        let result = run(&PadeConfig::standard(), &trace);
        for u in &result.lane_utils {
            assert_eq!(u.total(), result.cycles.0, "every lane accounts every cycle");
        }
    }
}
