//! Per-layer host time, measured from outside the program: the requests of
//! a finished replay are replayed once more, layer call by layer call,
//! timing each crate's public function on the run's own inputs.
//!
//! Each node's requests are replayed in the order that node admitted and
//! retired them, against a fresh cache manager with the node's budget and
//! tier. For each request:
//!
//! * `workload` — `AttentionTrace::generate` (and `PromptTokens::key_rows`
//!   for prompt-carrying requests), as admission does;
//! * `quant` — `BitPlaneMatrix::from_rows` over a prefill context, or a
//!   `GrowableKeyCache` prefix plus one `append_token` per decode step;
//! * `cache` — `KvCacheManager::attach` at admission and `detach` at
//!   retirement, for prompt-carrying requests on a caching node;
//! * `core` — every block through `run_qk_batch` at the engine's native
//!   tiling, split by prefill and decode.
//!
//! Peer transfers between nodes (replication, drain migration) are not
//! replayed, so a fleet's replayed cache sees slightly fewer hits than the
//! real run. The replayed blocks' outputs are checked against the run's.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pade_cache::{CacheConfig, CacheLease, KvCacheManager};
use pade_core::engine::{run_qk_batch, KeySource, QkBatchJob, QkBlockResult};
use pade_quant::{BitPlaneMatrix, GrowableKeyCache};
use pade_serve::output_bytes;
use pade_workload::trace::{AttentionTrace, RequestKind};

use crate::replay::Report;
use crate::workloads::Plan;

/// Host seconds and work counts of each replayed layer call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// `AttentionTrace::generate` (+ prompt key rows), seconds.
    pub trace_gen_s: f64,
    /// `BitPlaneMatrix::from_rows` over prefill contexts, seconds.
    pub decompose_s: f64,
    /// Tokens decomposed by `from_rows`.
    pub decompose_tokens: u64,
    /// `GrowableKeyCache` prefix and per-step appends, seconds.
    pub append_s: f64,
    /// Tokens appended to growable caches.
    pub append_tokens: u64,
    /// `run_qk_batch` over decode blocks, seconds.
    pub decode_s: f64,
    /// Decode blocks replayed.
    pub decode_blocks: u64,
    /// `run_qk_batch` over prefill blocks, seconds.
    pub prefill_s: f64,
    /// Prefill blocks replayed.
    pub prefill_blocks: u64,
    /// `KvCacheManager::attach`, seconds.
    pub attach_s: f64,
    /// `KvCacheManager::detach`, seconds.
    pub detach_s: f64,
    /// Requests whose replayed outputs differ from the run's.
    pub mismatched: u64,
}

impl LayerTimes {
    /// Σ replayed layer seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.trace_gen_s
            + self.decompose_s
            + self.append_s
            + self.decode_s
            + self.prefill_s
            + self.attach_s
            + self.detach_s
    }
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = black_box(f());
    *acc += start.elapsed().as_secs_f64();
    out
}

/// A request's keys while it is admitted.
enum Keys {
    Whole(Arc<BitPlaneMatrix>),
    Grown(GrowableKeyCache),
}

/// Replays every request of `report` (a replay of `plan`) layer by layer.
///
/// # Panics
///
/// Panics if a request's operands fail to decompose, which the run itself
/// would have panicked on first.
#[must_use]
pub fn replay_layers(plan: &Plan, report: &Report) -> LayerTimes {
    let mut t = LayerTimes::default();
    let nodes = plan.target.nodes();
    let mut per_node: Vec<Vec<(u64, u8, usize)>> = vec![Vec::new(); nodes.len()];
    for (node, c) in report.completions() {
        // A node retires at the end of an iteration and admits at the start
        // of the next one at the same clock, so detaches sort first.
        per_node[node].push((c.admitted.0, 1, c.id));
        per_node[node].push((c.finished.0, 0, c.id));
    }
    let expected: HashMap<usize, Vec<u8>> =
        report.completions().into_iter().map(|(_, c)| (c.id, c.output_bytes())).collect();

    for (config, mut events) in nodes.into_iter().zip(per_node) {
        events.sort_unstable();
        let engine = &config.engine;
        let mut manager: Option<KvCacheManager> = None;
        let mut leases: HashMap<usize, (GrowableKeyCache, CacheLease)> = HashMap::new();
        for (_, phase, id) in events {
            let spec = &plan.arrivals[id];
            if phase == 0 {
                if let Some((cache, lease)) = leases.remove(&id) {
                    let prompt = spec.prompt.as_ref().expect("leased requests carry prompts");
                    let m = manager.as_mut().expect("a lease implies a manager");
                    timed(&mut t.detach_s, || {
                        m.detach(spec.session, prompt.shared_ids(), cache, lease)
                    });
                }
                continue;
            }
            let trace = timed(&mut t.trace_gen_s, || AttentionTrace::generate(&spec.trace));
            let dims = trace.keys().cols();
            let seq_len = trace.keys().rows();
            let prompt_rows = spec
                .prompt
                .as_ref()
                .map(|p| timed(&mut t.trace_gen_s, || p.key_rows(dims, engine.bits)));
            let key_row = |row: usize| -> &[i8] {
                match &prompt_rows {
                    Some(rows) => &rows[row * dims..(row + 1) * dims],
                    None => trace.keys().row(row),
                }
            };
            let prefix = |tokens: usize| -> &[i8] {
                match &prompt_rows {
                    Some(rows) => &rows[..tokens * dims],
                    None => trace.key_prefix(tokens),
                }
            };
            let base = spec.kind.context_len(seq_len, 0);

            let mut leased = None;
            let mut keys = match (&spec.prompt, config.prefix_cache) {
                (Some(prompt), Some(budget)) => {
                    let m = manager.get_or_insert_with(|| {
                        let shape =
                            CacheConfig::new(dims, engine.bits, config.kv_chunk_tokens.max(1))
                                .with_budget(budget);
                        let mut m =
                            KvCacheManager::new(shape).expect("engine shape is a cache shape");
                        if let Some(tier) = &config.tier {
                            m.set_tier(Some(tier.build().expect("spill tier builds")));
                        }
                        m
                    });
                    let attached = timed(&mut t.attach_s, || {
                        m.attach(spec.session, &prompt.ids()[..base], prefix(base))
                    })
                    .expect("prompt key rows decompose");
                    leased = Some(attached.lease);
                    Keys::Grown(attached.cache)
                }
                _ => match spec.kind {
                    RequestKind::Prefill { .. } => {
                        t.decompose_tokens += base as u64;
                        Keys::Whole(Arc::new(
                            timed(&mut t.decompose_s, || {
                                BitPlaneMatrix::from_rows(prefix(base), dims, engine.bits)
                            })
                            .expect("key tensor decomposes"),
                        ))
                    }
                    RequestKind::Decode { .. } => {
                        t.append_tokens += base as u64;
                        Keys::Grown(timed(&mut t.append_s, || {
                            let mut cache = GrowableKeyCache::new(
                                dims,
                                engine.bits,
                                config.kv_chunk_tokens.max(1),
                            )
                            .expect("cache shape is valid");
                            cache.append_rows(prefix(base)).expect("prompt prefix decomposes");
                            cache
                        }))
                    }
                },
            };

            let (rows_per_block, blocks, is_decode) = match spec.kind {
                RequestKind::Prefill { rows } => {
                    (engine.pe_rows, rows.div_ceil(engine.pe_rows), false)
                }
                RequestKind::Decode { steps } => (1, steps, true),
            };
            let total = spec.kind.tokens();
            let mut results: Vec<QkBlockResult> = Vec::with_capacity(blocks);
            for b in 0..blocks {
                let lo = b * rows_per_block;
                let job = QkBatchJob {
                    queries: (lo..(lo + rows_per_block).min(total))
                        .map(|i| trace.queries().row(i))
                        .collect(),
                    keys: match &keys {
                        Keys::Whole(planes) => KeySource::Planes(Arc::clone(planes)),
                        Keys::Grown(cache) => KeySource::Cache(cache.snapshot()),
                    },
                    logit_scale: trace.logit_scale(),
                };
                let acc = if is_decode { &mut t.decode_s } else { &mut t.prefill_s };
                let mut out = timed(acc, || run_qk_batch(engine, &[job]));
                results.push(out.pop().expect("one job in, one result out"));
                if is_decode {
                    t.decode_blocks += 1;
                } else {
                    t.prefill_blocks += 1;
                }
                // A finished decode step appends the key of the token it
                // generated before the next step attends.
                if let (Keys::Grown(cache), true) = (&mut keys, b + 1 < blocks) {
                    let target = spec.kind.context_len(seq_len, b + 1);
                    while cache.tokens() < target {
                        let row = key_row(cache.tokens());
                        timed(&mut t.append_s, || cache.append_token(row))
                            .expect("generated key row decomposes");
                        t.append_tokens += 1;
                    }
                }
            }
            if expected.get(&id) != Some(&output_bytes(&results)) {
                t.mismatched += 1;
            }
            if let (Some(lease), Keys::Grown(cache)) = (leased, keys) {
                leases.insert(id, (cache, lease));
            }
        }
    }
    t
}
