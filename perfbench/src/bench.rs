//! One benchmark run: set up a workload, replay it for the requested
//! number of seconds, check every output, and compute the end-to-end
//! metrics (`trace = false`) or the per-layer metrics (`trace = true`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pade_serve::{output_bytes, reference_outputs};
use pade_trace::{Recorder, StageBreakdown, TraceSink, Tracer};
use pade_workload::trace::RequestKind;

use crate::json::{number, quote};
use crate::layers::{replay_layers, LayerTimes};
use crate::replay::{self, percentile, Report, SimStats};
use crate::stats::median;
use crate::workloads::{build, Plan, Size, Workload};

/// Default workload seed, used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Timed replays per end-to-end run, at least.
const MIN_REPLAYS: usize = 3;
/// Untraced + traced + layer-replay rounds per traced run, at least.
const MIN_TRACE_ROUNDS: usize = 2;
/// Set-up repeats, at least, and the time they may take beyond that.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// Requests checked against the seed oracle, at least.
const ORACLE_SAMPLE: usize = 4;

/// Traced stages whose wall time counts as attributed. They do not nest
/// inside one another on the serving path: `engine.qk_block` runs inside
/// `engine.fused_fanout`, `cache.evict` mostly inside `cache.attach`, and
/// `router.route` brackets the whole fleet replay, so those are left out.
const ATTRIBUTED_STAGES: [&str; 5] = [
    "engine.q_decompose",
    "engine.fused_fanout",
    "cache.attach",
    "quant.append_rows",
    "quant.seal_chunk",
];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end or per-layer metrics, as the run mode asks.
    pub metrics: Vec<Metric>,
    /// Request outputs checked.
    pub attempted: u64,
    /// Request outputs missing or wrong.
    pub failed: u64,
    /// Host wall seconds of each timed untraced replay.
    pub wall_samples: Vec<f64>,
    /// Calibration seconds around each timed untraced replay (end-to-end
    /// runs): the mean of the passes just before and just after it.
    pub cal_samples: Vec<f64>,
    /// Fingerprint of every request's output bytes.
    pub output_fingerprint: String,
    /// Fingerprint of the simulated statistics.
    pub sim_fingerprint: String,
    /// Requests checked against the seed oracle.
    pub oracle_checked: usize,
    /// Requests per replay.
    pub requests: usize,
    /// Traced stage breakdown of the last traced replay (traced runs).
    pub breakdown: Option<StageBreakdown>,
}

impl Outcome {
    /// The metrics as JSON object members.
    fn metrics_json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        members.join(", ")
    }

    /// The run's result: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The run's record for compare mode: the result plus what identifies
    /// the run, its wall samples and its fingerprints.
    #[must_use]
    pub fn record_line(&self, opts: &Options, threads: usize) -> String {
        let walls: Vec<String> = self.wall_samples.iter().map(|w| number(*w)).collect();
        let cals: Vec<String> = self.cal_samples.iter().map(|w| number(*w)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"size\": {}, \"threads\": {threads}, \
             \"trace\": {}, \"requests\": {}, \"attempted\": {}, \"failed\": {}, \
             \"output_fingerprint\": {}, \"sim_fingerprint\": {}, \"wall_samples\": [{}], \
             \"cal_samples\": [{}], \"metrics\": {{{}}}}}",
            quote(opts.workload.name()),
            opts.seed,
            quote(opts.size.label()),
            opts.trace,
            self.requests,
            self.attempted,
            self.failed,
            quote(&self.output_fingerprint),
            quote(&self.sim_fingerprint),
            walls.join(", "),
            cals.join(", "),
            self.metrics_json()
        )
    }
}

/// Checks replays against the first one, counting attempts and failures.
struct Checker {
    outputs: Vec<Option<Vec<u8>>>,
    sim: SimStats,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(plan: &Plan, first: &Report) -> Self {
        let outputs = replay::outputs(plan, first);
        let sim = SimStats::of(plan, first);
        let missing = outputs.iter().filter(|o| o.is_none()).count() as u64;
        Checker { outputs, sim, attempted: plan.arrivals.len() as u64, failed: missing }
    }

    /// Every request's output bytes and timeline must equal the first
    /// replay's.
    fn check(&mut self, plan: &Plan, report: &Report) {
        let outputs = replay::outputs(plan, report);
        let sim = SimStats::of(plan, report);
        self.attempted += outputs.len() as u64;
        let mut bad = 0;
        for (id, (a, b)) in outputs.iter().zip(&self.outputs).enumerate() {
            let same_timeline = sim.requests.get(id) == self.sim.requests.get(id);
            if a.is_none() || a != b || !same_timeline {
                bad += 1;
            }
        }
        if bad == 0 && sim != self.sim {
            bad = 1;
        }
        self.failed += bad;
    }
}

/// A deterministic sample covering every (node, request kind) pair, topped
/// up with evenly spaced requests.
fn oracle_sample(plan: &Plan, sim: &SimStats) -> Vec<usize> {
    let mut ids = Vec::new();
    let mut seen = Vec::new();
    for (id, r) in sim.requests.iter().enumerate() {
        let key = (r.node, matches!(plan.arrivals[id].kind, RequestKind::Decode { .. }));
        if !seen.contains(&key) {
            seen.push(key);
            ids.push(id);
        }
    }
    let n = plan.arrivals.len();
    let step = (n / ORACLE_SAMPLE).max(1);
    for id in (step / 2..n).step_by(step) {
        if ids.len() >= seen.len() + ORACLE_SAMPLE {
            break;
        }
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    ids
}

/// Compares the sampled requests of the first replay against the seed
/// oracle; returns the number that differ.
fn check_oracle(plan: &Plan, checker: &Checker, sample: &[usize]) -> u64 {
    let nodes = plan.target.nodes();
    sample
        .iter()
        .filter(|&&id| {
            let node = checker.sim.requests.get(id).map_or(0, |r| r.node);
            let oracle = reference_outputs(&plan.arrivals[id], &nodes[node].engine);
            checker.outputs[id].as_deref() != Some(output_bytes(&oracle).as_slice())
        })
        .count() as u64
}

/// Host memory high-water mark of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds one [`calibrate`] pass takes on an otherwise idle machine (a
/// 2-vCPU x86-64 VM); the scale that turns calibrated time back into
/// seconds.
const CALIBRATION_REF_S: f64 = 0.016;

/// Seconds of one pass of a fixed reference computation that shares no
/// code with the program: xorshift-indexed loads, AND + popcount and stores
/// over a 1 MiB table. On a shared machine the speed available to the
/// benchmark drifts by ±20% over minutes; host times are divided by the
/// passes measured around them, so the drift cancels while a change to the
/// program still moves them in full.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut table = vec![0u64; 1 << 17];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for w in &mut table {
        *w = next();
    }
    let mask = table.len() - 1;
    let mut acc = 0u64;
    for _ in 0..3_000_000 {
        let r = next();
        let (i, j) = (r as usize & mask, (r >> 32) as usize & mask);
        acc += u64::from((table[i] & table[j]).count_ones());
        table[i] = table[i].rotate_left(1) ^ acc;
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Times `replay::run`, returning the report and its wall seconds.
fn timed_run(plan: &Plan, tracer: &Tracer) -> (Report, f64) {
    let start = Instant::now();
    let report = black_box(replay::run(plan, tracer));
    (report, start.elapsed().as_secs_f64())
}

/// Runs the benchmark as `opts` asks.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    // Set-up: arrival generation plus configuration build, repeated so the
    // median is steady.
    let mut setup = Vec::new();
    let cal_before_setup = calibrate();
    let setup_start = Instant::now();
    let mut plan = None;
    while setup.len() < MIN_SETUPS || setup_start.elapsed() < SETUP_BUDGET {
        let start = Instant::now();
        let built = black_box(build(opts.workload, opts.size, opts.seed));
        setup.push(start.elapsed().as_secs_f64());
        // The previous build is dropped outside the timed region.
        plan = Some(built);
    }
    let plan = plan.expect("set-up ran at least once");
    let setup_cal = (cal_before_setup + calibrate()) / 2.0;

    let window = Instant::now();
    let seconds = Duration::from_secs_f64(opts.seconds.max(0.0));
    let off = Tracer::disabled();
    // The first replay warms caches and is the reference every later replay
    // must reproduce; it is not a timed sample.
    let first = replay::run(&plan, &off);
    let mut checker = Checker::new(&plan, &first);

    let mut walls = Vec::new();
    let mut cals = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layer_runs: Vec<LayerTimes> = Vec::new();
    let mut last_trace: Option<(StageBreakdown, f64)> = None;
    if opts.trace {
        while layer_runs.len() < MIN_TRACE_ROUNDS || window.elapsed() < seconds {
            let (report, wall) = timed_run(&plan, &off);
            checker.check(&plan, &report);
            walls.push(wall);
            drop(report);

            let recorder = Arc::new(Recorder::new());
            let tracer = Tracer::new(Arc::clone(&recorder) as Arc<dyn TraceSink>);
            let (report, wall) = timed_run(&plan, &tracer);
            checker.check(&plan, &report);
            traced_walls.push(wall);
            drop(report);
            last_trace = Some((recorder.snapshot().breakdown(), wall));

            let layers = replay_layers(&plan, &first);
            checker.attempted += plan.arrivals.len() as u64;
            checker.failed += layers.mismatched;
            layer_runs.push(layers);
        }
    } else {
        let mut cal_before = calibrate();
        while walls.len() < MIN_REPLAYS || window.elapsed() < seconds {
            let (report, wall) = timed_run(&plan, &off);
            let cal_after = calibrate();
            checker.check(&plan, &report);
            walls.push(wall);
            cals.push((cal_before + cal_after) / 2.0);
            cal_before = cal_after;
        }
    }

    let sample = oracle_sample(&plan, &checker.sim);
    checker.attempted += sample.len() as u64;
    checker.failed += check_oracle(&plan, &checker, &sample);

    let sim = &checker.sim;
    let metrics = if opts.trace {
        let (breakdown, traced_wall) = last_trace.as_ref().expect("traced at least once");
        layer_metrics(sim, &walls, &traced_walls, &layer_runs, breakdown, *traced_wall)
    } else {
        let calibrated: Vec<f64> =
            walls.iter().zip(&cals).map(|(w, c)| w * CALIBRATION_REF_S / c).collect();
        end_to_end_metrics(sim, median(&setup) * CALIBRATION_REF_S / setup_cal, &calibrated)
    };
    Outcome {
        metrics,
        attempted: checker.attempted,
        failed: checker.failed,
        output_fingerprint: replay::output_fingerprint(&checker.outputs),
        sim_fingerprint: replay::sim_fingerprint(sim),
        oracle_checked: sample.len(),
        requests: plan.arrivals.len(),
        wall_samples: walls,
        cal_samples: cals,
        breakdown: last_trace.map(|(b, _)| b),
    }
}

fn end_to_end_metrics(sim: &SimStats, setup_s: f64, walls: &[f64]) -> Vec<Metric> {
    let lat = sim.latencies();
    let slo = if sim.slo_total == 0 {
        // No request carries an SLO: vacuously met.
        1.0
    } else {
        sim.slo_met as f64 / sim.slo_total as f64
    };
    vec![
        Metric { name: "setup_s", unit: "s", value: setup_s },
        Metric { name: "wall_s", unit: "s", value: median(walls) },
        Metric { name: "engine_cycles", unit: "cycles", value: sim.engine_cycles as f64 },
        Metric { name: "sim_tokens_per_s", unit: "tok/s", value: sim.tokens_per_s },
        Metric { name: "latency_p50_cycles", unit: "cycles", value: percentile(&lat, 0.5) as f64 },
        Metric { name: "latency_p90_cycles", unit: "cycles", value: percentile(&lat, 0.9) as f64 },
        Metric { name: "slo_attainment", unit: "ratio", value: slo },
        Metric { name: "peak_rss_mb", unit: "MB", value: peak_rss_mb() },
    ]
}

/// `num ÷ den`, 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn layer_metrics(
    sim: &SimStats,
    walls: &[f64],
    traced_walls: &[f64],
    layer_runs: &[LayerTimes],
    breakdown: &StageBreakdown,
    traced_wall: f64,
) -> Vec<Metric> {
    let med = |f: fn(&LayerTimes) -> f64| median(&layer_runs.iter().map(f).collect::<Vec<_>>());
    let first = &layer_runs[0];
    let counter = |name: &str| {
        breakdown.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v) as f64
    };
    let attributed_nanos: u64 =
        ATTRIBUTED_STAGES.iter().filter_map(|s| breakdown.get(s)).map(|s| s.total_wall_nanos).sum();
    let memo_hits = counter("engine.gsat_memo_hits");
    let wall = median(walls);
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("workload.trace_gen_s", "s", med(|l| l.trace_gen_s)),
        m("quant.decompose_s", "s", med(|l| l.decompose_s)),
        m("quant.decompose_tokens", "count", first.decompose_tokens as f64),
        m("quant.append_s", "s", med(|l| l.append_s)),
        m("quant.append_tokens", "count", first.append_tokens as f64),
        m("engine.decode_s", "s", med(|l| l.decode_s)),
        m("engine.decode_blocks", "count", first.decode_blocks as f64),
        m("engine.prefill_s", "s", med(|l| l.prefill_s)),
        m("engine.prefill_blocks", "count", first.prefill_blocks as f64),
        m(
            "engine.retained_frac",
            "ratio",
            ratio(sim.retained_pairs as f64, sim.scored_pairs as f64),
        ),
        m(
            "engine.planes_fetched_frac",
            "ratio",
            ratio(sim.planes_fetched as f64, sim.planes_dense as f64),
        ),
        m("engine.dram_read_bytes", "bytes", sim.dram_read_bytes as f64),
        m("engine.sram_read_bytes", "bytes", sim.sram_read_bytes as f64),
        m(
            "engine.gsat_memo_hit_rate",
            "ratio",
            ratio(memo_hits, memo_hits + counter("engine.gsat_sweeps")),
        ),
        m("engine.popcounts", "count", counter("engine.popcounts")),
        m("cache.attach_s", "s", med(|l| l.attach_s)),
        m("cache.detach_s", "s", med(|l| l.detach_s)),
        m("cache.hit_rate", "ratio", sim.cache_hit_rate),
        m("cache.decomposed_tokens", "count", sim.cache_decomposed_tokens as f64),
        m("cache.evictions", "count", sim.cache_evictions as f64),
        m("cache.resident_bytes_max", "bytes", sim.cache_resident_bytes_max),
        m("tier.spilled_chunks", "count", sim.tier_spilled_chunks as f64),
        m("tier.spilled_bytes", "bytes", sim.tier_spilled_bytes as f64),
        m("tier.fetched_tokens", "count", sim.tier_fetched_tokens as f64),
        m("router.affinity_frac", "ratio", sim.affinity_frac),
        m("router.load_imbalance", "ratio", sim.load_imbalance),
        m("router.transfer_bytes", "bytes", sim.transfer_bytes as f64),
        m("router.transfer_cycles", "cycles", sim.transfer_cycles as f64),
        m("router.replications", "count", sim.replications as f64),
        m("router.migrations", "count", sim.migrations as f64),
        m("serve.iterations", "count", sim.iterations as f64),
        m("serve.occupancy_mean", "ratio", sim.occupancy_mean),
        m("serve.preemptions", "count", sim.preemptions as f64),
        m("serve.queue_cycles", "cycles", sim.queue_cycles as f64),
        m("serve.stalled_cycles", "cycles", sim.stalled_cycles as f64),
        m("serve.preempted_cycles", "cycles", sim.preempted_cycles as f64),
        m("serve.other_s", "s", wall - med(LayerTimes::total_s)),
        m("trace.overhead_frac", "ratio", ratio(median(traced_walls), wall) - 1.0),
        m("trace.attributed_frac", "ratio", ratio(attributed_nanos as f64 * 1e-9, traced_wall)),
    ]
}
