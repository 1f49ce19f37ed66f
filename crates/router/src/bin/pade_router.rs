//! `pade-router` — replay a multi-tenant arrival trace through an N-node
//! fleet and report fleet-level placement, cache and latency digests.
//!
//! ```text
//! cargo run --release -p pade-router --bin pade-router                  # 3-node affinity fleet
//! cargo run --release -p pade-router --bin pade-router -- --quick      # CI smoke
//! cargo run --release -p pade-router --bin pade-router -- \
//!     --nodes 4 --policy round-robin --trace-out /tmp/fleet.json
//! cargo run --release -p pade-router --bin pade-router -- \
//!     --nodes 3 --spill-dir /tmp/fleet-spill --drain-node 0
//! ```
//!
//! Every run routes the same arrival trace under the requested policy and
//! prints the fleet summary (pooled latency percentiles, cache hit rate,
//! load imbalance, engine op/traffic totals) plus one line per node —
//! a node that served nothing reports `n=0 —`, never a zero p99. With
//! `--trace-out` the run records deterministic stage spans across the
//! router/serve/cache/engine layers and writes a Chrome-trace JSON file
//! loadable in Perfetto or `chrome://tracing`.
//!
//! `--spill-dir` gives every node a `pade-tier` disk spill store (one
//! `node<k>/` subdirectory each): budget-evicted sealed chunks demote to
//! disk and later prefix hits re-adopt them. `--drain-node K` drains
//! node K halfway through the trace — its shards migrate to wherever
//! its traffic re-homes, costed against the `pade-dist` interconnect
//! model. Outputs are byte-identical with the tier on, off or
//! mid-migration; only the accounting moves.

use std::process::exit;
use std::sync::Arc;

use pade_cache::{CacheBudget, TierConfig};
use pade_router::{route_traced, DrainPlan, FleetTierConfig, RoutePolicy, RouterConfig};
use pade_serve::scheduler::ScheduleMode;
use pade_serve::server::ServeConfig;
use pade_trace::{save_chrome_trace, Recorder, TraceSink, Tracer};
use pade_workload::prompt::{generate_multi_tenant_arrivals, MultiTenantConfig};

struct Args {
    quick: bool,
    nodes: usize,
    policy: RoutePolicy,
    trace_out: Option<std::path::PathBuf>,
    sessions: Option<usize>,
    seed: Option<u64>,
    spill_dir: Option<std::path::PathBuf>,
    drain_node: Option<usize>,
    cache_budget: Option<u64>,
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires a valid value");
        exit(2);
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        nodes: 3,
        policy: RoutePolicy::Affinity,
        trace_out: None,
        sessions: None,
        seed: None,
        spill_dir: None,
        drain_node: None,
        cache_budget: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--nodes" => args.nodes = parse("--nodes", it.next()),
            "--policy" => {
                let label: String = parse("--policy", it.next());
                args.policy = match label.as_str() {
                    "affinity" => RoutePolicy::Affinity,
                    "round-robin" => RoutePolicy::RoundRobin,
                    "least-loaded" => RoutePolicy::LeastLoaded,
                    other => {
                        eprintln!(
                            "unknown policy {other}: expected affinity, round-robin or \
                             least-loaded"
                        );
                        exit(2);
                    }
                };
            }
            "--trace-out" => {
                args.trace_out =
                    Some(std::path::PathBuf::from(parse::<String>("--trace-out", it.next())));
            }
            "--sessions" => args.sessions = Some(parse("--sessions", it.next())),
            "--seed" => args.seed = Some(parse("--seed", it.next())),
            "--spill-dir" => {
                args.spill_dir =
                    Some(std::path::PathBuf::from(parse::<String>("--spill-dir", it.next())));
            }
            "--drain-node" => args.drain_node = Some(parse("--drain-node", it.next())),
            "--cache-budget" => args.cache_budget = Some(parse("--cache-budget", it.next())),
            "--help" | "-h" => {
                println!(
                    "usage: pade-router [--quick] [--nodes N] [--policy affinity|round-robin|\
                     least-loaded] [--trace-out PATH] [--sessions N] \
                     [--seed X] [--spill-dir PATH] [--drain-node K] [--cache-budget BYTES]"
                );
                exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                exit(2);
            }
        }
    }
    if args.nodes == 0 {
        eprintln!("--nodes must be at least 1");
        exit(2);
    }
    if let Some(k) = args.drain_node {
        if args.nodes < 2 {
            eprintln!("--drain-node needs at least 2 nodes to re-home traffic");
            exit(2);
        }
        if k >= args.nodes {
            eprintln!("--drain-node {k} is out of range for {} nodes", args.nodes);
            exit(2);
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut workload = MultiTenantConfig::small_demo();
    if args.quick {
        workload.tenants = 2;
        workload.sessions_per_tenant = 2;
        workload.per_tenant.turns_per_session = 2;
    }
    if let Some(sessions) = args.sessions {
        if sessions == 0 {
            eprintln!("--sessions must be at least 1");
            exit(2);
        }
        workload.sessions_per_tenant = sessions;
    }
    if let Some(seed) = args.seed {
        workload.seed = seed;
    }
    let arrivals = generate_multi_tenant_arrivals(&workload);
    let node = ServeConfig {
        kv_chunk_tokens: 32,
        prefix_cache: Some(
            args.cache_budget.map_or_else(CacheBudget::unlimited, CacheBudget::bytes),
        ),
        ..ServeConfig::standard()
    };
    let mut fleet = RouterConfig::homogeneous(node, args.nodes, args.policy);
    if let Some(dir) = &args.spill_dir {
        // One subdirectory per node: the fleet shares a root, the spill
        // stores never share files.
        for (k, node) in fleet.nodes.iter_mut().enumerate() {
            node.tier = Some(TierConfig::Disk(dir.join(format!("node{k}"))));
        }
    }
    if args.spill_dir.is_some() || args.drain_node.is_some() {
        fleet.tier = Some(FleetTierConfig::default());
    }
    if let Some(k) = args.drain_node {
        fleet.drain = Some(DrainPlan { node: k, after_arrivals: arrivals.len() / 2 });
        println!("drain plan: node {k} drains after {} arrivals", arrivals.len() / 2);
    }

    let recorder = args.trace_out.as_ref().map(|_| Arc::new(Recorder::new()));
    let tracer = match &recorder {
        Some(r) => Tracer::new(Arc::clone(r) as Arc<dyn TraceSink>),
        None => Tracer::disabled(),
    };

    println!(
        "pade-router: {} arrivals over {} nodes, {} policy",
        arrivals.len(),
        args.nodes,
        args.policy.label()
    );
    let start = std::time::Instant::now();
    let report = route_traced(&fleet, &arrivals, ScheduleMode::Batched, &tracer);
    let wall = start.elapsed().as_secs_f64();

    let s = &report.summary;
    println!(
        "fleet: {} tokens, makespan {}, {:.1} Mtok/s sim, load imbalance {:.2}  ({wall:.3}s wall)",
        s.tokens,
        s.makespan,
        s.tokens_per_s / 1e6,
        s.load_imbalance
    );
    println!("fleet latency: {}", s.latency);
    // Only SLO-carrying workloads produce attainment lines; a tenant that
    // completed nothing renders as `n=0 —` via the summary's Display.
    for line in &s.slo {
        println!("fleet slo: {line}");
    }
    if s.preemptions > 0 || s.resumes > 0 {
        println!("fleet scheduling: {} preemptions, {} resumes", s.preemptions, s.resumes);
    }
    println!("fleet {}", s.flight);
    println!(
        "fleet cache: {} hit tokens / {} decomposed ({:.1}% hit rate), {} evictions; placements: \
         {} session-affinity, {} prefix-affinity",
        s.cache_hit_tokens,
        s.cache_decomposed_tokens,
        s.cache_hit_rate * 100.0,
        s.cache_evictions,
        s.session_affinity_routes,
        s.prefix_affinity_routes
    );
    if fleet.tier.is_some() {
        println!(
            "fleet tier: {} chunks spilled, {} tokens re-adopted from spill; {} peer fetches \
             ({} migrations, {} replications), {} transfer bytes / {} cycles / {:.1} pJ",
            s.cache_spilled_chunks,
            s.cache_fetched_tokens,
            s.peer_fetches,
            s.migrations,
            s.replications,
            s.transfer_bytes,
            s.transfer_cycles,
            s.transfer_pj
        );
    }
    println!(
        "fleet engine ops: {} equivalent adds ({} bit-serial acc, {} LUT lookups); traffic: {} \
         DRAM + {} SRAM bytes",
        s.ops.equivalent_adds(),
        s.ops.bit_serial_acc,
        s.ops.lut_lookup,
        s.traffic.dram_total_bytes(),
        s.traffic.sram_total_bytes()
    );
    for (k, node_report) in report.node_reports.iter().enumerate() {
        println!(
            "  node {k}: {} tokens, latency {}",
            node_report.summary.tokens, node_report.summary.latency
        );
    }

    if let (Some(path), Some(recorder)) = (&args.trace_out, &recorder) {
        let snapshot = recorder.snapshot();
        snapshot.check_well_formed().unwrap_or_else(|e| panic!("malformed trace: {e}"));
        save_chrome_trace(&snapshot, path)
            .unwrap_or_else(|e| panic!("failed to write trace file {}: {e}", path.display()));
        let stages: Vec<&str> = snapshot.stage_names().into_iter().collect();
        println!(
            "trace: {} events / {} spans across {} stages -> {}",
            snapshot.event_count(),
            snapshot.span_count(),
            stages.len(),
            path.display()
        );
        println!("trace stages: {}", stages.join(", "));
    }
}
