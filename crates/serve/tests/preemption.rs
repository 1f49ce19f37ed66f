//! Preemption determinism suite — the scheduling layer's guarantees,
//! property-tested:
//!
//! 1. **Chunked prefill is output-invariant** — any
//!    `prefill_chunk_tokens` in `1..=pe_rows` yields byte-identical
//!    per-request outputs and the same completion set as the unchunked
//!    run and the seed oracle `run_qk_block_reference`.
//! 2. **Preemption is output-invariant** — any forced preemption
//!    cadence (`preempt_every`) and the SLO-aware policy change *when*
//!    sessions run, never *what* they compute: outputs stay byte-equal
//!    to the non-preemptive FCFS run.
//! 3. **Parked planes resume bitwise-intact** — a session suspended at
//!    a chunk/step boundary and resumed later holds key planes bitwise
//!    equal to the same session in a never-suspended solo run, at every
//!    resident-token count it passes through.
//! 4. **Chunked prefill runs each tile once** — slices never cross a
//!    `pe_rows` tile, engine work is counted once per tile, and every
//!    slice is charged its tile's full cycle count.

use pade_serve::scheduler::{ScheduleMode, SchedulePolicy};
use pade_serve::server::{serve, Completion, ServeConfig, ServeReport};
use pade_serve::{output_bytes, reference_outputs, Node};
use pade_sim::Cycle;
use pade_workload::trace::{generate_arrivals, generate_tenant_mix, ArrivalConfig, TenantLoad};
use proptest::prelude::*;

/// A small, fast workload: tiny contexts, a handful of requests.
fn workload(seed: u64, n_requests: usize, mean_gap: f64) -> ArrivalConfig {
    ArrivalConfig {
        n_requests,
        mean_interarrival_cycles: mean_gap,
        decode_steps: 2,
        prefill_rows: 10, // not a pe_rows multiple: exercises ragged blocks
        seq_len: 128,
        seed,
        ..ArrivalConfig::small_demo()
    }
}

/// Two tenants with opposite shapes: a latency-sensitive decode tenant
/// (high priority, tight SLO) and a throughput prefill tenant flooding
/// long prompts — the contention the SLO-aware policy exists for.
fn tenant_mix(seed: u64, fg_slo: Option<u64>) -> Vec<pade_workload::trace::RequestArrival> {
    generate_tenant_mix(&[
        TenantLoad {
            tenant: 0,
            priority: 10,
            tenant_slo: fg_slo,
            arrivals: ArrivalConfig { decode_fraction: 1.0, ..workload(seed, 3, 600.0) },
        },
        TenantLoad {
            tenant: 1,
            priority: 0,
            tenant_slo: None,
            arrivals: ArrivalConfig {
                decode_fraction: 0.0,
                prefill_rows: 24,
                ..workload(seed ^ 0x9E37_79B9, 2, 400.0)
            },
        },
    ])
}

fn by_id(report: &ServeReport) -> Vec<&Completion> {
    let mut v: Vec<&Completion> = report.completions.iter().collect();
    v.sort_by_key(|c| c.id);
    v
}

/// Byte-identical outputs, same completion *set* (order may differ —
/// that is the point of a scheduling knob), and every request present.
fn assert_same_outputs(a: &ServeReport, b: &ServeReport, n_requests: usize) {
    assert_eq!(a.completions.len(), n_requests);
    assert_eq!(b.completions.len(), n_requests);
    for (x, y) in by_id(a).iter().zip(by_id(b)) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.output_bytes(), y.output_bytes());
    }
}

proptest! {
    /// `prefill_chunk_tokens` is a scheduling quantum, never a numerical
    /// knob: every chunk size in `1..=pe_rows` yields byte-identical
    /// outputs to the unchunked run and to the per-request seed oracle.
    #[test]
    fn prefill_chunk_size_never_changes_outputs(
        seed in any::<u64>(),
        n in 2usize..4,
        chunk in 1usize..9,
        saturated in any::<bool>(),
    ) {
        let gap = if saturated { 300.0 } else { 3_000.0 };
        let arrivals = generate_arrivals(&ArrivalConfig {
            decode_fraction: 0.25, // mostly prefill: chunking actually engages
            ..workload(seed, n, gap)
        });
        let base = serve(&ServeConfig::standard(), &arrivals, ScheduleMode::Batched);
        let chunked = serve(
            &ServeConfig { prefill_chunk_tokens: Some(chunk), ..ServeConfig::standard() },
            &arrivals,
            ScheduleMode::Batched,
        );
        assert_same_outputs(&base, &chunked, arrivals.len());
        for completion in by_id(&chunked) {
            let oracle = reference_outputs(&arrivals[completion.id], &ServeConfig::standard().engine);
            prop_assert_eq!(
                completion.output_bytes(),
                output_bytes(&oracle),
                "request {} diverged from its solo run_qk_block_reference run",
                completion.id
            );
        }
    }

    /// The forced preemption cadence never changes outputs: descheduling
    /// the head session every `p`-th iteration reorders work, the bytes
    /// are identical to the never-preempting run.
    #[test]
    fn preemption_cadence_never_changes_outputs(
        seed in any::<u64>(),
        n in 2usize..5,
        cadence in 1u64..6,
        slots in 1usize..4,
    ) {
        let arrivals = generate_arrivals(&workload(seed, n, 400.0));
        let base = ServeConfig { engine_slots: slots, ..ServeConfig::standard() };
        let calm = serve(&base, &arrivals, ScheduleMode::Batched);
        let churned = serve(
            &ServeConfig { preempt_every: Some(cadence), ..base },
            &arrivals,
            ScheduleMode::Batched,
        );
        assert_same_outputs(&calm, &churned, arrivals.len());
        // And the churned schedule reproduces itself exactly.
        let again = serve(
            &ServeConfig { preempt_every: Some(cadence), engine_slots: slots, ..ServeConfig::standard() },
            &arrivals,
            ScheduleMode::Batched,
        );
        prop_assert_eq!(churned.completion_order(), again.completion_order());
        prop_assert_eq!(&churned.summary, &again.summary);
    }

    /// The SLO-aware policy — with chunked prefill and forced preemption
    /// stacked on top — is a pure scheduling change on a two-tenant
    /// contention mix: byte-identical outputs and the same completion
    /// set as the non-preemptive FCFS run, and every request still
    /// matches its solo seed-oracle run.
    #[test]
    fn slo_aware_preemptive_serving_matches_fcfs_bytes(
        seed in any::<u64>(),
        chunk in 1usize..9,
        cadence in 0u64..5,
        slots in 1usize..4,
    ) {
        let arrivals = tenant_mix(seed, Some(200_000));
        let base = ServeConfig { engine_slots: slots, ..ServeConfig::standard() };
        let fcfs = serve(&base, &arrivals, ScheduleMode::Batched);
        let slo = serve(
            &ServeConfig {
                policy: SchedulePolicy::SloAware,
                prefill_chunk_tokens: Some(chunk),
                preempt_every: (cadence > 0).then_some(cadence),
                ..base
            },
            &arrivals,
            ScheduleMode::Batched,
        );
        assert_same_outputs(&fcfs, &slo, arrivals.len());
        for completion in by_id(&slo) {
            let oracle = reference_outputs(&arrivals[completion.id], &ServeConfig::standard().engine);
            prop_assert_eq!(
                completion.output_bytes(),
                output_bytes(&oracle),
                "request {} diverged from its solo seed-oracle run",
                completion.id
            );
        }
        // The SLO machinery engaged: the foreground tenant's attainment
        // line is present and covers all of its requests.
        let fg: Vec<_> = slo.summary.slo.iter().filter(|t| t.tenant == 0).collect();
        prop_assert_eq!(fg.len(), 1);
        prop_assert_eq!(fg[0].total, 3);
        // FCFS ignores SLOs at scheduling time but still reports them.
        prop_assert_eq!(fcfs.summary.slo.len(), slo.summary.slo.len());
    }
}

/// A session descheduled at a chunk/step boundary and rescheduled later
/// resumes with bitwise-identical key planes: every `(request, resident
/// tokens)` state a churning run passes through holds planes equal to
/// the same state in a never-suspended solo run.
#[test]
fn suspended_sessions_resume_with_bitwise_identical_planes() {
    let arrivals = generate_arrivals(&ArrivalConfig {
        decode_fraction: 1.0, // all decode: every session grows its plane cache
        decode_steps: 4,
        ..workload(2026, 3, 200.0)
    });
    let config = ServeConfig { engine_slots: 1, ..ServeConfig::standard() };

    // Reference: solo mode runs each session head-to-tail — no session
    // is ever suspended mid-flight. Snapshot after every step.
    let mut reference = std::collections::BTreeMap::new();
    let mut solo = Node::new(&config, ScheduleMode::Solo);
    for spec in &arrivals {
        solo.enqueue(spec);
    }
    while !solo.is_drained() {
        let next = Cycle(solo.now().0 + 1);
        solo.advance_to(next);
        for (id, tokens, planes) in solo.active_key_planes() {
            reference.insert((id, tokens), planes);
        }
    }
    let solo_report = solo.finish();

    // Churn: one slot + rotate-every-iteration forces sessions to park
    // and resume constantly. Every observed state must match the
    // never-suspended reference bit for bit.
    let churn_config = ServeConfig { preempt_every: Some(1), ..config };
    let mut churn = Node::new(&churn_config, ScheduleMode::Batched);
    for spec in &arrivals {
        churn.enqueue(spec);
    }
    let mut checked = 0usize;
    while !churn.is_drained() {
        let next = Cycle(churn.now().0 + 1);
        churn.advance_to(next);
        for (id, tokens, planes) in churn.active_key_planes() {
            let expected = reference.get(&(id, tokens)).unwrap_or_else(|| {
                panic!("state (request {id}, {tokens} tokens) never seen in the solo run")
            });
            assert_eq!(&planes, expected, "request {id} planes diverged at {tokens} tokens");
            checked += 1;
        }
    }
    let churn_report = churn.finish();
    assert!(checked > 0, "the churn run must expose parked plane states");
    assert!(
        churn_report.metrics.preemptions > 0,
        "rotate-every-iteration with one slot must actually preempt"
    );
    assert!(churn_report.metrics.resumes > 0, "preempted sessions must resume");
    // And the churned outputs are byte-identical to the solo run's.
    for (a, b) in by_id(&solo_report).iter().zip(by_id(&churn_report)) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.output_bytes(), b.output_bytes());
    }
}

/// A zero-slot configuration clamps to one slot: the SLO-aware policy
/// with forced preemption still drains every request — no deadlock, no
/// starvation.
#[test]
fn zero_slot_slo_aware_node_never_deadlocks() {
    let arrivals = tenant_mix(7, Some(50_000));
    let report = serve(
        &ServeConfig {
            engine_slots: 0,
            policy: SchedulePolicy::SloAware,
            prefill_chunk_tokens: Some(3),
            preempt_every: Some(1),
            ..ServeConfig::standard()
        },
        &arrivals,
        ScheduleMode::Batched,
    );
    assert_eq!(report.completions.len(), arrivals.len());
    let mut ids: Vec<_> = report.completions.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..arrivals.len()).collect::<Vec<_>>());
}

/// An SLO tighter than a single decode step can never be met; it must be
/// *reported* missed — attainment 0.0 over all the tenant's requests —
/// never panic or wedge the scheduler.
#[test]
fn slo_tighter_than_one_step_reports_missed_without_panicking() {
    let arrivals = tenant_mix(11, Some(1)); // 1 cycle: unmeetable
    let report = serve(
        &ServeConfig { policy: SchedulePolicy::SloAware, ..ServeConfig::standard() },
        &arrivals,
        ScheduleMode::Batched,
    );
    assert_eq!(report.completions.len(), arrivals.len());
    let fg = report
        .summary
        .slo
        .iter()
        .find(|t| t.tenant == 0)
        .expect("the foreground tenant carries an SLO and must be reported");
    assert_eq!(fg.total, 3, "every foreground request is SLO-accounted");
    assert_eq!(fg.met, 0, "a 1-cycle SLO is unmeetable");
    assert_eq!(fg.attainment(), 0.0);
    assert_eq!(fg.target_cycles, 1);
    // The display path is n=0-safe and renders the miss without panicking.
    let line = fg.to_string();
    assert!(line.contains("0/3 met"), "unexpected SLO line: {line}");
}

/// Preempting a session on its *final* chunk boundary parks a session
/// with one block left; it must resume and finish with oracle-identical
/// bytes. Two 2-block prefills on one slot with rotate-every-iteration
/// guarantee the pattern.
#[test]
fn preemption_at_final_chunk_boundary_resumes_and_finishes() {
    let arrivals = generate_arrivals(&ArrivalConfig {
        n_requests: 2,
        decode_fraction: 0.0,
        prefill_rows: 6,
        mean_interarrival_cycles: 1.0, // both present before the first batch
        ..workload(13, 2, 1.0)
    });
    let config = ServeConfig {
        engine_slots: 1,
        prefill_chunk_tokens: Some(3), // exactly 2 chunks per request
        preempt_every: Some(1),
        ..ServeConfig::standard()
    };
    let report = serve(&config, &arrivals, ScheduleMode::Batched);
    assert_eq!(report.completions.len(), 2);
    assert!(
        report.metrics.preemptions > 0,
        "alternating two 2-chunk sessions on one slot must preempt at a chunk boundary"
    );
    for completion in by_id(&report) {
        let oracle = reference_outputs(&arrivals[completion.id], &config.engine);
        assert_eq!(completion.output_bytes(), output_bytes(&oracle));
    }
}

/// The chunked-prefill charging model, on one ragged prefill alone on a
/// 1-slot node for every chunk size: each iteration runs one slice, and
/// the clock advances by that slice's tile's unchunked cycle count — so
/// the per-iteration advances spell out the tile-aligned slicing
/// (`⌈tile rows / chunk⌉` slices per tile, none crossing a tile) — while
/// ops and traffic equal the unchunked run's exactly: each tile's engine
/// work is done and counted once.
#[test]
fn chunked_prefill_runs_each_tile_once_and_charges_every_slice_the_tile() {
    let config = ServeConfig { engine_slots: 1, ..ServeConfig::standard() };
    let pe = config.engine.pe_rows;
    for rows in [10, 24] {
        let mut spec = generate_arrivals(&ArrivalConfig {
            decode_fraction: 0.0,
            prefill_rows: rows,
            ..workload(17, 1, 1.0)
        })
        .remove(0);
        spec.arrival_cycle = 0;
        let oracle = output_bytes(&reference_outputs(&spec, &config.engine));
        let whole = serve(&config, std::slice::from_ref(&spec), ScheduleMode::Batched);
        let tile_cycles: Vec<u64> =
            whole.completions[0].results.iter().map(|r| r.cycles.0).collect();
        assert_eq!(tile_cycles.len(), rows.div_ceil(pe));
        for chunk in 1..=pe {
            let chunked = ServeConfig { prefill_chunk_tokens: Some(chunk), ..config.clone() };
            let mut node = Node::new(&chunked, ScheduleMode::Batched);
            node.enqueue(&spec);
            let mut advances = Vec::new();
            while !node.is_drained() {
                let before = node.now();
                node.advance_to(Cycle(before.0 + 1));
                advances.push((node.now() - before).0);
            }
            let report = node.finish();
            let expected: Vec<u64> = tile_cycles
                .iter()
                .enumerate()
                .flat_map(|(t, &cycles)| {
                    let slices = (rows - t * pe).min(pe).div_ceil(chunk);
                    std::iter::repeat_n(cycles, slices)
                })
                .collect();
            assert_eq!(advances, expected, "{rows} rows, chunk {chunk}: one slice per iteration");
            assert_eq!(report.metrics.iterations, expected.len() as u64);
            assert_eq!(report.metrics.engine_cycles, expected.iter().sum::<u64>());
            assert_eq!(report.metrics.ops, whole.metrics.ops, "{rows} rows, chunk {chunk}");
            assert_eq!(report.metrics.traffic, whole.metrics.traffic);
            assert_eq!(report.completions[0].output_bytes(), oracle);
        }
    }
}

/// An empty trace with the new scheduler: a fresh SLO-aware node is
/// already drained, finishes cleanly, and reports no completions, no
/// preemptions and no SLO lines.
#[test]
fn empty_trace_with_slo_aware_scheduler_finishes_cleanly() {
    let config = ServeConfig {
        policy: SchedulePolicy::SloAware,
        prefill_chunk_tokens: Some(2),
        preempt_every: Some(1),
        ..ServeConfig::standard()
    };
    let node = Node::new(&config, ScheduleMode::Batched);
    assert!(node.is_drained());
    let report = node.finish();
    assert!(report.completions.is_empty());
    assert_eq!(report.metrics.preemptions, 0);
    assert_eq!(report.metrics.resumes, 0);
    assert!(report.summary.slo.is_empty());
    assert_eq!(report.summary.latency.count, 0);
    assert!(report.summary.latency.to_string().contains("n=0"));
}

/// SLO-aware preemption rescues a foreground tail that FCFS blows
/// (`BENCH_8.json`'s claim): 8 priority-10 decodes under a 6,000-cycle
/// p99 SLO contend on a 2-slot node with 6 priority-0 prefills of 48
/// rows over 512-key contexts. FCFS serves in arrival order, so decodes
/// queue behind prefills and miss the SLO. The SLO-aware policy, run as
/// recorded with 2-row prefill chunks and a forced preemption every 4
/// iterations, puts the decodes first at every chunk boundary and keeps
/// their p99 within the SLO. The two schedules compute byte-identical
/// outputs.
#[test]
fn slo_aware_preemption_meets_the_foreground_slo_that_fcfs_misses() {
    const SLO: u64 = 6_000;
    let seed = 2026;
    let arrivals = generate_tenant_mix(&[
        TenantLoad {
            tenant: 0,
            priority: 10,
            tenant_slo: Some(SLO),
            arrivals: ArrivalConfig {
                n_requests: 8,
                mean_interarrival_cycles: 3_000.0,
                decode_fraction: 1.0,
                decode_steps: 4,
                seq_len: 512,
                seed,
                ..ArrivalConfig::small_demo()
            },
        },
        TenantLoad {
            tenant: 1,
            priority: 0,
            tenant_slo: None,
            arrivals: ArrivalConfig {
                n_requests: 6,
                mean_interarrival_cycles: 800.0,
                decode_fraction: 0.0,
                prefill_rows: 48,
                seq_len: 512,
                seed: seed ^ 0x9E37_79B9,
                ..ArrivalConfig::small_demo()
            },
        },
    ]);
    let fcfs_config = ServeConfig { engine_slots: 2, ..ServeConfig::standard() };
    let slo_config = ServeConfig {
        policy: SchedulePolicy::SloAware,
        prefill_chunk_tokens: Some(2),
        preempt_every: Some(4),
        ..fcfs_config.clone()
    };
    let fcfs = serve(&fcfs_config, &arrivals, ScheduleMode::Batched);
    let slo = serve(&slo_config, &arrivals, ScheduleMode::Batched);
    assert_same_outputs(&fcfs, &slo, arrivals.len());

    let foreground = |report: &ServeReport| {
        let fg = report.summary.slo.iter().find(|t| t.tenant == 0).expect("foreground SLO line");
        assert_eq!(fg.total, 8, "every foreground request is SLO-accounted");
        fg.latency.p99.0
    };
    let (fcfs_p99, slo_p99) = (foreground(&fcfs), foreground(&slo));
    assert!(fcfs_p99 > SLO, "FCFS foreground p99 {fcfs_p99} already meets the {SLO}-cycle SLO");
    assert!(slo_p99 <= SLO, "SLO-aware foreground p99 {slo_p99} misses the {SLO}-cycle SLO");
    assert!(slo_p99 < fcfs_p99, "SLO-aware p99 {slo_p99} is no better than FCFS {fcfs_p99}");
    assert!(slo.metrics.preemptions > 0, "the contended node never preempted");
    assert!(slo.metrics.resumes > 0, "no preempted session resumed");
}
