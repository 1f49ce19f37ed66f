//! The three serving workloads, each a seeded open-loop arrival schedule in
//! simulated time plus the device or fleet configuration it replays on.
//!
//! Every workload is a pure function of `(workload, size, seed)`: the same
//! seed gives byte-identical arrivals and configurations. The arrival
//! schedule itself — arrival cycles, request kinds and sizes, tenants,
//! sessions and which prompts share a prefix — is part of a workload's
//! definition and comes from a fixed seed, so simulated metrics stay
//! comparable across seeds. The workload seed varies every operand the
//! requests carry: each request's query, key and value trace, and the
//! token ids of every prompt (through a bijection of the vocabulary, which
//! keeps shared prefixes shared).

use pade_cache::{CacheBudget, TierConfig};
use pade_router::{DrainPlan, FleetTierConfig, RoutePolicy, RouterConfig};
use pade_serve::{SchedulePolicy, ServeConfig};
use pade_workload::prompt::{
    generate_multi_tenant_arrivals, MultiTenantConfig, PromptTokens, SharedPrefixConfig,
};
use pade_workload::trace::{
    generate_arrivals, generate_tenant_mix, ArrivalConfig, RequestArrival, TenantLoad,
};

/// Tenant id of the latency-sensitive foreground tenant in `prefill-slo`.
pub const FOREGROUND: u64 = 0;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One node decoding long contexts: engine decode, quant appends and
    /// operand generation do the work; cache, tier and router are idle.
    DecodeLong,
    /// One two-slot SLO-aware node: a foreground decode tenant against a
    /// background prefill flood, with chunked prefill and preemption.
    PrefillSlo,
    /// A four-node affinity fleet over shared prefixes: router placement,
    /// cache attach/evict and tier spill/fetch dominate.
    FleetPrefix,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] =
        [Workload::DecodeLong, Workload::PrefillSlo, Workload::FleetPrefix];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeLong => "decode-long",
            Workload::PrefillSlo => "prefill-slo",
            Workload::FleetPrefix => "fleet-prefix",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large the arrival schedule is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// A few requests of short context, for the benchmark's own tests.
    Small,
}

impl Size {
    /// The name used on the command line and in run records.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Small => "small",
        }
    }
}

/// What the arrivals replay on.
#[derive(Debug, Clone)]
pub enum Target {
    /// One node through `pade_serve::serve`.
    Serve(ServeConfig),
    /// A fleet through `pade_router::route`.
    Route(RouterConfig),
}

impl Target {
    /// Per-node serving configurations (one entry for a single node).
    #[must_use]
    pub fn nodes(&self) -> Vec<&ServeConfig> {
        match self {
            Target::Serve(c) => vec![c],
            Target::Route(r) => r.nodes.iter().collect(),
        }
    }
}

/// A built workload: the arrival schedule and what it replays on.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Arrivals in arrival order, ids dense from 0.
    pub arrivals: Vec<RequestArrival>,
    /// The node or fleet configuration.
    pub target: Target,
}

/// Seed of every workload's arrival schedule.
const SCHEDULE_SEED: u64 = 2026;

/// SplitMix64 finaliser: derives independent generator seeds from the
/// workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds `workload` at `size` from `seed`.
#[must_use]
pub fn build(workload: Workload, size: Size, seed: u64) -> Plan {
    let (mut arrivals, target) = match workload {
        Workload::DecodeLong => decode_long(size),
        Workload::PrefillSlo => prefill_slo(size),
        Workload::FleetPrefix => fleet_prefix(size),
    };
    let vocab = SharedPrefixConfig::small_demo().vocab;
    let shift = (mix(seed, 0) % u64::from(vocab)) as u32;
    for r in &mut arrivals {
        r.trace.seed = mix(seed, r.id as u64 + 1);
        if let Some(p) = &r.prompt {
            let ids = p.ids().iter().map(|&t| (t + shift) % vocab).collect();
            r.prompt = Some(PromptTokens::new(ids));
        }
    }
    Plan { arrivals, target }
}

fn decode_long(size: Size) -> (Vec<RequestArrival>, Target) {
    let (n_requests, seq_len, gap) = match size {
        Size::Full => (128, 512, 3_000.0),
        Size::Small => (6, 128, 2_000.0),
    };
    let arrivals = generate_arrivals(&ArrivalConfig {
        n_requests,
        mean_interarrival_cycles: gap,
        decode_fraction: 1.0,
        decode_steps: 8,
        seq_len,
        head_dim: 64,
        seed: SCHEDULE_SEED,
        ..ArrivalConfig::small_demo()
    });
    (arrivals, Target::Serve(ServeConfig::standard()))
}

fn prefill_slo(size: Size) -> (Vec<RequestArrival>, Target) {
    let (n_fg, n_bg, bg_rows, seq_len, fg_gap, bg_gap, slo) = match size {
        Size::Full => (80, 20, 64, 512, 3_600.0, 12_000.0, 5_000),
        Size::Small => (4, 3, 16, 128, 1_500.0, 2_000.0, 5_000),
    };
    let fg = ArrivalConfig {
        n_requests: n_fg,
        mean_interarrival_cycles: fg_gap,
        decode_fraction: 1.0,
        decode_steps: 4,
        seq_len,
        seed: SCHEDULE_SEED,
        ..ArrivalConfig::small_demo()
    };
    let bg = ArrivalConfig {
        n_requests: n_bg,
        mean_interarrival_cycles: bg_gap,
        decode_fraction: 0.0,
        prefill_rows: bg_rows,
        seq_len,
        seed: mix(SCHEDULE_SEED, 1),
        ..ArrivalConfig::small_demo()
    };
    let arrivals = generate_tenant_mix(&[
        TenantLoad { tenant: FOREGROUND as u32, priority: 10, tenant_slo: Some(slo), arrivals: fg },
        TenantLoad { tenant: 1, priority: 0, tenant_slo: None, arrivals: bg },
    ]);
    let config = ServeConfig {
        engine_slots: 2,
        policy: SchedulePolicy::SloAware,
        prefill_chunk_tokens: Some(4),
        preempt_every: Some(4),
        ..ServeConfig::standard()
    };
    (arrivals, Target::Serve(config))
}

fn fleet_prefix(size: Size) -> (Vec<RequestArrival>, Target) {
    let (tenants, sessions, prefix, chunk, budget) = match size {
        Size::Full => (4, 16, 1024, 64, 150_000),
        Size::Small => (2, 3, 96, 32, 12_000),
    };
    let workload = MultiTenantConfig {
        tenants,
        sessions_per_tenant: sessions,
        per_tenant: SharedPrefixConfig {
            turns_per_session: 2,
            pool_size: 2,
            shared_prefix_tokens: prefix,
            unique_suffix_tokens: chunk,
            turn_suffix_tokens: chunk,
            decode_steps: 2,
            prefill_fraction: 0.25,
            prefill_rows: 8,
            mean_interarrival_cycles: 4_000.0,
            turn_gap_cycles: 200_000,
            ..SharedPrefixConfig::small_demo()
        },
        seed: SCHEDULE_SEED,
    };
    let arrivals = generate_multi_tenant_arrivals(&workload);
    let node = ServeConfig {
        kv_chunk_tokens: chunk,
        prefix_cache: Some(CacheBudget::bytes(budget)),
        tier: Some(TierConfig::Memory),
        ..ServeConfig::standard()
    };
    let fleet = RouterConfig {
        tier: Some(FleetTierConfig { replicate_hot_after: 3, ..FleetTierConfig::default() }),
        drain: Some(DrainPlan { node: 0, after_arrivals: arrivals.len() / 2 }),
        ..RouterConfig::homogeneous(node, 4, RoutePolicy::Affinity)
    };
    (arrivals, Target::Route(fleet))
}
