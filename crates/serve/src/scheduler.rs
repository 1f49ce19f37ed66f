//! Iteration-level batch forming: a small deterministic policy layer
//! (FCFS baseline, SLO-aware) under an engine-slot and max-batch-tokens
//! cap.
//!
//! Active sessions are kept in admission (FCFS) order; each iteration
//! every session may contribute at most **one** block — the
//! iteration-level scheduling of continuous-batching servers, which is
//! what lets a short decode request make progress between the chunks of a
//! long prefill instead of queueing behind all of it. A
//! [`SchedulePolicy`] decides the *candidate order* each iteration:
//! [`Fcfs`](SchedulePolicy::Fcfs) keeps admission order,
//! [`SloAware`](SchedulePolicy::SloAware) sorts by priority (descending),
//! then SLO deadline (`arrival + tenant_slo`, earliest first). Selection
//! walks the candidate order and stops at the first session that would
//! exceed either cap, so there is no bypass past a blocked head and the
//! formed batch is a pure function of the queue state.
//!
//! Because the policy re-sorts **every** iteration, a session left out of
//! one batch is *preempted at a block boundary*: its grown KV planes stay
//! untouched in its `Session` (nothing is copied or invalidated) and the
//! next batch that includes it resumes bitwise-intact. Which sessions run
//! when is therefore a scheduling choice only — outputs are byte-identical
//! under any policy, cadence or chunk size (property-tested in `tests/`).

use std::cmp::Reverse;

use crate::session::Session;

/// How the server schedules work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Continuous batching: up to `engine_slots` blocks from distinct
    /// sessions per iteration, capped by `max_batch_tokens`.
    Batched,
    /// One-request-at-a-time baseline: a one-slot batched node, so the
    /// policy's head session runs a single block per iteration and later
    /// requests wait for it to finish.
    Solo,
}

impl ScheduleMode {
    /// Stable label for reports and JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ScheduleMode::Batched => "batched",
            ScheduleMode::Solo => "solo",
        }
    }
}

/// The candidate-ordering policy of the iteration-level scheduler — a
/// scheduling knob only: any policy produces byte-identical per-request
/// outputs; only dispatch order, latency and completion order change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Admission (arrival) order — the baseline, and the default.
    Fcfs,
    /// Priority first (higher `priority` preempts lower), then SLO
    /// deadline (`arrival_cycle + tenant_slo`, earliest first; requests
    /// without an SLO sort last within their priority band), then FCFS.
    /// A long low-priority prefill is descheduled at its next chunk
    /// boundary whenever a higher-priority or deadline-tighter session
    /// wants the slot.
    SloAware,
}

impl SchedulePolicy {
    /// Stable label for reports and JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SchedulePolicy::Fcfs => "fcfs",
            SchedulePolicy::SloAware => "slo-aware",
        }
    }
}

/// Scheduling limits of one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerLimits {
    /// Engine instances stepping in lockstep — the per-iteration block cap.
    pub engine_slots: usize,
    /// Cap on summed query-row tokens per iteration. The head block is
    /// always admitted even if it alone exceeds the cap (a server must
    /// never deadlock on an oversized request).
    pub max_batch_tokens: usize,
}

/// Picks the sessions (by index into `active`, which must be in admission
/// order and contain no finished sessions) whose next blocks form this
/// iteration's batch.
///
/// `yield_head` forces one preemption: the policy's head candidate
/// rotates to the back of the order for this iteration (a no-op when at
/// most one session is active, so progress is always guaranteed). The
/// node uses it to realize [`ServeConfig::preempt_every`] — a cadence
/// knob that, like the policy itself, may change only *when* blocks run,
/// never what they compute.
///
/// Returns an empty vector only when `active` is empty.
///
/// [`ServeConfig::preempt_every`]: crate::server::ServeConfig::preempt_every
#[must_use]
pub fn form_batch(
    active: &[Session],
    limits: &SchedulerLimits,
    policy: SchedulePolicy,
    yield_head: bool,
) -> Vec<usize> {
    debug_assert!(active.iter().all(|s| !s.is_finished()));
    let mut order: Vec<usize> = (0..active.len()).collect();
    if policy == SchedulePolicy::SloAware {
        order.sort_by_key(|&i| {
            let s = active[i].spec();
            let deadline = s.tenant_slo.map_or(u64::MAX, |slo| s.arrival_cycle.saturating_add(slo));
            (Reverse(s.priority), deadline, s.arrival_cycle, s.id)
        });
    }
    if yield_head && order.len() >= 2 {
        order.rotate_left(1);
    }
    let slots = limits.engine_slots.max(1);
    let mut chosen = Vec::new();
    let mut tokens = 0usize;
    for &i in &order {
        if chosen.len() >= slots {
            break;
        }
        let cost = active[i].next_block_tokens();
        if !chosen.is_empty() && tokens + cost > limits.max_batch_tokens {
            break; // strict order: no bypass past a blocked head
        }
        chosen.push(i);
        tokens += cost;
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use pade_core::config::PadeConfig;
    use pade_sim::Cycle;
    use pade_workload::trace::{generate_arrivals, ArrivalConfig, RequestArrival};

    fn admit(specs: &[RequestArrival]) -> Vec<Session> {
        let config = PadeConfig::standard();
        specs
            .iter()
            .map(|spec| Session::admit(spec, &config, 64, None, Cycle::ZERO, None))
            .collect()
    }

    fn sessions(n: usize) -> Vec<Session> {
        admit(&generate_arrivals(&ArrivalConfig { n_requests: n, ..ArrivalConfig::small_demo() }))
    }

    const FCFS: SchedulePolicy = SchedulePolicy::Fcfs;

    #[test]
    fn one_slot_picks_only_the_head() {
        let active = sessions(4);
        let limits = SchedulerLimits { engine_slots: 1, max_batch_tokens: 1024 };
        assert_eq!(form_batch(&active, &limits, FCFS, false), vec![0]);
    }

    #[test]
    fn batched_fills_slots_in_fcfs_order() {
        let active = sessions(5);
        let limits = SchedulerLimits { engine_slots: 3, max_batch_tokens: 1024 };
        assert_eq!(form_batch(&active, &limits, FCFS, false), vec![0, 1, 2]);
    }

    #[test]
    fn token_cap_truncates_without_bypass() {
        let active = sessions(5);
        let head_cost = active[0].next_block_tokens();
        // A cap equal to the head's cost admits exactly the head, even if a
        // later (cheaper) block would still fit under the cap.
        let limits = SchedulerLimits { engine_slots: 8, max_batch_tokens: head_cost };
        assert_eq!(form_batch(&active, &limits, FCFS, false), vec![0]);
    }

    #[test]
    fn oversized_head_is_still_admitted() {
        let active = sessions(3);
        let limits = SchedulerLimits { engine_slots: 8, max_batch_tokens: 0 };
        assert_eq!(form_batch(&active, &limits, FCFS, false), vec![0]);
    }

    #[test]
    fn empty_queue_forms_no_batch() {
        let limits = SchedulerLimits { engine_slots: 4, max_batch_tokens: 64 };
        assert!(form_batch(&[], &limits, FCFS, false).is_empty());
    }

    /// Arrivals with explicit scheduling attributes, id = index.
    fn attributed(attrs: &[(u8, Option<u64>, u64)]) -> Vec<Session> {
        let base = generate_arrivals(&ArrivalConfig {
            n_requests: attrs.len(),
            ..ArrivalConfig::small_demo()
        });
        let specs: Vec<RequestArrival> = base
            .into_iter()
            .zip(attrs)
            .map(|(mut r, &(priority, tenant_slo, arrival_cycle))| {
                r.priority = priority;
                r.tenant_slo = tenant_slo;
                r.arrival_cycle = arrival_cycle;
                r
            })
            .collect();
        admit(&specs)
    }

    #[test]
    fn slo_aware_orders_by_priority_then_deadline() {
        // id 0: low priority; id 1: high priority, loose slo (deadline
        // 10+900=910); id 2: high priority, tight slo (deadline 20+50=70).
        let active = attributed(&[(0, None, 0), (3, Some(900), 10), (3, Some(50), 20)]);
        let limits = SchedulerLimits { engine_slots: 2, max_batch_tokens: 1024 };
        assert_eq!(
            form_batch(&active, &limits, SchedulePolicy::SloAware, false),
            vec![2, 1],
            "tight-deadline high-priority first, low priority shut out of 2 slots"
        );
        let one = SchedulerLimits { engine_slots: 1, ..limits };
        assert_eq!(form_batch(&active, &one, SchedulePolicy::SloAware, false), vec![2]);
    }

    #[test]
    fn slo_aware_without_attributes_degenerates_to_fcfs() {
        let active = sessions(5);
        let limits = SchedulerLimits { engine_slots: 3, max_batch_tokens: 1024 };
        assert_eq!(
            form_batch(&active, &limits, SchedulePolicy::SloAware, false),
            form_batch(&active, &limits, FCFS, false),
        );
    }

    #[test]
    fn no_slo_sorts_after_any_deadline_within_a_priority_band() {
        // Same priority: the SLO-carrying session beats the earlier
        // arrival without one.
        let active = attributed(&[(1, None, 0), (1, Some(1_000_000), 5)]);
        let limits = SchedulerLimits { engine_slots: 1, max_batch_tokens: 1024 };
        assert_eq!(form_batch(&active, &limits, SchedulePolicy::SloAware, false), vec![1]);
    }

    #[test]
    fn yield_head_rotates_but_never_starves_a_lone_session() {
        let active = sessions(3);
        let limits = SchedulerLimits { engine_slots: 1, max_batch_tokens: 1024 };
        assert_eq!(form_batch(&active, &limits, FCFS, true), vec![1]);
        let lone = sessions(1);
        // A lone session must still run on a yield tick.
        assert_eq!(form_batch(&lone, &limits, FCFS, true), vec![0]);
    }
}
