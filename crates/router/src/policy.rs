//! Routing policies and the decision record.
//!
//! The router chooses a node for every arrival at its arrival instant,
//! from deterministic inputs only: the policy, the arrival's session and
//! prompt, the per-node in-system load at that instant and the routing
//! history. [`RoutePolicy::Affinity`] is the cache-aware policy this
//! crate exists for; [`RoutePolicy::RoundRobin`] and
//! [`RoutePolicy::LeastLoaded`] are the cache-blind baselines it is
//! measured against.

/// How arrivals are placed onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Cache-aware placement: a session returns to the node that served
    /// it before (its stored cache lives there); a new session whose
    /// prompt's leading chunks hash to a shard key some node has already
    /// ingested goes to that node (the decomposed chunks live there);
    /// everything else falls back to deterministic least-loaded
    /// placement.
    Affinity,
    /// Tenant- and cache-blind: arrival `i` goes to node `i mod N`.
    RoundRobin,
    /// Cache-blind load balancing: the node with the fewest requests in
    /// system at the arrival instant (ties break on the lowest node id).
    LeastLoaded,
}

impl RoutePolicy {
    /// Stable label for reports and JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RoutePolicy::Affinity => "affinity",
            RoutePolicy::RoundRobin => "round-robin",
            RoutePolicy::LeastLoaded => "least-loaded",
        }
    }
}

/// Why one arrival landed on its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteReason {
    /// The session was routed here before; its stored cache is resident.
    SessionAffinity,
    /// The prompt's leading-chunk shard key was first ingested here.
    PrefixAffinity,
    /// Fewest requests in system at the arrival instant.
    LeastLoaded,
    /// Fixed `id mod N` rotation.
    RoundRobin,
}

impl RouteReason {
    /// Stable label for reports and JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RouteReason::SessionAffinity => "session-affinity",
            RouteReason::PrefixAffinity => "prefix-affinity",
            RouteReason::LeastLoaded => "least-loaded",
            RouteReason::RoundRobin => "round-robin",
        }
    }
}

/// One routing decision, recorded in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// The routed request's id.
    pub id: usize,
    /// The routed request's session.
    pub session: u64,
    /// Node the request was placed on.
    pub node: usize,
    /// Why.
    pub reason: RouteReason,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(RoutePolicy::Affinity.label(), "affinity");
        assert_eq!(RoutePolicy::RoundRobin.label(), "round-robin");
        assert_eq!(RoutePolicy::LeastLoaded.label(), "least-loaded");
        assert_eq!(RouteReason::SessionAffinity.label(), "session-affinity");
        assert_eq!(RouteReason::PrefixAffinity.label(), "prefix-affinity");
    }
}
