//! The liveness side of the (deliberately minimal) scheduler, Section III-A.
//!
//! In FluentPS the scheduler does **not** mediate synchronization — that is
//! the whole point of the design. It monitors node liveness via heartbeats
//! ([`LivenessMonitor`], which the supervisor replicas of
//! [`crate::recovery`] run) and owns the placement, which is EPS's
//! ([`crate::eps`]): when a server dies for good the supervisor moves its
//! slices with [`EpsSlicer::remap_dead`](crate::eps::EpsSlicer::remap_dead).

use std::collections::HashMap;

use fluentps_transport::NodeId;

/// Heartbeat-based liveness tracking with a logical-time deadline (drivers
/// feed whatever clock they have: wall millis or simulated ticks).
#[derive(Debug, Clone)]
pub struct LivenessMonitor {
    last_seen: HashMap<NodeId, u64>,
    timeout: u64,
}

impl LivenessMonitor {
    /// Nodes not heard from for `timeout` time units are considered dead.
    ///
    /// The deadline is exclusive: a node is dead when `now - last_seen >
    /// timeout`, i.e. a heartbeat exactly `timeout` units old still counts
    /// as alive. Drivers sizing `timeout` as N heartbeat intervals get N
    /// full missed beats of grace, not N-1.
    pub fn new(timeout: u64) -> Self {
        assert!(timeout > 0, "timeout must be positive");
        LivenessMonitor {
            last_seen: HashMap::new(),
            timeout,
        }
    }

    /// Record a heartbeat (or any message) from `node` at time `now`.
    pub fn observe(&mut self, node: NodeId, now: u64) {
        let e = self.last_seen.entry(node).or_insert(now);
        *e = (*e).max(now);
    }

    /// Nodes whose last heartbeat is older than the timeout at time `now`,
    /// sorted for determinism.
    pub fn dead_nodes(&self, now: u64) -> Vec<NodeId> {
        let mut dead: Vec<NodeId> = self
            .last_seen
            .iter()
            .filter(|(_, &t)| now.saturating_sub(t) > self.timeout)
            .map(|(&n, _)| n)
            .collect();
        dead.sort();
        dead
    }

    /// Nodes currently believed alive at time `now`.
    pub fn alive_nodes(&self, now: u64) -> Vec<NodeId> {
        let mut alive: Vec<NodeId> = self
            .last_seen
            .iter()
            .filter(|(_, &t)| now.saturating_sub(t) <= self.timeout)
            .map(|(&n, _)| n)
            .collect();
        alive.sort();
        alive
    }

    /// Forget a node entirely (it was decommissioned on purpose).
    pub fn remove(&mut self, node: NodeId) {
        self.last_seen.remove(&node);
    }

    /// When `node` was last observed, if it is tracked at all.
    pub fn last_seen(&self, node: NodeId) -> Option<u64> {
        self.last_seen.get(&node).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn liveness_tracks_heartbeats() {
        let mut m = LivenessMonitor::new(10);
        m.observe(NodeId::Server(0), 0);
        m.observe(NodeId::Server(1), 0);
        m.observe(NodeId::Server(0), 8);
        assert!(m.dead_nodes(10).is_empty());
        assert_eq!(m.dead_nodes(12), vec![NodeId::Server(1)]);
        assert_eq!(m.alive_nodes(12), vec![NodeId::Server(0)]);
    }

    #[test]
    fn liveness_deadline_is_exclusive() {
        // Pin the boundary contract documented on `new()`: death requires
        // `now - last_seen > timeout`, strictly greater.
        let mut m = LivenessMonitor::new(10);
        m.observe(NodeId::Server(0), 5);
        // Exactly `timeout` units of silence: still alive.
        assert!(m.dead_nodes(15).is_empty());
        assert_eq!(m.alive_nodes(15), vec![NodeId::Server(0)]);
        // One unit past the deadline: dead.
        assert_eq!(m.dead_nodes(16), vec![NodeId::Server(0)]);
        assert!(m.alive_nodes(16).is_empty());
        assert_eq!(m.last_seen(NodeId::Server(0)), Some(5));
        assert_eq!(m.last_seen(NodeId::Server(1)), None);
    }

    #[test]
    fn stale_observation_does_not_rewind() {
        let mut m = LivenessMonitor::new(5);
        m.observe(NodeId::Worker(0), 100);
        m.observe(NodeId::Worker(0), 50); // out-of-order heartbeat
        assert!(m.dead_nodes(104).is_empty());
    }
}
