//! Typed trace events.
//!
//! Each event carries *logical* time — the worker's iteration (`progress`)
//! and the shard's `V_train` at the moment it was recorded — alongside the
//! clock timestamp. Logical time is what the paper's figures are drawn in;
//! the clock timestamp is what Chrome trace viewers lay the events out by.

/// Sentinel for "no shard" / "no worker" on events where the id does not
/// apply (e.g. a `WireSend` from the scheduler).
pub const NO_ID: u32 = u32::MAX;

/// The kinds of events FluentPS instrumentation records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A worker's `SPull` reached a shard (before the pull condition ran).
    PullRequested,
    /// The pull condition failed and the request became a DPR.
    PullDeferred,
    /// A buffered DPR was answered after `V_train` advanced far enough.
    DprReleased,
    /// An `SPush`'s gradients were applied to the shard's parameters.
    PushApplied,
    /// An `SPush` arrived with `progress < V_train` and was dropped.
    LatePushDropped,
    /// The shard's `V_train` advanced by one (the push condition fired).
    VTrainAdvanced,
    /// A worker blocked waiting for pull responses (duration span).
    BarrierWait,
    /// A message left a node; `bytes` is the frame's wire size.
    WireSend,
    /// A message arrived at a node; `bytes` is the frame's wire size.
    WireRecv,
    /// A worker's request timed out and a retry (with backoff) was queued.
    RetryScheduled,
    /// A send failed at the transport level; the client will redial.
    ConnectionLost,
    /// A shard checkpoint was captured (`v_train` is the snapshot point,
    /// `bytes` the serialized size).
    CheckpointCaptured,
    /// A replacement shard restored state from a checkpoint (`v_train` is
    /// the restored progress).
    CheckpointRestored,
    /// EPS moved a dead shard's keys; `bytes` carries the number of values
    /// moved.
    ShardRemapped,
    /// The liveness monitor declared a node dead (`shard`/`worker` identify
    /// it; `v_train` carries the logical detection time).
    NodeDeclaredDead,
    /// A supervisor replica won a leader election (`shard` is the replica
    /// id, `v_train` the new term).
    LeaderElected,
    /// A control-plane command committed through the replicated log
    /// (`progress` is the log index, `v_train` the term; only non-tick
    /// commands are recorded to keep traces readable).
    ConsensusCommit,
    /// Leadership moved to a different replica after the previous leader
    /// died or stepped down (`shard` is the new leader, `v_train` the term).
    SupervisorFailover,
}

/// Number of distinct event kinds (array-index bound for per-kind counts).
pub const KINDS: usize = 18;

impl EventKind {
    /// Every kind, in stable index order.
    pub const ALL: [EventKind; KINDS] = [
        EventKind::PullRequested,
        EventKind::PullDeferred,
        EventKind::DprReleased,
        EventKind::PushApplied,
        EventKind::LatePushDropped,
        EventKind::VTrainAdvanced,
        EventKind::BarrierWait,
        EventKind::WireSend,
        EventKind::WireRecv,
        EventKind::RetryScheduled,
        EventKind::ConnectionLost,
        EventKind::CheckpointCaptured,
        EventKind::CheckpointRestored,
        EventKind::ShardRemapped,
        EventKind::NodeDeclaredDead,
        EventKind::LeaderElected,
        EventKind::ConsensusCommit,
        EventKind::SupervisorFailover,
    ];

    /// Stable dense index in `[0, KINDS)`.
    pub fn index(self) -> usize {
        match self {
            EventKind::PullRequested => 0,
            EventKind::PullDeferred => 1,
            EventKind::DprReleased => 2,
            EventKind::PushApplied => 3,
            EventKind::LatePushDropped => 4,
            EventKind::VTrainAdvanced => 5,
            EventKind::BarrierWait => 6,
            EventKind::WireSend => 7,
            EventKind::WireRecv => 8,
            EventKind::RetryScheduled => 9,
            EventKind::ConnectionLost => 10,
            EventKind::CheckpointCaptured => 11,
            EventKind::CheckpointRestored => 12,
            EventKind::ShardRemapped => 13,
            EventKind::NodeDeclaredDead => 14,
            EventKind::LeaderElected => 15,
            EventKind::ConsensusCommit => 16,
            EventKind::SupervisorFailover => 17,
        }
    }

    /// Snake-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PullRequested => "pull_requested",
            EventKind::PullDeferred => "pull_deferred",
            EventKind::DprReleased => "dpr_released",
            EventKind::PushApplied => "push_applied",
            EventKind::LatePushDropped => "late_push_dropped",
            EventKind::VTrainAdvanced => "v_train_advanced",
            EventKind::BarrierWait => "barrier_wait",
            EventKind::WireSend => "wire_send",
            EventKind::WireRecv => "wire_recv",
            EventKind::RetryScheduled => "retry_scheduled",
            EventKind::ConnectionLost => "connection_lost",
            EventKind::CheckpointCaptured => "checkpoint_captured",
            EventKind::CheckpointRestored => "checkpoint_restored",
            EventKind::ShardRemapped => "shard_remapped",
            EventKind::NodeDeclaredDead => "node_declared_dead",
            EventKind::LeaderElected => "leader_elected",
            EventKind::ConsensusCommit => "consensus_commit",
            EventKind::SupervisorFailover => "supervisor_failover",
        }
    }
}

/// One recorded event.
///
/// `ts` and `dur` are seconds since the trace epoch (wall or virtual —
/// see [`crate::ClockSource`]). `dur` is 0 for instantaneous events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Seconds since the trace epoch.
    pub ts: f64,
    /// Span duration in seconds; 0 for instants.
    pub dur: f64,
    /// What happened.
    pub kind: EventKind,
    /// Shard the event concerns, or [`NO_ID`].
    pub shard: u32,
    /// Worker the event concerns, or [`NO_ID`].
    pub worker: u32,
    /// The worker iteration attached to the triggering message.
    pub progress: u64,
    /// The shard's `V_train` when the event was recorded (0 if n/a).
    pub v_train: u64,
    /// Wire bytes for `WireSend`/`WireRecv`; payload bytes otherwise; 0 if n/a.
    pub bytes: u64,
    /// Global record order, for stable sorting of equal timestamps.
    pub seq: u64,
    /// Causal request id propagated on the wire, or 0 when the event was
    /// recorded outside any request context.
    pub request_id: u64,
    /// Retry ordinal of the request this event belongs to (0 = first
    /// attempt; meaningless when `request_id` is 0).
    pub attempt: u32,
}

impl Default for TraceEvent {
    /// A zeroed instant with no ids: both actor ids are [`NO_ID`],
    /// `request_id` is the no-context sentinel 0, and the kind is
    /// the first in index order. Lets construction sites set only the fields
    /// an event kind actually carries.
    fn default() -> Self {
        TraceEvent {
            ts: 0.0,
            dur: 0.0,
            kind: EventKind::PullRequested,
            shard: NO_ID,
            worker: NO_ID,
            progress: 0,
            v_train: 0,
            bytes: 0,
            seq: 0,
            request_id: 0,
            attempt: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), KINDS, "names must be unique");
    }

    #[test]
    fn an_event_is_72_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 72);
    }
}
