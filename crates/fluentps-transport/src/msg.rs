//! Message vocabulary of the FluentPS protocol.
//!
//! The two application-level operations are the paper's `sPush` and `sPull`
//! (Section III-B): they are ordinary push/pull of key-value pairs *extended
//! with the sender's progress*, which is what lets each server run its own
//! synchronization condition instead of deferring to a centralized scheduler.

use std::fmt;

use fluentps_obs::TraceEvent;

use crate::values::{Values, ValuesMut};

/// Identifier of a node in a FluentPS cluster.
///
/// The scheduler only monitors liveness and assigns key ranges (Section
/// III-A); servers own parameter shards; workers compute gradients. The
/// collector is a passive observability sink: it never participates in
/// training traffic, it only receives [`Message::TraceBatch`] streams and
/// answers [`Message::ClockPing`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The single scheduler node.
    Scheduler,
    /// The `m`-th parameter server, `m` in `0..M`.
    Server(u32),
    /// The `n`-th worker, `n` in `0..N`.
    Worker(u32),
    /// The central trace collector (at most one per cluster).
    Collector,
    /// The `k`-th supervisor replica of the replicated control plane
    /// (`k` in `0..R`). Replicas elect a leader among themselves; the
    /// leader exercises the scheduler duties (liveness, recovery).
    Supervisor(u32),
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Scheduler => write!(f, "scheduler"),
            NodeId::Server(m) => write!(f, "server{m}"),
            NodeId::Worker(n) => write!(f, "worker{n}"),
            NodeId::Collector => write!(f, "collector"),
            NodeId::Supervisor(k) => write!(f, "supervisor{k}"),
        }
    }
}

/// Sentinel replica id meaning "no known leader" in [`Message::LeaderRedirect`].
pub const NO_LEADER: u32 = u32::MAX;

/// Compact causal context propagated on the wire by [`Message::Traced`].
///
/// `request_id` is seeded-unique per origin (workers pack their id into the
/// high bits, see `fluentps-core`), `attempt` counts retries of the same
/// logical request, and `parent_span` names the span within the request that
/// caused this message. Together they let the collector assemble exact
/// per-request waterfalls with no clock heuristics: every stamped trace
/// event joins its request by `(request_id, attempt)`, and FaultInjector
/// duplicates fold instead of corrupting the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CausalCtx {
    /// Origin-unique request identifier; `0` is reserved as "no context".
    pub request_id: u64,
    /// Retry ordinal of the request (0 = first attempt).
    pub attempt: u16,
    /// Span id within the request that produced this message, or
    /// `u32::MAX` when the sender tracks no spans.
    pub parent_span: u32,
}

/// Sentinel `parent_span` meaning "no span tracked".
pub const NO_SPAN: u32 = u32::MAX;

impl CausalCtx {
    /// A context for `request_id` on its first attempt, no span.
    pub fn new(request_id: u64) -> Self {
        CausalCtx {
            request_id,
            attempt: 0,
            parent_span: NO_SPAN,
        }
    }

    /// Same request, retry ordinal `attempt`.
    pub fn retry(mut self, attempt: u16) -> Self {
        self.attempt = attempt;
        self
    }

    /// Same request, caused by span `span`.
    pub fn span(mut self, span: u32) -> Self {
        self.parent_span = span;
        self
    }

    /// Encoded size on the wire: `request_id` + `attempt` + `parent_span`.
    pub const WIRE_LEN: usize = 8 + 2 + 4;
}

/// One replicated-log entry carried on the wire by
/// [`Message::AppendEntries`]. The command is opaque to the transport: the
/// control plane in `fluentps-core` defines its own command vocabulary and
/// byte codec, keeping the wire layer ignorant of control-plane semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireLogEntry {
    /// Term in which the entry was appended by a leader.
    pub term: u64,
    /// 1-based position of the entry in the replicated log.
    pub index: u64,
    /// Opaque encoded control-plane command.
    pub cmd: Vec<u8>,
}

/// A batch of key-value pairs, PS-Lite style: parallel arrays of keys, a
/// flattened value buffer and a per-key length array.
///
/// The values are held in wire form ([`Values`]): cloning a batch, or taking
/// one key's slice out of it, shares the payload instead of copying it.
///
/// Invariant: `lens.len() == keys.len()` and `lens.iter().sum() == vals.len()`.
///
/// ```
/// use fluentps_transport::KvPairs;
/// let kv = KvPairs::from_slices(&[(7, &[1.0, 2.0][..]), (9, &[3.0][..])]);
/// assert!(kv.is_consistent());
/// let items: Vec<_> = kv.iter().collect();
/// assert_eq!(items[0].0, 7);
/// assert_eq!(items[1].1, [3.0]);
/// // Values are read into `f32` where the arithmetic happens.
/// let mut w = [0.0; 2];
/// items[0].1.copy_to(&mut w);
/// assert_eq!(w, [1.0, 2.0]);
/// // A clone shares the payload bytes.
/// let copy = kv.clone();
/// assert_eq!(copy.vals.as_le_bytes().as_ptr(), kv.vals.as_le_bytes().as_ptr());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KvPairs {
    /// Parameter keys, strictly the application's (possibly EPS-remapped) keys.
    pub keys: Vec<u64>,
    /// All values, concatenated in `keys` order.
    pub vals: Values,
    /// Length of each key's value slice.
    pub lens: Vec<u32>,
}

impl KvPairs {
    /// Build a `KvPairs` from per-key slices, computing `lens` automatically.
    pub fn from_slices(entries: &[(u64, &[f32])]) -> Self {
        let mut vals = ValuesMut::with_capacity(entries.iter().map(|(_, v)| v.len()).sum());
        for (_, v) in entries {
            vals.extend_from_slice(v);
        }
        KvPairs {
            keys: entries.iter().map(|(k, _)| *k).collect(),
            lens: entries.iter().map(|(_, v)| v.len() as u32).collect(),
            vals: vals.freeze(),
        }
    }

    /// A single-key batch.
    pub fn single(key: u64, vals: Vec<f32>) -> Self {
        KvPairs {
            keys: vec![key],
            lens: vec![vals.len() as u32],
            vals: Values::from_f32s(&vals),
        }
    }

    /// Check the structural invariant.
    pub fn is_consistent(&self) -> bool {
        self.keys.len() == self.lens.len()
            && self.lens.iter().map(|&l| l as usize).sum::<usize>() == self.vals.len()
    }

    /// Number of keys in the batch.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the batch carries no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterate `(key, value-slice)` pairs; each slice shares the batch's
    /// payload.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Values)> + '_ {
        let mut offset = 0usize;
        self.keys.iter().zip(self.lens.iter()).map(move |(&k, &l)| {
            let s = self.vals.slice(offset..offset + l as usize);
            offset += l as usize;
            (k, s)
        })
    }
}

/// One entry of a placement table carried on the wire by
/// [`Message::RouteUpdate`]. Mirrors the EPS `Placement` struct in
/// `fluentps-core` (which transport cannot depend on) field for field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePlacement {
    /// The application's original parameter key.
    pub orig_key: u64,
    /// The EPS-remapped wire key.
    pub new_key: u64,
    /// Owning server.
    pub server: u32,
    /// Offset of this slice inside the original parameter.
    pub offset: u32,
    /// Length of this slice.
    pub len: u32,
}

/// One message of the FluentPS protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// `sPush(keys, grads, progress)` — worker pushes the gradients of its
    /// current iteration together with that iteration index (Algorithm 1,
    /// worker line 4).
    SPush {
        /// Index of the pushing worker.
        worker: u32,
        /// The iteration these gradients were computed in.
        progress: u64,
        /// Gradient payload.
        kv: KvPairs,
    },
    /// `sPull(keys, progress)` — worker asks for the parameters it needs for
    /// iteration `progress + 1` (Algorithm 1, worker line 5).
    SPull {
        /// Index of the pulling worker.
        worker: u32,
        /// The worker's current progress; the server indexes its lazy pull
        /// buffer by this value.
        progress: u64,
        /// Keys requested.
        keys: Vec<u64>,
    },
    /// Server acknowledges a push (Algorithm 1, server line 24).
    PushAck {
        /// Responding server.
        server: u32,
        /// Echo of the pushed progress.
        progress: u64,
    },
    /// Server answers a pull, either immediately or lazily after the push
    /// condition fires.
    PullResponse {
        /// Responding server.
        server: u32,
        /// Echo of the pull's progress.
        progress: u64,
        /// Parameter payload.
        kv: KvPairs,
        /// Server-side shard version (`V_train`) at response time; workers may
        /// use it for staleness diagnostics.
        version: u64,
    },
    /// Liveness heartbeat (scheduler duty, Section III-A).
    Heartbeat {
        /// Sender.
        node: NodeId,
        /// Monotone sequence number.
        seq: u64,
    },
    /// Orderly shutdown request.
    Shutdown,
    /// Recovery: install parameters into a shard verbatim (no gradient
    /// semantics). Sent by a supervisor when a dead server's keys are
    /// adopted by a survivor, or when seeding a replacement from a
    /// checkpoint.
    Install {
        /// Parameters to install, keyed by wire key.
        kv: KvPairs,
    },
    /// Recovery: a new key placement after a server died and its slices
    /// were remapped. Workers rebuild their router from this.
    RouteUpdate {
        /// The complete new placement table.
        placements: Vec<WirePlacement>,
    },
    /// Observability: a batch of trace events streamed from one node to the
    /// central collector. Each batch is self-describing: it carries the
    /// sender's current clock-offset estimate and its cumulative emit/drop
    /// accounting, so the collector can align timestamps and verify
    /// `received + dropped == emitted` without per-connection state.
    TraceBatch {
        /// The node whose ring buffer produced these events.
        node: NodeId,
        /// The sender's estimated offset to the collector clock, in seconds
        /// (add to a sender timestamp to land on the collector timeline).
        offset_secs: f64,
        /// Monotone per-sender batch sequence number (gap detection).
        batch_seq: u64,
        /// Total events the sender's tracer has recorded so far.
        emitted: u64,
        /// Total events lost at the sender so far (ring overwrites before
        /// streaming plus send failures).
        dropped: u64,
        /// The events, in the sender's record order.
        events: Vec<TraceEvent>,
    },
    /// Observability: clock-offset probe. The sender stamps its local send
    /// time; the collector echoes it back in a [`Message::ClockPong`]
    /// together with its own receive time (NTP-style RTT-midpoint
    /// estimation).
    ClockPing {
        /// The probing node.
        node: NodeId,
        /// Probe sequence number, echoed in the pong.
        seq: u64,
        /// Sender-local send timestamp in seconds.
        t_send: f64,
    },
    /// Observability: collector's answer to a [`Message::ClockPing`].
    ClockPong {
        /// Echo of the ping's sequence number.
        seq: u64,
        /// Echo of the ping's sender-local send timestamp.
        t_send: f64,
        /// Collector-local timestamp when the ping was processed.
        t_collector: f64,
    },
    /// Consensus: a candidate supervisor replica solicits a vote for a term
    /// (Raft-style leader election among control-plane replicas).
    VoteRequest {
        /// Term the candidate is campaigning for.
        term: u64,
        /// Replica id of the candidate.
        candidate: u32,
        /// Index of the candidate's last log entry (0 = empty log).
        last_log_index: u64,
        /// Term of the candidate's last log entry (0 = empty log).
        last_log_term: u64,
    },
    /// Consensus: a replica's answer to a [`Message::VoteRequest`].
    VoteResponse {
        /// The voter's current term (lets a stale candidate catch up).
        term: u64,
        /// Replica id of the voter.
        voter: u32,
        /// Whether the vote was granted for `term`.
        granted: bool,
    },
    /// Consensus: leader replicates log entries (or an empty heartbeat) to a
    /// follower and advertises its commit index.
    AppendEntries {
        /// The leader's current term.
        term: u64,
        /// Replica id of the leader.
        leader: u32,
        /// Index of the entry immediately preceding `entries` (0 = start).
        prev_index: u64,
        /// Term of the entry at `prev_index` (0 if `prev_index == 0`).
        prev_term: u64,
        /// The leader's commit index.
        commit: u64,
        /// Entries to append after `prev_index` (may be empty).
        entries: Vec<WireLogEntry>,
    },
    /// Consensus: follower's answer to an [`Message::AppendEntries`].
    AppendAck {
        /// The follower's current term.
        term: u64,
        /// Replica id of the follower.
        follower: u32,
        /// Whether the consistency check at `prev_index` passed and the
        /// entries were appended.
        ok: bool,
        /// Highest log index the follower now matches the leader up to
        /// (on failure: a hint for the leader's next-index backoff).
        match_index: u64,
    },
    /// Control plane: a non-leader supervisor replica tells a node that
    /// heartbeated it where the current leader is believed to live
    /// ([`NO_LEADER`] when the replica knows of none).
    LeaderRedirect {
        /// The redirecting replica's current term.
        term: u64,
        /// Believed leader replica id, or [`NO_LEADER`].
        leader: u32,
    },
    /// An inner message annotated with a [`CausalCtx`]. The envelope is
    /// transparent to routing: receivers peel it with
    /// [`Message::split_ctx`], stamp their trace events with the context,
    /// and handle the inner message as if it had arrived bare. Nesting is
    /// rejected at decode time — one context per wire message.
    Traced {
        /// The causal context of the request this message belongs to.
        ctx: CausalCtx,
        /// The annotated message (never itself `Traced`).
        inner: Box<Message>,
    },
}

impl Message {
    /// Wrap `self` in a [`Message::Traced`] envelope carrying `ctx`.
    /// Wrapping an already-`Traced` message replaces its context instead of
    /// nesting (the codec rejects nested envelopes).
    pub fn with_ctx(self, ctx: CausalCtx) -> Message {
        match self {
            Message::Traced { inner, .. } => Message::Traced { ctx, inner },
            other => Message::Traced {
                ctx,
                inner: Box::new(other),
            },
        }
    }

    /// Peel a [`Message::Traced`] envelope: returns the context (if any)
    /// and the bare inner message.
    pub fn split_ctx(self) -> (Option<CausalCtx>, Message) {
        match self {
            Message::Traced { ctx, inner } => (Some(ctx), *inner),
            other => (None, other),
        }
    }

    /// The message inside a [`Message::Traced`] envelope (or `self` when
    /// there is none), without consuming it.
    pub fn bare(&self) -> &Message {
        match self {
            Message::Traced { inner, .. } => inner,
            other => other,
        }
    }

    /// The causal context of this message, without consuming it.
    pub fn ctx(&self) -> Option<CausalCtx> {
        match self {
            Message::Traced { ctx, .. } => Some(*ctx),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_from_slices_builds_consistent_batch() {
        let kv = KvPairs::from_slices(&[(3, &[1.0, 2.0][..]), (9, &[4.0][..])]);
        assert!(kv.is_consistent());
        assert_eq!(kv.len(), 2);
        let items: Vec<_> = kv.iter().collect();
        assert_eq!(items[0], (3, Values::from_f32s(&[1.0, 2.0])));
        assert_eq!(items[1], (9, Values::from_f32s(&[4.0])));
    }

    #[test]
    fn kv_single_is_consistent() {
        let kv = KvPairs::single(7, vec![0.5; 10]);
        assert!(kv.is_consistent());
        assert_eq!(kv.vals.len(), 10);
    }

    #[test]
    fn kv_inconsistency_detected() {
        let kv = KvPairs {
            keys: vec![1, 2],
            vals: Values::from_f32s(&[0.0; 3]),
            lens: vec![1, 1],
        };
        assert!(!kv.is_consistent());
    }

    #[test]
    fn empty_kv_is_consistent_and_empty() {
        let kv = KvPairs::default();
        assert!(kv.is_consistent());
        assert!(kv.is_empty());
        assert_eq!(kv.iter().count(), 0);
    }

    #[test]
    fn node_id_displays_its_kind_and_index() {
        assert_eq!(NodeId::Worker(2).to_string(), "worker2");
        assert_eq!(NodeId::Collector.to_string(), "collector");
        assert_eq!(NodeId::Supervisor(1).to_string(), "supervisor1");
    }

    #[test]
    fn traced_envelope_wraps_and_peels() {
        let bare = Message::PushAck {
            server: 1,
            progress: 4,
        };
        let ctx = CausalCtx::new(99).retry(2).span(7);
        let wrapped = bare.clone().with_ctx(ctx);
        assert_eq!(wrapped.ctx(), Some(ctx));
        // Re-wrapping replaces the context rather than nesting.
        let ctx2 = CausalCtx::new(100);
        let rewrapped = wrapped.with_ctx(ctx2);
        let (got, inner) = rewrapped.split_ctx();
        assert_eq!(got, Some(ctx2));
        assert_eq!(inner, bare);
        // A bare message splits to no context.
        let (none, same) = bare.clone().split_ctx();
        assert_eq!(none, None);
        assert_eq!(same, bare);
        assert_eq!(bare.ctx(), None);
    }
}
