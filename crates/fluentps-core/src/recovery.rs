//! Fault-tolerant runtime: [`Cluster`] in the [`RecoveryConfig`] role, on a
//! [`FaultyNetwork`] over any network — [`ResilientTcpCluster`] over
//! loopback TCP — plus everything needed to survive a server death
//! mid-training. The launch, the server registry and the shutdown are the
//! cluster's own (`crate::launch`): this module supplies the server step
//! each shard runs, the supervisor replicas, which bind on the bare network
//! beneath the fault shim and spawn a replacement into the cluster's
//! registry, and the worker retry policy.
//!
//! Three pieces cooperate:
//!
//! * A **resilient server** ([`ResilientServer`]): the same Algorithm-1
//!   step as every other engine ([`crate::serve::ShardServer`]) behind a
//!   gate that (1) deduplicates replayed pushes by a per-worker
//!   applied-progress window so client retries never double-apply
//!   gradients or perturb [`ShardStats`], (2) answers duplicate pulls from
//!   a per-worker reply cache without re-running the synchronization
//!   condition, (3) heartbeats a supervisor, (4) periodically captures a
//!   [`ShardCheckpoint`] into a shared store, and acks each push with what
//!   the latest stored one holds, so workers keep only the pushes no
//!   checkpoint does, and (5) can self-terminate at a configured logical
//!   time (`V_train` threshold) to simulate a crash deterministically.
//! * A **supervisor** owning a [`LivenessMonitor`]: when a server misses
//!   its heartbeats it is declared dead and either *replaced* — a fresh
//!   shard restored from the latest checkpoint, bound again under the dead
//!   server's id (over TCP on a new port, with workers redialing through
//!   the shared [`AddressBook`]) — or, when
//!   replacement is disabled, the cluster enters *degraded mode*: the dead
//!   server's slices are remapped onto survivors
//!   ([`EpsSlicer::remap_dead`]), orphaned parameters are installed from
//!   the checkpoint, and workers receive a `RouteUpdate`.
//! * The **worker retry layer** ([`crate::worker::RetryPolicy`]): bounded
//!   timeouts, seeded backoff, the replay of pushes no checkpoint holds yet
//!   and pull re-issue.
//!
//! Since the control plane was replicated, "the supervisor" is really a
//! **quorum of supervisor replicas** driving the consensus log in
//! [`crate::consensus`]: every liveness verdict, replacement and remap
//! commits through the replicated log *before* any `Install`/`RouteUpdate`
//! goes out, servers heartbeat the replica they believe leads and get a
//! `LeaderRedirect` when they are wrong, and killing the leader
//! (`kill_supervisors`) is just another chaos scenario — a follower wins
//! the next election and finishes any half-done recovery. With
//! `num_supervisors == 1` the consensus layer degenerates to an instant
//! solo leader and the runtime behaves exactly like the pre-quorum design.
//!
//! All worker and server messaging runs through a [`FaultInjector`], so
//! chaos schedules (drops, delays, duplicates, severed nodes) apply to a
//! live cluster and — because fault rules are content-matched, not
//! timing-matched — replay bit-for-bit across runs.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fluentps_obs::{
    ConsensusHealth, EventKind, HealthView, MetricsRegistry, NodeHealth, RecordArgs,
    TraceCollector, Tracer,
};
use fluentps_util::buf::Bytes;
use fluentps_util::sync::Mutex;

use fluentps_transport::fault::{FaultInjector, FaultPlan, FaultyNetwork};
use fluentps_transport::tcp::AddressBook;
use fluentps_transport::{
    per_destination, CausalCtx, Input, KvPairs, Mailbox, Message, Network, NodeId, Postman, Step,
    TransportError, WirePlacement, NO_LEADER,
};

use crate::checkpoint::ShardCheckpoint;
use crate::consensus::{ConsensusConfig, ControlCommand, LogEntry, Replica};
use crate::engine::EngineConfig;
use crate::eps::{EpsSlicer, SliceMap};
use crate::launch::{self, Cluster, Observability, Plan, Role, Servers, Worker};
use crate::scheduler::LivenessMonitor;
use crate::serve::{wrap, Flow, ShardServer};
use crate::stats::ShardStats;
use crate::worker::RetryPolicy;

/// The fault-tolerant TCP cluster: [`Cluster`] on loopback TCP behind the
/// fault shim, in the [`RecoveryConfig`] role.
pub type ResilientTcpCluster = Cluster<FaultyNetwork<AddressBook>>;

/// The stem of a fault-tolerant cluster's server threads' names:
/// `fluentps-rts-server-m`, a replacement's included.
const STEM: &str = "rts";

/// Latest checkpoint per server id, shared between server loops (writers)
/// and the supervisor (reader at recovery time).
type CheckpointStore = Arc<Mutex<HashMap<u32, Bytes>>>;

/// Per-replica consensus standing, shared for introspection: every live
/// replica writes its own slot; `/healthz` and the consensus gauges render
/// the merged view (a fresh leader slot wins; no live leader slot at all
/// means quorum loss). A replica that crashes — simulated or real exit —
/// marks its slot `exited`, mirroring what a process death looks like to a
/// same-process introspection endpoint.
#[derive(Debug, Clone, Default)]
struct ConsensusBoard {
    slots: Arc<Mutex<Vec<BoardSlot>>>,
}

#[derive(Debug, Clone, Copy, Default)]
struct BoardSlot {
    term: u64,
    is_leader: bool,
    commit: u64,
    exited: bool,
}

impl ConsensusBoard {
    fn new(replicas: u32) -> Self {
        ConsensusBoard {
            slots: Arc::new(Mutex::new(vec![BoardSlot::default(); replicas as usize])),
        }
    }

    fn update(&self, id: u32, term: u64, is_leader: bool, commit: u64) {
        let mut slots = self.slots.lock();
        slots[id as usize] = BoardSlot {
            term,
            is_leader,
            commit,
            exited: false,
        };
    }

    fn mark_exited(&self, id: u32) {
        self.slots.lock()[id as usize].exited = true;
    }

    /// `(max term, leader replica id if any, max commit)` across live slots.
    fn view(&self) -> (u64, Option<u32>, u64) {
        let slots = self.slots.lock();
        let mut term = 0;
        let mut commit = 0;
        let mut leader: Option<(u64, u32)> = None;
        for (k, s) in slots.iter().enumerate() {
            if s.exited {
                continue;
            }
            term = term.max(s.term);
            commit = commit.max(s.commit);
            if s.is_leader && leader.is_none_or(|(t, _)| s.term > t) {
                leader = Some((s.term, k as u32));
            }
        }
        (term, leader.map(|(_, k)| k), commit)
    }
}

/// Derive `/healthz`'s consensus line and the Prometheus consensus gauges
/// from the board. Every live replica publishes the same merged view, so
/// writes race benignly.
fn publish_consensus(
    board: &ConsensusBoard,
    health: &HealthView,
    metrics: Option<&MetricsRegistry>,
    replicas: u32,
) {
    let (term, leader, commit) = board.view();
    health.set_consensus(Some(ConsensusHealth {
        term,
        leader: leader.map(|k| format!("supervisor{k}")),
        replicas,
    }));
    if let Some(reg) = metrics {
        reg.set_gauge("consensus_term", term as f64);
        reg.set_gauge(
            "consensus_is_leader",
            if leader.is_some() { 1.0 } else { 0.0 },
        );
        reg.set_gauge("consensus_commits_total", commit as f64);
    }
}

/// Fault-tolerance knobs of the resilient runtime.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// How often each server heartbeats the supervisor.
    pub heartbeat_every: Duration,
    /// Silence after which the supervisor declares a server dead. Should be
    /// several heartbeat intervals.
    pub liveness_timeout: Duration,
    /// Capture a checkpoint every this many `V_train` advances (and once at
    /// startup, so recovery always has something to restore). At least 1:
    /// a push is acknowledged as held for good only once a stored
    /// checkpoint holds it, and until then its worker keeps it for replay,
    /// so under SSP a worker keeps at most about the staleness bound plus
    /// this many iterations of pushes (DESIGN.md §10).
    pub checkpoint_every: u64,
    /// Deterministic crash: server `m` exits (without drain or farewell) as
    /// soon as its shard's `V_train` reaches the threshold. One-shot — the
    /// replacement does not inherit the switch.
    pub kill_server: Option<(u32, u64)>,
    /// `true`: a dead server is replaced from its latest checkpoint.
    /// `false`: degraded mode — survivors adopt the dead server's keys.
    pub spawn_replacement: bool,
    /// Client-side resilience policy installed on every worker.
    pub retry: RetryPolicy,
    /// Seeded fault schedule applied to all worker/server messaging.
    pub fault_plan: FaultPlan,
    /// Number of supervisor replicas forming the control-plane quorum.
    /// 1 (the default) is solo mode — instant leadership, instant commit,
    /// the exact pre-quorum behavior on the same code path. 3+ survives
    /// leader death by election.
    pub num_supervisors: u32,
    /// Deterministic supervisor crashes: replica `k` exits (without drain
    /// or farewell) as soon as it has applied commit index `v`. Repeatable:
    /// killing the leader exercises failover; killing a quorum (2 of 3)
    /// exercises explicit leaderless degradation.
    pub kill_supervisors: Vec<(u32, u64)>,
    /// Base election timeout of the consensus layer (effective timeouts add
    /// seeded jitter). Must be strictly longer than `leader_lease`.
    pub election_timeout: Duration,
    /// Leadership lease: a leader that cannot hear acks from a quorum
    /// within this window steps down instead of acting on stale authority.
    pub leader_lease: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            heartbeat_every: Duration::from_millis(25),
            liveness_timeout: Duration::from_millis(150),
            checkpoint_every: 2,
            kill_server: None,
            spawn_replacement: true,
            retry: RetryPolicy::default(),
            fault_plan: FaultPlan::passthrough(),
            num_supervisors: 1,
            kill_supervisors: Vec::new(),
            election_timeout: Duration::from_millis(300),
            leader_lease: Duration::from_millis(150),
        }
    }
}

impl RecoveryConfig {
    /// Check the invariants a working configuration must hold: a liveness
    /// timeout no longer than the heartbeat interval would declare healthy
    /// servers dead between two heartbeats, an election timeout not
    /// strictly longer than the leader lease would let a follower depose a
    /// leader that is still inside its lease, and `checkpoint_every == 0`
    /// would never store a checkpoint past startup, so no push would ever
    /// be acknowledged as held and every worker would keep all of them. A
    /// fault-tolerant launch rejects invalid configurations up front by
    /// panicking with the returned message.
    pub fn validate(&self) -> Result<(), String> {
        if self.liveness_timeout <= self.heartbeat_every {
            return Err(format!(
                "liveness_timeout ({:?}) must be strictly longer than heartbeat_every ({:?}): \
                 anything shorter declares servers dead between two heartbeats",
                self.liveness_timeout, self.heartbeat_every
            ));
        }
        if self.election_timeout <= self.leader_lease {
            return Err(format!(
                "election_timeout ({:?}) must be strictly longer than leader_lease ({:?}): \
                 anything shorter lets followers depose a leader still inside its lease",
                self.election_timeout, self.leader_lease
            ));
        }
        if self.num_supervisors == 0 {
            return Err("num_supervisors must be at least 1".to_string());
        }
        if self.checkpoint_every == 0 {
            return Err(
                "checkpoint_every must be at least 1: without a checkpoint no push is ever \
                 acknowledged as held, and every worker keeps all of them for replay"
                    .to_string(),
            );
        }
        Ok(())
    }
}

impl<N: Network + Default> Cluster<FaultyNetwork<N>> {
    /// Launch servers, supervisor replicas and fault-wrapped worker clients;
    /// with a `collector`, every node records trace events into it.
    pub fn launch(
        cfg: EngineConfig,
        rcfg: RecoveryConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
        collector: Option<&TraceCollector>,
    ) -> Result<Launched<N>, TransportError> {
        let obs = Observability {
            collector: collector.cloned(),
            ..Observability::default()
        };
        Self::launch_observed(cfg, rcfg, map, init, obs)
    }
}

impl<N: Network> Cluster<FaultyNetwork<N>> {
    /// The `engine` label of this cluster's gauges: `resilient-tcp` over
    /// loopback TCP.
    pub fn engine() -> String {
        format!("resilient-{}", N::NAME)
    }

    /// The readiness view fed by the supervisors' liveness monitor — what
    /// `/healthz` of [`Observability::http`] serves.
    pub fn health(&self) -> HealthView {
        let liveness = self.session.liveness.clone();
        liveness.expect("a fault-tolerant cluster monitors liveness")
    }
}

/// The fault-tolerant cluster: every server runs `cfg.model` behind the
/// resilient gate ([`run_resilient`]), every worker retries under
/// [`RecoveryConfig::retry`], and [`RecoveryConfig::num_supervisors`]
/// replicas watch the servers from the bare network. The replicas publish
/// the `consensus_term`, `consensus_is_leader` and `consensus_commits_total`
/// gauges into [`Observability::metrics`], and their liveness monitor feeds
/// `/healthz` of [`Observability::http`].
impl<N: Network + Default> Role<FaultyNetwork<N>> for RecoveryConfig {
    fn launch(self, plan: Plan<'_>) -> Result<Launched<N>, TransportError> {
        let rcfg = self;
        if let Err(e) = rcfg.validate() {
            panic!("invalid RecoveryConfig: {e}");
        }
        let (cfg, map) = (plan.cfg, plan.map.clone());
        let health = HealthView::new();
        let board = ConsensusBoard::new(rcfg.num_supervisors);
        // Published before the endpoint is up and before any election:
        // /healthz honestly reports the control plane as not-yet-established
        // until the first leader wins.
        publish_consensus(
            &board,
            &health,
            plan.obs.metrics.as_ref(),
            rcfg.num_supervisors,
        );
        let store = CheckpointStore::default();
        let fabric = FaultInjector::new(rcfg.fault_plan.clone()).network(N::default());
        // The control plane stays outside the fault shim: the supervisors
        // are bound on the bare network before any server runs, so a
        // server's first heartbeat finds its leader.
        let supervisor_nodes = (0..rcfg.num_supervisors)
            .map(|k| fabric.bare().bind(NodeId::Supervisor(k)))
            .collect::<Result<Vec<_>, _>>()?;
        let engine = Cluster::<FaultyNetwork<N>>::engine();
        let liveness = Some(health.clone());
        let drive = |server, keys, postman, mailbox, servers: &Servers| {
            let watermarks = vec![None; cfg.num_workers as usize];
            let (store, stop) = (Arc::clone(&store), servers.stop_latch());
            let state = ResilientServer::new(server, keys, watermarks, rcfg.clone(), store, stop);
            move || run_resilient(state, &mailbox, postman)
        };
        let (mut cluster, mut workers) = Cluster::start(
            fabric,
            plan,
            &cfg.models(),
            (&engine, STEM),
            liveness,
            drive,
        )?;
        for w in &mut workers {
            w.set_retry_policy(rcfg.retry.clone());
        }

        // Consensus gauges: HELP text once at launch, values published by
        // every live replica from the shared board.
        if let Some(reg) = &cluster.session.obs.metrics {
            reg.set_help(
                "consensus_term",
                "Highest consensus term observed across live supervisor replicas.",
            );
            reg.set_help(
                "consensus_is_leader",
                "1 when a live supervisor replica holds control-plane leadership, 0 when leaderless.",
            );
            reg.set_help(
                "consensus_commits_total",
                "Highest committed control-plane log index across live supervisor replicas.",
            );
        }
        for (k, (postman, node)) in (0u32..).zip(supervisor_nodes) {
            // Replica 0 keeps the historical `scheduler` trace identity so
            // merged timelines stay comparable across cluster flavors;
            // extra replicas stream under their own supervisor id.
            let trace_id = if k == 0 {
                NodeId::Scheduler
            } else {
                NodeId::Supervisor(k)
            };
            let (tracer, streamer) = cluster.session.obs.node(trace_id);
            let replica = SupervisorReplica {
                id: k,
                cfg,
                rcfg: rcfg.clone(),
                obs: cluster.session.obs.clone(),
                fabric: cluster.fabric.clone(),
                map: map.clone(),
                tracer,
                store: Arc::clone(&store),
                servers: cluster.servers.clone(),
                generation: 0,
                health: health.clone(),
                board: board.clone(),
                consensus: Replica::new(ConsensusConfig {
                    id: k,
                    replicas: rcfg.num_supervisors,
                    heartbeat_every: rcfg.heartbeat_every,
                    leader_lease: rcfg.leader_lease,
                    election_timeout: rcfg.election_timeout,
                    seed: cfg.seed ^ 0x5EED_C0DE,
                }),
                applied: 0,
                pending_dead: BTreeSet::new(),
                dead_for_good: BTreeSet::new(),
                was_leader: false,
                next_request: 0,
                postman,
                liveness: LivenessMonitor::new(rcfg.liveness_timeout.as_millis().max(1) as u64),
                start: Instant::now(),
                last_noop: Duration::ZERO,
            };
            // The thread waits and ticks; the fabric runs the replica.
            let thread = std::thread::Builder::new()
                .name(format!("fluentps-supervisor-{k}"))
                .spawn(move || replica.run(&node))
                .expect("spawn supervisor replica");
            cluster.supervisors.push((thread, streamer));
        }
        Ok((cluster, workers))
    }
}

/// What a fault-tolerant launch over `N` returns.
type Launched<N> = (Cluster<FaultyNetwork<N>>, Vec<Worker<FaultyNetwork<N>>>);

/// Per-worker applied-push window: a watermark (everything at or below is
/// applied) plus the out-of-order progresses above it. The window — rather
/// than a bare watermark — matters because a dropped push can arrive
/// *after* a later one was applied; a bare watermark would then reject the
/// replay forever and stall `V_train`.
#[derive(Debug, Clone, Default)]
struct WorkerWindow {
    watermark: Option<u64>,
    ahead: BTreeSet<u64>,
}

impl WorkerWindow {
    fn is_applied(&self, progress: u64) -> bool {
        self.watermark.is_some_and(|w| progress <= w) || self.ahead.contains(&progress)
    }

    fn apply(&mut self, progress: u64) {
        self.ahead.insert(progress);
        loop {
            let next = self.watermark.map(|w| w + 1).unwrap_or(0);
            if self.ahead.remove(&next) {
                self.watermark = Some(next);
            } else {
                break;
            }
        }
    }

    /// True when every applied push is covered by the watermark — the only
    /// state in which the watermark alone describes the applied set, and
    /// therefore the only state safe to checkpoint.
    fn gapless(&self) -> bool {
        self.ahead.is_empty()
    }
}

/// Per worker, one past its applied watermark: the pushes below it are held.
fn held(watermarks: &[Option<u64>]) -> Vec<u64> {
    watermarks.iter().map(|w| w.map_or(0, |w| w + 1)).collect()
}

/// What [`ResilientServer::admit`] decided about an incoming message.
enum Admit {
    /// New work: run the Algorithm-1 step on it.
    Handle,
    /// A duplicate of a request already answered: send this reply to the
    /// worker again; the shard (and its statistics) never sees the message.
    Replay(u32, Message),
    /// Nothing (more) to do: a stale or premature request the worker's
    /// retry supersedes, or a control message `admit` consumed itself.
    Ignore,
}

/// One incarnation of a fault-tolerant server: the shared Algorithm-1 step
/// ([`ShardServer`]) plus what makes it survive retries, reroutes and its
/// own death. No socket, thread or wall clock inside — [`run_resilient`]
/// and the mailbox it serves from supply those — so scripted message
/// sequences test it directly.
///
/// Per message: [`admit`](Self::admit) gates it *before* the step,
/// [`observe`](Self::observe) reads the step's replies *after* it.
/// [`tick`](Self::tick) does what must happen on schedule whether or not
/// messages arrive.
pub(crate) struct ResilientServer {
    server: ShardServer,
    /// Wire keys this shard owns, sorted (checkpoint capture order).
    keys: Vec<u64>,
    seen: Vec<WorkerWindow>,
    /// Last `PullResponse` sent per worker, as sent. A duplicate pull is
    /// answered from here when progress *and* key set match: a worker
    /// re-pulls the same progress with a different key set after a
    /// `RouteUpdate`, and the cached response would silently omit the
    /// newly adopted parameters.
    last_reply: Vec<Option<Message>>,
    /// Pull currently parked in the DPR buffer per worker: `(progress,
    /// requested keys)`.
    parked: Vec<Option<(u64, Vec<u64>)>>,
    /// The supervisor replica this server believes currently leads. Wrong
    /// guesses are cheap: a live follower answers with a `LeaderRedirect`,
    /// and a crashed replica fails the send, rotating to the next one.
    leader: u32,
    hb_seq: u64,
    last_hb: Option<Duration>,
    checkpoint_due: bool,
    last_cp_v: Option<u64>,
    /// Per worker, one past its watermark in the latest stored checkpoint
    /// (0 while that holds none of its pushes): the progress its acks
    /// carry. Every push below it survives this server's death.
    durable: Vec<u64>,
    rcfg: RecoveryConfig,
    store: CheckpointStore,
    /// The cluster's stop latch (`launch::Servers`): checked on every
    /// quiet interval so a lost `Shutdown` frame cannot strand the thread.
    stop: Arc<AtomicBool>,
}

impl ResilientServer {
    /// Serve `server`'s shard, which owns `keys` (sorted) and has applied
    /// every push up to `watermarks[w]` of each worker `w` — the state of
    /// the checkpoint `store` holds for it, if any.
    pub(crate) fn new(
        server: ShardServer,
        keys: Vec<u64>,
        watermarks: Vec<Option<u64>>,
        rcfg: RecoveryConfig,
        store: CheckpointStore,
        stop: Arc<AtomicBool>,
    ) -> Self {
        let workers = watermarks.len();
        ResilientServer {
            server,
            keys,
            durable: held(&watermarks),
            seen: watermarks
                .into_iter()
                .map(|watermark| WorkerWindow {
                    watermark,
                    ahead: BTreeSet::new(),
                })
                .collect(),
            last_reply: vec![None; workers],
            parked: vec![None; workers],
            leader: 0,
            hb_seq: 0,
            last_hb: None,
            checkpoint_due: true, // capture once at startup
            last_cp_v: None,
            rcfg,
            store,
            stop,
        }
    }

    fn id(&self) -> u32 {
        self.server.shard().config().server_id
    }

    fn holds(&self, keys: &[u64]) -> bool {
        keys.iter().all(|k| self.keys.binary_search(k).is_ok())
    }

    /// Leave, answering parked pulls first, if the stop latch is set. Asked
    /// only on a quiet heartbeat interval, never after a message: the drain
    /// path sets the latch before it sends `Shutdown` and joins, and a push
    /// still coming in must be applied, not cut off (DESIGN.md §18). Even a
    /// lost frame lets the server exit once its input is quiet.
    fn stop_if_latched(&mut self, out: &mut Vec<(NodeId, Message)>) -> Flow {
        if self.stop.load(Ordering::Relaxed) {
            self.server.drain(out);
            return Flow::Stop;
        }
        Flow::Continue
    }

    /// What must happen on schedule, `now` being the time since this
    /// incarnation started: heartbeat, crash at the kill threshold, capture
    /// a due checkpoint. Messages to send land on `out`.
    pub(crate) fn tick(&mut self, now: Duration, out: &mut Vec<(NodeId, Message)>) -> Flow {
        // Heartbeat on schedule, even under load.
        if self
            .last_hb
            .is_none_or(|t| now.saturating_sub(t) >= self.rcfg.heartbeat_every)
        {
            self.hb_seq += 1;
            let hb = Message::Heartbeat {
                node: NodeId::Server(self.id()),
                seq: self.hb_seq,
            };
            out.push((NodeId::Supervisor(self.leader), hb));
            self.last_hb = Some(now);
        }
        // Deterministic crash at a logical time: no drain, no farewell.
        // Checked before the checkpoint block so state reached at the kill
        // threshold dies uncaptured — recovery genuinely replays from an
        // older snapshot.
        let v_train = self.server.shard().v_train();
        if self
            .rcfg
            .kill_server
            .is_some_and(|(m, v)| m == self.id() && v_train >= v)
        {
            return Flow::Stop;
        }
        // Checkpoint when due and the applied windows are gapless (a gap
        // means the watermark under-describes the applied set).
        if self.checkpoint_due && self.seen.iter().all(WorkerWindow::gapless) {
            let applied: Vec<Option<u64>> = self.seen.iter().map(|w| w.watermark).collect();
            let cp =
                ShardCheckpoint::capture_with_applied(self.server.shard(), &self.keys, &applied);
            let bytes = cp.to_bytes();
            self.server.tracer.record(
                EventKind::CheckpointCaptured,
                RecordArgs::new()
                    .shard(self.id())
                    .v_train(cp.v_train)
                    .bytes(bytes.len() as u64),
            );
            self.store.lock().insert(self.id(), bytes);
            self.durable = held(&applied);
            self.last_cp_v = Some(cp.v_train);
            self.checkpoint_due = false;
        }
        Flow::Continue
    }

    /// A send to `to` failed; a dead leader means the next heartbeat tries
    /// the next replica.
    pub(crate) fn unreachable(&mut self, to: NodeId) {
        if to == NodeId::Supervisor(self.leader) {
            self.leader = (self.leader + 1) % self.rcfg.num_supervisors;
        }
    }

    /// One message through gate, step and bookkeeping; replies land on
    /// `out`.
    pub(crate) fn step(&mut self, msg: Message, out: &mut Vec<(NodeId, Message)>) -> Flow {
        match self.admit(&msg) {
            Admit::Handle => {
                let asked = match msg.bare() {
                    Message::SPull {
                        worker,
                        progress,
                        keys,
                    } => Some((*worker as usize, *progress, keys.clone())),
                    _ => None,
                };
                let first = out.len();
                let flow = self.server.handle(msg, out);
                if let Some((w, progress, keys)) = asked {
                    if out.len() == first {
                        // No reply: the pull is now a DPR.
                        self.parked[w] = Some((progress, keys));
                    }
                }
                self.observe(&out[first..]);
                // Acked as held, not as applied: what the worker may forget.
                for (to, reply) in &mut out[first..] {
                    if let (NodeId::Worker(w), Message::PushAck { .. }) = (*to, reply.bare()) {
                        *reply = wrap(self.ack(w), reply.ctx());
                    }
                }
                flow
            }
            // Seen but not stepped: the shard never learns of these.
            admit => {
                self.server.record_recv(&msg);
                if let Admit::Replay(worker, reply) = admit {
                    self.server.send(out, worker, reply);
                }
                Flow::Continue
            }
        }
    }

    /// Gate a message before the step. Control messages addressed to the
    /// server itself (`Install`, `LeaderRedirect`) are consumed here.
    fn admit(&mut self, msg: &Message) -> Admit {
        match msg.bare() {
            Message::SPush {
                worker, progress, ..
            } if self.seen[*worker as usize].is_applied(*progress) => {
                // Replay of an already-applied push: re-ack only.
                Admit::Replay(*worker, wrap(self.ack(*worker), msg.ctx()))
            }
            Message::SPull {
                worker,
                progress,
                keys,
            } => {
                let w = *worker as usize;
                let holds = self.holds(keys);
                if let Some((p, parked_keys)) = &mut self.parked[w] {
                    if p == progress {
                        // Re-issued pull for a round already parked in the
                        // DPR buffer; the release will answer it. After a
                        // `RouteUpdate` the re-issue names the keys this
                        // server adopted too, and the release must carry
                        // them — or the worker would train the next round
                        // on stale values for those keys.
                        if parked_keys != keys && holds {
                            self.server.shard.retarget_dpr(*worker, *progress, keys);
                            parked_keys.clone_from(keys);
                        }
                        return Admit::Ignore;
                    }
                }
                if let Some(cached) = &self.last_reply[w] {
                    if let Message::PullResponse {
                        progress: p, kv, ..
                    } = cached.bare()
                    {
                        if p == progress && kv.keys == *keys {
                            // Duplicate of an answered pull: re-send the
                            // cached response verbatim — no condition
                            // re-evaluation, no rng draw, no statistics
                            // drift.
                            return Admit::Replay(*worker, cached.clone());
                        }
                        if p > progress {
                            // Stale retransmit of a round the worker has
                            // already finished.
                            return Admit::Ignore;
                        }
                    }
                }
                if !holds {
                    // The worker's routing ran ahead of our Install (the
                    // supervisor's recovery messages race on separate
                    // streams); its retry will re-issue the pull once the
                    // parameters have arrived.
                    return Admit::Ignore;
                }
                Admit::Handle
            }
            Message::Install { kv } => {
                // Recovery: adopt parameters verbatim (degraded-mode
                // hand-off of a dead server's keys).
                for (key, vals) in kv.iter() {
                    self.server.shard.init_param(key, vals.to_vec());
                    if let Err(i) = self.keys.binary_search(&key) {
                        self.keys.insert(i, key);
                    }
                }
                self.checkpoint_due = true;
                Admit::Ignore
            }
            Message::LeaderRedirect { leader, .. } => {
                // A follower replica told us who leads. `NO_LEADER` means
                // an election is in progress — keep the current target
                // rather than thrash between candidates.
                if *leader != NO_LEADER && *leader < self.rcfg.num_supervisors {
                    self.leader = *leader;
                }
                Admit::Ignore
            }
            _ => Admit::Handle,
        }
    }

    /// The ack worker `w` gets for any push: every one of its pushes below
    /// `progress` is held by the latest stored checkpoint, so no
    /// incarnation of this server will ask for it again.
    fn ack(&self, w: u32) -> Message {
        Message::PushAck {
            server: self.id(),
            progress: self.durable[w as usize],
        }
    }

    /// Read the replies of one step: an ack means its push is applied, a
    /// pull response is the worker's new cached reply and un-parks its
    /// pull, and `V_train` may have moved a checkpoint interval.
    fn observe(&mut self, replies: &[(NodeId, Message)]) {
        for (to, reply) in replies {
            let NodeId::Worker(worker) = *to else {
                continue;
            };
            let w = worker as usize;
            match reply.bare() {
                Message::PushAck { progress, .. } => self.seen[w].apply(*progress),
                Message::PullResponse { progress, .. } => {
                    if self.parked[w].as_ref().is_some_and(|(p, _)| p == progress) {
                        self.parked[w] = None;
                    }
                    self.last_reply[w] = Some(reply.clone());
                }
                _ => {}
            }
        }
        let every = self.rcfg.checkpoint_every;
        if self.server.shard().v_train() >= self.last_cp_v.unwrap_or(0) + every {
            self.checkpoint_due = true;
        }
    }
}

/// One server incarnation as the step its mailbox serves (DESIGN.md §18).
/// Differs from [`crate::serve::run`]'s only by what resilience needs: the
/// [`ResilientServer::tick`] after every message and on every quiet
/// heartbeat interval, and sends whose failures reach the server (a
/// heartbeat to a dead leader).
struct Resilient<P> {
    server: ResilientServer,
    postman: P,
    /// When this incarnation started: the zero of `tick`'s clock.
    start: Instant,
    out: Vec<(NodeId, Message)>,
}

impl<P: Postman> Resilient<P> {
    /// Send what is queued: one batch per destination, in order of first
    /// appearance, so that a failure names who could not be reached. What
    /// goes to a worker answers it, over the connection it asked on;
    /// heartbeats go to a supervisor replica, which does not read the
    /// connections it dials.
    fn flush(&mut self) {
        if self.out.is_empty() {
            return;
        }
        for (to, msgs) in per_destination(self.out.drain(..)) {
            let batch = msgs.into_iter().map(|msg| (to, msg)).collect();
            let sent = match to {
                NodeId::Worker(_) => self.postman.reply_batch(batch),
                _ => self.postman.send_batch(batch),
            };
            if sent.is_err() {
                self.server.unreachable(to);
            }
        }
    }
}

impl<P: Postman + 'static> Step for Resilient<P> {
    fn step(&mut self, input: Input) -> Flow {
        let now = self.start.elapsed();
        let (flow, flush) = match input {
            Input::Message(_, msg) => match self.server.step(msg, &mut self.out) {
                Flow::Continue => (self.server.tick(now, &mut self.out), false),
                Flow::Stop => (Flow::Stop, true),
            },
            Input::Tick => match self.server.stop_if_latched(&mut self.out) {
                Flow::Continue => (self.server.tick(now, &mut self.out), true),
                Flow::Stop => (Flow::Stop, true),
            },
            Input::Dry => (Flow::Continue, true),
        };
        if flush || flow == Flow::Stop {
            self.flush();
        }
        flow
    }
}

/// Serve one server incarnation from `rx` until it is shut down, stopped or
/// killed.
fn run_resilient<M: Mailbox, P: Postman + 'static>(
    server: ResilientServer,
    rx: &M,
    postman: P,
) -> ShardStats {
    let wake = server.rcfg.heartbeat_every;
    let mut step = Resilient {
        server,
        postman,
        start: Instant::now(),
        out: Vec::new(),
    };
    // The first heartbeat and the start-up checkpoint wait for neither a
    // message nor a quiet interval.
    if step.step(Input::Tick) == Flow::Continue {
        step = rx.serve(Some(wake), step);
    }
    step.server.server.into_stats()
}

/// One supervisor replica: drives its consensus [`Replica`], observes
/// server heartbeats while leading, and applies committed control commands
/// to the recovery state machine.
///
/// Every recovery decision — death verdict, replacement, remap — flows
/// through the replicated log: the leader *proposes* (`DeclareDead`, then
/// `Replaced` or `Remapped`), and the effect (spawning the replacement,
/// sending `Install`/`RouteUpdate`) runs only when the entry *commits*.
/// A leader deposed mid-decision therefore cannot leave effects its
/// successor does not know about, and an un-replicated verdict simply
/// vanishes with the old term. Followers mirror the committed route table
/// by replaying `Remapped` entries through the same deterministic
/// [`EpsSlicer::remap_dead`], so whichever replica wins the next election
/// resumes from identical control-plane state.
///
/// No socket, thread or receive loop inside: the replica is the step its
/// node is served with ([`SupervisorReplica::run`]), [`tick`](Self::tick)
/// doing what must happen on schedule and
/// [`on_message`](Self::on_message) reacting to one message, both told the
/// time — so scripted sequences test it directly. Everything it sends goes
/// out through `send`/`send_batch`, over connections it dials: a server and
/// a peer replica do not read the connections *they* dial, so nothing here
/// answers with `reply_batch`.
struct SupervisorReplica<N, P> {
    id: u32,
    cfg: EngineConfig,
    rcfg: RecoveryConfig,
    /// The cluster's observability, for tracing a replacement server and
    /// publishing the consensus gauges.
    obs: Observability,
    /// The data plane's fabric: what a replacement server is bound on.
    fabric: FaultyNetwork<N>,
    /// This replica's mirror of the route table; mutated only when a
    /// committed `Remapped` entry is applied, so all replicas hold
    /// identical maps at equal applied indices.
    map: SliceMap,
    tracer: Tracer,
    store: CheckpointStore,
    /// The cluster's server registry, which a replacement joins.
    servers: Servers,
    generation: u64,
    health: HealthView,
    board: ConsensusBoard,
    consensus: Replica,
    /// Log index up to which this replica has applied committed entries.
    applied: u64,
    /// Committed `DeclareDead` verdicts not yet resolved by a committed
    /// `Replaced`/`Remapped` entry.
    pending_dead: BTreeSet<u32>,
    /// Servers whose death resolved to degraded mode — permanently dead.
    dead_for_good: BTreeSet<u32>,
    was_leader: bool,
    /// Counter for this replica's causal request ids; see
    /// [`SupervisorReplica::next_request_id`].
    next_request: u64,
    postman: P,
    /// When each server was last heard from; consulted while leading.
    liveness: LivenessMonitor,
    /// When this replica started: the zero of the clock `tick` and
    /// `on_message` are told.
    start: Instant,
    /// When this replica, leading, last proposed a no-op.
    last_noop: Duration,
}

impl<N: Network, P: Postman + 'static> Step for SupervisorReplica<N, P> {
    fn step(&mut self, input: Input) -> Flow {
        let now = self.start.elapsed();
        match input {
            Input::Message(_, msg) => match self.on_message(msg, now) {
                Flow::Continue => self.tick(now),
                Flow::Stop => Flow::Stop,
            },
            Input::Tick => self.tick(now),
            // Nothing is queued: every send leaves when it is made.
            Input::Dry => Flow::Continue,
        }
    }
}

impl<N: Network, P: Postman + 'static> SupervisorReplica<N, P> {
    /// Serve this replica from `node` until it is shut down or killed. The
    /// servers are the cluster's to drain, once every replica is joined.
    fn run(mut self, node: &impl Mailbox) {
        let wake = self.rcfg.heartbeat_every;
        // The first consensus tick waits for neither a message nor a quiet
        // interval.
        if self.step(Input::Tick) == Flow::Continue {
            node.serve(Some(wake), self);
        }
    }

    /// What must happen on schedule, after every message and on every quiet
    /// heartbeat interval: drive the consensus state machine, propose while
    /// leading, apply what committed, crash at the kill threshold, publish.
    fn tick(&mut self, now: Duration) -> Flow {
        let now_ms = now.as_millis() as u64;
        // Elections, leader heartbeats, lease checks. Consensus traffic is
        // best-effort: a crashed replica fails the send and is skipped — the
        // protocol tolerates loss.
        let _ = self.postman.send_batch(self.consensus.tick(now));
        if self.consensus.is_leader() && !self.was_leader {
            self.on_accession(now_ms);
        }
        self.was_leader = self.consensus.is_leader();

        if self.consensus.is_leader() {
            // A periodic no-op keeps the applied index advancing like a
            // clock, which is what gives `kill_supervisors` thresholds
            // ("die after applying index v") a deterministic meaning
            // even in runs where no server ever fails.
            if now.saturating_sub(self.last_noop) >= self.rcfg.heartbeat_every {
                self.consensus.propose(ControlCommand::Tick, now);
                self.last_noop = now;
            }
            // Death verdicts are proposals, not actions: the effect
            // waits for the quorum commit.
            for dead in self.liveness.dead_nodes(now_ms) {
                let NodeId::Server(m) = dead else { continue };
                self.liveness.remove(dead);
                if self.pending_dead.contains(&m) || self.dead_for_good.contains(&m) {
                    continue;
                }
                self.tracer.record(
                    EventKind::NodeDeclaredDead,
                    RecordArgs::new().shard(m).v_train(now_ms),
                );
                self.consensus
                    .propose(ControlCommand::DeclareDead { server: m }, now);
            }
        }
        self.apply_committed(now);

        // Deterministic replica crash: exit without drain or farewell
        // once the configured applied index is reached.
        let (id, applied) = (self.id, self.applied);
        let kills = &self.rcfg.kill_supervisors;
        let crashed = kills.iter().any(|&(k, v)| k == id && applied >= v);
        if crashed {
            self.board.mark_exited(id);
        } else {
            self.board.update(
                id,
                self.consensus.term(),
                self.consensus.is_leader(),
                self.consensus.commit_index(),
            );
        }
        publish_consensus(
            &self.board,
            &self.health,
            self.obs.metrics.as_ref(),
            self.rcfg.num_supervisors,
        );
        if crashed {
            return Flow::Stop;
        }
        if self.consensus.is_leader() {
            self.publish_node_health(now_ms);
        }
        Flow::Continue
    }

    /// React to one message: a heartbeat is observed (leading) or answered
    /// with a redirect (following), consensus traffic goes to the consensus
    /// state machine, `Shutdown` stops the replica.
    fn on_message(&mut self, msg: Message, now: Duration) -> Flow {
        match msg {
            Message::Heartbeat { node: n, .. } => {
                if self.consensus.is_leader() {
                    let ignore = matches!(n, NodeId::Server(m)
                        if self.pending_dead.contains(&m)
                            || self.dead_for_good.contains(&m));
                    if !ignore {
                        self.liveness.observe(n, now.as_millis() as u64);
                    }
                } else if let NodeId::Server(m) = n {
                    // Redirect the server to whoever we believe
                    // leads; `NO_LEADER` while an election runs.
                    let _ = self.postman.send(
                        NodeId::Server(m),
                        Message::LeaderRedirect {
                            term: self.consensus.term(),
                            leader: self.consensus.leader_hint().unwrap_or(NO_LEADER),
                        },
                    );
                }
            }
            Message::VoteRequest { .. }
            | Message::VoteResponse { .. }
            | Message::AppendEntries { .. }
            | Message::AppendAck { .. } => {
                let out = self.consensus.handle(&msg, now);
                let _ = self.postman.send_batch(out);
            }
            Message::Shutdown => return Flow::Stop,
            _ => {}
        }
        Flow::Continue
    }

    /// This replica just won an election. A follower's liveness view is
    /// cold — it was not the one observing heartbeats — so give every
    /// server that is not conclusively dead a fresh grace period, and put
    /// committed-but-unresolved death verdicts back under observation too:
    /// if the previous leader already spawned a replacement it will
    /// heartbeat within the grace period, otherwise the server is
    /// re-declared and resolved by *this* leader. Recovery is thereby
    /// at-least-once across leaders without ever double-spawning.
    fn on_accession(&mut self, now_ms: u64) {
        for m in 0..self.cfg.num_servers {
            if !self.dead_for_good.contains(&m) {
                self.liveness.observe(NodeId::Server(m), now_ms);
                self.pending_dead.remove(&m);
            }
        }
        let term = self.consensus.term();
        self.tracer.record(
            EventKind::LeaderElected,
            RecordArgs::new().shard(self.id).v_train(term),
        );
        if term > 1 && self.rcfg.num_supervisors > 1 {
            self.tracer.record(
                EventKind::SupervisorFailover,
                RecordArgs::new().shard(self.id).v_train(term),
            );
        }
    }

    /// Apply every newly committed log entry to the recovery state
    /// machine. Followers track verdicts and mirror the route table; only
    /// the current leader performs effects (spawning, installing,
    /// re-routing) — the single-leader-commit rule makes that safe.
    fn apply_committed(&mut self, now: Duration) {
        // Copied out: resolving a verdict proposes follow-up entries,
        // which appends to the log being iterated.
        let entries: Vec<LogEntry> = self.consensus.committed_since(self.applied).to_vec();
        for e in entries {
            self.applied = e.index;
            let server = match e.cmd {
                ControlCommand::Tick => continue,
                ControlCommand::DeclareDead { server: m } => {
                    if !self.pending_dead.contains(&m) && !self.dead_for_good.contains(&m) {
                        self.pending_dead.insert(m);
                        if self.consensus.is_leader() {
                            self.resolve_dead(m, now);
                        }
                    }
                    m
                }
                ControlCommand::Replaced { server: m } => {
                    self.pending_dead.remove(&m);
                    if self.consensus.is_leader() {
                        if self.try_replace(m) {
                            // Fresh grace period for the replacement.
                            self.liveness
                                .observe(NodeId::Server(m), now.as_millis() as u64);
                        } else {
                            // Checkpoint vanished or the bind failed —
                            // correct course through the log.
                            self.pending_dead.insert(m);
                            self.consensus
                                .propose(ControlCommand::Remapped { server: m }, now);
                        }
                    }
                    m
                }
                ControlCommand::Remapped { server: m } => {
                    self.pending_dead.remove(&m);
                    if self.dead_for_good.insert(m) {
                        let (remapped, moved) =
                            EpsSlicer::default().remap_dead(&self.map, &self.dead_for_good);
                        if self.consensus.is_leader() {
                            self.degrade_effect(m, &remapped, moved);
                        }
                        // Every replica mirrors the committed route table,
                        // so a successor leader remaps from identical
                        // state.
                        self.map = remapped;
                    }
                    m
                }
            };
            self.tracer.record(
                EventKind::ConsensusCommit,
                RecordArgs::new().shard(server).v_train(e.index),
            );
        }
    }

    /// Decide how a committed death verdict resolves and put the decision
    /// in the log; the effect runs when the resolution entry commits.
    fn resolve_dead(&mut self, m: u32, now: Duration) {
        let replaceable = self.rcfg.spawn_replacement
            && self
                .store
                .lock()
                .get(&m)
                .is_some_and(|b| ShardCheckpoint::from_bytes(b.clone()).is_ok());
        let cmd = if replaceable {
            ControlCommand::Replaced { server: m }
        } else {
            ControlCommand::Remapped { server: m }
        };
        self.consensus.propose(cmd, now);
    }

    fn publish_node_health(&self, now: u64) {
        let mut nodes = Vec::with_capacity(self.cfg.num_servers as usize);
        for m in 0..self.cfg.num_servers {
            let id = NodeId::Server(m);
            let (age, is_dead) =
                if self.dead_for_good.contains(&m) || self.pending_dead.contains(&m) {
                    (now, true)
                } else {
                    let last = self.liveness.last_seen(id);
                    (now.saturating_sub(last.unwrap_or(0)), last.is_none())
                };
            nodes.push(NodeHealth {
                name: format!("server{m}"),
                last_seen_age_ms: age,
                dead: is_dead,
            });
        }
        self.health.update(nodes);
    }

    /// Spawn a replacement for dead server `m` from its latest checkpoint.
    /// Returns false when no usable checkpoint exists.
    fn try_replace(&mut self, m: u32) -> bool {
        let Some(bytes) = self.store.lock().get(&m).cloned() else {
            return false;
        };
        let Ok(cp) = ShardCheckpoint::from_bytes(bytes.clone()) else {
            return false;
        };
        // Binding the id again is what lets every worker's postman reach the
        // replacement: over TCP the new address is published in the book,
        // and a postman redials once its old connection errors out.
        let Ok((postman, mailbox)) = self.fabric.bind(NodeId::Server(m)) else {
            return false;
        };

        let mut shard = launch::new_shard(&self.cfg, self.cfg.model, m);
        cp.restore_into(&mut shard);
        let watermarks = cp.applied_watermarks();
        for (w, mark) in watermarks.iter().enumerate() {
            if let Some(mark) = mark {
                // Rebuild the push counts the conditions run on; without
                // this, deduplicated replays would never re-enter
                // `Count[i]` and `V_train` could stall (see
                // `ServerShard::seed_applied`).
                shard.seed_applied(w as u32, *mark);
            }
        }
        // A replacement is a control-plane action like a remap: give it a
        // supervisor request id so the restoration shows up as a retained
        // (recovery-touched) waterfall even though it sends no messages.
        let restore_id = self.next_request_id();
        self.tracer.record(
            EventKind::CheckpointRestored,
            RecordArgs::new()
                .shard(m)
                .v_train(cp.v_train)
                .bytes(bytes.len() as u64)
                .request_id(restore_id),
        );
        self.generation += 1;
        // The replacement gets its own tracing: on the merged timeline it
        // is a new incarnation of `serverM` (the collector folds the
        // restarted batch sequence into the same per-node accounting).
        let (rep_tracer, rep_streamer) = self.obs.node(NodeId::Server(m));
        let server = ShardServer::new(
            shard,
            launch::server_rng(self.cfg.seed, m, self.generation),
            rep_tracer,
        );
        // The kill switch simulates *one* crash. A replacement inheriting it
        // would re-die the moment a replayed push brings `V_train` back to
        // the threshold, restoring the same checkpoint each time — a
        // permanent crash loop whenever the sync model lets workers run
        // ahead of `V_train` (SSP/PSSP).
        let mut rcfg = self.rcfg.clone();
        rcfg.kill_server = None;
        let state = ResilientServer::new(
            server,
            cp.params.keys.clone(),
            watermarks,
            rcfg,
            Arc::clone(&self.store),
            self.servers.stop_latch(),
        );
        // The thread waits and ticks; the fabric runs the step.
        let serve = move || run_resilient(state, &mailbox, postman);
        self.servers.spawn(STEM, m, rep_streamer, serve);
        true
    }

    /// Degraded-mode effect, run by the leader when a `Remapped` entry
    /// commits: survivors adopt the dead server's keys. Orphaned
    /// parameters are installed from the latest checkpoint (when one
    /// exists; otherwise survivors re-initialize them at zero), then every
    /// worker gets the new routing. The route-table mutation itself
    /// happens in [`SupervisorReplica::apply_committed`] on every replica.
    fn degrade_effect(&mut self, m: u32, remapped: &SliceMap, moved: usize) {
        let survivors: Vec<u32> = (0..self.cfg.num_servers).filter(|&s| s != m).collect();
        if survivors.is_empty() {
            return; // nothing to degrade onto
        }
        // One causal context covers the whole remap fan-out, so the
        // `Install`s and `RouteUpdate`s of a single recovery action — and
        // every `ShardRemapped`-adjacent event — share a waterfall. The tail
        // sampler always retains recovery-touched requests.
        let ctx = CausalCtx::new(self.next_request_id());
        self.tracer.record(
            EventKind::ShardRemapped,
            RecordArgs::new()
                .shard(m)
                .bytes(moved as u64)
                .request_id(ctx.request_id),
        );

        // Recover the orphaned parameter values from the dead server's
        // checkpoint where possible.
        let orphan_params: HashMap<u64, Vec<f32>> = self
            .store
            .lock()
            .get(&m)
            .cloned()
            .and_then(|b| ShardCheckpoint::from_bytes(b).ok())
            .map(|cp| cp.params.iter().map(|(k, v)| (k, v.to_vec())).collect())
            .unwrap_or_default();

        // Recovery control traffic bypasses the fault injector on purpose,
        // like the final shutdown: a chaos schedule must not be able to
        // blackhole the recovery protocol itself.
        let send = |to: NodeId, msg: Message| {
            let _ = self.postman.send(to, msg);
        };
        for &s in &survivors {
            let adopted: Vec<(u64, Vec<f32>)> = remapped
                .placements()
                .iter()
                .filter(|p| p.server == s && self.map.server_of(p.new_key) == Some(m))
                .map(|p| {
                    let vals = orphan_params.get(&p.new_key).cloned();
                    (p.new_key, vals.unwrap_or_else(|| vec![0.0; p.len]))
                })
                .collect();
            let slices: Vec<(u64, &[f32])> = adopted.iter().map(|(k, v)| (*k, &v[..])).collect();
            let kv = KvPairs::from_slices(&slices);
            if !kv.is_empty() {
                send(NodeId::Server(s), Message::Install { kv }.with_ctx(ctx));
            }
        }

        let wire: Vec<WirePlacement> = remapped
            .placements()
            .iter()
            .map(|p| WirePlacement {
                orig_key: p.orig_key,
                new_key: p.new_key,
                server: p.server,
                offset: p.offset as u32,
                len: p.len as u32,
            })
            .collect();
        for n in 0..self.cfg.num_workers {
            send(
                NodeId::Worker(n),
                Message::RouteUpdate {
                    placements: wire.clone(),
                }
                .with_ctx(ctx),
            );
        }
    }

    /// Allocate a causal request id in the supervisor space: the top bit
    /// distinguishes control-plane requests from worker traffic, then the
    /// replica id above a 40-bit per-replica counter — deterministic and
    /// collision-free against [`WorkerClient`](crate::worker::WorkerClient)'s id scheme.
    fn next_request_id(&mut self) -> u64 {
        self.next_request += 1;
        (1u64 << 63) | ((self.id as u64 + 1) << 40) | self.next_request
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::condition::SyncModel;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use crate::serve::tests::Recording;
    use fluentps_ml::Deltas;
    use fluentps_obs::{TraceEvent, Tracer};
    use fluentps_transport::Fabric;

    pub(crate) fn fast_recovery(kill: Option<(u32, u64)>, replace: bool) -> RecoveryConfig {
        RecoveryConfig {
            heartbeat_every: Duration::from_millis(10),
            liveness_timeout: Duration::from_millis(60),
            checkpoint_every: 1,
            kill_server: kill,
            spawn_replacement: replace,
            retry: RetryPolicy {
                timeout: Duration::from_millis(50),
                max_retries: 80,
                backoff_base: Duration::from_millis(2),
                backoff_cap: Duration::from_millis(40),
                jitter_seed: 7,
            },
            fault_plan: FaultPlan::passthrough(),
            election_timeout: Duration::from_millis(120),
            leader_lease: Duration::from_millis(60),
            ..RecoveryConfig::default()
        }
    }

    pub(crate) fn two_server_setup() -> (EngineConfig, SliceMap, HashMap<u64, Vec<f32>>) {
        let specs = vec![ParamSpec { key: 0, len: 4 }, ParamSpec { key: 1, len: 4 }];
        let mut init = HashMap::new();
        init.insert(0u64, vec![0.0; 4]);
        init.insert(1u64, vec![0.0; 4]);
        let map = EpsSlicer { max_chunk: 4 }.slice(&specs, 2);
        let cfg = EngineConfig {
            num_workers: 1,
            num_servers: 2,
            model: SyncModel::Bsp,
            ..EngineConfig::default()
        };
        (cfg, map, init)
    }

    /// A scripted server 0 — no sockets, no threads — whose shard owns
    /// `keys` (two zeros each), and the checkpoint store it captures into.
    fn scripted(
        model: SyncModel,
        num_workers: u32,
        keys: &[u64],
        rcfg: &RecoveryConfig,
    ) -> (ResilientServer, CheckpointStore) {
        let cfg = EngineConfig {
            num_workers,
            model,
            seed: 9,
            ..EngineConfig::default()
        };
        let mut shard = launch::new_shard(&cfg, model, 0);
        for &k in keys {
            shard.init_param(k, vec![0.0; 2]);
        }
        let rng = launch::server_rng(cfg.seed, 0, 0);
        let server = ShardServer::new(shard, rng, Tracer::disabled());
        let store = CheckpointStore::default();
        let state = ResilientServer::new(
            server,
            keys.to_vec(),
            vec![None; num_workers as usize],
            rcfg.clone(),
            Arc::clone(&store),
            Arc::default(),
        );
        (state, store)
    }

    /// A scripted supervisor replica `id` over `two_server_setup`'s cluster —
    /// no sockets, no threads, wired to nothing but `postman`.
    fn scripted_replica<P>(
        id: u32,
        rcfg: &RecoveryConfig,
        postman: P,
    ) -> SupervisorReplica<Fabric, P> {
        let (cfg, map, _) = two_server_setup();
        SupervisorReplica {
            id,
            cfg,
            rcfg: rcfg.clone(),
            obs: Observability::default(),
            fabric: FaultInjector::passthrough().network(Fabric::new()),
            map,
            tracer: Tracer::disabled(),
            store: CheckpointStore::default(),
            servers: Servers::default(),
            generation: 0,
            health: HealthView::new(),
            board: ConsensusBoard::new(rcfg.num_supervisors),
            consensus: Replica::new(ConsensusConfig {
                id,
                replicas: rcfg.num_supervisors,
                heartbeat_every: rcfg.heartbeat_every,
                leader_lease: rcfg.leader_lease,
                election_timeout: rcfg.election_timeout,
                seed: 9,
            }),
            applied: 0,
            pending_dead: BTreeSet::new(),
            dead_for_good: BTreeSet::new(),
            was_leader: false,
            next_request: 0,
            postman,
            liveness: LivenessMonitor::new(rcfg.liveness_timeout.as_millis() as u64),
            start: Instant::now(),
            last_noop: Duration::ZERO,
        }
    }

    fn beat(server: u32, seq: u64) -> Message {
        Message::Heartbeat {
            node: NodeId::Server(server),
            seq,
        }
    }

    /// Everything `sent` recorded, one message at a time.
    fn sent_singly(sent: &Recording) -> Vec<(NodeId, Message)> {
        sent.0.lock().iter().flatten().cloned().collect()
    }

    fn push(worker: u32, progress: u64, keys: &[u64]) -> Message {
        let ones = [1.0f32; 2];
        let entries: Vec<(u64, &[f32])> = keys.iter().map(|&k| (k, &ones[..])).collect();
        Message::SPush {
            worker,
            progress,
            kv: KvPairs::from_slices(&entries),
        }
    }

    fn pull(worker: u32, progress: u64, keys: &[u64]) -> Message {
        Message::SPull {
            worker,
            progress,
            keys: keys.to_vec(),
        }
    }

    fn step(s: &mut ResilientServer, msg: Message) -> Vec<(NodeId, Message)> {
        let mut out = Vec::new();
        assert_eq!(s.step(msg, &mut out), Flow::Continue);
        out
    }

    fn stored(store: &CheckpointStore) -> Option<ShardCheckpoint> {
        let bytes = store.lock().get(&0).cloned()?;
        Some(ShardCheckpoint::from_bytes(bytes).expect("valid checkpoint"))
    }

    fn pulled_keys(reply: &(NodeId, Message)) -> &[u64] {
        match reply.1.bare() {
            Message::PullResponse { kv, .. } => &kv.keys,
            other => panic!("not a pull response: {other:?}"),
        }
    }

    #[test]
    fn replayed_push_is_reacked_without_touching_the_shard() {
        let (mut s, _) = scripted(SyncModel::Bsp, 1, &[1], &RecoveryConfig::default());
        let ack = (
            NodeId::Worker(0),
            Message::PushAck {
                server: 0,
                progress: 0,
            },
        );
        assert_eq!(step(&mut s, push(0, 0, &[1])), [ack.clone()]);
        let (stats, v_train) = (s.server.shard().stats().clone(), s.server.shard().v_train());
        assert_eq!((stats.pushes, v_train), (1, 1));

        // The retry carries its own context; the re-ack echoes it.
        let ctx = CausalCtx::new(77).retry(1);
        let reack = step(&mut s, push(0, 0, &[1]).with_ctx(ctx));
        assert_eq!(reack, [(ack.0, ack.1.with_ctx(ctx))]);
        assert_eq!(s.server.shard().stats(), &stats);
        assert_eq!(s.server.shard().v_train(), v_train);
        assert_eq!(s.server.shard().read_param(1).unwrap(), [1.0f32; 2]);
    }

    #[test]
    fn a_push_is_acked_with_what_the_latest_stored_checkpoint_holds() {
        let rcfg = fast_recovery(None, true);
        let (mut s, store) = scripted(SyncModel::Ssp { s: 3 }, 1, &[1], &rcfg);
        let ack = |progress| {
            let ack = Message::PushAck {
                server: 0,
                progress,
            };
            [(NodeId::Worker(0), ack)]
        };
        let mut out = Vec::new();
        s.tick(Duration::ZERO, &mut out);
        assert_eq!(stored(&store).expect("startup capture").v_train, 0);
        // Applied, but held by no checkpoint yet.
        assert_eq!(step(&mut s, push(0, 0, &[1])), ack(0));
        s.tick(Duration::ZERO, &mut out);
        assert_eq!(stored(&store).unwrap().applied_watermarks(), [Some(0)]);
        assert_eq!(step(&mut s, push(0, 1, &[1])), ack(1));
        // A duplicate is re-acked with the current watermark.
        assert_eq!(step(&mut s, push(0, 0, &[1])), ack(1));
        s.tick(Duration::ZERO, &mut out);
        assert_eq!(step(&mut s, push(0, 0, &[1])), ack(2));
        // A replacement restored from that checkpoint acks the same.
        let shard = launch::new_shard(&EngineConfig::default(), SyncModel::Ssp { s: 3 }, 0);
        let server = ShardServer::new(shard, launch::server_rng(9, 0, 1), Tracer::disabled());
        let watermarks = vec![Some(1)];
        let restored =
            ResilientServer::new(server, vec![1], watermarks, rcfg, store, Arc::default());
        assert_eq!(restored.ack(0), ack(2)[0].1);
    }

    #[test]
    fn duplicate_answered_pull_is_served_from_the_cache_without_a_draw() {
        let rcfg = RecoveryConfig::default();
        let (mut s, _) = scripted(SyncModel::Asp, 1, &[1, 2], &rcfg);
        let (mut twin, _) = scripted(SyncModel::Asp, 1, &[1, 2], &rcfg);
        let first = step(&mut s, pull(0, 0, &[1, 2]));
        assert_eq!(step(&mut twin, pull(0, 0, &[1, 2])), first);
        assert_eq!(pulled_keys(&first[0]), [1, 2]);

        assert_eq!(step(&mut s, pull(0, 0, &[1, 2])), first, "verbatim");
        assert_eq!(s.server.shard().stats().pulls_total, 1);
        // The duplicate consumed no draw: both streams are where one
        // evaluated pull left them.
        assert_eq!(s.server.next_draw(), twin.server.next_draw());
        // Same progress, different key set: not the cached request.
        assert_eq!(pulled_keys(&step(&mut s, pull(0, 0, &[2]))[0]), [2]);
        assert_eq!(s.server.shard().stats().pulls_total, 2);
    }

    #[test]
    fn out_of_order_push_blocks_checkpoint_capture_until_the_gap_fills() {
        let (mut s, store) = scripted(SyncModel::Ssp { s: 3 }, 1, &[1], &RecoveryConfig::default());
        let mut out = Vec::new();
        // Push 0 was lost; push 1 lands first. The watermark cannot
        // describe {1}, so the checkpoint due since startup must wait.
        step(&mut s, push(0, 1, &[1]));
        assert!(!s.seen[0].gapless());
        assert_eq!(s.tick(Duration::ZERO, &mut out), Flow::Continue);
        assert!(stored(&store).is_none(), "captured across a gap");

        step(&mut s, push(0, 0, &[1]));
        assert!(s.seen[0].gapless());
        s.tick(Duration::ZERO, &mut out);
        let cp = stored(&store).expect("captured once gapless");
        assert_eq!(cp.applied_watermarks(), [Some(1)]);
        assert_eq!(cp.v_train, s.server.shard().v_train());
    }

    #[test]
    fn pull_naming_a_not_yet_installed_key_is_ignored() {
        let (mut s, _) = scripted(SyncModel::Asp, 1, &[1], &RecoveryConfig::default());
        // The worker's RouteUpdate outran this server's Install.
        assert_eq!(step(&mut s, pull(0, 0, &[1, 2])), []);
        assert_eq!(s.server.shard().stats().pulls_total, 0);

        let install = Message::Install {
            kv: KvPairs::single(2, vec![5.0; 2]),
        };
        assert_eq!(step(&mut s, install), []);
        let retry = step(&mut s, pull(0, 0, &[1, 2]));
        assert_eq!(pulled_keys(&retry[0]), [1, 2]);
    }

    #[test]
    fn tick_at_the_kill_threshold_exits_before_capturing() {
        let rcfg = RecoveryConfig {
            checkpoint_every: 1,
            kill_server: Some((0, 1)),
            ..RecoveryConfig::default()
        };
        let (mut s, store) = scripted(SyncModel::Bsp, 1, &[1], &rcfg);
        let mut out = Vec::new();
        assert_eq!(s.tick(Duration::ZERO, &mut out), Flow::Continue);
        assert_eq!(stored(&store).expect("startup capture").v_train, 0);
        assert!(matches!(
            out[..],
            [(NodeId::Supervisor(0), Message::Heartbeat { .. })]
        ));

        step(&mut s, push(0, 0, &[1]));
        assert_eq!(s.server.shard().v_train(), 1);
        assert!(s.checkpoint_due);
        // The state reached at the threshold dies uncaptured.
        assert_eq!(s.tick(Duration::from_millis(1), &mut out), Flow::Stop);
        assert_eq!(stored(&store).expect("still the old one").v_train, 0);
    }

    #[test]
    fn reissued_pull_with_adopted_keys_retargets_the_parked_dpr() {
        // Degraded mode: worker 0's pull for round 0 is parked on this
        // survivor with keys {1}; the dead server's key 2 is then
        // installed here and the worker, re-routed, re-issues the round's
        // pull as {1, 2}.
        let rcfg = RecoveryConfig::default();
        let (mut s, _) = scripted(SyncModel::Bsp, 2, &[1], &rcfg);
        let (mut twin, _) = scripted(SyncModel::Bsp, 2, &[1], &rcfg);
        for server in [&mut s, &mut twin] {
            step(server, push(0, 0, &[1]));
            assert_eq!(step(server, pull(0, 0, &[1])), [], "parked");
        }
        let install = Message::Install {
            kv: KvPairs::single(2, vec![5.0; 2]),
        };
        step(&mut s, install);
        assert_eq!(step(&mut s, pull(0, 0, &[1, 2])), [], "still parked");
        // No second DPR, no second evaluation, no draw.
        let stats = s.server.shard().stats();
        assert_eq!((stats.pulls_total, stats.dprs), (1, 1));
        assert_eq!(s.server.shard().pending_dprs(), 1);
        assert_eq!(s.server.next_draw(), twin.server.next_draw());

        // The release answers the key set the worker is now waiting for.
        let released = step(&mut s, push(1, 0, &[1]));
        assert_eq!(released.len(), 2, "ack + released pull: {released:?}");
        assert_eq!(released[1].0, NodeId::Worker(0));
        assert_eq!(pulled_keys(&released[1]), [1, 2]);
        // And that answer is what a duplicate of the re-issue gets.
        assert_eq!(step(&mut s, pull(0, 0, &[1, 2])), [released[1].clone()]);
    }

    #[test]
    fn a_follower_redirects_a_servers_heartbeat_to_whom_it_believes_leads() {
        let mut rcfg = fast_recovery(None, true);
        rcfg.num_supervisors = 3;
        let sent = Recording::default();
        let mut r = scripted_replica(1, &rcfg, sent.clone());
        let now = Duration::ZERO;
        assert_eq!(r.tick(now), Flow::Continue);
        let redirect = |leader| {
            let redirect = Message::LeaderRedirect { term: 1, leader };
            (NodeId::Server(0), redirect)
        };
        // Nobody has led yet, as far as this replica knows (term 0).
        assert_eq!(r.on_message(beat(0, 1), now), Flow::Continue);
        let no_leader = Message::LeaderRedirect {
            term: 0,
            leader: NO_LEADER,
        };
        assert_eq!(sent_singly(&sent), [(NodeId::Server(0), no_leader)]);
        // Replica 0's first append of term 1 names it; the hint follows.
        let append = Message::AppendEntries {
            term: 1,
            leader: 0,
            prev_index: 0,
            prev_term: 0,
            commit: 0,
            entries: Vec::new(),
        };
        r.on_message(append, now);
        r.on_message(beat(0, 2), now);
        assert_eq!(sent_singly(&sent).last(), Some(&redirect(0)));
        // A follower observes nothing: no verdict of its own, ever.
        assert_eq!(r.tick(Duration::from_secs(1)), Flow::Continue);
        assert!(r.liveness.last_seen(NodeId::Server(0)).is_none());
    }

    #[test]
    fn a_solo_leader_declares_a_silent_server_dead_through_the_log() {
        let rcfg = fast_recovery(None, false);
        let sent = Recording::default();
        let mut r = scripted_replica(0, &rcfg, sent.clone());
        let ms = Duration::from_millis;
        assert_eq!(r.tick(ms(0)), Flow::Continue);
        assert!(r.consensus.is_leader(), "solo: leader at once");
        let declared = |r: &SupervisorReplica<Fabric, Recording>| {
            let dead = ControlCommand::DeclareDead { server: 1 };
            let log = r.consensus.committed_since(0).iter();
            log.filter(|e| e.cmd == dead).count()
        };
        // Server 0 heartbeats, server 1 never does. Within the timeout
        // both are alive; past it, a later tick proposes the verdict, which
        // a solo leader commits at once.
        let timeout = rcfg.liveness_timeout.as_millis() as u64;
        for (seq, t) in (10..=timeout + 20).step_by(10).enumerate() {
            assert_eq!(r.on_message(beat(0, seq as u64), ms(t)), Flow::Continue);
            assert_eq!(r.tick(ms(t)), Flow::Continue);
            assert_eq!(declared(&r), usize::from(t > timeout), "at {t} ms");
            assert_eq!(r.health.dead_count(), declared(&r), "at {t} ms");
        }
        let (ready, body) = r.health.render();
        let line = |node: &str| body.lines().find(|line| line.starts_with(node));
        assert!(!ready, "{body}");
        assert!(
            line("node server0 ").is_some_and(|l| l.ends_with(" alive")),
            "{body}"
        );
        assert!(
            line("node server1 ").is_some_and(|l| l.ends_with(" dead")),
            "{body}"
        );
        // No checkpoint, no replacement: the verdict resolved to a remap,
        // and the worker was told, after the commit.
        assert!(r.dead_for_good.contains(&1));
        let told = sent_singly(&sent);
        let routed = |(to, msg): &(NodeId, Message)| {
            *to == NodeId::Worker(0) && matches!(msg.bare(), Message::RouteUpdate { .. })
        };
        assert_eq!(told.iter().filter(|m| routed(m)).count(), 1, "{told:?}");
    }

    #[test]
    fn a_killed_replica_stops_at_its_index_and_leaves_the_servers_alone() {
        const AT: u64 = 3;
        let mut rcfg = fast_recovery(None, true);
        rcfg.kill_supervisors = vec![(0, AT)];
        let sent = Recording::default();
        let mut r = scripted_replica(0, &rcfg, sent.clone());
        // A leader's applied index advances one no-op per heartbeat
        // interval of the time it is told.
        let mut now = Duration::ZERO;
        while r.tick(now) == Flow::Continue {
            assert!(r.applied < AT, "outlived index {AT}: {}", r.applied);
            now += rcfg.heartbeat_every;
        }
        assert_eq!(r.applied, AT);
        assert!(r.board.slots.lock()[0].exited);
        let leader = r.health.consensus().and_then(|c| c.leader);
        assert_eq!(leader, None, "the only replica is gone");
        // Served, it is gone at the first tick, having sent nothing.
        let node = Fabric::new().register(NodeId::Supervisor(0));
        r.run(&node);
        assert_eq!(sent_singly(&sent), []);
    }

    #[test]
    fn shutdown_stops_a_replica_and_leaves_the_servers_to_the_cluster() {
        let rcfg = fast_recovery(None, true);
        let control = NodeId::Scheduler;
        let mut r = scripted_replica(0, &rcfg, Recording::default());
        assert_eq!(r.step(Input::Tick), Flow::Continue);
        let stop = Input::Message(control, Message::Shutdown);
        assert_eq!(r.step(stop), Flow::Stop);
        // Served, with the stop in its mailbox already: it returns without
        // a word to the servers, which the cluster drains once every
        // replica is joined.
        let sent = Recording::default();
        let r = scripted_replica(0, &rcfg, sent.clone());
        let fabric = Fabric::new();
        let node = fabric.register(NodeId::Supervisor(0));
        fabric
            .send(control, NodeId::Supervisor(0), Message::Shutdown)
            .unwrap();
        r.run(&node);
        assert_eq!(sent_singly(&sent), []);
    }

    #[test]
    fn a_served_replica_handles_its_messages_on_the_reader_threads() {
        use std::sync::mpsc;
        /// Sends nothing; notes which thread tried, and what.
        #[derive(Clone)]
        struct Noting(mpsc::Sender<(String, Message)>);
        impl Postman for Noting {
            fn send(&self, _: NodeId, msg: Message) -> Result<(), TransportError> {
                let thread = std::thread::current();
                let name = thread.name().unwrap_or_default().to_owned();
                self.0
                    .send((name, msg))
                    .map_err(|_| TransportError::Disconnected)
            }
        }
        let mut rcfg = fast_recovery(None, true);
        rcfg.num_supervisors = 3;
        let (noted_tx, noted) = mpsc::channel();
        let r = scripted_replica(1, &rcfg, Noting(noted_tx));
        let book = AddressBook::new();
        let (_, node) = book.bind(NodeId::Supervisor(1)).unwrap();
        let (server, _keep) = book.bind(NodeId::Server(0)).unwrap();
        let serving = std::thread::Builder::new()
            .name("the-serve-caller".into())
            .spawn(move || r.run(&node))
            .unwrap();
        // The thread a heartbeat was answered on. (What the election timer
        // makes the replica send comes from wherever it ticked.)
        let answered = |seq| {
            let to = NodeId::Supervisor(1);
            server.send(to, beat(0, seq)).unwrap();
            loop {
                let (thread, msg) = noted.recv().expect("a redirect");
                if let Message::LeaderRedirect { .. } = msg {
                    return thread;
                }
            }
        };
        // The first may have been read before the replica was installed,
        // and handled by the serve caller; once that is done, it is.
        answered(1);
        assert!(answered(2).starts_with("tcp-reader-supervisor"));
        let stop = server.send(NodeId::Supervisor(1), Message::Shutdown);
        stop.unwrap();
        serving.join().unwrap();
    }

    fn killed_server_is_replaced_and_training_stays_exact<N: Network + Default>() {
        let (cfg, map, init) = two_server_setup();
        let rcfg = fast_recovery(Some((0, 2)), true);
        let collector = TraceCollector::wall(1 << 12);
        let (cluster, mut workers) =
            Cluster::<FaultyNetwork<N>>::launch(cfg, rcfg, map, &init, Some(&collector))
                .expect("launch");
        let mut w = workers.remove(0);
        // The worker's own wire events, apart from the servers'.
        let sent = TraceCollector::wall(1 << 10);
        w.set_tracer(sent.tracer());
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..5u64 {
            w.spush(i, &Deltas::from_params(&grads)).expect("push");
            let report = w
                .spull_wait(i, &mut params)
                .expect("pull survives the kill");
            assert!(report.min_version > i, "BSP version bound at iter {i}");
        }
        // Recovery is exact: the replacement restores the checkpoint and the
        // dedup windows apply every replayed gradient exactly once, so after
        // 5 iterations of +1.0 every value is 5.0 despite the crash.
        assert_eq!(params[&0], vec![5.0; 4]);
        assert_eq!(params[&1], vec![5.0; 4]);
        let health = cluster.health();
        let stats = cluster.shutdown();
        // Both the original incarnation's and the replacement's work land in
        // server 0's merged statistics.
        assert!(stats[0].pushes >= 5, "merged pushes: {}", stats[0].pushes);
        // After replacement the cluster is whole again.
        assert_eq!(health.dead_count(), 0);
        let trace = collector.snapshot();
        let restored = trace.count(EventKind::CheckpointRestored);
        assert_eq!(restored, 1, "one kill, one replacement");

        // Push 1 took server 0's `V_train` to the kill threshold, so round
        // 1 is the first to wait for it in vain. Its first retry replays
        // exactly the pushes the restored checkpoint lacks: one worker
        // under BSP, so a checkpoint at `V_train` v holds the pushes below v.
        let restoring = |e: &&TraceEvent| e.kind == EventKind::CheckpointRestored;
        let restored = trace
            .events
            .iter()
            .find(restoring)
            .expect("counted")
            .v_train;
        let events = sent.snapshot().events;
        let retried: Vec<_> = events
            .iter()
            .filter(|e| (e.kind, e.shard, e.attempt) == (EventKind::WireSend, 0, 1))
            .collect();
        // One batch per round, the pull last; a slow round 0 may retry too.
        let batch = retried
            .chunk_by(|a, b| a.request_id == b.request_id)
            .map(|batch| batch.iter().map(|e| e.progress).collect::<Vec<u64>>())
            .find(|batch| batch.last() >= Some(&1))
            .expect("a retry to server 0");
        let (pull, replayed) = batch.split_last().expect("the pull goes last");
        assert_eq!(
            replayed,
            (restored..=*pull).collect::<Vec<_>>(),
            "{batch:?}"
        );
    }

    #[test]
    fn killed_server_is_replaced_and_training_stays_exact_in_process() {
        killed_server_is_replaced_and_training_stays_exact::<Fabric>();
    }

    #[test]
    fn killed_server_is_replaced_and_training_stays_exact_over_tcp() {
        killed_server_is_replaced_and_training_stays_exact::<AddressBook>();
    }

    fn dead_server_without_replacement_degrades_onto_survivors<N: Network + Default>() {
        let (cfg, map, init) = two_server_setup();
        let rcfg = fast_recovery(Some((0, 2)), false);
        let collector = TraceCollector::wall(1 << 12);
        let (cluster, mut workers) =
            Cluster::<FaultyNetwork<N>>::launch(cfg, rcfg, map, &init, Some(&collector))
                .expect("launch");
        let mut w = workers.remove(0);
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..6u64 {
            w.spush(i, &Deltas::from_params(&grads)).expect("push");
            w.spull_wait(i, &mut params)
                .expect("pull survives degradation");
            // BSP (s = 0) and a checkpoint per `V_train` advance: a push
            // stays until both servers hold it, or the dead one is
            // routed around — then only the survivor's parts stay.
            let replay = w.replay();
            assert!(replay.len() <= 3, "iteration {i}: {replay:?}");
            if w.router().keys_for_server(0).is_empty() {
                let dead = replay.iter().find(|(_, held)| held.contains(&0));
                assert_eq!(dead, None, "iteration {i}: {replay:?}");
            }
        }
        assert!(w.router().keys_for_server(0).is_empty(), "routed around");
        // Degraded mode is available but not exact: in-flight gradients to
        // the dead shard may be lost, so only check liveness properties —
        // all iterations completed and both parameters are still served.
        assert_eq!(params[&0].len(), 4);
        assert_eq!(params[&1].len(), 4);
        let health = cluster.health();
        assert_eq!(health.dead_count(), 1, "server 0 stays dead");
        let (ready, body) = health.render();
        assert!(!ready);
        assert!(body.contains("node server0 age_ms"));
        let stats = cluster.shutdown();
        // The survivor carried the tail of training.
        assert!(stats[1].pushes >= 6);
        let remapped = collector.snapshot().count(EventKind::ShardRemapped);
        assert_eq!(remapped, 1, "one death, one remap");
    }

    /// Run 300 fault-free iterations of two SSP (s = 3) workers over two
    /// in-process servers checkpointing every `every` `V_train` advances;
    /// the most replay entries each worker kept after a round.
    fn replay_peaks(every: u64) -> Vec<usize> {
        let (mut cfg, map, init) = two_server_setup();
        (cfg.num_workers, cfg.model) = (2, SyncModel::Ssp { s: 3 });
        let rcfg = RecoveryConfig {
            checkpoint_every: every,
            ..fast_recovery(None, true)
        };
        let (cluster, workers) =
            Cluster::<FaultyNetwork<Fabric>>::launch(cfg, rcfg, map, &init, None).expect("launch");
        let threads: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                std::thread::spawn(move || {
                    let grads: HashMap<u64, Vec<f32>> =
                        [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
                    let (mut params, mut peak) = (HashMap::new(), 0);
                    for i in 0..300 {
                        w.spush(i, &Deltas::from_params(&grads)).expect("push");
                        w.spull_wait(i, &mut params).expect("pull");
                        peak = peak.max(w.replay().len());
                    }
                    peak
                })
            })
            .collect();
        let peaks = threads.into_iter().map(|t| t.join().unwrap()).collect();
        cluster.shutdown();
        peaks
    }

    #[test]
    fn a_fault_free_worker_keeps_only_the_pushes_no_checkpoint_holds() {
        // A worker runs at most s = 3 rounds past `V_train`, and a stored
        // checkpoint lags `V_train` by less than `every` advances.
        for every in [1, 2] {
            let bound = 3 + every as usize + 2;
            for (w, peak) in replay_peaks(every).into_iter().enumerate() {
                assert!(peak <= bound, "every {every}, worker {w}: {peak} > {bound}");
            }
        }
    }

    #[test]
    fn dead_server_without_replacement_degrades_onto_survivors_in_process() {
        dead_server_without_replacement_degrades_onto_survivors::<Fabric>();
    }

    #[test]
    fn dead_server_without_replacement_degrades_onto_survivors_over_tcp() {
        dead_server_without_replacement_degrades_onto_survivors::<AddressBook>();
    }

    #[test]
    fn collected_kill_run_merges_every_node_with_exact_accounting() {
        use fluentps_transport::CollectorService;

        let (cfg, map, init) = two_server_setup();
        let mut service = CollectorService::bind("127.0.0.1:0".parse().unwrap(), 1 << 12)
            .expect("bind collector");
        let obs = Observability {
            stream_to: Some(service.local_addr()),
            ring_capacity: 1 << 10,
            ..Observability::default()
        };
        let rcfg = fast_recovery(Some((0, 2)), true);
        let begun = Instant::now();
        let (cluster, mut workers) =
            ResilientTcpCluster::launch_observed(cfg, rcfg, map, &init, obs).expect("launch");
        let mut w = workers.remove(0);
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..5u64 {
            w.spush(i, &Deltas::from_params(&grads)).expect("push");
            w.spull_wait(i, &mut params).expect("pull");
        }
        drop(w); // worker thread done recording before shutdown() flushes
        cluster.shutdown();
        // The collector answers a ping over the newest connection of the
        // pinging id. The killed server's streamer ran its barrier under
        // `Server(0)` before the replacement's first ping under that id:
        // had the pong gone to the newer connection, the barrier would have
        // waited out its timeout, 2 s, and this run with it.
        let took = begun.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "a streamer stalled: {took:?}"
        );

        // Every node appears exactly once, and the killed server's two
        // incarnations fold into one stream.
        let stats = service.node_stats();
        let names: Vec<&str> = stats.iter().map(|s| s.node.as_str()).collect();
        assert_eq!(names, ["scheduler", "server0", "server1", "worker0"]);
        let server0 = &stats[1];
        assert_eq!(server0.incarnations, 2, "kill + replacement");
        service
            .check_balance()
            .expect("received + dropped == emitted on every node");

        // The merged timeline is monotone and includes the recovery events
        // the supervisor and the replacement recorded in *their* streams.
        let trace = service.snapshot();
        assert!(trace
            .events
            .windows(2)
            .all(|w| w[0].ts <= w[1].ts && w[0].seq < w[1].seq));
        assert!(trace.counts[EventKind::CheckpointRestored.index()] >= 1);
        assert!(trace.counts[EventKind::CheckpointCaptured.index()] >= 1);
        assert!(trace.counts[EventKind::PushApplied.index()] >= 5);
        service.stop();
    }

    #[test]
    fn validate_rejects_flapping_timing_configs() {
        assert!(RecoveryConfig::default().validate().is_ok());
        assert!(fast_recovery(None, true).validate().is_ok());

        let mut r = RecoveryConfig::default();
        r.liveness_timeout = r.heartbeat_every; // equal is already too tight
        assert!(r.validate().unwrap_err().contains("liveness_timeout"));

        let mut r = RecoveryConfig::default();
        r.election_timeout = r.leader_lease;
        assert!(r.validate().unwrap_err().contains("election_timeout"));

        let mut r = RecoveryConfig::default();
        r.num_supervisors = 0;
        assert!(r.validate().unwrap_err().contains("num_supervisors"));
    }

    #[test]
    fn validate_rejects_a_config_that_never_checkpoints_past_startup() {
        let never = RecoveryConfig {
            checkpoint_every: 0,
            ..RecoveryConfig::default()
        };
        assert!(never.validate().unwrap_err().contains("checkpoint_every"));
    }

    /// Poll the shared health view until `pred` holds or the deadline
    /// passes (supervisor replicas publish asynchronously).
    fn await_consensus(health: &HealthView, what: &str, pred: impl Fn(&ConsensusHealth) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if health.consensus().as_ref().is_some_and(&pred) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for consensus state: {what} (last: {:?})",
                health.consensus()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn leader_kill_fails_over_and_training_completes() {
        let (cfg, map, init) = two_server_setup();
        let mut rcfg = fast_recovery(None, true);
        rcfg.num_supervisors = 3;
        // Replica 0 deterministically wins term 1, then dies after
        // applying a handful of entries; a follower must win term 2+.
        rcfg.kill_supervisors = vec![(0, 6)];
        let (cluster, mut workers) =
            ResilientTcpCluster::launch(cfg, rcfg, map, &init, None).expect("launch");
        let health = cluster.health();
        await_consensus(&health, "initial leader", |c| {
            c.leader.as_deref() == Some("supervisor0")
        });

        let mut w = workers.remove(0);
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..8u64 {
            w.spush(i, &Deltas::from_params(&grads)).expect("push");
            w.spull_wait(i, &mut params)
                .expect("pull survives the supervisor failover");
        }
        // Training is untouched by the control-plane failover: BSP, no
        // faults, so every value is exactly the iteration count.
        assert_eq!(params[&0], vec![8.0; 4]);
        assert_eq!(params[&1], vec![8.0; 4]);

        // A follower won a later term; the dead replica 0 cannot lead.
        await_consensus(&health, "post-failover leader", |c| {
            c.term >= 2 && c.leader.as_deref().is_some_and(|l| l != "supervisor0")
        });
        let stats = cluster.shutdown();
        assert!(stats.iter().map(|s| s.pushes).sum::<u64>() >= 16);
        assert_eq!(health.dead_count(), 0, "no server ever died");
    }

    #[test]
    fn quorum_loss_degrades_explicitly_and_training_still_completes() {
        let (cfg, map, init) = two_server_setup();
        let mut rcfg = fast_recovery(None, true);
        rcfg.num_supervisors = 3;
        // Two of three replicas die: whoever remains can never assemble a
        // quorum again, so the control plane must report leaderless —
        // explicitly degraded — rather than hang or split-brain.
        rcfg.kill_supervisors = vec![(0, 4), (1, 8)];
        let (cluster, mut workers) =
            ResilientTcpCluster::launch(cfg, rcfg, map, &init, None).expect("launch");
        let health = cluster.health();

        let mut w = workers.remove(0);
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
        let mut params = HashMap::new();
        for i in 0..6u64 {
            w.spush(i, &Deltas::from_params(&grads)).expect("push");
            w.spull_wait(i, &mut params)
                .expect("training needs no control plane while servers live");
        }
        assert_eq!(params[&0], vec![6.0; 4]);

        await_consensus(&health, "leaderless after quorum loss", |c| {
            c.term >= 2 && c.leader.is_none()
        });
        let (ready, body) = health.render();
        assert!(!ready, "quorum loss must degrade /healthz");
        assert!(body.starts_with("degraded\n"), "body: {body}");
        assert!(body.contains("leader none"), "body: {body}");

        // The fallback drain in shutdown() still collects every server.
        let stats = cluster.shutdown();
        assert!(stats.iter().map(|s| s.pushes).sum::<u64>() >= 12);
    }

    #[test]
    fn chaos_run_is_deterministic_for_a_single_worker() {
        let run = |seed: u64| {
            let (cfg, map, init) = two_server_setup();
            let mut rcfg = fast_recovery(None, true);
            rcfg.fault_plan = FaultPlan::chaos(seed, 1, 2, 6, 8);
            let (cluster, mut workers) =
                ResilientTcpCluster::launch(cfg, rcfg, map, &init, None).expect("launch");
            let mut w = workers.remove(0);
            let grads: HashMap<u64, Vec<f32>> =
                [(0u64, vec![1.0f32; 4]), (1u64, vec![1.0f32; 4])].into();
            let mut params = HashMap::new();
            for i in 0..6u64 {
                w.spush(i, &Deltas::from_params(&grads)).expect("push");
                w.spull_wait(i, &mut params).expect("pull");
            }
            let stats = cluster.shutdown();
            (params[&0].clone(), params[&1].clone(), stats)
        };
        let (p0a, p1a, sa) = run(42);
        let (p0b, p1b, sb) = run(42);
        // Same seed, same fault schedule, same message content: parameters
        // and logical statistics are bit-identical across runs.
        assert_eq!(p0a, p0b);
        assert_eq!(p1a, p1b);
        assert_eq!(
            sa.iter()
                .map(|s| (s.pushes, s.v_train_advances))
                .collect::<Vec<_>>(),
            sb.iter()
                .map(|s| (s.pushes, s.v_train_advances))
                .collect::<Vec<_>>()
        );
    }
}
