//! Worker-side client: routing, `sPush`, `sPull` and `wait`.
//!
//! A worker holds the model as a map from original parameter key to a flat
//! value vector. The [`Router`] (built from an EPS [`SliceMap`]) scatters a
//! gradient across the per-server wire keys for `sPush`, and gathers the
//! per-server `PullResponse`s back into whole parameters after `sPull`.
//!
//! `wait(sPull)` is a step, [`WorkerRound`]: the pulls a round writes, and
//! what a received message or an expired wait does to it, with no receive,
//! sleep or clock inside. Two drivers run it: [`WorkerClient`]'s blocking
//! pull wait over a mailbox (timeouts, backoff, the push replay buffer) and
//! the figure simulator (`fluentps-experiments`' `driver.rs`) on virtual
//! time. Both number their requests with [`request_id`] and trace their
//! side of the wire with [`wire_args`], so every wire event of a traced run
//! carries the id the analyzer pairs it by.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::ops::Range;
use std::time::Duration;

use fluentps_ml::Deltas;
use fluentps_obs::{EventKind, RecordArgs, Tracer, NO_ID};
use fluentps_transport::{
    frame, per_destination, CausalCtx, KvPairs, Mailbox, Message, NodeId, Postman, TransportError,
    Values, ValuesMut, WirePlacement,
};
use fluentps_util::rng::StdRng;

use crate::eps::{Placement, SliceMap};
use crate::serve::wrap;

/// Key routing derived from a [`SliceMap`].
#[derive(Debug, Clone)]
pub struct Router {
    map: SliceMap,
    per_server: Vec<Vec<u64>>,
}

impl Router {
    /// Build routing tables from a placement.
    pub fn new(map: SliceMap) -> Self {
        let mut per_server = vec![Vec::new(); map.num_servers() as usize];
        for p in map.placements() {
            per_server[p.server as usize].push(p.new_key);
        }
        for keys in &mut per_server {
            keys.sort_unstable();
        }
        Router { map, per_server }
    }

    /// Number of servers.
    pub fn num_servers(&self) -> u32 {
        self.map.num_servers()
    }

    /// Wire keys owned by server `m`.
    pub fn keys_for_server(&self, m: u32) -> &[u64] {
        &self.per_server[m as usize]
    }

    /// Servers that own at least one key (a pull expects one response from
    /// each of these).
    pub fn active_servers(&self) -> impl Iterator<Item = u32> + '_ {
        self.per_server
            .iter()
            .enumerate()
            .filter(|(_, keys)| !keys.is_empty())
            .map(|(m, _)| m as u32)
    }

    /// The underlying placement.
    pub fn slice_map(&self) -> &SliceMap {
        &self.map
    }

    /// Scatter an update into one [`KvPairs`] per server, walking the
    /// placements in order so wire batches are stable. Entries for servers
    /// owning nothing are empty. The values are already wire bytes
    /// ([`Deltas`]), so nothing is converted here: a server whose slices
    /// form one run of the update's slab — every server of a one-server
    /// map, since placements sort by `(orig_key, offset)` like the slab —
    /// gets a view of that run, a reference count and no copy; any other
    /// gets one byte copy of its runs, allocated at its exact size.
    pub fn scatter(&self, deltas: &Deltas) -> Vec<KvPairs> {
        let slab = Values::from_le_bytes(deltas.slab().clone());
        // Each placement's values in the slab, counted in `f32`s.
        let ranges = self.map.placements().iter().filter_map(|p| {
            let range = deltas.range(p.orig_key)?;
            assert!(
                p.offset + p.len <= range.len(),
                "placement exceeds the update of key {}",
                p.orig_key
            );
            let start = range.start + p.offset;
            Some((p, start..start + p.len))
        });
        // Count first, then fill, so nothing grows by doubling. A server's
        // slices make a new run wherever one does not start where the last
        // one ended; `span` runs from its first slice to its last.
        #[derive(Clone, Default)]
        struct Size {
            keys: usize,
            vals: usize,
            runs: usize,
            span: Range<usize>,
        }
        let mut sizes = vec![Size::default(); self.map.num_servers() as usize];
        for (p, range) in ranges.clone() {
            let size = &mut sizes[p.server as usize];
            if size.keys == 0 {
                (size.runs, size.span) = (1, range.clone());
            } else if size.span.end != range.start {
                size.runs += 1;
            }
            size.span.end = range.end;
            size.keys += 1;
            size.vals += range.len();
        }
        let mut payloads: Vec<Option<ValuesMut>> = sizes
            .iter()
            .map(|size| (size.runs > 1).then(|| ValuesMut::with_capacity(size.vals)))
            .collect();
        let mut out: Vec<KvPairs> = sizes
            .iter()
            .map(|size| KvPairs {
                keys: Vec::with_capacity(size.keys),
                lens: Vec::with_capacity(size.keys),
                vals: if size.runs == 1 {
                    slab.slice(size.span.clone())
                } else {
                    Values::default()
                },
            })
            .collect();
        for (p, range) in ranges {
            let kv = &mut out[p.server as usize];
            kv.keys.push(p.new_key);
            kv.lens.push(p.len as u32);
            if let Some(payload) = &mut payloads[p.server as usize] {
                payload.extend_from_values(&slab.slice(range));
            }
        }
        for (kv, payload) in out.iter_mut().zip(payloads) {
            if let Some(payload) = payload {
                kv.vals = payload.freeze();
            }
        }
        out
    }

    /// Merge a server's pull response back into whole parameters — where
    /// wire bytes become a worker's `f32`s again, in one pass. Unknown keys
    /// are ignored (debug-asserted).
    pub fn gather_into(&self, params: &mut HashMap<u64, Vec<f32>>, response: &KvPairs) {
        for (new_key, slice) in response.iter() {
            let Some(p) = self.map.placement_of(new_key) else {
                debug_assert!(false, "response for unknown key {new_key:#x}");
                continue;
            };
            // A parameter seen for the first time is allocated once at its
            // full length (slices come in offset order, so the last one ends
            // it); later slices of it then land inside that allocation.
            let entry = params.entry(p.orig_key).or_insert_with(|| {
                let full = self.map.slices_of(p.orig_key).last();
                Vec::with_capacity(full.map_or(0, |q| q.offset + q.len))
            });
            if entry.len() < p.offset + p.len {
                entry.resize(p.offset + p.len, 0.0);
            }
            slice.copy_to(&mut entry[p.offset..p.offset + p.len]);
        }
    }

    /// Group the slices of `orig_keys` (deduplicated) by owning server:
    /// sorted `(server, wire keys)` pairs, keys sorted. `None` asks for
    /// everything, which is the table the router already holds.
    fn pull_groups(&self, orig_keys: Option<&[u64]>) -> Vec<(u32, Vec<u64>)> {
        let Some(orig_keys) = orig_keys else {
            return self
                .active_servers()
                .map(|m| (m, self.keys_for_server(m).to_vec()))
                .collect();
        };
        let mut per_server = vec![Vec::new(); self.num_servers() as usize];
        for &orig in orig_keys {
            for p in self.map.slices_of(orig) {
                per_server[p.server as usize].push(p.new_key);
            }
        }
        let mut groups: Vec<(u32, Vec<u64>)> = (0u32..).zip(per_server).collect();
        groups.retain(|(_, keys)| !keys.is_empty());
        for (_, keys) in &mut groups {
            keys.sort_unstable();
        }
        groups
    }

    /// The routing a `RouteUpdate`'s placement table announces.
    fn from_wire(placements: &[WirePlacement], num_servers: u32) -> Router {
        let placements: Vec<Placement> = placements
            .iter()
            .map(|p| Placement {
                orig_key: p.orig_key,
                new_key: p.new_key,
                server: p.server,
                offset: p.offset as usize,
                len: p.len as usize,
            })
            .collect();
        Router::new(SliceMap::from_raw(placements, num_servers))
    }
}

/// Client-side resilience policy: per-pull timeouts and bounded retries
/// with exponential backoff plus seeded jitter.
///
/// When attached to a [`WorkerClient`] via
/// [`WorkerClient::set_retry_policy`], each blocking pull wait uses
/// `timeout` instead of blocking forever; on expiry the client replays, to
/// every unresponsive server, the pushes that server has not acknowledged
/// as held for good, and re-issues the pull (servers deduplicate replays by
/// `(worker, progress)` watermark, so retries never double-apply
/// gradients). What the client keeps is set by the servers' acks, not by
/// the policy: a fault-tolerant server acks what its latest stored
/// checkpoint holds (DESIGN.md §10). The jitter is drawn from a [`StdRng`]
/// seeded with `jitter_seed ^ worker_id`, keeping backoff schedules
/// reproducible run to run.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// How long a pull wait may go without any message before a retry fires.
    pub timeout: Duration,
    /// Retries per pull round before giving up with
    /// [`TransportError::Timeout`].
    pub max_retries: u32,
    /// First backoff delay; doubles each consecutive retry.
    pub backoff_base: Duration,
    /// Upper bound on the backoff delay.
    pub backoff_cap: Duration,
    /// Seed for the backoff jitter (xor-ed with the worker id).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: Duration::from_millis(250),
            max_retries: 12,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(1),
            jitter_seed: 0xF1F0,
        }
    }
}

/// The push replay buffer: the pushes some server may still need, oldest
/// first, each as one `KvPairs` per server — empty where that server owns
/// nothing or has acknowledged holding it for good.
type Replay = VecDeque<(u64, Vec<KvPairs>)>;

/// Live retry state: the policy, the jitter rng and the push replay buffer.
struct RetryState {
    policy: RetryPolicy,
    rng: StdRng,
    replay: Replay,
}

impl RetryState {
    /// Drop every part of the replay that `gone(progress, server)` says no
    /// server will ask for again, and every entry left without a part.
    fn forget(&mut self, gone: impl Fn(u64, u32) -> bool) {
        for (p, parts) in &mut self.replay {
            for (m, part) in (0u32..).zip(parts.iter_mut()) {
                if !part.is_empty() && gone(*p, m) {
                    *part = KvPairs::default();
                }
            }
        }
        let kept = |parts: &Vec<KvPairs>| parts.iter().any(|part| !part.is_empty());
        self.replay.retain(|(_, parts)| kept(parts));
    }

    /// Backoff for retry number `attempt` (1-based): exponential from the
    /// base, capped, plus up to one base-interval of seeded jitter.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self.policy.backoff_base.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
        let capped = exp.min(self.policy.backoff_cap.as_millis() as u64);
        let jitter = if base > 0 {
            self.rng.gen_range(0..base)
        } else {
            0
        };
        Duration::from_millis(capped + jitter)
    }
}

/// Outcome of a completed `sPull` + `wait`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PullReport {
    /// Servers that answered.
    pub responses: u32,
    /// Highest shard version among the responses.
    pub max_version: u64,
    /// Lowest shard version among the responses.
    pub min_version: u64,
}

/// The report of a round nobody has answered yet.
const NONE_YET: PullReport = PullReport {
    responses: 0,
    max_version: 0,
    min_version: u64::MAX,
};

/// Causal request id number `n` of worker `worker`: the worker id plus one
/// (so `0` stays the "no context" sentinel) packed above a 40-bit
/// per-worker counter. Ids are unique across workers and — the counter
/// advances once per logical `sPush`/`sPull` round — identical across
/// same-seed runs, which is what makes retained waterfall sets
/// reproducible. Live and simulated workers number their requests alike.
pub fn request_id(worker: u32, n: u64) -> u64 {
    ((worker as u64 + 1) << 40) | n
}

/// What worker `worker` traces `msg`, written to or read from server
/// `server`, with: the ids, the iteration and the causal context it
/// travels in. The bytes are the caller's (framed or simulated).
pub fn wire_args(server: u32, worker: u32, msg: &Message) -> RecordArgs {
    let args = RecordArgs::new()
        .shard(server)
        .worker(worker)
        .progress(progress_of(msg));
    match msg.ctx() {
        Some(c) => args.ctx(c.request_id, c.attempt as u32),
        None => args,
    }
}

/// The iteration a request or reply belongs to.
fn progress_of(msg: &Message) -> u64 {
    match msg.bare() {
        Message::SPush { progress, .. }
        | Message::SPull { progress, .. }
        | Message::PullResponse { progress, .. }
        | Message::PushAck { progress, .. } => *progress,
        _ => 0,
    }
}

/// One `sPull` + `wait` round of Algorithm 1 as a step (DESIGN.md §18): the
/// pulls it writes, and what a received message or an expired wait does to
/// it. It owns the servers still awaited, the [`PullReport`], the retry
/// count and the round's causal context, and never receives, sleeps or
/// reads a clock: [`WorkerClient`]'s pull wait drives it over a mailbox,
/// the figure simulator on virtual time.
///
/// Only a response echoing *this* round's progress from a still-awaited
/// server counts, so a late answer to an earlier round or a duplicate
/// caused by a retry is absorbed silently.
#[derive(Debug)]
pub struct WorkerRound {
    worker: u32,
    progress: u64,
    /// The original keys asked for, deduplicated; `None` asks for every
    /// parameter.
    keys: Option<Vec<u64>>,
    /// The round's context, when its requests travel in an envelope.
    ctx: Option<CausalCtx>,
    awaiting: BTreeSet<u32>,
    report: PullReport,
    attempt: u32,
}

/// What a received message did to a [`WorkerRound`].
#[derive(Debug)]
pub enum Heard {
    /// An awaited server's answer, now counted; its values are the
    /// caller's to gather.
    Answer(KvPairs),
    /// A `RouteUpdate`: the router was rebuilt and the round restarted on
    /// it, so write these pulls. Servers that already answered re-serve
    /// from their reply cache and gathering is idempotent, so the restart
    /// cannot double-apply. The retry count is NOT reset: the budget — and
    /// the timer the waterfall exposes — covers the whole logical pull, so
    /// a pull racing repeated `RouteUpdate`s still gives up after
    /// `max_retries` timeouts in total.
    Restart(Vec<(u32, Message)>),
    /// Nothing the round awaits: a `PushAck`, a late or duplicate answer.
    Nothing,
}

impl WorkerRound {
    /// Open worker `worker`'s round `progress` for `keys` (deduplicated;
    /// `None` for every parameter): the round, and its pulls as `(server,
    /// message)`, one per owning server in server order. With `ctx` the
    /// requests travel in its envelope.
    pub fn start(
        worker: u32,
        progress: u64,
        keys: Option<Vec<u64>>,
        ctx: Option<CausalCtx>,
        router: &Router,
    ) -> (WorkerRound, Vec<(u32, Message)>) {
        let mut round = WorkerRound {
            worker,
            progress,
            keys,
            ctx,
            awaiting: BTreeSet::new(),
            report: NONE_YET,
            attempt: 0,
        };
        let pulls = round.ask(router, &Replay::new(), true);
        (round, pulls)
    }

    /// Step one message received while the round waits. `Shutdown` ends
    /// the round with [`TransportError::Disconnected`].
    pub fn on_message(
        &mut self,
        msg: Message,
        router: &mut Router,
    ) -> Result<Heard, TransportError> {
        match msg.split_ctx().1 {
            Message::PullResponse {
                server,
                progress,
                kv,
                version,
            } if progress == self.progress && self.awaiting.remove(&server) => {
                self.report.responses += 1;
                self.report.max_version = self.report.max_version.max(version);
                self.report.min_version = self.report.min_version.min(version);
                Ok(Heard::Answer(kv))
            }
            Message::RouteUpdate { placements } => {
                *router = Router::from_wire(&placements, router.num_servers());
                Ok(Heard::Restart(self.ask(router, &Replay::new(), true)))
            }
            Message::Shutdown => Err(TransportError::Disconnected),
            _ => Ok(Heard::Nothing),
        }
    }

    /// The wait for an answer expired: count a retry and ask every server
    /// still awaited again, the pushes still in `replay` first — or give up
    /// with [`TransportError::Timeout`] once `max_retries` are spent.
    fn on_timeout(
        &mut self,
        max_retries: u32,
        router: &Router,
        replay: &Replay,
    ) -> Result<Vec<(u32, Message)>, TransportError> {
        self.attempt += 1;
        if self.attempt > max_retries {
            return Err(TransportError::Timeout);
        }
        Ok(self.ask(router, replay, false))
    }

    /// Servers still awaited, lowest first.
    pub fn awaiting(&self) -> &BTreeSet<u32> {
        &self.awaiting
    }

    /// Ask the servers for this round under the current attempt: with
    /// `restart` every owner under `router` (the round then awaits them
    /// afresh), otherwise those still awaited. Each gets one batch, its
    /// parts of the pushes in `replay` ahead of the pull — the pushes it has
    /// not acknowledged holding for good, which a replacement rebuilt from
    /// its checkpoint needs to advance `V_train`, and which a server that
    /// already applied them dedups by watermark. Replayed pushes travel
    /// under the pull's context at the current attempt, so the waterfall
    /// shows the replay traffic each retry cost.
    fn ask(&mut self, router: &Router, replay: &Replay, restart: bool) -> Vec<(u32, Message)> {
        let groups = router.pull_groups(self.keys.as_deref());
        if restart {
            self.awaiting = groups.iter().map(|g| g.0).collect();
            self.report = NONE_YET;
        }
        let ctx = self.ctx.map(|c| c.retry(self.attempt as u16));
        let mut out = Vec::new();
        for (m, keys) in groups {
            if !self.awaiting.contains(&m) {
                continue;
            }
            for (p, shards) in replay {
                if let Some(kv) = shards.get(m as usize).filter(|kv| !kv.is_empty()) {
                    let push = Message::SPush {
                        worker: self.worker,
                        progress: *p,
                        kv: kv.clone(),
                    };
                    out.push((m, wrap(push, ctx)));
                }
            }
            let pull = Message::SPull {
                worker: self.worker,
                progress: self.progress,
                keys,
            };
            out.push((m, wrap(pull, ctx)));
        }
        out
    }
}

/// The worker client of Algorithm 1: `sPush(key, g, i)` then
/// `wait(sPull(key, &w, i))`.
pub struct WorkerClient<P, M> {
    worker_id: u32,
    postman: P,
    mailbox: M,
    router: Router,
    tracer: Tracer,
    retry: Option<RetryState>,
    /// Per-worker causal request counter; see [`request_id`].
    next_request: u64,
    /// `sPush`es scattered but not yet written, as `(server, message)`: an
    /// iteration's push travels with its pull, one write per server.
    staged: Vec<(u32, Message)>,
}

impl<P: Postman, M: Mailbox> WorkerClient<P, M> {
    /// Create a client for worker `worker_id`.
    pub fn new(worker_id: u32, postman: P, mailbox: M, router: Router) -> Self {
        WorkerClient {
            worker_id,
            postman,
            mailbox,
            router,
            tracer: Tracer::disabled(),
            retry: None,
            next_request: 0,
            staged: Vec::new(),
        }
    }

    /// The next causal context: one [`request_id`] per logical
    /// `sPush`/`sPull` round.
    fn next_ctx(&mut self) -> CausalCtx {
        self.next_request += 1;
        CausalCtx::new(request_id(self.worker_id, self.next_request))
    }

    /// Attach a tracer: `WireSend` per outgoing message, at the moment it is
    /// written, and a `BarrierWait` span covering each blocking wait for
    /// pull responses.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Enable the resilience layer. Without a policy (the default) the
    /// client blocks indefinitely on pulls and propagates send errors —
    /// exactly the pre-fault-tolerance behavior.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        let rng = StdRng::seed_from_u64(policy.jitter_seed ^ self.worker_id as u64);
        self.retry = Some(RetryState {
            policy,
            rng,
            replay: VecDeque::new(),
        });
    }

    /// This worker's id (`n`).
    pub fn worker_id(&self) -> u32 {
        self.worker_id
    }

    /// The router in use.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The replay buffer, oldest first: each push's progress and the
    /// servers it keeps a part of that push for.
    #[cfg(test)]
    pub(crate) fn replay(&self) -> Vec<(u64, Vec<u32>)> {
        let Some(retry) = &self.retry else {
            return Vec::new();
        };
        let parts = |parts: &Vec<KvPairs>| {
            let held = (0u32..).zip(parts).filter(|(_, part)| !part.is_empty());
            held.map(|(m, _)| m).collect()
        };
        retry.replay.iter().map(|(p, kv)| (*p, parts(kv))).collect()
    }

    /// `sPush`: scatter this iteration's update over the owning servers
    /// and stage one `SPush` for each. Nothing is written yet: Algorithm 1 is
    /// `sPush; wait(sPull)`, so the staged pushes go out with the pulls of
    /// the next [`WorkerClient::spull_wait`] /
    /// [`WorkerClient::spull_keys_wait`] — one write per server instead of
    /// two, and one batch for the server to answer — or, for a push no pull
    /// follows, on [`WorkerClient::flush`]. Returns the number of servers
    /// pushed to.
    ///
    /// With a [`RetryPolicy`] attached the scattered shards are also kept in
    /// the replay buffer, each until its server acknowledges holding it for
    /// good, and re-delivered when a pull wait times out.
    pub fn spush(&mut self, progress: u64, deltas: &Deltas) -> Result<u32, TransportError> {
        // Untraced, the exact pre-context wire bytes.
        let ctx = self.tracer.is_enabled().then_some(self.next_ctx());
        let shards = self.router.scatter(deltas);
        if let Some(retry) = &mut self.retry {
            retry.replay.push_back((progress, shards.clone()));
        }
        let staged_before = self.staged.len();
        for (m, kv) in (0u32..).zip(shards) {
            if kv.is_empty() {
                continue;
            }
            let push = Message::SPush {
                worker: self.worker_id,
                progress,
                kv,
            };
            self.staged.push((m, wrap(push, ctx)));
        }
        Ok((self.staged.len() - staged_before) as u32)
    }

    /// Write the staged pushes now, for a push that no pull follows.
    pub fn flush(&mut self) -> Result<(), TransportError> {
        self.send_out(Vec::new())
    }

    /// The one way out: write the staged pushes and `msgs`, each `(server,
    /// message)`, as one batch per server in order of first appearance — a
    /// server's pushes ahead of its pull, one write on a transport that
    /// coalesces — so that a failure names the server it belongs to.
    ///
    /// Without a [`RetryPolicy`] every server is still attempted and the
    /// first error is returned. With one, a failure is absorbed for that
    /// server alone and traced as `ConnectionLost`: the pull wait's timeout
    /// replays and re-issues, after the transport has dropped the dead
    /// connection and can redial.
    fn send_out(&mut self, msgs: Vec<(u32, Message)>) -> Result<(), TransportError> {
        let mut batch = std::mem::take(&mut self.staged);
        batch.extend(msgs);
        for (m, msg) in &batch {
            self.trace_send(*m, msg);
        }
        let mut first_err = None;
        for (m, msgs) in per_destination(batch) {
            let lost = self.lost(m, msgs.last().expect("a group has a message"));
            let to_m = msgs.into_iter().map(|msg| (NodeId::Server(m), msg));
            match self.postman.send_batch(to_m.collect()) {
                Ok(()) => {}
                Err(_) if self.retry.is_some() => {
                    self.tracer.record(EventKind::ConnectionLost, lost);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// `sPull` + `wait`: request all parameters and block until every owning
    /// server has responded (immediately or lazily). Fresh parameters are
    /// merged into `params`. `PushAck`s arriving in between are absorbed
    /// (with a [`RetryPolicy`], into the replay buffer: see
    /// [`WorkerClient::pull_wait`]).
    pub fn spull_wait(
        &mut self,
        progress: u64,
        params: &mut HashMap<u64, Vec<f32>>,
    ) -> Result<PullReport, TransportError> {
        self.pull_wait(progress, None, params)
    }

    /// `sPull` a *subset* of the original parameter keys (e.g. only the
    /// layers the next computation touches) and wait for the owning
    /// servers' responses. Keys whose slices live on several servers fan
    /// out accordingly; naming a key twice asks for it once.
    pub fn spull_keys_wait(
        &mut self,
        progress: u64,
        orig_keys: &[u64],
        params: &mut HashMap<u64, Vec<f32>>,
    ) -> Result<PullReport, TransportError> {
        let mut wanted = orig_keys.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        self.pull_wait(progress, Some(wanted), params)
    }

    /// The blocking driver of one [`WorkerRound`] for `keys`: its pulls go
    /// out with the pushes staged before them, then this thread feeds it
    /// what arrives until every asked server has answered. It waits for the
    /// lowest server still awaited ([`Mailbox::recv_from`]; the order costs
    /// nothing, the round needs them all): on TCP that is this thread
    /// reading the connection its request went out on, and a message from
    /// anyone else — a `RouteUpdate`, `Shutdown` — is seen when that wait
    /// returns.
    ///
    /// A [`RetryPolicy`] changes two things. The wait is bounded, and each
    /// expiry backs off, then writes what the round asks again, until the
    /// budget is spent; without one the wait blocks, and the timeout arm is
    /// never reached. And the replay buffer follows the servers: a
    /// `PushAck { server: m, progress: n }` drops `m`'s part of every push
    /// below `n` — `m` holds those for good — and a `RouteUpdate` drops the
    /// parts of the servers it no longer routes to.
    fn pull_wait(
        &mut self,
        progress: u64,
        keys: Option<Vec<u64>>,
        params: &mut HashMap<u64, Vec<f32>>,
    ) -> Result<PullReport, TransportError> {
        let ctx = self.next_ctx();
        let timeout = self.retry.as_ref().map(|retry| retry.policy.timeout);
        let wait_start = self.tracer.now();
        let traced = self.tracer.is_enabled().then_some(ctx);
        let (mut round, pulls) =
            WorkerRound::start(self.worker_id, progress, keys, traced, &self.router);
        self.send_out(pulls)?;
        while let Some(&first) = round.awaiting().first() {
            let received = self.mailbox.recv_from(NodeId::Server(first), timeout)?;
            let Some((_, msg)) = received else {
                let retry = self.retry.as_mut().expect("a timeout implies a policy");
                let again =
                    round.on_timeout(retry.policy.max_retries, &self.router, &retry.replay)?;
                let backoff = retry.backoff(round.attempt);
                for &m in round.awaiting() {
                    self.tracer.record(
                        EventKind::RetryScheduled,
                        RecordArgs::new()
                            .shard(m)
                            .worker(self.worker_id)
                            .progress(progress)
                            .bytes(backoff.as_millis() as u64)
                            .request_id(ctx.request_id)
                            .attempt(round.attempt),
                    );
                }
                std::thread::sleep(backoff);
                self.send_out(again)?;
                continue;
            };
            let msg = self.trace_recv(msg);
            if let (Some(retry), Message::PushAck { server, progress }) = (&mut self.retry, &msg) {
                let (held_by, below) = (*server, *progress);
                retry.forget(|p, m| m == held_by && p < below);
            }
            match round.on_message(msg, &mut self.router)? {
                Heard::Answer(kv) => self.router.gather_into(params, &kv),
                Heard::Restart(pulls) => {
                    // A server the new routing leaves out is dead for good:
                    // its parts can reach nobody. The survivors keep theirs
                    // until they hold them.
                    if let Some(retry) = &mut self.retry {
                        let routed: BTreeSet<u32> = self.router.active_servers().collect();
                        retry.forget(|_, m| !routed.contains(&m));
                    }
                    self.send_out(pulls)?;
                }
                Heard::Nothing => {}
            }
        }
        let report = round.report;
        if report.responses > 0 {
            self.tracer.record_span(
                EventKind::BarrierWait,
                wait_start,
                RecordArgs::new()
                    .worker(self.worker_id)
                    .progress(progress)
                    .v_train(report.max_version)
                    .request_id(ctx.request_id)
                    .attempt(round.attempt),
            );
        }
        Ok(report)
    }

    /// Record `msg` as written to server `m`.
    fn trace_send(&self, m: u32, msg: &Message) {
        if self.tracer.is_enabled() {
            let args = wire_args(m, self.worker_id, msg).bytes(frame::wire_len(msg) as u64);
            self.tracer.record(EventKind::WireSend, args);
        }
    }

    /// Record a worker-side `WireRecv` for a context-carrying reply and peel
    /// its envelope. Context-free messages pass through untouched, so this
    /// adds no events to an untraced or pre-context run.
    fn trace_recv(&self, msg: Message) -> Message {
        if msg.ctx().is_some() {
            let server = match msg.bare() {
                Message::PullResponse { server, .. } | Message::PushAck { server, .. } => *server,
                _ => NO_ID,
            };
            let args = wire_args(server, self.worker_id, &msg).bytes(frame::wire_len(&msg) as u64);
            self.tracer.record(EventKind::WireRecv, args);
        }
        msg.split_ctx().1
    }

    /// What a failed write of `msg` to server `m` is recorded with.
    fn lost(&self, m: u32, msg: &Message) -> RecordArgs {
        let args = RecordArgs::new()
            .shard(m)
            .worker(self.worker_id)
            .progress(progress_of(msg));
        match msg.ctx() {
            Some(ctx) => args.request_id(ctx.request_id),
            None => args,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use crate::serve::tests::Recording;
    use fluentps_transport::{Fabric, Network};
    use fluentps_util::alloc::thread_counters;
    use fluentps_util::proptest::prelude::*;

    fn router(max_chunk: usize, servers: u32) -> Router {
        let params = vec![
            ParamSpec { key: 0, len: 10 },
            ParamSpec { key: 1, len: 3 },
            ParamSpec { key: 2, len: 7 },
        ];
        Router::new(EpsSlicer { max_chunk }.slice(&params, servers))
    }

    fn values() -> HashMap<u64, Vec<f32>> {
        let mut v = HashMap::new();
        v.insert(0, (0..10).map(|x| x as f32).collect());
        v.insert(1, vec![100.0, 101.0, 102.0]);
        v.insert(2, (0..7).map(|x| 200.0 + x as f32).collect());
        v
    }

    fn update() -> Deltas {
        Deltas::from_params(&values())
    }

    #[test]
    fn scatter_then_gather_is_identity() {
        let r = router(4, 3);
        let vals = values();
        let shards = r.scatter(&Deltas::from_params(&vals));
        assert_eq!(shards.len(), 3);
        let mut rebuilt = HashMap::new();
        for kv in &shards {
            assert!(kv.is_consistent());
            r.gather_into(&mut rebuilt, kv);
        }
        assert_eq!(rebuilt, vals);
    }

    #[test]
    fn scatter_covers_every_value_exactly_once() {
        let r = router(3, 4);
        let vals = values();
        let shards = r.scatter(&Deltas::from_params(&vals));
        let total: usize = shards.iter().map(|kv| kv.vals.len()).sum();
        assert_eq!(total, 10 + 3 + 7);
    }

    #[test]
    fn active_servers_matches_nonempty_key_lists() {
        // Tiny model, many servers: some servers own nothing.
        let params = vec![ParamSpec { key: 0, len: 2 }];
        let r = Router::new(EpsSlicer { max_chunk: 16 }.slice(&params, 8));
        let active: Vec<u32> = r.active_servers().collect();
        assert_eq!(active.len(), 1);
        assert!(!r.keys_for_server(active[0]).is_empty());
    }

    #[test]
    fn gather_into_resizes_missing_params() {
        let r = router(4, 2);
        let vals = values();
        let shards = r.scatter(&Deltas::from_params(&vals));
        let mut fresh = HashMap::new();
        for kv in &shards {
            r.gather_into(&mut fresh, kv);
        }
        assert_eq!(fresh[&0].len(), 10);
        assert_eq!(fresh[&2][6], 206.0);
    }

    #[test]
    fn scatter_and_gather_allocate_exactly() {
        let r = router(4, 3);
        let vals = values();
        // A payload made of several runs of the update is the only thing
        // in a scatter that scales with the values: together they are
        // allocated once, at their exact size.
        let big = Router::new(EpsSlicer { max_chunk: 4096 }.slice(
            &[ParamSpec {
                key: 0,
                len: 50_000,
            }],
            3,
        ));
        let tensor = Deltas::from_params(&HashMap::from([(0u64, vec![0.5f32; 50_000])]));
        let (_, before) = thread_counters();
        let big_shards = big.scatter(&tensor);
        let (_, after) = thread_counters();
        let payload: usize = big_shards
            .iter()
            .map(|kv| kv.vals.as_le_bytes().len())
            .sum();
        assert_eq!(payload, 4 * 50_000);
        assert!(
            (after - before) < payload as u64 + 2048,
            "scatter of {payload} payload bytes allocated {}",
            after - before
        );
        let shards = r.scatter(&Deltas::from_params(&vals));
        for kv in &shards {
            assert_eq!(kv.keys.capacity(), kv.keys.len());
            assert_eq!(kv.lens.capacity(), kv.lens.len());
        }
        // Gathering into an empty map allocates each parameter once, at
        // its full length, whichever of its slices arrives first.
        let mut fresh = HashMap::new();
        for kv in shards.iter().rev() {
            r.gather_into(&mut fresh, kv);
        }
        assert_eq!(fresh, vals);
        for (key, param) in &fresh {
            assert_eq!(param.capacity(), param.len(), "param {key}");
        }
    }

    /// The scatter `Router::scatter` replaced, kept as its oracle: every
    /// placement's values converted from `f32`s and appended to its
    /// server's payload.
    fn per_key_scatter(r: &Router, values: &HashMap<u64, Vec<f32>>) -> Vec<KvPairs> {
        let mut out = vec![KvPairs::default(); r.num_servers() as usize];
        let mut payloads: Vec<ValuesMut> = out.iter().map(|_| ValuesMut::default()).collect();
        for p in r.slice_map().placements() {
            let Some(vals) = values.get(&p.orig_key) else {
                continue;
            };
            let kv = &mut out[p.server as usize];
            kv.keys.push(p.new_key);
            kv.lens.push(p.len as u32);
            payloads[p.server as usize].extend_from_slice(&vals[p.offset..p.offset + p.len]);
        }
        for (kv, payload) in out.iter_mut().zip(payloads) {
            kv.vals = payload.freeze();
        }
        out
    }

    proptest! {
        /// Scattering an update in wire form gives every server the keys,
        /// lens and value bits the per-key scatter gave it: parameters
        /// declared in any order, any chunk size, 1–4 servers, any subset
        /// of the parameters updated, values of every bit pattern.
        #[test]
        fn scatter_is_the_per_key_scatter(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut specs: Vec<ParamSpec> = (0..rng.gen_range(1..7u64))
                .map(|k| ParamSpec {
                    key: 3 * k + rng.gen_range(0..3u64),
                    len: rng.gen_range(1..40usize),
                })
                .collect();
            for i in (1..specs.len()).rev() {
                specs.swap(i, rng.gen_range(0..=i));
            }
            let (max_chunk, servers) = (rng.gen_range(1..24usize), rng.gen_range(1..5u32));
            let r = Router::new(EpsSlicer { max_chunk }.slice(&specs, servers));
            let mut values = HashMap::new();
            for p in specs.iter().filter(|_| rng.gen_range(0..4u32) != 0).collect::<Vec<_>>() {
                values.insert(p.key, (0..p.len).map(|_| f32::from_bits(rng.next_u32())).collect());
            }
            let update = Deltas::from_params(&values);
            let got = r.scatter(&update);
            let want = per_key_scatter(&r, &values);
            prop_assert_eq!(got.len(), want.len());
            for (m, (got, want)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(&got.keys, &want.keys, "server {}", m);
                prop_assert_eq!(&got.lens, &want.lens, "server {}", m);
                prop_assert_eq!(
                    got.vals.as_le_bytes(), want.vals.as_le_bytes(), "server {}", m
                );
            }
            if servers == 1 {
                // One server's slices are one run: a view, not a copy.
                let shared = got[0].vals.as_le_bytes().as_ptr_range();
                let slab = update.slab().as_slice().as_ptr_range();
                prop_assert!(
                    slab.start <= shared.start && shared.end <= slab.end
                );
            }
        }
    }

    #[test]
    fn a_one_server_push_shares_the_update_it_was_given() {
        // The comm-bound ledger workload's model on one server: a 1.3 MB
        // update, staged with no tensor-sized allocation on this thread.
        let dims = [64usize, 1024, 256, 10];
        let mut specs = Vec::new();
        for (layer, w) in dims.windows(2).enumerate() {
            let key = 2 * layer as u64;
            specs.push(ParamSpec {
                key,
                len: w[0] * w[1],
            });
            specs.push(ParamSpec {
                key: key + 1,
                len: w[1],
            });
        }
        let r = Router::new(EpsSlicer { max_chunk: 4096 }.slice(&specs, 1));
        let update =
            Deltas::from_params(&specs.iter().map(|p| (p.key, vec![1e-3; p.len])).collect());
        assert_eq!(update.slab().len(), 4 * 331_530);
        let (mut client, _) = recorded_client(&r, true);
        let (_, before) = thread_counters();
        assert_eq!(client.spush(0, &update).unwrap(), 1);
        let (_, after) = thread_counters();
        assert!(
            after - before < 64 * 1024,
            "staging a push of {} bytes allocated {}",
            update.slab().len(),
            after - before
        );
        let Message::SPush { kv, .. } = client.staged[0].1.bare() else {
            panic!("staged a push")
        };
        assert_eq!(
            kv.vals.as_le_bytes().as_ptr(),
            update.slab().as_slice().as_ptr()
        );
        assert_eq!(kv.vals.as_le_bytes(), update.slab().as_slice());
    }

    #[test]
    fn scatter_skips_absent_params() {
        let r = router(4, 2);
        let mut vals = values();
        vals.remove(&1);
        let shards = r.scatter(&Deltas::from_params(&vals));
        let total: usize = shards.iter().map(|kv| kv.vals.len()).sum();
        assert_eq!(total, 10 + 7);
    }

    /// Run one pull round against servers that answer every `SPull` with
    /// ones for each requested key; returns the key list each server was
    /// sent and how many bytes the worker's thread allocated for the round.
    fn pull_round(r: &Router, subset: Option<&[u64]>) -> (Vec<Vec<u64>>, u64) {
        let fabric = Fabric::new();
        let worker_ep = fabric.register(NodeId::Worker(0));
        let servers: Vec<_> = (0..r.num_servers())
            .map(|m| {
                let ep = fabric.register(NodeId::Server(m));
                let map = r.slice_map().clone();
                std::thread::spawn(move || {
                    let mut asked = Vec::new();
                    loop {
                        match ep.recv().expect("server recv").1 {
                            Message::SPull {
                                worker,
                                progress,
                                keys,
                            } => {
                                let ones = [1.0; 16];
                                let entries: Vec<(u64, &[f32])> = keys
                                    .iter()
                                    .map(|&k| (k, &ones[..map.placement_of(k).unwrap().len]))
                                    .collect();
                                let reply = Message::PullResponse {
                                    server: m,
                                    progress,
                                    version: progress,
                                    kv: KvPairs::from_slices(&entries),
                                };
                                ep.postman().send(NodeId::Worker(worker), reply).unwrap();
                                asked.push(keys);
                            }
                            Message::Shutdown => return asked,
                            _ => {}
                        }
                    }
                })
            })
            .collect();
        let postman = worker_ep.postman();
        let mut client = WorkerClient::new(0, postman.clone(), worker_ep, r.clone());
        let mut out = HashMap::new();
        let (_, before) = thread_counters();
        match subset {
            None => client.spull_wait(0, &mut out),
            Some(keys) => client.spull_keys_wait(0, keys, &mut out),
        }
        .expect("pull");
        let (_, after) = thread_counters();
        let mut asked = Vec::new();
        for (m, server) in (0u32..).zip(servers) {
            postman.send(NodeId::Server(m), Message::Shutdown).unwrap();
            let mut pulls = server.join().unwrap();
            assert!(
                pulls.len() <= 1,
                "server {m} was pulled {} times",
                pulls.len()
            );
            asked.push(pulls.pop().unwrap_or_default());
        }
        (asked, after - before)
    }

    fn pulled_keys(r: &Router, subset: Option<&[u64]>) -> Vec<Vec<u64>> {
        pull_round(r, subset).0
    }

    #[test]
    fn full_pull_asks_each_server_for_exactly_its_keys() {
        // Key 0 is sliced into several chunks: each must be named once.
        let r = router(2, 3);
        assert!(r.slice_map().slices_of(0).count() > 2);
        let asked = pulled_keys(&r, None);
        for m in 0..3 {
            assert_eq!(asked[m as usize], r.keys_for_server(m), "server {m}");
        }
    }

    #[test]
    fn full_pull_does_not_regroup_a_sliced_parameter_once_per_slice() {
        // The comm-bound ledger workload's inventory: 16 + 1 + 64 + 1 + 1 + 1
        // placements on one server. Grouping them per placement pushed
        // 16² + 64² + 4 keys (35 KB, 128 KB with the doubling) through a
        // fresh map on every pull; the table the router holds is 84 keys.
        let lens = [64, 4, 256, 4, 4, 4];
        let params: Vec<ParamSpec> = (0u64..)
            .zip(lens)
            .map(|(key, len)| ParamSpec { key, len })
            .collect();
        let r = Router::new(EpsSlicer { max_chunk: 4 }.slice(&params, 1));
        assert_eq!(r.keys_for_server(0).len(), 84);
        let (asked, allocated) = pull_round(&r, None);
        assert_eq!(asked[0], r.keys_for_server(0));
        assert!(
            allocated < 16 << 10,
            "a full pull of 84 keys allocated {allocated} bytes on the worker"
        );
    }

    #[test]
    fn subset_pull_with_repeated_keys_equals_the_deduplicated_pull() {
        let r = router(2, 3);
        let once = pulled_keys(&r, Some(&[0, 2]));
        assert_eq!(pulled_keys(&r, Some(&[2, 0, 2, 0, 0])), once);
        let named: usize = once.iter().map(Vec::len).sum();
        let slices = r.slice_map().slices_of(0).count() + r.slice_map().slices_of(2).count();
        assert_eq!(named, slices, "every slice named exactly once");
        for keys in &once {
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        }
        // Naming every key is the full pull.
        assert_eq!(pulled_keys(&r, Some(&[2, 1, 0])), pulled_keys(&r, None));
    }

    // --- what is written, and when --------------------------------------

    /// Every call `sent` recorded, as `(server, "push" | "pull")` pairs.
    fn calls_of(sent: &Recording) -> Vec<Vec<(u32, &'static str)>> {
        let shape = |(to, msg): &(NodeId, Message)| {
            let NodeId::Server(m) = *to else {
                panic!("sent to {to:?}")
            };
            match msg.bare() {
                Message::SPush { .. } => (m, "push"),
                Message::SPull { .. } => (m, "pull"),
                other => panic!("sent {other:?}"),
            }
        };
        let calls = sent.0.lock();
        calls
            .iter()
            .map(|b| b.iter().map(shape).collect())
            .collect()
    }

    /// A mailbox holding the replies a test prepared.
    struct Canned(fluentps_util::sync::Mutex<VecDeque<Message>>);

    impl Mailbox for Canned {
        fn recv(&self) -> Result<(NodeId, Message), TransportError> {
            let next = self.0.lock().pop_front();
            next.map(|msg| (NodeId::Scheduler, msg))
                .ok_or(TransportError::Disconnected)
        }

        fn try_recv(&self) -> Result<Option<(NodeId, Message)>, TransportError> {
            Ok(self.recv().ok())
        }

        fn recv_timeout(&self, _: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
            self.try_recv()
        }
    }

    /// Every active server's answer to a full pull of round `progress`: ones.
    fn answers(r: &Router, progress: u64) -> Vec<Message> {
        let mut ones = HashMap::new();
        for p in r.slice_map().placements() {
            let param: &mut Vec<f32> = ones.entry(p.orig_key).or_default();
            param.resize(param.len().max(p.offset + p.len), 1.0);
        }
        let shards = r.scatter(&Deltas::from_params(&ones));
        let answer = |m: u32| Message::PullResponse {
            server: m,
            progress,
            version: progress + 1,
            kv: shards[m as usize].clone(),
        };
        r.active_servers().map(answer).collect()
    }

    /// A client over `r` whose sends are recorded and whose every server
    /// has already answered round 0's pull.
    fn recorded_client(r: &Router, retry: bool) -> (WorkerClient<Recording, Canned>, Recording) {
        let postman = Recording::default();
        let mailbox = Canned(fluentps_util::sync::Mutex::new(answers(r, 0).into()));
        let mut client = WorkerClient::new(0, postman.clone(), mailbox, r.clone());
        if retry {
            client.set_retry_policy(fast_policy(2));
        }
        (client, postman)
    }

    #[test]
    fn a_push_is_staged_and_travels_with_its_pull() {
        use fluentps_obs::TraceCollector;
        let r = router(4, 2);
        let round = |retry: bool| {
            let (mut client, sent) = recorded_client(&r, retry);
            let collector = TraceCollector::wall(64);
            client.set_tracer(collector.tracer());
            assert_eq!(client.spush(0, &update()).unwrap(), 2);
            // Nothing on the wire, and nothing claimed to be.
            assert_eq!(calls_of(&sent), Vec::<Vec<_>>::new());
            assert_eq!(collector.snapshot().count(EventKind::WireSend), 0);

            let report = client.spull_wait(0, &mut HashMap::new()).unwrap();
            assert_eq!(report.responses, 2);
            assert_eq!(collector.snapshot().count(EventKind::WireSend), 4);
            // One batch per server, push ahead of pull: one write each on
            // TCP, and a failure is one server's.
            let calls = calls_of(&sent);
            let per_server = [
                vec![(0, "push"), (0, "pull")],
                vec![(1, "push"), (1, "pull")],
            ];
            assert_eq!(calls, per_server, "retry: {retry}");
            // The next pull has nothing staged to take along.
            client.mailbox.0.lock().extend(answers(&r, 0));
            client.spull_wait(0, &mut HashMap::new()).unwrap();
            let pulls_only = calls_of(&sent).split_off(calls.len());
            assert_eq!(pulls_only, [[(0, "pull")], [(1, "pull")]]);
            report
        };
        assert_eq!(round(false), round(true));
    }

    #[test]
    fn a_pull_of_one_servers_keys_still_delivers_every_staged_push() {
        // Parameter 1 is one slice: a pull of it asks one server.
        let r = router(4, 2);
        let owner = r.slice_map().slices_of(1).next().unwrap().server;
        assert_eq!(r.slice_map().slices_of(1).count(), 1);
        let other = 1 - owner;
        for retry in [false, true] {
            let (mut client, sent) = recorded_client(&r, retry);
            client.spush(0, &update()).unwrap();
            let report = client.spull_keys_wait(0, &[1], &mut HashMap::new());
            assert_eq!(report.unwrap().responses, 1);
            let mut sent = calls_of(&sent).concat();
            sent.sort_unstable();
            let mut want = [(owner, "push"), (owner, "pull"), (other, "push")];
            want.sort_unstable();
            assert_eq!(sent, want, "retry: {retry}");
        }
    }

    #[test]
    fn flush_sends_a_push_that_no_pull_follows() {
        let r = router(4, 2);
        for retry in [false, true] {
            let (mut client, sent) = recorded_client(&r, retry);
            client.flush().unwrap();
            assert_eq!(calls_of(&sent).len(), 0, "nothing staged, nothing sent");
            client.spush(0, &update()).unwrap();
            client.spush(1, &update()).unwrap();
            client.flush().unwrap();
            let mut pushes = calls_of(&sent).concat();
            pushes.sort_unstable();
            let both_rounds = [(0, "push"), (0, "push"), (1, "push"), (1, "push")];
            assert_eq!(pushes, both_rounds);
            client.flush().unwrap();
            assert_eq!(calls_of(&sent).concat().len(), 4, "sent once");
        }
    }

    #[test]
    fn full_pull_allocates_its_key_lists_once() {
        // The worker thread's allocations for one pull round of the
        // comm-bound ledger inventory (84 placements on one server) and of
        // one eight times as long, everything else equal: the difference
        // is what a key costs, and a key is eight bytes — once.
        let round = |scale: usize, retry: bool| {
            let lens = [64, 4, 256, 4, 4, 4].map(|len| len * scale);
            let params: Vec<ParamSpec> = (0u64..)
                .zip(lens)
                .map(|(key, len)| ParamSpec { key, len })
                .collect();
            let r = Router::new(EpsSlicer { max_chunk: 4 }.slice(&params, 1));
            assert_eq!(r.keys_for_server(0).len(), 84 * scale);
            let (mut client, sent) = recorded_client(&r, retry);
            // Gathered into before: this round's gather allocates nothing.
            let mut params: HashMap<u64, Vec<f32>> = (0u64..)
                .zip(lens)
                .map(|(key, len)| (key, vec![0.0; len]))
                .collect();
            sent.0.lock().reserve(1);
            let (_, before) = thread_counters();
            client.spull_wait(0, &mut params).unwrap();
            let (_, after) = thread_counters();
            assert_eq!(calls_of(&sent), [[(0, "pull")]]);
            after - before
        };
        for retry in [false, true] {
            let (short, long) = (round(1, retry), round(8, retry));
            let per_key = (long - short) as f64 / (84.0 * 7.0);
            assert!(
                (8.0..12.0).contains(&per_key),
                "retry {retry}: {per_key} bytes allocated per pulled key \
                 ({short} B for 84 keys, {long} B for 672)"
            );
        }
    }

    /// A mailbox that notes whom each `recv_from` waits for and hands out
    /// the next of the messages a test prepared, whoever that is from.
    struct Asked {
        peers: fluentps_util::sync::Mutex<Vec<NodeId>>,
        script: Canned,
    }

    impl Mailbox for Asked {
        fn recv(&self) -> Result<(NodeId, Message), TransportError> {
            panic!("the round waits for somebody: recv_from")
        }

        fn try_recv(&self) -> Result<Option<(NodeId, Message)>, TransportError> {
            Ok(None)
        }

        fn recv_timeout(&self, _: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
            panic!("the round waits for somebody: recv_from")
        }

        fn recv_from(
            &self,
            peer: NodeId,
            _: Option<Duration>,
        ) -> Result<Option<(NodeId, Message)>, TransportError> {
            self.peers.lock().push(peer);
            self.script.try_recv()
        }
    }

    #[test]
    fn the_round_waits_for_the_lowest_server_it_still_awaits() {
        let r = router(4, 3);
        assert_eq!(r.active_servers().collect::<Vec<_>>(), [0, 1, 2]);
        for retry in [false, true] {
            let mut answer = answers(&r, 5);
            let ack = Message::PushAck {
                server: 0,
                progress: 5,
            };
            // Server 0 is awaited first and its ack is not its answer;
            // server 2 answers out of turn, which counts and changes nothing
            // about who is lowest; then 0, and the round moves on to 1.
            let (one, two, zero) = (answer.remove(1), answer.remove(1), answer.remove(0));
            let script = VecDeque::from([ack, two, zero, one]);
            let mailbox = Asked {
                peers: fluentps_util::sync::Mutex::new(Vec::new()),
                script: Canned(fluentps_util::sync::Mutex::new(script)),
            };
            let mut client = WorkerClient::new(0, Recording::default(), mailbox, r.clone());
            if retry {
                client.set_retry_policy(fast_policy(2));
            }
            let report = client.spull_wait(5, &mut HashMap::new()).unwrap();
            assert_eq!(report.responses, 3);
            let asked = client.mailbox.peers.lock();
            assert_eq!(*asked, [0, 0, 0, 1].map(NodeId::Server), "retry: {retry}");
        }
    }

    // --- on real sockets: who a reply is from ------------------------------

    /// Ask server `m` for its keys of round `progress` behind the client's
    /// back, so the reply is the next thing its mailbox holds.
    fn ask<P: Postman, M: Mailbox>(client: &WorkerClient<P, M>, m: u32, progress: u64) {
        let pull = Message::SPull {
            worker: client.worker_id,
            progress,
            keys: client.router.keys_for_server(m).to_vec(),
        };
        client
            .postman
            .send_batch(vec![(NodeId::Server(m), pull)])
            .unwrap();
    }

    #[test]
    fn a_tcp_server_answers_from_its_own_id() {
        use crate::tcp_engine::TcpCluster;
        let (mut cfg, map, init) = crate::recovery::tests::two_server_setup();
        cfg.model = crate::SyncModel::Asp;
        let (cluster, mut workers) = TcpCluster::launch(cfg, map, &init).expect("launch");
        // One node per server: as many listeners as servers in the book.
        for m in 0..4 {
            let listens = cluster.fabric().get(NodeId::Server(m)).is_some();
            assert_eq!(listens, m < 2, "server id {m}");
        }
        let w = workers.remove(0);
        for m in 0..2 {
            ask(&w, m, 0);
            let asked = w.mailbox.recv_from(NodeId::Server(m), None);
            let (from, reply) = asked.unwrap().expect("no timeout");
            assert_eq!(from, NodeId::Server(m));
            assert!(matches!(reply, Message::PullResponse { server, .. } if server == m));
        }
        cluster.shutdown();
    }

    #[test]
    fn a_replacement_answers_from_the_id_it_replaced_and_a_severed_servers_reply_is_dropped() {
        use crate::recovery::tests::{fast_recovery, two_server_setup};
        use crate::recovery::ResilientTcpCluster;
        let (cfg, map, init) = two_server_setup();
        let rcfg = fast_recovery(Some((0, 2)), true);
        let (cluster, mut workers) =
            ResilientTcpCluster::launch(cfg, rcfg, map, &init, None).expect("launch");
        let mut w = workers.remove(0);
        // Through the death of server 0 at `V_train` 2 and its replacement.
        let grads: HashMap<u64, Vec<f32>> = [(0, vec![1.0; 4]), (1, vec![1.0; 4])].into();
        let mut params = HashMap::new();
        for i in 0..5 {
            w.spush(i, &Deltas::from_params(&grads)).unwrap();
            w.spull_wait(i, &mut params).unwrap();
        }
        assert_eq!(cluster.fabric().bare().get(NodeId::Server(2)), None);
        // A duplicate of the last pull: both servers — server 0 in its
        // second incarnation — answer it again, each from its own id.
        let wait = Duration::from_secs(10);
        for m in 0..2 {
            ask(&w, m, 4);
            let asked = w.mailbox.recv_from(NodeId::Server(m), Some(wait));
            let (from, reply) = asked.unwrap().expect("a reply");
            assert_eq!(from, NodeId::Server(m));
            assert!(matches!(reply.bare(), Message::PullResponse { server, .. } if *server == m));
        }
        // Sever server 1 with such an answer in flight (its request passed
        // the shim before the cut; whether the reply lands before or after
        // it, it is judged on receipt): the reply names its sender, so the
        // worker's mailbox discards it.
        ask(&w, 1, 4);
        w.postman.injector().kill(NodeId::Server(1));
        let patience = Some(Duration::from_millis(300));
        let heard = w.mailbox.recv_from(NodeId::Server(1), patience).unwrap();
        assert_eq!(heard, None, "a severed server was heard");
        cluster.shutdown();
    }

    // --- the round, scripted: no mailbox, no thread, no sleep --------------

    /// `(server, "push" | "pull")` of each message the round wants written,
    /// checking each is in the envelope of request `id` at `attempt`.
    fn asked(out: &[(u32, Message)], id: u64, attempt: u16) -> Vec<(u32, &'static str)> {
        let shape = |(m, msg): &(u32, Message)| {
            assert_eq!(
                msg.ctx(),
                Some(CausalCtx::new(id).retry(attempt)),
                "{msg:?}"
            );
            match msg.bare() {
                Message::SPush { .. } => (*m, "push"),
                Message::SPull { .. } => (*m, "pull"),
                other => panic!("asked for {other:?}"),
            }
        };
        out.iter().map(shape).collect()
    }

    #[test]
    fn a_timeout_replays_the_buffered_pushes_to_the_silent_server_then_reissues_its_pull() {
        let r = router(4, 2);
        let mut routing = r.clone();
        let shards = r.scatter(&update());
        let replay: Replay = [(0, shards.clone()), (1, shards)].into();
        let (mut round, pulls) = WorkerRound::start(0, 1, None, Some(CausalCtx::new(9)), &r);
        assert_eq!(asked(&pulls, 9, 0), [(0, "pull"), (1, "pull")]);
        let mut answer = answers(&r, 1);
        let heard = round.on_message(answer.remove(0), &mut routing).unwrap();
        assert!(matches!(heard, Heard::Answer(_)));
        // Server 1 is silent: it alone is asked again, its two buffered
        // pushes oldest first and then the pull, all at attempt 1.
        let again = round.on_timeout(2, &r, &replay).unwrap();
        assert_eq!(asked(&again, 9, 1), [(1, "push"), (1, "push"), (1, "pull")]);
        let progresses: Vec<u64> = again.iter().map(|(_, msg)| progress_of(msg)).collect();
        assert_eq!(progresses, [0, 1, 1]);
        let heard = round.on_message(answer.remove(0), &mut routing).unwrap();
        assert!(matches!(heard, Heard::Answer(_)));
        assert!(round.awaiting().is_empty());
        assert_eq!(round.report.responses, 2);
    }

    #[test]
    fn only_this_rounds_answer_from_an_awaited_server_counts() {
        let params = vec![ParamSpec { key: 0, len: 1 }];
        let r = Router::new(EpsSlicer { max_chunk: 16 }.slice(&params, 1));
        let mut routing = r.clone();
        let key = r.keys_for_server(0)[0];
        let answer = |server, progress, version| Message::PullResponse {
            server,
            progress,
            version,
            kv: KvPairs::single(key, vec![1.0]),
        };
        let (mut round, _) = WorkerRound::start(0, 3, None, None, &r);
        for ignored in [
            answer(0, 2, 99), // a late response to the previous round
            answer(7, 3, 98), // this round, from a server nobody asked
            Message::PushAck {
                server: 0,
                progress: 3,
            },
        ] {
            let heard = round.on_message(ignored, &mut routing).unwrap();
            assert!(matches!(heard, Heard::Nothing), "{heard:?}");
        }
        let Heard::Answer(kv) = round.on_message(answer(0, 3, 3), &mut routing).unwrap() else {
            panic!("the real answer was not counted")
        };
        assert_eq!(kv, KvPairs::single(key, vec![1.0]));
        // Its duplicate: server 0 has answered.
        let heard = round.on_message(answer(0, 3, 97), &mut routing).unwrap();
        assert!(matches!(heard, Heard::Nothing));
        let report = PullReport {
            responses: 1,
            max_version: 3,
            min_version: 3,
        };
        assert_eq!(round.report, report);
        let shutdown = round.on_message(Message::Shutdown, &mut routing);
        assert!(matches!(shutdown, Err(TransportError::Disconnected)));
    }

    #[test]
    fn a_reroute_restarts_the_round_without_resetting_the_retry_budget() {
        // Four single-value params over two servers; server 1 dies and
        // everything moves to server 0.
        let params: Vec<ParamSpec> = (0..4).map(|k| ParamSpec { key: k, len: 1 }).collect();
        let map = EpsSlicer { max_chunk: 16 }.slice(&params, 2);
        assert!(map.server_loads().iter().all(|&l| l > 0));
        let (remapped, _moved) = EpsSlicer { max_chunk: 16 }.remap_dead(&map, &[1].into());
        let mut routing = Router::new(map);
        let none = Replay::new();
        let (mut round, _) = WorkerRound::start(0, 0, None, Some(CausalCtx::new(5)), &routing);
        assert_eq!(
            asked(&round.on_timeout(3, &routing, &none).unwrap(), 5, 1).len(),
            2
        );
        let update = Message::RouteUpdate {
            placements: wire_placements(&remapped),
        };
        let Heard::Restart(pulls) = round.on_message(update, &mut routing).unwrap() else {
            panic!("a RouteUpdate restarts the round")
        };
        // The survivor alone is asked, for everything, still at attempt 1.
        assert_eq!(asked(&pulls, 5, 1), [(0, "pull")]);
        assert_eq!(routing.keys_for_server(0).len(), 4);
        let Message::SPull { keys, .. } = pulls[0].1.bare() else {
            unreachable!("shape checked above")
        };
        assert_eq!(keys, Router::new(remapped).keys_for_server(0));
        // Two of the three retries are left, not a fresh three.
        for attempt in [2, 3] {
            let again = round.on_timeout(3, &routing, &none).unwrap();
            assert_eq!(asked(&again, 5, attempt), [(0, "pull")]);
        }
        let spent = round.on_timeout(3, &routing, &none);
        assert!(matches!(spent, Err(TransportError::Timeout)), "{spent:?}");
    }

    #[test]
    fn exhausted_retries_surface_a_timeout_within_the_policys_bound() {
        let params = vec![ParamSpec { key: 0, len: 1 }];
        let r = Router::new(EpsSlicer { max_chunk: 16 }.slice(&params, 1));
        let policy = fast_policy(3);
        let mut retry = RetryState {
            rng: StdRng::seed_from_u64(policy.jitter_seed),
            policy,
            replay: Replay::new(),
        };
        let (mut round, _) = WorkerRound::start(0, 0, None, None, &r);
        // A fake clock, advanced by what the blocking driver would wait: a
        // silent `timeout` per expiry, then the backoff before the reissue.
        let mut clock = Duration::ZERO;
        let err = loop {
            clock += retry.policy.timeout;
            match round.on_timeout(retry.policy.max_retries, &r, &retry.replay) {
                Ok(again) => {
                    assert_eq!(again.len(), 1, "the pull alone, nothing to replay");
                    clock += retry.backoff(round.attempt);
                }
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TransportError::Timeout), "got {err:?}");
        assert_eq!(round.awaiting().len(), 1);
        assert_eq!(round.report.responses, 0);
        // Four silent waits, and three backoffs of 1, 2 and 4 ms (capped at
        // 4), each plus its seeded jitter, which stays below the 1 ms base.
        let waits = Duration::from_millis(4 * 30 + 1 + 2 + 4);
        assert!(
            (waits..waits + Duration::from_millis(3)).contains(&clock),
            "{clock:?}"
        );
    }

    // --- the client's driver ------------------------------------------------

    fn fast_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            timeout: Duration::from_millis(30),
            max_retries,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            jitter_seed: 7,
        }
    }

    /// Echo a pull: one `PullResponse` carrying `1.0` per requested key.
    fn echo_response(server: u32, progress: u64, keys: &[u64]) -> Message {
        let entries: Vec<(u64, &[f32])> = keys.iter().map(|&k| (k, &[1.0][..])).collect();
        Message::PullResponse {
            server,
            progress,
            version: progress,
            kv: KvPairs::from_slices(&entries),
        }
    }
    #[test]
    fn one_timeout_writes_one_batch_per_awaiting_server() {
        let r = router(4, 2);
        let (mut client, sent) = recorded_client(&r, true);
        client.spush(0, &update()).unwrap();
        client.spull_wait(0, &mut HashMap::new()).unwrap();
        // Round 1: server 0 answers, server 1 never does.
        client.spush(1, &update()).unwrap();
        client.mailbox.0.lock().push_back(answers(&r, 1).remove(0));
        let err = client.spull_wait(1, &mut HashMap::new()).unwrap_err();
        assert!(matches!(err, TransportError::Timeout), "got {err:?}");
        // Each of the two timeouts the budget allows wrote server 1 its
        // two buffered pushes and the pull as one batch, and wrote server 0
        // nothing.
        let replay = vec![(1, "push"), (1, "push"), (1, "pull")];
        let want = [
            vec![(0, "push"), (0, "pull")],
            vec![(1, "push"), (1, "pull")],
            vec![(0, "push"), (0, "pull")],
            vec![(1, "push"), (1, "pull")],
            replay.clone(),
            replay,
        ];
        assert_eq!(calls_of(&sent), want);
        let sent = sent.0.lock();
        let progresses: Vec<u64> = sent[4].iter().map(|(_, msg)| progress_of(msg)).collect();
        assert_eq!(progresses, [0, 1, 1], "replay oldest first, then the pull");
    }

    /// `map` as the `RouteUpdate` announcing it carries it.
    fn wire_placements(map: &SliceMap) -> Vec<WirePlacement> {
        let wire = |p: &Placement| WirePlacement {
            orig_key: p.orig_key,
            new_key: p.new_key,
            server: p.server,
            offset: p.offset as u32,
            len: p.len as u32,
        };
        map.placements().iter().map(wire).collect()
    }

    #[test]
    fn route_update_restarts_the_round_on_the_new_routing() {
        // Four single-value params over two servers: both own something.
        let params: Vec<ParamSpec> = (0..4).map(|k| ParamSpec { key: k, len: 1 }).collect();
        let map = EpsSlicer { max_chunk: 16 }.slice(&params, 2);
        assert!(map.server_loads().iter().all(|&l| l > 0));
        let r = Router::new(map.clone());
        // Server 1 dies: everything now lives on server 0.
        let (remapped, _moved) = EpsSlicer { max_chunk: 16 }.remap_dead(&map, &[1].into());
        let rerouted = Router::new(remapped.clone());
        let round = |retry: bool| {
            let (mut client, sent) = recorded_client(&r, retry);
            *client.mailbox.0.lock() = VecDeque::from([
                // Server 0 answers for what it owned; server 1 never does.
                echo_response(0, 0, r.keys_for_server(0)),
                Message::RouteUpdate {
                    placements: wire_placements(&remapped),
                },
                echo_response(0, 0, rerouted.keys_for_server(0)),
            ]);
            let mut out = HashMap::new();
            let report = client.spull_wait(0, &mut out).expect("pull after remap");
            // One responder (the first answer was dropped with the old
            // routing) and all params present.
            assert_eq!(report.responses, 1);
            assert_eq!(out.len(), 4);
            assert!(client.router().keys_for_server(1).is_empty());
            assert_eq!(client.router().keys_for_server(0).len(), 4);
            // The restart asked the survivor alone, for everything.
            let calls = calls_of(&sent);
            assert_eq!(calls, [[(0, "pull")], [(1, "pull")], [(0, "pull")]]);
            let sent = sent.0.lock();
            let Message::SPull { keys, .. } = sent[2][0].1.bare() else {
                unreachable!("shape checked above")
            };
            assert_eq!(keys, rerouted.keys_for_server(0));
            report
        };
        assert_eq!(round(false), round(true));
    }
}
