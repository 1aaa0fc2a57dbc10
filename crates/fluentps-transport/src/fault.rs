//! Deterministic fault injection for transports.
//!
//! Chaos testing a live cluster is only useful if a failing run can be
//! replayed: the same seed must produce the same faults. Clock-driven or
//! probability-per-send schemes break that the moment a wall-clock retry
//! sends one extra message (every later random draw shifts). This module
//! instead matches faults against *message content*: a [`FaultRule`] names
//! the link, the message class and the logical time (the `progress` field
//! carried by every data message), and fires on the first `count`
//! occurrences. Duplicate messages produced by client retries are
//! byte-identical to their originals, so whichever copy a rule consumes the
//! observable outcome is the same — fault schedules stay reproducible
//! bit-for-bit under `tests/determinism.rs` rules no matter how the OS
//! schedules threads.
//!
//! The shim wraps the [`Postman`]/[`Mailbox`] traits generically, so it
//! composes with both the in-process fabric and the TCP transport. One
//! [`FaultInjector`] is shared by every wrapped endpoint of a cluster;
//! [`FaultInjector::kill`] (or a [`FaultAction::Sever`] rule) blackholes a
//! node mid-run, which is how the engines simulate a crashed server.

use std::collections::{HashMap, HashSet};

use fluentps_util::rng::StdRng;
use fluentps_util::sync::Mutex;
use std::sync::Arc;
use std::time::Duration;

use crate::msg::{Message, NodeId};
use crate::{Flow, Input, Mailbox, Network, Postman, Step, TransportError};

/// Coarse message classes a [`FaultRule`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// `SPush` (gradients).
    Push,
    /// `SPull` (parameter requests).
    Pull,
    /// `PullResponse` (parameters).
    Response,
    /// `PushAck`.
    Ack,
    /// Everything else (heartbeats, control traffic).
    Control,
}

/// Classify a message for rule matching. A [`Message::Traced`] envelope is
/// transparent: the inner message's class is what rules target, so a chaos
/// plan written against bare traffic fires identically once causal tracing
/// is enabled.
pub fn classify(msg: &Message) -> MsgClass {
    match msg {
        Message::SPush { .. } => MsgClass::Push,
        Message::SPull { .. } => MsgClass::Pull,
        Message::PullResponse { .. } => MsgClass::Response,
        Message::PushAck { .. } => MsgClass::Ack,
        Message::Traced { inner, .. } => classify(inner),
        _ => MsgClass::Control,
    }
}

/// The logical time a data message carries, if any. Like [`classify`],
/// sees through [`Message::Traced`] envelopes.
fn progress_of(msg: &Message) -> Option<u64> {
    match msg {
        Message::SPush { progress, .. }
        | Message::SPull { progress, .. }
        | Message::PushAck { progress, .. }
        | Message::PullResponse { progress, .. } => Some(*progress),
        Message::Traced { inner, .. } => progress_of(inner),
        _ => None,
    }
}

/// What to match. `None` fields are wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgPattern {
    /// Sending node.
    pub from: Option<NodeId>,
    /// Destination node.
    pub to: Option<NodeId>,
    /// Message class.
    pub class: Option<MsgClass>,
    /// Logical time (the `progress` field of data messages).
    pub progress: Option<u64>,
}

impl MsgPattern {
    /// Wildcard pattern (matches everything).
    pub fn any() -> Self {
        MsgPattern {
            from: None,
            to: None,
            class: None,
            progress: None,
        }
    }

    fn matches(&self, from: NodeId, to: NodeId, msg: &Message) -> bool {
        self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
            && self.class.is_none_or(|c| c == classify(msg))
            && self.progress.is_none_or(|p| progress_of(msg) == Some(p))
    }
}

/// What happens to a matched message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Silently discard it.
    Drop,
    /// Hold it back until `n` further messages have passed on the same
    /// link, then deliver (reordering, the transport-level form of delay —
    /// wall-clock sleeps would not replay deterministically).
    Delay(u32),
    /// Deliver it twice.
    Duplicate,
    /// Discard it and blackhole the destination node from then on (both
    /// directions), as if its process died.
    Sever,
}

/// One scheduled fault: `action` fires on the first `count` messages
/// matching `pattern`.
#[derive(Debug, Clone, Copy)]
pub struct FaultRule {
    /// What to match.
    pub pattern: MsgPattern,
    /// What to do.
    pub action: FaultAction,
    /// How many matches this rule consumes before going inert.
    pub count: u32,
}

/// A full fault schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Rules, tried in order; the first live match wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan with no faults (the shim becomes a pass-through).
    pub fn passthrough() -> Self {
        FaultPlan::default()
    }

    /// A seeded random schedule of drops, delays and duplicates over the
    /// data traffic of a `workers` × `servers` cluster running `iters`
    /// iterations. All randomness is consumed here, at construction — the
    /// schedule itself is a plain value, so two runs with the same seed
    /// inject identical faults. Control traffic (heartbeats) is never
    /// targeted, so a chaos plan cannot spuriously trip liveness detection.
    pub fn chaos(seed: u64, workers: u32, servers: u32, iters: u64, faults: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rules = Vec::with_capacity(faults);
        for _ in 0..faults {
            let w = rng.gen_range(0..workers.max(1));
            let m = rng.gen_range(0..servers.max(1));
            let progress = rng.gen_range(0..iters.max(1));
            let (class, from, to) = match rng.gen_range(0..3u32) {
                0 => (MsgClass::Push, NodeId::Worker(w), NodeId::Server(m)),
                1 => (MsgClass::Pull, NodeId::Worker(w), NodeId::Server(m)),
                _ => (MsgClass::Response, NodeId::Server(m), NodeId::Worker(w)),
            };
            let action = match rng.gen_range(0..3u32) {
                0 => FaultAction::Drop,
                1 => FaultAction::Delay(rng.gen_range(1..3u32)),
                _ => FaultAction::Duplicate,
            };
            rules.push(FaultRule {
                pattern: MsgPattern {
                    from: Some(from),
                    to: Some(to),
                    class: Some(class),
                    progress: Some(progress),
                },
                action,
                count: 1,
            });
        }
        FaultPlan { rules }
    }
}

/// Counters of injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages discarded by `Drop` rules.
    pub dropped: u64,
    /// Messages held back by `Delay` rules.
    pub delayed: u64,
    /// Messages sent twice by `Duplicate` rules.
    pub duplicated: u64,
    /// Messages blackholed because an endpoint was severed.
    pub blackholed: u64,
}

type Link = (NodeId, NodeId);

struct Held {
    countdown: u32,
    to: NodeId,
    msg: Message,
}

struct Inner {
    rules: Vec<(FaultRule, u32)>, // (rule, remaining)
    severed: HashSet<NodeId>,
    held: HashMap<Link, Vec<Held>>,
    stats: FaultStats,
}

/// Shared fault state: clone one injector into every wrapped endpoint of a
/// cluster so rules, severed-node state and stats are global.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<Mutex<Inner>>,
}

impl FaultInjector {
    /// Build an injector from a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            inner: Arc::new(Mutex::new(Inner {
                rules: plan.rules.into_iter().map(|r| (r, r.count)).collect(),
                severed: HashSet::new(),
                held: HashMap::new(),
                stats: FaultStats::default(),
            })),
        }
    }

    /// An injector that does nothing (all traffic passes).
    pub fn passthrough() -> Self {
        FaultInjector::new(FaultPlan::passthrough())
    }

    /// Wrap a sending half. `from` is the wrapped endpoint's own identity
    /// (the [`Postman`] trait does not expose it).
    pub fn postman<P: Postman>(&self, from: NodeId, postman: P) -> FaultyPostman<P> {
        FaultyPostman {
            from,
            postman,
            injector: self.clone(),
        }
    }

    /// Wrap a receiving half. Messages from severed nodes are discarded on
    /// receipt, covering traffic already in flight when the sender died.
    pub fn mailbox<M: Mailbox>(&self, at: NodeId, mailbox: M) -> FaultyMailbox<M> {
        FaultyMailbox {
            at,
            mailbox,
            injector: self.clone(),
        }
    }

    /// Put `inner` behind this injector: both halves of every node bound on
    /// the returned network are wrapped, as [`FaultInjector::postman`] and
    /// [`FaultInjector::mailbox`] wrap them.
    pub fn network<N: Network>(&self, inner: N) -> FaultyNetwork<N> {
        FaultyNetwork {
            inner,
            injector: self.clone(),
        }
    }

    /// Blackhole `node` immediately: every message to or from it is
    /// silently discarded from now on. This is the "kill" primitive — the
    /// node's thread keeps running but the cluster can no longer hear it.
    pub fn kill(&self, node: NodeId) {
        self.inner.lock().severed.insert(node);
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.inner.lock().stats
    }

    /// Whether a message from `from` may be received at `at`: not when
    /// either end is severed (counted as blackholed).
    fn admits(&self, from: NodeId, at: NodeId) -> bool {
        let mut inner = self.inner.lock();
        let severed = inner.severed.contains(&from) || inner.severed.contains(&at);
        if severed {
            inner.stats.blackholed += 1;
        }
        !severed
    }

    /// Decide the fate of one message and update link state. Returns the
    /// deliveries to perform *now* (the message itself zero, one or two
    /// times, plus any held messages whose countdown expired).
    fn route(&self, from: NodeId, to: NodeId, msg: Message) -> Vec<(NodeId, Message)> {
        let mut inner = self.inner.lock();
        let link = (from, to);
        let mut out = Vec::new();

        if inner.severed.contains(&from) || inner.severed.contains(&to) {
            inner.stats.blackholed += 1;
        } else {
            let action = inner
                .rules
                .iter_mut()
                .find(|(r, left)| *left > 0 && r.pattern.matches(from, to, &msg))
                .map(|(r, left)| {
                    *left -= 1;
                    r.action
                });
            match action {
                Some(FaultAction::Drop) => inner.stats.dropped += 1,
                Some(FaultAction::Sever) => {
                    inner.stats.dropped += 1;
                    inner.severed.insert(to);
                }
                Some(FaultAction::Delay(n)) => {
                    inner.stats.delayed += 1;
                    inner.held.entry(link).or_default().push(Held {
                        countdown: n,
                        to,
                        msg,
                    });
                    // The delayed message itself does not tick the link.
                    return out;
                }
                Some(FaultAction::Duplicate) => {
                    inner.stats.duplicated += 1;
                    out.push((to, msg.clone()));
                    out.push((to, msg));
                }
                None => out.push((to, msg)),
            }
        }

        // One more message passed on this link: tick held entries and
        // release the due ones (in hold order) after it.
        if let Some(held) = inner.held.get_mut(&link) {
            for h in held.iter_mut() {
                h.countdown = h.countdown.saturating_sub(1);
            }
            let mut i = 0;
            while i < held.len() {
                if held[i].countdown == 0 {
                    let h = held.remove(i);
                    out.push((h.to, h.msg));
                } else {
                    i += 1;
                }
            }
            if held.is_empty() {
                inner.held.remove(&link);
            }
        }
        out
    }
}

/// A [`Network`] whose nodes all sit behind one [`FaultInjector`]
/// ([`FaultInjector::network`]).
#[derive(Clone)]
pub struct FaultyNetwork<N> {
    inner: N,
    injector: FaultInjector,
}

impl<N: Network> Network for FaultyNetwork<N> {
    const NAME: &'static str = N::NAME;
    type Postman = FaultyPostman<N::Postman>;
    type Mailbox = FaultyMailbox<N::Mailbox>;

    fn bind(&self, node: NodeId) -> Result<(Self::Postman, Self::Mailbox), TransportError> {
        let (postman, mailbox) = self.inner.bind(node)?;
        let injector = &self.injector;
        Ok((
            injector.postman(node, postman),
            injector.mailbox(node, mailbox),
        ))
    }
}

/// A [`Postman`] with a [`FaultInjector`] in front of it.
pub struct FaultyPostman<P> {
    from: NodeId,
    postman: P,
    injector: FaultInjector,
}

impl<P> FaultyPostman<P> {
    /// The shared injector.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }
}

impl<P: Clone> Clone for FaultyPostman<P> {
    fn clone(&self) -> Self {
        FaultyPostman {
            from: self.from,
            postman: self.postman.clone(),
            injector: self.injector.clone(),
        }
    }
}

type Batch = Vec<(NodeId, Message)>;

impl<P> FaultyPostman<P> {
    /// Each message of `batch` meets the fault plan on its own, in batch
    /// order — exactly the faults, link ticks and statistics of sending
    /// them one by one — and what survives goes `through` the inner postman
    /// as one batch, so a transport that coalesces still can.
    fn forward(
        &self,
        batch: Batch,
        through: impl FnOnce(&P, Batch) -> Result<(), TransportError>,
    ) -> Result<(), TransportError> {
        let route = |(to, msg)| self.injector.route(self.from, to, msg);
        let survivors: Batch = batch.into_iter().flat_map(route).collect();
        if survivors.is_empty() {
            return Ok(());
        }
        through(&self.postman, survivors)
    }
}

impl<P: Postman> Postman for FaultyPostman<P> {
    fn send(&self, to: NodeId, msg: Message) -> Result<(), TransportError> {
        for (to, msg) in self.injector.route(self.from, to, msg) {
            self.postman.send(to, msg)?;
        }
        Ok(())
    }

    fn send_batch(&self, batch: Vec<(NodeId, Message)>) -> Result<(), TransportError> {
        self.forward(batch, P::send_batch)
    }

    fn reply_batch(&self, batch: Vec<(NodeId, Message)>) -> Result<(), TransportError> {
        self.forward(batch, P::reply_batch)
    }
}

/// A [`Mailbox`] that discards messages from severed senders.
pub struct FaultyMailbox<M> {
    at: NodeId,
    mailbox: M,
    injector: FaultInjector,
}

impl<M: Mailbox> FaultyMailbox<M> {
    fn admit(&self, env: (NodeId, Message)) -> Option<(NodeId, Message)> {
        self.injector.admits(env.0, self.at).then_some(env)
    }
}

/// The step a [`FaultyMailbox`] hands its inner mailbox: `step`, minus the
/// messages of severed senders.
struct Admitting<S> {
    at: NodeId,
    injector: FaultInjector,
    step: S,
}

impl<S: Step> Step for Admitting<S> {
    fn step(&mut self, input: Input) -> Flow {
        match input {
            Input::Message(from, _) if !self.injector.admits(from, self.at) => Flow::Continue,
            input => self.step.step(input),
        }
    }
}

impl<M: Mailbox> Mailbox for FaultyMailbox<M> {
    fn recv(&self) -> Result<(NodeId, Message), TransportError> {
        loop {
            let env = self.mailbox.recv()?;
            if let Some(env) = self.admit(env) {
                return Ok(env);
            }
        }
    }

    fn try_recv(&self) -> Result<Option<(NodeId, Message)>, TransportError> {
        while let Some(env) = self.mailbox.try_recv()? {
            if let Some(env) = self.admit(env) {
                return Ok(Some(env));
            }
        }
        Ok(None)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        // Filtering consumes no meaningful time relative to the timeouts
        // the engines use; a severed burst simply re-arms the wait.
        loop {
            match self.mailbox.recv_timeout(timeout)? {
                None => return Ok(None),
                Some(env) => {
                    if let Some(env) = self.admit(env) {
                        return Ok(Some(env));
                    }
                }
            }
        }
    }

    fn recv_from(
        &self,
        peer: NodeId,
        timeout: Option<Duration>,
    ) -> Result<Option<(NodeId, Message)>, TransportError> {
        // As in `recv_timeout`: a severed burst re-arms the wait.
        while let Some(env) = self.mailbox.recv_from(peer, timeout)? {
            if let Some(env) = self.admit(env) {
                return Ok(Some(env));
            }
        }
        Ok(None)
    }

    /// The inner mailbox serves — on whichever threads it does — a step
    /// that never sees a severed sender's message.
    fn serve<S: Step>(&self, wake: Option<Duration>, step: S) -> S {
        let admitting = Admitting {
            at: self.at,
            injector: self.injector.clone(),
            step,
        };
        self.mailbox.serve(wake, admitting).step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inproc::Fabric;

    fn ping(progress: u64) -> Message {
        Message::SPull {
            worker: 0,
            progress,
            keys: vec![1],
        }
    }

    #[test]
    fn consensus_messages_classify_as_control() {
        // Chaos plans only target Push/Pull/Response, so the control plane's
        // own consensus traffic must land in the Control class — otherwise a
        // chaos rule could sever the very mechanism that recovers from it.
        for msg in [
            Message::VoteRequest {
                term: 1,
                candidate: 0,
                last_log_index: 0,
                last_log_term: 0,
            },
            Message::VoteResponse {
                term: 1,
                voter: 1,
                granted: true,
            },
            Message::AppendEntries {
                term: 1,
                leader: 0,
                prev_index: 0,
                prev_term: 0,
                commit: 0,
                entries: vec![],
            },
            Message::AppendAck {
                term: 1,
                follower: 1,
                ok: true,
                match_index: 0,
            },
            Message::LeaderRedirect { term: 1, leader: 0 },
        ] {
            assert_eq!(classify(&msg), MsgClass::Control, "{msg:?}");
        }
    }

    #[test]
    fn traced_envelopes_classify_as_their_inner_message() {
        use crate::msg::CausalCtx;
        let ctx = CausalCtx::new(7);
        let traced = ping(3).with_ctx(ctx);
        assert_eq!(classify(&traced), MsgClass::Pull);
        // A progress-targeted rule matches the wrapped message too.
        let pat = MsgPattern {
            progress: Some(3),
            class: Some(MsgClass::Pull),
            ..MsgPattern::any()
        };
        assert!(pat.matches(NodeId::Worker(0), NodeId::Server(0), &traced));
        // Duplicates of a traced message keep the identical context, which
        // is what lets the collector fold them by (request_id, attempt).
        let fabric = Fabric::new();
        let server = fabric.register(NodeId::Server(0));
        let injector = FaultInjector::new(FaultPlan {
            rules: vec![FaultRule {
                pattern: MsgPattern {
                    progress: Some(3),
                    ..MsgPattern::any()
                },
                action: FaultAction::Duplicate,
                count: 1,
            }],
        });
        let w = fabric.register(NodeId::Worker(0));
        let p = injector.postman(NodeId::Worker(0), w.postman());
        p.send(NodeId::Server(0), ping(3).with_ctx(ctx)).unwrap();
        for _ in 0..2 {
            let (_, msg) = server.recv().unwrap();
            assert_eq!(msg.ctx(), Some(ctx));
        }
        assert_eq!(injector.stats().duplicated, 1);
    }

    #[test]
    fn passthrough_delivers_everything() {
        let fabric = Fabric::new();
        let server = fabric.register(NodeId::Server(0));
        let injector = FaultInjector::passthrough();
        let w = fabric.register(NodeId::Worker(0));
        let p = injector.postman(NodeId::Worker(0), w.postman());
        for i in 0..5 {
            p.send(NodeId::Server(0), ping(i)).unwrap();
        }
        for i in 0..5 {
            let (_, msg) = server.recv().unwrap();
            assert_eq!(msg, ping(i));
        }
        assert_eq!(injector.stats(), FaultStats::default());
    }

    #[test]
    fn drop_rule_consumes_first_match_only() {
        let fabric = Fabric::new();
        let server = fabric.register(NodeId::Server(0));
        let injector = FaultInjector::new(FaultPlan {
            rules: vec![FaultRule {
                pattern: MsgPattern {
                    from: Some(NodeId::Worker(0)),
                    to: Some(NodeId::Server(0)),
                    class: Some(MsgClass::Pull),
                    progress: Some(1),
                },
                action: FaultAction::Drop,
                count: 1,
            }],
        });
        let w = fabric.register(NodeId::Worker(0));
        let p = injector.postman(NodeId::Worker(0), w.postman());
        for i in 0..3 {
            p.send(NodeId::Server(0), ping(i)).unwrap();
        }
        // The retry of the dropped message passes.
        p.send(NodeId::Server(0), ping(1)).unwrap();
        let got: Vec<u64> = (0..3)
            .map(|_| match server.recv().unwrap().1 {
                Message::SPull { progress, .. } => progress,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(got, vec![0, 2, 1]);
        assert_eq!(injector.stats().dropped, 1);
    }

    #[test]
    fn delay_reorders_within_the_link() {
        let fabric = Fabric::new();
        let server = fabric.register(NodeId::Server(0));
        let injector = FaultInjector::new(FaultPlan {
            rules: vec![FaultRule {
                pattern: MsgPattern {
                    progress: Some(0),
                    ..MsgPattern::any()
                },
                action: FaultAction::Delay(2),
                count: 1,
            }],
        });
        let w = fabric.register(NodeId::Worker(0));
        let p = injector.postman(NodeId::Worker(0), w.postman());
        for i in 0..4 {
            p.send(NodeId::Server(0), ping(i)).unwrap();
        }
        let got: Vec<u64> = (0..4)
            .map(|_| match server.recv().unwrap().1 {
                Message::SPull { progress, .. } => progress,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        // Message 0 held until two more passed: 1, 2, then 0, then 3.
        assert_eq!(got, vec![1, 2, 0, 3]);
        assert_eq!(injector.stats().delayed, 1);
    }

    #[test]
    fn duplicate_delivers_twice_and_sever_blackholes() {
        let fabric = Fabric::new();
        let server = fabric.register(NodeId::Server(0));
        let injector = FaultInjector::new(FaultPlan {
            rules: vec![
                FaultRule {
                    pattern: MsgPattern {
                        progress: Some(0),
                        ..MsgPattern::any()
                    },
                    action: FaultAction::Duplicate,
                    count: 1,
                },
                FaultRule {
                    pattern: MsgPattern {
                        progress: Some(2),
                        ..MsgPattern::any()
                    },
                    action: FaultAction::Sever,
                    count: 1,
                },
            ],
        });
        let w = fabric.register(NodeId::Worker(0));
        let p = injector.postman(NodeId::Worker(0), w.postman());
        for i in 0..4 {
            p.send(NodeId::Server(0), ping(i)).unwrap();
        }
        // 0 twice, 1 once; 2 severs the server, 3 blackholed.
        let got: Vec<u64> = (0..3)
            .map(|_| match server.recv().unwrap().1 {
                Message::SPull { progress, .. } => progress,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(got, vec![0, 0, 1]);
        assert!(server.try_recv().unwrap().is_none());
        assert_eq!(injector.stats().duplicated, 1);
        assert_eq!(injector.stats().blackholed, 1);
    }

    #[test]
    fn killed_node_is_silenced_in_both_directions() {
        let fabric = Fabric::new();
        let server = fabric.register(NodeId::Server(0));
        let worker = fabric.register(NodeId::Worker(0));
        let injector = FaultInjector::passthrough();
        let wp = injector.postman(NodeId::Worker(0), worker.postman());
        let sp = injector.postman(NodeId::Server(0), server.postman());
        wp.send(NodeId::Server(0), ping(0)).unwrap();
        assert!(server
            .recv_timeout(Duration::from_secs(1))
            .unwrap()
            .is_some());

        injector.kill(NodeId::Server(0));
        wp.send(NodeId::Server(0), ping(1)).unwrap();
        assert!(server.try_recv().unwrap().is_none());
        sp.send(NodeId::Worker(0), Message::Shutdown).unwrap();
        assert!(worker.try_recv().unwrap().is_none());
        assert_eq!(injector.stats().blackholed, 2);
    }

    #[test]
    fn faulty_mailbox_filters_severed_senders() {
        let fabric = Fabric::new();
        let injector = FaultInjector::passthrough();
        let server = injector.mailbox(NodeId::Server(0), fabric.register(NodeId::Server(0)));
        // Unwrapped postman: the message reaches the inbox before the kill.
        let w = fabric.register(NodeId::Worker(0));
        w.postman().send(NodeId::Server(0), ping(0)).unwrap();
        injector.kill(NodeId::Worker(0));
        assert!(server
            .recv_timeout(Duration::from_millis(50))
            .unwrap()
            .is_none());
        assert_eq!(injector.stats().blackholed, 1);
    }

    #[test]
    fn chaos_plans_are_seed_deterministic() {
        let a = FaultPlan::chaos(42, 4, 2, 100, 8);
        let b = FaultPlan::chaos(42, 4, 2, 100, 8);
        assert_eq!(a.rules.len(), 8);
        for (x, y) in a.rules.iter().zip(b.rules.iter()) {
            assert_eq!(x.pattern, y.pattern);
            assert_eq!(x.action, y.action);
        }
        let c = FaultPlan::chaos(43, 4, 2, 100, 8);
        assert!(
            a.rules
                .iter()
                .zip(c.rules.iter())
                .any(|(x, y)| x.pattern != y.pattern || x.action != y.action),
            "different seeds should differ"
        );
        // Chaos never targets control traffic.
        for r in &a.rules {
            assert!(matches!(
                r.pattern.class,
                Some(MsgClass::Push | MsgClass::Pull | MsgClass::Response)
            ));
        }
    }
}
