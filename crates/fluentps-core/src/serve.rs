//! The one Algorithm-1 server step, and the plain loop that drives it.
//!
//! [`ShardServer::handle`] maps one incoming message to the replies it
//! causes. It is the only production code that peels the causal envelope,
//! evaluates the pull/push conditions of a [`ServerShard`] and wraps the
//! replies back up, so every engine — in-process, TCP, fault-tolerant —
//! answers a message the same way by construction. The step touches no
//! socket, thread or wall clock: replies land in a caller-owned outbox, which
//! is what lets property tests and the simulator drive the live server code.
//!
//! Event order of one step, as seen by the tracer: `WireRecv`, then the
//! shard's own events (`PushApplied`, `VTrainAdvanced`, `DprReleased`,
//! `PullRequested`, `PullDeferred`), with one `WireSend` per reply at the
//! moment it is queued — the `PushAck` first, released pulls after it.
//!
//! [`run`] is the whole server loop of the in-process and TCP engines:
//! `recv → handle → send_batch`. Whether the batch is coalesced is the
//! postman's business ([`Postman::send_batch`]): the TCP postman writes all
//! frames for a worker in one syscall, every other postman sends one message
//! at a time. The fault-tolerant engine wraps the same step
//! (`crate::recovery`) instead of copying it.

use fluentps_obs::{EventKind, Profiler, RecordArgs, Tracer, NO_ID};
use fluentps_transport::{frame, CausalCtx, Mailbox, Message, NodeId, Postman};
use fluentps_util::rng::StdRng;

use crate::server::{stamp_ctx, PullOutcome, ReleasedPull, ServerShard};
use crate::stats::ShardStats;

/// What the driver does after a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep receiving.
    Continue,
    /// The server is done; send what is in the outbox and exit.
    Stop,
}

/// Wrap `msg` in `ctx`'s envelope when the request carried one, so the
/// reply joins the request's waterfall.
pub(crate) fn wrap(msg: Message, ctx: Option<CausalCtx>) -> Message {
    match ctx {
        Some(c) => msg.with_ctx(c),
        None => msg,
    }
}

/// One shard plus everything a step needs besides the message: the seeded
/// stream of PSSP probability draws, the trace sink and the span profiler.
pub struct ShardServer {
    pub(crate) shard: ServerShard,
    rng: StdRng,
    pub(crate) tracer: Tracer,
    pub(crate) profiler: Profiler,
}

impl ShardServer {
    /// Serve `shard`; the shard records its own events into `tracer` too.
    pub fn new(mut shard: ServerShard, rng: StdRng, tracer: Tracer, profiler: Profiler) -> Self {
        shard.set_tracer(tracer.clone());
        ShardServer {
            shard,
            rng,
            tracer,
            profiler,
        }
    }

    /// The served shard.
    pub fn shard(&self) -> &ServerShard {
        &self.shard
    }

    /// Next uniform `[0,1)` draw of the PSSP stream. `handle` consumes one
    /// per evaluated pull; tests compare streams through this.
    pub fn next_draw(&mut self) -> f64 {
        self.rng.gen()
    }

    /// The Algorithm-1 step: apply `msg` to the shard and queue every reply
    /// it causes on `out`, in send order.
    pub fn handle(&mut self, msg: Message, out: &mut Vec<(NodeId, Message)>) -> Flow {
        self.record_recv(&msg);
        let (ctx, msg) = msg.split_ctx();
        let server = self.shard.config().server_id;
        match msg {
            Message::SPush {
                worker,
                progress,
                kv,
            } => {
                let released = {
                    let _span = self.profiler.enter("server/apply_push");
                    let released = self.shard.on_push_ctx(worker, progress, &kv, ctx);
                    let ack = Message::PushAck { server, progress };
                    self.send(out, worker, wrap(ack, ctx));
                    released
                };
                if !released.is_empty() {
                    let _span = self.profiler.enter("server/release_dprs");
                    self.reply_released(out, released);
                }
            }
            Message::SPull {
                worker,
                progress,
                keys,
            } => {
                let _span = self.profiler.enter("server/handle_pull");
                let draw = self.next_draw();
                if let PullOutcome::Respond { kv, version } = self
                    .shard
                    .on_pull_ctx(worker, progress, &keys, draw, None, ctx)
                {
                    let resp = Message::PullResponse {
                        server,
                        progress,
                        kv,
                        version,
                    };
                    self.send(out, worker, wrap(resp, ctx));
                }
            }
            Message::Shutdown => {
                self.drain(out);
                return Flow::Stop;
            }
            _ => {}
        }
        Flow::Continue
    }

    /// Answer every pull still parked in the DPR buffer, so no worker stays
    /// blocked on a server that is going away. The `Shutdown` arm of
    /// [`ShardServer::handle`]; also called directly when a server is
    /// stopped without a message.
    pub fn drain(&mut self, out: &mut Vec<(NodeId, Message)>) {
        let parked = self.shard.drain_shutdown();
        self.reply_released(out, parked);
    }

    /// Stop serving; the shard's synchronization statistics.
    pub fn into_stats(self) -> ShardStats {
        self.shard.stats().clone()
    }

    /// Record the arrival of `msg`. The first thing `handle` does; callers
    /// that answer or drop a message *without* stepping it call this
    /// themselves.
    pub(crate) fn record_recv(&self, msg: &Message) {
        if !self.tracer.is_enabled() {
            return;
        }
        let worker = match msg.bare() {
            Message::SPush { worker, .. } | Message::SPull { worker, .. } => *worker,
            _ => NO_ID,
        };
        self.tracer.record(
            EventKind::WireRecv,
            stamp_ctx(
                RecordArgs::new()
                    .shard(self.shard.config().server_id)
                    .worker(worker)
                    .bytes(frame::wire_len(msg) as u64),
                msg.ctx(),
            ),
        );
    }

    fn reply_released(&self, out: &mut Vec<(NodeId, Message)>, released: Vec<ReleasedPull>) {
        let server = self.shard.config().server_id;
        for r in released {
            let resp = Message::PullResponse {
                server,
                progress: r.progress,
                kv: r.kv,
                version: r.version,
            };
            self.send(out, r.worker, wrap(resp, r.ctx));
        }
    }

    /// Every outgoing message funnels through here, so `WireSend` carries
    /// the exact framed size the TCP transport puts on the wire.
    pub(crate) fn send(&self, out: &mut Vec<(NodeId, Message)>, worker: u32, msg: Message) {
        self.tracer.record(
            EventKind::WireSend,
            stamp_ctx(
                RecordArgs::new()
                    .shard(self.shard.config().server_id)
                    .worker(worker)
                    .bytes(frame::wire_len(&msg) as u64),
                msg.ctx(),
            ),
        );
        out.push((NodeId::Worker(worker), msg));
    }
}

/// The server loop of the in-process and TCP engines: receive, step, hand
/// the step's replies to the transport as one batch. Returns the shard's
/// statistics once `Shutdown` was handled or the mailbox closed.
pub fn run<M: Mailbox, P: Postman>(mut server: ShardServer, rx: &M, postman: &P) -> ShardStats {
    let mut out = Vec::new();
    while let Ok((_, msg)) = rx.recv() {
        let flow = server.handle(msg, &mut out);
        if !out.is_empty() {
            // Frame encoding shows up as `wire/encode` under this span.
            let _span = server.profiler.enter("server/reply");
            let _ = postman.send_batch(std::mem::take(&mut out));
        }
        if flow == Flow::Stop {
            break;
        }
    }
    server.into_stats()
}
