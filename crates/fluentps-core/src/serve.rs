//! The one Algorithm-1 server step, and the plain driver that serves it.
//!
//! [`ShardServer::handle`] maps one incoming message to the replies it
//! causes. It is the only production code that peels the causal envelope,
//! evaluates the pull/push conditions of a [`ServerShard`] and wraps the
//! replies back up, so every engine — in-process, TCP, fault-tolerant —
//! answers a message the same way by construction. The step touches no
//! socket, thread or wall clock: replies land in a caller-owned outbox, which
//! is what lets property tests drive the live server code, and what the
//! figure simulator (`fluentps-experiments`' `driver.rs`) and the Figure 3
//! scenario step on virtual time: they turn the queued replies into
//! simulated deliveries, and a pull that queued none into a deferral.
//!
//! Event order of one step, as seen by the tracer: `WireRecv`, then the
//! shard's own events (`PushApplied`, `VTrainAdvanced`, `DprReleased`,
//! `PullRequested`, `PullDeferred`), with one `WireSend` per reply at the
//! moment it is queued — the `PushAck` first, released pulls after it.
//!
//! [`run`] is the whole server of the in-process and TCP engines, as a
//! [`Step`] handed to [`Mailbox::serve`]: a message is handled and its
//! replies queued; when the transport reports that nothing further is ready
//! the queue goes out as one `send_batch`. Which thread runs that — there is
//! no receive loop here — is the mailbox's business (DESIGN.md §18), and
//! whether the batch is coalesced is the postman's ([`Postman::send_batch`]):
//! the TCP postman writes all frames for a worker in one syscall, so a
//! push's ack and the response to the pull that came with it leave together.
//! The fault-tolerant engine wraps the same step (`crate::recovery`) instead
//! of copying it.

use fluentps_obs::{EventKind, Profiler, RecordArgs, Tracer, NO_ID};
use fluentps_transport::{frame, CausalCtx, Input, Mailbox, Message, NodeId, Postman, Step};
use fluentps_util::rng::StdRng;

use crate::server::{stamp_ctx, PullOutcome, ReleasedPull, ServerShard};
use crate::stats::ShardStats;

/// What the driver does after a step: keep going, or — the server is done —
/// send what is in the outbox and stop.
pub use fluentps_transport::Flow;

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

/// [`run`]'s state: the server, where its replies go, and the replies
/// queued since the last flush.
struct Plain<P> {
    server: ShardServer,
    postman: P,
    out: Vec<(NodeId, Message)>,
}

impl<P: Postman> Plain<P> {
    fn flush(&mut self) {
        if !self.out.is_empty() {
            // Frame encoding shows up as `wire/encode` under this span.
            let _span = self.server.profiler.enter("server/reply");
            // Everything a plain server sends answers a worker.
            let _ = self.postman.reply_batch(std::mem::take(&mut self.out));
        }
    }
}

impl<P: Postman + 'static> Step for Plain<P> {
    fn step(&mut self, input: Input) -> Flow {
        match input {
            Input::Message(_, msg) => {
                let flow = self.server.handle(msg, &mut self.out);
                if flow == Flow::Stop {
                    self.flush();
                }
                flow
            }
            Input::Dry | Input::Tick => {
                self.flush();
                Flow::Continue
            }
        }
    }
}

/// The server of the in-process and TCP engines: `rx` feeds the step,
/// replies leave through `postman` whenever the input runs dry. Returns the
/// shard's statistics once `Shutdown` was handled or the mailbox closed.
pub fn run<M: Mailbox, P: Postman + 'static>(
    server: ShardServer,
    rx: &M,
    postman: P,
) -> ShardStats {
    let plain = Plain {
        server,
        postman,
        out: Vec::new(),
    };
    rx.serve(None, plain).server.into_stats()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::condition::SyncModel;
    use crate::engine::EngineConfig;
    use crate::eps::{EpsSlicer, ParamSpec, Slicer};
    use crate::launch;
    use fluentps_transport::{KvPairs, TransportError};
    use fluentps_util::sync::Mutex;
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::time::Duration;

    /// One entry of a [`Scripted`] mailbox.
    enum Next {
        /// Ready now: `try_recv` finds it.
        Msg(Message),
        /// Nothing further is ready: what follows arrives only once the
        /// serving thread blocks.
        Pause,
    }

    /// A mailbox that plays a script through the trait's default `serve`,
    /// and notes how many batches had been sent each time its server was
    /// about to block.
    struct Scripted {
        script: Mutex<VecDeque<Next>>,
        sent: Recording,
        sent_when_blocking: Mutex<Vec<usize>>,
    }

    impl Mailbox for Scripted {
        fn recv(&self) -> Result<(NodeId, Message), TransportError> {
            self.sent_when_blocking
                .lock()
                .push(self.sent.0.lock().len());
            let mut script = self.script.lock();
            if let Some(Next::Pause) = script.front() {
                script.pop_front();
            }
            match script.pop_front() {
                Some(Next::Msg(msg)) => Ok((NodeId::Scheduler, msg)),
                _ => Err(TransportError::Disconnected),
            }
        }

        fn try_recv(&self) -> Result<Option<(NodeId, Message)>, TransportError> {
            let mut script = self.script.lock();
            Ok(match script.front() {
                Some(Next::Msg(_)) => match script.pop_front() {
                    Some(Next::Msg(msg)) => Some((NodeId::Scheduler, msg)),
                    _ => unreachable!("front was a message"),
                },
                _ => None,
            })
        }

        fn recv_timeout(&self, _: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
            self.recv().map(Some)
        }
    }

    /// A postman that records every call: the batch it was handed.
    #[derive(Clone, Default)]
    pub(crate) struct Recording(pub(crate) Arc<Mutex<Vec<Vec<(NodeId, Message)>>>>);

    impl Postman for Recording {
        fn send(&self, to: NodeId, msg: Message) -> Result<(), TransportError> {
            self.send_batch(vec![(to, msg)])
        }

        fn send_batch(&self, batch: Vec<(NodeId, Message)>) -> Result<(), TransportError> {
            self.0.lock().push(batch);
            Ok(())
        }
    }

    /// Run a one-key server of `model` over `script`; returns the batches
    /// it sent, each as `(worker, is_ack)` pairs, and how many of them were
    /// out each time it was about to block.
    fn play(
        model: SyncModel,
        workers: u32,
        script: Vec<Next>,
    ) -> (Vec<Vec<(u32, bool)>>, Vec<usize>) {
        let cfg = EngineConfig {
            num_workers: workers,
            model,
            ..EngineConfig::default()
        };
        let map = EpsSlicer { max_chunk: 8 }.slice(&[ParamSpec { key: 0, len: 2 }], 1);
        let init = [(0u64, vec![0.0f32; 2])].into();
        let (server, _) = launch::shard_server(
            &cfg,
            model,
            0,
            (&map, &init),
            Tracer::default(),
            Profiler::default(),
        );
        let sent = Recording::default();
        let rx = Scripted {
            script: Mutex::new(script.into()),
            sent: sent.clone(),
            sent_when_blocking: Mutex::default(),
        };
        run(server, &rx, sent.clone());
        let sent = sent.0.lock();
        let batches = sent.iter().map(|batch| {
            let shape = batch.iter().map(|(to, msg)| {
                let NodeId::Worker(w) = *to else {
                    panic!("reply to {to:?}")
                };
                (w, matches!(msg, Message::PushAck { .. }))
            });
            shape.collect()
        });
        (batches.collect(), rx.sent_when_blocking.into_inner())
    }

    /// The one wire key of [`play`]'s server.
    fn key() -> u64 {
        let map = EpsSlicer { max_chunk: 8 }.slice(&[ParamSpec { key: 0, len: 2 }], 1);
        map.placements()[0].new_key
    }

    fn push(worker: u32, progress: u64) -> Next {
        Next::Msg(Message::SPush {
            worker,
            progress,
            kv: KvPairs::single(key(), vec![1.0; 2]),
        })
    }

    fn pull(worker: u32, progress: u64) -> Next {
        Next::Msg(Message::SPull {
            worker,
            progress,
            keys: vec![key()],
        })
    }

    const ACK: bool = true;
    const RESPONSE: bool = false;

    #[test]
    fn a_push_and_the_pull_behind_it_are_answered_in_one_batch() {
        let script = vec![push(0, 0), pull(0, 0)];
        let (batches, _) = play(SyncModel::Asp, 1, script);
        assert_eq!(batches, [[(0, ACK), (0, RESPONSE)]]);
    }

    #[test]
    fn a_lone_push_is_acked_before_the_server_blocks() {
        let script = vec![push(0, 0), Next::Pause, push(0, 1), Next::Pause];
        let (batches, sent_when_blocking) = play(SyncModel::Asp, 1, script);
        assert_eq!(batches, [[(0, ACK)], [(0, ACK)]]);
        // Blocked twice — for the second push, and for what never follows
        // it — each time with every ack so far already out.
        assert_eq!(sent_when_blocking, [1, 2]);
    }

    #[test]
    fn a_bsp_release_answers_both_workers_in_one_batch_ack_first() {
        let script = vec![
            push(0, 0),
            pull(0, 0), // parked: worker 1 has not pushed round 0
            Next::Pause,
            push(1, 0), // completes the round: releases worker 0's pull
            pull(1, 0),
        ];
        let (batches, _) = play(SyncModel::Bsp, 2, script);
        assert_eq!(
            batches,
            [vec![(0, ACK)], vec![(1, ACK), (0, RESPONSE), (1, RESPONSE)]]
        );
    }

    #[test]
    fn shutdown_sends_what_is_queued_and_the_drained_pulls() {
        let script = vec![
            push(0, 0),
            pull(0, 0), // parked
            Next::Msg(Message::Shutdown),
            push(0, 1), // never handled
        ];
        let (batches, sent_when_blocking) = play(SyncModel::Bsp, 2, script);
        assert_eq!(batches, [[(0, ACK), (0, RESPONSE)]]);
        assert_eq!(sent_when_blocking, [], "stopped without blocking");
    }
}
