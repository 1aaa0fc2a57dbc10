//! Trace collection over TCP: the collector service and per-node streamers.
//!
//! The pure merge/alignment core lives in `fluentps_obs::collect`; this
//! module puts it on the common transport. A [`CollectorService`] is a
//! *served* [`TcpNode`], [`NodeId::Collector`]: its step runs on the reader
//! thread of the connection a frame came in on and answers on that
//! connection ([`Postman::reply_batch`]). Each node runs a [`TraceStreamer`]
//! thread owning a node *nobody* serves, bound under the streamed node's id,
//! whose book lists the collector and nothing else. It
//!
//! 1. estimates its clock offset from `PINGS` [`Message::ClockPing`] /
//!    [`Message::ClockPong`] exchanges (minimum-RTT sample wins, see
//!    `fluentps_obs::OffsetEstimator`), reading each pong itself off the
//!    connection it pinged on ([`Mailbox::recv_from`]);
//! 2. polls the node's `TraceCollector` rings every `POLL_EVERY` (20 ms) and
//!    ships fresh events as [`Message::TraceBatch`] frames of `MAX_BATCH` (512);
//! 3. never blocks the training hot path: recording stays ring-buffered and
//!    drop-oldest, and a failed send drops its chunks (counted in the next
//!    batch header's cumulative `dropped`) instead of stalling — the postman
//!    drops the connection and dials again at the next send.
//!
//! Shutdown is a read barrier: after the final flush the streamer sends one
//! more ping and waits for its pong. One thread reads one connection, so the
//! pong proves every prior batch was ingested — that is what makes
//! `received + dropped == emitted` exact at run end.

use std::net::{Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fluentps_obs::clock::ClockSource;
use fluentps_obs::collect::{ClusterCollector, NodeStats};
use fluentps_obs::{OffsetEstimator, Trace, TraceCollector};
use fluentps_util::sync::{Mutex, StopFlag};

use crate::error::TransportError;
use crate::frame::wire_len;
use crate::msg::{Message, NodeId};
use crate::tcp::{AddressBook, TcpNode, TcpPostman};
use crate::{Flow, Input, Mailbox, Postman, Step};

/// Bound on a pong wait, so a dead collector cannot wedge shutdown.
const PONG_TIMEOUT: Duration = Duration::from_secs(2);
/// Ring-poll (and batch-send) cadence of a streamer.
const POLL_EVERY: Duration = Duration::from_millis(20);
/// Maximum events per `TraceBatch` frame; larger polls are chunked.
const MAX_BATCH: usize = 512;
/// Byte budget per send: a drain's chunk frames normally leave as one batch,
/// one gathered write, but a batch past this budget is sent at once, so a huge
/// backlog queues bounded bytes in user space and write latency stays bounded.
const MAX_BATCH_BYTES: usize = 256 << 10;
/// Clock-offset samples a streamer takes before it stops probing.
const PINGS: usize = 4;

/// The central collection endpoint: answers clock pings with its clock's
/// time and feeds every trace batch into a shared [`ClusterCollector`].
pub struct CollectorService {
    local_addr: SocketAddr,
    cluster: Arc<Mutex<ClusterCollector>>,
    clock: ClockSource,
    /// Set by `stop` before it sends the one `Shutdown` the step obeys.
    stopping: Arc<AtomicBool>,
    postman: TcpPostman,
    serve_thread: Option<JoinHandle<()>>,
}

impl CollectorService {
    /// Bind the service (port 0 lets the OS choose; see
    /// [`CollectorService::local_addr`]). `capacity_per_node` bounds the
    /// merged buffer per stream, mirroring the sender-side rings.
    pub fn bind(addr: SocketAddr, capacity_per_node: usize) -> Result<Self, TransportError> {
        // The book lists the node itself: `stop` reaches the step through it.
        let book = AddressBook::new();
        let node = TcpNode::bind(NodeId::Collector, addr, book.clone())?;
        book.insert(NodeId::Collector, node.local_addr());
        let mut service = CollectorService {
            local_addr: node.local_addr(),
            cluster: Arc::new(Mutex::new(ClusterCollector::new(capacity_per_node))),
            clock: ClockSource::wall(),
            stopping: Arc::default(),
            postman: node.postman(),
            serve_thread: None,
        };
        let step = service.step();
        // The thread only waits; the node's reader threads run the step.
        let serving = std::thread::Builder::new().name("trace-collector".into());
        let serving = serving.spawn(move || drop(node.serve(None, step)));
        service.serve_thread = Some(serving.expect("spawn collector thread"));
        Ok(service)
    }

    /// What the collector's node is served with.
    fn step(&self) -> impl Step {
        let (cluster, clock) = (Arc::clone(&self.cluster), self.clock.clone());
        let (stopping, postman) = (Arc::clone(&self.stopping), self.postman.clone());
        move |input| {
            match input {
                // Answered while the ping is handled: over the connection
                // it arrived on, even when a newer one from the same id —
                // a replaced server's streamer — has come up meanwhile. A
                // streamer whose connection is gone times its wait out.
                Input::Message(from, Message::ClockPing { seq, t_send, .. }) => {
                    let t_collector = clock.now();
                    let pong = Message::ClockPong {
                        seq,
                        t_send,
                        t_collector,
                    };
                    drop(postman.reply_batch(vec![(from, pong)]));
                }
                Input::Message(
                    _,
                    Message::TraceBatch {
                        node,
                        offset_secs,
                        batch_seq,
                        emitted,
                        dropped,
                        events,
                    },
                ) => cluster.lock().ingest(
                    &node.to_string(),
                    offset_secs,
                    batch_seq,
                    emitted,
                    dropped,
                    &events,
                ),
                Input::Message(_, Message::Shutdown) if stopping.load(Ordering::SeqCst) => {
                    return Flow::Stop;
                }
                // The port is unauthenticated: anybody else's `Shutdown`, and
                // training traffic, stops collection for nobody.
                Input::Message(..) | Input::Dry | Input::Tick => {}
            }
            Flow::Continue
        }
    }

    /// The address nodes should stream to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Seconds since the collector's epoch (the cluster timeline's zero).
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Shared handle to the merge core (e.g. for live HTTP serving).
    pub fn cluster(&self) -> Arc<Mutex<ClusterCollector>> {
        Arc::clone(&self.cluster)
    }

    /// Stream every event ingested from now on into `engine` as it is
    /// aligned onto the collector clock, keeping its drop totals current
    /// (see `fluentps_obs::collect::ClusterCollector::attach_health`).
    pub fn attach_health(&self, engine: &fluentps_obs::HealthEngine) {
        self.cluster.lock().attach_health(engine.clone());
    }

    /// Merge every stream ingested so far into one trace.
    pub fn snapshot(&self) -> Trace {
        self.cluster.lock().snapshot()
    }

    /// Per-node collection accounting.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.cluster.lock().node_stats()
    }

    /// Verify `received + dropped == emitted` for every stream.
    pub fn check_balance(&self) -> Result<(), Vec<NodeStats>> {
        self.cluster.lock().check_balance()
    }

    /// Stop collecting and close the listener. Readers of live connections
    /// finish when their peers close, which streamer shutdown guarantees.
    pub fn stop(&mut self) {
        if let Some(serving) = self.serve_thread.take() {
            self.stopping.store(true, Ordering::SeqCst);
            let sent = self.postman.send(NodeId::Collector, Message::Shutdown);
            // Nothing else wakes the thread: were it lost, a join would hang.
            let _ = sent.map(|()| serving.join());
        }
    }
}

impl Drop for CollectorService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What a streamer did over its lifetime, returned by
/// [`TraceStreamer::stop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamerReport {
    /// `TraceBatch` frames written successfully.
    pub batches: u64,
    /// Events shipped to the collector.
    pub events_sent: u64,
    /// Events dropped because a send failed (already folded into the
    /// cumulative `dropped` the collector saw in batch headers).
    pub send_drops: u64,
    /// Whether a send to the collector ever succeeded.
    pub connected: bool,
}

/// Background thread that streams one node's ring-buffered trace events to
/// a [`CollectorService`].
pub struct TraceStreamer {
    stop: Arc<StopFlag>,
    handle: Option<JoinHandle<StreamerReport>>,
}

impl TraceStreamer {
    /// Start streaming `collector`'s events to `addr`, identifying as
    /// `node`. The streamer owns its cursor: use one streamer per
    /// `TraceCollector`.
    pub fn start(node: NodeId, collector: &TraceCollector, addr: SocketAddr) -> TraceStreamer {
        let stop = Arc::new(StopFlag::new());
        let (col, thread_stop) = (collector.clone(), Arc::clone(&stop));
        let handle = std::thread::Builder::new()
            .name(format!("trace-streamer-{node}"))
            .spawn(move || stream_loop(node, col, addr, thread_stop))
            .expect("spawn trace streamer thread");
        TraceStreamer {
            stop,
            handle: Some(handle),
        }
    }

    /// Flush everything still buffered, run the shutdown read barrier and
    /// return the streamer's accounting. The stop latch wakes a streamer
    /// parked in its poll wait immediately, so shutdown costs one drain +
    /// barrier round-trip, not a full `POLL_EVERY` sleep.
    pub fn stop(mut self) -> StreamerReport {
        self.join().unwrap_or_default()
    }

    fn join(&mut self) -> Option<StreamerReport> {
        self.stop.stop();
        self.handle.take()?.join().ok()
    }
}

impl Drop for TraceStreamer {
    fn drop(&mut self) {
        self.join();
    }
}

/// One ping/pong exchange; returns `(t_send, t_collector, t_recv)`.
fn ping(tcp: &TcpNode, col: &TraceCollector, seq: u64) -> Option<(f64, f64, f64)> {
    let (node, t_send) = (tcp.node(), col.now());
    let ping = Message::ClockPing { node, seq, t_send };
    tcp.postman().send(NodeId::Collector, ping).ok()?;
    loop {
        let answer = tcp.recv_from(NodeId::Collector, Some(PONG_TIMEOUT));
        let t_recv = col.now();
        match answer.ok()??.1 {
            Message::ClockPong {
                seq: s,
                t_send,
                t_collector,
            } if s == seq => return Some((t_send, t_collector, t_recv)),
            // A stale pong from a probe given up on; keep reading.
            _ => {}
        }
    }
}

fn stream_loop(
    node: NodeId,
    col: TraceCollector,
    addr: SocketAddr,
    stop: Arc<StopFlag>,
) -> StreamerReport {
    let mut report = StreamerReport::default();
    let book = AddressBook::new();
    book.insert(NodeId::Collector, addr);
    // Nobody dials a streamer: its listener stays on loopback.
    let unlisted = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
    let Ok(tcp) = TcpNode::bind(node, unlisted, book) else {
        return report;
    };
    let postman = tcp.postman();
    let mut cursor = col.cursor();
    let mut estimator = OffsetEstimator::new();
    let mut batch_seq = 0;
    let mut drain = || {
        // Each drain probes for the clock samples still missing, so a
        // collector out of reach at first is measured once it answers.
        for seq in estimator.samples()..PINGS {
            let Some((t_send, t_collector, t_recv)) = ping(&tcp, &col, seq as u64) else {
                break;
            };
            estimator.add_sample(t_send, t_collector, t_recv);
        }
        let polled = cursor.poll();
        // At least one (possibly empty) frame, so cumulative accounting
        // reaches the collector even when nothing new was recorded.
        let frames = polled.events.len().div_ceil(MAX_BATCH).max(1);
        let mut batch = Vec::new();
        let (mut bytes, mut events) = (0, 0);
        for i in 0..frames {
            let chunk = polled.events.chunks(MAX_BATCH).nth(i).unwrap_or_default();
            batch_seq += 1;
            let msg = Message::TraceBatch {
                node,
                offset_secs: estimator.offset(),
                batch_seq,
                emitted: polled.emitted,
                dropped: polled.dropped + report.send_drops,
                events: chunk.to_vec(),
            };
            bytes += wire_len(&msg);
            events += chunk.len() as u64;
            batch.push((NodeId::Collector, msg));
            if bytes < MAX_BATCH_BYTES && i + 1 < frames {
                continue;
            }
            // Success credits every chunk, failure drops them all (counted
            // in the next header that does get through). Never retried: the
            // postman dropped the connection and the next send dials again.
            let batches = batch.len() as u64;
            if postman.send_batch(std::mem::take(&mut batch)).is_ok() {
                report.connected = true;
                report.batches += batches;
                report.events_sent += events;
            } else {
                report.send_drops += events;
            }
            (bytes, events) = (0, 0);
        }
    };
    while !stop.wait_timeout(POLL_EVERY) {
        drain();
    }
    // Final drain picks up everything recorded up to the stop request.
    drain();
    // Read barrier: the pong proves the collector processed every batch
    // written before the ping on this connection, which one thread reads.
    ping(&tcp, &col, u64::MAX);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluentps_obs::{EventKind, RecordArgs};
    use std::net::TcpListener;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    /// An address nothing listens on (bind-then-drop reserves a dead port).
    fn dead_port() -> SocketAddr {
        let l = TcpListener::bind(loopback()).unwrap();
        l.local_addr().unwrap()
    }

    #[test]
    fn streamer_ships_events_and_accounting_balances() {
        let mut service = CollectorService::bind(loopback(), 1 << 14).unwrap();
        let col = TraceCollector::wall(1 << 12);
        let tracer = col.tracer();
        let streamer = TraceStreamer::start(NodeId::Worker(3), &col, service.local_addr());
        for i in 0..200u64 {
            tracer.record(
                EventKind::PushApplied,
                RecordArgs::new().shard(0).worker(3).progress(i),
            );
        }
        let report = streamer.stop();
        assert!(report.connected);
        assert_eq!(report.events_sent, 200);
        assert_eq!(report.send_drops, 0);

        let stats = service.node_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].node, "worker3");
        assert_eq!(stats[0].received, 200);
        assert_eq!(stats[0].emitted, 200);
        assert_eq!(stats[0].dropped, 0);
        service.check_balance().expect("balanced");

        let trace = service.snapshot();
        assert_eq!(trace.events.len(), 200);
        assert_eq!(trace.count(EventKind::PushApplied), 200);
        // Merged timeline is strictly ordered with re-keyed seq.
        for (i, w) in trace.events.windows(2).enumerate() {
            assert!(w[0].ts <= w[1].ts, "ts out of order at {i}");
            assert!(w[0].seq < w[1].seq);
        }
        service.stop();
    }

    #[test]
    fn ring_overwrites_are_accounted_as_drops() {
        let mut service = CollectorService::bind(loopback(), 1 << 14).unwrap();
        let col = TraceCollector::wall(16); // tiny ring: most events overwritten
        let tracer = col.tracer();
        // Record everything before the streamer's first poll can drain.
        for i in 0..1000u64 {
            tracer.record(EventKind::WireSend, RecordArgs::new().progress(i));
        }
        let streamer = TraceStreamer::start(NodeId::Server(1), &col, service.local_addr());
        let report = streamer.stop();
        assert!(report.connected);
        let stats = service.node_stats();
        assert_eq!(stats[0].emitted, 1000);
        assert_eq!(stats[0].received + stats[0].dropped, 1000);
        assert!(stats[0].dropped >= 1000 - 16);
        service.check_balance().expect("balanced despite drops");
        service.stop();
    }

    #[test]
    fn two_nodes_merge_onto_one_timeline() {
        let mut service = CollectorService::bind(loopback(), 1 << 14).unwrap();
        let col_a = TraceCollector::wall(256);
        let col_b = TraceCollector::wall(256);
        let ta = col_a.tracer();
        let tb = col_b.tracer();
        let sa = TraceStreamer::start(NodeId::Worker(0), &col_a, service.local_addr());
        let sb = TraceStreamer::start(NodeId::Server(0), &col_b, service.local_addr());
        for i in 0..50u64 {
            ta.record(EventKind::WireSend, RecordArgs::new().worker(0).progress(i));
            tb.record(EventKind::WireRecv, RecordArgs::new().shard(0).progress(i));
        }
        sa.stop();
        sb.stop();
        let stats = service.node_stats();
        assert_eq!(stats.len(), 2);
        service.check_balance().expect("both balanced");
        let trace = service.snapshot();
        assert_eq!(trace.events.len(), 100);
        assert_eq!(trace.count(EventKind::WireSend), 50);
        assert_eq!(trace.count(EventKind::WireRecv), 50);
        service.stop();
    }

    #[test]
    fn attached_health_engine_observes_streamed_events() {
        use fluentps_obs::{HealthEngine, StreamConfig};
        let mut service = CollectorService::bind(loopback(), 1 << 14).unwrap();
        let engine = HealthEngine::with_default_rules(StreamConfig::all_run());
        service.attach_health(&engine);
        let col = TraceCollector::wall(256);
        let tracer = col.tracer();
        let streamer = TraceStreamer::start(NodeId::Worker(0), &col, service.local_addr());
        for i in 0..40u64 {
            tracer.record(
                EventKind::PullRequested,
                RecordArgs::new().shard(0).worker(0).progress(i).v_train(i),
            );
        }
        streamer.stop();
        let slo = engine.slo_text();
        assert!(slo.contains("slo events 40\n"), "{slo}");
        assert!(slo.contains("slo drop_rate 0.000000\n"), "{slo}");
        service.stop();
    }

    #[test]
    fn streamer_without_collector_gives_up_quietly() {
        let col = TraceCollector::wall(64);
        let tracer = col.tracer();
        tracer.record(EventKind::PushApplied, RecordArgs::new());
        let addr = dead_port();
        let streamer = TraceStreamer::start(NodeId::Worker(9), &col, addr);
        std::thread::sleep(Duration::from_millis(30));
        let report = streamer.stop();
        assert!(!report.connected);
        assert_eq!(report.batches, 0);
    }

    #[test]
    fn a_collector_bound_late_still_receives_the_tail() {
        const HEAD: u64 = 50;
        const TAIL: u64 = 70;
        let addr = dead_port();
        let col = TraceCollector::wall(1 << 12);
        let tracer = col.tracer();
        let record = |n: u64| {
            for i in 0..n {
                tracer.record(EventKind::PushApplied, RecordArgs::new().progress(i));
            }
        };
        let streamer = TraceStreamer::start(NodeId::Worker(4), &col, addr);
        record(HEAD);
        // Long enough for many drains to find nobody there.
        std::thread::sleep(Duration::from_millis(1500));
        let mut service = CollectorService::bind(addr, 1 << 14).unwrap();
        record(TAIL);
        let report = streamer.stop();
        assert!(report.connected, "{report:?}");
        assert!(report.send_drops > 0, "{report:?}");
        assert!(report.events_sent >= TAIL, "{report:?}");
        let stats = service.node_stats();
        assert_eq!(stats[0].emitted, HEAD + TAIL);
        assert_eq!(stats[0].received, report.events_sent);
        assert_eq!(stats[0].dropped, report.send_drops);
        service.check_balance().expect("balanced across the outage");
        service.stop();
    }

    /// A bare node that can reach `service`.
    fn stranger(id: NodeId, service: &CollectorService) -> TcpNode {
        let book = AddressBook::new();
        book.insert(NodeId::Collector, service.local_addr());
        TcpNode::bind(id, loopback(), book).unwrap()
    }

    /// The `seq` of the pong `node` is owed next.
    fn pong(node: &TcpNode) -> u64 {
        match node.recv_from(NodeId::Collector, Some(PONG_TIMEOUT)) {
            Ok(Some((NodeId::Collector, Message::ClockPong { seq, .. }))) => seq,
            other => panic!("no pong: {other:?}"),
        }
    }

    fn ping(node: &TcpNode, seq: u64) {
        let ping = Message::ClockPing {
            node: node.node(),
            seq,
            t_send: 0.0,
        };
        node.postman().send(NodeId::Collector, ping).unwrap();
    }

    #[test]
    fn a_strangers_shutdown_and_training_traffic_stop_nothing() {
        let mut service = CollectorService::bind(loopback(), 1 << 14).unwrap();
        let hostile = stranger(NodeId::Worker(66), &service);
        let pull = Message::SPull {
            worker: 66,
            progress: 0,
            keys: vec![1],
        };
        for stray in [Message::Shutdown, pull] {
            hostile.postman().send(NodeId::Collector, stray).unwrap();
        }
        // One thread reads the connection: the pong says both were handled.
        ping(&hostile, 7);
        assert_eq!(pong(&hostile), 7);
        // And collection goes on for everybody else.
        let col = TraceCollector::wall(256);
        let at = service.local_addr();
        let streamer = TraceStreamer::start(NodeId::Server(0), &col, at);
        col.tracer()
            .record(EventKind::PushApplied, RecordArgs::new());
        assert_eq!(streamer.stop().events_sent, 1);
        assert_eq!(service.node_stats()[0].received, 1);
        service.stop();
    }

    #[test]
    fn a_ping_is_answered_on_its_connection_when_a_newer_one_has_its_id() {
        let mut service = CollectorService::bind(loopback(), 1 << 14).unwrap();
        // A killed server's streamer and its replacement's: one id.
        let old = stranger(NodeId::Server(0), &service);
        let new = stranger(NodeId::Server(0), &service);
        ping(&old, 1);
        assert_eq!(pong(&old), 1);
        ping(&new, 2);
        assert_eq!(pong(&new), 2);
        // The newer connection is the id's route now; the old streamer's
        // barrier still hears back on its own.
        ping(&old, 3);
        assert_eq!(pong(&old), 3);
        ping(&new, 4);
        assert_eq!(pong(&new), 4);
        service.stop();
    }

    #[test]
    fn interleaved_pings_are_each_answered_on_their_own_connection() {
        let mut service = CollectorService::bind(loopback(), 1 << 14).unwrap();
        let a = stranger(NodeId::Worker(1), &service);
        let b = stranger(NodeId::Server(1), &service);
        ping(&a, 10);
        ping(&b, 20);
        ping(&a, 11);
        ping(&b, 21);
        assert_eq!([pong(&b), pong(&b)], [20, 21]);
        assert_eq!([pong(&a), pong(&a)], [10, 11]);
        service.stop();
    }

    #[test]
    fn the_collectors_step_runs_on_the_reader_threads() {
        use std::sync::mpsc;
        // What `bind` builds, with a look at who calls the step.
        let book = AddressBook::new();
        let node = TcpNode::bind(NodeId::Collector, loopback(), book.clone()).unwrap();
        book.insert(NodeId::Collector, node.local_addr());
        let service = CollectorService {
            local_addr: node.local_addr(),
            cluster: Arc::new(Mutex::new(ClusterCollector::new(1 << 10))),
            clock: ClockSource::wall(),
            stopping: Arc::default(),
            postman: node.postman(),
            serve_thread: None,
        };
        let mut ingest = service.step();
        let (named_tx, named) = mpsc::channel();
        let (installed_tx, installed) = mpsc::channel();
        let step = move |input: Input| {
            match &input {
                Input::Message(..) => {
                    let thread = std::thread::current();
                    named_tx.send(thread.name().map(str::to_owned)).unwrap();
                }
                // The first `Dry` is the serve caller's, just before the
                // step is the readers' to run.
                _ => drop(installed_tx.send(())),
            }
            ingest.step(input)
        };
        let serving = std::thread::Builder::new()
            .name("the-serve-caller".into())
            .spawn(move || drop(node.serve(None, step)))
            .unwrap();
        installed.recv().unwrap();

        let col = TraceCollector::wall(256);
        let at = service.local_addr();
        let streamer = TraceStreamer::start(NodeId::Worker(0), &col, at);
        col.tracer()
            .record(EventKind::PushApplied, RecordArgs::new());
        assert_eq!(streamer.stop().events_sent, 1);
        assert_eq!(service.node_stats()[0].received, 1);
        service.stopping.store(true, Ordering::SeqCst);
        let stop = service.postman.send(NodeId::Collector, Message::Shutdown);
        stop.unwrap();
        serving.join().unwrap();

        let names: Vec<String> = named.try_iter().map(|name| name.unwrap()).collect();
        // Pings, batches, the barrier and the stop.
        assert!(names.len() >= PINGS + 3, "{names:?}");
        for name in &names {
            assert!(name.starts_with("tcp-reader-collector"), "{names:?}");
        }
    }
}
