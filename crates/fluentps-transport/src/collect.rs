//! Trace collection over TCP: the collector service and per-node streamers.
//!
//! The pure merge/alignment core lives in `fluentps_obs::collect`; this
//! module is the wire plumbing around it. A [`CollectorService`] owns a
//! plain `TcpListener` — *not* a [`crate::tcp::TcpNode`], whose inbox would
//! mix clock pongs into training traffic — and each node runs a
//! [`TraceStreamer`] thread that:
//!
//! 1. dials the collector and runs a short [`Message::ClockPing`] /
//!    [`Message::ClockPong`] handshake to estimate its clock offset
//!    (minimum-RTT sample wins, see `fluentps_obs::OffsetEstimator`);
//! 2. polls the node's `TraceCollector` ring buffers every `POLL_EVERY` (20 ms)
//!    through a `TraceCursor` and ships fresh events as length-prefixed
//!    [`Message::TraceBatch`] frames, chunked to `MAX_BATCH` (512) events;
//! 3. never blocks the training hot path: recording stays ring-buffered
//!    and drop-oldest, and a failed send drops the chunk (counted in the
//!    next batch header's cumulative `dropped`) instead of stalling.
//!
//! Shutdown is a read barrier: after the final flush the streamer sends one
//! more ping and waits for its pong. The collector handles each connection
//! serially, so the pong proves every prior batch was ingested — that is
//! what makes `received + dropped == emitted` exact at run end.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use fluentps_obs::clock::ClockSource;
use fluentps_obs::collect::{ClusterCollector, NodeStats};
use fluentps_obs::{Profiler, Trace, TraceCollector};
use fluentps_util::buf::BytesMut;
use fluentps_util::sync::{Mutex, StopFlag};

use crate::error::TransportError;
use crate::frame::{encode_frame_into, write_frame, FrameReader};
use crate::msg::{Message, NodeId};

/// How long a streamer keeps retrying its initial dial before giving up
/// (the collector is normally bound before any node starts).
const CONNECT_RETRIES: u32 = 20;
const CONNECT_RETRY_EVERY: Duration = Duration::from_millis(50);
/// Read timeout for pong waits, so a dead collector cannot wedge shutdown.
const PONG_TIMEOUT: Duration = Duration::from_secs(2);
/// Ring-poll (and batch-send) cadence of a streamer.
const POLL_EVERY: Duration = Duration::from_millis(20);
/// Maximum events per `TraceBatch` frame; larger polls are chunked.
const MAX_BATCH: usize = 512;
/// Byte budget per coalesced write: a drain encodes its chunk frames back to
/// back into one reused buffer and normally writes them with a single flush,
/// but hands the buffer to the kernel early whenever it crosses this budget,
/// so a huge backlog cannot queue unbounded bytes in user space and write
/// latency stays bounded.
const MAX_BATCH_BYTES: usize = 256 << 10;
/// Clock-offset probes at connection time.
const PINGS: u64 = 4;

/// The central collection endpoint: accepts node connections, answers
/// clock pings with the collector-clock time, and feeds every trace batch
/// into a shared [`ClusterCollector`].
pub struct CollectorService {
    local_addr: SocketAddr,
    cluster: Arc<Mutex<ClusterCollector>>,
    clock: ClockSource,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl CollectorService {
    /// Bind the service (port 0 lets the OS choose; see
    /// [`CollectorService::local_addr`]). `capacity_per_node` bounds the
    /// merged buffer per stream, mirroring the sender-side rings.
    pub fn bind(addr: SocketAddr, capacity_per_node: usize) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let cluster = Arc::new(Mutex::new(ClusterCollector::new(capacity_per_node)));
        let clock = ClockSource::wall();
        let stop = Arc::new(AtomicBool::new(false));
        let accept_cluster = Arc::clone(&cluster);
        let accept_clock = clock.clone();
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("trace-collector-accept".into())
            .spawn(move || {
                // A blocking `accept`: an idle collector never wakes, and
                // `stop` dials the listener to end the wait.
                while let Ok((stream, _)) = listener.accept() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break; // the wake-up dial of `stop`
                    }
                    stream.set_nodelay(true).ok();
                    spawn_ingest(stream, Arc::clone(&accept_cluster), accept_clock.clone());
                }
            })
            .expect("spawn collector accept thread");
        Ok(CollectorService {
            local_addr,
            cluster,
            clock,
            stop,
            accept_thread: Some(accept_thread),
        })
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

    /// Stop accepting new connections. Live ingest threads finish when
    /// their peers close, which streamer shutdown guarantees.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            // The accept thread blocks in `accept`; one throwaway dial wakes
            // it to see the flag.
            TcpStream::connect(self.local_addr).ok();
            let _ = h.join();
        }
    }
}

impl Drop for CollectorService {
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn_ingest(stream: TcpStream, cluster: Arc<Mutex<ClusterCollector>>, clock: ClockSource) {
    std::thread::Builder::new()
        .name("trace-collector-ingest".into())
        .spawn(move || {
            let mut writer = match stream.try_clone() {
                Ok(w) => w,
                Err(_) => return,
            };
            let mut reader = BufReader::new(stream);
            let mut frames = FrameReader::new();
            // Each frame is read into a buffer of its own, which a decoded
            // message would share for its values; a trace batch carries
            // none, so the buffer is freed once its events are decoded.
            while let Ok((_, msg)) = frames.read_from(&mut reader) {
                match msg {
                    Message::ClockPing { seq, t_send, .. } => {
                        let pong = Message::ClockPong {
                            seq,
                            t_send,
                            t_collector: clock.now(),
                        };
                        if write_frame(&mut writer, NodeId::Collector, &pong).is_err() {
                            break;
                        }
                    }
                    Message::TraceBatch {
                        node,
                        offset_secs,
                        batch_seq,
                        emitted,
                        dropped,
                        events,
                    } => {
                        cluster.lock().ingest(
                            &node.to_string(),
                            offset_secs,
                            batch_seq,
                            emitted,
                            dropped,
                            &events,
                        );
                    }
                    Message::Shutdown => break,
                    // The collector is a passive sink; training traffic on
                    // this port is a wiring bug, not a protocol state.
                    _ => {}
                }
            }
        })
        .expect("spawn collector ingest thread");
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
    /// Whether the initial dial ever succeeded.
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
    /// `TraceCollector`. Each ring drain (poll, chunk, encode, coalesced
    /// write) runs under a `streamer/drain` span of `profiler` on the
    /// streamer thread, so a profile shows how much of the run the
    /// observability plumbing itself cost.
    pub fn start(
        node: NodeId,
        collector: &TraceCollector,
        addr: SocketAddr,
        profiler: Profiler,
    ) -> TraceStreamer {
        let stop = Arc::new(StopFlag::new());
        let thread_stop = Arc::clone(&stop);
        let col = collector.clone();
        let handle = std::thread::Builder::new()
            .name(format!("trace-streamer-{node}"))
            .spawn(move || stream_loop(node, col, addr, thread_stop, profiler))
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
        self.stop.stop();
        match self.handle.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => StreamerReport::default(),
        }
    }
}

impl Drop for TraceStreamer {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

struct StreamerConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    frames: FrameReader,
}

fn dial(addr: SocketAddr, stop: &StopFlag) -> Option<StreamerConn> {
    for _ in 0..CONNECT_RETRIES {
        if let Ok(stream) = TcpStream::connect(addr) {
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(PONG_TIMEOUT)).ok();
            if let Ok(writer) = stream.try_clone() {
                return Some(StreamerConn {
                    writer,
                    reader: BufReader::new(stream),
                    frames: FrameReader::new(),
                });
            }
        }
        if stop.wait_timeout(CONNECT_RETRY_EVERY) {
            return None;
        }
    }
    None
}

/// One ping/pong exchange; returns `(t_send, t_collector, t_recv)`.
fn ping_once(
    conn: &mut StreamerConn,
    node: NodeId,
    seq: u64,
    col: &TraceCollector,
) -> Option<(f64, f64, f64)> {
    let t_send = col.now();
    write_frame(
        &mut conn.writer,
        node,
        &Message::ClockPing { node, seq, t_send },
    )
    .ok()?;
    loop {
        match conn.frames.read_from(&mut conn.reader) {
            Ok((
                _,
                Message::ClockPong {
                    seq: s,
                    t_send: echoed,
                    t_collector,
                },
            )) => {
                let t_recv = col.now();
                if s == seq {
                    return Some((echoed, t_collector, t_recv));
                }
                // A stale pong from an earlier probe; keep reading.
            }
            Ok(_) => {}
            Err(_) => return None,
        }
    }
}

/// Hand the coalesced frames accumulated in `scratch` to the kernel in one
/// `write_all` and settle their accounting: success credits every pending
/// chunk, failure drops them all (counted in the next header that does get
/// through). The buffer is cleared but keeps its allocation for reuse.
fn write_coalesced(
    conn: &mut StreamerConn,
    scratch: &mut BytesMut,
    pending_batches: &mut u64,
    pending_events: &mut u64,
    report: &mut StreamerReport,
) {
    if scratch.is_empty() {
        return;
    }
    if conn.writer.write_all(scratch.as_ref()).is_ok() {
        report.batches += *pending_batches;
        report.events_sent += *pending_events;
    } else {
        // Never block or retry on the hot path: the chunks are gone;
        // account for them in the next header that does get through.
        report.send_drops += *pending_events;
    }
    scratch.clear();
    *pending_batches = 0;
    *pending_events = 0;
}

fn stream_loop(
    node: NodeId,
    col: TraceCollector,
    addr: SocketAddr,
    stop: Arc<StopFlag>,
    profiler: Profiler,
) -> StreamerReport {
    let mut report = StreamerReport::default();
    let mut cursor = col.cursor();
    let Some(mut conn) = dial(addr, &stop) else {
        // Never connected: park until stop (the latch wakes us at once) so
        // the cursor accounting is still discarded without spinning.
        while !stop.wait_timeout(POLL_EVERY) {}
        return report;
    };
    report.connected = true;

    let mut estimator = fluentps_obs::OffsetEstimator::new();
    for seq in 0..PINGS {
        if let Some((t_send, t_collector, t_recv)) = ping_once(&mut conn, node, seq, &col) {
            estimator.add_sample(t_send, t_collector, t_recv);
        } else {
            break;
        }
    }

    let mut batch_seq = 0u64;
    // One reused encode buffer for the whole connection: each drain
    // coalesces all its chunk frames here and writes them with a single
    // syscall, spilling early only past the byte budget.
    let mut scratch = BytesMut::new();
    let mut drain = |conn: &mut StreamerConn, report: &mut StreamerReport, batch_seq: &mut u64| {
        let _span = profiler.enter("streamer/drain");
        let polled = cursor.poll();
        // Chunk to `MAX_BATCH`; always emit at least one (possibly empty)
        // frame so cumulative accounting reaches the collector even when
        // nothing new was recorded.
        let chunks: Vec<&[fluentps_obs::TraceEvent]> = if polled.events.is_empty() {
            vec![&[][..]]
        } else {
            polled.events.chunks(MAX_BATCH).collect()
        };
        scratch.clear();
        let mut pending_batches = 0u64;
        let mut pending_events = 0u64;
        for chunk in chunks {
            *batch_seq += 1;
            let msg = Message::TraceBatch {
                node,
                offset_secs: estimator.offset(),
                batch_seq: *batch_seq,
                emitted: polled.emitted,
                dropped: polled.dropped + report.send_drops,
                events: chunk.to_vec(),
            };
            encode_frame_into(node, &msg, &mut scratch);
            pending_batches += 1;
            pending_events += chunk.len() as u64;
            if scratch.len() >= MAX_BATCH_BYTES {
                write_coalesced(
                    conn,
                    &mut scratch,
                    &mut pending_batches,
                    &mut pending_events,
                    report,
                );
            }
        }
        write_coalesced(
            conn,
            &mut scratch,
            &mut pending_batches,
            &mut pending_events,
            report,
        );
    };

    while !stop.wait_timeout(POLL_EVERY) {
        drain(&mut conn, &mut report, &mut batch_seq);
    }
    // Final drain picks up everything recorded up to the stop request.
    drain(&mut conn, &mut report, &mut batch_seq);
    // Read barrier: the pong proves the collector processed every batch
    // written before the ping on this (serially handled) connection.
    ping_once(&mut conn, node, u64::MAX, &col);
    write_frame(&mut conn.writer, node, &Message::Shutdown).ok();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluentps_obs::{EventKind, RecordArgs};

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn streamer_ships_events_and_accounting_balances() {
        let mut service = CollectorService::bind(loopback(), 1 << 14).unwrap();
        let col = TraceCollector::wall(1 << 12);
        let tracer = col.tracer();
        let streamer = TraceStreamer::start(
            NodeId::Worker(3),
            &col,
            service.local_addr(),
            Profiler::disabled(),
        );
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
        let streamer = TraceStreamer::start(
            NodeId::Server(1),
            &col,
            service.local_addr(),
            Profiler::disabled(),
        );
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
        let sa = TraceStreamer::start(
            NodeId::Worker(0),
            &col_a,
            service.local_addr(),
            Profiler::disabled(),
        );
        let sb = TraceStreamer::start(
            NodeId::Server(0),
            &col_b,
            service.local_addr(),
            Profiler::disabled(),
        );
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
        let streamer = TraceStreamer::start(
            NodeId::Worker(0),
            &col,
            service.local_addr(),
            Profiler::disabled(),
        );
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
        // Nothing listens here (bind-then-drop reserves a dead port).
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let streamer = TraceStreamer::start(NodeId::Worker(9), &col, addr, Profiler::disabled());
        std::thread::sleep(Duration::from_millis(30));
        let report = streamer.stop();
        assert!(!report.connected);
        assert_eq!(report.batches, 0);
    }
}
