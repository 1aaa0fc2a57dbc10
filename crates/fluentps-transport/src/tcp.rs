//! TCP transport over `std::net`.
//!
//! Connections are unidirectional: a node dials a peer the first time it
//! sends to it, and replies flow over a connection the peer dials back (the
//! address book tells everyone where everyone listens). Every accepted stream
//! gets a reader thread that decodes its frames and hands each to whoever
//! consumes the node's input: the inbox behind [`Mailbox::recv`], or — while
//! a [`Mailbox::serve`] call is in progress — that call's step, run by the
//! reader itself under the node's lock, so a request is answered on the
//! thread that read it. Either way delivery is reliable and per-sender FIFO:
//! one thread owns one connection.

use std::any::Any;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fluentps_obs::{EventKind, Profiler, RecordArgs, Tracer, NO_ID};
use fluentps_util::buf::BytesMut;
use fluentps_util::sync::Mutex;
use fluentps_util::sync::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::error::TransportError;
use crate::frame::{holds_frame, wire_len, write_frames, FrameReader, READ_BUFFER};
use crate::msg::{Message, NodeId};
use crate::{per_destination, Flow, Input, Mailbox, Postman, Step};

/// Mapping from node identity to listening address, distributed out-of-band
/// (mirrors how PS-Lite nodes learn the scheduler address from environment
/// variables).
///
/// The book is internally shared: clones hand out views of the *same*
/// directory, so re-registering a node (e.g. a replacement server bound to
/// a fresh port after a crash) is immediately visible to every postman
/// built from any clone. A postman whose connection breaks redials through
/// the book, which is how workers find a recovered server.
#[derive(Clone, Default)]
pub struct AddressBook {
    addrs: Arc<fluentps_util::sync::RwLock<HashMap<NodeId, SocketAddr>>>,
}

impl AddressBook {
    /// Empty address book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record (or update) where `node` listens. Visible through every
    /// clone of this book.
    pub fn insert(&self, node: NodeId, addr: SocketAddr) {
        self.addrs.write().insert(node, addr);
    }

    /// Look up a node's listening address.
    pub fn get(&self, node: NodeId) -> Option<SocketAddr> {
        self.addrs.read().get(&node).copied()
    }
}

impl std::fmt::Debug for AddressBook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.addrs.read().iter()).finish()
    }
}

type Envelope = (NodeId, Message);

/// One dialed connection: the socket plus a reusable scratch buffer that
/// frame *heads* (and whole payload-free frames) are encoded into before one
/// gathered write hands them to the kernel together with the value payloads,
/// which are written from where the messages hold them. The buffer grows to
/// the largest run of heads written and stays there — about a kilobyte per
/// tensor-sized frame — and because a whole batch reaches the socket in one
/// write there is no per-message flush (DESIGN.md § wire path).
struct Conn {
    stream: TcpStream,
    buf: BytesMut,
}

/// Who consumes what the reader threads decode: the node's one lock.
#[derive(Default)]
struct Serving {
    /// The step of the [`Mailbox::serve`] call in progress. While there is
    /// none, frames queue in the inbox.
    step: Option<Box<dyn Step>>,
    /// The step said [`Flow::Stop`]: it is not called again (frames queue in
    /// the inbox, as on a node nobody serves) and `serve` collects it.
    stopped: bool,
    /// Messages the step was called with; `serve` reads idleness off it.
    handled: u64,
}

struct Shared {
    node: NodeId,
    book: AddressBook,
    conns: Mutex<HashMap<NodeId, Conn>>,
    inbox_tx: Sender<Envelope>,
    serving: Mutex<Serving>,
    /// Signalled when `serving.stopped` is set.
    stopped: Condvar,
    closed: AtomicBool,
    tracer: Tracer,
    profiler: Profiler,
}

impl Shared {
    /// Hand one decoded frame to whoever consumes this node's input; `dry`
    /// says the connection it came from holds nothing further that is ready.
    /// A served node's step runs right here, on the reader's thread, and
    /// writes its replies before the lock is released — which is what keeps
    /// them in handle order per destination. Sending to the inbox happens
    /// under the same lock, so a frame cannot slip into the inbox behind a
    /// `serve` call that has just drained it. False once the node is gone.
    fn deliver(&self, from: NodeId, msg: Message, dry: bool) -> bool {
        let serving = &mut *self.serving.lock();
        let step = match &mut serving.step {
            Some(step) if !serving.stopped => step,
            _ => return self.inbox_tx.send((from, msg)).is_ok(),
        };
        let mut flow = step.step(Input::Message(from, msg));
        if dry && flow == Flow::Continue {
            flow = step.step(Input::Dry);
        }
        serving.handled += 1;
        if flow == Flow::Stop {
            serving.stopped = true;
            self.stopped.notify_all();
        }
        true
    }
}

/// `(shard, worker)` ids for a trace event about traffic between `local`
/// and `peer`: the server index supplies the shard lane, the worker index
/// the worker lane, whichever side each lives on.
fn trace_ids(local: NodeId, peer: NodeId) -> (u32, u32) {
    let pick = |want_server: bool| {
        [local, peer]
            .into_iter()
            .find_map(|n| match (want_server, n) {
                (true, NodeId::Server(m)) => Some(m),
                (false, NodeId::Worker(w)) => Some(w),
                _ => None,
            })
            .unwrap_or(NO_ID)
    };
    (pick(true), pick(false))
}

/// A TCP endpoint: listener plus dialed connections.
pub struct TcpNode {
    shared: Arc<Shared>,
    inbox_rx: Receiver<Envelope>,
    accept_thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl TcpNode {
    /// Bind `node`'s listener on `addr` (use port 0 to let the OS choose; the
    /// actual address is available via [`TcpNode::local_addr`]).
    pub fn bind(node: NodeId, addr: SocketAddr, book: AddressBook) -> Result<Self, TransportError> {
        Self::bind_profiled(node, addr, book, Tracer::disabled(), Profiler::disabled())
    }

    /// [`TcpNode::bind`] with frame-level tracing and span profiling. Every
    /// frame written by this node's postmen records a `wire_send` event and
    /// every frame decoded off an accepted stream a `wire_recv`, both
    /// carrying the exact on-the-wire byte count; every frame the postmen
    /// encode runs under a `wire/encode` span and every frame decoded under
    /// `wire/decode` (the blocking socket reads stay outside the spans —
    /// waiting is wire latency, not decode cost).
    pub fn bind_profiled(
        node: NodeId,
        addr: SocketAddr,
        book: AddressBook,
        tracer: Tracer,
        profiler: Profiler,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (inbox_tx, inbox_rx) = unbounded();
        let shared = Arc::new(Shared {
            node,
            book,
            conns: Mutex::new(HashMap::new()),
            inbox_tx,
            serving: Mutex::default(),
            stopped: Condvar::new(),
            closed: AtomicBool::new(false),
            tracer,
            profiler,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("tcp-accept-{node}"))
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(TcpNode {
            shared,
            inbox_rx,
            accept_thread: Some(accept_thread),
            local_addr,
        })
    }

    /// The address this node actually listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The node identity.
    pub fn node(&self) -> NodeId {
        self.shared.node
    }

    /// A cloneable sending handle.
    pub fn postman(&self) -> TcpPostman {
        TcpPostman {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stop accepting and sending. A reader thread exits when its peer
    /// closes or, once the node is dropped, at the next frame it reads —
    /// closing the socket, so the peer's following write fails.
    pub fn shutdown(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        self.shared.conns.lock().clear();
        if let Some(h) = self.accept_thread.take() {
            // The accept thread blocks in `accept`; one throwaway dial wakes
            // it to see `closed`. If the dial fails the listener is already
            // gone, and so is the thread.
            let _ = TcpStream::connect(self.local_addr);
            let _ = h.join();
        }
    }
}

impl Drop for TcpNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept until shut down: a blocking `accept`, so a new connection gets its
/// reader thread at once and an idle node never wakes.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while let Ok((stream, _peer)) = listener.accept() {
        if shared.closed.load(Ordering::SeqCst) {
            break; // the wake-up dial of `shutdown`
        }
        stream.set_nodelay(true).ok();
        spawn_reader(stream, Arc::clone(&shared));
    }
}

fn spawn_reader(stream: TcpStream, shared: Arc<Shared>) {
    std::thread::Builder::new()
        .name(format!("tcp-reader-{}", shared.node))
        .spawn(move || read_frames(stream, &shared))
        .expect("spawn reader thread");
}

/// The life of one accepted connection: read frames until the peer closes,
/// the stream breaks or the node is gone, then drop the socket — so a peer
/// still writing finds out and redials. Each frame lands in a buffer of its
/// own, which the decoded message shares: a value is not copied again on
/// this side.
fn read_frames(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::with_capacity(READ_BUFFER, stream);
    let mut frames = FrameReader::new();
    let mut peer = None;
    let broken = loop {
        match frames.read_next(&mut reader, &shared.profiler) {
            Ok(Some((from, msg))) => {
                peer = Some(from);
                if shared.tracer.is_enabled() {
                    let (shard, worker) = trace_ids(shared.node, from);
                    shared.tracer.record(
                        EventKind::WireRecv,
                        RecordArgs::new()
                            .shard(shard)
                            .worker(worker)
                            .bytes(wire_len(&msg) as u64),
                    );
                }
                // Nothing further is ready when the buffer does not hold
                // the whole next frame: the next read would block (or at
                // least go to the kernel), so the step is told to send
                // what it has queued. A partial frame holds nothing back.
                let dry = !holds_frame(reader.buffer());
                if !shared.deliver(from, msg, dry) {
                    break false;
                }
            }
            // Closed by the peer at a frame boundary: nothing was lost.
            Ok(None) => break false,
            Err(_) => break true,
        }
    };
    // A corrupt frame, an impossible length or an end in the middle of a
    // frame: every later frame of this connection is lost with it.
    if broken && shared.tracer.is_enabled() {
        let (shard, worker) = trace_ids(shared.node, peer.unwrap_or(shared.node));
        shared.tracer.record(
            EventKind::ConnectionLost,
            RecordArgs::new().shard(shard).worker(worker),
        );
    }
}

impl Mailbox for TcpNode {
    fn recv(&self) -> Result<(NodeId, Message), TransportError> {
        self.inbox_rx
            .recv()
            .map_err(|_| TransportError::Disconnected)
    }

    fn try_recv(&self) -> Result<Option<(NodeId, Message)>, TransportError> {
        match self.inbox_rx.try_recv() {
            Ok(env) => Ok(Some(env)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        match self.inbox_rx.recv_timeout(timeout) {
            Ok(env) => Ok(Some(env)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Install `step` for the connections' reader threads to run
    /// ([`Shared::deliver`]) and wait here until it says [`Flow::Stop`].
    /// This thread runs the step only twice over: first for what the inbox
    /// already holds — under the lock, so nothing a reader decodes meanwhile
    /// overtakes it — and, with `wake` set, for [`Input::Tick`] whenever a
    /// whole interval passed without a message. Frames that arrive after the
    /// stop queue in the inbox again, unhandled.
    fn serve<S: Step>(&self, wake: Option<Duration>, step: S) -> S {
        let shared = &*self.shared;
        let mut serving = shared.serving.lock();
        assert!(
            serving.step.is_none(),
            "{} is being served already",
            shared.node
        );
        let mut step: Box<dyn Step> = Box::new(step);
        let mut flow = Flow::Continue;
        while flow == Flow::Continue {
            let Ok((from, msg)) = self.inbox_rx.try_recv() else {
                flow = step.step(Input::Dry);
                break;
            };
            flow = step.step(Input::Message(from, msg));
        }
        serving.stopped = flow == Flow::Stop;
        serving.step = Some(step);

        let mut seen = serving.handled;
        let mut tick_at = wake.map(|wake| Instant::now() + wake);
        while !serving.stopped {
            let Some(at) = tick_at else {
                serving = shared
                    .stopped
                    .wait(serving)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            };
            let left = at.saturating_duration_since(Instant::now());
            if !left.is_zero() {
                let woken = shared.stopped.wait_timeout(serving, left);
                serving = woken.unwrap_or_else(|e| e.into_inner()).0;
                continue;
            }
            if serving.handled == seen {
                let step = serving.step.as_mut().expect("installed above");
                serving.stopped = step.step(Input::Tick) == Flow::Stop;
            }
            seen = serving.handled;
            tick_at = wake.map(|wake| Instant::now() + wake);
        }
        serving.stopped = false;
        let step: Box<dyn Any> = serving.step.take().expect("installed above");
        *step.downcast().expect("the step this call installed")
    }
}

/// Sending handle of a [`TcpNode`].
#[derive(Clone)]
pub struct TcpPostman {
    shared: Arc<Shared>,
}

impl TcpPostman {
    /// Get (or dial) the connection to `to`.
    fn ensure_conn<'c>(
        &self,
        conns: &'c mut HashMap<NodeId, Conn>,
        to: NodeId,
    ) -> Result<&'c mut Conn, TransportError> {
        if let std::collections::hash_map::Entry::Vacant(e) = conns.entry(to) {
            let addr = self
                .shared
                .book
                .get(to)
                .ok_or(TransportError::UnknownNode(to))?;
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            e.insert(Conn {
                stream,
                buf: BytesMut::new(),
            });
        }
        Ok(conns.get_mut(&to).expect("just inserted"))
    }

    /// Write the frames of `msgs` to `to` in one gathered write (dialing
    /// first if needed) and trace each as sent. On error the connection is
    /// dropped so a later send can redial.
    fn write_to(
        &self,
        conns: &mut HashMap<NodeId, Conn>,
        to: NodeId,
        msgs: &[&Message],
    ) -> Result<(), TransportError> {
        let Conn { stream, buf } = self.ensure_conn(conns, to)?;
        let from = self.shared.node;
        let prof = &self.shared.profiler;
        if let Err(e) = write_frames(stream, from, msgs.iter().copied(), buf, prof) {
            conns.remove(&to);
            return Err(e.into());
        }
        if self.shared.tracer.is_enabled() {
            for msg in msgs {
                self.trace_send(to, wire_len(msg) as u64);
            }
        }
        Ok(())
    }

    fn trace_send(&self, to: NodeId, bytes: u64) {
        let (shard, worker) = trace_ids(self.shared.node, to);
        self.shared.tracer.record(
            EventKind::WireSend,
            RecordArgs::new().shard(shard).worker(worker).bytes(bytes),
        );
    }
}

impl Postman for TcpPostman {
    fn send(&self, to: NodeId, msg: Message) -> Result<(), TransportError> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Disconnected);
        }
        self.write_to(&mut self.shared.conns.lock(), to, &[&msg])
    }

    /// Coalesced send: the frames for one destination go out in a *single*
    /// gathered write — heads from that connection's scratch buffer, value
    /// payloads from the messages — one flush per destination instead of
    /// one per message. Per-destination FIFO order is preserved;
    /// destinations are written in order of first appearance, and a failure
    /// on one does not stop the others (the first error is returned after
    /// every destination is attempted).
    fn send_batch(&self, batch: Vec<(NodeId, Message)>) -> Result<(), TransportError> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Disconnected);
        }
        let mut conns = self.shared.conns.lock();
        let mut first_err = None;
        for (to, msgs) in per_destination(batch.iter().map(|(to, msg)| (*to, msg))) {
            if let Err(e) = self.write_to(&mut conns, to, &msgs) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::KvPairs;

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn two_nodes_exchange_messages() {
        let book = AddressBook::new();
        let server = TcpNode::bind(NodeId::Server(0), loopback(), book.clone()).unwrap();
        book.insert(NodeId::Server(0), server.local_addr());
        let worker = TcpNode::bind(NodeId::Worker(0), loopback(), book.clone()).unwrap();

        let msg = Message::SPush {
            worker: 0,
            progress: 5,
            kv: KvPairs::single(1, vec![1.0, 2.0]),
        };
        worker
            .postman()
            .send(NodeId::Server(0), msg.clone())
            .unwrap();
        let (from, got) = server
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("message within timeout");
        assert_eq!(from, NodeId::Worker(0));
        assert_eq!(got, msg);
    }

    #[test]
    fn reply_flows_over_dialed_back_connection() {
        let book = AddressBook::new();
        let server = TcpNode::bind(NodeId::Server(0), loopback(), book.clone()).unwrap();
        book.insert(NodeId::Server(0), server.local_addr());
        let worker = TcpNode::bind(NodeId::Worker(0), loopback(), book.clone()).unwrap();
        let book2 = book.clone();
        book2.insert(NodeId::Worker(0), worker.local_addr());
        // Server needs the worker's address to reply; rebuild its postman view
        // by binding a fresh server with the complete book in real usage. Here
        // we simply dial from a postman constructed with the full book.
        let full_server = TcpNode::bind(NodeId::Server(1), loopback(), book2).unwrap();

        worker
            .postman()
            .send(NodeId::Server(0), Message::Shutdown)
            .unwrap();
        assert!(server
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .is_some());

        full_server
            .postman()
            .send(
                NodeId::Worker(0),
                Message::PushAck {
                    server: 1,
                    progress: 0,
                },
            )
            .unwrap();
        let (from, msg) = worker
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("reply");
        assert_eq!(from, NodeId::Server(1));
        assert_eq!(
            msg,
            Message::PushAck {
                server: 1,
                progress: 0
            }
        );
    }

    #[test]
    fn traced_nodes_record_frame_level_wire_events() {
        use fluentps_obs::TraceCollector;

        let collector = TraceCollector::wall(1024);
        let book = AddressBook::new();
        let traced = |node, book| {
            let quiet = Profiler::disabled();
            TcpNode::bind_profiled(node, loopback(), book, collector.tracer(), quiet).unwrap()
        };
        let server = traced(NodeId::Server(2), book.clone());
        book.insert(NodeId::Server(2), server.local_addr());
        let worker = traced(NodeId::Worker(7), book);

        let msg = Message::SPull {
            worker: 7,
            progress: 3,
            keys: vec![1, 2, 3],
        };
        let expected_bytes = wire_len(&msg) as u64;
        worker
            .postman()
            .send(NodeId::Server(2), msg.clone())
            .unwrap();
        let (_, got) = server
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("message within timeout");
        assert_eq!(got, msg);

        let trace = collector.snapshot();
        assert_eq!(trace.count(EventKind::WireSend), 1);
        assert_eq!(trace.count(EventKind::WireRecv), 1);
        for ev in &trace.events {
            assert_eq!(ev.bytes, expected_bytes);
            assert_eq!(ev.shard, 2);
            assert_eq!(ev.worker, 7);
        }
    }

    #[test]
    fn first_message_on_a_fresh_connection_does_not_wait_for_a_poll() {
        // The accept thread is blocked in `accept`, not asleep between
        // polls: a brand-new connection's first frame is delivered in the
        // time it takes to spawn a reader, not within the next 10 ms. One
        // connection is accepted first, so the accept thread is certainly
        // parked again when the measured one arrives.
        let mut took: Vec<Duration> = (0..20)
            .map(|_| {
                let book = AddressBook::new();
                let server = TcpNode::bind(NodeId::Server(0), loopback(), book.clone()).unwrap();
                book.insert(NodeId::Server(0), server.local_addr());
                let first = TcpNode::bind(NodeId::Worker(0), loopback(), book.clone()).unwrap();
                let second = TcpNode::bind(NodeId::Worker(1), loopback(), book).unwrap();
                let deliver = |from: &TcpNode| {
                    let sent = std::time::Instant::now();
                    from.postman()
                        .send(NodeId::Server(0), Message::Shutdown)
                        .unwrap();
                    server
                        .recv_timeout(Duration::from_secs(5))
                        .unwrap()
                        .expect("message within timeout");
                    sent.elapsed()
                };
                deliver(&first);
                deliver(&second)
            })
            .collect();
        took.sort_unstable();
        let median = took[took.len() / 2];
        assert!(
            median < Duration::from_millis(3),
            "median first-message latency {median:?} over fresh connections: {took:?}"
        );
    }

    #[test]
    fn shutdown_of_an_idle_node_returns_promptly_and_stops_accepting() {
        let mut node = TcpNode::bind(NodeId::Server(0), loopback(), AddressBook::new()).unwrap();
        let addr = node.local_addr();
        let begun = std::time::Instant::now();
        node.shutdown();
        node.shutdown(); // idempotent
        assert!(
            begun.elapsed() < Duration::from_millis(500),
            "idle shutdown took {:?}",
            begun.elapsed()
        );
        // The accept thread is joined, so the listener is closed.
        assert!(TcpStream::connect(addr).is_err());
        let sent = node.postman().send(NodeId::Server(0), Message::Shutdown);
        assert!(matches!(sent, Err(TransportError::Disconnected)));
    }

    /// A step that collects heartbeat sequence numbers and stops on
    /// `Shutdown`.
    #[derive(Default)]
    struct Collect(Vec<u64>);

    impl Step for Collect {
        fn step(&mut self, input: Input) -> Flow {
            match input {
                Input::Message(_, Message::Heartbeat { seq, .. }) => self.0.push(seq),
                Input::Message(_, Message::Shutdown) => return Flow::Stop,
                _ => {}
            }
            Flow::Continue
        }
    }

    #[test]
    fn serve_handles_what_the_inbox_holds_before_anything_read_later() {
        let book = AddressBook::new();
        let server = TcpNode::bind(NodeId::Server(0), loopback(), book.clone()).unwrap();
        book.insert(NodeId::Server(0), server.local_addr());
        let worker = TcpNode::bind(NodeId::Worker(0), loopback(), book).unwrap();
        let beat = |seq| Message::Heartbeat {
            node: NodeId::Worker(0),
            seq,
        };
        // In the inbox for certain: put there the way a reader does.
        for seq in 0..3 {
            assert!(server.shared.deliver(NodeId::Worker(0), beat(seq), true));
        }
        // Behind them, over the socket and from the same sender — so the
        // order is owed — two more and the stop.
        let batch = [beat(3), beat(4), Message::Shutdown];
        let to_server = batch.into_iter().map(|m| (NodeId::Server(0), m));
        worker.postman().send_batch(to_server.collect()).unwrap();
        let Collect(seqs) = server.serve(None, Collect::default());
        assert_eq!(seqs, [0, 1, 2, 3, 4]);
        // Served once, servable again; a stop found in the inbox ends the
        // call before it waits.
        assert!(server.shared.deliver(NodeId::Worker(0), beat(5), true));
        assert!(server
            .shared
            .deliver(NodeId::Worker(0), Message::Shutdown, true));
        assert!(server.shared.deliver(NodeId::Worker(0), beat(6), true));
        let Collect(seqs) = server.serve(Some(Duration::from_secs(60)), Collect::default());
        assert_eq!(seqs, [5]);
        assert!(matches!(
            server.try_recv(),
            Ok(Some((_, Message::Heartbeat { seq: 6, .. })))
        ));
    }

    #[test]
    fn a_connection_that_dies_says_so_and_a_clean_close_does_not() {
        use crate::codec::corrupt_at;
        use crate::frame::encode_frame;
        use fluentps_obs::TraceCollector;
        use std::io::Write;

        let collector = TraceCollector::wall(64);
        let book = AddressBook::new();
        let (here, peer) = (NodeId::Server(2), NodeId::Worker(7));
        let (tracer, quiet) = (collector.tracer(), Profiler::disabled());
        let server = TcpNode::bind_profiled(here, loopback(), book.clone(), tracer, quiet).unwrap();
        book.insert(here, server.local_addr());
        let received = || {
            let got = server.recv_timeout(Duration::from_secs(10)).unwrap();
            got.expect("frame within the timeout").1
        };
        let lost = || {
            let trace = collector.snapshot();
            let lost = trace.events.into_iter();
            lost.filter(|ev| ev.kind == EventKind::ConnectionLost)
                .map(|ev| (ev.shard, ev.worker))
                .collect::<Vec<_>>()
        };
        let await_lost = |n: usize| {
            let begun = Instant::now();
            while lost().len() < n {
                assert!(begun.elapsed() < Duration::from_secs(10), "{:?}", lost());
                std::thread::yield_now();
            }
        };
        let frame = encode_frame(peer, &Message::Shutdown);

        // A whole frame, then the end of the stream: nothing was lost.
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&frame).unwrap();
        drop(raw);
        assert_eq!(received(), Message::Shutdown);

        // The stream ends one byte short of its second frame.
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&frame).unwrap();
        raw.write_all(&frame[..frame.len() - 1]).unwrap();
        drop(raw);
        assert_eq!(received(), Message::Shutdown);
        await_lost(1);

        // A corrupted tag on a real node's connection.
        let worker = TcpNode::bind(peer, loopback(), book).unwrap();
        worker.postman().send(here, Message::Shutdown).unwrap();
        assert_eq!(received(), Message::Shutdown);
        let corrupt = corrupt_at(&frame, 10, 0xEE);
        let mut conns = worker.shared.conns.lock();
        let conn = conns.get_mut(&here).expect("dialed by the send above");
        conn.stream.write_all(&corrupt).unwrap();
        drop(conns);
        await_lost(2);
        // The reader dropped the socket with the event: the peer's writes
        // start to fail, its postman redials, and what it sends arrives.
        let begun = Instant::now();
        let beat = Message::Heartbeat { node: peer, seq: 1 };
        loop {
            let _ = worker.postman().send(here, beat.clone());
            if let Ok(Some((_, got))) = server.recv_timeout(Duration::from_millis(50)) {
                assert_eq!(got, beat);
                break;
            }
            assert!(begun.elapsed() < Duration::from_secs(10), "never redialed");
        }
        // One event per broken connection, naming both ends; none for the
        // clean close (its reader had the whole test to say otherwise).
        assert_eq!(lost(), [(2, 7), (2, 7)]);
    }

    #[test]
    fn send_to_unlisted_node_fails() {
        let book = AddressBook::new();
        let node = TcpNode::bind(NodeId::Worker(0), loopback(), book).unwrap();
        let err = node.postman().send(NodeId::Server(3), Message::Shutdown);
        assert!(matches!(err, Err(TransportError::UnknownNode(_))));
    }

    #[test]
    fn many_messages_preserve_order() {
        let book = AddressBook::new();
        let server = TcpNode::bind(NodeId::Server(0), loopback(), book.clone()).unwrap();
        book.insert(NodeId::Server(0), server.local_addr());
        let worker = TcpNode::bind(NodeId::Worker(0), loopback(), book).unwrap();
        let p = worker.postman();
        for seq in 0..500u64 {
            p.send(
                NodeId::Server(0),
                Message::Heartbeat {
                    node: NodeId::Worker(0),
                    seq,
                },
            )
            .unwrap();
        }
        for seq in 0..500u64 {
            let (_, msg) = server
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("heartbeat");
            match msg {
                Message::Heartbeat { seq: s, .. } => assert_eq!(s, seq),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
