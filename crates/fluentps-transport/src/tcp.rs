//! TCP transport over `std::net`.
//!
//! A node dials a peer the first time it sends to it, and every accepted
//! stream gets a reader thread that decodes its frames and hands each to
//! whoever consumes the node's input: the inbox behind [`Mailbox::recv`], or
//! — while a [`Mailbox::serve`] call is in progress — that call's step, run
//! by the reader itself under the node's lock, so a request is answered on
//! the thread that read it. Delivery is reliable and per-sender FIFO: one
//! thread reads one connection.
//!
//! Which way a connection carries frames depends on how its far end answers:
//!
//! * [`Postman::send`] and [`Postman::send_batch`] write to the connection
//!   this node *dialed* to the destination (the address book tells everyone
//!   where everyone listens). A peer that answers the same way dials back and
//!   its answer arrives through this node's listener: two one-way
//!   connections, a reader thread at the accepting end of each. Heartbeats,
//!   consensus, recovery control and every node nobody serves talk like
//!   this.
//! * [`Postman::reply_batch`] — how a served node's step answers — writes to
//!   the connection the destination last *reached this node through*: a
//!   reader registers its accepted stream's write half under the sender of
//!   the first frame it decodes. Such a connection carries frames both ways,
//!   and no thread is parked on its dialing end: the node that dialed reads
//!   it itself, while it waits for the answer ([`Mailbox::recv_from`]). A
//!   worker ↔ server round trip is `worker write → server reader (runs the
//!   step, writes the reply) → worker read` over one socket. A destination
//!   that never connected here is dialed, as for `send_batch`.
//!
//! What the always-draining reader threads gave a dialing node for free, and
//! what stands in for it now that it reads for itself: a wait that is
//! bounded bounds the connection's writes too (`ReadHalf::set_bound`), a
//! connection written to [`UNREAD_BATCHES`] times in a row without being
//! read is emptied before the next write (`ReadHalf::drain`), and dropping
//! the node closes both halves (DESIGN.md §18).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fluentps_obs::{EventKind, RecordArgs, Tracer, NO_ID};
use fluentps_util::buf::BytesMut;
use fluentps_util::sync::{take_shortest_slice, Mutex};
use fluentps_util::sync::{unbounded, Receiver, RecvTimeoutError, TryRecvError};

use crate::error::TransportError;
use crate::frame::{holds_frame, wire_len, write_frames, FrameReader, READ_BUFFER, UNREAD_BATCHES};
use crate::msg::{Message, NodeId};
use crate::served::{self, Envelope, Served};
use crate::{per_destination, Mailbox, Network, Postman, Step};

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

/// Loopback TCP: binding a node listens on an OS-chosen loopback port and
/// publishes it in this book, through which the node also dials. A node
/// bound again under the same id is the one its peers redial once their
/// connection to the old one breaks.
impl Network for AddressBook {
    const NAME: &'static str = "tcp";
    type Postman = TcpPostman;
    type Mailbox = TcpNode;
    type Bare = Self;

    fn bind(&self, node: NodeId) -> Result<(TcpPostman, TcpNode), TransportError> {
        let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
        let bound = TcpNode::bind(node, loopback, self.clone())?;
        self.insert(node, bound.local_addr());
        Ok((bound.postman(), bound))
    }

    fn bare(&self) -> &Self {
        self
    }
}

impl std::fmt::Debug for AddressBook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.addrs.read().iter()).finish()
    }
}

/// How long the connections of a node that was shut down stay open, all
/// told, for the peers it dialed to read what it sent them and close
/// ([`close_in_order`]). A peer that is a [`TcpNode`] takes a round trip;
/// only a wedged one takes this.
const LINGER: Duration = Duration::from_secs(1);

/// How long a `Shutdown` waits for a worker that is still connected to
/// send nothing more before it is handed on ([`Shared::drain_workers`]).
const QUIET: Duration = Duration::from_millis(50);

/// One scheduler tick of a kernel at 250 Hz. The socket counts its
/// timeouts in ticks, so a bound kept armed up to this much longer than a
/// wait asked for ends it at most about a tick later than the exact one
/// would ([`ReadHalf::set_bound`]).
const TICK: Duration = Duration::from_millis(4);

/// The write half of one connection: the socket plus a reusable scratch
/// buffer that frame *heads* (and whole payload-free frames) are encoded
/// into before one gathered write hands them to the kernel together with the
/// value payloads, which are written from where the messages hold them. The
/// buffer grows to the largest run of heads written and stays there — about
/// a kilobyte per tensor-sized frame — and because a whole batch reaches the
/// socket in one write there is no per-message flush (DESIGN.md § wire path).
struct Conn {
    stream: TcpStream,
    buf: BytesMut,
    /// Tells this connection from an earlier or later one with the same
    /// peer, so that whoever finds an old one dead leaves its successor be.
    id: u64,
}

impl Conn {
    /// Write the frames of `msgs` to `to` in one gathered write and trace
    /// each as sent.
    fn write(&mut self, shared: &Shared, to: NodeId, msgs: &[&Message]) -> std::io::Result<()> {
        let (from, frames) = (shared.node, msgs.iter().copied());
        write_frames(&mut self.stream, from, frames, &mut self.buf)?;
        for msg in msgs {
            shared.trace_frame(EventKind::WireSend, to, msg);
        }
        Ok(())
    }
}

/// How a connection ended under the thread reading it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    /// Closed by the peer at a frame boundary: nothing was lost.
    Clean,
    /// A corrupt frame, an impossible length, or an end or a timeout in the
    /// middle of a frame: every later frame of the connection is lost with
    /// it.
    Broken,
}

/// The read half of a connection this node dialed, read by whoever waits for
/// the peer's answer ([`Mailbox::recv_from`]) instead of by a thread of its
/// own.
struct ReadHalf {
    reader: BufReader<TcpStream>,
    /// The longest the socket lets a read or a write block, as last set.
    bound: Option<Duration>,
}

impl ReadHalf {
    fn new(stream: TcpStream) -> Self {
        ReadHalf {
            reader: BufReader::with_capacity(READ_BUFFER, stream),
            bound: None,
        }
    }

    /// Let neither a read nor a write of this connection block much longer
    /// than `bound`. A node that reads for itself does not read while it
    /// writes: if its peer is blocked writing to it meanwhile, both wait on
    /// each other, and the write timeout is what ends that. The bound armed
    /// already is kept while it lies between half of `bound` and `bound`
    /// plus one [`TICK`], so the bounded waits of one worker, each given the
    /// same patience, make no system call: one that fires early is retried
    /// for what is left ([`ReadHalf::next`]), and the lower limit keeps a
    /// near-expired bound from making a later, longer wait spin.
    fn set_bound(&mut self, bound: Option<Duration>) -> std::io::Result<()> {
        // The socket takes no zero timeout.
        let bound = bound.map(|bound| bound.max(Duration::from_micros(1)));
        let keep = match (self.bound, bound) {
            (Some(armed), Some(bound)) => bound / 2 <= armed && armed <= bound + TICK,
            (armed, bound) => armed == bound,
        };
        if !keep {
            let stream = self.reader.get_ref();
            stream.set_read_timeout(bound)?;
            stream.set_write_timeout(bound)?;
            self.bound = bound;
        }
        Ok(())
    }

    /// Whether the buffer holds the beginning of a frame, after waiting for
    /// one as long as the socket allows: its read timeout, or not at all
    /// while it is non-blocking.
    fn fill(&mut self) -> Result<bool, End> {
        loop {
            match self.reader.fill_buf() {
                Ok([]) => return Err(End::Clean),
                Ok(_) => return Ok(true),
                Err(e) => match e.kind() {
                    ErrorKind::Interrupted => {}
                    ErrorKind::WouldBlock | ErrorKind::TimedOut => return Ok(false),
                    _ => return Err(End::Broken),
                },
            }
        }
    }

    /// Decode the frame the buffer holds the beginning of, reading the rest
    /// of it, and trace it as received.
    fn frame(&mut self, shared: &Shared) -> Result<Envelope, End> {
        match FrameReader::new().read_next(&mut self.reader) {
            Ok(Some((from, msg))) => {
                shared.trace_frame(EventKind::WireRecv, from, &msg);
                Ok((from, msg))
            }
            Ok(None) => Err(End::Clean),
            Err(_) => Err(End::Broken),
        }
    }

    /// The next frame, waiting until `deadline` (for ever without one) for
    /// it to begin; `Ok(None)` when none did. The socket counts its read
    /// timeout in scheduler ticks and can give up to a tick early, so a
    /// read that times out before the deadline is tried again for what is
    /// left.
    fn next(
        &mut self,
        deadline: Option<Instant>,
        shared: &Shared,
    ) -> Result<Option<Envelope>, End> {
        loop {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            self.set_bound(left).map_err(|_| End::Broken)?;
            if self.fill()? {
                return self.frame(shared).map(Some);
            }
            if left.is_some_and(|left| left.is_zero()) {
                return Ok(None);
            }
        }
    }

    /// Move every frame that has arrived to the inbox, without waiting for
    /// one to begin. (To the inbox even on a served node: the caller is
    /// about to write, possibly from inside the step.)
    fn drain(&mut self, shared: &Shared) -> Result<(), End> {
        loop {
            if self.reader.buffer().is_empty() {
                let nonblocking = |half: &Self, on: bool| {
                    let set = half.reader.get_ref().set_nonblocking(on);
                    set.map_err(|_| End::Broken)
                };
                nonblocking(self, true)?;
                let arrived = self.fill();
                nonblocking(self, false)?;
                if !arrived? {
                    return Ok(());
                }
            }
            let frame = self.frame(shared)?;
            shared.served.park(frame);
        }
    }
}

/// One connection this node dialed.
struct Dialed {
    conn: Conn,
    /// The read half, unless a [`Mailbox::recv_from`] has it out.
    reader: Option<ReadHalf>,
    /// Batches written since the connection was last read.
    unread: u32,
}

impl Dialed {
    /// Connect to `addr`: connection `id`, both halves.
    fn dial(addr: SocketAddr, id: u64) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = Some(ReadHalf::new(stream.try_clone()?));
        let buf = BytesMut::new();
        Ok(Dialed {
            conn: Conn { stream, buf, id },
            reader,
            unread: 0,
        })
    }

    /// [`Conn::write`], after a look at a connection nobody has read for
    /// [`UNREAD_BATCHES`] writes: replies nobody waits for (`PushAck`s to a
    /// worker that only pushes) must not pile up until the peer blocks
    /// writing them.
    fn write(
        &mut self,
        shared: &Shared,
        to: NodeId,
        msgs: &[&Message],
    ) -> Result<(), TransportError> {
        if self.unread >= UNREAD_BATCHES {
            self.look(shared, to)?;
        }
        self.unread += 1;
        Ok(self.conn.write(shared, to, msgs)?)
    }

    /// Move what `peer` has answered on this connection meanwhile to the
    /// inbox, without waiting ([`ReadHalf::drain`]); an error when that
    /// found the connection over. Nothing to do while a
    /// [`Mailbox::recv_from`] has the read half out: it is being read.
    fn look(&mut self, shared: &Shared, peer: NodeId) -> Result<(), TransportError> {
        self.unread = 0;
        if let Some(Err(end)) = self.reader.as_mut().map(|half| half.drain(shared)) {
            shared.trace_end(peer, end);
            return Err(TransportError::Disconnected);
        }
        Ok(())
    }
}

/// Close connections a node dialed the orderly way round: no more writes
/// now, and then — on a thread of its own, so that shutting a node down
/// waits for nobody — read and drop what each peer still answers until it
/// has read everything, seen the end and closed its side, or [`LINGER`] has
/// passed. Closing a socket that holds unread replies, or that a reply
/// reaches later, resets the connection instead, and a reset discards what
/// the peer has not read yet: the last pushes of a worker that does not wait
/// for their acks.
fn close_in_order(dialed: impl IntoIterator<Item = Dialed>, shared: &Arc<Shared>) {
    let no_more_writes = |mut dialed: Dialed| {
        let half = dialed.reader.take()?;
        dialed.conn.stream.shutdown(Shutdown::Write).ok()?;
        Some(half)
    };
    let halves: Vec<ReadHalf> = dialed.into_iter().filter_map(no_more_writes).collect();
    if halves.is_empty() {
        return;
    }
    let closer = std::thread::Builder::new().name(format!("tcp-closer-{}", shared.node));
    let shared = Arc::clone(shared);
    let read_out = move || {
        let deadline = Instant::now() + LINGER;
        for mut half in halves {
            while Instant::now() < deadline
                && matches!(half.next(Some(deadline), &shared), Ok(Some(_)))
            {}
        }
    };
    // Not spawned: dropped with the sockets, closed as abruptly as before.
    let _ = closer.spawn(read_out);
}

/// Every connection a node writes to, behind its one send lock.
#[derive(Default)]
struct Links {
    /// Connections this node dialed, by peer.
    dialed: HashMap<NodeId, Dialed>,
    /// Write halves of accepted connections, by the peer that last reached
    /// this node through one: where [`Postman::reply_batch`] answers it.
    routes: HashMap<NodeId, Conn>,
    /// Write halves of accepted connections a newer one from the same peer
    /// replaced as its route, by id, while they are open: a reply to a
    /// message that came in on one still goes back on it.
    superseded: HashMap<u64, Conn>,
    last_id: u64,
}

impl Links {
    fn next_id(&mut self) -> u64 {
        self.last_id += 1;
        self.last_id
    }

    /// The accepted connection a reply to `to` goes over: the one the
    /// message the step is handling came in on, when `to` sent it
    /// ([`served::handling`]), else the one `to` last reached this node
    /// through.
    fn route(&mut self, to: NodeId) -> Option<&mut Conn> {
        let via = served::handling().and_then(|(from, id)| (from == to).then_some(id));
        match via.filter(|id| self.superseded.contains_key(id)) {
            Some(id) => self.superseded.get_mut(&id),
            None => self.routes.get_mut(&to),
        }
    }

    /// The accepted connection `id` from `peer` is over.
    fn drop_route(&mut self, peer: NodeId, id: u64) {
        if self.routes.get(&peer).is_some_and(|route| route.id == id) {
            self.routes.remove(&peer);
        }
        self.superseded.remove(&id);
    }
}

/// The accepted connections a worker's pushes may come in on, as a
/// `Shutdown` waits for them ([`Shared::drain_workers`]): every connection
/// from its accept until its first frame names a sender that is not a
/// worker, or until it ends.
#[derive(Default)]
struct WorkerInputs {
    /// Such connections still open.
    open: AtomicU32,
    /// Frames read off them and handed on, so far.
    delivered: AtomicU64,
    /// Their readers that hold frames read and not yet handed on: a frame
    /// is being handed on, or more are buffered behind it.
    busy: AtomicU32,
}

struct Shared {
    node: NodeId,
    book: AddressBook,
    links: Mutex<Links>,
    /// Who consumes what the reader threads decode: the inbox, or the step
    /// of the [`Mailbox::serve`] call in progress, run by the reader.
    served: Served,
    closed: AtomicBool,
    workers: WorkerInputs,
    tracer: Tracer,
}

impl Shared {
    /// Hold a `Shutdown` back until what the workers wrote before it has
    /// been handed on too. Each connection has a reader thread of its own,
    /// so nothing orders a worker's pushes against a `Shutdown` that came in
    /// over another connection. Returns once every other connection that is
    /// or may be a worker's has ended — a worker dropped before the shutdown
    /// has closed its connections, and a reader ends only after handing on
    /// the last frame before the close — or once [`QUIET`] passed in which
    /// none of them handed on a frame or held one (a worker still connected
    /// but idle), and after [`LINGER`] at the latest, so that a client still
    /// alive cannot hold a shutdown up. `own` says whether the `Shutdown`
    /// came in over one of these connections itself.
    fn drain_workers(&self, own: bool) {
        let workers = &self.workers;
        let begun = Instant::now();
        let (mut seen, mut quiet_since) = (workers.delivered.load(Ordering::SeqCst), begun);
        while workers.open.load(Ordering::SeqCst) > u32::from(own) && begun.elapsed() < LINGER {
            let delivered = workers.delivered.load(Ordering::SeqCst);
            if delivered != seen || workers.busy.load(Ordering::SeqCst) > 0 {
                (seen, quiet_since) = (delivered, Instant::now());
            } else if quiet_since.elapsed() >= QUIET {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Hand one decoded frame to whoever consumes this node's input; `dry`
    /// says the connection it came from holds nothing further that is ready.
    /// A served node's step runs right here, on the reader's thread, and
    /// writes its replies before it lets go of the step — which is what
    /// keeps them in handle order per destination. False once the node is
    /// gone.
    fn deliver(&self, from: NodeId, msg: Message, dry: bool) -> bool {
        self.served.deliver(std::iter::once((from, msg)), dry)
    }

    /// Record a node-level event about the connection with `peer`.
    fn trace(&self, kind: EventKind, peer: NodeId, bytes: u64) {
        let (shard, worker) = trace_ids(self.node, peer);
        let args = RecordArgs::new().shard(shard).worker(worker);
        self.tracer.record(kind, args.bytes(bytes));
    }

    /// Record `msg` as written to or read from `peer`, with its exact
    /// on-the-wire size.
    fn trace_frame(&self, kind: EventKind, peer: NodeId, msg: &Message) {
        if self.tracer.is_enabled() {
            self.trace(kind, peer, wire_len(msg) as u64);
        }
    }

    /// Record how the connection with `peer` ended: one `ConnectionLost`
    /// naming both ends if frames may have been lost with it, nothing for a
    /// clean close.
    fn trace_end(&self, peer: NodeId, end: End) {
        if end == End::Broken {
            self.trace(EventKind::ConnectionLost, peer, 0);
        }
    }

    /// Register `stream`, the accepted connection `peer`'s first frame just
    /// arrived on, as the way replies to `peer` go from now on — in place of
    /// an older connection from the same peer, which still answers what
    /// came in on it. Returns the route's id.
    fn add_route(&self, peer: NodeId, stream: &TcpStream) -> u64 {
        let mut links = self.links.lock();
        let id = links.next_id();
        // Checked under the lock `shutdown` clears the routes under.
        if !self.closed.load(Ordering::SeqCst) {
            if let Ok(stream) = stream.try_clone() {
                let buf = BytesMut::new();
                if let Some(old) = links.routes.insert(peer, Conn { stream, buf, id }) {
                    links.superseded.insert(old.id, old);
                }
            }
        }
        id
    }

    /// The connection behind route `id` to `peer` is over. A newer
    /// connection's route stays.
    fn remove_route(&self, peer: NodeId, id: u64) {
        self.links.lock().drop_route(peer, id);
    }

    /// Take the read half of the connection dialed to `peer` out for one
    /// wait, with the connection's id. While it is out nothing else reads
    /// the connection, and no lock is held that a send needs.
    fn take_reader(&self, peer: NodeId) -> Option<(u64, ReadHalf)> {
        let mut links = self.links.lock();
        let dialed = links.dialed.get_mut(&peer)?;
        Some((dialed.conn.id, dialed.reader.take()?))
    }

    /// Put the read half of connection `id` to `peer` back, unless a failed
    /// write dropped the connection meanwhile (`half` then closes with it).
    fn return_reader(&self, peer: NodeId, id: u64, half: ReadHalf) {
        let mut links = self.links.lock();
        if let Some(dialed) = links.dialed.get_mut(&peer).filter(|d| d.conn.id == id) {
            dialed.reader = Some(half);
            dialed.unread = 0;
        }
    }

    /// Look at every connection this node dialed ([`Dialed::look`]), and
    /// drop those found over.
    fn look_around(&self) {
        let mut links = self.links.lock();
        links
            .dialed
            .retain(|peer, dialed| dialed.look(self, *peer).is_ok());
    }

    /// Connection `id` to `peer` ended under its reader: drop its write half
    /// too, so that the next send redials.
    fn drop_dialed(&self, peer: NodeId, id: u64, end: End) {
        let mut links = self.links.lock();
        if links.dialed.get(&peer).is_some_and(|d| d.conn.id == id) {
            links.dialed.remove(&peer);
        }
        drop(links);
        self.trace_end(peer, end);
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

/// A TCP endpoint: listener plus the connections it dialed and accepted.
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
        Self::bind_with_tracer(node, addr, book, Tracer::disabled())
    }

    /// [`TcpNode::bind`] with frame-level tracing: every frame written by
    /// this node's postmen records a `wire_send` event and every frame it
    /// decodes — off an accepted stream or, waiting in
    /// [`Mailbox::recv_from`], off one it dialed — a `wire_recv`, both
    /// carrying the exact on-the-wire byte count, and a connection that
    /// breaks a `connection_lost`. Only tests enable it: every node a
    /// cluster binds ([`AddressBook`]'s [`Network::bind`], the trace
    /// streamer's) goes through [`TcpNode::bind`], so a running cluster's
    /// wire events are the ones its server step and worker clients record.
    pub fn bind_with_tracer(
        node: NodeId,
        addr: SocketAddr,
        book: AddressBook,
        tracer: Tracer,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (inbox_tx, inbox_rx) = unbounded();
        let shared = Arc::new(Shared {
            node,
            book,
            links: Mutex::default(),
            served: Served::new(node, inbox_tx),
            closed: AtomicBool::new(false),
            workers: WorkerInputs::default(),
            tracer,
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

    /// Stop accepting and sending, and close every connection this node
    /// dialed, both halves and in order ([`close_in_order`]): the reader at
    /// the far end reads what was sent, sees a clean close and exits. A
    /// reader thread of this node exits when its peer closes or, once the
    /// node is dropped, at the next frame it reads — closing the socket, so
    /// the peer's following write fails.
    pub fn shutdown(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        let links = std::mem::take(&mut *self.shared.links.lock());
        close_in_order(links.dialed.into_values(), &self.shared);
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
        // Counted before its reader runs: a worker may be behind it.
        shared.workers.open.fetch_add(1, Ordering::SeqCst);
        spawn_reader(stream, Arc::clone(&shared));
    }
}

/// A reader runs a served node's step and writes its reply, so it takes the
/// kernel's shortest scheduler slice first: woken by a request, it preempts
/// a computing worker instead of queueing behind the rest of that worker's
/// slice, with its share of the CPU unchanged (DESIGN.md §18).
fn spawn_reader(stream: TcpStream, shared: Arc<Shared>) {
    std::thread::Builder::new()
        .name(format!("tcp-reader-{}", shared.node))
        .spawn(move || {
            take_shortest_slice();
            read_frames(stream, &shared)
        })
        .expect("spawn reader thread");
}

/// The life of one accepted connection: read frames until the peer closes,
/// the stream breaks or the node is gone, then drop the socket — so a peer
/// still writing finds out and redials. Each frame lands in a buffer of its
/// own, which the decoded message shares: a value is not copied again on
/// this side. From its first frame on the connection is also where replies
/// to its sender go ([`Shared::add_route`]). A `Shutdown` for a served node
/// is handed on only once the workers' connections are drained
/// ([`Shared::drain_workers`]); to an inbox it is a message like any other.
fn read_frames(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::with_capacity(READ_BUFFER, stream);
    let mut frames = FrameReader::new();
    let mut route = None;
    // Counted among the workers' inputs by `accept_loop` until the first
    // frame names another sender.
    let mut worker = true;
    let workers = &shared.workers;
    let mut busy = false;
    let mut set_busy = |now: bool| {
        if busy != now {
            busy = now;
            match now {
                true => workers.busy.fetch_add(1, Ordering::SeqCst),
                false => workers.busy.fetch_sub(1, Ordering::SeqCst),
            };
        }
    };
    let end = loop {
        match frames.read_next(&mut reader) {
            Ok(Some((from, msg))) => {
                // Before the frame is handled: its answer takes the route.
                route.get_or_insert_with(|| {
                    worker = matches!(from, NodeId::Worker(_));
                    if !worker {
                        workers.open.fetch_sub(1, Ordering::SeqCst);
                    }
                    let id = shared.add_route(from, reader.get_ref());
                    served::reading(id);
                    (from, id)
                });
                shared.trace_frame(EventKind::WireRecv, from, &msg);
                // Nothing further is ready when the buffer does not hold
                // the whole next frame: the next read would block (or at
                // least go to the kernel), so the step is told to send
                // what it has queued. A partial frame holds nothing back.
                let dry = !holds_frame(reader.buffer());
                if matches!(msg.bare(), Message::Shutdown) && shared.served.serving() {
                    shared.drain_workers(worker);
                }
                set_busy(worker);
                let delivered = shared.deliver(from, msg, dry);
                if worker {
                    workers.delivered.fetch_add(1, Ordering::SeqCst);
                    // Idle once the next frame has to come from the kernel.
                    set_busy(!reader.buffer().is_empty());
                }
                if !delivered {
                    break End::Clean;
                }
            }
            Ok(None) => break End::Clean,
            Err(_) => break End::Broken,
        }
    };
    set_busy(false);
    if worker {
        workers.open.fetch_sub(1, Ordering::SeqCst);
    }
    let peer = route.map(|(peer, id)| {
        shared.remove_route(peer, id);
        peer
    });
    shared.trace_end(peer.unwrap_or(shared.node), end);
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

    /// What the inbox holds first; then one frame off the connection this
    /// node dialed to `peer`, read and decoded right here — a served peer
    /// answers on it ([`Postman::reply_batch`]). `timeout` bounds the wait
    /// for a frame to *begin* (and, from then on, every write to `peer`: see
    /// `ReadHalf::set_bound`). A connection that closes, breaks, or times
    /// out inside a frame is dropped, both halves, and so is the wait on
    /// it: the rest of `timeout` is spent on the inbox, which is where a
    /// peer that has to dial back delivers — as is all of it when there is
    /// no connection to `peer`. When `timeout` has passed, what other peers
    /// answered meanwhile, on connections nobody was reading, is moved to
    /// the inbox and the first of it returned: a caller told `None` has
    /// heard from nobody.
    fn recv_from(
        &self,
        peer: NodeId,
        timeout: Option<Duration>,
    ) -> Result<Option<(NodeId, Message)>, TransportError> {
        if let Some(queued) = self.try_recv()? {
            return Ok(Some(queued));
        }
        let shared = &*self.shared;
        let deadline = timeout.map(|timeout| Instant::now() + timeout);
        let on_inbox = || match deadline {
            Some(deadline) => self.recv_timeout(deadline.saturating_duration_since(Instant::now())),
            None => self.recv().map(Some),
        };
        let received = match shared.take_reader(peer) {
            Some((id, mut half)) => match half.next(deadline, shared) {
                Ok(frame) => {
                    shared.return_reader(peer, id, half);
                    frame
                }
                Err(end) => {
                    shared.drop_dialed(peer, id, end);
                    on_inbox()?
                }
            },
            None => on_inbox()?,
        };
        if received.is_some() {
            return Ok(received);
        }
        shared.look_around();
        self.try_recv()
    }

    /// Install `step` for the connections' reader threads to run
    /// ([`Shared::deliver`]) and wait here until it says
    /// [`Flow::Stop`](crate::Flow::Stop). This thread runs the step only
    /// twice over: first for what the inbox already holds — under the lock
    /// readers park frames under, so nothing a reader decodes meanwhile
    /// overtakes it — and, with `wake` set, for
    /// [`Input::Tick`](crate::Input::Tick) whenever a whole interval passed
    /// without a message. Frames that arrive after the stop queue in the
    /// inbox again, unhandled.
    fn serve<S: Step>(&self, wake: Option<Duration>, step: S) -> S {
        self.shared.served.install(wake, step, &self.inbox_rx)
    }
}

/// Sending handle of a [`TcpNode`].
#[derive(Clone)]
pub struct TcpPostman {
    shared: Arc<Shared>,
}

impl TcpPostman {
    /// Write the frames of `msgs` over the connection dialed to `to`
    /// (dialing first if needed). On error the connection is dropped, both
    /// halves, so a later send can redial.
    fn write_to(
        &self,
        links: &mut Links,
        to: NodeId,
        msgs: &[&Message],
    ) -> Result<(), TransportError> {
        let shared = &*self.shared;
        if !links.dialed.contains_key(&to) {
            let addr = shared.book.get(to).ok_or(TransportError::UnknownNode(to))?;
            let dialed = Dialed::dial(addr, links.next_id())?;
            links.dialed.insert(to, dialed);
        }
        let dialed = links.dialed.get_mut(&to).expect("just inserted");
        let written = dialed.write(shared, to, msgs);
        if written.is_err() {
            links.dialed.remove(&to);
        }
        written
    }

    /// The frames for one destination go out in a *single* gathered write —
    /// heads from that connection's scratch buffer, value payloads from the
    /// messages — one flush per destination instead of one per message.
    /// Per-destination FIFO order is preserved; destinations are written in
    /// order of first appearance, and a failure on one does not stop the
    /// others (the first error is returned after every destination is
    /// attempted). With `replies` set a destination that reached this node
    /// over a connection of its own is written over that one
    /// ([`Links::route`]); a route whose socket died fails its batch and is
    /// dropped, so the next reply dials.
    fn write_batch(
        &self,
        batch: &[(NodeId, Message)],
        replies: bool,
    ) -> Result<(), TransportError> {
        let shared = &*self.shared;
        if shared.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Disconnected);
        }
        let links = &mut *shared.links.lock();
        let mut first_err = None;
        for (to, msgs) in per_destination(batch.iter().map(|(to, msg)| (*to, msg))) {
            let route = if replies { links.route(to) } else { None };
            let written = match route {
                Some(route) => {
                    let (written, id) = (route.write(shared, to, &msgs), route.id);
                    if written.is_err() {
                        links.drop_route(to, id);
                    }
                    written.map_err(TransportError::from)
                }
                None => self.write_to(links, to, &msgs),
            };
            if let Err(e) = written {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Postman for TcpPostman {
    fn send(&self, to: NodeId, msg: Message) -> Result<(), TransportError> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(TransportError::Disconnected);
        }
        self.write_to(&mut self.shared.links.lock(), to, &[&msg])
    }

    /// Coalesced send over the connections this node dials
    /// ([`TcpPostman::write_batch`]).
    fn send_batch(&self, batch: Vec<(NodeId, Message)>) -> Result<(), TransportError> {
        self.write_batch(&batch, false)
    }

    /// Coalesced send, each destination over the connection it last reached
    /// this node through — or, a reply to the message the step is handling,
    /// over the one that came in on; one that never did is dialed.
    fn reply_batch(&self, batch: Vec<(NodeId, Message)>) -> Result<(), TransportError> {
        self.write_batch(&batch, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::KvPairs;
    use crate::{Flow, Input};
    use std::io::{Read, Write};

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

    /// `se.slice` of `/proc/self/task/<tid>/sched`, in ns; `None` once the
    /// thread is gone or on a kernel that does not print it.
    fn slice_of(task: &std::path::Path) -> Option<u64> {
        let sched = std::fs::read_to_string(task.join("sched")).ok()?;
        let line = sched.lines().find(|l| l.starts_with("se.slice "))?;
        line.rsplit(':').next()?.trim().parse().ok()
    }

    #[test]
    fn every_reader_thread_takes_the_shortest_slice() {
        const SHORTEST: u64 = 100_000;
        let granted = std::thread::spawn(|| {
            take_shortest_slice();
            slice_of(std::path::Path::new("/proc/thread-self"))
        })
        .join()
        .unwrap();
        if granted != Some(SHORTEST) {
            eprintln!("skipped: this kernel grants no slice of a thread's own (before Linux 6.12)");
            return;
        }
        let book = AddressBook::new();
        let server = TcpNode::bind(NodeId::Server(0), loopback(), book.clone()).unwrap();
        book.insert(NodeId::Server(0), server.local_addr());
        let worker = TcpNode::bind(NodeId::Worker(0), loopback(), book.clone()).unwrap();
        book.insert(NodeId::Worker(0), worker.local_addr());
        worker
            .postman()
            .send(NodeId::Server(0), Message::Shutdown)
            .unwrap();
        server
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("a frame");
        server
            .postman()
            .send(NodeId::Worker(0), Message::Shutdown)
            .unwrap();
        worker
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("a frame");

        let mut readers = 0;
        for task in std::fs::read_dir("/proc/self/task").unwrap() {
            let task = task.unwrap().path();
            let comm = std::fs::read_to_string(task.join("comm")).unwrap_or_default();
            if !comm.starts_with("tcp-reader-") {
                continue;
            }
            // Another test's reader may be too young to have asked yet.
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut slice = slice_of(&task);
            while slice.is_some_and(|ns| ns != SHORTEST) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
                slice = slice_of(&task);
            }
            match slice {
                Some(ns) => assert_eq!(ns, SHORTEST, "{} has a slice of {ns} ns", comm.trim()),
                None => continue, // exited meanwhile
            }
            readers += 1;
        }
        // At least this test's own two: one at each end.
        assert!(readers >= 2, "{readers} reader threads");
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
            TcpNode::bind_with_tracer(node, loopback(), book, collector.tracer()).unwrap()
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

        let collector = TraceCollector::wall(64);
        let book = AddressBook::new();
        let (here, peer) = (NodeId::Server(2), NodeId::Worker(7));
        let tracer = collector.tracer();
        let server = TcpNode::bind_with_tracer(here, loopback(), book.clone(), tracer).unwrap();
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
        let mut links = worker.shared.links.lock();
        let dialed = links.dialed.get_mut(&here);
        let conn = &mut dialed.expect("dialed by the send above").conn;
        conn.stream.write_all(&corrupt).unwrap();
        drop(links);
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

    // --- replies over the connection the request came in on --------------

    const SERVER: NodeId = NodeId::Server(0);
    const WORKER: NodeId = NodeId::Worker(0);
    const LONG: Duration = Duration::from_secs(10);

    /// `SERVER`, whose own book is empty — it answers over a route or not at
    /// all — and `WORKER`, who can find it; `listed` puts the worker in the
    /// server's book after all.
    fn server_and_worker(listed: bool) -> (TcpNode, TcpNode) {
        let server_book = AddressBook::new();
        let server = TcpNode::bind(SERVER, loopback(), server_book.clone()).unwrap();
        let book = AddressBook::new();
        book.insert(SERVER, server.local_addr());
        let worker = TcpNode::bind(WORKER, loopback(), book).unwrap();
        if listed {
            server_book.insert(WORKER, worker.local_addr());
        }
        (server, worker)
    }

    fn ack(progress: u64) -> Message {
        Message::PushAck {
            server: 0,
            progress,
        }
    }

    /// The id of the route to `WORKER`, once `node` has one.
    fn route_id(node: &TcpNode) -> Option<u64> {
        let links = node.shared.links.lock();
        links.routes.get(&WORKER).map(|route| route.id)
    }

    /// Send `seq` from the worker and receive it at the (un-served) server:
    /// when this returns, the connection it travelled has a route.
    fn reach(worker: &TcpNode, server: &TcpNode, seq: u64) {
        let beat = Message::Heartbeat { node: WORKER, seq };
        worker.postman().send(SERVER, beat.clone()).unwrap();
        let got = server.recv_timeout(LONG).unwrap();
        assert_eq!(got, Some((WORKER, beat)));
    }

    #[test]
    fn a_reply_to_a_peer_that_never_connected_dials_the_book() {
        // The shape of `serve_parity.rs`: someone else asked on the worker's
        // behalf, so there is no connection of the worker's to answer on.
        let (server, worker) = server_and_worker(true);
        let replies = vec![(WORKER, ack(1)), (WORKER, ack(2))];
        server.postman().reply_batch(replies).unwrap();
        for progress in [1, 2] {
            // Through the worker's listener, into its inbox.
            let got = worker.recv_timeout(LONG).unwrap();
            assert_eq!(got, Some((SERVER, ack(progress))));
        }
        let links = server.shared.links.lock();
        assert!(links.routes.is_empty());
        assert!(links.dialed.contains_key(&WORKER));
        // And one nobody listed cannot be answered at all.
        drop(links);
        let (server, _worker) = server_and_worker(false);
        let unknown = server.postman().reply_batch(vec![(WORKER, ack(1))]);
        assert!(matches!(unknown, Err(TransportError::UnknownNode(WORKER))));
    }

    #[test]
    fn a_redial_replaces_the_route_and_the_old_readers_exit_leaves_the_new_one() {
        use fluentps_obs::TraceCollector;
        let collector = TraceCollector::wall(64);
        let book = AddressBook::new();
        let tracer = collector.tracer();
        let server =
            TcpNode::bind_with_tracer(SERVER, loopback(), AddressBook::new(), tracer).unwrap();
        book.insert(SERVER, server.local_addr());
        let worker = TcpNode::bind(WORKER, loopback(), book).unwrap();

        reach(&worker, &server, 1);
        let first = route_id(&server).expect("a route from the first frame on");
        // The worker dials again while its first connection is still open.
        let old = worker.shared.links.lock().dialed.remove(&SERVER);
        let mut old = old.expect("dialed by the send above");
        reach(&worker, &server, 2);
        let second = route_id(&server).expect("still routed");
        assert_ne!(first, second, "the newer connection is the route now");
        // The old connection ends badly — so that its reader says when it
        // is done — and takes only its own route with it, which is gone.
        let frame = crate::frame::encode_frame(WORKER, &Message::Shutdown);
        old.conn
            .stream
            .write_all(&frame[..frame.len() - 1])
            .unwrap();
        drop(old);
        let begun = Instant::now();
        while collector.totals().0[EventKind::ConnectionLost as usize] == 0 {
            assert!(begun.elapsed() < LONG, "the old reader never ended");
            std::thread::yield_now();
        }
        assert_eq!(route_id(&server), Some(second));
        // The reply takes the new connection: the server could not dial.
        server
            .postman()
            .reply_batch(vec![(WORKER, ack(3))])
            .unwrap();
        let got = worker.recv_from(SERVER, Some(LONG)).unwrap();
        assert_eq!(got, Some((SERVER, ack(3))));
        // A clean end of the connection that *is* the route removes it.
        worker.shared.links.lock().dialed.clear();
        let begun = Instant::now();
        while route_id(&server).is_some() {
            assert!(begun.elapsed() < LONG, "the route outlived its connection");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_dead_route_fails_one_batch_and_the_next_reply_dials() {
        let (server, worker) = server_and_worker(true);
        reach(&worker, &server, 1);
        let postman = server.postman();
        postman.reply_batch(vec![(WORKER, ack(1))]).unwrap();
        let got = worker.recv_from(SERVER, Some(LONG)).unwrap();
        assert_eq!(got, Some((SERVER, ack(1))));
        // `send_batch` does not take the route: it dials.
        postman.send_batch(vec![(WORKER, ack(0))]).unwrap();
        let got = worker.recv_timeout(LONG).unwrap();
        assert_eq!(got, Some((SERVER, ack(0))));
        server.shared.links.lock().dialed.clear();
        // The socket dies under the route (its reader, blocked in a read,
        // has not noticed): that batch fails and is not sent another way…
        let links = server.shared.links.lock();
        let route = links.routes.get(&WORKER).expect("routed");
        route.stream.shutdown(std::net::Shutdown::Write).unwrap();
        drop(links);
        let failed = postman.reply_batch(vec![(WORKER, ack(2))]);
        assert!(matches!(failed, Err(TransportError::Io(_))), "{failed:?}");
        assert_eq!(route_id(&server), None, "a dead route is dropped");
        // …and the next one goes through the book, to the worker's inbox.
        postman.reply_batch(vec![(WORKER, ack(3))]).unwrap();
        let got = worker.recv_timeout(LONG).unwrap();
        assert_eq!(got, Some((SERVER, ack(3))));
        assert!(server.shared.links.lock().dialed.contains_key(&WORKER));
    }

    #[test]
    fn a_timeout_inside_a_frame_loses_the_connection_and_a_timeout_between_frames_does_not() {
        use fluentps_obs::TraceCollector;
        // The peer is a bare socket, to write half a frame from.
        let listener = TcpListener::bind(loopback()).unwrap();
        let book = AddressBook::new();
        book.insert(SERVER, listener.local_addr().unwrap());
        let collector = TraceCollector::wall(64);
        let worker =
            TcpNode::bind_with_tracer(WORKER, loopback(), book, collector.tracer()).unwrap();
        let lost = || collector.totals().0[EventKind::ConnectionLost as usize];
        let dialed_id = || {
            let links = worker.shared.links.lock();
            links.dialed.get(&SERVER).map(|d| d.conn.id)
        };
        let patience = Duration::from_millis(30);
        let short = Some(patience);

        let beat = Message::Heartbeat {
            node: WORKER,
            seq: 0,
        };
        worker.postman().send(SERVER, beat.clone()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let first = dialed_id().expect("dialed");
        // Silence is not an error, twice over (the second wait sets no
        // timeout again): the connection stays.
        for _ in 0..2 {
            assert_eq!(worker.recv_from(SERVER, short).unwrap(), None);
        }
        assert_eq!((dialed_id(), lost()), (Some(first), 0));
        // A whole frame, then half of one and nothing more.
        let frame = crate::frame::encode_frame(SERVER, &ack(1));
        peer.write_all(&frame).unwrap();
        peer.write_all(&frame[..frame.len() / 2]).unwrap();
        let got = worker.recv_from(SERVER, short).unwrap();
        assert_eq!(got, Some((SERVER, ack(1))));
        let begun = Instant::now();
        assert_eq!(worker.recv_from(SERVER, short).unwrap(), None);
        assert!(begun.elapsed() >= patience, "gave up early");
        assert_eq!((dialed_id(), lost()), (None, 1), "one event, both halves");
        // The peer sees the end of it, and the next send a new connection.
        let mut rest = Vec::new();
        peer.set_read_timeout(Some(LONG)).unwrap();
        peer.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, crate::frame::encode_frame(WORKER, &beat).to_vec());
        worker.postman().send(SERVER, beat).unwrap();
        let (_again, _) = listener.accept().unwrap();
        assert!(dialed_id().is_some_and(|id| id != first));
        // With no connection to wait on, the wait is on the inbox.
        worker.shared.links.lock().dialed.clear();
        assert_eq!(worker.recv_from(SERVER, short).unwrap(), None);
        assert_eq!(lost(), 1);
    }

    /// Holds the last push's values and answers a pull with them, over the
    /// connection the pull came in on.
    struct Holding(TcpPostman, KvPairs);

    impl Step for Holding {
        fn step(&mut self, input: Input) -> Flow {
            match input {
                Input::Message(_, Message::SPush { kv, .. }) => self.1 = kv,
                Input::Message(from, Message::SPull { progress, .. }) => {
                    let response = Message::PullResponse {
                        server: 0,
                        progress,
                        version: progress + 1,
                        kv: self.1.clone(),
                    };
                    self.0.reply_batch(vec![(from, response)]).unwrap();
                }
                Input::Message(_, Message::Shutdown) => return Flow::Stop,
                _ => {}
            }
            Flow::Continue
        }
    }

    #[test]
    fn a_tensor_sized_reply_round_trips_bit_exactly_through_recv_from() {
        use fluentps_util::alloc::thread_counters;
        let (server, worker) = server_and_worker(false);
        let holding = Holding(server.postman(), KvPairs::default());
        let served = std::thread::spawn(move || drop(server.serve(None, holding)));
        // 1 MiB of values, no two alike, NaN patterns among them.
        let vals: Vec<f32> = (0..1u32 << 18)
            .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
            .collect();
        let push = Message::SPush {
            worker: 0,
            progress: 1,
            kv: KvPairs::single(7, vals.clone()),
        };
        let pull = Message::SPull {
            worker: 0,
            progress: 1,
            keys: vec![7],
        };
        let postman = worker.postman();
        let batch = [push, pull].map(|msg| (SERVER, msg));
        postman.send_batch(batch.into()).unwrap();
        let (_, before) = thread_counters();
        let got = worker.recv_from(SERVER, Some(LONG)).unwrap();
        let (_, after) = thread_counters();
        let Some((SERVER, Message::PullResponse { kv, .. })) = got else {
            panic!("not the response: {got:?}");
        };
        let bits = |vals: &[f32]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&kv.vals.to_vec()), bits(&vals));
        // Copied out of the kernel by this thread, into the one buffer the
        // message keeps.
        let body = 4 * vals.len() as u64;
        assert!(
            (body..body + 4096).contains(&(after - before)),
            "receiving {body} bytes of values allocated {}",
            after - before
        );
        postman.send(SERVER, Message::Shutdown).unwrap();
        served.join().unwrap();
    }

    #[test]
    fn what_the_inbox_holds_comes_before_what_the_connection_holds() {
        let (server, worker) = server_and_worker(false);
        reach(&worker, &server, 1);
        server
            .postman()
            .reply_batch(vec![(WORKER, ack(1))])
            .unwrap();
        // In the inbox for certain: put there the way a reader does.
        let third = NodeId::Worker(1);
        assert!(worker.shared.deliver(third, Message::Shutdown, true));
        let got = worker.recv_from(SERVER, Some(LONG)).unwrap();
        assert_eq!(got, Some((third, Message::Shutdown)));
        let got = worker.recv_from(SERVER, Some(LONG)).unwrap();
        assert_eq!(got, Some((SERVER, ack(1))));
    }

    #[test]
    fn a_wait_that_times_out_on_one_peer_has_heard_what_the_others_answered() {
        // Two servers reached, the lower one silent: waiting for it must not
        // leave the other's answer unread, or a retry would go to both.
        let quiet = TcpNode::bind(SERVER, loopback(), AddressBook::new()).unwrap();
        let other = NodeId::Server(1);
        let answering = TcpNode::bind(other, loopback(), AddressBook::new()).unwrap();
        let book = AddressBook::new();
        book.insert(SERVER, quiet.local_addr());
        book.insert(other, answering.local_addr());
        let worker = TcpNode::bind(WORKER, loopback(), book).unwrap();
        reach(&worker, &quiet, 1);
        let beat = Message::Heartbeat {
            node: WORKER,
            seq: 1,
        };
        worker.postman().send(other, beat).unwrap();
        assert!(answering.recv_timeout(LONG).unwrap().is_some());
        let reply = vec![(WORKER, ack(1))];
        answering.postman().reply_batch(reply).unwrap();

        let patience = Duration::from_millis(30);
        let begun = Instant::now();
        let got = worker.recv_from(SERVER, Some(patience)).unwrap();
        assert_eq!(got, Some((other, ack(1))));
        assert!(
            begun.elapsed() >= patience,
            "the wait was for the quiet one"
        );
        assert_eq!(worker.recv_from(SERVER, Some(patience)).unwrap(), None);
    }

    #[test]
    fn bounded_waits_keep_the_armed_bound_and_a_long_one_after_a_short_one_rearms() {
        let (server, worker) = server_and_worker(false);
        reach(&worker, &server, 1);
        let answers = (0..100).map(|p| (WORKER, ack(p))).collect();
        server.postman().reply_batch(answers).unwrap();
        let armed = || {
            let (id, half) = worker
                .shared
                .take_reader(SERVER)
                .expect("a dialed connection");
            let bound = half.bound;
            worker.shared.return_reader(SERVER, id, half);
            bound
        };
        // The same patience each time: the first wait arms the socket, and
        // the other 99 keep what it armed.
        let (mut arms, mut last) = (0, armed());
        for p in 0..100 {
            let got = worker.recv_from(SERVER, Some(LONG)).unwrap();
            assert_eq!(got, Some((SERVER, ack(p))));
            arms += usize::from(armed() != last);
            last = armed();
        }
        assert!(arms <= 1, "100 bounded waits armed the socket {arms} times");

        // A wait that is all but over arms the smallest bound; a long wait
        // after it must not keep that bound and spin on it.
        let nothing = worker.recv_from(SERVER, Some(Duration::from_micros(1)));
        assert_eq!(nothing.unwrap(), None);
        assert!(armed().is_some_and(|bound| bound < Duration::from_millis(1)));
        let replies = server.postman();
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            replies.reply_batch(vec![(WORKER, ack(100))]).unwrap();
        });
        let got = worker.recv_from(SERVER, Some(LONG)).unwrap();
        assert_eq!(got, Some((SERVER, ack(100))));
        assert!(
            armed().is_some_and(|bound| bound > LONG / 2),
            "the long wait ran on the near-expired bound: {:?}",
            armed()
        );
        late.join().unwrap();
    }

    #[test]
    fn an_unread_connection_is_emptied_before_it_can_fill() {
        let (server, worker) = server_and_worker(false);
        let (postman, replies) = (worker.postman(), server.postman());
        // Every batch is answered and no answer is waited for.
        let rounds = 3 * u64::from(UNREAD_BATCHES);
        for seq in 0..rounds {
            reach(&worker, &server, seq);
            replies.reply_batch(vec![(WORKER, ack(seq))]).unwrap();
        }
        // What was moved to the inbox is there in order, and the rest still
        // comes off the connection behind it.
        let unread = worker.shared.links.lock().dialed[&SERVER].unread;
        assert!(unread <= UNREAD_BATCHES, "{unread} batches unread");
        for seq in 0..rounds {
            let got = worker.recv_from(SERVER, Some(LONG)).unwrap();
            assert_eq!(got, Some((SERVER, ack(seq))));
        }
        // A peer that closed is found out by that look: the write it comes
        // before would still have succeeded.
        let listener = TcpListener::bind(loopback()).unwrap();
        let gone = NodeId::Server(1);
        worker
            .shared
            .book
            .insert(gone, listener.local_addr().unwrap());
        postman.send(gone, Message::Shutdown).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut frame = crate::frame::encode_frame(WORKER, &Message::Shutdown).to_vec();
        peer.read_exact(&mut frame).unwrap();
        drop(peer);
        let mut links = worker.shared.links.lock();
        links.dialed.get_mut(&gone).expect("dialed").unread = UNREAD_BATCHES;
        drop(links);
        let found_out = postman.send(gone, Message::Shutdown);
        assert!(matches!(found_out, Err(TransportError::Disconnected)));
        assert!(!worker.shared.links.lock().dialed.contains_key(&gone));
    }

    #[test]
    fn a_node_shut_down_with_a_reply_unread_still_delivers_what_it_sent() {
        use std::sync::mpsc;
        const PUSHES: u64 = 64;
        let (server, mut worker) = server_and_worker(false);
        let (acked_tx, acked) = mpsc::channel();
        let (resume_tx, resume) = mpsc::channel::<()>();
        let (handled_tx, handled) = mpsc::channel();
        let replies = server.postman();
        // Acks every push, and after the first is busy — not reading —
        // until told.
        let step = move |input| {
            if let Input::Message(from, Message::SPush { progress, .. }) = input {
                if progress == 1 {
                    resume.recv().unwrap();
                }
                let _ = replies.reply_batch(vec![(from, ack(progress))]);
                if progress == 0 {
                    acked_tx.send(()).unwrap();
                }
                handled_tx.send(progress).unwrap();
            }
            Flow::Continue
        };
        std::thread::spawn(move || drop(server.serve(None, step)));
        let push = |progress| Message::SPush {
            worker: 0,
            progress,
            kv: KvPairs::single(1, vec![0.5; 4096]),
        };
        let postman = worker.postman();
        postman.send(SERVER, push(0)).unwrap();
        acked.recv_timeout(LONG).unwrap();
        // A megabyte the server is too busy to read, most of it still in
        // this end's send buffer; the ack sits in its receive buffer.
        for progress in 1..PUSHES {
            postman.send(SERVER, push(progress)).unwrap();
        }
        // Closing the socket now would reset the connection — at once, or
        // when the next ack finds it closed — and discard what has not been
        // sent.
        worker.shutdown();
        resume_tx.send(()).unwrap();
        for progress in 0..PUSHES {
            assert_eq!(handled.recv_timeout(LONG), Ok(progress));
        }
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

    /// Counts pushes, slowly, so that a backlog builds up behind it, and
    /// stops on `Shutdown`.
    struct SlowCount(u64);

    impl Step for SlowCount {
        fn step(&mut self, input: Input) -> Flow {
            match input {
                Input::Message(_, Message::SPush { .. }) => {
                    self.0 += 1;
                    std::thread::sleep(Duration::from_micros(100));
                }
                Input::Message(_, Message::Shutdown) => return Flow::Stop,
                _ => {}
            }
            Flow::Continue
        }
    }

    /// Serve a [`SlowCount`] on a fresh server node: its book, and the
    /// thread that returns the count once the node stops.
    fn slow_server() -> (AddressBook, JoinHandle<u64>) {
        let book = AddressBook::new();
        let server = TcpNode::bind(NodeId::Server(0), loopback(), book.clone()).unwrap();
        book.insert(NodeId::Server(0), server.local_addr());
        (
            book,
            std::thread::spawn(move || server.serve(None, SlowCount(0)).0),
        )
    }

    /// `count` pushes in one write.
    fn pushes(count: u64) -> Vec<(NodeId, Message)> {
        let push = |progress| Message::SPush {
            worker: 0,
            progress,
            kv: KvPairs::single(1, vec![1.0]),
        };
        (0..count).map(|p| (NodeId::Server(0), push(p))).collect()
    }

    #[test]
    fn a_shutdown_waits_for_the_pushes_of_a_worker_that_closed() {
        const PUSHES: u64 = 500;
        let (book, served) = slow_server();
        let worker = TcpNode::bind(NodeId::Worker(0), loopback(), book.clone()).unwrap();
        worker.postman().send_batch(pushes(PUSHES)).unwrap();
        drop(worker);
        // Over a connection of its own, which nothing orders against the
        // worker's: about 50 ms of pushes are still unhandled.
        let control = TcpNode::bind(NodeId::Scheduler, loopback(), book).unwrap();
        control
            .postman()
            .send(NodeId::Server(0), Message::Shutdown)
            .unwrap();
        assert_eq!(served.join().unwrap(), PUSHES);
    }

    #[test]
    fn a_shutdown_waits_for_a_connected_worker_only_until_it_is_quiet() {
        let (book, served) = slow_server();
        let worker = TcpNode::bind(NodeId::Worker(0), loopback(), book.clone()).unwrap();
        worker.postman().send_batch(pushes(100)).unwrap();
        let control = TcpNode::bind(NodeId::Scheduler, loopback(), book).unwrap();
        let begun = Instant::now();
        control
            .postman()
            .send(NodeId::Server(0), Message::Shutdown)
            .unwrap();
        assert!(served.join().unwrap() <= 100);
        assert!(begun.elapsed() < LINGER, "took {:?}", begun.elapsed());
        drop(worker);
    }
}
