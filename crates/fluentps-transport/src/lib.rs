//! Messaging substrate for FluentPS.
//!
//! The paper's implementation is derived from PS-Lite, whose transport is
//! ZeroMQ. This crate provides the equivalent layer from scratch:
//!
//! * [`msg`] — the message vocabulary exchanged between workers, servers and
//!   the scheduler (`sPush`/`sPull` requests carry the sender's *progress*,
//!   which is the load-bearing difference from vanilla PS-Lite: progress is
//!   reported to the servers, not to a centralized scheduler).
//! * [`values`] — parameter values in wire form: little-endian `f32` bytes
//!   behind a shared buffer, the payload of every `KvPairs`.
//! * [`codec`] — a hand-rolled, versioned binary wire codec over
//!   `fluentps_util::buf`.
//! * [`frame`] — length-prefixed framing for stream transports.
//! * [`inproc`] — an in-process fabric built on `fluentps_util::sync` channels, used by
//!   tests, examples and the threaded engine.
//! * [`tcp`] — a real TCP transport over `std::net` so a FluentPS cluster can
//!   run as separate OS processes (see the `tcp_cluster` example).
//! * [`fault`] — a deterministic fault-injection shim over any
//!   [`Mailbox`]/[`Postman`] pair (drop/delay/duplicate/sever), driven by
//!   seeded, content-matched schedules so chaos runs replay bit-for-bit.
//! * [`collect`] — cluster-wide trace collection on that same transport: a
//!   [`CollectorService`], a served [`tcp::TcpNode`] whose step merges every
//!   node's ring-buffered trace events onto one clock-aligned timeline, and
//!   the [`TraceStreamer`] each node runs — a node nobody serves — to ship
//!   its events there (clock-offset handshake + bounded batching +
//!   drop-oldest backpressure).
//!
//! All transports expose the same [`Mailbox`]/[`Postman`] pair so the engine
//! code in `fluentps-core` is transport-agnostic, and each is a [`Network`]
//! that binds a node to its pair — the in-process [`Fabric`], loopback TCP
//! (an [`tcp::AddressBook`]) and either behind the fault shim
//! ([`fault::FaultyNetwork`]) — so one cluster launch runs over any of them.

#![warn(missing_docs)]

pub mod codec;
pub mod collect;
pub mod error;
pub mod fault;
pub mod frame;
pub mod inproc;
pub mod msg;
mod served;
pub mod tcp;
pub mod values;

pub use collect::{CollectorService, StreamerReport, TraceStreamer};
pub use error::TransportError;
pub use fault::{FaultInjector, FaultPlan};
pub use inproc::{Endpoint, Fabric};
pub use msg::{CausalCtx, KvPairs, Message, NodeId, WireLogEntry, WirePlacement, NO_LEADER};
pub use values::{Values, ValuesMut};

use std::any::Any;

/// What a [`Mailbox::serve`] step is called with.
#[derive(Debug)]
pub enum Input {
    /// A message arrived from this node.
    Message(NodeId, Message),
    /// Nothing further is ready where the last message came from, and the
    /// calling thread is about to block: send what is queued.
    Dry,
    /// The `wake` interval passed without a message.
    Tick,
}

/// What a [`Step`] tells the transport that called it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep serving.
    Continue,
    /// The node is done: the step is not called again and
    /// [`Mailbox::serve`] returns it.
    Stop,
}

/// What a served node does with its input: the state a server keeps between
/// messages plus the reaction to each [`Input`]. A closure is a step without
/// state to hand back. Which thread calls it is the transport's business
/// (DESIGN.md §18); calls never overlap.
pub trait Step: Any + Send {
    /// React to one input.
    fn step(&mut self, input: Input) -> Flow;
}

impl<F: FnMut(Input) -> Flow + Send + 'static> Step for F {
    fn step(&mut self, input: Input) -> Flow {
        self(input)
    }
}

/// Receiving half of a transport endpoint.
pub trait Mailbox: Send {
    /// Block until a message arrives; returns the sender and the message.
    fn recv(&self) -> Result<(NodeId, Message), TransportError>;

    /// Non-blocking receive; `Ok(None)` when no message is queued.
    fn try_recv(&self) -> Result<Option<(NodeId, Message)>, TransportError>;

    /// Receive with a timeout; `Ok(None)` when it elapsed with no message.
    fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Option<(NodeId, Message)>, TransportError>;

    /// The next message for this node while the caller waits for `peer` to
    /// answer; `Ok(None)` when `timeout` passed without one (never without
    /// a timeout). What is already queued comes first. After that the
    /// mailbox may wait on `peer`'s connection alone, so a message from
    /// anyone else is seen when that wait returns: at `peer`'s next frame,
    /// at the end of its connection, or when `timeout` passes — `None`
    /// means that nobody had anything, not only that `peer` had not.
    ///
    /// This body waits on everything at once. A transport whose peer
    /// answers on the connection the request went out on
    /// ([`Postman::reply_batch`]) reads that connection here, on the
    /// calling thread ([`tcp::TcpNode`]).
    fn recv_from(
        &self,
        _peer: NodeId,
        timeout: Option<std::time::Duration>,
    ) -> Result<Option<(NodeId, Message)>, TransportError> {
        match timeout {
            Some(timeout) => self.recv_timeout(timeout),
            None => self.recv().map(Some),
        }
    }

    /// Feed everything this mailbox receives to `step`, one input at a
    /// time, until the step says [`Flow::Stop`] or the mailbox closes, and
    /// hand the step back. Per-sender order is kept, messages that arrived
    /// before the call come first, and [`Input::Dry`] always precedes a
    /// wait for more. With `wake` set, [`Input::Tick`] is reported whenever
    /// that long passes without a message.
    ///
    /// Calls never overlap. A `Stop` is final: what arrives afterwards
    /// queues unhandled, as on a node nobody serves. A `Tick` needs a whole
    /// interval in which no message was handled, whichever thread handled
    /// it.
    ///
    /// This body is the receive loop on the calling thread. Both provided
    /// transports override it to run the step where a message arrives: on
    /// the connection's reader thread ([`tcp::TcpNode`]) or on the sending
    /// thread ([`inproc::Endpoint`]); the calling thread only waits, and
    /// runs the step for what the mailbox held when the call began, for
    /// `Tick`, and for messages a step sent while it could not run the
    /// target's step itself.
    fn serve<S: Step>(&self, wake: Option<std::time::Duration>, mut step: S) -> S
    where
        Self: Sized,
    {
        loop {
            let next = match self.try_recv() {
                Ok(None) => {
                    if step.step(Input::Dry) == Flow::Stop {
                        break;
                    }
                    match wake {
                        Some(wake) => self.recv_timeout(wake),
                        None => self.recv().map(Some),
                    }
                }
                ready => ready,
            };
            let input = match next {
                Ok(Some((from, msg))) => Input::Message(from, msg),
                Ok(None) => Input::Tick,
                Err(_) => break,
            };
            if step.step(input) == Flow::Stop {
                break;
            }
        }
        step
    }
}

/// How the nodes of a cluster reach each other: binding a node gives it its
/// sending and receiving halves, and from then on what any node bound on
/// the same network sends to it arrives in that mailbox. Binding an id again
/// replaces the node that had it, which is how a replacement server takes
/// over from a dead one. A clone is another handle on the same nodes, for
/// whichever thread binds a node next.
pub trait Network: Clone + Send + 'static {
    /// What clusters over this network are called: the `engine` label of
    /// their gauges and the stem of their server threads' names.
    const NAME: &'static str;
    /// The sending half of a node bound here.
    type Postman: Postman + 'static;
    /// The receiving half of a node bound here.
    type Mailbox: Mailbox + 'static;
    /// The network beneath every fault shim: this one, unless it wraps
    /// another. A cluster's control plane binds here, where no fault rule
    /// reaches it.
    type Bare: Network;

    /// Bind `node`.
    fn bind(&self, node: NodeId) -> Result<(Self::Postman, Self::Mailbox), TransportError>;

    /// The network beneath every fault shim.
    fn bare(&self) -> &Self::Bare;
}

/// Split `batch` by destination: one `(destination, items)` group per
/// distinct destination, groups in order of first appearance, items in batch
/// order — the shape in which a batch is written (one write per connection)
/// or sent so that a failure names its destination.
pub fn per_destination<K: PartialEq, T>(
    batch: impl IntoIterator<Item = (K, T)>,
) -> Vec<(K, Vec<T>)> {
    let mut groups: Vec<(K, Vec<T>)> = Vec::new();
    for (to, item) in batch {
        match groups.iter_mut().find(|(dest, _)| *dest == to) {
            Some((_, items)) => items.push(item),
            None => groups.push((to, vec![item])),
        }
    }
    groups
}

/// Sending half of a transport endpoint. Cloneable so several threads of one
/// node may send concurrently.
pub trait Postman: Send {
    /// Send `msg` to `to`. Delivery is reliable and per-sender FIFO on all
    /// provided transports.
    fn send(&self, to: NodeId, msg: Message) -> Result<(), TransportError>;

    /// Send a batch of messages, preserving per-destination order. The
    /// default delegates to [`Postman::send`] one message at a time, while
    /// transports that can coalesce (TCP) override this to write all frames
    /// for a destination in one syscall with a single flush (and the fault
    /// shim, to keep message-level fault semantics in front of one).
    /// Every message is attempted; the first error (if any) is returned.
    fn send_batch(&self, batch: Vec<(NodeId, Message)>) -> Result<(), TransportError> {
        let mut first_err = None;
        for (to, msg) in batch {
            if let Err(e) = self.send(to, msg) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// [`Postman::send_batch`] for messages that answer their destination:
    /// a transport that remembers the connection a destination reached this
    /// node through ([`tcp::TcpPostman`]) writes the replies back over it,
    /// where the destination reads them itself ([`Mailbox::recv_from`]).
    /// Only a served node's step answers this way; everything else — and a
    /// destination that never connected here — keeps `send_batch`'s route.
    fn reply_batch(&self, batch: Vec<(NodeId, Message)>) -> Result<(), TransportError> {
        self.send_batch(batch)
    }
}
