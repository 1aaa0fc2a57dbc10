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
//! * [`collect`] — cluster-wide trace collection: a [`CollectorService`]
//!   that merges every node's ring-buffered trace events onto one
//!   clock-aligned timeline, and the [`TraceStreamer`] each node runs to
//!   ship its events there (clock-offset handshake + bounded batching +
//!   drop-oldest backpressure).
//!
//! All transports expose the same [`Mailbox`]/[`Postman`] pair so the engine
//! code in `fluentps-core` is transport-agnostic.

#![warn(missing_docs)]

pub mod codec;
pub mod collect;
pub mod error;
pub mod fault;
pub mod frame;
pub mod inproc;
pub mod msg;
pub mod tcp;
pub mod values;

pub use collect::{CollectorService, StreamerConfig, StreamerReport, TraceStreamer};
pub use error::TransportError;
pub use fault::{FaultInjector, FaultPlan};
pub use inproc::{Endpoint, Fabric};
pub use msg::{
    CausalCtx, KvPairs, Message, NodeId, WireLogEntry, WirePlacement, NO_LEADER, NO_SPAN,
};
pub use values::{Values, ValuesMut};

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
}

/// Sending half of a transport endpoint. Cloneable so several threads of one
/// node may send concurrently.
pub trait Postman: Send {
    /// Send `msg` to `to`. Delivery is reliable and per-sender FIFO on all
    /// provided transports.
    fn send(&self, to: NodeId, msg: Message) -> Result<(), TransportError>;

    /// Send a batch of messages, preserving per-destination order. The
    /// default delegates to [`Postman::send`] one message at a time —
    /// message-level semantics (fault injection, simulation) are unchanged
    /// — while transports that can coalesce (TCP) override this to write
    /// all frames for a destination in one syscall with a single flush.
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
}
