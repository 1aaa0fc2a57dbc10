//! In-process transport fabric over `fluentps_util::sync` channels.
//!
//! A [`Fabric`] owns one inbox per registered node. Endpoints are cheap to
//! clone for the sending side. This transport is the workhorse of
//! unit/integration tests and of the threaded engine in `fluentps-core`.
//!
//! A node nobody serves receives through its inbox channel. While a
//! [`Mailbox::serve`] call is in progress a send runs the node's step on the
//! *sending* thread instead — `step(Message)` for each message, then one
//! `step(Dry)` — and the thread that called `serve` only waits: for `Stop`,
//! for a quiet `wake` interval, or for messages a step sent (`crate::served`
//! has the protocol, shared with the TCP node). A worker's pushes and pulls
//! are handled inside its own send, and the replies they release are queued
//! straight into the workers' inboxes: no server thread wakes per message.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use fluentps_util::sync::RwLock;
use fluentps_util::sync::{unbounded, Receiver, RecvTimeoutError, TryRecvError};

use crate::error::TransportError;
use crate::msg::{Message, NodeId};
use crate::served::{Envelope, Served};
use crate::{per_destination, Mailbox, Network, Postman, Step};

#[derive(Default)]
struct Registry {
    inboxes: HashMap<NodeId, Arc<Served>>,
}

/// An in-process cluster fabric. Clone handles freely; all clones address the
/// same registry.
#[derive(Clone, Default)]
pub struct Fabric {
    registry: Arc<RwLock<Registry>>,
}

impl Fabric {
    /// Create an empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `node` and obtain its endpoint. Registering the same node
    /// twice replaces the previous inbox (the old endpoint reports
    /// `Disconnected` once it has received what was queued, and a `serve`
    /// call on it returns).
    pub fn register(&self, node: NodeId) -> Endpoint {
        let (tx, rx) = unbounded();
        let served = Arc::new(Served::new(node, tx));
        let old = self
            .registry
            .write()
            .inboxes
            .insert(node, Arc::clone(&served));
        if let Some(old) = old {
            old.close();
        }
        Endpoint {
            node,
            rx,
            served,
            fabric: self.clone(),
        }
    }

    /// Send `msg` from `from` to `to`.
    pub fn send(&self, from: NodeId, to: NodeId, msg: Message) -> Result<(), TransportError> {
        self.deliver(from, to, std::iter::once(msg))
    }

    /// Hand `msgs` to `to`'s input — its step, run on this thread, while it
    /// is served — outside the registry's lock.
    fn deliver(
        &self,
        from: NodeId,
        to: NodeId,
        msgs: impl IntoIterator<Item = Message>,
    ) -> Result<(), TransportError> {
        let inbox = self.registry.read().inboxes.get(&to).cloned();
        let inbox = inbox.ok_or(TransportError::UnknownNode(to))?;
        match inbox.deliver(msgs.into_iter().map(|msg| (from, msg)), true) {
            true => Ok(()),
            false => Err(TransportError::Disconnected),
        }
    }
}

/// Binding is [`Fabric::register`]: it never fails.
impl Network for Fabric {
    const NAME: &'static str = "threaded";
    type Postman = InprocPostman;
    type Mailbox = Endpoint;

    fn bind(&self, node: NodeId) -> Result<(InprocPostman, Endpoint), TransportError> {
        let endpoint = self.register(node);
        Ok((endpoint.postman(), endpoint))
    }
}

/// A node's endpoint on an in-process [`Fabric`]: a receiver plus a handle
/// for sending.
pub struct Endpoint {
    node: NodeId,
    rx: Receiver<Envelope>,
    served: Arc<Served>,
    fabric: Fabric,
}

impl Endpoint {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// A cloneable sending handle stamped with this endpoint's identity.
    pub fn postman(&self) -> InprocPostman {
        InprocPostman {
            from: self.node,
            fabric: self.fabric.clone(),
        }
    }
}

impl Mailbox for Endpoint {
    fn recv(&self) -> Result<(NodeId, Message), TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }

    fn try_recv(&self) -> Result<Option<(NodeId, Message)>, TransportError> {
        match self.rx.try_recv() {
            Ok(env) => Ok(Some(env)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => Ok(Some(env)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Install `step` for senders to run and wait here until it says
    /// [`Flow::Stop`](crate::Flow::Stop) or the node is registered anew.
    /// This thread runs the step only for what the inbox already holds, for
    /// messages a step sent to this node, and — with `wake` set — for
    /// [`Input::Tick`](crate::Input::Tick) whenever a whole interval passed
    /// without a message.
    fn serve<S: Step>(&self, wake: Option<Duration>, step: S) -> S {
        self.served.install(wake, step, &self.rx)
    }
}

/// Sending handle for an in-process endpoint.
#[derive(Clone)]
pub struct InprocPostman {
    from: NodeId,
    fabric: Fabric,
}

impl Postman for InprocPostman {
    fn send(&self, to: NodeId, msg: Message) -> Result<(), TransportError> {
        self.fabric.send(self.from, to, msg)
    }

    /// Each destination's messages in one delivery: a served one runs its
    /// step over all of them and reports `Dry` once.
    fn send_batch(&self, batch: Vec<(NodeId, Message)>) -> Result<(), TransportError> {
        let mut first_err = None;
        for (to, msgs) in per_destination(batch) {
            if let Err(e) = self.fabric.deliver(self.from, to, msgs) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let fabric = Fabric::new();
        let a = fabric.register(NodeId::Worker(0));
        let b = fabric.register(NodeId::Server(0));
        a.postman()
            .send(NodeId::Server(0), Message::Shutdown)
            .unwrap();
        let (from, msg) = b.recv().unwrap();
        assert_eq!(from, NodeId::Worker(0));
        assert_eq!(msg, Message::Shutdown);
    }

    #[test]
    fn unknown_node_errors() {
        let fabric = Fabric::new();
        let a = fabric.register(NodeId::Worker(0));
        let err = a.postman().send(NodeId::Server(9), Message::Shutdown);
        assert!(matches!(err, Err(TransportError::UnknownNode(_))));
    }

    #[test]
    fn per_sender_fifo_order() {
        let fabric = Fabric::new();
        let tx = fabric.register(NodeId::Worker(0));
        let rx = fabric.register(NodeId::Server(0));
        for seq in 0..100 {
            tx.postman()
                .send(
                    NodeId::Server(0),
                    Message::Heartbeat {
                        node: NodeId::Worker(0),
                        seq,
                    },
                )
                .unwrap();
        }
        for seq in 0..100 {
            match rx.recv().unwrap().1 {
                Message::Heartbeat { seq: s, .. } => assert_eq!(s, seq),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn try_recv_and_timeout() {
        let fabric = Fabric::new();
        let rx = fabric.register(NodeId::Server(0));
        assert!(rx.try_recv().unwrap().is_none());
        assert!(rx.recv_timeout(Duration::from_millis(5)).unwrap().is_none());
        let tx = fabric.register(NodeId::Worker(0));
        tx.postman()
            .send(NodeId::Server(0), Message::Shutdown)
            .unwrap();
        assert!(rx.try_recv().unwrap().is_some());
    }

    #[test]
    fn concurrent_senders_all_delivered() {
        let fabric = Fabric::new();
        let rx = fabric.register(NodeId::Server(0));
        let mut handles = Vec::new();
        for w in 0..8u32 {
            let ep = fabric.register(NodeId::Worker(w));
            handles.push(thread::spawn(move || {
                let p = ep.postman();
                for seq in 0..50 {
                    p.send(
                        NodeId::Server(0),
                        Message::Heartbeat {
                            node: NodeId::Worker(w),
                            seq,
                        },
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut count = 0;
        while rx.try_recv().unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 8 * 50);
    }
}
