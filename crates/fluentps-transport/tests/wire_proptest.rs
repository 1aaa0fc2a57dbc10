//! Property tests for the coalesced wire path: batching frames into one
//! buffer/write must be invisible to the receiver — the decoded message
//! sequence (order, content, per-link accounting) has to match the
//! one-frame-per-write path exactly, including when a fault plan severs a
//! destination mid-batch, and the bytes a gathered write puts on a
//! connection are exactly the frames' bytes however the writer takes them.

use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex};

use fluentps_transport::fault::{FaultAction, FaultInjector, FaultRule, MsgPattern};
use fluentps_transport::frame::{
    encode_frame, encode_frame_into, write_frame, write_frames, FrameReader,
};
use fluentps_transport::tcp::{AddressBook, TcpNode};
use fluentps_transport::{CausalCtx, FaultPlan, KvPairs, Message, NodeId, Postman, TransportError};
use fluentps_util::buf::BytesMut;
use fluentps_util::proptest::prelude::*;

fn arb_node() -> impl Strategy<Value = NodeId> {
    prop_oneof![
        Just(NodeId::Scheduler),
        (0u32..4).prop_map(NodeId::Server),
        (0u32..4).prop_map(NodeId::Worker),
        Just(NodeId::Collector),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            0u32..4,
            0u64..100,
            prop::collection::vec(any::<u64>(), 0..8)
        )
            .prop_map(|(worker, progress, keys)| Message::SPull {
                worker,
                progress,
                keys
            }),
        (0u32..4, 0u64..100).prop_map(|(server, progress)| Message::PushAck { server, progress }),
        (arb_node(), any::<u64>()).prop_map(|(node, seq)| Message::Heartbeat { node, seq }),
        Just(Message::Shutdown),
    ]
}

fn arb_kv() -> impl Strategy<Value = KvPairs> {
    prop::collection::vec(
        (any::<u64>(), prop::collection::vec(any::<f32>(), 0..48)),
        0..4,
    )
    .prop_map(|entries| {
        let refs: Vec<(u64, &[f32])> = entries.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        KvPairs::from_slices(&refs)
    })
}

/// Payload-free messages and every shape that carries values, bare and in
/// the causal envelope.
fn arb_wire_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_message(),
        (0u32..4, 0u64..100, arb_kv()).prop_map(|(worker, progress, kv)| Message::SPush {
            worker,
            progress,
            kv
        }),
        (0u32..4, 0u64..100, arb_kv()).prop_map(|(server, progress, kv)| {
            Message::PullResponse {
                server,
                progress,
                version: progress + 1,
                kv,
            }
        }),
        (any::<u64>(), 0u32..4, arb_kv()).prop_map(|(id, worker, kv)| {
            Message::SPush {
                worker,
                progress: 3,
                kv,
            }
            .with_ctx(CausalCtx::new(id))
        }),
        arb_kv().prop_map(|kv| Message::Install { kv }),
    ]
}

type Batch = Vec<(NodeId, Message)>;

/// A writer that takes at most `step` bytes per call, from the first
/// non-empty slice only — the least `write_vectored` is allowed to do.
struct Trickle {
    got: Vec<u8>,
    step: usize,
}

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(self.step);
        self.got.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    /// A gathered batch is pure concatenation too: what each destination's
    /// connection carries after a `send_batch` over real sockets is the
    /// `encode_frame` bytes of its messages, in order — and the same bytes
    /// come out of a writer that accepts only a few at a time.
    #[test]
    fn vectored_batch_puts_exactly_the_frame_bytes_on_each_connection(
        batch in prop::collection::vec((0u32..3, arb_wire_message()), 0..12),
        step in 1usize..40,
    ) {
        let from = NodeId::Worker(0);
        let mut expect = vec![Vec::new(); 3];
        for (m, msg) in &batch {
            expect[*m as usize].extend_from_slice(&encode_frame(from, msg));
        }

        let book = AddressBook::new();
        let listeners: Vec<TcpListener> = (0..3)
            .map(|m| {
                let l = TcpListener::bind("127.0.0.1:0").unwrap();
                book.insert(NodeId::Server(m), l.local_addr().unwrap());
                l
            })
            .collect();
        let mut node = TcpNode::bind(from, "127.0.0.1:0".parse().unwrap(), book).unwrap();
        let addressed: Vec<(NodeId, Message)> = batch
            .iter()
            .map(|(m, msg)| (NodeId::Server(*m), msg.clone()))
            .collect();
        node.postman().send_batch(addressed).unwrap();
        node.shutdown(); // closes the dialed connections: each stream ends
        for (listener, expect) in listeners.iter().zip(&expect) {
            if expect.is_empty() {
                continue; // never dialed
            }
            let mut got = Vec::new();
            listener.accept().unwrap().0.read_to_end(&mut got).unwrap();
            prop_assert_eq!(&got, expect);
        }

        let mut scratch = BytesMut::new();
        for (m, expect) in expect.iter().enumerate() {
            let msgs = batch.iter().filter(|(to, _)| *to as usize == m).map(|(_, msg)| msg);
            let mut w = Trickle { got: Vec::new(), step };
            write_frames(&mut w, from, msgs, &mut scratch).unwrap();
            prop_assert_eq!(&w.got, expect);
        }
    }

    /// Coalescing is pure concatenation: N frames encoded back-to-back into
    /// one reused buffer are byte-identical to N individual `write_frame`
    /// calls, and a streaming reader recovers the same (sender, message)
    /// sequence from both.
    #[test]
    fn coalesced_frames_equal_one_frame_per_write(
        msgs in prop::collection::vec((arb_node(), arb_message()), 1..16),
    ) {
        let mut per_frame: Vec<u8> = Vec::new();
        for (from, msg) in &msgs {
            write_frame(&mut per_frame, *from, msg).unwrap();
        }

        let mut batch = BytesMut::new();
        for (from, msg) in &msgs {
            encode_frame_into(*from, msg, &mut batch);
        }
        prop_assert_eq!(batch.as_ref(), per_frame.as_slice());

        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(per_frame);
        for (from, msg) in &msgs {
            let (f, m) = reader.read_from(&mut cursor).unwrap();
            prop_assert_eq!(f, *from);
            prop_assert_eq!(&m, msg);
        }
    }

    /// `send_batch` through a fault injector must see exactly the faults a
    /// per-message send loop sees — drops, reorder-delays, duplicates, and a
    /// sever firing mid-batch that blackholes the tail — and hand the inner
    /// postman the same deliveries in the same order, as *one* batch: same
    /// messages per link, same `FaultStats`.
    #[test]
    fn batched_send_matches_sequential_send_across_faults(
        n in 1usize..16,
        rules in prop::collection::vec((0u64..16, 0u32..4, 0u32..2), 0..5),
    ) {
        let plan = FaultPlan {
            rules: rules
                .iter()
                .map(|&(progress, action, server)| FaultRule {
                    pattern: MsgPattern {
                        progress: Some(progress),
                        to: Some(NodeId::Server(server)),
                        ..MsgPattern::any()
                    },
                    action: match action {
                        0 => FaultAction::Drop,
                        1 => FaultAction::Delay(2),
                        2 => FaultAction::Duplicate,
                        _ => FaultAction::Sever,
                    },
                    count: 1,
                })
                .collect(),
        };
        // Two links, interleaved, so a batch spans destinations.
        let msgs: Vec<(NodeId, Message)> = (0..n as u64)
            .flat_map(|progress| {
                let pull = move |server| {
                    let keys = vec![progress];
                    (NodeId::Server(server), Message::SPull { worker: 0, progress, keys })
                };
                [pull(0), pull(1)]
            })
            .collect();

        /// The inner postman: what reached it, call by call.
        #[derive(Clone, Default)]
        struct Recording(Arc<Mutex<Vec<Batch>>>);
        impl Postman for Recording {
            fn send(&self, to: NodeId, msg: Message) -> Result<(), TransportError> {
                self.send_batch(vec![(to, msg)])
            }
            fn send_batch(&self, batch: Vec<(NodeId, Message)>) -> Result<(), TransportError> {
                self.0.lock().unwrap().push(batch);
                Ok(())
            }
        }

        let run = |batched: bool| {
            let inner = Recording::default();
            let injector = FaultInjector::new(plan.clone());
            let postman = injector.postman(NodeId::Worker(0), inner.clone());
            if batched {
                postman.send_batch(msgs.clone()).unwrap();
            } else {
                for (to, msg) in msgs.clone() {
                    postman.send(to, msg).unwrap();
                }
            }
            let calls = inner.0.lock().unwrap().clone();
            (calls, injector.stats())
        };

        let (seq_calls, seq_stats) = run(false);
        let (batch_calls, batch_stats) = run(true);
        prop_assert_eq!(batch_stats, seq_stats);
        let delivered: Vec<(NodeId, Message)> = seq_calls.into_iter().flatten().collect();
        if delivered.is_empty() {
            prop_assert!(batch_calls.is_empty(), "an empty batch reached the inner postman");
        } else {
            prop_assert_eq!(batch_calls, vec![delivered.clone()]);
        }
        // Every message handed over is accounted for: delivered (once per
        // copy), lost to a fault, or still held back by a delay.
        let s = batch_stats;
        let accounted = delivered.len() as u64 + s.dropped + s.blackholed;
        let handed = msgs.len() as u64 + s.duplicated;
        prop_assert!(accounted <= handed && handed - accounted <= s.delayed);
    }
}
