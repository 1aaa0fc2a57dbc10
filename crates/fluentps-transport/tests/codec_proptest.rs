//! Property tests: the wire codec must roundtrip every well-formed message
//! and must never panic on arbitrary byte soup.

use fluentps_obs::{EventKind, TraceEvent, KINDS};
use fluentps_transport::codec::{corrupt_at, decode, decode_slice, encode};
use fluentps_transport::error::DecodeError;
use fluentps_transport::msg::{CausalCtx, KvPairs, Message, NodeId};
use fluentps_util::alloc::thread_counters;
use fluentps_util::buf::Bytes;
use fluentps_util::proptest::prelude::*;

fn arb_kv() -> impl Strategy<Value = KvPairs> {
    prop::collection::vec(
        (any::<u64>(), prop::collection::vec(any::<f32>(), 0..16)),
        0..8,
    )
    .prop_map(|entries| {
        let refs: Vec<(u64, &[f32])> = entries.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        KvPairs::from_slices(&refs)
    })
}

fn arb_node() -> impl Strategy<Value = NodeId> {
    prop_oneof![
        Just(NodeId::Scheduler),
        any::<u32>().prop_map(NodeId::Server),
        any::<u32>().prop_map(NodeId::Worker),
        Just(NodeId::Collector),
    ]
}

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        any::<f64>(),
        any::<f64>(),
        0..KINDS,
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(ts, dur, kind, shard, worker, progress, (v, b, s))| TraceEvent {
                ts,
                dur,
                kind: EventKind::ALL[kind],
                shard,
                worker,
                progress,
                v_train: v,
                bytes: b,
                seq: s,
                // Derive the causal fields from the other draws so they
                // exercise the full range without widening the tuple past
                // proptest's arity limit.
                request_id: s.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                attempt: shard ^ worker,
                parent_span: worker.wrapping_add(1),
            },
        )
}

fn arb_ctx() -> impl Strategy<Value = CausalCtx> {
    (any::<u64>(), any::<u16>(), any::<u32>()).prop_map(|(request_id, attempt, parent_span)| {
        CausalCtx {
            request_id,
            attempt,
            parent_span,
        }
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), arb_kv()).prop_map(|(worker, progress, kv)| {
            Message::SPush {
                worker,
                progress,
                kv,
            }
        }),
        (
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..32)
        )
            .prop_map(|(worker, progress, keys)| Message::SPull {
                worker,
                progress,
                keys
            }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(server, progress)| Message::PushAck { server, progress }),
        (any::<u32>(), any::<u64>(), any::<u64>(), arb_kv()).prop_map(
            |(server, progress, version, kv)| Message::PullResponse {
                server,
                progress,
                version,
                kv
            }
        ),
        (arb_node(), any::<u64>()).prop_map(|(node, seq)| Message::Heartbeat { node, seq }),
        Just(Message::Shutdown),
        (
            arb_node(),
            any::<f64>(),
            any::<u64>(),
            (any::<u64>(), any::<u64>()),
            prop::collection::vec(arb_event(), 0..8),
        )
            .prop_map(
                |(node, offset_secs, batch_seq, (emitted, dropped), events)| {
                    Message::TraceBatch {
                        node,
                        offset_secs,
                        batch_seq,
                        emitted,
                        dropped,
                        events,
                    }
                }
            ),
        (arb_node(), any::<u64>(), any::<f64>())
            .prop_map(|(node, seq, t_send)| Message::ClockPing { node, seq, t_send }),
        (any::<u64>(), any::<f64>(), any::<f64>()).prop_map(|(seq, t_send, t_collector)| {
            Message::ClockPong {
                seq,
                t_send,
                t_collector,
            }
        }),
        // Traced envelopes around the request/response vocabulary the
        // causal context actually travels on.
        (arb_ctx(), any::<u32>(), any::<u64>(), arb_kv()).prop_map(
            |(ctx, worker, progress, kv)| {
                Message::SPush {
                    worker,
                    progress,
                    kv,
                }
                .with_ctx(ctx)
            }
        ),
        (arb_ctx(), any::<u32>(), any::<u64>()).prop_map(|(ctx, server, progress)| {
            Message::PushAck { server, progress }.with_ctx(ctx)
        }),
    ]
}

proptest! {
    #[test]
    fn roundtrip(msg in arb_message()) {
        let bytes = encode(&msg);
        let back = decode(bytes.clone()).expect("well-formed message must decode");
        // Payloads compare bit for bit (a NaN equals itself); the f64s of a
        // trace event or clock message compare through their `Debug` form.
        prop_assert_eq!(format!("{:?}", msg), format!("{:?}", back));
        if let Message::SPush { kv, .. } | Message::PullResponse { kv, .. } = msg.bare() {
            let (Message::SPush { kv: got, .. } | Message::PullResponse { kv: got, .. }) =
                back.bare()
            else {
                panic!("variant changed");
            };
            prop_assert_eq!(got, kv);
        }
        // The borrowed-slice path decodes the same message.
        let copied = decode_slice(&bytes).expect("well-formed message must decode");
        prop_assert_eq!(format!("{:?}", copied), format!("{:?}", back));
    }

    #[test]
    fn f32_bit_patterns_roundtrip_exactly(
        keys in prop::collection::vec(any::<u64>(), 1..4),
        bits in prop::collection::vec(any::<u32>(), 0..64),
        traced in any::<bool>(),
    ) {
        // Arbitrary patterns plus the classes a float-typed path could
        // disturb: NaNs with payloads (quiet and signalling), -0.0,
        // subnormals, both infinities.
        let mut bits = bits;
        bits.extend([0x7FC0_1234, 0x7F80_0001, 0xFFFF_FFFF, 0x8000_0000, 1, 0x807F_FFFF]);
        bits.extend([0x7F80_0000, 0xFF80_0000]);
        let vals: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        // All values under the first key, none under the others: the head
        // grows with the key count and the envelope, the payload stays put.
        let mut entries: Vec<(u64, &[f32])> = keys.iter().map(|&k| (k, &[][..])).collect();
        entries[0].1 = &vals;
        let mut msg = Message::PullResponse {
            server: 1,
            progress: 2,
            version: 3,
            kv: KvPairs::from_slices(&entries),
        };
        if traced {
            msg = msg.with_ctx(CausalCtx::new(7).retry(1));
        }
        let encoded = encode(&msg);
        // Nothing on the read side may care where the payload starts: land
        // it on every address mod 4, through both decode paths.
        for pad in 0..4 {
            let mut padded = vec![0xAAu8; pad];
            padded.extend_from_slice(&encoded);
            let shared = decode(Bytes::from(padded.clone()).slice(pad..padded.len()));
            let copied = decode_slice(&padded[pad..]);
            for back in [shared, copied] {
                let back = back.expect("well-formed message must decode");
                let Message::PullResponse { kv, .. } = back.bare() else {
                    panic!("wrong variant {back:?}");
                };
                let got: Vec<u32> = kv.vals.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&got, &bits);
                let mut out = vec![0.0f32; bits.len()];
                kv.vals.copy_to(&mut out);
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&got, &bits);
            }
        }
    }

    #[test]
    fn truncation_inside_a_slab_is_truncated_never_a_panic(kv in arb_kv()) {
        let bytes = encode(&Message::SPush { worker: 1, progress: 2, kv });
        // Everything past the fixed SPush header (version, tag, worker,
        // progress) is count words, slabs and the value payload.
        for cut in 14..bytes.len() {
            for err in [decode_slice(&bytes[..cut]), decode(bytes.slice(0..cut))] {
                let err = err.expect_err("truncated frame decoded");
                prop_assert!(
                    matches!(err, DecodeError::Truncated { .. }),
                    "cut at {} of {}: {:?}", cut, bytes.len(), err
                );
            }
        }
    }

    #[test]
    fn lens_that_do_not_sum_to_the_value_count_are_inconsistent(
        kv in arb_kv(),
        which in any::<u32>(),
        delta in 1u32..1000,
    ) {
        if kv.is_empty() {
            return Ok(());
        }
        let mut frame = encode(&Message::SPush { worker: 1, progress: 2, kv: kv.clone() }).to_vec();
        // Header 14, keys count 4 + 8n, lens count 4, then the lens.
        let i = which as usize % kv.len();
        let at = 14 + 4 + 8 * kv.len() + 4 + 4 * i;
        frame[at..at + 4].copy_from_slice(&kv.lens[i].wrapping_add(delta).to_le_bytes());
        prop_assert_eq!(decode_slice(&frame), Err(DecodeError::InconsistentKv));
        prop_assert_eq!(decode(Bytes::from(frame)), Err(DecodeError::InconsistentKv));
    }

    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(Bytes::from(bytes));
    }

    #[test]
    fn truncation_always_errors(msg in arb_message(), frac in 0.0f64..1.0) {
        let bytes = encode(&msg);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode(bytes.slice(0..cut)).is_err());
        }
    }

    #[test]
    fn single_byte_corruption_is_never_silent(
        msg in arb_message(),
        frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let bytes = encode(&msg);
        // Every encoding is at least version+tag, so an index always exists;
        // XOR with a non-zero flip guarantees the byte actually changes.
        let idx = (((bytes.len() - 1) as f64) * frac) as usize;
        let corrupted = corrupt_at(&bytes, idx, bytes[idx] ^ flip);
        match decode(corrupted.clone()) {
            // Either the codec notices the damage...
            Err(_) => {}
            // ...or the flipped byte was plain payload, in which case the
            // decoded message must account for every corrupted byte (same
            // encoded length — the strict trailing-bytes check means no
            // silent short misparse) and be canonically stable. Exact byte
            // equality is too strong: Scheduler/Collector node ids carry a
            // don't-care index on the wire.
            Ok(back) => {
                let reencoded = encode(&back);
                prop_assert_eq!(reencoded.len(), corrupted.len());
                let again = decode(reencoded).expect("re-encoded message must decode");
                prop_assert_eq!(format!("{:?}", back), format!("{:?}", again));
            }
        }
    }
}

/// A count word is checked against the bytes that actually follow it before
/// anything is allocated for it: a 30-byte frame that promises 2^28 values
/// must cost a few bytes of error, not a gigabyte of `Vec`.
#[test]
fn hostile_count_is_rejected_before_allocating() {
    let honest = encode(&Message::SPush {
        worker: 0,
        progress: 0,
        kv: KvPairs::single(7, vec![1.0; 4]),
    });
    // Layout: header 14, keys count 4 + 8, lens count 4 + 4, vals count at 34.
    let vals_count_at = 14 + 4 + 8 + 4 + 4;
    for (count_at, elem) in [(14, 8), (14 + 4 + 8, 4), (vals_count_at, 4)] {
        for claimed in [5u32, 1 << 20, 1 << 28, u32::MAX] {
            let mut frame = honest.to_vec();
            frame[count_at..count_at + 4].copy_from_slice(&claimed.to_le_bytes());
            let (_, before) = thread_counters();
            let err = decode_slice(&frame).expect_err("inflated count decoded");
            let (_, after) = thread_counters();
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated { .. } | DecodeError::LengthOverflow(_)
                ),
                "count {claimed} at {count_at}: {err:?}"
            );
            assert!(
                after - before < 1024,
                "count {claimed} x {elem} B at {count_at} allocated {} bytes",
                after - before
            );
        }
    }
}

/// Zero-copy is asserted, not assumed: decoding a tensor-sized frame from a
/// `Bytes` allocates nothing payload-sized and the decoded values lie inside
/// the frame; so does cloning the result. Decoding the same bytes through a
/// borrowed slice copies the payload out exactly once.
#[test]
fn decoding_from_bytes_shares_the_frame_and_from_a_slice_copies_once() {
    const VALS: usize = 1 << 18; // 1 MiB of values
    let chunk = vec![0.125f32; VALS / 64];
    let entries: Vec<(u64, &[f32])> = (0..64).map(|k| (k, &chunk[..])).collect();
    let kv = KvPairs::from_slices(&entries);
    let push = Message::SPush {
        worker: 1,
        progress: 7,
        kv: kv.clone(),
    };
    let msgs = [
        push.clone(),
        Message::PullResponse {
            server: 0,
            progress: 7,
            version: 8,
            kv,
        },
        push.with_ctx(CausalCtx::new(9).retry(2)),
    ];
    let payload_of = |msg: &Message| match msg.bare() {
        Message::SPush { kv, .. } | Message::PullResponse { kv, .. } => kv.clone(),
        other => panic!("no payload in {other:?}"),
    };
    for msg in &msgs {
        let frame = encode(msg);
        let within = frame.as_ptr_range();

        let (_, before) = thread_counters();
        let shared = decode(frame.clone()).expect("decode");
        let (_, after) = thread_counters();
        assert!(
            after - before < 4096,
            "decode from Bytes allocated {}",
            after - before
        );
        let got = payload_of(&shared);
        let bytes = got.vals.as_le_bytes().as_ptr_range();
        assert_eq!(got.vals.len(), VALS);
        assert!(
            within.start <= bytes.start && bytes.end <= within.end,
            "payload {bytes:?} outside its frame {within:?}"
        );
        assert_eq!(&shared, msg);

        let (_, before) = thread_counters();
        let copy = got.clone();
        let (_, after) = thread_counters();
        assert!(
            after - before < 4096,
            "KvPairs::clone allocated {}",
            after - before
        );
        assert_eq!(copy.vals.as_le_bytes().as_ptr(), bytes.start);

        let (_, before) = thread_counters();
        let copied = decode_slice(&frame).expect("decode_slice");
        let (_, after) = thread_counters();
        let extra = (after - before) as usize;
        assert!(
            (4 * VALS..4 * VALS + 4096).contains(&extra),
            "decode_slice allocated {extra} for a {}-byte payload",
            4 * VALS
        );
        let bytes = payload_of(&copied).vals.as_le_bytes().as_ptr_range();
        assert!(bytes.end <= within.start || within.end <= bytes.start);
        assert_eq!(&copied, msg);
    }
}
