//! Hand-rolled binary wire codec.
//!
//! Layout: one version byte, one tag byte, then little-endian fields. Vectors
//! are a `u32` count followed by elements. `f32` travels as its IEEE-754 bit
//! pattern. Integer vectors are written and read as one *slab* through the
//! `fluentps-util::buf` slab operations — one bounds check and one pass per
//! vector, not per element. Values are never converted here at all: a
//! [`KvPairs`] already holds them in wire form ([`Values`]), so every message
//! is a small *head* followed by at most one value *payload* that is always
//! its last field. [`encode_head_into`] writes the head and hands the payload
//! back for the caller to place (the TCP postman gives it to the kernel
//! where it lies); [`decode`] slices the payload out of the frame it was
//! given. The codec is fully self-contained (no serde) because the offline
//! dependency set has no serialization *format* crate; this also keeps frames
//! compact and decode costs predictable, which matters because gradients for
//! large layers dominate traffic.
//!
//! Each message's wire form is stated once: its row in the table that
//! declares [`Message`] (`msg.rs`), a tag byte and the fields in wire order.
//! `wire_messages!` generates the enum and its `Field` codec from that
//! row, so [`encode_head_into`], [`encoded_len`] and [`decode_from`] walk the
//! same list and the encoded length is the encoding's by construction. The
//! types a row is built from are the field codecs below: integers, `f64`,
//! canonical `bool`s and node ids, vectors, the records of
//! `wire_records!` (the [`KvPairs`] head, placements, trace events, log
//! entries, the causal context) and, for `Traced`, one bare inner message.

use fluentps_obs::{EventKind, TraceEvent};
use fluentps_util::buf::{Buf, BufMut, Bytes, BytesMut};

use crate::error::DecodeError;
use crate::msg::{CausalCtx, KvPairs, Message, NodeId, WireLogEntry, WirePlacement};
use crate::values::Values;

/// Version byte prepended to every encoded message.
pub const WIRE_VERSION: u8 = 1;

/// Sanity cap on any declared element count, to reject corrupt frames before
/// attempting a huge allocation. 2^28 f32s is a 1 GiB tensor — far beyond any
/// shard this system ships.
const MAX_ELEMS: u64 = 1 << 28;

/// Encode a message into a fresh byte buffer, sized exactly via
/// [`encoded_len`] so encoding never reallocates mid-write.
pub fn encode(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(msg));
    encode_into(msg, &mut buf);
    buf.freeze()
}

/// Encode a message, appending to `buf`.
pub fn encode_into(msg: &Message, buf: &mut BytesMut) {
    let payload = encode_head_into(msg, buf);
    buf.put_slice(payload);
}

/// Encode everything of `msg` but its value payload, appending to `buf`, and
/// return the payload: the bytes that, appended after the head, complete the
/// encoding (empty for a message that carries no values). A sender that can
/// gather — a vectored socket write — never copies the payload.
pub fn encode_head_into<'m>(msg: &'m Message, buf: &mut BytesMut) -> &'m [u8] {
    msg.put(buf)
}

/// Exact size in bytes of `encode(msg)` — what this message costs on the
/// wire before framing. Byte accounting (`ShardStats::bytes_in/out`, the
/// tracer's `WireSend`/`WireRecv` events) uses this instead of
/// hand-estimates so ablation tables match real traffic.
pub fn encoded_len(msg: &Message) -> usize {
    msg.wire_len()
}

/// Copy `frame` with the byte at `idx` overwritten by `val` — the shared
/// corruption helper for codec tests (unit and property-based): every
/// "flip one byte, expect a decode error" case routes through here instead
/// of hand-rolling its own `to_vec` + index dance.
///
/// Panics when `idx` is out of bounds or `val` equals the byte already
/// there: a no-op "corruption" would silently test nothing.
pub fn corrupt_at(frame: &Bytes, idx: usize, val: u8) -> Bytes {
    assert!(
        idx < frame.len(),
        "corrupt_at: index {idx} out of bounds for {}-byte frame",
        frame.len()
    );
    assert_ne!(
        frame[idx], val,
        "corrupt_at: byte {idx} is already {val:#04x}; corruption would be a no-op"
    );
    let mut bytes = frame.as_ref().to_vec();
    bytes[idx] = val;
    Bytes::from(bytes)
}

/// Decode one message from `bytes`; the buffer must contain exactly one
/// encoded message (framing is the transport's job), so leftover bytes are
/// a [`DecodeError::TrailingBytes`] error — without this check a corrupted
/// tag byte could silently misparse a long message as a short one. From a
/// [`Bytes`] a value payload is not copied: the decoded [`KvPairs`] shares
/// its allocation.
pub fn decode<B: Buf>(mut bytes: B) -> Result<Message, DecodeError> {
    let msg = decode_from(&mut bytes)?;
    match bytes.remaining() {
        0 => Ok(msg),
        left => Err(DecodeError::TrailingBytes(left)),
    }
}

/// [`decode`] from a borrowed slice, for a caller that does not own the
/// bytes: a value payload is copied out once, at its exact size.
pub fn decode_slice(bytes: &[u8]) -> Result<Message, DecodeError> {
    decode(bytes)
}

/// Decode one message from any [`Buf`] cursor. Every value a field decodes
/// to re-encodes to the bytes it was read from: a byte no encoder writes is
/// a [`DecodeError`], never a guess.
pub fn decode_from<B: Buf>(buf: &mut B) -> Result<Message, DecodeError> {
    Message::get(buf)
}

/// The codec of one field type: how a value is written, how long that is,
/// and how it is read back.
pub(crate) trait Field: Sized {
    /// Bytes of the shortest encoding, by which an element count is checked
    /// against what is left before anything is allocated for it.
    const MIN: usize;

    /// Append `self` and return the value payload that completes it (empty
    /// for everything but [`Values`] and what ends in them).
    fn put<'m>(&'m self, buf: &mut BytesMut) -> &'m [u8];

    /// Exact size of `put`'s bytes plus its payload.
    fn wire_len(&self) -> usize {
        Self::MIN
    }

    /// Read one value.
    fn get<B: Buf>(buf: &mut B) -> Result<Self, DecodeError>;

    /// Append the elements of a vector (its count is written already).
    fn put_all(all: &[Self], buf: &mut BytesMut) {
        for x in all {
            x.put(buf);
        }
    }

    /// Read `n` elements of a vector whose count was checked by [`count`].
    fn get_all<B: Buf>(buf: &mut B, n: usize) -> Result<Vec<Self>, DecodeError> {
        let mut all = Vec::with_capacity(n);
        for _ in 0..n {
            all.push(Self::get(buf)?);
        }
        Ok(all)
    }
}

/// Put each field in order and return the last one's payload; a payload
/// anywhere else would be dropped, so that is a bug the assert names.
macro_rules! put_fields {
    ($buf:ident $(, $f:expr)*) => {{
        let payload: &[u8] = &[];
        $(
            debug_assert!(payload.is_empty(), "a value payload must be the last field");
            let payload = Field::put($f, $buf);
        )*
        payload
    }};
}
pub(crate) use put_fields;

/// Declare `pub enum Message` from its wire table and generate its codec.
/// Each row is `Variant = tag` plus, for a variant with fields, the fields
/// in wire order; the encoding is [`WIRE_VERSION`], the tag, then each
/// field's [`Field`] codec in turn.
macro_rules! wire_messages {
    (
        $(#[$meta:meta])*
        pub enum Message {$(
            $(#[$vmeta:meta])*
            $V:ident = $tag:literal $({$( $(#[$fmeta:meta])* $f:ident: $t:ty, )*})?
        ),* $(,)?}
    ) => {
        $(#[$meta])*
        pub enum Message {$(
            $(#[$vmeta])* $V $({$( $(#[$fmeta])* $f: $t, )*})?
        ),*}

        const _: () = {
            use fluentps_util::buf::{Buf, BufMut, BytesMut};
            use $crate::codec::{put_fields, Field, WIRE_VERSION};
            use $crate::error::DecodeError;

            impl Message {
                /// The tag this message is encoded under.
                pub(crate) fn tag(&self) -> u8 {
                    match self {$( Message::$V { .. } => $tag, )*}
                }
            }

            impl Field for Message {
                const MIN: usize = 2;

                fn put<'m>(&'m self, buf: &mut BytesMut) -> &'m [u8] {
                    buf.put_u8(WIRE_VERSION);
                    buf.put_u8(self.tag());
                    match self {$(
                        Message::$V { $($($f,)*)? } => put_fields!(buf $($(, $f)*)?),
                    )*}
                }

                fn wire_len(&self) -> usize {
                    match self {$(
                        Message::$V { $($($f,)*)? } => 2 $($(+ Field::wire_len($f))*)?,
                    )*}
                }

                fn get<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
                    let (expected, found) = (WIRE_VERSION, u8::get(buf)?);
                    if found != expected {
                        return Err(DecodeError::VersionMismatch { expected, found });
                    }
                    // Each variant's fields are read by a function of its own,
                    // which keeps the dispatch small and each read path lean.
                    match u8::get(buf)? {
                        $( $tag => {
                            #[inline(never)]
                            #[allow(unused_variables)] // `Shutdown` reads no field
                            fn get<B: Buf>(buf: &mut B) -> Result<Message, DecodeError> {
                                Ok(Message::$V { $($($f: Field::get(buf)?,)*)? })
                            }
                            get(buf)
                        } )*
                        other => Err(DecodeError::UnknownTag(other)),
                    }
                }
            }
        };
    };
}
pub(crate) use wire_messages;

/// Records whose wire form is their fields in the order listed, with an
/// optional check of the decoded whole (`if method else error`).
macro_rules! wire_records {
    ($( $T:ident { $($f:ident: $t:ty),* } $(if $ok:ident else $err:ident)?; )*) => {$(
        impl Field for $T {
            const MIN: usize = 0 $(+ <$t as Field>::MIN)*;

            fn put<'m>(&'m self, buf: &mut BytesMut) -> &'m [u8] {
                put_fields!(buf $(, &self.$f)*)
            }

            fn wire_len(&self) -> usize {
                0 $(+ self.$f.wire_len())*
            }

            fn get<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
                let record = $T { $($f: <$t as Field>::get(buf)?),* };
                $(if !record.$ok() {
                    return Err(DecodeError::$err);
                })?
                Ok(record)
            }
        }
    )*};
}

wire_records! {
    CausalCtx { request_id: u64, attempt: u16 };
    WirePlacement { orig_key: u64, new_key: u64, server: u32, offset: u32, len: u32 };
    WireLogEntry { term: u64, index: u64, cmd: Vec<u8> };
    KvPairs { keys: Vec<u64>, lens: Vec<u32>, vals: Values } if is_consistent else InconsistentKv;
    TraceEvent {
        ts: f64, dur: f64, kind: EventKind, shard: u32, worker: u32, progress: u64,
        v_train: u64, bytes: u64, seq: u64, request_id: u64, attempt: u32
    };
}

/// Fixed-width little-endian integers; `u32` and `u64` vectors go as slabs.
macro_rules! int_fields {
    ($( $t:ty: $put:ident, $get:ident $(, $put_all:ident, $get_all:ident)?; )*) => {$(
        impl Field for $t {
            const MIN: usize = std::mem::size_of::<$t>();

            fn put<'m>(&'m self, buf: &mut BytesMut) -> &'m [u8] {
                buf.$put(*self);
                &[]
            }

            fn get<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
                need(buf, <Self as Field>::MIN)?;
                Ok(buf.$get())
            }

            $(
                fn put_all(all: &[Self], buf: &mut BytesMut) {
                    buf.$put_all(all);
                }

                fn get_all<B: Buf>(buf: &mut B, n: usize) -> Result<Vec<Self>, DecodeError> {
                    Ok(buf.$get_all(n))
                }
            )?
        }
    )*};
}

int_fields! {
    u8: put_u8, get_u8;
    u16: put_u16_le, get_u16_le;
    u32: put_u32_le, get_u32_le, put_u32_slice_le, get_u32_vec_le;
    u64: put_u64_le, get_u64_le, put_u64_slice_le, get_u64_vec_le;
}

/// Fields written as another field type: `T as W: to_wire, from_wire`. The
/// way back refuses every `W` the way out never writes, so what decodes
/// re-encodes to the same bytes.
macro_rules! mapped_fields {
    ($( $t:ty as $w:ty: $to:expr, $from:expr; )*) => {$(
        impl Field for $t {
            const MIN: usize = <$w as Field>::MIN;

            fn put<'m>(&'m self, buf: &mut BytesMut) -> &'m [u8] {
                Field::put(&($to)(*self), buf);
                &[]
            }

            fn get<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
                ($from)(<$w as Field>::get(buf)?)
            }
        }
    )*};
}

mapped_fields! {
    f64 as u64: f64::to_bits, |bits| Ok(f64::from_bits(bits));
    // One byte, 0 or 1.
    bool as u8: u8::from, |byte| match byte {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError::NonCanonical),
    };
    // The kind's index byte.
    EventKind as u8: |kind: EventKind| kind.index() as u8, |idx: u8| {
        let kind = EventKind::ALL.get(usize::from(idx));
        kind.copied().ok_or(DecodeError::UnknownTag(idx))
    };
}

/// A kind byte and a `u32` index, which is 0 for the scheduler and the
/// collector: neither has an index to carry.
impl Field for NodeId {
    const MIN: usize = 5;

    fn put<'m>(&'m self, buf: &mut BytesMut) -> &'m [u8] {
        let (kind, idx): (u8, u32) = match *self {
            NodeId::Scheduler => (0, 0),
            NodeId::Server(m) => (1, m),
            NodeId::Worker(n) => (2, n),
            NodeId::Collector => (3, 0),
            NodeId::Supervisor(k) => (4, k),
        };
        buf.put_u8(kind);
        buf.put_u32_le(idx);
        &[]
    }

    fn get<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        match (u8::get(buf)?, u32::get(buf)?) {
            (0, 0) => Ok(NodeId::Scheduler),
            (1, m) => Ok(NodeId::Server(m)),
            (2, n) => Ok(NodeId::Worker(n)),
            (3, 0) => Ok(NodeId::Collector),
            (4, k) => Ok(NodeId::Supervisor(k)),
            (0 | 3, _) => Err(DecodeError::NonCanonical),
            (other, _) => Err(DecodeError::UnknownTag(other)),
        }
    }
}

/// A `u32` count, then the elements.
impl<T: Field> Field for Vec<T> {
    const MIN: usize = 4;

    fn put<'m>(&'m self, buf: &mut BytesMut) -> &'m [u8] {
        buf.put_u32_le(self.len() as u32);
        T::put_all(self, buf);
        &[]
    }

    fn wire_len(&self) -> usize {
        4 + self.iter().map(T::wire_len).sum::<usize>()
    }

    fn get<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let n = count(buf, T::MIN)?;
        T::get_all(buf, n)
    }
}

/// The value count; the values themselves are the payload, and decoding
/// from a `Bytes` cursor shares them with the frame.
impl Field for Values {
    const MIN: usize = 4;

    fn put<'m>(&'m self, buf: &mut BytesMut) -> &'m [u8] {
        buf.put_u32_le(self.len() as u32);
        self.as_le_bytes()
    }

    fn wire_len(&self) -> usize {
        4 + 4 * self.len()
    }

    fn get<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        let n = count(buf, 4)?;
        Ok(Values::from_le_bytes(buf.take_bytes(4 * n)))
    }
}

/// The inner message of a `Traced` envelope: a complete encoding, its own
/// version byte included, so a receiver peels the envelope and re-enters the
/// ordinary decode path.
impl Field for Box<Message> {
    const MIN: usize = 2;

    fn put<'m>(&'m self, buf: &mut BytesMut) -> &'m [u8] {
        Message::put(self, buf)
    }

    fn wire_len(&self) -> usize {
        Message::wire_len(self)
    }

    fn get<B: Buf>(buf: &mut B) -> Result<Self, DecodeError> {
        // One context per wire message: a nested envelope means a corrupt
        // or malicious frame, not a legitimate sender.
        match Message::get(buf)? {
            nested @ Message::Traced { .. } => Err(DecodeError::UnknownTag(nested.tag())),
            inner => Ok(Box::new(inner)),
        }
    }
}

/// Read a `u32` element count and check that that many elements of at least
/// `min` bytes each can follow, before anything is allocated for them.
fn count<B: Buf>(buf: &mut B, min: usize) -> Result<usize, DecodeError> {
    let n = u64::from(u32::get(buf)?);
    if n > MAX_ELEMS {
        return Err(DecodeError::LengthOverflow(n));
    }
    need(buf, n as usize * min)?;
    Ok(n as usize)
}

fn need<B: Buf>(buf: &B, needed: usize) -> Result<(), DecodeError> {
    if buf.remaining() < needed {
        return Err(DecodeError::Truncated {
            needed,
            available: buf.remaining(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use fluentps_util::alloc::thread_counters;
    use fluentps_util::proptest::prelude::*;
    use fluentps_util::rng::StdRng;

    fn roundtrip(msg: Message) {
        let bytes = encode(&msg);
        let back = decode(bytes).expect("decode");
        assert_eq!(msg, back);
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(Message::SPush {
            worker: 3,
            progress: 42,
            kv: KvPairs::from_slices(&[(1, &[1.5, -2.5][..]), (9, &[0.0][..])]),
        });
        roundtrip(Message::SPull {
            worker: 7,
            progress: 11,
            keys: vec![0, 5, u64::MAX],
        });
        roundtrip(Message::PushAck {
            server: 2,
            progress: 100,
        });
        roundtrip(Message::PullResponse {
            server: 1,
            progress: 9,
            version: 13,
            kv: KvPairs::single(4, vec![3.25; 7]),
        });
        for node in [NodeId::Worker(12), NodeId::Scheduler, NodeId::Server(5)] {
            roundtrip(Message::Heartbeat { node, seq: 999 });
        }
        roundtrip(Message::Shutdown);
        roundtrip(Message::Install {
            kv: KvPairs::from_slices(&[(2, &[0.5, 1.5][..])]),
        });
        roundtrip(Message::RouteUpdate {
            placements: vec![
                WirePlacement {
                    orig_key: 0,
                    new_key: 1 << 40,
                    server: 1,
                    offset: 0,
                    len: 16,
                },
                WirePlacement {
                    orig_key: 3,
                    new_key: (3 << 40) | 16,
                    server: 0,
                    offset: 16,
                    len: 8,
                },
            ],
        });
        roundtrip(Message::RouteUpdate { placements: vec![] });
        roundtrip(Message::TraceBatch {
            node: NodeId::Worker(1),
            offset_secs: -0.0625,
            batch_seq: 3,
            emitted: 40,
            dropped: 2,
            events: vec![
                TraceEvent {
                    ts: 1.5,
                    dur: 0.25,
                    kind: EventKind::BarrierWait,
                    shard: 0,
                    worker: 1,
                    progress: 7,
                    v_train: 6,
                    bytes: 0,
                    seq: 38,
                    request_id: (2u64 << 40) | 17,
                    attempt: 1,
                },
                TraceEvent {
                    ts: 1.75,
                    dur: 0.0,
                    kind: EventKind::NodeDeclaredDead,
                    shard: 2,
                    worker: u32::MAX,
                    progress: 0,
                    v_train: 9,
                    bytes: 0,
                    seq: 39,
                    ..Default::default()
                },
            ],
        });
        roundtrip(Message::TraceBatch {
            node: NodeId::Collector,
            offset_secs: 0.0,
            batch_seq: 0,
            emitted: 0,
            dropped: 0,
            events: vec![],
        });
        roundtrip(Message::ClockPing {
            node: NodeId::Server(2),
            seq: 11,
            t_send: 0.125,
        });
        roundtrip(Message::ClockPong {
            seq: 11,
            t_send: 0.125,
            t_collector: 0.375,
        });
        roundtrip(Message::Heartbeat {
            node: NodeId::Supervisor(2),
            seq: 1,
        });
        roundtrip(Message::VoteRequest {
            term: 3,
            candidate: 1,
            last_log_index: 17,
            last_log_term: 2,
        });
        roundtrip(Message::VoteResponse {
            term: 3,
            voter: 2,
            granted: true,
        });
        roundtrip(Message::VoteResponse {
            term: 4,
            voter: 0,
            granted: false,
        });
        roundtrip(Message::AppendEntries {
            term: 5,
            leader: 1,
            prev_index: 9,
            prev_term: 4,
            commit: 8,
            entries: vec![
                WireLogEntry {
                    term: 5,
                    index: 10,
                    cmd: vec![],
                },
                WireLogEntry {
                    term: 5,
                    index: 11,
                    cmd: vec![1, 0, 0, 0, 2],
                },
            ],
        });
        roundtrip(Message::AppendEntries {
            term: 1,
            leader: 0,
            prev_index: 0,
            prev_term: 0,
            commit: 0,
            entries: vec![],
        });
        roundtrip(Message::AppendAck {
            term: 5,
            follower: 2,
            ok: false,
            match_index: 9,
        });
        roundtrip(Message::LeaderRedirect { term: 6, leader: 1 });
        roundtrip(Message::LeaderRedirect {
            term: 6,
            leader: crate::msg::NO_LEADER,
        });
        roundtrip(
            Message::SPush {
                worker: 3,
                progress: 42,
                kv: KvPairs::single(1, vec![0.5; 4]),
            }
            .with_ctx(CausalCtx::new((4u64 << 40) | 7).retry(1)),
        );
        roundtrip(Message::Shutdown.with_ctx(CausalCtx::new(u64::MAX)));
    }

    #[test]
    fn nested_traced_envelope_is_rejected() {
        // Hand-build Traced(Traced(Shutdown)) — with_ctx refuses to nest, so
        // splice the bytes directly: outer header + ctx, then a full inner
        // Traced encoding.
        let inner = encode(&Message::Shutdown.with_ctx(CausalCtx::new(1)));
        let mut buf = BytesMut::new();
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(20); // TRACED
        buf.put_u64_le(2); // request_id
        buf.put_u16_le(0); // attempt
        buf.extend_from_slice(inner.as_ref());
        let err = decode(buf.freeze()).unwrap_err();
        assert_eq!(err, DecodeError::UnknownTag(20));
    }

    #[test]
    fn traced_encoded_len_is_exact_and_event_len_matches_constant() {
        let msg = Message::PullResponse {
            server: 1,
            progress: 9,
            version: 13,
            kv: KvPairs::single(4, vec![3.25; 7]),
        };
        let wrapped = msg.clone().with_ctx(CausalCtx::new(5).retry(3));
        assert_eq!(encoded_len(&wrapped), encode(&wrapped).len());
        assert_eq!(
            encoded_len(&wrapped),
            2 + <CausalCtx as Field>::MIN + encoded_len(&msg)
        );
        // One encoded TraceEvent occupies exactly its 69 bytes.
        let empty = Message::TraceBatch {
            node: NodeId::Collector,
            offset_secs: 0.0,
            batch_seq: 0,
            emitted: 0,
            dropped: 0,
            events: vec![],
        };
        let one = Message::TraceBatch {
            node: NodeId::Collector,
            offset_secs: 0.0,
            batch_seq: 0,
            emitted: 1,
            dropped: 0,
            events: vec![TraceEvent::default()],
        };
        let event_len = <TraceEvent as Field>::MIN;
        assert_eq!(encoded_len(&one) - encoded_len(&empty), event_len);
        assert_eq!(event_len, 69);
    }

    #[test]
    fn trace_event_with_unknown_kind_index_is_rejected() {
        let msg = Message::TraceBatch {
            node: NodeId::Worker(0),
            offset_secs: 0.0,
            batch_seq: 0,
            emitted: 1,
            dropped: 0,
            events: vec![TraceEvent {
                shard: 0,
                worker: 0,
                ..Default::default()
            }],
        };
        // The kind byte sits after version+tag (2), node (5), four u64
        // headers (32), the count word (4) and the event's ts+dur (16).
        let kind_at = 2 + 5 + 32 + 4 + 16;
        let err = decode(corrupt_at(&encode(&msg), kind_at, 0xEE)).unwrap_err();
        assert_eq!(err, DecodeError::UnknownTag(0xEE));
    }

    #[test]
    fn rejects_wrong_version() {
        let err = decode(corrupt_at(&encode(&Message::Shutdown), 0, 99)).unwrap_err();
        assert_eq!(
            err,
            DecodeError::VersionMismatch {
                expected: WIRE_VERSION,
                found: 99
            }
        );
    }

    #[test]
    fn rejects_unknown_tag() {
        // Never assigned, and the three retired ones (with what used to be a
        // valid body behind them).
        for unknown in [0xEE, 5, 6, 8] {
            let bytes = Bytes::from(vec![WIRE_VERSION, unknown, 0, 0, 0, 0, 0, 0, 0, 0]);
            assert_eq!(decode(bytes).unwrap_err(), DecodeError::UnknownTag(unknown));
        }
    }

    #[test]
    fn rejects_truncated_frame() {
        let full = encode(&Message::SPush {
            worker: 0,
            progress: 1,
            kv: KvPairs::single(0, vec![1.0; 16]),
        });
        for cut in 1..full.len() {
            let err = decode(full.slice(0..cut));
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_length_overflow() {
        // SPull with an absurd key count.
        let mut buf = BytesMut::new();
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(2); // SPULL
        buf.put_u32_le(0); // worker
        buf.put_u64_le(0); // progress
        buf.put_u32_le(u32::MAX); // declared key count
        let err = decode(buf.freeze()).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::LengthOverflow(_) | DecodeError::Truncated { .. }
        ));
    }

    #[test]
    fn rejects_inconsistent_kv() {
        // Hand-encode a PushAck-like SPush whose lens disagree with vals.
        let mut buf = BytesMut::new();
        buf.put_u8(WIRE_VERSION);
        buf.put_u8(1); // SPUSH
        buf.put_u32_le(0);
        buf.put_u64_le(0);
        // keys: [1]
        buf.put_u32_le(1);
        buf.put_u64_le(1);
        // lens: [3] (claims 3 values)
        buf.put_u32_le(1);
        buf.put_u32_le(3);
        // vals: only 1 value
        buf.put_u32_le(1);
        buf.put_u32_le(1.0f32.to_bits());
        let err = decode(buf.freeze()).unwrap_err();
        assert_eq!(err, DecodeError::InconsistentKv);
    }

    #[test]
    fn nan_and_special_floats_roundtrip_bitwise() {
        let vals = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE,
        ];
        let msg = Message::SPush {
            worker: 0,
            progress: 0,
            kv: KvPairs::single(0, vals.clone()),
        };
        let back = decode(encode(&msg)).unwrap();
        if let Message::SPush { kv, .. } = back {
            for (a, b) in vals.iter().zip(kv.vals.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn non_canonical_bools_and_node_indices_are_rejected() {
        // A scheduler or collector id with an index, then a bool byte that
        // is neither 0 nor 1: each would decode to a message whose encoding
        // differs from the bytes it came from.
        let seq = [9, 0, 0, 0, 0, 0, 0, 0];
        for kind in [0u8, 3] {
            let frame = [&[WIRE_VERSION, 7, kind, 7, 0, 0, 0][..], &seq].concat();
            assert_eq!(decode_slice(&frame), Err(DecodeError::NonCanonical));
            let canonical = [&[WIRE_VERSION, 7, kind, 0, 0, 0, 0][..], &seq].concat();
            assert_eq!(
                encode(&decode_slice(&canonical).unwrap()).as_ref(),
                canonical
            );
        }
        let vote = Message::VoteResponse {
            term: 3,
            voter: 1,
            granted: true,
        };
        let ack = Message::AppendAck {
            term: 3,
            follower: 1,
            ok: true,
            match_index: 4,
        };
        // The bool sits after version, tag, term (8) and replica id (4).
        for msg in [vote, ack] {
            for byte in [2, 9, 0xFF] {
                let frame = corrupt_at(&encode(&msg), 2 + 8 + 4, byte);
                assert_eq!(decode(frame), Err(DecodeError::NonCanonical));
            }
        }
    }

    #[test]
    fn unknown_node_kinds_are_unknown_tags() {
        // The three messages that lead with a node id, every unassigned kind.
        let node = NodeId::Worker(1);
        let msgs = [
            Message::Heartbeat { node, seq: 1 },
            Message::ClockPing {
                node,
                seq: 1,
                t_send: 0.5,
            },
            Message::TraceBatch {
                node,
                offset_secs: 0.0,
                batch_seq: 0,
                emitted: 0,
                dropped: 0,
                events: vec![],
            },
        ];
        for msg in msgs {
            for kind in 5..=u8::MAX {
                let frame = corrupt_at(&encode(&msg), 2, kind);
                assert_eq!(decode(frame), Err(DecodeError::UnknownTag(kind)));
            }
        }
    }

    fn arb_kv() -> impl Strategy<Value = KvPairs> {
        prop::collection::vec(
            (any::<u64>(), prop::collection::vec(any::<f32>(), 0..6)),
            0..4,
        )
        .prop_map(|entries| {
            let refs: Vec<(u64, &[f32])> =
                entries.iter().map(|(k, v)| (*k, v.as_slice())).collect();
            KvPairs::from_slices(&refs)
        })
    }

    fn arb_node() -> impl Strategy<Value = NodeId> {
        prop_oneof![
            Just(NodeId::Scheduler),
            any::<u32>().prop_map(NodeId::Server),
            any::<u32>().prop_map(NodeId::Worker),
            Just(NodeId::Collector),
            any::<u32>().prop_map(NodeId::Supervisor),
        ]
    }

    fn arb_event() -> impl Strategy<Value = TraceEvent> {
        (
            (any::<f64>(), any::<f64>()),
            0..EventKind::ALL.len(),
            (any::<u32>(), any::<u32>()),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u32>()),
        )
            .prop_map(
                |((ts, dur), kind, (shard, worker), (progress, v_train, bytes), ids)| TraceEvent {
                    ts,
                    dur,
                    kind: EventKind::ALL[kind],
                    shard,
                    worker,
                    progress,
                    v_train,
                    bytes,
                    seq: ids.0,
                    request_id: ids.1,
                    attempt: ids.2,
                },
            )
    }

    /// A bare message of every variant in the table; each field drawn over
    /// its whole range.
    fn arb_bare() -> impl Strategy<Value = Message> {
        use prop::collection::vec;
        prop_oneof![
            (any::<u32>(), any::<u64>(), arb_kv()).prop_map(|(worker, progress, kv)| {
                Message::SPush {
                    worker,
                    progress,
                    kv,
                }
            }),
            (any::<u32>(), any::<u64>(), vec(any::<u64>(), 0..6)).prop_map(
                |(worker, progress, keys)| Message::SPull {
                    worker,
                    progress,
                    keys
                }
            ),
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
            arb_kv().prop_map(|kv| Message::Install { kv }),
            vec(
                (
                    any::<u64>(),
                    any::<u64>(),
                    any::<u32>(),
                    any::<u32>(),
                    any::<u32>()
                ),
                0..4
            )
            .prop_map(|rows| Message::RouteUpdate {
                placements: rows
                    .into_iter()
                    .map(|(orig_key, new_key, server, offset, len)| WirePlacement {
                        orig_key,
                        new_key,
                        server,
                        offset,
                        len,
                    })
                    .collect(),
            }),
            (
                arb_node(),
                any::<f64>(),
                (any::<u64>(), any::<u64>(), any::<u64>()),
                vec(arb_event(), 0..3),
            )
                .prop_map(
                    |(node, offset_secs, (batch_seq, emitted, dropped), events)| {
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
            (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
                |(term, candidate, last_log_index, last_log_term)| Message::VoteRequest {
                    term,
                    candidate,
                    last_log_index,
                    last_log_term,
                }
            ),
            (any::<u64>(), any::<u32>(), any::<bool>()).prop_map(|(term, voter, granted)| {
                Message::VoteResponse {
                    term,
                    voter,
                    granted,
                }
            }),
            (
                (any::<u64>(), any::<u32>()),
                (any::<u64>(), any::<u64>(), any::<u64>()),
                vec((any::<u64>(), any::<u64>(), vec(any::<u8>(), 0..5)), 0..3),
            )
                .prop_map(
                    |((term, leader), (prev_index, prev_term, commit), entries)| {
                        Message::AppendEntries {
                            term,
                            leader,
                            prev_index,
                            prev_term,
                            commit,
                            entries: entries
                                .into_iter()
                                .map(|(term, index, cmd)| WireLogEntry { term, index, cmd })
                                .collect(),
                        }
                    }
                ),
            (any::<u64>(), any::<u32>(), any::<bool>(), any::<u64>()).prop_map(
                |(term, follower, ok, match_index)| Message::AppendAck {
                    term,
                    follower,
                    ok,
                    match_index,
                }
            ),
            (any::<u64>(), any::<u32>())
                .prop_map(|(term, leader)| Message::LeaderRedirect { term, leader }),
        ]
    }

    /// Every variant of the table, bare or in a `Traced` envelope.
    fn arb_message() -> impl Strategy<Value = Message> {
        (arb_bare(), any::<bool>(), any::<u64>(), any::<u16>()).prop_map(
            |(msg, traced, request_id, attempt)| match traced {
                true => msg.with_ctx(CausalCtx::new(request_id).retry(attempt)),
                false => msg,
            },
        )
    }

    /// A cursor over `bytes` that notes where each `u32` was read: every
    /// count word and every `u32` field.
    struct Noting<'a> {
        bytes: &'a [u8],
        at: usize,
        u32s: Vec<usize>,
    }

    impl Buf for Noting<'_> {
        fn remaining(&self) -> usize {
            self.bytes.len() - self.at
        }
        fn advance(&mut self, n: usize) {
            self.at += n;
        }
        fn chunk(&self) -> &[u8] {
            &self.bytes[self.at..]
        }
        fn get_u32_le(&mut self) -> u32 {
            self.u32s.push(self.at);
            let word = &self.bytes[self.at..self.at + 4];
            self.at += 4;
            u32::from_le_bytes(word.try_into().unwrap())
        }
        fn take_bytes(&mut self, n: usize) -> Bytes {
            self.at += n;
            Bytes::from(&self.bytes[self.at - n..self.at])
        }
    }

    #[test]
    fn the_generated_messages_cover_exactly_the_tags_that_decode() {
        // A tag the decoder does not know is `UnknownTag`; every other tag
        // must be one the strategy below generates, and every tag it
        // generates must decode. So the fuzz walks the whole table.
        let known: Vec<u8> = (0..=u8::MAX)
            .filter(|&t| decode_slice(&[WIRE_VERSION, t]) != Err(DecodeError::UnknownTag(t)))
            .collect();
        let mut rng = StdRng::seed_from_u64(46);
        let strategy = arb_message();
        let mut drawn: Vec<u8> = (0..2_000)
            .map(|_| strategy.generate(&mut rng).tag())
            .collect();
        drawn.sort_unstable();
        drawn.dedup();
        assert_eq!(drawn, known);
        assert_eq!(known.len(), 17);
    }

    proptest! {
        #[test]
        fn every_message_reencodes_to_its_own_bytes_and_measures_them(msg in arb_message()) {
            let bytes = encode(&msg);
            prop_assert_eq!(encoded_len(&msg), bytes.len());
            let back = decode(bytes.clone()).expect("well-formed message must decode");
            prop_assert_eq!(encode(&back), bytes);
            prop_assert_eq!(encoded_len(&back), bytes.len());
        }

        #[test]
        fn every_prefix_of_a_message_is_truncated(msg in arb_message()) {
            let bytes = encode(&msg);
            for cut in 0..bytes.len() {
                for err in [decode_slice(&bytes[..cut]), decode(bytes.slice(0..cut))] {
                    prop_assert!(
                        matches!(err, Err(DecodeError::Truncated { .. })),
                        "cut at {} of {}: {:?}", cut, bytes.len(), err
                    );
                }
            }
        }

        #[test]
        fn every_count_word_is_checked_before_anything_is_allocated(msg in arb_message()) {
            // Every `u32` the decoder reads, set past the cap: a count word
            // is `LengthOverflow` with nothing allocated for it, any other
            // `u32` field takes the value (or, as a scheduler's or a
            // collector's index, is refused). At the cap itself a count is
            // `Truncated`, as no frame holds 2^28 elements.
            let bytes = encode(&msg);
            let mut noting = Noting { bytes: &bytes, at: 0, u32s: Vec::new() };
            decode_from(&mut noting).expect("well-formed message must decode");
            for at in noting.u32s {
                for claimed in [MAX_ELEMS + 1, u64::from(u32::MAX), MAX_ELEMS] {
                    let mut frame = bytes.to_vec();
                    frame[at..at + 4].copy_from_slice(&(claimed as u32).to_le_bytes());
                    let (_, before) = thread_counters();
                    let decoded = decode_slice(&frame);
                    let (_, after) = thread_counters();
                    match decoded {
                        Ok(back) => prop_assert_eq!(encode(&back), Bytes::from(frame)),
                        Err(DecodeError::NonCanonical) => {} // a scheduler's index
                        Err(DecodeError::LengthOverflow(n)) => prop_assert_eq!(n, claimed),
                        Err(DecodeError::Truncated { .. }) => prop_assert_eq!(claimed, MAX_ELEMS),
                        Err(err) => prop_assert!(false, "u32 at {} set to {}: {:?}", at, claimed, err),
                    }
                    prop_assert!(after - before < 4096, "u32 at {} allocated {}", at, after - before);
                }
            }
        }

        #[test]
        fn every_frame_that_decodes_reencodes_to_exactly_its_bytes(
            msg in arb_message(),
            flip in 1u8..=255,
        ) {
            let bytes = encode(&msg);
            for idx in 0..bytes.len() {
                let corrupted = corrupt_at(&bytes, idx, bytes[idx] ^ flip);
                if let Ok(back) = decode(corrupted.clone()) {
                    prop_assert_eq!(encode(&back), corrupted, "flipped byte {}", idx);
                }
            }
        }

        #[test]
        fn a_nested_envelope_is_rejected(msg in arb_message(), request_id in any::<u64>()) {
            let traced = msg.with_ctx(CausalCtx::new(7));
            let mut frame = BytesMut::new();
            frame.put_slice(&[WIRE_VERSION, traced.tag()]);
            CausalCtx::new(request_id).put(&mut frame);
            encode_into(&traced, &mut frame);
            prop_assert_eq!(decode(frame.freeze()), Err(DecodeError::UnknownTag(traced.tag())));
        }
    }
}
