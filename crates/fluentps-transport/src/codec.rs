//! Hand-rolled binary wire codec.
//!
//! Layout: one version byte, one tag byte, then little-endian fields. Vectors
//! are a `u32` count followed by elements. `f32` travels as its IEEE-754 bit
//! pattern. Every integer vector is written and read as one *slab* through
//! the `fluentps-util::buf` slab operations — one bounds check and one pass
//! per vector, not per element. Values are never converted here at all: a
//! [`KvPairs`] already holds them in wire form ([`Values`]), so every message
//! is a small *head* followed by at most one value *payload* that is always
//! its last field. [`encode_head_into`] writes the head and hands the payload
//! back for the caller to place (the TCP postman gives it to the kernel
//! where it lies); [`decode`] slices the payload out of the frame it was
//! given. The codec is fully self-contained (no serde) because the offline
//! dependency set has no serialization *format* crate; this also keeps frames
//! compact and decode costs predictable, which matters because gradients for
//! large layers dominate traffic.

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

mod tag {
    pub const SPUSH: u8 = 1;
    pub const SPULL: u8 = 2;
    pub const PUSH_ACK: u8 = 3;
    pub const PULL_RESPONSE: u8 = 4;
    // 5, 6 and 8 stay reserved: they were `Register`, `RegisterAck` and
    // `Barrier`, and a peer that still sends one must be told "unknown tag".
    pub const HEARTBEAT: u8 = 7;
    pub const SHUTDOWN: u8 = 9;
    pub const INSTALL: u8 = 10;
    pub const ROUTE_UPDATE: u8 = 11;
    pub const TRACE_BATCH: u8 = 12;
    pub const CLOCK_PING: u8 = 13;
    pub const CLOCK_PONG: u8 = 14;
    pub const VOTE_REQUEST: u8 = 15;
    pub const VOTE_RESPONSE: u8 = 16;
    pub const APPEND_ENTRIES: u8 = 17;
    pub const APPEND_ACK: u8 = 18;
    pub const LEADER_REDIRECT: u8 = 19;
    pub const TRACED: u8 = 20;
}

mod node_tag {
    pub const SCHEDULER: u8 = 0;
    pub const SERVER: u8 = 1;
    pub const WORKER: u8 = 2;
    pub const COLLECTOR: u8 = 3;
    pub const SUPERVISOR: u8 = 4;
}

/// Encoded size of one [`TraceEvent`]: two f64 bit patterns, the kind index
/// byte, two u32 actor ids, four u64 logical fields, and the causal context
/// (`request_id` u64, `attempt` u32, `parent_span` u32).
const EVENT_WIRE_LEN: usize = 8 + 8 + 1 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4;

/// Encoded size of one [`WirePlacement`] record: two u64 keys, then server,
/// offset and length as u32.
const PLACEMENT_WIRE_LEN: usize = 8 + 8 + 4 + 4 + 4;

/// Encode a message into a fresh byte buffer, sized exactly via
/// [`encoded_len`] so encoding never reallocates mid-write (the old
/// `payload_bytes() + 16` estimate under-counted KV-heavy messages and
/// forced a mid-encode reallocation on the hot path).
pub fn encode(msg: &Message) -> Bytes {
    let exact = encoded_len(msg);
    let mut buf = BytesMut::with_capacity(exact);
    let cap_before = buf.capacity();
    encode_into(msg, &mut buf);
    debug_assert_eq!(buf.len(), exact, "encoded_len out of sync with encode");
    debug_assert_eq!(
        buf.capacity(),
        cap_before,
        "encode reallocated: reserve was under-sized"
    );
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
    buf.put_u8(WIRE_VERSION);
    match msg {
        Message::SPush {
            worker,
            progress,
            kv,
        } => {
            buf.put_u8(tag::SPUSH);
            buf.put_u32_le(*worker);
            buf.put_u64_le(*progress);
            return put_kv_head(buf, kv);
        }
        Message::SPull {
            worker,
            progress,
            keys,
        } => {
            buf.put_u8(tag::SPULL);
            buf.put_u32_le(*worker);
            buf.put_u64_le(*progress);
            put_u64_vec(buf, keys);
        }
        Message::PushAck { server, progress } => {
            buf.put_u8(tag::PUSH_ACK);
            buf.put_u32_le(*server);
            buf.put_u64_le(*progress);
        }
        Message::PullResponse {
            server,
            progress,
            kv,
            version,
        } => return put_pull_response_head(buf, *server, *progress, *version, kv),
        Message::Heartbeat { node, seq } => {
            buf.put_u8(tag::HEARTBEAT);
            put_node(buf, *node);
            buf.put_u64_le(*seq);
        }
        Message::Shutdown => {
            buf.put_u8(tag::SHUTDOWN);
        }
        Message::Install { kv } => {
            buf.put_u8(tag::INSTALL);
            return put_kv_head(buf, kv);
        }
        Message::RouteUpdate { placements } => {
            buf.put_u8(tag::ROUTE_UPDATE);
            buf.put_u32_le(placements.len() as u32);
            for p in placements {
                let mut rec = [0u8; PLACEMENT_WIRE_LEN];
                rec[0..8].copy_from_slice(&p.orig_key.to_le_bytes());
                rec[8..16].copy_from_slice(&p.new_key.to_le_bytes());
                rec[16..20].copy_from_slice(&p.server.to_le_bytes());
                rec[20..24].copy_from_slice(&p.offset.to_le_bytes());
                rec[24..28].copy_from_slice(&p.len.to_le_bytes());
                buf.put_slice(&rec);
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
            buf.put_u8(tag::TRACE_BATCH);
            put_node(buf, *node);
            buf.put_u64_le(offset_secs.to_bits());
            buf.put_u64_le(*batch_seq);
            buf.put_u64_le(*emitted);
            buf.put_u64_le(*dropped);
            buf.put_u32_le(events.len() as u32);
            for e in events {
                put_event(buf, e);
            }
        }
        Message::ClockPing { node, seq, t_send } => {
            buf.put_u8(tag::CLOCK_PING);
            put_node(buf, *node);
            buf.put_u64_le(*seq);
            buf.put_u64_le(t_send.to_bits());
        }
        Message::ClockPong {
            seq,
            t_send,
            t_collector,
        } => {
            buf.put_u8(tag::CLOCK_PONG);
            buf.put_u64_le(*seq);
            buf.put_u64_le(t_send.to_bits());
            buf.put_u64_le(t_collector.to_bits());
        }
        Message::VoteRequest {
            term,
            candidate,
            last_log_index,
            last_log_term,
        } => {
            buf.put_u8(tag::VOTE_REQUEST);
            buf.put_u64_le(*term);
            buf.put_u32_le(*candidate);
            buf.put_u64_le(*last_log_index);
            buf.put_u64_le(*last_log_term);
        }
        Message::VoteResponse {
            term,
            voter,
            granted,
        } => {
            buf.put_u8(tag::VOTE_RESPONSE);
            buf.put_u64_le(*term);
            buf.put_u32_le(*voter);
            buf.put_u8(u8::from(*granted));
        }
        Message::AppendEntries {
            term,
            leader,
            prev_index,
            prev_term,
            commit,
            entries,
        } => {
            buf.put_u8(tag::APPEND_ENTRIES);
            buf.put_u64_le(*term);
            buf.put_u32_le(*leader);
            buf.put_u64_le(*prev_index);
            buf.put_u64_le(*prev_term);
            buf.put_u64_le(*commit);
            buf.put_u32_le(entries.len() as u32);
            for e in entries {
                buf.put_u64_le(e.term);
                buf.put_u64_le(e.index);
                buf.put_u32_le(e.cmd.len() as u32);
                buf.extend_from_slice(&e.cmd);
            }
        }
        Message::AppendAck {
            term,
            follower,
            ok,
            match_index,
        } => {
            buf.put_u8(tag::APPEND_ACK);
            buf.put_u64_le(*term);
            buf.put_u32_le(*follower);
            buf.put_u8(u8::from(*ok));
            buf.put_u64_le(*match_index);
        }
        Message::LeaderRedirect { term, leader } => {
            buf.put_u8(tag::LEADER_REDIRECT);
            buf.put_u64_le(*term);
            buf.put_u32_le(*leader);
        }
        Message::Traced { ctx, inner } => {
            buf.put_u8(tag::TRACED);
            buf.put_u64_le(ctx.request_id);
            buf.put_u16_le(ctx.attempt);
            buf.put_u32_le(ctx.parent_span);
            // The inner message is a complete encoded message (its own
            // version byte included), so a receiver peels the envelope and
            // re-enters the ordinary decode path.
            return encode_head_into(inner, buf);
        }
    }
    &[]
}

/// Encode a `PullResponse` from borrowed parts, appending to `buf` — the
/// bytes of [`encode_into`] on the owned message. For a caller that holds the
/// batch by reference (checkpoint serialization) and would otherwise clone a
/// whole shard just to build the message.
pub fn encode_pull_response_into(
    server: u32,
    progress: u64,
    version: u64,
    kv: &KvPairs,
    buf: &mut BytesMut,
) {
    buf.put_u8(WIRE_VERSION);
    let payload = put_pull_response_head(buf, server, progress, version, kv);
    buf.put_slice(payload);
}

fn put_pull_response_head<'m>(
    buf: &mut BytesMut,
    server: u32,
    progress: u64,
    version: u64,
    kv: &'m KvPairs,
) -> &'m [u8] {
    buf.put_u8(tag::PULL_RESPONSE);
    buf.put_u32_le(server);
    buf.put_u64_le(progress);
    buf.put_u64_le(version);
    put_kv_head(buf, kv)
}

/// Exact size in bytes of `encode(msg)` — what this message costs on the
/// wire before framing. Byte accounting (`ShardStats::bytes_in/out`, the
/// tracer's `WireSend`/`WireRecv` events) uses this instead of
/// hand-estimates so ablation tables match real traffic.
pub fn encoded_len(msg: &Message) -> usize {
    let header = 2; // version + tag
    header
        + match msg {
            Message::SPush { kv, .. } => 4 + 8 + kv_encoded_len(kv),
            Message::SPull { keys, .. } => 4 + 8 + 4 + 8 * keys.len(),
            Message::PushAck { .. } => 4 + 8,
            Message::PullResponse { kv, .. } => 4 + 8 + 8 + kv_encoded_len(kv),
            Message::Heartbeat { .. } => 5 + 8,
            Message::Shutdown => 0,
            Message::Install { kv } => kv_encoded_len(kv),
            Message::RouteUpdate { placements } => 4 + PLACEMENT_WIRE_LEN * placements.len(),
            Message::TraceBatch { events, .. } => {
                5 + 8 + 8 + 8 + 8 + 4 + EVENT_WIRE_LEN * events.len()
            }
            Message::ClockPing { .. } => 5 + 8 + 8,
            Message::ClockPong { .. } => 8 + 8 + 8,
            Message::VoteRequest { .. } => 8 + 4 + 8 + 8,
            Message::VoteResponse { .. } => 8 + 4 + 1,
            Message::AppendEntries { entries, .. } => {
                8 + 4
                    + 8
                    + 8
                    + 8
                    + 4
                    + entries
                        .iter()
                        .map(|e| LOG_ENTRY_HEADER_LEN + e.cmd.len())
                        .sum::<usize>()
            }
            Message::AppendAck { .. } => 8 + 4 + 1 + 8,
            Message::LeaderRedirect { .. } => 8 + 4,
            // ctx (request_id + attempt + parent_span) followed by the
            // complete inner encoding, inner header included.
            Message::Traced { inner, .. } => 8 + 2 + 4 + encoded_len(inner),
        }
}

/// Fixed-size prefix of one encoded [`WireLogEntry`]: term, index and the
/// command byte count. Doubles as the per-element lower bound fed to
/// [`check_len`] when decoding an `AppendEntries` entry vector.
const LOG_ENTRY_HEADER_LEN: usize = 8 + 8 + 4;

fn kv_encoded_len(kv: &KvPairs) -> usize {
    (4 + 8 * kv.keys.len()) + (4 + 4 * kv.lens.len()) + (4 + 4 * kv.vals.len())
}

/// Encoded size of an `SPull` carrying `num_keys` keys, without building
/// the message.
pub fn spull_wire_len(num_keys: usize) -> usize {
    2 + 4 + 8 + 4 + 8 * num_keys
}

/// Encoded size of an `SPush` carrying `kv`, without building the message.
pub fn spush_wire_len(kv: &KvPairs) -> usize {
    2 + 4 + 8 + kv_encoded_len(kv)
}

/// [`spush_wire_len`] from entry counts alone — for simulations that model
/// payload sizes without materializing values (`num_keys` keys, each with a
/// length entry, and `num_vals` total f32 values).
pub fn spush_wire_len_counts(num_keys: usize, num_vals: usize) -> usize {
    2 + 4 + 8 + kv_encoded_len_counts(num_keys, num_vals)
}

/// [`pull_response_wire_len`] from entry counts alone.
pub fn pull_response_wire_len_counts(num_keys: usize, num_vals: usize) -> usize {
    2 + 4 + 8 + 8 + kv_encoded_len_counts(num_keys, num_vals)
}

fn kv_encoded_len_counts(num_keys: usize, num_vals: usize) -> usize {
    (4 + 8 * num_keys) + (4 + 4 * num_keys) + (4 + 4 * num_vals)
}

/// Encoded size of a `PullResponse` carrying `kv`, without building the
/// message.
pub fn pull_response_wire_len(kv: &KvPairs) -> usize {
    2 + 4 + 8 + 8 + kv_encoded_len(kv)
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
/// tag byte could silently misparse a long message as a short one. A value
/// payload is not copied: the decoded [`KvPairs`] shares `bytes`' allocation.
pub fn decode(mut bytes: Bytes) -> Result<Message, DecodeError> {
    let msg = decode_from(&mut bytes)?;
    if bytes.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(bytes.remaining()));
    }
    Ok(msg)
}

/// [`decode`] from a borrowed slice, for a caller that does not own the
/// bytes: a value payload is copied out once, at its exact size. Enforces
/// the same exactly-one-message contract as [`decode`].
pub fn decode_slice(bytes: &[u8]) -> Result<Message, DecodeError> {
    let mut cursor = bytes;
    let msg = decode_from(&mut cursor)?;
    if cursor.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(cursor.remaining()));
    }
    Ok(msg)
}

/// Decode one message from any [`Buf`] cursor.
pub fn decode_from<B: Buf>(buf: &mut B) -> Result<Message, DecodeError> {
    let version = get_u8(buf)?;
    if version != WIRE_VERSION {
        return Err(DecodeError::VersionMismatch {
            expected: WIRE_VERSION,
            found: version,
        });
    }
    let t = get_u8(buf)?;
    let msg = match t {
        tag::SPUSH => Message::SPush {
            worker: get_u32(buf)?,
            progress: get_u64(buf)?,
            kv: get_kv(buf)?,
        },
        tag::SPULL => Message::SPull {
            worker: get_u32(buf)?,
            progress: get_u64(buf)?,
            keys: get_u64_vec(buf)?,
        },
        tag::PUSH_ACK => Message::PushAck {
            server: get_u32(buf)?,
            progress: get_u64(buf)?,
        },
        tag::PULL_RESPONSE => Message::PullResponse {
            server: get_u32(buf)?,
            progress: get_u64(buf)?,
            version: get_u64(buf)?,
            kv: get_kv(buf)?,
        },
        tag::HEARTBEAT => Message::Heartbeat {
            node: get_node(buf)?,
            seq: get_u64(buf)?,
        },
        tag::SHUTDOWN => Message::Shutdown,
        tag::TRACE_BATCH => {
            let node = get_node(buf)?;
            let offset_secs = f64::from_bits(get_u64(buf)?);
            let batch_seq = get_u64(buf)?;
            let emitted = get_u64(buf)?;
            let dropped = get_u64(buf)?;
            let count = get_u32(buf)? as u64;
            let n = check_len(buf, count, EVENT_WIRE_LEN)?;
            let mut events = Vec::with_capacity(n);
            for _ in 0..n {
                events.push(get_event(buf)?);
            }
            Message::TraceBatch {
                node,
                offset_secs,
                batch_seq,
                emitted,
                dropped,
                events,
            }
        }
        tag::CLOCK_PING => Message::ClockPing {
            node: get_node(buf)?,
            seq: get_u64(buf)?,
            t_send: f64::from_bits(get_u64(buf)?),
        },
        tag::CLOCK_PONG => Message::ClockPong {
            seq: get_u64(buf)?,
            t_send: f64::from_bits(get_u64(buf)?),
            t_collector: f64::from_bits(get_u64(buf)?),
        },
        tag::INSTALL => Message::Install { kv: get_kv(buf)? },
        tag::ROUTE_UPDATE => {
            let count = get_u32(buf)? as u64;
            let n = check_len(buf, count, PLACEMENT_WIRE_LEN)?;
            let placements = buf.chunk()[..n * PLACEMENT_WIRE_LEN]
                .chunks_exact(PLACEMENT_WIRE_LEN)
                .map(|rec| WirePlacement {
                    orig_key: u64::from_le_bytes(rec[0..8].try_into().unwrap()),
                    new_key: u64::from_le_bytes(rec[8..16].try_into().unwrap()),
                    server: u32::from_le_bytes(rec[16..20].try_into().unwrap()),
                    offset: u32::from_le_bytes(rec[20..24].try_into().unwrap()),
                    len: u32::from_le_bytes(rec[24..28].try_into().unwrap()),
                })
                .collect();
            buf.advance(n * PLACEMENT_WIRE_LEN);
            Message::RouteUpdate { placements }
        }
        tag::VOTE_REQUEST => Message::VoteRequest {
            term: get_u64(buf)?,
            candidate: get_u32(buf)?,
            last_log_index: get_u64(buf)?,
            last_log_term: get_u64(buf)?,
        },
        tag::VOTE_RESPONSE => Message::VoteResponse {
            term: get_u64(buf)?,
            voter: get_u32(buf)?,
            granted: get_u8(buf)? != 0,
        },
        tag::APPEND_ENTRIES => {
            let term = get_u64(buf)?;
            let leader = get_u32(buf)?;
            let prev_index = get_u64(buf)?;
            let prev_term = get_u64(buf)?;
            let commit = get_u64(buf)?;
            let count = get_u32(buf)? as u64;
            // Entries are variable-sized; check_len against the fixed
            // per-entry header bounds the count before allocating.
            let n = check_len(buf, count, LOG_ENTRY_HEADER_LEN)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let e_term = get_u64(buf)?;
                let e_index = get_u64(buf)?;
                let cmd_len = get_u32(buf)? as u64;
                let cmd_n = check_len(buf, cmd_len, 1)?;
                entries.push(WireLogEntry {
                    term: e_term,
                    index: e_index,
                    cmd: get_bytes(buf, cmd_n),
                });
            }
            Message::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                commit,
                entries,
            }
        }
        tag::APPEND_ACK => Message::AppendAck {
            term: get_u64(buf)?,
            follower: get_u32(buf)?,
            ok: get_u8(buf)? != 0,
            match_index: get_u64(buf)?,
        },
        tag::LEADER_REDIRECT => Message::LeaderRedirect {
            term: get_u64(buf)?,
            leader: get_u32(buf)?,
        },
        tag::TRACED => {
            let ctx = CausalCtx {
                request_id: get_u64(buf)?,
                attempt: get_u16(buf)?,
                parent_span: get_u32(buf)?,
            };
            let inner = decode_from(buf)?;
            // One context per wire message: a nested envelope means a
            // corrupt or malicious frame, not a legitimate sender.
            if matches!(inner, Message::Traced { .. }) {
                return Err(DecodeError::UnknownTag(tag::TRACED));
            }
            Message::Traced {
                ctx,
                inner: Box::new(inner),
            }
        }
        other => return Err(DecodeError::UnknownTag(other)),
    };
    Ok(msg)
}

fn put_node(buf: &mut BytesMut, node: NodeId) {
    match node {
        NodeId::Scheduler => {
            buf.put_u8(node_tag::SCHEDULER);
            buf.put_u32_le(0);
        }
        NodeId::Server(m) => {
            buf.put_u8(node_tag::SERVER);
            buf.put_u32_le(m);
        }
        NodeId::Worker(n) => {
            buf.put_u8(node_tag::WORKER);
            buf.put_u32_le(n);
        }
        NodeId::Collector => {
            buf.put_u8(node_tag::COLLECTOR);
            buf.put_u32_le(0);
        }
        NodeId::Supervisor(k) => {
            buf.put_u8(node_tag::SUPERVISOR);
            buf.put_u32_le(k);
        }
    }
}

fn get_node<B: Buf>(buf: &mut B) -> Result<NodeId, DecodeError> {
    let kind = get_u8(buf)?;
    let idx = get_u32(buf)?;
    match kind {
        node_tag::SCHEDULER => Ok(NodeId::Scheduler),
        node_tag::SERVER => Ok(NodeId::Server(idx)),
        node_tag::WORKER => Ok(NodeId::Worker(idx)),
        node_tag::COLLECTOR => Ok(NodeId::Collector),
        node_tag::SUPERVISOR => Ok(NodeId::Supervisor(idx)),
        other => Err(DecodeError::UnknownTag(other)),
    }
}

/// Read `n` raw bytes from the cursor; the caller has already bounds-checked
/// `n` against `remaining()` via [`check_len`].
fn get_bytes<B: Buf>(buf: &mut B, n: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(n);
    while v.len() < n {
        let chunk = buf.chunk();
        let take = (n - v.len()).min(chunk.len());
        v.extend_from_slice(&chunk[..take]);
        buf.advance(take);
    }
    v
}

fn put_event(buf: &mut BytesMut, e: &TraceEvent) {
    buf.put_u64_le(e.ts.to_bits());
    buf.put_u64_le(e.dur.to_bits());
    buf.put_u8(e.kind.index() as u8);
    buf.put_u32_le(e.shard);
    buf.put_u32_le(e.worker);
    buf.put_u64_le(e.progress);
    buf.put_u64_le(e.v_train);
    buf.put_u64_le(e.bytes);
    buf.put_u64_le(e.seq);
    buf.put_u64_le(e.request_id);
    buf.put_u32_le(e.attempt);
    buf.put_u32_le(e.parent_span);
}

fn get_event<B: Buf>(buf: &mut B) -> Result<TraceEvent, DecodeError> {
    // `check_len` in the caller guarantees `EVENT_WIRE_LEN` bytes remain.
    let ts = f64::from_bits(buf.get_u64_le());
    let dur = f64::from_bits(buf.get_u64_le());
    let kind_idx = buf.get_u8();
    let kind = *EventKind::ALL
        .get(kind_idx as usize)
        .ok_or(DecodeError::UnknownTag(kind_idx))?;
    Ok(TraceEvent {
        ts,
        dur,
        kind,
        shard: buf.get_u32_le(),
        worker: buf.get_u32_le(),
        progress: buf.get_u64_le(),
        v_train: buf.get_u64_le(),
        bytes: buf.get_u64_le(),
        seq: buf.get_u64_le(),
        request_id: buf.get_u64_le(),
        attempt: buf.get_u32_le(),
        parent_span: buf.get_u32_le(),
    })
}

/// Keys, lens and the value count; the values themselves are the returned
/// payload.
fn put_kv_head<'m>(buf: &mut BytesMut, kv: &'m KvPairs) -> &'m [u8] {
    put_u64_vec(buf, &kv.keys);
    put_u32_vec(buf, &kv.lens);
    buf.put_u32_le(kv.vals.len() as u32);
    kv.vals.as_le_bytes()
}

fn get_kv<B: Buf>(buf: &mut B) -> Result<KvPairs, DecodeError> {
    let keys = get_u64_vec(buf)?;
    let lens = get_u32_vec(buf)?;
    let count = get_u32(buf)? as u64;
    let n = check_len(buf, count, 4)?;
    let kv = KvPairs {
        keys,
        lens,
        vals: Values::from_le_bytes(buf.take_bytes(4 * n)),
    };
    if !kv.is_consistent() {
        return Err(DecodeError::InconsistentKv);
    }
    Ok(kv)
}

fn put_u64_vec(buf: &mut BytesMut, v: &[u64]) {
    buf.put_u32_le(v.len() as u32);
    buf.put_u64_slice_le(v);
}

fn put_u32_vec(buf: &mut BytesMut, v: &[u32]) {
    buf.put_u32_le(v.len() as u32);
    buf.put_u32_slice_le(v);
}

fn check_len<B: Buf>(buf: &B, count: u64, elem_size: usize) -> Result<usize, DecodeError> {
    if count > MAX_ELEMS {
        return Err(DecodeError::LengthOverflow(count));
    }
    let n = count as usize;
    let needed = n * elem_size;
    if buf.remaining() < needed {
        return Err(DecodeError::Truncated {
            needed,
            available: buf.remaining(),
        });
    }
    Ok(n)
}

fn get_u64_vec<B: Buf>(buf: &mut B) -> Result<Vec<u64>, DecodeError> {
    let count = get_u32(buf)? as u64;
    let n = check_len(buf, count, 8)?;
    Ok(buf.get_u64_vec_le(n))
}

fn get_u32_vec<B: Buf>(buf: &mut B) -> Result<Vec<u32>, DecodeError> {
    let count = get_u32(buf)? as u64;
    let n = check_len(buf, count, 4)?;
    Ok(buf.get_u32_vec_le(n))
}

fn get_u8<B: Buf>(buf: &mut B) -> Result<u8, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated {
            needed: 1,
            available: buf.remaining(),
        });
    }
    Ok(buf.get_u8())
}

fn get_u16<B: Buf>(buf: &mut B) -> Result<u16, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated {
            needed: 2,
            available: buf.remaining(),
        });
    }
    Ok(buf.get_u16_le())
}

fn get_u32<B: Buf>(buf: &mut B) -> Result<u32, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated {
            needed: 4,
            available: buf.remaining(),
        });
    }
    Ok(buf.get_u32_le())
}

fn get_u64<B: Buf>(buf: &mut B) -> Result<u64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated {
            needed: 8,
            available: buf.remaining(),
        });
    }
    Ok(buf.get_u64_le())
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    parent_span: 3,
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
            .with_ctx(CausalCtx::new((4u64 << 40) | 7).retry(1).span(2)),
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
        buf.put_u32_le(u32::MAX); // parent_span
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
            2 + CausalCtx::WIRE_LEN + encoded_len(&msg)
        );
        // One encoded TraceEvent occupies exactly EVENT_WIRE_LEN bytes.
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
        assert_eq!(encoded_len(&one) - encoded_len(&empty), EVENT_WIRE_LEN);
        assert_eq!(EVENT_WIRE_LEN, 73);
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
    fn encoded_len_matches_encode_exactly() {
        let msgs = vec![
            Message::SPush {
                worker: 3,
                progress: 42,
                kv: KvPairs::from_slices(&[(1, &[1.5, -2.5][..]), (9, &[0.0][..])]),
            },
            Message::SPull {
                worker: 7,
                progress: 11,
                keys: vec![0, 5, u64::MAX],
            },
            Message::SPull {
                worker: 0,
                progress: 0,
                keys: vec![],
            },
            Message::PushAck {
                server: 2,
                progress: 100,
            },
            Message::PullResponse {
                server: 1,
                progress: 9,
                version: 13,
                kv: KvPairs::single(4, vec![3.25; 7]),
            },
            Message::Heartbeat {
                node: NodeId::Server(5),
                seq: 999,
            },
            Message::Shutdown,
            Message::Install {
                kv: KvPairs::single(8, vec![2.5; 3]),
            },
            Message::RouteUpdate {
                placements: vec![WirePlacement {
                    orig_key: 1,
                    new_key: 2,
                    server: 0,
                    offset: 0,
                    len: 4,
                }],
            },
            Message::TraceBatch {
                node: NodeId::Server(1),
                offset_secs: 0.5,
                batch_seq: 2,
                emitted: 10,
                dropped: 1,
                events: vec![TraceEvent {
                    ts: 0.25,
                    dur: 0.0,
                    kind: EventKind::WireRecv,
                    shard: 1,
                    worker: 0,
                    progress: 4,
                    v_train: 3,
                    bytes: 64,
                    seq: 9,
                    request_id: 7,
                    attempt: 2,
                    parent_span: 1,
                }],
            },
            Message::ClockPing {
                node: NodeId::Worker(3),
                seq: 1,
                t_send: 0.5,
            },
            Message::ClockPong {
                seq: 1,
                t_send: 0.5,
                t_collector: 0.75,
            },
            Message::VoteRequest {
                term: 2,
                candidate: 0,
                last_log_index: 4,
                last_log_term: 1,
            },
            Message::VoteResponse {
                term: 2,
                voter: 1,
                granted: true,
            },
            Message::AppendEntries {
                term: 2,
                leader: 0,
                prev_index: 4,
                prev_term: 1,
                commit: 3,
                entries: vec![
                    WireLogEntry {
                        term: 2,
                        index: 5,
                        cmd: vec![0],
                    },
                    WireLogEntry {
                        term: 2,
                        index: 6,
                        cmd: vec![1, 7, 0, 0, 0],
                    },
                ],
            },
            Message::AppendAck {
                term: 2,
                follower: 1,
                ok: true,
                match_index: 6,
            },
            Message::LeaderRedirect { term: 2, leader: 0 },
        ];
        for msg in msgs {
            assert_eq!(
                encoded_len(&msg),
                encode(&msg).len(),
                "encoded_len mismatch for {msg:?}"
            );
        }
    }

    #[test]
    fn wire_len_helpers_match_built_messages() {
        let keys = vec![1u64, 2, 3];
        let kv = KvPairs::from_slices(&[(1, &[1.0, 2.0][..]), (2, &[3.0][..])]);
        assert_eq!(
            spull_wire_len(keys.len()),
            encode(&Message::SPull {
                worker: 0,
                progress: 0,
                keys
            })
            .len()
        );
        assert_eq!(
            spush_wire_len(&kv),
            encode(&Message::SPush {
                worker: 0,
                progress: 0,
                kv: kv.clone()
            })
            .len()
        );
        // Count-based variants agree with the kv-based ones (3 values
        // across 2 keys in the fixture).
        assert_eq!(spush_wire_len_counts(2, 3), spush_wire_len(&kv));
        assert_eq!(
            pull_response_wire_len_counts(2, 3),
            pull_response_wire_len(&kv)
        );
        assert_eq!(
            pull_response_wire_len(&kv),
            encode(&Message::PullResponse {
                server: 0,
                progress: 0,
                version: 0,
                kv
            })
            .len()
        );
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
}
