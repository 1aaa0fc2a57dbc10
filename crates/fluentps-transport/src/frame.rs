//! Length-prefixed framing for stream transports.
//!
//! Each frame is `[u32 len LE][u8 from_kind][u32 from_idx][payload]` where
//! `payload` is one codec-encoded message. `len` covers everything after the
//! length word itself.

use std::io::{Read, Write};

use fluentps_obs::Profiler;
use fluentps_util::buf::{Buf, BufMut, Bytes, BytesMut};

use crate::codec;
use crate::error::{DecodeError, TransportError};
use crate::msg::{Message, NodeId};

/// Upper bound on a single frame (256 MiB); larger declared lengths indicate
/// stream corruption and abort the connection rather than allocating.
pub const MAX_FRAME: u32 = 256 << 20;

fn node_to_pair(node: NodeId) -> (u8, u32) {
    match node {
        NodeId::Scheduler => (0, 0),
        NodeId::Server(m) => (1, m),
        NodeId::Worker(n) => (2, n),
        NodeId::Collector => (3, 0),
        NodeId::Supervisor(k) => (4, k),
    }
}

fn node_from_pair(kind: u8, idx: u32) -> Result<NodeId, DecodeError> {
    match kind {
        0 => Ok(NodeId::Scheduler),
        1 => Ok(NodeId::Server(idx)),
        2 => Ok(NodeId::Worker(idx)),
        3 => Ok(NodeId::Collector),
        4 => Ok(NodeId::Supervisor(idx)),
        other => Err(DecodeError::UnknownTag(other)),
    }
}

/// Append one frame for `(from, msg)` to `buf` and return the frame's byte
/// length. Writes the length word as a placeholder, encodes the sender id
/// and payload straight behind it, then patches the length in place — one
/// buffer, no intermediate copy. With an exact reserve up front the append
/// never reallocates (debug-asserted), so a caller that `clear()`s and
/// reuses `buf` pays zero allocations per frame at steady state.
pub fn encode_frame_into(from: NodeId, msg: &Message, buf: &mut BytesMut) -> usize {
    let frame_len = wire_len(msg);
    buf.reserve(frame_len);
    let cap_before = buf.capacity();
    let start = buf.len();
    buf.put_u32_le(0); // length placeholder, patched below
    let (kind, idx) = node_to_pair(from);
    buf.put_u8(kind);
    buf.put_u32_le(idx);
    codec::encode_into(msg, buf);
    let body_len = buf.len() - start - 4;
    buf.set_u32_le_at(start, body_len as u32);
    debug_assert_eq!(buf.len() - start, frame_len, "wire_len out of sync");
    debug_assert_eq!(buf.capacity(), cap_before, "frame encode reallocated");
    frame_len
}

/// [`encode_frame_into`] under a `wire/encode` profiler span. The span
/// covers exactly the serialization work (reserve, header, codec encode,
/// length patch); with a disabled profiler the wrapper costs two branches.
pub fn encode_frame_into_profiled(
    from: NodeId,
    msg: &Message,
    buf: &mut BytesMut,
    prof: &Profiler,
) -> usize {
    let _span = prof.enter("wire/encode");
    encode_frame_into(from, msg, buf)
}

/// Serialize `(from, msg)` into one framed buffer ready to be written to a
/// stream in a single `write_all`. Allocates per call — hot paths should
/// use [`encode_frame_into`] with a reused buffer instead.
pub fn encode_frame(from: NodeId, msg: &Message) -> Bytes {
    let mut framed = BytesMut::with_capacity(wire_len(msg));
    encode_frame_into(from, msg, &mut framed);
    framed.freeze()
}

/// Total bytes `encode_frame` produces for `msg`: the 4-byte length word,
/// the 5-byte sender id, and the codec-encoded payload. This is the number
/// the tracer reports on `WireSend`/`WireRecv` events.
pub fn wire_len(msg: &Message) -> usize {
    4 + 5 + codec::encoded_len(msg)
}

/// Decode one frame body (everything after the length word).
pub fn decode_frame_body(mut body: Bytes) -> Result<(NodeId, Message), TransportError> {
    if body.remaining() < 5 {
        return Err(DecodeError::Truncated {
            needed: 5,
            available: body.remaining(),
        }
        .into());
    }
    let kind = body.get_u8();
    let idx = body.get_u32_le();
    let from = node_from_pair(kind, idx)?;
    let msg = codec::decode(body)?;
    Ok((from, msg))
}

/// Write one framed message to a stream (one `write_all`, no flush — the
/// caller decides the flush cadence; see the batch-coalescing contract in
/// DESIGN.md § wire path).
pub fn write_frame<W: Write>(w: &mut W, from: NodeId, msg: &Message) -> Result<(), TransportError> {
    let frame = encode_frame(from, msg);
    w.write_all(&frame)?;
    Ok(())
}

/// Decode one frame body from a borrowed slice (everything after the
/// length word) without copying it into an owned buffer first.
pub fn decode_frame_slice(body: &[u8]) -> Result<(NodeId, Message), TransportError> {
    let mut cursor = body;
    if cursor.remaining() < 5 {
        return Err(DecodeError::Truncated {
            needed: 5,
            available: cursor.remaining(),
        }
        .into());
    }
    let kind = cursor.get_u8();
    let idx = cursor.get_u32_le();
    let from = node_from_pair(kind, idx)?;
    let msg = codec::decode_slice(cursor)?;
    Ok((from, msg))
}

/// Streaming frame reader that owns one reusable body buffer: each frame is
/// read into the same allocation and decoded in place, so the per-frame
/// `vec![0u8; len]` of the old read path disappears. The buffer grows to
/// the largest frame seen on the connection and stays there.
#[derive(Default)]
pub struct FrameReader {
    body: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty scratch buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Read one frame body (everything after the length word) into the
    /// scratch buffer, blocking until complete. The length check and the
    /// [`MAX_FRAME`] guard of both public read paths live here. The buffer
    /// only ever grows: a small frame after a large one reads into a prefix
    /// instead of shrinking and later re-zeroing a tensor-sized tail.
    fn read_body<R: Read>(&mut self, r: &mut R) -> Result<&[u8], TransportError> {
        let mut len_buf = [0u8; 4];
        r.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf);
        if len > MAX_FRAME {
            return Err(DecodeError::LengthOverflow(len as u64).into());
        }
        let len = len as usize;
        if self.body.len() < len {
            self.body.resize(len, 0);
        }
        let body = &mut self.body[..len];
        r.read_exact(body)?;
        Ok(body)
    }

    /// Read one framed message from `r`, blocking until complete.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> Result<(NodeId, Message), TransportError> {
        decode_frame_slice(self.read_body(r)?)
    }

    /// [`FrameReader::read_from`] with the *decode* step under a
    /// `wire/decode` profiler span. The blocking socket reads stay outside
    /// the span deliberately: time spent waiting for bytes is wire latency
    /// (the tracer's territory), not decode cost.
    pub fn read_from_profiled<R: Read>(
        &mut self,
        r: &mut R,
        prof: &Profiler,
    ) -> Result<(NodeId, Message), TransportError> {
        let body = self.read_body(r)?;
        let _span = prof.enter("wire/decode");
        decode_frame_slice(body)
    }
}

/// Read one framed message from a stream, blocking until complete.
/// Allocates a fresh body buffer per call — connection loops should hold a
/// [`FrameReader`] instead.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(NodeId, Message), TransportError> {
    FrameReader::new().read_from(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::KvPairs;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip_via_stream() {
        let msgs = vec![
            (
                NodeId::Worker(4),
                Message::SPush {
                    worker: 4,
                    progress: 17,
                    kv: KvPairs::single(2, vec![1.0, 2.0, 3.0]),
                },
            ),
            (NodeId::Scheduler, Message::Shutdown),
            (
                NodeId::Server(1),
                Message::PullResponse {
                    server: 1,
                    progress: 3,
                    version: 5,
                    kv: KvPairs::default(),
                },
            ),
        ];
        let mut stream = Vec::new();
        for (from, msg) in &msgs {
            write_frame(&mut stream, *from, msg).unwrap();
        }
        let mut cursor = Cursor::new(stream);
        for (from, msg) in &msgs {
            let (f, m) = read_frame(&mut cursor).unwrap();
            assert_eq!(f, *from);
            assert_eq!(m, *msg);
        }
    }

    #[test]
    fn wire_len_matches_encoded_frame() {
        let msgs = vec![
            Message::SPush {
                worker: 4,
                progress: 17,
                kv: KvPairs::single(2, vec![1.0, 2.0, 3.0]),
            },
            Message::SPull {
                worker: 1,
                progress: 2,
                keys: vec![0, 1, 2, 3],
            },
            Message::SPull {
                worker: 1,
                progress: 2,
                keys: vec![0, 1, 2, 3],
            }
            .with_ctx(crate::msg::CausalCtx::new(9).retry(1)),
            Message::Shutdown,
        ];
        for msg in msgs {
            assert_eq!(
                wire_len(&msg),
                encode_frame(NodeId::Worker(0), &msg).len(),
                "wire_len mismatch for {msg:?}"
            );
        }
    }

    #[test]
    fn reused_buffer_coalesces_frames_without_reallocating() {
        let msgs = vec![
            Message::SPush {
                worker: 1,
                progress: 2,
                kv: KvPairs::single(0, vec![0.5; 32]),
            },
            Message::SPull {
                worker: 1,
                progress: 2,
                keys: vec![0, 1],
            },
            Message::Shutdown,
        ];
        let mut buf = BytesMut::new();
        // Warm the buffer once, then the steady-state batch must not grow it.
        for m in &msgs {
            encode_frame_into(NodeId::Worker(1), m, &mut buf);
        }
        buf.clear();
        let warm_cap = buf.capacity();
        let mut total = 0;
        for m in &msgs {
            total += encode_frame_into(NodeId::Worker(1), m, &mut buf);
        }
        assert_eq!(buf.len(), total);
        assert_eq!(buf.capacity(), warm_cap, "steady-state batch reallocated");
        // The coalesced bytes decode back to the same frame sequence.
        let mut cursor = Cursor::new(buf.as_ref().to_vec());
        let mut reader = FrameReader::new();
        for m in &msgs {
            let (from, got) = reader.read_from(&mut cursor).unwrap();
            assert_eq!(from, NodeId::Worker(1));
            assert_eq!(got, *m);
        }
    }

    #[test]
    fn frame_reader_matches_read_frame() {
        let mut stream = Vec::new();
        for seq in 0..10u64 {
            write_frame(
                &mut stream,
                NodeId::Server(1),
                &Message::Heartbeat {
                    node: NodeId::Server(1),
                    seq,
                },
            )
            .unwrap();
        }
        let mut a = Cursor::new(stream.clone());
        let mut b = Cursor::new(stream);
        let mut reader = FrameReader::new();
        for _ in 0..10 {
            assert_eq!(
                reader.read_from(&mut a).unwrap(),
                read_frame(&mut b).unwrap()
            );
        }
    }

    #[test]
    fn profiled_wrappers_match_plain_and_record_wire_spans() {
        use fluentps_obs::ProfCollector;
        let msg = Message::SPush {
            worker: 2,
            progress: 5,
            kv: KvPairs::single(1, vec![0.25; 16]),
        };
        let col = ProfCollector::wall();
        let prof = col.profiler();
        let mut plain = BytesMut::new();
        let mut profiled = BytesMut::new();
        encode_frame_into(NodeId::Worker(2), &msg, &mut plain);
        encode_frame_into_profiled(NodeId::Worker(2), &msg, &mut profiled, &prof);
        assert_eq!(plain.as_ref(), profiled.as_ref());

        let mut cursor = Cursor::new(profiled.as_ref().to_vec());
        let mut reader = FrameReader::new();
        let (from, got) = reader.read_from_profiled(&mut cursor, &prof).unwrap();
        assert_eq!((from, got), (NodeId::Worker(2), msg));

        let report = col.snapshot();
        assert_eq!(report.spans["wire/encode"].count, 1);
        assert_eq!(report.spans["wire/decode"].count, 1);

        // Disabled profiler: same bytes, nothing recorded.
        let disabled = Profiler::disabled();
        let mut buf = BytesMut::new();
        encode_frame_into_profiled(NodeId::Worker(2), &Message::Shutdown, &mut buf, &disabled);
        let mut cursor = Cursor::new(buf.as_ref().to_vec());
        reader.read_from_profiled(&mut cursor, &disabled).unwrap();
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_frame(&mut Cursor::new(stream)).unwrap_err();
        assert!(matches!(
            err,
            TransportError::Decode(DecodeError::LengthOverflow(_))
        ));
    }

    #[test]
    fn short_stream_is_io_error() {
        let frame = encode_frame(NodeId::Worker(0), &Message::Shutdown);
        let cut = &frame[..frame.len() - 1];
        let err = read_frame(&mut Cursor::new(cut.to_vec())).unwrap_err();
        assert!(matches!(err, TransportError::Io(_)));
    }
}
