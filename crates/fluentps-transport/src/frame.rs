//! Length-prefixed framing for stream transports.
//!
//! Each frame is `[u32 len LE][u8 from_kind][u32 from_idx][payload]` where
//! `payload` is one codec-encoded message. `len` covers everything after the
//! length word itself. The sender id is the codec's `NodeId` field, so a
//! header decodes only from the bytes that encode it: a scheduler or
//! collector id with an index is `DecodeError::NonCanonical`.
//!
//! A frame whose message carries values is written as two pieces — the head
//! (length word, sender, the message's own head) from a small scratch buffer
//! and the value payload from wherever the message holds it
//! ([`write_frames`]) — and is read into one buffer of exactly its size that
//! the decoded message then shares ([`FrameReader`]). Neither direction
//! copies a value in user space.

use std::io::{self, BufRead, IoSlice, Read, Write};

use fluentps_util::buf::{BufMut, Bytes, BytesMut};

use crate::codec::{self, Field};
use crate::error::{DecodeError, TransportError};
use crate::msg::{Message, NodeId};

/// Upper bound on a single frame (256 MiB); larger declared lengths indicate
/// stream corruption and abort the connection rather than allocating.
pub const MAX_FRAME: u32 = 256 << 20;

/// How much of a frame's *declared* length a reader reserves before any of
/// it has arrived (16 MiB — above every frame this system ships). A longer
/// frame grows its buffer as the bytes actually come in, so a peer cannot
/// make a reader allocate by declaring a length it never sends.
pub const MAX_FRAME_RESERVE: usize = 16 << 20;

/// Capacity of the buffer a connection's reader keeps in front of its
/// socket (64 KiB): room for a run of small frames — a worker's push and
/// pull, their acks — to arrive in one `read`, which is what lets the reader
/// tell "another frame is already here" from "the input ran dry"
/// ([`holds_frame`]). A frame larger than this is read straight into its own
/// buffer, past this one.
pub const READ_BUFFER: usize = 64 << 10;

/// How many batches in a row a node writes to a connection it dialed
/// without reading it, before it first moves whatever the peer has answered
/// there meanwhile to its inbox (32). Replies nobody waits for are tens of
/// bytes — the `PushAck`s of a worker that only pushes, or that never pulls
/// from this server — so 32 unread batches are far from filling a socket
/// buffer; a worker that pulls reads the connection every round and never
/// gets here.
pub const UNREAD_BATCHES: u32 = 32;

/// Append the head of one frame for `(from, msg)` to `buf` — the length
/// word, the sender id and the message's own head — and return the value
/// payload that completes the frame (empty for a message without values;
/// see [`codec::encode_head_into`]). The length word already counts the
/// payload.
pub fn encode_frame_head_into<'m>(from: NodeId, msg: &'m Message, buf: &mut BytesMut) -> &'m [u8] {
    let start = buf.len();
    buf.put_u32_le(0); // length placeholder, patched below
    from.put(buf);
    let payload = codec::encode_head_into(msg, buf);
    let body_len = buf.len() - start - 4 + payload.len();
    buf.set_u32_le_at(start, body_len as u32);
    payload
}

/// Append one whole frame for `(from, msg)` to `buf` and return the frame's
/// byte length: the head, then a copy of the payload behind it. With an
/// exact reserve up front the append never reallocates (debug-asserted), so
/// a caller that `clear()`s and reuses `buf` pays zero allocations per
/// frame at steady state.
pub fn encode_frame_into(from: NodeId, msg: &Message, buf: &mut BytesMut) -> usize {
    let frame_len = wire_len(msg);
    buf.reserve(frame_len);
    let cap_before = buf.capacity();
    let start = buf.len();
    let payload = encode_frame_head_into(from, msg, buf);
    buf.put_slice(payload);
    debug_assert_eq!(buf.len() - start, frame_len, "wire_len out of sync");
    debug_assert_eq!(buf.capacity(), cap_before, "frame encode reallocated");
    frame_len
}

/// Serialize `(from, msg)` into one framed buffer ready to be written to a
/// stream in a single `write_all`. Allocates per call — hot paths should
/// use [`write_frames`] (or [`encode_frame_into`] with a reused buffer)
/// instead.
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

/// Write the frames of `msgs`, all from `from`, to `w` as one gathered
/// write: the bytes `w` receives are exactly the concatenation of
/// [`encode_frame`] of each message. Heads (and whole payload-free frames)
/// are encoded back to back into `scratch`; value payloads are handed to `w` from the messages themselves, so
/// `scratch` stays head-sized however large the tensors are. `scratch` must
/// come in empty and is left empty.
pub fn write_frames<'m, W: Write>(
    w: &mut W,
    from: NodeId,
    msgs: impl IntoIterator<Item = &'m Message>,
    scratch: &mut BytesMut,
) -> io::Result<()> {
    debug_assert!(scratch.is_empty(), "scratch holds an unwritten batch");
    // Where in `scratch` each payload-bearing frame's head ends, with the
    // payload that follows it there.
    let mut cuts: Vec<(usize, &[u8])> = Vec::new();
    for msg in msgs {
        let payload = encode_frame_head_into(from, msg, scratch);
        if !payload.is_empty() {
            cuts.push((scratch.len(), payload));
        }
    }
    let mut parts = Vec::with_capacity(2 * cuts.len() + 1);
    let mut start = 0;
    for (end, payload) in cuts {
        parts.push(IoSlice::new(&scratch[start..end]));
        parts.push(IoSlice::new(payload));
        start = end;
    }
    parts.push(IoSlice::new(&scratch[start..]));
    let result = write_all_vectored(w, &mut parts);
    scratch.clear();
    result
}

/// `write_all` for a gather list: keep calling `write_vectored` until every
/// slice is written, however few bytes each call accepts.
fn write_all_vectored<W: Write>(w: &mut W, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    // Drop empty slices up front: a writer may report `Ok(0)` for them.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Decode one frame body (everything after the length word). The message's
/// value payload, if any, shares `body`'s allocation.
pub fn decode_frame_body(mut body: Bytes) -> Result<(NodeId, Message), TransportError> {
    let from = NodeId::get(&mut body)?;
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

/// Read one frame body (everything after the length word), blocking until
/// complete, into a fresh buffer of exactly its size that nothing zeroes
/// first. The length check and the [`MAX_FRAME`] guard of every read path
/// live here. The declared length is believed only up to
/// [`MAX_FRAME_RESERVE`] before the bytes are there to back it.
fn read_body<R: Read>(r: &mut R) -> Result<Bytes, TransportError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(DecodeError::LengthOverflow(len as u64).into());
    }
    let len = len as usize;
    let mut body = Vec::with_capacity(len.min(MAX_FRAME_RESERVE));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(Bytes::from(body))
}

/// Whether `buffered` — what a reader holds of its stream but has not
/// consumed — begins with a complete frame, length word and body, so that
/// reading it cannot block.
pub fn holds_frame(buffered: &[u8]) -> bool {
    buffered
        .split_first_chunk::<4>()
        .is_some_and(|(len, body)| body.len() >= u32::from_le_bytes(*len) as usize)
}

/// Streaming frame reader. It holds no buffer between frames: each frame is
/// read into its own allocation, which the decoded message keeps alive for
/// as long as it holds the frame's values.
#[derive(Default)]
pub struct FrameReader;

impl FrameReader {
    /// A reader.
    pub fn new() -> Self {
        FrameReader
    }

    /// Read one framed message from `r`, blocking until complete.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> Result<(NodeId, Message), TransportError> {
        decode_frame_body(read_body(r)?)
    }

    /// [`FrameReader::read_from`] that tells a clean close from a broken
    /// stream: `Ok(None)` when `r` ended at a frame boundary, an error when
    /// it ended (or corrupted) anywhere else.
    pub fn read_next<R: BufRead>(
        &mut self,
        r: &mut R,
    ) -> Result<Option<(NodeId, Message)>, TransportError> {
        loop {
            match r.fill_buf() {
                Ok([]) => return Ok(None),
                Ok(_) => {
                    return decode_frame_body(read_body(r)?).map(Some);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::KvPairs;
    use std::io::Cursor;

    fn read_frame<R: Read>(r: &mut R) -> Result<(NodeId, Message), TransportError> {
        FrameReader::new().read_from(r)
    }

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

    /// A writer that accepts at most `step` bytes per call and never looks
    /// past the first non-empty slice — the least a `write_vectored` may do.
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

    #[test]
    fn write_frames_is_concatenated_encode_frame_with_a_head_sized_scratch() {
        let msgs = [
            Message::PushAck {
                server: 1,
                progress: 4,
            },
            Message::SPush {
                worker: 2,
                progress: 5,
                kv: KvPairs::single(1, vec![0.25; 4096]),
            },
            Message::Shutdown,
            Message::PullResponse {
                server: 1,
                progress: 5,
                version: 6,
                kv: KvPairs::from_slices(&[(1, &[1.0; 300][..]), (2, &[][..])]),
            }
            .with_ctx(crate::msg::CausalCtx::new(9)),
            Message::Install {
                kv: KvPairs::default(),
            },
        ];
        let from = NodeId::Server(1);
        let expect: Vec<u8> = msgs
            .iter()
            .flat_map(|m| encode_frame(from, m).to_vec())
            .collect();

        let mut scratch = BytesMut::new();
        let mut whole = Vec::new();
        write_frames(&mut whole, from, &msgs, &mut scratch).unwrap();
        assert_eq!(whole, expect);
        assert!(scratch.is_empty());
        assert!(
            scratch.capacity() < 1024,
            "scratch grew to {} for 17 KB of values",
            scratch.capacity()
        );

        // However few bytes the writer takes per call, and with no frames
        // at all.
        for step in [1, 2, 3, 7, 64, 4096] {
            let mut w = Trickle {
                got: Vec::new(),
                step,
            };
            write_frames(&mut w, from, &msgs, &mut scratch).unwrap();
            assert_eq!(w.got, expect, "step {step}");
        }
        let mut none = Vec::new();
        write_frames(&mut none, from, &[], &mut scratch).unwrap();
        assert!(none.is_empty());

        // A writer that takes nothing is an error, not a spin.
        let mut stuck = Trickle {
            got: Vec::new(),
            step: 0,
        };
        let err = write_frames(&mut stuck, from, &msgs, &mut scratch);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::WriteZero);
        assert!(scratch.is_empty(), "scratch is cleared on failure too");
    }

    #[test]
    fn a_frame_is_read_into_one_exact_buffer_the_message_shares() {
        use fluentps_util::alloc::thread_counters;
        const VALS: usize = 1 << 18; // 1 MiB of values
        let msg = Message::SPush {
            worker: 0,
            progress: 1,
            kv: KvPairs::single(3, vec![0.5; VALS]),
        };
        let stream = encode_frame(NodeId::Worker(0), &msg).to_vec();
        let (_, before) = thread_counters();
        let (_, got) = read_frame(&mut Cursor::new(&stream)).unwrap();
        let (_, after) = thread_counters();
        let body = (stream.len() - 4) as u64;
        assert!(
            (body..body + 4096).contains(&(after - before)),
            "a {body}-byte frame body allocated {} bytes",
            after - before
        );
        assert_eq!(got, msg);
    }

    #[test]
    fn declared_length_is_not_trusted_for_allocation() {
        use fluentps_util::alloc::thread_counters;
        // Nine hostile bytes: the largest legal length, one byte of body.
        let mut stream = MAX_FRAME.to_le_bytes().to_vec();
        stream.extend_from_slice(&[0u8; 5]);
        let (_, before) = thread_counters();
        let err = read_frame(&mut Cursor::new(&stream)).unwrap_err();
        let (_, after) = thread_counters();
        assert!(
            matches!(&err, TransportError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{err:?}"
        );
        // Reserved, not zeroed or otherwise touched: the pages are never
        // faulted in.
        assert!(
            after - before <= (MAX_FRAME_RESERVE + 4096) as u64,
            "EOF after a {MAX_FRAME}-byte promise allocated {} bytes",
            after - before
        );
        // Above the cap nothing is allocated at all.
        let stream = (MAX_FRAME + 1).to_le_bytes();
        let (_, before) = thread_counters();
        read_frame(&mut Cursor::new(&stream)).unwrap_err();
        let (_, after) = thread_counters();
        assert!(after - before < 1024);
    }

    #[test]
    fn a_frame_longer_than_the_reserve_still_arrives_whole() {
        // Not a frame this system sends, but a legal one: the buffer grows
        // past the reserve as the bytes come in.
        let vals = MAX_FRAME_RESERVE / 4 + 1000;
        let msg = Message::Install {
            kv: KvPairs::single(1, vec![1.0; vals]),
        };
        let stream = encode_frame(NodeId::Scheduler, &msg).to_vec();
        assert!(stream.len() > MAX_FRAME_RESERVE);
        let (_, got) = read_frame(&mut Cursor::new(&stream)).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn holds_frame_wants_the_length_word_and_the_whole_body() {
        let frame = encode_frame(NodeId::Worker(0), &Message::Shutdown);
        for cut in 0..frame.len() {
            assert!(
                !holds_frame(&frame[..cut]),
                "{cut} of {} bytes",
                frame.len()
            );
        }
        assert!(holds_frame(&frame));
        let mut run = frame.to_vec();
        run.extend_from_slice(&frame[..3]);
        assert!(holds_frame(&run), "a partial second frame changes nothing");
    }

    #[test]
    fn read_next_tells_a_clean_end_from_a_broken_one() {
        let frame = encode_frame(NodeId::Worker(0), &Message::Shutdown);
        let mut reader = FrameReader::new();
        // Two frames, then the end: two messages, then `None`, for good.
        let mut stream = Cursor::new([&frame[..], &frame[..]].concat());
        for _ in 0..2 {
            let got = reader.read_next(&mut stream).unwrap();
            assert_eq!(got, Some((NodeId::Worker(0), Message::Shutdown)));
        }
        assert_eq!(reader.read_next(&mut stream).unwrap(), None);
        assert_eq!(reader.read_next(&mut stream).unwrap(), None);
        // An end anywhere inside a frame — the length word included — is an
        // error, not an end.
        for cut in 1..frame.len() {
            let mut stream = Cursor::new(&frame[..cut]);
            let err = reader.read_next(&mut stream).unwrap_err();
            assert!(
                matches!(&err, TransportError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn a_frame_header_decodes_only_to_the_sender_that_encodes_it() {
        // A scheduler's sender id with an index: no encoder writes it.
        let mut stream = 6u32.to_le_bytes().to_vec();
        stream.extend_from_slice(&[0, 7, 0, 0, 0, 0]);
        let err = read_frame(&mut Cursor::new(&stream)).unwrap_err();
        assert!(
            matches!(err, TransportError::Decode(DecodeError::NonCanonical)),
            "{err:?}"
        );
        // Every other value of each byte of the length word and sender id:
        // an error, or a frame whose encoding is exactly the bytes read.
        let msg = Message::PushAck {
            server: 1,
            progress: 4,
        };
        let frame = encode_frame(NodeId::Server(1), &msg).to_vec();
        for at in 0..9 {
            for byte in (0..=u8::MAX).filter(|&b| b != frame[at]) {
                let mut flipped = frame.clone();
                flipped[at] = byte;
                let mut cursor = Cursor::new(&flipped);
                if let Ok((from, got)) = read_frame(&mut cursor) {
                    let read = &flipped[..cursor.position() as usize];
                    assert_eq!(
                        encode_frame(from, &got).as_ref(),
                        read,
                        "byte {at} set to {byte} decoded to {from:?}, {got:?}"
                    );
                }
            }
        }
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
