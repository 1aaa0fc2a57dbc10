//! Transport error type shared by all transports and the codec.

use std::fmt;

/// Errors surfaced by transports and the wire codec.
#[derive(Debug)]
pub enum TransportError {
    /// The peer (or the whole fabric) has shut down; no more messages will
    /// flow on this endpoint.
    Disconnected,
    /// A message was addressed to a node this transport does not know.
    UnknownNode(crate::msg::NodeId),
    /// A request went unanswered past its deadline and the retry budget is
    /// exhausted (client-side resilience layer).
    Timeout,
    /// The wire bytes could not be decoded into a [`crate::Message`].
    Decode(DecodeError),
    /// An I/O error from a stream transport (TCP).
    Io(std::io::Error),
}

/// Detailed decode failure reasons, useful in tests and when diagnosing
/// protocol version mismatches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the announced payload was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The first byte did not name a known message kind.
    UnknownTag(u8),
    /// The protocol version byte did not match [`crate::codec::WIRE_VERSION`].
    VersionMismatch {
        /// Version this build speaks.
        expected: u8,
        /// Version found on the wire.
        found: u8,
    },
    /// A `KvPairs` section had inconsistent lengths (sum of `lens` must equal
    /// `vals.len()` and `lens.len()` must equal `keys.len()`).
    InconsistentKv,
    /// A declared length would exceed the sanity cap (corrupt frame).
    LengthOverflow(u64),
    /// A buffer that must hold exactly one message had bytes left after it
    /// (a corrupted tag can turn a long message into a short one; the
    /// leftovers are how that misparse is caught).
    TrailingBytes(usize),
    /// A field held bytes no encoder writes — a `bool` byte other than 0 or
    /// 1, an index on a node kind that has none — so the message would
    /// re-encode to different bytes.
    NonCanonical,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "transport disconnected"),
            TransportError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            TransportError::Timeout => write!(f, "request timed out; retries exhausted"),
            TransportError::Decode(e) => write!(f, "decode error: {e}"),
            TransportError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t:#x}"),
            DecodeError::VersionMismatch { expected, found } => {
                write!(
                    f,
                    "wire version mismatch: expected {expected}, found {found}"
                )
            }
            DecodeError::InconsistentKv => write!(f, "inconsistent KvPairs lengths"),
            DecodeError::LengthOverflow(n) => write!(f, "declared length {n} exceeds cap"),
            DecodeError::TrailingBytes(n) => {
                write!(f, "{n} bytes left after a complete message")
            }
            DecodeError::NonCanonical => write!(f, "a field's bytes are not its encoding"),
        }
    }
}

impl std::error::Error for TransportError {}
impl std::error::Error for DecodeError {}

impl From<DecodeError> for TransportError {
    fn from(e: DecodeError) -> Self {
        TransportError::Decode(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}
