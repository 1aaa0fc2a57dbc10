//! Parameter keys.
//!
//! EPS (Section III-A) remaps application keys to balance the *byte* load,
//! so a "key" seen by a server may be a chunk of an original parameter;
//! [`chunk_key`] defines that embedding.

/// A parameter key as seen on the wire.
pub type Key = u64;

/// Number of low bits reserved for the chunk index when EPS splits one
/// oversized parameter across servers.
pub const CHUNK_BITS: u32 = 16;

/// Compose a chunked key from an original key and a chunk index.
///
/// Panics in debug builds if the original key would collide with the chunk
/// field (application keys must fit in `64 - CHUNK_BITS` bits).
#[inline]
pub fn chunk_key(orig: Key, chunk: u32) -> Key {
    debug_assert!(orig < (1u64 << (64 - CHUNK_BITS)), "key too large to chunk");
    debug_assert!(chunk < (1u32 << CHUNK_BITS), "chunk index overflow");
    (orig << CHUNK_BITS) | chunk as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_key_keeps_the_original_above_the_chunk_index() {
        for orig in [0u64, 1, 500, (1 << 40) - 1] {
            for chunk in [0u32, 1, 7, (1 << CHUNK_BITS) - 1] {
                let k = chunk_key(orig, chunk);
                assert_eq!(k >> CHUNK_BITS, orig);
                assert_eq!(k & ((1 << CHUNK_BITS) - 1), chunk as u64);
            }
        }
    }
}
