//! FNV-1a (64-bit), the workspace's one fingerprint hash: stable across
//! builds and platforms, and dependency-free. The pinned dataset and
//! weight fingerprints and every property test's case seed fold their
//! bytes through [`fnv1a`]; the live runs' outcome fingerprints and the
//! alert engine's transition fingerprint through [`fnv1a_wide`].

/// The offset basis: the hash of no bytes, where every fold starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV's 64-bit prime.
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV's prime one hex digit longer (16×). Every pinned `chaos-fingerprint`
/// and alert fingerprint was computed with it; the low 32 bits of a fold
/// agree with [`fnv1a`]'s, the high 32 do not.
const WIDE_PRIME: u64 = 0x1000_0000_01b3;

/// Fold `bytes` into the running hash `h`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    fold(FNV_PRIME, h, bytes)
}

/// [`fnv1a`] with the multiplier of the pinned outcome fingerprints.
pub fn fnv1a_wide(h: u64, bytes: &[u8]) -> u64 {
    fold(WIDE_PRIME, h, bytes)
}

fn fold(prime: u64, mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(prime);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding in pieces is folding the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn the_wide_fold_is_pinned_and_shares_the_low_half() {
        let (narrow, wide) = (
            fnv1a(FNV_OFFSET, b"foobar"),
            fnv1a_wide(FNV_OFFSET, b"foobar"),
        );
        assert_eq!(wide, 0xf8ac_2471_f739_67e8);
        assert_eq!(wide as u32, narrow as u32);
        assert_ne!(wide, narrow);
    }
}
