//! Parameter values in wire form.
//!
//! A value has two representations in this system: `f32` where arithmetic
//! happens (a worker's parameter map and optimizer) and little-endian
//! bytes everywhere in between. [`Values`] is the second one: the IEEE-754
//! bit patterns of a run of `f32`s, little-endian, behind a shared
//! [`Bytes`]. The bytes are exactly what the codec puts on the wire, so
//! encoding a payload is handing those bytes to the socket and decoding one
//! is slicing them out of the frame they arrived in; cloning is a
//! reference-count bump. The numbers are converted once on the way in
//! ([`ValuesMut::extend_from_slice`]) and read once on the way out
//! ([`Values::copy_to`]) — safe code over `chunks_exact(4)` and
//! `to_le_bytes`/`from_le_bytes`, a block copy on a little-endian host and a
//! byte swap on a big-endian one.
//!
//! A server shard keeps its parameters in this form too: one `Values` slab
//! that is also the payload of every reply for the whole shard. A gradient
//! is folded into it in place ([`Values::add_scaled_in`], the one
//! arithmetic done on wire bytes), copy-on-write, so a reply already handed
//! out never changes under its reader.

use std::fmt;
use std::ops::Range;

use fluentps_util::buf::{BufMut, Bytes, BytesMut};

/// An immutable run of `f32`s held as little-endian bytes. Clones and
/// [`slices`](Values::slice) share the allocation.
///
/// Equality between two `Values` is equality of the bytes — bit-exact, so a
/// NaN equals itself and `0.0 != -0.0`; comparing against `[f32]` compares
/// the numbers.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Values {
    le: Bytes,
}

impl Values {
    /// Convert `src` into wire form: one allocation of exactly `4 *
    /// src.len()` bytes.
    #[inline]
    pub fn from_f32s(src: &[f32]) -> Self {
        let mut out = ValuesMut::with_capacity(src.len());
        out.extend_from_slice(src);
        out.freeze()
    }

    /// Adopt bytes that already are little-endian `f32`s (a payload sliced
    /// out of a received frame). Panics unless the length is a multiple of
    /// four.
    #[inline]
    pub fn from_le_bytes(le: Bytes) -> Self {
        assert!(
            le.len().is_multiple_of(4),
            "{} bytes are not whole f32s",
            le.len()
        );
        Values { le }
    }

    /// The values as they travel: `4 * len()` little-endian bytes.
    #[inline]
    pub fn as_le_bytes(&self) -> &[u8] {
        self.le.as_slice()
    }

    /// Number of `f32`s.
    #[inline]
    pub fn len(&self) -> usize {
        self.le.len() / 4
    }

    /// Whether there are no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.le.is_empty()
    }

    /// The values in `range` (counted in `f32`s), sharing the allocation.
    /// Panics if the range is out of bounds.
    #[inline]
    pub fn slice(&self, range: Range<usize>) -> Values {
        Values {
            le: self.le.slice(4 * range.start..4 * range.end),
        }
    }

    /// The `i`-th value. Panics if out of bounds.
    #[inline]
    pub fn at(&self, i: usize) -> f32 {
        f32::from_le_bytes(self.le[4 * i..4 * i + 4].try_into().unwrap())
    }

    /// Iterate the values.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f32> + '_ {
        self.le
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
    }

    /// Reopen for appending ([`ValuesMut::extend_from_slice`]): the same
    /// allocation, no copy, when no clone or slice of `self` is alive;
    /// otherwise a copy.
    #[inline]
    pub fn into_mut(self) -> ValuesMut {
        ValuesMut {
            le: self.le.into_mut(),
        }
    }

    /// The values as a fresh `Vec`.
    #[inline]
    pub fn to_vec(&self) -> Vec<f32> {
        self.iter().collect()
    }

    /// `dst[i] = self[i]` in one pass. Panics if the lengths differ.
    #[inline]
    pub fn copy_to(&self, dst: &mut [f32]) {
        assert_eq!(dst.len(), self.len(), "copy_to length mismatch");
        for (d, v) in dst.iter_mut().zip(self.iter()) {
            *d = v;
        }
    }

    /// `self[range][i] += grad[i] * scale` in one pass over the bytes — a
    /// gradient folded into the parameters it belongs to, each value read
    /// as `f32`, added and written back little-endian. Copy-on-write
    /// ([`Bytes::make_mut`]): in place when no clone or slice of `self` is
    /// alive, otherwise into a fresh copy, so whoever holds one keeps the
    /// values it was given. Panics if the lengths differ or the range is
    /// out of bounds.
    #[inline]
    pub fn add_scaled_in(&mut self, range: Range<usize>, grad: &Values, scale: f32) {
        assert_eq!(range.len(), grad.len(), "add_scaled length mismatch");
        let dst = &mut self.le.make_mut()[4 * range.start..4 * range.end];
        for (d, g) in dst.chunks_exact_mut(4).zip(grad.le.chunks_exact(4)) {
            let w = f32::from_le_bytes(d[..].try_into().unwrap());
            let g = f32::from_le_bytes(g.try_into().unwrap());
            d.copy_from_slice(&(w + g * scale).to_le_bytes());
        }
    }
}

impl PartialEq<[f32]> for Values {
    fn eq(&self, other: &[f32]) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a == *b)
    }
}

impl PartialEq<Vec<f32>> for Values {
    fn eq(&self, other: &Vec<f32>) -> bool {
        *self == other[..]
    }
}

impl<const N: usize> PartialEq<[f32; N]> for Values {
    fn eq(&self, other: &[f32; N]) -> bool {
        *self == other[..]
    }
}

impl fmt::Debug for Values {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The one place `f32`s become wire bytes: reserve for the exact count, append
/// slices, [`freeze`](ValuesMut::freeze).
#[derive(Default)]
pub struct ValuesMut {
    le: BytesMut,
}

impl ValuesMut {
    /// An empty run with room for `n` values, so appending up to `n` never
    /// reallocates.
    #[inline]
    pub fn with_capacity(n: usize) -> Self {
        ValuesMut {
            le: BytesMut::with_capacity(4 * n),
        }
    }

    /// Room for `n` more values, so appending up to `n` never reallocates.
    #[inline]
    pub fn reserve(&mut self, n: usize) {
        self.le.reserve(4 * n);
    }

    /// Append `src` as little-endian bit patterns.
    #[inline]
    pub fn extend_from_slice(&mut self, src: &[f32]) {
        self.le.put_f32_slice_le(src);
    }

    /// Append values already in wire form: a byte copy, no conversion.
    #[inline]
    pub fn extend_from_values(&mut self, src: &Values) {
        self.le.extend_from_slice(src.as_le_bytes());
    }

    /// Finish: the appended values, immutable and shareable (no copy).
    #[inline]
    pub fn freeze(self) -> Values {
        Values {
            le: self.le.freeze(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NaN with a payload, -0.0, smallest subnormal, inf, an ordinary value.
    fn awkward() -> Vec<f32> {
        let mut v: Vec<f32> = [0x7FC0_1234u32, 0x8000_0000, 1, 0x7F80_0000]
            .map(f32::from_bits)
            .to_vec();
        v.push(-2.5);
        v
    }

    #[test]
    fn wire_form_is_the_le_bit_patterns_and_reads_back_bit_exactly() {
        let src = awkward();
        let vals = Values::from_f32s(&src);
        assert_eq!(vals.len(), src.len());
        let expect: Vec<u8> = src.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        assert_eq!(vals.as_le_bytes(), expect);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&vals.to_vec()), bits(&src));
        let mut out = vec![0.0; src.len()];
        vals.copy_to(&mut out);
        assert_eq!(bits(&out), bits(&src));
        assert_eq!(vals.at(4), -2.5);
        assert_eq!(vals.at(1).to_bits(), 0x8000_0000);
    }

    #[test]
    fn builder_allocates_exactly_and_freeze_does_not_copy() {
        let mut w = ValuesMut::with_capacity(6);
        w.extend_from_slice(&[1.0, 2.0]);
        w.extend_from_slice(&[]);
        w.extend_from_slice(&[3.0, 4.0, 5.0, 6.0]);
        let at = w.le.as_ptr();
        let vals = w.freeze();
        assert_eq!(vals.as_le_bytes().as_ptr(), at);
        assert_eq!(vals, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn slices_and_clones_share_the_allocation() {
        let vals = Values::from_f32s(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let mid = vals.slice(1..4);
        assert_eq!(mid, [1.0, 2.0, 3.0]);
        assert_eq!(mid.as_le_bytes().as_ptr(), vals.as_le_bytes()[4..].as_ptr());
        assert_eq!(mid.slice(2..3), [3.0]);
        assert!(vals.slice(5..5).is_empty());
        let copy = vals.clone();
        assert_eq!(copy.as_le_bytes().as_ptr(), vals.as_le_bytes().as_ptr());
    }

    #[test]
    fn add_scaled_folds_a_gradient_in() {
        let grad = Values::from_f32s(&[2.0, -4.0, 0.5]);
        let mut w = Values::from_f32s(&[9.0, 1.0, 1.0, 1.0, 9.0]);
        let at = w.as_le_bytes().as_ptr();
        w.add_scaled_in(1..4, &grad, 0.5);
        assert_eq!(w, [9.0, 2.0, -1.0, 1.25, 9.0]);
        assert_eq!(
            w.as_le_bytes().as_ptr(),
            at,
            "nothing else held it: in place"
        );
    }

    #[test]
    fn add_scaled_computes_what_f32_arithmetic_does_and_never_moves_a_held_copy() {
        let (w0, g) = (
            awkward(),
            awkward().iter().rev().copied().collect::<Vec<_>>(),
        );
        let mut w = Values::from_f32s(&w0);
        let held = w.slice(0..w0.len());
        w.add_scaled_in(0..w0.len(), &Values::from_f32s(&g), 0.25);
        let want: Vec<u32> = w0
            .iter()
            .zip(&g)
            .map(|(w, g)| (w + g * 0.25).to_bits())
            .collect();
        assert_eq!(w.iter().map(f32::to_bits).collect::<Vec<_>>(), want);
        assert_eq!(
            held,
            Values::from_f32s(&w0),
            "the held view keeps the old values"
        );
        assert_ne!(held.as_le_bytes().as_ptr(), w.as_le_bytes().as_ptr());
    }

    #[test]
    fn into_mut_appends_in_place_to_an_unshared_run() {
        let vals = Values::from_f32s(&[1.0, 2.0]);
        let at = vals.as_le_bytes().as_ptr();
        let mut w = vals.into_mut();
        w.extend_from_slice(&[]);
        assert_eq!(w.le.as_ptr(), at);
        w.extend_from_slice(&[3.0]);
        let vals = w.freeze();
        assert_eq!(vals, [1.0, 2.0, 3.0]);
        let held = vals.clone();
        let mut w = vals.into_mut();
        w.extend_from_slice(&[4.0]);
        assert_eq!(w.freeze(), [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(held, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn extend_from_values_copies_the_wire_bytes() {
        let src = Values::from_f32s(&awkward());
        let mut w = ValuesMut::with_capacity(src.len() + 1);
        w.extend_from_slice(&[1.0]);
        w.extend_from_values(&src.slice(1..src.len()));
        let vals = w.freeze();
        assert_eq!(vals.as_le_bytes()[4..], src.as_le_bytes()[4..]);
        assert_eq!(vals.at(0), 1.0);
    }

    #[test]
    fn equality_is_bitwise_between_values_and_numeric_against_f32s() {
        let nan = Values::from_f32s(&[f32::NAN]);
        assert_eq!(nan, nan.clone());
        assert_ne!(nan, [f32::NAN]);
        let (pos, neg) = (Values::from_f32s(&[0.0]), Values::from_f32s(&[-0.0]));
        assert_ne!(pos, neg);
        assert_eq!(neg, [0.0]);
        assert_eq!(pos, vec![0.0]);
        assert_ne!(pos, [0.0, 0.0]);
        assert_eq!(
            format!("{:?}", Values::from_f32s(&[1.5, -2.0])),
            "[1.5, -2.0]"
        );
    }

    #[test]
    #[should_panic(expected = "not whole f32s")]
    fn ragged_bytes_are_refused() {
        let _ = Values::from_le_bytes(Bytes::from(vec![0u8; 6]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_to_checks_the_length() {
        Values::from_f32s(&[1.0, 2.0]).copy_to(&mut [0.0; 3]);
    }
}
