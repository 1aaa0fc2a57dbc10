//! Minimal byte-buffer types with a `bytes`-crate-shaped API.
//!
//! [`BytesMut`] is an append-only `Vec<u8>` with little-endian put methods;
//! [`Bytes`] is an immutable, cheaply cloneable (`Arc`-backed) view that
//! supports zero-copy slicing and cursor-style reads via [`Buf`]. This is
//! the whole surface the wire codec, framing layer and checkpoint format
//! need — nothing more.
//!
//! Every primitive here is `#[inline]`: the workspace builds without LTO, so
//! a non-generic method of this crate is otherwise an out-of-line call from
//! the codec, once per integer. Numeric vectors go through the *slab*
//! operations ([`BufMut::put_u64_slice_le`], [`Buf::get_u64_vec_le`] and
//! their `u32` siblings; [`BufMut::put_f32_slice_le`] for values): one
//! length check and one pass over the whole vector, little-endian on any
//! host via `to_le_bytes`/`from_le_bytes`. A byte run that should *stay*
//! bytes — a value payload — leaves the cursor through [`Buf::take_bytes`],
//! which shares the allocation when the cursor is a [`Bytes`]. A [`Bytes`]
//! is written only through [`Bytes::make_mut`] or reopened for appending by
//! [`Bytes::into_mut`], each of which copies first whenever another handle
//! could see the write.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Cursor-style reads from an immutable byte buffer. Reading advances the
/// buffer; all getters panic if fewer than the required bytes remain (call
/// [`Buf::remaining`] first, as the codec does).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);
    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Read one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a little-endian `u16`.
    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.chunk()[..2].try_into().unwrap());
        self.advance(2);
        v
    }

    /// Read a little-endian `u32`.
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.chunk()[..4].try_into().unwrap());
        self.advance(4);
        v
    }

    /// Read a little-endian `u64`.
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.chunk()[..8].try_into().unwrap());
        self.advance(8);
        v
    }

    /// Read `n` little-endian `u32`s as one slab. Like the scalar getters
    /// this panics if fewer than `4 * n` bytes remain — the caller checks
    /// [`Buf::remaining`] *before* the read, so the output is never sized
    /// from an unchecked count.
    #[inline]
    fn get_u32_vec_le(&mut self, n: usize) -> Vec<u32> {
        let v = self.chunk()[..4 * n]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        self.advance(4 * n);
        v
    }

    /// Read `n` little-endian `u64`s as one slab (see
    /// [`Buf::get_u32_vec_le`]).
    #[inline]
    fn get_u64_vec_le(&mut self, n: usize) -> Vec<u64> {
        let v = self.chunk()[..8 * n]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        self.advance(8 * n);
        v
    }

    /// Take the next `n` bytes out as an owned [`Bytes`]: a view sharing
    /// the allocation when the cursor is itself a [`Bytes`], one exact copy
    /// when it is a borrowed slice. Panics if fewer than `n` bytes remain.
    fn take_bytes(&mut self, n: usize) -> Bytes;
}

/// Borrowed-slice cursor: lets decoders run over a reused read buffer
/// without first copying it into an owned [`Bytes`]. Advancing shrinks the
/// slice from the front.
impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        *self = &self[n..];
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn take_bytes(&mut self, n: usize) -> Bytes {
        let (head, rest) = self.split_at(n);
        *self = rest;
        Bytes::from(head)
    }
}

/// Append-style writes of little-endian integers.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append every `u32` of `src` little-endian, as one slab: the bytes
    /// are exactly those of calling [`BufMut::put_u32_le`] per element.
    fn put_u32_slice_le(&mut self, src: &[u32]);

    /// Append every `u64` of `src` little-endian, as one slab.
    fn put_u64_slice_le(&mut self, src: &[u64]);

    /// Append every `f32` of `src` as its little-endian IEEE-754 bit
    /// pattern, as one slab.
    fn put_f32_slice_le(&mut self, src: &[f32]);
}

/// An immutable, reference-counted byte buffer. Clones and
/// [`slices`](Bytes::slice) share the underlying allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    // `Arc<Vec<u8>>`, not `Arc<[u8]>`: converting a `Vec` into the latter
    // copies every byte into a fresh allocation, which would make
    // `BytesMut::freeze` a second pass over a tensor-sized buffer.
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    #[inline]
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Number of readable bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether no bytes remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same allocation. Panics if the range is out
    /// of bounds.
    #[inline]
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds for {} bytes",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Copy the readable bytes into a fresh `Vec`.
    #[inline]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// The readable bytes as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// The readable bytes, writable, copy-on-write: in place when this is
    /// the allocation's only handle and views all of it, otherwise after
    /// moving the viewed bytes into a fresh allocation of their own — so a
    /// clone or slice handed out earlier never sees the write.
    #[inline]
    pub fn make_mut(&mut self) -> &mut [u8] {
        if self.start != 0 || self.end != self.data.len() {
            *self = Bytes::from(self.as_slice());
        }
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// The readable bytes as a growable buffer: the allocation itself, no
    /// copy, when this is its only handle and the view starts at its
    /// beginning; otherwise a copy of the viewed bytes.
    #[inline]
    pub fn into_mut(self) -> BytesMut {
        let data = match Arc::try_unwrap(self.data) {
            Ok(mut data) if self.start == 0 => {
                data.truncate(self.end);
                data
            }
            Ok(data) => data[self.start..self.end].to_vec(),
            Err(shared) => shared[self.start..self.end].to_vec(),
        };
        BytesMut { data }
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        self.start += n;
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline]
    fn take_bytes(&mut self, n: usize) -> Bytes {
        let head = self.slice(0..n);
        self.start += n;
        head
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    #[inline]
    fn from(v: &[u8]) -> Bytes {
        v.to_vec().into()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:02x?})", self.as_slice())
    }
}

/// A growable byte buffer for building frames; [`freeze`](BytesMut::freeze)
/// converts it into an immutable [`Bytes`] without copying.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[inline]
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of written bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Writable capacity before the next append reallocates.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Ensure room for `additional` more bytes without reallocating later.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Drop the written bytes but keep the allocation — the reuse primitive
    /// for per-connection scratch buffers: encode a batch, write it to the
    /// stream, `clear()`, repeat. Capacity converges on the largest batch
    /// seen and no further allocation happens on the hot path.
    #[inline]
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Shorten to `len` written bytes (no-op if already shorter).
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    /// Take the written bytes out, leaving this buffer empty. The returned
    /// buffer owns the old allocation; `self` starts from scratch. Use
    /// [`BytesMut::clear`] instead when the *allocation* should stay with
    /// the writer.
    #[inline]
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            data: std::mem::take(&mut self.data),
        }
    }

    /// Overwrite 4 already-written bytes at `at` with a little-endian
    /// `u32` — how the framer patches a length word after encoding the
    /// payload behind it, instead of building the frame in a second buffer.
    /// Panics if `at + 4` exceeds the written length.
    #[inline]
    pub fn set_u32_le_at(&mut self, at: usize, v: u32) {
        self.data[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    #[inline]
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Convert into an immutable [`Bytes`] (no copy).
    #[inline]
    pub fn freeze(self) -> Bytes {
        self.data.into()
    }

    /// Append `n` zero bytes and return them for the caller to fill — the
    /// slab writers' one length adjustment per vector.
    #[inline]
    fn grow(&mut self, n: usize) -> &mut [u8] {
        let start = self.data.len();
        self.data.resize(start + n, 0);
        &mut self.data[start..]
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    #[inline]
    fn put_u32_slice_le(&mut self, src: &[u32]) {
        for (dst, v) in self.grow(4 * src.len()).chunks_exact_mut(4).zip(src) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    #[inline]
    fn put_u64_slice_le(&mut self, src: &[u64]) {
        for (dst, v) in self.grow(8 * src.len()).chunks_exact_mut(8).zip(src) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    #[inline]
    fn put_f32_slice_le(&mut self, src: &[f32]) {
        // The one tensor-sized slab: appended straight into spare capacity
        // (the flattened iterator reports its exact length), so a payload is
        // not zero-filled first and then overwritten.
        self.data.extend(src.iter().flat_map(|v| v.to_le_bytes()));
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:02x?})", &self.data[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(7);
        b.put_u32_le(0xDEADBEEF);
        b.put_u64_le(u64::MAX - 1);
        b.put_slice(&[1, 2, 3]);
        let mut bytes = b.freeze();
        assert_eq!(bytes.remaining(), 1 + 4 + 8 + 3);
        assert_eq!(bytes.get_u8(), 7);
        assert_eq!(bytes.get_u32_le(), 0xDEADBEEF);
        assert_eq!(bytes.get_u64_le(), u64::MAX - 1);
        assert_eq!(bytes.chunk(), &[1, 2, 3]);
        bytes.advance(3);
        assert!(bytes.is_empty());
    }

    #[test]
    fn slices_share_storage_and_nest() {
        let bytes = Bytes::from((0u8..32).collect::<Vec<_>>());
        let mid = bytes.slice(8..24);
        assert_eq!(mid.len(), 16);
        assert_eq!(mid[0], 8);
        let inner = mid.slice(4..8);
        assert_eq!(inner.as_slice(), &[12, 13, 14, 15]);
        // The parent is unaffected by child reads.
        let mut cursor = inner.clone();
        cursor.advance(2);
        assert_eq!(cursor.chunk(), &[14, 15]);
        assert_eq!(inner.as_slice(), &[12, 13, 14, 15]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let bytes = Bytes::from(vec![1, 2, 3]);
        let _ = bytes.slice(0..4);
    }

    #[test]
    fn clear_keeps_capacity_for_reuse() {
        let mut b = BytesMut::with_capacity(8);
        b.put_slice(&[0u8; 100]);
        let grown = b.capacity();
        assert!(grown >= 100);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), grown);
        // Refilling within capacity never reallocates.
        b.put_slice(&[1u8; 100]);
        assert_eq!(b.capacity(), grown);
    }

    #[test]
    fn split_takes_contents_and_allocation() {
        let mut b = BytesMut::new();
        b.put_slice(&[1, 2, 3]);
        let head = b.split();
        assert_eq!(head.as_ref(), &[1, 2, 3]);
        assert!(b.is_empty());
        b.put_u8(9);
        assert_eq!(b.as_ref(), &[9]);
    }

    #[test]
    fn set_u32_le_at_patches_in_place() {
        let mut b = BytesMut::new();
        b.put_u32_le(0); // placeholder
        b.put_slice(b"payload");
        b.set_u32_le_at(0, 7);
        let mut frozen = b.freeze();
        assert_eq!(frozen.get_u32_le(), 7);
        assert_eq!(frozen.chunk(), b"payload");
    }

    #[test]
    fn slice_cursor_reads_like_bytes() {
        let data = {
            let mut b = BytesMut::new();
            b.put_u8(3);
            b.put_u32_le(77);
            b.put_u64_le(u64::MAX);
            b.freeze().to_vec()
        };
        let mut cur: &[u8] = &data;
        assert_eq!(cur.remaining(), 13);
        assert_eq!(cur.get_u8(), 3);
        assert_eq!(cur.get_u32_le(), 77);
        assert_eq!(cur.get_u64_le(), u64::MAX);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn slab_puts_write_exactly_the_scalar_bytes() {
        let u32s = [0u32, 1, 0x0102_0304, u32::MAX];
        let u64s = [0u64, 0x0102_0304_0506_0708, u64::MAX];
        // NaN with a payload, -0.0, smallest subnormal, inf.
        let f32s = [0x7FC0_1234u32, 0x8000_0000, 1, 0x7F80_0000].map(f32::from_bits);

        let mut scalar = BytesMut::new();
        u32s.iter().for_each(|&v| scalar.put_u32_le(v));
        u64s.iter().for_each(|&v| scalar.put_u64_le(v));
        f32s.iter().for_each(|v| scalar.put_u32_le(v.to_bits()));

        let mut slab = BytesMut::new();
        slab.put_u8(0xAA); // slabs append; they never overwrite
        slab.put_u32_slice_le(&u32s);
        slab.put_u64_slice_le(&u64s);
        slab.put_f32_slice_le(&f32s);
        slab.put_f32_slice_le(&[]);
        assert_eq!(slab[0], 0xAA);
        assert_eq!(&slab[1..], scalar.as_ref());
        assert_eq!(&slab[1..5], &[0, 0, 0, 0]);
        assert_eq!(&slab[9..13], &[4, 3, 2, 1], "little-endian on the wire");

        let mut cur: &[u8] = &slab[1..];
        assert_eq!(cur.get_u32_vec_le(u32s.len()), u32s);
        assert_eq!(cur.get_u64_vec_le(u64s.len()), u64s);
        // The f32 slab is the elements' bit patterns, little-endian.
        let bits = cur.get_u32_vec_le(f32s.len());
        assert_eq!(cur.remaining(), 0);
        assert_eq!(bits.capacity(), bits.len(), "slab reads allocate exactly");
        assert_eq!(bits, f32s.map(f32::to_bits));
    }

    #[test]
    fn take_bytes_shares_a_bytes_cursor_and_copies_a_slice_cursor() {
        let data: Vec<u8> = (0u8..16).collect();
        let range = data.as_ptr_range();
        let mut owned = Bytes::from(data.clone());
        assert_eq!(owned.get_u8(), 0);
        let taken = owned.take_bytes(7);
        assert_eq!(taken.as_slice(), &data[1..8]);
        assert_eq!(owned.chunk(), &data[8..]);
        // Same allocation as the cursor it came from: the taken run ends
        // where the cursor's unread bytes begin...
        assert_eq!(taken.as_ptr_range().end, owned.chunk().as_ptr());
        // ...whereas a borrowed cursor hands out a copy.
        let mut cur: &[u8] = &data;
        cur.advance(1);
        let copied = cur.take_bytes(7);
        assert_eq!(copied, taken);
        assert_eq!(cur, &data[8..]);
        assert!(!range.contains(&copied.as_ptr()));
        assert_eq!(owned.take_bytes(8).len(), 8);
        assert!(owned.is_empty());
    }

    #[test]
    #[should_panic]
    fn take_bytes_past_the_end_panics() {
        let mut cur: &[u8] = &[0u8; 3];
        let _ = cur.take_bytes(4);
    }

    #[test]
    #[should_panic]
    fn slab_read_past_the_end_panics_before_allocating() {
        let mut cur: &[u8] = &[0u8; 7];
        let _ = cur.get_u32_vec_le(usize::MAX / 8);
    }

    #[test]
    fn make_mut_writes_in_place_only_when_nothing_else_sees_the_bytes() {
        let mut only = Bytes::from(vec![1u8, 2, 3]);
        let at = only.as_ptr();
        only.make_mut()[0] = 9;
        assert_eq!(only.as_ptr(), at, "sole whole view: in place");
        assert_eq!(only.as_slice(), &[9, 2, 3]);

        let held = only.clone();
        only.make_mut()[1] = 8;
        assert_ne!(only.as_ptr(), at, "shared: copied first");
        assert_eq!(held.as_slice(), &[9, 2, 3], "the clone never changes");
        assert_eq!(only.as_slice(), &[9, 8, 3]);
        let copied = only.as_ptr();
        only.make_mut()[2] = 7;
        assert_eq!(only.as_ptr(), copied, "the copy is this handle's own");

        let mut part = held.slice(1..3);
        part.make_mut()[0] = 0;
        assert_eq!(part.as_slice(), &[0, 3]);
        assert_eq!(held.as_slice(), &[9, 2, 3], "a slice writes into a copy");
    }

    #[test]
    fn into_mut_takes_the_allocation_back_only_from_its_sole_handle() {
        let only = Bytes::from(vec![1u8, 2, 3]);
        let at = only.as_ptr();
        let mut grown = only.into_mut();
        assert_eq!(grown.as_ptr(), at, "sole handle: the same allocation");
        grown.put_u8(4);
        let frozen = grown.freeze();
        assert_eq!(frozen.as_slice(), &[1, 2, 3, 4]);

        let held = frozen.clone();
        let copy = frozen.into_mut();
        assert_ne!(copy.as_ptr(), held.as_ptr(), "shared: a copy");
        assert_eq!(copy.as_ref(), held.as_slice());
        assert_eq!(held.slice(1..3).into_mut().as_ref(), &[2, 3]);
        assert_eq!(
            Bytes::from(vec![5u8, 6, 7]).slice(0..2).into_mut().as_ref(),
            &[5, 6]
        );
    }

    #[test]
    fn equality_and_to_vec() {
        let a = Bytes::from(vec![1, 2, 3, 4]);
        let b = Bytes::from(vec![0, 1, 2, 3, 4]).slice(1..5);
        assert_eq!(a, b);
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(Bytes::new().len(), 0);
    }
}
