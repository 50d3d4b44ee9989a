//! Offline stand-in for [`bytes`](https://crates.io/crates/bytes).
//!
//! The build environment for this repository has no access to crates.io
//! (see `shims/README.md`), so the workspace vendors a minimal,
//! API-compatible subset of the `bytes` surface it actually uses: the
//! write half the encoders need, the [`BufMut`] trait and the
//! [`BytesMut`] container, backed by plain `Vec<u8>`. Decoders read
//! through `infogram_sim::wire::Reader` instead, so the read half
//! (`Buf`, `Bytes`) is not vendored.
//!
//! Multi-byte integers use network byte order (big-endian), matching
//! the real crate's `put_u32` family.

use std::fmt;

/// Append access to a growable byte buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Append a big-endian `i32`.
    fn put_i32(&mut self, n: i32) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    fn put_u64(&mut self, n: u64) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Append a big-endian IEEE-754 `f64`.
    fn put_f64(&mut self, n: f64) {
        self.put_slice(&n.to_bits().to_be_bytes());
    }
}

/// A growable byte buffer that appends via [`BufMut`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// Create an empty buffer.
    pub const fn new() -> Self {
        BytesMut(Vec::new())
    }

    /// Create an empty buffer with at least `capacity` bytes reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut(Vec::with_capacity(capacity))
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Copy the contents into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.clone()
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(buf: BytesMut) -> Self {
        buf.0
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_big_endian() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(0xAB);
        buf.put_u32(0x0102_0304);
        buf.put_i32(-2);
        assert_eq!(
            buf.as_ref(),
            &[0xAB, 1, 2, 3, 4, 0xFF, 0xFF, 0xFF, 0xFE][..]
        );
    }
}
