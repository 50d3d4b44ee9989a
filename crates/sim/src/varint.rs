//! Unsigned LEB128 varints: seven bits per byte, low group first, the
//! high bit set on every byte but the last, at most ten bytes.
//!
//! The one integer encoding the binary wire formats share: every integer
//! inside a message of `infogram-proto`, the GSI handshake and the MDS
//! protocol ([`crate::wire::put_varint`]).

use std::ops::Deref;

/// The longest encoding: ten bytes hold 64 bits.
pub const MAX_LEN: usize = 10;

/// One encoded value, on the stack.
#[derive(Debug, Clone, Copy)]
pub struct Encoded {
    bytes: [u8; MAX_LEN],
    len: usize,
}

impl Deref for Encoded {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Encode `v`.
pub fn encode(mut v: u64) -> Encoded {
    let mut out = Encoded {
        bytes: [0; MAX_LEN],
        len: 0,
    };
    while v >= 0x80 {
        out.bytes[out.len] = v as u8 | 0x80;
        out.len += 1;
        v >>= 7;
    }
    out.bytes[out.len] = v as u8;
    out.len += 1;
    out
}

/// Why bytes are not a varint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The bytes ended with the continuation bit still set.
    Truncated,
    /// The tenth byte carries more than bit 63.
    Overflow,
    /// Ten bytes all had the continuation bit set.
    TooLong,
    /// The last byte is a zero after the first: a shorter encoding of the
    /// same value exists, and [`encode`] writes only that one.
    Overlong,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VarintError::Truncated => "truncated varint",
            VarintError::Overflow => "varint overflows u64",
            VarintError::TooLong => "varint longer than 10 bytes",
            VarintError::Overlong => "overlong varint",
        })
    }
}

impl std::error::Error for VarintError {}

/// Decode the varint at the start of `bytes`: the value and how many
/// bytes it took.
pub fn decode(bytes: &[u8]) -> Result<(u64, usize), VarintError> {
    let mut v = 0u64;
    for (i, &byte) in bytes.iter().take(MAX_LEN).enumerate() {
        let shift = 7 * i as u32;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            // The tenth byte carries bit 63 alone.
            return if shift == 63 && byte > 1 {
                Err(VarintError::Overflow)
            } else if i > 0 && byte == 0 {
                Err(VarintError::Overlong)
            } else {
                Ok((v, i + 1))
            };
        }
    }
    if bytes.len() < MAX_LEN {
        Err(VarintError::Truncated)
    } else {
        Err(VarintError::TooLong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_roundtrip() {
        for (v, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::MAX >> 1, 9),
            (u64::MAX, 10),
        ] {
            let enc = encode(v);
            assert_eq!(enc.len(), len, "{v}");
            assert_eq!(decode(&enc), Ok((v, len)));
            // Bytes after the varint are not its business.
            assert_eq!(decode(&[&enc[..], &[0xff]].concat()), Ok((v, len)));
        }
    }

    #[test]
    fn refusals() {
        let mut over = vec![0xff; 9];
        over.push(0x02);
        for (bytes, e) in [
            (vec![], VarintError::Truncated),
            (vec![0x81], VarintError::Truncated),
            (vec![0x80; 9], VarintError::Truncated),
            (vec![0x80; 10], VarintError::TooLong),
            (vec![0x80; 11], VarintError::TooLong),
            (over, VarintError::Overflow),
            (vec![0x81, 0x00], VarintError::Overlong),
        ] {
            assert_eq!(decode(&bytes), Err(e), "{bytes:?}");
        }
    }
}
