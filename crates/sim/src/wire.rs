//! A bounds-checked cursor over one received message.
//!
//! Every binary decoder in the service reads through [`Reader`]: the
//! `proto` requests, replies and record deltas, the GSI handshake and its
//! certificate chains, and the MDS protocol. A read is checked against
//! the bytes left and borrows from the message. A count is held to the
//! bytes that could carry its items and to a cap before anything is
//! allocated for it. [`Reader::finish`] refuses bytes after the last
//! field. Each refusal is a [`ReadError`] that names the field.

use crate::varint::{self, VarintError};

/// Why a message did not read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The message ended inside the named field.
    Truncated(&'static str),
    /// The named string field is not UTF-8.
    InvalidUtf8(&'static str),
    /// A count claimed more of the named items than its cap allows, or
    /// than the bytes left could hold.
    TooMany(&'static str),
    /// A varint is malformed.
    Varint(VarintError),
    /// Bytes follow the last field.
    Trailing,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Truncated(field) => write!(f, "truncated {field}"),
            ReadError::InvalidUtf8(field) => write!(f, "invalid utf-8 in {field}"),
            ReadError::TooMany(field) => write!(f, "too many {field}"),
            ReadError::Varint(e) => e.fmt(f),
            ReadError::Trailing => f.write_str("trailing bytes"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A cursor over a message: each read takes its field from the front.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read `bytes` from the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// One byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, ReadError> {
        Ok(self.bytes(1, field)?[0])
    }

    /// `N` bytes; the caller picks the byte order.
    pub fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], ReadError> {
        let (head, rest) = self
            .rest
            .split_first_chunk()
            .ok_or(ReadError::Truncated(field))?;
        self.rest = rest;
        Ok(*head)
    }

    /// An unsigned LEB128 varint ([`varint::decode`]).
    pub fn varint(&mut self) -> Result<u64, ReadError> {
        let (v, len) = varint::decode(self.rest).map_err(ReadError::Varint)?;
        self.rest = &self.rest[len..];
        Ok(v)
    }

    /// The next `n` bytes, borrowed.
    pub fn bytes(&mut self, n: u64, field: &'static str) -> Result<&'a [u8], ReadError> {
        if n > self.rest.len() as u64 {
            return Err(ReadError::Truncated(field));
        }
        let (head, rest) = self.rest.split_at(n as usize);
        self.rest = rest;
        Ok(head)
    }

    /// The next `n` bytes as UTF-8, borrowed.
    pub fn str(&mut self, n: u64, field: &'static str) -> Result<&'a str, ReadError> {
        std::str::from_utf8(self.bytes(n, field)?).map_err(|_| ReadError::InvalidUtf8(field))
    }

    /// `claimed`, a count read from the message, if it is at most `cap`
    /// and its items, each at least `min_item_len` bytes, fit in the bytes
    /// left. A decoder may then reserve room for that many items.
    pub fn count(
        &self,
        claimed: u64,
        min_item_len: usize,
        cap: u64,
        field: &'static str,
    ) -> Result<usize, ReadError> {
        let room = (self.rest.len() / min_item_len.max(1)) as u64;
        if claimed > cap || claimed > room {
            return Err(ReadError::TooMany(field));
        }
        Ok(claimed as usize)
    }

    /// The end of the message: refused if bytes are left.
    pub fn finish(self) -> Result<(), ReadError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ReadError::Trailing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_take_fields_from_the_front() {
        let msg = [&[7, 1, 2, 0xac, 0x02, 2][..], "hé".as_bytes()].concat();
        let mut r = Reader::new(&msg);
        assert_eq!(r.u8("tag"), Ok(7));
        assert_eq!(r.array::<2>("port").map(u16::from_be_bytes), Ok(0x0102));
        assert_eq!(r.varint(), Ok(300));
        let n = r.u8("length").unwrap();
        assert_eq!(r.count(n.into(), 1, 2, "items"), Ok(2));
        assert_eq!(r.clone().bytes(3, "name"), Ok("hé".as_bytes()));
        assert_eq!(r.str(3, "name"), Ok("hé"));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn refusals_name_the_field() {
        let refused = |e: Result<(), ReadError>| e.unwrap_err().to_string();
        let mut r = Reader::new(&[0xff, 0x81, 0]);
        assert_eq!(
            refused(r.clone().array::<4>("id").map(drop)),
            "truncated id"
        );
        assert_eq!(
            refused(r.clone().bytes(4, "body").map(drop)),
            "truncated body"
        );
        assert_eq!(
            refused(r.clone().str(1, "host").map(drop)),
            "invalid utf-8 in host"
        );
        assert_eq!(refused(r.count(4, 1, 8, "RDNs").map(drop)), "too many RDNs");
        assert_eq!(refused(r.count(2, 1, 1, "RDNs").map(drop)), "too many RDNs");
        assert_eq!(refused(r.clone().finish()), "trailing bytes");
        r.u8("tag").unwrap();
        assert_eq!(refused(r.varint().map(drop)), "overlong varint");
        assert_eq!(
            refused(Reader::new(&[]).u8("tag").map(drop)),
            "truncated tag"
        );
    }
}
