//! Length-prefixed framing.
//!
//! Every protocol message travels as a header, then the payload. A
//! payload below 32 KiB has a 2-byte big-endian length with the high bit
//! clear; a longer one a 4-byte big-endian length with the high bit set.
//! Each length has one header: a long header under 32 KiB is refused.
//! Used directly by the TCP transport; the in-memory transport passes
//! whole messages and charges the header to its byte accounting.
//!
//! A frame is handed to the writer in one `write_vectored` call (header
//! and payload as two slices, no copy): on a `TCP_NODELAY` socket a
//! second `write` is a second segment and a second wake-up of the
//! reader, which has the header and blocks until the payload follows.

use crate::transport::ProtoError;
use std::io::{IoSlice, Read, Write};

/// Upper bound on a frame payload (16 MiB) — a malformed or hostile
/// length prefix must not drive an allocation.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// The longest payload a 2-byte header carries.
const SHORT_MAX: usize = 0x7fff;

/// The high bit of a header's first byte: a 4-byte header.
const LONG: u8 = 0x80;

/// The most a frame read asks of the allocator before any payload byte
/// has arrived. A longer payload's buffer then at most doubles what has
/// arrived, so a peer that claims [`MAX_FRAME_LEN`] and stalls holds
/// what it sent, not what it claimed. A frame up to this size is one
/// allocation of its exact length.
const READ_CHUNK: usize = 64 * 1024;

/// The bytes of the header in front of a `payload_len`-byte payload.
pub fn header_len(payload_len: usize) -> usize {
    if payload_len <= SHORT_MAX {
        2
    } else {
        4
    }
}

/// Write one frame: one `write_vectored` of header and payload, looping
/// only if the writer accepts part of it. A writer without vectored
/// writes (the trait's default) degrades to one `write` per slice.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(ProtoError::TooLarge(payload.len()));
    }
    let long = (payload.len() as u32 | u32::from(LONG) << 24).to_be_bytes();
    let header = &long[4 - header_len(payload.len())..];
    let mut slices = [IoSlice::new(header), IoSlice::new(payload)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Read one frame: two reads, the 2-byte header and the payload, and one
/// more for the rest of a 4-byte header. [`ProtoError::Closed`] means
/// the peer hung up cleanly before a new frame began; a frame cut short
/// is [`ProtoError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut header = [0u8; 4];
    // Distinguish clean EOF (no bytes of a new frame) from truncation.
    match r.read(&mut header[..2])? {
        0 => return Err(ProtoError::Closed),
        n => r.read_exact(&mut header[n..2])?,
    }
    let len = if header[0] & LONG == 0 {
        usize::from(u16::from_be_bytes([header[0], header[1]]))
    } else {
        r.read_exact(&mut header[2..])?;
        header[0] &= !LONG;
        let len = u32::from_be_bytes(header) as usize;
        if len <= SHORT_MAX {
            return Err(ProtoError::Io(format!(
                "a {len}-byte frame with a 4-byte header"
            )));
        }
        len
    };
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::TooLarge(len));
    }
    let mut payload = Vec::new();
    while payload.len() < len {
        let have = payload.len();
        let next = len.min(have.max(READ_CHUNK / 2) * 2);
        payload.reserve_exact(next - have);
        payload.resize(next, 0);
        r.read_exact(&mut payload[have..])?;
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xffu8; 100]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xffu8; 100]);
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Closed)));
    }

    /// A socket-like writer: counts the calls that reach it and takes at
    /// most `max` bytes per call.
    struct Socket {
        bytes: Vec<u8>,
        calls: usize,
        max: usize,
    }

    impl Socket {
        fn new(max: usize) -> Self {
            Socket {
                bytes: Vec::new(),
                calls: 0,
                max,
            }
        }
    }

    impl Write for Socket {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let before = self.bytes.len();
            for b in bufs {
                let room = self.max - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        // The last is read in four growing steps: 64, 128, 256 and 293 KiB.
        for payload in [&b""[..], b"(info=Memory)", &[7u8; 40_000], &[9u8; 300_000]] {
            let mut socket = Socket::new(usize::MAX);
            write_frame(&mut socket, payload).unwrap();
            assert_eq!(socket.calls, 1, "{} payload bytes", payload.len());
            let mut r = Cursor::new(socket.bytes);
            assert_eq!(read_frame(&mut r).unwrap(), payload);
        }
    }

    #[test]
    fn a_partial_write_is_resumed_where_it_stopped() {
        let payload: Vec<u8> = (0..=255).collect();
        for max in [1, 3, 4, 5, 100] {
            let mut socket = Socket::new(max);
            write_frame(&mut socket, &payload).unwrap();
            assert_eq!(socket.calls, (payload.len() + 2).div_ceil(max));
            let mut r = Cursor::new(socket.bytes);
            assert_eq!(read_frame(&mut r).unwrap(), payload, "{max} bytes a call");
        }
    }

    #[test]
    fn a_writer_that_takes_nothing_is_an_error() {
        let mut socket = Socket::new(0);
        assert!(matches!(
            write_frame(&mut socket, b"x"),
            Err(ProtoError::Io(_))
        ));
    }

    #[test]
    fn oversize_write_rejected() {
        let mut buf = Vec::new();
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            write_frame(&mut buf, &huge),
            Err(ProtoError::TooLarge(_))
        ));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut r = Cursor::new(u32::MAX.to_be_bytes().to_vec());
        assert!(matches!(read_frame(&mut r), Err(ProtoError::TooLarge(_))));
    }

    #[test]
    fn truncated_header_is_io_error() {
        let mut r = Cursor::new(vec![0u8]);
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Io(_))));
    }

    #[test]
    fn a_header_is_2_bytes_below_32_kib_and_4_from_there() {
        for (len, header) in [
            (0, &[0u8, 0][..]),
            (1, &[0, 1]),
            (0x7fff, &[0x7f, 0xff]),
            (0x8000, &[0x80, 0, 0x80, 0]),
            (1 << 20, &[0x80, 0x10, 0, 0]),
        ] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &vec![7u8; len]).unwrap();
            assert_eq!(&buf[..header.len()], header, "{len}");
            assert_eq!(buf.len(), len + header_len(len), "{len}");
            assert_eq!(read_frame(&mut Cursor::new(buf)).unwrap().len(), len);
        }
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Io(_))));
    }
}
