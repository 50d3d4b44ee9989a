//! Length-prefixed framing.
//!
//! Every protocol message travels as a 4-byte big-endian length followed
//! by the payload. Used directly by the TCP transport; the in-memory
//! transport passes whole messages and only charges the frame overhead to
//! its byte accounting.
//!
//! A frame is handed to the writer in one `write_vectored` call (length
//! and payload as two slices, no copy): on a `TCP_NODELAY` socket a
//! second `write` is a second segment and a second wake-up of the
//! reader, which has the length and blocks until the payload follows.

use std::io::{IoSlice, Read, Write};

/// Upper bound on a frame payload (16 MiB) — a malformed or hostile
/// length prefix must not drive an allocation.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Bytes of framing overhead per message.
pub const FRAME_OVERHEAD: usize = 4;

/// A framing failure.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    TooLarge(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame: one `write_vectored` of length and payload, looping
/// only if the writer accepts part of it. A writer without vectored
/// writes (the trait's default) degrades to one `write` per slice.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(payload.len()));
    }
    let header = (payload.len() as u32).to_be_bytes();
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
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

/// Read one frame. [`FrameError::Closed`] means the peer hung up cleanly
/// before a new frame began.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (no bytes of a new frame) from truncation.
    match r.read(&mut len_buf)? {
        0 => return Err(FrameError::Closed),
        mut n => {
            while n < 4 {
                let more = r.read(&mut len_buf[n..])?;
                if more == 0 {
                    return Err(FrameError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "truncated frame header",
                    )));
                }
                n += more;
            }
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
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
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
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
        for payload in [&b""[..], b"(info=Memory)", &[7u8; 40_000]] {
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
            assert_eq!(socket.calls, (payload.len() + 4).div_ceil(max));
            let mut r = Cursor::new(socket.bytes);
            assert_eq!(read_frame(&mut r).unwrap(), payload, "{max} bytes a call");
        }
    }

    #[test]
    fn a_writer_that_takes_nothing_is_an_error() {
        let mut socket = Socket::new(0);
        assert!(matches!(
            write_frame(&mut socket, b"x"),
            Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::WriteZero
        ));
    }

    #[test]
    fn oversize_write_rejected() {
        let mut buf = Vec::new();
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            write_frame(&mut buf, &huge),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut r = Cursor::new(u32::MAX.to_be_bytes().to_vec());
        assert!(matches!(read_frame(&mut r), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn truncated_header_is_io_error() {
        let mut r = Cursor::new(vec![0u8, 0u8]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }
}
