//! Frames: `[len: u32 LE][crc32: u32 LE][payload]`. The only file that
//! knows the layout — writing frames, streaming them back, classifying
//! damage.

use super::event::{starts_checkpoint, WalEvent, CHECKPOINT_PREFIX_LEN};
use super::fold::CheckpointState;
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// Bytes of `len` + `crc32` in front of every payload.
const HEADER: usize = 8;

/// Upper bound on a single frame payload; anything larger in a scan is
/// treated as corruption (a garbage length field), not a real frame.
const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Bytes of a segment held at once: recovery reads each segment through
/// a buffer this size, and a checkpoint is written through one.
pub const IO_BUF: usize = 8 * 1024;

/// Slicing-by-8 tables for [`crc32`]: `CRC_TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE, reflected, poly 0xEDB88320), eight bytes per step,
/// continuing from `crc`: `crc32(crc32(0, a), b)` is the CRC of `a`
/// followed by `b`. A
/// checkpoint frame is checksummed under `exec.wal.io`, so this is on
/// the commit path of whoever cuts the checkpoint.
fn crc32(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append one frame for `payload` to `buf`.
fn push_frame(buf: &mut Vec<u8>, payload: &str) {
    let bytes = payload.as_bytes();
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(0, bytes).to_le_bytes());
    buf.extend_from_slice(bytes);
}

/// One frame per payload, in one buffer sized once.
pub(super) fn frame_batch(payloads: &[&str]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payloads.iter().map(|p| HEADER + p.len()).sum());
    for p in payloads {
        push_frame(&mut buf, p);
    }
    buf
}

/// Where an encoding pass goes: its bytes to `out`, their count and CRC
/// kept on the way.
struct Summed<W> {
    out: W,
    len: usize,
    crc: u32,
    failed: Option<io::Error>,
}

impl<W: Write> Summed<W> {
    fn new(out: W) -> Self {
        Summed {
            out,
            len: 0,
            crc: 0,
            failed: None,
        }
    }
}

impl<W: Write> fmt::Write for Summed<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.len += s.len();
        self.crc = crc32(self.crc, s.as_bytes());
        self.out.write_all(s.as_bytes()).map_err(|e| {
            self.failed = Some(e);
            fmt::Error
        })
    }
}

/// A checkpoint's frame, never held whole: a first encoding pass keeps
/// only its length and CRC, and [`CheckpointFrame::write_to`] encodes it
/// again behind its header.
pub(super) struct CheckpointFrame<'a> {
    checkpoint: &'a CheckpointState,
    payload_len: usize,
    crc: u32,
}

impl<'a> CheckpointFrame<'a> {
    /// The first pass.
    pub(super) fn measure(checkpoint: &'a CheckpointState) -> Self {
        let mut sum = Summed::new(io::sink());
        // Nothing fails: `io::sink` takes every byte.
        let _ = checkpoint.encode_into(&mut sum);
        CheckpointFrame {
            checkpoint,
            payload_len: sum.len,
            crc: sum.crc,
        }
    }

    /// Bytes of the whole frame.
    pub(super) fn len(&self) -> usize {
        HEADER + self.payload_len
    }

    /// Header and payload to `out`, through a writer of [`IO_BUF`]
    /// bytes. Fails if the second pass differs from the first.
    pub(super) fn write_to(&self, out: &mut dyn Write) -> io::Result<()> {
        let mut out = BufWriter::with_capacity(IO_BUF, out);
        out.write_all(&(self.payload_len as u32).to_le_bytes())?;
        out.write_all(&self.crc.to_le_bytes())?;
        let mut sum = Summed::new(&mut out);
        if self.checkpoint.encode_into(&mut sum).is_err() {
            return Err(sum
                .failed
                .unwrap_or_else(|| io::Error::other("encode failed")));
        }
        if (sum.len, sum.crc) != (self.payload_len, self.crc) {
            return Err(io::Error::other("checkpoint changed between its passes"));
        }
        out.flush()
    }
}

/// A frame's payload as it streams off the disk: at most `left` more
/// bytes of `src`, summed into `crc` as they are consumed.
struct Payload<'a, R> {
    src: &'a mut BufReader<R>,
    left: usize,
    crc: u32,
}

impl<R: Read> Read for Payload<'_, R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = {
            let buf = self.fill_buf()?;
            let n = buf.len().min(out.len());
            out[..n].copy_from_slice(&buf[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl<R: Read> BufRead for Payload<'_, R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let buf = self.src.fill_buf()?;
        Ok(&buf[..buf.len().min(self.left)])
    }

    fn consume(&mut self, n: usize) {
        self.crc = crc32(self.crc, &self.src.buffer()[..n]);
        self.src.consume(n);
        self.left -= n;
    }
}

impl<'a, R: Read> Payload<'a, R> {
    /// The `len`-byte payload at the front of `src`, with up to its first
    /// [`CHECKPOINT_PREFIX_LEN`] bytes read into `buf`; whether they start
    /// a checkpoint.
    fn open(src: &'a mut BufReader<R>, len: usize, buf: &mut Vec<u8>) -> io::Result<(Self, bool)> {
        let mut payload = Payload {
            src,
            left: len,
            crc: 0,
        };
        buf.clear();
        (&mut payload)
            .take(CHECKPOINT_PREFIX_LEN as u64)
            .read_to_end(buf)?;
        Ok((payload, starts_checkpoint(buf)))
    }

    /// Read what is left, so `crc` covers the whole payload and the
    /// source stands at the next frame; whether the CRC is `crc`.
    fn finish(&mut self, crc: u32) -> io::Result<bool> {
        io::copy(self, &mut io::sink())?;
        Ok(self.crc == crc)
    }
}

/// The next frame's `(len, crc)` in a segment with `rem` bytes left, or
/// `None` where the scan stops: at the end, at a torn tail (the segment
/// ends mid-frame) or at a garbage length (no resync marker: the rest
/// is lost) — counted into `stats`.
fn next_header(
    src: &mut impl Read,
    rem: u64,
    stats: &mut RecoveryStats,
) -> io::Result<Option<(usize, u32)>> {
    if rem < HEADER as u64 {
        stats.truncated_tail_bytes += rem;
        return Ok(None);
    }
    let mut header = [0; HEADER];
    src.read_exact(&mut header)?;
    let [a, b, c, d, crc @ ..] = header;
    let len = u32::from_le_bytes([a, b, c, d]) as usize;
    if len > MAX_FRAME {
        stats.corrupt_frames += 1;
    }
    if len > MAX_FRAME || len as u64 > rem - HEADER as u64 {
        stats.truncated_tail_bytes += rem;
        return Ok(None);
    }
    Ok(Some((len, u32::from_le_bytes(crc))))
}

/// Stream a segment of `seg_len` bytes from `src`, handing each intact
/// frame's event to `visit` and classifying damage into `stats`: a frame
/// running past the end is a torn tail (truncate), a complete frame with
/// a bad CRC or an undecodable payload is mid-log corruption (skip and
/// continue). A checkpoint is decoded as it arrives and kept only if its
/// CRC matches; any other frame is read into one reused buffer.
pub(super) fn scan_segment(
    src: impl Read,
    seg_len: u64,
    stats: &mut RecoveryStats,
    visit: &mut dyn FnMut(WalEvent, &mut RecoveryStats),
) -> io::Result<()> {
    let src = &mut BufReader::with_capacity(IO_BUF, src);
    let (mut rem, mut record) = (seg_len, Vec::new());
    while rem > 0 {
        let Some((len, crc)) = next_header(src, rem, stats)? else {
            break;
        };
        rem -= (HEADER + len) as u64;
        let (mut payload, checkpoint) = Payload::open(src, len, &mut record)?;
        let event = if checkpoint {
            CheckpointState::decode(&mut payload).map(|ck| WalEvent::Checkpoint(Box::new(ck)))
        } else {
            payload.read_to_end(&mut record)?;
            std::str::from_utf8(&record).ok().and_then(WalEvent::decode)
        };
        // Drained whether or not it decoded: the next frame starts there.
        match (event, payload.finish(crc)?) {
            (Some(event), true) => visit(event, stats),
            _ => stats.corrupt_frames += 1,
        }
    }
    Ok(())
}

/// Whether a segment of `seg_len` bytes starts with an intact checkpoint
/// frame — checksummed as it streams past, not decoded. Checkpoints are
/// only ever written as a segment's head, so the first frame decides.
pub(super) fn head_is_checkpoint(src: impl Read, seg_len: u64) -> io::Result<bool> {
    let src = &mut BufReader::with_capacity(IO_BUF, src);
    let Some((len, crc)) = next_header(src, seg_len, &mut RecoveryStats::default())? else {
        return Ok(false);
    };
    let (mut payload, checkpoint) = Payload::open(src, len, &mut Vec::new())?;
    Ok(checkpoint && payload.finish(crc)?)
}

/// Bytes of a segment's start that [`declared_head_checkpoint`] reads.
const HEAD_PROBE: usize = HEADER + CHECKPOINT_PREFIX_LEN;

/// The size a segment's first frame declares, if its payload starts like
/// a checkpoint's and the frame fits in the segment's `seg_len` bytes;
/// else 0. Only the segment's first [`HEAD_PROBE`] bytes are read from
/// `src`, and nothing is checksummed: a damaged head only moves when the
/// next checkpoint is cut, while [`head_is_checkpoint`] decides what
/// recovery replays.
pub(super) fn declared_head_checkpoint(mut src: impl Read, seg_len: u64) -> u64 {
    let mut head = [0; HEAD_PROBE];
    if src.read_exact(&mut head).is_err() {
        return 0;
    }
    let [a, b, c, d, _, _, _, _, ref payload @ ..] = head;
    let size = HEADER as u64 + u32::from_le_bytes([a, b, c, d]) as u64;
    if starts_checkpoint(payload) && size <= seg_len {
        size
    } else {
        0
    }
}

/// What recovery salvaged (and could not salvage) from the log. Surfaced
/// through `(info=metrics)` so a restarted service self-describes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Complete frames with a bad checksum or undecodable payload —
    /// mid-log corruption, skipped.
    pub corrupt_frames: u64,
    /// Bytes dropped from torn segment tails (incomplete final writes).
    pub truncated_tail_bytes: u64,
    /// Segments present in storage.
    pub segments_total: u64,
    /// Segments actually read (checkpoint + tail, not full history).
    pub segments_read: u64,
    /// Storage read errors during recovery (segments skipped).
    pub io_errors: u64,
    /// Events decoded and replayed into the job table.
    pub events_replayed: u64,
    /// Events replayed after the newest checkpoint.
    pub events_since_checkpoint: u64,
    /// Whether a checkpoint bounded the replay.
    pub checkpoint_used: bool,
}

#[cfg(test)]
mod tests {
    use super::super::event::fixtures::sample_events;
    use super::*;
    use infogram_proto::message::JobStateCode;

    /// [`scan_segment`] over `bytes`, collected.
    fn scanned(bytes: &[u8], stats: &mut RecoveryStats) -> Vec<WalEvent> {
        let mut out = Vec::new();
        scan_segment(bytes, bytes.len() as u64, stats, &mut |ev, _| out.push(ev)).unwrap();
        out
    }

    /// The definition [`crc32`] is a table-driven form of.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_is_the_bitwise_crc() {
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926, "the IEEE check value");
        // Every length across several eight-byte steps, at every
        // alignment of the slice start, in one piece and in two.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        for start in 0..9 {
            for len in (0..70).chain([255, 256, 257, 1000, 4000]) {
                let bytes = &noise[start..start + len];
                let want = crc32_bitwise(bytes);
                assert_eq!(crc32(0, bytes), want, "start {start} len {len}");
                let (a, b) = bytes.split_at(len / 3);
                assert_eq!(crc32(crc32(0, a), b), want, "start {start} len {len}");
            }
        }
    }

    fn events_frames() -> (Vec<WalEvent>, Vec<u8>) {
        let events = sample_events();
        let mut buf = Vec::new();
        for ev in &events {
            push_frame(&mut buf, &ev.encode());
        }
        (events, buf)
    }

    #[test]
    fn frame_scan_roundtrip_and_torn_tail() {
        let (events, buf) = events_frames();
        let mut stats = RecoveryStats::default();
        assert_eq!(scanned(&buf, &mut stats), events);
        assert_eq!(stats, RecoveryStats::default());
        let ends: Vec<usize> = events
            .iter()
            .scan(0, |end, ev| {
                *end += HEADER + ev.encode().len();
                Some(*end)
            })
            .collect();
        // Every strict prefix yields exactly the frames it holds plus a
        // torn tail — never a panic, never garbage.
        for cut in 0..buf.len() {
            let mut stats = RecoveryStats::default();
            let got = scanned(&buf[..cut], &mut stats);
            let held = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(got, events[..held]);
            assert_eq!(stats.corrupt_frames, 0);
            let last = if held == 0 { 0 } else { ends[held - 1] };
            assert_eq!(stats.truncated_tail_bytes, (cut - last) as u64);
        }
    }

    #[test]
    fn frame_scan_skips_mid_log_corruption() {
        let (events, mut buf) = events_frames();
        // A payload byte of the second frame.
        buf[HEADER + events[0].encode().len() + HEADER + 1] ^= 0xFF;
        let mut stats = RecoveryStats::default();
        let mut want = events.clone();
        want.remove(1);
        assert_eq!(scanned(&buf, &mut stats), want);
        assert_eq!(stats.corrupt_frames, 1);
        assert_eq!(stats.truncated_tail_bytes, 0);
    }

    /// A checkpoint several buffers long is written through the bounded
    /// writer as the frame of its text, decoded as it streams back, and
    /// dropped — with the rest of the segment replaying — when its CRC
    /// does not match or it does not decode.
    #[test]
    fn a_checkpoint_streams_through_bounded_buffers() {
        let mut history = vec![WalEvent::ServiceStarted { epoch: 2 }];
        for job_id in 1..=400 {
            history.push(WalEvent::Submitted {
                job_id,
                rsl: format!("&(executable=simwork)(arguments={job_id})"),
                owner: format!("/O=Grid/CN=user{}", job_id % 7),
                account: format!("user{}", job_id % 3),
            });
        }
        let fold = CheckpointState::from_events(&history);
        let frame = CheckpointFrame::measure(&fold);
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), frame.len());
        assert!(buf.len() > 3 * IO_BUF, "{} bytes", buf.len());
        let checkpoint = WalEvent::Checkpoint(Box::new(fold));
        let mut whole = Vec::new();
        push_frame(&mut whole, &checkpoint.encode());
        assert_eq!(buf, whole, "the frame of the checkpoint's text");
        let tail = WalEvent::StateChanged {
            job_id: 7,
            state: JobStateCode::Active,
        };
        push_frame(&mut buf, &tail.encode());

        let mut stats = RecoveryStats::default();
        assert_eq!(scanned(&buf, &mut stats), [checkpoint, tail.clone()]);
        assert_eq!(stats, RecoveryStats::default());
        assert!(head_is_checkpoint(&buf[..], buf.len() as u64).unwrap());
        buf[5] ^= 1; // the checkpoint's CRC
        assert_eq!(scanned(&buf, &mut stats), std::slice::from_ref(&tail));
        assert_eq!(stats.corrupt_frames, 1);
        assert!(!head_is_checkpoint(&buf[..], buf.len() as u64).unwrap());
        buf[5] ^= 1;
        // Its first field, so the decoder gives up at once: the frame is
        // still skipped whole.
        buf[HEADER + CHECKPOINT_PREFIX_LEN] = b'x';
        let mut stats = RecoveryStats::default();
        assert_eq!(scanned(&buf, &mut stats), [tail]);
        assert_eq!(stats.corrupt_frames, 1);
        assert_eq!(stats.truncated_tail_bytes, 0);
    }
}
