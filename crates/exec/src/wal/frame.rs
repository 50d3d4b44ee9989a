//! Frames: `[len: u32 LE][crc32: u32 LE][payload]`. The only file that
//! knows the layout — building frames, scanning them back, classifying
//! damage.

use super::event::checkpoint_body;
use super::fold::CheckpointState;

/// Bytes of `len` + `crc32` in front of every payload.
const HEADER: usize = 8;

/// Upper bound on a single frame payload; anything larger in a scan is
/// treated as corruption (a garbage length field), not a real frame.
const MAX_FRAME: usize = 16 * 1024 * 1024;

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

/// CRC-32 (IEEE, reflected, poly 0xEDB88320), eight bytes per step. A
/// checkpoint frame is checksummed under `exec.wal.io`, so this is on
/// the commit path of whoever cuts the checkpoint.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
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
    buf.extend_from_slice(&crc32(bytes).to_le_bytes());
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

/// One frame holding `checkpoint`, encoded once: the payload is written
/// behind an eight-byte placeholder that then receives length and CRC.
pub(super) fn checkpoint_frame(checkpoint: &CheckpointState) -> Vec<u8> {
    let mut frame = "\0".repeat(HEADER);
    checkpoint.encode_into(&mut frame);
    let mut frame = frame.into_bytes();
    let (header, payload) = frame.split_at_mut(HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    frame
}

/// Scan a segment's bytes, handing each intact frame payload to `visit`
/// in place, and classifying damage into `stats`: a frame running past
/// the end is a torn tail (truncate), a complete frame with a bad CRC or
/// invalid UTF-8 is mid-log corruption (skip and continue), a garbage
/// length is unrecoverable from here on (no resync marker — count the
/// rest as truncated).
pub(super) fn scan_frames(
    bytes: &[u8],
    stats: &mut RecoveryStats,
    visit: &mut dyn FnMut(&str, &mut RecoveryStats),
) {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rem = bytes.len() - pos;
        if rem < HEADER {
            stats.truncated_tail_bytes += rem as u64;
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        if len > MAX_FRAME {
            stats.corrupt_frames += 1;
            stats.truncated_tail_bytes += rem as u64;
            break;
        }
        if len > rem - HEADER {
            stats.truncated_tail_bytes += rem as u64;
            break;
        }
        let crc = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        let payload = &bytes[pos + HEADER..pos + HEADER + len];
        pos += HEADER + len;
        if crc32(payload) != crc {
            stats.corrupt_frames += 1;
            continue;
        }
        match std::str::from_utf8(payload) {
            Ok(s) => visit(s, stats),
            Err(_) => stats.corrupt_frames += 1,
        }
    }
}

/// Size of the segment's first frame if it is a checkpoint, else 0.
/// Checkpoints are only ever written as a segment's head, so the first
/// frame decides; the rest of the segment is not checksummed.
pub(super) fn head_checkpoint_len(bytes: &[u8]) -> usize {
    let head = match bytes {
        [a, b, c, d, ..] => HEADER + u32::from_le_bytes([*a, *b, *c, *d]) as usize,
        _ => 0,
    };
    let mut len = 0;
    scan_frames(
        &bytes[..head.min(bytes.len())],
        &mut RecoveryStats::default(),
        &mut |p, _| {
            if checkpoint_body(p).is_some() {
                len = HEADER + p.len();
            }
        },
    );
    len
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

    /// [`scan_frames`], collected.
    fn scanned(bytes: &[u8], stats: &mut RecoveryStats) -> Vec<String> {
        let mut out = Vec::new();
        scan_frames(bytes, stats, &mut |p, _| out.push(p.to_string()));
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
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the IEEE check value");
        // Every length across several eight-byte steps, at every
        // alignment of the slice start.
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
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        // The frames the fixtures above are made of.
        let mut buf = Vec::new();
        for ev in sample_events() {
            push_frame(&mut buf, &ev.encode());
        }
        let mut stats = RecoveryStats::default();
        for payload in scanned(&buf, &mut stats) {
            assert_eq!(crc32(payload.as_bytes()), crc32_bitwise(payload.as_bytes()));
        }
        assert_eq!(stats, RecoveryStats::default());
    }

    #[test]
    fn frame_scan_roundtrip_and_torn_tail() {
        let payloads = ["one", "two", "three"];
        let mut buf = Vec::new();
        for p in payloads {
            push_frame(&mut buf, p);
        }
        let mut stats = RecoveryStats::default();
        assert_eq!(scanned(&buf, &mut stats), payloads);
        assert_eq!(stats, RecoveryStats::default());
        // Every strict prefix yields a (possibly shorter) prefix of the
        // payloads plus a torn tail — never a panic, never garbage.
        for cut in 0..buf.len() {
            let mut stats = RecoveryStats::default();
            let got = scanned(&buf[..cut], &mut stats);
            assert!(got.len() <= payloads.len());
            assert_eq!(got, payloads[..got.len()]);
            assert_eq!(stats.corrupt_frames, 0);
            if got.len() < payloads.len() && cut > got_len_bytes(&payloads[..got.len()]) {
                assert!(stats.truncated_tail_bytes > 0);
            }
        }
    }

    fn got_len_bytes(payloads: &[&str]) -> usize {
        payloads.iter().map(|p| p.len() + 8).sum()
    }

    #[test]
    fn frame_scan_skips_mid_log_corruption() {
        let mut buf = Vec::new();
        push_frame(&mut buf, "first");
        let corrupt_at = buf.len() + 9; // a payload byte of the second frame
        push_frame(&mut buf, "second");
        push_frame(&mut buf, "third");
        buf[corrupt_at] ^= 0xFF;
        let mut stats = RecoveryStats::default();
        assert_eq!(scanned(&buf, &mut stats), ["first", "third"]);
        assert_eq!(stats.corrupt_frames, 1);
        assert_eq!(stats.truncated_tail_bytes, 0);
    }
}
