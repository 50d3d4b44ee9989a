//! Hostile bytes over the message codec and the framing.
//!
//! Every request, every reply (an update with a full, a compact and a
//! degraded delta), and a stream of frames go through the shared sweep
//! (`tests/support/hostile.rs`). Whatever arrives, decoding returns —
//! never panics — with a typed `WireError` / `FrameError` or a message
//! that re-encodes to exactly the bytes it came from, and asks the
//! allocator for nothing larger than the frame it was given plus an
//! error message's worth. An update may ask for more, within the bound
//! derived at `update_bound`.

// Test harness: panic-on-failure is the error policy here.
#![allow(clippy::unwrap_used)]

use infogram_proto::delta::RecordDelta;
use infogram_proto::frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
use infogram_proto::message::{codes, JobStateCode, Reply, Request};
use infogram_proto::record::{Attribute, InfoRecord};
use infogram_proto::JobHandle;
use std::io::Cursor;

#[path = "../../../tests/support/hostile.rs"]
mod hostile;

use hostile::{corruptions, input_plus_message, largest_request, sweep, MESSAGE_ALLOWANCE};

fn handles() -> Vec<JobHandle> {
    vec![
        JobHandle::new("127.0.0.1", 2119, 1, 1),
        JobHandle::new("gatekeeper.grid.example.org", 40_123, 4242, 7),
        JobHandle::new("grüße.example", u16::MAX, u64::MAX, u64::MAX),
    ]
}

fn requests() -> Vec<Request> {
    let mut out = vec![
        Request::Submit {
            rsl: "(info=Memory)".to_string(),
            callback: false,
        },
        Request::Ping,
    ];
    for handle in handles() {
        out.push(Request::Status {
            handle: handle.clone(),
        });
        out.push(Request::Cancel { handle });
    }
    out
}

fn handle_replies() -> Vec<Reply> {
    let mut out = Vec::new();
    for handle in handles() {
        out.push(Reply::JobAccepted {
            handle: handle.clone(),
        });
        out.push(Reply::JobStatus {
            handle: handle.clone(),
            state: JobStateCode::Active,
            exit_code: None,
            output: String::new(),
        });
        out.push(Reply::JobStatus {
            handle: handle.clone(),
            state: JobStateCode::Done,
            exit_code: Some(-1),
            output: "value: ok\n".to_string(),
        });
        out.push(Reply::Event {
            handle,
            state: JobStateCode::Failed,
        });
    }
    out
}

/// Replies without a handle: every variant, and an update carrying a
/// full, a compact and a degraded delta.
fn other_replies() -> Vec<Reply> {
    let mut prev = InfoRecord::new("Memory", "node0.grid");
    prev.push("total", "4096");
    prev.push("free", "1024");
    let mut next = InfoRecord::new("Memory", "node0.grid");
    next.push("total", "4096");
    next.push("free", "512");
    next.push("buffers", "3");
    let mut degraded = next.clone();
    degraded.degraded = true;
    degraded.stale_age_secs = Some(12.5);
    degraded.attributes[0].quality = Some(0.25);
    degraded.attributes[0].age_secs = Some(12.5);
    vec![
        Reply::InfoResult {
            body: "dn: kw=Memory\nMemory-total: 42\n".to_string(),
            record_count: 1,
        },
        Reply::Error {
            code: codes::AUTHORIZATION,
            message: "no gridmap entry".to_string(),
        },
        Reply::Subscribed { id: 7, count: 2 },
        Reply::SubEnd {
            id: 7,
            code: codes::SLOW_CONSUMER,
            message: "outbox overflow".to_string(),
        },
        Reply::Update {
            id: 7,
            deltas: vec![
                RecordDelta::diff(None, &prev, 1),
                RecordDelta::diff(Some(&prev), &next, 2),
                RecordDelta::diff(Some(&next), &degraded, 3),
            ],
        },
    ]
}

/// The fewest bytes a changed attribute takes in an update: two empty
/// strings (a `u32` length each) and its flags byte.
const MIN_ATTRIBUTE_LEN: usize = 4 + 4 + 1;

/// An update's bound. A delta's attribute list is reserved at the count
/// it claims once that count is held to the bytes left, so `n` bytes can
/// make the decoder ask for room for `n / MIN_ATTRIBUTE_LEN` attributes
/// at once. An attribute takes more memory than its bytes on the wire
/// (80 bytes on a 64-bit host, before its strings), so this bound is
/// larger than the message. No other list comes closer to its bytes: a
/// delta takes 25 bytes and 128 in memory, a removed name 4 and 24.
fn update_bound(len: usize) -> usize {
    let attributes = len / MIN_ATTRIBUTE_LEN * std::mem::size_of::<Attribute>();
    attributes.max(len) + MESSAGE_ALLOWANCE
}

#[test]
fn request_decode_survives_every_cut_and_flip() {
    for request in requests() {
        sweep(
            &format!("{request:?}"),
            &request.encode(),
            input_plus_message,
            Request::decode,
            Some(&Request::encode),
        );
    }
}

#[test]
fn reply_decode_survives_every_cut_and_flip_of_a_handle_reply() {
    for reply in handle_replies() {
        sweep(
            &format!("{reply:?}"),
            &reply.encode(),
            input_plus_message,
            Reply::decode,
            Some(&Reply::encode),
        );
    }
}

#[test]
fn reply_decode_survives_every_cut_and_flip_of_every_other_reply() {
    for reply in other_replies() {
        let bound = match reply {
            Reply::Update { .. } => update_bound,
            _ => input_plus_message,
        };
        sweep(
            &format!("{reply:?}"),
            &reply.encode(),
            bound,
            Reply::decode,
            Some(&Reply::encode),
        );
    }
}

#[test]
fn an_update_of_empty_attributes_stays_within_its_bound() {
    let mut rec = InfoRecord::new("", "");
    rec.attributes = vec![Attribute::new("", ""); 200];
    let update = Reply::Update {
        id: 1,
        deltas: vec![RecordDelta::diff(None, &rec, 1)],
    };
    let bytes = update.encode();
    let (decoded, largest) = largest_request(|| Reply::decode(&bytes));
    assert_eq!(decoded.unwrap(), update);
    assert!(largest > bytes.len() + MESSAGE_ALLOWANCE, "{largest}");
    assert!(largest <= update_bound(bytes.len()), "{largest}");
}

#[test]
fn read_frame_survives_every_cut_and_flip() {
    let mut stream = Vec::new();
    for request in requests() {
        write_frame(&mut stream, &request.encode()).unwrap();
    }
    for (_, bytes) in corruptions(&stream) {
        let mut r = Cursor::new(&bytes[..]);
        loop {
            let at = r.position() as usize;
            let (result, largest) = largest_request(|| read_frame(&mut r));
            let declared = bytes
                .get(at..at + 4)
                .map_or(0, |p| u32::from_be_bytes(p.try_into().unwrap()) as usize);
            assert!(
                largest <= declared.min(MAX_FRAME_LEN) + MESSAGE_ALLOWANCE,
                "{largest} bytes asked for a frame declaring {declared}"
            );
            match result {
                Ok(payload) => assert_eq!(payload.len(), declared),
                Err(FrameError::Closed) => {
                    assert_eq!(at, bytes.len(), "Closed mid-stream");
                    break;
                }
                Err(FrameError::TooLarge(n)) => {
                    assert!(n > MAX_FRAME_LEN);
                    break;
                }
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}");
                    break;
                }
            }
        }
    }
}
