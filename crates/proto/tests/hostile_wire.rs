//! Hostile bytes over the message codec and the framing.
//!
//! Every message that carries a job handle, and the frames around them,
//! is truncated at every byte and has every byte flipped (each single
//! bit, and all eight at once). Whatever arrives, decoding returns —
//! never panics — with a typed `WireError` / `FrameError` or a message,
//! and asks the allocator for nothing larger than the frame it was given
//! (plus an error message's worth): a length field is checked against
//! the bytes that arrived before anything is allocated for it.

// Test harness: panic-on-failure is the error policy here.
#![allow(clippy::unwrap_used)]

use infogram_proto::frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
use infogram_proto::message::{JobStateCode, Reply, Request};
use infogram_proto::JobHandle;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

thread_local! {
    /// The largest single request the calling thread made of the
    /// allocator since [`largest_request`] last reset it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: a thread being torn down may allocate after its locals
    // are gone; that is nobody's measurement.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

/// The system allocator, remembering the largest request per thread.
struct Watching;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a `Cell` in a
// const-initialised thread local (no allocation, no destructor) and
// never the returned memory.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Run `f`; return its result and the largest allocation it asked for.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// What an error message may cost on top of the frame.
const MESSAGE_ALLOWANCE: usize = 64;

/// Every corruption of `bytes` the sweeps feed a decoder: each strict
/// prefix, then each byte with each single bit flipped and with all
/// eight flipped.
fn corruptions(bytes: &[u8]) -> impl Iterator<Item = (bool, Vec<u8>)> + '_ {
    let cuts = (0..bytes.len()).map(|cut| (true, bytes[..cut].to_vec()));
    let flips = (0..bytes.len()).flat_map(move |at| {
        (0..8).map(|bit| 1u8 << bit).chain([0xff]).map(move |mask| {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= mask;
            (false, flipped)
        })
    });
    cuts.chain(flips)
}

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

#[test]
fn request_decode_survives_every_cut_and_flip() {
    for request in requests() {
        for (cut, bytes) in corruptions(&request.encode()) {
            let (result, largest) = largest_request(|| Request::decode(&bytes));
            if let Ok(decoded) = result {
                assert!(!cut, "a truncated {request:?} decoded as {decoded:?}");
            }
            assert!(
                largest <= bytes.len() + MESSAGE_ALLOWANCE,
                "{largest} bytes asked for decoding {} bytes of {request:?}",
                bytes.len()
            );
        }
    }
}

#[test]
fn reply_decode_survives_every_cut_and_flip_of_a_handle_reply() {
    for reply in handle_replies() {
        for (cut, bytes) in corruptions(&reply.encode()) {
            let (result, largest) = largest_request(|| Reply::decode(&bytes));
            if let Ok(decoded) = result {
                assert!(!cut, "a truncated {reply:?} decoded as {decoded:?}");
            }
            assert!(
                largest <= bytes.len() + MESSAGE_ALLOWANCE,
                "{largest} bytes asked for decoding {} bytes of {reply:?}",
                bytes.len()
            );
        }
    }
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
