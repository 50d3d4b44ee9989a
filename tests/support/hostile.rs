//! The hostile-bytes sweep the codec suites share:
//! `crates/proto/tests/hostile_wire.rs`,
//! `crates/gsi/tests/hostile_handshake.rs`,
//! `crates/mds/tests/hostile_mds.rs`, `crates/core/tests/hostile_text.rs`
//! (the text decoders) and `crates/exec/tests/hostile_wal.rs` (recovery)
//! include it with `#[path]`.
//!
//! Including it declares the test binary's `#[global_allocator]`: the
//! system allocator, remembering the largest single request per thread.
//! [`sweep`] truncates a message at every byte and flips every byte of
//! it (each single bit, and all eight at once), and holds whatever reads
//! it to three things: it returns, never panics; a cut never succeeds;
//! and no allocation exceeds the bound the caller gives. A length or a
//! count must be checked against the bytes that arrived before anything
//! is allocated for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

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
pub fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// What an error message may cost on top of the input.
pub const MESSAGE_ALLOWANCE: usize = 64;

/// The usual allocation bound: the input plus an error message's worth.
pub fn input_plus_message(len: usize) -> usize {
    len + MESSAGE_ALLOWANCE
}

/// Every corruption of `bytes` the sweeps feed a decoder: each strict
/// prefix (marked `true`), then each byte with each single bit flipped
/// and with all eight flipped.
pub fn corruptions(bytes: &[u8]) -> impl Iterator<Item = (bool, Vec<u8>)> + '_ {
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

/// A codec's encoder, for [`sweep`]'s re-encoding check.
pub type Encode<'a, T> = &'a dyn Fn(&T) -> Vec<u8>;

/// Feed every corruption of `message` to `step` and return how many it
/// refused. A cut never succeeds, and reading `n` bytes asks the
/// allocator for no more than `bound(n)` at once. With an `encode`, a
/// corruption that does decode re-encodes to exactly its own bytes: the
/// decoder accepts only what the encoder writes.
pub fn sweep<T: Debug, E>(
    name: &str,
    message: &[u8],
    bound: impl Fn(usize) -> usize,
    step: impl Fn(&[u8]) -> Result<T, E>,
    encode: Option<Encode<'_, T>>,
) -> usize {
    let mut refused = 0;
    for (cut, bytes) in corruptions(message) {
        let (result, largest) = largest_request(|| step(&bytes));
        assert!(
            largest <= bound(bytes.len()),
            "{largest} bytes asked for reading {} bytes of a {name}",
            bytes.len()
        );
        match result {
            Ok(value) => {
                assert!(!cut, "a {}-byte cut {name} gave {value:?}", bytes.len());
                if let Some(encode) = encode {
                    assert_eq!(encode(&value), bytes, "{name} {value:?} re-encodes");
                }
            }
            Err(_) => refused += 1,
        }
    }
    refused
}
