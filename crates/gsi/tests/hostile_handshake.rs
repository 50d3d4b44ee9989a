//! Hostile bytes over the GSI handshake and its certificate chains.
//!
//! A real HELLO (from an end entity and from a three-certificate proxy
//! chain), RESP and FIN, and the proxy chain on its own, are truncated at
//! every byte and have every byte flipped (each single bit, and all eight
//! at once). Whatever arrives, the step that reads it returns — never
//! panics — with a typed `HandshakeError` / `WireParseError` or a value,
//! and asks the allocator for nothing larger than the message it was
//! given (plus an error message's worth): a count or length is checked
//! against the bytes that arrived before anything is allocated for it.

// Test harness: panic-on-failure is the error policy here.
#![allow(clippy::unwrap_used)]

use infogram_gsi::wire::{decode_chain, encode_chain, MAX_ITEMS};
use infogram_gsi::{
    wire_client_finish, wire_client_hello, wire_server_respond, wire_server_verify,
    CertificateAuthority, Credential, Dn, HandshakeError,
};
use infogram_sim::{varint, SimTime, SplitMix64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

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

/// What an error message may cost on top of the message.
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

/// Feed every corruption of `message` to `step`: a cut never succeeds,
/// and no allocation exceeds the corrupted message plus an error's worth.
fn sweep<T: std::fmt::Debug, E>(
    name: &str,
    message: &[u8],
    step: impl Fn(&[u8]) -> Result<T, E>,
) -> usize {
    let mut refused = 0;
    for (cut, bytes) in corruptions(message) {
        let (result, largest) = largest_request(|| step(&bytes));
        match result {
            Ok(value) => assert!(!cut, "a {}-byte cut {name} gave {value:?}", bytes.len()),
            Err(_) => refused += 1,
        }
        assert!(
            largest <= bytes.len() + MESSAGE_ALLOWANCE,
            "{largest} bytes asked for reading {} bytes of a {name}",
            bytes.len()
        );
    }
    refused
}

/// A CA, a gatekeeper, an end-entity user and the same user's
/// three-certificate proxy chain (proxy of a proxy of the user).
struct Grid {
    roots: Vec<infogram_gsi::Certificate>,
    host: Credential,
    user: Credential,
    proxy: Credential,
    rng: SplitMix64,
}

fn grid() -> Grid {
    let mut rng = SplitMix64::new(2002);
    let day = Duration::from_secs(86_400);
    let ca = CertificateAuthority::new_root(
        &Dn::user("Grid", "CA", "Hostile Root"),
        &mut rng,
        SimTime::ZERO,
        day,
    );
    let host = ca.issue(
        &Dn::user("Grid", "Hosts", "gk"),
        &mut rng,
        SimTime::ZERO,
        day,
    );
    let user = ca.issue(
        &Dn::user("Grid", "ANL", "Alice"),
        &mut rng,
        SimTime::ZERO,
        day,
    );
    let proxy = user
        .delegate(&mut rng, SimTime::ZERO, day, 2)
        .unwrap()
        .delegate(&mut rng, SimTime::ZERO, day, 1)
        .unwrap();
    assert_eq!(proxy.chain.len(), 3);
    Grid {
        roots: vec![ca.certificate().clone()],
        host,
        user,
        proxy,
        rng,
    }
}

const NOW: SimTime = SimTime::ZERO;

#[test]
fn every_cut_and_flip_of_a_hello_is_a_typed_answer() {
    let mut g = grid();
    for client in [g.user.clone(), g.proxy.clone()] {
        let (hello, _) = wire_client_hello(&client, &mut g.rng);
        let refused = sweep("HELLO", &hello, |bytes| {
            let mut rng = SplitMix64::new(1);
            wire_server_respond(&g.host, &g.roots, bytes, NOW, &mut rng).map(|(resp, _)| resp)
        });
        // Only a flipped nonce leaves a HELLO the server answers.
        assert_eq!(refused, hello.len() * 10 - 8 * 9, "{}", client.subject());
    }
}

#[test]
fn every_cut_and_flip_of_a_resp_is_a_typed_answer() {
    let mut g = grid();
    let (hello, nonce) = wire_client_hello(&g.user, &mut g.rng);
    let (resp, _) = wire_server_respond(&g.host, &g.roots, &hello, NOW, &mut g.rng).unwrap();
    sweep("RESP", &resp, |bytes| {
        wire_client_finish(&g.user, &g.roots, bytes, nonce, NOW)
    });
}

#[test]
fn every_cut_and_flip_of_a_fin_is_refused() {
    let mut g = grid();
    let (hello, nonce) = wire_client_hello(&g.user, &mut g.rng);
    let (resp, pending) = wire_server_respond(&g.host, &g.roots, &hello, NOW, &mut g.rng).unwrap();
    let (fin, _) = wire_client_finish(&g.user, &g.roots, &resp, nonce, NOW).unwrap();
    let refused = sweep("FIN", &fin, |bytes| wire_server_verify(&pending, bytes));
    assert_eq!(refused, fin.len() * 10);
    assert!(wire_server_verify(&pending, &fin).is_ok());
}

#[test]
fn every_cut_and_flip_of_a_proxy_chain_is_a_typed_answer() {
    let g = grid();
    let chain = encode_chain(&g.proxy.chain);
    sweep("chain", &chain, decode_chain);
    assert_eq!(decode_chain(&chain).unwrap(), g.proxy.chain);
}

/// `bytes` with the byte at `at` replaced by `with`.
fn splice(bytes: &[u8], at: usize, with: &[u8]) -> Vec<u8> {
    [&bytes[..at], with, &bytes[at + 1..]].concat()
}

#[test]
fn hostile_fields_are_refused_by_name() {
    let mut g = grid();
    let (hello, _) = wire_client_hello(&g.user, &mut g.rng);
    // Tag, 8-byte nonce, then the chain: its count, the leaf subject's
    // RDN count, the first attribute's length and its byte.
    const COUNT: usize = 9;
    assert_eq!(hello[COUNT..COUNT + 4], [1, 3, 1, b'O']);
    let refusal = |bytes: &[u8]| {
        let mut rng = SplitMix64::new(1);
        match wire_server_respond(&g.host, &g.roots, bytes, NOW, &mut rng) {
            Err(HandshakeError::Malformed(e)) => e.reason,
            other => panic!("{other:?}"),
        }
    };
    for (bytes, reason) in [
        (
            splice(&hello, COUNT, &varint::encode(u64::MAX)),
            "too many certificates",
        ),
        (
            splice(&hello, COUNT, &varint::encode(1 << 60)),
            "too many certificates",
        ),
        (splice(&hello, COUNT, &[0]), "empty chain"),
        (
            splice(&hello, COUNT, &[0x80; 11]),
            "varint longer than 10 bytes",
        ),
        (
            splice(&hello, COUNT + 1, &varint::encode(MAX_ITEMS + 1)),
            "too many RDNs",
        ),
        // An RDN length past the end of the message.
        (
            splice(&hello, COUNT + 2, &varint::encode(1 << 40)),
            "truncated string",
        ),
        (splice(&hello, COUNT + 3, &[0xff]), "invalid utf-8"),
        (
            splice(&hello, COUNT + 3, b"/"),
            "reserved character in RDN '/=Grid'",
        ),
        ([&hello[..], &[0]].concat(), "trailing bytes"),
        (splice(&hello, 0, b"H"), "not a HELLO"),
        (hello[..5].to_vec(), "truncated u64"),
    ] {
        assert_eq!(refusal(&bytes), reason, "{bytes:?}");
    }

    let (hello, nonce) = wire_client_hello(&g.user, &mut g.rng);
    let (resp, pending) = wire_server_respond(&g.host, &g.roots, &hello, NOW, &mut g.rng).unwrap();
    assert!(matches!(
        wire_client_finish(&g.user, &g.roots, &[&resp[..], &[0]].concat(), nonce, NOW),
        Err(HandshakeError::Malformed(e)) if e.reason == "trailing bytes"
    ));
    let (fin, _) = wire_client_finish(&g.user, &g.roots, &resp, nonce, NOW).unwrap();
    assert!(matches!(
        wire_server_verify(&pending, &[&fin[..], &[0]].concat()),
        Err(HandshakeError::Malformed(e)) if e.reason == "trailing bytes"
    ));
    // Each message is refused where another is expected.
    assert!(wire_server_verify(&pending, &hello).is_err());
    assert!(wire_client_finish(&g.user, &g.roots, &hello, nonce, NOW).is_err());
    let mut rng = SplitMix64::new(1);
    assert!(wire_server_respond(&g.host, &g.roots, &resp, NOW, &mut rng).is_err());
}
