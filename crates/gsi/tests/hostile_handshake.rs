//! Hostile bytes over the GSI handshake and its certificate chains.
//!
//! A real HELLO (from an end entity and from a three-certificate proxy
//! chain), RESP and FIN, and the proxy chain on its own, are truncated at
//! every byte and have every byte flipped (each single bit, and all eight
//! at once) by the shared sweep (`tests/support/hostile.rs`). Whatever
//! arrives, the step that reads it returns — never panics — with a typed
//! `HandshakeError` / `WireParseError` or a value, and asks the allocator
//! for nothing larger than the message it was given (plus an error
//! message's worth). A chain that decodes re-encodes to its own bytes.

use infogram_gsi::wire::{decode_chain, encode_chain, MAX_ITEMS};
use infogram_gsi::{
    wire_client_finish, wire_client_hello, wire_server_respond, wire_server_verify,
    CertificateAuthority, Credential, Dn, HandshakeError,
};
use infogram_sim::{varint, SimTime, SplitMix64};
use std::time::Duration;

#[path = "../../../tests/support/hostile.rs"]
mod hostile;

use hostile::{input_plus_message, sweep};

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
        let refused = sweep(
            "HELLO",
            &hello,
            input_plus_message,
            |bytes| {
                let mut rng = SplitMix64::new(1);
                wire_server_respond(&g.host, &g.roots, bytes, NOW, &mut rng).map(|(resp, _)| resp)
            },
            None,
        );
        // Only a flipped nonce leaves a HELLO the server answers.
        assert_eq!(refused, hello.len() * 10 - 8 * 9, "{}", client.subject());
    }
}

#[test]
fn every_cut_and_flip_of_a_resp_is_a_typed_answer() {
    let mut g = grid();
    let (hello, nonce) = wire_client_hello(&g.user, &mut g.rng);
    let (resp, _) = wire_server_respond(&g.host, &g.roots, &hello, NOW, &mut g.rng).unwrap();
    sweep(
        "RESP",
        &resp,
        input_plus_message,
        |bytes| wire_client_finish(&g.user, &g.roots, bytes, nonce, NOW),
        None,
    );
}

#[test]
fn every_cut_and_flip_of_a_fin_is_refused() {
    let mut g = grid();
    let (hello, nonce) = wire_client_hello(&g.user, &mut g.rng);
    let (resp, pending) = wire_server_respond(&g.host, &g.roots, &hello, NOW, &mut g.rng).unwrap();
    let (fin, _) = wire_client_finish(&g.user, &g.roots, &resp, nonce, NOW).unwrap();
    let refused = sweep(
        "FIN",
        &fin,
        input_plus_message,
        |bytes| wire_server_verify(&pending, bytes),
        None,
    );
    assert_eq!(refused, fin.len() * 10);
    assert!(wire_server_verify(&pending, &fin).is_ok());
}

#[test]
fn every_cut_and_flip_of_a_proxy_chain_is_a_typed_answer() {
    let g = grid();
    let chain = encode_chain(&g.proxy.chain);
    sweep(
        "chain",
        &chain,
        input_plus_message,
        |bytes| decode_chain(bytes, &g.roots),
        Some(&|chain: &Vec<_>| encode_chain(chain)),
    );
    assert_eq!(decode_chain(&chain, &g.roots).unwrap(), g.proxy.chain);
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
            "truncated RDN attribute",
        ),
        (
            splice(&hello, COUNT + 3, &[0xff]),
            "invalid utf-8 in RDN attribute",
        ),
        (
            splice(&hello, COUNT + 3, b"/"),
            "reserved character in RDN '/=Grid'",
        ),
        ([&hello[..], &[0]].concat(), "trailing bytes"),
        (splice(&hello, 0, b"H"), "not a HELLO"),
        (hello[..5].to_vec(), "truncated nonce"),
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
