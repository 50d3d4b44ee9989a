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
//! The cached forms go through `accept` and `bind`: a cached HELLO or
//! RESP costs its reader no more than the full one it stands for, and a
//! digest that names nothing falls back to sending the chain.

use infogram_gsi::wire::{decode_chain, encode_chain, INHERITED_MAX, MAX_ITEMS};
use infogram_gsi::{
    accept, bind, wire_client_finish, wire_client_hello, wire_server_respond, wire_server_verify,
    Authorizer, CertificateAuthority, Credential, Dn, GridMap, HandshakeError, SecurityContext,
};
use infogram_sim::{varint, SimTime, SplitMix64};
use std::cell::RefCell;
use std::sync::mpsc;
use std::time::Duration;

#[path = "../../../tests/support/hostile.rs"]
mod hostile;

use hostile::{input_plus_message, largest_request, peak_held, sweep};

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

/// What decoding a chain of `len` bytes may hold at once: four times its
/// bytes for the names it spells out (each then copied as an issuer) and
/// its certificates (80 B each, ≥ 25 on the wire), and twice what its
/// subjects may inherit (again copied as issuers).
fn decoding_holds(len: usize) -> usize {
    4 * len + 2 * INHERITED_MAX
}

/// Sixty-four certificates, the most a chain holds, each proxy's subject
/// its issuer's plus `CN=proxy`: the leaf's subject decodes to 66 RDNs.
/// Decoded or answered, it asks for no more than the message plus an
/// error's worth at once and holds no more than [`decoding_holds`]; every
/// cut is refused within the first bound; a sixty-fifth certificate is
/// refused.
#[test]
fn a_chain_of_sixty_four_inherited_subjects_decodes_within_the_bound() {
    let mut g = grid();
    let day = Duration::from_secs(86_400);
    let mut deep = g.user.delegate(&mut g.rng, NOW, day, 62).unwrap();
    while deep.chain.len() < MAX_ITEMS as usize {
        deep = deep.delegate(&mut g.rng, NOW, day, 62).unwrap();
    }
    assert_eq!(deep.subject().rdns().len(), 66);
    let bytes = encode_chain(&deep.chain);
    let ((decoded, held), largest) =
        largest_request(|| peak_held(|| decode_chain(&bytes, &g.roots)));
    assert_eq!(decoded.unwrap(), deep.chain);
    assert!(
        largest <= input_plus_message(bytes.len()) && held <= decoding_holds(bytes.len()),
        "{largest}, {held} for {} bytes",
        bytes.len()
    );
    for cut in 0..bytes.len() {
        let (decoded, largest) = largest_request(|| decode_chain(&bytes[..cut], &g.roots));
        assert!(
            decoded.is_err() && largest <= input_plus_message(cut),
            "cut {cut}"
        );
    }
    let (hello, _) = wire_client_hello(&deep, &mut g.rng);
    let mut rng = SplitMix64::new(1);
    let ((answered, held), largest) = largest_request(|| {
        peak_held(|| wire_server_respond(&g.host, &g.roots, &hello, NOW, &mut rng))
    });
    assert_eq!(answered.unwrap().1.client_identity, g.user.base_identity());
    assert!(
        largest <= input_plus_message(hello.len()) && held <= decoding_holds(hello.len()),
        "{largest}, {held} for {} bytes",
        hello.len()
    );
    let deeper: Vec<_> = [deep.chain[0].clone()]
        .into_iter()
        .chain(deep.chain)
        .collect();
    assert!(matches!(
        decode_chain(&encode_chain(&deeper), &g.roots),
        Err(HandshakeError::Malformed(e)) if e.reason == "too many certificates"
    ));
}

/// A last certificate of 64 long RDNs under 63 proxies that inherit its
/// subject: decoded in full, each proxy's subject and issuer would copy
/// it again, 64 to 128 times its bytes. The copies stop at
/// `INHERITED_MAX`: the chain is refused, holding no more than
/// [`decoding_holds`] at once — its signatures, never checked, are
/// nobody's.
#[test]
fn a_chain_inheriting_a_long_subject_is_refused_within_the_bound() {
    let g = grid();
    for value_len in [16, 4096] {
        let long = (0..MAX_ITEMS).map(|i| ("CN".to_string(), format!("{i:0value_len$}")));
        let mut last = g.user.chain[0].clone();
        last.subject = Dn::from_rdns(long.collect()).unwrap();
        let mut chain = vec![last];
        while chain.len() < MAX_ITEMS as usize {
            let mut proxy = g.proxy.chain[0].clone();
            proxy.issuer = chain[0].subject.clone();
            proxy.subject = proxy.issuer.child("CN", "proxy");
            chain.insert(0, proxy);
        }
        let bytes = encode_chain(&chain);
        let (decoded, held) = peak_held(|| decode_chain(&bytes, &g.roots));
        assert!(
            matches!(&decoded, Err(HandshakeError::Malformed(e)) if e.reason == "inherited names too long"),
            "{value_len}: {decoded:?}"
        );
        let bound = decoding_holds(bytes.len());
        assert!(
            held <= bound,
            "{value_len}: {held} for {} bytes",
            bytes.len()
        );
    }
}

/// Alice, mapped; every bind here is for "cluster".
fn authorizer() -> Authorizer {
    Authorizer::gridmap_only(GridMap::parse("\"/O=Grid/OU=ANL/CN=Alice\" alice").unwrap())
}

/// `client`'s bind to `server` at "gk", `bind` against `accept` on two
/// threads: every message, in the order sent.
fn bound(
    client: &Credential,
    server: &Credential,
    roots: &[infogram_gsi::Certificate],
) -> Vec<Vec<u8>> {
    let (to_server, server_rx) = mpsc::channel::<Vec<u8>>();
    let (to_client, client_rx) = mpsc::channel::<Vec<u8>>();
    let authz = &authorizer();
    std::thread::scope(|scope| {
        let accepted = scope.spawn(move || {
            let mut sent = Vec::new();
            let mut send = |m: &[u8]| {
                sent.push(m.to_vec());
                to_client.send(m.to_vec()).map_err(|_| None)
            };
            let recv = || server_rx.recv().map_err(|_| None::<HandshakeError>);
            let ok = accept(server, roots, authz, "cluster", NOW, &mut send, recv).is_ok();
            let _ = send(if ok { b"ok" } else { b"no" });
            sent
        });
        let mut sent = Vec::new();
        let send = |m: &[u8]| {
            sent.push(m.to_vec());
            to_server.send(m.to_vec()).map_err(|_| None)
        };
        let recv = || client_rx.recv().map_err(|_| None::<HandshakeError>);
        bind(client, roots, "gk", NOW, send, recv).unwrap();
        let answers = accepted.join().unwrap();
        let mut all = Vec::new();
        for (mine, theirs) in sent.into_iter().zip(answers) {
            all.extend([mine, theirs]);
        }
        all
    })
}

/// The server's answer to a HELLO: the RESP it sent, or why it sent none.
fn answer(g: &Grid, authz: &Authorizer, hello: &[u8]) -> Result<Vec<u8>, Option<HandshakeError>> {
    let resp = RefCell::new(None);
    let mut messages = [hello.to_vec()].into_iter();
    let send = |m: &[u8]| {
        *resp.borrow_mut() = Some(m.to_vec());
        Ok(())
    };
    let outcome = accept(&g.host, &g.roots, authz, "cluster", NOW, send, || {
        messages.next().ok_or(None)
    });
    match (outcome, resp.into_inner()) {
        (Err(None), Some(resp)) => Ok(resp),
        (outcome, _) => Err(outcome.err().flatten()),
    }
}

/// The client's reading of `resp` to a cached HELLO: its context and the
/// server's ack, or why it sent no FIN.
fn finish(
    client: &Credential,
    g: &Grid,
    resp: &[u8],
) -> Result<(Vec<u8>, Option<SecurityContext>), Option<HandshakeError>> {
    let mut answers = [resp.to_vec(), b"ok".to_vec()].into_iter();
    bind(
        client,
        &g.roots,
        "gk",
        NOW,
        |_| Ok(()),
        || answers.next().ok_or(None),
    )
}

#[test]
fn every_cut_and_flip_of_the_cached_forms_is_a_typed_answer() {
    let (g, authz) = (grid(), authorizer());
    let full = bound(&g.user, &g.host, &g.roots);
    let cached = bound(&g.user, &g.host, &g.roots);
    assert_eq!(
        cached.iter().map(Vec::len).collect::<Vec<_>>(),
        [25, 17, 9, 2]
    );
    // Flipped, the nonce is answered, a client digest is a miss and a
    // server digest a mismatch, both answered: only cuts and the tag
    // are refused.
    let refused = sweep(
        "cached HELLO",
        &cached[0],
        |_| input_plus_message(full[0].len()),
        |bytes| answer(&g, &authz, bytes),
        None,
    );
    assert_eq!(refused, cached[0].len() + 9);
    // A RESP answers a nonce drawn for this bind: nothing recorded for
    // another verifies.
    let refused = sweep(
        "cached RESP",
        &cached[1],
        |_| input_plus_message(full[1].len()),
        |bytes| finish(&g.user, &g, bytes).and_then(|(ack, ctx)| ctx.map(|_| ack).ok_or(None)),
        None,
    );
    assert_eq!(refused, cached[1].len() * 10);
    // The FIN of a client whose chain the server does not hold: the
    // proxy's chain, named from a table that names the server.
    let mut stranger = g.user.clone();
    (stranger.key, stranger.chain) = (g.proxy.key, g.proxy.chain.clone());
    let mut miss = cached[0].clone();
    miss[9] ^= 1;
    let fin_chain = [&[0xfe][..], &[0; 8], &encode_chain(&stranger.chain)].concat();
    let refused = sweep(
        "FIN with a chain",
        &fin_chain,
        input_plus_message,
        |bytes| {
            let mut messages = [miss.clone(), bytes.to_vec()].into_iter();
            accept(
                &g.host,
                &g.roots,
                &authz,
                "cluster",
                NOW,
                |_| Ok(()),
                || messages.next().ok_or(None::<HandshakeError>),
            )
        },
        None,
    );
    assert_eq!(refused, fin_chain.len() * 10);
}

/// Why a cached form was refused.
fn refusal<T: std::fmt::Debug>(outcome: Result<T, Option<HandshakeError>>) -> String {
    match outcome {
        Err(Some(HandshakeError::Malformed(e))) => e.reason,
        other => panic!("{other:?}"),
    }
}

#[test]
fn hostile_cached_forms_are_refused_by_name_or_fall_back() {
    let (g, authz) = (grid(), authorizer());
    let full = bound(&g.user, &g.host, &g.roots);
    let cached = bound(&g.user, &g.host, &g.roots);
    let hello = &cached[0];
    assert_eq!(
        refusal(answer(&g, &authz, &[&hello[..], &[0]].concat())),
        "trailing bytes"
    );
    assert_eq!(
        refusal(answer(&g, &authz, &hello[..24])),
        "truncated server digest"
    );
    // The tags from before chains named no issuer stay refused.
    for old in [0xf5, 0xf6] {
        let mut tagged = hello.clone();
        tagged[0] = old;
        assert_eq!(refusal(answer(&g, &authz, &tagged)), "not a HELLO");
    }
    let resp = &cached[1];
    assert_eq!(
        refusal(finish(&g.user, &g, &[&resp[..], &[0]].concat())),
        "trailing bytes"
    );
    // A RESP that leaves out a chain the HELLO did not name.
    assert_eq!(refusal(finish(&g.proxy, &g, resp)), "not a RESP");
    // A client digest naming nothing is a miss: the RESP asks for the
    // chain. A server digest naming another chain is a mismatch: the RESP
    // sends it.
    let (mut miss, mut mismatch) = (hello.clone(), hello.clone());
    miss[9] ^= 0xff;
    mismatch[17] ^= 0xff;
    assert_eq!(answer(&g, &authz, &miss).unwrap()[0], 0xfd);
    assert_eq!(answer(&g, &authz, &mismatch).unwrap().len(), full[1].len());
}
