//! Mutual authentication handshake.
//!
//! Models the GSI/SSL exchange the gatekeeper runs before anything else
//! (§2: "the gatekeeper is responsible for authentication with the
//! client"). The exchange is three messages —
//!
//! 1. client → server: client chain + client nonce
//! 2. server → client: server chain + server nonce + signature over the
//!    client nonce
//! 3. client → server: signature over the server nonce
//!
//! — after which both sides hold a [`SecurityContext`].

use crate::cert::{verify_chain, CertError, Certificate, Credential};
use crate::dn::Dn;
use crate::policy::{Authorizer, AuthzError, Session};
use crate::wire::{self, WireParseError};
use infogram_sim::wire::{ReadError, Reader};
use infogram_sim::{SimTime, SplitMix64};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a handshake failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// The peer's certificate chain failed validation.
    BadChain(CertError),
    /// The peer's proof-of-possession signature did not verify.
    BadProof {
        /// Which side presented the bad proof.
        side: &'static str,
    },
    /// A wire message was malformed.
    Malformed(WireParseError),
    /// The authenticated peer may not use the resource.
    Unauthorized(AuthzError),
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::BadChain(e) => write!(f, "handshake: {e}"),
            HandshakeError::BadProof { side } => {
                write!(f, "handshake: bad proof of possession from {side}")
            }
            HandshakeError::Malformed(e) => {
                write!(f, "handshake: malformed message: {}", e.reason)
            }
            HandshakeError::Unauthorized(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// An established, mutually authenticated security context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityContext {
    /// The peer's base identity (proxies resolved).
    pub peer: Dn,
    /// The local party's base identity.
    pub local: Dn,
    /// When the peer's chain expires: its earliest `not_after`.
    pub valid_until: SimTime,
}

/// The handshake RNG of one endpoint: a client connecting, or a server
/// accepting one connection. Every endpoint of the process draws from one
/// lock-free stream — an atomic that steps by SplitMix64's gamma, mixed
/// on each draw — so no two draws share a state and two endpoints at one
/// clock reading never send the same nonce; a nonce that repeats lets a
/// recorded proof over it authenticate a second session. `now`, mixed
/// in, keeps a restarted process off its predecessor's stream.
fn nonce_rng(now: SimTime) -> SplitMix64 {
    static STREAM: AtomicU64 = AtomicU64::new(0);
    let state = STREAM.fetch_add(SplitMix64::GAMMA, Ordering::Relaxed);
    SplitMix64::new(SplitMix64::new(state).next_u64() ^ now.as_nanos())
}

// ---------------------------------------------------------------------
// The 3 messages as binary payloads, the only implementation: every
// client and server runs these four steps. Nonces and proofs are 8 bytes
// little-endian; a chain is `wire::put_chain`'s.
//
//   M1  client → server   HELLO  tag, client nonce, client chain
//   M2  server → client   RESP   tag, server nonce, proof over client
//                                nonce, server chain
//   M3  client → server   FIN    tag, proof over server nonce
// ---------------------------------------------------------------------

// Message tags: bytes UTF-8 never uses, so no text — a text-form
// handshake, a stray request line — starts with one, and none is
// `proto`'s `PROTOCOL_VERSION` (5) or the MDS's `'M'`, so no handshake
// message reads as a request or reply of either protocol. A HELLO or
// RESP whose chain names its issuers (`f5`, `f6`) is refused by its tag.
const HELLO: u8 = 0xf8;
const RESP: u8 = 0xf9;
const FIN: u8 = 0xf7;

impl From<WireParseError> for HandshakeError {
    fn from(e: WireParseError) -> Self {
        HandshakeError::Malformed(e)
    }
}

impl From<ReadError> for HandshakeError {
    fn from(e: ReadError) -> Self {
        HandshakeError::Malformed(e.into())
    }
}

/// Read the fields of `msg` after its tag with `fields`, if the tag is
/// `tag`; bytes after them are refused.
fn read<T>(
    msg: &[u8],
    tag: u8,
    refusal: &str,
    fields: impl FnOnce(&mut Reader<'_>) -> Result<T, HandshakeError>,
) -> Result<T, HandshakeError> {
    let mut r = Reader::new(msg);
    if r.u8("tag") != Ok(tag) {
        return Err(HandshakeError::Malformed(wire::err(refusal)));
    }
    let out = fields(&mut r)?;
    r.finish()?;
    Ok(out)
}

/// Server-side state between M1/M2 and M3.
#[derive(Debug, Clone)]
pub struct ServerPending {
    /// The client's authenticated base identity.
    pub client_identity: Dn,
    client_leaf_key: crate::cert::PublicKey,
    server_nonce: u64,
    server_identity: Dn,
    valid_until: SimTime,
}

/// Client step 1: build the HELLO payload. Returns the payload and the
/// client nonce to keep for [`wire_client_finish`].
pub fn wire_client_hello(client: &Credential, rng: &mut SplitMix64) -> (Vec<u8>, u64) {
    let nonce = rng.next_u64();
    let mut payload = Vec::with_capacity(1 + 8 + wire::chain_len(&client.chain));
    payload.push(HELLO);
    payload.extend_from_slice(&nonce.to_le_bytes());
    wire::put_chain(&mut payload, &client.chain);
    (payload, nonce)
}

/// Server step: validate the HELLO, produce the RESP payload and the
/// pending state for [`wire_server_verify`].
pub fn wire_server_respond(
    server: &Credential,
    trust_roots: &[Certificate],
    hello: &[u8],
    now: SimTime,
    rng: &mut SplitMix64,
) -> Result<(Vec<u8>, ServerPending), HandshakeError> {
    let (client_nonce, client_chain) = read(hello, HELLO, "not a HELLO", |r| {
        Ok((
            u64::from_le_bytes(r.array("nonce")?),
            wire::read_chain(r, trust_roots)?,
        ))
    })?;
    let client_identity =
        verify_chain(&client_chain, trust_roots, now).map_err(HandshakeError::BadChain)?;

    let server_nonce = rng.next_u64();
    let proof = server.key.sign(&client_nonce.to_le_bytes());
    let mut payload = Vec::with_capacity(1 + 8 + 8 + wire::chain_len(&server.chain));
    payload.push(RESP);
    payload.extend_from_slice(&server_nonce.to_le_bytes());
    payload.extend_from_slice(&proof.to_le_bytes());
    wire::put_chain(&mut payload, &server.chain);
    Ok((
        payload,
        ServerPending {
            client_identity,
            client_leaf_key: client_chain[0].subject_key,
            server_nonce,
            server_identity: server.base_identity(),
            valid_until: expiry(&client_chain),
        },
    ))
}

/// Client step 2: validate the RESP, produce the FIN payload and the
/// client-side security context.
pub fn wire_client_finish(
    client: &Credential,
    trust_roots: &[Certificate],
    resp: &[u8],
    client_nonce: u64,
    now: SimTime,
) -> Result<(Vec<u8>, SecurityContext), HandshakeError> {
    let (server_nonce, server_proof, server_chain) = read(resp, RESP, "not a RESP", |r| {
        Ok((
            u64::from_le_bytes(r.array("nonce")?),
            u64::from_le_bytes(r.array("proof")?),
            wire::read_chain(r, trust_roots)?,
        ))
    })?;
    let server_identity =
        verify_chain(&server_chain, trust_roots, now).map_err(HandshakeError::BadChain)?;
    if !server_chain[0]
        .subject_key
        .verify(&client_nonce.to_le_bytes(), server_proof)
    {
        return Err(HandshakeError::BadProof { side: "server" });
    }
    let fin_proof = client.key.sign(&server_nonce.to_le_bytes());
    let mut payload = vec![FIN];
    payload.extend_from_slice(&fin_proof.to_le_bytes());
    Ok((
        payload,
        SecurityContext {
            peer: server_identity,
            local: client.base_identity(),
            valid_until: expiry(&server_chain),
        },
    ))
}

/// Server step 2: validate the FIN and produce the server-side context.
pub fn wire_server_verify(
    pending: &ServerPending,
    fin: &[u8],
) -> Result<SecurityContext, HandshakeError> {
    let proof = read(fin, FIN, "not a FIN", |r| {
        Ok(u64::from_le_bytes(r.array("proof")?))
    })?;
    if !pending
        .client_leaf_key
        .verify(&pending.server_nonce.to_le_bytes(), proof)
    {
        return Err(HandshakeError::BadProof { side: "client" });
    }
    Ok(SecurityContext {
        peer: pending.client_identity.clone(),
        local: pending.server_identity.clone(),
        valid_until: pending.valid_until,
    })
}

/// When a verified chain stops verifying: its earliest `not_after`.
fn expiry(chain: &[Certificate]) -> SimTime {
    chain.iter().map(|c| c.not_after).min().unwrap_or_default()
}

/// The server's half of a bind over `send`/`recv`: read the HELLO, send
/// the RESP, verify the FIN, then authorize the peer for `resource`. The
/// caller answers with its own ack or refusal frame. A failure is the
/// caller's error: its transport's, or a [`HandshakeError`] made one.
pub fn accept<E: From<HandshakeError>>(
    server: &Credential,
    roots: &[Certificate],
    authorizer: &Authorizer,
    resource: &str,
    now: SimTime,
    mut send: impl FnMut(&[u8]) -> Result<(), E>,
    mut recv: impl FnMut() -> Result<Vec<u8>, E>,
) -> Result<Session, E> {
    let (resp, pending) = wire_server_respond(server, roots, &recv()?, now, &mut nonce_rng(now))?;
    send(&resp)?;
    let ctx = wire_server_verify(&pending, &recv()?)?;
    let authorized = authorizer.authorize(&ctx.peer, resource, now);
    let mut session = authorized.map_err(HandshakeError::Unauthorized)?;
    session.valid_until = session.valid_until.min(ctx.valid_until);
    Ok(session)
}

/// The client's half of a bind over `send`/`recv`: send the HELLO,
/// verify the RESP, send the FIN. Returns the server's answer to the FIN,
/// its ack or refusal frame for the caller to read, and the context; or
/// with no context the frame the server refused the HELLO with. A
/// failure is as [`accept`]'s.
pub fn bind<E: From<HandshakeError>>(
    client: &Credential,
    trust_roots: &[Certificate],
    now: SimTime,
    mut send: impl FnMut(&[u8]) -> Result<(), E>,
    mut recv: impl FnMut() -> Result<Vec<u8>, E>,
) -> Result<(Vec<u8>, Option<SecurityContext>), E> {
    let (hello, nonce) = wire_client_hello(client, &mut nonce_rng(now));
    send(&hello)?;
    let resp = recv()?;
    if resp.first() != Some(&RESP) {
        return Ok((resp, None));
    }
    let (fin, ctx) = wire_client_finish(client, trust_roots, &resp, nonce, now)?;
    send(&fin)?;
    Ok((recv()?, Some(ctx)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use std::time::Duration;

    struct World {
        ca: CertificateAuthority,
        rng: SplitMix64,
    }

    /// The four wire steps, HELLO to verified FIN: the client's context,
    /// then the server's.
    fn handshake(
        client: &Credential,
        server: &Credential,
        roots: &[Certificate],
        now: SimTime,
        rng: &mut SplitMix64,
    ) -> Result<(SecurityContext, SecurityContext), HandshakeError> {
        let (hello, nonce) = wire_client_hello(client, rng);
        let (resp, pending) = wire_server_respond(server, roots, &hello, now, rng)?;
        let (fin, client_ctx) = wire_client_finish(client, roots, &resp, nonce, now)?;
        Ok((client_ctx, wire_server_verify(&pending, &fin)?))
    }

    fn world() -> World {
        let mut rng = SplitMix64::new(7);
        let ca = CertificateAuthority::new_root(
            &Dn::user("Grid", "CA", "Root"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(10 * 365 * 86_400),
        );
        World { ca, rng }
    }

    #[test]
    fn successful_mutual_auth() {
        let mut w = world();
        let user = w.ca.issue(
            &Dn::user("Grid", "ANL", "Alice"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let host = w.ca.issue(
            &Dn::user("Grid", "Hosts", "gatekeeper.anl.gov"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let roots = [w.ca.certificate().clone()];
        let (cctx, sctx) =
            handshake(&user, &host, &roots, SimTime::from_secs(5), &mut w.rng).unwrap();
        assert_eq!(cctx.peer, Dn::user("Grid", "Hosts", "gatekeeper.anl.gov"));
        assert_eq!(sctx.peer, Dn::user("Grid", "ANL", "Alice"));
        assert_eq!(cctx.local, sctx.peer);
        assert_eq!(sctx.local, cctx.peer);
        assert_eq!(cctx.valid_until, SimTime::from_secs(86_400));
        assert_eq!(sctx.valid_until, SimTime::from_secs(86_400));
    }

    #[test]
    fn proxy_authenticates_as_owner() {
        let mut w = world();
        let user = w.ca.issue(
            &Dn::user("Grid", "ANL", "Bob"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let proxy = user
            .delegate(&mut w.rng, SimTime::ZERO, Duration::from_secs(3600), 0)
            .unwrap();
        let host = w.ca.issue(
            &Dn::user("Grid", "Hosts", "gk"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let roots = [w.ca.certificate().clone()];
        let (_c, sctx) =
            handshake(&proxy, &host, &roots, SimTime::from_secs(1), &mut w.rng).unwrap();
        assert_eq!(sctx.peer, Dn::user("Grid", "ANL", "Bob"));
    }

    #[test]
    fn expired_client_rejected() {
        let mut w = world();
        let user = w.ca.issue(
            &Dn::user("Grid", "ANL", "Expired"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(10),
        );
        let host = w.ca.issue(
            &Dn::user("Grid", "Hosts", "gk"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let roots = [w.ca.certificate().clone()];
        match handshake(&user, &host, &roots, SimTime::from_secs(100), &mut w.rng) {
            Err(HandshakeError::BadChain(CertError::Expired { .. })) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn untrusted_server_rejected() {
        let mut w = world();
        let mut rogue_rng = SplitMix64::new(13);
        let rogue_ca = CertificateAuthority::new_root(
            &Dn::user("Rogue", "CA", "Evil"),
            &mut rogue_rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let user = w.ca.issue(
            &Dn::user("Grid", "ANL", "Careful"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let evil_host = rogue_ca.issue(
            &Dn::user("Grid", "Hosts", "fake-gk"),
            &mut rogue_rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let roots = [w.ca.certificate().clone()];
        match handshake(&user, &evil_host, &roots, SimTime::ZERO, &mut w.rng) {
            Err(HandshakeError::BadChain(CertError::UntrustedRoot { .. })) => {}
            other => panic!("{other:?}"),
        }
    }

    /// Credentials shaped like the e21 benchmark's
    /// (`benchmark/src/world.rs`): the same DNs, a one-year lifetime from
    /// time zero, so serials 2 and 3 and the same field lengths.
    fn e21_shaped(seed: u64) -> (Credential, Credential, Vec<Certificate>, SplitMix64) {
        let mut rng = SplitMix64::new(seed);
        let year = Duration::from_secs(365 * 86_400);
        let ca = CertificateAuthority::new_root(
            &Dn::user("Grid", "CA", "E21 Root CA"),
            &mut rng,
            SimTime::ZERO,
            year,
        );
        let user = ca.issue(
            &Dn::user("Grid", "Bench", "e21-client"),
            &mut rng,
            SimTime::ZERO,
            year,
        );
        let service = ca.issue(
            &Dn::user("Grid", "Hosts", "127.0.0.1"),
            &mut rng,
            SimTime::ZERO,
            year,
        );
        (user, service, vec![ca.certificate().clone()], rng)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// HELLO, RESP and FIN with e21's credentials; `scripts/check_docs.sh`
    /// holds DESIGN §8.1's handshake table to these three.
    const E21_HELLO_BYTES: usize = 76;
    const E21_RESP_BYTES: usize = 83;
    const E21_FIN_BYTES: usize = 9;

    #[test]
    fn wire_handshake_golden_bytes() {
        // A DN is its RDN count, then length + UTF-8 of each attribute
        // and value; the issuer, a trust root, is its name's digest.
        const ROOT: &str = "7547e03764eb12fb"; // /O=Grid/OU=CA/CN=E21 Root CA
        const YEAR: &str = "80808cedb2ba8238"; // 365 days in ns
        let hello = [
            "f8",               // HELLO
            "c175bb0b0a05ada6", // client nonce
            "01",               // one certificate
            // subject /O=Grid/OU=Bench/CN=e21-client
            "03014f0447726964024f550542656e636802434e0a6532312d636c69656e74",
            "02",               // serial
            "00",               // not_before
            YEAR,               // not_after
            "bfd5fe2529ff4fea", // key
            "236de28f7003e128", // signature
            "21",               // end entity, issued by a trust root
            ROOT,               // issuer
        ]
        .concat();
        let resp = [
            "f9",               // RESP
            "e93e7f0c9afe1017", // server nonce
            "8021f2ac80c236b9", // proof over the client nonce
            "01",
            // subject /O=Grid/OU=Hosts/CN=127.0.0.1
            "03014f0447726964024f5505486f73747302434e093132372e302e302e31",
            "03",
            "00",
            YEAR,
            "bfc65e78feae6486",
            "5050fa2728e8b6e3",
            "21",
            ROOT,
        ]
        .concat();
        let fin = "f73ca1a8e7467176b8"; // FIN, proof

        let (user, service, roots, mut rng) = e21_shaped(21);
        let now = SimTime::from_secs(1);
        let (m1, nonce) = wire_client_hello(&user, &mut rng);
        let (m2, pending) = wire_server_respond(&service, &roots, &m1, now, &mut rng).unwrap();
        let (m3, _) = wire_client_finish(&user, &roots, &m2, nonce, now).unwrap();
        wire_server_verify(&pending, &m3).unwrap();
        assert_eq!(hex(&m1), hello);
        assert_eq!(hex(&m2), resp);
        assert_eq!(hex(&m3), fin);
    }

    /// The sizes hold for any seed: nonces, keys and signatures are
    /// fixed-width, and the serials and lifetimes are the same.
    #[test]
    fn wire_handshake_sizes_with_e21_credentials() {
        for seed in [1, 21, 0xe21, u64::MAX] {
            let (user, service, roots, mut rng) = e21_shaped(seed);
            let (m1, nonce) = wire_client_hello(&user, &mut rng);
            let (m2, _) =
                wire_server_respond(&service, &roots, &m1, SimTime::ZERO, &mut rng).unwrap();
            let (m3, _) = wire_client_finish(&user, &roots, &m2, nonce, SimTime::ZERO).unwrap();
            assert_eq!(
                [m1.len(), m2.len(), m3.len()],
                [E21_HELLO_BYTES, E21_RESP_BYTES, E21_FIN_BYTES],
                "seed {seed}"
            );
        }
    }

    /// A DN is sent as its RDN pairs, so both ends of the wire see exactly
    /// the DN the CA issued — including values a text form would trim or
    /// split.
    #[test]
    fn every_dn_a_ca_issues_authenticates_over_the_wire() {
        let mut w = world();
        let host = w.ca.issue(
            &Dn::user("Grid", "Hosts", "gk"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let roots = [w.ca.certificate().clone()];
        let now = SimTime::from_secs(1);
        for cn in [" Alice", "Alice ", "Al\x1eice", "Al\x1fice"] {
            let dn = Dn::from_rdns(vec![
                ("O".to_string(), "Grid".to_string()),
                ("OU".to_string(), "ANL".to_string()),
                ("CN".to_string(), cn.to_string()),
            ])
            .unwrap();
            let user =
                w.ca.issue(&dn, &mut w.rng, SimTime::ZERO, Duration::from_secs(86_400));
            let (cctx, sctx) = handshake(&user, &host, &roots, now, &mut w.rng)
                .unwrap_or_else(|e| panic!("{cn:?}: {e}"));
            assert_eq!(sctx.peer, dn, "{cn:?}");
            assert_eq!(cctx.local, dn, "{cn:?}");
        }
    }

    /// `bind` against `accept` for "cluster" at `now`, over two
    /// channels; the server acks with `ok` or refuses with `no`.
    fn bound(
        client: &Credential,
        server: &Credential,
        roots: &[Certificate],
        authorizer: &Authorizer,
        now: SimTime,
    ) -> (Result<Session, Option<HandshakeError>>, Vec<u8>) {
        let (to_server, server_rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let (to_client, client_rx) = std::sync::mpsc::channel::<Vec<u8>>();
        std::thread::scope(|scope| {
            let accepted = scope.spawn(move || {
                let send = |m: &[u8]| to_client.send(m.to_vec()).map_err(|_| None);
                let session = accept(server, roots, authorizer, "cluster", now, send, || {
                    server_rx.recv().map_err(|_| None)
                });
                let _ = send(if session.is_ok() { b"ok" } else { b"no" });
                session
            });
            let send = |m: &[u8]| to_server.send(m.to_vec()).map_err(|_| None);
            let recv = || client_rx.recv().map_err(|_| None);
            let (ack, _) = bind::<Option<HandshakeError>>(client, roots, now, send, recv).unwrap();
            (accepted.join().unwrap(), ack)
        })
    }

    #[test]
    fn a_session_lasts_until_its_chain_expires_or_its_contract_run_closes() {
        let mut w = world();
        let alice = Dn::user("Grid", "ANL", "Alice");
        let two_days = Duration::from_secs(2 * 86_400);
        let user = w.ca.issue(&alice, &mut w.rng, SimTime::ZERO, two_days);
        let host = w.ca.issue(
            &Dn::user("Grid", "Hosts", "gk"),
            &mut w.rng,
            SimTime::ZERO,
            two_days,
        );
        let roots = [w.ca.certificate().clone()];
        let hour = |h: u64| SimTime::from_secs(h * 3600);
        let proxy = user
            .delegate(&mut w.rng, hour(15), Duration::from_secs(3600), 0)
            .unwrap();
        let mut gridmap = crate::GridMap::new();
        gridmap.add(alice.clone(), &["alice"]);
        let contract = |from, until| {
            let window = vec![crate::Window::daily_hours(from, until)];
            let contracts = vec![crate::Contract::new(alice.clone(), "cluster", window)];
            Authorizer::with_contracts(gridmap.clone(), contracts)
        };
        let half_past_three = hour(15).plus(Duration::from_secs(1800));
        let gridmap_only = Authorizer::gridmap_only(gridmap.clone());
        for (client, authorizer, until) in [
            (&user, &gridmap_only, hour(48)),
            (&proxy, &gridmap_only, hour(16)),
            (&user, &contract(15, 16), hour(16)),
            (&user, &contract(0, 24), hour(48)),
        ] {
            let (session, ack) = bound(client, &host, &roots, authorizer, half_past_three);
            assert_eq!((session.unwrap().valid_until, ack), (until, b"ok".to_vec()));
        }
        let (refused, ack) = bound(&user, &host, &roots, &contract(9, 10), half_past_three);
        assert!(matches!(
            refused,
            Err(Some(HandshakeError::Unauthorized(_)))
        ));
        assert_eq!(ack, b"no");
    }

    #[test]
    fn no_two_endpoints_at_one_clock_reading_share_a_nonce() {
        let now = SimTime::from_secs(1);
        let nonces: std::collections::HashSet<u64> =
            (0..1_000).map(|_| nonce_rng(now).next_u64()).collect();
        assert_eq!(nonces.len(), 1_000);
    }

    #[test]
    fn wire_handshake_rejects_wrong_key() {
        let mut w = world();
        let user = w.ca.issue(
            &Dn::user("Grid", "ANL", "Mallory"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let host = w.ca.issue(
            &Dn::user("Grid", "Hosts", "gk"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let roots = [w.ca.certificate().clone()];
        let now = SimTime::ZERO;
        // Mallory presents Alice's chain but does not hold her key.
        let alice = w.ca.issue(
            &Dn::user("Grid", "ANL", "RealAlice"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let stolen = Credential {
            key: user.key, // wrong private key
            chain: alice.chain.clone(),
        };
        let (m1, nonce) = wire_client_hello(&stolen, &mut w.rng);
        let (m2, pending) = wire_server_respond(&host, &roots, &m1, now, &mut w.rng)
            .expect("chain itself is valid");
        let (m3, _cctx) = wire_client_finish(&stolen, &roots, &m2, nonce, now).unwrap();
        // The FIN proof is signed with the wrong key: server rejects.
        assert!(matches!(
            wire_server_verify(&pending, &m3),
            Err(HandshakeError::BadProof { side: "client" })
        ));
    }

    #[test]
    fn wire_handshake_rejects_garbage() {
        let mut w = world();
        let host = w.ca.issue(
            &Dn::user("Grid", "Hosts", "gk"),
            &mut w.rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let roots = [w.ca.certificate().clone()];
        for noise in [&b""[..], b"HELLO", b"\xff\xfe", b"HELLO\x1fnope\x1echain"] {
            assert!(
                wire_server_respond(&host, &roots, noise, SimTime::ZERO, &mut w.rng).is_err(),
                "{noise:?} accepted"
            );
        }
    }
}
