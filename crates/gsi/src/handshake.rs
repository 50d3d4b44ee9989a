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
//! — after which both sides hold a [`SecurityContext`]. A client that
//! bound to an address before names both chains by digest instead, and
//! a chain travels only to a peer that does not hold it (the cached
//! forms, below), as TLS's cached information (RFC 7924) does.

use crate::cert::{verify_chain, CertError, Certificate, Credential};
use crate::dn::Dn;
use crate::policy::{Authorizer, AuthzError, Session};
use crate::wire::{self, WireParseError};
use infogram_sim::wire::{ReadError, Reader};
use infogram_sim::{SimTime, SplitMix64};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

/// A verified chain, as a table holds it and a handshake reads it.
type Chain = Arc<[Certificate]>;

/// The most chains a credential holds of each kind: client chains by
/// digest, server chains by address.
pub(crate) const PEER_CHAINS: usize = 1024;

/// The peer chains a credential verified, for the cached forms: the
/// client chains a server accepted, by digest, and the chain a client
/// verified at each address, with its digest. Clones of the credential
/// share one table, made at the first clone or the first chain
/// remembered — none before — the way OpenSSL keeps sessions on an
/// `SSL_CTX`. A full map drops an arbitrary entry for a new one.
#[derive(Debug, Default)]
pub(crate) struct PeerChains(OnceLock<Arc<Mutex<Known>>>);

#[derive(Debug, Default)]
struct Known {
    clients: HashMap<u64, Chain>,
    servers: HashMap<Box<str>, (u64, Chain)>,
}

impl Clone for PeerChains {
    /// The same table.
    fn clone(&self) -> Self {
        PeerChains(OnceLock::from(Arc::clone(self.shared())))
    }
}

impl PeerChains {
    fn shared(&self) -> &Arc<Mutex<Known>> {
        self.0.get_or_init(Arc::default)
    }

    fn client(&self, digest: u64) -> Option<Chain> {
        self.0.get()?.lock().clients.get(&digest).cloned()
    }

    fn server(&self, addr: &str) -> Option<(u64, Chain)> {
        self.0.get()?.lock().servers.get(addr).cloned()
    }

    fn remember_client(&self, chain: Chain) {
        let digest = wire::chain_digest(&chain);
        bounded(&mut self.shared().lock().clients, digest, chain);
    }

    fn remember_server(&self, addr: &str, chain: Chain) {
        let entry = (wire::chain_digest(&chain), chain);
        bounded(&mut self.shared().lock().servers, addr.into(), entry);
    }

    fn forget_client(&self, digest: u64) {
        if let Some(known) = self.0.get() {
            known.lock().clients.remove(&digest);
        }
    }

    fn forget_server(&self, addr: &str) {
        if let Some(known) = self.0.get() {
            known.lock().servers.remove(addr);
        }
    }
}

/// Insert into a map of at most [`PEER_CHAINS`] entries.
fn bounded<K: Hash + Eq + Clone, V>(map: &mut HashMap<K, V>, key: K, value: V) {
    if map.len() >= PEER_CHAINS && !map.contains_key(&key) {
        if let Some(old) = map.keys().next().cloned() {
            map.remove(&old);
        }
    }
    map.insert(key, value);
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
// client and server runs these steps. Nonces, proofs and digests are 8
// bytes little-endian; a chain is `wire::put_chain`'s.
//
//   M1  client → server   HELLO  tag, client nonce, client chain
//   M2  server → client   RESP   tag, server nonce, proof over client
//                                nonce, server chain
//   M3  client → server   FIN    tag, proof over server nonce
//
// A client holding the chain an address presented last sends the cached
// forms, naming a chain by `wire::chain_digest`:
//
//   M1  CACHED_HELLO  tag, client nonce, client chain's digest, server
//                     chain's digest
//   M2  a RESP without the server chain where the server's matches
//       (`CACHED_RESP`); one that asks for the client chain where the
//       server holds none under its digest (`*_MISS`)
//   M3  a FIN, plus the client chain after the proof if asked
//       (`FIN_CHAIN`)
//
// A digest is a hint: a chain named wrongly fails its proof, and a
// chain named is verified at `now` as one sent is.
// ---------------------------------------------------------------------

// Message tags: bytes UTF-8 never uses, so no text — a text-form
// handshake, a stray request line — starts with one, and none is
// `proto`'s `PROTOCOL_VERSION` (5) or the MDS's `'M'`, so no handshake
// message reads as a request or reply of either protocol. A HELLO or
// RESP whose chain names its issuers (`f5`, `f6`) is refused by its tag.
const HELLO: u8 = 0xf8;
const RESP: u8 = 0xf9;
const FIN: u8 = 0xf7;
const CACHED_HELLO: u8 = 0xfa;
const CACHED_RESP: u8 = 0xfb;
const RESP_MISS: u8 = 0xfc;
const CACHED_RESP_MISS: u8 = 0xfd;
const FIN_CHAIN: u8 = 0xfe;

/// The RESP tags by form: the form's [`LEAVES_CHAIN`] bit is set when
/// the server's chain is left out, its [`ASKS_CHAIN`] bit when the
/// client's is asked for.
const RESPS: [u8; 4] = [RESP, CACHED_RESP, RESP_MISS, CACHED_RESP_MISS];
const LEAVES_CHAIN: usize = 1;
const ASKS_CHAIN: usize = 2;

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
    client_chain: Chain,
    server_nonce: u64,
    server_identity: Dn,
}

impl ServerPending {
    /// `chain` verified at `now`, from a client whose RESP carries
    /// `server_nonce`.
    fn verified(
        server: &Credential,
        roots: &[Certificate],
        chain: Chain,
        now: SimTime,
        server_nonce: u64,
    ) -> Result<Self, HandshakeError> {
        let client_identity = verify_chain(&chain, roots, now).map_err(HandshakeError::BadChain)?;
        Ok(ServerPending {
            client_identity,
            client_chain: chain,
            server_nonce,
            server_identity: server.base_identity(),
        })
    }

    /// The server's context, once `proof` shows the client holds its
    /// leaf's key.
    fn proved(&self, proof: u64) -> Result<SecurityContext, HandshakeError> {
        let nonce = self.server_nonce.to_le_bytes();
        if !self.client_chain[0].subject_key.verify(&nonce, proof) {
            return Err(HandshakeError::BadProof { side: "client" });
        }
        Ok(SecurityContext {
            peer: self.client_identity.clone(),
            local: self.server_identity.clone(),
            valid_until: expiry(&self.client_chain),
        })
    }
}

/// A message: `tag`, 8-byte `words`, then `chain` if there is one.
fn message(tag: u8, words: &[u64], chain: Option<&[Certificate]>) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 * words.len() + chain.map_or(0, wire::chain_len));
    out.push(tag);
    for word in words {
        out.extend_from_slice(&word.to_le_bytes());
    }
    if let Some(chain) = chain {
        wire::put_chain(&mut out, chain);
    }
    out
}

/// `N` 8-byte little-endian fields, named `fields`.
fn words<const N: usize>(
    r: &mut Reader<'_>,
    fields: [&'static str; N],
) -> Result<[u64; N], HandshakeError> {
    let mut out = [0; N];
    for (word, field) in out.iter_mut().zip(fields) {
        *word = u64::from_le_bytes(r.array(field)?);
    }
    Ok(out)
}

/// A full HELLO's nonce and chain.
fn read_hello(hello: &[u8], roots: &[Certificate]) -> Result<(u64, Chain), HandshakeError> {
    read(hello, HELLO, "not a HELLO", |r| {
        Ok((words(r, ["nonce"])?[0], wire::read_chain(r, roots)?.into()))
    })
}

/// A RESP of `form` (see [`RESPS`]): the server nonce, the proof over
/// the client nonce, and the server's chain unless the form leaves it
/// out.
fn resp(server: &Credential, form: usize, client_nonce: u64, server_nonce: u64) -> Vec<u8> {
    let proof = server.key.sign(&client_nonce.to_le_bytes());
    let chain = (form & LEAVES_CHAIN == 0).then_some(&server.chain[..]);
    message(RESPS[form], &[server_nonce, proof], chain)
}

/// The server's half of a handshake of either form over `send`/`recv`,
/// drawing `server_nonce`: its context. A client chain that arrived in
/// full and proved its key is remembered; one held under the HELLO's
/// digest that fails its check or its proof is forgotten — the digest
/// named a wrong or a dead chain — so the client's next bind sends its
/// own.
fn serve<E: From<HandshakeError>>(
    server: &Credential,
    roots: &[Certificate],
    now: SimTime,
    server_nonce: u64,
    mut send: impl FnMut(&[u8]) -> Result<(), E>,
    mut recv: impl FnMut() -> Result<Vec<u8>, E>,
) -> Result<SecurityContext, E> {
    let hello = recv()?;
    let (client_nonce, held, form) = if hello.first() == Some(&CACHED_HELLO) {
        let [nonce, client, named] = read(&hello, CACHED_HELLO, "not a HELLO", |r| {
            words(r, ["nonce", "client digest", "server digest"])
        })?;
        let ours = named == wire::chain_digest(&server.chain);
        let form = if ours { LEAVES_CHAIN } else { 0 };
        match server.peers.client(client) {
            Some(chain) => (nonce, Some((chain, Some(client))), form),
            None => (nonce, None, form | ASKS_CHAIN),
        }
    } else {
        let (nonce, chain) = read_hello(&hello, roots)?;
        (nonce, Some((chain, None)), 0)
    };
    let verified = |chain| ServerPending::verified(server, roots, chain, now, server_nonce);
    let forget = |digest: Option<u64>, e| {
        if let Some(digest) = digest {
            server.peers.forget_client(digest);
        }
        e
    };
    let held = match held {
        Some((chain, digest)) => Some((verified(chain).map_err(|e| forget(digest, e))?, digest)),
        None => None,
    };
    send(&resp(server, form, client_nonce, server_nonce))?;
    let fin = recv()?;
    let (ctx, pending, sent) = match held {
        Some((pending, digest)) => {
            let proved = wire_server_verify(&pending, &fin).map_err(|e| forget(digest, e))?;
            (proved, pending, digest.is_none())
        }
        None => {
            let (proof, chain) = read(&fin, FIN_CHAIN, "not a FIN", |r| {
                Ok((words(r, ["proof"])?[0], wire::read_chain(r, roots)?.into()))
            })?;
            let pending = verified(chain)?;
            (pending.proved(proof)?, pending, true)
        }
    };
    if sent {
        server.peers.remember_client(pending.client_chain);
    }
    Ok(ctx)
}

/// The client's reading of a RESP to a HELLO that named the server
/// chain `named`, or to a full one: the server's chain, sent or named,
/// verifies at `now` and its leaf signed `client_nonce`. Returns the
/// FIN — carrying the client chain if the server asked for it — the
/// context, and the server chain if the RESP sent one.
fn client_finish(
    client: &Credential,
    roots: &[Certificate],
    resp: &[u8],
    named: Option<&Chain>,
    client_nonce: u64,
    now: SimTime,
) -> Result<(Vec<u8>, SecurityContext, Option<Chain>), HandshakeError> {
    let not_a_resp = || HandshakeError::Malformed(wire::err("not a RESP"));
    let form = RESPS.iter().position(|&tag| resp.first() == Some(&tag));
    let form = form.filter(|&form| form == 0 || named.is_some());
    let form = form.ok_or_else(not_a_resp)?;
    let ([server_nonce, proof], sent) = read(resp, RESPS[form], "not a RESP", |r| {
        let words = words(r, ["nonce", "proof"])?;
        let sent = match form & LEAVES_CHAIN {
            0 => Some(Chain::from(wire::read_chain(r, roots)?)),
            _ => None,
        };
        Ok((words, sent))
    })?;
    let chain = sent.as_ref().or(named).ok_or_else(not_a_resp)?;
    let server_identity = verify_chain(chain, roots, now).map_err(HandshakeError::BadChain)?;
    let nonce = client_nonce.to_le_bytes();
    if !chain[0].subject_key.verify(&nonce, proof) {
        return Err(HandshakeError::BadProof { side: "server" });
    }
    let proof = client.key.sign(&server_nonce.to_le_bytes());
    let fin = match form & ASKS_CHAIN {
        0 => message(FIN, &[proof], None),
        _ => message(FIN_CHAIN, &[proof], Some(&client.chain)),
    };
    let ctx = SecurityContext {
        peer: server_identity,
        local: client.base_identity(),
        valid_until: expiry(chain),
    };
    Ok((fin, ctx, sent))
}

/// Client step 1: build the HELLO payload. Returns the payload and the
/// client nonce to keep for [`wire_client_finish`].
pub fn wire_client_hello(client: &Credential, rng: &mut SplitMix64) -> (Vec<u8>, u64) {
    let nonce = rng.next_u64();
    (message(HELLO, &[nonce], Some(&client.chain)), nonce)
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
    let (client_nonce, chain) = read_hello(hello, trust_roots)?;
    let server_nonce = rng.next_u64();
    let pending = ServerPending::verified(server, trust_roots, chain, now, server_nonce)?;
    Ok((resp(server, 0, client_nonce, server_nonce), pending))
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
    let (fin, ctx, _) = client_finish(client, trust_roots, resp, None, client_nonce, now)?;
    Ok((fin, ctx))
}

/// Server step 2: validate the FIN and produce the server-side context.
pub fn wire_server_verify(
    pending: &ServerPending,
    fin: &[u8],
) -> Result<SecurityContext, HandshakeError> {
    pending.proved(read(fin, FIN, "not a FIN", |r| words(r, ["proof"]))?[0])
}

/// When a verified chain stops verifying: its earliest `not_after`.
fn expiry(chain: &[Certificate]) -> SimTime {
    chain.iter().map(|c| c.not_after).min().unwrap_or_default()
}

/// The server's half of a bind over `send`/`recv`: read the HELLO (full
/// or cached), send the RESP, verify the FIN, then authorize the peer
/// for `resource`. The caller answers with its own ack or refusal frame.
/// A failure is the caller's error: its transport's, or a
/// [`HandshakeError`] made one.
pub fn accept<E: From<HandshakeError>>(
    server: &Credential,
    roots: &[Certificate],
    authorizer: &Authorizer,
    resource: &str,
    now: SimTime,
    send: impl FnMut(&[u8]) -> Result<(), E>,
    recv: impl FnMut() -> Result<Vec<u8>, E>,
) -> Result<Session, E> {
    let ctx = serve(server, roots, now, nonce_rng(now).next_u64(), send, recv)?;
    let authorized = authorizer.authorize(&ctx.peer, resource, now);
    let mut session = authorized.map_err(HandshakeError::Unauthorized)?;
    session.valid_until = session.valid_until.min(ctx.valid_until);
    Ok(session)
}

/// The client's half of a bind to `addr` over `send`/`recv`: send the
/// HELLO — cached if `client` verified a chain at `addr` before — verify
/// the RESP, remembering a server chain it sent, and send the FIN. A RESP
/// that fails to verify forgets the chain held for `addr`, so the next
/// bind sends a full HELLO.
/// Returns the server's answer to the FIN, its ack or refusal frame for
/// the caller to read, and the context; or with no context the frame the
/// server refused the HELLO with. A failure is as [`accept`]'s.
pub fn bind<E: From<HandshakeError>>(
    client: &Credential,
    trust_roots: &[Certificate],
    addr: &str,
    now: SimTime,
    mut send: impl FnMut(&[u8]) -> Result<(), E>,
    mut recv: impl FnMut() -> Result<Vec<u8>, E>,
) -> Result<(Vec<u8>, Option<SecurityContext>), E> {
    let nonce = nonce_rng(now).next_u64();
    let named = client.peers.server(addr);
    send(&match &named {
        Some((named, _)) => {
            let words = [nonce, wire::chain_digest(&client.chain), *named];
            message(CACHED_HELLO, &words, None)
        }
        None => message(HELLO, &[nonce], Some(&client.chain)),
    })?;
    let resp = recv()?;
    if !resp.first().is_some_and(|tag| RESPS.contains(tag)) {
        return Ok((resp, None));
    }
    let named = named.map(|(_, chain)| chain);
    let finished = client_finish(client, trust_roots, &resp, named.as_ref(), nonce, now);
    let (fin, ctx, sent) = finished.inspect_err(|_| client.peers.forget_server(addr))?;
    if let Some(chain) = sent {
        client.peers.remember_server(addr, chain);
    }
    send(&fin)?;
    Ok((recv()?, Some(ctx)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use std::cell::RefCell;
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
    /// channels; the server acks with `ok` or refuses with `no`. Returns
    /// the client's failure or else the server's verdict, and every
    /// message, in the order sent.
    fn bound(
        client: &Credential,
        server: &Credential,
        roots: &[Certificate],
        authorizer: &Authorizer,
        now: SimTime,
    ) -> (Result<Session, Option<HandshakeError>>, Vec<Vec<u8>>) {
        let (to_server, server_rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let (to_client, client_rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let log = Mutex::new(Vec::new());
        let sent = &log;
        let session = std::thread::scope(|scope| {
            let accepted = scope.spawn(move || {
                let send = |m: &[u8]| {
                    sent.lock().push(m.to_vec());
                    to_client.send(m.to_vec()).map_err(|_| None)
                };
                let session = accept(server, roots, authorizer, "cluster", now, send, || {
                    server_rx.recv().map_err(|_| None)
                });
                let _ = send(if session.is_ok() { b"ok" } else { b"no" });
                session
            });
            // Moved, so a client that gives up hangs up on the server.
            let send = move |m: &[u8]| {
                sent.lock().push(m.to_vec());
                to_server.send(m.to_vec()).map_err(|_| None)
            };
            let recv = || client_rx.recv().map_err(|_| None);
            let bound = bind::<Option<HandshakeError>>(client, roots, "gk", now, send, recv);
            let accepted = accepted.join().unwrap();
            bound.and(accepted)
        });
        (session, log.into_inner())
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
            let (session, sent) = bound(client, &host, &roots, authorizer, half_past_three);
            assert_eq!(
                (session.unwrap().valid_until, &sent[3]),
                (until, &b"ok".to_vec())
            );
        }
        let (refused, sent) = bound(&user, &host, &roots, &contract(9, 10), half_past_three);
        assert!(matches!(
            refused,
            Err(Some(HandshakeError::Unauthorized(_)))
        ));
        assert_eq!(sent[3], b"no");
    }

    /// The cached forms with e21's credentials; `scripts/check_docs.sh`
    /// holds DESIGN §8.1's `CACHED_*` sizes to these two and the FIN's.
    const E21_CACHED_HELLO_BYTES: usize = 25;
    const E21_CACHED_RESP_BYTES: usize = 17;

    #[test]
    fn cached_handshake_golden_bytes() {
        let (user, service, roots, mut rng) = e21_shaped(21);
        let now = SimTime::from_secs(1);
        // What a first bind leaves: each side holds the other's chain.
        service.peers.remember_client(user.chain.clone().into());
        let named = Chain::from(service.chain.clone());
        let nonce = rng.next_u64();
        let words = [
            nonce,
            wire::chain_digest(&user.chain),
            wire::chain_digest(&named),
        ];
        let m1 = message(CACHED_HELLO, &words, None);
        // The server's RESP drives the client's FIN, in one thread.
        let (m2, m3) = (RefCell::new(Vec::new()), RefCell::new(Vec::new()));
        let mut client_ctx = None;
        let send = |resp: &[u8]| {
            let (fin, ctx, chain) = client_finish(&user, &roots, resp, Some(&named), nonce, now)?;
            assert!(chain.is_none(), "a cached RESP sends no chain");
            (*m2.borrow_mut(), *m3.borrow_mut()) = (resp.to_vec(), fin);
            client_ctx = Some(ctx);
            Ok::<_, HandshakeError>(())
        };
        let mut hello = Some(m1.clone());
        let recv = || Ok(hello.take().unwrap_or_else(|| m3.borrow().clone()));
        let server_ctx = serve(&service, &roots, now, rng.next_u64(), send, recv).unwrap();
        let (m2, m3, ctx) = (m2.into_inner(), m3.into_inner(), client_ctx.unwrap());
        assert_eq!(
            (ctx.peer, server_ctx.peer),
            (service.base_identity(), user.base_identity())
        );
        let hello = [
            "fa",               // CACHED_HELLO
            "c175bb0b0a05ada6", // client nonce
            "439cecff2c55dd32", // the client chain's digest
            "55e04ad34e9d3a04", // the server chain's digest
        ]
        .concat();
        let resp = [
            "fb",               // CACHED_RESP
            "e93e7f0c9afe1017", // server nonce
            "8021f2ac80c236b9", // proof over the client nonce
        ]
        .concat();
        assert_eq!(hex(&m1), hello);
        assert_eq!(hex(&m2), resp);
        assert_eq!(hex(&m3), "f73ca1a8e7467176b8"); // FIN, proof
        assert_eq!(
            [m1.len(), m2.len(), m3.len()],
            [E21_CACHED_HELLO_BYTES, E21_CACHED_RESP_BYTES, E21_FIN_BYTES]
        );
    }

    /// A credential with `cred`'s key and chain and `peers` for a table.
    fn holding(cred: &Credential, peers: PeerChains) -> Credential {
        Credential {
            key: cred.key,
            chain: cred.chain.clone(),
            peers,
        }
    }

    /// A second bind to an address names both chains. A server that
    /// holds no chain under the client's digest (a restart) asks for it
    /// with the FIN, and one whose chain changed (a renewed host
    /// credential) sends it: either way the bind completes in the same
    /// four messages, and the next one is cached again.
    #[test]
    fn a_second_bind_is_cached_and_a_miss_or_a_changed_chain_costs_no_message() {
        let mut w = world();
        let day = Duration::from_secs(86_400);
        let alice = Dn::user("Grid", "ANL", "Alice");
        let user = w.ca.issue(&alice, &mut w.rng, SimTime::ZERO, day);
        let gk = Dn::user("Grid", "Hosts", "gk");
        let host = w.ca.issue(&gk, &mut w.rng, SimTime::ZERO, day);
        let renewed = w.ca.issue(&gk, &mut w.rng, SimTime::ZERO, day);
        let roots = [w.ca.certificate().clone()];
        let mut gridmap = crate::GridMap::new();
        gridmap.add(alice, &["alice"]);
        let authorizer = Authorizer::gridmap_only(gridmap);
        let sizes = |server: &Credential| {
            let (session, sent) = bound(&user, server, &roots, &authorizer, SimTime::ZERO);
            session.unwrap();
            sent.iter().map(Vec::len).collect::<Vec<_>>()
        };
        let (u, h) = (wire::chain_len(&user.chain), wire::chain_len(&host.chain));
        let cached = [25, 17, 9, 2];
        assert_eq!(sizes(&host), [9 + u, 17 + h, 9, 2]);
        assert_eq!(sizes(&host), cached);
        let restarted = holding(&host, PeerChains::default());
        assert_eq!(sizes(&restarted), [25, 17, 9 + u, 2]);
        assert_eq!(sizes(&restarted), cached);
        let renewed_in_place = holding(&renewed, host.peers.clone());
        assert_eq!(sizes(&renewed_in_place), [25, 17 + h, 9, 2]);
        assert_eq!(sizes(&renewed_in_place), cached);
        assert_eq!(sizes(&host), [25, 17 + h, 9, 2]);
        assert_eq!(sizes(&renewed), [25, 17 + h, 9 + u, 2]);
        assert_eq!(sizes(&renewed), cached);
    }

    /// A cached bind is verified as a full one: the chain a digest names
    /// must verify at `now`, and its leaf's key sign the FIN.
    #[test]
    fn a_chain_named_by_digest_is_verified_and_proved_as_one_sent() {
        let mut w = world();
        let hour = Duration::from_secs(3600);
        let alice = Dn::user("Grid", "ANL", "Alice");
        let user = w.ca.issue(&alice, &mut w.rng, SimTime::ZERO, 24 * hour);
        let proxy = user.delegate(&mut w.rng, SimTime::ZERO, hour, 0).unwrap();
        let mallory = Dn::user("Grid", "ANL", "Mallory");
        let mallory = w.ca.issue(&mallory, &mut w.rng, SimTime::ZERO, 24 * hour);
        let host = w.ca.issue(
            &Dn::user("Grid", "Hosts", "gk"),
            &mut w.rng,
            SimTime::ZERO,
            24 * hour,
        );
        let roots = [w.ca.certificate().clone()];
        let mut gridmap = crate::GridMap::new();
        gridmap.add(alice, &["alice"]);
        let authorizer = Authorizer::gridmap_only(gridmap);
        let verdict = |client: &Credential, now| bound(client, &host, &roots, &authorizer, now).0;
        // Each binds once: the server holds both chains, each client the
        // server's (Mallory's bind is refused after the FIN).
        for client in [&proxy, &mallory] {
            verdict(client, SimTime::ZERO).ok();
        }
        // Mallory names the proxy's chain by its digest, without its key.
        let mut stolen = mallory.clone();
        stolen.chain = proxy.chain.clone();
        assert_eq!(
            verdict(&stolen, SimTime::ZERO),
            Err(Some(HandshakeError::BadProof { side: "client" }))
        );
        // The proxy's chain, named once it has expired.
        assert!(matches!(
            verdict(&proxy, SimTime::ZERO.plus(2 * hour)),
            Err(Some(HandshakeError::BadChain(CertError::Expired { .. })))
        ));
    }

    /// A digest that names the wrong chain, as a colliding one would,
    /// fails its bind on either side and is forgotten there: the next
    /// bind sends the chain and completes.
    #[test]
    fn a_digest_naming_the_wrong_chain_fails_one_bind_and_is_forgotten() {
        let mut w = world();
        let day = Duration::from_secs(86_400);
        let alice = Dn::user("Grid", "ANL", "Alice");
        let user = w.ca.issue(&alice, &mut w.rng, SimTime::ZERO, day);
        let bob = w.ca.issue(
            &Dn::user("Grid", "ANL", "Bob"),
            &mut w.rng,
            SimTime::ZERO,
            day,
        );
        let gk = Dn::user("Grid", "Hosts", "gk");
        let host = w.ca.issue(&gk, &mut w.rng, SimTime::ZERO, day);
        let other = w.ca.issue(&gk, &mut w.rng, SimTime::ZERO, day);
        let roots = [w.ca.certificate().clone()];
        let mut gridmap = crate::GridMap::new();
        gridmap.add(alice, &["alice"]);
        let authorizer = Authorizer::gridmap_only(gridmap);
        let bind = || bound(&user, &host, &roots, &authorizer, SimTime::ZERO);
        let sizes = |(session, sent): (Result<Session, _>, Vec<Vec<u8>>)| {
            session.unwrap();
            sent.iter().map(Vec::len).collect::<Vec<_>>()
        };
        let (u, h) = (wire::chain_len(&user.chain), wire::chain_len(&host.chain));
        assert_eq!(sizes(bind()), [9 + u, 17 + h, 9, 2]);
        // The server holds Bob's chain under Alice's digest.
        let alices = wire::chain_digest(&user.chain);
        let bobs = Chain::from(bob.chain.clone());
        host.peers.shared().lock().clients.insert(alices, bobs);
        let refused = Err(Some(HandshakeError::BadProof { side: "client" }));
        assert_eq!(bind().0, refused);
        assert_eq!(sizes(bind()), [25, 17, 9 + u, 2]);
        // Alice holds another host's chain under this one's digest.
        let named = (wire::chain_digest(&host.chain), other.chain.into());
        user.peers
            .shared()
            .lock()
            .servers
            .insert("gk".into(), named);
        let refused = Err(Some(HandshakeError::BadProof { side: "server" }));
        assert_eq!(bind().0, refused);
        assert_eq!(sizes(bind()), [9 + u, 17 + h, 9, 2]);
        assert_eq!(sizes(bind()), [25, 17, 9, 2]);
    }

    #[test]
    fn a_table_is_bounded_shared_by_clones_and_not_delegated() {
        let mut w = world();
        let day = Duration::from_secs(86_400);
        let user = w.ca.issue(
            &Dn::user("Grid", "ANL", "A"),
            &mut w.rng,
            SimTime::ZERO,
            day,
        );
        let held = |c: &Credential| {
            c.peers.0.get().map(|known| {
                let known = known.lock();
                (known.clients.len(), known.servers.len())
            })
        };
        assert_eq!(held(&user), None, "a new credential allocates no table");
        let clone = user.clone();
        let chain = Chain::from(user.chain.clone());
        for serial in 0..PEER_CHAINS as u64 + 10 {
            let mut cert = user.chain[0].clone();
            cert.serial = serial;
            clone.peers.remember_client(vec![cert].into());
            clone
                .peers
                .remember_server(&format!("gk{serial}"), chain.clone());
        }
        assert_eq!(held(&user), Some((PEER_CHAINS, PEER_CHAINS)));
        let proxy = user.delegate(&mut w.rng, SimTime::ZERO, day, 0).unwrap();
        assert_eq!(held(&proxy), None);
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
        let mut stolen = user.clone();
        stolen.chain = alice.chain.clone(); // with the wrong private key
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
