//! Wire encoding for certificate chains.
//!
//! The gatekeeper handshake sends certificate chains as the first frames
//! of every connection. A chain travels as its fields, in binary:
//!
//! * a chain is a varint count, then its certificates, leaf first;
//! * a certificate is its subject, its serial, `not_before` and
//!   `not_after` (unsigned LEB128 varints, times in nanoseconds), its key
//!   and its signature (8 bytes little-endian each), its kind byte — the
//!   type in the low nibble, the issuer's form in the high one — followed
//!   for a proxy by its varint delegation depth, and last its issuer;
//! * a DN is a varint count of RDNs, each an attribute and a value
//!   written as varint length + UTF-8;
//! * a subject that is the next certificate's subject plus one RDN — a
//!   proxy's — is written by reference: a count of 0, then that RDN, so
//!   a link costs the same bytes at any depth. Where it applies, the
//!   reference is the only form read.
//!
//! No issuer the receiver can rebuild is sent. Each is in one of four
//! forms, and which one is fixed by the chain, so whatever decodes
//! re-encodes to the same bytes:
//!
//! * the next certificate's subject (`0x00`): nothing, for every
//!   certificate but the last whose issuer it is;
//! * its own subject (`0x10`): nothing, for a self-signed last
//!   certificate;
//! * a trust root (`0x20`): for any other last certificate, an 8-byte
//!   digest of the issuer's RDN pairs, which the receiver looks up among
//!   its trust roots — OpenSSL's CApath lookup by `X509_NAME_hash`;
//! * literal (`0x30`): the DN, for a certificate but the last whose
//!   issuer is not the next one's subject, so a broken chain still reads
//!   as one and verification refuses it by name.
//!
//! Decoding rebuilds each DN from its pairs as [`Dn::from_rdns`] does, so
//! every DN a CA can issue — leading or trailing spaces, control bytes
//! and all — reads back as it was signed. It reads through
//! [`Reader`], so every count and length is checked against the bytes
//! that arrived before anything is allocated for it.

use crate::cert::{CertError, CertFields, CertType, Certificate, PublicKey};
use crate::dn::{Dn, Rdn};
use crate::handshake::HandshakeError;
use infogram_sim::rng::{fnv1a_from, FNV_BASIS};
use infogram_sim::wire::{put_str, put_varint, ReadError, Reader};
use infogram_sim::{varint, SimTime};

/// The most certificates a chain, and RDNs a DN, may hold on the wire —
/// far deeper than any delegation a grid uses. A decoded item takes more
/// memory than its bytes on the wire (an RDN 32 bytes, a certificate 80,
/// before their strings), so this bounds what a message of many tiny
/// items can make the decoder allocate.
pub const MAX_ITEMS: u64 = 64;

/// The fewest bytes an RDN takes: two one-byte lengths and a byte of
/// each string ([`Dn::from_rdns`] refuses empty ones).
const MIN_RDN_LEN: usize = 4;

/// The fewest bytes a certificate takes: a one-RDN subject, three
/// one-byte varints, key, signature and kind, and an issuer that costs
/// nothing.
const MIN_CERT_LEN: usize = 1 + MIN_RDN_LEN + 3 + 8 + 8 + 1;

/// The most memory a chain's subjects may take from the subjects after
/// them, an RDN counted at its size in memory. A subject written by
/// reference decodes to the next subject's RDNs again, and the issuer
/// before it copies them once more; uncapped, 64 certificates inheriting
/// a long subject would decode to 64 to 128 times their bytes. Capped,
/// decoding takes at most twice this beyond the names the message
/// spells out; a 64-deep proxy chain of a three-RDN user takes ≈ 81 KiB.
pub const INHERITED_MAX: usize = 128 * 1024;

const TYPE_CA: u8 = 0;
const TYPE_END_ENTITY: u8 = 1;
const TYPE_PROXY: u8 = 2;

const ISSUER_NEXT: u8 = 0x00;
const ISSUER_OWN: u8 = 0x10;
const ISSUER_ROOT: u8 = 0x20;
const ISSUER_LITERAL: u8 = 0x30;

/// A chain failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireParseError {
    /// Explanation.
    pub reason: String,
}

impl std::fmt::Display for WireParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "certificate wire error: {}", self.reason)
    }
}

impl std::error::Error for WireParseError {}

pub(crate) fn err(reason: &str) -> WireParseError {
    WireParseError {
        reason: reason.to_string(),
    }
}

impl From<ReadError> for WireParseError {
    fn from(e: ReadError) -> Self {
        err(&e.to_string())
    }
}

/// The 8 bytes a last certificate names its issuer by: FNV-1a over the
/// DN's RDN pairs, each string after its length. Two names may share
/// one; the receiver then lets the signature pick.
fn name_digest(dn: &Dn) -> u64 {
    let mut h = FNV_BASIS;
    for (attr, value) in dn.rdns() {
        for s in [attr, value] {
            h = fnv1a_from(fnv1a_from(h, &(s.len() as u64).to_le_bytes()), s.as_bytes());
        }
    }
    h
}

/// The 8 bytes a cached handshake names a chain by: FNV-1a over the
/// chain's [`put_chain`] bytes.
pub(crate) fn chain_digest(chain: &[Certificate]) -> u64 {
    fnv1a_from(FNV_BASIS, &encode_chain(chain))
}

/// Append a DN's RDN `count`, then `rdns`.
fn put_rdns(out: &mut Vec<u8>, count: usize, rdns: &[Rdn]) {
    put_varint(out, count as u64);
    for (attr, value) in rdns {
        put_str(out, attr);
        put_str(out, value);
    }
}

/// The RDN `c`'s subject adds to `next`'s, if it is `next`'s subject plus
/// one RDN: then it is written by reference.
fn inherited<'a>(c: &'a Certificate, next: Option<&Certificate>) -> Option<&'a Rdn> {
    next.filter(|next| c.subject.is_immediate_child_of(&next.subject))
        .and_then(|_| c.subject.rdns().last())
}

/// Append `c`'s subject, `next` following it.
fn put_subject(out: &mut Vec<u8>, c: &Certificate, next: Option<&Certificate>) {
    match inherited(c, next) {
        Some(rdn) => put_rdns(out, 0, std::slice::from_ref(rdn)),
        None => put_rdns(out, c.subject.rdns().len(), c.subject.rdns()),
    }
}

/// One RDN, borrowed from the message: its attribute and value, each a
/// varint length and UTF-8.
fn read_rdn<'a>(r: &mut Reader<'a>) -> Result<(&'a str, &'a str), ReadError> {
    Ok((r.str("RDN attribute")?, r.str("RDN value")?))
}

/// A DN as it lies in the message: `count` RDNs whose lengths and UTF-8
/// are checked, nothing allocated yet, after the next subject's if it
/// `inherits` them.
struct RawDn<'a> {
    count: usize,
    at: Reader<'a>,
    inherits: bool,
}

/// A DN; for a `subject`, by reference (a count of 0) too: one RDN
/// after the next subject's.
fn take_dn<'a>(r: &mut Reader<'a>, subject: bool) -> Result<RawDn<'a>, ReadError> {
    let claimed = r.varint()?;
    let inherits = subject && claimed == 0;
    let claimed = if inherits { 1 } else { claimed };
    let count = r.count(claimed, MIN_RDN_LEN, MAX_ITEMS, "RDNs")?;
    let at = r.clone();
    for _ in 0..count {
        read_rdn(r)?;
    }
    Ok(RawDn {
        count,
        at,
        inherits,
    })
}

impl RawDn<'_> {
    /// The DN, after `next`'s RDNs if it inherits them.
    fn build(&self, next: Option<&Dn>) -> Result<Dn, WireParseError> {
        let inherited = match (self.inherits, next) {
            (false, _) => &[][..],
            (true, Some(next)) => next.rdns(),
            (true, None) => return Err(err("bad subject form")),
        };
        let mut at = self.at.clone();
        let mut rdns = Vec::with_capacity(inherited.len() + self.count);
        rdns.extend_from_slice(inherited);
        for _ in 0..self.count {
            let (attr, value) = read_rdn(&mut at)?;
            rdns.push((attr.into(), value.into()));
        }
        Dn::from_boxed(rdns.into()).map_err(|e| WireParseError { reason: e.reason })
    }
}

/// The form `c`'s issuer is written in, `next` following it.
fn issuer_form(c: &Certificate, next: Option<&Certificate>) -> u8 {
    match next {
        Some(next) if next.subject == c.issuer => ISSUER_NEXT,
        Some(_) => ISSUER_LITERAL,
        None if c.issuer == c.subject => ISSUER_OWN,
        None => ISSUER_ROOT,
    }
}

/// Append `c`, whose successor in the chain is `next`.
fn put_cert(out: &mut Vec<u8>, c: &Certificate, next: Option<&Certificate>) {
    put_subject(out, c, next);
    put_varint(out, c.serial);
    put_varint(out, c.not_before.as_nanos());
    put_varint(out, c.not_after.as_nanos());
    out.extend_from_slice(&c.subject_key.0.to_le_bytes());
    out.extend_from_slice(&c.signature.to_le_bytes());
    let form = issuer_form(c, next);
    match c.cert_type {
        CertType::Ca => out.push(form | TYPE_CA),
        CertType::EndEntity => out.push(form | TYPE_END_ENTITY),
        CertType::Proxy { depth_remaining } => {
            out.push(form | TYPE_PROXY);
            put_varint(out, depth_remaining.into());
        }
    }
    match form {
        ISSUER_ROOT => out.extend_from_slice(&name_digest(&c.issuer).to_le_bytes()),
        ISSUER_LITERAL => put_rdns(out, c.issuer.rdns().len(), c.issuer.rdns()),
        _ => {}
    }
}

/// An issuer as it lies in the message, in its form.
enum RawIssuer<'a> {
    Next,
    Own,
    Root(u64),
    Literal(RawDn<'a>),
}

/// A certificate as it lies in the message, every field checked.
struct RawCert<'a> {
    subject: RawDn<'a>,
    serial: u64,
    not_before: SimTime,
    not_after: SimTime,
    subject_key: PublicKey,
    signature: u64,
    cert_type: CertType,
    issuer: RawIssuer<'a>,
}

fn take_cert<'a>(r: &mut Reader<'a>) -> Result<RawCert<'a>, WireParseError> {
    let subject = take_dn(r, true)?;
    let serial = r.varint()?;
    let not_before = SimTime::from_nanos(r.varint()?);
    let not_after = SimTime::from_nanos(r.varint()?);
    let subject_key = PublicKey(u64::from_le_bytes(r.array("key")?));
    let signature = u64::from_le_bytes(r.array("signature")?);
    let kind = r.u8("certificate type")?;
    let cert_type = match kind & 0x0f {
        TYPE_CA => CertType::Ca,
        TYPE_END_ENTITY => CertType::EndEntity,
        TYPE_PROXY => CertType::Proxy {
            depth_remaining: r.varint_u32("proxy depth")?,
        },
        _ => return Err(err("bad certificate type")),
    };
    let issuer = match kind & 0xf0 {
        ISSUER_NEXT => RawIssuer::Next,
        ISSUER_OWN => RawIssuer::Own,
        ISSUER_ROOT => RawIssuer::Root(u64::from_le_bytes(r.array("issuer digest")?)),
        ISSUER_LITERAL => RawIssuer::Literal(take_dn(r, false)?),
        _ => return Err(err("bad issuer form")),
    };
    Ok(RawCert {
        subject,
        serial,
        not_before,
        not_after,
        subject_key,
        signature,
        cert_type,
        issuer,
    })
}

impl RawCert<'_> {
    fn build(self, subject: Dn, issuer: Dn) -> Certificate {
        Certificate::from(CertFields {
            subject,
            issuer,
            serial: self.serial,
            not_before: self.not_before,
            not_after: self.not_after,
            subject_key: self.subject_key,
            cert_type: self.cert_type,
            signature: self.signature,
        })
    }
}

/// `last`, whose issuer is the trust root `digest` names. Roots whose
/// names share the digest are each tried, and the one whose key
/// verifies the signature is taken; if none does, verification refuses
/// the last one tried.
fn issued_by_root(
    last: RawCert<'_>,
    subject: Dn,
    digest: u64,
    roots: &[Certificate],
) -> Result<Certificate, HandshakeError> {
    let mut named = roots
        .iter()
        .filter(|root| name_digest(&root.subject) == digest);
    let Some(first) = named.next() else {
        return Err(HandshakeError::BadChain(CertError::UntrustedRoot {
            root: format!("issuer digest {digest:016x}"),
        }));
    };
    let mut cert = last.build(subject, first.subject.clone());
    let mut key = first.subject_key;
    for root in named {
        if key.verify(&cert.signed_bytes(), cert.signature) {
            break;
        }
        (cert.issuer, key) = (root.subject.clone(), root.subject_key);
    }
    if cert.issuer == cert.subject {
        // Sent as its own subject, never as a root.
        return Err(err("bad issuer form").into());
    }
    Ok(cert)
}

/// Append a chain, leaf first.
pub(crate) fn put_chain(out: &mut Vec<u8>, chain: &[Certificate]) {
    let start = out.len();
    put_varint(out, chain.len() as u64);
    for (i, c) in chain.iter().enumerate() {
        put_cert(out, c, chain.get(i + 1));
    }
    debug_assert_eq!(out.len() - start, chain_len(chain));
}

/// The bytes [`put_chain`] writes for `chain`: a message reserves them
/// and asks the allocator once.
pub(crate) fn chain_len(chain: &[Certificate]) -> usize {
    let int = |n: u64| varint::encode(n).len();
    let rdn = |(a, v): &Rdn| int(a.len() as u64) + a.len() + int(v.len() as u64) + v.len();
    let dn = |dn: &Dn| int(dn.rdns().len() as u64) + dn.rdns().iter().map(rdn).sum::<usize>();
    let mut len = int(chain.len() as u64);
    for (i, c) in chain.iter().enumerate() {
        len += match inherited(c, chain.get(i + 1)) {
            Some(last) => 1 + rdn(last),
            None => dn(&c.subject),
        };
        len += int(c.serial) + int(c.not_before.as_nanos());
        len += int(c.not_after.as_nanos()) + 8 + 8 + 1;
        if let CertType::Proxy { depth_remaining } = c.cert_type {
            len += int(depth_remaining.into());
        }
        len += match issuer_form(c, chain.get(i + 1)) {
            ISSUER_ROOT => 8,
            ISSUER_LITERAL => dn(&c.issuer),
            _ => 0,
        };
    }
    len
}

/// Read a chain, leaf first, naming issuers from `roots`; an empty one
/// is refused. Two passes: the first checks every certificate's fields
/// and notes where each starts, allocating nothing else, so a message
/// that ends early or lies about a length costs no memory; the second
/// builds them last first, as a subject or an issuer may be the next
/// certificate's subject, and refuses subjects that inherit more than
/// [`INHERITED_MAX`].
pub(crate) fn read_chain(
    r: &mut Reader<'_>,
    roots: &[Certificate],
) -> Result<Vec<Certificate>, HandshakeError> {
    let claimed = r.varint()?;
    let count = r.count(claimed, MIN_CERT_LEN, MAX_ITEMS, "certificates")?;
    if count == 0 {
        return Err(err("empty chain").into());
    }
    let mut starts = Vec::with_capacity(count);
    for _ in 0..count {
        starts.push(r.clone());
        take_cert(r)?;
    }
    let mut chain: Vec<Certificate> = Vec::with_capacity(count);
    let mut inheritable = INHERITED_MAX;
    while let Some(mut at) = starts.pop() {
        let mut cert = take_cert(&mut at)?;
        let next = chain.last().map(|c| &c.subject);
        if cert.subject.inherits {
            let held = |(a, v): &Rdn| std::mem::size_of::<Rdn>() + a.len() + v.len();
            let taken = next.map_or(0, |next| next.rdns().iter().map(held).sum());
            inheritable =
                (inheritable.checked_sub(taken)).ok_or_else(|| err("inherited names too long"))?;
        }
        let (subject, inherits) = (cert.subject.build(next)?, cert.subject.inherits);
        let issuer = std::mem::replace(&mut cert.issuer, RawIssuer::Next);
        let built = match (issuer, next) {
            (RawIssuer::Next, Some(next)) => {
                let issuer = next.clone();
                cert.build(subject, issuer)
            }
            (RawIssuer::Literal(dn), Some(next)) => match dn.build(None)? {
                dn if dn == *next => return Err(err("bad issuer form").into()),
                dn => cert.build(subject, dn),
            },
            (RawIssuer::Own, None) => {
                let issuer = subject.clone();
                cert.build(subject, issuer)
            }
            (RawIssuer::Root(digest), None) => issued_by_root(cert, subject, digest, roots)?,
            _ => return Err(err("bad issuer form").into()),
        };
        if !inherits && next.is_some_and(|next| built.subject.is_immediate_child_of(next)) {
            return Err(err("bad subject form").into());
        }
        chain.push(built);
    }
    chain.reverse();
    Ok(chain)
}

/// Encode a chain, leaf first.
pub fn encode_chain(chain: &[Certificate]) -> Vec<u8> {
    let mut out = Vec::with_capacity(chain_len(chain));
    put_chain(&mut out, chain);
    out
}

/// Decode a chain, leaf first, naming a last certificate's issuer from
/// `roots`: exactly the bytes of one chain.
pub fn decode_chain(
    bytes: &[u8],
    roots: &[Certificate],
) -> Result<Vec<Certificate>, HandshakeError> {
    let mut r = Reader::new(bytes);
    let chain = read_chain(&mut r, roots)?;
    r.finish()?;
    Ok(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use infogram_sim::SplitMix64;
    use proptest::prelude::*;
    use std::time::Duration;

    #[test]
    fn chain_roundtrip() {
        let mut rng = SplitMix64::new(5);
        let ca = CertificateAuthority::new_root(
            &Dn::user("Grid", "CA", "Root"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(86_400 * 365),
        );
        let user = ca.issue(
            &Dn::user("Grid", "ANL", "Wire User"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        let proxy = user
            .delegate(&mut rng, SimTime::ZERO, Duration::from_secs(3600), 2)
            .unwrap();
        let roots = [ca.certificate().clone()];
        let encoded = encode_chain(&proxy.chain);
        let decoded = decode_chain(&encoded, &roots).unwrap();
        assert_eq!(decoded, proxy.chain);
        // The decoded chain still validates.
        let id = crate::cert::verify_chain(&decoded, &roots, SimTime::from_secs(1)).unwrap();
        assert_eq!(id, Dn::user("Grid", "ANL", "Wire User"));
    }

    /// A link whose issuer is not the next subject travels with its
    /// issuer written out, and verification refuses it by name; an
    /// issuer written out where the next subject names it is refused.
    #[test]
    fn an_issuer_is_written_out_only_where_nothing_rebuilds_it() {
        let mut rng = SplitMix64::new(8);
        let day = Duration::from_secs(86_400);
        let root = |name: &str, rng: &mut SplitMix64| {
            CertificateAuthority::new_root(&Dn::user("Grid", "CA", name), rng, SimTime::ZERO, day)
        };
        let (ca, other) = (root("Root", &mut rng), root("Other", &mut rng));
        let roots = [ca.certificate().clone(), other.certificate().clone()];
        let user = ca.issue(&Dn::user("Grid", "ANL", "U"), &mut rng, SimTime::ZERO, day);

        let broken = [user.chain[0].clone(), other.certificate().clone()];
        let decoded = decode_chain(&encode_chain(&broken), &roots).unwrap();
        assert_eq!(decoded, broken);
        assert!(matches!(
            crate::cert::verify_chain(&decoded, &roots, SimTime::ZERO),
            Err(CertError::BrokenChain { .. })
        ));

        let proxy = user.delegate(&mut rng, SimTime::ZERO, day, 0).unwrap();
        let mut spelled = vec![2];
        put_cert(&mut spelled, &proxy.chain[0], Some(ca.certificate()));
        put_cert(&mut spelled, &proxy.chain[1], None);
        assert!(matches!(
            decode_chain(&spelled, &roots),
            Err(HandshakeError::Malformed(e)) if e.reason == "bad issuer form"
        ));
    }

    /// A proxy's subject is its issuer's plus one RDN, written as that
    /// RDN after a count of 0; spelled out, it is refused.
    #[test]
    fn a_proxy_subject_is_written_by_reference() {
        let mut rng = SplitMix64::new(9);
        let day = Duration::from_secs(86_400);
        let ca =
            CertificateAuthority::new_root(&Dn::user("G", "C", "R"), &mut rng, SimTime::ZERO, day);
        let user = ca.issue(&Dn::user("Grid", "ANL", "U"), &mut rng, SimTime::ZERO, day);
        let proxy = user.delegate(&mut rng, SimTime::ZERO, day, 0).unwrap();
        let roots = [ca.certificate().clone()];
        let encoded = encode_chain(&proxy.chain);
        let reference = [&[0, 2][..], b"CN", &[5], b"proxy"].concat();
        assert_eq!(encoded[1..11], reference);
        let (mut literal, subject) = (Vec::new(), proxy.chain[0].subject.rdns());
        put_rdns(&mut literal, subject.len(), subject);
        let spelled = [&encoded[..1], &literal, &encoded[11..]].concat();
        assert!(matches!(
            decode_chain(&spelled, &roots),
            Err(HandshakeError::Malformed(e)) if e.reason == "bad subject form"
        ));
        assert_eq!(decode_chain(&encoded, &roots).unwrap(), proxy.chain);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_chain(b"", &[]).is_err());
        assert!(decode_chain(b"not a cert", &[]).is_err());
        assert!(decode_chain(b"a\x1fb\x1fc", &[]).is_err());
        // Tampered field still decodes but signature verification will
        // fail downstream; a certificate type that does not exist fails
        // here.
        let mut rng = SplitMix64::new(6);
        let ca = CertificateAuthority::new_root(
            &Dn::user("G", "C", "R"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(1000),
        );
        let mut corrupted = encode_chain(std::slice::from_ref(ca.certificate()));
        *corrupted.last_mut().unwrap() = 9;
        assert!(decode_chain(&corrupted, &[]).is_err());
    }

    /// RDN text: non-empty, no `/` or `=` — what `Dn::from_rdns`
    /// accepts — drawn from an alphabet with the characters a text
    /// encoding would trip on (spaces, the ASCII separators, NUL,
    /// newlines) and multibyte ones, long enough to need a two-byte
    /// length.
    fn rdn_text() -> impl Strategy<Value = String> {
        const ALPHABET: [char; 12] = [
            ' ', '\x1e', '\x1f', '\0', '\n', 'a', 'Z', '7', ',', 'ü', '語', '\u{7f}',
        ];
        prop::collection::vec(0..ALPHABET.len(), 1..60)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    fn dn() -> impl Strategy<Value = Dn> {
        prop::collection::vec((rdn_text(), rdn_text()), 1..6)
            .prop_map(|rdns| Dn::from_rdns(rdns).unwrap())
    }

    fn cert_type() -> impl Strategy<Value = CertType> {
        prop_oneof![
            Just(CertType::Ca),
            Just(CertType::EndEntity),
            any::<u32>().prop_map(|depth_remaining| CertType::Proxy { depth_remaining }),
        ]
    }

    fn certificate() -> impl Strategy<Value = Certificate> {
        (
            (dn(), dn()),
            (any::<u64>(), 0..64u32),
            (any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>()),
            cert_type(),
        )
            .prop_map(
                |(
                    (subject, issuer),
                    (serial, shift),
                    (before, after),
                    (key, signature),
                    cert_type,
                )| {
                    Certificate::from(CertFields {
                        subject,
                        issuer,
                        // Shifted so every varint length turns up.
                        serial: serial >> shift,
                        not_before: SimTime::from_nanos(before >> shift),
                        not_after: SimTime::from_nanos(after),
                        subject_key: PublicKey(key),
                        cert_type,
                        signature,
                    })
                },
            )
    }

    proptest! {
        #[test]
        fn any_chain_roundtrips(chain in prop::collection::vec(certificate(), 1..5)) {
            // The receiver holds the last certificate's issuer as a root.
            let last = &chain[chain.len() - 1];
            let mut root = last.clone();
            root.subject = last.issuer.clone();
            prop_assert_eq!(decode_chain(&encode_chain(&chain), &[root]).unwrap(), chain);
        }
    }
}
