//! Wire encoding for certificate chains.
//!
//! The gatekeeper handshake sends certificate chains as the first frames
//! of every connection. A chain travels as its fields, in binary:
//!
//! * a chain is a varint count, then its certificates, leaf first;
//! * a certificate is its subject and issuer, its serial, `not_before`
//!   and `not_after` (unsigned LEB128 varints, times in nanoseconds), its
//!   key and its signature (8 bytes little-endian each), and its type —
//!   one byte, followed for a proxy by its varint delegation depth;
//! * a DN is a varint count of RDNs, each an attribute and a value
//!   written as varint length + UTF-8.
//!
//! Decoding rebuilds each DN from its pairs with [`Dn::from_rdns`], so
//! every DN a CA can issue — leading or trailing spaces, control bytes
//! and all — reads back as it was signed. It reads through
//! [`Reader`], so every count and length is checked against the bytes
//! that arrived before anything is allocated for it.

use crate::cert::{CertType, Certificate, PublicKey};
use crate::dn::Dn;
use infogram_sim::wire::{ReadError, Reader};
use infogram_sim::{varint, SimTime};

/// The most certificates a chain, and RDNs a DN, may hold on the wire —
/// far deeper than any delegation a grid uses. A decoded item takes more
/// memory than its bytes on the wire (an RDN 48 bytes, a certificate 96,
/// before their strings), so this bounds what a message of many tiny
/// items can make the decoder allocate.
pub const MAX_ITEMS: u64 = 64;

/// The fewest bytes an RDN takes: two one-byte lengths and a byte of
/// each string ([`Dn::from_rdns`] refuses empty ones).
const MIN_RDN_LEN: usize = 4;

/// The fewest bytes a certificate takes: two one-RDN DNs, three one-byte
/// varints, key, signature and type.
const MIN_CERT_LEN: usize = 2 * (1 + MIN_RDN_LEN) + 3 + 8 + 8 + 1;

const TYPE_CA: u8 = 0;
const TYPE_END_ENTITY: u8 = 1;
const TYPE_PROXY: u8 = 2;

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

fn put_varint(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&varint::encode(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_dn(out: &mut Vec<u8>, dn: &Dn) {
    put_varint(out, dn.rdns().len() as u64);
    for (attr, value) in dn.rdns() {
        put_str(out, attr);
        put_str(out, value);
    }
}

/// One RDN, borrowed from the message: its attribute and value, each a
/// varint length and UTF-8.
fn read_rdn<'a>(r: &mut Reader<'a>) -> Result<(&'a str, &'a str), ReadError> {
    let len = r.varint()?;
    let attr = r.str(len, "RDN attribute")?;
    let len = r.varint()?;
    Ok((attr, r.str(len, "RDN value")?))
}

/// A DN as it lies in the message: `count` RDNs whose lengths and UTF-8
/// are checked, nothing allocated yet.
struct RawDn<'a> {
    count: usize,
    at: Reader<'a>,
}

fn take_dn<'a>(r: &mut Reader<'a>) -> Result<RawDn<'a>, ReadError> {
    let claimed = r.varint()?;
    let count = r.count(claimed, MIN_RDN_LEN, MAX_ITEMS, "RDNs")?;
    let at = r.clone();
    for _ in 0..count {
        read_rdn(r)?;
    }
    Ok(RawDn { count, at })
}

impl RawDn<'_> {
    fn build(mut self) -> Result<Dn, WireParseError> {
        let mut rdns = Vec::with_capacity(self.count);
        for _ in 0..self.count {
            let (attr, value) = read_rdn(&mut self.at)?;
            rdns.push((attr.to_owned(), value.to_owned()));
        }
        Dn::from_rdns(rdns).map_err(|e| WireParseError { reason: e.reason })
    }
}

fn put_cert(out: &mut Vec<u8>, c: &Certificate) {
    put_dn(out, &c.subject);
    put_dn(out, &c.issuer);
    put_varint(out, c.serial);
    put_varint(out, c.not_before.as_nanos());
    put_varint(out, c.not_after.as_nanos());
    out.extend_from_slice(&c.subject_key.0.to_le_bytes());
    out.extend_from_slice(&c.signature.to_le_bytes());
    match c.cert_type {
        CertType::Ca => out.push(TYPE_CA),
        CertType::EndEntity => out.push(TYPE_END_ENTITY),
        CertType::Proxy { depth_remaining } => {
            out.push(TYPE_PROXY);
            put_varint(out, depth_remaining.into());
        }
    }
}

/// A certificate as it lies in the message, every field checked.
struct RawCert<'a> {
    subject: RawDn<'a>,
    issuer: RawDn<'a>,
    serial: u64,
    not_before: SimTime,
    not_after: SimTime,
    subject_key: PublicKey,
    signature: u64,
    cert_type: CertType,
}

fn take_cert<'a>(r: &mut Reader<'a>) -> Result<RawCert<'a>, WireParseError> {
    // Fields are read in the order written: a struct literal evaluates
    // its fields as they appear.
    Ok(RawCert {
        subject: take_dn(r)?,
        issuer: take_dn(r)?,
        serial: r.varint()?,
        not_before: SimTime::from_nanos(r.varint()?),
        not_after: SimTime::from_nanos(r.varint()?),
        subject_key: PublicKey(u64::from_le_bytes(r.array("key")?)),
        signature: u64::from_le_bytes(r.array("signature")?),
        cert_type: match r.u8("certificate type")? {
            TYPE_CA => CertType::Ca,
            TYPE_END_ENTITY => CertType::EndEntity,
            TYPE_PROXY => CertType::Proxy {
                depth_remaining: u32::try_from(r.varint()?)
                    .map_err(|_| err("proxy depth past u32"))?,
            },
            _ => return Err(err("bad certificate type")),
        },
    })
}

impl RawCert<'_> {
    fn build(self) -> Result<Certificate, WireParseError> {
        Ok(Certificate {
            subject: self.subject.build()?,
            issuer: self.issuer.build()?,
            serial: self.serial,
            not_before: self.not_before,
            not_after: self.not_after,
            subject_key: self.subject_key,
            cert_type: self.cert_type,
            signature: self.signature,
        })
    }
}

/// Append a chain, leaf first.
pub(crate) fn put_chain(out: &mut Vec<u8>, chain: &[Certificate]) {
    put_varint(out, chain.len() as u64);
    for c in chain {
        put_cert(out, c);
    }
}

/// Read a chain, leaf first; an empty one is refused. Two passes: the
/// first checks every certificate's fields and allocates nothing, so a
/// message that ends early or lies about a length costs no memory; the
/// second builds the certificates.
pub(crate) fn read_chain(r: &mut Reader<'_>) -> Result<Vec<Certificate>, WireParseError> {
    let claimed = r.varint()?;
    let count = r.count(claimed, MIN_CERT_LEN, MAX_ITEMS, "certificates")?;
    if count == 0 {
        return Err(err("empty chain"));
    }
    let mut checked = r.clone();
    for _ in 0..count {
        take_cert(r)?;
    }
    let mut chain = Vec::with_capacity(count);
    for _ in 0..count {
        chain.push(take_cert(&mut checked)?.build()?);
    }
    Ok(chain)
}

/// Encode a chain, leaf first.
pub fn encode_chain(chain: &[Certificate]) -> Vec<u8> {
    let mut out = Vec::new();
    put_chain(&mut out, chain);
    out
}

/// Decode a chain, leaf first: exactly the bytes of one chain.
pub fn decode_chain(bytes: &[u8]) -> Result<Vec<Certificate>, WireParseError> {
    let mut r = Reader::new(bytes);
    let chain = read_chain(&mut r)?;
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
        let encoded = encode_chain(&proxy.chain);
        let decoded = decode_chain(&encoded).unwrap();
        assert_eq!(decoded, proxy.chain);
        // The decoded chain still validates.
        let id =
            crate::cert::verify_chain(&decoded, &[ca.certificate().clone()], SimTime::from_secs(1))
                .unwrap();
        assert_eq!(id, Dn::user("Grid", "ANL", "Wire User"));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_chain(b"").is_err());
        assert!(decode_chain(b"not a cert").is_err());
        assert!(decode_chain(b"a\x1fb\x1fc").is_err());
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
        assert!(decode_chain(&corrupted).is_err());
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
                    Certificate {
                        subject,
                        issuer,
                        // Shifted so every varint length turns up.
                        serial: serial >> shift,
                        not_before: SimTime::from_nanos(before >> shift),
                        not_after: SimTime::from_nanos(after),
                        subject_key: PublicKey(key),
                        cert_type,
                        signature,
                    }
                },
            )
    }

    proptest! {
        #[test]
        fn any_chain_roundtrips(chain in prop::collection::vec(certificate(), 1..5)) {
            prop_assert_eq!(decode_chain(&encode_chain(&chain)).unwrap(), chain);
        }
    }
}
