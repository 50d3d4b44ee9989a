//! Certificates, certificate authorities, proxy delegation, and chain
//! validation.
//!
//! See the crate-level security disclaimer: signatures are keyed 64-bit
//! digests, modelling the *protocol*, not the cryptography.

use crate::dn::Dn;
use crate::handshake::PeerChains;
use infogram_sim::rng::{fnv1a_from, FNV_BASIS};
use infogram_sim::{SimTime, SplitMix64};
use std::time::Duration;

/// A "public" key. In this simulation the public key doubles as the MAC
/// key, so verification is possible for anyone who has it (and so is
/// forgery — see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub u64);

/// A key pair. The private half is the same value; the distinction is kept
/// in the API so call sites read like real PKI code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPair {
    key: u64,
}

impl KeyPair {
    /// Generate a key pair from the given RNG.
    pub fn generate(rng: &mut SplitMix64) -> Self {
        KeyPair {
            key: rng.next_u64() | 1, // never zero
        }
    }

    /// The shareable half.
    pub fn public(&self) -> PublicKey {
        PublicKey(self.key)
    }

    /// MAC-style signature over arbitrary bytes.
    pub fn sign(&self, data: &[u8]) -> u64 {
        mac(self.key, data)
    }
}

impl PublicKey {
    /// Verify a signature produced by the matching [`KeyPair`].
    pub fn verify(&self, data: &[u8], signature: u64) -> bool {
        mac(self.0, data) == signature
    }
}

/// FNV-1a over the key bytes then the data, finished with a SplitMix
/// scramble. Fast, stable, good enough for a toy MAC.
fn mac(key: u64, data: &[u8]) -> u64 {
    let h = fnv1a_from(fnv1a_from(FNV_BASIS, &key.to_le_bytes()), data);
    // scramble
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

/// What kind of certificate this is; validation rules differ per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertType {
    /// A certificate authority, allowed to sign other certificates.
    Ca,
    /// An end entity (user or host), not allowed to sign certificates but
    /// allowed to sign proxies.
    EndEntity,
    /// A delegated proxy; `depth_remaining` limits further delegation.
    Proxy {
        /// How many more delegation steps this proxy may perform.
        depth_remaining: u32,
    },
}

/// A certificate binding a subject DN to a public key, signed by an
/// issuer: its [`CertFields`], boxed. A proxy link takes ≈ 46 B on the
/// wire and its fields 80 in memory, so a decoded chain's one array of
/// unboxed certificates would ask the allocator for more at once than the
/// message holds (256 B for a 158-B proxy HELLO); boxed, it asks for 8 B
/// a certificate. What decoding holds in all is bounded by
/// [`crate::wire::INHERITED_MAX`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate(Box<CertFields>);

/// What a [`Certificate`] holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertFields {
    /// Who this certificate identifies.
    pub subject: Dn,
    /// Who signed it.
    pub issuer: Dn,
    /// Issuer-unique serial number.
    pub serial: u64,
    /// Start of validity.
    pub not_before: SimTime,
    /// End of validity.
    pub not_after: SimTime,
    /// The subject's public key.
    pub subject_key: PublicKey,
    /// Kind of certificate.
    pub cert_type: CertType,
    /// Issuer's signature over the canonical encoding.
    pub signature: u64,
}

impl From<CertFields> for Certificate {
    fn from(fields: CertFields) -> Self {
        Certificate(Box::new(fields))
    }
}

impl std::ops::Deref for Certificate {
    type Target = CertFields;
    fn deref(&self) -> &CertFields {
        &self.0
    }
}

impl std::ops::DerefMut for Certificate {
    fn deref_mut(&mut self) -> &mut CertFields {
        &mut self.0
    }
}

impl Certificate {
    /// Canonical byte encoding of everything except the signature.
    pub fn signed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(self.subject.to_string().as_bytes());
        out.push(0);
        out.extend_from_slice(self.issuer.to_string().as_bytes());
        out.push(0);
        out.extend_from_slice(&self.serial.to_le_bytes());
        out.extend_from_slice(&self.not_before.as_nanos().to_le_bytes());
        out.extend_from_slice(&self.not_after.as_nanos().to_le_bytes());
        out.extend_from_slice(&self.subject_key.0.to_le_bytes());
        let type_tag: u64 = match self.cert_type {
            CertType::Ca => u64::MAX,
            CertType::EndEntity => u64::MAX - 1,
            CertType::Proxy { depth_remaining } => depth_remaining as u64,
        };
        out.extend_from_slice(&type_tag.to_le_bytes());
        out
    }

    /// Whether the certificate is within its validity window at `now`.
    pub fn valid_at(&self, now: SimTime) -> bool {
        self.not_before <= now && now < self.not_after
    }
}

/// Why a certificate chain failed to validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// Chain was empty.
    EmptyChain,
    /// A certificate is outside its validity window.
    Expired {
        /// Subject of the offending certificate.
        subject: String,
    },
    /// A signature did not verify.
    BadSignature {
        /// Subject of the offending certificate.
        subject: String,
    },
    /// The issuer of one link does not match the subject of the next.
    BrokenChain {
        /// The mismatched issuer.
        expected_issuer: String,
        /// What was found instead.
        found: String,
    },
    /// The chain does not terminate at a trusted root.
    UntrustedRoot {
        /// Root subject that was not in the trust store.
        root: String,
    },
    /// A non-CA certificate was used to sign a (non-proxy) certificate.
    NotACa {
        /// Subject of the offending signer.
        subject: String,
    },
    /// A proxy rule was violated (naming or delegation depth).
    ProxyViolation {
        /// Explanation of the violated rule.
        reason: String,
    },
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::EmptyChain => write!(f, "empty certificate chain"),
            CertError::Expired { subject } => write!(f, "certificate expired: {subject}"),
            CertError::BadSignature { subject } => {
                write!(f, "bad signature on certificate: {subject}")
            }
            CertError::BrokenChain {
                expected_issuer,
                found,
            } => write!(
                f,
                "broken chain: expected issuer {expected_issuer}, found {found}"
            ),
            CertError::UntrustedRoot { root } => write!(f, "untrusted root: {root}"),
            CertError::NotACa { subject } => write!(f, "signer is not a CA: {subject}"),
            CertError::ProxyViolation { reason } => write!(f, "proxy violation: {reason}"),
        }
    }
}

impl std::error::Error for CertError {}

/// A credential: a private key plus the certificate chain proving the
/// identity of its public half (leaf first, ending just below the root),
/// and the peer chains it verified in handshakes, which its clones share
/// and a new or delegated credential starts without.
#[derive(Debug, Clone)]
pub struct Credential {
    /// Private key matching `chain[0].subject_key`.
    pub key: KeyPair,
    /// Certificate chain, leaf first.
    pub chain: Vec<Certificate>,
    pub(crate) peers: PeerChains,
}

impl Credential {
    /// The identity this credential asserts (the leaf subject).
    pub fn subject(&self) -> &Dn {
        &self.chain[0].subject
    }

    /// The end-entity identity with proxy RDNs stripped.
    pub fn base_identity(&self) -> Dn {
        self.chain[0].subject.base_identity()
    }

    /// Delegate a proxy credential: a fresh key pair certified by this
    /// credential, named `<subject>/CN=proxy`, valid for `lifetime` from
    /// `now`, able to delegate `depth` further times.
    ///
    /// Fails if this credential is itself a proxy with no delegation depth
    /// left.
    pub fn delegate(
        &self,
        rng: &mut SplitMix64,
        now: SimTime,
        lifetime: Duration,
        depth: u32,
    ) -> Result<Credential, CertError> {
        let leaf = &self.chain[0];
        let allowed_depth = match leaf.cert_type {
            CertType::Proxy { depth_remaining } => {
                if depth_remaining == 0 {
                    return Err(CertError::ProxyViolation {
                        reason: "delegation depth exhausted".to_string(),
                    });
                }
                depth.min(depth_remaining - 1)
            }
            CertType::EndEntity => depth,
            CertType::Ca => {
                return Err(CertError::ProxyViolation {
                    reason: "CAs do not delegate proxies".to_string(),
                })
            }
        };
        let key = KeyPair::generate(rng);
        let mut cert = Certificate::from(CertFields {
            subject: leaf.subject.child("CN", "proxy"),
            issuer: leaf.subject.clone(),
            serial: rng.next_u64(),
            not_before: now,
            // A proxy may not outlive its signer.
            not_after: now.plus(lifetime).min(leaf.not_after),
            subject_key: key.public(),
            cert_type: CertType::Proxy {
                depth_remaining: allowed_depth,
            },
            signature: 0,
        });
        cert.signature = self.key.sign(&cert.signed_bytes());
        let mut chain = Vec::with_capacity(self.chain.len() + 1);
        chain.push(cert);
        chain.extend(self.chain.iter().cloned());
        Ok(Credential {
            key,
            chain,
            peers: PeerChains::default(),
        })
    }
}

/// A certificate authority that issues end-entity certificates.
#[derive(Debug)]
pub struct CertificateAuthority {
    key: KeyPair,
    cert: Certificate,
    next_serial: std::sync::atomic::AtomicU64,
}

impl CertificateAuthority {
    /// A new self-signed root CA.
    pub fn new_root(name: &Dn, rng: &mut SplitMix64, now: SimTime, lifetime: Duration) -> Self {
        let key = KeyPair::generate(rng);
        let mut cert = Certificate::from(CertFields {
            subject: name.clone(),
            issuer: name.clone(),
            serial: 1,
            not_before: now,
            not_after: now.plus(lifetime),
            subject_key: key.public(),
            cert_type: CertType::Ca,
            signature: 0,
        });
        cert.signature = key.sign(&cert.signed_bytes());
        CertificateAuthority {
            key,
            cert,
            next_serial: std::sync::atomic::AtomicU64::new(2),
        }
    }

    /// The CA's own (self-signed) certificate — the trust anchor.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Issue an end-entity credential for `subject`.
    pub fn issue(
        &self,
        subject: &Dn,
        rng: &mut SplitMix64,
        now: SimTime,
        lifetime: Duration,
    ) -> Credential {
        let key = KeyPair::generate(rng);
        let serial = self
            .next_serial
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut cert = Certificate::from(CertFields {
            subject: subject.clone(),
            issuer: self.cert.subject.clone(),
            serial,
            not_before: now,
            not_after: now.plus(lifetime).min(self.cert.not_after),
            subject_key: key.public(),
            cert_type: CertType::EndEntity,
            signature: 0,
        });
        cert.signature = self.key.sign(&cert.signed_bytes());
        Credential {
            key,
            chain: vec![cert],
            peers: PeerChains::default(),
        }
    }
}

/// Validate a chain (leaf first) against a set of trusted root
/// certificates at time `now`. On success, returns the chain's *base
/// identity* — the end-entity DN with proxy RDNs stripped.
pub fn verify_chain(
    chain: &[Certificate],
    trust_roots: &[Certificate],
    now: SimTime,
) -> Result<Dn, CertError> {
    if chain.is_empty() {
        return Err(CertError::EmptyChain);
    }
    // Walk from leaf to the certificate below the root.
    let mut proxy_depth_above: Option<u32> = None;
    for (i, cert) in chain.iter().enumerate() {
        if !cert.valid_at(now) {
            return Err(CertError::Expired {
                subject: cert.subject.to_string(),
            });
        }
        // Proxy naming and depth rules.
        match cert.cert_type {
            CertType::Proxy { depth_remaining } => {
                if !cert.subject.is_proxy_name()
                    || !cert.subject.is_immediate_child_of(&cert.issuer)
                {
                    return Err(CertError::ProxyViolation {
                        reason: format!(
                            "proxy subject {} must extend issuer {} with CN=proxy",
                            cert.subject, cert.issuer
                        ),
                    });
                }
                if let Some(below) = proxy_depth_above {
                    // Walking leaf → root: each signer's advertised depth
                    // must strictly dominate the proxy it signed.
                    if depth_remaining <= below {
                        return Err(CertError::ProxyViolation {
                            reason: "delegation depth does not decrease".to_string(),
                        });
                    }
                }
                proxy_depth_above = Some(depth_remaining);
            }
            _ => {
                if proxy_depth_above.take().is_some() && i == 0 {
                    unreachable!("proxy accounting starts at leaf");
                }
            }
        }
        // Find the signer: the next chain element, or a trust root.
        let signer = if i + 1 < chain.len() {
            &chain[i + 1]
        } else {
            match trust_roots.iter().find(|r| r.subject == cert.issuer) {
                Some(root) => root,
                None => {
                    // Self-signed trusted root included in the chain?
                    if cert.issuer == cert.subject && trust_roots.iter().any(|r| r == cert) {
                        cert
                    } else {
                        return Err(CertError::UntrustedRoot {
                            root: cert.issuer.to_string(),
                        });
                    }
                }
            }
        };
        if signer.subject != cert.issuer {
            return Err(CertError::BrokenChain {
                expected_issuer: cert.issuer.to_string(),
                found: signer.subject.to_string(),
            });
        }
        // Signing authority: CAs sign anything; end entities and proxies
        // sign only proxies.
        match (signer.cert_type, cert.cert_type) {
            (CertType::Ca, _) => {}
            (_, CertType::Proxy { .. }) => {}
            _ => {
                return Err(CertError::NotACa {
                    subject: signer.subject.to_string(),
                });
            }
        }
        if !signer
            .subject_key
            .verify(&cert.signed_bytes(), cert.signature)
        {
            return Err(CertError::BadSignature {
                subject: cert.subject.to_string(),
            });
        }
    }
    Ok(chain[0].subject.base_identity())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CertificateAuthority, SplitMix64) {
        let mut rng = SplitMix64::new(99);
        let ca = CertificateAuthority::new_root(
            &Dn::user("Grid", "CA", "Simulated Root CA"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(10 * 365 * 86_400),
        );
        (ca, rng)
    }

    fn year() -> Duration {
        Duration::from_secs(365 * 86_400)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = SplitMix64::new(1);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"hello grid");
        assert!(kp.public().verify(b"hello grid", sig));
        assert!(!kp.public().verify(b"hello grid!", sig));
        let other = KeyPair::generate(&mut rng);
        assert!(!other.public().verify(b"hello grid", sig));
    }

    #[test]
    fn issue_and_verify_end_entity() {
        let (ca, mut rng) = setup();
        let user = Dn::user("Grid", "ANL", "Gregor von Laszewski");
        let cred = ca.issue(&user, &mut rng, SimTime::ZERO, year());
        let id = verify_chain(
            &cred.chain,
            &[ca.certificate().clone()],
            SimTime::from_secs(100),
        )
        .unwrap();
        assert_eq!(id, user);
    }

    #[test]
    fn expired_cert_rejected() {
        let (ca, mut rng) = setup();
        let cred = ca.issue(
            &Dn::user("Grid", "ANL", "Shortlived"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(3600),
        );
        let late = SimTime::from_secs(7200);
        match verify_chain(&cred.chain, &[ca.certificate().clone()], late) {
            Err(CertError::Expired { .. }) => {}
            other => panic!("{other:?}"),
        }
        // Not yet valid is also rejected: not_before in the future.
        let mut cert = cred.chain[0].clone();
        cert.not_before = SimTime::from_secs(1_000_000);
        cert.not_after = SimTime::from_secs(2_000_000);
        assert!(!cert.valid_at(SimTime::from_secs(10)));
    }

    #[test]
    fn tampered_cert_rejected() {
        let (ca, mut rng) = setup();
        let mut cred = ca.issue(
            &Dn::user("Grid", "ANL", "Honest User"),
            &mut rng,
            SimTime::ZERO,
            year(),
        );
        cred.chain[0].subject = Dn::user("Grid", "ANL", "Mallory");
        match verify_chain(&cred.chain, &[ca.certificate().clone()], SimTime::ZERO) {
            Err(CertError::BadSignature { .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn untrusted_root_rejected() {
        let (ca, mut rng) = setup();
        let rogue = CertificateAuthority::new_root(
            &Dn::user("Rogue", "CA", "Evil Root"),
            &mut rng,
            SimTime::ZERO,
            year(),
        );
        let cred = rogue.issue(
            &Dn::user("Grid", "ANL", "Impostor"),
            &mut rng,
            SimTime::ZERO,
            year(),
        );
        match verify_chain(&cred.chain, &[ca.certificate().clone()], SimTime::ZERO) {
            Err(CertError::UntrustedRoot { .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn proxy_delegation_and_identity() {
        let (ca, mut rng) = setup();
        let user = Dn::user("Grid", "ANL", "Ian Foster");
        let cred = ca.issue(&user, &mut rng, SimTime::ZERO, year());
        let proxy = cred
            .delegate(&mut rng, SimTime::ZERO, Duration::from_secs(43_200), 3)
            .unwrap();
        assert!(proxy.subject().is_proxy_name());
        assert_eq!(proxy.base_identity(), user);
        let id = verify_chain(
            &proxy.chain,
            &[ca.certificate().clone()],
            SimTime::from_secs(60),
        )
        .unwrap();
        assert_eq!(id, user, "verification resolves to the base identity");
    }

    #[test]
    fn multi_level_delegation() {
        let (ca, mut rng) = setup();
        let user = Dn::user("Grid", "ANL", "Deep Delegator");
        let cred = ca.issue(&user, &mut rng, SimTime::ZERO, year());
        let p1 = cred.delegate(&mut rng, SimTime::ZERO, year(), 2).unwrap();
        let p2 = p1.delegate(&mut rng, SimTime::ZERO, year(), 9).unwrap();
        // Depth capped by parent: p1 had 2, so p2 gets at most 1.
        assert_eq!(
            p2.chain[0].cert_type,
            CertType::Proxy { depth_remaining: 1 }
        );
        let p3 = p2.delegate(&mut rng, SimTime::ZERO, year(), 9).unwrap();
        assert_eq!(
            p3.chain[0].cert_type,
            CertType::Proxy { depth_remaining: 0 }
        );
        // Exhausted.
        match p3.delegate(&mut rng, SimTime::ZERO, year(), 1) {
            Err(CertError::ProxyViolation { .. }) => {}
            other => panic!("{other:?}"),
        }
        // Full chain still validates to the base identity.
        let id = verify_chain(&p3.chain, &[ca.certificate().clone()], SimTime::ZERO).unwrap();
        assert_eq!(id, user);
    }

    #[test]
    fn proxy_cannot_outlive_signer() {
        let (ca, mut rng) = setup();
        let cred = ca.issue(
            &Dn::user("Grid", "ANL", "Shortie"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(1000),
        );
        let proxy = cred
            .delegate(&mut rng, SimTime::ZERO, Duration::from_secs(10_000), 0)
            .unwrap();
        assert_eq!(proxy.chain[0].not_after, SimTime::from_secs(1000));
    }

    #[test]
    fn expired_proxy_rejected_even_if_base_valid() {
        let (ca, mut rng) = setup();
        let cred = ca.issue(
            &Dn::user("Grid", "ANL", "ProxyUser"),
            &mut rng,
            SimTime::ZERO,
            year(),
        );
        let proxy = cred
            .delegate(&mut rng, SimTime::ZERO, Duration::from_secs(3600), 0)
            .unwrap();
        match verify_chain(
            &proxy.chain,
            &[ca.certificate().clone()],
            SimTime::from_secs(4000),
        ) {
            Err(CertError::Expired { subject }) => assert!(subject.contains("proxy")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn end_entity_cannot_sign_end_entity() {
        let (ca, mut rng) = setup();
        let signer = ca.issue(
            &Dn::user("Grid", "ANL", "NotACa"),
            &mut rng,
            SimTime::ZERO,
            year(),
        );
        // Hand-forge a non-proxy cert signed by an end entity.
        let victim_key = KeyPair::generate(&mut rng);
        let mut forged = Certificate::from(CertFields {
            subject: Dn::user("Grid", "ANL", "Forged"),
            issuer: signer.subject().clone(),
            serial: 666,
            not_before: SimTime::ZERO,
            not_after: SimTime::from_secs(1_000_000),
            subject_key: victim_key.public(),
            cert_type: CertType::EndEntity,
            signature: 0,
        });
        forged.signature = signer.key.sign(&forged.signed_bytes());
        let chain = vec![forged, signer.chain[0].clone()];
        match verify_chain(&chain, &[ca.certificate().clone()], SimTime::ZERO) {
            Err(CertError::NotACa { .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_chain_rejected() {
        let (ca, _rng) = setup();
        assert_eq!(
            verify_chain(&[], &[ca.certificate().clone()], SimTime::ZERO),
            Err(CertError::EmptyChain)
        );
    }

    #[test]
    fn proxy_with_bad_name_rejected() {
        let (ca, mut rng) = setup();
        let cred = ca.issue(
            &Dn::user("Grid", "ANL", "NameChecked"),
            &mut rng,
            SimTime::ZERO,
            year(),
        );
        let mut proxy = cred.delegate(&mut rng, SimTime::ZERO, year(), 0).unwrap();
        // Corrupt the proxy's subject so it no longer extends the issuer,
        // and re-sign it properly so only the naming rule trips.
        proxy.chain[0].subject = Dn::user("Grid", "ANL", "Unrelated");
        proxy.chain[0].signature = cred.key.sign(&proxy.chain[0].signed_bytes());
        match verify_chain(&proxy.chain, &[ca.certificate().clone()], SimTime::ZERO) {
            Err(CertError::ProxyViolation { .. }) => {}
            other => panic!("{other:?}"),
        }
    }
}
