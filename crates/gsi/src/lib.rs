#![warn(missing_docs)]

//! Simulated Grid Security Infrastructure (GSI).
//!
//! The paper's services authenticate through GSI: X.509 certificate chains
//! with proxy delegation, a gridmap file "to map Global Grid User
//! Identifiers to local account names", and (as a stated goal, §5.3)
//! authorization *contracts* such as "allow access to this resource from 3
//! to 4 pm to user X".
//!
//! This crate reproduces GSI's **protocol and policy behaviour**, not its
//! cryptography:
//!
//! * [`Dn`] — Globus-style distinguished names (`/O=Grid/CN=...`).
//! * [`cert`] — certificates, CAs, chain validation, expiry, proxy
//!   delegation with depth limits.
//! * [`gridmap`] — the gridmap file mapping DNs to local accounts.
//! * [`contract`] — time-window authorization contracts.
//! * [`handshake`] — a 3-message mutual-authentication exchange producing
//!   a [`SecurityContext`].
//!
//! # Security disclaimer
//!
//! Signatures here are keyed 64-bit digests where the "public" key *is*
//! the MAC key. Anyone holding a public key can forge signatures. This is
//! deliberate: the reproduction needs GSI's *shape* (round trips, chain
//! walks, expiry handling, gridmap and contract decisions), not real
//! confidentiality. Do not reuse this code for actual security.

pub mod cert;
pub mod contract;
pub mod dn;
pub mod gridmap;
pub mod handshake;
pub mod policy;
pub mod wire;

pub use cert::{
    verify_chain, CertError, CertType, Certificate, CertificateAuthority, Credential, KeyPair,
    PublicKey,
};
pub use contract::{Contract, SubjectMatch, Window};
pub use dn::Dn;
pub use gridmap::GridMap;
pub use handshake::{
    authenticate, wire_client_finish, wire_client_hello, wire_server_respond, wire_server_verify,
    HandshakeError, SecurityContext, ServerPending,
};
pub use policy::{Authorizer, AuthzDecision, AuthzError};
