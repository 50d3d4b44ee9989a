//! The MDS wire protocol.
//!
//! Deliberately a *different* protocol from the GRAM/InfoGram one: §4 of
//! the paper complains that "not only do the services operate through
//! different ports, but they also use different protocols making the
//! amount of code sharing for interpreting return values more complex."
//! This module is that second protocol, so the baseline experiments pay
//! its real cost.
//!
//! Requests are search/unbind (bind is the GSI handshake that precedes
//! them); replies carry entries in an LDIF-like text body.

use crate::dit::{DirEntry, Scope};
use bytes::{BufMut, BytesMut};
use infogram_gsi::Dn;
use infogram_proto::message::{put_str, read_str};
use infogram_sim::wire::{ReadError, Reader};

/// Protocol version byte. Distinct from the GRAM protocol's version so
/// cross-protocol confusion fails loudly.
pub const MDS_PROTOCOL_VERSION: u8 = 0x4d; // 'M'

/// Client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdsRequest {
    /// An LDAP-style search.
    Search {
        /// Base DN in slash form.
        base: String,
        /// Search scope.
        scope: Scope,
        /// Filter text (RFC-2254 subset).
        filter: String,
    },
    /// Close the session.
    Unbind,
}

/// Server → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdsReply {
    /// Matching entries, rendered as text.
    SearchResult {
        /// The entries body (see [`entries_to_text`]).
        body: String,
        /// Number of entries.
        count: u32,
    },
    /// A failure.
    Error {
        /// Explanation.
        message: String,
    },
}

/// A decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdsWireError {
    /// Explanation.
    pub reason: String,
}

impl std::fmt::Display for MdsWireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MDS wire error: {}", self.reason)
    }
}

impl std::error::Error for MdsWireError {}

fn err(reason: &str) -> MdsWireError {
    MdsWireError {
        reason: reason.to_string(),
    }
}

impl From<ReadError> for MdsWireError {
    fn from(e: ReadError) -> Self {
        err(&e.to_string())
    }
}

/// A reader past the version byte, if it is [`MDS_PROTOCOL_VERSION`].
fn open(bytes: &[u8]) -> Result<Reader<'_>, MdsWireError> {
    let mut r = Reader::new(bytes);
    match r.u8("protocol version")? {
        MDS_PROTOCOL_VERSION => Ok(r),
        _ => Err(err("not an MDS protocol message")),
    }
}

fn scope_to_u8(s: Scope) -> u8 {
    match s {
        Scope::Base => 0,
        Scope::One => 1,
        Scope::Sub => 2,
    }
}

fn scope_from_u8(v: u8) -> Option<Scope> {
    Some(match v {
        0 => Scope::Base,
        1 => Scope::One,
        2 => Scope::Sub,
        _ => return None,
    })
}

impl MdsRequest {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(MDS_PROTOCOL_VERSION);
        match self {
            MdsRequest::Search {
                base,
                scope,
                filter,
            } => {
                buf.put_u8(0);
                put_str(&mut buf, base);
                buf.put_u8(scope_to_u8(*scope));
                put_str(&mut buf, filter);
            }
            MdsRequest::Unbind => buf.put_u8(1),
        }
        buf.to_vec()
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<MdsRequest, MdsWireError> {
        let mut r = open(bytes)?;
        let req = match r.u8("request tag")? {
            0 => MdsRequest::Search {
                base: read_str(&mut r, "search base")?.to_owned(),
                scope: scope_from_u8(r.u8("scope")?).ok_or_else(|| err("bad scope"))?,
                filter: read_str(&mut r, "filter")?.to_owned(),
            },
            1 => MdsRequest::Unbind,
            t => return Err(err(&format!("unknown request tag {t}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl MdsReply {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(MDS_PROTOCOL_VERSION);
        match self {
            MdsReply::SearchResult { body, count } => {
                buf.put_u8(0);
                put_str(&mut buf, body);
                buf.put_u32(*count);
            }
            MdsReply::Error { message } => {
                buf.put_u8(1);
                put_str(&mut buf, message);
            }
        }
        buf.to_vec()
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<MdsReply, MdsWireError> {
        let mut r = open(bytes)?;
        let reply = match r.u8("reply tag")? {
            0 => MdsReply::SearchResult {
                body: read_str(&mut r, "body")?.to_owned(),
                count: u32::from_be_bytes(r.array("entry count")?),
            },
            1 => MdsReply::Error {
                message: read_str(&mut r, "error message")?.to_owned(),
            },
            t => return Err(err(&format!("unknown reply tag {t}"))),
        };
        r.finish()?;
        Ok(reply)
    }
}

/// Render entries as the reply body: `dn: <slash dn>` then attribute
/// lines, entries separated by blank lines.
pub fn entries_to_text(entries: &[DirEntry]) -> String {
    let mut out = String::new();
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&format!("dn: {}\n", e.dn));
        for (k, v) in &e.attributes {
            out.push_str(&format!("{k}: {v}\n"));
        }
    }
    out
}

/// Parse a reply body back into entries.
pub fn entries_from_text(text: &str) -> Vec<DirEntry> {
    let mut entries = Vec::new();
    let mut current: Option<DirEntry> = None;
    for line in text.lines() {
        if line.is_empty() {
            if let Some(e) = current.take() {
                entries.push(e);
            }
            continue;
        }
        let Some((k, v)) = line.split_once(": ") else {
            continue;
        };
        if k == "dn" {
            if let Some(e) = current.take() {
                entries.push(e);
            }
            if let Ok(dn) = Dn::parse(v) {
                current = Some(DirEntry::new(dn, Vec::new()));
            }
        } else if let Some(e) = current.as_mut() {
            e.attributes.push((k.to_string(), v.to_string()));
        }
    }
    if let Some(e) = current.take() {
        entries.push(e);
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            MdsRequest::Search {
                base: "/o=Grid".to_string(),
                scope: Scope::Sub,
                filter: "(&(kw=Memory)(Memory-free>=1))".to_string(),
            },
            MdsRequest::Search {
                base: "/o=Grid/hn=node0".to_string(),
                scope: Scope::Base,
                filter: "(objectclass=*)".to_string(),
            },
            MdsRequest::Unbind,
        ];
        for r in reqs {
            assert_eq!(MdsRequest::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn reply_roundtrip() {
        let replies = [
            MdsReply::SearchResult {
                body: "dn: /o=Grid\nobjectclass: organization\n".to_string(),
                count: 1,
            },
            MdsReply::Error {
                message: "no such base".to_string(),
            },
        ];
        for r in replies {
            assert_eq!(MdsReply::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn cross_protocol_confusion_rejected() {
        // A GRAM message fed to the MDS decoder fails on the version byte
        // — the "two different wire protocols" of the baseline world.
        let gram_msg = infogram_proto::message::Request::Ping.encode();
        assert!(MdsRequest::decode(&gram_msg).is_err());
        let mds_msg = MdsRequest::Unbind.encode();
        assert!(infogram_proto::message::Request::decode(&mds_msg).is_err());
    }

    #[test]
    fn decode_rejects_noise() {
        assert!(MdsRequest::decode(&[]).is_err());
        assert!(MdsRequest::decode(&[MDS_PROTOCOL_VERSION, 9]).is_err());
        assert!(MdsReply::decode(&[MDS_PROTOCOL_VERSION]).is_err());
        let mut extra = MdsRequest::Unbind.encode();
        extra.push(0);
        assert!(MdsRequest::decode(&extra).is_err());
    }

    #[test]
    fn entries_text_roundtrip() {
        let entries = vec![
            DirEntry::new(
                Dn::parse("/o=Grid/hn=node0").unwrap(),
                vec![
                    ("objectclass".to_string(), "GridResource".to_string()),
                    ("load".to_string(), "0.5".to_string()),
                ],
            ),
            DirEntry::new(
                Dn::parse("/o=Grid/hn=node0/kw=Memory").unwrap(),
                vec![("Memory-free".to_string(), "1024".to_string())],
            ),
        ];
        let text = entries_to_text(&entries);
        let parsed = entries_from_text(&text);
        assert_eq!(parsed, entries);
    }

    #[test]
    fn empty_entries_text() {
        assert_eq!(entries_to_text(&[]), "");
        assert!(entries_from_text("").is_empty());
    }
}
