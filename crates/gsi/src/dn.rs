//! Distinguished names.
//!
//! Grid identities are X.500 distinguished names written in the Globus
//! slash form, e.g. `/O=Grid/OU=ANL/CN=Gregor von Laszewski`. The MDS
//! baseline also renders the LDAP comma form (`CN=..., OU=..., O=...`).

use std::fmt;

/// An ordered distinguished name: a sequence of `attribute=value` RDNs
/// from root-most (`O=`) to leaf-most (`CN=`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dn {
    rdns: Vec<(String, String)>,
}

/// Error parsing a DN string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnParseError {
    /// Explanation of what was malformed.
    pub reason: String,
}

impl fmt::Display for DnParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid DN: {}", self.reason)
    }
}

impl std::error::Error for DnParseError {}

impl Dn {
    /// Build from `(attribute, value)` pairs, root-most first.
    pub fn from_rdns(rdns: Vec<(String, String)>) -> Result<Self, DnParseError> {
        if rdns.is_empty() {
            return Err(DnParseError {
                reason: "empty DN".to_string(),
            });
        }
        for (a, v) in &rdns {
            if a.is_empty() || v.is_empty() {
                return Err(DnParseError {
                    reason: format!("empty attribute or value in RDN '{a}={v}'"),
                });
            }
            if a.contains('/') || v.contains('/') || a.contains('=') || v.contains('=') {
                return Err(DnParseError {
                    reason: format!("reserved character in RDN '{a}={v}'"),
                });
            }
        }
        Ok(Dn { rdns })
    }

    /// Parse the Globus slash form: `/O=Grid/OU=ANL/CN=Name`.
    pub fn parse(s: &str) -> Result<Self, DnParseError> {
        let s = s.trim();
        let body = s.strip_prefix('/').ok_or_else(|| DnParseError {
            reason: format!("'{s}' does not start with '/'"),
        })?;
        let mut rdns = Vec::new();
        for part in body.split('/') {
            let (a, v) = part.split_once('=').ok_or_else(|| DnParseError {
                reason: format!("RDN '{part}' lacks '='"),
            })?;
            rdns.push((a.trim().to_string(), v.trim().to_string()));
        }
        Dn::from_rdns(rdns)
    }

    /// Convenience constructor for tests and examples:
    /// `Dn::user("Grid", "ANL", "Gregor von Laszewski")`.
    pub fn user(org: &str, unit: &str, common_name: &str) -> Self {
        Dn::from_rdns(vec![
            ("O".to_string(), org.to_string()),
            ("OU".to_string(), unit.to_string()),
            ("CN".to_string(), common_name.to_string()),
        ])
        // lint:allow(unwrap) — fixed RDN keys; from_rdns only rejects empty/invalid keys
        .expect("static RDNs are valid")
    }

    /// The RDN sequence, root-most first.
    pub fn rdns(&self) -> &[(String, String)] {
        &self.rdns
    }

    /// The leaf-most common name, if the last RDN is a `CN`.
    pub fn common_name(&self) -> Option<&str> {
        self.rdns
            .last()
            .filter(|(a, _)| a.eq_ignore_ascii_case("CN"))
            .map(|(_, v)| v.as_str())
    }

    /// A child DN with one extra RDN appended — how proxy certificates
    /// extend their signer's identity (`.../CN=proxy`).
    pub fn child(&self, attr: &str, value: &str) -> Dn {
        let mut rdns = self.rdns.clone();
        rdns.push((attr.to_string(), value.to_string()));
        Dn { rdns }
    }

    /// Whether `self` is `other` with exactly one extra RDN on the end.
    pub fn is_immediate_child_of(&self, other: &Dn) -> bool {
        self.rdns.len() == other.rdns.len() + 1 && self.rdns[..other.rdns.len()] == other.rdns
    }

    /// Whether this DN names a GSI proxy (leaf RDN is `CN=proxy` or
    /// `CN=limited proxy`).
    pub fn is_proxy_name(&self) -> bool {
        matches!(
            self.rdns.last(),
            Some((a, v)) if a.eq_ignore_ascii_case("CN")
                && (v == "proxy" || v == "limited proxy")
        )
    }

    /// Strip trailing proxy RDNs to recover the end-entity identity.
    pub fn base_identity(&self) -> Dn {
        let mut rdns = self.rdns.clone();
        while rdns.len() > 1 {
            let last_is_proxy = matches!(
                rdns.last(),
                Some((a, v)) if a.eq_ignore_ascii_case("CN")
                    && (v == "proxy" || v == "limited proxy")
            );
            if last_is_proxy {
                rdns.pop();
            } else {
                break;
            }
        }
        Dn { rdns }
    }
}

impl fmt::Display for Dn {
    /// The Globus slash form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (a, v) in &self.rdns {
            write!(f, "/{a}={v}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Dn {
    type Err = DnParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Dn::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let s = "/O=Grid/OU=ANL/CN=Gregor von Laszewski";
        let dn = Dn::parse(s).unwrap();
        assert_eq!(dn.to_string(), s);
        assert_eq!(dn.common_name(), Some("Gregor von Laszewski"));
        assert_eq!(dn.rdns().len(), 3);
    }

    #[test]
    fn parse_errors() {
        assert!(Dn::parse("").is_err());
        assert!(Dn::parse("no-slash").is_err());
        assert!(Dn::parse("/O=Grid/CN").is_err());
        assert!(Dn::parse("/=x").is_err());
        assert!(Dn::parse("/O=").is_err());
    }

    #[test]
    fn child_and_parenthood() {
        let base = Dn::user("Grid", "ANL", "Ian Foster");
        let proxy = base.child("CN", "proxy");
        assert!(proxy.is_immediate_child_of(&base));
        assert!(!base.is_immediate_child_of(&proxy));
        assert!(proxy.is_proxy_name());
        assert!(!base.is_proxy_name());
    }

    #[test]
    fn base_identity_strips_proxies() {
        let base = Dn::user("Grid", "ANL", "Carlos Pena");
        let p1 = base.child("CN", "proxy");
        let p2 = p1.child("CN", "limited proxy");
        assert_eq!(p2.base_identity(), base);
        assert_eq!(base.base_identity(), base);
    }

    #[test]
    fn dn_equality_and_hash() {
        use std::collections::HashSet;
        let a = Dn::parse("/O=Grid/CN=X").unwrap();
        let b = Dn::parse("/O=Grid/CN=X").unwrap();
        let c = Dn::parse("/O=Grid/CN=Y").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: HashSet<Dn> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn whitespace_trimmed() {
        let dn = Dn::parse("  /O=Grid/CN= Spacey Name ").unwrap();
        assert_eq!(dn.common_name(), Some("Spacey Name"));
    }

    #[test]
    fn fromstr_works() {
        let dn: Dn = "/O=Grid/CN=Z".parse().unwrap();
        assert_eq!(dn.common_name(), Some("Z"));
    }
}
