//! The gridmap file.
//!
//! GRAM's gatekeeper performs "a simple authorization based on mapping the
//! authentication information into a local security context (e.g., a Unix
//! login)" (§2), and J-GRAM investigates "the support for gridmaps, which
//! map user certificates to local user IDs" (§7). The file format follows
//! the classic Globus `grid-mapfile`:
//!
//! ```text
//! # comment
//! "/O=Grid/OU=ANL/CN=Gregor von Laszewski" gregor
//! "/O=Grid/OU=ANL/CN=Jarek Gawor" gawor,globus
//! ```
//!
//! Multiple local accounts are comma-separated; the first is the default.

use crate::dn::Dn;
use std::collections::HashMap;

/// Parsed gridmap: DN → local account names.
#[derive(Debug, Clone, Default)]
pub struct GridMap {
    entries: HashMap<Dn, Vec<String>>,
}

/// Error parsing a gridmap file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridMapParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for GridMapParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gridmap line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for GridMapParseError {}

impl GridMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse the `grid-mapfile` format.
    pub fn parse(text: &str) -> Result<Self, GridMapParseError> {
        let mut map = GridMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |reason: String| GridMapParseError {
                line: i + 1,
                reason,
            };
            let rest = line
                .strip_prefix('"')
                .ok_or_else(|| err("DN must be double-quoted".to_string()))?;
            let (dn_str, accounts_str) = rest
                .split_once('"')
                .ok_or_else(|| err("unterminated DN quote".to_string()))?;
            let dn = Dn::parse(dn_str).map_err(|e| err(e.to_string()))?;
            let accounts: Vec<String> = accounts_str
                .trim()
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            if accounts.is_empty() {
                return Err(err("no local account".to_string()));
            }
            map.entries.insert(dn, accounts);
        }
        Ok(map)
    }

    /// Add a mapping programmatically.
    pub fn add(&mut self, dn: Dn, accounts: &[&str]) {
        assert!(!accounts.is_empty(), "at least one account");
        self.entries
            .insert(dn, accounts.iter().map(|s| s.to_string()).collect());
    }

    /// The default (first) local account for a DN.
    ///
    /// Proxy DNs are resolved through their base identity, as real GSI
    /// does: a delegated proxy maps to the same account as its owner.
    pub fn lookup(&self, dn: &Dn) -> Option<&str> {
        self.entries
            .get(dn)
            .or_else(|| self.entries.get(&dn.base_identity()))
            .map(|v| v[0].as_str())
    }

    /// Render back to the file format (sorted by DN for determinism).
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = self
            .entries
            .iter()
            .map(|(dn, accounts)| format!("\"{dn}\" {}", accounts.join(",")))
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# Argonne users
"/O=Grid/OU=ANL/CN=Gregor von Laszewski" gregor
"/O=Grid/OU=ANL/CN=Jarek Gawor" gawor,globus

"/O=Grid/OU=ISI/CN=Carl Kesselman" carl
"#;

    #[test]
    fn parse_sample() {
        let map = GridMap::parse(SAMPLE).unwrap();
        assert_eq!(map.entries.len(), 3);
        let dn = Dn::user("Grid", "ANL", "Gregor von Laszewski");
        assert_eq!(map.lookup(&dn), Some("gregor"));
    }

    #[test]
    fn multiple_accounts() {
        let map = GridMap::parse(SAMPLE).unwrap();
        let dn = Dn::user("Grid", "ANL", "Jarek Gawor");
        assert_eq!(map.lookup(&dn), Some("gawor"));
        assert_eq!(map.entries[&dn], ["gawor", "globus"]);
    }

    #[test]
    fn unknown_dn() {
        let map = GridMap::parse(SAMPLE).unwrap();
        let dn = Dn::user("Grid", "ANL", "Nobody");
        assert_eq!(map.lookup(&dn), None);
    }

    #[test]
    fn proxy_resolves_to_base_identity() {
        let map = GridMap::parse(SAMPLE).unwrap();
        let base = Dn::user("Grid", "ANL", "Gregor von Laszewski");
        let proxy = base.child("CN", "proxy").child("CN", "proxy");
        assert_eq!(map.lookup(&proxy), Some("gregor"));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "\"/O=Grid/CN=X\" x\nnot quoted user\n";
        let err = GridMap::parse(bad).unwrap_err();
        assert_eq!(err.line, 2);

        let bad2 = "\"/O=Grid/CN=X\"\n";
        assert!(GridMap::parse(bad2).unwrap_err().reason.contains("account"));

        let bad3 = "\"/O=Grid/CN=X x\n";
        assert!(GridMap::parse(bad3)
            .unwrap_err()
            .reason
            .contains("unterminated"));
    }

    #[test]
    fn render_parse_roundtrip() {
        let map = GridMap::parse(SAMPLE).unwrap();
        let rendered = map.render();
        let reparsed = GridMap::parse(&rendered).unwrap();
        assert_eq!(reparsed.entries, map.entries);
        let dn = Dn::user("Grid", "ISI", "Carl Kesselman");
        assert_eq!(reparsed.lookup(&dn), Some("carl"));
    }

    #[test]
    fn programmatic_add() {
        let mut map = GridMap::new();
        assert!(map.entries.is_empty());
        map.add(Dn::user("Grid", "DLR", "Andreas Schreiber"), &["andreas"]);
        assert_eq!(
            map.lookup(&Dn::user("Grid", "DLR", "Andreas Schreiber")),
            Some("andreas")
        );
    }
}
