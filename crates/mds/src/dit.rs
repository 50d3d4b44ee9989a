//! The directory information tree.
//!
//! Entries are keyed by distinguished name; the hierarchy is implicit in
//! the DN structure (a child extends its parent by one RDN). Searches
//! take a base DN, a scope, and a [`Filter`].

use crate::filter::Filter;
use infogram_gsi::Dn;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// Search scope, as in LDAP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// The base entry only.
    Base,
    /// Immediate children of the base.
    One,
    /// The base and everything beneath it.
    Sub,
}

/// One directory entry: a DN plus multi-valued attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct DirEntry {
    /// The entry's distinguished name.
    pub dn: Dn,
    /// `(attribute, value)` pairs; attributes may repeat.
    pub attributes: Vec<(String, String)>,
}

impl DirEntry {
    /// An entry with the given attributes.
    pub fn new(dn: Dn, attributes: Vec<(String, String)>) -> Self {
        DirEntry { dn, attributes }
    }

    /// All values of an attribute (case-insensitive name match).
    pub fn values_of(&self, attr: &str) -> Vec<String> {
        self.attributes
            .iter()
            .filter(|(k, _)| k.eq_ignore_ascii_case(attr))
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// First value of an attribute.
    pub fn first(&self, attr: &str) -> Option<String> {
        self.values_of(attr).into_iter().next()
    }

    /// Whether `filter` matches this entry.
    pub fn matches(&self, filter: &Filter) -> bool {
        filter.matches(&|attr| self.values_of(attr))
    }
}

/// Whether `dn` is within `base` at the given scope.
fn in_scope(dn: &Dn, base: &Dn, scope: Scope) -> bool {
    let is_under =
        dn.rdns().len() >= base.rdns().len() && dn.rdns()[..base.rdns().len()] == *base.rdns();
    match scope {
        Scope::Base => dn == base,
        Scope::One => dn.is_immediate_child_of(base),
        Scope::Sub => is_under,
    }
}

/// A thread-safe directory tree.
#[derive(Debug, Default)]
pub struct DirectoryTree {
    entries: RwLock<BTreeMap<Dn, DirEntry>>,
}

impl DirectoryTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace every entry under (and including) `base` with `entries`,
    /// built by the caller beforehand, in one write: a search sees the
    /// old subtree or the new one, never a part of either.
    pub fn replace_subtree(&self, base: &Dn, entries: Vec<DirEntry>) {
        let mut tree = self.entries.write();
        tree.retain(|dn, _| !in_scope(dn, base, Scope::Sub));
        tree.extend(entries.into_iter().map(|e| (e.dn.clone(), e)));
    }

    /// LDAP-style search.
    pub fn search(&self, base: &Dn, scope: Scope, filter: &Filter) -> Vec<DirEntry> {
        self.entries
            .read()
            .values()
            .filter(|e| in_scope(&e.dn, base, scope) && e.matches(filter))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn tree() -> DirectoryTree {
        let mut entries = vec![DirEntry::new(
            dn("/o=Grid"),
            vec![("objectclass".to_string(), "organization".to_string())],
        )];
        for (host, load) in [("node0", "0.5"), ("node1", "2.5")] {
            entries.push(DirEntry::new(
                dn(&format!("/o=Grid/hn={host}")),
                vec![
                    ("objectclass".to_string(), "host".to_string()),
                    ("load".to_string(), load.to_string()),
                ],
            ));
            entries.push(DirEntry::new(
                dn(&format!("/o=Grid/hn={host}/kw=Memory")),
                vec![
                    ("objectclass".to_string(), "provider".to_string()),
                    ("memory-free".to_string(), "1024".to_string()),
                ],
            ));
        }
        let t = DirectoryTree::new();
        t.replace_subtree(&dn("/o=Grid"), entries);
        t
    }

    #[test]
    fn scopes() {
        let t = tree();
        let everything = Filter::everything();
        assert_eq!(t.search(&dn("/o=Grid"), Scope::Base, &everything).len(), 1);
        assert_eq!(t.search(&dn("/o=Grid"), Scope::One, &everything).len(), 2);
        assert_eq!(t.search(&dn("/o=Grid"), Scope::Sub, &everything).len(), 5);
        assert_eq!(
            t.search(&dn("/o=Grid/hn=node0"), Scope::Sub, &everything)
                .len(),
            2
        );
    }

    #[test]
    fn filtered_search() {
        let t = tree();
        let busy = Filter::parse("(load>=1)").unwrap();
        let found = t.search(&dn("/o=Grid"), Scope::Sub, &busy);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].first("load").unwrap(), "2.5");
    }

    #[test]
    fn replace_subtree_swaps_that_subtree_only() {
        let t = tree();
        let everything = Filter::everything();
        let node0 = DirEntry::new(
            dn("/o=Grid/hn=node0"),
            vec![
                ("objectclass".to_string(), "host".to_string()),
                ("load".to_string(), "9.0".to_string()),
            ],
        );
        let cpu = DirEntry::new(
            dn("/o=Grid/hn=node0/kw=CPU"),
            vec![("objectclass".to_string(), "provider".to_string())],
        );
        t.replace_subtree(&dn("/o=Grid/hn=node0"), vec![node0.clone(), cpu.clone()]);
        let under = t.search(&dn("/o=Grid/hn=node0"), Scope::Sub, &everything);
        assert_eq!(under, vec![node0, cpu], "kw=Memory gone, load replaced");
        let all = t.search(&dn("/o=Grid"), Scope::Sub, &everything);
        assert_eq!(all.len(), 5, "node1's subtree is untouched");
        t.replace_subtree(&dn("/o=Grid"), Vec::new());
        assert!(t.search(&dn("/o=Grid"), Scope::Sub, &everything).is_empty());
    }

    #[test]
    fn search_missing_base() {
        let t = tree();
        assert!(t
            .search(&dn("/o=Elsewhere"), Scope::Sub, &Filter::everything())
            .is_empty());
    }

    #[test]
    fn entry_attribute_access() {
        let e = DirEntry::new(
            dn("/o=G/cn=x"),
            vec![
                ("member".to_string(), "a".to_string()),
                ("member".to_string(), "b".to_string()),
            ],
        );
        assert_eq!(e.values_of("MEMBER"), vec!["a", "b"]);
        assert_eq!(e.first("member").unwrap(), "a");
        assert!(e.first("nope").is_none());
    }
}
