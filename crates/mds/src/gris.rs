//! GRIS: the per-resource information provider front-end.
//!
//! §4: "Each compute resource has the Globus GRAM and the Globus Resource
//! Information Service (GRIS) that returns information related to the
//! local resource installed." Our GRIS publishes the records of an
//! `infogram-info` [`InformationService`] into a directory subtree
//! (`/o=Grid/hn=<host>/kw=<Keyword>`), refreshing through the same TTL
//! cache, and answers LDAP-style searches against it.

use crate::dit::{DirEntry, DirectoryTree, Scope};
use crate::filter::Filter;
use infogram_gsi::Dn;
use infogram_info::service::{InfoServiceError, InformationService, QueryOptions};
use infogram_proto::render::ldif;
use infogram_rsl::InfoSelector;
use std::sync::Arc;

/// A GRIS over one host's information service.
pub struct Gris {
    info: Arc<InformationService>,
    tree: DirectoryTree,
    base: Dn,
}

impl std::fmt::Debug for Gris {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gris")
            .field("base", &self.base)
            .finish_non_exhaustive()
    }
}

impl Gris {
    /// A GRIS publishing `info` under `/o=Grid/hn=<hostname>`.
    pub fn new(info: Arc<InformationService>) -> Arc<Self> {
        #[expect(clippy::expect_used, reason = "both RDN keys are fixed literals")]
        let base = Dn::from_rdns(vec![
            ("o".to_string(), "Grid".to_string()),
            ("hn".to_string(), info.hostname().to_string()),
        ])
        .expect("hostname RDN valid");
        Arc::new(Gris {
            info,
            tree: DirectoryTree::new(),
            base,
        })
    }

    /// Refresh the directory subtree from the information service
    /// (cached reads — the GRIS does not bypass the provider TTLs).
    pub fn refresh(&self) {
        // A failing provider leaves stale entries; searches serve them.
        let _ = self.try_refresh();
    }

    /// Like [`Gris::refresh`], but reports why a refresh could not run —
    /// e.g. the keyword's breaker is open with nothing cached. The
    /// subtree is left untouched on failure (stale entries keep
    /// serving), so a GIIS pulling this member can tell "fresh pull"
    /// from "member degraded, serve my cached copy".
    pub fn try_refresh(&self) -> Result<(), InfoServiceError> {
        let records = self
            .info
            .answer(&[InfoSelector::All], &QueryOptions::default())?;
        let mut entries = vec![DirEntry::new(
            self.base.clone(),
            vec![
                ("objectclass".to_string(), "GridResource".to_string()),
                ("hn".to_string(), self.info.hostname().to_string()),
            ],
        )];
        for rec in records {
            let dn = self.base.child("kw", &rec.keyword);
            let mut attributes = vec![
                ("objectclass".to_string(), "InfoGramProvider".to_string()),
                ("kw".to_string(), rec.keyword.clone()),
                ("hn".to_string(), rec.host.clone()),
            ];
            for a in &rec.attributes {
                attributes.push((ldif::safe_name(&a.name), a.value.clone()));
            }
            entries.push(DirEntry::new(dn, attributes));
        }
        // One swap: a search racing this refresh reads the whole old
        // subtree or the whole new one.
        self.tree.replace_subtree(&self.base, entries);
        Ok(())
    }

    /// The DN this GRIS publishes under, `/o=Grid/hn=<hostname>`.
    pub fn base(&self) -> &Dn {
        &self.base
    }

    /// Search the (refreshed) subtree.
    pub fn search(&self, base: &Dn, scope: Scope, filter: &Filter) -> Vec<DirEntry> {
        self.refresh();
        self.tree.search(base, scope, filter)
    }

    /// Search from this GRIS's own base.
    pub fn search_all(&self, filter: &Filter) -> Vec<DirEntry> {
        self.search(&self.base.clone(), Scope::Sub, filter)
    }

    /// Search from this GRIS's own base, surfacing a refresh failure
    /// instead of silently serving the stale subtree. Used by the GIIS
    /// member pull so the aggregate can fall back to *its* cached copy.
    pub fn try_search_all(&self, filter: &Filter) -> Result<Vec<DirEntry>, InfoServiceError> {
        self.try_refresh()?;
        Ok(self.tree.search(&self.base, Scope::Sub, filter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_host::commands::{ChargeMode, CommandRegistry};
    use infogram_host::machine::SimulatedHost;
    use infogram_info::config::ServiceConfig;
    use infogram_sim::metrics::MetricSet;
    use infogram_sim::ManualClock;

    fn gris() -> (Arc<InformationService>, Arc<Gris>) {
        let clock = ManualClock::new();
        let host = SimulatedHost::default_on(clock.clone());
        let reg = CommandRegistry::new(host, ChargeMode::Advance(clock.clone()));
        let info =
            InformationService::from_config(&ServiceConfig::table1(), reg, clock, MetricSet::new());
        (Arc::clone(&info), Gris::new(info))
    }

    #[test]
    fn publishes_keywords_as_subtree() {
        let (_c, g) = gris();
        let all = g.search_all(&Filter::everything());
        // 1 host entry + 5 keyword entries.
        assert_eq!(all.len(), 6);
        let mem = all
            .iter()
            .find(|e| e.first("kw").as_deref() == Some("Memory"))
            .unwrap();
        assert!(mem.first("Memory-total").is_some());
        assert_eq!(
            mem.dn.to_string(),
            "/o=Grid/hn=node00.grid.example.org/kw=Memory"
        );
    }

    #[test]
    fn ldap_filters_select_providers() {
        let (_c, g) = gris();
        let f = Filter::parse("(kw=CPU)").unwrap();
        let found = g.search_all(&f);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].first("CPU-count").unwrap(), "4");
    }

    #[test]
    fn numeric_filter_on_published_values() {
        let (_c, g) = gris();
        let f = Filter::parse("(Memory-total>=1)").unwrap();
        assert_eq!(g.search_all(&f).len(), 1);
        let f = Filter::parse("(Memory-total<=1)").unwrap();
        assert!(g.search_all(&f).is_empty());
    }

    #[test]
    fn refresh_respects_provider_cache() {
        let (info, g) = gris();
        g.search_all(&Filter::everything());
        g.search_all(&Filter::everything());
        // Table 1 TTLs: within TTL the second refresh serves from cache
        // (CPULoad has TTL 0 and always executes).
        assert_eq!(info.lookup("Memory").unwrap().execution_count(), 1);
        assert_eq!(info.lookup("CPULoad").unwrap().execution_count(), 2);
    }

    #[test]
    fn a_search_racing_a_refresh_sees_the_whole_subtree() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (_c, g) = gris();
        let everything = Filter::everything();
        assert_eq!(g.search_all(&everything).len(), 6);
        let done = AtomicBool::new(false);
        let partial: usize = std::thread::scope(|s| {
            let searchers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut partial = 0;
                        while !done.load(Ordering::Relaxed) {
                            partial += usize::from(g.search_all(&everything).len() != 6);
                        }
                        partial
                    })
                })
                .collect();
            for _ in 0..2_000 {
                g.refresh();
            }
            done.store(true, Ordering::Relaxed);
            searchers.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(partial, 0, "searches that read part of the subtree");
    }

    #[test]
    fn scoped_search() {
        let (_c, g) = gris();
        g.refresh();
        let base = Dn::parse("/o=Grid/hn=node00.grid.example.org").unwrap();
        let one = g.search(&base, Scope::One, &Filter::everything());
        assert_eq!(one.len(), 5, "keyword entries are the children");
        let base_only = g.search(&base, Scope::Base, &Filter::everything());
        assert_eq!(base_only.len(), 1);
    }
}
