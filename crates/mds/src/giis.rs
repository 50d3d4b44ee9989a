//! GIIS: the aggregate directory with MDS-2.0-style caching.
//!
//! §3: "the aggregate service is used to integrate a set of information
//! providers that may be part of a virtual organization. To increase the
//! scalability of a distributed information service, the MDS provides an
//! information caching function that allows viewing and querying the
//! information about a resource from a cache."
//!
//! The GIIS pulls each registered member GRIS's entries into its own
//! tree and serves searches from that cache until the per-member TTL
//! expires.

use crate::dit::{DirEntry, DirectoryTree, Scope};
use crate::filter::Filter;
use crate::gris::Gris;
use infogram_gsi::Dn;
use infogram_sim::clock::SharedClock;
use infogram_sim::timer::TimerWheel;
use parking_lot::{lock_class, Mutex};
use std::sync::Arc;
use std::time::Duration;

/// The member list plus its re-pull schedule: each member always has
/// exactly one pending [`TimerWheel`] entry (its index) due at its next
/// TTL expiry, so a refresh round pops the due frontier instead of
/// scanning every member for staleness.
struct MemberTable {
    /// Each member's entries are its GRIS's subtree, so a re-pull (or
    /// a shrinking member) replaces exactly its own entries.
    list: Vec<Arc<Gris>>,
    wheel: TimerWheel<usize>,
}

/// A virtual-organization aggregate directory.
pub struct Giis {
    clock: SharedClock,
    cache_ttl: Duration,
    base: Dn,
    tree: DirectoryTree,
    members: Mutex<MemberTable>,
    /// Number of pulls from member GRISes (cache misses).
    pulls: std::sync::atomic::AtomicU64,
    /// Number of member pulls that failed, where the aggregate kept
    /// serving the member's previously contributed (cached) entries.
    stale_pulls: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for Giis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Giis")
            .field("base", &self.base)
            .finish_non_exhaustive()
    }
}

impl Giis {
    /// An aggregate under `/o=Grid` with the given member cache TTL.
    #[expect(clippy::expect_used, reason = "a fixed literal RDN is valid")]
    pub fn new(clock: SharedClock, cache_ttl: Duration) -> Arc<Self> {
        Arc::new(Giis {
            clock,
            cache_ttl,
            base: Dn::from_rdns(vec![("o".to_string(), "Grid".to_string())]).expect("static DN"),
            tree: DirectoryTree::new(),
            members: Mutex::with_class(
                MemberTable {
                    list: Vec::new(),
                    wheel: TimerWheel::new(),
                },
                lock_class!("mds.giis.members"),
            ),
            pulls: std::sync::atomic::AtomicU64::new(0),
            stale_pulls: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Register a member GRIS. It is due for its first pull
    /// immediately.
    pub fn register(&self, gris: Arc<Gris>) {
        let mut members = self.members.lock();
        let idx = members.list.len();
        members.list.push(gris);
        members.wheel.schedule(self.clock.now(), idx);
    }

    /// Number of member GRISes.
    pub fn member_count(&self) -> usize {
        self.members.lock().list.len()
    }

    /// Pulls performed so far (for the caching experiments).
    pub fn pull_count(&self) -> u64 {
        self.pulls.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Failed member pulls served from the aggregate's cached copy.
    pub fn stale_pull_count(&self) -> u64 {
        self.stale_pulls.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The aggregate's base DN.
    pub fn base(&self) -> &Dn {
        &self.base
    }

    fn refresh_expired(&self) {
        let now = self.clock.now();
        // The re-pull schedule is a timer wheel keyed by member index:
        // pop the due frontier instead of scanning every member. Each
        // popped member is rescheduled one TTL out below (on both the
        // success and the degraded path), so every member always has
        // exactly one pending wheel entry. Popping under the lock is
        // also the no-double-pull guarantee: a concurrent search finds
        // the wheel already drained and pulls nothing.
        let mut stale: Vec<(usize, Arc<Gris>)> = Vec::new();
        {
            let mut members = self.members.lock();
            while let Some(due) = members.wheel.pop_due(now) {
                let idx = due.item;
                stale.push((idx, Arc::clone(&members.list[idx])));
            }
        }
        if stale.is_empty() {
            return;
        }
        // Scatter: snapshot every due member concurrently — one slow
        // member no longer serializes the whole pull round. The members
        // lock is NOT held here: member pulls execute providers and can
        // block for a long time, and holding the table lock across them
        // would wedge every concurrent search behind one slow member
        // (lockdep flags exactly this pattern). A pull is fallible:
        // a member's keyword breakers may be open with nothing cached,
        // and then the aggregate's cached copy of it keeps serving.
        let snapshots = infogram_sim::par::fan_out(&stale, |_, (_, gris)| {
            gris.try_search_all(&Filter::everything())
        });
        // Gather: re-acquire and apply tree mutations sequentially, in
        // member order. `list` only ever grows (members are never
        // removed), so the popped indices stay valid across the gap.
        let mut members = self.members.lock();
        for ((idx, gris), snapshot) in stale.iter().zip(snapshots) {
            let entries = match snapshot {
                Ok(entries) => entries,
                Err(_why) => {
                    // Member fault domain: keep whatever this member
                    // contributed last time in the tree, push the next
                    // pull a full TTL out so the member is not hammered,
                    // and count the degraded serve.
                    members.wheel.schedule(now.plus(self.cache_ttl), *idx);
                    self.stale_pulls
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    continue;
                }
            };
            // One swap: a search racing this pull reads the member's
            // whole old subtree or its whole new one.
            self.tree.replace_subtree(gris.base(), entries);
            members.wheel.schedule(now.plus(self.cache_ttl), *idx);
            self.pulls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Search the aggregate (refreshing expired members first).
    pub fn search(&self, base: &Dn, scope: Scope, filter: &Filter) -> Vec<DirEntry> {
        self.refresh_expired();
        self.tree.search(base, scope, filter)
    }

    /// Search the whole organization.
    pub fn search_all(&self, filter: &Filter) -> Vec<DirEntry> {
        self.search(&self.base.clone(), Scope::Sub, filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_host::commands::{ChargeMode, CommandRegistry};
    use infogram_host::machine::{HostConfig, SimulatedHost};
    use infogram_info::config::ServiceConfig;
    use infogram_info::service::InformationService;
    use infogram_sim::metrics::MetricSet;
    use infogram_sim::ManualClock;

    fn giis_with_hosts(n: usize) -> (Arc<ManualClock>, Arc<Giis>) {
        let clock = ManualClock::new();
        let giis = Giis::new(clock.clone(), Duration::from_secs(30));
        for i in 0..n {
            let host = SimulatedHost::new(
                HostConfig {
                    hostname: format!("node{i:02}.grid"),
                    seed: 77 + i as u64,
                    ..Default::default()
                },
                clock.clone(),
            );
            let reg = CommandRegistry::new(host, ChargeMode::Advance(clock.clone()));
            let info = InformationService::from_config(
                &ServiceConfig::table1(),
                reg,
                clock.clone(),
                MetricSet::new(),
            );
            giis.register(Gris::new(info));
        }
        (clock, giis)
    }

    #[test]
    fn aggregates_member_subtrees() {
        let (_c, giis) = giis_with_hosts(3);
        assert_eq!(giis.member_count(), 3);
        let hosts = giis.search_all(&Filter::parse("(objectclass=GridResource)").unwrap());
        assert_eq!(hosts.len(), 3);
        let mems = giis.search_all(&Filter::parse("(kw=Memory)").unwrap());
        assert_eq!(mems.len(), 3);
    }

    #[test]
    fn cache_avoids_repeat_pulls() {
        let (clock, giis) = giis_with_hosts(2);
        giis.search_all(&Filter::everything());
        assert_eq!(giis.pull_count(), 2);
        giis.search_all(&Filter::everything());
        assert_eq!(giis.pull_count(), 2, "served from the aggregate cache");
        clock.advance(Duration::from_secs(31));
        giis.search_all(&Filter::everything());
        assert_eq!(giis.pull_count(), 4, "expired members re-pulled");
    }

    #[test]
    fn scoped_search_on_one_host() {
        let (_c, giis) = giis_with_hosts(2);
        let base = Dn::parse("/o=Grid/hn=node01.grid").unwrap();
        let under = giis.search(&base, Scope::Sub, &Filter::everything());
        assert_eq!(under.len(), 6, "host entry + 5 keywords");
        for e in &under {
            assert!(e.dn.to_string().contains("node01.grid"));
        }
    }

    #[test]
    fn repull_replaces_only_that_members_entries() {
        // Two members sharing the /o=Grid subtree: refreshing one must
        // not clobber the other's entries.
        let (clock, giis) = giis_with_hosts(2);
        giis.search_all(&Filter::everything());
        // Expire the cache and search again: both members re-pull and
        // the entry count stays stable (no duplicate or lost subtrees).
        let before = giis
            .search_all(&Filter::parse("(objectclass=InfoGramProvider)").unwrap())
            .len();
        clock.advance(Duration::from_secs(31));
        let after = giis
            .search_all(&Filter::parse("(objectclass=InfoGramProvider)").unwrap())
            .len();
        assert_eq!(before, after);
        assert_eq!(before, 10, "5 keywords x 2 hosts");
    }

    #[test]
    fn open_member_serves_cached_records() {
        use infogram_sim::fault::{Fault, Plan};
        let clock = ManualClock::new();
        let giis = Giis::new(clock.clone(), Duration::from_secs(30));
        let mut regs = Vec::new();
        for i in 0..2 {
            let host = SimulatedHost::new(
                HostConfig {
                    hostname: format!("node{i:02}.grid"),
                    seed: 77 + i as u64,
                    ..Default::default()
                },
                clock.clone(),
            );
            let reg = CommandRegistry::new(host, ChargeMode::Advance(clock.clone()));
            regs.push(reg.clone());
            let info = InformationService::from_config(
                &ServiceConfig::table1(),
                reg,
                clock.clone(),
                MetricSet::new(),
            );
            giis.register(Gris::new(info));
        }
        // Healthy first pull: both members contribute host + 5 keywords.
        assert_eq!(giis.search_all(&Filter::everything()).len(), 12);
        assert_eq!(giis.pull_count(), 2);

        // Every provider command on node00 now fails. By the time the
        // GIIS cache expires, every snapshot is far past its (Binary)
        // lifetime, so node00's GRIS fails hard instead of stale-serving
        // — the aggregate must fall back to its own cached copy.
        let plan = Plan::new();
        for cmd in ["date", "sysinfo", "cpuload", "ls"] {
            plan.script(cmd, vec![Fault::Fail; 12]);
        }
        regs[0].set_fault_plan(plan);
        clock.advance(Duration::from_secs(31));
        let entries = giis.search_all(&Filter::everything());
        assert_eq!(entries.len(), 12, "failed member's cached entries serve");
        assert_eq!(giis.stale_pull_count(), 1);
        assert_eq!(giis.pull_count(), 3, "healthy member still re-pulled");

        // Fault plan removed: the next expiry round pulls fresh again.
        regs[0].clear_fault_plan();
        clock.advance(Duration::from_secs(31));
        assert_eq!(giis.search_all(&Filter::everything()).len(), 12);
        assert_eq!(giis.pull_count(), 5);
        assert_eq!(giis.stale_pull_count(), 1, "no new degraded pulls");
    }

    #[test]
    fn cross_host_filter_query() {
        // The "google-like" VO query: which hosts have free memory?
        let (_c, giis) = giis_with_hosts(4);
        let f = Filter::parse("(&(objectclass=InfoGramProvider)(Memory-free>=1))").unwrap();
        let found = giis.search_all(&f);
        assert_eq!(found.len(), 4);
    }
}
