//! E15 (ablation) — the aggregate's caching function (§3): "To increase
//! the scalability of a distributed information service, the MDS provides
//! an information caching function that allows viewing and querying the
//! information about a resource from a cache."
//!
//! A GIIS over M member GRISes, searched once per second of virtual time
//! for two minutes; we sweep the aggregate's member cache TTL and report
//! the pulls it performs versus the worst-case staleness it serves — the
//! age of the oldest pull a search was answered from. The TTL=0 row is
//! the ablation: no aggregate caching at all. Virtual time makes both
//! exact, so both are gated.

use infogram_bench::{fmt_secs, row, table, Joined, Report};
use infogram_mds::filter::Filter;
use infogram_mds::giis::Giis;
use infogram_mds::gris::Gris;
use infogram_sim::Clock;
use std::time::Duration;

/// Searches per run, one per second of virtual time.
const QUERIES: u64 = 120;

fn run(members: usize, cache_ttl: Duration) -> (u64, f64) {
    use infogram_host::commands::{ChargeMode, CommandRegistry};
    use infogram_host::machine::{HostConfig, SimulatedHost};
    use infogram_info::config::ServiceConfig;
    use infogram_info::service::InformationService;
    use infogram_obs::MetricSet;
    use infogram_sim::ManualClock;

    // All members share one manual clock so the sweep is deterministic;
    // each gets a distinct hostname so their GIIS subtrees are disjoint.
    let clock = ManualClock::new();
    let giis = Giis::new(clock.clone(), cache_ttl);
    for i in 0..members {
        let host = SimulatedHost::new(
            HostConfig {
                hostname: format!("member{i:02}.grid"),
                seed: 300 + i as u64,
                ..Default::default()
            },
            clock.clone(),
        );
        let registry = CommandRegistry::new(host, ChargeMode::None);
        let info = InformationService::from_config(
            &ServiceConfig::table1(),
            registry,
            clock.clone(),
            MetricSet::new(),
        );
        giis.register(Gris::new(info));
    }

    let filter = Filter::parse("(kw=Memory)").expect("filter");
    // Every member is pulled together, so a search that pulls nothing is
    // answered from the last search that did.
    let (mut last_pull, mut worst_staleness) = (clock.now(), 0.0f64);
    for _ in 0..QUERIES {
        let pulls = giis.pull_count();
        let found = giis.search_all(&filter);
        assert_eq!(found.len(), members);
        if giis.pull_count() > pulls {
            last_pull = clock.now();
        }
        worst_staleness = worst_staleness.max(clock.now().since(last_pull).as_secs_f64());
        clock.advance(Duration::from_secs(1));
    }
    (giis.pull_count(), worst_staleness)
}

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E15",
        "GIIS aggregate caching ablation (§3)",
    );
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for members in [2usize, 8] {
        for ttl_s in [0u64, 1, 10, 60] {
            let (pulls, staleness) = run(members, Duration::from_secs(ttl_s));
            let no_cache_pulls = members as u64 * QUERIES;
            runs.push((members as u64, ttl_s, pulls, staleness));
            rows.push(row![
                members,
                if ttl_s == 0 {
                    "0 (no cache)".to_string()
                } else {
                    format!("{ttl_s}s")
                },
                pulls,
                no_cache_pulls,
                format!("{:.1}%", 100.0 * pulls as f64 / no_cache_pulls as f64),
                fmt_secs(staleness)
            ]);
        }
    }
    table(
        "members|cache-TTL|pulls/120q|no-cache pulls|pull-ratio|max-staleness",
        &rows,
    );

    // One pull per member per TTL window of the queries' span; TTL 0 (and
    // a TTL no longer than the query gap) pulls on every search.
    let expected = |members: u64, ttl_s: u64| members * QUERIES.div_ceil(ttl_s.max(1));
    report.claim(
        "pulls_one_per_member_per_ttl",
        "pulls drop from one per member per query (no cache) to one per member per TTL",
        runs.iter()
            .all(|&(m, ttl, pulls, _)| pulls == expected(m, ttl)),
        runs.iter()
            .map(|&(m, ttl, pulls, _)| format!("{pulls}/{}", expected(m, ttl)))
            .joined(),
    );
    report.claim(
        "staleness_bounded_by_ttl",
        "the price is staleness: a search is answered from a pull at most TTL old",
        runs.iter().all(|&(_, ttl, _, stale)| stale <= ttl as f64),
        runs.iter()
            .filter(|r| r.0 == 8)
            .map(|&(_, ttl, _, stale)| format!("{stale:.0} s at TTL {ttl} s"))
            .joined(),
    );
    report.finish();
}
