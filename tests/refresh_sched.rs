//! End-to-end coverage for the adaptive refresh scheduler
//! (`info::sched`): prefetch hit rate at steady load, the TTL edge
//! cases the scheduler must preserve (TTL-0 keywords are never
//! enqueued; config-erroring keywords are evicted, not retried), the
//! cold-keyword demand gate, and breaker parking — all on the virtual
//! clock against a real service built from Table 1.

use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::info::config::ServiceConfig;
use infogram::info::sched::{RefreshScheduler, WatchError};
use infogram::info::service::{InformationService, QueryOptions};
use infogram::info::{Cause, SubscriptionHub};
use infogram::proto::transport::{Conn, ProtoError};
use infogram::proto::Outbox;
use infogram::sim::clock::Clock;
use infogram::sim::fault::{Fault, Plan};
use infogram::sim::metrics::MetricSet;
use infogram::sim::ManualClock;
use infogram_rsl::{InfoSelector, ResponseMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

type World = (
    Arc<ManualClock>,
    Arc<CommandRegistry>,
    Arc<InformationService>,
    MetricSet,
);

fn manual_service(config_text: &str) -> World {
    let clock = ManualClock::new();
    let host = SimulatedHost::default_on(clock.clone());
    let registry = CommandRegistry::new(host, ChargeMode::Advance(clock.clone()));
    let metrics = MetricSet::new();
    let info = InformationService::from_config(
        &ServiceConfig::parse(config_text).expect("config"),
        Arc::clone(&registry),
        clock.clone(),
        metrics.clone(),
    );
    (clock, registry, info, metrics)
}

fn scheduler(clock: Arc<ManualClock>, metrics: MetricSet) -> Arc<RefreshScheduler> {
    let hub = SubscriptionHub::new("node0.grid", MetricSet::new());
    RefreshScheduler::new(clock, metrics, hub)
}

/// Advance the clock to the scheduler's next deadline and tick.
fn step(clock: &ManualClock, sched: &RefreshScheduler) {
    if let Some(d) = sched.next_deadline() {
        if d > clock.now() {
            clock.set(d);
        }
    }
    sched.tick();
}

#[test]
fn ttl_zero_keywords_are_never_enqueued() {
    // Table 1 has one TTL-0 row (CPULoad); the Metrics: provider is the
    // other always-execute keyword. Neither may ever be prefetched — a
    // TTL-0 cache never serves, so a background refresh is pure waste.
    let (clock, _registry, info, metrics) = manual_service(infogram::info::TABLE1_TEXT);
    info.register_metrics_provider(metrics.clone());
    let sched = scheduler(clock.clone(), metrics.clone());

    let watched = sched.watch_service(&info);
    assert_eq!(
        watched, 4,
        "Date/Memory/CPU/list watched; CPULoad (TTL 0) and Metrics skipped"
    );
    let cpuload = info.lookup("CPULoad").expect("configured");
    let m = info.lookup("Metrics").expect("registered");
    assert_eq!(sched.watch(cpuload), Err(WatchError::TtlZero));
    assert_eq!(sched.watch(m), Err(WatchError::TtlZero));

    // Drive several full periods: the TTL-0 providers never execute.
    let cpuload = info.lookup("CPULoad").expect("configured");
    let base = cpuload.execution_count();
    for _ in 0..20 {
        step(&clock, &sched);
    }
    assert_eq!(cpuload.execution_count(), base);
    assert_eq!(
        info.lookup("Metrics")
            .expect("registered")
            .execution_count(),
        0
    );
}

#[test]
fn steady_traffic_sees_no_misses_after_warmup() {
    // One hot keyword, queried every 10 ms against a 100 ms TTL. After
    // the first (seeding) refresh, every query must be a cache hit:
    // the scheduler refreshes just before expiry, so the cache never
    // lapses under the traffic.
    let (clock, _registry, info, metrics) = manual_service("100 Date date -u\n");
    let sched = scheduler(clock.clone(), metrics.clone());
    assert_eq!(sched.watch_service(&info), 1);
    sched.tick(); // seed the cache

    let count = |name: &str| metrics.counter_value(name);
    let (hits0, misses0) = (count("info.hits.Date"), count("info.misses.Date"));
    for _ in 0..200 {
        clock.advance(Duration::from_millis(10));
        // Scheduler runs whenever due work exists; queries in between.
        while sched.next_deadline().is_some_and(|d| d <= clock.now()) {
            sched.tick();
        }
        info.answer(
            &[InfoSelector::Keyword("Date".to_string())],
            &QueryOptions::default(),
        )
        .expect("query");
    }
    let hits = count("info.hits.Date") - hits0;
    let misses = count("info.misses.Date") - misses0;
    assert_eq!(misses, 0, "steady traffic never misses ({hits} hits)");
    assert_eq!(hits, 200);
    assert!(metrics.counter_value("sched.prefetches") >= 19);
}

#[test]
fn a_prefetch_is_counted_like_a_querys_refresh() {
    // A scheduled refresh is a fresh production like a query's: it moves
    // `info.refreshes`, times itself into `info.refresh` and sets the
    // keyword's validity gauge, so `(info=metrics)` shows prefetches and
    // provider executions equal `info.refreshes` with a scheduler running.
    let (clock, _registry, info, metrics) = manual_service("100 Date date -u\n");
    let sched = scheduler(clock.clone(), metrics.clone());
    assert_eq!(sched.watch_service(&info), 1);
    assert_eq!(sched.tick().refreshed, 1);

    let refreshes = metrics.counter_value("info.refreshes");
    assert_eq!(refreshes, 1);
    assert_eq!(metrics.histogram("info.refresh").count(), 1);
    assert_eq!(metrics.gauge_value("info.validity_ms.Date"), 100.0);
    assert_eq!(
        info.lookup("Date").expect("configured").execution_count(),
        refreshes
    );
}

#[test]
fn prefetch_executes_fewer_than_ttl_polling_would() {
    // The scheduler must beat the naive alternative — re-executing every
    // keyword each TTL regardless of demand. Here only one of three
    // keywords has traffic: the polling baseline runs 3 providers per
    // period, the scheduler runs 1 (plus initial seeding).
    let cfg = "100 Hot date -u\n100 ColdA date -u\n100 ColdB date -u\n";
    let (clock, _registry, info, metrics) = manual_service(cfg);
    let sched = scheduler(clock.clone(), metrics.clone());
    assert_eq!(sched.watch_service(&info), 3);
    sched.tick(); // seed all three

    let rounds = 50u64;
    for _ in 0..rounds {
        for _ in 0..10 {
            clock.advance(Duration::from_millis(10));
            while sched.next_deadline().is_some_and(|d| d <= clock.now()) {
                sched.tick();
            }
            info.answer(
                &[InfoSelector::Keyword("Hot".to_string())],
                &QueryOptions::default(),
            )
            .expect("query");
        }
    }
    let total: u64 = info.entries().iter().map(|e| e.execution_count()).sum();
    let polling_baseline = 3 * (rounds + 1); // every keyword, every TTL
    assert!(
        total < polling_baseline,
        "scheduler executed {total}, TTL-polling would execute {polling_baseline}"
    );
    assert!(
        metrics.counter_value("sched.skipped") >= 2 * (rounds - 2),
        "cold keywords are skipped, not refreshed"
    );
}

#[test]
fn config_error_keyword_is_evicted_not_retried() {
    // `frobnicate` is not in the simulated host's command table, so the
    // provider fails non-transiently on every execution. The scheduler
    // must evict the keyword after the first attempt instead of
    // re-running a hopeless provider forever.
    let (clock, _registry, info, metrics) =
        manual_service("100 Date date -u\n100 Broken frobnicate --now\n");
    let sched = scheduler(clock.clone(), metrics.clone());
    assert_eq!(sched.watch_service(&info), 2);

    let broken = info.lookup("Broken").expect("configured");
    let r = sched.tick();
    assert_eq!(r.evicted, 1);
    assert_eq!(r.refreshed, 1, "the healthy keyword still refreshes");
    assert_eq!(sched.watched(), 1);
    let after_evict = broken.execution_count();

    for _ in 0..10 {
        step(&clock, &sched);
    }
    assert_eq!(
        broken.execution_count(),
        after_evict,
        "an evicted keyword is never re-executed by the scheduler"
    );
    assert_eq!(metrics.counter_value("sched.evicted"), 1);
    // On-demand queries still reach the entry (and still fail) — the
    // eviction is from the refresh queue, not from the service.
    assert!(broken.refresh(Cause::Query { deadline: None }).is_err());
    assert!(broken.execution_count() > after_evict);
}

#[test]
fn broken_provider_parks_behind_the_breaker() {
    // A transiently failing provider trips its breaker; the scheduler
    // must park the keyword (reschedule past the cool-down) rather than
    // hot-loop it, and resume refreshing once the provider heals.
    let (clock, registry, info, metrics) = manual_service("100 Flaky date -u\n");
    let plan = Plan::new();
    plan.script("date", vec![Fault::Fail; 30]);
    registry.set_fault_plan(plan);

    let sched = scheduler(clock.clone(), metrics.clone());
    assert_eq!(sched.watch_service(&info), 1);
    let flaky = info.lookup("Flaky").expect("configured");

    // The first refresh spends at most the bounded retry budget, then
    // the keyword is parked with a deadline strictly in the future.
    sched.tick();
    let burst = flaky.execution_count();
    assert!(
        burst <= 3,
        "one refresh spends at most 1 + max_retries executions ({burst})"
    );
    assert!(
        metrics.counter_value("sched.parked") > 0,
        "parked at least once"
    );
    assert!(
        sched.next_deadline().is_some_and(|d| d > clock.now()),
        "parked keywords stay scheduled, strictly past the cool-down"
    );

    // Re-ticking without advancing the clock must not re-execute: the
    // park is a real deadline, not a busy-loop.
    for _ in 0..10 {
        sched.tick();
    }
    assert_eq!(flaky.execution_count(), burst, "no busy-loop while parked");

    // Drive through the cool-downs. Each deadline arrival admits at most
    // one bounded refresh, so executions grow slowly while the fault
    // script drains; eventually it exhausts and the provider heals.
    let mut steps = 0u32;
    while flaky.last_state().is_err() && steps < 60 {
        let before = flaky.execution_count();
        step(&clock, &sched);
        assert!(
            flaky.execution_count() <= before + 3,
            "a parked keyword runs at most one bounded refresh per cool-down"
        );
        steps += 1;
    }
    assert!(
        flaky.last_state().is_ok(),
        "after healing, the scheduler re-seeds the cache"
    );
    assert!(
        sched.next_deadline().is_some(),
        "a healed keyword rejoins the normal refresh cadence"
    );
}

#[test]
fn unwatch_stops_refreshing() {
    let (clock, _registry, info, metrics) = manual_service("100 Date date -u\n");
    let sched = scheduler(clock.clone(), metrics);
    assert_eq!(sched.watch_service(&info), 1);
    sched.tick();
    let date = info.lookup("Date").expect("configured");
    let n = date.execution_count();
    assert!(sched.unwatch("Date"));
    for _ in 0..5 {
        clock.advance(Duration::from_millis(100));
        sched.tick();
    }
    assert_eq!(date.execution_count(), n);
    assert_eq!(sched.next_deadline(), None);
}

/// A subscriber's connection that counts the frames it is sent.
#[derive(Default)]
struct CountingConn(AtomicU64);

impl Conn for CountingConn {
    fn send(&self, _frame: &[u8]) -> Result<(), ProtoError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
    fn recv(&self) -> Result<Vec<u8>, ProtoError> {
        Err(ProtoError::Closed)
    }
    fn peer(&self) -> String {
        "subscriber".to_string()
    }
}

#[test]
fn refresh_ledger_balances_against_cache_installs() {
    // The missed-update ledger: every fresh production — a scheduled
    // refresh the wheel reports, or a query's refresh the service counts
    // as a miss — is exactly one cache install (the `generation` stamp)
    // and exactly one version pushed to the subscriber. A refresh that
    // completed without installing (a push the hub would never see) or
    // installed twice (a duplicate push) would unbalance it. A flaky
    // keyword rides along to prove failed refreshes land on no side.
    let cfg = "100 Date date -u\n80 Memory free\n100 Flaky date -u\n";
    let (clock, registry, info, metrics) = manual_service(cfg);
    let plan = Plan::new();
    plan.script("date", vec![Fault::Fail, Fault::Fail]);
    registry.set_fault_plan(plan);

    let hub = SubscriptionHub::new("node0.grid", MetricSet::new());
    let keywords = ["Date", "Memory", "Flaky"].map(String::from);
    let sink = Arc::new(CountingConn::default());
    let outbox = Outbox::new(Arc::clone(&sink) as Arc<dyn Conn>, 1024);
    hub.subscribe(&keywords, "t", outbox);
    let sched = RefreshScheduler::new(clock.clone(), metrics, Arc::clone(&hub));
    assert_eq!(sched.watch_service(&info), 3);

    let entries = info.entries();
    let before: u64 = entries.iter().map(|e| e.generation()).sum();
    let immediate = QueryOptions {
        mode: ResponseMode::Immediate,
        ..Default::default()
    };

    let mut reported = 0u64;
    for round in 0..40 {
        clock.advance(Duration::from_millis(20));
        while sched.next_deadline().is_some_and(|d| d <= clock.now()) {
            reported += sched.tick().refreshed as u64;
        }
        // Queries between the ticks: an immediate refresh every third
        // round, a cached read (a hit, or a miss past the TTL) otherwise.
        // `free` is no command, so Memory's queries fail: no side.
        let opts = if round % 3 == 0 {
            &immediate
        } else {
            &QueryOptions::default()
        };
        let kw = &keywords[round % keywords.len()];
        let _ = info.answer(&[InfoSelector::Keyword(kw.clone())], opts);
    }

    let installed: u64 = entries.iter().map(|e| e.generation()).sum::<u64>() - before;
    let queried: u64 = keywords
        .iter()
        .map(|k| info.metrics().counter_value(&format!("info.misses.{k}")))
        .sum();
    let pushed: u64 = keywords.iter().map(|k| hub.channel_version(k)).sum();
    assert!(reported > 0 && queried > 0, "both causes refreshed");
    assert_eq!(
        reported + queried,
        installed,
        "every refresh installs exactly once ({reported} scheduled, {queried} queried)"
    );
    assert_eq!(
        pushed, installed,
        "every install pushes exactly one version"
    );
    assert_eq!(
        sink.0.load(Ordering::SeqCst),
        pushed,
        "and the subscriber got it"
    );
}
