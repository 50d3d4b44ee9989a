//! Multi-threaded stress of the scatter-gather query engine: 8 threads
//! firing mixed `(info=all)`, single-keyword, and `(response=immediate)`
//! queries at one Table 1 service, checking that
//!
//! * every reply's records arrive in selector order,
//! * the telemetry ledger balances (`info.queries` = hits + refreshes),
//! * real provider executions equal the `info.refreshes` counter, and
//! * the §6.2 monitor accounts for every coalesced caller
//!   (`executions + info.coalesced` covers a synchronized storm exactly).

use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::info::config::ServiceConfig;
use infogram::info::provider::FnProvider;
use infogram::info::quality::DegradationFn;
use infogram::info::service::{InformationService, QueryOptions};
use infogram::info::SystemInformation;
use infogram::obs::MetricSet;
use infogram::rsl::{InfoSelector, ResponseMode};
use infogram::sim::SystemClock;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const THREADS: usize = 8;
const ROUNDS: usize = 25;

fn table1_on_system_clock() -> Arc<InformationService> {
    let clock = SystemClock::shared();
    let host = SimulatedHost::default_on(clock.clone());
    let registry = CommandRegistry::new(host, ChargeMode::None);
    InformationService::from_config(&ServiceConfig::table1(), registry, clock, MetricSet::new())
}

fn keyword(k: &str) -> InfoSelector {
    InfoSelector::Keyword(k.to_string())
}

/// Record keywords must follow the selector list: explicit keywords in
/// request order, `All` expanding to the registry order.
fn assert_selector_order(service: &InformationService, selectors: &[InfoSelector], got: &[String]) {
    let mut expected = Vec::new();
    for sel in selectors {
        match sel {
            InfoSelector::All => expected.extend(service.keywords()),
            InfoSelector::Keyword(k) => expected.push(
                service
                    .lookup(k)
                    .expect("known keyword")
                    .keyword()
                    .to_string(),
            ),
            InfoSelector::Schema => unreachable!("not used in this test"),
        }
    }
    assert_eq!(got, expected.as_slice(), "records out of selector order");
}

#[test]
fn mixed_query_storm_keeps_ledger_and_order() {
    let service = table1_on_system_clock();
    let keywords = service.keywords();

    // Seed every keyword once so `(response=last)`-free mixed traffic
    // never hits NeverProduced and the ledger stays error-free.
    service
        .answer(&[InfoSelector::All], &QueryOptions::default())
        .unwrap();

    let workloads: Vec<Vec<InfoSelector>> = vec![
        vec![InfoSelector::All],
        vec![keyword("memory"), keyword("cpu")],
        vec![keyword("CPULoad")],
        vec![keyword("date"), InfoSelector::All, keyword("list")],
    ];

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let service = &service;
            let workloads = &workloads;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    let selectors = &workloads[(t + round) % workloads.len()];
                    let opts = if (t + round) % 3 == 0 {
                        QueryOptions {
                            mode: ResponseMode::Immediate,
                            ..Default::default()
                        }
                    } else {
                        QueryOptions::default()
                    };
                    let records = service.answer(selectors, &opts).unwrap();
                    let got: Vec<String> = records.iter().map(|r| r.keyword.clone()).collect();
                    assert_selector_order(service, selectors, &got);
                }
            });
        }
    });

    // Ledger balance: every fetch was either a cache hit or a refresh.
    let m = service.metrics();
    let queries = m.counter_value("info.queries");
    let hits = m.counter_value("info.cache_hits");
    let refreshes = m.counter_value("info.refreshes");
    assert!(queries > 0);
    assert_eq!(
        queries,
        hits + refreshes,
        "queries ({queries}) must equal hits ({hits}) + refreshes ({refreshes})"
    );

    // Refreshes equal real provider executions, summed across keywords —
    // the fan-out pool must not double-count or lose any.
    let executions: u64 = keywords
        .iter()
        .map(|k| service.lookup(k).unwrap().execution_count())
        .sum();
    assert_eq!(refreshes, executions);

    // Per-keyword ledgers balance too.
    for k in &keywords {
        let kh = m.counter_value(&format!("info.hits.{k}"));
        let km = m.counter_value(&format!("info.misses.{k}"));
        assert_eq!(km, service.lookup(k).unwrap().execution_count());
        assert!(kh + km > 0, "keyword {k} never served");
    }
}

#[test]
fn immediate_storm_coalesces_on_the_monitor() {
    // One slow keyword, THREADS synchronized `(response=immediate)`
    // callers per storm: each caller either executed the provider or was
    // coalesced onto the in-flight execution — the ledger must account
    // for every single one.
    const STORMS: usize = 5;
    let clock = SystemClock::shared();
    let metrics = MetricSet::new();
    let service = InformationService::new("stress.grid", clock.clone(), metrics.clone());
    service.register(SystemInformation::new(
        Box::new(FnProvider::new("Slow", move || {
            std::thread::sleep(Duration::from_millis(30));
            Ok(vec![("v".to_string(), "1".to_string())])
        })),
        clock,
        Duration::ZERO,
        DegradationFn::default(),
    ));
    let opts = QueryOptions {
        mode: ResponseMode::Immediate,
        ..Default::default()
    };
    let selectors = [InfoSelector::Keyword("Slow".to_string())];

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let service = &service;
            let barrier = &barrier;
            let opts = &opts;
            let selectors = &selectors;
            scope.spawn(move || {
                for _ in 0..STORMS {
                    barrier.wait();
                    let records = service.answer(selectors, opts).unwrap();
                    assert_eq!(records.len(), 1);
                    assert_eq!(records[0].keyword, "Slow");
                }
            });
        }
    });

    let executions = service.lookup("Slow").unwrap().execution_count();
    let coalesced = metrics.counter_value("info.coalesced");
    let total = (THREADS * STORMS) as u64;
    assert_eq!(metrics.counter_value("info.queries"), total);
    assert_eq!(
        executions + coalesced,
        total,
        "every caller either executed ({executions}) or coalesced ({coalesced})"
    );
    assert!(
        executions < total,
        "synchronized storms must coalesce at least once"
    );
    assert_eq!(metrics.counter_value("info.cache_hits"), coalesced);
    assert_eq!(metrics.counter_value("info.refreshes"), executions);
}

#[test]
fn racing_first_readers_of_a_block_all_get_the_full_body() {
    // A keyword's attribute block is rendered by the first cached reply
    // that wants it (a `OnceLock` beside the snapshot). THREADS readers
    // released together right after each refresh race that first read,
    // in two formats: every one must send the complete body, never a
    // block still being written.
    use infogram::proto::render;
    use infogram::rsl::OutputFormat;
    use infogram::sim::ManualClock;
    use std::sync::atomic::{AtomicU64, Ordering};

    let clock = ManualClock::new();
    let service = InformationService::new("stress.grid", clock.clone(), MetricSet::new());
    let runs = AtomicU64::new(0);
    service.register(SystemInformation::new(
        Box::new(FnProvider::new("Wide", move || {
            let run = runs.fetch_add(1, Ordering::SeqCst);
            Ok((0..256)
                .map(|i| (format!("a{i:03}"), format!("run {run} <value {i:03}>")))
                .collect())
        })),
        clock.clone(),
        Duration::from_secs(60),
        DegradationFn::default(),
    ));
    let selectors = [keyword("wide")];
    let immediate = QueryOptions {
        mode: ResponseMode::Immediate,
        ..Default::default()
    };
    let cached = QueryOptions::default();
    let formats = [OutputFormat::Ldif, OutputFormat::Xml];

    let (start, done) = (Barrier::new(THREADS + 1), Barrier::new(THREADS + 1));
    std::thread::scope(|scope| {
        let bodies: Vec<_> = (0..THREADS)
            .map(|t| {
                let (service, start, done) = (&service, &start, &done);
                let (selectors, cached) = (&selectors, &cached);
                scope.spawn(move || {
                    let mut bodies = Vec::with_capacity(ROUNDS);
                    for _ in 0..ROUNDS {
                        start.wait();
                        let format = formats[t % 2];
                        bodies.push(service.answer_body(selectors, cached, format).unwrap());
                        done.wait();
                    }
                    bodies
                })
            })
            .collect();
        let mut expected = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            // A fresh snapshot, no block rendered yet.
            service.answer(&selectors, &immediate).unwrap();
            start.wait();
            done.wait();
            let records = service.answer(&selectors, &cached).unwrap();
            expected.push(formats.map(|f| render::render(&records, f)));
        }
        for (t, handle) in bodies.into_iter().enumerate() {
            for (round, (body, count)) in handle.join().unwrap().into_iter().enumerate() {
                assert_eq!(count, 1);
                assert!(body == expected[round][t % 2], "thread {t}, round {round}");
            }
        }
    });
    assert_eq!(
        service.lookup("Wide").unwrap().execution_count(),
        ROUNDS as u64
    );
}
