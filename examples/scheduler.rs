//! The adaptive refresh scheduler, end to end: watch a Table 1 service,
//! drive steady traffic on one hot keyword, and watch the scheduler
//! prefetch it just before every TTL expiry while skipping the cold
//! keywords nobody queries.
//!
//! ```text
//! cargo run --example scheduler
//! ```
//!
//! The run is on the virtual clock, so it finishes instantly and
//! reproducibly. The same tick-driven loop works on the system clock —
//! see `drive` below: nothing in the scheduler sleeps or spawns, so a
//! wall-clock deployment is just `sleep(next_deadline - now)` between
//! ticks. Its constants (a lead of mean + 2σ, a 10 ms storm guard, eight
//! refreshes per tick) live in `info::sched`; the `sched.*` instruments are readable here via the `Metrics:` keyword
//! (`(info=metrics)`), exactly as an operator would poll them.

use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::info::config::ServiceConfig;
use infogram::info::service::{InformationService, QueryOptions};
use infogram::info::{RefreshScheduler, SubscriptionHub, TABLE1_TEXT};
use infogram::rsl::InfoSelector;
use infogram::sim::clock::Clock;
use infogram::sim::metrics::MetricSet;
use infogram::sim::ManualClock;
use std::time::Duration;

/// Drain everything due, then advance the clock to the next deadline.
/// On a `SystemClock` the `clock.set(d)` line becomes a real sleep —
/// the scheduler itself never blocks.
fn drive(clock: &ManualClock, sched: &RefreshScheduler) {
    sched.tick();
    if let Some(d) = sched.next_deadline() {
        if d > clock.now() {
            clock.set(d);
        }
    }
}

fn main() {
    // A service straight from Table 1, with the telemetry provider so
    // `(info=metrics)` can answer operator queries about the scheduler.
    let clock = ManualClock::new();
    let host = SimulatedHost::default_on(clock.clone());
    let registry = CommandRegistry::new(host, ChargeMode::Advance(clock.clone()));
    let metrics = MetricSet::new();
    let info = InformationService::from_config(
        &ServiceConfig::parse(TABLE1_TEXT).expect("Table 1 parses"),
        registry,
        clock.clone(),
        metrics.clone(),
    );
    info.register_metrics_provider(metrics.clone());

    let hub = SubscriptionHub::new(info.hostname(), MetricSet::new());
    let sched = RefreshScheduler::new(clock.clone(), metrics.clone(), hub);
    let watched = sched.watch_service(&info);
    println!(
        "watching {watched} of {} keywords (TTL-0 rows are left on-demand)\n",
        info.entries().len()
    );

    // Steady traffic: `Date` every 10 ms for 5 virtual seconds; the
    // other keywords go cold after their seeding refresh.
    sched.tick(); // seed every cache
    let hot = [InfoSelector::Keyword("Date".to_string())];
    let opts = QueryOptions::default();
    for _ in 0..500 {
        clock.advance(Duration::from_millis(10));
        while sched.next_deadline().is_some_and(|d| d <= clock.now()) {
            sched.tick();
        }
        info.answer(&hot, &opts).expect("hot query");
    }

    let count = |name: &str| info.metrics().counter_value(name);
    println!(
        "5 virtual seconds of steady traffic on Date (TTL 60 ms in Table 1):\n  \
         {} hits, {} misses — the prefetcher kept the cache warm",
        count("info.hits.Date"),
        count("info.misses.Date")
    );

    // The operator's view: the scheduler's own instruments, served by
    // the service itself through the `Metrics:` keyword.
    println!("\n(info=metrics), sched.* attributes:");
    let records = info
        .answer(
            &[InfoSelector::Keyword("Metrics".to_string())],
            &QueryOptions::default(),
        )
        .expect("metrics query");
    for rec in &records {
        for attr in &rec.attributes {
            if attr.name.contains("sched.") {
                println!("  {} = {}", attr.name, attr.value);
            }
        }
    }

    // Idle the traffic and keep driving: every keyword goes cold, and
    // ticks turn into demand checks instead of provider executions.
    let before: u64 = info.entries().iter().map(|e| e.execution_count()).sum();
    for _ in 0..50 {
        drive(&clock, &sched);
    }
    let after: u64 = info.entries().iter().map(|e| e.execution_count()).sum();
    println!(
        "\n50 idle scheduling rounds later: {} provider executions \
         (cold keywords are skipped, not refreshed)",
        after - before
    );
}
