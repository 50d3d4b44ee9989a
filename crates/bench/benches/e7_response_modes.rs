//! E7 — the three xRSL response modes (§6.6): `immediate` / `cached` /
//! `last`.
//!
//! A fixed 1 s TTL, queries every 250 ms of virtual time for 60 s per
//! mode. The semantics the paper defines translate into measurable
//! positions on the latency/freshness plane: `last` is cheapest and
//! stalest, `immediate` freshest and dearest, `cached` in between.
//! Virtual time makes every figure exact, so every claim is gated.

use infogram_bench::{fmt_secs, manual_world_with_config, row, table, Report};
use infogram_info::config::ServiceConfig;
use infogram_info::service::QueryOptions;
use infogram_rsl::{InfoSelector, ResponseMode};
use infogram_sim::Clock;
use std::time::Duration;

/// Queries per mode: 60 s at 4 Hz.
const QUERIES: u64 = 240;

/// Mean latency, provider executions, mean age served, and the virtual
/// seconds the queries spanned.
fn run(mode: ResponseMode) -> (f64, u64, f64, f64) {
    let config = ServiceConfig::parse("1000 CPULoad /usr/local/bin/cpuload.exe\n").expect("config");
    let w = manual_world_with_config(4242, &config);
    let sel = [InfoSelector::Keyword("CPULoad".to_string())];
    // `last` needs something cached first; prime all modes equally.
    w.info
        .answer(&sel, &QueryOptions::default())
        .expect("prime");
    let primed = w.info.lookup("CPULoad").unwrap().execution_count();

    let opts = QueryOptions {
        mode,
        ..Default::default()
    };
    let mut latency_sum = 0.0;
    let mut age_sum = 0.0;
    let start = w.clock.now();
    for _ in 0..QUERIES {
        let t0 = w.clock.now();
        let records = w.info.answer(&sel, &opts).expect("query");
        latency_sum += w.clock.now().since(t0).as_secs_f64();
        age_sum += records[0].attributes[0].age_secs.unwrap_or(0.0);
        w.clock.advance(Duration::from_millis(250));
    }
    let execs = w.info.lookup("CPULoad").unwrap().execution_count() - primed;
    (
        latency_sum / QUERIES as f64,
        execs,
        age_sum / QUERIES as f64,
        w.clock.now().since(start).as_secs_f64(),
    )
}

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E7",
        "response modes: immediate / cached / last (§6.6)",
    );

    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for (label, mode) in [
        ("immediate", ResponseMode::Immediate),
        ("cached", ResponseMode::Cached),
        ("last", ResponseMode::Last),
    ] {
        let (latency, execs, age, span) = run(mode);
        runs.push((latency, execs, age, span));
        rows.push(row![label, fmt_secs(latency), execs, fmt_secs(age)]);
    }
    table("response=|mean-latency|execs/240q|mean-age", &rows);

    let [immediate, cached, last] = [runs[0], runs[1], runs[2]];
    report.claim(
        "latency_ordered",
        "latency: last < cached < immediate",
        last.0 < cached.0 && cached.0 < immediate.0,
        format!(
            "{} < {} < {}",
            fmt_secs(last.0),
            fmt_secs(cached.0),
            fmt_secs(immediate.0)
        ),
    );
    report.claim(
        "freshness_reversed",
        "freshness the reverse: mean age immediate < cached < last",
        immediate.2 < cached.2 && cached.2 < last.2,
        format!(
            "{} < {} < {}",
            fmt_secs(immediate.2),
            fmt_secs(cached.2),
            fmt_secs(last.2)
        ),
    );
    report.claim(
        "immediate_and_last_execute_all_and_none",
        "immediate executes the provider on every query; last never does",
        immediate.1 == QUERIES && last.1 == 0,
        format!("immediate {}, last {} of {QUERIES}", immediate.1, last.1),
    );
    // The TTL is 1 s: a cached copy is refreshed at most once per second
    // of virtual time, and a query finds a stale one within a 250 ms gap.
    let (execs, span) = (cached.1 as f64, cached.3);
    report.claim(
        "cached_once_per_ttl",
        "cached refreshes once per TTL window: between span/(TTL + gap) and span/TTL",
        execs <= span && execs >= span / 1.25 - 1.0,
        format!("{} executions over {span:.3} s", cached.1),
    );
    report.finish();
}
