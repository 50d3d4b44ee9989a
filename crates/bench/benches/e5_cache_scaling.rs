//! E5 — the §5.1 claim: "Assume we have a large number of clients that
//! need to know the CPU load of a remote compute resource. It would be
//! wasteful to execute the command requesting the load every single time.
//! Instead, it can be more efficient to cache this value within the
//! information service."
//!
//! N clients poll CPULoad at 1 Hz each for a 30 s (virtual) window; we
//! sweep the TTL and report mean per-query latency, backend executions
//! per second, and the mean age (staleness) of served values. Virtual
//! time makes the run exact: a query's latency is precisely the clock
//! time its answer consumed, and every claim is gated.

use infogram_bench::{fmt_ratio, fmt_secs, manual_world_with_config, row, table, Report};
use infogram_info::config::ServiceConfig;
use infogram_info::service::QueryOptions;
use infogram_rsl::InfoSelector;
use infogram_sim::Clock;
use std::time::Duration;

/// What one (clients, TTL) cell measured.
struct Cell {
    clients: u64,
    ttl_ms: u64,
    mean_latency: f64,
    execs_per_sec: f64,
    mean_age: f64,
    /// The catalogued mean cost of one provider execution, in seconds.
    mean_cost: f64,
}

fn run(clients: u64, ttl_ms: u64) -> Cell {
    let config = ServiceConfig::parse(&format!("{ttl_ms} CPULoad /usr/local/bin/cpuload.exe\n"))
        .expect("config");
    let w = manual_world_with_config(7 + clients, &config);
    // N clients at 1 Hz each = N queries/s, evenly interleaved.
    let gap = Duration::from_nanos(1_000_000_000 / clients);
    let total_queries = clients * 30;
    let sel = [InfoSelector::Keyword("CPULoad".to_string())];
    let opts = QueryOptions::default();

    let mut latency_sum = 0.0;
    let mut age_sum = 0.0;
    let start = w.clock.now();
    for _ in 0..total_queries {
        let t0 = w.clock.now();
        let records = w.info.answer(&sel, &opts).expect("query");
        latency_sum += w.clock.now().since(t0).as_secs_f64();
        age_sum += records[0].attributes[0].age_secs.unwrap_or(0.0);
        w.clock.advance(gap);
    }
    let elapsed = w.clock.now().since(start).as_secs_f64().max(1e-9);
    let si = w.info.lookup("CPULoad").unwrap();
    Cell {
        clients,
        ttl_ms,
        mean_latency: latency_sum / total_queries as f64,
        execs_per_sec: si.execution_count() as f64 / elapsed,
        mean_age: age_sum / total_queries as f64,
        mean_cost: si.average_update_time().0,
    }
}

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E5",
        "cache scaling — N clients polling CPULoad (§5.1)",
    );

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for clients in [1u64, 10, 100, 1000] {
        for ttl_ms in [0u64, 100, 1000, 10_000] {
            let cell = run(clients, ttl_ms);
            let Cell {
                mean_latency,
                execs_per_sec,
                mean_age,
                ..
            } = cell;
            let baseline = cells
                .iter()
                .find(|c: &&Cell| c.clients == clients && c.ttl_ms == 0)
                .map_or(mean_latency, |c| c.mean_latency);
            let speedup = fmt_ratio(baseline / mean_latency.max(1e-12));
            cells.push(cell);
            rows.push(row![
                clients,
                if ttl_ms == 0 {
                    "0 (no cache)".to_string()
                } else {
                    format!("{ttl_ms}")
                },
                fmt_secs(mean_latency),
                format!("{execs_per_sec:.1}"),
                fmt_secs(mean_age),
                speedup
            ]);
        }
    }
    table(
        "clients|TTL(ms)|mean-latency|backend-execs/s|mean-staleness|latency-win",
        &rows,
    );

    // With TTL 0 every query executes: N queries a second, each followed
    // by its 1/N s gap, so the rate is 1/(gap + cost) — linear in N while
    // the gap dominates, then the provider runs back to back at 1/cost.
    let ttl0: Vec<&Cell> = cells.iter().filter(|c| c.ttl_ms == 0).collect();
    let rates: Vec<f64> = ttl0.iter().map(|c| c.execs_per_sec).collect();
    report.claim(
        "ttl0_load_grows_until_back_to_back",
        "without the cache (TTL 0) backend load grows with clients until the provider \
         runs back to back: executions/s = 1/(gap + cost), below 1/cost",
        rates.windows(2).all(|p| p[1] > p[0])
            && ttl0.iter().all(|c| {
                let model = 1.0 / (1.0 / c.clients as f64 + c.mean_cost);
                (c.execs_per_sec - model).abs() <= 1e-9 * model
                    && c.execs_per_sec * c.mean_cost < 1.0
            }),
        format!(
            "{rates:.1?}/s at 1, 10, 100, 1000 clients; 1/cost {:.1}/s",
            1.0 / ttl0[3].mean_cost
        ),
    );
    // At 1000 clients: TTL 100 ms, 1 s and 10 s.
    let busy = &cells[13..];
    report.claim(
        "ttl_caps_load",
        "with a TTL, backend load is capped at 1/TTL regardless of N",
        cells
            .iter()
            .all(|c| c.ttl_ms == 0 || c.execs_per_sec <= 1e3 / c.ttl_ms as f64 + 1.0 / 30.0),
        format!(
            "{:.2?}/s at TTL 0.1, 1, 10 s (1000 clients)",
            busy.iter().map(|c| c.execs_per_sec).collect::<Vec<_>>()
        ),
    );
    report.claim(
        "staleness_bounded_by_ttl",
        "the price is staleness: the mean age served is at most the TTL",
        cells.iter().all(|c| c.mean_age <= c.ttl_ms as f64 / 1e3),
        format!(
            "{:.4?} s at TTL 0.1, 1, 10 s (1000 clients)",
            busy.iter().map(|c| c.mean_age).collect::<Vec<_>>()
        ),
    );
    let (no_cache, one_sec) = (cells[12].mean_latency, cells[14].mean_latency);
    report.claim(
        "cache_serves_orders_faster",
        "with many clients a cached value serves queries orders of magnitude faster",
        no_cache >= 100.0 * one_sec,
        format!(
            "1000 clients: {} at TTL 0, {} at TTL 1 s",
            fmt_secs(no_cache),
            fmt_secs(one_sec)
        ),
    );
    report.finish();
}
