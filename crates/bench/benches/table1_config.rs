//! Table 1 reproduction: the configuration file maps keywords to
//! commands with per-keyword TTLs. We load the *literal* Table 1 rows,
//! fire a fixed query schedule at every keyword, and report how the TTL
//! governs the cache behaviour — including the special `0` row
//! ("0 specifies execution of the keyword every time it is requested").
//! Virtual time makes every count exact, so every claim is gated.

use infogram_bench::{fmt_secs, manual_world, row, table, Joined, Report};
use infogram_info::service::QueryOptions;
use infogram_rsl::InfoSelector;
use infogram_sim::Clock;
use std::time::Duration;

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "T1",
        "Table 1 — keyword ↔ provider mapping under a fixed query schedule",
    );

    // 200 queries, one every 10 ms of virtual time.
    const QUERIES: u64 = 200;
    const GAP_MS: u64 = 10;

    let mut rows = Vec::new();
    // (TTL, executions, virtual seconds elapsed) per row.
    let mut runs = Vec::new();
    for (ttl_ms, keyword, command) in [
        (60u64, "Date", "date -u"),
        (80, "Memory", "/sbin/sysinfo.exe -mem"),
        (100, "CPU", "/sbin/sysinfo.exe -cpu"),
        (0, "CPULoad", "/usr/local/bin/cpuload.exe"),
        (1000, "list", "/bin/ls /home/gregor"),
    ] {
        // Fresh world per keyword so command costs do not interact.
        let w = manual_world(42);
        let si = w.info.lookup(keyword).expect("table1 keyword");
        assert_eq!(si.ttl(), Duration::from_millis(ttl_ms));
        let opts = QueryOptions::default();
        let start = w.clock.now();
        for _ in 0..QUERIES {
            w.info
                .answer(&[InfoSelector::Keyword(keyword.to_string())], &opts)
                .expect("query");
            w.clock.advance(Duration::from_millis(GAP_MS));
        }
        let executions = si.execution_count();
        runs.push((ttl_ms, executions, w.clock.now().since(start).as_secs_f64()));
        let hits = QUERIES - executions;
        let (mean, _std, _n) = si.average_update_time();
        rows.push(row![
            ttl_ms,
            keyword,
            command,
            QUERIES,
            executions,
            format!("{:.1}%", 100.0 * hits as f64 / QUERIES as f64),
            fmt_secs(mean)
        ]);
    }

    table(
        "TTL(ms)|Keyword|Command|queries|execs|hit-ratio|mean-cost",
        &rows,
    );

    runs.sort_by_key(|&(ttl, _, _)| ttl);
    let execs: Vec<String> = runs.iter().map(|(t, e, _)| format!("{e}@{t}ms")).collect();
    report.claim(
        "hit_ratio_grows_with_ttl",
        "hit ratio grows with TTL: executions fall strictly as the TTL rises",
        runs.windows(2).all(|p| p[1].1 < p[0].1),
        format!("executions {}", execs.join(", ")),
    );
    report.claim(
        "ttl0_never_cached",
        "the TTL=0 CPULoad row executes on every query, never serving from cache",
        runs[0] == (0, QUERIES, runs[0].2),
        format!("{} executions for {QUERIES} queries", runs[0].1),
    );
    report.claim(
        "one_execution_per_ttl",
        "a keyword with TTL T executes at most once per T of elapsed time, plus the first",
        runs[1..]
            .iter()
            .all(|&(ttl, e, secs)| e as f64 <= secs * 1e3 / ttl as f64 + 1.0),
        runs[1..]
            .iter()
            .map(|&(t, e, secs)| format!("{e} <= {:.1}", secs * 1e3 / t as f64 + 1.0))
            .joined(),
    );
    report.finish();
}
