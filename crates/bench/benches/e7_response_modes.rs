//! E7 — the three xRSL response modes (§6.6): `immediate` / `cached` /
//! `last`.
//!
//! A fixed 1 s TTL, queries every 250 ms of virtual time for 60 s per
//! mode. The semantics the paper defines translate into measurable
//! positions on the latency/freshness plane: `last` is cheapest and
//! stalest, `immediate` freshest and dearest, `cached` in between.

use infogram_bench::{banner, fmt_secs, manual_world_with_config, table};
use infogram_info::config::ServiceConfig;
use infogram_info::service::QueryOptions;
use infogram_rsl::{InfoSelector, ResponseMode};
use infogram_sim::Clock;
use std::time::Duration;

fn run(mode: ResponseMode) -> (f64, u64, f64) {
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
    let queries = 240u64; // 60 s at 4 Hz
    for _ in 0..queries {
        let t0 = w.clock.now();
        let records = w.info.answer(&sel, &opts).expect("query");
        latency_sum += w.clock.now().since(t0).as_secs_f64();
        age_sum += records[0].attributes[0].age_secs.unwrap_or(0.0);
        w.clock.advance(Duration::from_millis(250));
    }
    let execs = w.info.lookup("CPULoad").unwrap().execution_count() - primed;
    (
        latency_sum / queries as f64,
        execs,
        age_sum / queries as f64,
    )
}

fn main() {
    banner(
        "E7",
        "response modes: immediate / cached / last (§6.6)",
        "latency: last < cached < immediate; freshness the reverse; cached \
         refreshes exactly once per TTL window",
    );

    let mut rows = Vec::new();
    for (label, mode) in [
        ("immediate", ResponseMode::Immediate),
        ("cached", ResponseMode::Cached),
        ("last", ResponseMode::Last),
    ] {
        let (latency, execs, age) = run(mode);
        rows.push(vec![
            label.to_string(),
            fmt_secs(latency),
            execs.to_string(),
            fmt_secs(age),
        ]);
    }
    table(
        &["response=", "mean-latency", "execs/240q", "mean-age"],
        &rows,
    );
    println!(
        "\nreading: `immediate` executes the provider on all 240 queries; `cached`\n\
         on ~60 (once per 1 s TTL at 4 Hz); `last` never — its served copy just ages.\n\
         That is precisely the §6.6 semantics, now with numbers attached."
    );
}
