//! E6 — information degradation and the quality threshold (§5.2, §6.4,
//! §6.6).
//!
//! The CPULoad value drifts (AR(1) process), so a cached copy loses
//! accuracy with age. We attach degradation functions, sweep the xRSL
//! `quality` threshold, and measure the trade-off the paper predicts:
//! higher thresholds buy lower true-value error at the cost of more
//! refreshes. A second table compares degradation *shapes* at one
//! threshold.

use infogram_bench::{banner, fmt_secs, manual_world_with_config, table};
use infogram_info::config::ServiceConfig;
use infogram_info::entry::SystemInformation;
use infogram_info::provider::RuntimeProvider;
use infogram_info::quality::DegradationFn;
use infogram_info::service::QueryOptions;
use infogram_rsl::InfoSelector;
use std::sync::Arc;
use std::time::Duration;

struct Outcome {
    refreshes: u64,
    mean_quality: f64,
    mean_abs_error: f64,
}

/// Query the drifting load once per second for 120 s (virtual) under a
/// degradation function and quality threshold.
fn run(degradation: DegradationFn, threshold: Option<f64>) -> Outcome {
    // A long TTL so the *quality* machinery, not TTL expiry, drives
    // refreshes.
    let config = ServiceConfig::parse("600000 Unused true\n").expect("config");
    let w = manual_world_with_config(99, &config);
    let si = SystemInformation::new(
        Box::new(RuntimeProvider::new("CPULoad", Arc::clone(&w.host))),
        w.clock.clone(),
        Duration::from_secs(600),
        degradation,
    );
    w.info.register(Arc::clone(&si));

    let sel = [InfoSelector::Keyword("CPULoad".to_string())];
    let opts = QueryOptions {
        quality_threshold: threshold,
        ..Default::default()
    };
    let mut quality_sum = 0.0;
    let mut err_sum = 0.0;
    let queries = 120u64;
    for _ in 0..queries {
        let records = w.info.answer(&sel, &opts).expect("query");
        let served: f64 = records[0]
            .get("load")
            .expect("load attr")
            .value
            .parse()
            .expect("parses");
        let truth = w.host.cpu.current();
        quality_sum += records[0].attributes[0].quality.unwrap_or(0.0);
        err_sum += (served - truth).abs();
        w.clock.advance(Duration::from_secs(1));
    }
    Outcome {
        refreshes: si.execution_count(),
        mean_quality: quality_sum / queries as f64,
        mean_abs_error: err_sum / queries as f64,
    }
}

fn main() {
    banner(
        "E6",
        "information degradation + quality threshold (§5.2/§6.4/§6.6)",
        "refresh rate and accuracy both rise monotonically with the quality \
         threshold; binary degradation is all-or-nothing, linear/exponential trade smoothly",
    );

    println!("\n-- threshold sweep (linear degradation, 60 s lifetime) --");
    let mut rows = Vec::new();
    for threshold in [
        None,
        Some(10.0),
        Some(25.0),
        Some(50.0),
        Some(75.0),
        Some(90.0),
    ] {
        let out = run(
            DegradationFn::Linear {
                lifetime: Duration::from_secs(60),
            },
            threshold,
        );
        rows.push(vec![
            threshold
                .map(|t| format!("{t:.0}%"))
                .unwrap_or_else(|| "(none)".to_string()),
            out.refreshes.to_string(),
            format!("{:.3}", out.mean_quality),
            format!("{:.4}", out.mean_abs_error),
        ]);
    }
    table(
        &[
            "quality-threshold",
            "refreshes/120q",
            "mean-served-quality",
            "mean-|error|",
        ],
        &rows,
    );

    println!("\n-- degradation shapes at threshold 50% --");
    let mut rows = Vec::new();
    for (name, d) in [
        (
            "binary(60s)",
            DegradationFn::Binary {
                lifetime: Duration::from_secs(60),
            },
        ),
        (
            "linear(60s)",
            DegradationFn::Linear {
                lifetime: Duration::from_secs(60),
            },
        ),
        (
            "exponential(30s)",
            DegradationFn::Exponential {
                half_life: Duration::from_secs(30),
            },
        ),
        (
            "step(20s:0.7,40s:0.3)",
            DegradationFn::Step {
                steps: vec![
                    (Duration::from_secs(20), 0.7),
                    (Duration::from_secs(40), 0.3),
                ],
            },
        ),
    ] {
        let out = run(d, Some(50.0));
        rows.push(vec![
            name.to_string(),
            out.refreshes.to_string(),
            format!("{:.3}", out.mean_quality),
            format!("{:.4}", out.mean_abs_error),
        ]);
    }
    table(
        &[
            "degradation",
            "refreshes/120q",
            "mean-served-quality",
            "mean-|error|",
        ],
        &rows,
    );
    println!(
        "\nreading: with no threshold the 10-minute TTL alone serves a {}-old value at\n\
         the end of the window; quality-driven refresh keeps the served copy close to\n\
         the drifting truth, paying one provider execution per quality expiry.",
        fmt_secs(120.0)
    );
}
