//! E6 — information degradation and the quality threshold (§5.2, §6.4,
//! §6.6).
//!
//! The CPULoad value drifts (AR(1) process), so a cached copy loses
//! accuracy with age. We attach degradation functions, sweep the xRSL
//! `quality` threshold, and measure the trade-off the paper predicts:
//! higher thresholds buy lower true-value error at the cost of more
//! refreshes. A second table compares degradation *shapes* at one
//! threshold.
//!
//! One seed's 120 queries see about twelve independent stretches of the
//! load, so every row averages the fixed seeds [`SEEDS`], and the load
//! process runs [`WARM_UP`] before the first query: it starts at its
//! mean, and a cache that never refreshes would otherwise serve the
//! long-run mean, the best constant guess, for the whole window. The
//! measured error is checked against what the AR(1) model expects at the
//! ages actually served.

use infogram_bench::{manual_world_with_config, row, table, Joined, Report};
use infogram_host::cpu::{PHI, SIGMA};
use infogram_info::config::ServiceConfig;
use infogram_info::entry::SystemInformation;
use infogram_info::provider::RuntimeProvider;
use infogram_info::quality::DegradationFn;
use infogram_info::service::QueryOptions;
use infogram_rsl::InfoSelector;
use std::sync::Arc;
use std::time::Duration;

/// The world seeds every row averages.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=64;

/// Load-process time before the first query: ten correlation times.
const WARM_UP: Duration = Duration::from_secs(100);

const QUERIES: u64 = 120;

/// One row, over every seed.
struct Outcome {
    refreshes: Vec<u64>,
    mean_quality: f64,
    /// Each seed's mean |served − true| load.
    errors: Vec<f64>,
    /// The AR(1) model's expected mean |error| at the ages served.
    expected_error: f64,
}

impl Outcome {
    fn mean_error(&self) -> f64 {
        self.errors.iter().sum::<f64>() / self.errors.len() as f64
    }

    /// Standard error of [`Outcome::mean_error`] across the seeds.
    fn standard_error(&self) -> f64 {
        let (n, mean) = (self.errors.len() as f64, self.mean_error());
        let var = self.errors.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (var / n).sqrt()
    }
}

/// Expected |x(t) − x(t − age)| of the stationary AR(1) load: a normal
/// difference with variance 2σ²(1 − (1 − φ)^age), σ² = SIGMA²/(1 − (1 − φ)²).
fn expected_abs_error(age_steps: f64) -> f64 {
    let keep = 1.0 - PHI;
    let stationary_var = SIGMA * SIGMA / (1.0 - keep * keep);
    let var = 2.0 * stationary_var * (1.0 - keep.powf(age_steps));
    (2.0 * var / std::f64::consts::PI).sqrt()
}

/// Query the drifting load once per second for 120 s (virtual) under a
/// degradation function and quality threshold, once per seed.
fn run(degradation: &DegradationFn, threshold: Option<f64>) -> Outcome {
    let mut out = Outcome {
        refreshes: Vec::new(),
        mean_quality: 0.0,
        errors: Vec::new(),
        expected_error: 0.0,
    };
    for seed in SEEDS {
        // A long TTL so the *quality* machinery, not TTL expiry, drives
        // refreshes.
        let config = ServiceConfig::parse("600000 Unused true\n").expect("config");
        let w = manual_world_with_config(seed, &config);
        w.clock.advance(WARM_UP);
        let si = SystemInformation::new(
            Box::new(RuntimeProvider::new("CPULoad", Arc::clone(&w.host))),
            w.clock.clone(),
            Duration::from_secs(600),
            degradation.clone(),
        );
        w.info.register(Arc::clone(&si));

        let sel = [InfoSelector::Keyword("CPULoad".to_string())];
        let opts = QueryOptions {
            quality_threshold: threshold,
            ..Default::default()
        };
        let mut err_sum = 0.0;
        for _ in 0..QUERIES {
            let records = w.info.answer(&sel, &opts).expect("query");
            let served: f64 = records[0]
                .get("load")
                .expect("load attr")
                .value
                .parse()
                .expect("parses");
            let truth = w.host.cpu.current();
            let attr = &records[0].attributes[0];
            out.mean_quality += attr.quality.unwrap_or(0.0);
            out.expected_error += expected_abs_error(attr.age_secs.unwrap_or(0.0).round());
            err_sum += (served - truth).abs();
            w.clock.advance(Duration::from_secs(1));
        }
        out.refreshes.push(si.execution_count());
        out.errors.push(err_sum / QUERIES as f64);
    }
    let samples = (out.errors.len() as u64 * QUERIES) as f64;
    out.mean_quality /= samples;
    out.expected_error /= samples;
    out
}

/// Print one table: a row per outcome, headed by its label.
fn print_rows(first_column: &str, label: &[String], outcomes: &[Outcome]) {
    let rows: Vec<Vec<String>> = (label.iter().zip(outcomes))
        .map(|(label, out)| {
            row![
                label.clone(),
                out.refreshes[0],
                format!("{:.3}", out.mean_quality),
                format!("{:.4} ± {:.4}", out.mean_error(), out.standard_error()),
                format!("{:.4}", out.expected_error)
            ]
        })
        .collect();
    let header = "refreshes/120q|mean-served-quality|mean-abs-error ± s.e.|AR(1) expects";
    table(&format!("{first_column}|{header}"), &rows);
}

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E6",
        "information degradation + quality threshold (§5.2/§6.4/§6.6)",
    );

    println!(
        "\n-- threshold sweep (linear degradation, 60 s lifetime), seeds {}–{} --",
        SEEDS.start(),
        SEEDS.end()
    );
    let thresholds = [
        None,
        Some(10.0),
        Some(25.0),
        Some(50.0),
        Some(75.0),
        Some(90.0),
    ];
    let linear = DegradationFn::Linear {
        lifetime: Duration::from_secs(60),
    };
    let sweep: Vec<Outcome> = thresholds.iter().map(|&t| run(&linear, t)).collect();
    let labels: Vec<String> = thresholds
        .iter()
        .map(|t| t.map_or("(none)".to_string(), |t| format!("{t:.0}%")))
        .collect();
    print_rows("quality-threshold", &labels, &sweep);

    println!("\n-- degradation shapes at threshold 50% --");
    let shapes = [
        (
            "binary(60s)",
            DegradationFn::Binary {
                lifetime: Duration::from_secs(60),
            },
        ),
        ("linear(60s)", linear.clone()),
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
    ];
    let by_shape: Vec<Outcome> = shapes.iter().map(|(_, d)| run(d, Some(50.0))).collect();
    let labels: Vec<String> = shapes.iter().map(|(n, _)| n.to_string()).collect();
    print_rows("degradation", &labels, &by_shape);

    let refreshes: Vec<String> = sweep.iter().map(|o| o.refreshes[0].to_string()).collect();
    report.claim(
        "refreshes_rise_with_threshold",
        "refresh count rises monotonically with the quality threshold, for every seed",
        sweep
            .iter()
            .all(|o| o.refreshes.iter().all(|&r| r == o.refreshes[0]))
            && sweep
                .windows(2)
                .all(|p| p[1].refreshes[0] >= p[0].refreshes[0])
            && sweep[5].refreshes[0] > sweep[0].refreshes[0],
        format!("refreshes {}", refreshes.join(" / ")),
    );
    report.claim(
        "accuracy_rises_with_threshold",
        "accuracy rises monotonically with the threshold: the AR(1) model's expected \
         error at the ages served falls at every step, and the mean over the seeds is \
         within 3 standard errors of it at every threshold",
        sweep
            .windows(2)
            .all(|p| p[1].expected_error < p[0].expected_error)
            && sweep
                .iter()
                .all(|o| (o.mean_error() - o.expected_error).abs() <= 3.0 * o.standard_error()),
        sweep
            .iter()
            .map(|o| format!("{:.3} (expects {:.3})", o.mean_error(), o.expected_error))
            .joined(),
    );
    let quality = |i: usize| by_shape[i].mean_quality;
    report.claim(
        "binary_all_or_nothing",
        "binary degradation is all-or-nothing (every served value at quality 1); \
         linear and exponential trade smoothly (mean served quality between the \
         threshold and 1)",
        quality(0) == 1.0 && [1, 2].iter().all(|&i| quality(i) > 0.5 && quality(i) < 1.0),
        format!(
            "mean served quality: binary {:.3}, linear {:.3}, exponential {:.3}",
            quality(0),
            quality(1),
            quality(2)
        ),
    );
    report.finish();
}
