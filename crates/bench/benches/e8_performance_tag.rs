//! E8 — the xRSL `performance` tag (§6.6): "The performance tag returns
//! the number of seconds and the standard deviation about how long it
//! takes to obtain a particular information value. The performance of a
//! command and its attributed values is measured and catalogued during
//! runtime."
//!
//! We give commands known cost distributions, drive many refreshes, and
//! compare the catalog's reported (mean, σ) with the costs actually drawn
//! — each one the virtual time its query took — and those with the
//! configured model. The rows share one seed, so their normal draws are
//! one sample scaled: their relative errors agree.

use infogram_bench::{fmt_secs, manual_world_with_config, row, table, Joined, Report};
use infogram_host::commands::CostModel;
use infogram_info::config::ServiceConfig;
use infogram_info::service::QueryOptions;
use infogram_obs::Welford;
use infogram_rsl::{InfoSelector, ResponseMode};
use infogram_sim::Clock;
use std::time::Duration;

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E8",
        "performance tag accuracy (§6.6)",
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
    let (mut catalogued, mut within) = (Vec::new(), Vec::new());
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
        let mut drawn = Welford::new();
        for _ in 0..SAMPLES {
            let t0 = w.clock.now();
            let records = w.info.answer(&sel, &opts).expect("query");
            drawn.record_duration(w.clock.now().since(t0));
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
        // The catalogue holds the drawn costs to 1e-9 s; the tag renders
        // it to the microsecond.
        let (cat_mean, cat_std, cat_n) =
            w.info.lookup("Probe").expect("probe").average_update_time();
        catalogued.push(
            cat_n == SAMPLES
                && (cat_mean - drawn.mean()).abs() <= 1e-9
                && (cat_std - drawn.std_dev()).abs() <= 1e-9
                && (mean - cat_mean).abs() <= 5e-7
                && (std - cat_std).abs() <= 5e-7,
        );
        // Standard errors of a sample's mean and σ under the model.
        let n = SAMPLES as f64;
        let (se_mean, se_std) = (true_std / n.sqrt(), true_std / (2.0 * (n - 1.0)).sqrt());
        within.push((
            label,
            (drawn.mean() - true_mean).abs() <= 3.0 * se_mean
                && (drawn.std_dev() - true_std).abs() <= 3.0 * se_std,
            (drawn.mean() - true_mean) / se_mean.max(f64::MIN_POSITIVE),
            (drawn.std_dev() - true_std) / se_std.max(f64::MIN_POSITIVE),
        ));
        rows.push(row![
            label,
            fmt_secs(true_mean),
            fmt_secs(mean),
            format!("{:+.1}%", 100.0 * (mean - true_mean) / true_mean),
            fmt_secs(true_std),
            fmt_secs(std)
        ]);
    }
    table(
        "cost model|true-mean|reported-mean|mean-err|true-sd|reported-sd",
        &rows,
    );

    report.claim(
        "catalogue_equals_drawn_costs",
        "the catalogued mean and stddev equal those of the costs actually drawn (to \
         1e-9 s), and the tag reports them to the microsecond",
        catalogued.iter().all(|&ok| ok),
        format!(
            "{} of {} cost models",
            catalogued.iter().filter(|&&ok| ok).count(),
            catalogued.len()
        ),
    );
    report.claim(
        "drawn_costs_match_the_model",
        "the drawn costs' mean and stddev lie within 3 standard errors of the configured model",
        within.iter().all(|(_, ok, _, _)| *ok),
        within
            .iter()
            .skip(1)
            .map(|(label, _, zm, zs)| format!("{label}: mean {zm:+.2}, stddev {zs:+.2} s.e."))
            .joined(),
    );
    report.finish();
}
