//! Shared harness for the experiment benchmarks.
//!
//! Every `benches/*.rs` target but `micro` regenerates one of the
//! paper's artifacts (Table 1, Figures 1 and 4) or one claim-driven
//! experiment (E5–E20); the mapping is in DESIGN.md and the measured
//! results in EXPERIMENTS.md. Each prints its tables, then checks its
//! named claims through one [`Report`], which writes
//! `target/bench/<bench>.json` and fails the run unless every gated
//! claim holds.

pub mod mixed;

use infogram_host::commands::{ChargeMode, CommandRegistry};
use infogram_host::machine::{HostConfig, SimulatedHost};
use infogram_info::config::ServiceConfig;
use infogram_info::service::InformationService;
use infogram_obs::MetricSet;
use infogram_sim::ManualClock;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Whether `BENCH_QUICK=1` asks for a bench's smaller smoke run. Only
/// the benches too slow to run in full on every gate read it.
pub fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// One named claim and what was measured for it.
struct Claim {
    name: &'static str,
    text: &'static str,
    gated: bool,
    holds: bool,
    measured: String,
}

/// One experiment's verdicts. [`Report::start`] prints the banner; each
/// claim is recorded as holding or not; [`Report::finish`] prints them,
/// writes `target/bench/<bench>.json` under the workspace root and exits
/// non-zero unless every gated claim holds (`pass` is their
/// conjunction).
pub struct Report {
    bench: &'static str,
    claims: Vec<Claim>,
    figures: Vec<(String, f64)>,
}

impl Report {
    /// Print the banner of experiment `id` and start its report; `bench`
    /// is the bench target's name (`env!("CARGO_CRATE_NAME")`).
    pub fn start(bench: &'static str, id: &str, title: &str) -> Report {
        let rule = "=".repeat(64);
        println!("\n{rule}\n{id}: {title}\n{rule}");
        Report {
            bench,
            claims: Vec::new(),
            figures: Vec::new(),
        }
    }

    /// A claim measured on virtual time or by counting: gated exactly.
    pub fn claim(&mut self, name: &'static str, text: &'static str, holds: bool, measured: String) {
        let gated = true;
        self.claims.push(Claim {
            name,
            text,
            gated,
            holds,
            measured,
        });
    }

    /// A claim printed and recorded as `reported`, never gated: one
    /// measured on the wall clock, or counted over work whose amount
    /// the wall clock sets (a job's status polls), because a shared
    /// host's scheduling noise is as large as the effect.
    pub fn reported(
        &mut self,
        name: &'static str,
        text: &'static str,
        holds: bool,
        measured: String,
    ) {
        let gated = false;
        self.claims.push(Claim {
            name,
            text,
            gated,
            holds,
            measured,
        });
    }

    /// A figure recorded in the JSON beside the claims.
    pub fn figure(&mut self, name: &str, value: f64) {
        self.figures.push((name.to_string(), value));
    }

    /// Whether every gated claim holds.
    fn pass(&self) -> bool {
        self.claims.iter().all(|c| c.holds || !c.gated)
    }

    /// The report as JSON: the claims, the figures and `pass`.
    fn json(&self) -> String {
        let mut json = format!(
            "{{\n  \"bench\": \"{}\",\n  \"quick\": {},\n  \"claims\": [",
            self.bench,
            quick()
        );
        for (i, c) in self.claims.iter().enumerate() {
            let _ = write!(
                json,
                "{}\n    {{\"name\": \"{}\", \"kind\": \"{}\", \"holds\": {}, \"measured\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                c.name,
                if c.gated { "gated" } else { "reported" },
                c.holds,
                c.measured.replace('\\', "\\\\").replace('"', "\\\""),
            );
        }
        json.push_str("\n  ],\n  \"figures\": {");
        for (i, (name, value)) in self.figures.iter().enumerate() {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                json,
                "{}\n    \"{name}\": {value}",
                if i == 0 { "" } else { "," }
            );
        }
        let _ = write!(json, "\n  }},\n  \"pass\": {}\n}}\n", self.pass());
        json
    }

    /// Print the verdicts, write the JSON, and exit with status 1 unless
    /// every gated claim holds.
    pub fn finish(self) {
        println!("\nclaims:");
        for c in &self.claims {
            let verdict = match (c.gated, c.holds) {
                (true, true) => "holds",
                (true, false) => "DOES NOT HOLD",
                (false, true) => "reported, holds (not gated)",
                (false, false) => "reported, does not hold (not gated)",
            };
            println!("  {}: {}\n    {verdict}: {}", c.name, c.text, c.measured);
        }
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench");
        let file = format!("{}.json", self.bench);
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join(&file), self.json()))
            .expect("write the bench report");
        println!("pass={} (target/bench/{file})", self.pass());
        if !self.pass() {
            std::process::exit(1);
        }
    }
}

/// A table row: each cell displayed.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($cell.to_string()),*]
    };
}

/// Display an iterator's items joined by ", ": a claim's measured values.
pub trait Joined {
    /// The items, displayed and joined by ", ".
    fn joined(self) -> String;
}

impl<I: Iterator<Item = T>, T: std::fmt::Display> Joined for I {
    fn joined(self) -> String {
        self.map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
    }
}

/// Print an aligned table: a header row (column names separated by `|`)
/// then data rows. Column widths are fitted to the content.
pub fn table(header: &str, rows: &[Vec<String>]) {
    let header: Vec<&str> = header.split('|').collect();
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// A deterministic single-host world on a manual clock: the substrate of
/// the cache/degradation/monitor experiments.
pub struct ManualWorld {
    /// The virtual clock — advance it to make time pass.
    pub clock: Arc<ManualClock>,
    /// The simulated host.
    pub host: Arc<SimulatedHost>,
    /// Command registry whose costs advance the manual clock.
    pub registry: Arc<CommandRegistry>,
    /// Information service configured with Table 1.
    pub info: Arc<InformationService>,
}

/// Build a deterministic world. Command execution costs advance the
/// virtual clock, so "how long things take" is exact and replayable.
pub fn manual_world(seed: u64) -> ManualWorld {
    manual_world_with_config(seed, &ServiceConfig::table1())
}

/// Build a deterministic world with a custom keyword configuration.
pub fn manual_world_with_config(seed: u64, config: &ServiceConfig) -> ManualWorld {
    let clock = ManualClock::new();
    let host = SimulatedHost::new(
        HostConfig {
            seed,
            ..Default::default()
        },
        clock.clone(),
    );
    let registry = CommandRegistry::new(Arc::clone(&host), ChargeMode::Advance(clock.clone()));
    let info = InformationService::from_config(
        config,
        Arc::clone(&registry),
        clock.clone(),
        MetricSet::new(),
    );
    ManualWorld {
        clock,
        host,
        registry,
        info,
    }
}

/// Format seconds as adaptive human units.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

/// Mean and percentiles of a batch of latencies, in seconds: the rows
/// of the Figure 1–4 tables.
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarize durations; the input order is irrelevant.
    pub fn from_durations(ds: &[Duration]) -> Self {
        let mut sorted: Vec<f64> = ds.iter().map(Duration::as_secs_f64).collect();
        sorted.sort_by(f64::total_cmp);
        Summary { sorted }
    }

    /// Mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len().max(1) as f64
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`), interpolated linearly between
    /// the nearest ranks. Returns 0 for an empty summary.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (self.sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Format a ratio as `x.yz×`.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_world_builds() {
        let w = manual_world(1);
        assert_eq!(w.info.keywords().len(), 5);
        assert_eq!(w.host.hostname(), "node00.grid.example.org");
    }

    #[test]
    fn summary_quantiles() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = Summary::from_durations(&ms);
        assert!((s.mean() - 0.0505).abs() < 1e-12);
        assert!((s.median() - 0.0505).abs() < 1e-12);
        assert!((s.quantile(0.0) - 0.001).abs() < 1e-12);
        assert!((s.quantile(1.0) - 0.100).abs() < 1e-12);
        assert!((s.quantile(0.95) - 0.09505).abs() < 1e-9);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::from_durations(&[]);
        assert_eq!((s.mean(), s.median()), (0.0, 0.0));
    }

    #[test]
    fn only_a_gated_claim_that_does_not_hold_fails_the_report() {
        let mut r = Report::start("unit", "U", "report");
        r.reported("slow", "a wall-clock claim", false, "1 ms".to_string());
        r.claim("counted", "a count", true, "say \"3\"".to_string());
        assert!(r.pass());
        assert!(r.json().contains(r#""kind": "reported", "holds": false"#));
        assert!(r.json().contains(r#""measured": "say \"3\"""#));
        r.claim("broken", "a count", false, String::new());
        assert!(!r.pass());
        assert!(r.json().ends_with("\"pass\": false\n}\n"));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(2.5), "2.500s");
        assert_eq!(fmt_secs(0.0025), "2.500ms");
        assert_eq!(fmt_secs(0.0000025), "2.5µs");
        assert_eq!(fmt_ratio(1.23456), "1.23x");
    }
}
