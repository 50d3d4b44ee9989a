//! Shared harness for the experiment benchmarks.
//!
//! Every `benches/*.rs` target regenerates one of the paper's artifacts
//! (Table 1, Figures 1–4) or one claim-driven experiment (E5–E15); the
//! mapping is in DESIGN.md and the measured results in EXPERIMENTS.md.
//! Each prints a self-contained text table plus the paper's expected
//! shape, so `cargo bench` output can be compared row-by-row against
//! EXPERIMENTS.md.

pub mod mixed;

use infogram_host::commands::{ChargeMode, CommandRegistry};
use infogram_host::machine::{HostConfig, SimulatedHost};
use infogram_info::config::ServiceConfig;
use infogram_info::service::InformationService;
use infogram_obs::MetricSet;
use infogram_sim::ManualClock;
use std::sync::Arc;
use std::time::Duration;

/// Print an experiment banner.
pub fn banner(id: &str, title: &str, expectation: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {title}");
    println!("expected shape: {expectation}");
    println!("================================================================");
}

/// Print an aligned table: a header row then data rows. Column widths are
/// fitted to the content.
pub fn table(header: &[&str], rows: &[Vec<String>]) {
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
    fn formatting() {
        assert_eq!(fmt_secs(2.5), "2.500s");
        assert_eq!(fmt_secs(0.0025), "2.500ms");
        assert_eq!(fmt_secs(0.0000025), "2.5µs");
        assert_eq!(fmt_ratio(1.23456), "1.23x");
    }
}
