//! Fixed-bucket latency histograms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ buckets. Bucket `i` covers `[2^i, 2^(i+1))` microseconds,
/// so 40 buckets span 1 µs to ~6.4 days — every latency this system can
/// plausibly produce.
pub const BUCKETS: usize = 40;

/// A lock-free latency histogram with fixed logarithmic buckets.
///
/// Recording is two relaxed atomic adds; there is no allocation and no
/// locking, so it is safe to use on the per-request hot path. Quantiles
/// are estimates: the reported value is the geometric midpoint of the
/// bucket containing the requested rank, i.e. accurate to within a factor
/// of √2 — plenty for spotting which layer a latency regression lives in.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    total: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [(); BUCKETS].map(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a duration: `floor(log2(µs))`, clamped to the table.
fn bucket_index(us: u64) -> usize {
    let us = us.max(1);
    ((63 - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        self.counts[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Record an observation given in seconds.
    pub fn record_secs(&self, secs: f64) {
        self.record(Duration::from_secs_f64(secs.max(0.0)));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean latency in seconds (0 if empty).
    pub fn mean_secs(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64 / 1e6
        }
    }

    /// Estimated `q`-quantile in seconds (0 if empty). The estimate is the
    /// geometric midpoint of the bucket holding the requested rank.
    pub fn quantile_secs(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * (total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen > rank {
                // Geometric midpoint of [2^i, 2^(i+1)) µs.
                return (1u64 << i) as f64 * std::f64::consts::SQRT_2 / 1e6;
            }
        }
        (1u64 << (BUCKETS - 1)) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0); // clamped up to 1 µs
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn mean_tracks_observations() {
        let h = Histogram::new();
        h.record(Duration::from_millis(10));
        h.record(Duration::from_millis(30));
        assert_eq!(h.count(), 2);
        assert!((h.mean_secs() - 0.020).abs() < 1e-9);
    }

    #[test]
    fn quantile_lands_in_right_bucket() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(100)); // bucket [64, 128)
        }
        h.record(Duration::from_millis(500)); // far-right outlier
        let p50 = h.quantile_secs(0.5);
        assert!((6.4e-5..1.28e-4).contains(&p50), "p50 was {p50}");
        let p100 = h.quantile_secs(1.0);
        assert!(p100 > 0.2e-3, "p100 was {p100}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_secs(), 0.0);
        assert_eq!(h.quantile_secs(0.99), 0.0);
    }

    #[test]
    fn concurrent_records() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(Duration::from_micros(i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        let bucketed: u64 = h.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(bucketed, 4000);
    }
}
