//! Scalar instruments: counters, gauges, and count + mean recorders.

use crate::stats::Welford;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level that can move in both directions — queue depths,
/// remaining TTL seconds, open connections.
///
/// Stored as `f64` bits in an atomic, so readers never block writers.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative) to the current value.
    pub fn add(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A streaming count + mean of samples (seconds) in constant memory, so
/// a running service can record into it forever. For percentiles use
/// [`crate::Histogram`] (bucketed, lock-free) or, offline,
/// [`crate::Summary::from_samples`].
#[derive(Debug, Default)]
pub struct Recorder(Mutex<Welford>);

impl Recorder {
    /// Record one sample, in seconds.
    pub fn record(&self, secs: f64) {
        self.0.lock().record(secs);
    }

    /// Record a duration.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.lock().count()
    }

    /// Mean of the samples recorded.
    pub fn mean(&self) -> f64 {
        self.0.lock().mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        g.add(1.0);
        g.add(-0.5);
        assert!((g.get() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gauge_concurrent_adds() {
        let g = std::sync::Arc::new(Gauge::default());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let g = std::sync::Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        g.add(1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(g.get(), 8000.0);
    }

    #[test]
    fn recorder_tracks_count_and_mean() {
        let r = Recorder::default();
        r.record(1.0);
        r.record_duration(Duration::from_secs(3));
        assert_eq!(r.count(), 2);
        assert!((r.mean() - 2.0).abs() < 1e-12);
    }
}
