//! CPU load model.
//!
//! The paper's running example (§5.1) is "a large number of clients that
//! need to know the CPU load of a remote compute resource". For the caching
//! and degradation experiments to be meaningful, the underlying load must
//! *drift* — a constant would make every cached value perfectly fresh
//! forever. We model per-host load as a mean-reverting AR(1) process
//! sampled lazily on the host clock, so the "true" load at any time is a
//! deterministic function of (seed, time) and staleness error can be
//! measured exactly.

use infogram_sim::{Clock, SimTime, SplitMix64};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Mean-reversion strength per step, in `(0, 1]`.
const PHI: f64 = 0.1;
/// Innovation standard deviation per step.
const SIGMA: f64 = 0.15;
/// Process time step.
const STEP: Duration = Duration::from_secs(1);

/// Mean-reverting stochastic CPU load.
///
/// The process advances in fixed 1-second `STEP`s:
/// `x' = x + PHI * (mean - x) + SIGMA * N(0,1)`, clamped to
/// `[0, max_load]`. One-, five-, and fifteen-minute exponentially weighted
/// averages are maintained alongside, mirroring `/proc/loadavg`.
#[derive(Debug)]
pub struct CpuLoadModel {
    clock: Arc<dyn Clock>,
    inner: Mutex<LoadState>,
    /// Long-run mean load.
    mean: f64,
    /// Upper clamp (roughly the CPU count).
    max_load: f64,
}

#[derive(Debug)]
struct LoadState {
    rng: SplitMix64,
    /// Time up to which the process has been advanced.
    advanced_to: SimTime,
    instantaneous: f64,
    load1: f64,
    load5: f64,
    load15: f64,
}

impl CpuLoadModel {
    /// A load process with 1-second steps, mean reversion 0.1 and
    /// innovation 0.15.
    pub fn new(clock: Arc<dyn Clock>, seed: u64, mean: f64, max_load: f64) -> Self {
        CpuLoadModel {
            clock,
            inner: Mutex::new(LoadState {
                rng: SplitMix64::new(seed),
                advanced_to: SimTime::ZERO,
                instantaneous: mean,
                load1: mean,
                load5: mean,
                load15: mean,
            }),
            mean,
            max_load,
        }
    }

    fn advance_to(&self, t: SimTime, st: &mut LoadState) {
        let step_ns = STEP.as_nanos() as u64;
        // EWMA decay constants per step for 1/5/15-minute averages.
        let dt = STEP.as_secs_f64();
        let a1 = (-dt / 60.0).exp();
        let a5 = (-dt / 300.0).exp();
        let a15 = (-dt / 900.0).exp();
        while st.advanced_to.as_nanos() + step_ns <= t.as_nanos() {
            let noise = st.rng.standard_normal();
            let x = st.instantaneous + PHI * (self.mean - st.instantaneous) + SIGMA * noise;
            st.instantaneous = x.clamp(0.0, self.max_load);
            st.load1 = a1 * st.load1 + (1.0 - a1) * st.instantaneous;
            st.load5 = a5 * st.load5 + (1.0 - a5) * st.instantaneous;
            st.load15 = a15 * st.load15 + (1.0 - a15) * st.instantaneous;
            st.advanced_to = SimTime::from_nanos(st.advanced_to.as_nanos() + step_ns);
        }
    }

    /// The instantaneous load right now.
    pub fn current(&self) -> f64 {
        let now = self.clock.now();
        let mut st = self.inner.lock();
        self.advance_to(now, &mut st);
        st.instantaneous
    }

    /// `(load1, load5, load15)` triple, as `/proc/loadavg` reports.
    pub fn load_averages(&self) -> (f64, f64, f64) {
        let now = self.clock.now();
        let mut st = self.inner.lock();
        self.advance_to(now, &mut st);
        (st.load1, st.load5, st.load15)
    }

    /// Long-run mean the process reverts to.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_sim::ManualClock;

    fn model(seed: u64) -> (Arc<ManualClock>, CpuLoadModel) {
        let clock = ManualClock::new();
        let m = CpuLoadModel::new(clock.clone(), seed, 1.0, 4.0);
        (clock, m)
    }

    #[test]
    fn load_stays_in_bounds() {
        let (clock, m) = model(1);
        for _ in 0..500 {
            clock.advance(Duration::from_secs(2));
            let l = m.current();
            assert!((0.0..=4.0).contains(&l), "load {l}");
        }
    }

    #[test]
    fn load_actually_drifts() {
        let (clock, m) = model(2);
        let a = m.current();
        clock.advance(Duration::from_secs(120));
        let b = m.current();
        // With sigma=0.15 over 120 steps the chance of an identical value
        // is nil.
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_given_seed_and_time() {
        let (c1, m1) = model(42);
        let (c2, m2) = model(42);
        c1.advance(Duration::from_secs(300));
        c2.advance(Duration::from_secs(300));
        assert_eq!(m1.current(), m2.current());
        assert_eq!(m1.load_averages(), m2.load_averages());
    }

    #[test]
    fn no_time_no_change() {
        let (_clock, m) = model(3);
        let a = m.current();
        let b = m.current();
        assert_eq!(a, b);
    }

    #[test]
    fn averages_smoother_than_instantaneous() {
        let (clock, m) = model(4);
        let mut inst_sq = 0.0;
        let mut l15_sq = 0.0;
        let mut prev_inst = m.current();
        let mut prev_l15 = m.load_averages().2;
        for _ in 0..600 {
            clock.advance(Duration::from_secs(1));
            let i = m.current();
            let (_, _, l15) = m.load_averages();
            inst_sq += (i - prev_inst).powi(2);
            l15_sq += (l15 - prev_l15).powi(2);
            prev_inst = i;
            prev_l15 = l15;
        }
        assert!(
            l15_sq < inst_sq / 10.0,
            "load15 should be much smoother: {l15_sq} vs {inst_sq}"
        );
    }

    #[test]
    fn reverts_toward_mean() {
        let (clock, m) = model(5);
        clock.advance(Duration::from_secs(3600));
        let mut sum = 0.0;
        let n = 2000;
        for _ in 0..n {
            clock.advance(Duration::from_secs(1));
            sum += m.current();
        }
        let avg = sum / n as f64;
        assert!((avg - 1.0).abs() < 0.3, "long-run average {avg}");
    }
}
