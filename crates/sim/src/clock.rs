//! Time sources.
//!
//! All time-dependent behaviour in the InfoGram stack (TTL expiry,
//! degradation functions, authorization contract windows, performance
//! measurement) is written against the [`Clock`] trait so that tests and
//! benchmarks can drive a [`ManualClock`] deterministically while the
//! runnable services use the [`SystemClock`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A point on the simulation timeline, in nanoseconds since an arbitrary
/// epoch (process start for [`SystemClock`], zero for [`ManualClock`]).
///
/// `SimTime` is a plain `u64` wrapper so it is `Copy`, totally ordered, and
/// cheap to stamp onto every cached attribute.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero point of the timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The end of the timeline: a time no clock reaches.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future (clocks shared across threads may race by a few ns).
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// This time advanced by `d`, saturating at the maximum representable
    /// time.
    pub fn plus(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.as_nanos() as u64))
    }

    /// This time moved back by `d`, saturating at zero.
    pub fn minus(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(d.as_nanos() as u64))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

/// A monotonic time source.
///
/// Implementations must be cheap to call and safe to share across threads.
pub trait Clock: Send + Sync + fmt::Debug {
    /// The current time.
    fn now(&self) -> SimTime;

    /// Block the calling thread until at least `d` has elapsed on this
    /// clock.
    ///
    /// The [`SystemClock`] really sleeps; the [`ManualClock`] spins waiting
    /// for another thread to advance time, yielding between polls, so tests
    /// that sleep on a manual clock must advance it from somewhere else.
    fn sleep(&self, d: Duration);
}

/// Shared handle to a clock. Services clone this freely.
pub type SharedClock = Arc<dyn Clock>;

/// Wall-clock time, measured from process start.
#[derive(Debug)]
pub struct SystemClock {
    origin: std::time::Instant,
}

impl SystemClock {
    /// A clock whose epoch is the moment of construction.
    pub fn new() -> Self {
        SystemClock {
            origin: std::time::Instant::now(),
        }
    }

    /// Convenience: a shareable system clock.
    pub fn shared() -> SharedClock {
        Arc::new(SystemClock::new())
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> SimTime {
        SimTime(self.origin.elapsed().as_nanos() as u64)
    }

    fn sleep(&self, d: Duration) {
        // Zero-duration sleeps (a deadline already due) never park, so
        // they are not blocking points.
        if !d.is_zero() {
            parking_lot::lockdep::blocking_point("sim.clock.sleep", &[]);
        }
        std::thread::sleep(d);
    }
}

/// A virtual clock advanced explicitly by the test or benchmark harness.
///
/// `ManualClock` is the workhorse of the deterministic experiments: the TTL
/// cache (E5), degradation (E6), response modes (E7), and contract (E13)
/// benchmarks all sweep simulated hours through it without real waiting.
///
/// Inside a [`fan_out`](crate::par::fan_out) item, [`advance`] and
/// [`now`] act on the item's own timeline until the join (see
/// [`crate::par`]).
///
/// [`advance`]: ManualClock::advance
/// [`now`]: Clock::now
#[derive(Debug, Default)]
pub struct ManualClock {
    /// Shared with the fan-out branches that charge this clock.
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock starting at `t = 0`.
    pub fn new() -> Arc<Self> {
        Self::starting_at(SimTime::ZERO)
    }

    /// A clock starting at the given time.
    pub fn starting_at(t: SimTime) -> Arc<Self> {
        Arc::new(ManualClock {
            nanos: Arc::new(AtomicU64::new(t.0)),
        })
    }

    /// Advance the clock by `d`, waking any sleepers whose deadline passed.
    pub fn advance(&self, d: Duration) {
        crate::par::advance(&self.nanos, d.as_nanos() as u64);
    }

    /// Jump the clock to an absolute time. Panics if `t` is in the past —
    /// the clock must stay monotonic.
    pub fn set(&self, t: SimTime) {
        let prev = self.nanos.swap(t.0, Ordering::SeqCst);
        assert!(prev <= t.0, "ManualClock must not move backwards");
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        let base = self.nanos.load(Ordering::SeqCst);
        SimTime(base.saturating_add(crate::par::pending(&self.nanos)))
    }

    fn sleep(&self, d: Duration) {
        // A manual-clock sleep blocks until *another thread* advances
        // time — holding a lock here can starve the advancing thread.
        if !d.is_zero() {
            parking_lot::lockdep::blocking_point("sim.clock.sleep", &[]);
        }
        let deadline = self.now().plus(d);
        // Under the model checker, sleeping on the execution's clock
        // parks at the scheduler, which advances virtual time to the
        // earliest deadline once every live thread is blocked.
        #[cfg(feature = "model")]
        if crate::model::manual_clock_sleep(self, deadline) {
            return;
        }
        while self.now() < deadline {
            // A schedule point per poll so a sleep on a clock nobody
            // advances surfaces as a step-budget violation instead of
            // hanging an exploration. No-op outside the model.
            #[cfg(feature = "model")]
            crate::model::yield_point();
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_millis(1_500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t.as_millis(), 1_500);
        assert_eq!(t.plus(Duration::from_millis(500)), SimTime::from_secs(2));
        assert_eq!(t.minus(Duration::from_secs(10)), SimTime::ZERO);
        assert_eq!(
            SimTime::from_secs(3).since(SimTime::from_secs(1)),
            Duration::from_secs(2)
        );
        // `since` saturates rather than underflowing.
        assert_eq!(
            SimTime::from_secs(1).since(SimTime::from_secs(3)),
            Duration::ZERO
        );
    }

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(Duration::from_secs(5));
        assert_eq!(c.now(), SimTime::from_secs(5));
        c.set(SimTime::from_secs(100));
        assert_eq!(c.now(), SimTime::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "must not move backwards")]
    fn manual_clock_rejects_backwards() {
        let c = ManualClock::new();
        c.advance(Duration::from_secs(10));
        c.set(SimTime::from_secs(1));
    }

    #[test]
    fn system_clock_monotonic() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        let before = c.now();
        c.sleep(Duration::from_millis(2));
        assert!(c.now().since(before) >= Duration::from_millis(2));
    }

    #[test]
    fn manual_clock_sleep_wakes_on_advance() {
        let c = ManualClock::new();
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            c2.sleep(Duration::from_secs(1));
            c2.now()
        });
        // Give the sleeper a moment to start spinning, then advance.
        std::thread::sleep(Duration::from_millis(5));
        c.advance(Duration::from_secs(2));
        let woke_at = h.join().unwrap();
        assert!(woke_at >= SimTime::from_secs(1));
    }
}
