//! Per-keyword fault-domain supervisor: a circuit breaker with
//! non-blocking jittered backoff and deadline budgets.
//!
//! Each [`SystemInformation`] entry owns one [`Supervisor`]. Every
//! supervised fetch first asks [`Supervisor::admit`] whether the
//! provider may run; the answer encodes the classic three-state breaker:
//!
//! ```text
//!             N consecutive transient failures
//!   Closed ────────────────────────────────────▶ Open
//!     ▲                                            │ cool-down elapses
//!     │ probe succeeds                             ▼
//!     └─────────────────────────────────────── HalfOpen
//!                 (probe fails → back to Open, cool-down doubled)
//! ```
//!
//! Two design decisions keep the supervisor deterministic under the
//! virtual clock and explorable by `sim::model`:
//!
//! * **Backoff never sleeps.** `ManualClock::sleep` blocks until another
//!   thread advances the clock, so a sleeping backoff would deadlock
//!   single-threaded deterministic tests. Instead, backoff is a
//!   *not-before gate*: after a failed fetch the supervisor computes the
//!   jittered exponential delay and simply refuses admission until that
//!   clock time, steering callers to the last-known-good snapshot in the
//!   meantime. The delay schedule is identical to a sleeping
//!   implementation; only the waiting is cooperative.
//! * **Jitter is seeded per keyword.** The jitter PRNG is seeded from
//!   the keyword name (FNV-1a), so a fault scenario replays
//!   byte-identically from its seed — run-to-run and host-to-host.
//!
//! Deadline budgets are enforced cooperatively at completion: the
//! supervised fetch compares elapsed clock time against the budget after
//! the provider returns (injected `Hang` faults charge their stall to
//! the clock, so a breach is always observable), counts the breach, and
//! falls back to the stale snapshot rather than retrying into a dead
//! budget.
//!
//! [`SystemInformation`]: crate::entry::SystemInformation

use infogram_sim::{SimTime, SplitMix64};
use parking_lot::{lock_class, Mutex};
use std::time::Duration;

/// Breaker position of one keyword's fault domain.
///
/// The numeric values are the wire/gauge encoding (`info.breaker.<kw>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: fetches execute the provider (subject to the backoff
    /// gate after isolated failures).
    Closed = 0,
    /// Tripped: the provider is not executed until the cool-down ends;
    /// callers are served the last-known-good snapshot.
    Open = 1,
    /// Cool-down elapsed: exactly one probe fetch is admitted; success
    /// closes the breaker, failure re-opens it with a doubled cool-down.
    HalfOpen = 2,
}

/// Consecutive transient failures that trip the breaker.
const FAILURE_THRESHOLD: u32 = 3;
/// Base cool-down after tripping; it doubles on each failed probe.
const OPEN_FOR: Duration = Duration::from_millis(500);
/// Cool-down ceiling.
const OPEN_MAX: Duration = Duration::from_secs(30);
/// Bounded in-fetch retries after the first transient failure.
pub(crate) const MAX_RETRIES: u32 = 2;
/// Base of the exponential backoff gate between fetches. The gate only
/// arms below [`FAILURE_THRESHOLD`], so it is 25 ms or 50 ms.
const BACKOFF_BASE: Duration = Duration::from_millis(25);
/// Jitter fraction: each delay is scaled by a factor drawn uniformly
/// from `[1 - JITTER, 1 + JITTER]`.
const JITTER: f64 = 0.2;
/// Deadline budget floor (the whole budget of a TTL-0 keyword).
const DEADLINE_FLOOR: Duration = Duration::from_millis(250);
/// The TTL multiple a fetch may spend before its budget is breached.
const DEADLINE_TTL_FACTOR: u32 = 4;

/// The deadline budget of a fetch whose query names no `(timeout=…)`:
/// `max(ttl × 4, 250 ms)`.
pub(crate) fn default_deadline(ttl: Duration) -> Duration {
    (ttl * DEADLINE_TTL_FACTOR).max(DEADLINE_FLOOR)
}

/// What [`Supervisor::admit`] decided for one fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the provider. `probe` marks the single half-open probe: it
    /// gets no in-fetch retries, and its outcome moves the breaker.
    Execute {
        /// Whether this execution is the half-open probe.
        probe: bool,
    },
    /// Do not run the provider; serve stale or fail. `retry_after` is
    /// the time until the gate re-opens — the wire-level retry hint.
    Deferred {
        /// Time until the next admission.
        retry_after: Duration,
    },
}

#[derive(Debug)]
struct Inner {
    /// Jitter source, seeded from the keyword (deterministic replay).
    rng: SplitMix64,
    state: BreakerState,
    /// Consecutive transient failures (reset on success).
    streak: u32,
    /// While `Open`: when the cool-down ends.
    open_until: SimTime,
    /// Current cool-down length (doubles on failed probes).
    open_len: Duration,
    /// While `Closed` after a failed fetch: the backoff gate.
    not_before: SimTime,
    /// A half-open probe is in flight; concurrent fetches are deferred.
    probing: bool,
}

/// The per-keyword breaker + backoff state machine. All transitions are
/// guarded by one mutex; nothing blocking is ever called under it.
#[derive(Debug)]
pub struct Supervisor {
    inner: Mutex<Inner>,
}

/// FNV-1a over the keyword: a stable, platform-independent jitter seed.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl Supervisor {
    /// A closed supervisor for `keyword`.
    pub fn new(keyword: &str) -> Self {
        Supervisor {
            inner: Mutex::with_class(
                Inner {
                    rng: SplitMix64::new(fnv1a(keyword) ^ 0x5afe_b0ff),
                    state: BreakerState::Closed,
                    streak: 0,
                    open_until: SimTime::ZERO,
                    open_len: OPEN_FOR,
                    not_before: SimTime::ZERO,
                    probing: false,
                },
                lock_class!("info.supervisor.inner"),
            ),
        }
    }

    /// Current breaker position.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// Current consecutive-failure streak.
    pub fn streak(&self) -> u32 {
        self.inner.lock().streak
    }

    /// Decide whether a fetch arriving at `now` may run the provider.
    pub fn admit(&self, now: SimTime) -> Admission {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => {
                if now < inner.not_before {
                    Admission::Deferred {
                        retry_after: inner.not_before.since(now),
                    }
                } else {
                    Admission::Execute { probe: false }
                }
            }
            BreakerState::Open => {
                if now < inner.open_until {
                    Admission::Deferred {
                        retry_after: inner.open_until.since(now),
                    }
                } else {
                    inner.state = BreakerState::HalfOpen;
                    inner.probing = true;
                    Admission::Execute { probe: true }
                }
            }
            BreakerState::HalfOpen => {
                if inner.probing {
                    // One probe at a time; others wait a short beat.
                    Admission::Deferred {
                        retry_after: BACKOFF_BASE,
                    }
                } else {
                    inner.probing = true;
                    Admission::Execute { probe: true }
                }
            }
        }
    }

    /// Non-mutating admission peek for schedulers: if a fetch arriving
    /// at `now` would be deferred, returns how long until the gate
    /// re-opens; `None` means a fetch would be admitted.
    ///
    /// Unlike [`Supervisor::admit`], this never transitions the breaker
    /// and never claims the half-open probe slot — the refresh scheduler
    /// uses it to *park* a keyword (reschedule past the cool-down)
    /// without racing real queries for the probe.
    pub fn retry_hint(&self, now: SimTime) -> Option<Duration> {
        let inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed if now < inner.not_before => Some(inner.not_before.since(now)),
            BreakerState::Closed => None,
            BreakerState::Open if now < inner.open_until => Some(inner.open_until.since(now)),
            // Cool-down elapsed (or half-open with a probe in flight):
            // leave the probe to a real query; check back in one
            // backoff beat.
            BreakerState::Open | BreakerState::HalfOpen if inner.probing => Some(BACKOFF_BASE),
            BreakerState::Open | BreakerState::HalfOpen => None,
        }
    }

    /// Record a successful provider execution: close the breaker and
    /// clear all failure state.
    pub fn on_success(&self) {
        let mut inner = self.inner.lock();
        inner.state = BreakerState::Closed;
        inner.streak = 0;
        inner.probing = false;
        inner.not_before = SimTime::ZERO;
        inner.open_len = OPEN_FOR;
    }

    /// Record a failed (transient) provider execution at `now`; `probe`
    /// marks the half-open probe. Returns the new breaker state.
    pub fn on_failure(&self, now: SimTime, probe: bool) -> BreakerState {
        let mut inner = self.inner.lock();
        let jitter = inner.jittered_factor();
        inner.probing = false;
        inner.streak = inner.streak.saturating_add(1);
        if probe {
            // Failed probe: re-open, doubled cool-down.
            inner.open_len = (inner.open_len * 2).min(OPEN_MAX);
            inner.open_until = now.plus(scale(inner.open_len, jitter));
            inner.state = BreakerState::Open;
        } else if inner.streak >= FAILURE_THRESHOLD {
            inner.open_len = OPEN_FOR;
            inner.open_until = now.plus(scale(inner.open_len, jitter));
            inner.state = BreakerState::Open;
        } else {
            // Below the threshold: exponential not-before gate.
            let delay = BACKOFF_BASE * (1 << (inner.streak - 1));
            inner.not_before = now.plus(scale(delay, jitter));
        }
        inner.state
    }

    /// Record a *configuration* failure (an unknown command):
    /// clears any in-flight probe without counting toward the breaker —
    /// retrying a config error is pointless, but so is tripping the
    /// breaker over it. A failed probe still re-opens the breaker (the
    /// transient streak that opened it is unresolved).
    pub fn on_config_failure(&self, now: SimTime, probe: bool) {
        let mut inner = self.inner.lock();
        inner.probing = false;
        if probe {
            inner.open_until = now.plus(inner.open_len);
            inner.state = BreakerState::Open;
        }
    }
}

impl Inner {
    /// A jitter factor in `[1 - JITTER, 1 + JITTER]`, drawn from the
    /// keyword-seeded PRNG.
    fn jittered_factor(&mut self) -> f64 {
        1.0 - JITTER + 2.0 * JITTER * self.rng.next_f64()
    }
}

fn scale(d: Duration, factor: f64) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() * factor.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// How long `s` defers a fetch arriving at `now`.
    fn deferral(s: &Supervisor, now: SimTime) -> Duration {
        match s.admit(now) {
            Admission::Deferred { retry_after } => retry_after,
            other => panic!("expected a deferral at {now:?}, got {other:?}"),
        }
    }

    /// `d` is `base` scaled by a factor in the jitter band.
    fn jittered(d: Duration, base: Duration) -> bool {
        d >= base.mul_f64(1.0 - JITTER) && d <= base.mul_f64(1.0 + JITTER)
    }

    #[test]
    fn trips_after_threshold_and_recovers_via_probe() {
        let s = Supervisor::new("K");
        let mut now = t(0);
        // Below the threshold each failure arms a backoff gate: 25 ms,
        // then 50 ms, each jittered.
        for (streak, gate) in [(1, 25), (2, 50)] {
            assert_eq!(s.admit(now), Admission::Execute { probe: false });
            s.on_failure(now, false);
            assert_eq!((s.state(), s.streak()), (BreakerState::Closed, streak));
            let wait = deferral(&s, now);
            assert!(jittered(wait, Duration::from_millis(gate)), "{wait:?}");
            now = now.plus(wait);
        }
        assert_eq!(s.admit(now), Admission::Execute { probe: false });
        s.on_failure(now, false); // third: trips
        assert_eq!(s.state(), BreakerState::Open);
        // Open defers with the cool-down as the retry hint.
        let cool_down = deferral(&s, now);
        assert!(jittered(cool_down, OPEN_FOR), "{cool_down:?}");
        // Cool-down over: exactly one probe.
        now = now.plus(cool_down);
        assert_eq!(s.admit(now), Admission::Execute { probe: true });
        assert_eq!(s.state(), BreakerState::HalfOpen);
        assert_eq!(deferral(&s, now), BACKOFF_BASE, "one probe at a time");
        s.on_success();
        assert_eq!((s.state(), s.streak()), (BreakerState::Closed, 0));
        assert_eq!(s.admit(now), Admission::Execute { probe: false });
    }

    #[test]
    fn failed_probes_double_the_cool_down_up_to_its_cap() {
        let s = Supervisor::new("K");
        for _ in 0..FAILURE_THRESHOLD {
            s.on_failure(t(0), false);
        }
        let (mut now, mut base) = (t(0), OPEN_FOR);
        for _ in 0..8 {
            assert_eq!(s.state(), BreakerState::Open);
            let cool_down = deferral(&s, now);
            assert!(jittered(cool_down, base), "{cool_down:?} from {base:?}");
            now = now.plus(cool_down);
            assert_eq!(s.admit(now), Admission::Execute { probe: true });
            s.on_failure(now, true);
            base = (base * 2).min(OPEN_MAX);
        }
        assert_eq!(base, OPEN_MAX, "500 ms doubled six times passes the cap");
    }

    #[test]
    fn jitter_is_seed_deterministic_per_keyword() {
        let mk = || {
            let s = Supervisor::new("CPULoad");
            s.on_failure(t(0), false);
            deferral(&s, t(0))
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a, b, "same keyword, same seed, same jitter");
        assert!(jittered(a, BACKOFF_BASE), "{a:?}");
    }

    #[test]
    fn config_failure_does_not_count_but_clears_probe() {
        let s = Supervisor::new("K");
        s.admit(t(0));
        s.on_config_failure(t(0), false);
        assert_eq!(s.streak(), 0);
        assert_eq!(s.state(), BreakerState::Closed);
        assert_eq!(s.admit(t(0)), Admission::Execute { probe: false });
        // Trip, probe, config failure during probe → back to Open.
        for _ in 0..FAILURE_THRESHOLD {
            s.on_failure(t(0), false);
        }
        let now = t(0).plus(deferral(&s, t(0)));
        assert_eq!(s.admit(now), Admission::Execute { probe: true });
        s.on_config_failure(now, true);
        assert_eq!(s.state(), BreakerState::Open);
    }

    #[test]
    fn deadline_budget_is_ttl_proportional_with_floor() {
        assert_eq!(
            default_deadline(Duration::from_millis(100)),
            Duration::from_millis(400)
        );
        assert_eq!(default_deadline(Duration::ZERO), Duration::from_millis(250));
    }
}
