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

/// Tunables for one keyword's supervisor.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Consecutive transient failures that trip the breaker.
    pub failure_threshold: u32,
    /// Base cool-down after tripping (doubles on each failed probe, up
    /// to [`SupervisorConfig::open_max`]).
    pub open_for: Duration,
    /// Cool-down ceiling.
    pub open_max: Duration,
    /// Bounded in-fetch retries after the first transient failure.
    pub max_retries: u32,
    /// Base of the jittered exponential backoff gate between fetches.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Deadline budget floor (used directly for TTL-0 keywords).
    pub deadline_floor: Duration,
    /// Default deadline budget = `max(ttl × factor, deadline_floor)`.
    pub deadline_ttl_factor: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            failure_threshold: 3,
            open_for: Duration::from_millis(500),
            open_max: Duration::from_secs(30),
            max_retries: 2,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(2),
            jitter: 0.2,
            deadline_floor: Duration::from_millis(250),
            deadline_ttl_factor: 4,
        }
    }
}

impl SupervisorConfig {
    /// The default deadline budget for a keyword with this TTL.
    pub fn deadline_for(&self, ttl: Duration) -> Duration {
        (ttl * self.deadline_ttl_factor).max(self.deadline_floor)
    }
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
    config: SupervisorConfig,
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
    /// A closed supervisor for `keyword` with the given tunables.
    pub fn new(keyword: &str, config: SupervisorConfig) -> Self {
        Supervisor {
            inner: Mutex::with_class(
                Inner {
                    rng: SplitMix64::new(fnv1a(keyword) ^ 0x5afe_b0ff),
                    state: BreakerState::Closed,
                    streak: 0,
                    open_until: SimTime::ZERO,
                    open_len: config.open_for,
                    not_before: SimTime::ZERO,
                    probing: false,
                    config,
                },
                lock_class!("info.supervisor.inner"),
            ),
        }
    }

    /// Replace the tunables (existing breaker state is kept).
    pub fn set_config(&self, config: SupervisorConfig) {
        self.inner.lock().config = config;
    }

    /// A copy of the current tunables.
    pub fn config(&self) -> SupervisorConfig {
        self.inner.lock().config.clone()
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
                        retry_after: inner.config.backoff_base,
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
            BreakerState::Open | BreakerState::HalfOpen if inner.probing => {
                Some(inner.config.backoff_base)
            }
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
        inner.open_len = inner.config.open_for;
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
            inner.open_len = (inner.open_len * 2).min(inner.config.open_max);
            inner.open_until = now.plus(scale(inner.open_len, jitter));
            inner.state = BreakerState::Open;
        } else if inner.streak >= inner.config.failure_threshold {
            inner.open_len = inner.config.open_for;
            inner.open_until = now.plus(scale(inner.open_len, jitter));
            inner.state = BreakerState::Open;
        } else {
            // Below the threshold: exponential not-before gate.
            let exp = inner.streak.saturating_sub(1).min(16);
            let delay = inner
                .config
                .backoff_base
                .saturating_mul(1u32 << exp)
                .min(inner.config.backoff_max);
            inner.not_before = now.plus(scale(delay, jitter));
        }
        inner.state
    }

    /// Record a *configuration* failure (unknown command, missing file):
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
    /// A jitter factor in `[1 - jitter, 1 + jitter]`, drawn from the
    /// keyword-seeded PRNG.
    fn jittered_factor(&mut self) -> f64 {
        let jitter = self.config.jitter;
        if jitter <= 0.0 {
            return 1.0;
        }
        1.0 - jitter + 2.0 * jitter * self.rng.next_f64()
    }
}

fn scale(d: Duration, factor: f64) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() * factor.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SupervisorConfig {
        SupervisorConfig {
            jitter: 0.0, // deterministic delays for exact assertions
            ..SupervisorConfig::default()
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn trips_after_threshold_and_recovers_via_probe() {
        let s = Supervisor::new("K", config());
        assert_eq!(s.admit(t(0)), Admission::Execute { probe: false });
        s.on_failure(t(0), false);
        assert_eq!(s.state(), BreakerState::Closed);
        // Backoff gate defers until 25ms.
        assert!(matches!(s.admit(t(1)), Admission::Deferred { .. }));
        assert_eq!(s.admit(t(25)), Admission::Execute { probe: false });
        s.on_failure(t(25), false);
        assert_eq!(s.admit(t(80)), Admission::Execute { probe: false });
        s.on_failure(t(80), false); // third: trips
        assert_eq!(s.state(), BreakerState::Open);
        // Open defers with the cool-down as the retry hint.
        match s.admit(t(81)) {
            Admission::Deferred { retry_after } => {
                assert_eq!(retry_after, Duration::from_millis(499));
            }
            other => panic!("{other:?}"),
        }
        // Cool-down over: exactly one probe.
        assert_eq!(s.admit(t(580)), Admission::Execute { probe: true });
        assert_eq!(s.state(), BreakerState::HalfOpen);
        assert!(matches!(s.admit(t(580)), Admission::Deferred { .. }));
        s.on_success();
        assert_eq!(s.state(), BreakerState::Closed);
        assert_eq!(s.streak(), 0);
        assert_eq!(s.admit(t(581)), Admission::Execute { probe: false });
    }

    #[test]
    fn failed_probe_doubles_cooldown() {
        let s = Supervisor::new("K", config());
        for i in 0..3 {
            s.admit(t(i));
            s.on_failure(t(i), false);
        }
        assert_eq!(s.state(), BreakerState::Open);
        // First cool-down 500ms.
        assert_eq!(s.admit(t(502 + 2)), Admission::Execute { probe: true });
        s.on_failure(t(504), true);
        assert_eq!(s.state(), BreakerState::Open);
        // Doubled: deferred until ~1504.
        match s.admit(t(504)) {
            Admission::Deferred { retry_after } => {
                assert_eq!(retry_after, Duration::from_millis(1000));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let mut cfg = config();
        cfg.failure_threshold = 100; // never trip; isolate the gate
        cfg.backoff_max = Duration::from_millis(80);
        let s = Supervisor::new("K", cfg);
        let mut now = t(0);
        let mut delays = Vec::new();
        for _ in 0..5 {
            assert!(matches!(s.admit(now), Admission::Execute { .. }));
            s.on_failure(now, false);
            match s.admit(now) {
                Admission::Deferred { retry_after } => {
                    delays.push(retry_after);
                    now = now.plus(retry_after);
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(
            delays,
            [25, 50, 80, 80, 80].map(Duration::from_millis).to_vec()
        );
    }

    #[test]
    fn jitter_is_seed_deterministic_per_keyword() {
        let mk = || {
            let s = Supervisor::new("CPULoad", SupervisorConfig::default());
            s.on_failure(t(0), false);
            match s.admit(t(0)) {
                Admission::Deferred { retry_after } => retry_after,
                other => panic!("{other:?}"),
            }
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a, b, "same keyword, same seed, same jitter");
        let base = Duration::from_millis(25);
        assert!(a >= base.mul_f64(0.8) && a <= base.mul_f64(1.2), "{a:?}");
    }

    #[test]
    fn config_failure_does_not_count_but_clears_probe() {
        let s = Supervisor::new("K", config());
        s.admit(t(0));
        s.on_config_failure(t(0), false);
        assert_eq!(s.streak(), 0);
        assert_eq!(s.state(), BreakerState::Closed);
        assert_eq!(s.admit(t(0)), Admission::Execute { probe: false });
        // Trip, probe, config failure during probe → back to Open.
        for i in 0..3 {
            s.on_failure(t(i), false);
        }
        assert_eq!(s.admit(t(600)), Admission::Execute { probe: true });
        s.on_config_failure(t(600), true);
        assert_eq!(s.state(), BreakerState::Open);
    }

    #[test]
    fn deadline_budget_is_ttl_proportional_with_floor() {
        let cfg = SupervisorConfig::default();
        assert_eq!(
            cfg.deadline_for(Duration::from_millis(100)),
            Duration::from_millis(400)
        );
        assert_eq!(cfg.deadline_for(Duration::ZERO), Duration::from_millis(250));
    }
}
