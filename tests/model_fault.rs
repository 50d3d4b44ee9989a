//! Model-checked invariants for the provider fault-domain supervisor.
//!
//! Runs only with `--features model` (`scripts/check_model.sh`): each
//! test hands a small multi-threaded scenario to the schedule explorer
//! in `infogram_sim::model`, which re-executes it under every bounded
//! interleaving of its synchronization points on the virtual clock.
//!
//! Checked invariants (see DESIGN.md §10):
//!
//! * **Half-open probe exclusivity (seeded)** — a fixture reintroducing
//!   a tempting refactor bug (the probe slot is claimed in a *second*
//!   critical section, a classic check-then-act) must be *caught* by
//!   the explorer, and the shipped [`Supervisor`] must pass the
//!   identical scenario: an open breaker never admits two concurrent
//!   probes into a provider it believes is down.
//! * **Breaker transitions under racing failures** — concurrent failed
//!   fetches drive the breaker only through legal states: every
//!   interleaving lands in a consistent (state, streak, gate) triple,
//!   never a torn hybrid like `Open` with a sub-threshold streak.
//! * **Stale-serve honesty** — while the breaker holds fetches off, a
//!   supervised fetch never runs the provider and never fabricates
//!   freshness: answers are the last-known-good value, stale-tagged,
//!   with the original `produced_at` preserved.
//!
//! Scenarios are re-executed once per schedule, so each closure builds
//! all of its state fresh.

#![cfg(feature = "model")]
// Test harness: panic-on-failure is the error policy here — and inside a
// model scenario a panic IS the violation signal the explorer looks for.
#![allow(clippy::unwrap_used)]

use infogram::info::provider::{FnProvider, ProviderError};
use infogram::info::{Admission, BreakerState, DegradationFn, Supervisor, SystemInformation};
use infogram::sim::model;
use infogram::sim::{Clock, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

#[path = "support/model_pair.rs"]
mod model_pair;

// ---------------------------------------------------------------------
// Seeded regression: probe admission split into check + claim
// ---------------------------------------------------------------------

/// The shipped [`Supervisor`] claims the half-open probe slot *inside*
/// the critical section that checks it. This fixture reintroduces the
/// tempting refactor that splits the two (say, to compute the jittered
/// cool-down outside the lock): the eligibility check and the
/// `probing = true` claim become separate lock acquisitions, and two
/// racing fetches can both pass the check before either claims —
/// admitting two concurrent probes.
struct BuggyBreaker {
    inner: Mutex<BuggyInner>,
}

struct BuggyInner {
    state: BreakerState,
    open_until: SimTime,
    probing: bool,
}

impl BuggyBreaker {
    /// A breaker already tripped, cooling down until `open_until`.
    fn tripped(open_until: SimTime) -> Self {
        BuggyBreaker {
            inner: Mutex::new(BuggyInner {
                state: BreakerState::Open,
                open_until,
                probing: false,
            }),
        }
    }

    fn admit(&self, now: SimTime) -> Admission {
        let eligible = {
            let mut g = self.inner.lock();
            match g.state {
                BreakerState::Closed => return Admission::Execute { probe: false },
                BreakerState::Open if now >= g.open_until => {
                    g.state = BreakerState::HalfOpen;
                    !g.probing
                }
                BreakerState::HalfOpen => !g.probing,
                BreakerState::Open => false,
            }
        };
        if !eligible {
            return Admission::Deferred {
                retry_after: Duration::from_millis(25),
            };
        }
        // BUG (reintroduced): the probe slot is claimed in a second
        // lock acquisition — between the eligibility check above and
        // this claim, a concurrent fetch passes the same check.
        self.inner.lock().probing = true;
        Admission::Execute { probe: true }
    }

    /// Successful probe: release the slot and close the breaker.
    fn on_probe_success(&self) {
        let mut g = self.inner.lock();
        g.probing = false;
        g.state = BreakerState::Closed;
    }
}

/// Two fetches race a breaker whose cool-down has just elapsed. Each
/// admitted probe holds an in-flight token for the duration of its
/// (simulated) provider run; the invariant is that the tokens never
/// overlap — an open breaker admits exactly one probe at a time.
fn probe_race_scenario(
    admit: Arc<dyn Fn(SimTime) -> Admission + Send + Sync>,
    on_probe_success: Arc<dyn Fn() + Send + Sync>,
) {
    // The cool-down (500 ms, at most 600 ms with its jitter) is over.
    let now = SimTime::from_millis(700);
    let probes_in_flight = Arc::new(Mutex::new(0u32));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let admit = Arc::clone(&admit);
        let on_probe_success = Arc::clone(&on_probe_success);
        let probes_in_flight = Arc::clone(&probes_in_flight);
        handles.push(model::spawn(move || {
            if let Admission::Execute { probe: true } = admit(now) {
                {
                    let mut n = probes_in_flight.lock();
                    *n += 1;
                    assert!(*n <= 1, "two half-open probes admitted concurrently");
                }
                // The probe "runs the provider" here; a second probe
                // admitted meanwhile trips the assertion above.
                *probes_in_flight.lock() -= 1;
                on_probe_success();
            }
        }));
    }
    for h in handles {
        h.join();
    }
}

#[test]
fn model_finds_seeded_double_probe_bug() {
    let report = model::explore(&model_pair::regression_config(), || {
        let b = Arc::new(BuggyBreaker::tripped(SimTime::from_millis(500)));
        let b2 = Arc::clone(&b);
        probe_race_scenario(
            Arc::new(move |now| b.admit(now)),
            Arc::new(move || b2.on_probe_success()),
        );
    });
    model_pair::expect_found(&report, "two half-open probes");
}

#[test]
fn shipped_supervisor_passes_the_probe_race_scenario() {
    // The shipped Supervisor under the *identical* scenario: the
    // Open→HalfOpen transition sets `probing` in the same critical
    // section that observes it, so the second fetch is always deferred
    // (or, after the first probe already closed the breaker, admitted
    // as an ordinary non-probe fetch — which holds no probe token).
    let report = model::explore(&model_pair::regression_config(), || {
        let s = Arc::new(Supervisor::new("K"));
        // Trip it: three straight transient failures at t=0.
        for _ in 0..3 {
            s.on_failure(SimTime::ZERO, false);
        }
        assert_eq!(s.state(), BreakerState::Open);
        let s2 = Arc::clone(&s);
        probe_race_scenario(
            Arc::new(move |now| s.admit(now)),
            Arc::new(move || s2.on_success()),
        );
    });
    model_pair::expect_cleared(&report);
}

// ---------------------------------------------------------------------
// Breaker-transition invariants under racing failures
// ---------------------------------------------------------------------

#[test]
fn racing_failures_leave_the_breaker_in_a_consistent_state() {
    model::check("breaker transitions under racing failures", || {
        // One failure already on the streak and its backoff gate passed:
        // the next two failures are the second and the third (trip).
        let s = Arc::new(Supervisor::new("K"));
        s.on_failure(SimTime::ZERO, false);
        let now = SimTime::from_millis(100);
        let failures = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let s = Arc::clone(&s);
            let failures = Arc::clone(&failures);
            handles.push(model::spawn(move || {
                if let Admission::Execute { probe } = s.admit(now) {
                    assert!(!probe, "a closed breaker never admits probes");
                    let after = s.on_failure(now, probe);
                    assert!(
                        matches!(after, BreakerState::Closed | BreakerState::Open),
                        "a failed non-probe fetch lands in Closed (gated) or Open: {after:?}"
                    );
                    *failures.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join();
        }
        // Depending on the interleaving, the second fetch was either
        // admitted too (both saw the Closed breaker past its gate) or deferred
        // by the first failure's backoff gate. Both outcomes — and only
        // those two — are legal, and each must be internally consistent.
        let failed = *failures.lock();
        match failed {
            2 => {
                // Threshold met: tripped, and fetches defer with a hint.
                assert_eq!(s.state(), BreakerState::Open);
                assert_eq!(s.streak(), 3);
                match s.admit(now) {
                    Admission::Deferred { retry_after } => assert!(retry_after > Duration::ZERO),
                    other => panic!("open breaker must defer: {other:?}"),
                }
            }
            1 => {
                // Sub-threshold: still Closed, but the backoff gate is
                // armed — an immediate retry is deferred, not admitted.
                assert_eq!(s.state(), BreakerState::Closed);
                assert_eq!(s.streak(), 2);
                assert!(
                    matches!(s.admit(now), Admission::Deferred { .. }),
                    "backoff gate must defer an immediate retry"
                );
            }
            n => panic!("a Closed breaker past its gate admits the first fetch (got {n} failures)"),
        }
    });
}

// ---------------------------------------------------------------------
// Stale-serve honesty while the breaker is open
// ---------------------------------------------------------------------

const TTL: Duration = Duration::from_millis(10);

#[test]
fn open_breaker_stale_serves_without_running_the_provider() {
    model::check("stale-serve honesty under an open breaker", || {
        let clock = model::virtual_clock();
        let calls = Arc::new(Mutex::new(0u32));
        let c2 = Arc::clone(&calls);
        let si = SystemInformation::new(
            Box::new(FnProvider::new("K", move || {
                let n = {
                    let mut g = c2.lock();
                    *g += 1;
                    *g
                };
                match n {
                    1 => Ok(vec![("v".to_string(), "1".to_string())]),
                    _ => Err(ProviderError::Other("scripted failure".to_string())),
                }
            })),
            clock.clone(),
            TTL,
            // A long linear decay keeps the cached value useful for the
            // whole scenario — stale-serves answer instead of erroring.
            DegradationFn::Linear {
                lifetime: Duration::from_secs(60),
            },
        );
        // Seed the cache, expire it, then trip the breaker with three
        // failed supervised refreshes, each past the previous one's
        // backoff gate.
        let seeded_at = clock.now();
        si.update_state().unwrap();
        for _ in 0..3 {
            clock.advance(Duration::from_millis(100));
            let failed = si.fetch_supervised(None).unwrap();
            assert!(failed.stale, "a failed refresh falls back to stale");
        }
        assert_eq!(si.breaker_state(), BreakerState::Open);
        let executed_when_opened = *calls.lock();

        let mut handles = Vec::new();
        for _ in 0..2 {
            let si = Arc::clone(&si);
            handles.push(model::spawn(move || {
                let snap = si.fetch_supervised(None).unwrap();
                assert!(snap.stale, "an open breaker serves stale-tagged answers");
                assert!(snap.from_cache);
                assert_eq!(
                    snap.produced_at, seeded_at,
                    "stale-serve must keep the true production time"
                );
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(
            *calls.lock(),
            executed_when_opened,
            "an open breaker never runs the provider"
        );
        assert_eq!(si.breaker_state(), BreakerState::Open);
    });
}
