//! Model-checked invariants for each keyword's fault domain: the circuit
//! breaker, the not-before gate and the cache they answer from, all under
//! the entry's one lock.
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
//!   the explorer, and the shipped [`SystemInformation`] must pass the
//!   identical scenario: an open breaker never admits two concurrent
//!   probes into a provider it believes is down.
//! * **Breaker transitions under racing failures** — concurrent failed
//!   refreshes drive the breaker only through legal states: in every
//!   interleaving one fetch runs the provider and books one failure,
//!   and the other finds the backoff armed — never a torn (state,
//!   streak, gate) triple.
//! * **Stale-serve honesty** — while the breaker holds fetches off, a
//!   query never runs the provider and never fabricates freshness:
//!   answers are the last-known-good value, stale-tagged, with the
//!   original `produced_at` preserved.
//! * **Delay × failure** — a failing execution and a concurrent query
//!   under a `delay`: the retry and the query the delay turns away are
//!   no outcome, so the breaker books the one failure and never a
//!   success, and no expired value comes back untagged.
//!
//! Scenarios are re-executed once per schedule, so each closure builds
//! all of its state fresh.

#![cfg(feature = "model")]

use infogram::info::provider::{FnProvider, ProviderError};
use infogram::info::{BreakerState, Cause, DegradationFn, SystemInformation};
use infogram::sim::model;
use infogram::sim::{Clock, ManualClock, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

#[path = "support/model_pair.rs"]
mod model_pair;

const TTL: Duration = Duration::from_millis(10);

/// A query with no `(timeout=…)`.
const QUERY: Cause = Cause::Query { deadline: None };

/// An entry on `clock` whose provider answers its first `healthy` calls
/// and fails every later one; the body is a schedule window (it takes a
/// lock). Returns the entry and its call count.
fn scripted_entry(
    clock: &Arc<ManualClock>,
    healthy: u32,
) -> (Arc<SystemInformation>, Arc<Mutex<u32>>) {
    let calls = Arc::new(Mutex::new(0u32));
    let c2 = Arc::clone(&calls);
    let si = SystemInformation::new(
        Box::new(FnProvider::new("K", move || {
            let n = {
                let mut g = c2.lock();
                *g += 1;
                *g
            };
            if n <= healthy {
                return Ok(vec![("v".to_string(), n.to_string())]);
            }
            Err(ProviderError::Other("scripted failure".to_string()))
        })),
        clock.clone(),
        TTL,
        // A long linear decay keeps the cached value useful for the
        // whole scenario — fallbacks answer instead of erroring.
        DegradationFn::Linear {
            lifetime: Duration::from_secs(60),
        },
    );
    (si, calls)
}

/// Step `clock` to the entry's gate.
fn open_gate(clock: &ManualClock, si: &SystemInformation) {
    clock.set(si.not_before().max(clock.now()));
}

// ---------------------------------------------------------------------
// Seeded regression: probe admission split into check + claim
// ---------------------------------------------------------------------

/// What the fixture's breaker decided for one fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    Execute { probe: bool },
    Deferred,
}

/// The shipped entry claims the half-open probe *inside* the critical
/// section that checks the gate, together with the monitor. This fixture
/// reintroduces the tempting refactor that splits the two (say, to
/// compute the jittered cool-down outside the lock): the eligibility
/// check and the `probing = true` claim become separate lock
/// acquisitions, and two racing fetches can both pass the check before
/// either claims — admitting two concurrent probes.
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
            return Admission::Deferred;
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

/// One provider execution of a probe: it holds an in-flight token while
/// it runs, and two tokens at once is the violation.
fn run_probe(in_flight: &Mutex<u32>) {
    {
        let mut n = in_flight.lock();
        *n += 1;
        assert!(*n <= 1, "two half-open probes admitted concurrently");
    }
    // The probe "runs the provider" here; a second probe admitted
    // meanwhile trips the assertion above.
    *in_flight.lock() -= 1;
}

/// Two fetches race a breaker whose cool-down has just elapsed.
fn probe_race_scenario(fetch: Arc<dyn Fn() + Send + Sync>) {
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let fetch = Arc::clone(&fetch);
            model::spawn(move || fetch())
        })
        .collect();
    for h in handles {
        h.join();
    }
}

#[test]
fn model_finds_seeded_double_probe_bug() {
    let report = model::explore(&model_pair::regression_config(), || {
        let b = Arc::new(BuggyBreaker::tripped(SimTime::from_millis(500)));
        let in_flight = Arc::new(Mutex::new(0u32));
        // The cool-down (500 ms, at most 600 ms with its jitter) is over.
        let now = SimTime::from_millis(700);
        probe_race_scenario(Arc::new(move || {
            if let Admission::Execute { probe: true } = b.admit(now) {
                run_probe(&in_flight);
                b.on_probe_success();
            }
        }));
    });
    model_pair::expect_found(&report, "two half-open probes");
}

#[test]
fn shipped_entry_passes_the_probe_race_scenario() {
    // The shipped entry under the *identical* scenario: the Open→HalfOpen
    // transition claims the monitor in the same critical section that
    // checks the gate, so the second fetch waits for the probe's outcome
    // (or, after the probe already closed the breaker, runs as an
    // ordinary fetch — never beside the probe).
    let report = model::explore(&model_pair::regression_config(), || {
        let clock = model::virtual_clock();
        let in_flight = Arc::new(Mutex::new(0u32));
        let calls = Arc::new(Mutex::new(0u32));
        let (tokens, c2) = (Arc::clone(&in_flight), Arc::clone(&calls));
        let si = SystemInformation::new(
            Box::new(FnProvider::new("K", move || {
                let n = {
                    let mut g = c2.lock();
                    *g += 1;
                    *g
                };
                // Three failed fetches of three executions trip it;
                // every later execution is healthy.
                if n <= 9 {
                    return Err(ProviderError::Other("down".to_string()));
                }
                run_probe(&tokens);
                Ok(vec![("v".to_string(), "1".to_string())])
            })),
            clock.clone(),
            TTL,
            DegradationFn::default(),
        );
        while si.breaker_state() != BreakerState::Open {
            let _ = si.refresh(Cause::Scheduled);
            open_gate(&clock, &si);
        }
        let si2 = Arc::clone(&si);
        probe_race_scenario(Arc::new(move || {
            let _ = si2.refresh(Cause::Scheduled);
        }));
        assert_eq!(si.breaker_state(), BreakerState::Closed);
    });
    model_pair::expect_cleared(&report);
}

// ---------------------------------------------------------------------
// Breaker-transition invariants under racing failures
// ---------------------------------------------------------------------

#[test]
fn racing_failures_leave_the_breaker_in_a_consistent_state() {
    model::check("breaker transitions under racing failures", || {
        // One failed fetch already on the streak and its backoff passed:
        // the next failed fetches are the second and the third (trip).
        let clock = model::virtual_clock();
        let (si, calls) = scripted_entry(&clock, 0);
        let _ = si.refresh(Cause::Scheduled);
        assert_eq!(si.failure_streak(), 1);
        open_gate(&clock, &si);
        let before = *calls.lock();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let si = Arc::clone(&si);
                model::spawn(move || {
                    let result = si.refresh(Cause::Scheduled);
                    assert!(result.is_err(), "nothing to degrade to: {result:?}");
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        // A fetch holds the monitor through its retries and books its
        // failure before it lets go, so the racing fetch either waits for
        // it or arrives after it, and finds the backoff armed either way:
        // one fetch ran the provider, and it booked one failure.
        assert_eq!(
            (si.breaker_state(), si.failure_streak()),
            (BreakerState::Closed, 2),
            "the second failure, sub-threshold"
        );
        assert_eq!(*calls.lock() - before, 3, "one fetch: 1 + 2 retries");
        assert!(
            si.not_before() > clock.now(),
            "a failed fetch leaves the gate shut"
        );
    });
}

// ---------------------------------------------------------------------
// Stale-serve honesty while the breaker is open
// ---------------------------------------------------------------------

#[test]
fn open_breaker_stale_serves_without_running_the_provider() {
    model::check("stale-serve honesty under an open breaker", || {
        let clock = model::virtual_clock();
        let (si, calls) = scripted_entry(&clock, 1);
        // Seed the cache, expire it, then trip the breaker with three
        // failed refreshes, each past the previous one's backoff.
        let seeded_at = clock.now();
        si.update_state().unwrap();
        for _ in 0..3 {
            clock.advance(Duration::from_millis(100));
            let failed = si.refresh(QUERY).unwrap();
            assert!(failed.stale, "a failed refresh falls back to stale");
        }
        assert_eq!(si.breaker_state(), BreakerState::Open);
        let executed_when_opened = *calls.lock();

        let mut handles = Vec::new();
        for _ in 0..2 {
            let si = Arc::clone(&si);
            handles.push(model::spawn(move || {
                let snap = si.refresh(QUERY).unwrap();
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

// ---------------------------------------------------------------------
// A delay beside a failing provider
// ---------------------------------------------------------------------

#[test]
fn a_delay_beside_a_failure_books_no_success_and_tags_every_expired_answer() {
    const DELAY: Duration = Duration::from_millis(50);
    model::check("delay x failure", || {
        let clock = model::virtual_clock();
        let (si, calls) = scripted_entry(&clock, 1);
        si.set_delay(DELAY);
        let seeded_at = clock.now();
        si.update_state().unwrap();
        // Past the TTL and the delay: the next execution may start, and
        // it fails.
        clock.advance(Duration::from_millis(100));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let si = Arc::clone(&si);
                model::spawn(move || {
                    let snap = si.refresh(QUERY).unwrap();
                    assert!(
                        snap.from_cache && snap.stale,
                        "an expired value served untagged: {snap:?}"
                    );
                    assert_eq!(snap.produced_at, seeded_at);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(*calls.lock(), 2, "the delay admits one execution");
        assert_eq!(
            (si.breaker_state(), si.failure_streak()),
            (BreakerState::Closed, 1),
            "the failure is booked, the throttled attempts are not"
        );
    });
}
