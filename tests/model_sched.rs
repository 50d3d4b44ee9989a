//! Model-checked invariants for the adaptive refresh scheduler.
//!
//! Runs only with `--features model` (`scripts/check_model.sh`): each
//! test hands a small multi-threaded scenario to the schedule explorer
//! in `infogram_sim::model`, which re-executes it under every bounded
//! interleaving of its synchronization points on the virtual clock.
//!
//! Checked invariants (see DESIGN.md §11):
//!
//! * **No lost wakeups, no double-enqueue (seeded)** — a fixture
//!   reintroducing the tempting refactor bug (an in-flight refresh
//!   reschedules *unconditionally*, without the epoch check guarding
//!   against a concurrent re-watch) must be *caught* by the explorer,
//!   and the shipped [`RefreshScheduler`] must pass the identical
//!   scenario: after any interleaving of `tick` and `watch`, the
//!   keyword has exactly one pending wheel entry — never zero (a lost
//!   wakeup) and never two (a self-inflicted refresh storm).
//! * **No refresh storm under concurrent ticks** — two racing `tick`
//!   calls refresh a due keyword exactly once; the wheel's pop is the
//!   mutual exclusion, not luck.
//! * **Breaker-open never busy-loops** — when the provider is tripped,
//!   a parked keyword's next deadline is strictly in the future, so no
//!   sequence of ticks at a standing clock re-executes the provider.
//!
//! Scenarios are re-executed once per schedule, so each closure builds
//! all of its state fresh.

#![cfg(feature = "model")]

use infogram::info::provider::{FnProvider, ProviderError};
use infogram::info::{
    BreakerState, Cause, DegradationFn, RefreshScheduler, SubscriptionHub, SystemInformation,
};
use infogram::sim::metrics::MetricSet;
use infogram::sim::model;
use infogram::sim::timer::{Ticket, TimerWheel};
use infogram::sim::{Clock, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

#[path = "support/model_pair.rs"]
mod model_pair;

const TTL: Duration = Duration::from_millis(100);

/// A watched entry over a call-counting provider. `fail` scripts the
/// provider to always fail transiently (for the breaker scenarios).
fn counting_entry(
    clock: infogram::sim::clock::SharedClock,
    fail: bool,
) -> (Arc<SystemInformation>, Arc<Mutex<u32>>) {
    let calls = Arc::new(Mutex::new(0u32));
    let c2 = Arc::clone(&calls);
    let si = SystemInformation::new(
        Box::new(FnProvider::new("K", move || {
            *c2.lock() += 1;
            if fail {
                Err(ProviderError::Other("scripted failure".to_string()))
            } else {
                Ok(vec![("v".to_string(), "1".to_string())])
            }
        })),
        clock,
        TTL,
        DegradationFn::Linear {
            lifetime: Duration::from_secs(60),
        },
    );
    (si, calls)
}

fn sched_on(clock: infogram::sim::clock::SharedClock) -> Arc<RefreshScheduler> {
    let hub = SubscriptionHub::new("node0.grid", MetricSet::new());
    RefreshScheduler::new(clock, MetricSet::new(), hub)
}

// ---------------------------------------------------------------------
// Seeded regression: in-flight refresh reschedules without an epoch check
// ---------------------------------------------------------------------

/// The shipped scheduler stamps every watch with an epoch and lets an
/// in-flight refresh reschedule only if its epoch still matches. This
/// fixture reintroduces the tempting simplification — "the flight popped
/// the only ticket, so it can just reschedule when it's done": between
/// the pop and the reschedule, a concurrent re-watch (whose cancel finds
/// no ticket to cancel — the flight holds it implicitly) enqueues its
/// own entry, and the completing flight enqueues a second one. The
/// keyword now refreshes twice per period, forever.
struct BuggySched {
    state: Mutex<BuggyState>,
}

struct BuggyState {
    wheel: TimerWheel<String>,
    ticket: Option<Ticket>,
}

impl BuggySched {
    /// One keyword ("k") watched and already due at `at`.
    fn watched(at: SimTime) -> Self {
        let mut wheel = TimerWheel::new();
        let ticket = wheel.schedule(at, "k".to_string());
        BuggySched {
            state: Mutex::new(BuggyState {
                wheel,
                ticket: Some(ticket),
            }),
        }
    }

    /// Pop the due keyword, "run the provider" outside the lock, then
    /// reschedule. BUG (reintroduced): the reschedule is unconditional —
    /// no epoch check — so it stacks on top of a concurrent re-watch.
    fn tick(&self, now: SimTime) {
        let popped = {
            let mut g = self.state.lock();
            g.wheel.pop_due(now).map(|d| {
                g.ticket = None;
                d.item
            })
        };
        if let Some(key) = popped {
            // The provider runs here, lock released.
            let mut g = self.state.lock();
            g.ticket = Some(g.wheel.schedule(now.plus(TTL), key));
        }
    }

    /// Re-watch: supersede the previous schedule.
    fn rewatch(&self, now: SimTime) {
        let mut g = self.state.lock();
        if let Some(t) = g.ticket.take() {
            g.wheel.cancel(t);
        }
        g.ticket = Some(g.wheel.schedule(now.plus(TTL), "k".to_string()));
    }
}

#[test]
fn model_finds_seeded_double_enqueue_bug() {
    let report = model::explore(&model_pair::regression_config(), || {
        let s = Arc::new(BuggySched::watched(SimTime::ZERO));
        let now = SimTime::from_millis(100);
        let s1 = Arc::clone(&s);
        let s2 = Arc::clone(&s);
        let a = model::spawn(move || s1.tick(now));
        let b = model::spawn(move || s2.rewatch(now));
        a.join();
        b.join();
        let pending = s.state.lock().wheel.len();
        assert_eq!(
            pending, 1,
            "a superseded in-flight refresh must not re-enqueue: {pending} entries for one keyword"
        );
    });
    model_pair::expect_found(&report, "must not re-enqueue");
}

#[test]
fn shipped_scheduler_passes_the_rewatch_race_scenario() {
    // The shipped RefreshScheduler under the identical race: `tick` pops
    // the due keyword and runs the refresh off-lock while `watch`
    // re-watches it. The epoch stamped at watch time and re-checked at
    // flight completion makes every interleaving land in the same state:
    // one watched keyword, one pending wheel entry.
    //
    // Within two preemptions the space is exhausted (361 schedules). The
    // unbounded run does not finish in its 50 000 executions, but it
    // reaches schedules with three or more preemptions, so it runs too.
    let bounded = model::explore(&model_pair::bounded_config(), rewatch_race);
    model_pair::expect_cleared(&bounded);
    let unbounded = model::explore(&model_pair::regression_config(), rewatch_race);
    assert!(
        unbounded.violation.is_none(),
        "the shipped RefreshScheduler must survive every schedule: {:?}",
        unbounded.violation
    );
}

fn rewatch_race() {
    let clock = model::virtual_clock();
    let (si, calls) = counting_entry(clock.clone(), false);
    let sched = sched_on(clock.clone());
    sched.watch(Arc::clone(&si)).unwrap();

    let s1 = Arc::clone(&sched);
    let s2 = Arc::clone(&sched);
    let si2 = Arc::clone(&si);
    let a = model::spawn(move || {
        s1.tick();
    });
    let b = model::spawn(move || {
        s2.watch(si2).unwrap();
    });
    a.join();
    b.join();

    assert_eq!(sched.watched(), 1);
    assert_eq!(
        sched.pending(),
        1,
        "exactly one pending entry per keyword — no lost wakeup, no double-enqueue"
    );
    assert_eq!(*calls.lock(), 1, "the race runs the provider exactly once");

    // The surviving entry is live: one full period later, exactly one
    // more refresh happens (a lost wakeup would run zero; a
    // double-enqueue would run two).
    clock.advance(TTL + TTL);
    sched.tick();
    assert_eq!(
        *calls.lock(),
        2,
        "the keyword keeps refreshing after the race"
    );
}

// ---------------------------------------------------------------------
// No refresh storm under concurrent ticks
// ---------------------------------------------------------------------

#[test]
fn concurrent_ticks_refresh_a_due_keyword_exactly_once() {
    model::check("refresh storm under concurrent ticks", || {
        let clock = model::virtual_clock();
        let (si, calls) = counting_entry(clock.clone(), false);
        let sched = sched_on(clock.clone());
        sched.watch(si).unwrap();

        let mut handles = Vec::new();
        for _ in 0..2 {
            let sched = Arc::clone(&sched);
            handles.push(model::spawn(move || {
                sched.tick();
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(
            *calls.lock(),
            1,
            "each due keyword is popped — and refreshed — by exactly one tick"
        );
        assert_eq!(sched.pending(), 1);

        // And at most once per period afterwards.
        clock.advance(TTL + TTL);
        sched.tick();
        sched.tick(); // same instant: nothing further is due
        assert_eq!(*calls.lock(), 2, "one refresh per period, not more");
    });
}

// ---------------------------------------------------------------------
// Breaker-open keywords park; they never busy-loop
// ---------------------------------------------------------------------

#[test]
fn tripped_provider_parks_with_a_future_deadline() {
    model::check("breaker-open keyword never busy-loops", || {
        let clock = model::virtual_clock();
        let (si, calls) = counting_entry(clock.clone(), true);
        // Two failed fetches already on the streak, their backoff gate
        // passed: the next failed refresh is the third, which trips.
        for _ in 0..2 {
            assert!(si.refresh(Cause::Scheduled).is_err());
            clock.advance(Duration::from_secs(1));
        }
        *calls.lock() = 0;
        let sched = sched_on(clock.clone());
        sched.watch(Arc::clone(&si)).unwrap();

        // Two racing ticks: one claims the due keyword and burns its
        // budget of 1 + 2 retries; the other must not double-execute.
        let mut handles = Vec::new();
        for _ in 0..2 {
            let sched = Arc::clone(&sched);
            handles.push(model::spawn(move || {
                sched.tick();
            }));
        }
        for h in handles {
            h.join();
        }
        assert_eq!(*calls.lock(), 3, "one bounded refresh, no pile-on");
        assert_eq!(si.breaker_state(), BreakerState::Open);
        assert_eq!(sched.watched(), 1, "transient failures never evict");
        let deadline = sched
            .next_deadline()
            .expect("a parked keyword stays scheduled");
        assert!(
            deadline > clock.now(),
            "parked strictly past the cool-down — ticking at a standing clock must be a no-op"
        );

        // The no-busy-loop guarantee, executed: any number of ticks at
        // the standing clock run the provider zero more times.
        for _ in 0..3 {
            sched.tick();
        }
        assert_eq!(*calls.lock(), 3, "an open breaker is never hot-looped");
    });
}
