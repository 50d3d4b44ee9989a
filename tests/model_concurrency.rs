//! Model-checked invariants for the InfoGram concurrency core.
//!
//! Runs only with `--features model` (`scripts/check_model.sh`): each
//! test hands a small multi-threaded scenario to the schedule explorer
//! in `infogram_sim::model`, which re-executes it under every bounded
//! interleaving of its synchronization points on the virtual clock.
//!
//! Checked invariants (see DESIGN.md §9):
//!
//! * **Coalescing generation** — concurrent `updateState` calls collapse
//!   into at most as many provider executions as callers, every caller
//!   gets a result, and a coalesced (cache-served) result is never
//!   expired at the moment it is returned.
//! * **Stale-waiter regression (seeded)** — a fixture reintroducing the
//!   pre-fix monitor bug (a waiter woken after a *failed* in-flight
//!   refresh blindly reuses the old cached value, with no generation or
//!   TTL check) must be *caught* by the explorer, and the shipped
//!   `SystemInformation` must pass the identical scenario.
//! * **Throttle delay** — once a value is cached, two real provider
//!   executions never start less than `delay` apart on the clock.
//! * **COW registry** — concurrent registration and lookup never tear:
//!   readers always see a consistent snapshot containing every entry
//!   registered before their read began.
//!
//! Scenarios are re-executed once per schedule, so each closure builds
//! all of its state fresh.

#![cfg(feature = "model")]

use infogram::info::provider::{FnProvider, ProviderError};
use infogram::info::{DegradationFn, InformationService, SystemInformation};
use infogram::sim::metrics::MetricSet;
use infogram::sim::model;
use infogram::sim::{Clock, ManualClock, SharedClock, SimTime};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::Duration;

#[path = "support/model_pair.rs"]
mod model_pair;

const TTL: Duration = Duration::from_millis(10);

/// A provider that replays a script: call 1 caches v=1, call 2 expires
/// the cache (advances the clock past the TTL) and *fails*, later calls
/// succeed with v=3. The shape that exposed the stale-waiter bug.
fn scripted_fail_second(
    clock: Arc<ManualClock>,
) -> (
    Arc<Mutex<u32>>,
    impl Fn() -> Result<u64, ProviderError> + Send + Sync,
) {
    let calls = Arc::new(Mutex::new(0u32));
    let c2 = Arc::clone(&calls);
    let produce = move || {
        let n = {
            let mut g = c2.lock();
            *g += 1;
            *g
        };
        match n {
            1 => Ok(1),
            2 => {
                // The in-flight refresh takes long enough for the old
                // value to expire, then fails.
                clock.advance(Duration::from_millis(20));
                Err(ProviderError::Other("scripted failure".to_string()))
            }
            _ => Ok(3),
        }
    };
    (calls, produce)
}

// ---------------------------------------------------------------------
// Seeded regression: the pre-fix entry monitor, reintroduced verbatim
// ---------------------------------------------------------------------

/// The PR 3 stale-waiter bug as a self-contained fixture: the monitor
/// waits on `updating` only, and a woken waiter blindly serves whatever
/// is cached — no generation bump check, no TTL check. The explorer
/// must find the schedule where the in-flight update fails after the
/// cached value expired, handing the waiter a stale result.
// Note: no `ttl` field — the bug is precisely that the waiter path never
// consults one (the scenario's assertion supplies the TTL judgment).
struct BuggyEntry<P> {
    provider: P,
    clock: SharedClock,
    state: Mutex<BuggyState>,
    update_done: Condvar,
}

#[derive(Default)]
struct BuggyState {
    cached: Option<(u64, SimTime)>,
    updating: bool,
}

impl<P: Fn() -> Result<u64, ProviderError>> BuggyEntry<P> {
    fn new(provider: P, clock: SharedClock) -> Self {
        BuggyEntry {
            provider,
            clock,
            state: Mutex::new(BuggyState::default()),
            update_done: Condvar::new(),
        }
    }

    /// `(value, produced_at, from_cache)` — or the provider's error.
    fn update_state(&self) -> Result<(u64, SimTime, bool), ProviderError> {
        loop {
            let mut st = self.state.lock();
            if st.updating {
                self.update_done.wait(&mut st);
                // BUG (reintroduced): reuse the cached value without
                // checking whether the in-flight update succeeded or
                // whether the value is still within its TTL.
                if let Some((v, at)) = st.cached {
                    return Ok((v, at, true));
                }
                continue;
            }
            st.updating = true;
            drop(st);
            let result = (self.provider)();
            let mut st = self.state.lock();
            st.updating = false;
            self.update_done.notify_all();
            return match result {
                Ok(v) => {
                    let at = self.clock.now();
                    st.cached = Some((v, at));
                    Ok((v, at, false))
                }
                Err(e) => Err(e),
            };
        }
    }
}

#[test]
fn model_finds_seeded_stale_waiter_bug() {
    let report = model::explore(&model_pair::regression_config(), || {
        let clock = model::virtual_clock();
        let (_calls, produce) = scripted_fail_second(Arc::clone(&clock));
        let entry = Arc::new(BuggyEntry::new(produce, clock.clone() as SharedClock));
        // Seed the cache with v=1.
        entry.update_state().unwrap();
        let mut handles = Vec::new();
        for _ in 0..2 {
            let entry = Arc::clone(&entry);
            let clock = Arc::clone(&clock);
            handles.push(model::spawn(move || {
                if let Ok((_v, produced_at, from_cache)) = entry.update_state() {
                    let age = clock.now().since(produced_at);
                    assert!(
                        !from_cache || age < TTL,
                        "stale value served to coalesced waiter (age {age:?} >= ttl {TTL:?})"
                    );
                }
            }));
        }
        for h in handles {
            h.join();
        }
    });
    model_pair::expect_found(&report, "stale value served");
}

#[test]
fn fixed_entry_passes_the_stale_waiter_scenario() {
    // The shipped SystemInformation under the *identical* scenario: the
    // generation check makes the woken waiter notice the failed refresh,
    // fall back only to a TTL-valid value, and otherwise retry.
    let report = model::explore(&model_pair::regression_config(), || {
        let clock = model::virtual_clock();
        let (_calls, produce) = scripted_fail_second(Arc::clone(&clock));
        let si = SystemInformation::new(
            Box::new(FnProvider::new("K", move || {
                produce().map(|v| vec![("v".to_string(), v.to_string())])
            })),
            clock.clone(),
            TTL,
            DegradationFn::default(),
        );
        si.update_state().unwrap();
        let mut handles = Vec::new();
        for _ in 0..2 {
            let si = Arc::clone(&si);
            let clock = Arc::clone(&clock);
            handles.push(model::spawn(move || {
                if let Ok(snap) = si.update_state() {
                    let age = clock.now().since(snap.produced_at);
                    assert!(
                        !snap.from_cache || age < TTL,
                        "stale value served to coalesced waiter (age {age:?} >= ttl {TTL:?})"
                    );
                }
            }));
        }
        for h in handles {
            h.join();
        }
    });
    model_pair::expect_cleared(&report);
}

// ---------------------------------------------------------------------
// Coalescing-generation invariant
// ---------------------------------------------------------------------

#[test]
fn coalescing_monitor_invariants_hold() {
    model::check("coalescing generation", || {
        let clock = model::virtual_clock();
        let calls = Arc::new(Mutex::new(0u32));
        let c2 = Arc::clone(&calls);
        let si = SystemInformation::new(
            Box::new(FnProvider::new("K", move || {
                // The lock makes the provider's body a schedule window,
                // so waiters can arrive while an update is in flight.
                let mut n = c2.lock();
                *n += 1;
                Ok(vec![("n".to_string(), n.to_string())])
            })),
            clock.clone(),
            Duration::from_secs(60),
            DegradationFn::default(),
        );
        let mut handles = Vec::new();
        for _ in 0..2 {
            let si = Arc::clone(&si);
            let clock = Arc::clone(&clock);
            handles.push(model::spawn(move || {
                let snap = si.update_state().unwrap();
                let age = clock.now().since(snap.produced_at);
                assert!(
                    age < Duration::from_secs(60),
                    "returned snapshot already expired"
                );
            }));
        }
        for h in handles {
            h.join();
        }
        let executed = *calls.lock();
        assert!(
            (1..=2).contains(&executed),
            "2 callers must cause 1 or 2 executions, got {executed}"
        );
        assert_eq!(si.execution_count(), u64::from(executed));
    });
}

// ---------------------------------------------------------------------
// Throttle-delay invariant
// ---------------------------------------------------------------------

#[test]
fn throttle_delay_spaces_real_executions() {
    const DELAY: Duration = Duration::from_millis(50);
    model::check("throttle delay", || {
        let clock = model::virtual_clock();
        let starts: Arc<Mutex<Vec<SimTime>>> = Arc::new(Mutex::new(Vec::new()));
        let (s2, c2) = (Arc::clone(&starts), Arc::clone(&clock));
        let si = SystemInformation::new(
            Box::new(FnProvider::new("K", move || {
                s2.lock().push(c2.now());
                Ok(vec![("v".to_string(), "1".to_string())])
            })),
            clock.clone(),
            Duration::from_secs(60),
            DegradationFn::default(),
        );
        si.set_delay(DELAY);
        // Seed the cache; the delay gate only applies once a value exists.
        si.update_state().unwrap();
        let t1 = {
            let si = Arc::clone(&si);
            // May be throttled to the cached value or — if the sibling
            // thread advances the clock past the window first — execute
            // for real; either way the spacing invariant below holds.
            model::spawn(move || {
                si.update_state().unwrap();
            })
        };
        let t2 = {
            let si = Arc::clone(&si);
            let clock = Arc::clone(&clock);
            model::spawn(move || {
                clock.advance(Duration::from_millis(60));
                si.update_state().unwrap();
            })
        };
        t1.join();
        t2.join();
        let starts = starts.lock();
        for pair in starts.windows(2) {
            let gap = pair[1].since(pair[0]);
            assert!(
                gap >= DELAY,
                "real executions {pair:?} started {gap:?} apart, under the {DELAY:?} delay"
            );
        }
    });
}

// ---------------------------------------------------------------------
// COW registry consistency
// ---------------------------------------------------------------------

fn keyword_entry(keyword: &str, clock: &Arc<ManualClock>) -> Arc<SystemInformation> {
    let kw = keyword.to_string();
    SystemInformation::new(
        Box::new(FnProvider::new(keyword, move || {
            Ok(vec![("kw".to_string(), kw.clone())])
        })),
        clock.clone(),
        Duration::from_secs(60),
        DegradationFn::default(),
    )
}

#[test]
fn cow_registry_lookups_never_tear() {
    model::check("COW registry", || {
        let clock = model::virtual_clock();
        let svc = InformationService::new("model-host", clock.clone(), MetricSet::new());
        svc.register(keyword_entry("base", &clock));
        let writer = {
            let svc = Arc::clone(&svc);
            let clock = Arc::clone(&clock);
            model::spawn(move || {
                svc.register(keyword_entry("extra", &clock));
            })
        };
        let reader = {
            let svc = Arc::clone(&svc);
            model::spawn(move || {
                // A concurrent reader must always see a consistent
                // snapshot: "base" was registered before either thread
                // started, so it can never be missing — whatever the
                // interleaving with the concurrent register().
                assert!(
                    svc.lookup("base").is_some(),
                    "pre-registered entry vanished"
                );
                let kws = svc.keywords();
                assert!(
                    kws.iter().any(|k| k == "base"),
                    "snapshot lost a committed entry: {kws:?}"
                );
                assert!(kws.len() <= 2, "snapshot invented entries: {kws:?}");
            })
        };
        writer.join();
        reader.join();
        // After both joined, the writer's entry is visible.
        assert!(svc.lookup("extra").is_some());
        assert_eq!(svc.entries().len(), 2);
    });
}
