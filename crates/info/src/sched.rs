//! Adaptive refresh scheduling driven by the §6.6 performance tag.
//!
//! The paper's service refreshes keywords *reactively*: a query arriving
//! after TTL expiry blocks on `updateState`, so steady traffic on a hot
//! keyword takes one guaranteed miss every TTL period, while idle
//! keywords are refreshed for nobody whenever a stray probe lands. The
//! [`RefreshScheduler`] replaces that with a central plan built from two
//! signals the system already measures:
//!
//! * the **performance catalog** (§6.6) — per-keyword mean/stddev of
//!   provider execution time, via
//!   [`SystemInformation::average_update_time`];
//! * the **query arrival rate** — the interned `info.hits.<kw>` /
//!   `info.misses.<kw>` counters the service already bumps per query,
//!   diffed between scheduler visits so the query hot path pays nothing
//!   for demand tracking.
//!
//! From these it maintains one [`TimerWheel`] over all watched keywords:
//!
//! * **prefetch** — a hot keyword's refresh is scheduled a *lead* of
//!   `mean + 2 × stddev` before its TTL expires, so the fresh
//!   value lands just as the old one dies and steady traffic never
//!   misses;
//! * **skip** — a keyword with zero queries since its last visit is
//!   cold: its refresh is skipped and a demand check is pushed one TTL
//!   out (`sched.skipped`);
//! * **batch** — co-expiring refreshes dispatch through one
//!   [`fan_out`], capped at eight per tick with the *highest* predicted
//!   staleness cost refreshed first;
//! * **park** — a keyword whose supervisor is holding the provider
//!   closed (breaker open, backoff gate armed) is rescheduled past the
//!   gate via the non-mutating [`Supervisor::retry_hint`] peek — the
//!   scheduler never hot-loops a broken provider and never steals the
//!   half-open probe from real queries;
//! * **evict** — a keyword whose provider fails *non-transiently*
//!   (an unknown command) leaves the queue entirely
//!   (`sched.evicted`); refreshing a config error forever is the one
//!   thing strictly worse than a cache miss.
//!
//! The scheduler is **tick-driven**: [`RefreshScheduler::tick`] pops
//! whatever is due at `clock.now()` and returns the next deadline, so
//! the same code runs under a [`ManualClock`](infogram_sim::ManualClock)
//! in deterministic tests, under the model checker (see
//! `tests/model_sched.rs`), and behind a trivial sleep-loop driver on
//! the system clock (see `examples/scheduler.rs`). Nothing here spawns
//! threads or sleeps.
//!
//! [`Supervisor::retry_hint`]: crate::supervisor::Supervisor::retry_hint

use crate::entry::{QueryError, Snapshot, SystemInformation};
use crate::service::{InformationService, KeywordMetrics};
use crate::sub::SubscriptionHub;
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::{Counter, Gauge, Histogram, MetricSet};
use infogram_sim::timer::{Ticket, TimerWheel};
use infogram_sim::{fan_out, SimTime};
use parking_lot::{lock_class, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The prefetch lead is `mean + LEAD_SIGMA × stddev` of the keyword's
/// observed provider latency (the §6.6 performance tag).
const LEAD_SIGMA: f64 = 2.0;
/// Floor on the lead, which applies while a keyword has no samples yet.
const MIN_LEAD: Duration = Duration::from_millis(1);
/// Ceiling on the lead as a fraction of the TTL, so that a pathological
/// latency estimate cannot collapse the refresh period to zero.
const MAX_LEAD_FRACTION: f64 = 0.5;
/// The refresh-storm guard: no keyword, parked, failed or deferred, is
/// rescheduled closer than this.
const MIN_INTERVAL: Duration = Duration::from_millis(10);
/// Refreshes dispatched per tick (one `sim::par` fan-out), the highest
/// predicted staleness cost first; the rest wait one [`MIN_INTERVAL`].
const MAX_BATCH: usize = 8;

/// Why [`RefreshScheduler::watch`] refused a keyword.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchError {
    /// TTL-0 keywords execute on every request by definition (Table 1:
    /// "0 specifies execution of the keyword every time it is
    /// requested") — a prefetched value would be unservable, so they
    /// are never enqueued.
    TtlZero,
}

impl std::fmt::Display for WatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchError::TtlZero => write!(f, "TTL-0 keywords are never prefetched"),
        }
    }
}

impl std::error::Error for WatchError {}

/// What one [`RefreshScheduler::tick`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Keywords refreshed (provider executed, fresh value cached).
    pub refreshed: usize,
    /// Cold keywords whose refresh was skipped for lack of demand.
    pub skipped: usize,
    /// Keywords parked behind their supervisor's breaker/backoff gate.
    pub parked: usize,
    /// Keywords evicted after a non-transient (config) provider error.
    pub evicted: usize,
    /// Due keywords pushed to the next tick by the batch cap.
    pub deferred: usize,
    /// When the wheel next has work, if any keywords remain watched.
    pub next_deadline: Option<SimTime>,
}

/// Interned scheduler instruments (see the README operator guide).
struct SchedTelemetry {
    prefetches: Arc<Counter>,
    skipped: Arc<Counter>,
    parked: Arc<Counter>,
    evicted: Arc<Counter>,
    deferred: Arc<Counter>,
    batch_size: Arc<Histogram>,
    watched: Arc<Gauge>,
}

impl SchedTelemetry {
    fn intern(metrics: &MetricSet) -> Self {
        SchedTelemetry {
            prefetches: metrics.counter("sched.prefetches"),
            skipped: metrics.counter("sched.skipped"),
            parked: metrics.counter("sched.parked"),
            evicted: metrics.counter("sched.evicted"),
            deferred: metrics.counter("sched.deferred"),
            batch_size: metrics.histogram("sched.batch_size"),
            watched: metrics.gauge("sched.watched"),
        }
    }
}

/// One watched keyword's scheduling state.
struct Tracked {
    si: Arc<SystemInformation>,
    /// The service's interned per-keyword query counters, diffed between
    /// visits for demand; `None` (no service wiring) disables the
    /// cold-skip gate for this keyword.
    km: Option<KeywordMetrics>,
    /// The pending wheel entry; `None` only while a tick has the
    /// keyword in flight (popped, not yet rescheduled).
    ticket: Option<Ticket>,
    /// Guards against a stale in-flight tick rescheduling a keyword
    /// that was re-watched or evicted meanwhile: bumped on every watch,
    /// compared at completion.
    epoch: u64,
    /// `hits + misses` observed at the previous visit.
    seen_queries: u64,
    /// When the previous visit happened (demand-rate denominator).
    last_visit: SimTime,
    /// Whether the first scheduled refresh already ran — the demand
    /// gate only applies after it, so a newly watched keyword always
    /// gets its cache seeded.
    primed: bool,
    /// Most recent demand estimate, queries/second.
    demand_rate: f64,
    /// `sched.staleness.<kw>` — predicted staleness cost.
    staleness: Arc<Gauge>,
}

struct SchedState {
    wheel: TimerWheel<String>,
    tracked: BTreeMap<String, Tracked>,
    next_epoch: u64,
}

/// A keyword popped off the wheel and bound for the refresh fan-out.
struct InFlight {
    key: String,
    epoch: u64,
    si: Arc<SystemInformation>,
    cost: f64,
}

/// The central refresh scheduler. See the [module docs](self).
pub struct RefreshScheduler {
    clock: SharedClock,
    metrics: MetricSet,
    telemetry: SchedTelemetry,
    state: Mutex<SchedState>,
    /// Push-subscription fan-out target (see [`SubscriptionHub`]):
    /// every successful refresh is forwarded here *after* the state
    /// lock drops, and a subscribed keyword counts as standing demand
    /// for the cold-skip gate.
    hub: Mutex<Option<Arc<SubscriptionHub>>>,
}

impl std::fmt::Debug for RefreshScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RefreshScheduler")
            .field("watched", &self.watched())
            .finish_non_exhaustive()
    }
}

impl RefreshScheduler {
    /// A scheduler with no watched keywords. `metrics` receives the
    /// `sched.*` instruments; pass the service's own set so
    /// `(info=metrics)` surfaces them.
    pub fn new(clock: SharedClock, metrics: MetricSet) -> Arc<Self> {
        let telemetry = SchedTelemetry::intern(&metrics);
        Arc::new(RefreshScheduler {
            clock,
            metrics,
            telemetry,
            state: Mutex::with_class(
                SchedState {
                    wheel: TimerWheel::new(),
                    tracked: BTreeMap::new(),
                    next_epoch: 0,
                },
                lock_class!("info.sched.state"),
            ),
            hub: Mutex::with_class(None, lock_class!("info.sched.hub")),
        })
    }

    /// Wire a [`SubscriptionHub`]: from now on every successful refresh
    /// fans out to the keyword's subscribers, and a keyword with live
    /// subscribers is never cold-skipped (a subscription is standing
    /// demand — the subscriber already asked for every future value).
    pub fn set_hub(&self, hub: Arc<SubscriptionHub>) {
        *self.hub.lock() = Some(hub);
    }

    /// Number of keywords currently watched.
    pub fn watched(&self) -> usize {
        self.state.lock().tracked.len()
    }

    /// Whether a keyword is already on the wheel (case-insensitive).
    /// Lets a subscribe avoid re-watching — which would reset the
    /// keyword's schedule and demand history.
    pub fn is_watched(&self, keyword: &str) -> bool {
        self.state
            .lock()
            .tracked
            .contains_key(&keyword.to_ascii_lowercase())
    }

    /// When the wheel next has work, if anything is watched.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.state.lock().wheel.next_deadline()
    }

    /// Number of pending wheel entries. When no tick is in flight this
    /// equals [`watched`](Self::watched) — exactly one pending entry per
    /// keyword, never zero (a lost wakeup) and never two (a refresh
    /// storm). The model scenarios in `tests/model_sched.rs` check that
    /// invariant across interleavings.
    pub fn pending(&self) -> usize {
        self.state.lock().wheel.len()
    }

    /// Watch one entry, optionally wired to the service's per-keyword
    /// query counters (without them the cold-skip gate is off for this
    /// keyword — demand cannot be observed).
    ///
    /// TTL-0 entries are refused with [`WatchError::TtlZero`].
    /// Re-watching a keyword supersedes its previous schedule; an
    /// in-flight refresh from the old schedule completes but no longer
    /// reschedules.
    pub fn watch(
        &self,
        si: Arc<SystemInformation>,
        km: Option<KeywordMetrics>,
    ) -> Result<(), WatchError> {
        if si.ttl().is_zero() {
            return Err(WatchError::TtlZero);
        }
        let now = self.clock.now();
        // First due time: the remaining validity minus the prefetch
        // lead. A never-produced entry has zero validity — it is due
        // immediately, and the first tick seeds its cache.
        let lead = Self::lead_for(&si);
        let due = now.plus(si.validity().saturating_sub(lead));
        let seen = km.as_ref().map_or(0, |k| k.hits.get() + k.misses.get());
        let staleness = self
            .metrics
            .gauge(&format!("sched.staleness.{}", si.keyword()));
        let key = si.keyword().to_ascii_lowercase();
        let mut st = self.state.lock();
        if let Some(old) = st.tracked.remove(&key) {
            if let Some(t) = old.ticket {
                st.wheel.cancel(t);
            }
        }
        let epoch = st.next_epoch;
        st.next_epoch += 1;
        let ticket = st.wheel.schedule(due, key.clone());
        st.tracked.insert(
            key,
            Tracked {
                si,
                km,
                ticket: Some(ticket),
                epoch,
                seen_queries: seen,
                last_visit: now,
                primed: false,
                demand_rate: 0.0,
                staleness,
            },
        );
        self.telemetry.watched.set(st.tracked.len() as f64);
        Ok(())
    }

    /// Watch every eligible (TTL > 0) keyword of a service, wiring each
    /// to the service's interned query counters. Returns how many were
    /// enqueued; TTL-0 keywords (e.g. the `Metrics:` provider) are
    /// silently left to on-demand execution.
    pub fn watch_service(&self, service: &InformationService) -> usize {
        let mut n = 0;
        for si in service.entries() {
            let km = service.keyword_metrics(si.keyword());
            if self.watch(si, km).is_ok() {
                n += 1;
            }
        }
        n
    }

    /// Stop watching a keyword. Returns whether it was watched. An
    /// in-flight refresh completes but no longer reschedules.
    pub fn unwatch(&self, keyword: &str) -> bool {
        let key = keyword.to_ascii_lowercase();
        let mut st = self.state.lock();
        match st.tracked.remove(&key) {
            Some(old) => {
                if let Some(t) = old.ticket {
                    st.wheel.cancel(t);
                }
                self.telemetry.watched.set(st.tracked.len() as f64);
                true
            }
            None => false,
        }
    }

    /// The prefetch lead for an entry: `mean + LEAD_SIGMA × stddev` of
    /// its observed provider latency, clamped to
    /// `[MIN_LEAD, ttl × MAX_LEAD_FRACTION]`.
    fn lead_for(si: &SystemInformation) -> Duration {
        let (mean, std, samples) = si.average_update_time();
        let raw = if samples == 0 {
            MIN_LEAD
        } else {
            Duration::from_secs_f64((mean + LEAD_SIGMA * std).max(0.0))
        };
        let cap = si.ttl().mul_f64(MAX_LEAD_FRACTION);
        raw.clamp(MIN_LEAD.min(cap), cap.max(MIN_LEAD))
    }

    /// Predicted staleness cost: observed demand (queries/s) × expected
    /// refresh duration (s). This is the expected amount of client-
    /// visible staleness *bought* by delaying this refresh — the batch
    /// cap trims the cheapest keywords first, and the per-keyword
    /// `sched.staleness.<kw>` gauge publishes it.
    fn staleness_cost(demand_rate: f64, si: &SystemInformation) -> f64 {
        let (mean, _, samples) = si.average_update_time();
        let expected = if samples == 0 { 1e-3 } else { mean.max(1e-6) };
        demand_rate * expected
    }

    /// Run one scheduling round at the current clock time: pop every
    /// due keyword, decide skip/park/refresh for each, dispatch the
    /// refresh batch through one [`fan_out`], and reschedule.
    ///
    /// Safe to call concurrently (each keyword is popped by exactly one
    /// tick) and cheap when nothing is due.
    pub fn tick(&self) -> TickReport {
        let now = self.clock.now();
        let mut report = TickReport::default();
        let mut batch: Vec<InFlight> = Vec::new();
        // Snapshot the hub wiring once per tick; the scheduler's state
        // lock is ordered strictly before the hub's (never the reverse).
        let hub = self.hub.lock().clone();
        {
            let mut guard = self.state.lock();
            // Reborrow as a plain `&mut` so the wheel and the tracked
            // map can be borrowed disjointly through the guard.
            let st = &mut *guard;
            let mut due = Vec::new();
            while let Some(d) = st.wheel.pop_due(now) {
                due.push(d.item);
            }
            for key in due {
                let Some(t) = st.tracked.get_mut(&key) else {
                    continue; // unwatched while queued (tombstone raced)
                };
                t.ticket = None;
                // Demand sample: queries since the previous visit.
                let queries = t.km.as_ref().map(|k| k.hits.get() + k.misses.get());
                let elapsed = now.since(t.last_visit).as_secs_f64();
                let delta = queries.map(|q| q.saturating_sub(t.seen_queries));
                if let Some(q) = queries {
                    t.seen_queries = q;
                }
                t.last_visit = now;
                if elapsed > 0.0 {
                    t.demand_rate = delta.unwrap_or(0) as f64 / elapsed;
                }
                let cost = Self::staleness_cost(t.demand_rate, &t.si);
                t.staleness.set(cost);
                // Cold skip: no demand since the last visit (and the
                // cache has been seeded) → check again one TTL out.
                // A keyword with live push subscribers is never cold:
                // its subscribers asked for every future value.
                let subscribed = hub.as_ref().is_some_and(|h| h.has_subscribers(&key));
                if t.primed && delta == Some(0) && !subscribed {
                    let ttl = t.si.ttl().max(MIN_INTERVAL);
                    t.ticket = Some(st.wheel.schedule(now.plus(ttl), key.clone()));
                    self.telemetry.skipped.incr();
                    report.skipped += 1;
                    continue;
                }
                // Park: the supervisor is holding the provider closed.
                if let Some(hint) = t.si.supervisor().retry_hint(now) {
                    let wait = hint.max(MIN_INTERVAL);
                    t.ticket = Some(st.wheel.schedule(now.plus(wait), key.clone()));
                    self.telemetry.parked.incr();
                    report.parked += 1;
                    continue;
                }
                batch.push(InFlight {
                    key,
                    epoch: t.epoch,
                    si: Arc::clone(&t.si),
                    cost,
                });
            }
            // Batch cap: keep the costliest refreshes, push the rest
            // one storm-guard interval out (they stay pending — no
            // lost wakeups, just a later seat).
            if batch.len() > MAX_BATCH {
                batch.sort_by(|a, b| {
                    b.cost
                        .partial_cmp(&a.cost)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for spill in batch.split_off(MAX_BATCH) {
                    if let Some(t) = st.tracked.get_mut(&spill.key) {
                        let at = now.plus(MIN_INTERVAL);
                        t.ticket = Some(st.wheel.schedule(at, spill.key.clone()));
                    }
                    self.telemetry.deferred.incr();
                    report.deferred += 1;
                }
            }
        }
        // Successful refreshes bound for the subscription fan-out; the
        // hub is notified only after the scheduler's state lock drops.
        let mut pushed: Vec<(Arc<SystemInformation>, Snapshot)> = Vec::new();
        if !batch.is_empty() {
            self.telemetry.batch_size.record_secs(batch.len() as f64);
            // One scatter-gather over the co-due keywords; the lock is
            // *not* held while providers run.
            let results = fan_out(&batch, |_, f| f.si.refresh_scheduled());
            let mut st = self.state.lock();
            for (flight, result) in batch.into_iter().zip(results) {
                // A re-watch or unwatch during the fan-out supersedes
                // this flight: complete without rescheduling.
                let stale_flight =
                    !matches!(st.tracked.get(&flight.key), Some(t) if t.epoch == flight.epoch);
                if stale_flight {
                    continue;
                }
                match result {
                    Ok(snap) => {
                        self.reschedule_after_refresh(&mut st, &flight.key, &snap);
                        self.telemetry.prefetches.incr();
                        report.refreshed += 1;
                        if hub.is_some() {
                            pushed.push((Arc::clone(&flight.si), snap));
                        }
                    }
                    Err(QueryError::Provider(e)) if !e.is_transient() => {
                        // Config error: evict — retrying cannot help.
                        if let Some(t) = st.tracked.remove(&flight.key) {
                            t.staleness.set(0.0);
                        }
                        self.telemetry.watched.set(st.tracked.len() as f64);
                        self.telemetry.evicted.incr();
                        report.evicted += 1;
                    }
                    Err(QueryError::Unavailable { retry_after }) => {
                        // Lost the race with a real query for admission;
                        // the supervisor's hint says when to return.
                        let wait = retry_after.max(MIN_INTERVAL);
                        self.park(&mut st, &flight.key, now.plus(wait));
                        self.telemetry.parked.incr();
                        report.parked += 1;
                    }
                    Err(_) => {
                        // Transient failure: the supervisor's backoff /
                        // breaker gate is now armed — park behind it.
                        let wait = flight
                            .si
                            .supervisor()
                            .retry_hint(self.clock.now())
                            .unwrap_or(MIN_INTERVAL)
                            .max(MIN_INTERVAL);
                        self.park(&mut st, &flight.key, self.clock.now().plus(wait));
                        self.telemetry.parked.incr();
                        report.parked += 1;
                    }
                }
            }
        }
        if let Some(hub) = &hub {
            // Fan out with no scheduler lock held: a slow or deadlocked
            // sink can cost this tick latency, never a lock cycle.
            for (si, snap) in pushed {
                hub.notify_refresh(&si, &snap);
            }
        }
        report.next_deadline = self.state.lock().wheel.next_deadline();
        report
    }

    /// After a successful refresh: next due = `produced_at + ttl − lead`,
    /// floored one storm-guard interval away from now.
    fn reschedule_after_refresh(&self, st: &mut SchedState, key: &str, snap: &Snapshot) {
        let Some(t) = st.tracked.get_mut(key) else {
            return;
        };
        t.primed = true;
        let lead = Self::lead_for(&t.si);
        let expiry = snap.produced_at.plus(t.si.ttl());
        let due = expiry.minus(lead).max(self.clock.now().plus(MIN_INTERVAL));
        t.ticket = Some(st.wheel.schedule(due, key.to_string()));
    }

    fn park(&self, st: &mut SchedState, key: &str, at: SimTime) {
        if let Some(t) = st.tracked.get_mut(key) {
            t.ticket = Some(st.wheel.schedule(at, key.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{FnProvider, ProviderError};
    use crate::quality::DegradationFn;
    use infogram_sim::{Clock, ManualClock};
    use std::sync::atomic::{AtomicU64, Ordering};

    const TTL: Duration = Duration::from_millis(100);

    fn entry(
        clock: Arc<ManualClock>,
        keyword: &str,
        ttl: Duration,
        calls: Arc<AtomicU64>,
    ) -> Arc<SystemInformation> {
        SystemInformation::new(
            Box::new(FnProvider::new(keyword, move || {
                let n = calls.fetch_add(1, Ordering::SeqCst) + 1;
                Ok(vec![("n".to_string(), n.to_string())])
            })),
            clock,
            ttl,
            DegradationFn::Linear { lifetime: ttl * 4 },
        )
    }

    fn sched(clock: Arc<ManualClock>) -> Arc<RefreshScheduler> {
        RefreshScheduler::new(clock, MetricSet::new())
    }

    #[test]
    fn ttl_zero_is_refused() {
        let clock = ManualClock::new();
        let s = sched(clock.clone());
        let calls = Arc::new(AtomicU64::new(0));
        let si = entry(clock, "CPULoad", Duration::ZERO, calls);
        assert_eq!(s.watch(si, None), Err(WatchError::TtlZero));
        assert_eq!(s.watched(), 0);
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn first_tick_seeds_the_cache_then_prefetches_before_expiry() {
        let clock = ManualClock::new();
        let s = sched(clock.clone());
        let calls = Arc::new(AtomicU64::new(0));
        let si = entry(clock.clone(), "Date", TTL, Arc::clone(&calls));
        s.watch(Arc::clone(&si), None).unwrap();
        // Never produced → due immediately.
        let r = s.tick();
        assert_eq!(r.refreshed, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let next = r.next_deadline.expect("rescheduled");
        // Next refresh is due before the value expires.
        assert!(next <= clock.now().plus(TTL), "due {next:?}");
        // Advance to the rescheduled refresh: the cache never lapses.
        clock.set(next);
        let r = s.tick();
        assert_eq!(r.refreshed, 1);
        assert!(si.query_state().is_ok(), "value still valid at refresh");
    }

    #[test]
    fn cold_keyword_is_skipped_without_demand_wiring_off() {
        // No KeywordMetrics → demand unobservable → never skipped.
        let clock = ManualClock::new();
        let s = sched(clock.clone());
        let calls = Arc::new(AtomicU64::new(0));
        s.watch(entry(clock.clone(), "Date", TTL, Arc::clone(&calls)), None)
            .unwrap();
        for _ in 0..3 {
            if let Some(d) = s.next_deadline() {
                clock.set(d.max(clock.now()));
            }
            s.tick();
        }
        assert!(calls.load(Ordering::SeqCst) >= 3);
    }

    #[test]
    fn cold_keyword_with_demand_wiring_is_skipped() {
        let clock = ManualClock::new();
        let metrics = MetricSet::new();
        let s = RefreshScheduler::new(clock.clone(), metrics.clone());
        let calls = Arc::new(AtomicU64::new(0));
        let km = KeywordMetrics::intern(&metrics, "Date");
        let si = entry(clock.clone(), "Date", TTL, Arc::clone(&calls));
        s.watch(si, Some(km.clone())).unwrap();
        // Seed (primes the demand gate).
        s.tick();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // No queries arrive: every later visit skips.
        for _ in 0..3 {
            clock.set(s.next_deadline().unwrap().max(clock.now()));
            let r = s.tick();
            assert_eq!(r.skipped, 1);
            assert_eq!(r.refreshed, 0);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "cold: no more executions");
        assert_eq!(metrics.counter_value("sched.skipped"), 3);
        // Demand returns: the next visit refreshes again.
        km.hits.incr();
        clock.set(s.next_deadline().unwrap().max(clock.now()));
        let r = s.tick();
        assert_eq!(r.refreshed, 1);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn config_error_evicts_instead_of_retrying() {
        let clock = ManualClock::new();
        let metrics = MetricSet::new();
        let s = RefreshScheduler::new(clock.clone(), metrics.clone());
        let calls = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&calls);
        let si = SystemInformation::new(
            Box::new(FnProvider::new("Broken", move || {
                c2.fetch_add(1, Ordering::SeqCst);
                Err(ProviderError::UnknownCommand {
                    command: "nope".to_string(),
                    detail: "not in Table 1".to_string(),
                })
            })),
            clock.clone(),
            TTL,
            DegradationFn::default(),
        );
        s.watch(si, None).unwrap();
        let r = s.tick();
        assert_eq!(r.evicted, 1);
        assert_eq!(s.watched(), 0);
        assert_eq!(s.next_deadline(), None, "evicted keywords leave the wheel");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(metrics.counter_value("sched.evicted"), 1);
        // Nothing left to do; further ticks are no-ops.
        clock.advance(TTL * 10);
        assert_eq!(s.tick(), TickReport::default());
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn open_breaker_parks_the_keyword() {
        let clock = ManualClock::new();
        let metrics = MetricSet::new();
        let s = RefreshScheduler::new(clock.clone(), metrics.clone());
        let calls = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&calls);
        let si = SystemInformation::new(
            Box::new(FnProvider::new("Flaky", move || {
                c2.fetch_add(1, Ordering::SeqCst);
                Err(ProviderError::Other("down".to_string()))
            })),
            clock.clone(),
            TTL,
            DegradationFn::default(),
        );
        // Trip the breaker through real (supervised) fetches.
        while si.breaker_state() != crate::supervisor::BreakerState::Open {
            let _ = si.fetch_supervised(None);
            clock.advance(Duration::from_secs(3));
        }
        // Re-arm the cool-down from the current time (the failed probe
        // re-opens the breaker with a doubled cool-down).
        let _ = si.fetch_supervised(None);
        assert_eq!(si.breaker_state(), crate::supervisor::BreakerState::Open);
        let tripped_calls = calls.load(Ordering::SeqCst);
        s.watch(si, None).unwrap();
        clock.advance(Duration::from_millis(1));
        let r = s.tick();
        assert_eq!(r.parked, 1);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            tripped_calls,
            "a parked keyword never executes the provider"
        );
        // The park deadline is strictly in the future — no busy loop.
        assert!(s.next_deadline().unwrap() > clock.now());
        assert!(metrics.counter_value("sched.parked") >= 1);
    }

    #[test]
    fn batch_cap_defers_cheapest_and_refreshes_costliest() {
        let clock = ManualClock::new();
        let metrics = MetricSet::new();
        let s = RefreshScheduler::new(clock.clone(), metrics.clone());
        let calls = Arc::new(AtomicU64::new(0));
        for i in 0..MAX_BATCH + 2 {
            let kw = format!("K{i}");
            s.watch(entry(clock.clone(), &kw, TTL, Arc::clone(&calls)), None)
                .unwrap();
        }
        // All ten are due immediately; only eight may dispatch.
        let r = s.tick();
        assert_eq!(r.refreshed, MAX_BATCH);
        assert_eq!(r.deferred, 2);
        assert_eq!(metrics.counter_value("sched.deferred"), 2);
        // The spilled pair is still pending, one storm-guard out.
        clock.advance(MIN_INTERVAL);
        let r = s.tick();
        assert_eq!(r.refreshed, 2);
        assert_eq!(calls.load(Ordering::SeqCst), 10, "nobody was lost");
    }

    #[test]
    fn rewatch_supersedes_and_keeps_one_pending_entry() {
        let clock = ManualClock::new();
        let s = sched(clock.clone());
        let calls = Arc::new(AtomicU64::new(0));
        let si = entry(clock.clone(), "Date", TTL, Arc::clone(&calls));
        s.watch(Arc::clone(&si), None).unwrap();
        s.watch(Arc::clone(&si), None).unwrap();
        assert_eq!(s.watched(), 1);
        let r = s.tick();
        assert_eq!(r.refreshed, 1, "exactly one pending entry per keyword");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(s.unwatch("date"), "lookup is case-insensitive");
        assert!(!s.unwatch("Date"));
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn staleness_gauge_tracks_demand_times_latency() {
        let clock = ManualClock::new();
        let metrics = MetricSet::new();
        let s = RefreshScheduler::new(clock.clone(), metrics.clone());
        let km = KeywordMetrics::intern(&metrics, "CPU");
        let c2 = clock.clone();
        let si = SystemInformation::new(
            Box::new(FnProvider::new("CPU", move || {
                c2.advance(Duration::from_millis(10)); // 10 ms provider
                Ok(vec![("v".to_string(), "1".to_string())])
            })),
            clock.clone(),
            TTL,
            DegradationFn::default(),
        );
        s.watch(si, Some(km.clone())).unwrap();
        s.tick(); // seed; provider latency now known
                  // 50 queries over the next period.
        for _ in 0..50 {
            km.hits.incr();
        }
        clock.set(s.next_deadline().unwrap());
        s.tick();
        let cost = metrics.gauge_value("sched.staleness.CPU");
        // demand ≈ 50 / (period secs); expected latency 0.010 s.
        assert!(cost > 0.0, "hot keyword has positive staleness cost");
    }
}
