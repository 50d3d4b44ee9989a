//! One cached keyword: the paper's `SystemInformation` interface.
//!
//! §6.2 specifies the behaviour this module implements verbatim:
//!
//! > "The method `queryState` is non blocking and returns valid
//! > information only when the information has been queried previously and
//! > the time to live (ttl) value has not expired. Otherwise, it throws an
//! > exception. Upon invocation of the `updateState` method, a blocking
//! > method is called that returns the appropriate information while also
//! > updating the time to live value. If multiple `updateState` methods
//! > are invoked, monitors are used to perform only one such update at a
//! > time. Additionally, we provide a delay that controls how many
//! > milliseconds must pass between consecutive calls of `updateState`
//! > before the actual information is obtained through a runtime exec
//! > call."

use crate::provider::{InfoProvider, ProviderError};
use crate::quality::DegradationFn;
use crate::supervisor::{Admission, BreakerState, Supervisor, SupervisorConfig};
use infogram_proto::render::{self, AttrRef};
use infogram_rsl::OutputFormat;
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::{Counter, Gauge, MetricSet};
use infogram_sim::{SimTime, Welford};
use parking_lot::{lock_class, Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// What one provider execution produced: the `(attribute, value)` pairs
/// and, beside them, their rendered attribute block per wire format.
///
/// Between two refreshes a keyword's names and values do not change, so
/// neither does the text a reply spends on them (`proto::render`'s
/// *block*; everything per-reply is in the record's head). Each block is
/// rendered by the first cached reply that wants that format and lives
/// exactly as long as the pairs: the refresh that swaps them out frees
/// it. Nothing is rendered for a format nobody asks for, and nothing at
/// construction or on refresh. Dereferences to the pairs.
pub struct Produced {
    attributes: Box<[(String, String)]>,
    /// Indexed by [`block_slot`]; write-once, so readers take no lock.
    blocks: [OnceLock<Box<str>>; 3],
}

/// The slot of a format whose block is the same in every reply; `plain`
/// (the debugging format) annotates each line with the reply's age.
fn block_slot(format: OutputFormat) -> Option<usize> {
    match format {
        OutputFormat::Ldif => Some(0),
        OutputFormat::Xml => Some(1),
        OutputFormat::Dsml => Some(2),
        OutputFormat::Plain => None,
    }
}

impl Produced {
    fn new(attributes: Vec<(String, String)>) -> Self {
        Produced {
            attributes: attributes.into(),
            blocks: Default::default(),
        }
    }

    /// The pairs as the block writers take them, namespaced by `keyword`.
    pub fn attr_refs<'a>(&'a self, keyword: &'a str) -> impl Iterator<Item = AttrRef<'a>> {
        self.iter()
            .map(move |(name, value)| AttrRef::produced(keyword, name, value))
    }

    /// The attribute block of these pairs under `keyword` in `format`,
    /// rendered on first use; `None` for a format that has no
    /// reply-independent block.
    fn block(&self, keyword: &str, format: OutputFormat) -> Option<&str> {
        let slot = &self.blocks[block_slot(format)?];
        Some(slot.get_or_init(|| {
            let mut block = String::new();
            render::write_block(&mut block, format, self.attr_refs(keyword));
            block.into()
        }))
    }
}

impl std::ops::Deref for Produced {
    type Target = [(String, String)];

    fn deref(&self) -> &Self::Target {
        &self.attributes
    }
}

impl PartialEq for Produced {
    /// Two productions are equal when their pairs are; the blocks are
    /// derived from them.
    fn eq(&self, other: &Self) -> bool {
        self.attributes == other.attributes
    }
}

impl std::fmt::Debug for Produced {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.attributes.fmt(f)
    }
}

/// A point-in-time copy of a keyword's cached information.
///
/// What the provider produced is shared (`Arc`) with the cache it was
/// read from, so taking a snapshot — and cloning one — never deep-copies
/// the attribute list. Cache hits, coalesced waiters, and
/// `(response=last)` reads all alias the one list the provider produced.
///
/// ```
/// use infogram_info::entry::SystemInformation;
/// use infogram_info::provider::FnProvider;
/// use infogram_info::quality::DegradationFn;
/// use infogram_sim::ManualClock;
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let si = SystemInformation::new(
///     Box::new(FnProvider::new("Date", || {
///         Ok(vec![("date".to_string(), "2002-07-24".to_string())])
///     })),
///     ManualClock::new(),
///     Duration::from_secs(60),
///     DegradationFn::default(),
/// );
/// let fresh = si.update_state()?; // provider executed
/// let hit = si.query_state()?; // served from cache
/// assert!(!fresh.from_cache && hit.from_cache && !hit.stale);
/// // Both snapshots alias the one produced attribute list.
/// assert!(Arc::ptr_eq(&fresh.attributes, &hit.attributes));
/// # Ok::<(), infogram_info::entry::QueryError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(attribute, value)` pairs as produced (and their rendered
    /// blocks), shared with the cache.
    pub attributes: Arc<Produced>,
    /// When the value was produced.
    pub produced_at: SimTime,
    /// Whether this call was served from cache (no provider execution).
    pub from_cache: bool,
    /// Whether this is a last-known-good value served *because the
    /// provider failed or was breaker-gated* — a degraded answer. The
    /// age annotation carries the value's true staleness; consumers
    /// must report degraded quality, not fresh data.
    pub stale: bool,
}

/// Why a non-blocking query could not be served.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Nothing has ever been produced for this keyword.
    NeverProduced,
    /// The cached value's TTL has expired.
    Expired {
        /// Age of the stale value.
        age: Duration,
        /// The TTL it exceeded.
        ttl: Duration,
    },
    /// The provider failed during a (blocking) update.
    Provider(ProviderError),
    /// The fault supervisor is holding the provider closed (breaker
    /// open, or backoff gate in force) and no stale snapshot could be
    /// served. `retry_after` is the wire-level retry hint.
    Unavailable {
        /// Time until the supervisor will admit another execution.
        retry_after: Duration,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NeverProduced => write!(f, "information never produced"),
            QueryError::Expired { age, ttl } => {
                write!(f, "information expired: age {age:?} exceeds ttl {ttl:?}")
            }
            QueryError::Provider(e) => write!(f, "{e}"),
            QueryError::Unavailable { retry_after } => write!(
                f,
                "provider unavailable (breaker open); retry-after-ms={}",
                // Round up: a hint must never understate the wait, or a
                // client sleeping exactly `hint` (worst case: 0 ms from
                // a sub-millisecond remainder) retries still-early.
                retry_after.as_millis() + u128::from(retry_after.subsec_nanos() % 1_000_000 != 0)
            ),
        }
    }
}

impl std::error::Error for QueryError {}

#[derive(Debug, Clone)]
struct CachedValue {
    attributes: Arc<Produced>,
    produced_at: SimTime,
}

impl Snapshot {
    /// The attribute block kept beside the cached value, rendered now if
    /// this is the first reply to want `format`. `None` when this call
    /// produced the value — it renders straight into its own reply and
    /// stores nothing, so a refresh nobody reads from the cache costs no
    /// block — and for `plain`, which has no reply-independent block.
    pub fn cached_block(&self, keyword: &str, format: OutputFormat) -> Option<&str> {
        if !self.from_cache {
            return None;
        }
        self.attributes.block(keyword, format)
    }

    /// The one place a snapshot is built: a copy of `value` that aliases
    /// its attribute list.
    fn of(value: &CachedValue, from_cache: bool, stale: bool) -> Self {
        Self {
            attributes: Arc::clone(&value.attributes),
            produced_at: value.produced_at,
            from_cache,
            stale,
        }
    }
}

/// Everything the monitor guards — one lock per keyword.
#[derive(Debug, Default)]
struct EntryState {
    cached: Option<CachedValue>,
    /// Clock time the last real provider execution *started*.
    last_update_started: Option<SimTime>,
    /// Whether a provider execution is in flight (the monitor).
    updating: bool,
    /// Bumped on every *successful* refresh, so a waiter woken by the
    /// monitor can tell "the in-flight update produced a fresh value"
    /// apart from "it failed and only an old value remains".
    generation: u64,
    /// Minimum gap between consecutive real executions (`setDelay`).
    delay: Duration,
    /// The §6.6 performance catalog: real execution times.
    perf: Welford,
}

/// Interned per-entry telemetry handles, resolved once when the entry is
/// wired into a service so the monitor and the delay gate never format a
/// metric name or take a registry lock on the query path.
#[derive(Debug)]
struct EntryTelemetry {
    coalesced: Arc<Counter>,
    throttled: Arc<Counter>,
    /// Supervised-fetch accounting: in-fetch retries, last-known-good
    /// serves, and deadline-budget breaches (service-wide counters).
    retries: Arc<Counter>,
    stale_serves: Arc<Counter>,
    deadline_breaches: Arc<Counter>,
    /// `info.breaker.<kw>` — the breaker position as a gauge
    /// (0 = Closed, 1 = Open, 2 = HalfOpen).
    breaker: Arc<Gauge>,
}

/// A keyword's provider, cache, monitor, and performance catalog.
pub struct SystemInformation {
    provider: Box<dyn InfoProvider>,
    clock: SharedClock,
    ttl: Duration,
    degradation: DegradationFn,
    state: Mutex<EntryState>,
    update_done: Condvar,
    /// Real provider executions (cache misses / refreshes).
    executions: AtomicU64,
    /// Write-once telemetry handles for monitor/throttle accounting;
    /// reading them is lock-free.
    telemetry: OnceLock<EntryTelemetry>,
    /// The fault-domain supervisor guarding this keyword's provider.
    supervisor: Supervisor,
}

impl std::fmt::Debug for SystemInformation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemInformation")
            .field("keyword", &self.provider.keyword())
            .field("ttl", &self.ttl)
            .finish_non_exhaustive()
    }
}

impl SystemInformation {
    /// Wrap a provider with a TTL cache.
    ///
    /// Per Table 1, a TTL of zero "specifies execution of the keyword
    /// every time it is requested" — i.e. the cache never serves.
    pub fn new(
        provider: Box<dyn InfoProvider>,
        clock: SharedClock,
        ttl: Duration,
        degradation: DegradationFn,
    ) -> Arc<Self> {
        let supervisor = Supervisor::new(provider.keyword(), SupervisorConfig::default());
        let state = EntryState {
            perf: Welford::new(),
            ..EntryState::default()
        };
        Arc::new(SystemInformation {
            provider,
            clock,
            ttl,
            degradation,
            state: Mutex::with_class(state, lock_class!("info.entry.state")),
            update_done: Condvar::with_class(lock_class!("info.entry.update_done")),
            executions: AtomicU64::new(0),
            telemetry: OnceLock::new(),
            supervisor,
        })
    }

    /// Attach a telemetry sink. The monitor and the delay gate count the
    /// calls they collapse into a cached result through it
    /// (`info.coalesced` and `info.throttled`).
    ///
    /// The counter handles are interned here, once, so the hot path never
    /// takes a lock or formats a metric name. The slot is write-once: the
    /// first sink wins, and re-registering the same entry elsewhere keeps
    /// reporting to the original sink.
    pub fn set_telemetry(&self, telemetry: MetricSet) {
        let _ = self.telemetry.set(EntryTelemetry {
            coalesced: telemetry.counter("info.coalesced"),
            throttled: telemetry.counter("info.throttled"),
            retries: telemetry.counter("info.retries"),
            stale_serves: telemetry.counter("info.stale_serves"),
            deadline_breaches: telemetry.counter("info.deadline_breaches"),
            breaker: telemetry.gauge(&format!("info.breaker.{}", self.keyword())),
        });
    }

    /// Bump one of the interned counters, if a sink is attached.
    fn count(&self, pick: impl Fn(&EntryTelemetry) -> &Counter) {
        if let Some(t) = self.telemetry.get() {
            pick(t).incr();
        }
    }

    /// The keyword served.
    pub fn keyword(&self) -> &str {
        self.provider.keyword()
    }

    /// The provider's source description (schema reflection).
    pub fn source(&self) -> String {
        self.provider.source()
    }

    /// The configured TTL.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// The degradation function.
    pub fn degradation(&self) -> &DegradationFn {
        &self.degradation
    }

    /// Set the minimum gap between consecutive real updates (the paper's
    /// `setDelay`).
    pub fn set_delay(&self, delay: Duration) {
        self.state.lock().delay = delay;
    }

    /// The configured delay.
    pub fn delay(&self) -> Duration {
        self.state.lock().delay
    }

    /// Age of the cached value; `None` if never produced.
    fn age(&self) -> Option<Duration> {
        let st = self.state.lock();
        let cached = st.cached.as_ref()?;
        Some(self.clock.now().since(cached.produced_at))
    }

    /// Remaining validity of the cached value: the paper's `validity()`.
    /// Zero if never produced or already expired.
    pub fn validity(&self) -> Duration {
        self.age()
            .map_or(Duration::ZERO, |age| self.ttl.saturating_sub(age))
    }

    /// Quality of the currently cached value under the degradation
    /// function; `None` if never produced.
    pub fn current_quality(&self) -> Option<f64> {
        self.age().map(|age| self.degradation.quality(age))
    }

    /// `Ok` while `value` is within its TTL (never, at TTL 0).
    fn check_ttl(&self, value: &CachedValue) -> Result<(), QueryError> {
        let age = self.clock.now().since(value.produced_at);
        if self.ttl.is_zero() || age >= self.ttl {
            return Err(QueryError::Expired { age, ttl: self.ttl });
        }
        Ok(())
    }

    /// Non-blocking cache read: the paper's `queryState`.
    pub fn query_state(&self) -> Result<Snapshot, QueryError> {
        let st = self.state.lock();
        let cached = st.cached.as_ref().ok_or(QueryError::NeverProduced)?;
        self.check_ttl(cached)?;
        Ok(Snapshot::of(cached, true, false))
    }

    /// The last stored value regardless of TTL: `(response=last)`.
    pub fn last_state(&self) -> Result<Snapshot, QueryError> {
        let st = self.state.lock();
        let cached = st.cached.as_ref().ok_or(QueryError::NeverProduced)?;
        Ok(Snapshot::of(cached, true, false))
    }

    /// Blocking refresh: the paper's `updateState`.
    ///
    /// * Concurrent calls coalesce: only one provider execution runs at a
    ///   time; waiters reuse its result.
    /// * A waiter woken after a *failed* in-flight refresh does not blindly
    ///   reuse whatever old value is cached: it serves the old value only
    ///   while that value is still within its TTL, and otherwise retries
    ///   the update itself (propagating its own error if that fails too).
    /// * The `delay` throttle serves the cached value if the last real
    ///   execution started less than `delay` ago — "useful in cases where
    ///   users ask for information more frequently than it can be
    ///   produced by the system".
    pub fn update_state(&self) -> Result<Snapshot, QueryError> {
        loop {
            let mut st = self.state.lock();
            if st.updating {
                // Monitor: wait for the in-flight update, then reuse it.
                let seen = st.generation;
                self.update_done.wait(&mut st);
                // If the update succeeded (generation moved), reuse its
                // fresh result even at TTL 0 — it is the result of the
                // very update this caller waited on. If it failed, an
                // older value is served only while genuinely valid;
                // handing out a long-expired value as a coalesced
                // success would silently mask the failure.
                if let Some(c) = &st.cached {
                    if st.generation != seen || self.check_ttl(c).is_ok() {
                        self.count(|t| &t.coalesced);
                        return Ok(Snapshot::of(c, true, false));
                    }
                }
                // No valid value to fall back on; try an update ourselves.
                continue;
            }
            // Delay gate.
            if !st.delay.is_zero() {
                if let (Some(last), Some(c)) = (st.last_update_started, &st.cached) {
                    if self.clock.now().since(last) < st.delay {
                        self.count(|t| &t.throttled);
                        return Ok(Snapshot::of(c, true, false));
                    }
                }
            }
            st.updating = true;
            st.last_update_started = Some(self.clock.now());
            drop(st);

            let started = self.clock.now();
            // A provider execution is an arbitrary external command (a
            // runtime exec in the paper); the monitor flag — not a lock
            // — serializes updates precisely so nothing is held here.
            infogram_sim::lockdep::blocking_point("info.provider.produce", &[]);
            let result = self.provider.produce();
            let elapsed = self.clock.now().since(started);
            self.executions.fetch_add(1, Ordering::Relaxed);

            let mut st = self.state.lock();
            st.updating = false;
            // Waiters re-take `state` before they look, so waking them
            // ahead of the install below is safe on both outcomes.
            self.update_done.notify_all();
            let value = CachedValue {
                attributes: Arc::new(Produced::new(result.map_err(QueryError::Provider)?)),
                produced_at: self.clock.now(),
            };
            let snap = Snapshot::of(&value, false, false);
            st.cached = Some(value);
            st.generation = st.generation.wrapping_add(1);
            st.perf.record_duration(elapsed);
            return Ok(snap);
        }
    }

    /// The fault-domain supervisor guarding this entry's provider.
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Current breaker position (convenience over
    /// [`SystemInformation::supervisor`]).
    pub fn breaker_state(&self) -> BreakerState {
        self.supervisor.state()
    }

    /// The deadline budget used when a query carries no explicit
    /// `(timeout=...)`: TTL-proportional with a floor, per the
    /// supervisor config.
    pub fn default_deadline(&self) -> Duration {
        self.supervisor.config().deadline_for(self.ttl)
    }

    fn publish_breaker_gauge(&self) {
        if let Some(t) = self.telemetry.get() {
            t.breaker.set(self.supervisor.state() as u32 as f64);
        }
    }

    /// Supervised blocking refresh: [`update_state`] wrapped in the
    /// fault-domain supervisor.
    ///
    /// * The breaker/backoff gate is consulted first; a deferred fetch
    ///   never touches the provider and is served the last-known-good
    ///   snapshot (tagged `stale`, with its true age) — or fails with
    ///   [`QueryError::Unavailable`] carrying the retry-after hint when
    ///   nothing is cached.
    /// * Transient provider failures are retried in-fetch (bounded by
    ///   the config's `max_retries`; a half-open probe gets none).
    ///   Configuration errors ([`ProviderError::is_transient`] false)
    ///   are never retried and never counted toward the breaker.
    /// * The whole fetch runs under a deadline budget: `deadline` if
    ///   given (the xRSL `(timeout=...)` tag), else TTL-proportional.
    ///   Enforcement is cooperative — elapsed clock time is checked
    ///   after the provider returns (injected hangs charge the clock,
    ///   so breaches are observable under both clocks); a breach stops
    ///   further retries and falls back to the stale snapshot.
    /// * After the final failure the supervisor computes the jittered
    ///   exponential backoff as a *not-before gate* rather than
    ///   sleeping: subsequent fetches stale-serve until the gate opens.
    ///   (A sleeping backoff would deadlock the virtual clock.)
    ///
    /// Hard failure (an `Err`) happens only when no snapshot exists or
    /// the snapshot's quality has floored to zero under the degradation
    /// function.
    ///
    /// [`update_state`]: SystemInformation::update_state
    pub fn fetch_supervised(&self, deadline: Option<Duration>) -> Result<Snapshot, QueryError> {
        self.supervised_refresh(deadline, true)
    }

    /// Supervised refresh for the background scheduler: identical
    /// admission, retry, and breaker accounting to
    /// [`SystemInformation::fetch_supervised`], but failures are
    /// *reported, not degraded* — a prefetch has no caller to serve a
    /// stale answer to, and the scheduler needs the raw outcome to
    /// decide between rescheduling, parking, and evicting:
    ///
    /// * [`QueryError::Unavailable`] — the breaker/backoff gate deferred
    ///   the refresh; `retry_after` is when to try again (park).
    /// * [`QueryError::Provider`] with a non-transient error — the
    ///   keyword is misconfigured; refreshing it again is pointless
    ///   (evict from the refresh queue).
    /// * [`QueryError::Provider`] with a transient error — the bounded
    ///   in-fetch retries were exhausted; the supervisor's backoff gate
    ///   is now armed (park until it opens).
    pub fn refresh_scheduled(&self) -> Result<Snapshot, QueryError> {
        self.supervised_refresh(None, false)
    }

    /// Shared core of the two supervised policies. `degrade` selects
    /// what a failure becomes: the last-known-good snapshot (interactive
    /// queries) or the error itself (background refreshes).
    fn supervised_refresh(
        &self,
        deadline: Option<Duration>,
        degrade: bool,
    ) -> Result<Snapshot, QueryError> {
        let fail = |err| {
            self.publish_breaker_gauge();
            if degrade {
                self.stale_serve(err)
            } else {
                Err(err)
            }
        };
        let budget = deadline.unwrap_or_else(|| self.default_deadline());
        let probe = match self.supervisor.admit(self.clock.now()) {
            Admission::Deferred { retry_after } => {
                return fail(QueryError::Unavailable { retry_after })
            }
            Admission::Execute { probe } => probe,
        };
        let retries = if probe {
            0
        } else {
            self.supervisor.config().max_retries
        };
        let started = self.clock.now();
        let mut last_err = None;
        for attempt in 0..=retries {
            if attempt > 0 {
                self.count(|t| &t.retries);
            }
            let result = self.update_state();
            let breached = self.clock.now().since(started) > budget;
            if breached {
                self.count(|t| &t.deadline_breaches);
            }
            match result {
                Ok(snap) => {
                    // A late success is still a success: the value is
                    // cached and fresher than anything stale-servable.
                    // The breach was counted above.
                    self.supervisor.on_success();
                    self.publish_breaker_gauge();
                    return Ok(snap);
                }
                Err(QueryError::Provider(e)) if !e.is_transient() => {
                    // Configuration error: retrying cannot help, and the
                    // breaker is for transient faults only.
                    self.supervisor.on_config_failure(self.clock.now(), probe);
                    return fail(QueryError::Provider(e));
                }
                Err(e @ QueryError::Provider(_)) => {
                    last_err = Some(e);
                    if breached {
                        break; // no budget left to retry into
                    }
                }
                Err(other) => return Err(other),
            }
        }
        self.supervisor.on_failure(self.clock.now(), probe);
        // lint:allow(unwrap) — the loop always runs at least once and only exits with last_err set
        fail(last_err.expect("at least one attempt ran"))
    }

    /// Serve the last-known-good snapshot as a degraded answer, or
    /// propagate `underlying` when nothing (useful) is cached.
    ///
    /// The snapshot keeps its true `produced_at`, so the age and
    /// quality annotations downstream are honest; `stale: true` marks
    /// it as fault-driven. When the degradation function has floored
    /// the cached value's quality to zero, the value is worthless and
    /// the underlying error surfaces instead.
    fn stale_serve(&self, underlying: QueryError) -> Result<Snapshot, QueryError> {
        let st = self.state.lock();
        let Some(c) = &st.cached else {
            return Err(underlying);
        };
        let age = self.clock.now().since(c.produced_at);
        if self.degradation.quality(age) <= 0.0 {
            return Err(underlying);
        }
        let snap = Snapshot::of(c, true, true);
        drop(st);
        self.count(|t| &t.stale_serves);
        Ok(snap)
    }

    /// The paper's `getAverageUpdateTime`: `(mean, std_dev)` of real
    /// provider execution time, in seconds, plus the sample count.
    pub fn average_update_time(&self) -> (f64, f64, u64) {
        let st = self.state.lock();
        (st.perf.mean(), st.perf.std_dev(), st.perf.count())
    }

    /// Number of real provider executions so far.
    pub fn execution_count(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// Number of successful cache installs so far (the `generation`
    /// stamp bumped by every `update_state` that lands a fresh value).
    /// The missed-update ledger in `tests/refresh_sched.rs` balances
    /// scheduler-reported refreshes against this counter, and the push
    /// subscription fan-out uses the same ground truth: one generation
    /// bump ↔ one delivered update per subscriber.
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::FnProvider;
    use infogram_sim::{ManualClock, SystemClock};

    fn counted_provider(calls: Arc<AtomicU64>) -> Box<dyn InfoProvider> {
        Box::new(FnProvider::new("K", move || {
            let n = calls.fetch_add(1, Ordering::SeqCst) + 1;
            Ok(vec![("n".to_string(), n.to_string())])
        }))
    }

    fn entry_with_ttl(ttl_ms: u64) -> (Arc<ManualClock>, Arc<AtomicU64>, Arc<SystemInformation>) {
        let clock = ManualClock::new();
        let calls = Arc::new(AtomicU64::new(0));
        let si = SystemInformation::new(
            counted_provider(Arc::clone(&calls)),
            clock.clone(),
            Duration::from_millis(ttl_ms),
            DegradationFn::Linear {
                lifetime: Duration::from_millis(ttl_ms.max(1) * 2),
            },
        );
        (clock, calls, si)
    }

    #[test]
    fn query_before_any_update_throws() {
        let (_c, _calls, si) = entry_with_ttl(100);
        assert_eq!(si.query_state(), Err(QueryError::NeverProduced));
        assert_eq!(si.last_state(), Err(QueryError::NeverProduced));
        assert_eq!(si.validity(), Duration::ZERO);
        assert_eq!(si.current_quality(), None);
    }

    #[test]
    fn block_is_rendered_by_the_first_cached_read_and_never_by_a_refresh() {
        let (_clock, _calls, si) = entry_with_ttl(100);
        let unrendered = |snap: &Snapshot| snap.attributes.blocks.iter().all(|b| b.get().is_none());
        // The refresh renders nothing, and neither does the reply that
        // caused it: it writes its own body and stores no block.
        let fresh = si.update_state().unwrap();
        assert_eq!(fresh.cached_block("K", OutputFormat::Ldif), None);
        assert!(unrendered(&fresh));
        // The first cached read of a format renders it; later ones — any
        // snapshot of the same production — share that one string.
        let hit = si.query_state().unwrap();
        let block = hit.cached_block("K", OutputFormat::Ldif).unwrap();
        assert_eq!(block, "K-n: 1\n");
        let again = si.last_state().unwrap();
        assert!(std::ptr::eq(
            block,
            again.cached_block("K", OutputFormat::Ldif).unwrap()
        ));
        // Per format, on demand; `plain` has no reply-independent block.
        assert!(hit.attributes.blocks[1].get().is_none());
        assert_eq!(
            hit.cached_block("K", OutputFormat::Xml),
            Some("    <attribute name=\"K:n\">1</attribute>\n  </provider>\n")
        );
        assert_eq!(hit.cached_block("K", OutputFormat::Plain), None);
        assert!(hit.attributes.blocks[2].get().is_none());
    }

    #[test]
    fn update_then_query_within_ttl() {
        let (clock, calls, si) = entry_with_ttl(100);
        let snap = si.update_state().unwrap();
        assert!(!snap.from_cache);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        clock.advance(Duration::from_millis(50));
        let q = si.query_state().unwrap();
        assert!(q.from_cache);
        assert_eq!(q.attributes, snap.attributes);
        assert_eq!(si.validity(), Duration::from_millis(50));
    }

    #[test]
    fn query_after_ttl_expires() {
        let (clock, _calls, si) = entry_with_ttl(100);
        si.update_state().unwrap();
        clock.advance(Duration::from_millis(100));
        match si.query_state() {
            Err(QueryError::Expired { age, ttl }) => {
                assert_eq!(age, Duration::from_millis(100));
                assert_eq!(ttl, Duration::from_millis(100));
            }
            other => panic!("{other:?}"),
        }
        // last_state still serves it.
        assert!(si.last_state().unwrap().from_cache);
    }

    #[test]
    fn ttl_zero_always_executes() {
        // Table 1: "0 specifies execution of the keyword every time it is
        // requested" (the CPULoad row).
        let (_c, calls, si) = entry_with_ttl(0);
        si.update_state().unwrap();
        assert!(si.query_state().is_err(), "ttl=0 cache never serves");
        cached(&si).unwrap();
        cached(&si).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    /// `(response=cached)` as the two §6.2 methods compose it.
    fn cached(si: &SystemInformation) -> Result<Snapshot, QueryError> {
        si.query_state().or_else(|_| si.update_state())
    }

    #[test]
    fn query_else_update_refreshes_only_on_expiry() {
        let (clock, calls, si) = entry_with_ttl(100);
        cached(&si).unwrap(); // miss → execute
        cached(&si).unwrap(); // hit
        clock.advance(Duration::from_millis(99));
        cached(&si).unwrap(); // still valid
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        clock.advance(Duration::from_millis(1));
        cached(&si).unwrap(); // expired → execute
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn provider_failure_surfaces() {
        let clock = ManualClock::new();
        let si = SystemInformation::new(
            Box::new(FnProvider::new("Bad", || {
                Err(ProviderError::Other("broken".to_string()))
            })),
            clock,
            Duration::from_millis(100),
            DegradationFn::default(),
        );
        assert!(matches!(
            si.update_state(),
            Err(QueryError::Provider(ProviderError::Other(_)))
        ));
        // A failure does not poison the entry; the next update may
        // succeed (here it fails again, but does not deadlock).
        assert!(si.update_state().is_err());
    }

    #[test]
    fn delay_throttles_consecutive_updates() {
        let (clock, calls, si) = entry_with_ttl(1);
        si.set_delay(Duration::from_millis(100));
        si.update_state().unwrap(); // real execution
        clock.advance(Duration::from_millis(10));
        let snap = si.update_state().unwrap(); // throttled → cached
        assert!(snap.from_cache);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        clock.advance(Duration::from_millis(100));
        let snap = si.update_state().unwrap();
        assert!(!snap.from_cache);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn concurrent_updates_coalesce() {
        // Real-time test: a slow provider, many threads calling
        // update_state simultaneously — the monitor must collapse them
        // into one execution.
        let clock = SystemClock::shared();
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = Arc::clone(&calls);
        let si = SystemInformation::new(
            Box::new(FnProvider::new("Slow", move || {
                calls2.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(80));
                Ok(vec![("v".to_string(), "1".to_string())])
            })),
            clock,
            Duration::from_secs(10),
            DegradationFn::default(),
        );
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let si = Arc::clone(&si);
                std::thread::spawn(move || si.update_state().unwrap())
            })
            .collect();
        let mut from_cache = 0;
        for t in threads {
            if t.join().unwrap().from_cache {
                from_cache += 1;
            }
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "monitor must collapse concurrent updates into one execution"
        );
        assert_eq!(from_cache, 7, "seven waiters reuse the one result");
        assert_eq!(si.execution_count(), 1);
    }

    /// A provider that replays a scripted sequence of outcomes, sleeping
    /// `delay_ms` of real time before each one.
    fn scripted_provider(
        outcomes: Vec<Result<u64, ()>>,
        delay_ms: u64,
    ) -> (Arc<AtomicU64>, Box<dyn InfoProvider>) {
        let calls = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&calls);
        let provider = Box::new(FnProvider::new("Scripted", move || {
            let n = c2.fetch_add(1, Ordering::SeqCst) as usize;
            if delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            match outcomes.get(n).copied().unwrap_or(Err(())) {
                Ok(v) => Ok(vec![("v".to_string(), v.to_string())]),
                Err(()) => Err(ProviderError::Other("scripted failure".to_string())),
            }
        }));
        (calls, provider)
    }

    #[test]
    fn waiter_after_failed_refresh_retries_instead_of_serving_expired() {
        // Script: 1st call caches v=1; 2nd (slow) call fails while a
        // waiter coalesces on it; the waiter must notice the cached v=1
        // is long expired, retry, and get the 3rd call's fresh v=3.
        let clock = SystemClock::shared();
        let (calls, provider) = scripted_provider(vec![Ok(1), Err(()), Ok(3)], 40);
        let si = SystemInformation::new(
            provider,
            clock,
            Duration::from_millis(10),
            DegradationFn::default(),
        );
        si.update_state().unwrap();
        std::thread::sleep(Duration::from_millis(20)); // v=1 now expired
        let si2 = Arc::clone(&si);
        let failing = std::thread::spawn(move || si2.update_state());
        std::thread::sleep(Duration::from_millis(15)); // let the update start
        let snap = si.update_state().unwrap();
        assert!(
            failing.join().unwrap().is_err(),
            "the in-flight update itself must surface its failure"
        );
        assert_eq!(
            snap.attributes.first().map(|(_, v)| v.as_str()),
            Some("3"),
            "waiter must not be served the expired v=1"
        );
        assert!(!snap.from_cache, "the waiter re-executed the provider");
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn waiter_after_failed_refresh_still_coalesces_on_valid_cache() {
        // Same shape, but the old value is still within its TTL when the
        // in-flight update fails: the waiter may reuse it.
        let clock = SystemClock::shared();
        let (calls, provider) = scripted_provider(vec![Ok(1), Err(())], 40);
        let si = SystemInformation::new(
            provider,
            clock,
            Duration::from_secs(60),
            DegradationFn::default(),
        );
        si.update_state().unwrap();
        let si2 = Arc::clone(&si);
        let failing = std::thread::spawn(move || si2.update_state());
        std::thread::sleep(Duration::from_millis(15));
        let snap = si.update_state().unwrap();
        assert!(failing.join().unwrap().is_err());
        assert!(snap.from_cache, "valid old value serves the waiter");
        assert_eq!(snap.attributes.first().map(|(_, v)| v.as_str()), Some("1"));
        assert_eq!(calls.load(Ordering::SeqCst), 2, "waiter did not re-execute");
    }

    #[test]
    fn snapshots_share_the_cached_attribute_list() {
        let (_c, _calls, si) = entry_with_ttl(1000);
        let a = si.update_state().unwrap();
        let b = si.query_state().unwrap();
        let c = si.last_state().unwrap();
        assert!(
            Arc::ptr_eq(&a.attributes, &b.attributes),
            "hits must alias the produced list, not deep-copy it"
        );
        assert!(Arc::ptr_eq(&b.attributes, &c.attributes));
        let d = b.clone();
        assert!(Arc::ptr_eq(&b.attributes, &d.attributes));
    }

    #[test]
    fn performance_catalog_tracks_updates() {
        let clock = ManualClock::new();
        let c2 = clock.clone();
        let si = SystemInformation::new(
            Box::new(FnProvider::new("Timed", move || {
                c2.advance(Duration::from_millis(25));
                Ok(vec![("v".to_string(), "1".to_string())])
            })),
            clock.clone(),
            Duration::ZERO,
            DegradationFn::default(),
        );
        for _ in 0..4 {
            si.update_state().unwrap();
        }
        let (mean, std, n) = si.average_update_time();
        assert_eq!(n, 4);
        assert!((mean - 0.025).abs() < 1e-9, "mean {mean}");
        assert!(std < 1e-9, "constant cost has zero stddev");
    }

    #[test]
    fn quality_degrades_with_age() {
        let (clock, _calls, si) = entry_with_ttl(100); // linear over 200ms
        si.update_state().unwrap();
        assert!((si.current_quality().unwrap() - 1.0).abs() < 1e-9);
        clock.advance(Duration::from_millis(100));
        assert!((si.current_quality().unwrap() - 0.5).abs() < 1e-9);
        clock.advance(Duration::from_millis(200));
        assert_eq!(si.current_quality().unwrap(), 0.0);
    }
}
