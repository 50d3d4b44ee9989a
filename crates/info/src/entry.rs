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
//!
//! Each keyword is also its own fault domain. Beside the cache, the
//! monitor and `delay`, the entry's one lock holds a three-state circuit
//! breaker,
//!
//! ```text
//!             3 consecutive failed fetches
//!   Closed ────────────────────────────────────▶ Open
//!     ▲                                            │ cool-down elapses
//!     │ probe succeeds                             ▼
//!     └─────────────────────────────────────── HalfOpen
//!                 (probe fails → back to Open, cool-down doubled)
//! ```
//!
//! and one not-before gate shared by the `delay`, the backoff and the
//! cool-down. Backoff never sleeps (`ManualClock::sleep` would deadlock
//! a single-threaded test): it is a gate, and a gated query is answered
//! from the cache. The jitter is seeded from the keyword (FNV-1a), so a
//! fault scenario replays byte-identically. [`SystemInformation::refresh`]
//! is the one path to the provider.

use crate::provider::{InfoProvider, ProviderError};
use crate::quality::DegradationFn;
use crate::sub::SubscriptionHub;
use infogram_proto::drain_all;
use infogram_proto::render::{self, AttrRef};
use infogram_rsl::OutputFormat;
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::{Counter, Gauge, Histogram, MetricSet};
use infogram_sim::rng::fnv1a;
use infogram_sim::{SimTime, SplitMix64, Welford};
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
    blocks: [OnceLock<Box<str>>; 2],
}

/// The slot of a format whose block is the same in every reply; `plain`
/// (the debugging format) annotates each line with the reply's age.
fn block_slot(format: OutputFormat) -> Option<usize> {
    match format {
        OutputFormat::Ldif => Some(0),
        OutputFormat::Xml => Some(1),
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

    /// The pairs as the block writers take them.
    pub fn attr_refs(&self) -> impl Iterator<Item = AttrRef<'_>> {
        self.iter()
            .map(|(name, value)| AttrRef::produced(name, value))
    }

    /// The attribute block of these pairs under `keyword` in `format`,
    /// rendered on first use; `None` for a format that has no
    /// reply-independent block.
    fn block(&self, keyword: &str, format: OutputFormat) -> Option<&str> {
        let slot = &self.blocks[block_slot(format)?];
        Some(slot.get_or_init(|| {
            let mut block = String::new();
            render::write_block(&mut block, format, keyword, self.attr_refs());
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
    /// Whether this is a cached value past its TTL, served because no
    /// fresh one could be produced (a failure, the gate) — a degraded
    /// answer. The age annotation carries the value's true staleness;
    /// consumers must report degraded quality, not fresh data.
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
    /// The not-before gate (`delay`, backoff or an open breaker) holds
    /// the provider off and no cached value could be served.
    /// `retry_after` is the wire-level retry hint.
    Unavailable {
        /// Time until the gate opens.
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
                "provider held off (delay, backoff or an open breaker); retry-after-ms={}",
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

/// Breaker position of one keyword's fault domain.
///
/// The numeric values are the gauge encoding (`info.breaker.<kw>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: refreshes run the provider once the not-before gate is
    /// open.
    Closed = 0,
    /// Tripped: nothing runs until the cool-down ends; queries are
    /// served the cached value.
    Open = 1,
    /// The one probe a lapsed cool-down admits is running; it holds
    /// the monitor, so everyone else waits for its outcome.
    HalfOpen = 2,
}

/// Consecutive failed fetches that trip the breaker.
const FAILURE_THRESHOLD: u32 = 3;
/// Base cool-down after tripping; it doubles on each failed probe.
const OPEN_FOR: Duration = Duration::from_millis(500);
/// Cool-down ceiling.
const OPEN_MAX: Duration = Duration::from_secs(30);
/// Bounded in-fetch retries after the first transient failure.
const MAX_RETRIES: u32 = 2;
/// Base of the exponential backoff after a failed fetch. It only arms
/// below [`FAILURE_THRESHOLD`], so it is 25 ms or 50 ms.
const BACKOFF_BASE: Duration = Duration::from_millis(25);
/// Jitter fraction: each backoff and cool-down is scaled by a factor
/// drawn uniformly from `[1 - JITTER, 1 + JITTER]`.
const JITTER: f64 = 0.2;
/// Deadline budget floor (the whole budget of a TTL-0 keyword).
const DEADLINE_FLOOR: Duration = Duration::from_millis(250);
/// The TTL multiple a fetch may spend before its budget is breached.
const DEADLINE_TTL_FACTOR: u32 = 4;

/// Why an entry refreshes. Both causes share the monitor, the gate and
/// the breaker; they differ in what an answer that is not a fresh
/// production becomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// A query that needs the provider: a cached miss or
    /// `(response=immediate)`, which behave alike. It degrades to the
    /// cached value.
    Query {
        /// The `(timeout=…)` budget; `None` is `max(4 × TTL, 250 ms)`.
        deadline: Option<Duration>,
    },
    /// The refresh scheduler. It has no caller to degrade for, so it
    /// reports [`QueryError::Unavailable`] or [`QueryError::Provider`].
    Scheduled,
}

/// Everything the monitor guards — one lock per keyword.
#[derive(Debug)]
struct EntryState {
    cached: Option<CachedValue>,
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
    /// The one gate: no execution starts before it. Each start sets it
    /// to start + `delay`; a failed fetch raises it to its backoff or
    /// the breaker's cool-down.
    not_before: SimTime,
    breaker: BreakerState,
    /// Consecutive failed fetches (reset by a fresh production).
    streak: u32,
    /// Current cool-down length (doubles on failed probes).
    open_len: Duration,
    /// Jitter source, seeded from the keyword (deterministic replay).
    rng: SplitMix64,
}

impl EntryState {
    /// A fresh production: close the breaker.
    fn succeeded(&mut self) {
        self.breaker = BreakerState::Closed;
        self.streak = 0;
        self.open_len = OPEN_FOR;
    }

    /// A fetch at `now` whose last execution failed transiently;
    /// `probe` marks the half-open probe.
    fn failed(&mut self, now: SimTime, probe: bool) {
        let jitter = 1.0 - JITTER + 2.0 * JITTER * self.rng.next_f64();
        self.streak = self.streak.saturating_add(1);
        let wait = if probe || self.streak >= FAILURE_THRESHOLD {
            // A failed probe re-opens with a doubled cool-down.
            self.open_len = if probe {
                (self.open_len * 2).min(OPEN_MAX)
            } else {
                OPEN_FOR
            };
            self.breaker = BreakerState::Open;
            self.open_len
        } else {
            BACKOFF_BASE * (1 << (self.streak - 1))
        };
        self.not_before = self.not_before.max(now.plus(wait.mul_f64(jitter)));
    }

    /// A configuration failure: retrying cannot help, so it never counts
    /// toward the breaker — but a failed probe still re-opens it (the
    /// streak that tripped it is unresolved).
    fn misconfigured(&mut self, now: SimTime, probe: bool) {
        if probe {
            self.breaker = BreakerState::Open;
            self.not_before = self.not_before.max(now.plus(self.open_len));
        }
    }
}

/// Every `info` instrument one keyword moves, interned once by
/// [`SystemInformation::set_telemetry`] so neither the query path nor a
/// refresh formats a metric name or takes a registry lock. The service
/// counts through these handles too; the refresh scheduler reads
/// `hits + misses` as the keyword's demand.
#[derive(Debug)]
pub(crate) struct EntryTelemetry {
    /// Service-wide: `info.queries`, `info.cache_hits`, `info.refreshes`
    /// (every fresh production, scheduled or queried),
    /// `info.quality_refreshes`, and the `info.refresh` latency histogram.
    pub(crate) queries: Arc<Counter>,
    pub(crate) cache_hits: Arc<Counter>,
    refreshes: Arc<Counter>,
    pub(crate) quality_refreshes: Arc<Counter>,
    refresh: Arc<Histogram>,
    /// Service-wide: the monitor's, the gate's and the fetch's counts.
    coalesced: Arc<Counter>,
    throttled: Arc<Counter>,
    retries: Arc<Counter>,
    stale_serves: Arc<Counter>,
    deadline_breaches: Arc<Counter>,
    /// Per keyword: `info.hits.<kw>`, `info.misses.<kw>` (queries that
    /// produced), `info.stale.<kw>`, the `info.validity_ms.<kw>` gauge,
    /// and `info.breaker.<kw>` (0 = Closed, 1 = Open, 2 = HalfOpen).
    pub(crate) hits: Arc<Counter>,
    pub(crate) misses: Arc<Counter>,
    pub(crate) stale: Arc<Counter>,
    pub(crate) validity_ms: Arc<Gauge>,
    breaker: Arc<Gauge>,
}

/// A keyword's provider, cache, monitor, breaker and performance catalog.
pub struct SystemInformation {
    provider: Box<dyn InfoProvider>,
    clock: SharedClock,
    ttl: Duration,
    degradation: DegradationFn,
    state: Mutex<EntryState>,
    update_done: Condvar,
    /// Real provider executions (cache misses / refreshes).
    executions: AtomicU64,
    /// Write-once telemetry handles; reading them is lock-free.
    telemetry: OnceLock<EntryTelemetry>,
    /// Where every fresh production is pushed, once a refresh scheduler
    /// watches the keyword. Unset, the check is one atomic load.
    hub: OnceLock<Arc<SubscriptionHub>>,
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
        let state = EntryState {
            cached: None,
            updating: false,
            generation: 0,
            delay: Duration::ZERO,
            perf: Welford::new(),
            not_before: SimTime::ZERO,
            breaker: BreakerState::Closed,
            streak: 0,
            open_len: OPEN_FOR,
            rng: SplitMix64::new(fnv1a(provider.keyword()) ^ 0x5afe_b0ff),
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
            hub: OnceLock::new(),
        })
    }

    /// Attach a telemetry sink and intern in it every `info` instrument
    /// this keyword moves: the service's query counts, this entry's
    /// refresh, monitor, gate and breaker counts, and the per-keyword
    /// `info.{hits,misses,stale,validity_ms,breaker}.<kw>`. The slot is
    /// write-once: the first sink wins, and re-registering the same
    /// entry elsewhere keeps reporting to the original sink.
    pub fn set_telemetry(&self, telemetry: MetricSet) {
        let kw = self.keyword();
        let _ = self.telemetry.set(EntryTelemetry {
            queries: telemetry.counter("info.queries"),
            cache_hits: telemetry.counter("info.cache_hits"),
            refreshes: telemetry.counter("info.refreshes"),
            quality_refreshes: telemetry.counter("info.quality_refreshes"),
            refresh: telemetry.histogram("info.refresh"),
            coalesced: telemetry.counter("info.coalesced"),
            throttled: telemetry.counter("info.throttled"),
            retries: telemetry.counter("info.retries"),
            stale_serves: telemetry.counter("info.stale_serves"),
            deadline_breaches: telemetry.counter("info.deadline_breaches"),
            hits: telemetry.counter(&format!("info.hits.{kw}")),
            misses: telemetry.counter(&format!("info.misses.{kw}")),
            stale: telemetry.counter(&format!("info.stale.{kw}")),
            validity_ms: telemetry.gauge(&format!("info.validity_ms.{kw}")),
            breaker: telemetry.gauge(&format!("info.breaker.{kw}")),
        });
    }

    /// The interned instruments, once a sink is attached.
    pub(crate) fn telemetry(&self) -> Option<&EntryTelemetry> {
        self.telemetry.get()
    }

    /// Push every later fresh production into `hub`. Write-once, like
    /// the telemetry slot: the first hub wins.
    pub(crate) fn push_to(&self, hub: &Arc<SubscriptionHub>) {
        let _ = self.hub.set(Arc::clone(hub));
    }

    /// Bump one of the interned counters, if a sink is attached.
    pub(crate) fn count(&self, pick: impl Fn(&EntryTelemetry) -> &Counter) {
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
    /// `setDelay`). It applies from the next execution's start.
    pub fn set_delay(&self, delay: Duration) {
        self.state.lock().delay = delay;
    }

    /// The configured delay.
    pub fn delay(&self) -> Duration {
        self.state.lock().delay
    }

    /// Remaining validity of the cached value: the paper's `validity()`.
    /// Zero if never produced or already expired.
    pub fn validity(&self) -> Duration {
        let st = self.state.lock();
        st.cached.as_ref().map_or(Duration::ZERO, |c| {
            self.ttl
                .saturating_sub(self.clock.now().since(c.produced_at))
        })
    }

    /// `Ok` while `value` is within its TTL at `now` (never, at TTL 0).
    fn check_ttl(&self, value: &CachedValue, now: SimTime) -> Result<(), QueryError> {
        let age = now.since(value.produced_at);
        if self.ttl.is_zero() || age >= self.ttl {
            return Err(QueryError::Expired { age, ttl: self.ttl });
        }
        Ok(())
    }

    /// Non-blocking cache read: the paper's `queryState`.
    pub fn query_state(&self) -> Result<Snapshot, QueryError> {
        let st = self.state.lock();
        let cached = st.cached.as_ref().ok_or(QueryError::NeverProduced)?;
        self.check_ttl(cached, self.clock.now())?;
        Ok(Snapshot::of(cached, true, false))
    }

    /// The last stored value regardless of TTL: `(response=last)`.
    pub fn last_state(&self) -> Result<Snapshot, QueryError> {
        let st = self.state.lock();
        let cached = st.cached.as_ref().ok_or(QueryError::NeverProduced)?;
        Ok(Snapshot::of(cached, true, false))
    }

    /// Blocking refresh: the paper's `updateState`, as a query with no
    /// `(timeout=…)` asks for it ([`SystemInformation::refresh`]).
    pub fn update_state(&self) -> Result<Snapshot, QueryError> {
        self.refresh(Cause::Query { deadline: None })
    }

    /// The one refresh path. Everything it decides on sits under the one
    /// `state` lock: the cache, the monitor, the gate and the breaker.
    ///
    /// * **Monitor.** One execution runs at a time; a caller that finds
    ///   one in flight waits and reuses a fresh result. If that execution
    ///   failed, a query takes the old value only while it is within its
    ///   TTL; otherwise the caller tries itself.
    /// * **Gate.** No execution starts before `not_before` = max(last
    ///   start + `delay`, a failed fetch's backoff or the breaker's
    ///   cool-down) — "useful in cases where users ask for information
    ///   more frequently than it can be produced by the system". Past an
    ///   open breaker's cool-down the next execution is its probe.
    /// * **Retries.** A transient failure is retried at most twice within
    ///   the fetch (a probe never), while the deadline budget lasts. A
    ///   retry the gate turns away ends the fetch.
    /// * **Breaker.** A fetch books only what its own executions did: a
    ///   fresh production closes the breaker; a fetch whose last
    ///   execution failed counts one failure (three in a row trip it) and
    ///   arms the jittered backoff. Configuration errors are never
    ///   retried or counted. A coalesced or gated answer books nothing.
    ///
    /// The clock is read once per stage boundary: arrival (the lock
    /// taken), each wake from the monitor's wait (the last one acquires
    /// it), the end of each attempt, and the push done (only when a
    /// histogram records it). Each attempt starts at the boundary before it; every check
    /// and timing below is a difference of these stamps.
    ///
    /// Every fresh production, whatever the cause, bumps the generation,
    /// is counted once (`info.refreshes`, arrival → last boundary in
    /// `info.refresh`, the TTL in `info.validity_ms.<kw>`), adds its
    /// successful attempt's start → end to the §6.6 catalog and, once a
    /// scheduler watches the keyword, is pushed to its hub exactly once.
    /// Anything else is the cached value, tagged `stale` once it is past
    /// its TTL at the last boundary: a query gets that answer unless
    /// nothing is cached or the degradation function has floored its
    /// quality to zero; [`Cause::Scheduled`] gets the error.
    pub fn refresh(&self, cause: Cause) -> Result<Snapshot, QueryError> {
        let degrade = matches!(cause, Cause::Query { .. });
        let budget = match cause {
            Cause::Query { deadline: Some(d) } => d,
            _ => default_deadline(self.ttl),
        };
        let mut st = self.state.lock();
        // Read under the lock, so no attempt starts before one another
        // caller already booked in the gate.
        let arrived = self.clock.now();
        // The last stage boundary: the next attempt starts here.
        let mut at = arrived;
        while st.updating {
            let seen = st.generation;
            self.update_done.wait(&mut st);
            at = self.clock.now();
            if let Some(c) = &st.cached {
                if st.generation != seen || (degrade && self.check_ttl(c, at).is_ok()) {
                    self.count(|t| &t.coalesced);
                    return Ok(Snapshot::of(c, true, false));
                }
            }
        }
        // From here on this fetch holds the monitor while it executes,
        // retries included; waiters see only its outcome.
        let (mut executed, mut probe, mut failure) = (0, false, None);
        let retry_after = loop {
            let start = at;
            if start < st.not_before {
                self.count(|t| &t.throttled);
                break st.not_before.since(start);
            }
            probe = st.breaker == BreakerState::Open;
            if probe {
                st.breaker = BreakerState::HalfOpen;
            }
            st.updating = true;
            st.not_before = start.plus(st.delay);
            if executed > 0 {
                self.count(|t| &t.retries);
            }
            executed += 1;
            drop(st);

            // A provider execution is an arbitrary external command (a
            // runtime exec in the paper); the monitor flag — not a lock
            // — serializes updates precisely so nothing is held here.
            parking_lot::lockdep::blocking_point("info.provider.produce", &[]);
            let result = self.provider.produce();
            at = self.clock.now();
            self.executions.fetch_add(1, Ordering::Relaxed);
            let breached = at.since(arrived) > budget;
            if breached {
                self.count(|t| &t.deadline_breaches);
            }

            st = self.state.lock();
            match result {
                Ok(attributes) => {
                    // A late success is still a success: the value is
                    // fresher than anything the cache holds.
                    let value = CachedValue {
                        attributes: Arc::new(Produced::new(attributes)),
                        produced_at: at,
                    };
                    let snap = Snapshot::of(&value, false, false);
                    st.cached = Some(value);
                    st.perf.record_duration(at.since(start));
                    st.succeeded();
                    let pushed = match self.hub.get() {
                        // The monitor stays held across the push, so
                        // pushes queue in production order and waiters
                        // wake to the bumped generation after it; the
                        // send waits for the monitor's release.
                        Some(hub) => {
                            drop(st);
                            let pushed = hub.notify_refresh(self, &snap);
                            // The push done: a stamp only `info.refresh` reads.
                            at = self.telemetry.get().map_or(at, |_| self.clock.now());
                            st = self.state.lock();
                            pushed
                        }
                        None => Vec::new(),
                    };
                    st.generation = st.generation.wrapping_add(1);
                    self.finish(&mut st);
                    drop(st);
                    if let Some(t) = self.telemetry.get() {
                        t.refreshes.incr();
                        // On the entry's clock: simulated command costs
                        // advance it, free commands record zero.
                        t.refresh.record(at.since(arrived));
                        t.validity_ms.set(self.ttl.as_millis() as f64);
                    }
                    drain_all(pushed);
                    return Ok(snap);
                }
                Err(e) => {
                    let last = !e.is_transient() || probe || executed > MAX_RETRIES || breached;
                    failure = Some(e);
                    if last {
                        break Duration::ZERO;
                    }
                }
            }
        };
        // No production of this fetch's own: book its last execution's
        // failure, if it made one, and answer from the cache.
        let err = match failure {
            Some(e) => {
                if e.is_transient() {
                    st.failed(at, probe);
                } else {
                    st.misconfigured(at, probe);
                }
                self.finish(&mut st);
                QueryError::Provider(e)
            }
            None => QueryError::Unavailable { retry_after },
        };
        // A query gets the cached value with its true `produced_at`,
        // tagged `stale` once past its TTL, while its quality is above
        // zero.
        let Some(c) = st.cached.as_ref().filter(|_| degrade) else {
            return Err(err);
        };
        if self.degradation.quality(at.since(c.produced_at)) <= 0.0 {
            return Err(err);
        }
        let stale = self.check_ttl(c, at).is_err();
        if stale {
            self.count(|t| &t.stale_serves);
        }
        Ok(Snapshot::of(c, true, stale))
    }

    /// The answer of an entry whose provider answers each asking account
    /// on its own ([`InfoProvider::per_account`]) to the local `account`:
    /// one fresh snapshot per row, read now and never cached (so no answer
    /// carries one account's rows to another), timed into the §6.6
    /// catalog and counted as a query's production. A caller with no
    /// account (`None`) is answered no row and reads nothing. `None` for
    /// an entry whose one value is shared: it answers through the cache.
    pub fn read_for(&self, account: Option<&str>) -> Option<Vec<Snapshot>> {
        let rows = self.provider.per_account()?;
        let Some(account) = account else {
            return Some(Vec::new());
        };
        let start = self.clock.now();
        let read = rows(account);
        let at = self.clock.now();
        self.executions.fetch_add(1, Ordering::Relaxed);
        self.state.lock().perf.record_duration(at.since(start));
        self.count(|t| &t.queries);
        self.count(|t| &t.misses);
        let snapshot = |attributes| Snapshot {
            attributes: Arc::new(Produced::new(attributes)),
            produced_at: at,
            from_cache: false,
            stale: false,
        };
        Some(read.into_iter().map(snapshot).collect())
    }

    /// Release the monitor and publish the breaker position.
    fn finish(&self, st: &mut EntryState) {
        st.updating = false;
        // Waiters re-take `state` before they look, so waking them
        // before the lock drops is safe.
        self.update_done.notify_all();
        if let Some(t) = self.telemetry.get() {
            t.breaker.set(st.breaker as u32 as f64);
        }
    }

    /// When the next execution may start: the gate a refresh scheduler
    /// parks a keyword behind.
    pub fn not_before(&self) -> SimTime {
        self.state.lock().not_before
    }

    /// Current breaker position.
    pub fn breaker_state(&self) -> BreakerState {
        self.state.lock().breaker
    }

    /// Consecutive failed fetches since the last fresh production.
    pub fn failure_streak(&self) -> u32 {
        self.state.lock().streak
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

    /// Number of fresh productions so far (the `generation` stamp). Each
    /// is pushed once to a watching scheduler's hub, whatever caused it,
    /// so the missed-update ledger in `tests/refresh_sched.rs` balances
    /// pushed versions against this counter.
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }
}

/// The deadline budget of a fetch whose query names no `(timeout=…)`:
/// `max(ttl × 4, 250 ms)`.
fn default_deadline(ttl: Duration) -> Duration {
    (ttl * DEADLINE_TTL_FACTOR).max(DEADLINE_FLOOR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::FnProvider;
    use infogram_sim::{Clock, ManualClock, SystemClock};

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
        assert_eq!(block, "n: 1\n");
        let again = si.last_state().unwrap();
        assert!(std::ptr::eq(
            block,
            again.cached_block("K", OutputFormat::Ldif).unwrap()
        ));
        // Per format, on demand; `plain` has no reply-independent block.
        assert!(hit.attributes.blocks[1].get().is_none());
        assert_eq!(
            hit.cached_block("K", OutputFormat::Xml),
            Some("    <attribute name=\"n\">1</attribute>\n  </provider>\n")
        );
        assert_eq!(hit.cached_block("K", OutputFormat::Plain), None);
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
        assert_eq!(si.execution_count(), 3, "one execution, two retries");
        // A failure does not poison the entry: the next call is gated by
        // the backoff, and says when to come back.
        let err = si.update_state().unwrap_err();
        assert!(
            matches!(err, QueryError::Unavailable { retry_after } if retry_after > Duration::ZERO),
            "{err:?}"
        );
        assert_eq!(si.execution_count(), 3);
        // One failed fetch arms a backoff, not the breaker, and the
        // message says so.
        assert_eq!(si.breaker_state(), BreakerState::Closed);
        let message = err.to_string();
        assert!(!message.contains("breaker open"), "{message}");
        assert!(message.contains("backoff"), "{message}");
    }

    #[test]
    fn delay_throttles_consecutive_updates() {
        let (clock, calls, si) = entry_with_ttl(50);
        si.set_delay(Duration::from_millis(100));
        si.update_state().unwrap(); // real execution
        clock.advance(Duration::from_millis(10));
        let snap = si.update_state().unwrap(); // throttled → cached
        assert!(snap.from_cache && !snap.stale);
        // Past its TTL, a throttled answer says so.
        clock.advance(Duration::from_millis(50));
        let snap = si.update_state().unwrap();
        assert!(snap.from_cache && snap.stale);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(si.failure_streak(), 0, "a throttled call is no outcome");
        clock.advance(Duration::from_millis(40));
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
    fn a_fetch_retries_under_the_monitor_and_its_waiter_never_gets_the_expired_value() {
        // Script: 1st call caches v=1; the 2nd (slow) call fails while a
        // waiter coalesces on it. The fetch retries with the monitor
        // still held, so the waiter wakes to the 3rd call's fresh v=3,
        // never to the long-expired v=1.
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
        let fetching = std::thread::spawn(move || si2.update_state());
        std::thread::sleep(Duration::from_millis(15)); // let the update start
        let waited = si.update_state().unwrap();
        let fetched = fetching.join().unwrap().unwrap();
        assert!(!fetched.from_cache, "the fetch's own retry produced");
        for snap in [&fetched, &waited] {
            assert_eq!(snap.attributes.first().map(|(_, v)| v.as_str()), Some("3"));
        }
        assert!(waited.from_cache, "the waiter coalesced");
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(si.failure_streak(), 0);
    }

    #[test]
    fn waiter_after_failed_refresh_still_coalesces_on_valid_cache() {
        // Same shape, but every later call fails and the old value is
        // still within its TTL: the fetch spends its retries, books one
        // failure and answers the valid old value; the waiter takes it.
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
        let fetching = std::thread::spawn(move || si2.update_state());
        std::thread::sleep(Duration::from_millis(15));
        let waited = si.update_state().unwrap();
        let fetched = fetching.join().unwrap().unwrap();
        for snap in [&fetched, &waited] {
            assert!(snap.from_cache && !snap.stale, "valid old value serves");
            assert_eq!(snap.attributes.first().map(|(_, v)| v.as_str()), Some("1"));
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            4,
            "1 + 3, the waiter ran none"
        );
        assert_eq!(si.failure_streak(), 1, "one failed fetch");
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

    /// A keyword whose provider `mode` scripts: 0 succeeds, 1 fails
    /// transiently, 2 fails as a configuration error.
    fn switchable(keyword: &str) -> (Arc<ManualClock>, Arc<AtomicU64>, Arc<SystemInformation>) {
        let clock = ManualClock::new();
        let mode = Arc::new(AtomicU64::new(1));
        let m2 = Arc::clone(&mode);
        let si = SystemInformation::new(
            Box::new(FnProvider::new(keyword, move || {
                match m2.load(Ordering::SeqCst) {
                    0 => Ok(vec![("v".to_string(), "1".to_string())]),
                    1 => Err(ProviderError::Other("down".to_string())),
                    _ => Err(ProviderError::UnknownCommand {
                        command: "nope".to_string(),
                        detail: "not configured".to_string(),
                    }),
                }
            })),
            clock.clone(),
            Duration::from_millis(100),
            DegradationFn::default(),
        );
        (clock, mode, si)
    }

    /// How long the gate holds a fetch arriving now.
    fn gate(clock: &ManualClock, si: &SystemInformation) -> Duration {
        si.not_before().since(clock.now())
    }

    /// `d` is `base` scaled by a factor in the jitter band.
    fn jittered(d: Duration, base: Duration) -> bool {
        d >= base.mul_f64(1.0 - JITTER) && d <= base.mul_f64(1.0 + JITTER)
    }

    #[test]
    fn trips_after_threshold_and_recovers_via_probe() {
        let (clock, mode, si) = switchable("K");
        // Below the threshold each failed fetch arms a backoff: 25 ms,
        // then 50 ms, each jittered.
        for (streak, backoff) in [(1, 25), (2, 50)] {
            assert!(si.refresh(Cause::Scheduled).is_err());
            assert_eq!(si.breaker_state(), BreakerState::Closed);
            assert_eq!(si.failure_streak(), streak);
            let wait = gate(&clock, &si);
            assert!(jittered(wait, Duration::from_millis(backoff)), "{wait:?}");
            assert!(matches!(
                si.refresh(Cause::Scheduled),
                Err(QueryError::Unavailable { retry_after }) if retry_after == wait
            ));
            clock.advance(wait);
        }
        assert!(si.refresh(Cause::Scheduled).is_err()); // third: trips
        assert_eq!(si.breaker_state(), BreakerState::Open);
        assert_eq!(si.execution_count(), 9);
        let cool_down = gate(&clock, &si);
        assert!(jittered(cool_down, OPEN_FOR), "{cool_down:?}");
        // Cool-down over: exactly one probe, which closes the breaker.
        clock.advance(cool_down);
        mode.store(0, Ordering::SeqCst);
        assert!(!si.refresh(Cause::Scheduled).unwrap().from_cache);
        assert_eq!(si.breaker_state(), BreakerState::Closed);
        assert_eq!((si.failure_streak(), si.execution_count()), (0, 10));
    }

    #[test]
    fn failed_probes_double_the_cool_down_up_to_its_cap() {
        let (clock, _mode, si) = switchable("K");
        while si.breaker_state() != BreakerState::Open {
            let _ = si.refresh(Cause::Scheduled);
            clock.set(si.not_before());
        }
        let mut base = OPEN_FOR;
        for _ in 0..8 {
            let executed = si.execution_count();
            let _ = si.refresh(Cause::Scheduled);
            assert_eq!(si.execution_count(), executed + 1, "a probe gets no retry");
            assert_eq!(si.breaker_state(), BreakerState::Open);
            base = (base * 2).min(OPEN_MAX);
            let cool_down = gate(&clock, &si);
            assert!(jittered(cool_down, base), "{cool_down:?} from {base:?}");
            clock.set(si.not_before());
        }
        assert_eq!(base, OPEN_MAX, "500 ms doubled six times passes the cap");
    }

    #[test]
    fn jitter_is_seed_deterministic_per_keyword() {
        let mk = || {
            let (clock, _mode, si) = switchable("CPULoad");
            let _ = si.refresh(Cause::Scheduled);
            gate(&clock, &si)
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a, b, "same keyword, same seed, same jitter");
        assert!(jittered(a, BACKOFF_BASE), "{a:?}");
    }

    #[test]
    fn config_failure_does_not_count_but_fails_a_probe() {
        let (clock, mode, si) = switchable("K");
        mode.store(2, Ordering::SeqCst);
        assert!(si.refresh(Cause::Scheduled).is_err());
        assert_eq!(si.execution_count(), 1, "never retried");
        assert_eq!(si.failure_streak(), 0);
        assert_eq!(si.breaker_state(), BreakerState::Closed);
        // Trip, then a probe that meets a config error → back to Open.
        mode.store(1, Ordering::SeqCst);
        while si.breaker_state() != BreakerState::Open {
            let _ = si.refresh(Cause::Scheduled);
            clock.set(si.not_before());
        }
        mode.store(2, Ordering::SeqCst);
        let _ = si.refresh(Cause::Scheduled);
        assert_eq!(si.breaker_state(), BreakerState::Open);
        assert!(gate(&clock, &si) > Duration::ZERO);
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
